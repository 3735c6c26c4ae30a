//! Fig. 7 — error-rate peaks across refresh intervals, with and without
//! Vpass Tuning (the paper's conceptual figure, simulated concretely for a
//! read-hot block at 8K P/E).

use readdisturb::core::characterize::fig7_refresh_intervals;

pub(crate) fn run() -> crate::FigureResult {
    let data = fig7_refresh_intervals(8_000, 40_000.0, 64);
    let rows: Vec<String> = data
        .points
        .iter()
        .map(|p| format!("{:.2},{:.6e},{:.6e}", p.day, p.unmitigated, p.mitigated))
        .collect();
    crate::emit_csv("fig07", "day,unmitigated_rber,mitigated_rber", &rows);
    println!("refresh interval: {} days, capability {:.1e}", data.interval_days, data.capability);

    let peak = |f: &dyn Fn(&readdisturb::core::characterize::Fig7Point) -> f64| {
        data.points.iter().map(f).fold(0.0, f64::max)
    };
    let unmit = peak(&|p| p.unmitigated);
    let mit = peak(&|p| p.mitigated);
    crate::shape_check("fig7 peak error reduction from mitigation", 1.0 - mit / unmit, 0.5);
    Ok(())
}
