//! Fig. 5 — additional RBER induced by relaxing Vpass, across retention
//! ages 0–21 days (8K P/E cycles).

use readdisturb::core::characterize::{fig5_passthrough_sweep, Scale};

pub fn run() -> crate::FigureResult {
    // Pass-through errors come from a sparse over-programmed population
    // (~2e-4 of cells); use a 1M-cell block so the curves are not
    // shot-noise limited.
    let scale = Scale { wordlines: 64, bitlines: 16 * 1024 };
    let data = fig5_passthrough_sweep(scale, 6).expect("fig5");
    let mut rows = Vec::new();
    for series in &data.series {
        for &(vpass, addl) in &series.points {
            rows.push(format!("{},{:.0},{:.6e}", series.age_days, vpass, addl));
        }
    }
    crate::emit_csv("fig05", "age_days,vpass,additional_rber", &rows);

    // Shape checks: ~1e-3 at Vpass=480 with fresh data; zero near nominal;
    // older data strictly safer.
    let at = |age: u32, vpass: f64| {
        data.series
            .iter()
            .find(|s| s.age_days == age)
            .and_then(|s| s.points.iter().find(|p| (p.0 - vpass).abs() < 1.1))
            .map(|p| p.1)
            .unwrap_or(f64::NAN)
    };
    crate::shape_check("fig5 addl RBER @480, 0-day", at(0, 480.0), 1.0e-3);
    crate::shape_check("fig5 addl RBER @510, 0-day (free region)", at(0, 510.0), 0.0);
    crate::shape_check("fig5 age relief @480 (21d/0d)", at(21, 480.0) / at(0, 480.0), 0.3);
    Ok(())
}
