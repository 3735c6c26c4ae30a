//! Fig. 4 — RBER vs read-disturb count (1e4..1e9, log-x) for Vpass values
//! from 94% to 100% of nominal, at 8K P/E cycles.

use readdisturb::core::characterize::{fig4_vpass_read_tolerance, Scale};

pub fn run() -> crate::FigureResult {
    let data = fig4_vpass_read_tolerance(Scale::full(), 4).expect("fig4");
    let mut rows = Vec::new();
    for series in &data.series {
        for &(reads, rber) in &series.points {
            rows.push(format!("{},{},{:.6e}", series.vpass_pct, reads, rber));
        }
    }
    crate::emit_csv("fig04", "vpass_pct,reads,rber", &rows);

    // Shape check: tolerable reads at a fixed RBER grow exponentially as
    // Vpass drops — compare reads-to-1.2e-3 between 100% and 98%.
    let reads_to = |pct: u32| -> f64 {
        data.series
            .iter()
            .find(|s| s.vpass_pct == pct)
            .and_then(|s| s.points.iter().find(|p| p.1 > 1.2e-3))
            .map(|p| p.0 as f64)
            .unwrap_or(1e9)
    };
    let gain = reads_to(98) / reads_to(100).max(1.0);
    crate::shape_check("fig4 read-tolerance gain per 2% Vpass", gain, 10.0);
    Ok(())
}
