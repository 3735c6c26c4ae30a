//! Fig. 4 — RBER vs read-disturb count (1e4..1e9, log-x) for Vpass values
//! from 94% to 100% of nominal, at 8K P/E cycles.

use readdisturb::core::characterize::{fig4_vpass_read_tolerance, Scale};

pub(crate) fn run() -> crate::FigureResult {
    let data = fig4_vpass_read_tolerance(Scale::full(), 4).expect("fig4");
    let mut rows = Vec::new();
    for series in &data.series {
        for &(reads, rber) in &series.points {
            rows.push(format!("{},{},{:.6e}", series.vpass_pct, reads, rber));
        }
    }
    crate::emit_csv("fig04", "vpass_pct,reads,rber", &rows);

    // Shape check: tolerable reads at a fixed RBER grow exponentially as
    // Vpass drops — compare reads-to-1.2e-3 between 100% and 98%. The grid
    // steps half a decade, so log reads is interpolated linearly in RBER
    // between the two points that bracket the threshold; a grid point alone
    // could only give a gain that is a power of 10^0.5.
    const THRESHOLD: f64 = 1.2e-3;
    let reads_to = |pct: u32| -> f64 {
        let points = data.series.iter().find(|s| s.vpass_pct == pct).map_or(&[][..], |s| &s.points);
        match points.iter().position(|p| p.1 > THRESHOLD) {
            None => 1e9,
            Some(0) => points[0].0 as f64,
            Some(i) => {
                let ((n0, r0), (n1, r1)) = (points[i - 1], points[i]);
                let (l0, l1) = ((n0 as f64).ln(), (n1 as f64).ln());
                (l0 + (THRESHOLD - r0) / (r1 - r0) * (l1 - l0)).exp()
            }
        }
    };
    let gain = reads_to(98) / reads_to(100).max(1.0);
    crate::shape_check("fig4 read-tolerance gain per 2% Vpass", gain, 10.0);
    Ok(())
}
