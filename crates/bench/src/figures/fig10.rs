//! Fig. 10 — RBER vs read-disturb count with and without Read Disturb
//! Recovery (8K P/E cycles; paper: up to 36% reduction at 1M reads).

use readdisturb::core::characterize::{fig10_rdr, Scale};

pub(crate) fn run() -> crate::FigureResult {
    let data = fig10_rdr(Scale::full(), 55).expect("fig10");
    let rows: Vec<String> = data
        .points
        .iter()
        .map(|p| format!("{},{:.6e},{:.6e}", p.reads, p.no_recovery, p.rdr))
        .collect();
    crate::emit_csv("fig10", "reads,no_recovery_rber,rdr_rber", &rows);

    let last = data.points.last().expect("points");
    crate::shape_check("fig10 RBER reduction @1M reads", 1.0 - last.rdr / last.no_recovery, 0.36);
    Ok(())
}
