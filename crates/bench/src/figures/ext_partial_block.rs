//! Extension — read disturb on partially-programmed blocks (paper §5,
//! \[15, 67\]): erased wordlines sit at the lowest voltages and absorb the
//! most disturb, a reliability and security hazard when they are later
//! programmed.

use readdisturb::core::characterize::{ext_partial_block, Scale};

pub(crate) fn run() -> crate::FigureResult {
    let rows = ext_partial_block(Scale::full(), 5).expect("experiment");
    let csv: Vec<String> = rows
        .iter()
        .map(|r| format!("{},{:.3},{:.6e}", r.reads, r.erased_shift, r.programmed_rber))
        .collect();
    crate::emit_csv("ext_partial_block", "reads,erased_vth_shift,programmed_rber", &csv);

    let last = rows.last().expect("rows");
    crate::shape_check("erased-wordline Vth shift @1M reads (units)", last.erased_shift, 10.0);
    Ok(())
}
