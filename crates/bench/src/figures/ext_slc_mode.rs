//! Extension — SLC-configured blocks resist read disturb (paper §5,
//! \[48, 100\]): the basis for read-hot-page remapping schemes.

use readdisturb::core::characterize::{ext_slc_mode, Scale};

pub(crate) fn run() -> crate::FigureResult {
    let rows = ext_slc_mode(Scale::full(), 9).expect("experiment");
    let csv: Vec<String> =
        rows.iter().map(|r| format!("{},{:.6e},{:.6e}", r.reads, r.mlc_rber, r.slc_rber)).collect();
    crate::emit_csv("ext_slc_mode", "reads,mlc_rber,slc_rber", &csv);

    // Resistance is about disturb-induced *growth*: both technologies share
    // the wear-related error floor, but only MLC accumulates disturb errors.
    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    let slc_growth = (last.slc_rber - first.slc_rber).max(0.0);
    let mlc_growth = last.mlc_rber - first.mlc_rber;
    crate::shape_check(
        "SLC/MLC disturb-induced RBER growth ratio @1M reads",
        slc_growth / mlc_growth,
        0.01,
    );
    Ok(())
}
