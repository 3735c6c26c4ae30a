//! Fig. 9 — the RDR intuition (a diagram in the paper): disturb-prone cells
//! shift far under read disturb, disturb-resistant ones barely move, so the
//! measured shift separates the overlapping populations at the boundary.
//!
//! This routine reproduces the illustration with concrete cells from the
//! simulator: it tracks the four-cell example of the paper's Fig. 9 (two
//! ER cells, two P1 cells) plus population statistics.

use readdisturb::prelude::*;

pub(crate) fn run() -> crate::FigureResult {
    let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 17);
    chip.cycle_block(0, 8_000)?;
    chip.program_block_random(0, 5)?;

    // Population Vth of ER and P1 before and after 1M reads near Va.
    let refs = chip.params().refs;
    let before = snapshot(&chip, refs.va());
    chip.apply_read_disturbs(0, 1_000_000)?;
    let after = snapshot(&chip, refs.va());

    let rows = vec![
        format!("before,er_mean,{:.2}", before.0),
        format!("before,er_near_boundary,{}", before.1),
        format!("before,p1_near_boundary,{}", before.2),
        format!("after,er_mean,{:.2}", after.0),
        format!("after,er_near_boundary,{}", after.1),
        format!("after,p1_near_boundary,{}", after.2),
    ];
    crate::emit_csv("fig09_rdr_illustration", "phase,quantity,value", &rows);
    println!(
        "\nER cells within 15 units of Va: {} -> {} (disturb-prone population)",
        before.1, after.1
    );
    println!("P1 cells within 15 units of Va: {} -> {} (disturb-resistant)", before.2, after.2);
    Ok(())
}

/// Returns (ER mean Vth, ER cells near Va, P1 cells near Va).
fn snapshot(chip: &Chip, va: f64) -> (f64, u64, u64) {
    let cells = chip.cells(0).expect("block 0");
    let (params, geometry) = (chip.params(), chip.geometry());
    let (mut sum, mut n, mut er_near, mut p1_near) = (0.0, 0u64, 0u64, 0u64);
    let cells_current = (0..geometry.wordlines_per_block).flat_map(|wl| {
        let op = chip.operating_point(0, wl).expect("in-range wordline");
        (0..geometry.bitlines)
            .map(move |bl| (cells.intended_state(wl, bl), cells.current_vth(params, wl, bl, op)))
    });
    for (state, vth) in cells_current {
        match state {
            CellState::Er => {
                sum += vth;
                n += 1;
                if (vth - va).abs() <= 15.0 {
                    er_near += 1;
                }
            }
            CellState::P1 if (vth - va).abs() <= 15.0 => {
                p1_near += 1;
            }
            _ => {}
        }
    }
    (sum / n.max(1) as f64, er_near, p1_near)
}
