//! Fig. 2a — threshold-voltage distribution of all programmed states after
//! 0 / 250K / 500K / 1M read disturbs (block with 8K P/E cycles).

use readdisturb::core::characterize::{fig2_vth_histograms, Scale};

pub fn run() -> crate::FigureResult {
    let data = fig2_vth_histograms(Scale::full(), 20).expect("fig2");
    let mut rows = Vec::new();
    for (reads, hist) in &data.snapshots {
        for i in 0..hist.counts.len() {
            if hist.counts[i] > 0 {
                rows.push(format!("{},{:.1},{:.6e}", reads, hist.bin_center(i), hist.pdf(i)));
            }
        }
    }
    crate::emit_csv("fig02a", "reads,vth,pdf", &rows);
    // Shape check: ER mean shift after 1M reads (paper Fig. 2b: ~10 units).
    let er0 = data.snapshots[0].1.state_mean(readdisturb::flash::CellState::Er);
    let er1m = data.snapshots[3].1.state_mean(readdisturb::flash::CellState::Er);
    crate::shape_check("fig2 ER mean shift @1M reads", er1m - er0, 10.0);
    Ok(())
}
