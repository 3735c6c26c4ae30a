//! Fig. 2b — zoom on the ER–P1 region of the Fig. 2a experiment: the ER
//! distribution shifts right and compresses as reads accumulate.

use readdisturb::core::characterize::{fig2_vth_histograms, Scale};
use readdisturb::flash::CellState;

pub fn run() -> crate::FigureResult {
    let data = fig2_vth_histograms(Scale::full(), 20).expect("fig2");
    let mut rows = Vec::new();
    for (reads, hist) in &data.snapshots {
        for i in 0..hist.counts.len() {
            let v = hist.bin_center(i);
            if (-20.0..=120.0).contains(&v) {
                let er = hist.pdf_state(CellState::Er, i);
                let p1 = hist.pdf_state(CellState::P1, i);
                if er > 0.0 || p1 > 0.0 {
                    rows.push(format!("{reads},{v:.1},{er:.6e},{p1:.6e}"));
                }
            }
        }
    }
    crate::emit_csv("fig02b", "reads,vth,pdf_er,pdf_p1", &rows);
    Ok(())
}
