//! Fig. 3 — RBER vs read-disturb count for P/E wear from 2K to 15K, with
//! the per-wear slope table.

use readdisturb::core::characterize::{fig3_rber_vs_reads, Scale, PAPER_FIG3_SLOPES};

pub(crate) fn run() -> crate::FigureResult {
    let data = fig3_rber_vs_reads(Scale::full(), 99).expect("fig3");
    let mut rows = Vec::new();
    for series in &data.series {
        for &(reads, rber) in &series.points {
            rows.push(format!("{},{},{:.6e}", series.pe_cycles, reads, rber));
        }
    }
    crate::emit_csv("fig03", "pe_cycles,reads,rber", &rows);

    println!("\nslope table (per read):");
    println!("{:>8} {:>14} {:>14} {:>14}", "P/E", "measured", "analytic", "paper");
    for (series, (pe, paper)) in data.series.iter().zip(PAPER_FIG3_SLOPES) {
        println!(
            "{:>8} {:>14.2e} {:>14.2e} {:>14.2e}",
            pe, series.fitted_slope, series.analytic_slope, paper
        );
        crate::shape_check(&format!("fig3 slope @{pe} P/E"), series.fitted_slope, paper);
    }
    Ok(())
}
