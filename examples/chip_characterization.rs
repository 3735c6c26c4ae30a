//! Runs the paper's chip-characterization suite (§2) on the simulated
//! device and prints compact summaries of each finding.
//!
//! Run with: `cargo run --release --example chip_characterization`
//! (Full CSV dumps of every figure come from `rd-bench`'s `figures` binary.)

use readdisturb::core::characterize::{
    fig2_vth_histograms, fig3_rber_vs_reads, fig5_passthrough_sweep, fig6_retention_staircase,
    Scale, PAPER_FIG3_SLOPES,
};
use readdisturb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::full();

    // Finding 1 (Fig. 2): disturb shifts the low states upward.
    let fig2 = fig2_vth_histograms(scale, 7)?;
    println!("Finding 1 - threshold-voltage shift under read disturb (8K P/E):");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "reads", "ER mean", "P1 mean", "P2 mean", "P3 mean"
    );
    for (reads, hist) in &fig2.snapshots {
        println!(
            "{:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            reads,
            hist.state_mean(CellState::Er),
            hist.state_mean(CellState::P1),
            hist.state_mean(CellState::P2),
            hist.state_mean(CellState::P3),
        );
    }

    // Finding 2 (Fig. 3): RBER grows linearly with reads, faster with wear.
    let fig3 = fig3_rber_vs_reads(scale, 5)?;
    println!("\nFinding 2 - disturb error slope vs wear (paper's Fig. 3 table):");
    println!("{:>10} {:>14} {:>14} {:>14}", "P/E", "measured", "analytic", "paper");
    for (series, (pe, paper)) in fig3.series.iter().zip(PAPER_FIG3_SLOPES) {
        assert_eq!(series.pe_cycles, pe);
        println!(
            "{:>10} {:>14.2e} {:>14.2e} {:>14.2e}",
            pe, series.fitted_slope, series.analytic_slope, paper
        );
    }

    // Finding 3 (Fig. 5): relaxing Vpass is free up to a point, and safer
    // for older data.
    let fig5 = fig5_passthrough_sweep(scale, 3)?;
    println!("\nFinding 3 - additional RBER from relaxed Vpass (Fig. 5):");
    print!("{:>8}", "vpass");
    for s in &fig5.series {
        print!("{:>11}", format!("{}d", s.age_days));
    }
    println!();
    for i in (0..fig5.series[0].points.len()).step_by(4) {
        print!("{:>8.0}", fig5.series[0].points[i].0);
        for s in &fig5.series {
            print!("{:>11.2e}", s.points[i].1);
        }
        println!();
    }

    // Finding 4 (Fig. 6): the safe-reduction staircase.
    let fig6 = fig6_retention_staircase(64);
    println!("\nFinding 4 - max safe Vpass reduction vs retention age (Fig. 6):");
    print!("day:  ");
    for row in &fig6.rows {
        print!("{:>3}", row.day);
    }
    print!("\nsafe%:");
    for row in &fig6.rows {
        print!("{:>3}", row.safe_reduction_pct);
    }
    println!("\n(capability {:.1e}, usable {:.1e})", fig6.capability, fig6.usable);
    Ok(())
}
