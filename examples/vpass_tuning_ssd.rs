//! Full-stack demo: an SSD running a synthetic enterprise workload with the
//! Vpass Tuning policy plugged into the controller, compared against the
//! same controller with no mitigation.
//!
//! Run with: `cargo run --release --example vpass_tuning_ssd`

use readdisturb::ftl::{Die, FtlError};
use readdisturb::prelude::*;
use readdisturb::workloads::OpKind;

fn ssd_config() -> SsdConfig {
    SsdConfig {
        chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
        geometry: readdisturb::flash::Geometry {
            blocks: 12,
            wordlines_per_block: 8,
            bitlines: 16 * 1024,
            bits_per_cell: 2,
        },
        overprovision: 0.25,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 1.0e-3,
        seed: 11,
        chip_params: ChipParams::default(),
    }
}

/// Replays two weeks of a read-hot workload against an SSD, returning
/// (corrected bits, uncorrectable reads, mean tuned reduction %).
fn replay<P: ControllerPolicy>(
    mut ssd: Die<P>,
) -> Result<(u64, u64, f64), Box<dyn std::error::Error>> {
    // Pre-wear the device so disturb effects are visible within the demo.
    for b in 0..ssd.config().geometry.blocks {
        ssd.chip_mut().cycle_block(b, 6_000)?;
    }
    let profile = WorkloadProfile::by_name("umass-web").expect("suite profile");
    let pages_per_block = ssd.config().geometry.pages_per_block();
    let logical_pages = ssd.map().logical_pages();
    // Scale the trace footprint down to the demo SSD.
    let gen = profile.generator(3, pages_per_block);
    let sim_s = 14.0 * 86_400.0;
    // Thin the trace so the demo stays fast while preserving the mix; the
    // device still ages by the whole trace's time, so its daily ticks and
    // refreshes run.
    let thin = 200;
    // Trace time of the last op the device served.
    let mut clock_s = 0.0f64;
    for op in gen.take_while(|op| op.time_s < sim_s).skip(thin - 1).step_by(thin) {
        ssd.advance_time((op.time_s - clock_s).max(0.0) / 86_400.0)?;
        clock_s = op.time_s;
        let lpa = op.lpa % logical_pages;
        match op.kind {
            OpKind::Write => ssd.write(lpa)?,
            // A lost read is what the demo counts (`uncorrectable_reads`).
            OpKind::Read => match ssd.read(lpa) {
                Ok(_) | Err(FtlError::NotWritten { .. } | FtlError::Uncorrectable { .. }) => {}
                Err(e) => return Err(e.into()),
            },
        }
    }
    let stats = ssd.stats();
    let mean_reduction = {
        let blocks = ssd.valid_blocks();
        let mut total = 0.0;
        for &b in &blocks {
            total += 1.0 - ssd.chip().block_vpass(b)? / NOMINAL_VPASS;
        }
        100.0 * total / blocks.len().max(1) as f64
    };
    Ok((stats.corrected_bits, stats.uncorrectable_reads, mean_reduction))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("replaying 2 weeks of a web-search-like workload (thinned)...\n");

    let baseline = Die::new(ssd_config())?;
    let (bits_base, loss_base, _) = replay(baseline)?;

    let tuned = Die::with_policy(ssd_config(), VpassTuner::default())?;
    let (bits_tuned, loss_tuned, reduction) = replay(tuned)?;

    println!("{:<22} {:>16} {:>16}", "", "baseline", "vpass-tuning");
    println!("{:<22} {:>16} {:>16}", "corrected raw bits", bits_base, bits_tuned);
    println!("{:<22} {:>16} {:>16}", "uncorrectable reads", loss_base, loss_tuned);
    println!("\nmean Vpass reduction across data blocks: {reduction:.1}%");
    println!(
        "corrected-bit reduction: {:.0}%",
        (1.0 - bits_tuned as f64 / bits_base.max(1) as f64) * 100.0
    );
    println!("\n(the endurance translation of this error reduction is Fig. 8:");
    println!(" run `cargo run --release -p rd-bench --bin figures -- fig08`)");
    Ok(())
}
