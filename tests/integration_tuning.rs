//! Integration tests of the Vpass Tuning mechanism over full refresh
//! intervals on the Monte-Carlo chip.

use readdisturb::prelude::*;

/// Realistic-page geometry: worst-page statistics behave like real chips.
fn geometry() -> Geometry {
    Geometry { blocks: 2, wordlines_per_block: 16, bitlines: 64 * 1024, bits_per_cell: 2 }
}

fn worn_chip(seed: u64, pe: u64) -> Chip {
    let mut chip = Chip::new(geometry(), ChipParams::default(), seed);
    for b in 0..2 {
        chip.cycle_block(b, pe).unwrap();
        chip.program_block_random(b, seed ^ b as u64).unwrap();
    }
    chip
}

/// One simulated week: daily tuner maintenance (paper's Action 2 runs right
/// after refresh, i.e. before the interval's traffic), then the day's reads.
fn run_week(chip: &mut Chip, tuner: &mut Option<VpassTuner>, reads_per_day: u64) -> f64 {
    for day in 0..7 {
        if let Some(t) = tuner.as_mut() {
            for b in 0..2 {
                if day == 0 {
                    t.tune_block(chip, b).unwrap();
                } else {
                    t.daily_check(chip, b).unwrap();
                }
            }
        }
        for b in 0..2 {
            chip.apply_read_disturbs(b, reads_per_day).unwrap();
        }
        chip.advance_days(1.0);
    }
    // End-of-interval error rate at nominal read conditions: restore the
    // nominal Vpass so deliberate pass-through errors are excluded, exactly
    // like the paper's Fig. 7 accounting.
    for b in 0..2 {
        chip.set_block_vpass(b, NOMINAL_VPASS).unwrap();
    }
    let stats: BitErrorStats = (0..2).map(|b| chip.block_rber(b).unwrap()).sum();
    stats.rate()
}

#[test]
fn tuning_reduces_end_of_interval_errors_on_read_hot_block() {
    let reads_per_day = 30_000;
    let mut baseline_chip = worn_chip(77, 6_000);
    let mut none = None;
    let baseline = run_week(&mut baseline_chip, &mut none, reads_per_day);

    let mut tuned_chip = worn_chip(77, 6_000);
    let mut tuner = VpassTuner::new(VpassTunerConfig::default());
    for b in 0..2 {
        tuner.manufacture_init(&mut tuned_chip, b).unwrap();
    }
    let mut some = Some(tuner);
    let tuned = run_week(&mut tuned_chip, &mut some, reads_per_day);

    assert!(
        tuned < baseline * 0.9,
        "tuning did not help: baseline {baseline:.3e}, tuned {tuned:.3e}"
    );
    let stats = some.unwrap().stats();
    assert!(stats.tunings >= 2 && stats.checks >= 12);
}

#[test]
fn tuned_blocks_always_remain_ecc_correctable() {
    let mut chip = worn_chip(5, 5_000);
    let mut tuner = VpassTuner::new(VpassTunerConfig::default());
    let capability = MarginPolicy::paper_default().capability_errors(64 * 1024);
    for b in 0..2 {
        tuner.manufacture_init(&mut chip, b).unwrap();
    }
    for day in 0..10 {
        for b in 0..2 {
            chip.apply_read_disturbs(b, 15_000).unwrap();
            if day % 7 == 0 {
                tuner.tune_block(&mut chip, b).unwrap();
            } else {
                tuner.daily_check(&mut chip, b).unwrap();
            }
            // Every page must stay within the full ECC capability while the
            // tuned Vpass is active (correctness invariant of SS3).
            for page in (0..chip.geometry().pages_per_block()).step_by(7) {
                let outcome = chip.read_page(b, page).unwrap();
                assert!(
                    outcome.stats.errors <= capability,
                    "day {day} block {b} page {page}: {} errors > C={capability}",
                    outcome.stats.errors
                );
            }
        }
        chip.advance_days(1.0);
    }
}

#[test]
fn fallback_engages_at_end_of_life_wear() {
    let mut chip = worn_chip(3, 16_000);
    chip.advance_days(6.0);
    let mut tuner = VpassTuner::new(VpassTunerConfig::default());
    tuner.manufacture_init(&mut chip, 0).unwrap();
    let report = tuner.tune_block(&mut chip, 0).unwrap();
    assert!(report.fell_back, "worn-out block must fall back (margin {})", report.margin);
    assert_eq!(chip.block_vpass(0).unwrap(), NOMINAL_VPASS);
}

#[test]
fn policy_and_manual_tuner_agree() {
    // The FTL policy wrapper must drive the same mechanism as manual calls.
    let mut chip = worn_chip(21, 4_000);
    let mut tuner = VpassTuner::new(VpassTunerConfig::default());
    tuner.manufacture_init(&mut chip, 0).unwrap();
    let manual = tuner.tune_block(&mut chip, 0).unwrap();
    assert!(!manual.fell_back);
    assert!(manual.vpass_after < NOMINAL_VPASS);
    // Same starting state via same seed: the policy path reaches the same
    // voltage after its daily sweep.
    let mut chip2 = worn_chip(21, 4_000);
    let mut tuner2 = VpassTuner::new(VpassTunerConfig::default());
    tuner2.manufacture_init(&mut chip2, 0).unwrap();
    let report2 = tuner2.tune_block(&mut chip2, 0).unwrap();
    assert_eq!(manual.vpass_after, report2.vpass_after);
}

/// The product path: a thinned trace replayed through a `Die` running the
/// tuner, with the device aged by the trace's whole elapsed time — not just
/// the gaps between the ops it serves — so its daily ticks run and tune
/// some block below nominal.
#[test]
fn replayed_trace_tunes_a_block_below_nominal_vpass() {
    use readdisturb::ftl::{Die, FtlError};
    use readdisturb::workloads::OpKind;
    let config = SsdConfig {
        chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
        geometry: Geometry {
            blocks: 12,
            wordlines_per_block: 8,
            bitlines: 8 * 1024,
            bits_per_cell: 2,
        },
        overprovision: 0.25,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 1.0e-3,
        seed: 11,
        chip_params: ChipParams::default(),
    }
    .with_fidelity(ReadFidelity::PageAnalytic);
    let mut ssd = Die::with_policy(config, VpassTuner::default()).unwrap();
    let logical_pages = ssd.map().logical_pages();
    let pages_per_block = ssd.config().geometry.pages_per_block();
    let trace = WorkloadProfile::by_name("umass-web").unwrap().generator(3, pages_per_block);
    let (days, thin) = (3.0, 200);
    let mut clock_s = 0.0f64;
    for op in trace.take_while(|op| op.time_s < days * 86_400.0).skip(thin - 1).step_by(thin) {
        ssd.advance_time((op.time_s - clock_s) / 86_400.0).unwrap();
        clock_s = op.time_s;
        let lpa = op.lpa % logical_pages;
        match op.kind {
            OpKind::Write => ssd.write(lpa).unwrap(),
            OpKind::Read => match ssd.read(lpa) {
                Ok(_) | Err(FtlError::NotWritten { .. } | FtlError::Uncorrectable { .. }) => {}
                Err(e) => panic!("read {lpa}: {e}"),
            },
        }
    }
    assert!(clock_s > (days - 0.5) * 86_400.0, "the device aged {clock_s} s");
    let vpass: Vec<f64> =
        ssd.valid_blocks().iter().map(|&b| ssd.chip().block_vpass(b).unwrap()).collect();
    assert!(
        vpass.iter().any(|&v| v < NOMINAL_VPASS),
        "no valid block tuned below nominal after {days} days: {vpass:?}"
    );
}
