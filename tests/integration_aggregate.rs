//! BlockAggregate-tier parity: the event-driven fast-forward read path
//! must be a statistically faithful, deterministic stand-in for the slower
//! tiers at bulk-replay scale, while `CellExact` stays the default and
//! bit-for-bit unchanged (the golden-run suite enforces the latter).
//!
//! Documented tolerances:
//!
//! * **chip-level RBER trajectory** — at 8K P/E across 0..500K reads the
//!   aggregate closed form tracks the Monte-Carlo oracle within a factor
//!   of [0.6, 1.6] (the calibration band the analytic tier is pinned to);
//! * **aggregate vs analytic closed form** — under block-uniform disturb
//!   the two tiers compute the *same* expectation (relative difference
//!   below 1e-9: both tiers share one fold-free accumulator, which the
//!   analytic tier sums per wordline);
//! * **engine-level aggregate RBER** after a 4×4 replay on dies pre-worn
//!   to 8K P/E — within 25% of `CellExact` (ratio in [0.75, 1.33]; the
//!   benchmark's `paper-exact` workload reports the same quantity as
//!   `core.tier_rber_err`);
//! * **determinism** — bit-identical across engine worker-thread counts
//!   (FNV digest included), and across completion-emitting vs stats-only
//!   replay.

use readdisturb::flash::FlashError;
use readdisturb::prelude::*;
use readdisturb::workloads::{OpKind, TraceOp};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn trace(n: usize) -> Vec<TraceOp> {
    let profile = WorkloadProfile::by_name("umass-web").unwrap();
    let ppb = SsdConfig::engine_scale(2015).geometry.pages_per_block();
    profile.generator(2015, ppb).take(n).collect()
}

fn engine_config(fidelity: ReadFidelity) -> EngineConfig {
    EngineConfig {
        topology: Topology { channels: 4, dies_per_channel: 4 },
        die: SsdConfig::engine_scale(2015),
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
    .with_fidelity(fidelity)
}

/// Chip-level trajectory: grow read disturb on a worn block and compare the
/// aggregate expectation against the Monte-Carlo oracle at every
/// checkpoint.
#[test]
fn aggregate_rber_trajectory_tracks_exact_chip() {
    let geometry = Geometry::characterization();
    let mut exact = Chip::new(geometry, ChipParams::default(), 31);
    let mut aggregate =
        Chip::with_fidelity(geometry, ChipParams::default(), 31, ReadFidelity::BlockAggregate);
    for chip in [&mut exact, &mut aggregate] {
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 3).unwrap();
    }
    let mut last_aggregate = 0.0;
    for step in [50_000u64, 50_000, 150_000, 250_000] {
        exact.apply_read_disturbs(0, step).unwrap();
        aggregate.apply_read_disturbs(0, step).unwrap();
        let mc = exact.block_rber_rate(0).unwrap();
        let cf = aggregate.block_rber_rate(0).unwrap();
        let ratio = cf / mc;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "after +{step} reads: aggregate {cf:.3e} vs exact {mc:.3e} (ratio {ratio:.2})"
        );
        assert!(cf > last_aggregate, "trajectory must grow with reads");
        last_aggregate = cf;
    }
    // Retention moves both tiers the same way.
    exact.advance_days(14.0);
    aggregate.advance_days(14.0);
    let ratio = aggregate.block_rber_rate(0).unwrap() / exact.block_rber_rate(0).unwrap();
    assert!((0.6..=1.6).contains(&ratio), "aged ratio {ratio:.2}");
}

/// Under block-uniform disturb the two tiers share one fold-free
/// accumulator and the analytic tier's page lanes add no per-wordline term:
/// the closed-form expectations must agree to floating-point noise at every
/// checkpoint of a mixed wear/disturb/retention/Vpass schedule.
#[test]
fn aggregate_expectation_equals_analytic_closed_form() {
    let geometry = Geometry::characterization();
    let build = |fidelity: ReadFidelity| -> Chip {
        let mut chip = Chip::with_fidelity(geometry, ChipParams::default(), 7, fidelity);
        chip.cycle_block(0, 6_000).unwrap();
        chip.program_block_random(0, 3).unwrap();
        chip
    };
    let mut analytic = build(ReadFidelity::PageAnalytic);
    let mut aggregate = build(ReadFidelity::BlockAggregate);
    let check = |analytic: &Chip, aggregate: &Chip, stage: &str| {
        let a = analytic.block_rber_rate(0).unwrap();
        let b = aggregate.block_rber_rate(0).unwrap();
        let rel = (a - b).abs() / a.max(1e-30);
        assert!(rel < 1e-9, "{stage}: analytic {a:.12e} vs aggregate {b:.12e} (rel {rel:.2e})");
    };
    check(&analytic, &aggregate, "fresh");
    for chip in [&mut analytic, &mut aggregate] {
        chip.apply_read_disturbs(0, 200_000).unwrap();
    }
    check(&analytic, &aggregate, "disturbed");
    for chip in [&mut analytic, &mut aggregate] {
        chip.advance_days(10.0);
    }
    check(&analytic, &aggregate, "aged");
    for chip in [&mut analytic, &mut aggregate] {
        chip.set_block_vpass(0, 490.0).unwrap();
        chip.apply_read_disturbs(0, 100_000).unwrap();
    }
    check(&analytic, &aggregate, "relaxed-vpass");
}

/// Engine-level trajectory: replay the 4×4 umass-web trace at
/// both tiers and compare the aggregate post-replay block RBER.
#[test]
fn aggregate_replay_rber_matches_exact_within_tolerance() {
    let ops = trace(12_000);
    let mean_rber = |fidelity: ReadFidelity| -> (f64, EngineStats) {
        let mut engine = Engine::new(engine_config(fidelity)).unwrap();
        // Pre-wear every die so the comparison runs in the calibrated
        // (misprogram-dominated) regime rather than on fresh tails alone.
        for d in 0..engine.config().topology.dies() {
            let blocks = engine.die(0).config().geometry.blocks;
            for b in 0..blocks {
                engine.die_mut(d).chip_mut().cycle_block(b, 8_000).unwrap();
            }
        }
        let stats = engine.replay_stats_only(ops.iter().copied(), 0);
        let (mut errors, mut bits) = (0.0f64, 0u64);
        for d in 0..engine.config().topology.dies() {
            let die = engine.die(d);
            let bits_per_page = die.chip().geometry().bits_per_page() as u64;
            for block in die.valid_blocks() {
                let pages = die.chip().block_status(block).unwrap().programmed_pages;
                let b = pages as u64 * bits_per_page;
                errors += die.chip().block_rber_rate(block).unwrap() * b as f64;
                bits += b;
            }
        }
        (errors / bits.max(1) as f64, stats)
    };
    let (exact_rber, exact_stats) = mean_rber(ReadFidelity::CellExact);
    let (aggregate_rber, aggregate_stats) = mean_rber(ReadFidelity::BlockAggregate);
    let ratio = aggregate_rber / exact_rber;
    assert!(
        (0.75..=4.0 / 3.0).contains(&ratio),
        "mean RBER: aggregate {aggregate_rber:.3e} vs exact {exact_rber:.3e} (ratio {ratio:.2})"
    );
    assert_eq!(aggregate_stats.ops, exact_stats.ops);
    assert_eq!(aggregate_stats.reads, exact_stats.reads);
    assert_eq!(aggregate_stats.writes, exact_stats.writes);
    assert_eq!(aggregate_stats.fidelity, ReadFidelity::BlockAggregate);
}

/// The aggregate tier must be bit-identical for any worker-thread count —
/// the same FNV digest gate the other tiers pass — and the stats-only
/// replay entry point must agree with the completion-emitting one.
#[test]
fn aggregate_replay_is_thread_count_invariant() {
    let ops = trace(8_000);
    let run = |threads: usize| -> EngineStats {
        let mut engine = Engine::new(engine_config(ReadFidelity::BlockAggregate)).unwrap();
        engine.replay_stats_only(ops.iter().copied(), threads)
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    assert_eq!(a, b, "aggregate replay depends on worker-thread count");
    assert_eq!(a, c, "aggregate replay depends on worker-thread count");
    assert!(a.ops == 8_000 && a.data_digest != FNV_OFFSET);
    // Submitted and run (with completions), the trace produces the same
    // statistics.
    let mut engine = Engine::new(engine_config(ReadFidelity::BlockAggregate)).unwrap();
    let logical = engine.logical_pages();
    for op in &ops {
        let kind = if op.kind == OpKind::Read { ReqKind::Read } else { ReqKind::Write };
        engine.submit(kind, op.lpa % logical);
    }
    assert_eq!(engine.run(4), 8_000);
    assert_eq!(a, engine.stats(), "stats-only and full replay diverged");
    let mut completions = Vec::new();
    engine.drain_completions_into(&mut completions);
    assert_eq!(completions.len(), 8_000);
}

/// Recovery-ladder escalation parity: a worn, heavily disturbed block
/// escalates through the same retry-sweep ladder on the aggregate tier as
/// on the analytic tier, with retry reads charged to the same counters.
#[test]
fn recovery_ladder_escalates_on_aggregate_tier() {
    for fidelity in [ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate] {
        let config = SsdConfig::small_test().with_fidelity(fidelity);
        let mut ssd = Ssd::new(config).unwrap();
        // Pre-wear the array, then land the page and disturb its block hard.
        for b in 0..ssd.config().geometry.blocks {
            ssd.chip_mut().cycle_block(b, 6_000).unwrap();
        }
        ssd.write(0).unwrap();
        let block = ssd.read(0).unwrap().ppa.block;
        ssd.chip_mut().apply_read_disturbs(block, 3_000_000).unwrap();
        let mut recovered = 0u64;
        let mut uncorrectable = 0u64;
        for _ in 0..20 {
            match ssd.read(0) {
                Ok(r) => {
                    if matches!(r.resolution, ReadResolution::Recovered { .. }) {
                        recovered += 1;
                    }
                }
                Err(e) => {
                    assert!(e.to_string().contains("uncorrectable"), "{fidelity}: {e}");
                    uncorrectable += 1;
                }
            }
        }
        let stats = ssd.stats();
        assert!(
            recovered + uncorrectable > 0,
            "{fidelity}: heavy disturb never exceeded the ECC line"
        );
        assert_eq!(stats.recovered_reads, recovered, "{fidelity}");
        assert_eq!(stats.uncorrectable_reads, uncorrectable, "{fidelity}");
        if recovered > 0 {
            assert!(stats.recovery_reads > 0, "{fidelity}: recovery must cost retry reads");
        }
    }
}

/// Read reclaim fires from the same counters on the aggregate tier, and
/// the relocation path works without page payloads.
#[test]
fn read_reclaim_policy_works_on_aggregate_tier() {
    let config = SsdConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
    let mut ssd = Ssd::with_policy(config, ReadReclaim { read_threshold: 500 }).unwrap();
    ssd.write(0).unwrap();
    let first = ssd.read(0).unwrap().ppa;
    for _ in 0..600 {
        ssd.read(0).unwrap();
    }
    assert!(ssd.stats().reclaims >= 1, "reclaim never fired on the aggregate tier");
    let after = ssd.read(0).unwrap().ppa;
    assert_ne!(first.block, after.block, "hot data should have moved");
}

/// Aggregate host reads carry no payload (error counts only), and the
/// per-cell oracles fail typed, exactly as the tier contract documents.
#[test]
fn aggregate_reads_are_payload_free_and_oracles_fail_typed() {
    let config = SsdConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
    let mut ssd = Ssd::new(config).unwrap();
    ssd.write(0).unwrap();
    let r = ssd.read(0).unwrap();
    assert!(r.data.is_empty(), "aggregate host reads must be payload-free");
    let block = r.ppa.block;
    assert!(matches!(
        ssd.chip().intended_page_bits(block, r.ppa.page),
        Err(FlashError::FidelityUnsupported { .. })
    ));
    assert!(matches!(
        ssd.chip().vth_histogram(block, 4.0),
        Err(FlashError::FidelityUnsupported { .. })
    ));
}
