//! Fidelity-tier parity: the `PageAnalytic` read path must be a
//! statistically faithful, deterministic stand-in for `CellExact` at SSD
//! scale, while `CellExact` stays the default and bit-for-bit unchanged
//! (the golden-run suite enforces the latter).
//!
//! Documented tolerances (see also the calibration suite's ±35% grid):
//!
//! * **chip-level RBER trajectory** — at 8K P/E across 0..500K reads the
//!   analytic closed form tracks the Monte-Carlo oracle within a factor of
//!   [0.6, 1.6], the same band `tests/calibration.rs` pins the
//!   `AnalyticModel` itself to;
//! * **engine-level aggregate RBER** after a 4×4 replay — within a factor
//!   of [0.3, 3.0] (low-wear dies: small expectations, Monte-Carlo noise
//!   dominates the exact side);
//! * **determinism** — the analytic tier is bit-identical across engine
//!   worker-thread counts (payload digest included), exactly like the
//!   exact tier.

use readdisturb::ftl::Die;
use readdisturb::prelude::*;
use readdisturb::workloads::TraceOp;

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
/// analytic expectation against the Monte-Carlo oracle at every checkpoint.
#[test]
fn analytic_rber_trajectory_tracks_exact_chip() {
    let geometry = Geometry::characterization();
    let mut exact = Chip::new(geometry, ChipParams::default(), 31);
    let mut analytic =
        Chip::with_fidelity(geometry, ChipParams::default(), 31, ReadFidelity::PageAnalytic);
    for chip in [&mut exact, &mut analytic] {
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 3).unwrap();
    }
    let mut last_analytic = 0.0;
    for step in [50_000u64, 50_000, 150_000, 250_000] {
        exact.apply_read_disturbs(0, step).unwrap();
        analytic.apply_read_disturbs(0, step).unwrap();
        let mc = exact.block_rber_rate(0).unwrap();
        let cf = analytic.block_rber_rate(0).unwrap();
        let ratio = cf / mc;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "after +{step} reads: analytic {cf:.3e} vs exact {mc:.3e} (ratio {ratio:.2})"
        );
        assert!(cf > last_analytic, "trajectory must grow with reads");
        last_analytic = cf;
    }
    // Retention moves both tiers the same way.
    exact.advance_days(14.0);
    analytic.advance_days(14.0);
    let ratio = analytic.block_rber_rate(0).unwrap() / exact.block_rber_rate(0).unwrap();
    assert!((0.6..=1.6).contains(&ratio), "aged ratio {ratio:.2}");
}

/// Engine-level trajectory: replay the 4×4 umass-web trace at
/// both tiers and compare the aggregate post-replay block RBER.
#[test]
fn analytic_replay_rber_matches_exact_within_tolerance() {
    let ops = trace(12_000);
    let aggregate_rber = |fidelity: ReadFidelity| -> (f64, EngineStats) {
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
    let (exact_rber, exact_stats) = aggregate_rber(ReadFidelity::CellExact);
    let (analytic_rber, analytic_stats) = aggregate_rber(ReadFidelity::PageAnalytic);
    let ratio = analytic_rber / exact_rber;
    assert!(
        (0.3..=3.0).contains(&ratio),
        "aggregate RBER: analytic {analytic_rber:.3e} vs exact {exact_rber:.3e} (ratio {ratio:.2})"
    );
    // Same op accounting on both tiers. (Payload digests are NOT compared
    // here: at 8K P/E a few reads exceed the ECC capability on each tier —
    // the tiers sample different error streams by construction, so the
    // *sets* of successful reads folded into the digest can differ.)
    assert_eq!(analytic_stats.ops, exact_stats.ops);
    assert_eq!(analytic_stats.reads, exact_stats.reads);
    assert_eq!(analytic_stats.writes, exact_stats.writes);
    assert_eq!(analytic_stats.fidelity, ReadFidelity::PageAnalytic);
    assert_eq!(exact_stats.fidelity, ReadFidelity::CellExact);
}

/// The analytic tier must be bit-identical for any worker-thread count —
/// the same payload digest gate the exact tier passes.
#[test]
fn analytic_replay_is_thread_count_invariant() {
    let ops = trace(8_000);
    let run = |threads: usize| -> EngineStats {
        let mut engine = Engine::new(engine_config(ReadFidelity::PageAnalytic)).unwrap();
        engine.replay_stats_only(ops.iter().copied(), threads)
    };
    let a = run(1);
    let b = run(4);
    let c = run(16);
    assert_eq!(a, b, "analytic replay depends on worker-thread count");
    assert_eq!(a, c, "analytic replay depends on worker-thread count");
    assert!(a.ops == 8_000 && a.data_digest != 0xcbf2_9ce4_8422_2325);
}

/// Read reclaim fires from the same counters on both tiers.
#[test]
fn read_reclaim_policy_works_on_both_tiers() {
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let config = SsdConfig::small_test().with_fidelity(fidelity);
        let mut ssd = Die::with_policy(config, ReadReclaim { read_threshold: 500 }).unwrap();
        ssd.write(0).unwrap();
        let first = ssd.read(0).unwrap().ppa;
        for _ in 0..600 {
            ssd.read(0).unwrap();
        }
        assert!(ssd.stats().reclaims >= 1, "{fidelity}: reclaim never fired");
        let after = ssd.read(0).unwrap().ppa;
        assert_ne!(first.block, after.block, "{fidelity}: hot data should have moved");
    }
}

/// Vpass Tuning probes (error counts, blocked-bitline zeros) are served by
/// the analytic model, so the policy tunes below nominal on both tiers and
/// data stays correctable.
#[test]
fn vpass_tuning_policy_works_on_both_tiers() {
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let config = SsdConfig {
            chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry {
                blocks: 8,
                wordlines_per_block: 8,
                bitlines: 16 * 1024,
                bits_per_cell: 2,
            },
            overprovision: 0.25,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: 1.0e-3,
            seed: 13,
            chip_params: ChipParams::default(),
        }
        .with_fidelity(fidelity);
        let mut ssd = Die::with_policy(config, VpassTuner::default()).unwrap();
        for b in 0..8 {
            ssd.chip_mut().cycle_block(b, 4_000).unwrap();
        }
        for lpa in 0..32 {
            ssd.write(lpa).unwrap();
        }
        ssd.advance_time(2.0).unwrap();
        let tuned =
            ssd.valid_blocks().iter().any(|&b| ssd.chip().block_vpass(b).unwrap() < NOMINAL_VPASS);
        assert!(tuned, "{fidelity}: no block was tuned below nominal");
        for lpa in 0..32 {
            let r = ssd.read(lpa).unwrap_or_else(|e| panic!("{fidelity}: read failed: {e}"));
            assert!(r.corrected_errors <= ssd.config().page_capability());
        }
    }
}

/// RDR needs per-cell Vth measurement: identical on `CellExact`, a typed
/// `FidelityUnsupported` error (not silent nonsense) on `PageAnalytic`.
#[test]
fn rdr_requires_cell_exact_and_fails_typed_on_analytic() {
    let geometry = Geometry::characterization();
    let setup = |fidelity: ReadFidelity| -> Chip {
        let mut chip = Chip::with_fidelity(geometry, ChipParams::default(), 77, fidelity);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 3).unwrap();
        chip.apply_read_disturbs(0, 500_000).unwrap();
        chip
    };
    let rdr = Rdr::new(RdrConfig::default());

    let mut exact = setup(ReadFidelity::CellExact);
    let outcome = rdr.recover_block(&mut exact, 0).unwrap();
    let recovered = rdr.errors_vs_intended(&exact, 0, &outcome).unwrap();
    assert!(recovered.rate().is_finite());

    let mut analytic = setup(ReadFidelity::PageAnalytic);
    match rdr.recover_block(&mut analytic, 0) {
        Err(e) => assert!(
            e.to_string().contains("CellExact"),
            "RDR on analytic must name the required tier, got: {e}"
        ),
        Ok(_) => panic!("RDR cannot run without per-cell state"),
    }
}

/// `CellExact` is the default tier everywhere the stack constructs a chip.
#[test]
fn cell_exact_is_the_default_tier() {
    assert_eq!(ChipParams::default().fidelity, ReadFidelity::CellExact);
    assert_eq!(SsdConfig::default().fidelity(), ReadFidelity::CellExact);
    assert_eq!(SsdConfig::engine_scale(1).fidelity(), ReadFidelity::CellExact);
    assert_eq!(EngineConfig::small_test().fidelity(), ReadFidelity::CellExact);
    let chip = Chip::new(Geometry::small(), ChipParams::default(), 1);
    assert_eq!(chip.fidelity(), ReadFidelity::CellExact);
    assert!(chip.cells(0).is_ok(), "default tier keeps per-cell access");
}
