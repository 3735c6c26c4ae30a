//! The chip matrix: every chip-database entry replays the same Zipf
//! read-heavy trace on a 2×2 engine at both analytic tiers, and must
//!
//! * **reproduce bit-identically** on re-run (full `EngineStats`, digest
//!   included),
//! * leave the array with a **nonzero, sub-1% mean block RBER** (a
//!   mis-calibrated part shows up here long before a figure does), and
//! * agree across `PageAnalytic` and `BlockAggregate` **within 2×** (both
//!   tiers sample the same physics).
//!
//! The declared calibration anchors are checked against the real closed
//! form by `rd_flash::chips`'s own unit test (`database_passes_every_rule`,
//! in the `chips-codegen` crate the module is re-exported from).

use readdisturb::flash::chips;
use readdisturb::prelude::*;
use readdisturb::workloads::TraceOp;

const SEED: u64 = 2015;
const TRACE_OPS: usize = 4_000;

fn engine(chip: &str, fidelity: ReadFidelity) -> Engine {
    let die = SsdConfig::engine_scale(SEED).with_chip(chip).unwrap().with_fidelity(fidelity);
    Engine::new(EngineConfig {
        topology: Topology { channels: 2, dies_per_channel: 2 },
        die,
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    })
    .unwrap()
}

/// Replays `ops` on a fresh engine; returns its statistics and the mean
/// RBER over every programmed page of every valid block.
fn replay(chip: &str, fidelity: ReadFidelity, ops: &[TraceOp]) -> (EngineStats, f64) {
    let mut engine = engine(chip, fidelity);
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
    (stats, errors / bits.max(1) as f64)
}

#[test]
fn every_database_chip_replays_deterministically_with_tier_parity() {
    let specs = chips::all();
    assert!(!specs.is_empty());
    for spec in specs {
        let chip = spec.name;
        let pages_per_block =
            SsdConfig::engine_scale(SEED).with_chip(chip).unwrap().geometry.pages_per_block();
        let ops: Vec<TraceOp> = WorkloadProfile::by_name("umass-web")
            .unwrap()
            .generator(SEED, pages_per_block)
            .take(TRACE_OPS)
            .collect();

        let [analytic, aggregate] =
            [ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate].map(|fidelity| {
                let (stats, rber) = replay(chip, fidelity, &ops);
                let (rerun, _) = replay(chip, fidelity, &ops);
                assert_eq!(stats, rerun, "{chip}/{fidelity}: replay is not deterministic");
                assert_eq!(stats.ops, TRACE_OPS as u64);
                assert!(
                    rber > 0.0 && rber < 1.0e-2,
                    "{chip}/{fidelity}: mean block RBER {rber:.3e} outside (0, 1e-2)"
                );
                rber
            });
        let ratio = analytic / aggregate;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{chip}: analytic RBER {analytic:.3e} vs aggregate {aggregate:.3e} (x{ratio:.2}) \
             outside the 2x parity window"
        );
    }
}
