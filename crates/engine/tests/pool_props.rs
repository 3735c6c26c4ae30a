//! Property suite for the worker pool's determinism contract: the engine's
//! full statistics — data digest, per-die counters, simulated latencies —
//! are bit-identical for any pool size, with and without batch pipelining,
//! at every read-path fidelity tier. The flash phase assigns die `d` to
//! lane `d % workers` with no work stealing and folds results in die
//! order, and the timing phase is strictly serial, so nothing observable
//! may depend on how many OS threads executed the flash work, on whether
//! the next batch's flash phase overlapped the previous batch's timing
//! phase, or on whether the next batch was submitted while the previous
//! flash phase was still in flight.

use proptest::prelude::*;
use rd_engine::{Engine, EngineConfig, EngineStats, ReadFidelity};
use rd_workloads::WorkloadProfile;

fn fidelity(tier: u8) -> ReadFidelity {
    match tier % 3 {
        0 => ReadFidelity::CellExact,
        1 => ReadFidelity::PageAnalytic,
        _ => ReadFidelity::BlockAggregate,
    }
}

fn engine(seed: u64, tier: u8) -> Engine {
    let mut config = EngineConfig::small_test().with_fidelity(fidelity(tier));
    config.die.seed = seed;
    Engine::new(config).expect("engine")
}

/// How `run_batched` drives consecutive batches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Each batch runs to completion before the next is submitted.
    Sequential,
    /// Batch `N+1` is submitted and launched after `join_batch(N)` and
    /// before `finish_batch(N)` (the serve worker's overlap pattern).
    Pipelined,
    /// As `Pipelined`, but batch `N+1` is submitted between
    /// `begin_batch(N)` and `join_batch(N)`: requests submitted while a
    /// flash phase is in flight must form the next batch.
    InFlight,
}

/// Replays `ops` trace operations in fixed-size batches, driven as `mode`
/// says, and returns the final stats.
fn run_batched(seed: u64, tier: u8, ops: usize, threads: usize, mode: Mode) -> EngineStats {
    let mut engine = engine(seed, tier);
    let profile = WorkloadProfile::by_name("postmark").expect("profile");
    let pages_per_block = engine.config().die.geometry.pages_per_block();
    let trace: Vec<_> = profile.generator(seed ^ 0x5EED, pages_per_block).take(ops).collect();

    let submit = |engine: &mut Engine, batch: &[rd_workloads::TraceOp]| {
        for op in batch {
            match op.kind {
                rd_workloads::OpKind::Read => engine.submit_read(op.lpa),
                rd_workloads::OpKind::Write => engine.submit_write(op.lpa),
            };
        }
    };

    let batches: Vec<&[rd_workloads::TraceOp]> = trace.chunks(32).collect();
    if mode == Mode::Sequential {
        for batch in &batches {
            submit(&mut engine, batch);
            engine.run(threads);
        }
    } else {
        let mut began = false;
        for batch in &batches {
            if mode == Mode::InFlight {
                submit(&mut engine, batch);
            }
            if began {
                engine.join_batch();
            }
            if mode == Mode::Pipelined {
                submit(&mut engine, batch);
            }
            let n = engine.begin_batch(threads);
            if began {
                engine.finish_batch();
            }
            began = n > 0;
        }
        if began {
            engine.join_batch();
            engine.finish_batch();
        }
    }
    while engine.pop_completion().is_some() {}
    engine.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary seeds, op counts, and fidelity tiers, every pool size
    /// in {1, 2, 8} — sequential, pipelined, and with in-flight submission
    /// — produces `EngineStats` equal to the single-threaded sequential
    /// reference, per-die breakdown and data digest included.
    #[test]
    fn stats_identical_across_pool_sizes_and_pipelining(
        seed in any::<u64>(),
        ops in 1usize..160,
        tier in 0u8..3,
    ) {
        let reference = run_batched(seed, tier, ops, 1, Mode::Sequential);
        prop_assert!(reference.ops == ops as u64, "reference dropped ops");
        for threads in [1usize, 2, 8] {
            for mode in [Mode::Sequential, Mode::Pipelined, Mode::InFlight] {
                if threads == 1 && mode == Mode::Sequential {
                    continue;
                }
                let got = run_batched(seed, tier, ops, threads, mode);
                prop_assert!(got == reference, "stats diverged at threads={threads} {mode:?}");
            }
        }
    }
}
