//! Property suite for the worker pool's determinism contract: the engine's
//! full statistics — data digest, per-die counters, simulated latencies —
//! are bit-identical for any pool size, with and without batch pipelining,
//! at every read-path fidelity tier. The flash phase assigns die `d` to
//! lane `d % workers` with no work stealing and folds each die's results
//! where it lands, into that die's own counters and integer totals, and
//! the timing phase is strictly serial, so nothing observable may depend
//! on how many OS threads executed the flash work, on whether
//! the next batch's flash phase overlapped the previous batch's timing
//! phase, or on whether the next batch was submitted while the previous
//! flash phase was still in flight. Nor on `run` timing a channel while
//! later channels' dies still execute, nor on the one-word packing of
//! queued requests; and a die job that panics on the pool panics the
//! coordinator instead of hanging it. Nor on whether a batch posts full
//! completions or 32-byte summaries, nor on the coordinator being woken
//! once per flight instead of once per die.

use proptest::prelude::*;
use rd_engine::{Engine, EngineConfig, EngineStats, OutcomeClass, ReadFidelity, ReqKind, Topology};
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
        // The pipeline opens on an empty batch, which is a batch like any.
        engine.begin_batch(threads);
        for batch in &batches {
            if mode == Mode::InFlight {
                submit(&mut engine, batch);
            }
            engine.join_batch();
            if mode == Mode::Pipelined {
                submit(&mut engine, batch);
            }
            engine.begin_batch(threads);
            engine.finish_batch();
        }
        engine.join_batch();
        engine.finish_batch();
    }
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

/// What both emit levels report of one request: its position in the batch,
/// kind, outcome class, corrected-error count and the bits of its latency.
type Row = (u32, ReqKind, OutcomeClass, u64, u64);

/// An array whose die 0 is worn, aged and disturbed past its ECC (reads of
/// it come back corrected, recovered or uncorrectable) and whose every
/// fourth logical page was never written.
fn worn_array(channels: u32, dies_per_channel: u32, seed: u64) -> Engine {
    let mut config = EngineConfig::small_test().with_fidelity(ReadFidelity::PageAnalytic);
    config.topology = Topology { channels, dies_per_channel };
    config.die.seed = seed;
    config.die.ecc_capability_rber = 1.0e-3;
    let mut engine = Engine::new(config).expect("engine");
    let blocks = engine.config().die.geometry.blocks;
    for block in 0..blocks {
        engine.die_mut(0).chip_mut().cycle_block(block, 8_000).expect("cycle");
    }
    for lpa in (0..engine.logical_pages()).filter(|lpa| lpa % 4 != 3) {
        engine.submit_write(lpa);
    }
    engine.run(1);
    engine.drain_completions_into(&mut Vec::new());
    engine.advance_time(3.0).expect("age");
    for block in engine.die(0).valid_blocks() {
        engine.die_mut(0).chip_mut().apply_read_disturbs(block, 12_000_000).expect("disturb");
    }
    engine
}

/// Runs `batches` through the staged API on `lanes` lanes, posting full
/// completions or summaries, and returns every request's [`Row`] in posting
/// order, the final statistics and the checkpoint.
fn rows_of(
    mut engine: Engine,
    batches: &[Vec<(ReqKind, u64)>],
    lanes: usize,
    summarized: bool,
) -> (Vec<Row>, EngineStats, Vec<u8>) {
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut completions = Vec::new();
    for batch in batches {
        let first_id = engine.submit(batch[0].0, batch[0].1);
        for &(kind, lpa) in &batch[1..] {
            engine.submit(kind, lpa);
        }
        let n = if summarized {
            engine.begin_batch_summarized(lanes)
        } else {
            engine.begin_batch(lanes)
        };
        engine.join_batch();
        assert_eq!(engine.finish_batch(), n);
        engine.swap_summaries(&mut summaries);
        completions.clear();
        engine.drain_completions_into(&mut completions);
        assert_eq!(if summarized { summaries.len() } else { completions.len() }, n);
        assert!(if summarized { completions.is_empty() } else { summaries.is_empty() });
        rows.extend(summaries.iter().map(|s| {
            let o = s.outcome;
            (s.slot, o.kind(), o.class(), o.corrected_errors(), s.latency_us().to_bits())
        }));
        rows.extend(completions.iter().map(|c| {
            let o = c.outcome();
            assert_eq!((o.kind(), o.corrected_errors()), (c.kind, c.corrected_errors));
            (
                (c.id - first_id) as u32,
                c.kind,
                o.class(),
                c.corrected_errors,
                c.latency_us().to_bits(),
            )
        }));
    }
    let stats = engine.stats();
    (rows, stats, engine.snapshot().expect("idle engine"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A summarized batch is a full one with less written down: from
    /// identical engines — 2×2 and 4×4, die 0 worn until reads of it are
    /// lost, a quarter of the pages unwritten, some addresses past the end
    /// — at 1, 2 and 8 lanes, the summaries say of every request, in the
    /// same order, what the completions say (batch position, kind, outcome
    /// class, corrected errors, latency to the bit), and statistics and
    /// checkpoint bytes are equal.
    #[test]
    fn summarized_batches_equal_full_ones_to_the_bit(
        seed in any::<u64>(),
        salts in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        for (channels, dies_per_channel) in [(2u32, 2u32), (4, 4)] {
            let dies = u64::from(channels * dies_per_channel);
            let logical = worn_array(channels, dies_per_channel, seed).logical_pages();
            // Each batch opens with a sweep of the worn die, an unwritten
            // page and two addresses past the end; then up to 160 seeded
            // draws, two in eight of them past the end of the array.
            let batches: Vec<Vec<(ReqKind, u64)>> = salts
                .iter()
                .map(|&salt| {
                    let sweep = (0..24)
                        .map(|i| (ReqKind::Read, i * dies))
                        .chain([(ReqKind::Read, 3), (ReqKind::Write, logical), (ReqKind::Read, u64::MAX)]);
                    let mix = (0..1 + salt % 160).map(|i| {
                        let draw = (salt ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
                        let kind = if draw % 3 == 0 { ReqKind::Write } else { ReqKind::Read };
                        let lpa = match draw % 8 {
                            0 => logical + draw % 5,
                            1 => u64::MAX - draw % 5,
                            _ => (draw >> 3) % logical,
                        };
                        (kind, lpa)
                    });
                    sweep.chain(mix).collect()
                })
                .collect();
            let reference =
                rows_of(worn_array(channels, dies_per_channel, seed), &batches, 1, false);
            let classes = |class| reference.0.iter().filter(|row| row.2 == class).count();
            prop_assert!(reference.1.uncorrectable_reads > 0, "the worn die lost no read");
            prop_assert!(classes(OutcomeClass::NotWritten) > 0 && classes(OutcomeClass::Ok) > 0);
            prop_assert!(classes(OutcomeClass::Failed) as u64 > reference.1.uncorrectable_reads);
            for lanes in [1usize, 2, 8] {
                for summarized in [false, true] {
                    let engine = worn_array(channels, dies_per_channel, seed);
                    let got = rows_of(engine, &batches, lanes, summarized);
                    let what = format!(
                        "{channels}x{dies_per_channel} lanes={lanes} summarized={summarized}"
                    );
                    prop_assert!(got.0 == reference.0, "rows diverged: {}", what);
                    prop_assert!(got.1 == reference.1, "stats diverged: {}", what);
                    prop_assert!(got.2 == reference.2, "checkpoint bytes diverged: {}", what);
                }
            }
        }
    }
}

/// A batch that lands on one die only — every other die's slot is filled
/// at launch and the countdown starts at one — gives the same statistics,
/// completions and checkpoint inline, overlapped on a pool and staged on a
/// pool: the coordinator times the empty channel without sleeping and is
/// woken for the other by the one job there is.
#[test]
fn a_batch_on_one_die_wakes_the_coordinator_once_and_changes_nothing() {
    let observe = |threads: usize, staged: bool| -> Observed {
        let mut engine = Engine::new(EngineConfig::small_test()).expect("engine");
        let dies = u64::from(engine.config().topology.dies());
        let per_die = engine.logical_pages() / dies;
        let mut completions = Vec::new();
        for round in 0..3u64 {
            for i in 0..per_die {
                let kind = if (i + round) % 3 == 0 { ReqKind::Read } else { ReqKind::Write };
                engine.submit(kind, i * dies + 2);
            }
            if staged {
                engine.begin_batch(threads);
                engine.join_batch();
                engine.finish_batch();
            } else {
                engine.run(threads);
            }
            engine.drain_completions_into(&mut completions);
        }
        let stats = engine.stats();
        assert_eq!(stats.per_die[2].ops, 3 * per_die);
        assert_eq!(stats.ops, 3 * per_die, "another die got work");
        (stats, completions, engine.snapshot().expect("idle engine"))
    };
    let reference = observe(1, true);
    for threads in [2usize, 8] {
        for staged in [false, true] {
            assert!(observe(threads, staged) == reference, "threads={threads} staged={staged}");
        }
    }
}

/// A policy whose first decoded host read panics, inside the die job.
#[derive(Debug, Clone)]
struct PanicsOnRead;

impl rd_ftl::ControllerPolicy for PanicsOnRead {
    fn on_read(&mut self, _chip: &rd_ftl::Chip, block: u32) -> Option<rd_ftl::PolicyAction> {
        panic!("policy refuses the read of block {block}");
    }
}

/// A die job that panics on the pool must panic the coordinator, inside
/// the `run` that launched it and naming the die — not leave it blocked on
/// a result that will never arrive — and the pool's lanes must survive for
/// the other engines attached to them.
#[test]
fn panicking_die_job_panics_the_coordinator_instead_of_hanging() {
    use rd_engine::{PoolHandle, WorkerPool};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let pool = Arc::new(WorkerPool::new(2));
    let mut doomed = Engine::with_policy(EngineConfig::small_test(), PanicsOnRead).unwrap();
    doomed.attach_pool(PoolHandle::all(Arc::clone(&pool)));
    let dies = u64::from(doomed.config().topology.dies());
    let (tx, rx) = mpsc::channel();
    let coordinator = std::thread::spawn(move || {
        // Eight writes, then reads of them, all striped onto die 2.
        for i in 0..8 {
            doomed.submit_write(i * dies + 2);
        }
        for i in 0..8 {
            doomed.submit_read(i * dies + 2);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.run(2)))
            .map_err(|p| {
                p.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string panic".into())
            });
        let _ = tx.send(outcome);
    });
    let outcome = rx.recv_timeout(Duration::from_secs(5)).expect("coordinator hung");
    coordinator.join().unwrap();
    let message = outcome.expect_err("run() returned although die 2's job panicked");
    assert!(message.contains("die 2") && message.contains("panicked"), "panic was `{message}`");

    // Both lanes still serve: a second engine on the same pool completes.
    let mut healthy = Engine::new(EngineConfig::small_test()).unwrap();
    healthy.attach_pool(PoolHandle::all(pool));
    for lpa in 0..8 {
        healthy.submit_write(lpa);
    }
    assert_eq!(healthy.run(2), 8);
    let mut completions = Vec::new();
    healthy.drain_completions_into(&mut completions);
    assert!(completions.iter().all(|c| c.result.is_ok()));
}

/// Everything a caller can observe of a run: statistics, the completions
/// in posting order, the checkpoint.
type Observed = (EngineStats, Vec<rd_engine::IoCompletion>, Vec<u8>);

/// How [`skewed_run`] settles each batch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Settle {
    /// `run`.
    Run,
    /// `begin_batch` + `finish_batch`: channels are timed as their dies land.
    Finish,
    /// `begin_batch` + `join_batch` + `finish_batch`: nothing is timed until
    /// every die has landed.
    JoinFinish,
}

/// Fills a `channels × dies_per_channel` array, then runs a batch whose
/// heavy work — overwrites, so GC — is all on die 0 while every other die
/// gets a handful of reads: on a pool, channel 1's dies land long before
/// channel 0's. Then a third, uniform batch on the recycled arenas. Every
/// batch is settled as `settle` says.
fn skewed_run(channels: u32, dies_per_channel: u32, threads: usize, settle: Settle) -> Observed {
    let mut config = EngineConfig::small_test();
    config.topology = rd_engine::Topology { channels, dies_per_channel };
    let mut engine = Engine::new(config).expect("engine");
    let dies = u64::from(channels * dies_per_channel);
    let logical = engine.logical_pages();
    let mut completions = Vec::new();
    let mut go = |engine: &mut Engine| {
        let n = if settle == Settle::Run {
            engine.run(threads)
        } else {
            let n = engine.begin_batch(threads);
            if settle == Settle::JoinFinish {
                engine.join_batch();
            }
            assert_eq!(engine.finish_batch(), n);
            n
        };
        engine.drain_completions_into(&mut completions);
        n
    };
    for lpa in 0..logical {
        engine.submit_write(lpa);
    }
    assert_eq!(go(&mut engine) as u64, logical);
    let per_die = logical / dies;
    for round in 0..6 {
        for i in 0..per_die {
            engine.submit_write(i * dies); // die 0
        }
        for d in 1..dies {
            engine.submit_read(round * dies + d);
        }
    }
    assert_eq!(go(&mut engine) as u64, 6 * (per_die + dies - 1));
    for lpa in (0..logical).rev() {
        engine.submit(if lpa % 3 == 0 { ReqKind::Write } else { ReqKind::Read }, lpa);
    }
    assert_eq!(go(&mut engine) as u64, logical);
    let stats = engine.stats();
    assert!(stats.per_die[0].ssd.gc_writes > 0, "die 0 never collected garbage");
    (stats, completions, engine.snapshot().expect("idle engine"))
}

/// Timing a channel as soon as its dies are in, while later dies still
/// execute, changes nothing observable: on a 2×2 and a 4×4 array, for a
/// batch whose channel-1 dies land first, statistics, completions (order
/// and every field) and checkpoint bytes are equal at 1, 2 and 8 threads,
/// whether the batch is settled by `run`, by `finish_batch` straight after
/// the launch, or by the staged sequence that times nothing until every die
/// has landed.
#[test]
fn overlapped_timing_changes_nothing_observable() {
    for (channels, dies_per_channel) in [(2, 2), (4, 4)] {
        let reference = skewed_run(channels, dies_per_channel, 1, Settle::JoinFinish);
        assert_eq!(reference.1.len() as u64, reference.0.ops);
        for threads in [1usize, 2, 8] {
            for settle in [Settle::Run, Settle::Finish, Settle::JoinFinish] {
                let got = skewed_run(channels, dies_per_channel, threads, settle);
                let what = format!("{channels}x{dies_per_channel} threads={threads} {settle:?}");
                assert_eq!(got.0, reference.0, "stats diverged: {what}");
                assert_eq!(got.1, reference.1, "completions diverged: {what}");
                assert!(got.2 == reference.2, "checkpoint bytes diverged: {what}");
            }
        }
    }
}

/// The packed work slot holds 63 bits of die-local address. Addresses that
/// do not fit — and out-of-range ones that do — complete with exactly the
/// error the 24-byte work item gave (strings recorded from the parent
/// commit).
#[test]
fn out_of_range_addresses_complete_with_the_unpacked_error() {
    let results = |config: EngineConfig, lpas: &[u64]| -> Vec<String> {
        let mut engine = Engine::new(config).expect("engine");
        for &lpa in lpas {
            engine.submit_read(lpa);
            engine.submit_write(lpa);
        }
        assert_eq!(engine.run(2), 2 * lpas.len());
        let mut completions = Vec::new();
        engine.drain_completions_into(&mut completions);
        completions.sort_by_key(|c| c.id);
        for (c, lpa) in completions.iter().zip(lpas.iter().flat_map(|l| [l, l])) {
            assert_eq!(c.lpa, *lpa, "completion lost its address");
        }
        let stats = engine.stats();
        assert_eq!((stats.writes_failed, stats.reads_not_written), (lpas.len() as u64, 0));
        completions.iter().map(|c| format!("{:?}", c.result)).collect()
    };
    let array = EngineConfig::small_test();
    let logical = array.logical_pages();
    assert_eq!(
        results(array, &[u64::MAX, logical]),
        [
            "Err(LpaOutOfRange { lpa: 4611686018427387903, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 4611686018427387903, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 204, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 204, capacity: 204 })",
        ]
    );
    // One die: the die-local address is the lpa itself, all 64 bits of it.
    let single =
        EngineConfig { topology: rd_engine::Topology::single(), ..EngineConfig::small_test() };
    assert_eq!(
        results(single, &[u64::MAX, (1 << 63) + 5, (1 << 63) - 1, (1 << 63) - 2]),
        [
            "Err(LpaOutOfRange { lpa: 18446744073709551615, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 18446744073709551615, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775813, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775813, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775807, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775807, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775806, capacity: 204 })",
            "Err(LpaOutOfRange { lpa: 9223372036854775806, capacity: 204 })",
        ]
    );
}
