//! Fleet-mode integration: checkpoint/restore is invisible to the physics.
//! A replay split at an arbitrary checkpoint (100k ops on `BlockAggregate`,
//! 10k on `CellExact`, both cut after GC has started erasing) must land
//! exactly the same data on the flash as an uninterrupted run —
//! bit-identical data digest and per-die flash counters — at every
//! worker-thread count. On top of the engine, the fleet driver itself must
//! be deterministic and resumable.

use readdisturb::engine::{Engine, EngineConfig, EngineStats, ReadFidelity};
use readdisturb::ftl::SsdStats;
use readdisturb::prelude::*;
use readdisturb::workloads::TraceOp;

const SEED: u64 = 2015_0623;
/// Cut points are deliberately not round batch multiples: the checkpoint
/// lands mid-epoch. On the 816-page array GC erases its first block after
/// ~1k write-heavy ops, so both cuts fall well inside steady-state GC.
const AGGREGATE_OPS: usize = 100_000;
const AGGREGATE_CUT: usize = 37_411;
/// `CellExact` simulates every cell on every read, so its variant is a
/// tenth the size; 10k ops still crosses the same seams (GC relocation,
/// erase) on both sides of the cut.
const EXACT_OPS: usize = 10_000;
const EXACT_CUT: usize = 3_741;

fn trace(n: usize) -> Vec<TraceOp> {
    let ppb = EngineConfig::small_test().die.geometry.pages_per_block();
    let profile = WorkloadProfile::by_name("write-heavy").unwrap();
    profile.generator(SEED, ppb).take(n).collect()
}

fn engine(fidelity: ReadFidelity) -> Engine {
    let mut config = EngineConfig::small_test().with_fidelity(fidelity);
    config.die.seed = SEED;
    Engine::new(config).unwrap()
}

/// Per-die flash counters — the ground truth the checkpoint must carry.
fn die_stats(engine: &Engine) -> Vec<SsdStats> {
    (0..engine.config().topology.dies()).map(|d| engine.die(d).stats()).collect()
}

/// Replays `ops` uninterrupted, then for each thread count replays the same
/// trace split at `cut` with a snapshot/restore across the seam, asserting
/// digest + per-die counter parity with the uninterrupted reference.
fn assert_restore_parity(fidelity: ReadFidelity, ops: &[TraceOp], cut: usize) {
    let mut reference = engine(fidelity);
    let ref_stats: EngineStats = reference.replay_stats_only(ops.iter().copied(), 1);
    let ref_dies = die_stats(&reference);
    assert!(ref_stats.ops > 0);

    for threads in [1usize, 2, 8] {
        let mut first = engine(fidelity);
        let at_cut = first.replay_stats_only(ops[..cut].iter().copied(), threads);
        assert!(at_cut.totals().erases > 0, "{fidelity:?}: cut at {cut} precedes the first erase");
        let snap = first.snapshot().unwrap();

        let mut resumed = engine(fidelity);
        resumed.restore(&snap).unwrap();
        let split = resumed.replay_stats_only(ops[cut..].iter().copied(), threads);

        assert_eq!(
            split.data_digest, ref_stats.data_digest,
            "{fidelity:?}/{threads} threads: split digest diverged from uninterrupted"
        );
        assert_eq!(
            die_stats(&resumed),
            ref_dies,
            "{fidelity:?}/{threads} threads: per-die flash counters diverged"
        );
    }
}

#[test]
fn restore_parity_cell_exact_10k_ops() {
    assert_restore_parity(ReadFidelity::CellExact, &trace(EXACT_OPS), EXACT_CUT);
}

#[test]
fn restore_parity_block_aggregate_100k_ops() {
    assert_restore_parity(ReadFidelity::BlockAggregate, &trace(AGGREGATE_OPS), AGGREGATE_CUT);
}

/// The snapshot bytes themselves are a fixed point: restoring and
/// re-snapshotting reproduces the container exactly, so checkpoints can be
/// re-checkpointed without drift.
#[test]
fn snapshot_is_a_fixed_point_under_restore() {
    let ops = trace(20_000);
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::BlockAggregate] {
        let mut writer = engine(fidelity);
        writer.replay_stats_only(ops.iter().copied(), 2);
        let snap = writer.snapshot().unwrap();
        let mut reader = engine(fidelity);
        reader.restore(&snap).unwrap();
        assert_eq!(reader.snapshot().unwrap(), snap, "{fidelity:?}");
    }
}

/// Fleet curves are a pure function of the config: how many drives advance
/// at once is invisible, different seeds diverge. Five drives outnumber 2
/// and 3 threads and split evenly over neither, 8 threads outnumber the
/// drives, and the low endurance rating retires drives from the second
/// epoch on, so replacements land between concurrent epochs. Every row and
/// the final checkpoint bytes agree across thread counts, and a checkpoint
/// taken at 3 threads resumes at 1 onto the uninterrupted curve.
#[test]
fn fleet_curves_are_deterministic() {
    let mut config = readdisturb::fleet::FleetConfig::quick();
    config.drives = 5;
    config.ops_per_epoch = 4_000;
    config.endurance_pe = 60;

    let curve = |threads: usize| {
        let mut fleet = Fleet::new(config.clone()).unwrap();
        let rows = fleet.run(4, threads, |_| {});
        (rows, fleet.snapshot().unwrap())
    };
    let (rows, snap) = curve(1);
    assert!(rows[1].replacements > 0, "endurance 60 must retire drives by the second epoch");
    for threads in [2, 3, 8] {
        let (threaded, threaded_snap) = curve(threads);
        assert_eq!(rows, threaded, "fleet rows depend on worker-thread count ({threads})");
        assert!(threaded_snap == snap, "{threads} threads: checkpoint bytes diverged");
    }

    let mut first = Fleet::new(config.clone()).unwrap();
    first.run(2, 3, |_| {});
    let mut resumed = Fleet::restore(&first.snapshot().unwrap()).unwrap();
    let tail = resumed.run(2, 1, |_| {});
    assert_eq!(tail, rows[2..], "3-thread checkpoint resumed at 1 left the curve");
    assert!(resumed.snapshot().unwrap() == snap, "resumed checkpoint bytes diverged");

    let mut reseeded = config.clone();
    reseeded.seed ^= 1;
    let other = Fleet::new(reseeded).unwrap().run(4, 1, |_| {});
    assert_ne!(rows, other, "different fleet seeds must diverge");
}

/// A fleet checkpoint taken mid-run resumes onto the uninterrupted curve.
#[test]
fn fleet_checkpoint_resumes_onto_uninterrupted_curve() {
    let mut config = readdisturb::fleet::FleetConfig::quick();
    config.drives = 2;
    config.ops_per_epoch = 4_000;

    let reference = Fleet::new(config.clone()).unwrap().run(4, 2, |_| {});

    let mut fleet = Fleet::new(config).unwrap();
    fleet.run(2, 2, |_| {});
    let snap = fleet.snapshot().unwrap();
    let mut resumed = Fleet::restore(&snap).unwrap();
    assert_eq!(resumed.epochs_done(), 2);
    let tail = resumed.run(2, 1, |_| {});
    assert_eq!(tail, reference[2..], "resumed fleet diverged from uninterrupted run");
}
