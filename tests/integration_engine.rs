//! Engine ↔ single-chip parity: a 1-channel × 1-die engine must reproduce
//! a single-chip `Die` bit for bit — same read payloads, same corrected
//! error totals, same per-block read-disturb accumulation — because both
//! wrap the same `rd_ftl::Die` with the same seed.

use readdisturb::ftl::wire::{Reader, Writer};
use readdisturb::ftl::{Die, FtlError};
use readdisturb::prelude::*;
use readdisturb::workloads::{OpKind, TraceOp};

fn die_config(seed: u64) -> SsdConfig {
    SsdConfig::engine_scale(seed)
}

fn trace(seed: u64, n: usize) -> Vec<TraceOp> {
    WorkloadProfile::by_name("umass-web").unwrap().generator(seed, 16).take(n).collect()
}

fn engine_config(seed: u64, topology: Topology) -> EngineConfig {
    EngineConfig {
        topology,
        die: die_config(seed),
        timing: Timing::default(),
        queue_depth: 8,
        capture_read_data: true,
        die_index_offset: 0,
    }
}

#[test]
fn single_die_engine_matches_single_chip_ssd() {
    let seed = 2015_0215;
    let ops = trace(seed, 6_000);

    // Reference run: the existing synchronous single-chip SSD.
    let mut ssd = Die::new(die_config(seed)).unwrap();
    let logical = ssd.map().logical_pages();
    let mut expected_reads = Vec::new();
    for op in &ops {
        let lpa = op.lpa % logical;
        match op.kind {
            OpKind::Write => ssd.write(lpa).unwrap(),
            OpKind::Read => match ssd.read(lpa) {
                Ok(r) => expected_reads.push((lpa, r.data, r.corrected_errors)),
                Err(FtlError::NotWritten { .. }) => {}
                Err(e) => panic!("ssd read failed: {e}"),
            },
        }
    }

    // Engine run: same trace, same seed, 1 channel × 1 die.
    let mut engine = Engine::new(engine_config(seed, Topology::single())).unwrap();
    assert_eq!(engine.logical_pages(), logical, "1x1 engine must export the ssd capacity");
    for op in &ops {
        let kind = if op.kind == OpKind::Read { ReqKind::Read } else { ReqKind::Write };
        engine.submit(kind, op.lpa % logical);
    }
    engine.run(2);
    let stats = engine.stats();
    let mut completions = Vec::new();
    engine.drain_completions_into(&mut completions);
    completions.sort_by_key(|c| c.id); // submission order

    // Byte-identical reads, identical per-read corrected counts.
    let engine_reads: Vec<_> =
        completions.iter().filter(|c| c.kind == ReqKind::Read && c.result.is_ok()).collect();
    assert_eq!(engine_reads.len(), expected_reads.len(), "read success counts differ");
    for (c, (lpa, data, corrected)) in engine_reads.iter().zip(&expected_reads) {
        assert_eq!(c.lpa, *lpa);
        assert_eq!(c.corrected_errors, *corrected, "corrected errors differ at lpa {lpa}");
        assert_eq!(c.data.as_ref().expect("capture enabled"), data, "payload differs at lpa {lpa}");
    }

    // Identical controller counters (writes, GC, erases, corrected bits).
    assert_eq!(engine.die(0).stats(), ssd.stats());
    assert_eq!(stats.corrected_bits, ssd.stats().corrected_bits);
    assert_eq!(stats.uncorrectable_reads, ssd.stats().uncorrectable_reads);

    // Identical per-block read-disturb accumulation (single-chip semantics).
    for b in 0..ssd.config().geometry.blocks {
        assert_eq!(
            engine.die(0).chip().block_status(b).unwrap().reads_since_erase,
            ssd.chip().block_status(b).unwrap().reads_since_erase,
            "block {b} disturb count diverged"
        );
    }

    // The engine layer adds timing on top — it must have produced a
    // non-degenerate schedule.
    assert!(stats.makespan_us > 0.0);
    assert!(stats.iops() > 0.0);
    assert!(stats.latency_p99_us >= stats.latency_p50_us);
}

#[test]
fn engine_replay_is_thread_count_invariant() {
    let seed = 77;
    let ops = trace(seed, 4_000);
    let topo = Topology { channels: 2, dies_per_channel: 2 };
    let a =
        Engine::new(engine_config(seed, topo)).unwrap().replay_stats_only(ops.iter().copied(), 1);
    let b =
        Engine::new(engine_config(seed, topo)).unwrap().replay_stats_only(ops.iter().copied(), 4);
    assert_eq!(a, b, "engine results depend on worker-thread count");
}

#[test]
fn multi_die_replay_conserves_trace_counts() {
    let seed = 99;
    let ops = trace(seed, 4_000);
    let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count() as u64;
    let topo = Topology { channels: 4, dies_per_channel: 2 };
    let mut engine = Engine::new(engine_config(seed, topo)).unwrap();
    let stats = engine.replay_stats_only(ops.iter().copied(), 0);
    assert_eq!(stats.ops, 4_000);
    assert_eq!(stats.reads, reads);
    assert_eq!(stats.writes, 4_000 - reads);
    assert_eq!(stats.writes_failed, 0, "writes failed on a correctly-sized array");
    assert_eq!(stats.per_die.iter().map(|d| d.ops).sum::<u64>(), 4_000);
    // Striping must engage every die, and each die's FTL must stay sane.
    for d in &stats.per_die {
        assert!(d.ops > 0, "die {} idle", d.die);
        assert_eq!(d.ssd.uncorrectable_reads, 0);
    }
    let totals = stats.totals();
    assert_eq!(totals.host_reads + stats.reads_not_written, reads);
    assert_eq!(totals.host_writes, 4_000 - reads);
}

/// The cell-exact tier senses wordlines through one comparison-domain
/// kernel (`rd_flash::cell_array`); it may not move a simulated number.
/// These are the statistics the per-cell loops it replaced produced for
/// this replay (recorded at commit 56caf17), at either thread count. The
/// data digest (the first element) was re-recorded twice: when the engine
/// began folding each decoded page eight bytes per round (`fold_page`)
/// instead of byte by byte with FNV-1a (it was 13_985_599_615_842_755_045),
/// and when it began folding the one word the chip recorded for each page
/// when programming it (it was 4_710_154_430_826_591_252); the other six
/// are 56caf17's.
#[test]
fn cell_exact_replay_statistics_are_pinned() {
    let seed = 2015;
    let ops = trace(seed, 8_000);
    for threads in [1, 2] {
        let topology = Topology { channels: 2, dies_per_channel: 2 };
        let mut engine = Engine::new(engine_config(seed, topology)).unwrap();
        assert_eq!(engine.config().die.fidelity(), ReadFidelity::CellExact);
        let fill = (0..engine.logical_pages()).map(|lpa| TraceOp {
            kind: OpKind::Write,
            lpa,
            time_s: 0.0,
        });
        engine.replay_stats_only(fill, threads);
        let stats = engine.replay_stats_only(ops.iter().copied(), threads);
        let totals = stats.totals();
        assert_eq!(
            (
                stats.data_digest,
                stats.corrected_bits,
                totals.host_reads,
                totals.host_writes,
                totals.gc_writes,
                totals.erases,
                stats.uncorrectable_reads,
            ),
            (6_668_663_498_911_304_383, 133, 6_821, 1_947, 3_552, 293, 0),
            "at {threads} thread(s)"
        );
    }
}

/// A filled 2×2 engine at `fidelity`.
fn filled_engine(seed: u64, fidelity: ReadFidelity, threads: usize) -> Engine {
    let topology = Topology { channels: 2, dies_per_channel: 2 };
    let mut config = engine_config(seed, topology);
    config.die = config.die.with_fidelity(fidelity);
    config.capture_read_data = false;
    let mut engine = Engine::new(config).unwrap();
    let fill =
        (0..engine.logical_pages()).map(|lpa| TraceOp { kind: OpKind::Write, lpa, time_s: 0.0 });
    engine.replay_stats_only(fill, threads);
    engine
}

/// Reads of `lpas`, in order.
fn reads(lpas: impl IntoIterator<Item = u64>) -> Vec<TraceOp> {
    lpas.into_iter().map(|lpa| TraceOp { kind: OpKind::Read, lpa, time_s: 0.0 }).collect()
}

/// A page-analytic engine digests each decoded page by the word its chip
/// recorded when programming it. Two engines whose only difference is one
/// bit of one stored page (put there by a die checkpoint restore, which
/// records the digests afresh) must agree on every read but that page's,
/// and disagree once it is read.
#[test]
fn one_flipped_page_bit_moves_the_digest_once_the_page_is_read() {
    let seed = 2015;
    let mut reference = filled_engine(seed, ReadFidelity::PageAnalytic, 2);
    let mut flipped = filled_engine(seed, ReadFidelity::PageAnalytic, 2);
    let dies = u64::from(reference.config().topology.dies());
    let target = 37;
    let die = (target % dies) as u32;
    let ppa = reference.die(die).map().lookup(target / dies).expect("the fill wrote every page");
    let stored = reference.die(die).chip().page_payload(ppa.block, ppa.page).unwrap().into_owned();

    let mut w = Writer::new();
    flipped.die(die).encode_state(&mut w);
    let mut bytes = w.into_bytes();
    let at = bytes.windows(stored.len()).position(|window| window == stored.as_slice());
    let at = at.expect("a die checkpoint carries the stored page");
    bytes[at + 100] ^= 0x10;
    flipped.die_mut(die).restore_state(&mut Reader::new(&bytes)).unwrap();
    let changed = flipped.die(die).chip().page_payload(ppa.block, ppa.page).unwrap();
    let differing: u32 = stored.iter().zip(changed.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
    assert_eq!(differing, 1, "the restore must change exactly one stored bit");

    let others = reads((0..reference.logical_pages()).filter(|&lpa| lpa != target));
    let a = reference.replay_stats_only(others.iter().copied(), 2);
    let b = flipped.replay_stats_only(others.iter().copied(), 2);
    assert_eq!(a.data_digest, b.data_digest, "a page nobody read moved the digest");
    assert_eq!(a, b);

    let a = reference.replay_stats_only(reads([target]), 2);
    let b = flipped.replay_stats_only(reads([target]), 2);
    assert_eq!((a.reads, a.uncorrectable_reads), (reference.logical_pages(), 0));
    assert_ne!(a.data_digest, b.data_digest, "the flipped page was read and the digest held");
    assert_eq!(a.per_die[die as usize ^ 1].digest, b.per_die[die as usize ^ 1].digest);
}

/// The payload-free aggregate tier folds each read's corrected-error count,
/// which the recorded page digests do not touch: the digest of this replay
/// is the one recorded before payload pages carried a digest of their own
/// (what keeps the `replay-mixed`, `serve-mixed` and `fleet-lifetime`
/// fingerprints), at either thread count.
#[test]
fn aggregate_replay_digest_is_pinned() {
    let seed = 2015;
    for threads in [1, 2] {
        let mut engine = filled_engine(seed, ReadFidelity::BlockAggregate, threads);
        let stats = engine.replay_stats_only(trace(seed, 8_000), threads);
        assert_eq!(stats.data_digest, 8_651_053_939_730_361_363, "at {threads} thread(s)");
    }
}
