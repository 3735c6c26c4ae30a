//! Allocation gates for the read pipeline (flash → ftl → engine) and the
//! FTL's write/GC path.
//!
//! On the page-analytic tier a host read is count-only end to end: the raw
//! read and every ladder re-read sample error counts
//! without building a page, the sampler's rejection sets live in per-chip
//! scratch, the ladder reuses its report buffer, and the decoded payload is
//! lent from the chip's stored page. So once warm, a read — clean,
//! ECC-corrected, ladder-recovered or uncorrectable — must not touch the
//! heap anywhere on the flash/ftl path, and a stats-only engine replay of
//! reads must cost allocations per *batch* (work arenas, timing records),
//! not per read — and, counted in bytes, nothing per read at all: its
//! latency is a count in a bounded histogram, which `stats()` reads in one
//! scan. A summarized batch (what an rd-serve shard worker runs) asks for
//! nothing either, its per-request records living in arenas that travel
//! with the die queues and a buffer the caller swaps with the engine's. Before the count-first
//! pipeline every sampled read paid two payload clones and a `HashSet`.
//!
//! The cell-exact tier is count-first too: the raw read senses states into
//! per-chip scratch and counts errors without packing a page, and the
//! pass-through decision keeps its (usually empty) blocker list there. It
//! stores cells, not pages, so the one allocation a warm read keeps is the
//! decoded payload it assembles (it used to pay four: the sensed page, two
//! per-bitline maxima vectors, the payload).
//!
//! The write path: a host write, the GC passes it triggers and a
//! maintenance day (refresh scan, policy tick) work on the die's dense
//! tables and one block-list scratch buffer, so on the payload-free
//! aggregate tier they allocate nothing once warm, on the page-analytic tier
//! only the page copies a write or a relocation must make, and a policy's
//! read hook — once per decoded host read, with the chip and the block —
//! nothing, the reclaims it asks for included. Before, every GC pass
//! collected the victim's valid pages into a fresh `Vec`, every day the
//! valid blocks, and every reclaim its one-action batch.
//!
//! Allocations are counted per thread, so each gate sees its own only
//! (the engine gate replays inline on one thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use readdisturb::ftl::{Die, FtlError, ReadReclaim, SsdConfig};
use readdisturb::prelude::*;
use readdisturb::workloads::{OpKind, TraceOp};

/// Counts every heap allocation (and reallocation) of the calling thread,
/// and the bytes they ask for.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator allocates nothing and is valid for the thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one call that asked for `bytes` of fresh heap (a reallocation
/// asks for what it grows by).
fn count_one(bytes: usize) {
    // A thread past its TLS teardown is not one a gate is counting on.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread's allocations have requested so far.
fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn die_config() -> SsdConfig {
    SsdConfig {
        chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
        geometry: Geometry {
            blocks: 16,
            wordlines_per_block: 16,
            bitlines: 2048,
            bits_per_cell: 2,
        },
        chip_params: ChipParams::default(),
        overprovision: 0.25,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 4.0e-3,
        seed: 77,
    }
    .with_fidelity(ReadFidelity::PageAnalytic)
}

/// Wears every block, fills the die, ages it, then disturbs every other
/// valid block hard and every fourth harder still: the quiet blocks decode
/// clean or corrected, the disturbed ones escalate through the ladder, the
/// worst past its last rung.
fn stress(die: &mut Die) {
    for b in 0..16 {
        die.chip_mut().cycle_block(b, 8_000).unwrap();
    }
    for lpa in 0..die.map().logical_pages() {
        die.write(lpa).unwrap();
    }
    die.advance_time(3.0).unwrap();
    for (i, b) in die.valid_blocks().into_iter().enumerate().step_by(2) {
        let reads = if i % 4 == 0 { 12_000_000 } else { 1_500_000 };
        die.chip_mut().apply_read_disturbs(b, reads).unwrap();
    }
}

#[test]
fn warm_analytic_reads_do_not_allocate() {
    die_reads_never_allocate();
    stats_only_replay_allocations_do_not_scale_with_reads();
    exact_die_reads_allocate_only_the_payload();
}

fn exact_die_reads_allocate_only_the_payload() {
    // ECC wide enough to decode a page with a dozen blocked bitlines.
    let config = SsdConfig { ecc_capability_rber: 1.0e-2, ..die_config() };
    let mut die = Die::new(config.with_fidelity(ReadFidelity::CellExact)).unwrap();
    for b in 0..16 {
        die.chip_mut().cycle_block(b, 3_000).unwrap();
    }
    let pages = die.map().logical_pages();
    for lpa in 0..pages {
        die.write(lpa).unwrap();
    }
    // One block at the lowest Vpass, so its reads walk a non-empty blocker
    // list, and disturbed enough for ECC to have bits to correct.
    let relaxed = die.valid_blocks()[0];
    let min_vpass = die.chip().params().min_vpass;
    die.chip_mut().set_block_vpass(relaxed, min_vpass).unwrap();
    die.chip_mut().apply_read_disturbs(relaxed, 100_000).unwrap();
    let pass = |die: &mut Die| -> (u64, u64, u64) {
        let (mut corrected, mut blocked, mut worst) = (0, 0, 0);
        for lpa in 0..pages {
            let before = allocs();
            let (errors, bitlines) = die
                .read_with(lpa, |r| {
                    assert!(r.steps.is_empty(), "the gate covers reads ECC decodes directly");
                    assert_eq!(r.data.len(), 256);
                    (r.corrected_errors, r.blocked_bitlines)
                })
                .unwrap();
            worst = worst.max(allocs() - before);
            corrected += errors;
            blocked += bitlines;
        }
        (corrected, blocked, worst)
    };
    pass(&mut die); // warm-up: the chip's sensing scratch
    let (corrected, blocked, worst) = pass(&mut die);
    assert!(corrected > 0 && blocked > 0, "saw {corrected} corrected bits, {blocked} blocked");
    assert!(worst <= 1, "a warm cell-exact read made {worst} heap allocations");
}

/// Under the die's default ladder, then under `full_recovery_ladder()` (what
/// `hammer-recovery` installs), whose ROR and RFR rungs must skip on this
/// tier without touching the heap.
fn die_reads_never_allocate() {
    for full_ladder in [false, true] {
        let mut die = Die::new(die_config()).unwrap();
        if full_ladder {
            die.set_recovery_ladder(full_recovery_ladder());
        }
        stress(&mut die);
        let pages = die.map().logical_pages();
        // (clean, corrected, recovered, uncorrectable)
        let mut seen = [0u64; 4];
        let pass = |die: &mut Die, seen: &mut [u64; 4]| {
            for lpa in 0..pages {
                match die.read_with(lpa, |r| (r.steps.len(), r.corrected_errors, r.data.len())) {
                    Ok((0, 0, len)) => seen[0] += u64::from(len == 256),
                    Ok((0, _, _)) => seen[1] += 1,
                    Ok(_) => seen[2] += 1,
                    Err(FtlError::Uncorrectable { .. }) => seen[3] += 1,
                    Err(e) => panic!("unexpected read error: {e}"),
                }
            }
        };
        // Warm-up: every block's operating-point cache, the ladder's report
        // buffer.
        pass(&mut die, &mut seen);
        seen = [0; 4];
        let before = allocs();
        for _ in 0..4 {
            pass(&mut die, &mut seen);
        }
        let allocs = allocs() - before;
        assert!(
            seen.iter().all(|&n| n > 0),
            "window must cover clean/corrected/recovered/uncorrectable reads, saw {seen:?} \
             (full ladder: {full_ladder})"
        );
        assert_eq!(
            allocs,
            0,
            "{allocs} heap allocations over {} reads {seen:?} (full ladder: {full_ladder})",
            4 * pages
        );
    }
}

/// A 2×2 array of [`die_config`] dies, each put through [`stress`].
fn stressed_array() -> Engine {
    let config = EngineConfig {
        topology: Topology { channels: 2, dies_per_channel: 2 },
        die: die_config(),
        timing: Timing::default(),
        queue_depth: 8,
        capture_read_data: false,
        die_index_offset: 0,
    };
    let mut engine = Engine::new(config).unwrap();
    for d in 0..4 {
        stress(engine.die_mut(d));
    }
    engine
}

fn stats_only_replay_allocations_do_not_scale_with_reads() {
    let mut engine = stressed_array();
    let pages = engine.logical_pages();
    let reads = |n: u64| {
        (0..n).map(move |i| TraceOp { kind: OpKind::Read, lpa: (i * 7) % pages, time_s: 0.0 })
    };
    let mut window = |n: u64| {
        let before = allocs();
        engine.replay_stats_only(reads(n), 1);
        allocs() - before
    };
    // Warm-up at the largest size, so the arenas are grown.
    window(16_000);
    let small = window(2_000);
    let large = window(16_000);
    let stats = engine.stats();
    assert!(stats.recovered_reads > 0 && stats.uncorrectable_reads > 0 && stats.corrected_bits > 0);
    eprintln!("replay_stats_only allocations: {small} for 2k reads, {large} for 16k reads");
    // One allocation per read would add 14 000.
    assert!(
        large < small + 64,
        "allocations scale with reads: {small} for 2 000 reads vs {large} for 16 000"
    );
}

/// A fresh engine's first replay of `ops`, on the calling thread: the
/// allocations it makes and the bytes they ask for.
fn first_replay_cost(ops: impl IntoIterator<Item = TraceOp>) -> (u64, u64) {
    let config = EngineConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
    let mut engine = Engine::new(config).unwrap();
    let (calls, bytes) = (allocs(), alloc_bytes());
    engine.replay_unreported(ops, 1);
    (allocs() - calls, alloc_bytes() - bytes)
}

/// A generated trace reserves the per-die arenas as a collected one does:
/// the generator is infinite and says so, so `take(n)` reports exactly `n`
/// and a fresh engine's first replay of it allocates exactly what a replay
/// of the same ops from a `Vec` does. (With `Iterator`'s default `(0,
/// None)` hint every die's arena grew by doubling instead: a dozen
/// reallocations per die, and an arena up to twice the size.)
#[test]
fn generated_traces_reserve_like_collected_ones() {
    const OPS: usize = 20_000;
    let ppb = EngineConfig::small_test().die.geometry.pages_per_block();
    let profile = WorkloadProfile::by_name("write-heavy").unwrap();
    let collected: Vec<TraceOp> = profile.generator(7, ppb).take(OPS).collect();
    let generated = first_replay_cost(profile.generator(7, ppb).take(OPS));
    let from_vec = first_replay_cost(collected);
    eprintln!("first replay of {OPS} ops: generated {generated:?}, collected {from_vec:?}");
    assert_eq!(generated, from_vec, "(allocations, bytes) of a generated vs a collected trace");
}

/// The byte gate. Once the per-die arenas and the latency histogram's
/// range are warm, a stats-only replay keeps nothing per request: the queue
/// slot is overwritten in place by the service time the timing pass reads
/// (the 24-byte work item plus a 16-byte timing record allocated per batch
/// failed this at 16 B/read), and a latency is one more count in a bucket
/// (an 8-byte latency sample per request failed this at 8 B/read). So a
/// warm replay of `2 × READS` requests asks for exactly the bytes one of
/// `READS` does. And `stats()` asks for its `per_die` vector and nothing
/// else, at any history length: its percentiles are one scan of the
/// histogram's counters (a full-sample copy failed this at 8 B/sample).
#[test]
fn stats_only_replay_keeps_eight_bytes_per_read() {
    use readdisturb::engine::DieStats;
    let mut engine = stressed_array();
    let pages = engine.logical_pages();
    const READS: u64 = 16_000;
    let reads = |n: u64| {
        (0..n).map(move |i| TraceOp { kind: OpKind::Read, lpa: (i * 7) % pages, time_s: 0.0 })
    };
    let per_die = std::mem::size_of::<DieStats>() as u64 * 4;
    let stats_bytes = |engine: &Engine| {
        let before = alloc_bytes();
        let stats = engine.stats();
        let requested = alloc_bytes() - before;
        eprintln!("stats() after {} requests: {requested} bytes", stats.ops);
        assert_eq!(
            requested, per_die,
            "stats() after {} requests asked for more than its per-die vector",
            stats.ops
        );
    };
    stats_bytes(&engine);
    // Warm-up at the larger size: grows the per-die arenas and covers the
    // latencies' range.
    engine.replay_unreported(reads(2 * READS), 1);
    stats_bytes(&engine);
    let mut window = |n: u64| {
        let before = alloc_bytes();
        engine.replay_unreported(reads(n), 1);
        alloc_bytes() - before
    };
    let (small, large) = (window(READS), window(2 * READS));
    eprintln!(
        "warm stats-only replays: {small} bytes for {READS} reads, {large} for {}",
        2 * READS
    );
    assert_eq!(large, small, "a warm stats-only replay's bytes grow with its reads");
    stats_bytes(&engine);
    assert!(engine.stats().recovered_reads > 0 && engine.stats().uncorrectable_reads > 0);
}

/// The byte gate for a summarized batch, the staged sequence an rd-serve
/// shard worker drives (begin → join → finish → swap): once warm it asks
/// for nothing at all. The outcome words and ids are arenas that travel
/// with the die queues, the 32-byte summaries go to a buffer swapped with
/// the caller's, the per-flight die list and the timing pass's cursors are
/// kept by the engine (a `Vec` per die, per channel and per batch for the
/// same records failed this), and a latency is a count in a histogram
/// bucket (an 8-byte sample per request failed this at 8 B/request).
#[test]
fn warm_summarized_batch_requests_no_bytes() {
    let mut engine = stressed_array();
    let pages = engine.logical_pages();
    const BATCH: u64 = 1024;
    let mut summaries = Vec::new();
    let mut batch = || {
        for i in 0..BATCH {
            engine.submit_read((i * 7) % pages);
        }
        assert_eq!(engine.begin_batch_summarized(1) as u64, BATCH);
        engine.join_batch();
        engine.finish_batch();
        engine.swap_summaries(&mut summaries);
        assert_eq!(summaries.len() as u64, BATCH);
    };
    // Two batches warm the die arenas, both of the swapped buffers and the
    // latency histogram's range.
    batch();
    batch();
    let before = alloc_bytes();
    for _ in 0..6 {
        batch();
    }
    let requested = alloc_bytes() - before;
    eprintln!("six warm summarized batches of {BATCH}: {requested} bytes");
    assert_eq!(requested, 0, "six warm summarized batches requested {requested} bytes");
}

/// Overwrites of the hot half of the logical space with a maintenance day
/// every `pages / 4` of them, for `days` days: GC runs throughout, and the
/// blocks of the cold half sit until the weekly refresh moves them.
fn overwrite_and_age(die: &mut Die, days: u32, salt: u64) {
    let pages = die.map().logical_pages();
    let mut lpa = salt;
    for _ in 0..days {
        for _ in 0..pages / 4 {
            lpa = lpa.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            die.write((lpa >> 33) % (pages / 2)).unwrap();
        }
        die.advance_time(1.0).unwrap();
    }
}

/// What a warm window of overwrites and maintenance days cost a die that
/// is filled, in GC steady state, with its scratch buffers grown and its
/// refresh fired before the window opens.
struct WriteWindow {
    allocs: u64,
    host_writes: u64,
    relocated_pages: u64,
    erases: u64,
}

fn warm_write_window(fidelity: ReadFidelity) -> WriteWindow {
    let mut die = Die::new(die_config().with_fidelity(fidelity)).unwrap();
    for lpa in 0..die.map().logical_pages() {
        die.write(lpa).unwrap();
    }
    overwrite_and_age(&mut die, 12, 1);
    let start = die.stats();
    let before = allocs();
    overwrite_and_age(&mut die, 12, 2);
    let allocs = allocs() - before;
    let stats = die.stats();
    assert!(
        start.refreshes > 0
            && stats.gc_writes > start.gc_writes
            && stats.refresh_writes > start.refresh_writes,
        "window must cover GC and refresh relocations: {start:?} -> {stats:?}"
    );
    WriteWindow {
        allocs,
        host_writes: stats.host_writes - start.host_writes,
        relocated_pages: (stats.total_writes() - stats.host_writes)
            - (start.total_writes() - start.host_writes),
        erases: stats.erases - start.erases,
    }
}

#[test]
fn warm_aggregate_writes_with_gc_allocate_nothing() {
    let w = warm_write_window(ReadFidelity::BlockAggregate);
    assert_eq!(
        w.allocs, 0,
        "{} heap allocations over {} host writes, {} relocated pages, {} erases",
        w.allocs, w.host_writes, w.relocated_pages, w.erases
    );
}

#[test]
fn warm_analytic_writes_allocate_only_their_page_copies() {
    let w = warm_write_window(ReadFidelity::PageAnalytic);
    // A host write generates its page; a relocation senses the raw page
    // (what it copies if ECC and the ladder fail) and copies the decoded
    // one out of the chip it is about to program. Storing a page reuses
    // the erased page's buffer.
    assert!(
        w.allocs <= w.host_writes + 2 * w.relocated_pages,
        "{} heap allocations for {} host writes and {} relocated pages over {} erases",
        w.allocs,
        w.host_writes,
        w.relocated_pages,
        w.erases
    );
}

/// Read reclaim observes every decoded host read: its hook reads the
/// block's counter off the chip and answers with at most one action, so
/// neither the hook nor the reclaims it asks for touch the heap.
#[test]
fn request_observing_policy_hooks_do_not_allocate() {
    let config = die_config().with_fidelity(ReadFidelity::BlockAggregate);
    let mut die = Die::with_policy(config, ReadReclaim { read_threshold: 300 }).unwrap();
    let pages = die.map().logical_pages();
    let traffic = |die: &mut Die<ReadReclaim>| {
        for round in 0..40u64 {
            for lpa in 0..pages {
                die.read_with(lpa, |_| ()).unwrap();
                if (lpa + round) % 16 == 0 {
                    die.write(lpa).unwrap();
                }
            }
        }
    };
    for lpa in 0..pages {
        die.write(lpa).unwrap();
    }
    traffic(&mut die);
    let start = die.stats();
    let before = allocs();
    traffic(&mut die);
    let allocs = allocs() - before;
    let stats = die.stats();
    let reclaims = stats.reclaims - start.reclaims;
    assert!(reclaims > 0 && stats.gc_writes > start.gc_writes, "{start:?} -> {stats:?}");
    assert_eq!(
        allocs,
        0,
        "{allocs} heap allocations over {} hooks ({reclaims} reclaims)",
        stats.host_reads - start.host_reads
    );
}
