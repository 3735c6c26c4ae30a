//! Allocation gate for the count-first read pipeline (flash → ftl → engine).
//!
//! On the page-analytic tier a host read that nobody observes is count-only
//! end to end: the raw read and every ladder re-read sample error counts
//! without building a page, the sampler's rejection sets live in per-chip
//! scratch, the ladder reuses its report buffer, and the decoded payload is
//! lent from the chip's stored page. So once warm, a read — clean,
//! ECC-corrected, ladder-recovered or uncorrectable — must not touch the
//! heap anywhere on the flash/ftl path, and a stats-only engine replay of
//! reads must cost allocations per *batch* (work arenas, timing records),
//! not per read. Before the count-first pipeline every sampled read paid two
//! payload clones and a `HashSet`.
//!
//! The cell-exact tier is count-first too: the raw read senses states into
//! per-chip scratch and counts errors without packing a page, and the
//! pass-through decision keeps its (usually empty) blocker list there. It
//! stores cells, not pages, so the one allocation a warm read keeps is the
//! decoded payload it assembles (it used to pay four: the sensed page, two
//! per-bitline maxima vectors, the payload).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use readdisturb::ftl::{Die, FtlError, SsdConfig};
use readdisturb::prelude::*;
use readdisturb::workloads::{OpKind, TraceOp};

/// Counts every heap allocation (and reallocation) process-wide.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// One test, so nothing else in the process allocates while it counts.
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
            let before = ALLOCS.load(Ordering::Relaxed);
            let (errors, bitlines) = die
                .read_with(lpa, |r| {
                    assert!(r.steps.is_empty(), "the gate covers reads ECC decodes directly");
                    assert_eq!(r.data.len(), 256);
                    (r.corrected_errors, r.blocked_bitlines)
                })
                .unwrap();
            worst = worst.max(ALLOCS.load(Ordering::Relaxed) - before);
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

fn die_reads_never_allocate() {
    let mut die = Die::new(die_config()).unwrap();
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
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..4 {
        pass(&mut die, &mut seen);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        seen.iter().all(|&n| n > 0),
        "window must cover clean/corrected/recovered/uncorrectable reads, saw {seen:?}"
    );
    assert_eq!(allocs, 0, "{allocs} heap allocations over {} reads {seen:?}", 4 * pages);
}

fn stats_only_replay_allocations_do_not_scale_with_reads() {
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
    let pages = engine.logical_pages();
    let reads = |n: u64| {
        (0..n).map(move |i| TraceOp { kind: OpKind::Read, lpa: (i * 7) % pages, time_s: 0.0 })
    };
    let mut window = |n: u64| {
        let before = ALLOCS.load(Ordering::Relaxed);
        engine.replay_stats_only(reads(n), 1);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    // Warm-up at the largest size, so arenas and latency vectors are grown.
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
