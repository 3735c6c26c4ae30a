//! Where a `hammer-recovery` window's time goes. The benchmark's hammer
//! array — 2 × 2 page-analytic dies of 64 blocks × 64 wordlines with the
//! paper's 1e-3 ECC line, every block worn 8,000 P/E cycles, the array
//! filled, aged 5 days and every valid block read 300,000 times, with
//! `full_recovery_ladder()` and Vpass Tuning on every die — replays 10 days
//! of a hot-set read mix (100k ops a day: 97% reads, 90% of them on 256 hot
//! pages). Each day is split into the replay itself (`replay_unreported`),
//! the `stats()` a stats-only replay rebuilds after it, and the day's
//! maintenance (`advance_time`), beside the engine's stage counters and the
//! day's ladder outcomes.
//!
//! Then two dies preconditioned the same way serve the window's reads
//! serially through `Die::read_with`, day by day, one with a consumer that
//! does nothing and one whose consumer folds the decoded page into a digest
//! (`fold_page`, what the engine does per read on this tier): the difference
//! is the per-read digest cost.
//!
//! Run with: `cargo run --release --example hammer_split`

use std::time::Instant;

use readdisturb::engine::{fold_page, FNV_OFFSET};
use readdisturb::ftl::Die;
use readdisturb::prelude::*;
use readdisturb::workloads::{OpKind, TraceOp};

const SEED: u64 = 2015;
const THREADS: usize = 2;
const DAYS: usize = 10;
const OPS_PER_DAY: usize = 100_000;
/// P/E cycles every block has seen before the window.
const PRE_WEAR: u64 = 8_000;
/// Days of retention between the fill and the pre-disturb.
const PRE_AGE_DAYS: f64 = 5.0;
/// Reads folded into every valid block before the window.
const PRE_DISTURBS: u64 = 300_000;

fn config() -> EngineConfig {
    let mut die = SsdConfig::engine_scale(SEED);
    die.geometry.blocks = 64;
    die.geometry.wordlines_per_block = 64;
    die.ecc_capability_rber = 1.0e-3;
    EngineConfig {
        topology: Topology { channels: 2, dies_per_channel: 2 },
        die: die.with_fidelity(ReadFidelity::PageAnalytic),
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
}

/// SplitMix64 draws of the hammer mix: 97% reads, 90% of them on a 256-page
/// hot set; writes and the remaining reads uniform over `logical` pages.
fn hammer_ops(seed: u64, logical: u64, n: usize) -> Vec<TraceOp> {
    let mut state = seed;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let hot: Vec<u64> = (0..256).map(|_| below(logical)).collect();
    (0..n)
        .map(|_| {
            let is_read = below(100) < 97;
            let lpa = if is_read && below(100) < 90 {
                hot[below(hot.len() as u64) as usize]
            } else {
                below(logical)
            };
            TraceOp { time_s: 0.0, kind: if is_read { OpKind::Read } else { OpKind::Write }, lpa }
        })
        .collect()
}

/// Installs the full ladder and wears every block (before the fill).
fn wear(die: &mut Die<VpassTuningPolicy>) {
    die.set_recovery_ladder(full_recovery_ladder());
    for block in 0..die.chip().geometry().blocks {
        die.chip_mut().cycle_block(block, PRE_WEAR).expect("block in range");
    }
}

/// Reads every valid block `PRE_DISTURBS` times (after the fill and ageing).
fn pre_disturb(die: &mut Die<VpassTuningPolicy>) {
    for block in die.valid_blocks() {
        die.chip_mut().apply_read_disturbs(block, PRE_DISTURBS).expect("block in range");
    }
}

/// One die of the array, worn, filled, aged and pre-disturbed.
fn hammered_die(config: &SsdConfig) -> Die<VpassTuningPolicy> {
    let mut die =
        Die::with_policy(config.clone(), VpassTuningPolicy::default()).expect("array die builds");
    wear(&mut die);
    for lpa in 0..die.map().logical_pages() {
        die.write(lpa).expect("fill fits");
    }
    die.advance_time(PRE_AGE_DAYS).expect("ageing runs");
    pre_disturb(&mut die);
    die
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = config();
    let logical = config.logical_pages();
    let ops = hammer_ops(SEED, logical, DAYS * OPS_PER_DAY);

    let started = Instant::now();
    let mut engine = Engine::with_policy(config.clone(), VpassTuningPolicy::default())?;
    for d in 0..config.topology.dies() {
        wear(engine.die_mut(d));
    }
    let fill = (0..logical).map(|lpa| TraceOp { time_s: 0.0, kind: OpKind::Write, lpa });
    engine.replay_unreported(fill, THREADS);
    engine.advance_time(PRE_AGE_DAYS)?;
    for d in 0..config.topology.dies() {
        pre_disturb(engine.die_mut(d));
    }
    println!("built the hammer array in {:.0} ms", started.elapsed().as_secs_f64() * 1e3);

    println!(
        "{:>3} {:>10} {:>9} {:>9} {:>10} {:>9} {:>9} {:>10} {:>13} {:>10}",
        "day",
        "replay ms",
        "stats ms",
        "tick ms",
        "pool wait",
        "flash",
        "timing",
        "recovered",
        "uncorrectable",
        "ladder ran"
    );
    let mut totals = [0u64; 3];
    let mut before = engine.stats();
    let stage_start = engine.stage_ns();
    for (day, ops) in ops.chunks(OPS_PER_DAY).enumerate() {
        let stage = engine.stage_ns();
        let t = Instant::now();
        engine.replay_unreported(ops.iter().copied(), THREADS);
        let replay_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let stats = engine.stats();
        let stats_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        engine.advance_time(1.0)?;
        let tick_ns = t.elapsed().as_nanos() as u64;
        let now = engine.stage_ns();
        let recovered = stats.recovered_reads - before.recovered_reads;
        let lost = stats.uncorrectable_reads - before.uncorrectable_reads;
        println!(
            "{:>3} {:>10.1} {:>9.1} {:>9.1} {:>10.1} {:>9.1} {:>9.1} {:>10} {:>13} {:>10}",
            day + 1,
            ms(replay_ns),
            ms(stats_ns),
            ms(tick_ns),
            ms(now.pool_wait_ns - stage.pool_wait_ns),
            ms(now.flash_ns - stage.flash_ns),
            ms(now.timing_ns - stage.timing_ns),
            recovered,
            lost,
            recovered + lost,
        );
        for (total, ns) in totals.iter_mut().zip([replay_ns, stats_ns, tick_ns]) {
            *total += ns;
        }
        before = stats;
    }
    let stage = engine.stage_ns();
    println!(
        "all {:>10.1} {:>9.1} {:>9.1} {:>10.1} {:>9.1} {:>9.1} {:>10} {:>13} {:>10}",
        ms(totals[0]),
        ms(totals[1]),
        ms(totals[2]),
        ms(stage.pool_wait_ns - stage_start.pool_wait_ns),
        ms(stage.flash_ns - stage_start.flash_ns),
        ms(stage.timing_ns - stage_start.timing_ns),
        before.recovered_reads,
        before.uncorrectable_reads,
        before.recovered_reads + before.uncorrectable_reads,
    );
    println!(
        "window: {} ops in {:.0} ms ({:.0} kops/s), {} recovery steps, {} probe reads, \
         digest {:016x}",
        ops.len(),
        ms(totals.iter().sum()),
        ops.len() as f64 / totals.iter().sum::<u64>() as f64 * 1e6,
        before.recovery_steps,
        before.totals().policy_probe_reads,
        before.data_digest,
    );

    // The serial split of a host read: identical dies serve identical
    // reads, one day's worth at a time on each, so only the consumer
    // differs between the two timers.
    let mut bare = hammered_die(&config.die);
    let mut folding = hammered_die(&config.die);
    let per_die = bare.map().logical_pages();
    let (mut bare_ns, mut fold_ns, mut reads, mut pages) = (0u64, 0u64, 0u64, 0u64);
    let mut digest = FNV_OFFSET;
    for ops in ops.chunks(OPS_PER_DAY) {
        let lpas: Vec<u64> =
            ops.iter().filter(|op| op.kind == OpKind::Read).map(|op| op.lpa % per_die).collect();
        let t = Instant::now();
        for &lpa in &lpas {
            let _ = bare.read_with(lpa, |_| ());
        }
        bare_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for &lpa in &lpas {
            pages +=
                u64::from(folding.read_with(lpa, |r| digest = fold_page(digest, r.data)).is_ok());
        }
        fold_ns += t.elapsed().as_nanos() as u64;
        reads += lpas.len() as u64;
        bare.advance_time(1.0)?;
        folding.advance_time(1.0)?;
    }
    assert_eq!(bare.stats(), folding.stats(), "the consumer must not change what a die does");
    println!(
        "one die, serial: {reads} reads ({pages} decoded), read_with {:.0} ns/read bare, \
         {:.0} ns/read folding the page: {:.0} ns per decoded page to digest it (digest {digest:016x})",
        bare_ns as f64 / reads as f64,
        fold_ns as f64 / reads as f64,
        fold_ns.saturating_sub(bare_ns) as f64 / pages.max(1) as f64,
    );
    Ok(())
}
