//! Engine quickstart: replay a read-heavy Zipf trace across a 4-channel ×
//! 2-die SSD array, show a mitigation policy running per die, then replay
//! the same trace at `PageAnalytic` fidelity to show the bulk-replay tier.
//!
//! Run with: `cargo run --release --example engine_replay`

use readdisturb::prelude::*;
use readdisturb::workloads::TraceOp;

fn config() -> EngineConfig {
    EngineConfig {
        topology: Topology { channels: 4, dies_per_channel: 2 },
        die: SsdConfig::engine_scale(42),
        timing: Timing::default(), // paper-era MLC: tR 50µs, tPROG 650µs, tBERS 3.5ms
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
}

fn print_summary(label: &str, stats: &EngineStats) {
    println!(
        "{label}: {} ops in {:.1} ms simulated -> {:.1} kIOPS, \
         latency p50 {:.0} µs / p99 {:.0} µs, {} bits corrected",
        stats.ops,
        stats.makespan_us / 1e3,
        stats.iops() / 1e3,
        stats.latency_p50_us,
        stats.latency_p99_us,
        stats.corrected_bits,
    );
    println!(
        "{:>4} {:>8} {:>10} {:>12} {:>14} {:>10}",
        "die", "channel", "ops", "busy_ms", "hottest_reads", "reclaims"
    );
    for d in &stats.per_die {
        println!(
            "{:>4} {:>8} {:>10} {:>12.1} {:>14} {:>10}",
            d.die,
            d.channel,
            d.ops,
            d.busy_us / 1e3,
            d.hottest_block_reads,
            d.ssd.reclaims
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A read-heavy trace (umass-web stands in for the paper's WebSearch
    // trace: 85% reads, Zipfian hot blocks).
    let profile = WorkloadProfile::by_name("umass-web").expect("profile");
    let ops: Vec<TraceOp> =
        profile.generator(7, config().die.geometry.pages_per_block()).take(20_000).collect();

    // Baseline: no mitigation. The hottest physical blocks accumulate reads
    // without bound until refresh catches them.
    let mut engine = Engine::new(config())?;
    let exact_start = std::time::Instant::now();
    let baseline = engine.replay_stats_only(ops.iter().copied(), 0);
    let exact_wall = exact_start.elapsed();
    print_summary("baseline", &baseline);

    // Read reclaim per die: every die runs its own policy instance, exactly
    // as a single-chip `Die` would.
    let mut reclaiming = Engine::with_policy(config(), ReadReclaim { read_threshold: 40 })?;
    let reclaimed = reclaiming.replay_stats_only(ops.iter().copied(), 0);
    println!();
    print_summary("read-reclaim", &reclaimed);

    let base_hot = baseline.per_die.iter().map(|d| d.hottest_block_reads).max().unwrap_or(0);
    let recl_hot = reclaimed.per_die.iter().map(|d| d.hottest_block_reads).max().unwrap_or(0);
    println!(
        "\nhottest-block read pressure: baseline {base_hot} -> read-reclaim {recl_hot} \
         (threshold 40; reclaim relocations cost throughput: {:.1} vs {:.1} kIOPS)",
        reclaimed.iops() / 1e3,
        baseline.iops() / 1e3,
    );

    // The bulk-replay tier: same trace, same engine, but every die serves
    // reads from the calibrated closed-form model (sampled error counts
    // instead of per-cell Vth evaluation). Simulated results keep the same
    // shape; host wall-clock drops by orders of magnitude.
    let mut analytic = Engine::new(config().with_fidelity(ReadFidelity::PageAnalytic))?;
    let analytic_start = std::time::Instant::now();
    let fast = analytic.replay_stats_only(ops.iter().copied(), 0);
    let analytic_wall = analytic_start.elapsed();
    println!();
    print_summary("page-analytic", &fast);
    println!(
        "\nfidelity tiers on this trace: cell-exact {:.0} ms vs page-analytic {:.0} ms \
         ({:.0}x replay speedup; simulated kIOPS {:.1} vs {:.1}, same payload digest: {})",
        exact_wall.as_secs_f64() * 1e3,
        analytic_wall.as_secs_f64() * 1e3,
        exact_wall.as_secs_f64() / analytic_wall.as_secs_f64().max(1e-9),
        baseline.iops() / 1e3,
        fast.iops() / 1e3,
        baseline.data_digest == fast.data_digest,
    );
    Ok(())
}
