//! Where a served op's CPU goes, thread by thread: one serving window on
//! a filled 16-die array — the benchmark's `serve-mixed` shape: 4 × 4
//! aggregate-tier dies of 1024 blocks, 2 shards, 1024-op batches, four
//! tenants — bracketed by reads of `/proc/self/task/*/{comm,schedstat}`.
//! Prints, per thread, on-CPU time and run-queue wait per host op and the
//! number of timeslices, beside the service's own per-stage totals. On two
//! cores the three threads (the generator and two shard workers, each
//! running its dies inline) can sum to more CPU than the window has wall
//! clock, so serving gets faster by removing work from the busiest of them,
//! not by waiting better; this table says which that is.
//!
//! Run with: `cargo run --release --example serve_threads`

use std::collections::BTreeMap;
use std::time::Instant;

use readdisturb::engine::ReqKind;
use readdisturb::prelude::*;
use readdisturb::serve::ServiceOp;

const SEED: u64 = 2015;
/// Arrivals generated; the window serves them twice over.
const SEQUENCE_OPS: usize = 2_000_000;
const CYCLES: usize = 2;

/// One thread's scheduler counters: ns on a CPU, ns runnable but waiting
/// for one, timeslices run.
#[derive(Debug, Clone, Copy, Default)]
struct Sched {
    run_ns: u64,
    wait_ns: u64,
    slices: u64,
}

/// `(tid, comm) -> counters` of every thread of this process, or `None`
/// where the kernel does not publish them.
fn schedstat() -> Option<BTreeMap<(u64, String), Sched>> {
    let mut threads = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path();
        let tid = path.file_name()?.to_str()?.parse().ok()?;
        let comm = std::fs::read_to_string(path.join("comm")).ok()?.trim().to_string();
        let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
        let mut fields = stat.split_whitespace().map(|field| field.parse::<u64>().ok());
        let sched =
            Sched { run_ns: fields.next()??, wait_ns: fields.next()??, slices: fields.next()?? };
        threads.insert((tid, comm), sched);
    }
    Some(threads)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut die = SsdConfig::engine_scale(SEED);
    die.geometry.blocks = 1024;
    die.geometry.wordlines_per_block = 64;
    let config = ServeConfig {
        engine: EngineConfig {
            topology: Topology { channels: 4, dies_per_channel: 4 },
            die: die.with_fidelity(ReadFidelity::BlockAggregate),
            timing: Timing::default(),
            queue_depth: 16,
            capture_read_data: false,
            die_index_offset: 0,
        },
        shards: 2,
        batch_ops: 1024,
        max_inflight_batches: 4,
        pool_threads: 0,
    };
    let tenants = vec![
        TenantConfig::new("web", "umass-web", 6000.0),
        TenantConfig::new("fin", "umass-fin1", 4000.0),
        TenantConfig::new("mail", "postmark", 2500.0),
        TenantConfig::new("eng", "msr-src12", 1500.0),
    ];
    let logical = config.engine.logical_pages();
    let mut service = Service::start(config, tenants)?;
    let ops: Vec<ServiceOp> = service.traffic(SEED).take(SEQUENCE_OPS).collect();
    for lpa in 0..logical {
        service.submit(ServiceOp { time_s: 0.0, tenant: 0, kind: ReqKind::Write, lpa });
    }
    service.flush();
    let stage_before = service.report(0.0).stage;

    let before = schedstat();
    let started = Instant::now();
    for _ in 0..CYCLES {
        for op in &ops {
            service.submit(*op);
        }
    }
    service.flush();
    let wall_ns = started.elapsed().as_nanos() as f64;
    let after = schedstat();

    let report = service.report(0.0);
    let window_ops = (ops.len() * CYCLES) as f64;
    println!(
        "served {} ops in {:.0} ms: {:.0} kops/s, {:.1} ns/op wall, digest {:016x}",
        window_ops,
        wall_ns / 1e6,
        window_ops / wall_ns * 1e6,
        wall_ns / window_ops,
        report.stats.data_digest,
    );
    let stage = |after: u64, before: u64| (after - before) as f64 / window_ops;
    println!(
        "stages, ns/op summed over shards: flash {:.1}, timing {:.1}, accounting {:.1}",
        stage(report.stage.flash_ns, stage_before.flash_ns),
        stage(report.stage.timing_ns, stage_before.timing_ns),
        stage(report.stage.accounting_ns, stage_before.accounting_ns),
    );
    let (Some(before), Some(after)) = (before, after) else {
        println!("schedstat unavailable");
        return Ok(());
    };
    println!(
        "{:>8} {:<16} {:>12} {:>12} {:>11}",
        "tid", "thread", "cpu ns/op", "wait ns/op", "timeslices"
    );
    let mut total = Sched::default();
    for ((tid, comm), now) in &after {
        let then = before.get(&(*tid, comm.clone())).copied().unwrap_or_default();
        let delta = Sched {
            run_ns: now.run_ns - then.run_ns,
            wait_ns: now.wait_ns - then.wait_ns,
            slices: now.slices - then.slices,
        };
        println!(
            "{tid:>8} {comm:<16} {:>12.1} {:>12.1} {:>11}",
            delta.run_ns as f64 / window_ops,
            delta.wait_ns as f64 / window_ops,
            delta.slices,
        );
        total.run_ns += delta.run_ns;
        total.wait_ns += delta.wait_ns;
        total.slices += delta.slices;
    }
    println!(
        "{:>8} {:<16} {:>12.1} {:>12.1} {:>11}",
        "",
        "all threads",
        total.run_ns as f64 / window_ops,
        total.wait_ns as f64 / window_ops,
        total.slices,
    );
    Ok(())
}
