//! Service ↔ batch-replay parity: a sharded multi-tenant service run must
//! land exactly the same data on the flash as a monolithic single-engine
//! batch replay of the same op sequence — bit-identical data digest and
//! identical flash-phase counters — for any shard count and batch size.
//! This is the correctness anchor that lets the front-end scale out
//! without re-validating the physics.

use readdisturb::engine::{Engine, EngineConfig, Timing, Topology};
use readdisturb::ftl::SsdConfig;
use readdisturb::serve::{ServeConfig, Service, TenantConfig};
use readdisturb::workloads::{OpKind, TraceOp};

const SEED: u64 = 2015_0615;

fn engine_config(channels: u32, dies_per_channel: u32) -> EngineConfig {
    EngineConfig {
        topology: Topology { channels, dies_per_channel },
        die: SsdConfig::engine_scale(SEED),
        timing: Timing::default(),
        queue_depth: 8,
        capture_read_data: false,
        die_index_offset: 0,
    }
}

fn tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::new("web", "umass-web", 6000.0),
        TenantConfig::new("fin", "umass-fin1", 4000.0),
        TenantConfig::new("mail", "postmark", 2500.0),
        TenantConfig::new("eng", "msr-src12", 1500.0),
    ]
}

/// Serves `ops` arrivals through a sharded service and batch-replays the
/// identical op sequence through one monolithic engine; returns both stats.
fn run_both(
    shards: u32,
    batch_ops: usize,
    ops: u64,
) -> (readdisturb::engine::EngineStats, readdisturb::engine::EngineStats) {
    let config = ServeConfig {
        engine: engine_config(4, 2),
        shards,
        batch_ops,
        max_inflight_batches: 3,
        pool_threads: 0,
    };
    let mut service = Service::start(config.clone(), tenants()).unwrap();
    let mut traffic = service.traffic(SEED);
    let served = service.run_traffic(&mut traffic, ops);

    // The monolithic reference: the same deterministic arrival sequence,
    // replayed in one batch through a single whole-array engine.
    let replay_ops: Vec<TraceOp> = Service::start(config, tenants())
        .unwrap()
        .traffic(SEED)
        .take(ops as usize)
        .map(|op| TraceOp {
            time_s: op.time_s,
            kind: match op.kind {
                readdisturb::engine::ReqKind::Read => OpKind::Read,
                readdisturb::engine::ReqKind::Write => OpKind::Write,
            },
            lpa: op.lpa,
        })
        .collect();
    let mut reference = Engine::new(engine_config(4, 2)).unwrap();
    let replayed = reference.replay_stats_only(replay_ops, 2);
    (served.stats, replayed)
}

#[test]
fn sharded_service_digest_matches_monolithic_replay() {
    for (shards, batch_ops) in [(1u32, 256usize), (2, 256), (4, 97)] {
        let (served, replayed) = run_both(shards, batch_ops, 6_000);
        assert_eq!(
            served.data_digest, replayed.data_digest,
            "digest diverged at {shards} shards, batch {batch_ops}"
        );
        assert_eq!(served.ops, replayed.ops);
        assert_eq!(served.reads, replayed.reads);
        assert_eq!(served.writes, replayed.writes);
        assert_eq!(served.reads_not_written, replayed.reads_not_written);
        assert_eq!(served.uncorrectable_reads, replayed.uncorrectable_reads);
        assert_eq!(served.corrected_bits, replayed.corrected_bits);
        assert_eq!(served.dies, replayed.dies);
        assert_eq!(served.channels, replayed.channels);
    }
}

#[test]
fn per_tenant_accounting_conserves_the_op_stream() {
    let config = ServeConfig {
        engine: engine_config(4, 2),
        shards: 4,
        batch_ops: 128,
        max_inflight_batches: 2,
        pool_threads: 0,
    };
    let mut service = Service::start(config, tenants()).unwrap();
    let mut traffic = service.traffic(7);
    let report = service.run_traffic(&mut traffic, 5_000);
    assert_eq!(report.tenants.len(), 4);
    assert_eq!(report.tenants.iter().map(|t| t.ops).sum::<u64>(), 5_000);
    assert_eq!(report.tenants.iter().map(|t| t.reads + t.writes).sum::<u64>(), 5_000);
    // Tenant totals must reconcile with the merged engine stats.
    assert_eq!(report.tenants.iter().map(|t| t.reads).sum::<u64>(), report.stats.reads);
    assert_eq!(report.tenants.iter().map(|t| t.writes).sum::<u64>(), report.stats.writes);
    assert_eq!(
        report.tenants.iter().map(|t| t.reads_not_written).sum::<u64>(),
        report.stats.reads_not_written
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.uncorrectable_reads).sum::<u64>(),
        report.stats.uncorrectable_reads
    );
    for tenant in &report.tenants {
        assert!(tenant.ops > 0, "every tenant saw traffic");
        assert!(tenant.p99_latency_us >= tenant.p50_latency_us);
        assert!(tenant.uber >= 0.0);
    }
}
