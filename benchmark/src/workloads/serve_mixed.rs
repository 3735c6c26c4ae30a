//! `serve-mixed`: the sequence `replay-mixed` replays, submitted op by op
//! through `Service::submit`/`flush` on the same filled `array-L`. Its
//! digest must equal the monolithic replay's; its cost over the replay's is
//! the serve layer.

use std::hint::black_box;
use std::time::Instant;

use readdisturb::engine::{IoCompletion, ReqKind};
use readdisturb::serve::{ServeConfig, Service, ServiceOp, ServiceStageNs, TenantAccounting};

use super::{engine_window, probes, replay_mixed, set_engine_counters};
use crate::measure;
use crate::run::{Ctx, Measured};
use crate::shapes::{self, THREADS};
use crate::trace::Tracer;

/// Host calls per `serve.submit` span.
const SUBMITS_PER_SPAN: usize = 1024;
/// Phase 2: bursts submitted and flushed one at a time on the warm service.
const BURSTS: usize = 3_000;
const BURST_OPS: usize = 64;

/// A started service whose array has been filled through `submit`, and the
/// stage totals its shards had accumulated when the fill ended.
struct State {
    service: Service,
    stage_after_fill: ServiceStageNs,
}

fn build(config: &ServeConfig, tracer: &mut Tracer) -> State {
    let mut service = tracer
        .span("serve.start", || Service::start(config.clone(), shapes::tenants()))
        .expect("service starts");
    let open = tracer.enter("serve.fill");
    for lpa in 0..config.engine.logical_pages() {
        service.submit(ServiceOp { time_s: 0.0, tenant: 0, kind: ReqKind::Write, lpa });
    }
    service.flush();
    tracer.exit(open);
    // Stage totals are cumulative since start; a traced window needs the
    // fill's share taken out. `report` walks every recorded latency, so
    // untraced builds skip it.
    let stage_after_fill =
        if tracer.enabled { service.report(0.0).stage } else { ServiceStageNs::default() };
    State { service, stage_after_fill }
}

fn serve(service: &mut Service, ops: &[ServiceOp], tracer: &mut Tracer) {
    for _ in 0..replay_mixed::CYCLES {
        for chunk in ops.chunks(SUBMITS_PER_SPAN) {
            let open = tracer.enter("serve.submit");
            for op in chunk {
                service.submit(*op);
            }
            tracer.exit(open);
        }
    }
    tracer.span("serve.flush", || service.flush());
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let config = shapes::serve_config(ctx.args.seed);
    let t = Instant::now();
    let ops = shapes::mixed_ops(&config.engine, ctx.args.seed, ctx.ops(replay_mixed::SEQUENCE_OPS));
    let traffic_gen_ns = t.elapsed().as_nanos() as f64 / ops.len() as f64;
    ctx.inputs_ready();
    let logical = config.engine.logical_pages();
    let window_ops = (ops.len() * replay_mixed::CYCLES) as u64;
    let expected = logical + window_ops;

    // The monolithic replay of the same sequence: the digest this service
    // must land, and (traced) the base `serve.gap_ns_per_op` subtracts.
    let mut replay_ns_per_op = Vec::new();
    let mut replay_digest = 0;
    for _ in 0..if ctx.args.trace { 2 } else { 1 } {
        let mut engine = replay_mixed::build(&config.engine, &mut Tracer::default());
        let t = Instant::now();
        let stats = replay_mixed::replay(&mut engine, &ops, THREADS);
        replay_ns_per_op.push(t.elapsed().as_nanos() as f64 / window_ops as f64);
        replay_digest = stats.data_digest;
    }

    let mut stage = (ServiceStageNs::default(), 0u64);
    let (m, mut state) = ctx.measure(
        |tracer| build(&config, tracer),
        |state, tracer| serve(&mut state.service, &ops, tracer),
        |state| {
            let report = state.service.report(0.0);
            if state.stage_after_fill != ServiceStageNs::default() {
                let (a, b) = (report.stage, state.stage_after_fill);
                stage.0.pool_wait_ns += a.pool_wait_ns - b.pool_wait_ns;
                stage.0.flash_ns += a.flash_ns - b.flash_ns;
                stage.0.timing_ns += a.timing_ns - b.timing_ns;
                stage.0.accounting_ns += a.accounting_ns - b.accounting_ns;
                stage.1 += window_ops;
            }
            let accounted: u64 = report.tenants.iter().map(|t| t.ops).sum();
            let mut window = engine_window(&report.stats, window_ops, expected);
            window.failed += expected.saturating_sub(accounted);
            window
        },
    );
    let report = state.service.report(0.0);
    ctx.gate("serve digest == replay digest", report.stats.data_digest == replay_digest);
    ctx.gate("ops accounted == ops submitted", state.service.ops_submitted() == report.stats.ops);

    if ctx.args.trace {
        set_engine_counters(ctx, &report.stats);
        ctx.set("serve.traffic_gen_ns_per_op", traffic_gen_ns);
        ctx.set("serve.start_ms", m.setup_span_ms("serve.start"));
        ctx.set("serve.fill_ns_per_op", m.setup_span_ms("serve.fill") * 1e6 / logical as f64);
        ctx.set("serve.submit_ns_per_op", m.span_ns_per_op("serve.submit"));
        let flushes = m.traced_wall_s.len().max(1) as f64;
        ctx.set(
            "serve.flush_tail_ms",
            m.span_ns_per_op("serve.flush") * m.traced_ops() / flushes / 1e6,
        );
        let per_op = |ns: u64| ns as f64 / stage.1.max(1) as f64;
        ctx.set("serve.stage_pool_wait_ns_per_op", per_op(stage.0.pool_wait_ns));
        ctx.set("serve.stage_flash_ns_per_op", per_op(stage.0.flash_ns));
        ctx.set("serve.stage_timing_ns_per_op", per_op(stage.0.timing_ns));
        ctx.set("serve.stage_accounting_ns_per_op", per_op(stage.0.accounting_ns));
        ctx.set("serve.gap_ns_per_op", m.ns_per_op() - measure::median(&replay_ns_per_op));
        ctx.set(
            "serve.ctx_switches_per_kop",
            measure::median(&m.ctx_switches) * 1e3 / window_ops as f64,
        );
        bursts(ctx, &mut state.service, &ops);
        operator_stalls(ctx, &mut state.service);
        drop(state);
        route(ctx, &config, &ops);
        accounting_record(ctx);
        probes::die(ctx, readdisturb::flash::ReadFidelity::BlockAggregate);
    }
    m
}

/// Phase 2: host wall time of submit-64-ops + `flush()` on the warm
/// service — a host-side latency, where every other latency here is
/// simulated device time.
fn bursts(ctx: &mut Ctx, service: &mut Service, ops: &[ServiceOp]) {
    let n = ctx.ops(BURSTS).max(4);
    let mut rtt_us = Vec::with_capacity(n);
    let mut cursor = ops.iter().cycle();
    for _ in 0..n {
        let t = Instant::now();
        for op in cursor.by_ref().take(BURST_OPS) {
            service.submit(*op);
        }
        service.flush();
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ctx.set("serve.burst_rtt_p50_us", measure::median(&rtt_us));
    // Reported only with ten samples beyond it (3000 bursts leave 30).
    if let Some(p99) = measure::percentile(&rtt_us, 99.0) {
        ctx.set("serve.burst_rtt_p99_us", p99);
    }
}

/// Calls an operator makes outside the window, each of which stalls
/// submission: `report` (walks every latency recorded so far),
/// `checkpoint` and `restore`.
fn operator_stalls(ctx: &mut Ctx, service: &mut Service) {
    let t = Instant::now();
    black_box(service.report(0.0));
    ctx.set("serve.report_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let bytes = service.checkpoint().expect("flushed service checkpoints");
    ctx.set("serve.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.set("serve.snapshot_bytes", bytes.len() as f64);
    let digest = service.report(0.0).stats.data_digest;
    let t = Instant::now();
    service.restore(&bytes).expect("own checkpoint restores");
    ctx.set("serve.restore_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.gate(
        "restore lands the checkpointed digest",
        service.report(0.0).stats.data_digest == digest,
    );
}

/// `ShardPlan::route` alone, over the window's own addresses.
fn route(ctx: &mut Ctx, config: &ServeConfig, ops: &[ServiceOp]) {
    let plan = readdisturb::serve::ShardPlan::new(config.engine.topology, config.shards);
    let ns = probes::ns_per_call(ops.len(), |i| {
        black_box(plan.route(ops[i].lpa));
    });
    ctx.set("serve.route_ns_per_op", ns);
}

/// `TenantAccounting::record` alone, on synthetic completions.
fn accounting_record(ctx: &mut Ctx) {
    let n = ctx.ops(2_000_000);
    let completions: Vec<IoCompletion> = (0..1024u64)
        .map(|i| IoCompletion {
            id: i,
            kind: if i % 3 == 0 { ReqKind::Write } else { ReqKind::Read },
            lpa: i,
            die: (i % 16) as u32,
            submit_us: i as f64,
            start_us: i as f64 + 1.0,
            complete_us: i as f64 + 60.0,
            corrected_errors: i % 5,
            result: Ok(()),
            data: None,
        })
        .collect();
    let mut accounting = TenantAccounting::default();
    let ns = probes::ns_per_call(n, |i| accounting.record(&completions[i % completions.len()]));
    ctx.gate("accounting records every completion", accounting.ops == n as u64);
    ctx.set("serve.accounting_record_ns_per_op", ns);
}
