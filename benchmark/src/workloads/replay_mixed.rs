//! `replay-mixed`: the 4-tenant sequence bulk-replayed on a filled `array-L`
//! through `Engine::replay_stats_only` at 2 threads.

use std::time::Instant;

use std::sync::mpsc;
use std::sync::Arc;

use readdisturb::engine::{Engine, EngineConfig, EngineStats, IoCompletion, ReqKind, WorkerPool};
use readdisturb::flash::ReadFidelity;
use readdisturb::serve::ServiceOp;

use super::{engine_window, fill, probes, set_engine_counters};
use crate::measure;
use crate::run::{fingerprint, Ctx, Measured};
use crate::shapes::{self, ENGINE_BATCH, THREADS};
use crate::trace::{self, Tracer};

/// Ops generated from the seed, and how many times a window cycles
/// through them. With 46% writes over 1.57M filled pages GC runs throughout
/// (about one relocation per two host writes).
pub const SEQUENCE_OPS: usize = 2_000_000;
pub const CYCLES: usize = 2;

/// The window's op sequence: the generated one, cycled.
pub fn cycled(ops: &[ServiceOp]) -> impl Iterator<Item = &ServiceOp> {
    std::iter::repeat_n(ops, CYCLES).flatten()
}

/// A freshly built and filled `array-L`.
pub fn build(config: &EngineConfig, tracer: &mut Tracer) -> Engine {
    let mut engine =
        tracer.span("engine.new", || Engine::new(config.clone())).expect("array-L builds");
    fill(&mut engine, tracer);
    engine
}

/// One monolithic replay of the whole sequence.
pub fn replay(engine: &mut Engine, ops: &[ServiceOp], threads: usize) -> EngineStats {
    engine.replay_stats_only(cycled(ops).map(shapes::trace_op), threads)
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let config = shapes::array_l(ctx.args.seed);
    let ops = shapes::mixed_ops(&config, ctx.args.seed, ctx.ops(SEQUENCE_OPS));
    ctx.inputs_ready();
    let window_ops = (ops.len() * CYCLES) as u64;
    let expected = config.logical_pages() + window_ops;

    // Reference window at one thread: the determinism gate, and the
    // numerator of `engine.thread_scaling_x`.
    let mut reference = build(&config, &mut Tracer::default());
    let t = Instant::now();
    let one_thread = replay(&mut reference, &ops, 1);
    let one_thread_s = t.elapsed().as_secs_f64();
    drop(reference);

    let (m, engine) = ctx.measure(
        |tracer| build(&config, tracer),
        |engine, tracer| {
            tracer.span("engine.replay_stats_only", || replay(engine, &ops, THREADS));
        },
        |engine| engine_window(&engine.stats(), window_ops, expected),
    );
    ctx.gate(
        "replay at 1 thread == at 2 threads",
        fingerprint(&one_thread) == m.window.fingerprint,
    );
    let stats = engine.stats();
    ctx.gate("ops accounted == ops submitted", stats.ops == expected);
    drop(engine);

    if ctx.args.trace {
        set_engine_counters(ctx, &stats);
        ctx.set("engine.new_ms", m.setup_span_ms("engine.new"));
        ctx.set(
            "engine.fill_ns_per_op",
            m.setup_span_ms("engine.fill") * 1e6 / config.logical_pages() as f64,
        );
        ctx.set("engine.thread_scaling_x", one_thread_s / measure::median(&m.wall_s));
        staged_pass(ctx, &config, &ops, stats.data_digest);
        giant_batch_fill(ctx, &config);
        queue_only(ctx);
        pool_roundtrip(ctx);
        probes::die(ctx, ReadFidelity::BlockAggregate);
        probes::chip(ctx, ReadFidelity::BlockAggregate);
    }
    m
}

/// The same sequence driven through the staged API by the benchmark
/// itself, one span per stage per batch; it must land the digest the
/// monolithic replay landed. Then the snapshot/restore stalls on the
/// resulting state.
fn staged_pass(ctx: &mut Ctx, config: &EngineConfig, ops: &[ServiceOp], digest: u64) {
    let mut engine = build(config, &mut Tracer::default());
    let before = engine.stage_ns();
    let tracer = &mut ctx.tracer;
    tracer.enabled = true;
    let root = tracer.enter("bench.staged");
    let mut sink: Vec<IoCompletion> = Vec::with_capacity(ENGINE_BATCH);
    let all: Vec<&ServiceOp> = cycled(ops).collect();
    for batch in all.chunks(ENGINE_BATCH) {
        let open = tracer.enter("engine.submit");
        for op in batch {
            engine.submit(op.kind, op.lpa);
        }
        tracer.exit(open);
        tracer.span("engine.begin_batch", || engine.begin_batch(THREADS));
        tracer.span("engine.join_batch", || engine.join_batch());
        tracer.span("engine.finish_batch", || engine.finish_batch());
        sink.clear();
        tracer.span("engine.drain_completions_into", || engine.drain_completions_into(&mut sink));
    }
    tracer.exit(root);
    let bytes = tracer.span("engine.snapshot", || engine.snapshot()).expect("queues drained");
    tracer.span("engine.restore", || engine.restore(&bytes)).expect("own snapshot restores");
    tracer.enabled = false;
    let after = engine.stage_ns();
    let staged_digest = engine.stats().data_digest;

    let n = all.len() as f64;
    let st = trace::self_times_under(ctx.tracer.spans(), "bench.staged");
    let per_op = |name: &str| st.get(name).map_or(0.0, |s| s.0 as f64) / n;
    let ms = |name: &str| {
        ctx.tracer
            .spans()
            .iter()
            .rfind(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    };
    let (snapshot_ms, restore_ms) = (ms("engine.snapshot"), ms("engine.restore"));
    ctx.gate("staged-API digest == replay digest", staged_digest == digest);
    ctx.set("engine.submit_ns_per_op", per_op("engine.submit"));
    ctx.set("engine.begin_batch_ns_per_op", per_op("engine.begin_batch"));
    ctx.set("engine.join_batch_ns_per_op", per_op("engine.join_batch"));
    ctx.set("engine.finish_batch_ns_per_op", per_op("engine.finish_batch"));
    ctx.set("engine.drain_ns_per_op", per_op("engine.drain_completions_into"));
    ctx.set(
        "engine.stage_pool_wait_ns_per_op",
        (after.pool_wait_ns - before.pool_wait_ns) as f64 / n,
    );
    ctx.set("engine.stage_flash_ns_per_op", (after.flash_ns - before.flash_ns) as f64 / n);
    ctx.set("engine.stage_timing_ns_per_op", (after.timing_ns - before.timing_ns) as f64 / n);
    ctx.set("engine.snapshot_ms", snapshot_ms);
    ctx.set("engine.restore_ms", restore_ms);
    ctx.set("engine.snapshot_bytes", bytes.len() as f64);
}

/// Every logical page written as one engine batch — what a caller who does
/// not chunk pays, beside `engine.fill_ns_per_op` for 4096-op batches.
fn giant_batch_fill(ctx: &mut Ctx, config: &EngineConfig) {
    let mut engine = Engine::new(config.clone()).expect("array-L builds");
    let logical =
        if ctx.args.smoke { engine.logical_pages() / 100 } else { engine.logical_pages() };
    for lpa in 0..logical {
        engine.submit(ReqKind::Write, lpa);
    }
    ctx.tracer.enabled = true;
    let t = Instant::now();
    let done = ctx.tracer.span("engine.run", || engine.run(THREADS));
    let ns = t.elapsed().as_nanos() as f64;
    ctx.tracer.enabled = false;
    ctx.gate("giant batch completes every write", done as u64 == logical);
    ctx.set("engine.giant_batch_fill_ns_per_op", ns / logical as f64);
}

/// Reads of never-written pages on the stock 16-block array: the FTL
/// returns `NotWritten` at once, so what is left is the engine's queue,
/// striping and timing machinery on cache-resident state.
fn queue_only(ctx: &mut Ctx) {
    let config = shapes::array_s(ctx.args.seed, ReadFidelity::BlockAggregate);
    let mut engine = Engine::new(config).expect("stock array builds");
    let n = ctx.ops(1_000_000);
    let logical = engine.logical_pages();
    let mut sink: Vec<IoCompletion> = Vec::with_capacity(ENGINE_BATCH);
    let t = Instant::now();
    let mut lpa = 0u64;
    for _ in 0..n.div_ceil(ENGINE_BATCH) {
        for _ in 0..ENGINE_BATCH {
            engine.submit_read(lpa % logical);
            lpa += 1;
        }
        engine.run(THREADS);
        sink.clear();
        engine.drain_completions_into(&mut sink);
    }
    let ns = t.elapsed().as_nanos() as f64;
    let stats = engine.stats();
    ctx.gate("queue-only probe reads nothing written", stats.reads_not_written == stats.ops);
    ctx.set("engine.queue_only_ns_per_op", ns / stats.ops as f64);
}

/// `WorkerPool::submit` of an empty job to a parked worker, and back.
fn pool_roundtrip(ctx: &mut Ctx) {
    let pool = Arc::new(WorkerPool::new(THREADS));
    let (tx, rx) = mpsc::channel::<()>();
    let n = ctx.ops(20_000);
    let t = Instant::now();
    for i in 0..n {
        let tx = tx.clone();
        pool.submit(i % THREADS, Box::new(move || tx.send(()).expect("probe alive")));
        rx.recv().expect("pool worker alive");
    }
    ctx.set("engine.pool_roundtrip_us", t.elapsed().as_secs_f64() * 1e6 / n as f64);
}
