//! The five workloads. Each `run` generates its inputs from the seed,
//! measures its windows through [`Ctx::measure`], records its gates and (in
//! a traced run) its per-layer metrics, and returns the samples.

use readdisturb::engine::{Engine, EngineStats, IoCompletion};
use readdisturb::ftl::ControllerPolicy;

use crate::run::{Ctx, Measured, Sim, Window};
use crate::shapes::{ENGINE_BATCH, THREADS};
use crate::trace::Tracer;

pub mod fleet_lifetime;
pub mod hammer_recovery;
pub mod paper_exact;
pub mod probes;
pub mod replay_mixed;
pub mod serve_mixed;

/// Runs the named workload, or `None` if there is no such workload.
pub fn run(ctx: &mut Ctx) -> Option<Measured> {
    Some(match ctx.args.workload.as_str() {
        "replay-mixed" => replay_mixed::run(ctx),
        "serve-mixed" => serve_mixed::run(ctx),
        "hammer-recovery" => hammer_recovery::run(ctx),
        "fleet-lifetime" => fleet_lifetime::run(ctx),
        "paper-exact" => paper_exact::run(ctx),
        _ => return None,
    })
}

/// Writes every logical page once, in `ENGINE_BATCH`-op batches, under one
/// `engine.fill` span.
fn fill<P: ControllerPolicy + Send + 'static>(engine: &mut Engine<P>, tracer: &mut Tracer) {
    let open = tracer.enter("engine.fill");
    let logical = engine.logical_pages();
    let mut sink: Vec<IoCompletion> = Vec::with_capacity(ENGINE_BATCH);
    let mut lpa = 0;
    while lpa < logical {
        let end = (lpa + ENGINE_BATCH as u64).min(logical);
        for l in lpa..end {
            engine.submit_write(l);
        }
        engine.run(THREADS);
        sink.clear();
        engine.drain_completions_into(&mut sink);
        lpa = end;
    }
    tracer.exit(open);
}

/// The window record of an engine-driven workload: `expected` is every op
/// submitted since the array was built (pre-conditioning included), so an
/// op the engine never accounted shows as failed.
fn engine_window(stats: &EngineStats, window_ops: u64, expected: u64) -> Window {
    Window {
        ops: window_ops,
        failed: stats.writes_failed + expected.saturating_sub(stats.ops),
        fingerprint: crate::run::fingerprint(stats),
        sim: Sim { waf: stats.totals().waf(), readable_frac: 1.0 - stats.uber },
    }
}

/// Per-layer counts and simulated figures read from the engine's public
/// statistics at the window boundary.
fn set_engine_counters(ctx: &mut Ctx, stats: &EngineStats) {
    let t = stats.totals();
    let escalated = stats.recovered_reads + stats.uncorrectable_reads;
    ctx.set("ftl.gc_writes", t.gc_writes as f64);
    ctx.set("ftl.erases", t.erases as f64);
    ctx.set("ftl.refresh_writes", t.refresh_writes as f64);
    ctx.set("ftl.recovered_reads", stats.recovered_reads as f64);
    ctx.set("ftl.uncorrectable_reads", stats.uncorrectable_reads as f64);
    ctx.set("ftl.recovery_steps", stats.recovery_steps as f64);
    ctx.set("ftl.recovery_reads", stats.recovery_reads as f64);
    let hottest = stats.per_die.iter().map(|d| d.hottest_block_reads).max().unwrap_or(0);
    ctx.set("ftl.hottest_block_reads", hottest as f64);
    ctx.set("ftl.uber", stats.uber);
    if escalated > 0 {
        ctx.set("ftl.recovered_frac", stats.recovered_reads as f64 / escalated as f64);
        ctx.set("ftl.retry_reads_per_escalation", stats.recovery_reads as f64 / escalated as f64);
    }
    let failed = stats.uncorrectable_reads + stats.writes_failed;
    ctx.set("ftl.failed_op_frac", failed as f64 / stats.ops.max(1) as f64);
    ctx.set("ecc.corrected_bits", stats.corrected_bits as f64);
    ctx.set("core.policy_probe_reads", t.policy_probe_reads as f64);
    ctx.set("engine.sim_kiops", stats.iops() / 1e3);
    ctx.set("engine.makespan_ms", stats.makespan_us / 1e3);
    ctx.set("engine.sim_p99_us", stats.latency_p99_us);
}

#[cfg(test)]
mod tests {
    use crate::json::Value;
    use crate::run::{self, RunArgs};
    use crate::spec;

    /// A smoke run of every workload, untraced and traced: every gate
    /// passes and the line carries exactly the declared metrics.
    #[test]
    fn every_workload_smokes_untraced_and_traced() {
        for w in &spec::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                };
                let (line, correct) = run::run(args).expect("declared workload runs");
                assert!(correct, "{} (trace {trace}) failed a gate: {}", w.name, line.compact());
                assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
                assert!(line.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
                let emitted: Vec<&str> = line
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .expect("metrics object")
                    .iter()
                    .map(|(name, _)| name.as_str())
                    .collect();
                let declared: Vec<&str> = if trace {
                    spec::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    spec::END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(emitted, declared, "{} (trace {trace})", w.name);
            }
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args =
            RunArgs { workload: "nope".into(), seed: 1, seconds: 0.05, trace: false, smoke: true };
        assert!(run::run(args).is_err());
    }
}
