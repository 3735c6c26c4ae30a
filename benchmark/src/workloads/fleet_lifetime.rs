//! `fleet-lifetime`: eight small, varied drives, one epoch old (filled and
//! first worn), lived through ten more 30-day epochs of the write-heavy
//! profile (replacement at 200 P/E), then snapshot + restore. The `ftl`/`flash` layers the other way round:
//! programs, GC, 7-day refresh, ageing and replacement dominate instead of
//! the read path, on cache-resident 16-block dies.

use std::hint::black_box;

use readdisturb::fleet::{Fleet, FleetConfig};
use readdisturb::workloads::WorkloadProfile;

use crate::measure;
use crate::run::{fingerprint, Ctx, Measured, Sim, Window};
use crate::shapes::THREADS;

pub const DRIVES: u32 = 8;
pub const OPS_PER_EPOCH: usize = 20_000;
pub const EPOCHS: usize = 10;

struct State {
    fleet: Fleet,
    snapshot_bytes: usize,
    restored: Option<Fleet>,
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let mut config = FleetConfig::quick();
    config.drives = DRIVES;
    config.ops_per_epoch = ctx.ops(OPS_PER_EPOCH) as u64;
    config.seed = ctx.args.seed;
    // Traffic is generated by the fleet itself, epoch by epoch, from its
    // seed; there are no inputs to pre-generate.
    ctx.inputs_ready();
    let window_ops = u64::from(DRIVES) * config.ops_per_epoch * EPOCHS as u64;

    let (m, state) = ctx.measure(
        |tracer| {
            let mut fleet =
                tracer.span("fleet.new", || Fleet::new(config.clone())).expect("fleet builds");
            // Pre-conditioning: the first epoch writes the empty drives full.
            tracer.span("fleet.epoch", || fleet.epoch(THREADS));
            State { fleet, snapshot_bytes: 0, restored: None }
        },
        |state, tracer| {
            for _ in 0..EPOCHS {
                tracer.span("fleet.epoch", || state.fleet.epoch(THREADS));
            }
            let bytes =
                tracer.span("fleet.snapshot", || state.fleet.snapshot()).expect("fleet snapshots");
            state.snapshot_bytes = bytes.len();
            state.restored = Some(
                tracer
                    .span("fleet.restore", || Fleet::restore(&bytes))
                    .expect("own snapshot restores"),
            );
        },
        |state| {
            let row = state.fleet.row();
            let restored = state.restored.take().expect("window ran");
            Window {
                ops: window_ops,
                // The fleet accounts host ops only as served reads and
                // writes, so the one failure visible from outside is a
                // restore that lands another state: it loses the window.
                failed: if restored.row() == row { 0 } else { window_ops },
                fingerprint: fingerprint(&row),
                sim: Sim { waf: row.waf, readable_frac: 1.0 - row.fleet_uber },
            }
        },
    );
    let row = state.fleet.row();
    ctx.gate("every epoch ran", state.fleet.epochs_done() as usize == 1 + EPOCHS);

    if ctx.args.trace {
        let span_ms = |name: &str| -> Vec<f64> {
            let spans = ctx.tracer.spans().iter().filter(|s| s.name == name);
            spans.map(|s| (s.end_ns - s.start_ns) as f64 / 1e6).collect()
        };
        // Epoch spans under `bench.setup` are the pre-conditioning epoch.
        let epochs: Vec<f64> = {
            let spans = ctx.tracer.spans();
            let in_window = |s: &&crate::trace::Span| {
                s.name == "fleet.epoch"
                    && s.parent.is_some_and(|p| spans[p as usize].name == "bench.window")
            };
            spans.iter().filter(in_window).map(|s| (s.end_ns - s.start_ns) as f64 / 1e6).collect()
        };
        let snapshot_us = measure::median(&span_ms("fleet.snapshot")) * 1e3;
        let restore_us = measure::median(&span_ms("fleet.restore")) * 1e3;
        ctx.set("fleet.new_ms", m.setup_span_ms("fleet.new"));
        ctx.set("fleet.epoch_ms_p50", measure::median(&epochs));
        ctx.set("fleet.epoch_ms_max", epochs.iter().copied().fold(0.0, f64::max));
        ctx.set("fleet.snapshot_us", snapshot_us);
        ctx.set("fleet.restore_us", restore_us);
        ctx.set("fleet.snapshot_bytes", state.snapshot_bytes as f64);
        ctx.set("fleet.replacements", row.replacements as f64);
        ctx.set("fleet.refresh_amp", row.refresh_amp);
        ctx.set("ftl.uncorrectable_reads", row.uncorrectable as f64);
        ctx.set("ftl.uber", row.fleet_uber);
        trace_gen(ctx, &config);
    }
    m
}

/// `TraceGenerator::next` for the fleet's profile: the input generation
/// every epoch pays inside its window.
fn trace_gen(ctx: &mut Ctx, config: &FleetConfig) {
    let profile = WorkloadProfile::by_name(&config.profile).expect("profile validated");
    let pages_per_block = config.engine.die.geometry.pages_per_block();
    let mut generator = profile.generator(ctx.args.seed, pages_per_block);
    let n = ctx.ops(2_000_000);
    let ns = super::probes::ns_per_call(n, |_| {
        black_box(generator.next());
    });
    ctx.set("workloads.trace_gen_ns_per_op", ns);
}
