//! `paper-exact`: the researcher's flow at the cell-exact tier — the five
//! figure routines, then one `umass-web` trace replayed on filled stock 2x2
//! arrays at all three tiers. The only workload where per-cell Monte-Carlo
//! does the work, and the one that states the simulator's error against the
//! paper and against its own exact tier.

use std::time::Instant;

use readdisturb::core::characterize::{
    fig10_rdr, fig3_rber_vs_reads, fig4_vpass_read_tolerance, fig5_passthrough_sweep,
    fig8_endurance, Scale, PAPER_FIG3_SLOPES,
};
use readdisturb::core::lifetime::average_gain;
use readdisturb::core::Rdr;
use readdisturb::engine::{Engine, EngineStats};
use readdisturb::flash::{Chip, ChipParams, ReadFidelity};
use readdisturb::workloads::{TraceOp, WorkloadProfile};

use super::{engine_window, fill, probes, set_engine_counters};
use crate::run::{fingerprint, Ctx, Measured};
use crate::shapes::{self, THREADS};
use crate::trace::Tracer;

/// Ops of the cross-tier trace.
pub const TRACE_OPS: usize = 8_000;
/// Cells per figure block: a quarter of `Scale::full()`, so a window is
/// about two seconds and a run fits several; RBER still resolves to ~1e-5.
const SCALE: Scale = Scale { wordlines: 32, bitlines: 2048 };
/// The paper's headline numbers the figures are held against.
const PAPER_ENDURANCE_GAIN: f64 = 0.21;
const PAPER_RDR_REDUCTION: f64 = 0.36;

const TIERS: [ReadFidelity; 3] =
    [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate];

/// What one window produced.
#[derive(Debug, Default)]
struct Results {
    /// Data points the five figures returned.
    points: u64,
    /// `|measured / paper - 1|` for Fig. 3's slopes (max), Fig. 8's average
    /// gain and Fig. 10's RBER reduction at 1M reads.
    fig3_slope_err_max: f64,
    endurance_gain_err: f64,
    rdr_reduction_err: f64,
    /// Hash of every figure's full data.
    figures: u64,
    /// Per-tier statistics and mean block RBER after the replay.
    replays: Vec<(EngineStats, f64)>,
}

struct State {
    engines: Vec<Engine>,
    results: Results,
}

fn figures(scale: Scale, seed: u64, tracer: &mut Tracer, out: &mut Results) {
    let f3 =
        tracer.span("core.fig3_rber_vs_reads", || fig3_rber_vs_reads(scale, seed)).expect("fig 3");
    let f4 = tracer
        .span("core.fig4_vpass_read_tolerance", || fig4_vpass_read_tolerance(scale, seed))
        .expect("fig 4");
    let f5 = tracer
        .span("core.fig5_passthrough_sweep", || fig5_passthrough_sweep(scale, seed))
        .expect("fig 5");
    let f10 = tracer.span("core.fig10_rdr", || fig10_rdr(scale, seed)).expect("fig 10");
    let f8 = tracer.span("core.fig8_endurance", fig8_endurance);

    out.points = (f3.series.iter().map(|s| s.points.len()).sum::<usize>()
        + f4.series.iter().map(|s| s.points.len()).sum::<usize>()
        + f5.series.iter().map(|s| s.points.len()).sum::<usize>()
        + f10.points.len()
        + f8.len()) as u64;
    out.fig3_slope_err_max = f3
        .series
        .iter()
        .zip(PAPER_FIG3_SLOPES)
        .map(|(s, (_, paper))| (s.fitted_slope / paper - 1.0).abs())
        .fold(0.0, f64::max);
    out.endurance_gain_err = (average_gain(&f8) / PAPER_ENDURANCE_GAIN - 1.0).abs();
    let last = f10.points.last().expect("fig 10 has points");
    out.rdr_reduction_err = ((1.0 - last.rdr / last.no_recovery) / PAPER_RDR_REDUCTION - 1.0).abs();
    out.figures = fingerprint(&(f3, f4, f5, f10, f8));
}

/// Mean of `block_rber_rate` over every block of every die.
fn mean_block_rber(engine: &Engine) -> f64 {
    let config = engine.config();
    let (dies, blocks) = (config.topology.dies(), config.die.geometry.blocks);
    let total: f64 = (0..dies)
        .flat_map(|d| (0..blocks).map(move |b| (d, b)))
        .map(|(d, b)| engine.die(d).chip().block_rber_rate(b).expect("block in range"))
        .sum();
    total / f64::from(dies * blocks)
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let seed = ctx.args.seed;
    let scale = if ctx.args.smoke { Scale::quick() } else { SCALE };
    let pages_per_block =
        shapes::array_s(seed, ReadFidelity::CellExact).die.geometry.pages_per_block();
    let trace: Vec<TraceOp> = WorkloadProfile::by_name("umass-web")
        .expect("umass-web is in the suite")
        .generator(seed, pages_per_block)
        .take(ctx.ops(TRACE_OPS))
        .collect();
    ctx.inputs_ready();

    let (m, state) = ctx.measure(
        |tracer| {
            let engines = TIERS
                .iter()
                .map(|&tier| {
                    let mut engine = tracer
                        .span("engine.new", || Engine::new(shapes::array_s(seed, tier)))
                        .expect("stock array builds");
                    fill(&mut engine, tracer);
                    engine
                })
                .collect();
            State { engines, results: Results::default() }
        },
        |state, tracer| {
            figures(scale, seed, tracer, &mut state.results);
            for engine in &mut state.engines {
                let stats = tracer.span("engine.replay_stats_only", || {
                    engine.replay_stats_only(trace.iter().copied(), THREADS)
                });
                state.results.replays.push((stats, 0.0));
            }
        },
        |state| {
            for (engine, replay) in state.engines.iter().zip(&mut state.results.replays) {
                replay.1 = mean_block_rber(engine);
            }
            let results = &state.results;
            let replayed = (TIERS.len() * trace.len()) as u64;
            let exact = &results.replays[0].0;
            let expected = state.engines[0].logical_pages() + trace.len() as u64;
            let mut window = engine_window(exact, results.points + replayed, expected);
            window.fingerprint = fingerprint(results);
            window
        },
    );
    let results = &state.results;
    let [exact, analytic, aggregate] = [0, 1, 2].map(|i| results.replays[i].1);
    // Gates against drifting silently away from the paper: generous, since
    // the errors themselves are reported.
    ctx.gate("fig 8 average gain within 2x of the paper's", results.endurance_gain_err < 1.0);
    ctx.gate("fig 10 RBER reduction within 2x of the paper's", results.rdr_reduction_err < 1.0);
    ctx.gate(
        "every tier saw the trace",
        results.replays.iter().all(|r| r.0.ops == results.replays[0].0.ops),
    );

    if ctx.args.trace {
        set_engine_counters(ctx, &results.replays[0].0);
        let windows = m.traced_wall_s.len().max(1) as f64;
        let fig_s =
            |span: &str| m.window_self.get(span).map_or(0.0, |s| s.0 as f64) / windows / 1e9;
        let figs = [
            ("core.fig3_s", fig_s("core.fig3_rber_vs_reads")),
            ("core.fig4_s", fig_s("core.fig4_vpass_read_tolerance")),
            ("core.fig5_s", fig_s("core.fig5_passthrough_sweep")),
            ("core.fig8_s", fig_s("core.fig8_endurance")),
            ("core.fig10_s", fig_s("core.fig10_rdr")),
        ];
        ctx.set("core.characterize_s", figs.iter().map(|f| f.1).sum());
        for (name, s) in figs {
            ctx.set(name, s);
        }
        ctx.set("core.fig3_slope_err_max", results.fig3_slope_err_max);
        ctx.set("core.endurance_gain_err", results.endurance_gain_err);
        ctx.set("core.rdr_reduction_err", results.rdr_reduction_err);
        ctx.set("flash.mean_block_rber.exact", exact);
        ctx.set("flash.mean_block_rber.analytic", analytic);
        ctx.set("flash.mean_block_rber.aggregate", aggregate);
        let err = |tier: f64| (tier / exact).ln().abs();
        ctx.set("core.tier_rber_err", err(analytic).max(err(aggregate)));
        ctx.set("engine.new_ms", m.setup_span_ms("engine.new"));
        drop(state);
        rdr_recover(ctx, scale);
        probes::die(ctx, ReadFidelity::CellExact);
        probes::chip(ctx, ReadFidelity::CellExact);
    }
    m
}

/// One `Rdr::recover_block` on a worn block after a million disturbs —
/// the step Fig. 10 repeats per grid point.
fn rdr_recover(ctx: &mut Ctx, scale: Scale) {
    let geometry = readdisturb::flash::Geometry {
        blocks: 1,
        wordlines_per_block: scale.wordlines,
        bitlines: scale.bitlines,
        bits_per_cell: 2,
    };
    let mut chip = Chip::new(geometry, ChipParams::default(), ctx.args.seed);
    chip.cycle_block(0, 8_000).expect("block in range");
    chip.program_block_random(0, ctx.args.seed).expect("block programs");
    chip.apply_read_disturbs(0, 1_000_000).expect("block in range");
    let t = Instant::now();
    let outcome = Rdr::default().recover_block(&mut chip, 0).expect("block recovers");
    ctx.set("core.rdr_recover_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.gate("RDR spends reads", outcome.reads_spent > 0);
}
