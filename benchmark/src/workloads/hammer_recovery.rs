//! `hammer-recovery`: the paper's threat model. A worn, aged, heavily
//! disturbed `array-M` at the analytic tier serves a hot-set read mix day
//! after day under Vpass Tuning, with the full RFR/ROR ladder on every die,
//! so closed-form sampling, ECC decode, the ladder and the tuner's probes do
//! the work and `recovered`, `uncorrectable` and `uber` are non-zero.

use std::hint::black_box;
use std::time::Instant;

use readdisturb::core::{full_recovery_ladder, VpassTuner, VpassTunerConfig, VpassTuningPolicy};
use readdisturb::ecc::BchCode;
use readdisturb::engine::{Engine, EngineConfig};
use readdisturb::flash::{Chip, ChipParams, Geometry, ReadFidelity};
use readdisturb::ftl::{Die, ReadResolution};
use readdisturb::workloads::{OpKind, TraceOp};

use super::{engine_window, fill, probes, set_engine_counters};
use crate::run::{Ctx, Measured};
use crate::shapes::{self, SplitMix, THREADS};
use crate::trace::Tracer;

/// P/E cycles every block has seen before the window.
const PRE_WEAR: u64 = 8_000;
/// Days of retention between the fill and the pre-disturb.
const PRE_AGE_DAYS: f64 = 5.0;
/// Reads folded into every valid block before the window.
const PRE_DISTURBS: u64 = 300_000;
/// Simulated days per window, and host ops per day.
pub const DAYS: usize = 10;
pub const OPS_PER_DAY: usize = 100_000;

type HammerEngine = Engine<VpassTuningPolicy>;
type HammerDie = Die<VpassTuningPolicy>;

/// Before the fill: the full recovery ladder, and every block worn.
fn wear(die: &mut HammerDie, blocks: u32) {
    die.set_recovery_ladder(full_recovery_ladder());
    for block in 0..blocks {
        die.chip_mut().cycle_block(block, PRE_WEAR).expect("block in range");
    }
}

/// After the fill and the ageing: every valid block read `PRE_DISTURBS` times.
fn pre_disturb(die: &mut HammerDie) {
    for block in die.valid_blocks() {
        die.chip_mut().apply_read_disturbs(block, PRE_DISTURBS).expect("block in range");
    }
}

/// A worn, filled, aged and pre-disturbed `array-M`.
fn build(config: &EngineConfig, tracer: &mut Tracer) -> HammerEngine {
    let mut engine = tracer
        .span("engine.with_policy", || {
            Engine::with_policy(config.clone(), VpassTuningPolicy::default())
        })
        .expect("array-M builds");
    let dies = config.topology.dies();
    let open = tracer.enter("flash.cycle_block");
    for d in 0..dies {
        wear(engine.die_mut(d), config.die.geometry.blocks);
    }
    tracer.exit(open);
    fill(&mut engine, tracer);
    tracer.span("engine.advance_time", || engine.advance_time(PRE_AGE_DAYS)).expect("ageing runs");
    let open = tracer.enter("flash.apply_read_disturbs");
    for d in 0..dies {
        pre_disturb(engine.die_mut(d));
    }
    tracer.exit(open);
    engine
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let config = shapes::array_m(ctx.args.seed);
    let per_day = ctx.ops(OPS_PER_DAY);
    let ops = shapes::hammer_ops(ctx.args.seed, config.logical_pages(), DAYS * per_day);
    ctx.inputs_ready();
    let expected = config.logical_pages() + ops.len() as u64;

    let (m, engine) = ctx.measure(
        |tracer| build(&config, tracer),
        |engine, tracer| {
            for day in ops.chunks(per_day) {
                tracer.span("engine.replay_stats_only", || {
                    engine.replay_stats_only(day.iter().copied(), THREADS)
                });
                tracer
                    .span("engine.advance_time", || engine.advance_time(1.0))
                    .expect("day passes");
            }
        },
        |engine| engine_window(&engine.stats(), ops.len() as u64, expected),
    );
    let stats = engine.stats();
    drop(engine);
    ctx.gate("ops accounted == ops submitted", stats.ops == expected);
    // The point of the workload; a smoke window is too short to promise them.
    if !ctx.args.smoke {
        ctx.gate("recovered > 0", stats.recovered_reads > 0);
        ctx.gate("uncorrectable > 0", stats.uncorrectable_reads > 0);
        ctx.gate("policy_probe_reads > 0", stats.totals().policy_probe_reads > 0);
    }

    if ctx.args.trace {
        set_engine_counters(ctx, &stats);
        read_buckets(ctx, &config, &ops);
        ecc(ctx, &config);
        tuner(ctx);
        probes::die(ctx, ReadFidelity::PageAnalytic);
        probes::chip(ctx, ReadFidelity::PageAnalytic);
    }
    m
}

/// Per-call `Die::read` on one die pre-conditioned like the array's,
/// bucketed by how the controller resolved the read; then the daily
/// maintenance step on the same die.
fn read_buckets(ctx: &mut Ctx, config: &EngineConfig, ops: &[TraceOp]) {
    let mut die = Die::with_policy(config.die.clone(), VpassTuningPolicy::default())
        .expect("array-M die builds");
    wear(&mut die, config.die.geometry.blocks);
    let logical = config.die.logical_pages();
    for lpa in 0..logical {
        die.write(lpa).expect("fill fits");
    }
    die.advance_time(PRE_AGE_DAYS).expect("ageing runs");
    pre_disturb(&mut die);

    // (ns, calls) for clean, corrected, recovered, uncorrectable.
    let mut buckets = [(0u64, 0u64); 4];
    for op in ops.iter().filter(|op| op.kind == OpKind::Read).take(ctx.ops(400_000)) {
        let lpa = op.lpa % logical;
        let t = Instant::now();
        let read = die.read(lpa);
        let ns = t.elapsed().as_nanos() as u64;
        let bucket = match read.as_ref().map(|r| &r.resolution) {
            Ok(ReadResolution::Clean) => 0,
            Ok(ReadResolution::Corrected { .. }) => 1,
            Ok(ReadResolution::Recovered { .. }) => 2,
            Ok(ReadResolution::Uncorrectable { .. }) | Err(_) => 3,
        };
        buckets[bucket].0 += ns;
        buckets[bucket].1 += 1;
    }
    let names = [
        "ftl.read_clean_ns",
        "ftl.read_corrected_ns",
        "ftl.read_recovered_ns",
        "ftl.read_uncorrectable_ns",
    ];
    for (name, (ns, calls)) in names.into_iter().zip(buckets) {
        if calls > 0 {
            ctx.set(name, ns as f64 / calls as f64);
        }
    }
    let days = 10;
    let day_ns = probes::ns_per_call(days, |_| die.advance_time(1.0).expect("day passes"));
    ctx.set("ftl.advance_day_ms", day_ns / 1e6);
}

/// The threshold decode the die applies to every read, and the real BCH
/// codec it stands for (which none of the workloads runs).
fn ecc(ctx: &mut Ctx, config: &EngineConfig) {
    let die = Die::new(config.die.clone()).expect("array-M die builds");
    let model = *die.ecc();
    let n = ctx.ops(4_000_000);
    let span = 2 * model.capability().max(1);
    let decode_ns = probes::ns_per_call(n, |i| {
        black_box(model.decode(black_box(i as u64 % span)));
    });
    ctx.set("ecc.page_decode_ns", decode_ns);

    let code = BchCode::flash_default();
    let mut rng = SplitMix(ctx.args.seed ^ 0xECC);
    let data: Vec<u8> = (0..code.data_bits() / 8).map(|_| rng.next_u64() as u8).collect();
    let n = ctx.ops(40).max(2);
    let encode_ns = probes::ns_per_call(n, |_| {
        black_box(code.encode(&data).expect("payload has the code's length"));
    });
    ctx.set("ecc.bch_encode_us", encode_ns / 1e3);
    let mut received = code.encode(&data).expect("payload has the code's length");
    let bits = code.codeword_bits() as u64;
    for _ in 0..code.t() / 2 {
        let bit = rng.below(bits) as usize;
        received[bit / 8] ^= 1 << (bit % 8);
    }
    let mut decoded_ok = true;
    let decode_ns = probes::ns_per_call(n, |_| {
        decoded_ok &= code.decode(&received).is_ok_and(|d| d.data == data);
    });
    ctx.gate("BCH corrects t/2 errors", decoded_ok);
    ctx.set("ecc.bch_decode_us", decode_ns / 1e3);
}

/// The three `VpassTuner` actions on a worn, programmed analytic block.
fn tuner(ctx: &mut Ctx) {
    let geometry =
        Geometry { blocks: 64, wordlines_per_block: 64, bitlines: 2048, bits_per_cell: 2 };
    let mut chip = Chip::with_fidelity(
        geometry,
        ChipParams::default(),
        ctx.args.seed,
        ReadFidelity::PageAnalytic,
    );
    for block in 0..geometry.blocks {
        chip.cycle_block(block, PRE_WEAR).expect("block in range");
        chip.program_block_random(block, ctx.args.seed ^ u64::from(block)).expect("block programs");
    }
    let mut tuner = VpassTuner::new(VpassTunerConfig::default());
    let blocks = geometry.blocks as usize;
    let us = |ns: f64| ns / 1e3;
    let init_ns = probes::ns_per_call(blocks, |b| {
        tuner.manufacture_init(&mut chip, b as u32).expect("block initialises");
    });
    ctx.set("core.manufacture_init_us", us(init_ns));
    let tune_ns = probes::ns_per_call(blocks, |b| {
        tuner.tune_block(&mut chip, b as u32).expect("block tunes");
    });
    ctx.set("core.tune_block_us", us(tune_ns));
    chip.advance_days(1.0);
    let rounds = ctx.ops(50).max(1);
    let check_ns = probes::ns_per_call(rounds * blocks, |i| {
        tuner.daily_check(&mut chip, (i % blocks) as u32).expect("block checks");
    });
    ctx.set("core.daily_check_us", us(check_ns));
    ctx.gate("tuner probes the chip", tuner.stats().probe_reads > 0);
}
