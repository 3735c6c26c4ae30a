//! Per-tier probes of the `ftl` and `flash` layers: the same public calls
//! the workloads make through the engine, made directly on a standalone
//! `Die` or `Chip` so one layer's cost shows alone. Each workload's traced
//! run probes the tier it runs at.

use std::hint::black_box;
use std::time::Instant;

use readdisturb::flash::{Chip, ChipParams, Geometry, ReadFidelity, NOMINAL_VPASS};
use readdisturb::ftl::{Die, SsdConfig};

use crate::run::Ctx;
use crate::shapes::SplitMix;
use crate::spec;

/// The declared per-layer metric `<base>.<tier>`.
fn tier_metric(base: &str, fidelity: ReadFidelity) -> &'static str {
    let tier = match fidelity {
        ReadFidelity::CellExact => "exact",
        ReadFidelity::PageAnalytic => "analytic",
        ReadFidelity::BlockAggregate => "aggregate",
    };
    let name = format!("{base}.{tier}");
    spec::PER_LAYER.iter().find(|m| m.name == name).expect("tier metric declared").name
}

/// Mean wall nanoseconds of one of `n` calls of `f`.
pub fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Calls per probe: the cell-exact tier touches every cell of a page, so
/// it gets a hundredth of the analytic tiers' count.
fn calls(ctx: &Ctx, fidelity: ReadFidelity, full: usize) -> usize {
    let n = if fidelity == ReadFidelity::CellExact { full / 100 } else { full };
    ctx.ops(n).max(16)
}

/// `ftl.die_read_ns.T` (and `ftl.die_write_ns.aggregate`): uniform reads
/// and overwrites on a standalone stock die that has been filled and then
/// overwritten once more, so GC is in steady state.
pub fn die(ctx: &mut Ctx, fidelity: ReadFidelity) {
    let config = SsdConfig::engine_scale(ctx.args.seed).with_fidelity(fidelity);
    let logical = config.logical_pages();
    let mut die = Die::new(config).expect("stock die builds");
    let mut rng = SplitMix(ctx.args.seed ^ 0xD1E);
    for lpa in 0..logical {
        die.write(lpa).expect("fill fits");
    }
    for _ in 0..logical {
        die.write(rng.below(logical)).expect("overwrite fits");
    }
    let n = calls(ctx, fidelity, 400_000);
    let read_ns = ns_per_call(n, |_| {
        black_box(die.read(rng.below(logical)).is_ok());
    });
    ctx.set(tier_metric("ftl.die_read_ns", fidelity), read_ns);
    if fidelity == ReadFidelity::BlockAggregate {
        let write_ns = ns_per_call(n, |_| die.write(rng.below(logical)).expect("overwrite fits"));
        ctx.set("ftl.die_write_ns.aggregate", write_ns);
    }
}

/// `flash.{program_page,read_page,disturb_fold,erase_block}_ns.T`, and on
/// the analytic tier the retry read, the RBER oracle warm and cold, and
/// the per-block ageing step — direct `Chip` calls on worn blocks.
pub fn chip(ctx: &mut Ctx, fidelity: ReadFidelity) {
    let geometry =
        Geometry { blocks: 8, wordlines_per_block: 64, bitlines: 2048, bits_per_cell: 2 };
    let mut chip = Chip::with_fidelity(geometry, ChipParams::default(), ctx.args.seed, fidelity);
    let pages = geometry.pages_per_block();
    let data = vec![0xA5u8; geometry.bits_per_page() / 8];
    for block in 0..geometry.blocks {
        chip.cycle_block(block, 3_000).expect("block in range");
    }

    let rounds = calls(ctx, fidelity, 3_200).div_ceil(geometry.blocks as usize);
    let (mut program_ns, mut erase_ns) = (0.0, 0.0);
    for _ in 0..rounds {
        for block in 0..geometry.blocks {
            let t = Instant::now();
            chip.erase_block(block).expect("block in range");
            erase_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            for page in 0..pages {
                chip.program_page(block, page, &data).expect("erased page programs");
            }
            program_ns += t.elapsed().as_nanos() as f64;
        }
    }
    let erases = (rounds * geometry.blocks as usize) as f64;
    ctx.set(tier_metric("flash.erase_block_ns", fidelity), erase_ns / erases);
    ctx.set(
        tier_metric("flash.program_page_ns", fidelity),
        program_ns / (erases * f64::from(pages)),
    );

    let n = calls(ctx, fidelity, 400_000);
    let read_ns = ns_per_call(n, |i| {
        let i = i as u32;
        black_box(chip.read_page(i % geometry.blocks, (i / geometry.blocks) % pages).is_ok());
    });
    ctx.set(tier_metric("flash.read_page_ns", fidelity), read_ns);

    let fold_ns = ns_per_call(n, |i| {
        chip.apply_read_disturbs(i as u32 % geometry.blocks, 1_000).expect("block in range");
    });
    ctx.set(tier_metric("flash.disturb_fold_ns", fidelity), fold_ns);

    if fidelity == ReadFidelity::PageAnalytic {
        let retry_ns = ns_per_call(n, |i| {
            let i = i as u32;
            black_box(
                chip.read_retry(i % geometry.blocks, (i / geometry.blocks) % pages, 0.05).is_ok(),
            );
        });
        ctx.set("flash.read_retry_ns.analytic", retry_ns);
        // The oracle integrates the closed form over the block: ~20 us a call.
        let n = calls(ctx, fidelity, 20_000);
        let warm_ns = ns_per_call(n, |i| {
            black_box(chip.block_rber_rate(i as u32 % geometry.blocks).expect("block in range"));
        });
        ctx.set("flash.block_rber_rate_warm_ns", warm_ns);
        // A Vpass change invalidates the block's cached operating point,
        // so the next oracle call recomputes it.
        let mut cold_total = 0.0;
        for i in 0..n {
            let block = i as u32 % geometry.blocks;
            let vpass = NOMINAL_VPASS * (0.97 + 0.0001 * (i % 100) as f64);
            chip.set_block_vpass(block, vpass).expect("vpass in range");
            let t = Instant::now();
            black_box(chip.block_rber_rate(block).expect("block in range"));
            cold_total += t.elapsed().as_nanos() as f64;
        }
        ctx.set("flash.block_rber_rate_cold_ns", cold_total / n as f64);
        let days = ctx.ops(20_000).max(16);
        let age_ns = ns_per_call(days, |_| chip.advance_days(1.0));
        ctx.set("flash.advance_days_ns_per_block", age_ns / f64::from(geometry.blocks));
    }
}
