//! A cell-exact chip whose erases leave wordlines pending against a twin
//! whose erases draw every cell at once ([`with_eager_erase`]): driven
//! through one seeded sequence of erases, programs in either page order,
//! reads and read-retries of programmed and erased pages, voltage sweeps,
//! histograms, per-cell inspection and checkpoint round trips, the two must
//! agree after every step — on each outcome, on the checkpoint bytes and on
//! the generator's state.

use rand::{Rng, SeedableRng};

use super::*;
use crate::cell_array::with_eager_erase;
use crate::wire::{Reader, Writer};

fn geometry() -> Geometry {
    Geometry { blocks: 3, wordlines_per_block: 6, bitlines: 64, bits_per_cell: 2 }
}

fn encoded(chip: &Chip) -> Vec<u8> {
    let mut w = Writer::new();
    chip.encode_state(&mut w);
    w.into_bytes()
}

fn assert_twins(lazy: &Chip, eager: &Chip, step: usize) {
    assert_eq!(lazy.rng.state(), eager.rng.state(), "step {step}: generator");
    assert_eq!(encoded(lazy), encoded(eager), "step {step}: checkpoint bytes");
}

/// Every voltage the per-cell and per-wordline accessors report, as bits.
fn cell_bits(chip: &Chip, block: u32) -> Vec<u64> {
    let cells = chip.cells(block).unwrap();
    let mut out = Vec::new();
    for wl in 0..chip.geometry().wordlines_per_block {
        let op = chip.operating_point(block, wl).unwrap();
        out.extend(cells.wordline_current_vth(chip.params(), wl, op).map(f64::to_bits));
        out.extend(cells.wordline_states(wl).map(|s| u64::from(s.index())));
        for bl in [0, 31, 63] {
            out.push(cells.current_vth(chip.params(), wl, bl, op).to_bits());
        }
    }
    out
}

/// One random step on both chips; the eager twin erases eagerly.
fn step(lazy: &mut Chip, eager: &mut Chip, op: &mut StdRng) {
    let g = geometry();
    let block = op.gen_range(0..g.blocks);
    let page = op.gen_range(0..g.pages_per_block());
    let wl = op.gen_range(0..g.wordlines_per_block);
    match op.gen_range(0..11u32) {
        0 => {
            let (a, b) = (lazy.erase_block(block), with_eager_erase(|| eager.erase_block(block)));
            assert_eq!(a, b);
        }
        1 => {
            let cycles = op.gen_range(1..20_000);
            let a = lazy.cycle_block(block, cycles);
            assert_eq!(a, with_eager_erase(|| eager.cycle_block(block, cycles)));
        }
        2 | 3 => {
            // Any page: LSB before MSB or after it, and re-programs (errors).
            let data = bits::random(op, g.bitlines as usize);
            assert_eq!(
                lazy.program_page(block, page, &data),
                eager.program_page(block, page, &data)
            );
        }
        4 => assert_eq!(lazy.read_page(block, page), eager.read_page(block, page)),
        5 => {
            let shift = op.gen_range(-40.0..40.0);
            assert_eq!(lazy.read_retry(block, page, shift), eager.read_retry(block, page, shift));
        }
        6 => {
            let (step, disturb) = (op.gen_range(1.0..8.0), op.gen_bool(0.5));
            let a = lazy.measure_wordline_vth(block, wl, step, disturb).unwrap();
            let b = eager.measure_wordline_vth(block, wl, step, disturb).unwrap();
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        7 => {
            assert_eq!(lazy.vth_histogram(block, 2.5), eager.vth_histogram(block, 2.5));
            assert_eq!(cell_bits(lazy, block), cell_bits(eager, block));
            assert_eq!(lazy.block_rber(block), eager.block_rber(block));
        }
        8 => {
            let n = op.gen_range(0..200_000);
            lazy.hammer_wordline(block, wl, n).unwrap();
            eager.hammer_wordline(block, wl, n).unwrap();
        }
        9 => {
            let days = op.gen_range(0.0..10.0);
            lazy.advance_block_days(block, days).unwrap();
            eager.advance_block_days(block, days).unwrap();
        }
        _ => {
            // A checkpoint round trip into chips built from other seeds.
            let (a, b) = (encoded(lazy), encoded(eager));
            *lazy = Chip::new(g, lazy.params.clone(), 1);
            lazy.restore_state(&mut Reader::new(&a)).unwrap();
            *eager = with_eager_erase(|| Chip::new(g, eager.params.clone(), 2));
            eager.restore_state(&mut Reader::new(&b)).unwrap();
        }
    }
}

fn drive(params: ChipParams, seed: u64, steps: usize) {
    let mut lazy = Chip::new(geometry(), params.clone(), seed);
    let mut eager = with_eager_erase(|| Chip::new(geometry(), params, seed));
    assert_twins(&lazy, &eager, 0);
    let mut op = StdRng::seed_from_u64(seed ^ 0x1A2E);
    for i in 1..=steps {
        step(&mut lazy, &mut eager, &mut op);
        assert_twins(&lazy, &eager, i);
    }
}

#[test]
fn lazy_erase_matches_its_eager_twin() {
    for seed in [1, 2015] {
        drive(ChipParams::default(), seed, 400);
    }
}

/// With σ_ER wide enough for an erased cell to reach the candidate floor,
/// erases draw at once — and still match, candidates included.
#[test]
fn lazy_erase_matches_its_eager_twin_where_erase_stays_eager() {
    let mut params = ChipParams::default();
    params.states[CellState::Er.index() as usize].sigma = 60.0;
    drive(params, 7, 200);
}
