//! A cell-exact chip whose erases and first (LSB) program passes leave
//! wordlines pending against a twin that draws every cell at once
//! ([`with_eager_draws`]): driven through one seeded sequence of erases,
//! programs, reads and read-retries, voltage sweeps, histograms, oracles,
//! per-cell inspection, clones and checkpoint round trips, the two must agree
//! after every step — on each outcome, on the checkpoint bytes, on the
//! pass-through candidate lists (in order) and on the generator's state.

use rand::{Rng, SeedableRng};

use super::*;
use crate::cell_array::with_eager_draws;
use crate::wire::{Reader, Writer};

fn geometry() -> Geometry {
    Geometry { blocks: 3, wordlines_per_block: 6, bitlines: 64, bits_per_cell: 2 }
}

fn encoded(chip: &Chip) -> Vec<u8> {
    let mut w = Writer::new();
    chip.encode_state(&mut w);
    w.into_bytes()
}

fn blocks(chip: &Chip) -> &[Block] {
    match &chip.storage {
        Storage::Exact { blocks, .. } => blocks,
        Storage::ClosedForm { .. } => panic!("a cell-exact chip"),
    }
}

fn candidates(chip: &Chip) -> Vec<Vec<u32>> {
    blocks(chip).iter().map(|block| block.candidates().to_vec()).collect()
}

fn assert_twins(lazy: &Chip, eager: &Chip, step: usize) {
    assert_eq!(lazy.rng.state(), eager.rng.state(), "step {step}: generator");
    assert_eq!(candidates(lazy), candidates(eager), "step {step}: candidates");
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

fn bits_of(volts: &[f64]) -> Vec<u64> {
    volts.iter().map(|v| v.to_bits()).collect()
}

/// The same page programmed on both chips; the eager twin draws every cell.
fn program(lazy: &mut Chip, eager: &mut Chip, block: u32, page: u32, data: &[u8]) {
    let b = with_eager_draws(|| eager.program_page(block, page, data));
    assert_eq!(lazy.program_page(block, page, data), b);
}

/// The same senses of `wordline` on both chips, in the order given: `&mut`
/// ones draw the wordline, `&self` ones leave it pending.
fn sense(lazy: &mut Chip, eager: &mut Chip, block: u32, wordline: u32, kind: u32, op: &mut StdRng) {
    let page = wordline * 2;
    match kind {
        0 => assert_eq!(lazy.read_page(block, page), eager.read_page(block, page)),
        1 => {
            let shift = op.gen_range(-40.0..40.0);
            assert_eq!(lazy.read_retry(block, page, shift), eager.read_retry(block, page, shift));
        }
        2 => {
            let (step, disturb) = (op.gen_range(1.0..8.0), op.gen_bool(0.5));
            let a = lazy.measure_wordline_vth(block, wordline, step, disturb).unwrap();
            let b = eager.measure_wordline_vth(block, wordline, step, disturb).unwrap();
            assert_eq!(bits_of(&a), bits_of(&b));
        }
        _ => {
            assert_eq!(lazy.block_rber(block), eager.block_rber(block));
            assert_eq!(lazy.wordline_rber(block, wordline), eager.wordline_rber(block, wordline));
            assert_eq!(lazy.vth_histogram(block, 2.5), eager.vth_histogram(block, 2.5));
            assert_eq!(cell_bits(lazy, block), cell_bits(eager, block));
        }
    }
}

/// A checkpoint round trip into chips built from other seeds.
fn round_trip(lazy: &mut Chip, eager: &mut Chip) {
    let g = geometry();
    let (a, b) = (encoded(lazy), encoded(eager));
    *lazy = Chip::new(g, lazy.params.clone(), 1);
    lazy.restore_state(&mut Reader::new(&a)).unwrap();
    *eager = with_eager_draws(|| Chip::new(g, eager.params.clone(), 2));
    eager.restore_state(&mut Reader::new(&b)).unwrap();
}

/// One random step on both chips: any page in any order.
fn step(lazy: &mut Chip, eager: &mut Chip, op: &mut StdRng) {
    let g = geometry();
    let block = op.gen_range(0..g.blocks);
    let page = op.gen_range(0..g.pages_per_block());
    let wl = op.gen_range(0..g.wordlines_per_block);
    match op.gen_range(0..11u32) {
        0 => {
            let (a, b) = (lazy.erase_block(block), with_eager_draws(|| eager.erase_block(block)));
            assert_eq!(a, b);
        }
        1 => {
            let cycles = op.gen_range(1..20_000);
            let a = lazy.cycle_block(block, cycles);
            assert_eq!(a, with_eager_draws(|| eager.cycle_block(block, cycles)));
        }
        2 | 3 => {
            // Any page: LSB before MSB or after it, and re-programs (errors).
            let data = bits::random(op, g.bitlines as usize);
            program(lazy, eager, block, page, &data);
        }
        4 => assert_eq!(lazy.read_page(block, page), eager.read_page(block, page)),
        5 => {
            let shift = op.gen_range(-40.0..40.0);
            assert_eq!(lazy.read_retry(block, page, shift), eager.read_retry(block, page, shift));
        }
        6 => sense(lazy, eager, block, wl, 2, op),
        7 => sense(lazy, eager, block, wl, 3, op),
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
        _ => round_trip(lazy, eager),
    }
}

/// Wordlines of the lazy chip that owe a first pass, and the candidates
/// they hold, summed over `tally`'s calls.
#[derive(Default)]
struct Tally {
    sensed_pending: usize,
    pending_candidates: usize,
}

/// One step on chips programmed page after page, as figures and FTLs do:
/// the block's next page, or a sense of its open wordline (the one whose LSB
/// page is programmed and MSB page not), an erase, a clone, a round trip.
fn lsb_step(lazy: &mut Chip, eager: &mut Chip, op: &mut StdRng, tally: &mut Tally) {
    let g = geometry();
    let block = op.gen_range(0..g.blocks);
    let next = (0..g.pages_per_block()).find(|&p| !lazy.is_page_programmed(block, p).unwrap());
    let open = next.filter(|p| p % 2 == 1).map(|p| p / 2);
    let wl = open.unwrap_or_else(|| op.gen_range(0..g.wordlines_per_block));
    let cells = blocks(lazy)[block as usize].cells();
    tally.pending_candidates += (0..g.wordlines_per_block)
        .filter(|&wl| cells.owes_first_pass(wl))
        .map(|wl| cells.wordline_candidates(wl, CellArray::candidate_floor(&lazy.params)).count())
        .sum::<usize>();
    match op.gen_range(0..14u32) {
        0..=4 => match next {
            Some(page) => program(lazy, eager, block, page, &bits::random(op, g.bitlines as usize)),
            None => {
                let (a, b) =
                    (lazy.erase_block(block), with_eager_draws(|| eager.erase_block(block)));
                assert_eq!(a, b);
            }
        },
        kind @ 5..=8 => {
            tally.sensed_pending += usize::from(cells.owes_first_pass(wl));
            sense(lazy, eager, block, wl, kind - 5, op);
        }
        9 => {
            let n = op.gen_range(0..200_000);
            lazy.hammer_wordline(block, wl, n).unwrap();
            eager.hammer_wordline(block, wl, n).unwrap();
            let days = op.gen_range(0.0..10.0);
            lazy.advance_block_days(block, days).unwrap();
            eager.advance_block_days(block, days).unwrap();
        }
        10 => {
            // A clone carries the pending wordlines: drawing them in the
            // clone leaves the original's untouched (checked after the step).
            let (mut a, mut b) = (lazy.clone(), eager.clone());
            assert_eq!(encoded(&a), encoded(lazy));
            let kind = op.gen_range(0..4);
            sense(&mut a, &mut b, block, wl, kind, op);
            assert_twins(&a, &b, usize::MAX);
        }
        11 => {
            let (a, b) = (lazy.erase_block(block), with_eager_draws(|| eager.erase_block(block)));
            assert_eq!(a, b);
        }
        _ => round_trip(lazy, eager),
    }
}

fn drive(
    params: ChipParams,
    seed: u64,
    steps: usize,
    wear: [u64; 3],
    mut step: impl FnMut(&mut Chip, &mut Chip, &mut StdRng),
) {
    let mut lazy = Chip::new(geometry(), params.clone(), seed);
    let mut eager = with_eager_draws(|| Chip::new(geometry(), params, seed));
    for (block, cycles) in (0..).zip(wear).filter(|&(_, cycles)| cycles > 0) {
        lazy.cycle_block(block, cycles).unwrap();
        with_eager_draws(|| eager.cycle_block(block, cycles)).unwrap();
    }
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
        drive(ChipParams::default(), seed, 400, [0; 3], step);
    }
}

/// With σ_ER wide enough for an erased cell to reach the candidate floor,
/// erases draw at once — and still match, candidates included.
#[test]
fn lazy_erase_matches_its_eager_twin_where_erase_stays_eager() {
    let mut params = ChipParams::default();
    params.states[CellState::Er.index() as usize].sigma = 60.0;
    drive(params, 7, 200, [0; 3], step);
}

/// Blocks programmed in page order, their open wordlines sensed before the
/// MSB pass by every observer, at three wears: fresh, worn enough for P2
/// cells to be misprogrammed into P3 during the LSB pass, and past the wear
/// where the first pass stays eager. Once at the default parameters, once
/// with most P3 cells outliers, so that LSB passes leave candidates on
/// pending wordlines.
#[test]
fn lazy_lsb_program_matches_its_eager_twin() {
    let outliers = ChipParams { outlier_prob: 0.5, ..ChipParams::default() };
    for (params, seed) in [(ChipParams::default(), 3), (outliers, 2015)] {
        let mut tally = Tally::default();
        let with_outliers = params.outlier_prob > 0.1;
        let step = |lazy: &mut _, eager: &mut _, op: &mut _| lsb_step(lazy, eager, op, &mut tally);
        drive(params, seed, 1_000, [0, 60_000, 120_000], step);
        assert!(tally.sensed_pending > 20, "{} senses of pending LSB passes", tally.sensed_pending);
        assert!(!with_outliers || tally.pending_candidates > 0, "no candidate on a pending pass");
    }
}
