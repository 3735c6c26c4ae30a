//! A cell-exact chip driven through seeded sequences of erases, programs,
//! reads and read-retries, voltage sweeps, histograms, oracles, per-cell
//! inspection, clones and checkpoint round trips, each drive folded into one
//! digest: every outcome and, after every step, the checkpoint bytes, the
//! pass-through candidate lists (in order) and the generator's state.
//!
//! The digests were recorded while erases and first (LSB) program passes
//! left their wordlines undrawn until something sensed them, a scheme these
//! drives checked step by step against a twin that drew every cell at once.
//! Every pass now draws its cells when it runs; equal digests show that no
//! outcome, checkpoint, candidate or draw has moved. The digests were
//! re-recorded once since, when the checkpoint moved from per-block rows to
//! the ledger's lanes: the new bytes re-laid as rows gave the old digests.

use rand::{Rng, SeedableRng};

use super::*;
use crate::digest::{fold_page, fold_word, FNV_OFFSET};
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

/// One drive's digest.
struct Pin(u64);

impl Pin {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        self.0 = words.into_iter().fold(self.0, fold_word);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fold_page(fold_word(self.0, bytes.len() as u64), bytes);
    }

    /// An outcome by its `Debug` form, in which every `f64` round-trips.
    fn outcome(&mut self, outcome: &impl std::fmt::Debug) {
        self.bytes(format!("{outcome:?}").as_bytes());
    }

    /// The generator, each block's candidate list and the checkpoint bytes.
    fn state(&mut self, chip: &Chip) {
        self.words(chip.rng.state());
        for block in blocks(chip) {
            let list = block.candidates();
            self.words([list.len() as u64].into_iter().chain(list.iter().map(|&c| u64::from(c))));
        }
        self.bytes(&encoded(chip));
    }
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

/// One sense of `wordline`, of the `kind` given: a read, a read-retry, a
/// voltage sweep, or the `&self` observers.
fn sense(chip: &mut Chip, pin: &mut Pin, block: u32, wordline: u32, kind: u32, op: &mut StdRng) {
    let page = wordline * 2;
    match kind {
        0 => pin.outcome(&chip.read_page(block, page)),
        1 => {
            let shift = op.gen_range(-40.0..40.0);
            pin.outcome(&chip.read_retry(block, page, shift));
        }
        2 => {
            let (step, disturb) = (op.gen_range(1.0..8.0), op.gen_bool(0.5));
            let volts = chip.measure_wordline_vth(block, wordline, step, disturb).unwrap();
            pin.words(volts.iter().map(|v| v.to_bits()));
        }
        _ => {
            pin.outcome(&chip.block_rber(block));
            pin.outcome(&chip.wordline_rber(block, wordline));
            pin.outcome(&chip.vth_histogram(block, 2.5));
            pin.words(cell_bits(chip, block));
        }
    }
}

/// A checkpoint round trip into a chip built from another seed.
fn round_trip(chip: &mut Chip) {
    let bytes = encoded(chip);
    *chip = Chip::new(geometry(), chip.params.clone(), 1);
    chip.restore_state(&mut Reader::new(&bytes)).unwrap();
}

/// One random step: any page in any order.
fn step(chip: &mut Chip, pin: &mut Pin, op: &mut StdRng) {
    let g = geometry();
    let block = op.gen_range(0..g.blocks);
    let page = op.gen_range(0..g.pages_per_block());
    let wl = op.gen_range(0..g.wordlines_per_block);
    match op.gen_range(0..11u32) {
        0 => pin.outcome(&chip.erase_block(block)),
        1 => {
            let cycles = op.gen_range(1..20_000);
            pin.outcome(&chip.cycle_block(block, cycles));
        }
        2 | 3 => {
            // Any page: LSB before MSB or after it, and re-programs (errors).
            let data = bits::random(op, g.bitlines as usize);
            pin.outcome(&chip.program_page(block, page, &data));
        }
        4 => pin.outcome(&chip.read_page(block, page)),
        5 => {
            let shift = op.gen_range(-40.0..40.0);
            pin.outcome(&chip.read_retry(block, page, shift));
        }
        6 => sense(chip, pin, block, wl, 2, op),
        7 => sense(chip, pin, block, wl, 3, op),
        8 => {
            let n = op.gen_range(0..200_000);
            chip.hammer_wordline(block, wl, n).unwrap();
        }
        9 => {
            let days = op.gen_range(0.0..10.0);
            chip.advance_block_days(block, days).unwrap();
        }
        _ => round_trip(chip),
    }
}

/// One step on chips programmed page after page, as figures and FTLs do:
/// the block's next page, or a sense of its open wordline (the one whose LSB
/// page is programmed and MSB page not), an erase, a clone, a round trip.
fn lsb_step(chip: &mut Chip, pin: &mut Pin, op: &mut StdRng) {
    let g = geometry();
    let block = op.gen_range(0..g.blocks);
    let next = (0..g.pages_per_block()).find(|&p| !chip.is_page_programmed(block, p).unwrap());
    let open = next.filter(|p| p % 2 == 1).map(|p| p / 2);
    let wl = open.unwrap_or_else(|| op.gen_range(0..g.wordlines_per_block));
    match op.gen_range(0..14u32) {
        0..=4 => match next {
            Some(page) => {
                let data = bits::random(op, g.bitlines as usize);
                pin.outcome(&chip.program_page(block, page, &data));
            }
            None => pin.outcome(&chip.erase_block(block)),
        },
        kind @ 5..=8 => sense(chip, pin, block, wl, kind - 5, op),
        9 => {
            let n = op.gen_range(0..200_000);
            chip.hammer_wordline(block, wl, n).unwrap();
            let days = op.gen_range(0.0..10.0);
            chip.advance_block_days(block, days).unwrap();
        }
        10 => {
            // A sense of a clone leaves the original untouched (its state is
            // folded after the step).
            let mut clone = chip.clone();
            assert_eq!(encoded(&clone), encoded(chip));
            let kind = op.gen_range(0..4);
            sense(&mut clone, pin, block, wl, kind, op);
            pin.state(&clone);
        }
        11 => pin.outcome(&chip.erase_block(block)),
        _ => round_trip(chip),
    }
}

/// Drives a chip built from `seed`, its blocks first cycled to `wear`,
/// through `steps` steps; returns the drive's digest.
fn drive(
    params: ChipParams,
    seed: u64,
    steps: usize,
    wear: [u64; 3],
    mut step: impl FnMut(&mut Chip, &mut Pin, &mut StdRng),
) -> u64 {
    let mut chip = Chip::new(geometry(), params, seed);
    let mut pin = Pin(FNV_OFFSET);
    for (block, cycles) in (0..).zip(wear).filter(|&(_, cycles)| cycles > 0) {
        chip.cycle_block(block, cycles).unwrap();
    }
    pin.state(&chip);
    let mut op = StdRng::seed_from_u64(seed ^ 0x1A2E);
    for _ in 0..steps {
        step(&mut chip, &mut pin, &mut op);
        pin.state(&chip);
    }
    pin.0
}

#[test]
fn lazy_erase_matches_its_eager_twin() {
    let digests = [1, 2015].map(|seed| drive(ChipParams::default(), seed, 400, [0; 3], step));
    assert_eq!(digests, [0x99c8_7d99_1e39_159c, 0xc1fd_059d_f62b_2ad6], "{digests:#018x?}");
}

/// With σ_ER wide enough for an erased cell to reach the candidate floor.
#[test]
fn lazy_erase_matches_its_eager_twin_where_erase_stays_eager() {
    let mut params = ChipParams::default();
    params.states[CellState::Er.index() as usize].sigma = 60.0;
    let digest = drive(params, 7, 200, [0; 3], step);
    assert_eq!(digest, 0x9538_67aa_690e_7220, "{digest:#018x}");
}

/// Blocks programmed in page order, their open wordlines sensed before the
/// MSB pass by every observer, at three wears: fresh, worn enough for P2
/// cells to be misprogrammed into P3 during the LSB pass, and past the wear
/// at which a P2 cell could reach the candidate floor. Once at the default
/// parameters, once with most P3 cells outliers, so that LSB passes leave
/// candidates on open wordlines.
#[test]
fn lazy_lsb_program_matches_its_eager_twin() {
    let outliers = ChipParams { outlier_prob: 0.5, ..ChipParams::default() };
    let digests = [(ChipParams::default(), 3), (outliers, 2015)]
        .map(|(params, seed)| drive(params, seed, 1_000, [0, 60_000, 120_000], lsb_step));
    assert_eq!(digests, [0x68f6_c50e_4b01_6f11, 0xb9e3_bdd6_bb99_511c], "{digests:#018x?}");
}
