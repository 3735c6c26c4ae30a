//! A cell-exact flash block: the erase unit's per-cell physics — the cell
//! array, the read-disturb dose and the pass-through candidates. Wear, age,
//! read count, Vpass and programmed pages live in the chip's
//! [`BlockLedger`], row `b`.

use rand::rngs::StdRng;

use crate::bits;
use crate::cell_array::{
    CellArray, CellLanes, Level, OperatingPoint, PassVoltage, Screen, Sense, SenseScratch,
};
use crate::chip::ReadOutcome;
use crate::error::FlashError;
use crate::geometry::{PageAddr, PageKind};
use crate::ledger::BlockLedger;
use crate::params::ChipParams;
use crate::state::{CellState, VoltageRefs};
use crate::wire::{Reader, SnapError, Writer};
use crate::BitErrorStats;

/// One flash block of the Monte-Carlo chip model.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    wordlines: u32,
    bitlines: u32,
    cells: CellArray,
    dose: f64,
    /// Per-wordline dose adjustment on top of the block-uniform dose:
    /// positive for the neighbours of hammered wordlines (concentrated read
    /// disturb, \[97\]), negative for a hammered wordline itself (it is not
    /// pass-through-stressed during its own reads).
    wordline_extra_dose: Vec<f64>,
    /// Cell indices whose base Vth can possibly exceed a relaxed Vpass.
    candidates: Vec<u32>,
    candidate_floor: f64,
}

/// A checkpoint's block state, decoded and checked against the block it
/// will restore ([`Block::decode_state`]).
#[derive(Debug)]
pub(crate) struct BlockLanes {
    dose: f64,
    wordline_extra_dose: Vec<f64>,
    candidates: Vec<u32>,
    cells: CellLanes,
}

/// The Gray code of a state index ([`crate::state::gray_code`], on the
/// cell lanes' `u8`). A state stores its complement: the LSB page holds the
/// complemented high bit, the MSB page the complemented low bit.
#[inline]
fn gray(state: u8) -> u8 {
    state ^ state >> 1
}

/// How far a Gray code shifts right to bring `kind`'s page bit to bit 0.
fn gray_shift(kind: PageKind) -> u8 {
    match kind {
        PageKind::Lsb => 1,
        PageKind::Msb => 0,
    }
}

/// The packed page that cells in `states` (one state index per bitline)
/// store or sense on a page of `kind`, eight cells per byte.
pub(crate) fn pack_page(states: &[u8], kind: PageKind) -> Vec<u8> {
    let shift = gray_shift(kind);
    let pack = |cells: &[u8]| {
        cells.iter().enumerate().fold(0u8, |byte, (j, &s)| byte | (!gray(s) >> shift & 1) << j)
    };
    states.chunks(8).map(pack).collect()
}

/// Bits of a page of `kind` on which the sensed states differ from the
/// intended ones. The Gray map is linear over XOR, so two states' page bits
/// differ exactly where the Gray code of their XOR has that bit set — no
/// per-cell table, and the loop vectorizes.
fn bit_errors(sensed: &[u8], intended: &[u8], kind: PageKind) -> u64 {
    let shift = gray_shift(kind);
    sensed.iter().zip(intended).map(|(&s, &i)| u64::from(gray(s ^ i) >> shift & 1)).sum()
}

/// [`bit_errors`] of one cell: 1 if its page bit of `kind` reads wrong.
fn bit_error(sensed: u8, intended: u8, kind: PageKind) -> u64 {
    bit_errors(&[sensed], &[intended], kind)
}

impl Block {
    pub(crate) fn new(
        wordlines: u32,
        bitlines: u32,
        params: &ChipParams,
        rng: &mut StdRng,
    ) -> Self {
        let cells = CellArray::new(wordlines, bitlines, params, rng);
        let candidate_floor = CellArray::candidate_floor(params);
        let mut block = Self {
            wordlines,
            bitlines,
            cells,
            dose: 0.0,
            wordline_extra_dose: vec![0.0; wordlines as usize],
            candidates: Vec::new(),
            candidate_floor,
        };
        block.refresh_candidates();
        block
    }

    /// The dose one wordline has accumulated: the block-uniform dose plus
    /// its concentrated-disturb adjustment, never negative.
    fn wordline_dose(&self, wordline: u32) -> f64 {
        (self.dose + self.wordline_extra_dose[wordline as usize]).max(0.0)
    }

    /// The operating point as seen by one wordline: the block's wear and
    /// age (ledger row `b`) at the wordline's own dose.
    pub(crate) fn operating_point_for(
        &self,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> OperatingPoint {
        let (pe_cycles, age_days) = (ledger.pe_cycles[b], ledger.age_days[b]);
        OperatingPoint { pe_cycles, age_days, dose: self.wordline_dose(wordline) }
    }

    /// The block's wear and age, hoisted; each wordline senses at
    /// `.at_dose(self.wordline_dose(wl))`.
    fn sense(&self, params: &ChipParams, ledger: &BlockLedger, b: usize) -> Sense {
        let (pe_cycles, age_days) = (ledger.pe_cycles[b], ledger.age_days[b]);
        Sense::new(params, OperatingPoint { pe_cycles, age_days, dose: self.dose })
    }

    /// Iterates `(wordline, bitline, intended_state, current_vth)` over the
    /// whole block, applying each wordline's own disturb dose.
    pub(crate) fn iter_cells_current<'a>(
        &'a self,
        params: &'a ChipParams,
        ledger: &BlockLedger,
        b: usize,
    ) -> impl Iterator<Item = (u32, u32, CellState, f64)> + 'a {
        let sense = self.sense(params, ledger, b);
        (0..self.wordlines).flat_map(move |wl| {
            let intended = self.cells.intended_wordline(wl);
            self.cells
                .wordline_vth(wl, sense.at_dose(self.wordline_dose(wl)))
                .zip(intended)
                .zip(0..)
                .map(move |((vth, &state), bl)| (wl, bl, CellState::from_index(state), vth))
        })
    }

    /// The accumulated block-uniform read-disturb dose.
    pub(crate) fn dose(&self) -> f64 {
        self.dose
    }

    /// Read-only access to the cell array (oracle inspection).
    pub(crate) fn cells(&self) -> &CellArray {
        &self.cells
    }

    /// The pass-through candidates, in the order the blocking decision
    /// walks them.
    #[cfg(test)]
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// After the ledger's erase (or pre-wear) to `pe_cycles`: all cells
    /// return to ER and the disturb dose resets.
    pub(crate) fn reset(&mut self, params: &ChipParams, rng: &mut StdRng, pe_cycles: u64) {
        self.dose = 0.0;
        self.wordline_extra_dose.fill(0.0);
        self.cells.erase(params, rng, pe_cycles);
        self.refresh_candidates();
    }

    /// Programs one page the ledger has accepted. LSB pages may be
    /// programmed before their MSB page (real MLC program order);
    /// programming an MSB page whose LSB page was never written treats the
    /// LSB data as all-ones (erased).
    pub(crate) fn program_page(
        &mut self,
        params: &ChipParams,
        rng: &mut StdRng,
        ledger: &BlockLedger,
        b: usize,
        page: u32,
        data: &[u8],
    ) {
        let addr = PageAddr { block: 0, page };
        let wl = addr.wordline();
        let mut states = Vec::with_capacity(self.bitlines as usize);
        match addr.kind() {
            PageKind::Lsb => {
                // First programming pass: LSB=1 stays erased, LSB=0 moves to
                // an intermediate state read correctly via Vb (modelled as P2).
                for bl in 0..self.bitlines as usize {
                    states.push(if bits::get_bit(data, bl) {
                        CellState::Er
                    } else {
                        CellState::P2
                    });
                }
            }
            PageKind::Msb => {
                for bl in 0..self.bitlines as usize {
                    let lsb = self.cells.intended_state(wl, bl as u32).lsb();
                    states.push(CellState::from_bits(lsb, bits::get_bit(data, bl)));
                }
            }
        }
        self.cells.program_wordline(params, rng, wl, &states, ledger.pe_cycles[b]);
        self.refresh_candidates_wordline(wl);
    }

    /// Serializes all mutable block state (checkpointing; the chip writes
    /// it inside the ledger's lanes). Config-derived constants
    /// (`candidate_floor`, geometry) are not written; the pass-through
    /// candidate list *is*, verbatim, because its order depends on the
    /// program history and the blocking decision walks it in order.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_f64(self.dose);
        w.put_f64s(&self.wordline_extra_dose);
        w.put_u32s(&self.candidates);
        self.cells.encode_state(w);
    }

    /// Decodes what [`Block::encode_state`] wrote for a block of identical
    /// geometry and parameters, for [`Block::restore`]. This block is not
    /// touched.
    pub(crate) fn decode_state(&self, r: &mut Reader<'_>) -> Result<BlockLanes, SnapError> {
        let (dose, wordline_extra_dose) = (r.get_f64()?, r.get_f64s()?);
        if wordline_extra_dose.len() != self.wordlines as usize {
            return Err(SnapError::Mismatch("block wordline count differs".into()));
        }
        let candidates = r.get_u32s()?;
        if candidates.iter().any(|&i| i as usize >= self.cells.len()) {
            return Err(SnapError::Mismatch("candidate index out of range".into()));
        }
        let cells = self.cells.decode_state(r)?;
        Ok(BlockLanes { dose, wordline_extra_dose, candidates, cells })
    }

    /// Takes decoded state as the block's.
    pub(crate) fn restore(&mut self, lanes: BlockLanes) {
        let BlockLanes { dose, wordline_extra_dose, candidates, cells } = lanes;
        (self.dose, self.wordline_extra_dose, self.candidates) =
            (dose, wordline_extra_dose, candidates);
        self.cells.restore(cells);
    }

    /// Applies the disturb effect of `n` reads *spread across the block*
    /// without materializing data (batch accounting; the closed-form cell
    /// model makes this exact, see [`crate::noise::read_disturb`]). Reads
    /// spread over wordlines average out the concentrated-neighbour effect,
    /// so only the uniform dose accumulates.
    pub(crate) fn apply_read_disturbs(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        n: u64,
    ) {
        self.dose += params.dose_increment(n, ledger.pe_cycles[b], ledger.vpass[b]);
        ledger.reads_since_erase[b] += n;
    }

    /// Applies the disturb effect of `n` reads all targeting one wordline
    /// (a "hammered" page): every other wordline receives the uniform dose,
    /// the direct neighbours an extra `rd_neighbor_boost` multiple of it
    /// (concentrated read disturb, \[97\]), and the target itself none — its
    /// gates see read references, not Vpass, during its own reads.
    pub(crate) fn hammer_wordline(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        wordline: u32,
        n: u64,
    ) {
        let inc = params.dose_increment(n, ledger.pe_cycles[b], ledger.vpass[b]);
        self.dose += inc;
        ledger.reads_since_erase[b] += n;
        let wl = wordline as usize;
        self.wordline_extra_dose[wl] -= inc;
        let boost = inc * params.rd_neighbor_boost;
        if wl > 0 {
            self.wordline_extra_dose[wl - 1] += boost;
        }
        if wl + 1 < self.wordlines as usize {
            self.wordline_extra_dose[wl + 1] += boost;
        }
    }

    /// Reads an in-range page at the given read references (the defaults, a
    /// read-retry shift of them, or each boundary moved independently —
    /// what read-reference optimization needs), at the block's current
    /// Vpass. The read itself disturbs the block (pass `disturb = false`
    /// for oracle measurements). The sensed bytes are assembled only when
    /// `keep_data`; the counts are the same either way.
    ///
    /// # Errors
    ///
    /// [`FlashError::FidelityUnsupported`] for a non-MLC reference set.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_page(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        page: u32,
        refs: &VoltageRefs,
        disturb: bool,
        keep_data: bool,
        scratch: &mut SenseScratch,
    ) -> Result<ReadOutcome, FlashError> {
        if refs.n_states() != 4 {
            return Err(FlashError::FidelityUnsupported { op: "a non-MLC read-reference set" });
        }
        let addr = PageAddr { block: 0, page };
        let wl = addr.wordline();
        let kind = addr.kind();
        if disturb {
            self.hammer_wordline(params, ledger, b, wl, 1);
        }
        let sense = self.sense(params, ledger, b);
        self.find_blockers(params, ledger, b, sense, &mut scratch.blockers);
        let blocked_bitlines =
            self.sense_with_blocking(wl, sense, &Screen::new(params, refs), scratch);
        let errors = bit_errors(&scratch.states, self.cells.intended_wordline(wl), kind);
        Ok(ReadOutcome {
            data: if keep_data { pack_page(&scratch.states, kind) } else { Vec::new() },
            stats: BitErrorStats::new(errors, u64::from(self.bitlines)),
            blocked_bitlines,
        })
    }

    /// Oracle RBER over all programmed pages: counts both bits of every cell
    /// against the intended state, including pass-through blocking, without
    /// adding disturb dose. This is what the paper's figures plot. It is
    /// [`Block::rber_sweep`] at the block's own Vpass.
    pub(crate) fn rber_oracle(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
    ) -> BitErrorStats {
        self.oracle(params, ledger, b, 0..self.wordlines, &[ledger.vpass[b]])[0]
    }

    /// The oracle RBER over all programmed pages with the block's Vpass set
    /// to each of `vpasses` in turn (values the caller has checked).
    pub(crate) fn rber_sweep(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
        vpasses: &[f64],
    ) -> Vec<BitErrorStats> {
        self.oracle(params, ledger, b, 0..self.wordlines, vpasses)
    }

    /// Oracle RBER of a single wordline's programmed pages (used by the
    /// concentrated-disturb experiments to resolve per-wordline damage).
    pub(crate) fn rber_oracle_wordline(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> BitErrorStats {
        self.oracle(params, ledger, b, wordline..wordline + 1, &[ledger.vpass[b]])[0]
    }

    /// The oracle over the programmed pages of `wordlines`, once per
    /// pass-through voltage in `vpasses`. What a wordline senses depends on
    /// wear, age and dose, not on Vpass, so each programmed wordline is
    /// sensed once and each pass-through candidate's voltage worked out
    /// once. A Vpass only decides which candidates block: per Vpass, each
    /// bitline its blockers on other wordlines force to P3 (counted once,
    /// as [`Block::sense_with_blocking`] counts it) moves the wordline's
    /// error counts from its sensed state's bits to P3's.
    fn oracle(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
        wordlines: std::ops::Range<u32>,
        vpasses: &[f64],
    ) -> Vec<BitErrorStats> {
        let sense = self.sense(params, ledger, b);
        let voltages: Vec<((u32, u32), PassVoltage)> = self
            .candidates
            .iter()
            .map(|&i| {
                let (bl, wl) = (i % self.bitlines, i / self.bitlines);
                let sense = sense.at_dose(self.wordline_dose(wl));
                ((bl, wl), self.cells.pass_voltage(i as usize, &sense))
            })
            .collect();
        let blockers: Vec<Vec<(u32, u32)>> = vpasses
            .iter()
            .map(|&vpass| {
                let vpass = Level::vpass(params, vpass);
                voltages.iter().filter(|(_, v)| v.exceeds(&vpass)).map(|&(at, _)| at).collect()
            })
            .collect();
        let screen = Screen::new(params, &params.refs);
        let mut scratch = SenseScratch::default();
        let mut stats = vec![BitErrorStats::default(); vpasses.len()];
        let p3 = CellState::P3.index();
        for wl in wordlines {
            let programmed =
                PageKind::ALL.map(|kind| ledger.is_programmed(b, PageAddr::of(0, wl, kind).page));
            if !programmed.contains(&true) {
                continue;
            }
            let sense = sense.at_dose(self.wordline_dose(wl));
            self.cells.sense_wordline(wl, &sense, &screen, &mut scratch);
            let intended = self.cells.intended_wordline(wl);
            let sensed = PageKind::ALL.map(|kind| bit_errors(&scratch.states, intended, kind));
            for (blockers, stats) in blockers.iter().zip(&mut stats) {
                let mut errors = sensed;
                each_blocked_bitline(&mut scratch.states, blockers, wl, |bl, state| {
                    let intended = intended[bl as usize];
                    for (errors, kind) in errors.iter_mut().zip(PageKind::ALL) {
                        *errors = *errors - bit_error(*state, intended, kind)
                            + bit_error(p3, intended, kind);
                    }
                });
                for (errors, on) in errors.into_iter().zip(programmed) {
                    if on {
                        *stats = *stats + BitErrorStats::new(errors, u64::from(self.bitlines));
                    }
                }
            }
        }
        stats
    }

    /// Measures the threshold voltage of every cell on an in-range wordline
    /// by a read-retry sweep quantized at `step` volts. Blocked bitlines
    /// (cells elsewhere on the bitline above Vpass) report `f64::INFINITY`.
    ///
    /// When `disturb` is true the sweep's reads (one per step) disturb the
    /// block, exactly as the paper's FPGA methodology does.
    ///
    /// # Errors
    ///
    /// [`FlashError::StepNotPositive`] unless `step` is positive and finite.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn measure_wordline_vth(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        wordline: u32,
        step: f64,
        disturb: bool,
        scratch: &mut SenseScratch,
    ) -> Result<Vec<f64>, FlashError> {
        if !(step > 0.0 && step.is_finite()) {
            return Err(FlashError::StepNotPositive { step });
        }
        let sweep_lo = -60.0;
        let steps = ((ledger.vpass[b] - sweep_lo) / step).ceil() as u64;
        if disturb {
            self.hammer_wordline(params, ledger, b, wordline, steps);
        }
        let sense = self.sense(params, ledger, b);
        self.find_blockers(params, ledger, b, sense, &mut scratch.blockers);
        let mut out: Vec<f64> = self
            .cells
            .wordline_vth(wordline, sense.at_dose(self.wordline_dose(wordline)))
            .map(|v| (v / step).floor() * step + step / 2.0)
            .collect();
        for &(bl, _) in scratch.blockers.iter().filter(|&&(_, wl)| wl != wordline) {
            out[bl as usize] = f64::INFINITY;
        }
        Ok(out)
    }

    /// Recomputes the pass-through candidate cache after a whole-block change.
    fn refresh_candidates(&mut self) {
        self.candidates = self.cells.passthrough_candidates(self.candidate_floor);
    }

    /// Cheap incremental variant after programming a single wordline.
    fn refresh_candidates_wordline(&mut self, wordline: u32) {
        let lo = wordline as usize * self.bitlines as usize;
        let hi = lo + self.bitlines as usize;
        self.candidates.retain(|&i| (i as usize) < lo || (i as usize) >= hi);
        self.candidates.extend(self.cells.wordline_candidates(wordline, self.candidate_floor));
    }

    /// Collects `(bitline, wordline)` of every cell whose voltage exceeds
    /// the block's `vpass`: a read of any *other* wordline finds that
    /// bitline unable to conduct. Only the candidate cells can be among them.
    fn find_blockers(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
        sense: Sense,
        blockers: &mut Vec<(u32, u32)>,
    ) {
        blockers.clear();
        let vpass = Level::vpass(params, ledger.vpass[b]);
        for &i in &self.candidates {
            let wl = i / self.bitlines;
            let sense = sense.at_dose(self.wordline_dose(wl));
            if self.cells.exceeds_vpass(i as usize, &sense, &vpass) {
                blockers.push((i % self.bitlines, wl));
            }
        }
    }

    /// Senses a wordline as a read of it does: the state index of every
    /// bitline under `screen`'s references is left in `scratch.states`,
    /// forced to P3 where one of `scratch.blockers` on another wordline
    /// keeps the bitline from conducting. Returns the number of bitlines so
    /// blocked.
    fn sense_with_blocking(
        &self,
        wordline: u32,
        sense: Sense,
        screen: &Screen,
        scratch: &mut SenseScratch,
    ) -> u64 {
        let sense = sense.at_dose(self.wordline_dose(wordline));
        self.cells.sense_wordline(wordline, &sense, screen, scratch);
        let SenseScratch { states, blockers, .. } = scratch;
        each_blocked_bitline(states, blockers, wordline, |_, state| *state = CellState::P3.index())
    }
}

/// Calls `visit(bitline, state)` once for each bitline that one of
/// `blockers` on a wordline other than `wordline` keeps from conducting,
/// with the bitline's sensed state in `states`; returns how many bitlines
/// it visited. Two blockers can share a bitline: a bitline is flagged while
/// it is counted, and every flag is cleared before returning.
fn each_blocked_bitline(
    states: &mut [u8],
    blockers: &[(u32, u32)],
    wordline: u32,
    mut visit: impl FnMut(u32, &mut u8),
) -> u64 {
    const COUNTED: u8 = 0x80;
    let mut blocked = 0;
    for &(bl, _) in blockers.iter().filter(|&&(_, wl)| wl != wordline) {
        let state = &mut states[bl as usize];
        if *state & COUNTED == 0 {
            visit(bl, state);
            *state |= COUNTED;
            blocked += 1;
        }
    }
    for &(bl, _) in blockers {
        states[bl as usize] &= !COUNTED;
    }
    blocked
}

/// A block with a one-row ledger of its own (row 0): the cell-exact tier as
/// the chip drives it, for the tests that reach below the chip.
#[cfg(test)]
#[derive(Debug, Clone)]
struct Fixture {
    pub(crate) block: Block,
    pub(crate) ledger: BlockLedger,
}

#[cfg(test)]
impl Fixture {
    fn new(wordlines: u32, bitlines: u32, params: &ChipParams, rng: &mut StdRng) -> Self {
        let block = Block::new(wordlines, bitlines, params, rng);
        Self { block, ledger: BlockLedger::new(1, wordlines * 2, bitlines, false) }
    }

    fn pre_wear(&mut self, params: &ChipParams, rng: &mut StdRng, cycles: u64) {
        self.ledger.erase(0, cycles);
        self.block.reset(params, rng, self.ledger.pe_cycles[0]);
    }

    fn program(&mut self, params: &ChipParams, rng: &mut StdRng, page: u32, data: &[u8]) {
        self.ledger.program(0, page, data).unwrap();
        self.block.program_page(params, rng, &self.ledger, 0, page, data);
    }

    fn status(&self) -> crate::BlockStatus {
        self.ledger.status(0, self.block.dose)
    }

    fn vpass(&self) -> f64 {
        self.ledger.vpass[0]
    }

    fn op_for(&self, wordline: u32) -> OperatingPoint {
        self.block.operating_point_for(&self.ledger, 0, wordline)
    }

    fn disturb(&mut self, params: &ChipParams, n: u64) {
        self.block.apply_read_disturbs(params, &mut self.ledger, 0, n);
    }

    fn hammer(&mut self, params: &ChipParams, wordline: u32, n: u64) {
        self.block.hammer_wordline(params, &mut self.ledger, 0, wordline, n);
    }

    fn read(
        &mut self,
        params: &ChipParams,
        page: u32,
        refs: &VoltageRefs,
        disturb: bool,
        keep_data: bool,
        scratch: &mut SenseScratch,
    ) -> Result<ReadOutcome, FlashError> {
        let Self { block, ledger } = self;
        block.read_page(params, ledger, 0, page, refs, disturb, keep_data, scratch)
    }

    fn measure(
        &mut self,
        params: &ChipParams,
        wordline: u32,
        step: f64,
        disturb: bool,
        scratch: &mut SenseScratch,
    ) -> Result<Vec<f64>, FlashError> {
        let Self { block, ledger } = self;
        block.measure_wordline_vth(params, ledger, 0, wordline, step, disturb, scratch)
    }

    fn oracle(&self, params: &ChipParams) -> BitErrorStats {
        self.block.rber_oracle(params, &self.ledger, 0)
    }

    fn oracle_wordline(&self, params: &ChipParams, wordline: u32) -> BitErrorStats {
        self.block.rber_oracle_wordline(params, &self.ledger, 0, wordline)
    }
}

/// The per-cell loops this module ran before [`CellArray::sense_wordline`],
/// kept verbatim as the reference the kernel's callers are tested against:
/// every voltage from [`CellArray::reference_vth`], every class from
/// [`VoltageRefs::classify`], blocking from per-bitline maxima.
#[cfg(test)]
mod reference {
    use super::*;

    /// Per-bitline maxima of candidate cells: `(best_vth, best_wordline,
    /// second_vth)`.
    struct BitlineMaxima {
        best: Vec<(f32, u32)>,
        second: Vec<f32>,
    }

    impl BitlineMaxima {
        fn blocks(&self, bl: u32, target_wl: u32, vpass: f64) -> bool {
            let (best_v, best_wl) = self.best[bl as usize];
            let relevant = if best_wl == target_wl { self.second[bl as usize] } else { best_v };
            relevant as f64 > vpass
        }
    }

    pub(crate) fn vth(fixture: &Fixture, params: &ChipParams, wl: u32, bl: u32) -> f64 {
        let i = (wl * fixture.block.bitlines + bl) as usize;
        fixture.block.cells.reference_vth(params, i, fixture.op_for(wl))
    }

    fn bitline_maxima(fixture: &Fixture, params: &ChipParams) -> BitlineMaxima {
        let block = &fixture.block;
        let mut maxima = BitlineMaxima {
            best: vec![(f32::NEG_INFINITY, u32::MAX); block.bitlines as usize],
            second: vec![f32::NEG_INFINITY; block.bitlines as usize],
        };
        for &i in &block.candidates {
            let wl = i / block.bitlines;
            let bl = (i % block.bitlines) as usize;
            let v = vth(fixture, params, wl, bl as u32) as f32;
            let (best_v, _) = maxima.best[bl];
            if v > best_v {
                maxima.second[bl] = best_v;
                maxima.best[bl] = (v, wl);
            } else if v > maxima.second[bl] {
                maxima.second[bl] = v;
            }
        }
        maxima
    }

    pub(crate) fn read_page(
        fixture: &mut Fixture,
        params: &ChipParams,
        page: u32,
        refs: &VoltageRefs,
        disturb: bool,
    ) -> ReadOutcome {
        let addr = PageAddr { block: 0, page };
        let wl = addr.wordline();
        let kind = addr.kind();
        if disturb {
            fixture.hammer(params, wl, 1);
        }
        let maxima = bitline_maxima(fixture, params);
        let block = &fixture.block;
        let nbits = block.bitlines as usize;
        let mut data = bits::zeroed(nbits);
        let mut errors = 0u64;
        let mut blocked_count = 0u64;
        for bl in 0..block.bitlines {
            let blocked = maxima.blocks(bl, wl, fixture.vpass());
            let sensed = if blocked {
                blocked_count += 1;
                CellState::P3
            } else {
                refs.classify(vth(fixture, params, wl, bl))
            };
            let bit = match kind {
                PageKind::Lsb => sensed.lsb(),
                PageKind::Msb => sensed.msb(),
            };
            bits::set_bit(&mut data, bl as usize, bit);
            let intended = block.cells.intended_state(wl, bl);
            let expected = match kind {
                PageKind::Lsb => intended.lsb(),
                PageKind::Msb => intended.msb(),
            };
            if bit != expected {
                errors += 1;
            }
        }
        ReadOutcome {
            data,
            stats: BitErrorStats::new(errors, nbits as u64),
            blocked_bitlines: blocked_count,
        }
    }

    pub(crate) fn rber_oracle_wordline(
        fixture: &Fixture,
        params: &ChipParams,
        wordline: u32,
    ) -> BitErrorStats {
        let maxima = bitline_maxima(fixture, params);
        let mut errors = 0u64;
        let mut total_bits = 0u64;
        let lsb_on = fixture.ledger.is_programmed(0, wordline * 2);
        let msb_on = fixture.ledger.is_programmed(0, wordline * 2 + 1);
        for bl in 0..fixture.block.bitlines {
            let blocked = maxima.blocks(bl, wordline, fixture.vpass());
            let sensed = if blocked {
                CellState::P3
            } else {
                params.refs.classify(vth(fixture, params, wordline, bl))
            };
            let intended = fixture.block.cells.intended_state(wordline, bl);
            if lsb_on {
                total_bits += 1;
                errors += u64::from(sensed.lsb() != intended.lsb());
            }
            if msb_on {
                total_bits += 1;
                errors += u64::from(sensed.msb() != intended.msb());
            }
        }
        BitErrorStats::new(errors, total_bits)
    }

    pub(crate) fn rber_oracle(fixture: &Fixture, params: &ChipParams) -> BitErrorStats {
        (0..fixture.block.wordlines).map(|wl| rber_oracle_wordline(fixture, params, wl)).sum()
    }

    pub(crate) fn measure_wordline_vth(
        fixture: &mut Fixture,
        params: &ChipParams,
        wordline: u32,
        step: f64,
        disturb: bool,
    ) -> Vec<f64> {
        let sweep_lo = -60.0;
        let steps = ((fixture.vpass() - sweep_lo) / step).ceil() as u64;
        if disturb {
            fixture.hammer(params, wordline, steps);
        }
        let maxima = bitline_maxima(fixture, params);
        (0..fixture.block.bitlines)
            .map(|bl| {
                if maxima.blocks(bl, wordline, fixture.vpass()) {
                    f64::INFINITY
                } else {
                    let v = vth(fixture, params, wordline, bl);
                    (v / step).floor() * step + step / 2.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NOMINAL_VPASS;
    use rand::SeedableRng;

    fn block_with(wordlines: u32, bitlines: u32) -> (Fixture, ChipParams, StdRng) {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(2024);
        let block = Fixture::new(wordlines, bitlines, &params, &mut rng);
        (block, params, rng)
    }

    fn program_random(block: &mut Fixture, params: &ChipParams, rng: &mut StdRng) {
        for page in 0..block.block.wordlines * 2 {
            let data = bits::random(rng, block.block.bitlines as usize);
            block.program(params, rng, page, &data);
        }
    }

    /// A materializing read at the default references.
    fn read(block: &mut Fixture, params: &ChipParams, page: u32, disturb: bool) -> ReadOutcome {
        let mut scratch = SenseScratch::default();
        block.read(params, page, &params.refs, disturb, true, &mut scratch).unwrap()
    }

    /// Blocks in the states the experiments put them in: fresh, worn and
    /// disturbed, worn + aged + hammered at a relaxed Vpass (bitlines
    /// blocked), and half programmed.
    fn scenarios() -> Vec<(&'static str, Fixture, ChipParams)> {
        let params = ChipParams::default();
        let mut out = Vec::new();
        let build = |seed: u64, wear: u64, pages: u32| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut block = Fixture::new(16, 2048, &params, &mut rng);
            if wear > 0 {
                block.pre_wear(&params, &mut rng, wear);
            }
            for page in 0..pages {
                let data = bits::random(&mut rng, 2048);
                block.program(&params, &mut rng, page, &data);
            }
            block
        };
        out.push(("fresh", build(1, 0, 32), params.clone()));

        let mut worn = build(2, 8_000, 32);
        worn.disturb(&params, 400_000);
        out.push(("worn, disturbed", worn, params.clone()));

        let mut relaxed = build(3, 12_000, 32);
        relaxed.ledger.advance_days(0, 14.0);
        relaxed.ledger.vpass[0] = params.min_vpass;
        relaxed.disturb(&params, 2_000_000);
        relaxed.hammer(&params, 5, 600_000);
        out.push(("worn, aged, hammered, relaxed Vpass", relaxed, params.clone()));

        // A hammered wordline of an otherwise unread block: its own dose
        // adjustment cancels the uniform dose (clamped at zero).
        let mut hammered = build(4, 8_000, 32);
        hammered.hammer(&params, 9, 1_000_000);
        assert_eq!(hammered.op_for(9).dose, 0.0);
        out.push(("hammered only", hammered, params.clone()));

        let mut half = build(5, 5_000, 15);
        half.ledger.advance_days(0, 3.0);
        half.disturb(&params, 900_000);
        out.push(("half programmed", half, params));
        out
    }

    #[test]
    fn reads_and_oracles_match_the_per_cell_reference() {
        let mut scratch = SenseScratch::default();
        let mut blocked_somewhere = 0;
        for (name, fixture, params) in scenarios() {
            let (wordlines, bitlines) = (fixture.block.wordlines, fixture.block.bitlines);
            assert_eq!(
                fixture.oracle(&params),
                reference::rber_oracle(&fixture, &params),
                "{name}"
            );
            for wl in 0..wordlines {
                assert_eq!(
                    fixture.oracle_wordline(&params, wl),
                    reference::rber_oracle_wordline(&fixture, &params, wl),
                    "{name}, wordline {wl}"
                );
            }
            let cells = fixture.block.iter_cells_current(&params, &fixture.ledger, 0);
            for ((wl, bl, _, vth), i) in cells.zip(0..) {
                assert_eq!((wl, bl), (i / bitlines, i % bitlines));
                assert_eq!(vth.to_bits(), reference::vth(&fixture, &params, wl, bl).to_bits());
            }

            // Disturbing reads at the default references, two retry shifts
            // and independently moved references, on two copies in lockstep.
            let (mut new, mut old) = (fixture.clone(), fixture.clone());
            let refs = params.refs;
            let reference_sets = [
                refs,
                refs.shifted(8.0),
                refs.shifted(-4.0),
                refs.with_lowest_raised(20.0),
                VoltageRefs::new(refs.va() - 6.0, refs.vb() + 3.0, refs.vc() - 11.0),
            ];
            for (page, refs) in (0..wordlines * 2).zip(reference_sets.iter().cycle()) {
                let expected = reference::read_page(&mut old, &params, page, refs, true);
                let counted =
                    new.clone().read(&params, page, refs, true, false, &mut scratch).unwrap();
                let got = new.read(&params, page, refs, true, true, &mut scratch).unwrap();
                assert_eq!(got, expected, "{name}, page {page}");
                assert_eq!(counted.counts(), expected.counts(), "{name}, page {page}");
                assert!(counted.data.is_empty());
                blocked_somewhere += got.blocked_bitlines;
            }
            for wl in [0, 5, 9, wordlines - 1] {
                for (step, disturb) in [(2.0, false), (0.5, true)] {
                    let got = new.measure(&params, wl, step, disturb, &mut scratch).unwrap();
                    let expected =
                        reference::measure_wordline_vth(&mut old, &params, wl, step, disturb);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{name}, wordline {wl}"
                    );
                }
            }
            assert_eq!(new.status(), old.status(), "{name}");
            assert_eq!(new.block.wordline_extra_dose, old.block.wordline_extra_dose, "{name}");
            assert_eq!(new.oracle(&params), reference::rber_oracle(&old, &params), "{name}");
        }
        assert!(blocked_somewhere > 0, "no scenario blocked a bitline");
    }

    /// `Chip::block_rber_sweep` on every tier, over a worn, aged, disturbed
    /// and hammered block at Vpass values from `min_vpass` to nominal: each
    /// entry is what setting that Vpass and reading `block_rber` gives (on
    /// the cell-exact tier also the per-cell reference's oracle), the chip's
    /// checkpoint bytes do not move, and an out-of-range value is refused.
    #[test]
    fn block_rber_sweep_matches_setting_each_vpass() {
        use crate::{Chip, Geometry, ReadFidelity};
        let checkpoint = |chip: &Chip| {
            let mut w = crate::wire::Writer::new();
            chip.encode_state(&mut w);
            w.into_bytes()
        };
        let geometry =
            Geometry { blocks: 1, wordlines_per_block: 32, bitlines: 2048, bits_per_cell: 2 };
        let params = ChipParams::default();
        let min = params.min_vpass;
        let vpasses: Vec<f64> = std::iter::once(NOMINAL_VPASS)
            .chain((0..=8).map(|k| min + (NOMINAL_VPASS - min) * f64::from(k) / 8.0))
            .collect();
        for fidelity in
            [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate]
        {
            let mut chip = Chip::with_fidelity(geometry, params.clone(), 2015, fidelity);
            chip.cycle_block(0, 8_000).unwrap();
            chip.program_block_random(0, 7).unwrap();
            chip.advance_days(9.0);
            chip.apply_read_disturbs(0, 500_000).unwrap();
            chip.hammer_wordline(0, 11, 300_000).unwrap();
            let before = checkpoint(&chip);
            let swept = chip.block_rber_sweep(0, &vpasses).unwrap();
            assert_eq!(checkpoint(&chip), before, "{fidelity}: the sweep moved the chip");
            assert_eq!(swept.len(), vpasses.len());
            for (&vpass, &stats) in vpasses.iter().zip(&swept) {
                let mut set = chip.clone();
                set.set_block_vpass(0, vpass).unwrap();
                assert_eq!(stats, set.block_rber(0).unwrap(), "{fidelity} at {vpass}");
                if fidelity == ReadFidelity::CellExact {
                    let (block, ledger) = set.exact_parts(0);
                    let fixture = Fixture { block: block.clone(), ledger: ledger.clone() };
                    assert_eq!(stats, reference::rber_oracle(&fixture, &params), "at {vpass}");
                }
            }
            assert!(swept[1].errors > swept[0].errors, "{fidelity}: min_vpass blocks nothing");
            for bad in [min - 1.0, NOMINAL_VPASS + 1.0, f64::NAN] {
                let refused = chip.block_rber_sweep(0, &[NOMINAL_VPASS, bad]);
                assert!(
                    matches!(refused, Err(FlashError::VpassOutOfRange { .. })),
                    "{fidelity}: {bad} gave {refused:?}"
                );
            }
        }
    }

    #[test]
    fn page_bits_follow_the_gray_map() {
        use crate::state::ALL_STATES;
        let states: Vec<u8> = ALL_STATES.iter().map(|s| s.index()).collect();
        for (kind, bit) in [
            (PageKind::Lsb, CellState::lsb as fn(CellState) -> bool),
            (PageKind::Msb, CellState::msb),
        ] {
            let packed = pack_page(&states, kind)[0];
            for sensed in ALL_STATES {
                assert_eq!(packed >> sensed.index() & 1 == 1, bit(sensed), "{kind:?} of {sensed}");
                for intended in ALL_STATES {
                    assert_eq!(
                        bit_errors(&[sensed.index()], &[intended.index()], kind),
                        u64::from(bit(sensed) != bit(intended)),
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_reference_sets_and_steps_are_typed_errors() {
        let (mut block, params, mut rng) = block_with(4, 512);
        program_random(&mut block, &params, &mut rng);
        let mut scratch = SenseScratch::default();
        let tlc = VoltageRefs::from_levels(&[60., 120., 180., 240., 300., 360., 420.]);
        let before = block.status();
        assert!(matches!(
            block.read(&params, 0, &tlc, true, true, &mut scratch),
            Err(FlashError::FidelityUnsupported { .. })
        ));
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                block.measure(&params, 0, step, true, &mut scratch),
                Err(FlashError::StepNotPositive { .. })
            ));
        }
        assert_eq!(block.status(), before, "a rejected command must not disturb the block");
    }

    #[test]
    fn fresh_programmed_block_has_near_zero_errors() {
        let (mut block, params, mut rng) = block_with(8, 1024);
        program_random(&mut block, &params, &mut rng);
        let stats = block.oracle(&params);
        assert_eq!(stats.bits, 8 * 1024 * 2);
        // Fresh block: only deep Gaussian tails can err.
        assert!(stats.rate() < 1e-3, "fresh rber = {}", stats.rate());
    }

    /// A cell-exact chip: program and erase go through the chip, which
    /// applies the ledger's rules before the block's physics.
    fn exact_chip() -> crate::Chip {
        use crate::{Chip, Geometry, ReadFidelity};
        Chip::with_fidelity(Geometry::small(), ChipParams::default(), 2024, ReadFidelity::CellExact)
    }

    #[test]
    fn double_program_rejected() {
        let mut chip = exact_chip();
        let data = bits::random(&mut StdRng::seed_from_u64(1), 512);
        chip.program_page(0, 0, &data).unwrap();
        let before = chip.block_status(0).unwrap();
        let err = chip.program_page(0, 0, &data).unwrap_err();
        assert!(matches!(err, FlashError::PageAlreadyProgrammed { page: 0 }));
        assert_eq!(chip.block_status(0).unwrap(), before, "a refusal changes nothing");
    }

    #[test]
    fn wrong_data_length_rejected() {
        let mut chip = exact_chip();
        let err = chip.program_page(0, 0, &[0u8; 3]).unwrap_err();
        assert!(matches!(err, FlashError::DataLengthMismatch { .. }));
        assert!(!chip.is_page_programmed(0, 0).unwrap());
    }

    #[test]
    fn erase_resets_state() {
        let mut chip = exact_chip();
        chip.program_block_random(0, 1).unwrap();
        chip.apply_read_disturbs(0, 1000).unwrap();
        chip.advance_days(3.0);
        chip.erase_block(0).unwrap();
        let st = chip.block_status(0).unwrap();
        assert_eq!(st.pe_cycles, 1);
        assert_eq!(st.reads_since_erase, 0);
        assert_eq!(st.age_days, 0.0);
        assert_eq!(st.dose, 0.0);
        assert_eq!(st.programmed_pages, 0);
    }

    #[test]
    fn read_back_matches_programmed_data() {
        let (mut block, params, mut rng) = block_with(4, 512);
        let lsb = bits::random(&mut rng, 512);
        let msb = bits::random(&mut rng, 512);
        block.program(&params, &mut rng, 6, &lsb); // wl 3 LSB
        block.program(&params, &mut rng, 7, &msb); // wl 3 MSB
        let out_l = read(&mut block, &params, 6, true);
        let out_m = read(&mut block, &params, 7, true);
        // A fresh block reads back exactly on a 512-bitline sample with
        // overwhelming probability.
        assert_eq!(bits::hamming(&out_l.data, &lsb), out_l.stats.errors);
        assert_eq!(bits::hamming(&out_m.data, &msb), out_m.stats.errors);
        assert!(out_l.stats.errors <= 1 && out_m.stats.errors <= 1);
    }

    #[test]
    fn reads_accumulate_disturb_and_counters() {
        let (mut block, params, mut rng) = block_with(4, 512);
        program_random(&mut block, &params, &mut rng);
        let d0 = block.status().dose;
        read(&mut block, &params, 0, true);
        block.disturb(&params, 99);
        let st = block.status();
        assert_eq!(st.reads_since_erase, 100);
        assert!(st.dose > d0);
        // Oracle read does not disturb.
        let d1 = block.status().dose;
        read(&mut block, &params, 0, false);
        assert_eq!(block.status().dose, d1);
    }

    #[test]
    fn disturb_increases_rber_on_worn_block() {
        let (mut block, params, mut rng) = block_with(16, 2048);
        block.pre_wear(&params, &mut rng, 8_000);
        program_random(&mut block, &params, &mut rng);
        let before = block.oracle(&params).rate();
        block.disturb(&params, 500_000);
        let after = block.oracle(&params).rate();
        assert!(after > before, "rber before {before} after {after}");
    }

    #[test]
    fn lowering_vpass_reduces_disturb_accumulation() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut hi = Fixture::new(16, 2048, &params, &mut rng);
        hi.pre_wear(&params, &mut rng, 8_000);
        let mut lo = hi.clone();
        let mut rng2 = StdRng::seed_from_u64(8);
        program_random(&mut hi, &params, &mut rng2);
        let mut rng2 = StdRng::seed_from_u64(8);
        program_random(&mut lo, &params, &mut rng2);
        lo.ledger.vpass[0] = 0.96 * NOMINAL_VPASS;
        hi.disturb(&params, 200_000);
        lo.disturb(&params, 200_000);
        assert!(lo.status().dose < hi.status().dose);
    }

    #[test]
    fn vpass_range_enforced() {
        use crate::{Chip, Geometry, ReadFidelity};
        // The rule lives in `Chip::set_block_vpass`, ahead of every tier.
        for fidelity in
            [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate]
        {
            let mut chip =
                Chip::with_fidelity(Geometry::small(), ChipParams::default(), 2024, fidelity);
            let min_vpass = chip.params().min_vpass;
            assert!(chip.set_block_vpass(0, NOMINAL_VPASS).is_ok(), "{fidelity}");
            assert!(chip.set_block_vpass(0, min_vpass).is_ok(), "{fidelity}");
            for out_of_range in [min_vpass - 5.0, NOMINAL_VPASS + 1.0, 0.5 * NOMINAL_VPASS] {
                assert!(
                    matches!(
                        chip.set_block_vpass(0, out_of_range),
                        Err(FlashError::VpassOutOfRange { .. })
                    ),
                    "{fidelity}: {out_of_range}"
                );
            }
            assert_eq!(
                chip.block_vpass(0).unwrap(),
                min_vpass,
                "{fidelity}: a refusal sets nothing"
            );
        }
    }

    #[test]
    fn relaxed_vpass_blocks_some_bitlines_on_large_block() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(42);
        // Large enough that outliers (~4e-4 of P3 cells) are present.
        let mut block = Fixture::new(32, 4096, &params, &mut rng);
        program_random(&mut block, &params, &mut rng);
        block.ledger.vpass[0] = params.min_vpass;
        let mut blocked = 0u64;
        for page in 0..8 {
            blocked += read(&mut block, &params, page, false).blocked_bitlines;
        }
        assert!(blocked > 0, "expected some blocked bitlines at minimum vpass");
        // And none at nominal.
        block.ledger.vpass[0] = NOMINAL_VPASS;
        let mut blocked_nominal = 0u64;
        for page in 0..8 {
            blocked_nominal += read(&mut block, &params, page, false).blocked_bitlines;
        }
        assert_eq!(blocked_nominal, 0);
    }

    #[test]
    fn measure_vth_quantizes_and_flags_blocked() {
        let (mut block, params, mut rng) = block_with(4, 512);
        program_random(&mut block, &params, &mut rng);
        let step = 2.0;
        let measured =
            block.measure(&params, 1, step, false, &mut SenseScratch::default()).unwrap();
        let op = block.op_for(1);
        for (bl, m) in measured.iter().enumerate() {
            if m.is_finite() {
                let truth = block.block.cells().current_vth(&params, 1, bl as u32, op);
                assert!((truth - m).abs() <= step / 2.0 + 1e-9, "bl {bl}: {truth} vs {m}");
            }
        }
    }

    #[test]
    fn hammering_concentrates_on_neighbors() {
        // [97]: direct neighbours of a repeatedly-read page see more
        // disturb than distant wordlines, and the hammered page itself sees
        // less.
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(17);
        let mut block = Fixture::new(16, 4096, &params, &mut rng);
        block.pre_wear(&params, &mut rng, 8_000);
        program_random(&mut block, &params, &mut rng);
        let target = 8u32;
        block.hammer(&params, target, 300_000);
        let neighbor = block.oracle_wordline(&params, target + 1).rate()
            + block.oracle_wordline(&params, target - 1).rate();
        let distant =
            block.oracle_wordline(&params, 1).rate() + block.oracle_wordline(&params, 15).rate();
        let hammered = block.oracle_wordline(&params, target).rate();
        assert!(
            neighbor > 1.3 * distant,
            "neighbours {neighbor:.3e} not hotter than distant {distant:.3e}"
        );
        assert!(
            hammered < distant,
            "hammered wordline {hammered:.3e} should see least disturb vs {distant:.3e}"
        );
    }

    #[test]
    fn hammered_dose_never_negative() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = Fixture::new(8, 512, &params, &mut rng);
        block.pre_wear(&params, &mut rng, 8_000);
        program_random(&mut block, &params, &mut rng);
        block.hammer(&params, 4, 1_000_000);
        assert!(block.op_for(4).dose >= 0.0);
        // And the uniform batch keeps all wordlines equal.
        let mut rng2 = StdRng::seed_from_u64(3);
        let mut uniform = Fixture::new(8, 512, &params, &mut rng2);
        uniform.disturb(&params, 1000);
        for wl in 0..8 {
            assert_eq!(uniform.op_for(wl).dose, uniform.block.dose);
        }
    }

    #[test]
    fn unprogrammed_wordlines_still_disturbed() {
        // [15, 67]: reads disturb erased wordlines of a partially
        // programmed block; their (erased) cells shift upward.
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut block = Fixture::new(8, 1024, &params, &mut rng);
        block.pre_wear(&params, &mut rng, 8_000);
        // Program only wordline 0 (pages 0 and 1).
        for page in 0..2 {
            let data = bits::random(&mut rng, 1024);
            block.program(&params, &mut rng, page, &data);
        }
        let mean_vth = |block: &Fixture| {
            let op = block.op_for(5);
            (0..1024).map(|bl| block.block.cells().current_vth(&params, 5, bl, op)).sum::<f64>()
                / 1024.0
        };
        let before = mean_vth(&block);
        block.disturb(&params, 1_000_000);
        let after = mean_vth(&block);
        assert!(after > before + 2.0, "erased wordline moved only {before:.1} -> {after:.1}");
    }

    #[test]
    fn msb_after_lsb_preserves_lsb_data() {
        let (mut block, params, mut rng) = block_with(2, 512);
        let lsb = bits::random(&mut rng, 512);
        block.program(&params, &mut rng, 0, &lsb);
        let msb = bits::random(&mut rng, 512);
        block.program(&params, &mut rng, 1, &msb);
        for bl in 0..512u32 {
            let st = block.block.cells().intended_state(0, bl);
            assert_eq!(st.lsb(), bits::get_bit(&lsb, bl as usize), "bl {bl}");
            assert_eq!(st.msb(), bits::get_bit(&msb, bl as usize), "bl {bl}");
        }
    }
}
