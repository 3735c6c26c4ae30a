//! Per-cell storage for a flash block's Monte-Carlo state.
//!
//! Structure-of-arrays layout: for every cell we keep
//!
//! * the **intended** state (what the controller asked to program — errors
//!   are counted against this),
//! * the **base threshold voltage** actually placed at program time
//!   (including misprogram and over-programmed-outlier effects),
//! * two process-variation factors sampled once per physical cell and kept
//!   across erases: the retention **leak factor** and the read-disturb
//!   **susceptibility**.
//!
//! The *current* voltage of a cell is a pure function of this state plus the
//! block-level operating point (wear, retention age, accumulated disturb
//! dose), so a million reads are applied in O(1) bookkeeping and evaluated
//! lazily per cell.
//!
//! ## Sensing a wordline
//!
//! A cell's voltage is `v = κ·ln(exp(v0/κ) + α·s·D)` with
//! `v0 = base − drop(base, leak, wear, age)` (see [`crate::noise`]). Nothing
//! in it but `base`, `leak` and `s` varies along a wordline, so a `Sense`
//! evaluates the rest once — the retention rate at this wear, `age^e`, `α`,
//! `D`, `κ` — and `CellArray::current_vth_at` is the one definition of the
//! voltage, for every caller.
//!
//! A *read* does not need the voltage, only which side of each reference
//! `L` it falls on, and `v < L ⇔ exp(v0/κ) + α·s·D < exp(L/κ)` can be
//! decided without the `exp`/`ln` pair for almost every cell
//! (`CellArray::sense_wordline`):
//!
//! * **below `L`** when `v0 ≤ L − κ·ln2 − GUARD_V` *and*
//!   `α·s·D ≤ ½(1 − TERM_SLACK)·exp(L/κ)`: each summand is under half of
//!   `exp(L/κ)`, the first by the factor `exp(−GUARD_V/κ)`, the second by
//!   `1 − TERM_SLACK`, so the true `v` sits at least
//!   `κ·TERM_SLACK/2 = 1.25e-8` V under `L` — five orders of magnitude more
//!   than the ~1e-13 V the computed `κ·ln(exp(·) + ·)` can be off by;
//! * **at or above `L`** when `v0 ≥ L + GUARD_V`: the dose term is never
//!   negative, so disturb only raises a cell, and `exp` then `ln` returns
//!   `v0` to within the same ~1e-13 V.
//!
//! `exp(L/κ)` is evaluated once per reference. Only the cells neither test
//! settles — those within `κ·ln2 ≈ 17` V under a reference, and the
//! disturb-prone tail whose `α·s·D` is comparable to `exp(L/κ)`, a fraction
//! of a percent of a worn, hammered block — go through the closed form, and
//! are classified by [`VoltageRefs::classify_index`]. The outcome
//! is therefore the classification of the very voltage
//! `CellArray::current_vth_at` returns, for every cell: an evaluation is
//! skipped only where a guard band proves its result.
//!
//! Who needs volts: the Vth histogram, the read-retry voltage sweep and the
//! per-cell iterators (they get the hoisted operating point and nothing
//! else). Who needs a class: page reads at any references, the RBER
//! oracles, and the pass-through decision (is a cell above Vpass), which
//! compares the voltage rounded to `f32` and so uses a guard wide enough
//! to cover that rounding.
//!
//! ## Drawing a pass
//!
//! An erase places every cell at `mean_ER + σ_ER·z`, one ziggurat draw
//! ([`retention::sample_standard_normal`]) per cell from the chip's
//! generator. MLC then programs a wordline in two passes: the LSB pass (page
//! `2w`) leaves each cell in ER or an intermediate state, and the MSB pass
//! (page `2w + 1`) places every cell again, each cell by the same per-cell
//! program draw (`Draws::cell`). The erase and both passes draw every cell
//! when they run, so a cell's lane always holds its base voltage and every
//! observer reads it from there.

use std::f64::consts::LN_2;

use rand::rngs::StdRng;
use rand::Rng;

use crate::noise::{pe_cycling, read_disturb, retention};
use crate::params::{ChipParams, StateParams};
use crate::state::{CellState, VoltageRefs, ALL_STATES};
use crate::wire::{Reader, SnapError, Writer};

/// Voltage guard (normalized volts) kept between a cell's undisturbed
/// voltage and a reference before a comparison may stand in for the closed
/// form. Seven orders of magnitude above the closed form's rounding error,
/// and nothing beside the `κ·ln2` volts under each reference the screen
/// already leaves to the closed form.
const GUARD_V: f64 = 1.0e-6;

/// Relative slack kept between a cell's dose term and `½·exp(L/κ)`; worth
/// `κ·TERM_SLACK/2` volts of margin under the reference.
const TERM_SLACK: f64 = 1.0e-9;

/// Block-level operating point under which cell voltages are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatingPoint {
    /// Program/erase cycles the block has endured.
    pub pe_cycles: u64,
    /// Days since the block's data was programmed.
    pub age_days: f64,
    /// Accumulated read-disturb dose (see [`ChipParams::dose_increment`]).
    pub dose: f64,
}

/// SoA cell storage for one block.
#[derive(Debug, Clone)]
pub struct CellArray {
    wordlines: u32,
    bitlines: u32,
    intended: Vec<u8>,
    base_vth: Vec<f32>,
    leak: Vec<f32>,
    susceptibility: Vec<f32>,
}

/// What a program pass draws per cell, with everything that depends only on
/// the wear level evaluated once per wordline.
struct Draws {
    misprogram: f64,
    dists: [StateParams; 4],
    outlier_prob: f64,
    outlier_base: f64,
    outlier_scale: f64,
    /// Share of the exponential tail above `outlier_base` that program-verify
    /// keeps under `outlier_cap`.
    outlier_span: f64,
}

impl Draws {
    fn new(params: &ChipParams, pe_cycles: u64) -> Self {
        Self {
            misprogram: params.misprogram_prob(pe_cycles),
            dists: ALL_STATES.map(|state| params.state_dist(state, pe_cycles)),
            outlier_prob: params.outlier_prob,
            outlier_base: params.outlier_base,
            outlier_scale: params.outlier_scale,
            outlier_span: 1.0
                - (-(params.outlier_cap - params.outlier_base) / params.outlier_scale).exp(),
        }
    }

    /// The base voltage of the next cell the pass aims at `state`: the
    /// misprogram draw, a P3 cell's outlier test, then the outlier's or the
    /// normal draw.
    #[inline]
    fn cell(&self, rng: &mut StdRng, state: CellState) -> f32 {
        let placed = pe_cycling::place_state_at(rng, self.misprogram, state);
        let vth = if placed == CellState::P3 && rng.gen::<f64>() < self.outlier_prob {
            let u: f64 = rng.gen::<f64>() * self.outlier_span;
            self.outlier_base - self.outlier_scale * (1.0 - u).ln()
        } else {
            let dist = self.dists[placed.index() as usize];
            dist.mean + dist.sigma * retention::sample_standard_normal(rng)
        };
        vth as f32
    }
}

/// A wordline's operating point with everything that does not vary from cell
/// to cell evaluated once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sense {
    /// `(retention rate at this wear, age^e)`; `None` at age zero, where no
    /// cell has leaked.
    retention: Option<(f64, f64)>,
    kappa: f64,
    alpha: f64,
    dose: f64,
}

impl Sense {
    pub(crate) fn new(params: &ChipParams, op: OperatingPoint) -> Self {
        let retention = (op.age_days > 0.0).then(|| {
            (params.retention_rate_at(op.pe_cycles), op.age_days.powf(params.retention_time_exp))
        });
        Self { retention, kappa: params.rd_kappa, alpha: params.rd_alpha, dose: op.dose }
    }

    /// The same wear and age at another wordline's dose.
    pub(crate) fn at_dose(self, dose: f64) -> Self {
        Self { dose, ..self }
    }

    /// A cell's voltage after retention loss, before disturb (`v0`).
    #[inline]
    fn retained(&self, base: f64, leak: f64) -> f64 {
        match self.retention {
            Some((rate, time_pow)) => base - retention::vth_drop_at(base, leak, rate, time_pow),
            None => base,
        }
    }

    /// A cell's dose term `α·s·D`.
    #[inline]
    fn term(&self, susceptibility: f64) -> f64 {
        self.alpha * susceptibility * self.dose
    }

    #[inline]
    fn vth(&self, base: f64, leak: f64, susceptibility: f64) -> f64 {
        let v0 = self.retained(base, leak);
        if self.dose <= 0.0 {
            return v0;
        }
        read_disturb::disturbed_vth_at(self.kappa, v0, self.term(susceptibility))
    }
}

/// One reference voltage `L` in the comparison domain (module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    at: f64,
    /// A cell with `v0` at or above this reads at or above `L`.
    above: f64,
    /// A cell with `v0` at or below this and a dose term at or below
    /// `half_exp` reads below `L`.
    below: f64,
    half_exp: f64,
}

impl Level {
    /// `guard` is [`GUARD_V`] for a reference the `f64` voltage is compared
    /// against, wider where the compared voltage was rounded first.
    fn new(kappa: f64, at: f64, guard: f64) -> Self {
        let half_exp = 0.5 * (1.0 - TERM_SLACK) * (at / kappa).exp();
        // An exponential outside the normal range bounds nothing: leave
        // every cell to the closed form, which saturates the same way.
        let usable = half_exp.is_finite() && half_exp >= f64::MIN_POSITIVE;
        Self {
            at,
            // Below -700κ `exp(v0/κ)` itself leaves the normal range.
            above: (at + guard).max(-700.0 * kappa),
            below: if usable { at - kappa * LN_2 - guard } else { f64::NEG_INFINITY },
            half_exp,
        }
    }

    /// The pass-through voltage. Blocking compares a cell's voltage *after*
    /// rounding to `f32`, which moves it by up to half an `f32` ulp; the
    /// guard keeps a screened cell `guard / 2`, four times that, under
    /// `vpass`.
    pub(crate) fn vpass(params: &ChipParams, vpass: f64) -> Self {
        let guard = GUARD_V.max(vpass.abs() * 4.0 * f64::from(f32::EPSILON));
        Self::new(params.rd_kappa, vpass, guard)
    }

    #[inline]
    fn is_above(&self, v0: f64, term: f64) -> bool {
        (v0 >= self.above) & (term >= 0.0)
    }

    #[inline]
    fn is_below(&self, v0: f64, term: f64) -> bool {
        (v0 <= self.below) & (term <= self.half_exp)
    }
}

/// A cell's voltage as the pass-through decision compares it
/// ([`CellArray::pass_voltage`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassVoltage {
    v0: f64,
    term: f64,
    /// The voltage, rounded to `f32`.
    vth: f64,
}

impl PassVoltage {
    /// [`CellArray::exceeds_vpass`] of this cell at `vpass`.
    #[inline]
    pub(crate) fn exceeds(&self, vpass: &Level) -> bool {
        !vpass.is_below(self.v0, self.term) && self.vth > vpass.at
    }
}

/// An MLC read-reference set in the comparison domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Screen {
    refs: VoltageRefs,
    levels: [Level; 3],
}

impl Screen {
    /// # Panics
    ///
    /// Panics on a non-MLC reference set (callers validate first).
    pub(crate) fn new(params: &ChipParams, refs: &VoltageRefs) -> Self {
        assert_eq!(refs.n_states(), 4, "the cell-exact tier senses MLC references");
        let level = |i| Level::new(params.rd_kappa, refs.level(i), GUARD_V);
        Self { refs: *refs, levels: [level(0), level(1), level(2)] }
    }

    /// `(state index if every reference is settled, whether it is)`.
    #[inline]
    fn classify(&self, v0: f64, term: f64) -> (u8, bool) {
        let (mut class, mut settled) = (0u8, true);
        for level in &self.levels {
            let above = level.is_above(v0, term);
            class += u8::from(above);
            settled &= above | level.is_below(v0, term);
        }
        (class, settled)
    }
}

/// A checkpoint's per-cell lanes, decoded and checked against the array
/// they will restore ([`CellArray::decode_state`]).
#[derive(Debug)]
pub(crate) struct CellLanes {
    intended: Vec<u8>,
    base_vth: Vec<f32>,
    leak: Vec<f32>,
    susceptibility: Vec<f32>,
}

/// Reused buffers of [`CellArray::sense_wordline`] and of the pass-through
/// decision built on it (one per chip, so a warm read allocates nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct SenseScratch {
    /// Sensed state index per bitline of the wordline last sensed.
    pub(crate) states: Vec<u8>,
    /// Bitlines of that wordline the screen left to the closed form.
    residue: Vec<u32>,
    /// `(bitline, wordline)` of the block's cells above Vpass.
    pub(crate) blockers: Vec<(u32, u32)>,
}

/// [`CellArray::sense_wordline`] on one wordline's lanes, each voltage
/// [`Sense::vth`] as in [`CellArray::current_vth_at`]. Kept out of line so
/// that the screen compiles as a loop of its own, whatever its callers do
/// around it: inlined into a caller with more work of its own, it once
/// compiled to a 2× slower screen.
#[inline(never)]
fn sense_lanes(
    bases: &[f32],
    leak: &[f32],
    susceptibility: &[f32],
    sense: &Sense,
    screen: &Screen,
    scratch: &mut SenseScratch,
) -> usize {
    let n = bases.len();
    let SenseScratch { states, residue, .. } = scratch;
    states.resize(n, 0);
    let lanes = bases.iter().zip(leak).zip(susceptibility);
    // The screen: no branch and nothing carried from cell to cell, so the
    // compiler is free to vectorize it. An unsettled cell is flagged in its
    // state byte and collected afterwards.
    const UNSETTLED: u8 = 0x80;
    for (state, ((&base, &leak), &s)) in states.iter_mut().zip(lanes) {
        let v0 = sense.retained(base as f64, leak as f64);
        let (class, settled) = screen.classify(v0, sense.term(s as f64));
        *state = if settled { class } else { UNSETTLED };
    }
    residue.clear();
    residue.extend((0..n as u32).filter(|&bl| states[bl as usize] == UNSETTLED));
    for &bl in residue.iter() {
        let bl = bl as usize;
        let vth = sense.vth(bases[bl] as f64, leak[bl] as f64, susceptibility[bl] as f64);
        states[bl] = screen.refs.classify_index(vth) as u8;
    }
    residue.len()
}

impl CellArray {
    /// Creates an erased array, sampling per-cell process variation.
    pub(crate) fn new(
        wordlines: u32,
        bitlines: u32,
        params: &ChipParams,
        rng: &mut StdRng,
    ) -> Self {
        let n = wordlines as usize * bitlines as usize;
        let mut leak = Vec::with_capacity(n);
        let mut susceptibility = Vec::with_capacity(n);
        for _ in 0..n {
            leak.push(retention::sample_leak_factor(rng, params) as f32);
            susceptibility.push(read_disturb::sample_susceptibility(rng, params) as f32);
        }
        let mut array = Self {
            wordlines,
            bitlines,
            intended: vec![CellState::Er.index(); n],
            base_vth: vec![0.0; n],
            leak,
            susceptibility,
        };
        array.erase(params, rng, 0);
        array
    }

    /// The base voltage above which a cell is a pass-through candidate
    /// ([`CellArray::passthrough_candidates`]): 2 V under the lower of the
    /// lowest Vpass the tuner may set and the over-programmed outliers' base.
    pub(crate) fn candidate_floor(params: &ChipParams) -> f64 {
        params.min_vpass.min(params.outlier_base) - 2.0
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.intended.len()
    }

    #[inline]
    fn index(&self, wordline: u32, bitline: u32) -> usize {
        debug_assert!(wordline < self.wordlines && bitline < self.bitlines);
        wordline as usize * self.bitlines as usize + bitline as usize
    }

    /// Re-samples every cell into the erased distribution, one normal draw
    /// per cell in cell order. Process-variation factors persist (they
    /// belong to the physical cell).
    pub(crate) fn erase(&mut self, params: &ChipParams, rng: &mut StdRng, pe_cycles: u64) {
        let dist = params.state_dist(CellState::Er, pe_cycles);
        self.intended.fill(CellState::Er.index());
        for base in &mut self.base_vth {
            *base = (dist.mean + dist.sigma * retention::sample_standard_normal(rng)) as f32;
        }
    }

    /// Programs one wordline to the given target states (one per bitline),
    /// applying misprogram and over-programmed-outlier noise, every cell
    /// drawn now. Either pass of an MLC wordline: the first (LSB) pass aims
    /// each cell at ER or P2, the second places every cell again.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != bitlines`.
    pub(crate) fn program_wordline(
        &mut self,
        params: &ChipParams,
        rng: &mut StdRng,
        wordline: u32,
        states: &[CellState],
        pe_cycles: u64,
    ) {
        assert_eq!(states.len(), self.bitlines as usize, "one state per bitline");
        let draws = Draws::new(params, pe_cycles);
        let lo = self.index(wordline, 0);
        for (bitline, &state) in states.iter().enumerate() {
            self.intended[lo + bitline] = state.index();
            self.base_vth[lo + bitline] = draws.cell(rng, state);
        }
    }

    /// The intended (programmed) state of a cell.
    pub fn intended_state(&self, wordline: u32, bitline: u32) -> CellState {
        CellState::from_index(self.intended[self.index(wordline, bitline)])
    }

    /// The cell's read-disturb susceptibility factor.
    #[cfg(test)]
    pub(crate) fn susceptibility(&self, wordline: u32, bitline: u32) -> f64 {
        self.susceptibility[self.index(wordline, bitline)] as f64
    }

    /// The intended states of one wordline, one index per bitline.
    pub(crate) fn intended_wordline(&self, wordline: u32) -> &[u8] {
        let lo = self.index(wordline, 0);
        &self.intended[lo..lo + self.bitlines as usize]
    }

    /// The intended states of one wordline, in bitline order.
    pub fn wordline_states(&self, wordline: u32) -> impl Iterator<Item = CellState> + '_ {
        self.intended_wordline(wordline).iter().map(|&s| CellState::from_index(s))
    }

    /// The cell's current threshold voltage under an operating point:
    /// retention loss applied to the base voltage, then the accumulated
    /// disturb dose. A walk along a wordline takes
    /// [`CellArray::wordline_current_vth`] instead, which evaluates the
    /// operating point once.
    pub fn current_vth(
        &self,
        params: &ChipParams,
        wordline: u32,
        bitline: u32,
        op: OperatingPoint,
    ) -> f64 {
        self.current_vth_at(self.index(wordline, bitline), &Sense::new(params, op))
    }

    /// [`CellArray::current_vth`] of every cell of one wordline, in bitline
    /// order, with the operating point evaluated once.
    pub fn wordline_current_vth(
        &self,
        params: &ChipParams,
        wordline: u32,
        op: OperatingPoint,
    ) -> impl Iterator<Item = f64> + '_ {
        self.wordline_vth(wordline, Sense::new(params, op))
    }

    /// The one definition of a cell's voltage: every voltage this crate
    /// reports, and every one [`CellArray::sense_wordline`] has to compute,
    /// is [`Sense::vth`] of a cell's lanes, and the hot paths take it from
    /// here.
    #[inline]
    pub(crate) fn current_vth_at(&self, i: usize, sense: &Sense) -> f64 {
        sense.vth(self.base_vth[i] as f64, self.leak[i] as f64, self.susceptibility[i] as f64)
    }

    /// The current voltages of one wordline, in bitline order.
    pub(crate) fn wordline_vth(
        &self,
        wordline: u32,
        sense: Sense,
    ) -> impl Iterator<Item = f64> + '_ {
        let lo = self.index(wordline, 0);
        let hi = lo + self.bitlines as usize;
        self.base_vth[lo..hi]
            .iter()
            .zip(&self.leak[lo..hi])
            .zip(&self.susceptibility[lo..hi])
            .map(move |((&base, &leak), &s)| sense.vth(base as f64, leak as f64, s as f64))
    }

    /// Senses one wordline against `screen`'s references: leaves the state
    /// index each bitline reads as in `scratch.states` — for every cell the
    /// [`VoltageRefs::classify_index`] of its [`CellArray::current_vth_at`],
    /// computed only for the cells the comparison screen cannot settle
    /// (module docs). Returns how many cells the screen left.
    pub(crate) fn sense_wordline(
        &self,
        wordline: u32,
        sense: &Sense,
        screen: &Screen,
        scratch: &mut SenseScratch,
    ) -> usize {
        let lo = self.index(wordline, 0);
        let hi = lo + self.bitlines as usize;
        let (bases, leak) = (&self.base_vth[lo..hi], &self.leak[lo..hi]);
        sense_lanes(bases, leak, &self.susceptibility[lo..hi], sense, screen, scratch)
    }

    /// Whether cell `i` blocks its bitline at the pass-through voltage
    /// `vpass` describes: its voltage, rounded to `f32`, exceeds it. The
    /// voltage is computed only for a cell the screen cannot settle.
    pub(crate) fn exceeds_vpass(&self, i: usize, sense: &Sense, vpass: &Level) -> bool {
        let v0 = sense.retained(self.base_vth[i] as f64, self.leak[i] as f64);
        !vpass.is_below(v0, sense.term(self.susceptibility[i] as f64))
            && (self.current_vth_at(i, sense) as f32) as f64 > vpass.at
    }

    /// Cell `i`'s voltage as [`CellArray::exceeds_vpass`] compares it,
    /// computed up front, to be held against many pass-through voltages.
    pub(crate) fn pass_voltage(&self, i: usize, sense: &Sense) -> PassVoltage {
        PassVoltage {
            v0: sense.retained(self.base_vth[i] as f64, self.leak[i] as f64),
            term: sense.term(self.susceptibility[i] as f64),
            vth: (self.current_vth_at(i, sense) as f32) as f64,
        }
    }

    /// A cell's voltage as every caller computed it before [`Sense`]
    /// existed — the per-cell closed forms written out, every power
    /// re-derived, sharing no code with the hoisted path. The reference the
    /// kernel and its callers are tested against.
    #[cfg(test)]
    pub(crate) fn reference_vth(&self, params: &ChipParams, i: usize, op: OperatingPoint) -> f64 {
        let base = self.base_vth[i] as f64;
        let drop = if op.age_days <= 0.0 || base <= 0.0 {
            0.0
        } else {
            let rate = params.retention_rate_at(op.pe_cycles);
            let drop = base * rate * op.age_days.powf(params.retention_time_exp);
            (drop * self.leak[i] as f64).min(base)
        };
        let v0 = base - drop;
        if op.dose <= 0.0 {
            return v0;
        }
        let kappa = params.rd_kappa;
        let term = params.rd_alpha * self.susceptibility[i] as f64 * op.dose;
        kappa * ((v0 / kappa).exp() + term).ln()
    }

    /// Iterates `(wordline, bitline, intended_state, current_vth)` over the
    /// whole array, every wordline at `op`.
    #[cfg(test)]
    pub(crate) fn iter_cells<'a>(
        &'a self,
        params: &'a ChipParams,
        op: OperatingPoint,
    ) -> impl Iterator<Item = (u32, u32, CellState, f64)> + 'a {
        let sense = Sense::new(params, op);
        (0..self.wordlines).flat_map(move |wl| {
            self.wordline_states(wl)
                .zip(self.wordline_vth(wl, sense))
                .zip(0..)
                .map(move |((state, vth), bl)| (wl, bl, state, vth))
        })
    }

    /// Indices of cells whose base voltage exceeds `floor` — the candidate
    /// set for pass-through blocking (only these can ever exceed a relaxed
    /// Vpass; disturb cannot push other cells that high, see module docs of
    /// [`crate::noise::read_disturb`]), in cell order.
    pub(crate) fn passthrough_candidates(&self, floor: f64) -> Vec<u32> {
        (0..self.wordlines).flat_map(|wl| self.wordline_candidates(wl, floor)).collect()
    }

    /// [`CellArray::passthrough_candidates`] of one wordline, in bitline
    /// order.
    pub(crate) fn wordline_candidates(
        &self,
        wordline: u32,
        floor: f64,
    ) -> impl Iterator<Item = u32> + '_ {
        let lo = self.index(wordline, 0);
        (lo..lo + self.bitlines as usize)
            .filter(move |&i| self.base_vth[i] as f64 > floor)
            .map(|i| i as u32)
    }

    /// Serializes the full per-cell state (checkpointing). Geometry is not
    /// written — restore validates it against the live array instead.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_bytes(&self.intended);
        w.put_f32s(&self.base_vth);
        w.put_f32s(&self.leak);
        w.put_f32s(&self.susceptibility);
    }

    /// Decodes per-cell state written by [`CellArray::encode_state`] for an
    /// array of identical geometry, without touching this one.
    pub(crate) fn decode_state(&self, r: &mut Reader<'_>) -> Result<CellLanes, SnapError> {
        let intended = r.get_bytes()?;
        let base_vth = r.get_f32s()?;
        let leak = r.get_f32s()?;
        let susceptibility = r.get_f32s()?;
        let n = self.len();
        let lengths = [
            ("intended", intended.len()),
            ("base_vth", base_vth.len()),
            ("leak", leak.len()),
            ("susceptibility", susceptibility.len()),
        ];
        if let Some((lane, len)) = lengths.into_iter().find(|&(_, len)| len != n) {
            return Err(SnapError::Mismatch(format!(
                "cell array holds {n} cells, snapshot's {lane} lane has {len}"
            )));
        }
        if intended.iter().any(|&s| s > 3) {
            return Err(SnapError::Mismatch("cell state index out of range".into()));
        }
        Ok(CellLanes { intended, base_vth, leak, susceptibility })
    }

    /// Takes decoded lanes as the array's state.
    pub(crate) fn restore(&mut self, lanes: CellLanes) {
        let CellLanes { intended, base_vth, leak, susceptibility } = lanes;
        (self.intended, self.base_vth, self.leak, self.susceptibility) =
            (intended, base_vth, leak, susceptibility);
    }

    /// Fraction of cells intended per state.
    #[cfg(test)]
    pub(crate) fn state_fractions(&self) -> [f64; 4] {
        let mut counts = [0usize; 4];
        for &s in &self.intended {
            counts[s as usize] += 1;
        }
        let n = self.len().max(1) as f64;
        let mut out = [0.0; 4];
        for s in ALL_STATES {
            out[s.index() as usize] = counts[s.index() as usize] as f64 / n;
        }
        out
    }
}

#[cfg(test)]
mod kernel_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_array() -> (CellArray, ChipParams, StdRng) {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(99);
        let array = CellArray::new(4, 256, &params, &mut rng);
        (array, params, rng)
    }

    #[test]
    fn new_array_is_erased() {
        let (array, params, _) = small_array();
        assert_eq!(array.len(), 4 * 256);
        let op = OperatingPoint::default();
        for (_, _, state, vth) in array.iter_cells(&params, op) {
            assert_eq!(state, CellState::Er);
            assert!(vth < params.refs.va() + 20.0, "erased cell at {vth}");
        }
    }

    #[test]
    fn program_places_cells_near_state_means() {
        let (mut array, params, mut rng) = small_array();
        let states = vec![CellState::P2; 256];
        array.program_wordline(&params, &mut rng, 1, &states, 0);
        let op = OperatingPoint::default();
        let mut sum = 0.0;
        for bl in 0..256 {
            assert_eq!(array.intended_state(1, bl), CellState::P2);
            sum += array.current_vth(&params, 1, bl, op);
        }
        let mean = sum / 256.0;
        assert!((mean - 290.0).abs() < 5.0, "P2 mean = {mean}");
    }

    #[test]
    fn process_variation_survives_erase() {
        let (mut array, params, mut rng) = small_array();
        let s_before = array.susceptibility(2, 17);
        array.erase(&params, &mut rng, 5);
        assert_eq!(array.susceptibility(2, 17), s_before);
    }

    #[test]
    fn disturb_dose_raises_voltages() {
        let (mut array, params, mut rng) = small_array();
        let states = vec![CellState::Er; 256];
        array.program_wordline(&params, &mut rng, 0, &states, 8_000);
        let quiet = OperatingPoint { pe_cycles: 8_000, age_days: 0.0, dose: 0.0 };
        let noisy =
            OperatingPoint { dose: params.dose_increment(1_000_000, 8_000, 512.0), ..quiet };
        let mut raised = 0;
        for bl in 0..256 {
            let v0 = array.current_vth(&params, 0, bl, quiet);
            let v1 = array.current_vth(&params, 0, bl, noisy);
            assert!(v1 >= v0);
            if v1 > v0 + 1.0 {
                raised += 1;
            }
        }
        assert!(raised > 64, "only {raised} cells moved >1 unit");
    }

    #[test]
    fn retention_lowers_voltages() {
        let (mut array, params, mut rng) = small_array();
        let states = vec![CellState::P3; 256];
        array.program_wordline(&params, &mut rng, 3, &states, 8_000);
        let fresh = OperatingPoint { pe_cycles: 8_000, age_days: 0.0, dose: 0.0 };
        let aged = OperatingPoint { age_days: 21.0, ..fresh };
        for bl in 0..256 {
            assert!(
                array.current_vth(&params, 3, bl, aged) < array.current_vth(&params, 3, bl, fresh)
            );
        }
    }

    #[test]
    fn outliers_appear_at_expected_rate() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut array = CellArray::new(16, 4096, &params, &mut rng);
        let states = vec![CellState::P3; 4096];
        for wl in 0..16 {
            array.program_wordline(&params, &mut rng, wl, &states, 0);
        }
        let candidates = array.passthrough_candidates(params.outlier_base);
        let n = array.len() as f64;
        let rate = candidates.len() as f64 / n;
        // Expected ≈ outlier_prob (all cells are P3 here), within Poisson noise.
        assert!(
            rate > 0.3 * params.outlier_prob && rate < 3.0 * params.outlier_prob,
            "outlier rate {rate} vs prob {}",
            params.outlier_prob
        );
    }

    fn lane_bits(array: &CellArray) -> Vec<u32> {
        array.base_vth.iter().map(|v| v.to_bits()).collect()
    }

    fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(crate::digest::FNV_OFFSET, crate::digest::fold_word)
    }

    /// The base-voltage lanes' bits, the pass-through candidates at the
    /// candidate floor and the generator's state, as one digest.
    fn pin(array: &CellArray, params: &ChipParams, rng: &StdRng) -> u64 {
        let lanes = lane_bits(array).into_iter().map(u64::from);
        let floor = CellArray::candidate_floor(params);
        let candidates = array.passthrough_candidates(floor).into_iter().map(u64::from);
        fold(lanes.chain([u64::MAX]).chain(candidates).chain([u64::MAX]).chain(rng.state()))
    }

    // The digests below were recorded while an erase and a first (LSB)
    // program pass left their wordlines undrawn until sensed, a scheme these
    // tests checked against twins that drew every cell at once. The erase
    // and both passes now draw every cell when they run, and leave the same
    // lanes, candidates and generator.

    /// Erases up to 800K P/E, short of the wear at which an erased cell
    /// could reach the candidate floor: none leaves a candidate, and each
    /// leaves the recorded lanes and generator.
    #[test]
    fn lazy_erase_defers_every_wordline_where_the_bound_holds() {
        let (mut array, params, mut rng) = small_array();
        let floor = CellArray::candidate_floor(&params);
        let pins = [0, 8_000, 100_000, 800_000].map(|pe| {
            array.erase(&params, &mut rng, pe);
            assert!(array.passthrough_candidates(floor).is_empty(), "at {pe} P/E");
            pin(&array, &params, &rng)
        });
        let recorded = [
            0x53f0_a105_4fb4_1724,
            0xc7e5_eaf1_ed95_e1b1,
            0xa5a3_75b8_442c_8c42,
            0x316d_831a_aad8_5272,
        ];
        assert_eq!(pins, recorded, "{pins:#018x?}");
    }

    /// Where an erased cell could reach the candidate floor — σ_ER widened
    /// in a new array and its erase, or widened by 1M P/E of wear — the
    /// lanes, candidates and generator are the recorded ones.
    #[test]
    fn lazy_erase_is_eager_where_an_erased_cell_could_reach_the_floor() {
        let mut params = ChipParams::default();
        params.states[CellState::Er.index() as usize].sigma = 60.0;
        let mut rng = StdRng::seed_from_u64(99);
        let mut array = CellArray::new(4, 256, &params, &mut rng);
        let fresh = pin(&array, &params, &rng);
        array.erase(&params, &mut rng, 3_000);
        let widened = pin(&array, &params, &rng);
        let params = ChipParams::default();
        array.erase(&params, &mut rng, 1_000_000);
        let worn = pin(&array, &params, &rng);
        let pins = [fresh, widened, worn];
        let recorded = [0xa4fc_ec31_24fc_342b, 0x4010_8951_6ee8_7b15, 0xa2c7_1541_a5c0_8f7d];
        assert_eq!(pins, recorded, "{pins:#018x?}");
    }

    /// A new array's voltages, per cell and per wordline, and its checkpoint
    /// bytes are the recorded ones.
    #[test]
    fn pending_cells_read_as_their_eager_twin() {
        let (array, params, _) = small_array();
        let op = OperatingPoint { pe_cycles: 0, age_days: 3.0, dose: 1.0e3 };
        let cells = [(0, 0), (1, 17), (3, 255)]
            .map(|(wl, bl)| array.current_vth(&params, wl, bl, op).to_bits());
        let wordlines =
            (0..4).flat_map(|wl| array.wordline_current_vth(&params, wl, op)).map(f64::to_bits);
        let mut w = Writer::new();
        array.encode_state(&mut w);
        let digest =
            crate::digest::fold_page(fold(cells.into_iter().chain(wordlines)), &w.into_bytes());
        assert_eq!(digest, 0xccd3_05fb_4ecd_d95a, "{digest:#018x}");
    }

    /// P2's highest cell (`mean + NORMAL_Z_BOUND·σ`) reaches ~411 at 8K P/E
    /// and the candidate floor between 97K and 99K P/E. First passes of
    /// alternating ER and P2 cells below that wear, past it, and with P2's σ
    /// widened leave the recorded lanes, candidates and generator.
    #[test]
    fn lazy_lsb_pass_bound_holds_to_the_documented_wear() {
        let params = ChipParams::default();
        let floor = CellArray::candidate_floor(&params);
        let highest = |pe| {
            let p2 = params.state_dist(CellState::P2, pe);
            p2.mean + retention::NORMAL_Z_BOUND * p2.sigma
        };
        assert!((405.0..415.0).contains(&highest(8_000)), "P2 reaches {}", highest(8_000));
        assert!(highest(97_000) <= floor && highest(99_000) > floor);
        let mut widened = params.clone();
        widened.states[CellState::P2.index() as usize].sigma = 25.0;
        let pins = [(&params, 8_000), (&params, 99_000), (&widened, 8_000)].map(|(params, pe)| {
            let mut rng = StdRng::seed_from_u64(pe);
            let mut array = CellArray::new(2, 512, params, &mut rng);
            let states: Vec<CellState> =
                (0..512).map(|bl| [CellState::Er, CellState::P2][bl % 2]).collect();
            array.program_wordline(params, &mut rng, 1, &states, pe);
            pin(&array, params, &rng)
        });
        let recorded = [0xaab1_ab7b_4a9e_f611, 0xd7a7_0001_9623_91b0, 0x50dc_da57_73f9_d08e];
        assert_eq!(pins, recorded, "{pins:#018x?}");
    }

    /// A first pass of P2 cells at a raised misprogram rate, with half of
    /// P3's cells outliers: the recorded 79 cells (~2%) misprogram up into
    /// P3, and the candidates enter the list in bitline order; lanes,
    /// candidates and generator are the recorded ones.
    #[test]
    fn lazy_lsb_pass_draws_misprogrammed_p3_cells_at_once() {
        let defaults = ChipParams::default();
        let pe_rber_coeff = 10.0 * defaults.pe_rber_coeff;
        let params = ChipParams { pe_rber_coeff, outlier_prob: 0.5, ..defaults };
        let (floor, pe) = (CellArray::candidate_floor(&params), 20_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut array = CellArray::new(2, 4096, &params, &mut rng);
        let states = vec![CellState::P2; 4096];
        array.program_wordline(&params, &mut rng, 1, &states, pe);
        let lo = array.index(1, 0);
        let p3 = array.base_vth[lo..lo + 4096].iter().filter(|&&v| v > 380.0).count();
        assert_eq!(p3, 79);
        let candidates = array.passthrough_candidates(floor);
        assert_eq!(candidates.len(), 39);
        assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
        let digest = pin(&array, &params, &rng);
        assert_eq!(digest, 0x634f_1521_9d36_2e67, "{digest:#018x}");
    }

    /// First passes over every intended state at four wears: the lanes,
    /// candidates, generator and three cells' voltages are the recorded
    /// ones.
    #[test]
    fn lazy_lsb_pass_leaves_the_generator_where_the_eager_loop_does() {
        let params = ChipParams::default();
        let pins = [0, 3_000, 15_000, 90_000].map(|pe| {
            let mut rng = StdRng::seed_from_u64(41 + pe);
            let mut array = CellArray::new(3, 512, &params, &mut rng);
            let states: Vec<CellState> = (0..512).map(|bl| ALL_STATES[(bl / 3) % 4]).collect();
            array.program_wordline(&params, &mut rng, 1, &states, pe);
            let op = OperatingPoint { pe_cycles: pe, age_days: 2.0, dose: 1.0e3 };
            let volts = [0, 100, 511].map(|bl| array.current_vth(&params, 1, bl, op).to_bits());
            fold([pin(&array, &params, &rng)].into_iter().chain(volts))
        });
        let recorded = [
            0x88c6_f963_8968_5dcb,
            0x2c60_2c9b_2536_7f1f,
            0x03ba_28ef_a54c_e51e,
            0x926f_428b_9b28_c55c,
        ];
        assert_eq!(pins, recorded, "{pins:#018x?}");
    }

    #[test]
    fn state_fractions_sum_to_one() {
        let (array, _, _) = small_array();
        let f = array.state_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[0], 1.0); // all erased
    }
}
