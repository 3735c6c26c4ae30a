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

use std::f64::consts::LN_2;

use rand::rngs::StdRng;
use rand::Rng;

use crate::noise::{pe_cycling, read_disturb, retention};
use crate::params::ChipParams;
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

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.intended.len()
    }

    #[inline]
    fn index(&self, wordline: u32, bitline: u32) -> usize {
        debug_assert!(wordline < self.wordlines && bitline < self.bitlines);
        wordline as usize * self.bitlines as usize + bitline as usize
    }

    /// Re-samples every cell into the erased distribution. Process-variation
    /// factors persist (they belong to the physical cell).
    pub(crate) fn erase(&mut self, params: &ChipParams, rng: &mut StdRng, pe_cycles: u64) {
        let dist = params.state_dist(CellState::Er, pe_cycles);
        for i in 0..self.len() {
            self.intended[i] = CellState::Er.index();
            let z = retention::sample_standard_normal(rng);
            self.base_vth[i] = (dist.mean + dist.sigma * z) as f32;
        }
    }

    /// Programs one wordline to the given target states (one per bitline),
    /// applying misprogram and over-programmed-outlier noise.
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
        // Everything that depends only on the wear level, once per wordline.
        let misprogram = params.misprogram_prob(pe_cycles);
        let dists = ALL_STATES.map(|state| params.state_dist(state, pe_cycles));
        // Over-programmed outliers: exponential tail above outlier_base,
        // truncated at outlier_cap (program-verify bounds the maximum
        // stored voltage below the nominal Vpass).
        let outlier_span =
            1.0 - (-(params.outlier_cap - params.outlier_base) / params.outlier_scale).exp();
        let lo = self.index(wordline, 0);
        for (bitline, &state) in states.iter().enumerate() {
            self.intended[lo + bitline] = state.index();
            let placed = pe_cycling::place_state_at(rng, misprogram, state);
            let vth = if placed == CellState::P3 && rng.gen::<f64>() < params.outlier_prob {
                let u: f64 = rng.gen::<f64>() * outlier_span;
                params.outlier_base - params.outlier_scale * (1.0 - u).ln()
            } else {
                let dist = dists[placed.index() as usize];
                dist.mean + dist.sigma * retention::sample_standard_normal(rng)
            };
            self.base_vth[lo + bitline] = vth as f32;
        }
    }

    /// The intended (programmed) state of a cell.
    pub fn intended_state(&self, wordline: u32, bitline: u32) -> CellState {
        CellState::from_index(self.intended[self.index(wordline, bitline)])
    }

    /// The cell's base voltage (as placed at program time, before retention
    /// and disturb).
    pub(crate) fn base_vth(&self, wordline: u32, bitline: u32) -> f64 {
        self.base_vth[self.index(wordline, bitline)] as f64
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

    /// The cell's current threshold voltage under an operating point:
    /// retention loss applied to the base voltage, then the accumulated
    /// disturb dose.
    pub fn current_vth(
        &self,
        params: &ChipParams,
        wordline: u32,
        bitline: u32,
        op: OperatingPoint,
    ) -> f64 {
        self.current_vth_at(self.index(wordline, bitline), &Sense::new(params, op))
    }

    /// The one definition of a cell's voltage: every voltage this crate
    /// reports, and every one [`CellArray::sense_wordline`] has to compute,
    /// comes from here.
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
        (lo..lo + self.bitlines as usize).map(move |i| self.current_vth_at(i, &sense))
    }

    /// Senses one wordline against `screen`'s references: leaves the state
    /// index each bitline reads as in `scratch.states` — for every cell the
    /// [`VoltageRefs::classify_index`] of its [`CellArray::current_vth_at`],
    /// computed only for the cells the comparison screen cannot settle
    /// (module docs). Returns how many cells those were.
    pub(crate) fn sense_wordline(
        &self,
        wordline: u32,
        sense: &Sense,
        screen: &Screen,
        scratch: &mut SenseScratch,
    ) -> usize {
        let n = self.bitlines as usize;
        let lo = self.index(wordline, 0);
        let SenseScratch { states, residue, .. } = scratch;
        states.resize(n, 0);
        let lanes = self.base_vth[lo..lo + n]
            .iter()
            .zip(&self.leak[lo..lo + n])
            .zip(&self.susceptibility[lo..lo + n]);
        // The screen: no branch and nothing carried from cell to cell, so
        // the compiler is free to vectorize it. An unsettled cell is flagged
        // in its state byte and collected afterwards.
        const UNSETTLED: u8 = 0x80;
        for (state, ((&base, &leak), &s)) in states.iter_mut().zip(lanes) {
            let v0 = sense.retained(base as f64, leak as f64);
            let (class, settled) = screen.classify(v0, sense.term(s as f64));
            *state = if settled { class } else { UNSETTLED };
        }
        residue.clear();
        residue.extend((0..n as u32).filter(|&bl| states[bl as usize] == UNSETTLED));
        for &bl in residue.iter() {
            let vth = self.current_vth_at(lo + bl as usize, sense);
            states[bl as usize] = screen.refs.classify_index(vth) as u8;
        }
        residue.len()
    }

    /// Whether cell `i` blocks its bitline at the pass-through voltage
    /// `vpass` describes: its voltage, rounded to `f32`, exceeds it.
    pub(crate) fn exceeds_vpass(&self, i: usize, sense: &Sense, vpass: &Level) -> bool {
        let v0 = sense.retained(self.base_vth[i] as f64, self.leak[i] as f64);
        !vpass.is_below(v0, sense.term(self.susceptibility[i] as f64))
            && (self.current_vth_at(i, sense) as f32) as f64 > vpass.at
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
        (0..self.len()).map(move |i| {
            let wl = (i / self.bitlines as usize) as u32;
            let bl = (i % self.bitlines as usize) as u32;
            (wl, bl, CellState::from_index(self.intended[i]), self.current_vth_at(i, &sense))
        })
    }

    /// Indices of cells whose base voltage exceeds `floor` — the candidate
    /// set for pass-through blocking (only these can ever exceed a relaxed
    /// Vpass; disturb cannot push other cells that high, see module docs of
    /// [`crate::noise::read_disturb`]).
    pub(crate) fn passthrough_candidates(&self, floor: f64) -> Vec<u32> {
        (0..self.len() as u32).filter(|&i| self.base_vth[i as usize] as f64 > floor).collect()
    }

    /// Serializes the full per-cell state (checkpointing). Geometry is not
    /// written — restore validates it against the live array instead.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_bytes(&self.intended);
        w.put_f32s(&self.base_vth);
        w.put_f32s(&self.leak);
        w.put_f32s(&self.susceptibility);
    }

    /// Restores per-cell state into an array of identical geometry.
    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let intended = r.get_bytes()?;
        let base_vth = r.get_f32s()?;
        let leak = r.get_f32s()?;
        let susceptibility = r.get_f32s()?;
        let n = self.len();
        if intended.len() != n
            || base_vth.len() != n
            || leak.len() != n
            || susceptibility.len() != n
        {
            return Err(SnapError::Mismatch(format!(
                "cell array holds {} cells, snapshot has {}",
                n,
                intended.len()
            )));
        }
        if intended.iter().any(|&s| s > 3) {
            return Err(SnapError::Mismatch("cell state index out of range".into()));
        }
        self.intended = intended;
        self.base_vth = base_vth;
        self.leak = leak;
        self.susceptibility = susceptibility;
        Ok(())
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

    #[test]
    fn state_fractions_sum_to_one() {
        let (array, _, _) = small_array();
        let f = array.state_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[0], 1.0); // all erased
    }
}
