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
//! ## Pending wordlines: a pass draws nothing it does not have to
//!
//! An erase places every cell at `mean_ER + σ_ER·z`, one ziggurat draw
//! ([`retention::sample_standard_normal`]) per cell from the chip's
//! generator. MLC then programs a wordline in two passes: the LSB pass (page
//! `2w`) leaves each cell in ER or an intermediate state, and the MSB pass
//! (page `2w + 1`) places every cell again. Figure chips and FTL blocks are
//! programmed page after page, so almost none of the erase's draws, and few
//! of the LSB pass's, is ever sensed. [`CellArray::erase`] and
//! [`CellArray::program_first_pass`] therefore set the intended states at
//! once but, per wordline, only save the generator and walk it past the
//! wordline's draws — the same uniforms in the same order,
//! [`retention::skip_standard_normal`] walking each normal's acceptance steps
//! without keeping its value. The wordline is *pending*: its record says
//! whose draws it owes, the erase's or the first pass's, and they are drawn
//! from the saved state — the same `f32` bits as the eager loop
//! (`Draws::cell`) — only when something observes them:
//!
//! * a read or a voltage sweep of the wordline (`&mut` paths) writes them in
//!   place, once ([`CellArray::materialize`]);
//! * the `&self` observers — the RBER oracles (into their [`SenseScratch`]),
//!   the Vth histogram, a checkpoint, the accessors behind
//!   [`crate::Chip::cells`] — regenerate one wordline at a time as they walk
//!   it; the per-cell [`CellArray::current_vth`] walks past the bitlines
//!   before its cell and draws one.
//!
//! An MSB program overwrites every cell and drops the record; a restore
//! clears them all. The pass-through candidates (base voltage above the
//! block's candidate floor) are found without drawing, by a bound: the
//! sampler redraws any `|z| ≥` [`retention::NORMAL_Z_BOUND`] `= 8.6`, so no
//! cell placed at `N(mean, σ)` exceeds the floor while `mean + 8.6·|σ|`
//! (rounded to `f32`, as the lane is) does not. An erased cell reaches ~180
//! against a floor of 458 at the default parameters and 8K P/E, holding to
//! ~850K P/E: a wordline owing an erase holds no candidate. A first-pass cell
//! placed in ER, P1 or P2 reaches at most P2's ~411 at 8K P/E, holding to
//! ~98K P/E: only cells placed in P3 (a P2 cell misprogrammed up) can cross
//! the floor, so the walk draws those at once into the lane and writes NaN,
//! which exceeds no floor, for the rest. Where a bound fails, that erase or
//! pass draws every cell at once.

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
    /// Undrawn on a pending wordline: stale if it owes an erase, NaN but
    /// for its P3 cells if it owes a first pass (module docs).
    base_vth: Vec<f32>,
    leak: Vec<f32>,
    susceptibility: Vec<f32>,
    /// Per wordline, the draws it still owes while its voltages are undrawn
    /// (module docs).
    pending: Vec<Option<Pending>>,
    /// The erased-state distribution of the last erase.
    erased: StateParams,
}

/// The draws a pending wordline owes, from the generator its pass found.
#[derive(Debug, Clone)]
enum Pending {
    /// The erase's, at the array's `erased` distribution.
    Erase(StdRng),
    /// A first program pass's, at its wear.
    FirstPass(StdRng, Draws),
}

/// Whether no cell placed at `dist` can have a base voltage above `floor`:
/// the largest, `mean + NORMAL_Z_BOUND·|σ|`, rounded to `f32` as the lane
/// stores it, is not above it. Rounding is monotone, so no smaller voltage
/// rounds above it either.
fn stays_below(dist: StateParams, floor: f64) -> bool {
    let highest = dist.mean + retention::NORMAL_Z_BOUND * dist.sigma.abs();
    f64::from(highest as f32) <= floor
}

/// What a program pass draws per cell, with everything that depends only on
/// the wear level evaluated once per wordline. An erase is the pass that
/// aims every cell at ER and misplaces none ([`Draws::erasing`]).
#[derive(Debug, Clone, Copy)]
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

    /// An erase's draws: every cell at `erased`, no misprogram draw.
    fn erasing(erased: StateParams) -> Self {
        Self {
            misprogram: 0.0,
            dists: [erased; 4],
            outlier_prob: 0.0,
            outlier_base: 0.0,
            outlier_scale: 0.0,
            outlier_span: 0.0,
        }
    }

    /// Whether only a cell placed in P3 can have a base voltage above
    /// `floor` (module docs).
    fn only_p3_reaches(&self, floor: f64) -> bool {
        self.dists[..CellState::P3.index() as usize].iter().all(|&dist| stays_below(dist, floor))
    }

    /// The base voltage of the next cell the pass aims at `state`: the
    /// misprogram draw, a P3 cell's outlier test, then the outlier's or the
    /// normal draw — whose value a cell placed outside P3 drops, NaN, when
    /// `DRAW` is false. The one per-cell program draw, of eager passes,
    /// [`CellArray::materialize`] and the `&self` regenerators alike.
    #[inline]
    fn cell<const DRAW: bool>(&self, rng: &mut StdRng, state: CellState) -> f32 {
        let placed = pe_cycling::place_state_at(rng, self.misprogram, state);
        let p3 = placed == CellState::P3;
        let vth = if p3 && rng.gen::<f64>() < self.outlier_prob {
            let u: f64 = rng.gen::<f64>() * self.outlier_span;
            self.outlier_base - self.outlier_scale * (1.0 - u).ln()
        } else if DRAW || p3 {
            let dist = self.dists[placed.index() as usize];
            dist.mean + dist.sigma * retention::sample_standard_normal(rng)
        } else {
            retention::skip_standard_normal(rng);
            f64::NAN
        };
        vth as f32
    }
}

#[cfg(test)]
thread_local! {
    /// Erases and first passes on this thread draw every cell at once: the
    /// reference twin of the lazy-draw tests ([`with_eager_draws`]).
    static EAGER_DRAWS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every erase and first program pass on this thread drawing
/// its cells eagerly.
#[cfg(test)]
pub(crate) fn with_eager_draws<T>(f: impl FnOnce() -> T) -> T {
    EAGER_DRAWS.with(|eager| eager.set(true));
    let out = f();
    EAGER_DRAWS.with(|eager| eager.set(false));
    out
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
    /// A pending wordline's base voltages, regenerated to be sensed.
    bases: Vec<f32>,
}

/// [`CellArray::sense_wordline`] on one wordline's lanes, each voltage
/// [`Sense::vth`] as in [`CellArray::current_vth_at`]. Inlined beside the
/// regeneration of a pending wordline, it compiled to a 2× slower screen.
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
            pending: vec![None; wordlines as usize],
            erased: params.state_dist(CellState::Er, 0),
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

    /// Re-samples every cell into the erased distribution. Process-variation
    /// factors persist (they belong to the physical cell). The draws are
    /// deferred: each wordline is left pending, its voltages drawn when
    /// first observed — unless an erased cell could reach the candidate
    /// floor, when they are drawn now (module docs). Either way the
    /// generator ends where drawing every cell leaves it.
    pub(crate) fn erase(&mut self, params: &ChipParams, rng: &mut StdRng, pe_cycles: u64) {
        #[cfg(test)]
        if EAGER_DRAWS.with(std::cell::Cell::get) {
            return self.erase_eager(params, rng, pe_cycles);
        }
        self.intended.fill(CellState::Er.index());
        self.erased = params.state_dist(CellState::Er, pe_cycles);
        for pending in &mut self.pending {
            *pending = Some(Pending::Erase(rng.clone()));
            for _ in 0..self.bitlines {
                retention::skip_standard_normal(rng);
            }
        }
        if !stays_below(self.erased, Self::candidate_floor(params)) {
            (0..self.wordlines).for_each(|wl| self.materialize(wl));
        }
    }

    /// The erase as it was before pending wordlines: every cell drawn now.
    /// The reference the lazy erase is tested against.
    #[cfg(test)]
    pub(crate) fn erase_eager(&mut self, params: &ChipParams, rng: &mut StdRng, pe_cycles: u64) {
        let dist = params.state_dist(CellState::Er, pe_cycles);
        for i in 0..self.len() {
            self.intended[i] = CellState::Er.index();
            let z = retention::sample_standard_normal(rng);
            self.base_vth[i] = (dist.mean + dist.sigma * z) as f32;
        }
        self.pending.fill(None);
    }

    /// Whether a wordline's voltages are still undrawn.
    fn is_pending(&self, wordline: u32) -> bool {
        self.pending[wordline as usize].is_some()
    }

    fn owes_erase(&self, wordline: usize) -> bool {
        matches!(self.pending[wordline], Some(Pending::Erase(_)))
    }

    /// Whether a wordline owes a first program pass's draws.
    #[cfg(test)]
    pub(crate) fn owes_first_pass(&self, wordline: u32) -> bool {
        matches!(self.pending[wordline as usize], Some(Pending::FirstPass(..)))
    }

    /// The generator as the pass found a pending wordline, and the pass's
    /// draws; `None` on any other wordline.
    fn owed(&self, wordline: u32) -> Option<(StdRng, Draws)> {
        self.pending[wordline as usize].as_ref().map(|pending| match pending {
            Pending::Erase(rng) => (rng.clone(), Draws::erasing(self.erased)),
            Pending::FirstPass(rng, draws) => (rng.clone(), *draws),
        })
    }

    /// Draws a pending wordline's voltages into its lane; a no-op on any
    /// other wordline.
    pub(crate) fn materialize(&mut self, wordline: u32) {
        if let Some((mut rng, draws)) = self.owed(wordline) {
            self.pending[wordline as usize] = None;
            let lo = self.index(wordline, 0);
            let hi = lo + self.bitlines as usize;
            for (base, &state) in self.base_vth[lo..hi].iter_mut().zip(&self.intended[lo..hi]) {
                *base = draws.cell::<true>(&mut rng, CellState::from_index(state));
            }
        }
    }

    /// A wordline's base voltages in bitline order: its lane, or the owed
    /// draws regenerated for a pending wordline.
    fn wordline_bases(&self, wordline: u32) -> impl Iterator<Item = f32> + '_ {
        let lo = self.index(wordline, 0);
        let hi = lo + self.bitlines as usize;
        let mut owed = self.owed(wordline);
        self.base_vth[lo..hi].iter().zip(&self.intended[lo..hi]).map(move |(&stored, &state)| {
            match &mut owed {
                Some((rng, draws)) => draws.cell::<true>(rng, CellState::from_index(state)),
                None => stored,
            }
        })
    }

    /// Cell `i`'s base voltage, pending or not: for a pending cell the
    /// generator walks past the bitlines before it and draws one.
    fn base_at(&self, i: usize) -> f32 {
        let wl = i / self.bitlines as usize;
        match self.owed(wl as u32) {
            None => self.base_vth[i],
            Some((mut rng, draws)) => {
                let lo = wl * self.bitlines as usize;
                for &state in &self.intended[lo..i] {
                    draws.cell::<false>(&mut rng, CellState::from_index(state));
                }
                draws.cell::<true>(&mut rng, CellState::from_index(self.intended[i]))
            }
        }
    }

    /// Programs one wordline to the given target states (one per bitline),
    /// applying misprogram and over-programmed-outlier noise, every cell
    /// drawn now. The MSB pass, which places every cell again; the first
    /// (LSB) pass is [`CellArray::program_first_pass`].
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
        self.place::<true>(rng, wordline, states, Draws::new(params, pe_cycles));
    }

    /// [`CellArray::program_wordline`] for a first (LSB) pass, which the
    /// second overwrites: the wordline is left pending, only the cells placed
    /// in P3 drawn, unless another could reach the candidate floor (module
    /// docs). Either way the generator ends where drawing every cell leaves
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != bitlines`.
    pub(crate) fn program_first_pass(
        &mut self,
        params: &ChipParams,
        rng: &mut StdRng,
        wordline: u32,
        states: &[CellState],
        pe_cycles: u64,
    ) {
        let draws = Draws::new(params, pe_cycles);
        let lazy = draws.only_p3_reaches(Self::candidate_floor(params));
        #[cfg(test)]
        let lazy = lazy && !EAGER_DRAWS.with(std::cell::Cell::get);
        if lazy {
            self.place::<false>(rng, wordline, states, draws);
        } else {
            self.place::<true>(rng, wordline, states, draws);
        }
    }

    /// Sets a wordline's intended states and places its cells by `draws`;
    /// with `DRAW` false only those in P3, the wordline owing the rest.
    fn place<const DRAW: bool>(
        &mut self,
        rng: &mut StdRng,
        wordline: u32,
        states: &[CellState],
        draws: Draws,
    ) {
        assert_eq!(states.len(), self.bitlines as usize, "one state per bitline");
        // Whatever the wordline owed is overwritten.
        self.pending[wordline as usize] = (!DRAW).then(|| Pending::FirstPass(rng.clone(), draws));
        let lo = self.index(wordline, 0);
        for (bitline, &state) in states.iter().enumerate() {
            self.intended[lo + bitline] = state.index();
            self.base_vth[lo + bitline] = draws.cell::<DRAW>(rng, state);
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
    /// [`CellArray::wordline_current_vth`] instead: on a wordline whose
    /// erase or first program pass is still undrawn this call re-walks the
    /// draws before its cell.
    pub fn current_vth(
        &self,
        params: &ChipParams,
        wordline: u32,
        bitline: u32,
        op: OperatingPoint,
    ) -> f64 {
        let i = self.index(wordline, bitline);
        let (leak, susceptibility) = (self.leak[i] as f64, self.susceptibility[i] as f64);
        Sense::new(params, op).vth(self.base_at(i) as f64, leak, susceptibility)
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

    /// The one definition of a cell's voltage whose lane holds it drawn (on
    /// a wordline that is not pending, or a first pass's P3 cell): every
    /// voltage this crate reports, and every one
    /// [`CellArray::sense_wordline`] has to compute, is [`Sense::vth`] of a
    /// cell's lanes, and the hot paths take it from here.
    #[inline]
    pub(crate) fn current_vth_at(&self, i: usize, sense: &Sense) -> f64 {
        debug_assert!(!self.owes_erase(i / self.bitlines as usize) && !self.base_vth[i].is_nan());
        sense.vth(self.base_vth[i] as f64, self.leak[i] as f64, self.susceptibility[i] as f64)
    }

    /// The current voltages of one wordline, in bitline order; a pending
    /// wordline's are regenerated as they are walked.
    pub(crate) fn wordline_vth(
        &self,
        wordline: u32,
        sense: Sense,
    ) -> impl Iterator<Item = f64> + '_ {
        let lo = self.index(wordline, 0);
        let hi = lo + self.bitlines as usize;
        self.wordline_bases(wordline)
            .zip(&self.leak[lo..hi])
            .zip(&self.susceptibility[lo..hi])
            .map(move |((base, &leak), &s)| sense.vth(base as f64, leak as f64, s as f64))
    }

    /// Senses one wordline against `screen`'s references: leaves the state
    /// index each bitline reads as in `scratch.states` — for every cell the
    /// [`VoltageRefs::classify_index`] of its [`CellArray::current_vth_at`],
    /// computed only for the cells the comparison screen cannot settle
    /// (module docs). A pending wordline's base voltages are regenerated
    /// into `scratch` first. Returns how many cells the screen left.
    pub(crate) fn sense_wordline(
        &self,
        wordline: u32,
        sense: &Sense,
        screen: &Screen,
        scratch: &mut SenseScratch,
    ) -> usize {
        let lo = self.index(wordline, 0);
        let hi = lo + self.bitlines as usize;
        let (leak, susceptibility) = (&self.leak[lo..hi], &self.susceptibility[lo..hi]);
        let mut bases = std::mem::take(&mut scratch.bases);
        let lane = if self.is_pending(wordline) {
            bases.clear();
            bases.extend(self.wordline_bases(wordline));
            &bases[..]
        } else {
            &self.base_vth[lo..hi]
        };
        let left = sense_lanes(lane, leak, susceptibility, sense, screen, scratch);
        scratch.bases = bases;
        left
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
        let base = self.base_at(i) as f64;
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
    /// [`crate::noise::read_disturb`]). Found without drawing, by the bounds
    /// `erase` and `program_first_pass` checked against
    /// [`CellArray::candidate_floor`]: a wordline owing an erase holds none,
    /// and one owing a first pass holds only cells placed in P3, which its
    /// lane holds drawn (module docs).
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
        let hi = if self.owes_erase(wordline as usize) { lo } else { lo + self.bitlines as usize };
        (lo..hi).filter(move |&i| self.base_vth[i] as f64 > floor).map(|i| i as u32)
    }

    /// Serializes the full per-cell state (checkpointing), pending
    /// wordlines' voltages drawn as they are written. Geometry is not
    /// written — restore validates it against the live array instead.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_bytes(&self.intended);
        w.put_u64(self.base_vth.len() as u64);
        for wl in 0..self.wordlines {
            self.wordline_bases(wl).for_each(|base| w.put_f32(base));
        }
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
        Ok(CellLanes { intended, base_vth, leak, susceptibility })
    }

    /// Takes decoded lanes as the array's state: every voltage drawn, no
    /// wordline pending.
    pub(crate) fn restore(&mut self, lanes: CellLanes) {
        let CellLanes { intended, base_vth, leak, susceptibility } = lanes;
        (self.intended, self.base_vth, self.leak, self.susceptibility) =
            (intended, base_vth, leak, susceptibility);
        self.pending.fill(None);
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

    /// The array and generator an eager erase would leave.
    fn eager_twin(
        array: &CellArray,
        params: &ChipParams,
        rng: &StdRng,
        pe: u64,
    ) -> (CellArray, StdRng) {
        let (mut twin, mut rng) = (array.clone(), rng.clone());
        twin.erase_eager(params, &mut rng, pe);
        (twin, rng)
    }

    fn lane_bits(array: &CellArray) -> Vec<u32> {
        (0..array.wordlines).flat_map(|wl| array.wordline_bases(wl)).map(f32::to_bits).collect()
    }

    #[test]
    fn lazy_erase_defers_every_wordline_where_the_bound_holds() {
        let (mut array, params, mut rng) = small_array();
        let floor = CellArray::candidate_floor(&params);
        for pe in [0, 8_000, 100_000, 800_000] {
            assert!(stays_below(params.state_dist(CellState::Er, pe), floor));
            let (twin, twin_rng) = eager_twin(&array, &params, &rng, pe);
            array.erase(&params, &mut rng, pe);
            assert!((0..4).all(|wl| array.is_pending(wl)), "at {pe} P/E");
            assert_eq!(rng.state(), twin_rng.state(), "at {pe} P/E");
            assert_eq!(lane_bits(&array), lane_bits(&twin), "at {pe} P/E");
            assert!(array.passthrough_candidates(floor).is_empty());
            (0..4).for_each(|wl| array.materialize(wl));
            assert_eq!(lane_bits(&array), lane_bits(&twin));
            assert!((0..4).all(|wl| !array.is_pending(wl)));
        }
        // σ_ER widens with wear until an erased cell could reach the floor.
        assert!(!stays_below(params.state_dist(CellState::Er, 1_000_000), floor));
    }

    #[test]
    fn lazy_erase_is_eager_where_an_erased_cell_could_reach_the_floor() {
        let mut params = ChipParams::default();
        params.states[CellState::Er.index() as usize].sigma = 60.0;
        let mut rng = StdRng::seed_from_u64(99);
        let mut array = CellArray::new(4, 256, &params, &mut rng);
        assert!((0..4).all(|wl| !array.is_pending(wl)), "a new array is drawn at once");
        let (twin, twin_rng) = eager_twin(&array, &params, &rng, 3_000);
        array.erase(&params, &mut rng, 3_000);
        assert!((0..4).all(|wl| !array.is_pending(wl)));
        assert_eq!(lane_bits(&array), lane_bits(&twin));
        assert_eq!(rng.state(), twin_rng.state());
        // The same at the default σ_ER once wear has widened it.
        let params = ChipParams::default();
        array.erase(&params, &mut rng, 1_000_000);
        assert!((0..4).all(|wl| !array.is_pending(wl)));
    }

    #[test]
    fn pending_cells_read_as_their_eager_twin() {
        let (array, params, _) = small_array();
        assert!((0..4).all(|wl| array.is_pending(wl)));
        let mut drawn = array.clone();
        (0..4).for_each(|wl| drawn.materialize(wl));
        let op = OperatingPoint { pe_cycles: 0, age_days: 3.0, dose: 1.0e3 };
        for (i, bl) in [(0, 0), (1, 17), (3, 255)] {
            let (lazy, eager) =
                (array.current_vth(&params, i, bl, op), drawn.current_vth(&params, i, bl, op));
            assert_eq!(lazy.to_bits(), eager.to_bits());
        }
        for wl in 0..4 {
            let lazy: Vec<u64> =
                array.wordline_current_vth(&params, wl, op).map(f64::to_bits).collect();
            let eager: Vec<u64> =
                drawn.wordline_current_vth(&params, wl, op).map(f64::to_bits).collect();
            assert_eq!(lazy, eager);
        }
        let encode = |array: &CellArray| {
            let mut w = Writer::new();
            array.encode_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&array), encode(&drawn));
    }

    /// The array and generator an eager first pass would leave.
    fn eager_first_pass(
        array: &CellArray,
        params: &ChipParams,
        rng: &StdRng,
        states: &[CellState],
        pe: u64,
    ) -> (CellArray, StdRng) {
        let (mut twin, mut rng) = (array.clone(), rng.clone());
        twin.program_wordline(params, &mut rng, 1, states, pe);
        (twin, rng)
    }

    fn lane_of(array: &CellArray, wordline: u32) -> &[f32] {
        let lo = array.index(wordline, 0);
        &array.base_vth[lo..lo + array.bitlines as usize]
    }

    /// While no cell placed in ER, P1 or P2 can reach the candidate floor, a
    /// first pass is lazy. P2 is the highest: ~411 at 8K P/E, and the bound
    /// holds to ~98K P/E at the default parameters (module docs). Past that
    /// wear, or with P2's σ widened, the pass draws every cell at once.
    #[test]
    fn lazy_lsb_pass_bound_holds_to_the_documented_wear() {
        let params = ChipParams::default();
        let floor = CellArray::candidate_floor(&params);
        for pe in [0, 8_000, 50_000, 97_000] {
            assert!(Draws::new(&params, pe).only_p3_reaches(floor), "at {pe} P/E");
        }
        let p2 = params.state_dist(CellState::P2, 8_000);
        let highest = p2.mean + retention::NORMAL_Z_BOUND * p2.sigma;
        assert!((405.0..415.0).contains(&highest), "P2 reaches {highest} at 8K P/E");
        assert!(!Draws::new(&params, 99_000).only_p3_reaches(floor));
        assert!(!stays_below(params.state_dist(CellState::P2, 99_000), floor));
        let mut widened = params.clone();
        widened.states[CellState::P2.index() as usize].sigma = 25.0;
        for (params, pe, lazy) in
            [(&params, 8_000, true), (&params, 99_000, false), (&widened, 8_000, false)]
        {
            let mut rng = StdRng::seed_from_u64(pe);
            let mut array = CellArray::new(2, 512, params, &mut rng);
            let states: Vec<CellState> =
                (0..512).map(|bl| [CellState::Er, CellState::P2][bl % 2]).collect();
            let (twin, twin_rng) = eager_first_pass(&array, params, &rng, &states, pe);
            array.program_first_pass(params, &mut rng, 1, &states, pe);
            assert_eq!(array.owes_first_pass(1), lazy, "at {pe} P/E");
            assert_eq!(rng.state(), twin_rng.state(), "at {pe} P/E");
            assert_eq!(lane_bits(&array), lane_bits(&twin), "at {pe} P/E");
        }
    }

    /// A cell a lazy first pass misprograms into P3 is drawn at once: its
    /// lane holds the eager pass's voltage and it enters the candidate list,
    /// in bitline order, as the eager pass's does. Every other cell stays
    /// undrawn.
    #[test]
    fn lazy_lsb_pass_draws_misprogrammed_p3_cells_at_once() {
        let defaults = ChipParams::default();
        let pe_rber_coeff = 10.0 * defaults.pe_rber_coeff;
        let params = ChipParams { pe_rber_coeff, outlier_prob: 0.5, ..defaults };
        let (floor, pe) = (CellArray::candidate_floor(&params), 20_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut array = CellArray::new(2, 4096, &params, &mut rng);
        let states = vec![CellState::P2; 4096];
        let (twin, twin_rng) = eager_first_pass(&array, &params, &rng, &states, pe);
        array.program_first_pass(&params, &mut rng, 1, &states, pe);
        assert!(array.owes_first_pass(1));
        assert_eq!(rng.state(), twin_rng.state());
        let (lane, eager) = (lane_of(&array, 1), lane_of(&twin, 1));
        let drawn: Vec<usize> = (0..4096).filter(|&bl| !lane[bl].is_nan()).collect();
        // ~2% of P2 cells misprogram up at this wear.
        assert!((40..160).contains(&drawn.len()), "{} cells drawn", drawn.len());
        for &bl in &drawn {
            assert_eq!(lane[bl].to_bits(), eager[bl].to_bits(), "bitline {bl}");
            assert!(lane[bl] > 380.0, "bitline {bl} at {} is not a P3 cell", lane[bl]);
        }
        let candidates = array.passthrough_candidates(floor);
        assert!(candidates.len() > 10, "{} candidates", candidates.len());
        assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
        assert_eq!(candidates, twin.passthrough_candidates(floor));
    }

    /// A lazy first pass, over every intended state and at wears the bound
    /// allows, leaves the generator where the eager loop does; its wordline
    /// then regenerates, reads per cell and materializes as the eager
    /// pass's.
    #[test]
    fn lazy_lsb_pass_leaves_the_generator_where_the_eager_loop_does() {
        let params = ChipParams::default();
        for pe in [0, 3_000, 15_000, 90_000] {
            let mut rng = StdRng::seed_from_u64(41 + pe);
            let mut array = CellArray::new(3, 512, &params, &mut rng);
            let states: Vec<CellState> = (0..512).map(|bl| ALL_STATES[(bl / 3) % 4]).collect();
            let (mut twin, twin_rng) = eager_first_pass(&array, &params, &rng, &states, pe);
            array.program_first_pass(&params, &mut rng, 1, &states, pe);
            assert!(array.owes_first_pass(1));
            assert_eq!(rng.state(), twin_rng.state(), "at {pe} P/E");
            assert_eq!(lane_bits(&array), lane_bits(&twin), "at {pe} P/E");
            let op = OperatingPoint { pe_cycles: pe, age_days: 2.0, dose: 1.0e3 };
            for bl in [0, 100, 511] {
                let lazy = array.current_vth(&params, 1, bl, op);
                assert_eq!(lazy.to_bits(), twin.current_vth(&params, 1, bl, op).to_bits());
            }
            array.materialize(1);
            twin.materialize(1);
            assert!(!array.is_pending(1));
            let bits = |lane: &[f32]| lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(lane_of(&array, 1)), bits(lane_of(&twin, 1)), "at {pe} P/E");
        }
    }

    #[test]
    fn state_fractions_sum_to_one() {
        let (array, _, _) = small_array();
        let f = array.state_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[0], 1.0); // all erased
    }
}
