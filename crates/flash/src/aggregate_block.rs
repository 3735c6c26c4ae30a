//! Block-aggregate state: the [`crate::ReadFidelity::BlockAggregate`]
//! backend of [`crate::Chip`].
//!
//! A block's error state is a closed-form function of its operating point
//! (P/E cycles, reads-since-erase, retention age, Vpass), advanced lazily:
//! an event that moves the operating point (erase, pre-wear, the first
//! program after an erase, ageing, a Vpass change — the chip's
//! "operating point moved" hook) only marks the block *dirty*, and the
//! closed form's three per-block values — disturb slope,
//! disturb-independent RBER, pass-through blocking probability, some twenty
//! transcendentals together — are evaluated once by the first consumer
//! that needs them. Those that settle a dirty block are `read_page`,
//! `read_page_shifted`, `apply_read_disturbs` and `hammer_wordline` (each
//! applies the slope); the `&self` oracles and `encode_state` evaluate a
//! dirty block's values on the fly and leave it dirty, so a checkpoint
//! carries settled values — the bytes an eager evaluation at every event
//! would have written — and a restored state is clean. A block that is
//! erased, programmed and aged without being read never pays for the
//! closed form; but a block that is read after each rewrite settles after
//! each rewrite, and in a write-heavy lifetime run the GC relocation reads
//! alone read every block it rewrites.
//!
//! So a die also keeps a small direct-mapped **memo** of the points it has
//! evaluated, keyed by the exact `(pe, age bits, vpass bits)`: blocks that
//! were erased as often, programmed as long ago and read at the same Vpass
//! share one evaluation. The closed form is a pure function of that key and
//! of the chip's params and model, both fixed when the chip is built, so a
//! hit is bit-equal to an evaluation, and the memo is a cache only — never
//! checkpointed or restored.
//!
//! The state is kept as a **struct-of-arrays** over all blocks of a die so
//! the replay hot loop touches a handful of dense `Vec<f64>` lanes instead
//! of pointer-chasing per-block objects, and the disturb accumulator is
//! **fold-free**: every disturbing read adds `rd_slope(pe, vpass) ×
//! hammer-weight` directly (the slope in effect *at the read* is applied
//! immediately), so a Vpass change needs no counter folding and the
//! accumulated damage history is exact by construction — numerically
//! identical to the page-analytic tier's folded counters.
//!
//! Reads are served in one of two modes per block:
//!
//! * **fast-forward**: the rounded expected error count is precomputed into
//!   a per-block summary together with a *horizon* — the reads-since-erase
//!   count at which the summary could change (the expectation grows by half
//!   a bit) or the ECC margin could plausibly be crossed (computed
//!   analytically by inverting the saturating disturb law). Until the
//!   horizon, a read is O(1): no RNG draw, no payload allocation, no
//!   per-wordline work.
//! * **live sampling**: once the block's error expectation comes within a
//!   6-sigma-plus-slack band of the ECC margin (reported by the FTL via
//!   [`crate::Chip::set_read_margin`]), or whenever the pass-through
//!   blocking probability is nonzero (relaxed Vpass — policy probes must
//!   see sampled blocked-bitline counts), reads sample error counts from
//!   the same binomial the page-analytic tier uses.
//!
//! Fast-forward is the common case only where the margin leaves room for
//! the band. With a page ECC capability of 2 bits or fewer
//! (`SsdConfig::small_test` pages, the fleet's drives) the 6-sigma + 2-bit
//! band is open even at zero expected errors, so every read of every block
//! samples. A sampled read of a block with no pass-through blocking and a
//! small mean therefore goes through a **zero-error screen** first: the one
//! uniform the binomial would draw is drawn and compared with
//! [`binomial_zero_bound`] at `p_up = (static_rber + lin)·(1 + guard)`, an
//! upper bound on the read's probability that needs no `ln_1p`
//! (`ln_1p(x) ≤ x`). Below the bound the read has no errors — at a mean of
//! a hundredth of a bit, nearly every read; otherwise the same uniform goes
//! through the binomial walk. Outcomes and RNG draws are those of the
//! unscreened read.
//!
//! Payloads are not modeled at this tier: reads return empty data and the
//! per-page intended bits are unavailable (`FidelityUnsupported`). Only
//! error counts and blocked-bitline counts are produced; the per-block
//! counters that drive mitigation policies are the chip's block ledger,
//! which the tier reads as `(&ledger, b)`.

use rand::rngs::StdRng;
use rand::Rng;

use crate::analytic::{AnalyticModel, ShiftPoint};
use crate::analytic_block::{sample_binomial, INVERSION_MAX_MEAN};
use crate::chip::ReadOutcome;
use crate::ledger::BlockLedger;
use crate::math::{binomial_from_uniform, binomial_zero_bound};
use crate::params::ChipParams;
use crate::wire::{Reader, SnapError, Writer};
use crate::BitErrorStats;

/// Extra slack (in error bits) added to the 6-sigma margin-proximity test.
/// Binomial tails at sub-bit means are wider than the normal approximation
/// suggests, so the band is padded before fast-forwarding is allowed.
const MARGIN_SLACK_BITS: f64 = 2.0;

/// Relative allowance for rounding in the upper bound a screened read puts
/// on its error probability (see [`AggregateState::sample_read`]).
const P_UP_GUARD: f64 = 1.0e-12;

/// Slots of the per-die operating-point memo.
const MEMO_SLOTS: usize = 64;

/// The closed form's per-block values at one (pe, age, vpass): what the
/// `slope` / `static_rber` / `blocked_prob` lanes cache.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OperatingPoint {
    slope: f64,
    static_rber: f64,
    blocked_prob: f64,
}

/// The exact inputs of [`AggregateState::evaluate`]:
/// `(pe, age_days.to_bits(), vpass.to_bits())`.
type PointKey = [u64; 3];

/// Direct-mapped memo of [`AggregateState::evaluate`] over the points one
/// die has evaluated. The closed form is a pure function of the key, the
/// chip's params and its model, and the last two are fixed when the chip is
/// built, so a hit is bit-equal to an evaluation. A cache and nothing else:
/// never checkpointed, never restored, not configurable.
#[derive(Debug, Clone)]
struct PointMemo(Box<[Option<(PointKey, OperatingPoint)>]>);

impl PointMemo {
    fn new() -> Self {
        Self(vec![None; MEMO_SLOTS].into_boxed_slice())
    }

    fn key(ledger: &BlockLedger, b: usize) -> PointKey {
        [ledger.pe_cycles[b], ledger.age_days[b].to_bits(), ledger.vpass[b].to_bits()]
    }

    fn slot([pe, age, vpass]: PointKey) -> usize {
        let mixed =
            (pe ^ age.rotate_left(21) ^ vpass.rotate_left(42)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    fn get(&self, key: PointKey) -> Option<OperatingPoint> {
        match self.0[Self::slot(key)] {
            Some((held, point)) if held == key => Some(point),
            _ => None,
        }
    }

    fn put(&mut self, key: PointKey, point: OperatingPoint) {
        self.0[Self::slot(key)] = Some((key, point));
    }
}

/// Struct-of-arrays aggregate state for every block of one die; block `b`'s
/// operating point is ledger row `b`.
#[derive(Debug, Clone)]
pub(crate) struct AggregateState {
    bitlines: u32,
    bits_per_cell: u32,
    /// The chip's closed-form model.
    model: AnalyticModel,
    /// Per-wordline hammer weight (geometry constant): the block-mean
    /// disturb contribution of one read targeting that wordline, in units
    /// of the per-read slope. Matches the page-analytic tier's
    /// block-uniform + per-wordline-extra accounting averaged over the
    /// block: `1 + (boost · neighbours − 1) / W`.
    wl_weight: Vec<f64>,
    /// Mean of [`Self::wl_weight`] — used to convert a disturb-linear gap
    /// into a read-count horizon.
    avg_weight: f64,

    // ---- per-block lanes (index = block) ----
    /// Fold-free disturb-linear accumulator: `Σ slope(at read) · weight`.
    lin: Vec<f64>,
    /// Whether the block's (pe, age, vpass) moved since [`Self::slope`],
    /// [`Self::static_rber`] and [`Self::blocked_prob`] were evaluated;
    /// those lanes are read through [`Self::settle`] or [`Self::point`].
    dirty: Vec<bool>,
    /// Cached `rd_slope(pe, vpass)`.
    slope: Vec<f64>,
    /// Cached disturb-independent RBER: Gaussian tail floor + P/E noise +
    /// retention at the current age.
    static_rber: Vec<f64>,
    /// Cached pass-through blocking probability at the current Vpass.
    blocked_prob: Vec<f64>,
    /// Cached rounded expected per-page error count (fast-forward serve).
    summary_errors: Vec<u64>,
    /// Reads-since-erase at which the summary must be recomputed.
    summary_horizon: Vec<u64>,
    /// Whether reads sample live (margin proximity; one-way until the next
    /// invalidating event recomputes it).
    sampling: Vec<bool>,
    /// Operating points this die has evaluated, for [`Self::settle`] and
    /// [`Self::point`].
    memo: PointMemo,
}

impl AggregateState {
    pub(crate) fn new(
        blocks: u32,
        wordlines: u32,
        bitlines: u32,
        bits_per_cell: u32,
        params: &ChipParams,
        model: AnalyticModel,
    ) -> Self {
        let n = blocks as usize;
        let w = wordlines as usize;
        let wl_weight: Vec<f64> = (0..w)
            .map(|wl| {
                let neighbours = usize::from(wl > 0) + usize::from(wl + 1 < w);
                1.0 + (params.rd_neighbor_boost * neighbours as f64 - 1.0) / w as f64
            })
            .collect();
        let avg_weight = wl_weight.iter().sum::<f64>() / w as f64;
        Self {
            bitlines,
            bits_per_cell,
            model,
            wl_weight,
            avg_weight,
            lin: vec![0.0; n],
            dirty: vec![true; n],
            slope: vec![0.0; n],
            static_rber: vec![0.0; n],
            blocked_prob: vec![0.0; n],
            summary_errors: vec![0; n],
            summary_horizon: vec![0; n],
            sampling: vec![false; n],
            memo: PointMemo::new(),
        }
    }

    /// Called after any change to block `b`'s (pe, age, vpass): the
    /// operating-point caches now lag the block and the fast-forward
    /// summary is invalid.
    pub(crate) fn op_point_moved(&mut self, b: usize) {
        self.dirty[b] = true;
        self.invalidate(b);
    }

    /// The closed form at the block's current (pe, age, vpass).
    fn evaluate(&self, params: &ChipParams, ledger: &BlockLedger, b: usize) -> OperatingPoint {
        let (pe, age, vpass) = (ledger.pe_cycles[b], ledger.age_days[b], ledger.vpass[b]);
        let model = &self.model;
        OperatingPoint {
            slope: model.rd_slope(pe, vpass),
            static_rber: ShiftPoint::at(params, model, pe, age, 0.0).static_rber,
            blocked_prob: 2.0 * model.rber_passthrough(pe, age, vpass),
        }
    }

    /// Brings a dirty block's cached operating point up to date.
    #[inline]
    fn settle(&mut self, params: &ChipParams, ledger: &BlockLedger, b: usize) {
        if self.dirty[b] {
            self.settle_dirty(params, ledger, b);
        }
    }

    #[cold]
    fn settle_dirty(&mut self, params: &ChipParams, ledger: &BlockLedger, b: usize) {
        let key = PointMemo::key(ledger, b);
        let point = self.memo.get(key).unwrap_or_else(|| {
            let point = self.evaluate(params, ledger, b);
            self.memo.put(key, point);
            point
        });
        self.slope[b] = point.slope;
        self.static_rber[b] = point.static_rber;
        self.blocked_prob[b] = point.blocked_prob;
        self.dirty[b] = false;
    }

    /// The block's operating point for a `&self` consumer: what the lanes
    /// hold, or, while the block is dirty, the memo's or a fresh evaluation.
    fn point(&self, params: &ChipParams, ledger: &BlockLedger, b: usize) -> OperatingPoint {
        if self.dirty[b] {
            let memo = self.memo.get(PointMemo::key(ledger, b));
            return memo.unwrap_or_else(|| self.evaluate(params, ledger, b));
        }
        let (slope, static_rber, blocked_prob) =
            (self.slope[b], self.static_rber[b], self.blocked_prob[b]);
        OperatingPoint { slope, static_rber, blocked_prob }
    }

    /// Forces a summary recomputation at the next read.
    fn invalidate(&mut self, b: usize) {
        self.summary_horizon[b] = 0;
        self.sampling[b] = false;
    }

    /// Saturating disturb RBER term from the fold-free accumulator.
    fn rd_term(&self, b: usize) -> f64 {
        let rd_sat = self.model.params().rd_sat;
        rd_sat * (self.lin[b].max(0.0) / rd_sat).ln_1p()
    }

    /// The block's disturb dose: the accumulator, never negative.
    pub(crate) fn dose(&self, b: usize) -> f64 {
        self.lin[b].max(0.0)
    }

    /// Closed-form per-bit RBER of a settled block (pass-through excluded —
    /// that is realized as blocked bitlines at read time).
    fn rber_block(&self, b: usize) -> f64 {
        debug_assert!(!self.dirty[b], "block {b} read through a stale operating point");
        self.static_rber[b] + self.rd_term(b)
    }

    /// Recomputes the fast-forward summary: the rounded expected error
    /// count, the live-sampling decision, and the read-count horizon at
    /// which either could change.
    fn refresh_summary(&mut self, margin: Option<u64>, reads_since_erase: u64, b: usize) {
        let bits = self.bitlines as f64;
        let mean = self.rber_block(b) * bits;
        self.summary_errors[b] = mean.round() as u64;
        self.sampling[b] = match margin {
            // Without a margin hint (standalone chip use) there is no safe
            // fast-forward bound: always sample.
            None => true,
            Some(m) => mean + 6.0 * mean.sqrt() + MARGIN_SLACK_BITS >= m as f64,
        };
        if self.sampling[b] {
            self.summary_horizon[b] = u64::MAX;
            return;
        }
        // Next interesting event, as an expected-error target: the rounded
        // summary steps (+0.5 bits), or the margin-proximity band opens.
        let step_target = (self.summary_errors[b] as f64 + 0.5) / bits;
        let margin_target = margin
            .map(|m| {
                // Solve mean + 6·sqrt(mean) + slack = m for mean.
                let m = m as f64 - MARGIN_SLACK_BITS;
                let y = (-6.0 + (36.0 + 4.0 * m).sqrt()) / 2.0;
                (y * y).max(0.0) / bits
            })
            .unwrap_or(f64::INFINITY);
        let p_target = step_target.min(margin_target);
        let rd_target = p_target - self.static_rber[b];
        let per_read = self.slope[b] * self.avg_weight;
        self.summary_horizon[b] = if rd_target <= self.rd_term(b) {
            // Already past the target (numerical edge): re-check shortly.
            reads_since_erase.saturating_add(1)
        } else if per_read <= 0.0 {
            // Host reads cannot move the accumulator; only invalidating
            // events (bulk disturbs, aging, Vpass) can, and they reset the
            // horizon themselves.
            u64::MAX
        } else {
            // Invert rd = rd_sat·ln(1 + lin/rd_sat) for the target lin.
            let rd_sat = self.model.params().rd_sat;
            let lin_target = rd_sat * ((rd_target / rd_sat).exp_m1());
            let delta = ((lin_target - self.lin[b]) / per_read).ceil().max(1.0);
            if delta.is_finite() && delta < 9.0e18 {
                reads_since_erase.saturating_add(delta as u64)
            } else {
                u64::MAX
            }
        };
    }

    /// Samples one live read at the block's current operating point, with
    /// pass-through blocking overlaid (each blocked bitline senses as P3
    /// and flips half its bits on average).
    fn sample_outcome(&self, rng: &mut StdRng, b: usize, p_err: f64) -> ReadOutcome {
        let n = self.bitlines as u64;
        let mut errors = sample_binomial(rng, n, p_err.min(1.0)).min(n);
        let (p_block, mut blocked) = (self.blocked_prob[b], 0);
        if p_block > 0.0 {
            blocked = sample_binomial(rng, n, p_block.min(1.0));
            errors = (errors + sample_binomial(rng, blocked, 0.5)).min(n);
        }
        ReadOutcome {
            data: Vec::new(),
            stats: BitErrorStats::new(errors, n),
            blocked_bitlines: blocked,
        }
    }

    /// A live read of a settled block: the outcome and the RNG draws of
    /// `sample_outcome(rng, b, rber_block(b))`, with the zero-error screen
    /// in front of the binomial. When that read would draw exactly one
    /// uniform — no pass-through blocking, `0 < p < 1`, a mean under
    /// [`INVERSION_MAX_MEAN`] — the uniform is drawn here and compared with
    /// [`binomial_zero_bound`] at `p_up ≥ p`, which needs no `ln_1p`: below
    /// it the read has no errors, otherwise the same uniform goes through
    /// the binomial walk at `p` itself.
    // Out of line, so the fast-forward read it is called from stays small.
    #[inline(never)]
    fn sample_read(&self, rng: &mut StdRng, b: usize) -> ReadOutcome {
        let n = self.bitlines as u64;
        let static_rber = self.static_rber[b];
        // `rd_term ≤ lin` as `ln_1p(x) ≤ x`; the guard covers the few ulps
        // by which either side's rounding could reverse that.
        let p_up = (static_rber + self.lin[b].max(0.0)) * (1.0 + P_UP_GUARD);
        let one_uniform = self.blocked_prob[b] <= 0.0
            && static_rber > 0.0
            && n > 0
            && p_up < 1.0
            && n as f64 * p_up < INVERSION_MAX_MEAN;
        if !one_uniform {
            return self.sample_outcome(rng, b, self.rber_block(b));
        }
        let u = rng.gen();
        let errors = if u < binomial_zero_bound(n, p_up) {
            0
        } else {
            binomial_from_uniform(n, self.rber_block(b), u).min(n)
        };
        ReadOutcome { data: Vec::new(), stats: BitErrorStats::new(errors, n), blocked_bitlines: 0 }
    }

    /// Settles the block and, with `disturb`, applies one read of `page`.
    #[inline]
    fn settle_and_disturb(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        page: u32,
        disturb: bool,
    ) {
        self.settle(params, ledger, b);
        if disturb {
            self.lin[b] += self.slope[b] * self.wl_weight[(page / self.bits_per_cell) as usize];
            ledger.reads_since_erase[b] += 1;
        }
    }

    /// Serves a read of an in-range page. Fast-forward mode costs O(1) with
    /// no RNG draw; live mode samples from the same binomial as the
    /// page-analytic tier.
    // Inlined, with `settle_and_disturb`, into the chip's read dispatch: out
    // of line, the fast-forward read costs the call more than its work.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn read_page(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        margin: Option<u64>,
        b: usize,
        page: u32,
        disturb: bool,
    ) -> ReadOutcome {
        self.settle_and_disturb(params, ledger, b, page, disturb);
        let reads = ledger.reads_since_erase[b];
        if reads >= self.summary_horizon[b] {
            self.refresh_summary(margin, reads, b);
        }
        if self.sampling[b] || self.blocked_prob[b] > 0.0 {
            return self.sample_read(rng, b);
        }
        let n = self.bitlines as u64;
        ReadOutcome {
            data: Vec::new(),
            stats: BitErrorStats::new(self.summary_errors[b].min(n), n),
            blocked_bitlines: 0,
        }
    }

    /// Read-retry sample of an in-range page at a uniform reference shift —
    /// always sampled (recovery-ladder entry is a fast-forward event). The
    /// shift response is the page-analytic tier's (one [`ShiftPoint`]),
    /// evaluated per call: retry reads are rare at this tier.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_page_shifted(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        b: usize,
        page: u32,
        shift: f64,
        disturb: bool,
    ) -> ReadOutcome {
        self.settle_and_disturb(params, ledger, b, page, disturb);
        let (pe, age) = (ledger.pe_cycles[b], ledger.age_days[b]);
        let point = ShiftPoint::at(params, &self.model, pe, age, shift);
        self.sample_outcome(rng, b, point.rber(self.rd_term(b)))
    }

    /// After the ledger's erase (or pre-wear): no disturb.
    pub(crate) fn reset(&mut self, b: usize) {
        self.lin[b] = 0.0;
        self.op_point_moved(b);
    }

    /// Uniformly spread reads: block-level disturb only (matches the other
    /// tiers' `apply_read_disturbs`).
    pub(crate) fn apply_read_disturbs(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        n: u64,
    ) {
        self.settle(params, ledger, b);
        self.lin[b] += self.slope[b] * n as f64;
        ledger.reads_since_erase[b] += n;
        self.invalidate(b);
    }

    /// Reads concentrated on one wordline. The aggregate tier keeps no
    /// per-wordline error state, so the hammer folds into the block mean at
    /// the wordline's geometry weight.
    pub(crate) fn hammer_wordline(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        wordline: u32,
        n: u64,
    ) {
        self.settle(params, ledger, b);
        self.lin[b] += self.slope[b] * self.wl_weight[wordline as usize] * n as f64;
        ledger.reads_since_erase[b] += n;
        self.invalidate(b);
    }

    /// Closed-form expected RBER of one wordline's programmed pages
    /// (pass-through errors included), rounded to whole bits. All wordlines
    /// of a block share the aggregate operating point.
    pub(crate) fn rber_wordline_oracle(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> BitErrorStats {
        let first = wordline * self.bits_per_cell;
        let pages = (first..first + self.bits_per_cell).filter(|&p| ledger.is_programmed(b, p));
        let bits = pages.count() as u64 * self.bitlines as u64;
        if bits == 0 {
            return BitErrorStats::default();
        }
        let p = self.rber_with_blocking(params, ledger, b);
        BitErrorStats::new((p * bits as f64).round() as u64, bits)
    }

    /// Expected per-bit RBER of the block, pass-through errors included
    /// (half of a blocked bitline's bits flip), settled or not.
    fn rber_with_blocking(&self, params: &ChipParams, ledger: &BlockLedger, b: usize) -> f64 {
        let point = self.point(params, ledger, b);
        point.static_rber + self.rd_term(b) + 0.5 * point.blocked_prob
    }

    /// Closed-form expected RBER over all programmed pages of the block,
    /// unrounded: `(expected error bits, total bits)`.
    pub(crate) fn rber_expectation(
        &self,
        params: &ChipParams,
        ledger: &BlockLedger,
        b: usize,
    ) -> (f64, u64) {
        let bits = ledger.programmed_pages(b) as u64 * self.bitlines as u64;
        (self.rber_with_blocking(params, ledger, b) * bits as f64, bits)
    }

    /// Serializes the ledger and every mutable lane, caches included:
    /// fast-forward summaries and sampling flags are part of the
    /// replay-visible state (they gate when RNG draws happen), so bit-exact
    /// resume requires them verbatim rather than recomputed. The
    /// operating-point lanes are written settled — a dirty block's values
    /// evaluated here — so the bytes do not depend on which blocks happen
    /// to have been read, and the dirty flags need no lane.
    pub(crate) fn encode_state(&self, params: &ChipParams, ledger: &BlockLedger, w: &mut Writer) {
        let points: Vec<OperatingPoint> =
            (0..self.dirty.len()).map(|b| self.point(params, ledger, b)).collect();
        let lane = |of: fn(&OperatingPoint) -> f64| points.iter().map(of).collect::<Vec<f64>>();
        ledger.encode_lanes(w, |w| {
            w.put_f64s(&self.lin);
            w.put_f64s(&lane(|p| p.slope));
            w.put_f64s(&lane(|p| p.static_rber));
            w.put_f64s(&lane(|p| p.blocked_prob));
            w.put_u64s(&self.summary_errors);
            w.put_u64s(&self.summary_horizon);
            w.put_bools(&self.sampling);
        });
    }

    /// Restores the ledger and the lanes serialized by
    /// [`Self::encode_state`] into `self`, which must have been constructed
    /// with the same geometry and model.
    pub(crate) fn restore_state(
        &mut self,
        ledger: &mut BlockLedger,
        r: &mut Reader<'_>,
    ) -> Result<(), SnapError> {
        let n = self.dirty.len();
        let (f64_lanes, summary_errors, summary_horizon, sampling) =
            ledger.restore_lanes(r, |r| {
                let f64_lanes = [r.get_f64s()?, r.get_f64s()?, r.get_f64s()?, r.get_f64s()?];
                let (errors, horizon, sampling) = (r.get_u64s()?, r.get_u64s()?, r.get_bools()?);
                let mut lens = f64_lanes.iter().map(Vec::len).chain([errors.len(), horizon.len()]);
                if lens.any(|len| len != n) || sampling.len() != n {
                    return Err(SnapError::Mismatch(format!(
                        "aggregate block lane length != {n} blocks"
                    )));
                }
                Ok((f64_lanes, errors, horizon, sampling))
            })?;
        [self.lin, self.slope, self.static_rber, self.blocked_prob] = f64_lanes;
        // The encoded operating points are settled ones.
        self.dirty = vec![false; n];
        self.summary_errors = summary_errors;
        self.summary_horizon = summary_horizon;
        self.sampling = sampling;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FlashError;
    use crate::params::NOMINAL_VPASS;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Aggregate state with a ledger of its own, moved by the rules the
    /// chip applies.
    #[derive(Debug, Clone)]
    struct Fixture {
        state: AggregateState,
        ledger: BlockLedger,
    }

    impl Fixture {
        fn new(blocks: u32, bits_per_cell: u32, params: &ChipParams) -> Self {
            let model = AnalyticModel::from_chip(params, 8);
            let state = AggregateState::new(blocks, 8, 1024, bits_per_cell, params, model);
            Self { state, ledger: BlockLedger::new(blocks, 8 * bits_per_cell, 1024, true) }
        }

        /// Settles every block: after each mutation, this is the state
        /// that evaluated the closed form eagerly at every event.
        fn settle_all(&mut self, params: &ChipParams) {
            for b in 0..self.state.dirty.len() {
                self.state.settle(params, &self.ledger, b);
            }
        }

        fn encoded(&self, params: &ChipParams) -> Vec<u8> {
            let mut w = crate::wire::Writer::new();
            self.state.encode_state(params, &self.ledger, &mut w);
            w.into_bytes()
        }

        fn program(&mut self, b: usize, page: u32) -> Result<(), FlashError> {
            if self.ledger.program(b, page, &[])? {
                self.state.op_point_moved(b);
            }
            Ok(())
        }

        fn pre_wear(&mut self, b: usize, cycles: u64) {
            self.ledger.erase(b, cycles);
            self.state.reset(b);
        }

        fn advance_days(&mut self, b: usize, days: f64) {
            self.ledger.advance_days(b, days);
            self.state.op_point_moved(b);
        }

        fn set_vpass(&mut self, b: usize, vpass: f64) {
            self.ledger.vpass[b] = vpass;
            self.state.op_point_moved(b);
        }

        fn disturb(&mut self, params: &ChipParams, b: usize, n: u64) {
            self.state.apply_read_disturbs(params, &mut self.ledger, b, n);
        }

        fn read(
            &mut self,
            params: &ChipParams,
            rng: &mut StdRng,
            margin: Option<u64>,
            b: usize,
            page: u32,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.read_page(params, ledger, rng, margin, b, page, disturb)
        }

        /// [`Self::read`] without the zero-error screen: a sampled read
        /// goes straight to `sample_outcome` at `rber_block`.
        fn read_reference(
            &mut self,
            params: &ChipParams,
            rng: &mut StdRng,
            margin: Option<u64>,
            b: usize,
            page: u32,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.settle_and_disturb(params, ledger, b, page, disturb);
            let reads = ledger.reads_since_erase[b];
            if reads >= state.summary_horizon[b] {
                state.refresh_summary(margin, reads, b);
            }
            if state.sampling[b] || state.blocked_prob[b] > 0.0 {
                return state.sample_outcome(rng, b, state.rber_block(b));
            }
            let n = state.bitlines as u64;
            let errors = state.summary_errors[b].min(n);
            ReadOutcome {
                data: Vec::new(),
                stats: BitErrorStats::new(errors, n),
                blocked_bitlines: 0,
            }
        }

        fn read_shifted(
            &mut self,
            params: &ChipParams,
            rng: &mut StdRng,
            b: usize,
            page: u32,
            shift: f64,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.read_page_shifted(params, ledger, rng, b, page, shift, disturb)
        }

        fn status(&self, b: usize) -> crate::BlockStatus {
            self.ledger.status(b, self.state.dose(b))
        }

        fn expectation(&self, params: &ChipParams, b: usize) -> (f64, u64) {
            self.state.rber_expectation(params, &self.ledger, b)
        }
    }

    const TWIN_BLOCKS: usize = 3;

    /// A fresh state of the twin test's geometry.
    fn twin_state(params: &ChipParams) -> Fixture {
        Fixture::new(TWIN_BLOCKS as u32, 2, params)
    }

    /// One step of the twin test, applied to both states alike
    /// (`AdvanceDays` ages every block, as a chip does).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Program { block: usize, page: u32 },
        Read { block: usize, page: u32, disturb: bool },
        ShiftedRead { block: usize, page: u32, shift: f64 },
        PreWear { block: usize, cycles: u64 },
        AdvanceDays { days: f64 },
        SetVpass { block: usize, vpass: f64 },
        Disturbs { block: usize, n: u64 },
        Hammer { block: usize, wordline: u32, n: u64 },
        EncodeRestore,
    }

    impl Op {
        fn decode(draw: u64, params: &ChipParams) -> Self {
            let mut pick = StdRng::seed_from_u64(draw);
            let block = pick.gen_range(0..TWIN_BLOCKS);
            let page = pick.gen_range(0..16u32);
            let n = pick.gen_range(1..400_000u64);
            match pick.gen_range(0..11u32) {
                0 => Op::Program { block, page },
                1 | 2 => Op::Read { block, page, disturb: pick.gen_bool(0.8) },
                3 => Op::ShiftedRead { block, page, shift: pick.gen_range(-20.0..20.0) },
                // An erase is pre-wear by one cycle.
                4 => Op::PreWear { block, cycles: 1 },
                5 => Op::PreWear { block, cycles: n % 6_000 },
                6 => Op::AdvanceDays { days: pick.gen_range(0.0..9.0) },
                7 => {
                    Op::SetVpass { block, vpass: pick.gen_range(params.min_vpass..=NOMINAL_VPASS) }
                }
                8 => Op::Disturbs { block, n },
                9 => Op::Hammer { block, wordline: page / 2, n },
                _ => Op::EncodeRestore,
            }
        }

        /// Applies the op; a `Read` goes through the screen when `screened`,
        /// through [`Fixture::read_reference`] otherwise.
        fn apply(
            self,
            twin: &mut Fixture,
            params: &ChipParams,
            rng: &mut StdRng,
            margin: Option<u64>,
            screened: bool,
        ) -> Option<ReadOutcome> {
            match self {
                Op::Program { block, page } => {
                    // A programmed page stays programmed until the erase.
                    let _ = twin.program(block, page);
                }
                Op::Read { block, page, disturb } if screened => {
                    return Some(twin.read(params, rng, margin, block, page, disturb));
                }
                Op::Read { block, page, disturb } => {
                    return Some(twin.read_reference(params, rng, margin, block, page, disturb));
                }
                Op::ShiftedRead { block, page, shift } => {
                    return Some(twin.read_shifted(params, rng, block, page, shift, true));
                }
                Op::PreWear { block, cycles } => twin.pre_wear(block, cycles),
                Op::AdvanceDays { days } => {
                    for block in 0..TWIN_BLOCKS {
                        twin.advance_days(block, days);
                    }
                }
                Op::SetVpass { block, vpass } => twin.set_vpass(block, vpass),
                Op::Disturbs { block, n } => twin.disturb(params, block, n),
                Op::Hammer { block, wordline, n } => {
                    let Fixture { state, ledger } = twin;
                    state.hammer_wordline(params, ledger, block, wordline, n);
                }
                Op::EncodeRestore => {
                    let bytes = twin.encoded(params);
                    let mut fresh = twin_state(params);
                    let Fixture { state, ledger } = &mut fresh;
                    state.restore_state(ledger, &mut crate::wire::Reader::new(&bytes)).unwrap();
                    assert!(fresh.state.dirty.iter().all(|&d| !d), "a restored state is settled");
                    *twin = fresh;
                }
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Operating points evaluated on demand, through the memo, and
        /// reads through the zero-error screen, against operating points
        /// evaluated at every event and the unscreened reference read: twin
        /// states under one random op sequence, the eager twin settling
        /// every block after every op. Read outcomes, RNG streams, oracle
        /// values and checkpoint bytes are bit-equal at every step, and
        /// whatever the lazy twin holds cached for a clean block is what a
        /// fresh evaluation gives.
        #[test]
        fn on_demand_operating_points_match_eager_evaluation(
            seed in any::<u64>(),
            margin in 0u64..60,
            draws in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let params = ChipParams::default();
            // Margin 0 stands for "no hint": every read samples.
            let margin = (margin > 0).then_some(margin);
            let mut lazy = twin_state(&params);
            let mut eager = lazy.clone();
            eager.settle_all(&params);
            let mut lazy_rng = StdRng::seed_from_u64(seed);
            let mut eager_rng = lazy_rng.clone();
            for draw in draws {
                let op = Op::decode(draw, &params);
                let got = op.apply(&mut lazy, &params, &mut lazy_rng, margin, true);
                let expected = op.apply(&mut eager, &params, &mut eager_rng, margin, false);
                eager.settle_all(&params);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(lazy_rng.state(), eager_rng.state());
                for b in 0..TWIN_BLOCKS {
                    let oracles = |s: &Fixture| {
                        let (expected, bits) = s.expectation(&params, b);
                        (
                            expected.to_bits(),
                            bits,
                            (0..8).map(|wl| s.state.rber_wordline_oracle(&params, &s.ledger, b, wl)).collect::<Vec<_>>(),
                            s.status(b),
                        )
                    };
                    prop_assert_eq!(oracles(&lazy), oracles(&eager));
                    if !lazy.state.dirty[b] {
                        prop_assert_eq!(
                            lazy.state.point(&params, &lazy.ledger, b),
                            lazy.state.evaluate(&params, &lazy.ledger, b)
                        );
                    }
                }
                prop_assert_eq!(lazy.encoded(&params), eager.encoded(&params));
            }
        }
    }

    fn setup() -> (Fixture, ChipParams, StdRng) {
        let params = ChipParams::default();
        let twin = Fixture::new(2, 2, &params);
        (twin, params, StdRng::seed_from_u64(7))
    }

    fn program_all(state: &mut Fixture) {
        for page in 0..16 {
            state.program(0, page).unwrap();
        }
    }

    #[test]
    fn fast_forward_reads_touch_no_rng() {
        let (mut state, params, mut rng) = setup();
        program_all(&mut state);
        // Fresh block, wide margin: every read must be served cached.
        let margin = Some(40u64);
        let before = rng.clone();
        for i in 0..10_000u64 {
            let out = state.read(&params, &mut rng, margin, 0, (i % 16) as u32, true);
            assert!(out.data.is_empty());
            assert_eq!(out.blocked_bitlines, 0);
        }
        // The RNG stream must be untouched by fast-forward reads.
        let mut a = before;
        assert_eq!(
            rand::Rng::gen::<u64>(&mut a),
            rand::Rng::gen::<u64>(&mut rng),
            "fast-forward reads consumed RNG draws"
        );
        assert_eq!(state.status(0).reads_since_erase, 10_000);
        assert!(state.status(0).dose > 0.0);
    }

    #[test]
    fn no_margin_hint_always_samples() {
        let (mut state, params, mut rng) = setup();
        program_all(&mut state);
        let before = rng.clone();
        state.read(&params, &mut rng, None, 0, 0, true);
        let mut a = before;
        assert_ne!(
            rand::Rng::gen::<u64>(&mut a),
            rand::Rng::gen::<u64>(&mut rng),
            "margin-less reads must sample live"
        );
    }

    #[test]
    fn margin_proximity_switches_to_live_sampling() {
        let (mut state, params, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        state.disturb(&params, 0, 2_000_000);
        // Expected errors now approach/exceed a tight margin: must sample.
        state.read(&params, &mut rng, Some(4), 0, 0, false);
        assert!(state.state.sampling[0], "worn+disturbed block must leave fast-forward mode");
    }

    #[test]
    fn summary_tracks_expectation_across_horizons() {
        let (mut state, params, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        // Wide margin keeps the block in fast-forward mode; the served
        // count must track the closed-form expectation within rounding.
        for _ in 0..200_000u64 {
            let out = state.read(&params, &mut rng, Some(10_000), 0, 0, true);
            let expect = state.state.rber_block(0) * 1024.0;
            let served = out.stats.errors as f64;
            assert!(
                (served - expect).abs() <= 1.0,
                "served {served} drifted from expectation {expect:.2}"
            );
        }
        assert!(state.state.rber_block(0) > state.state.static_rber[0], "disturb must accumulate");
    }

    #[test]
    fn matches_analytic_uniform_disturb_closed_form() {
        let (mut state, params, _) = setup();
        let mut analytic = crate::analytic_block::AnalyticBlock::new(8, 1024, 2);
        let mut ledger = BlockLedger::new(1, 16, 1024, false);
        ledger.erase(0, 8_000);
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        let mut rng = StdRng::seed_from_u64(9);
        for page in 0..16 {
            let data = crate::bits::random(&mut rng, 1024);
            ledger.program(0, page, &data).unwrap();
            analytic.program_page(page, &data);
        }
        analytic.apply_read_disturbs(&mut ledger, 0, 500_000);
        state.disturb(&params, 0, 500_000);
        let model = AnalyticModel::from_chip(&params, 8);
        let (ae, ab) = analytic.rber_expectation(&params, &model, &ledger, 0);
        let (ge, gb) = state.expectation(&params, 0);
        assert_eq!(ab, gb);
        let rel = (ge / ae - 1.0).abs();
        assert!(rel < 1e-9, "uniform-disturb closed forms diverged: {ge} vs {ae}");
    }

    /// `evaluate` and `read_page_shifted` evaluate the page-analytic
    /// tier's [`ShiftPoint`]. Per database chip: `static_rber` and the
    /// shifted per-bit RBER at each of its retry shifts, folded over their
    /// bits, against the values the aggregate tier's own two spellings of
    /// the sum gave on ae93447.
    #[test]
    fn shared_shift_point_reproduces_the_hand_written_sums() {
        const RECORDED: [(&str, u64); 7] = [
            ("va-mlc-2y", 0xda51bff5d5c5ccc0),
            ("va-mlc-1x", 0xd9e6f3192c37241a),
            ("va-qlc-v5", 0x7f7d92f1ff6ba5ca),
            ("va-tlc-v3", 0xa8a038541cc7fde1),
            ("vb-mlc-2z", 0x348c31c705ae01ff),
            ("vb-qlc-96l", 0x0386ef659614cee9),
            ("vb-tlc-64l", 0xf905f64282ba3311),
        ];
        let folded: Vec<(&str, u64)> = crate::chips::all()
            .iter()
            .map(|spec| {
                let params = &spec.params;
                let model = AnalyticModel::from_chip(params, 8);
                let bpc = params.bits_per_cell();
                let mut state = Fixture::new(1, bpc, params);
                state.pre_wear(0, 8_000);
                for page in 0..8 * bpc {
                    state.program(0, page).unwrap();
                }
                state.advance_days(0, 21.0);
                state.disturb(params, 0, 500_000);
                let (pe, age) = (state.ledger.pe_cycles[0], state.ledger.age_days[0]);
                let fold = params.retry_shifts.iter().fold(
                    state.state.static_rber[0].to_bits(),
                    |fold, &shift| {
                        let point = ShiftPoint::at(params, &model, pe, age, shift);
                        let p_err = point.rber(state.state.rd_term(0));
                        fold.wrapping_mul(0x0000_0100_0000_01b3) ^ p_err.to_bits()
                    },
                );
                (spec.name, fold)
            })
            .collect();
        assert_eq!(folded, RECORDED);
    }

    /// Sampled reads through the screen against the reference read, bit
    /// for bit and draw for draw, on each of its branches: a fresh block,
    /// where the bound is near 1 and screens most reads; a worn, disturbed
    /// one with `n·p ≳ 1`, where the bound is not positive and every read
    /// walks the binomial from the same uniform; and one hammered past the
    /// inversion regime (`n·p ≥ 32` with `p_up < 1`), which the normal
    /// approximation serves.
    #[test]
    fn screened_reads_equal_the_reference_read() {
        let params = ChipParams::default();
        let mut fixture = Fixture::new(3, 2, &params);
        for b in 0..3 {
            if b > 0 {
                fixture.pre_wear(b, 8_000);
            }
            for page in 0..16 {
                fixture.program(b, page).unwrap();
            }
        }
        fixture.disturb(&params, 1, 100_000);
        fixture.disturb(&params, 2, 10_000_000);
        for b in 0..3 {
            let (mut screened, mut reference) = (fixture.clone(), fixture.clone());
            let mut rng = StdRng::seed_from_u64(11);
            let mut reference_rng = rng.clone();
            let mut zeros = 0;
            for i in 0..4_000u32 {
                let got = screened.read(&params, &mut rng, None, b, i % 16, true);
                let expected =
                    reference.read_reference(&params, &mut reference_rng, None, b, i % 16, true);
                assert_eq!(got, expected, "block {b}, read {i}");
                assert_eq!(rng.state(), reference_rng.state(), "block {b}, read {i}");
                zeros += u32::from(got.stats.errors == 0);
            }
            let state = &screened.state;
            let n = f64::from(state.bitlines);
            let mean = n * state.rber_block(b);
            let p_up = (state.static_rber[b] + state.lin[b]) * (1.0 + P_UP_GUARD);
            let bound = binomial_zero_bound(n as u64, p_up);
            let branch = match b {
                0 => n * p_up < INVERSION_MAX_MEAN && bound > 0.5 && zeros > 2_000,
                1 => n * p_up < INVERSION_MAX_MEAN && mean > 1.0 && bound <= 0.0,
                _ => p_up < 1.0 && mean >= INVERSION_MAX_MEAN,
            };
            assert!(branch, "block {b}: mean {mean}, p_up {p_up}, bound {bound}, {zeros} zeros");
        }
    }

    /// The memo serves a block whose `(pe, age, vpass)` another block
    /// already settled at, and only that exact point: two blocks at one
    /// point settle to bit-equal lanes, a block one ulp older is evaluated
    /// on its own, and a value planted under the shared point is what both
    /// of its blocks read back.
    #[test]
    fn operating_point_memo_serves_only_the_exact_point() {
        let params = ChipParams::default();
        let mut fixture = Fixture::new(3, 2, &params);
        for b in 0..3 {
            fixture.pre_wear(b, 3_000);
            fixture.program(b, 0).unwrap();
            fixture.set_vpass(b, 0.98 * NOMINAL_VPASS);
            fixture.advance_days(b, 21.0);
        }
        fixture.ledger.age_days[2] = f64::from_bits(21.0f64.to_bits() + 1);
        fixture.settle_all(&params);
        let lanes = |f: &Fixture, b: usize| {
            let s = &f.state;
            [s.slope[b], s.static_rber[b], s.blocked_prob[b]].map(f64::to_bits)
        };
        assert_eq!(lanes(&fixture, 0), lanes(&fixture, 1));
        for b in 0..3 {
            let fresh = fixture.state.evaluate(&params, &fixture.ledger, b);
            assert_eq!(fixture.state.point(&params, &fixture.ledger, b), fresh);
        }
        let shared = PointMemo::key(&fixture.ledger, 0);
        assert_ne!(shared, PointMemo::key(&fixture.ledger, 2));
        let planted = OperatingPoint { slope: 1.0, static_rber: 0.25, blocked_prob: 0.0 };
        fixture.state.memo.put(shared, planted);
        for b in 0..3 {
            fixture.state.op_point_moved(b);
        }
        assert_eq!(fixture.state.point(&params, &fixture.ledger, 1), planted);
        fixture.settle_all(&params);
        for b in 0..2 {
            assert_eq!(fixture.state.point(&params, &fixture.ledger, b), planted);
        }
        let own = fixture.state.evaluate(&params, &fixture.ledger, 2);
        assert_ne!(own, planted);
        assert_eq!(fixture.state.point(&params, &fixture.ledger, 2), own);
    }

    #[test]
    fn relaxed_vpass_forces_sampled_blocking() {
        let (mut state, params, mut rng) = setup();
        program_all(&mut state);
        state.set_vpass(0, params.min_vpass);
        let mut blocked = 0u64;
        for _ in 0..64 {
            blocked += state.read(&params, &mut rng, Some(1_000), 0, 0, false).blocked_bitlines;
        }
        assert!(blocked > 0, "expected sampled blocking at minimum Vpass");
        state.set_vpass(0, NOMINAL_VPASS);
        let out = state.read(&params, &mut rng, Some(1_000), 0, 0, false);
        assert_eq!(out.blocked_bitlines, 0);
    }

    #[test]
    fn shifted_retry_recovers_disturb_errors() {
        let (mut state, params, mut rng) = setup();
        state.pre_wear(0, 10_000);
        program_all(&mut state);
        state.disturb(&params, 0, 3_000_000);
        let sum = |state: &mut Fixture, rng: &mut StdRng, shift: f64| -> u64 {
            (0..32).map(|_| state.read_shifted(&params, rng, 0, 0, shift, false).stats.errors).sum()
        };
        let base = sum(&mut state, &mut rng, 0.0);
        let raised = sum(&mut state, &mut rng, 12.0);
        assert!(
            raised < base,
            "positive retry shift must recover disturb errors ({raised} !< {base})"
        );
    }

    /// The payload-free tier programs with an empty write and otherwise
    /// refuses and erases exactly as the other tiers do.
    #[test]
    fn program_and_erase_semantics_match_other_tiers() {
        use crate::{Chip, Geometry, ReadFidelity};
        let mut chip = Chip::with_fidelity(
            Geometry::small(),
            ChipParams::default(),
            5,
            ReadFidelity::BlockAggregate,
        );
        chip.program_page(0, 3, &[]).unwrap();
        assert!(chip.is_page_programmed(0, 3).unwrap());
        assert!(matches!(
            chip.program_page(0, 3, &[]),
            Err(FlashError::PageAlreadyProgrammed { page: 3 })
        ));
        assert!(matches!(chip.program_page(0, 99, &[]), Err(FlashError::PageOutOfRange { .. })));
        assert!(matches!(
            chip.program_page(0, 4, &[0u8; 3]),
            Err(FlashError::DataLengthMismatch { .. })
        ));
        chip.apply_read_disturbs(0, 1_000).unwrap();
        chip.advance_days(3.0);
        chip.erase_block(0).unwrap();
        let st = chip.block_status(0).unwrap();
        assert_eq!(st.pe_cycles, 1);
        assert_eq!(st.reads_since_erase, 0);
        assert_eq!(st.age_days, 0.0);
        assert_eq!(st.dose, 0.0);
        assert_eq!(st.programmed_pages, 0);
        assert!(!chip.is_page_programmed(0, 3).unwrap());
    }
}
