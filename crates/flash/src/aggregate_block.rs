//! Block-aggregate state: the [`crate::ReadFidelity::BlockAggregate`]
//! backend of [`crate::Chip`].
//!
//! A block's error state is a closed-form function of its operating point
//! (P/E cycles, reads-since-erase, retention age, Vpass), advanced lazily:
//! an event that moves the operating point (erase, pre-wear, the first
//! program after an erase, ageing, a Vpass change) only marks the block
//! *dirty*, and the closed form's three per-block values — disturb slope,
//! disturb-independent RBER, pass-through blocking probability, some twenty
//! transcendentals together — are evaluated once by the first consumer
//! that needs them. Those that settle a dirty block are `read_page`,
//! `read_page_shifted`, `apply_read_disturbs` and `hammer_wordline` (each
//! applies the slope); the `&self` oracles and `encode_state` evaluate a
//! dirty block's values on the fly and leave it dirty, so a checkpoint
//! carries settled values — the bytes an eager evaluation at every event
//! would have written — and a restored state is clean. A block that is
//! erased, programmed and aged without being read (most of a write-heavy
//! lifetime run) never pays for the closed form.
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
//! * **fast-forward** (the common case): the rounded expected error count
//!   is precomputed into a per-block summary together with a *horizon* —
//!   the reads-since-erase count at which the summary could change (the
//!   expectation grows by half a bit) or the ECC margin could plausibly be
//!   crossed (computed analytically by inverting the saturating disturb
//!   law). Until the horizon, a read is O(1): no RNG draw, no payload
//!   allocation, no per-wordline work.
//! * **live sampling**: once the block's error expectation comes within a
//!   6-sigma-plus-slack band of the ECC margin (reported by the FTL via
//!   [`crate::Chip::set_read_margin`]), or whenever the pass-through
//!   blocking probability is nonzero (relaxed Vpass — policy probes must
//!   see sampled blocked-bitline counts), reads sample error counts from
//!   the same binomial the page-analytic tier uses.
//!
//! Payloads are not modeled at this tier: reads return empty data and the
//! per-page intended bits are unavailable (`FidelityUnsupported`). Only
//! error counts, blocked-bitline counts, and all per-block counters that
//! drive mitigation policies are maintained.

use rand::rngs::StdRng;

use crate::analytic::{AnalyticModel, ShiftPoint};
use crate::analytic_block::sample_binomial;
use crate::block::BlockStatus;
use crate::chip::ReadOutcome;
use crate::error::FlashError;
use crate::params::{ChipParams, NOMINAL_VPASS};
use crate::BitErrorStats;

/// Extra slack (in error bits) added to the 6-sigma margin-proximity test.
/// Binomial tails at sub-bit means are wider than the normal approximation
/// suggests, so the band is padded before fast-forwarding is allowed.
const MARGIN_SLACK_BITS: f64 = 2.0;

/// The closed form's per-block values at one (pe, age, vpass): what the
/// `slope` / `static_rber` / `blocked_prob` lanes cache.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OperatingPoint {
    slope: f64,
    static_rber: f64,
    blocked_prob: f64,
}

/// Struct-of-arrays aggregate state for every block of one die.
#[derive(Debug, Clone)]
pub(crate) struct AggregateState {
    wordlines: u32,
    bitlines: u32,
    bits_per_cell: u32,
    /// Cached `AnalyticParams::rd_sat` (the model is fixed per chip).
    rd_sat: f64,
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
    pe_cycles: Vec<u64>,
    age_days: Vec<f64>,
    reads_since_erase: Vec<u64>,
    vpass: Vec<f64>,
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

    // ---- per-page lanes (index = block * pages_per_block + page) ----
    programmed: Vec<bool>,
    programmed_count: Vec<u32>,
}

impl AggregateState {
    pub(crate) fn new(
        blocks: u32,
        wordlines: u32,
        bitlines: u32,
        bits_per_cell: u32,
        params: &ChipParams,
        model: &AnalyticModel,
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
            wordlines,
            bitlines,
            bits_per_cell,
            rd_sat: model.params().rd_sat,
            wl_weight,
            avg_weight,
            pe_cycles: vec![0; n],
            age_days: vec![0.0; n],
            reads_since_erase: vec![0; n],
            vpass: vec![NOMINAL_VPASS; n],
            lin: vec![0.0; n],
            dirty: vec![true; n],
            slope: vec![0.0; n],
            static_rber: vec![0.0; n],
            blocked_prob: vec![0.0; n],
            summary_errors: vec![0; n],
            summary_horizon: vec![0; n],
            sampling: vec![false; n],
            programmed: vec![false; n * w * bits_per_cell as usize],
            programmed_count: vec![0; n],
        }
    }

    fn pages(&self) -> u32 {
        self.wordlines * self.bits_per_cell
    }

    fn check_page(&self, page: u32) -> Result<(), FlashError> {
        if page >= self.pages() {
            return Err(FlashError::PageOutOfRange { page, pages: self.pages() });
        }
        Ok(())
    }

    /// Called after any change to (pe, age, vpass): the operating-point
    /// caches now lag the block and the fast-forward summary is invalid.
    fn refresh_caches(&mut self, b: usize) {
        self.dirty[b] = true;
        self.invalidate(b);
    }

    /// The closed form at the block's current (pe, age, vpass).
    fn evaluate(&self, params: &ChipParams, model: &AnalyticModel, b: usize) -> OperatingPoint {
        let (pe, age, vpass) = (self.pe_cycles[b], self.age_days[b], self.vpass[b]);
        OperatingPoint {
            slope: model.rd_slope(pe, vpass),
            static_rber: ShiftPoint::at(params, model, pe, age, 0.0).static_rber,
            blocked_prob: 2.0 * model.rber_passthrough(pe, age, vpass),
        }
    }

    /// Brings a dirty block's cached operating point up to date.
    #[inline]
    fn settle(&mut self, params: &ChipParams, model: &AnalyticModel, b: usize) {
        if self.dirty[b] {
            self.settle_dirty(params, model, b);
        }
    }

    #[cold]
    fn settle_dirty(&mut self, params: &ChipParams, model: &AnalyticModel, b: usize) {
        let point = self.evaluate(params, model, b);
        self.slope[b] = point.slope;
        self.static_rber[b] = point.static_rber;
        self.blocked_prob[b] = point.blocked_prob;
        self.dirty[b] = false;
    }

    /// What the lanes hold for the block (current only while it is clean).
    fn cached(&self, b: usize) -> OperatingPoint {
        OperatingPoint {
            slope: self.slope[b],
            static_rber: self.static_rber[b],
            blocked_prob: self.blocked_prob[b],
        }
    }

    /// The block's operating point for a `&self` consumer: the cached one,
    /// or a fresh evaluation while the block is dirty.
    fn point(&self, params: &ChipParams, model: &AnalyticModel, b: usize) -> OperatingPoint {
        if self.dirty[b] {
            self.evaluate(params, model, b)
        } else {
            self.cached(b)
        }
    }

    /// Forces a summary recomputation at the next read.
    fn invalidate(&mut self, b: usize) {
        self.summary_horizon[b] = 0;
        self.sampling[b] = false;
    }

    /// Saturating disturb RBER term from the fold-free accumulator.
    fn rd_term(&self, b: usize) -> f64 {
        self.rd_sat * (self.lin[b].max(0.0) / self.rd_sat).ln_1p()
    }

    /// Closed-form per-bit RBER of a settled block (pass-through excluded —
    /// that is realized as blocked bitlines at read time).
    fn rber_block(&self, b: usize) -> f64 {
        debug_assert!(!self.dirty[b], "block {b} read through a stale operating point");
        self.static_rber[b] + self.rd_term(b)
    }

    /// [`Self::rber_block`] sensed at references moved by `shift`. The
    /// shift response is the page-analytic tier's (one [`ShiftPoint`]),
    /// evaluated per call: retry reads are rare at this tier.
    fn rber_block_shifted(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        b: usize,
        shift: f64,
    ) -> f64 {
        ShiftPoint::at(params, model, self.pe_cycles[b], self.age_days[b], shift)
            .rber(self.rd_term(b))
    }

    /// Recomputes the fast-forward summary: the rounded expected error
    /// count, the live-sampling decision, and the read-count horizon at
    /// which either could change.
    fn refresh_summary(&mut self, margin: Option<u64>, b: usize) {
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
            self.reads_since_erase[b].saturating_add(1)
        } else if per_read <= 0.0 {
            // Host reads cannot move the accumulator; only invalidating
            // events (bulk disturbs, aging, Vpass) can, and they reset the
            // horizon themselves.
            u64::MAX
        } else {
            // Invert rd = rd_sat·ln(1 + lin/rd_sat) for the target lin.
            let lin_target = self.rd_sat * ((rd_target / self.rd_sat).exp_m1());
            let delta = ((lin_target - self.lin[b]) / per_read).ceil().max(1.0);
            if delta.is_finite() && delta < 9.0e18 {
                self.reads_since_erase[b].saturating_add(delta as u64)
            } else {
                u64::MAX
            }
        };
    }

    /// Samples one live read at the block's current operating point.
    fn sample_outcome(&self, rng: &mut StdRng, p_err: f64) -> ReadOutcome {
        let n = self.bitlines as u64;
        let flips = sample_binomial(rng, n, p_err.min(1.0));
        ReadOutcome {
            data: Vec::new(),
            stats: BitErrorStats::new(flips.min(n), n),
            blocked_bitlines: 0,
        }
    }

    /// Overlays sampled pass-through blocking on a live outcome (each
    /// blocked bitline senses as P3 and flips half its bits on average).
    fn overlay_blocking(&self, rng: &mut StdRng, b: usize, outcome: &mut ReadOutcome) {
        let p_block = self.blocked_prob[b];
        if p_block <= 0.0 {
            return;
        }
        let n = self.bitlines as u64;
        let blocked = sample_binomial(rng, n, p_block.min(1.0));
        let blocked_errs = sample_binomial(rng, blocked, 0.5);
        outcome.blocked_bitlines = blocked;
        outcome.stats = BitErrorStats::new((outcome.stats.errors + blocked_errs).min(n), n);
    }

    /// Serves a page read. Fast-forward mode costs O(1) with no RNG draw;
    /// live mode samples from the same binomial as the page-analytic tier.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_page(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        rng: &mut StdRng,
        margin: Option<u64>,
        block: usize,
        page: u32,
        disturb: bool,
    ) -> Result<ReadOutcome, FlashError> {
        self.check_page(page)?;
        self.settle(params, model, block);
        if disturb {
            self.lin[block] +=
                self.slope[block] * self.wl_weight[(page / self.bits_per_cell) as usize];
            self.reads_since_erase[block] += 1;
        }
        if self.reads_since_erase[block] >= self.summary_horizon[block] {
            self.refresh_summary(margin, block);
        }
        if self.sampling[block] || self.blocked_prob[block] > 0.0 {
            let mut outcome = self.sample_outcome(rng, self.rber_block(block));
            self.overlay_blocking(rng, block, &mut outcome);
            return Ok(outcome);
        }
        let n = self.bitlines as u64;
        Ok(ReadOutcome {
            data: Vec::new(),
            stats: BitErrorStats::new(self.summary_errors[block].min(n), n),
            blocked_bitlines: 0,
        })
    }

    /// Read-retry sample at a uniform reference shift — always sampled
    /// (recovery-ladder entry is a fast-forward event).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_page_shifted(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        rng: &mut StdRng,
        block: usize,
        page: u32,
        shift: f64,
        disturb: bool,
    ) -> Result<ReadOutcome, FlashError> {
        self.check_page(page)?;
        self.settle(params, model, block);
        if disturb {
            self.lin[block] +=
                self.slope[block] * self.wl_weight[(page / self.bits_per_cell) as usize];
            self.reads_since_erase[block] += 1;
        }
        let p_err = self.rber_block_shifted(params, model, block, shift);
        let mut outcome = self.sample_outcome(rng, p_err);
        self.overlay_blocking(rng, block, &mut outcome);
        Ok(outcome)
    }

    pub(crate) fn program_page(
        &mut self,
        block: usize,
        page: u32,
        data: &[u8],
    ) -> Result<(), FlashError> {
        self.check_page(page)?;
        let idx = block * self.pages() as usize + page as usize;
        if self.programmed[idx] {
            return Err(FlashError::PageAlreadyProgrammed { page });
        }
        // Payloads are not modeled: an empty slice is the canonical write at
        // this tier, but real data is accepted (and dropped) so tier-generic
        // callers keep working — length-checked when present.
        if !data.is_empty() && data.len() * 8 != self.bitlines as usize {
            return Err(FlashError::DataLengthMismatch {
                got: data.len() * 8,
                expected: self.bitlines as usize,
            });
        }
        if self.programmed_count[block] == 0 {
            // Writing into a fully-erased block starts a fresh retention
            // period (same rule as the other tiers).
            self.age_days[block] = 0.0;
            self.refresh_caches(block);
        }
        self.programmed[idx] = true;
        self.programmed_count[block] += 1;
        Ok(())
    }

    pub(crate) fn is_page_programmed(&self, block: usize, page: u32) -> bool {
        self.programmed.get(block * self.pages() as usize + page as usize).copied().unwrap_or(false)
    }

    fn reset_after_erase(&mut self, block: usize) {
        self.age_days[block] = 0.0;
        self.reads_since_erase[block] = 0;
        self.lin[block] = 0.0;
        let pages = self.pages() as usize;
        self.programmed[block * pages..(block + 1) * pages].fill(false);
        self.programmed_count[block] = 0;
    }

    pub(crate) fn erase(&mut self, block: usize) {
        self.pe_cycles[block] += 1;
        self.reset_after_erase(block);
        self.refresh_caches(block);
    }

    pub(crate) fn pre_wear(&mut self, block: usize, cycles: u64) {
        self.pe_cycles[block] += cycles;
        self.reset_after_erase(block);
        self.refresh_caches(block);
    }

    pub(crate) fn advance_days(&mut self, block: usize, days: f64) {
        assert!(days >= 0.0, "time flows forward");
        self.age_days[block] += days;
        self.refresh_caches(block);
    }

    pub(crate) fn vpass(&self, block: usize) -> f64 {
        self.vpass[block]
    }

    /// Applies a new Vpass. Fold-free: the accumulator already carries the
    /// slope in effect at each past read, so no counter folding is needed —
    /// only the forward-looking caches change.
    pub(crate) fn set_vpass(&mut self, block: usize, vpass: f64) {
        self.vpass[block] = vpass;
        self.refresh_caches(block);
    }

    /// Uniformly spread reads: block-level disturb only (matches the other
    /// tiers' `apply_read_disturbs`).
    pub(crate) fn apply_read_disturbs(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        block: usize,
        n: u64,
    ) {
        self.settle(params, model, block);
        self.lin[block] += self.slope[block] * n as f64;
        self.reads_since_erase[block] += n;
        self.invalidate(block);
    }

    /// Reads concentrated on one wordline. The aggregate tier keeps no
    /// per-wordline error state, so the hammer folds into the block mean at
    /// the wordline's geometry weight.
    pub(crate) fn hammer_wordline(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        block: usize,
        wordline: u32,
        n: u64,
    ) {
        assert!(wordline < self.wordlines, "wordline out of range");
        self.settle(params, model, block);
        self.lin[block] += self.slope[block] * self.wl_weight[wordline as usize] * n as f64;
        self.reads_since_erase[block] += n;
        self.invalidate(block);
    }

    pub(crate) fn status(&self, block: usize) -> BlockStatus {
        BlockStatus {
            pe_cycles: self.pe_cycles[block],
            reads_since_erase: self.reads_since_erase[block],
            age_days: self.age_days[block],
            vpass: self.vpass[block],
            programmed_pages: self.programmed_count[block],
            dose: self.lin[block].max(0.0),
        }
    }

    /// Closed-form expected RBER of one wordline's programmed pages
    /// (pass-through errors included), rounded to whole bits. All wordlines
    /// of a block share the aggregate operating point.
    pub(crate) fn rber_wordline_oracle(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        block: usize,
        wordline: u32,
    ) -> BitErrorStats {
        let base = block * self.pages() as usize;
        let pages = (0..self.bits_per_cell)
            .filter(|&k| self.programmed[base + (wordline * self.bits_per_cell + k) as usize])
            .count() as u64;
        if pages == 0 {
            return BitErrorStats::default();
        }
        let bits = pages * self.bitlines as u64;
        let p = self.rber_with_blocking(params, model, block);
        BitErrorStats::new((p * bits as f64).round() as u64, bits)
    }

    /// Expected per-bit RBER of the block, pass-through errors included
    /// (half of a blocked bitline's bits flip), settled or not.
    fn rber_with_blocking(&self, params: &ChipParams, model: &AnalyticModel, b: usize) -> f64 {
        let point = self.point(params, model, b);
        point.static_rber + self.rd_term(b) + 0.5 * point.blocked_prob
    }

    /// Closed-form expected RBER over all programmed pages of the block,
    /// unrounded: `(expected error bits, total bits)`.
    pub(crate) fn rber_expectation(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        block: usize,
    ) -> (f64, u64) {
        let bits = self.programmed_count[block] as u64 * self.bitlines as u64;
        (self.rber_with_blocking(params, model, block) * bits as f64, bits)
    }

    /// Closed-form expected RBER, rounded to whole bits (the
    /// [`BitErrorStats`] oracle shape).
    pub(crate) fn rber_oracle(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        block: usize,
    ) -> BitErrorStats {
        let (expected, bits) = self.rber_expectation(params, model, block);
        BitErrorStats::new(expected.round() as u64, bits)
    }

    /// Serializes every mutable lane, caches included: fast-forward
    /// summaries and sampling flags are part of the replay-visible state
    /// (they gate when RNG draws happen), so bit-exact resume requires
    /// them verbatim rather than recomputed. The operating-point lanes are
    /// written settled — a dirty block's values evaluated here — so the
    /// bytes do not depend on which blocks happen to have been read, and
    /// the dirty flags need no lane.
    pub(crate) fn encode_state(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        w: &mut crate::wire::Writer,
    ) {
        let points: Vec<OperatingPoint> =
            (0..self.dirty.len()).map(|b| self.point(params, model, b)).collect();
        let lane = |of: fn(&OperatingPoint) -> f64| points.iter().map(of).collect::<Vec<f64>>();
        w.put_u64s(&self.pe_cycles);
        w.put_f64s(&self.age_days);
        w.put_u64s(&self.reads_since_erase);
        w.put_f64s(&self.vpass);
        w.put_f64s(&self.lin);
        w.put_f64s(&lane(|p| p.slope));
        w.put_f64s(&lane(|p| p.static_rber));
        w.put_f64s(&lane(|p| p.blocked_prob));
        w.put_u64s(&self.summary_errors);
        w.put_u64s(&self.summary_horizon);
        w.put_bools(&self.sampling);
        w.put_bools(&self.programmed);
        w.put_u32s(&self.programmed_count);
    }

    /// Restores lanes serialized by [`Self::encode_state`] into `self`,
    /// which must have been constructed with the same geometry and model.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<(), crate::wire::SnapError> {
        use crate::wire::SnapError;
        let n = self.pe_cycles.len();
        let pages = n * self.pages() as usize;
        let pe_cycles = r.get_u64s()?;
        let age_days = r.get_f64s()?;
        let reads_since_erase = r.get_u64s()?;
        let vpass = r.get_f64s()?;
        let lin = r.get_f64s()?;
        let slope = r.get_f64s()?;
        let static_rber = r.get_f64s()?;
        let blocked_prob = r.get_f64s()?;
        let summary_errors = r.get_u64s()?;
        let summary_horizon = r.get_u64s()?;
        let sampling = r.get_bools()?;
        let programmed = r.get_bools()?;
        let programmed_count = r.get_u32s()?;
        let block_lanes = [
            pe_cycles.len(),
            age_days.len(),
            reads_since_erase.len(),
            vpass.len(),
            lin.len(),
            slope.len(),
            static_rber.len(),
            blocked_prob.len(),
            summary_errors.len(),
            summary_horizon.len(),
            sampling.len(),
            programmed_count.len(),
        ];
        if block_lanes.iter().any(|&len| len != n) {
            return Err(SnapError::Mismatch(format!("aggregate block lane length != {n} blocks")));
        }
        if programmed.len() != pages {
            return Err(SnapError::Mismatch(format!(
                "aggregate page lane {} != {pages}",
                programmed.len()
            )));
        }
        self.pe_cycles = pe_cycles;
        self.age_days = age_days;
        self.reads_since_erase = reads_since_erase;
        self.vpass = vpass;
        self.lin = lin;
        // The encoded operating points are settled ones.
        self.dirty = vec![false; n];
        self.slope = slope;
        self.static_rber = static_rber;
        self.blocked_prob = blocked_prob;
        self.summary_errors = summary_errors;
        self.summary_horizon = summary_horizon;
        self.sampling = sampling;
        self.programmed = programmed;
        self.programmed_count = programmed_count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    impl AggregateState {
        /// Settles every block: after each mutation, this is the state
        /// that evaluated the closed form eagerly at every event.
        fn settle_all(&mut self, params: &ChipParams, model: &AnalyticModel) {
            for b in 0..self.dirty.len() {
                self.settle(params, model, b);
            }
        }

        fn encoded(&self, params: &ChipParams, model: &AnalyticModel) -> Vec<u8> {
            let mut w = crate::wire::Writer::new();
            self.encode_state(params, model, &mut w);
            w.into_bytes()
        }
    }

    const TWIN_BLOCKS: usize = 3;

    /// A fresh state of the twin test's geometry.
    fn twin_state(params: &ChipParams, model: &AnalyticModel) -> AggregateState {
        AggregateState::new(TWIN_BLOCKS as u32, 8, 1024, 2, params, model)
    }

    /// One step of the twin test, applied to both states alike
    /// (`AdvanceDays` ages every block, as a chip does).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Program { block: usize, page: u32 },
        Read { block: usize, page: u32, disturb: bool },
        ShiftedRead { block: usize, page: u32, shift: f64 },
        Erase { block: usize },
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
                4 => Op::Erase { block },
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

        fn apply(
            self,
            state: &mut AggregateState,
            params: &ChipParams,
            model: &AnalyticModel,
            rng: &mut StdRng,
            margin: Option<u64>,
        ) -> Option<ReadOutcome> {
            match self {
                Op::Program { block, page } => {
                    // A programmed page stays programmed until the erase.
                    let _ = state.program_page(block, page, &[]);
                }
                Op::Read { block, page, disturb } => {
                    return Some(
                        state.read_page(params, model, rng, margin, block, page, disturb).unwrap(),
                    );
                }
                Op::ShiftedRead { block, page, shift } => {
                    return Some(
                        state
                            .read_page_shifted(params, model, rng, block, page, shift, true)
                            .unwrap(),
                    );
                }
                Op::Erase { block } => state.erase(block),
                Op::PreWear { block, cycles } => state.pre_wear(block, cycles),
                Op::AdvanceDays { days } => {
                    for block in 0..TWIN_BLOCKS {
                        state.advance_days(block, days);
                    }
                }
                Op::SetVpass { block, vpass } => state.set_vpass(block, vpass),
                Op::Disturbs { block, n } => state.apply_read_disturbs(params, model, block, n),
                Op::Hammer { block, wordline, n } => {
                    state.hammer_wordline(params, model, block, wordline, n);
                }
                Op::EncodeRestore => {
                    let bytes = state.encoded(params, model);
                    let mut fresh = twin_state(params, model);
                    fresh.restore_state(&mut crate::wire::Reader::new(&bytes)).unwrap();
                    assert!(fresh.dirty.iter().all(|&d| !d), "a restored state is settled");
                    *state = fresh;
                }
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Operating points evaluated on demand against operating points
        /// evaluated at every event: twin states under one random op
        /// sequence, the eager twin settling every block after every op.
        /// Read outcomes, RNG streams, oracle values and checkpoint bytes
        /// are bit-equal at every step, and whatever the lazy twin holds
        /// cached for a clean block is what a fresh evaluation gives.
        #[test]
        fn on_demand_operating_points_match_eager_evaluation(
            seed in any::<u64>(),
            margin in 0u64..60,
            draws in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            let params = ChipParams::default();
            let model = AnalyticModel::from_chip(&params, 8);
            // Margin 0 stands for "no hint": every read samples.
            let margin = (margin > 0).then_some(margin);
            let mut lazy = twin_state(&params, &model);
            let mut eager = lazy.clone();
            eager.settle_all(&params, &model);
            let mut lazy_rng = StdRng::seed_from_u64(seed);
            let mut eager_rng = lazy_rng.clone();
            for draw in draws {
                let op = Op::decode(draw, &params);
                let got = op.apply(&mut lazy, &params, &model, &mut lazy_rng, margin);
                let expected = op.apply(&mut eager, &params, &model, &mut eager_rng, margin);
                eager.settle_all(&params, &model);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(lazy_rng.state(), eager_rng.state());
                for b in 0..TWIN_BLOCKS {
                    let oracles = |s: &AggregateState| {
                        let (expected, bits) = s.rber_expectation(&params, &model, b);
                        (
                            expected.to_bits(),
                            bits,
                            s.rber_oracle(&params, &model, b),
                            (0..8).map(|wl| s.rber_wordline_oracle(&params, &model, b, wl)).collect::<Vec<_>>(),
                            s.status(b),
                        )
                    };
                    prop_assert_eq!(oracles(&lazy), oracles(&eager));
                    if !lazy.dirty[b] {
                        prop_assert_eq!(lazy.cached(b), lazy.evaluate(&params, &model, b));
                    }
                }
                prop_assert_eq!(lazy.encoded(&params, &model), eager.encoded(&params, &model));
            }
        }
    }

    fn setup() -> (AggregateState, ChipParams, AnalyticModel, StdRng) {
        let params = ChipParams::default();
        let model = AnalyticModel::from_chip(&params, 8);
        let state = AggregateState::new(2, 8, 1024, 2, &params, &model);
        (state, params, model, StdRng::seed_from_u64(7))
    }

    fn program_all(state: &mut AggregateState) {
        for page in 0..16 {
            state.program_page(0, page, &[]).unwrap();
        }
    }

    #[test]
    fn fast_forward_reads_touch_no_rng() {
        let (mut state, params, model, mut rng) = setup();
        program_all(&mut state);
        // Fresh block, wide margin: every read must be served cached.
        let margin = Some(40u64);
        let before = rng.clone();
        for i in 0..10_000u64 {
            let out = state
                .read_page(&params, &model, &mut rng, margin, 0, (i % 16) as u32, true)
                .unwrap();
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
        let (mut state, params, model, mut rng) = setup();
        program_all(&mut state);
        let before = rng.clone();
        state.read_page(&params, &model, &mut rng, None, 0, 0, true).unwrap();
        let mut a = before;
        assert_ne!(
            rand::Rng::gen::<u64>(&mut a),
            rand::Rng::gen::<u64>(&mut rng),
            "margin-less reads must sample live"
        );
    }

    #[test]
    fn margin_proximity_switches_to_live_sampling() {
        let (mut state, params, model, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        state.apply_read_disturbs(&params, &model, 0, 2_000_000);
        // Expected errors now approach/exceed a tight margin: must sample.
        let out = state.read_page(&params, &model, &mut rng, Some(4), 0, 0, false).unwrap();
        assert!(state.sampling[0], "worn+disturbed block must leave fast-forward mode");
        let _ = out;
    }

    #[test]
    fn summary_tracks_expectation_across_horizons() {
        let (mut state, params, model, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        // Wide margin keeps the block in fast-forward mode; the served
        // count must track the closed-form expectation within rounding.
        for _ in 0..200_000u64 {
            let out = state.read_page(&params, &model, &mut rng, Some(10_000), 0, 0, true).unwrap();
            let expect = state.rber_block(0) * 1024.0;
            let served = out.stats.errors as f64;
            assert!(
                (served - expect).abs() <= 1.0,
                "served {served} drifted from expectation {expect:.2}"
            );
        }
        assert!(state.rber_block(0) > state.static_rber[0], "disturb must accumulate");
    }

    #[test]
    fn matches_analytic_uniform_disturb_closed_form() {
        let (mut state, params, model, _) = setup();
        let mut analytic = crate::analytic_block::AnalyticBlock::new(8, 1024, 2);
        analytic.pre_wear(8_000);
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        let mut rng = StdRng::seed_from_u64(9);
        for page in 0..16 {
            let data = crate::bits::random(&mut rng, 1024);
            analytic.program_page(page, &data).unwrap();
        }
        analytic.apply_read_disturbs(500_000);
        state.apply_read_disturbs(&params, &model, 0, 500_000);
        let (ae, ab) = analytic.rber_expectation(&params, &model);
        let (ge, gb) = state.rber_expectation(&params, &model, 0);
        assert_eq!(ab, gb);
        let rel = (ge / ae - 1.0).abs();
        assert!(rel < 1e-9, "uniform-disturb closed forms diverged: {ge} vs {ae}");
    }

    /// `refresh_caches` and `read_page_shifted` evaluate the page-analytic
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
                let mut state = AggregateState::new(1, 8, 1024, bpc, params, &model);
                state.pre_wear(0, 8_000);
                for page in 0..8 * bpc {
                    state.program_page(0, page, &[]).unwrap();
                }
                state.advance_days(0, 21.0);
                state.apply_read_disturbs(params, &model, 0, 500_000);
                let fold = params.retry_shifts.iter().fold(
                    state.static_rber[0].to_bits(),
                    |fold, &shift| {
                        let p_err = state.rber_block_shifted(params, &model, 0, shift);
                        fold.wrapping_mul(0x0000_0100_0000_01b3) ^ p_err.to_bits()
                    },
                );
                (spec.name, fold)
            })
            .collect();
        assert_eq!(folded, RECORDED);
    }

    #[test]
    fn relaxed_vpass_forces_sampled_blocking() {
        let (mut state, params, model, mut rng) = setup();
        program_all(&mut state);
        state.set_vpass(0, params.min_vpass);
        let mut blocked = 0u64;
        for _ in 0..64 {
            blocked += state
                .read_page(&params, &model, &mut rng, Some(1_000), 0, 0, false)
                .unwrap()
                .blocked_bitlines;
        }
        assert!(blocked > 0, "expected sampled blocking at minimum Vpass");
        state.set_vpass(0, NOMINAL_VPASS);
        let out = state.read_page(&params, &model, &mut rng, Some(1_000), 0, 0, false).unwrap();
        assert_eq!(out.blocked_bitlines, 0);
    }

    #[test]
    fn shifted_retry_recovers_disturb_errors() {
        let (mut state, params, model, mut rng) = setup();
        state.pre_wear(0, 10_000);
        program_all(&mut state);
        state.apply_read_disturbs(&params, &model, 0, 3_000_000);
        let sum = |state: &mut AggregateState, rng: &mut StdRng, shift: f64| -> u64 {
            (0..32)
                .map(|_| {
                    state
                        .read_page_shifted(&params, &model, rng, 0, 0, shift, false)
                        .unwrap()
                        .stats
                        .errors
                })
                .sum()
        };
        let base = sum(&mut state, &mut rng, 0.0);
        let raised = sum(&mut state, &mut rng, 12.0);
        assert!(
            raised < base,
            "positive retry shift must recover disturb errors ({raised} !< {base})"
        );
    }

    #[test]
    fn program_and_erase_semantics_match_other_tiers() {
        let (mut state, params, model, _) = setup();
        state.program_page(0, 3, &[]).unwrap();
        assert!(state.is_page_programmed(0, 3));
        assert!(matches!(
            state.program_page(0, 3, &[]),
            Err(FlashError::PageAlreadyProgrammed { page: 3 })
        ));
        assert!(matches!(state.program_page(0, 99, &[]), Err(FlashError::PageOutOfRange { .. })));
        assert!(matches!(
            state.program_page(0, 4, &[0u8; 3]),
            Err(FlashError::DataLengthMismatch { .. })
        ));
        state.apply_read_disturbs(&params, &model, 0, 1_000);
        state.advance_days(0, 3.0);
        state.erase(0);
        let st = state.status(0);
        assert_eq!(st.pe_cycles, 1);
        assert_eq!(st.reads_since_erase, 0);
        assert_eq!(st.age_days, 0.0);
        assert_eq!(st.dose, 0.0);
        assert_eq!(st.programmed_pages, 0);
    }
}
