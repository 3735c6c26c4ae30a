//! The closed-form backend of [`crate::ReadFidelity::BlockAggregate`] and
//! [`crate::ReadFidelity::PageAnalytic`] chips: one [`AggregateState`] per
//! die, a struct-of-arrays over its blocks, so the replay hot loop touches a
//! handful of dense lanes instead of per-block objects.
//!
//! A block's error state is a closed-form function of its operating point
//! (P/E cycles, retention age, Vpass — its ledger row) and its disturb
//! dose. An event that moves the operating point (erase, pre-wear, the
//! first program after an erase, ageing, a Vpass change — the chip's
//! "operating point moved" hook) only marks the block *dirty*; the closed
//! form's per-block values — disturb slope, disturb-independent RBER,
//! pass-through blocking probability, some twenty transcendentals — are
//! evaluated by the first read or disturb batch that needs them. The `&self`
//! oracles and `encode_state` evaluate a dirty block's values on the fly
//! and leave it dirty, so a checkpoint carries settled values — the bytes
//! an eager evaluation at every event would have written. A die memoizes
//! the points it has evaluated, keyed by the exact `(pe, age bits, vpass
//! bits)`, and the read-retry [`ShiftPoint`]s, keyed by `(pe, age bits,
//! shift bits)`: a hit is bit-equal to an evaluation (params and model are
//! fixed when the chip is built), and the memos are never checkpointed.
//!
//! The disturb accumulator is **fold-free**: every disturbing read adds
//! `rd_slope(pe, vpass) × weight` at once (the slope in effect *at the
//! read*), so a Vpass change needs no counter folding.
//!
//! # Block-aggregate mode
//!
//! A read's hammer concentration folds into the block accumulator at its
//! wordline's geometry weight, and a read is served one of two ways:
//!
//! * **fast-forward**: the rounded expected error count is precomputed into
//!   a per-block summary together with a *horizon* — the reads-since-erase
//!   count at which the summary could change (the expectation grows by half
//!   a bit) or the ECC margin could plausibly be crossed (computed
//!   analytically by inverting the saturating disturb law). Until the
//!   horizon, a read is O(1): no RNG draw, no payload, no per-wordline work.
//! * **live sampling**: once the block's error expectation comes within a
//!   6-sigma-plus-slack band of the ECC margin (reported by the FTL via
//!   [`crate::Chip::set_read_margin`]), or whenever the pass-through
//!   blocking probability is nonzero (relaxed Vpass — policy probes must
//!   see sampled blocked-bitline counts), reads sample error counts from
//!   the binomial of [`crate::sampler`].
//!
//! With a page ECC capability of 2 bits or fewer (`SsdConfig::small_test`
//! pages, the fleet's drives) the band is open even at zero expected
//! errors, so every read samples. A sampled read with no pass-through
//! blocking and a small mean goes through a **zero-error screen** first:
//! the one uniform the binomial would draw is compared with
//! [`binomial_zero_bound`] at `p_up = (static_rber + lin)·(1 + guard)`, an
//! upper bound on the read's probability that needs no `ln_1p`. Below it
//! the read has no errors; otherwise the same uniform walks the binomial.
//! Outcomes and RNG draws are those of the unscreened read. Reads return
//! empty data, and the per-page intended bits are unavailable
//! (`FidelityUnsupported`).
//!
//! # Page lanes
//!
//! A page-analytic chip's state also keeps **page lanes**: the payloads as
//! programmed (so reads return real data and the engine's payload digest
//! gate still bites), and a fold-free per-wordline disturb adjustment on top
//! of the block accumulator — a read of wordline `w` adds its slope to the
//! block, takes it off `w` (its own reads do not pass-through-stress it) and
//! adds `rd_neighbor_boost ×` the slope to `w`'s neighbours. Such a state
//! never fast-forwards: every read samples its events at the wordline's
//! closed-form RBER through [`sample_events`] into a count-only or a
//! materializing [`ReadSink`], O(errors), with pass-through blocking
//! overlaid so Vpass Tuning's zero-counting probe keeps working.

use rand::rngs::StdRng;
use rand::Rng;

use crate::analytic::{AnalyticModel, ShiftPoint};
use crate::chip::ReadOutcome;
use crate::fidelity::ReadFidelity;
use crate::geometry::Geometry;
use crate::ledger::BlockLedger;
use crate::math::{binomial_from_uniform, binomial_zero_bound};
use crate::params::ChipParams;
use crate::sampler::{sample_binomial, sample_events, ReadScratch, ReadSink, INVERSION_MAX_MEAN};
use crate::wire::{Reader, SnapError, Writer};
use crate::BitErrorStats;

/// Extra slack (in error bits) added to the 6-sigma margin-proximity test.
/// Binomial tails at sub-bit means are wider than the normal approximation
/// suggests, so the band is padded before fast-forwarding is allowed.
const MARGIN_SLACK_BITS: f64 = 2.0;

/// Relative allowance for rounding in the upper bound a screened read puts
/// on its error probability (see [`AggregateState::sample_read`]).
const P_UP_GUARD: f64 = 1.0e-12;

/// Slots of each per-die memo.
const MEMO_SLOTS: usize = 64;

/// The closed form's per-block values at one (pe, age, vpass): what the
/// `slope` / `static_rber` / `blocked_prob` lanes cache.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OperatingPoint {
    slope: f64,
    static_rber: f64,
    blocked_prob: f64,
}

/// The exact inputs of a memoized evaluation: `(pe, age_days.to_bits(),
/// vpass or shift .to_bits())`.
type MemoKey = [u64; 3];

/// [`AggregateState::evaluate`]'s key for block `b` at `vpass`.
fn point_key(ledger: &BlockLedger, b: usize, vpass: f64) -> MemoKey {
    [ledger.pe_cycles[b], ledger.age_days[b].to_bits(), vpass.to_bits()]
}

/// Direct-mapped memo of a closed-form evaluation over the points one die
/// has evaluated. The closed form is a pure function of the key, the chip's
/// params and its model, and the last two are fixed when the chip is built,
/// so a hit is bit-equal to an evaluation. A cache and nothing else: never
/// checkpointed, never restored, not configurable.
#[derive(Debug, Clone)]
struct Memo<V>(Box<[Option<(MemoKey, V)>]>);

impl<V: Copy> Memo<V> {
    fn new() -> Self {
        Self(vec![None; MEMO_SLOTS].into_boxed_slice())
    }

    fn slot([pe, age, third]: MemoKey) -> usize {
        let mixed =
            (pe ^ age.rotate_left(21) ^ third.rotate_left(42)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    fn get(&self, key: MemoKey) -> Option<V> {
        match self.0[Self::slot(key)] {
            Some((held, value)) if held == key => Some(value),
            _ => None,
        }
    }

    fn put(&mut self, key: MemoKey, value: V) {
        self.0[Self::slot(key)] = Some((key, value));
    }
}

/// What only a page-analytic chip's state keeps.
#[derive(Debug, Clone)]
struct PageLanes {
    /// Packed payloads as programmed, `b * pages_per_block + page` (empty
    /// while unprogrammed).
    data: Vec<Vec<u8>>,
    /// Fold-free per-wordline disturb adjustment on top of the block's
    /// accumulator, `b * wordlines + wl`: negative on hammered wordlines,
    /// positive on their neighbours.
    extra: Vec<f64>,
    /// The event sampler's scratch, shared by all blocks.
    scratch: ReadScratch,
}

/// Struct-of-arrays closed-form state for every block of one die; block
/// `b`'s operating point is ledger row `b`.
#[derive(Debug, Clone)]
pub(crate) struct AggregateState {
    bitlines: u32,
    bits_per_cell: u32,
    /// The chip's parameters (for the shifted floor and the hammer boost).
    params: ChipParams,
    /// The chip's closed-form model.
    model: AnalyticModel,
    /// Per-wordline hammer weight: the block-mean disturb of one read of
    /// that wordline in units of the slope — the page lanes' accounting
    /// averaged over the block, `1 + (boost · neighbours − 1) / W`.
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
    memo: Memo<OperatingPoint>,
    /// Read-retry shift points this die has evaluated.
    shifts: Memo<ShiftPoint>,
    /// Payloads and per-wordline disturb: page-analytic chips only.
    pages: Option<PageLanes>,
}

impl AggregateState {
    /// The state of a chip of `geometry`; with page lanes iff `params` asks
    /// for [`ReadFidelity::PageAnalytic`].
    pub(crate) fn new(geometry: Geometry, params: ChipParams) -> Self {
        let n = geometry.blocks as usize;
        let w = geometry.wordlines_per_block as usize;
        let wl_weight: Vec<f64> = (0..w)
            .map(|wl| {
                let neighbours = usize::from(wl > 0) + usize::from(wl + 1 < w);
                1.0 + (params.rd_neighbor_boost * neighbours as f64 - 1.0) / w as f64
            })
            .collect();
        let avg_weight = wl_weight.iter().sum::<f64>() / w as f64;
        let pages = (params.fidelity == ReadFidelity::PageAnalytic).then(|| PageLanes {
            data: vec![Vec::new(); n * geometry.pages_per_block() as usize],
            extra: vec![0.0; n * w],
            scratch: ReadScratch::new(geometry.bitlines),
        });
        Self {
            bitlines: geometry.bitlines,
            bits_per_cell: geometry.bits_per_cell,
            model: AnalyticModel::from_chip(&params, geometry.wordlines_per_block),
            params,
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
            memo: Memo::new(),
            shifts: Memo::new(),
            pages,
        }
    }

    fn wordlines(&self) -> usize {
        self.wl_weight.len()
    }

    fn pages_per_block(&self) -> usize {
        self.wordlines() * self.bits_per_cell as usize
    }

    /// Called after any change to block `b`'s (pe, age, vpass): the
    /// operating-point caches now lag the block and the fast-forward
    /// summary is invalid.
    pub(crate) fn op_point_moved(&mut self, b: usize) {
        self.dirty[b] = true;
        self.invalidate(b);
    }

    /// The closed form at the block's current (pe, age) and `vpass`.
    fn evaluate(&self, ledger: &BlockLedger, b: usize, vpass: f64) -> OperatingPoint {
        let (pe, age) = (ledger.pe_cycles[b], ledger.age_days[b]);
        let model = &self.model;
        OperatingPoint {
            slope: model.rd_slope(pe, vpass),
            static_rber: ShiftPoint::at(&self.params, model, pe, age, 0.0).static_rber,
            blocked_prob: 2.0 * model.rber_passthrough(pe, age, vpass),
        }
    }

    /// Brings a dirty block's cached operating point up to date.
    #[inline]
    fn settle(&mut self, ledger: &BlockLedger, b: usize) {
        if self.dirty[b] {
            self.settle_dirty(ledger, b);
        }
    }

    #[cold]
    fn settle_dirty(&mut self, ledger: &BlockLedger, b: usize) {
        let vpass = ledger.vpass[b];
        let key = point_key(ledger, b, vpass);
        let point = self.memo.get(key).unwrap_or_else(|| {
            let point = self.evaluate(ledger, b, vpass);
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
    fn point(&self, ledger: &BlockLedger, b: usize) -> OperatingPoint {
        self.point_at(ledger, b, ledger.vpass[b])
    }

    /// [`Self::point`] with the block's Vpass at `vpass`: the lanes only
    /// while the block is settled at exactly that Vpass.
    fn point_at(&self, ledger: &BlockLedger, b: usize, vpass: f64) -> OperatingPoint {
        if self.dirty[b] || vpass.to_bits() != ledger.vpass[b].to_bits() {
            let memo = self.memo.get(point_key(ledger, b, vpass));
            return memo.unwrap_or_else(|| self.evaluate(ledger, b, vpass));
        }
        let (slope, static_rber, blocked_prob) =
            (self.slope[b], self.static_rber[b], self.blocked_prob[b]);
        OperatingPoint { slope, static_rber, blocked_prob }
    }

    /// The read-reference `shift`'s point at the block's (pe, age), through
    /// the shift memo.
    fn shift_point(&mut self, ledger: &BlockLedger, b: usize, shift: f64) -> ShiftPoint {
        let (pe, age) = (ledger.pe_cycles[b], ledger.age_days[b]);
        let key = [pe, age.to_bits(), shift.to_bits()];
        self.shifts.get(key).unwrap_or_else(|| {
            let point = ShiftPoint::at(&self.params, &self.model, pe, age, shift);
            self.shifts.put(key, point);
            point
        })
    }

    /// Forces a summary recomputation at the next read.
    fn invalidate(&mut self, b: usize) {
        self.summary_horizon[b] = 0;
        self.sampling[b] = false;
    }

    /// Saturating disturb RBER term of a disturb-linear value.
    fn saturate(&self, lin: f64) -> f64 {
        let rd_sat = self.model.params().rd_sat;
        rd_sat * (lin.max(0.0) / rd_sat).ln_1p()
    }

    /// Saturating disturb RBER term of one wordline: the block's, plus the
    /// wordline's adjustment where there are page lanes.
    fn wordline_rd_term(&self, b: usize, wordline: u32) -> f64 {
        match &self.pages {
            None => self.saturate(self.lin[b]),
            Some(pages) => {
                self.saturate(self.lin[b] + pages.extra[b * self.wordlines() + wordline as usize])
            }
        }
    }

    /// The block's disturb dose: the accumulator, never negative.
    pub(crate) fn dose(&self, b: usize) -> f64 {
        self.lin[b].max(0.0)
    }

    /// Closed-form per-bit RBER of a settled block (pass-through excluded —
    /// that is realized as blocked bitlines at read time).
    fn rber_block(&self, b: usize) -> f64 {
        debug_assert!(!self.dirty[b], "block {b} read through a stale operating point");
        self.static_rber[b] + self.saturate(self.lin[b])
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
        self.summary_horizon[b] = if rd_target <= self.saturate(self.lin[b]) {
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
        // `saturate(lin) ≤ lin` as `ln_1p(x) ≤ x`; the guard covers the few ulps
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

    /// Adds `n` reads of `wordline` to a settled block's accumulators at its
    /// slope: at the wordline's weight without page lanes, to the block and
    /// the wordline's lanes with them.
    #[inline]
    fn add_reads(&mut self, b: usize, wordline: u32, n: u64) {
        let (wl, slope, w) = (wordline as usize, self.slope[b], self.wordlines());
        let Some(pages) = &mut self.pages else {
            self.lin[b] += slope * self.wl_weight[wl] * n as f64;
            return;
        };
        let dose = slope * n as f64;
        self.lin[b] += dose;
        let extra = &mut pages.extra[b * w..(b + 1) * w];
        extra[wl] -= dose;
        let boost = dose * self.params.rd_neighbor_boost;
        if wl > 0 {
            extra[wl - 1] += boost;
        }
        if wl + 1 < w {
            extra[wl + 1] += boost;
        }
    }

    /// Settles the block and, with `disturb`, applies one read of `page`.
    #[inline]
    fn settle_and_disturb(&mut self, ledger: &mut BlockLedger, b: usize, page: u32, disturb: bool) {
        self.settle(ledger, b);
        if disturb {
            self.add_reads(b, page / self.bits_per_cell, 1);
            ledger.reads_since_erase[b] += 1;
        }
    }

    /// Serves a read of an in-range page, at the default references
    /// (`shift` `None`) or shifted ones, disturbing the block: through the
    /// page lanes into sink `S` where there are any, otherwise
    /// [`Self::read_page`] or [`Self::read_page_shifted`].
    // Inlined into the chip's read dispatch, with `read_page`.
    #[inline]
    pub(crate) fn read<S: ReadSink>(
        &mut self,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        margin: Option<u64>,
        b: usize,
        page: u32,
        shift: Option<f64>,
    ) -> ReadOutcome {
        if self.pages.is_some() {
            return self.read_events::<S>(ledger, rng, b, page, shift, true);
        }
        match shift {
            None => self.read_page(ledger, rng, margin, b, page, true),
            Some(shift) => self.read_page_shifted(ledger, rng, b, page, shift, true),
        }
    }

    /// Serves a read of an in-range page without page lanes. Fast-forward
    /// mode costs O(1) with no RNG draw; live mode samples the binomial.
    // Inlined, with `settle_and_disturb`, into the chip's read dispatch: out
    // of line, the fast-forward read costs the call more than its work.
    #[inline]
    fn read_page(
        &mut self,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        margin: Option<u64>,
        b: usize,
        page: u32,
        disturb: bool,
    ) -> ReadOutcome {
        self.settle_and_disturb(ledger, b, page, disturb);
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

    /// Read-retry sample of an in-range page at a uniform reference shift,
    /// without page lanes — always sampled (recovery-ladder entry is a
    /// fast-forward event), at the block-level rate.
    fn read_page_shifted(
        &mut self,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        b: usize,
        page: u32,
        shift: f64,
        disturb: bool,
    ) -> ReadOutcome {
        self.settle_and_disturb(ledger, b, page, disturb);
        let point = self.shift_point(ledger, b, shift);
        self.sample_outcome(rng, b, point.rber(self.saturate(self.lin[b])))
    }

    /// `(p_err, p_block)` of a read of `wordline` of a settled block at
    /// `shift` (`None`: the default references): the per-bit RBER excluding
    /// pass-through errors, and the per-bitline blocking probability.
    fn read_probabilities(
        &mut self,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
        shift: Option<f64>,
    ) -> (f64, f64) {
        let rd = self.wordline_rd_term(b, wordline);
        let p_err = match shift {
            None => self.static_rber[b] + rd,
            Some(shift) => self.shift_point(ledger, b, shift).rber(rd),
        };
        (p_err, self.blocked_prob[b])
    }

    /// Serves a read of an in-range page through the page lanes: a raw
    /// error count sampled around the wordline's closed-form RBER at
    /// `shift` (so a positive retry shift on a disturb-dominated wordline
    /// genuinely recovers errors while paying the shifted misclassification
    /// floor, as the cell-exact sweep does in aggregate), uniformly placed,
    /// overlaid with sampled pass-through blocking. O(errors), plus
    /// whatever the sink `S` does with the events: [`crate::sampler::CountSink`]
    /// leaves [`ReadOutcome::data`] empty, [`crate::sampler::ByteSink`] fills it.
    // Out of line, so the chip's read dispatch stays small for other tiers.
    #[inline(never)]
    fn read_events<S: ReadSink>(
        &mut self,
        ledger: &mut BlockLedger,
        rng: &mut StdRng,
        b: usize,
        page: u32,
        shift: Option<f64>,
        disturb: bool,
    ) -> ReadOutcome {
        self.settle_and_disturb(ledger, b, page, disturb);
        let bpc = self.bits_per_cell;
        let (p_err, p_block) = self.read_probabilities(ledger, b, page / bpc, shift);
        // A blocked bitline cannot conduct, so the cell senses as the top
        // state (P3 on MLC).
        let top = crate::state::state_bit(
            self.params.n_states() - 1,
            (page % bpc) as usize,
            bpc as usize,
        );
        let i = b * self.pages_per_block() + page as usize;
        let pages = self.pages.as_mut().expect("a page read needs page lanes");
        // An unprogrammed page reads back as erased cells (ER stores 1/1).
        let stored = ledger.is_programmed(b, page).then_some(pages.data[i].as_slice());
        let mut sink = S::start(stored, self.bitlines as usize, top);
        let scratch = &mut pages.scratch;
        let blocked_bitlines =
            sample_events(rng, scratch, self.bitlines, p_err, p_block, stored, &mut sink);
        let (errors, data) = sink.finish(stored);
        let stats = BitErrorStats::new(errors, u64::from(self.bitlines));
        ReadOutcome { data, stats, blocked_bitlines }
    }

    /// After the ledger's erase (or pre-wear): no disturb, no payloads.
    pub(crate) fn reset(&mut self, b: usize) {
        self.lin[b] = 0.0;
        let (w, ppb) = (self.wordlines(), self.pages_per_block());
        if let Some(pages) = &mut self.pages {
            pages.data[b * ppb..(b + 1) * ppb].iter_mut().for_each(Vec::clear);
            pages.extra[b * w..(b + 1) * w].fill(0.0);
        }
        self.op_point_moved(b);
    }

    /// Stores the payload of a page the ledger has accepted, where there are
    /// page lanes.
    pub(crate) fn program_page(&mut self, b: usize, page: u32, data: &[u8]) {
        let i = b * self.pages_per_block() + page as usize;
        if let Some(pages) = &mut self.pages {
            pages.data[i].clear();
            pages.data[i].extend_from_slice(data);
        }
    }

    /// A page's payload as programmed (empty while unprogrammed); `None`
    /// without page lanes.
    pub(crate) fn payload(&self, b: usize, page: u32) -> Option<&[u8]> {
        let i = b * self.pages_per_block() + page as usize;
        self.pages.as_ref().map(|pages| pages.data[i].as_slice())
    }

    /// A batch of `n` reads: spread uniformly over the block (`wordline`
    /// `None`), block-level disturb only; or concentrated on one wordline,
    /// into the page lanes where there are any, otherwise into the block
    /// mean at the wordline's geometry weight.
    pub(crate) fn disturb(
        &mut self,
        ledger: &mut BlockLedger,
        b: usize,
        wordline: Option<u32>,
        n: u64,
    ) {
        self.settle(ledger, b);
        match wordline {
            None => self.lin[b] += self.slope[b] * n as f64,
            Some(wordline) => self.add_reads(b, wordline, n),
        }
        ledger.reads_since_erase[b] += n;
        self.invalidate(b);
    }

    /// Expected per-bit RBER of one wordline of the block at `point`,
    /// pass-through errors included (half of a blocked bitline's bits
    /// flip). Without page lanes every wordline has the block-level rate.
    fn rber_with_blocking(&self, point: OperatingPoint, b: usize, wordline: u32) -> f64 {
        point.static_rber + self.wordline_rd_term(b, wordline) + 0.5 * point.blocked_prob
    }

    /// Closed-form `(expected error bits, bits)` of one wordline's
    /// programmed pages at the default references, at `point`.
    fn wordline_expectation(
        &self,
        ledger: &BlockLedger,
        point: OperatingPoint,
        b: usize,
        wordline: u32,
    ) -> (f64, u64) {
        let first = wordline * self.bits_per_cell;
        let pages = (first..first + self.bits_per_cell).filter(|&p| ledger.is_programmed(b, p));
        let bits = pages.count() as u64 * u64::from(self.bitlines);
        if bits == 0 {
            return (0.0, 0);
        }
        (self.rber_with_blocking(point, b, wordline) * bits as f64, bits)
    }

    /// Closed-form expected RBER of one wordline's programmed pages
    /// (pass-through errors included), rounded to whole bits.
    pub(crate) fn rber_wordline_oracle(
        &self,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> BitErrorStats {
        let point = self.point(ledger, b);
        let (expected, bits) = self.wordline_expectation(ledger, point, b, wordline);
        BitErrorStats::new(expected.round() as u64, bits)
    }

    /// Closed-form expected RBER over all programmed pages of the block
    /// with its Vpass at `vpass`, unrounded: `(expected error bits, total
    /// bits)` — summed over the wordlines where there are page lanes.
    pub(crate) fn rber_expectation(
        &self,
        ledger: &BlockLedger,
        b: usize,
        vpass: f64,
    ) -> (f64, u64) {
        let point = self.point_at(ledger, b, vpass);
        if self.pages.is_some() {
            return (0..self.wordlines() as u32)
                .map(|wl| self.wordline_expectation(ledger, point, b, wl))
                .fold((0.0, 0), |(expected, bits), (e, n)| (expected + e, bits + n));
        }
        let bits = ledger.programmed_pages(b) as u64 * self.bitlines as u64;
        (self.rber_with_blocking(point, b, 0) * bits as f64, bits)
    }

    /// Serializes the ledger and every mutable lane into `w`.
    ///
    /// Without page lanes: the ledger lane by lane with every mutable lane,
    /// caches included — fast-forward summaries and sampling flags are part
    /// of the replay-visible state (they gate when RNG draws happen), so
    /// bit-exact resume requires them verbatim rather than recomputed. The
    /// operating-point lanes are written settled — a dirty block's values
    /// evaluated here — so the bytes do not depend on which blocks happen
    /// to have been read, and the dirty flags need no lane.
    ///
    /// With page lanes: one row per block — the ledger row, the payload
    /// count and payloads, then the block accumulator and the wordline
    /// adjustments as folded disturb counters, each followed by zero
    /// pending counters (the row layout of the folded/pending counters this
    /// state replaced).
    pub(crate) fn encode_state(&self, ledger: &BlockLedger, w: &mut Writer) {
        let Some(pages) = &self.pages else {
            let points: Vec<OperatingPoint> =
                (0..self.dirty.len()).map(|b| self.point(ledger, b)).collect();
            let lane = |of: fn(&OperatingPoint) -> f64| points.iter().map(of).collect::<Vec<_>>();
            ledger.encode_lanes(w, |w| {
                w.put_f64s(&self.lin);
                w.put_f64s(&lane(|p| p.slope));
                w.put_f64s(&lane(|p| p.static_rber));
                w.put_f64s(&lane(|p| p.blocked_prob));
                w.put_u64s(&self.summary_errors);
                w.put_u64s(&self.summary_horizon);
                w.put_bools(&self.sampling);
            });
            return;
        };
        let (wls, ppb) = (self.wordlines(), self.pages_per_block());
        let pending = vec![0.0; wls];
        for b in 0..self.dirty.len() {
            ledger.encode_row(b, w, |_| {});
            w.put_u64(ppb as u64);
            pages.data[b * ppb..(b + 1) * ppb].iter().for_each(|data| w.put_bytes(data));
            w.put_f64(self.lin[b]);
            w.put_f64s(&pages.extra[b * wls..(b + 1) * wls]);
            w.put_f64(0.0);
            w.put_f64s(&pending);
        }
    }

    /// Restores what [`Self::encode_state`] wrote into `self`, which must
    /// have been constructed with the same geometry and params; nothing is
    /// restored unless the whole section decodes and fits. In the row
    /// layout, a programmed page's payload must be one page long and an
    /// unprogrammed page's empty, and non-zero pending counters (a
    /// checkpoint of the folded/pending counters) fold in at the restored
    /// row's slope.
    pub(crate) fn restore_state(
        &mut self,
        ledger: &mut BlockLedger,
        r: &mut Reader<'_>,
    ) -> Result<(), SnapError> {
        let (n, wls, ppb) = (self.dirty.len(), self.wordlines(), self.pages_per_block());
        if self.pages.is_none() {
            let (f64_lanes, summary_errors, summary_horizon, sampling) =
                ledger.restore_lanes(r, |r| {
                    let f64_lanes = [r.get_f64s()?, r.get_f64s()?, r.get_f64s()?, r.get_f64s()?];
                    let (errors, horizon, sampling) =
                        (r.get_u64s()?, r.get_u64s()?, r.get_bools()?);
                    let mut lens =
                        f64_lanes.iter().map(Vec::len).chain([errors.len(), horizon.len()]);
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
            return Ok(());
        }
        let mismatch = |what: String| Err(SnapError::Mismatch(format!("analytic block {what}")));
        let mut rows = ledger.clone();
        let (mut data, mut lin, mut extra) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..n {
            rows.restore_row(b, r, |_| Ok(()))?;
            let count = r.get_u64()?;
            if count != ppb as u64 {
                return mismatch(format!("payload count {count} != {ppb}"));
            }
            for page in 0..ppb as u32 {
                let payload = r.get_bytes()?;
                let len = if rows.is_programmed(b, page) { self.bitlines as usize / 8 } else { 0 };
                if payload.len() != len {
                    return mismatch(format!(
                        "page {page} payload {} bytes != {len}",
                        payload.len()
                    ));
                }
                data.push(payload);
            }
            let (folded_lin, folded_extra) = (r.get_f64()?, r.get_f64s()?);
            let (pending_reads, pending_extra) = (r.get_f64()?, r.get_f64s()?);
            if folded_extra.len() != wls || pending_extra.len() != wls {
                return mismatch(format!("wordline lanes != {wls}"));
            }
            let slope = self.model.rd_slope(rows.pe_cycles[b], rows.vpass[b]);
            let fold = |folded: f64, pending: f64| {
                if pending == 0.0 {
                    folded
                } else {
                    folded + slope * pending
                }
            };
            lin.push(fold(folded_lin, pending_reads));
            extra.extend(folded_extra.iter().zip(&pending_extra).map(|(&f, &p)| fold(f, p)));
        }
        *ledger = rows;
        self.lin = lin;
        let pages = self.pages.as_mut().expect("page lanes checked above");
        (pages.data, pages.extra) = (data, extra);
        (0..n).for_each(|b| self.op_point_moved(b));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{gaussian_tail_floor_shifted, RETRY_SHIFT_DECAY, RETRY_SHIFT_GAIN_CAP};
    use crate::error::FlashError;
    use crate::params::NOMINAL_VPASS;
    use crate::sampler::{ByteSink, CountSink};
    use crate::{bits, Chip};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A state with a ledger of its own, moved by the rules the chip
    /// applies.
    #[derive(Debug, Clone)]
    struct Fixture {
        state: AggregateState,
        ledger: BlockLedger,
    }

    impl Fixture {
        /// Without page lanes: `blocks` blocks of 8 wordlines on 1024
        /// bitlines.
        fn new(blocks: u32, bits_per_cell: u32, params: &ChipParams) -> Self {
            let geometry =
                Geometry { blocks, wordlines_per_block: 8, bitlines: 1024, bits_per_cell };
            Self::with(geometry, params, ReadFidelity::BlockAggregate)
        }

        /// With page lanes: one block.
        fn paged(wordlines: u32, bitlines: u32, params: &ChipParams) -> Self {
            let bits_per_cell = params.bits_per_cell();
            let geometry =
                Geometry { blocks: 1, wordlines_per_block: wordlines, bitlines, bits_per_cell };
            Self::with(geometry, params, ReadFidelity::PageAnalytic)
        }

        fn with(geometry: Geometry, params: &ChipParams, fidelity: ReadFidelity) -> Self {
            let params = ChipParams { fidelity, ..params.clone() };
            let empty_writes = fidelity == ReadFidelity::BlockAggregate;
            let ledger = BlockLedger::new(
                geometry.blocks,
                geometry.pages_per_block(),
                geometry.bitlines,
                empty_writes,
            );
            Self { state: AggregateState::new(geometry, params), ledger }
        }

        /// Settles every block: after each mutation, this is the state
        /// that evaluated the closed form eagerly at every event.
        fn settle_all(&mut self) {
            for b in 0..self.state.dirty.len() {
                self.state.settle(&self.ledger, b);
            }
        }

        fn encoded(&self) -> Vec<u8> {
            let mut w = crate::wire::Writer::new();
            self.state.encode_state(&self.ledger, &mut w);
            w.into_bytes()
        }

        /// The empty write of a state without page lanes.
        fn program(&mut self, b: usize, page: u32) -> Result<(), FlashError> {
            self.store(b, page, &[])
        }

        fn store(&mut self, b: usize, page: u32, data: &[u8]) -> Result<(), FlashError> {
            if self.ledger.program(b, page, data)? {
                self.state.op_point_moved(b);
            }
            self.state.program_page(b, page, data);
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

        fn disturb(&mut self, b: usize, n: u64) {
            self.state.disturb(&mut self.ledger, b, None, n);
        }

        fn hammer(&mut self, b: usize, wordline: u32, n: u64) {
            self.state.disturb(&mut self.ledger, b, Some(wordline), n);
        }

        fn read(
            &mut self,
            rng: &mut StdRng,
            margin: Option<u64>,
            b: usize,
            page: u32,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.read_page(ledger, rng, margin, b, page, disturb)
        }

        /// [`Self::read`] without the zero-error screen: a sampled read
        /// goes straight to `sample_outcome` at `rber_block`.
        fn read_reference(
            &mut self,
            rng: &mut StdRng,
            margin: Option<u64>,
            b: usize,
            page: u32,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.settle_and_disturb(ledger, b, page, disturb);
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
            rng: &mut StdRng,
            b: usize,
            page: u32,
            shift: f64,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.read_page_shifted(ledger, rng, b, page, shift, disturb)
        }

        /// A read of block 0 through the page lanes into sink `S`.
        fn read_events<S: ReadSink>(
            &mut self,
            rng: &mut StdRng,
            page: u32,
            shift: Option<f64>,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { state, ledger } = self;
            state.read_events::<S>(ledger, rng, 0, page, shift, disturb)
        }

        /// A default-reference materializing page read of block 0.
        fn read_bytes(&mut self, rng: &mut StdRng, page: u32, disturb: bool) -> ReadOutcome {
            self.read_events::<ByteSink>(rng, page, None, disturb)
        }

        /// Block 0's `(p_err, p_block)` for a read of `wordline` at `shift`.
        fn probabilities(&mut self, wordline: u32, shift: Option<f64>) -> (f64, f64) {
            self.state.settle(&self.ledger, 0);
            self.state.read_probabilities(&self.ledger, 0, wordline, shift)
        }

        fn status(&self, b: usize) -> crate::BlockStatus {
            self.ledger.status(b, self.state.dose(b))
        }

        fn expectation(&self, b: usize) -> (f64, u64) {
            self.state.rber_expectation(&self.ledger, b, self.ledger.vpass[b])
        }

        fn oracle(&self, b: usize) -> BitErrorStats {
            let (expected, bits) = self.expectation(b);
            BitErrorStats::new(expected.round() as u64, bits)
        }

        fn oracle_wordline(&self, b: usize, wordline: u32) -> BitErrorStats {
            self.state.rber_wordline_oracle(&self.ledger, b, wordline)
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
                    return Some(twin.read(rng, margin, block, page, disturb));
                }
                Op::Read { block, page, disturb } => {
                    return Some(twin.read_reference(rng, margin, block, page, disturb));
                }
                Op::ShiftedRead { block, page, shift } => {
                    return Some(twin.read_shifted(rng, block, page, shift, true));
                }
                Op::PreWear { block, cycles } => twin.pre_wear(block, cycles),
                Op::AdvanceDays { days } => {
                    for block in 0..TWIN_BLOCKS {
                        twin.advance_days(block, days);
                    }
                }
                Op::SetVpass { block, vpass } => twin.set_vpass(block, vpass),
                Op::Disturbs { block, n } => twin.disturb(block, n),
                Op::Hammer { block, wordline, n } => twin.hammer(block, wordline, n),
                Op::EncodeRestore => {
                    let bytes = twin.encoded();
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
            eager.settle_all();
            let mut lazy_rng = StdRng::seed_from_u64(seed);
            let mut eager_rng = lazy_rng.clone();
            for draw in draws {
                let op = Op::decode(draw, &params);
                let got = op.apply(&mut lazy, &params, &mut lazy_rng, margin, true);
                let expected = op.apply(&mut eager, &params, &mut eager_rng, margin, false);
                eager.settle_all();
                prop_assert_eq!(got, expected);
                prop_assert_eq!(lazy_rng.state(), eager_rng.state());
                for b in 0..TWIN_BLOCKS {
                    let oracles = |s: &Fixture| {
                        let (expected, bits) = s.expectation(b);
                        (
                            expected.to_bits(),
                            bits,
                            (0..8).map(|wl| s.oracle_wordline(b, wl)).collect::<Vec<_>>(),
                            s.status(b),
                        )
                    };
                    prop_assert_eq!(oracles(&lazy), oracles(&eager));
                    if !lazy.state.dirty[b] {
                        prop_assert_eq!(
                            lazy.state.point(&lazy.ledger, b),
                            lazy.state.evaluate(&lazy.ledger, b, lazy.ledger.vpass[b])
                        );
                    }
                }
                prop_assert_eq!(lazy.encoded(), eager.encoded());
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
        let (mut state, _, mut rng) = setup();
        program_all(&mut state);
        // Fresh block, wide margin: every read must be served cached.
        let margin = Some(40u64);
        let before = rng.clone();
        for i in 0..10_000u64 {
            let out = state.read(&mut rng, margin, 0, (i % 16) as u32, true);
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
        let (mut state, _, mut rng) = setup();
        program_all(&mut state);
        let before = rng.clone();
        state.read(&mut rng, None, 0, 0, true);
        let mut a = before;
        assert_ne!(
            rand::Rng::gen::<u64>(&mut a),
            rand::Rng::gen::<u64>(&mut rng),
            "margin-less reads must sample live"
        );
    }

    #[test]
    fn margin_proximity_switches_to_live_sampling() {
        let (mut state, _, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        state.disturb(0, 2_000_000);
        // Expected errors now approach/exceed a tight margin: must sample.
        state.read(&mut rng, Some(4), 0, 0, false);
        assert!(state.state.sampling[0], "worn+disturbed block must leave fast-forward mode");
    }

    #[test]
    fn summary_tracks_expectation_across_horizons() {
        let (mut state, _, mut rng) = setup();
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        // Wide margin keeps the block in fast-forward mode; the served
        // count must track the closed-form expectation within rounding.
        for _ in 0..200_000u64 {
            let out = state.read(&mut rng, Some(10_000), 0, 0, true);
            let expect = state.state.rber_block(0) * 1024.0;
            let served = out.stats.errors as f64;
            assert!(
                (served - expect).abs() <= 1.0,
                "served {served} drifted from expectation {expect:.2}"
            );
        }
        assert!(state.state.rber_block(0) > state.state.static_rber[0], "disturb must accumulate");
    }

    /// Under uniformly spread disturb the page lanes hold no wordline
    /// adjustment, and the per-wordline expectation summed over the block
    /// is the block-level one.
    #[test]
    fn matches_analytic_uniform_disturb_closed_form() {
        let (mut state, params, _) = setup();
        let mut paged = Fixture::paged(8, 1024, &params);
        paged.pre_wear(0, 8_000);
        state.pre_wear(0, 8_000);
        program_all(&mut state);
        let mut rng = StdRng::seed_from_u64(9);
        for page in 0..16 {
            paged.store(0, page, &bits::random(&mut rng, 1024)).unwrap();
        }
        paged.disturb(0, 500_000);
        state.disturb(0, 500_000);
        assert_eq!(paged.status(0), state.status(0));
        let (ae, ab) = paged.expectation(0);
        let (ge, gb) = state.expectation(0);
        assert_eq!(ab, gb);
        let rel = (ge / ae - 1.0).abs();
        assert!(rel < 1e-9, "uniform-disturb closed forms diverged: {ge} vs {ae}");
    }

    /// `evaluate` and `read_page_shifted` evaluate the shared
    /// [`ShiftPoint`]. Per database chip: `static_rber` and the shifted
    /// per-bit RBER at each of its retry shifts, folded over their bits,
    /// against the values the aggregate tier's own two spellings of the sum
    /// gave on ae93447.
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
                state.disturb(0, 500_000);
                let (pe, age) = (state.ledger.pe_cycles[0], state.ledger.age_days[0]);
                let fold = params.retry_shifts.iter().fold(
                    state.state.static_rber[0].to_bits(),
                    |fold, &shift| {
                        let point = ShiftPoint::at(params, &model, pe, age, shift);
                        let p_err = point.rber(state.state.saturate(state.state.lin[0]));
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
        fixture.disturb(1, 100_000);
        fixture.disturb(2, 10_000_000);
        for b in 0..3 {
            let (mut screened, mut reference) = (fixture.clone(), fixture.clone());
            let mut rng = StdRng::seed_from_u64(11);
            let mut reference_rng = rng.clone();
            let mut zeros = 0;
            for i in 0..4_000u32 {
                let got = screened.read(&mut rng, None, b, i % 16, true);
                let expected = reference.read_reference(&mut reference_rng, None, b, i % 16, true);
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
        fixture.settle_all();
        let lanes = |f: &Fixture, b: usize| {
            let s = &f.state;
            [s.slope[b], s.static_rber[b], s.blocked_prob[b]].map(f64::to_bits)
        };
        assert_eq!(lanes(&fixture, 0), lanes(&fixture, 1));
        for b in 0..3 {
            let fresh = fixture.state.evaluate(&fixture.ledger, b, fixture.ledger.vpass[b]);
            assert_eq!(fixture.state.point(&fixture.ledger, b), fresh);
        }
        let key = |b: usize| point_key(&fixture.ledger, b, fixture.ledger.vpass[b]);
        let shared = key(0);
        assert_ne!(shared, key(2));
        let planted = OperatingPoint { slope: 1.0, static_rber: 0.25, blocked_prob: 0.0 };
        fixture.state.memo.put(shared, planted);
        for b in 0..3 {
            fixture.state.op_point_moved(b);
        }
        assert_eq!(fixture.state.point(&fixture.ledger, 1), planted);
        fixture.settle_all();
        for b in 0..2 {
            assert_eq!(fixture.state.point(&fixture.ledger, b), planted);
        }
        let own = fixture.state.evaluate(&fixture.ledger, 2, fixture.ledger.vpass[2]);
        assert_ne!(own, planted);
        assert_eq!(fixture.state.point(&fixture.ledger, 2), own);
    }

    #[test]
    fn relaxed_vpass_forces_sampled_blocking() {
        let (mut state, params, mut rng) = setup();
        program_all(&mut state);
        state.set_vpass(0, params.min_vpass);
        let mut blocked = 0u64;
        for _ in 0..64 {
            blocked += state.read(&mut rng, Some(1_000), 0, 0, false).blocked_bitlines;
        }
        assert!(blocked > 0, "expected sampled blocking at minimum Vpass");
        state.set_vpass(0, NOMINAL_VPASS);
        let out = state.read(&mut rng, Some(1_000), 0, 0, false);
        assert_eq!(out.blocked_bitlines, 0);
    }

    #[test]
    fn shifted_retry_recovers_disturb_errors() {
        let (mut state, _, mut rng) = setup();
        state.pre_wear(0, 10_000);
        program_all(&mut state);
        state.disturb(0, 3_000_000);
        let sum = |state: &mut Fixture, rng: &mut StdRng, shift: f64| -> u64 {
            (0..32).map(|_| state.read_shifted(rng, 0, 0, shift, false).stats.errors).sum()
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
        use crate::Geometry;
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

    // ---- page lanes ----

    /// One page-laned block of 8 wordlines on 1024 MLC bitlines.
    fn paged_setup() -> (Fixture, ChipParams, StdRng) {
        let params = ChipParams::default();
        (Fixture::paged(8, 1024, &params), params, StdRng::seed_from_u64(7))
    }

    fn store_all(fixture: &mut Fixture, rng: &mut StdRng) {
        for page in 0..16 {
            fixture.store(0, page, &bits::random(rng, 1024)).unwrap();
        }
    }

    #[test]
    fn program_read_round_trip_is_near_clean_when_fresh() {
        let (mut block, _, mut rng) = paged_setup();
        let data = bits::random(&mut rng, 1024);
        block.store(0, 4, &data).unwrap();
        assert_eq!(block.state.payload(0, 4), Some(data.as_slice()));
        let out = block.read_bytes(&mut rng, 4, true);
        // Fresh block at 0 P/E: expected errors ≪ 1.
        assert!(out.stats.errors <= 2, "fresh analytic read had {} errors", out.stats.errors);
        assert_eq!(out.blocked_bitlines, 0, "no blocking at nominal Vpass");
        assert_eq!(block.status(0).reads_since_erase, 1);
    }

    /// Program validation on the page-analytic chip refuses exactly what
    /// the cell-exact chip refuses.
    #[test]
    fn program_validation_matches_exact_block() {
        use crate::Geometry;
        let data = bits::random(&mut StdRng::seed_from_u64(2024), 512);
        let outcomes = [ReadFidelity::CellExact, ReadFidelity::PageAnalytic].map(|tier| {
            let mut chip = Chip::with_fidelity(Geometry::small(), ChipParams::default(), 5, tier);
            chip.program_page(0, 0, &data).unwrap();
            let double = chip.program_page(0, 0, &data);
            assert!(matches!(double, Err(FlashError::PageAlreadyProgrammed { page: 0 })), "{tier}");
            let range = chip.program_page(0, 99, &data);
            assert!(matches!(range, Err(FlashError::PageOutOfRange { .. })), "{tier}");
            let short = chip.program_page(0, 1, &[0u8; 3]);
            assert!(matches!(short, Err(FlashError::DataLengthMismatch { .. })), "{tier}");
            let unwritten = chip.intended_page_bits(0, 2);
            assert!(matches!(unwritten, Err(FlashError::PageNotProgrammed { .. })), "{tier}");
            (double, range, short, unwritten, chip.block_status(0).unwrap().programmed_pages)
        });
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn erase_resets_state_and_increments_wear() {
        use crate::Geometry;
        let mut chip = Chip::with_fidelity(
            Geometry::small(),
            ChipParams::default(),
            5,
            ReadFidelity::PageAnalytic,
        );
        chip.program_block_random(0, 1).unwrap();
        chip.apply_read_disturbs(0, 1_000).unwrap();
        chip.advance_days(3.0);
        chip.erase_block(0).unwrap();
        let st = chip.block_status(0).unwrap();
        assert_eq!(st.pe_cycles, 1);
        assert_eq!(st.reads_since_erase, 0);
        assert_eq!(st.age_days, 0.0);
        assert_eq!(st.dose, 0.0);
        assert_eq!(st.programmed_pages, 0);
        assert!(!chip.is_page_programmed(0, 0).unwrap());
    }

    #[test]
    fn disturb_raises_expected_rber() {
        let (mut block, _, mut rng) = paged_setup();
        block.pre_wear(0, 8_000);
        store_all(&mut block, &mut rng);
        let r0 = block.oracle(0).rate();
        block.disturb(0, 250_000);
        let r1 = block.oracle(0).rate();
        block.disturb(0, 750_000);
        let r2 = block.oracle(0).rate();
        assert!(r0 < r1 && r1 < r2, "{r0} {r1} {r2}");
    }

    #[test]
    fn sampled_errors_track_expectation() {
        let (mut block, _, mut rng) = paged_setup();
        block.pre_wear(0, 8_000);
        store_all(&mut block, &mut rng);
        block.disturb(0, 500_000);
        let expect = block.probabilities(3, None).0 * 1024.0;
        let n_reads = 400usize;
        let mut total = 0u64;
        for _ in 0..n_reads {
            // Oracle reads: no extra disturb, so the expectation is fixed.
            total += block.read_bytes(&mut rng, 6, false).stats.errors;
        }
        let mean = total as f64 / n_reads as f64;
        assert!(
            (0.7..=1.4).contains(&(mean / expect)),
            "sampled mean {mean:.2} vs expectation {expect:.2}"
        );
    }

    #[test]
    fn hammer_concentrates_on_neighbours() {
        let (mut block, _, mut rng) = paged_setup();
        block.pre_wear(0, 8_000);
        store_all(&mut block, &mut rng);
        block.hammer(0, 4, 500_000);
        let neighbour = block.oracle_wordline(0, 5).rate();
        let distant = block.oracle_wordline(0, 1).rate();
        let hammered = block.oracle_wordline(0, 4).rate();
        assert!(neighbour > distant, "neighbour {neighbour:.3e} vs distant {distant:.3e}");
        assert!(hammered < distant, "hammered {hammered:.3e} vs distant {distant:.3e}");
    }

    #[test]
    fn vpass_fold_preserves_accumulated_disturb() {
        let (mut block, _, mut rng) = paged_setup();
        block.pre_wear(0, 8_000);
        store_all(&mut block, &mut rng);
        block.disturb(0, 100_000);
        block.hammer(0, 2, 30_000);
        let before = (block.status(0).dose, block.oracle_wordline(0, 3));
        // Lowering Vpass must not erase the disturb damage already done
        // (pass-through errors do rise — that is the physics, not history).
        block.set_vpass(0, 0.96 * NOMINAL_VPASS);
        assert_eq!(block.status(0).dose, before.0, "a Vpass change rewrote history");
        block.set_vpass(0, NOMINAL_VPASS);
        assert_eq!((block.status(0).dose, block.oracle_wordline(0, 3)), before);
        // …but future reads at the lower Vpass accumulate disturb slower.
        let mut low = block.clone();
        low.set_vpass(0, 0.96 * NOMINAL_VPASS);
        low.disturb(0, 100_000);
        let mut high = block.clone();
        high.disturb(0, 100_000);
        assert!(
            low.status(0).dose < high.status(0).dose,
            "lower Vpass must slow disturb accumulation"
        );
    }

    #[test]
    fn relaxed_vpass_blocks_bitlines_and_nominal_does_not() {
        let (mut block, params, mut rng) = paged_setup();
        store_all(&mut block, &mut rng);
        block.set_vpass(0, params.min_vpass);
        let mut blocked = 0u64;
        for _ in 0..64 {
            blocked += block.read_bytes(&mut rng, 0, false).blocked_bitlines;
        }
        assert!(blocked > 0, "expected sampled blocking at minimum Vpass");
        block.set_vpass(0, NOMINAL_VPASS);
        assert_eq!(block.read_bytes(&mut rng, 0, false).blocked_bitlines, 0);
    }

    /// A page read's error probability re-derived from the ledger row and
    /// the fold-free lanes, every term evaluated afresh (the reference the
    /// settled lanes and the shift memo must reproduce).
    fn p_err_reference(block: &Fixture, params: &ChipParams, wordline: u32, shift: f64) -> f64 {
        let model = &block.state.model;
        let (pe, age_days) = (block.ledger.pe_cycles[0], block.ledger.age_days[0]);
        let extra = block.state.pages.as_ref().unwrap().extra[wordline as usize];
        let lin = (block.state.lin[0] + extra).max(0.0);
        let p = model.params();
        let rd = p.rd_sat * (lin / p.rd_sat).ln_1p();
        let rd_factor = (-shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        let ret_factor = (shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        gaussian_tail_floor_shifted(params, pe, shift)
            + model.rber_pe(pe)
            + model.rber_retention(pe, age_days) * ret_factor
            + rd * rd_factor
    }

    #[test]
    fn op_point_cache_is_bit_identical_to_fresh_evaluation() {
        let (mut block, params, mut rng) = paged_setup();
        block.pre_wear(0, 8_000);
        store_all(&mut block, &mut rng);
        block.advance_days(0, 30.0);
        block.disturb(0, 200_000);
        block.hammer(0, 3, 50_000);
        // The default references, then more distinct shifts than the
        // shift memo has slots, so its evictions are exercised.
        let shifts: Vec<Option<f64>> = std::iter::once(None)
            .chain((0..MEMO_SLOTS + 16).map(|i| Some(i as f64 * 0.75 - 12.0)))
            .collect();
        // Settled lanes and memo hits must consume RNG draws and produce
        // data bit-identically to a clone whose lanes are dirty and whose
        // memos are empty at every step.
        for trial in 0..8 {
            let mut rng_a = StdRng::seed_from_u64(100 + trial);
            let mut rng_b = StdRng::seed_from_u64(100 + trial);
            for (i, &shift) in shifts.iter().cycle().take(2 * shifts.len()).enumerate() {
                let page = [0u32, 6, 7, 12][i % 4];
                let mut cold = block.clone();
                cold.state.op_point_moved(0);
                (cold.state.memo, cold.state.shifts) = (Memo::new(), Memo::new());
                let wl = page / 2;
                assert_eq!(
                    block.probabilities(wl, shift).0.to_bits(),
                    p_err_reference(&block, &params, wl, shift.unwrap_or(0.0)).to_bits(),
                    "shift {shift:?}"
                );
                let warm = block.read_events::<ByteSink>(&mut rng_a, page, shift, true);
                let fresh = cold.read_events::<ByteSink>(&mut rng_b, page, shift, true);
                assert_eq!(warm, fresh, "shift {shift:?}");
                assert_eq!(rng_a.state(), rng_b.state());
            }
            // A new operating point every trial.
            block.advance_days(0, 1.0);
        }
    }

    /// Every chip command that moves a page-analytic block's
    /// `(pe_cycles, age_days, vpass)` marks its operating point dirty; the
    /// next read settles it at the new point, and a retry's shift point
    /// comes from the memo at that point.
    #[test]
    fn op_point_movers_drop_the_cache() {
        use crate::Geometry;
        let mut chip = Chip::with_fidelity(
            Geometry::small(),
            ChipParams::default(),
            7,
            ReadFidelity::PageAnalytic,
        );
        let min_vpass = chip.params().min_vpass;
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 1).unwrap();
        chip.advance_days(30.0);
        let warm = |chip: &mut Chip| {
            chip.read_retry_counts(0, 0, 8.0).unwrap();
            let status = chip.block_status(0).unwrap();
            let state = chip.closed_form();
            assert!(!state.dirty[0], "a read settles the block");
            let key = [status.pe_cycles, status.age_days.to_bits(), 8.0f64.to_bits()];
            let point = state.shifts.get(key).expect("shift memoized");
            let fresh =
                ShiftPoint::at(chip.params(), &state.model, status.pe_cycles, status.age_days, 8.0);
            let bits = |p: ShiftPoint| [p.shift, p.static_rber, p.rd_gain].map(f64::to_bits);
            assert_eq!(bits(point), bits(fresh));
            (point, state.slope[0], state.blocked_prob[0])
        };
        let dirty = |chip: &Chip| chip.closed_form().dirty[0];
        let (aged, slope_nominal, _) = warm(&mut chip);
        chip.advance_days(5.0);
        assert!(dirty(&chip), "advance_days must invalidate");
        assert_ne!(aged.static_rber, warm(&mut chip).0.static_rber);
        chip.advance_block_days(0, 1.0).unwrap();
        assert!(dirty(&chip), "advance_block_days must invalidate");
        warm(&mut chip);
        chip.set_block_vpass(0, min_vpass).unwrap();
        assert!(dirty(&chip), "set_block_vpass must invalidate");
        let (_, slope_low, p_block) = warm(&mut chip);
        assert!(p_block > 0.0 && slope_low < slope_nominal);
        let mut w = crate::wire::Writer::new();
        chip.encode_state(&mut w);
        chip.restore_state(&mut crate::wire::Reader::new(&w.into_bytes())).unwrap();
        assert!(dirty(&chip), "restore must invalidate");
        warm(&mut chip);
        chip.cycle_block(0, 10).unwrap();
        assert!(dirty(&chip), "cycle_block must invalidate");
        chip.program_page(0, 0, &bits::random(&mut StdRng::seed_from_u64(3), 512)).unwrap();
        warm(&mut chip);
        chip.erase_block(0).unwrap();
        assert!(dirty(&chip), "erase_block must invalidate");
        // Programming into the erased block restarts the retention clock.
        chip.advance_days(2.0);
        warm(&mut chip);
        chip.program_page(0, 0, &bits::random(&mut StdRng::seed_from_u64(4), 512)).unwrap();
        assert!(dirty(&chip), "the program-age reset must invalidate");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The count-only read is the materializing read minus the bytes:
        /// from the same block state and RNG state it reports the same
        /// counts and leaves the RNG where the materializing read does —
        /// for every database chip, operating point, page and shift.
        #[test]
        fn count_only_read_equals_materializing_read(
            seed in any::<u64>(),
            pe in 0u64..20_000,
            age_days in 0.0f64..60.0,
            pending in 0u64..3_000_000,
            hammered in 0u64..500_000,
            relax in 0.0f64..1.0,
            programmed in any::<bool>(),
            pick in 0usize..64,
        ) {
            for spec in crate::chips::all() {
                let params = spec.params.clone();
                let (wordlines, bitlines, bpc) = (4u32, 1000u32, params.bits_per_cell());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut block = Fixture::paged(wordlines, bitlines, &params);
                block.pre_wear(0, pe);
                let pages = wordlines * bpc;
                let page = pick as u32 % pages;
                for p in (0..pages).filter(|&p| programmed || p != page) {
                    block.store(0, p, &bits::random(&mut rng, bitlines as usize)).unwrap();
                }
                block.advance_days(0, age_days);
                block.disturb(0, pending);
                block.hammer(0, pick as u32 % wordlines, hammered);
                // Half the cases at the fully relaxed Vpass, so bitlines do
                // get blocked (dense overlap is the sampler's property).
                let relax = (2.0 * relax - 1.0).max(0.0);
                let vpass = params.min_vpass + relax * (NOMINAL_VPASS - params.min_vpass);
                block.set_vpass(0, vpass);
                let shifts: Vec<Option<f64>> = std::iter::once(None)
                    .chain(params.retry_shifts.iter().map(|&s| Some(s)))
                    .chain(params.reread_va_raises.iter().map(|&s| Some(s)))
                    .collect();
                let shift = shifts[pick % shifts.len()];

                let (mut counted, mut rng_c) = (block.clone(), rng.clone());
                let counts = counted.read_events::<CountSink>(&mut rng_c, page, shift, true);
                prop_assert!(counts.data.is_empty());
                let counts = counts.counts();
                let bytes = block.read_events::<ByteSink>(&mut rng, page, shift, true);
                prop_assert!(
                    counts == bytes.counts(),
                    "{} shift {shift:?}: {counts:?} vs {:?}", spec.name, bytes.counts()
                );
                prop_assert_eq!(rng_c.state(), rng.state());
                // The materializing side is itself anchored to the bytes.
                let intended = if programmed {
                    block.state.payload(0, page).unwrap().to_vec()
                } else {
                    bits::ones(bitlines as usize)
                };
                let distance = bits::hamming(&bytes.data, &intended);
                prop_assert_eq!(distance, bytes.stats.errors);
            }
        }
    }
}
