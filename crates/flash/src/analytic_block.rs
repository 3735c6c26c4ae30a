//! Page-analytic block state: the [`crate::ReadFidelity::PageAnalytic`]
//! backend of [`crate::Chip`].
//!
//! Instead of per-cell threshold voltages, a block keeps only — beside its
//! operating point (P/E cycles, retention age, Vpass) and programmed pages,
//! which are the chip's block-ledger row —
//!
//! * the packed **page payloads** as programmed (so reads return real data
//!   and the engine's payload digest gate still bites), and
//! * **batched disturb counters**: reads are accumulated per block plus a
//!   per-wordline adjustment (hammer concentration on neighbours), and are
//!   folded into the analytic disturb term lazily — only when the Vpass
//!   changes, because the per-read disturb slope depends on the Vpass in
//!   effect when the read happened.
//!
//! A page read then costs O(errors), not O(cells): the raw bit error count
//! is sampled from a binomial around the closed-form RBER of
//! [`crate::analytic::AnalyticModel`] (the model the calibration suite pins
//! to the Monte-Carlo chip within ±35–60%), error positions are sampled
//! uniformly, and blocked bitlines (pass-through failures at a relaxed
//! Vpass) are sampled from the same model's pass-through term so Vpass
//! Tuning's zero-counting probe keeps working.
//!
//! # Count-first reads
//!
//! [`AnalyticBlock::read`] draws a read's events once — same RNG draws in
//! the same order whoever asks — and feeds them to a [`ReadSink`]:
//!
//! * [`CountSink`] — what a controller's ECC reports, with no page buffer.
//!   A flipped bitline is one error unless blocking overrides it, and a
//!   blocked bitline senses the top state, so `errors = flips −
//!   |flips ∩ blocked| + |{blocked : stored bit ≠ top bit}|` in
//!   O(flips + blocked). The recovery ladder, the tuner's probes and host
//!   reads nobody observes take this path ([`crate::Chip::read_page_counts`]).
//! * [`ByteSink`] — applies the events to a copy of the stored page and
//!   counts errors by Hamming distance, for callers that want the sensed
//!   bytes ([`crate::Chip::read_page`], [`crate::Chip::read_retry`]).
//!
//! # Operating-point cache
//!
//! Every closed-form term that does not depend on the read counters is
//! cached per block ([`OpPoint`]), the shift-dependent ones per distinct
//! read-reference shift ([`ShiftPoint`], the evaluation the block-aggregate
//! tier shares; the default read is shift 0). A
//! cached term is the value the uncached expression produces, and the
//! per-read sum adds the same partial sums in the same left-to-right order,
//! so cached reads are bit-identical to fresh evaluation. Whatever changes
//! `(pe_cycles, age_days, vpass)` drops the whole cache: the chip calls
//! [`AnalyticBlock::op_point_moved`] (or [`AnalyticBlock::reset`]) after
//! every such ledger change.

use rand::rngs::StdRng;
use rand::Rng;

use crate::analytic::{AnalyticModel, ShiftPoint};
use crate::bits;
use crate::chip::ReadOutcome;
use crate::ledger::BlockLedger;
use crate::noise::retention;
use crate::params::ChipParams;
use crate::wire::{Reader, SnapError, Writer};
use crate::BitErrorStats;

/// Distinct read-reference shifts cached per block: the default read plus
/// the retry ladder's. More than this many in rotation only costs
/// re-evaluation (the oldest entry is overwritten).
const SHIFT_CACHE: usize = 8;

/// An empty cache slot: its shift is never equal to a requested one.
const EMPTY_SLOT: ShiftPoint = ShiftPoint { shift: f64::NAN, static_rber: 0.0, rd_gain: 0.0 };

/// Operating-point constants of a block: every closed-form term that
/// depends only on `(pe_cycles, age_days, vpass)` and the read-reference
/// shift, not on the read counters. Reads within a batch share the
/// operating point, so hoisting these leaves only the disturb-linear fold
/// (one multiply-add and an `ln_1p`) on the per-read path.
#[derive(Debug, Clone)]
struct OpPoint {
    /// Per-read disturb slope at the current Vpass.
    slope: f64,
    /// Per-bitline pass-through blocking probability at the current Vpass.
    blocked_prob: f64,
    /// Shift points evaluated since the last invalidation.
    shifts: [ShiftPoint; SHIFT_CACHE],
    /// Shift points evaluated so far; the next one lands in slot
    /// `evaluated % SHIFT_CACHE`.
    evaluated: usize,
}

/// One flash block of the page-analytic chip model; its operating point is
/// ledger row `b`.
#[derive(Debug, Clone)]
pub(crate) struct AnalyticBlock {
    wordlines: u32,
    bitlines: u32,
    bits_per_cell: u32,
    /// Packed page payloads as programmed (empty while unprogrammed).
    page_data: Vec<Vec<u8>>,
    /// Read-disturb linear term accumulated at *past* Vpass settings:
    /// `Σ rd_slope(pe, vpass_at_read) · reads`, block-uniform part.
    folded_lin: f64,
    /// Folded per-wordline adjustment on top of [`Self::folded_lin`].
    folded_extra: Vec<f64>,
    /// Block-uniform reads not yet folded (all at the current Vpass).
    pending_reads: f64,
    /// Per-wordline read adjustments not yet folded: negative on hammered
    /// wordlines (their own reads do not pass-through-stress them),
    /// positive on hammer neighbours.
    pending_extra: Vec<f64>,
    /// Lazily computed operating-point constants (shift points included);
    /// dropped by [`Self::op_point_moved`] whenever `pe_cycles`,
    /// `age_days`, or `vpass` changes. Never serialized — a restored block
    /// recomputes on first read.
    op_cache: Option<OpPoint>,
}

impl AnalyticBlock {
    pub(crate) fn new(wordlines: u32, bitlines: u32, bits_per_cell: u32) -> Self {
        Self {
            wordlines,
            bitlines,
            bits_per_cell,
            page_data: vec![Vec::new(); (wordlines * bits_per_cell) as usize],
            folded_lin: 0.0,
            folded_extra: vec![0.0; wordlines as usize],
            pending_reads: 0.0,
            pending_extra: vec![0.0; wordlines as usize],
            op_cache: None,
        }
    }

    /// `(p_err, p_block)` of one read of `wordline` at `shift`: the per-bit
    /// RBER excluding pass-through errors, and the per-bitline blocking
    /// probability. Only the disturb fold is evaluated per read; the rest
    /// comes from the operating-point cache, filled on first use after a
    /// `(pe_cycles, age_days, vpass)` change.
    fn read_probabilities(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
        shift: f64,
    ) -> (f64, f64) {
        let (pe, age_days, vpass) = (ledger.pe_cycles[b], ledger.age_days[b], ledger.vpass[b]);
        let op = self.op_cache.get_or_insert_with(|| OpPoint {
            slope: model.rd_slope(pe, vpass),
            blocked_prob: 2.0 * model.rber_passthrough(pe, age_days, vpass),
            shifts: [EMPTY_SLOT; SHIFT_CACHE],
            evaluated: 0,
        });
        let point = match op.shifts.iter().find(|s| s.shift == shift) {
            Some(&cached) => cached,
            None => {
                let fresh = ShiftPoint::at(params, model, pe, age_days, shift);
                op.shifts[op.evaluated % SHIFT_CACHE] = fresh;
                op.evaluated += 1;
                fresh
            }
        };
        let (slope, blocked_prob) = (op.slope, op.blocked_prob);
        (point.rber(self.rd_term(model, slope, wordline)), blocked_prob)
    }

    /// After the ledger's erase (or pre-wear): no payloads, no disturb.
    pub(crate) fn reset(&mut self) {
        for d in &mut self.page_data {
            d.clear();
        }
        self.folded_lin = 0.0;
        self.folded_extra.fill(0.0);
        self.pending_reads = 0.0;
        self.pending_extra.fill(0.0);
        self.op_cache = None;
    }

    /// The block's `(pe_cycles, age_days, vpass)` moved: drop the cache.
    pub(crate) fn op_point_moved(&mut self) {
        self.op_cache = None;
    }

    /// Folds the pending read counters into the disturb term at the Vpass
    /// they were accumulated under; the chip calls this before it moves
    /// the block's Vpass.
    pub(crate) fn fold_pending(&mut self, model: &AnalyticModel, ledger: &BlockLedger, b: usize) {
        let slope = model.rd_slope(ledger.pe_cycles[b], ledger.vpass[b]);
        self.folded_lin += slope * self.pending_reads;
        self.pending_reads = 0.0;
        for (folded, pending) in self.folded_extra.iter_mut().zip(&mut self.pending_extra) {
            *folded += slope * *pending;
            *pending = 0.0;
        }
    }

    /// Saturating disturb RBER term of one wordline, pending reads included
    /// (they accrue at `slope`, the per-read slope at the current Vpass).
    fn rd_term(&self, model: &AnalyticModel, slope: f64, wordline: u32) -> f64 {
        let wl = wordline as usize;
        let lin = (self.folded_lin
            + self.folded_extra[wl]
            + slope * (self.pending_reads + self.pending_extra[wl]))
            .max(0.0);
        let p = model.params();
        p.rd_sat * (lin / p.rd_sat).ln_1p()
    }

    /// Block-uniform disturb linear term (the [`crate::BlockStatus::dose`]
    /// analogue).
    pub(crate) fn dose(&self, model: &AnalyticModel, ledger: &BlockLedger, b: usize) -> f64 {
        let slope = model.rd_slope(ledger.pe_cycles[b], ledger.vpass[b]);
        (self.folded_lin + slope * self.pending_reads).max(0.0)
    }

    /// Uniformly spread reads: block-level disturb only (matches
    /// `Block::apply_read_disturbs`).
    pub(crate) fn apply_read_disturbs(&mut self, ledger: &mut BlockLedger, b: usize, n: u64) {
        self.pending_reads += n as f64;
        ledger.reads_since_erase[b] += n;
    }

    /// Reads concentrated on one wordline: neighbours get boosted disturb,
    /// the target none from its own reads (matches `Block::hammer_wordline`).
    pub(crate) fn hammer_wordline(
        &mut self,
        params: &ChipParams,
        ledger: &mut BlockLedger,
        b: usize,
        wordline: u32,
        n: u64,
    ) {
        self.apply_read_disturbs(ledger, b, n);
        let wl = wordline as usize;
        self.pending_extra[wl] -= n as f64;
        let boost = n as f64 * params.rd_neighbor_boost;
        if wl > 0 {
            self.pending_extra[wl - 1] += boost;
        }
        if wl + 1 < self.wordlines as usize {
            self.pending_extra[wl + 1] += boost;
        }
    }

    /// Serializes every mutable lane of the block with ledger row `b`
    /// (checkpointing support).
    pub(crate) fn encode_state(&self, ledger: &BlockLedger, b: usize, w: &mut Writer) {
        ledger.encode_row(b, w, |_| {});
        w.put_u64(self.page_data.len() as u64);
        for d in &self.page_data {
            w.put_bytes(d);
        }
        w.put_f64(self.folded_lin);
        w.put_f64s(&self.folded_extra);
        w.put_f64(self.pending_reads);
        w.put_f64s(&self.pending_extra);
    }

    /// Restores a block and ledger row `b` serialized by
    /// [`Self::encode_state`] into `self`, which must have been constructed
    /// with the same geometry. A programmed page's payload must be one page
    /// long, an unprogrammed page's empty.
    pub(crate) fn restore_state(
        &mut self,
        ledger: &mut BlockLedger,
        b: usize,
        r: &mut Reader<'_>,
    ) -> Result<(), SnapError> {
        ledger.restore_row(b, r, |_| Ok(()))?;
        let pages = self.page_data.len();
        let n_data = r.get_u64()? as usize;
        if n_data != pages {
            return Err(SnapError::Mismatch(format!(
                "analytic block payload count {n_data} != {pages}"
            )));
        }
        let mut page_data = Vec::with_capacity(pages);
        for page in 0..pages as u32 {
            let data = r.get_bytes()?;
            let expected =
                if ledger.is_programmed(b, page) { self.bitlines as usize / 8 } else { 0 };
            if data.len() != expected {
                return Err(SnapError::Mismatch(format!(
                    "analytic page {page} payload {} bytes != {expected}",
                    data.len()
                )));
            }
            page_data.push(data);
        }
        let folded_lin = r.get_f64()?;
        let folded_extra = r.get_f64s()?;
        let pending_reads = r.get_f64()?;
        let pending_extra = r.get_f64s()?;
        let wls = self.wordlines as usize;
        if folded_extra.len() != wls || pending_extra.len() != wls {
            return Err(SnapError::Mismatch(format!(
                "analytic block wordline lanes {}/{} != {}",
                folded_extra.len(),
                pending_extra.len(),
                wls
            )));
        }
        self.page_data = page_data;
        self.folded_lin = folded_lin;
        self.folded_extra = folded_extra;
        self.pending_reads = pending_reads;
        self.pending_extra = pending_extra;
        self.op_cache = None;
        Ok(())
    }

    /// Stores the payload of a page the ledger has accepted.
    pub(crate) fn program_page(&mut self, page: u32, data: &[u8]) {
        self.page_data[page as usize].clear();
        self.page_data[page as usize].extend_from_slice(data);
    }

    /// A page's payload as programmed (empty while unprogrammed).
    pub(crate) fn payload(&self, page: u32) -> &[u8] {
        &self.page_data[page as usize]
    }

    /// Serves a read of an in-range page from the analytic model: a raw
    /// error count sampled around the closed-form RBER at read-reference
    /// `shift` (so a positive retry shift on a disturb-dominated wordline
    /// genuinely recovers errors while paying the shifted misclassification
    /// floor, exactly as the cell-exact sweep does in aggregate), uniformly
    /// placed, overlaid with sampled pass-through blocking. O(errors), plus
    /// whatever the sink `S` does with the events: [`CountSink`] leaves
    /// [`ReadOutcome::data`] empty, [`ByteSink`] fills it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read<S: ReadSink>(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        ledger: &mut BlockLedger,
        b: usize,
        rng: &mut StdRng,
        scratch: &mut ReadScratch,
        page: u32,
        shift: f64,
        disturb: bool,
    ) -> ReadOutcome {
        let wl = page / self.bits_per_cell;
        if disturb {
            self.hammer_wordline(params, ledger, b, wl, 1);
        }
        let (p_err, p_block) = self.read_probabilities(params, model, ledger, b, wl, shift);
        // A blocked bitline cannot conduct, so the cell senses as the top
        // state (P3 on MLC).
        let top_bit = crate::state::state_bit(
            params.n_states() - 1,
            (page % self.bits_per_cell) as usize,
            self.bits_per_cell as usize,
        );
        // An unprogrammed page reads back as erased cells (ER stores 1/1).
        let stored = ledger.is_programmed(b, page).then(|| self.payload(page));
        let mut sink = S::start(stored, self.bitlines as usize, top_bit);
        let blocked_bitlines =
            sample_events(rng, scratch, self.bitlines, p_err, p_block, stored, &mut sink);
        let (errors, data) = sink.finish(stored);
        let stats = BitErrorStats::new(errors, u64::from(self.bitlines));
        ReadOutcome { data, stats, blocked_bitlines }
    }

    /// Closed-form `(expected error bits, bits)` of one wordline's
    /// programmed pages at the default references: the uncached evaluation
    /// of what [`Self::read_probabilities`] serves at `shift == 0`, plus the
    /// pass-through errors reads realize as blocked bitlines (a blocked
    /// bitline senses as P3 and flips half its bits on average, so the
    /// per-bitline blocking probability is twice the per-bit RBER).
    fn wordline_expectation(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> (f64, u64) {
        let first = wordline * self.bits_per_cell;
        let pages = (first..first + self.bits_per_cell).filter(|&p| ledger.is_programmed(b, p));
        let bits = pages.count() as u64 * u64::from(self.bitlines);
        if bits == 0 {
            return (0.0, 0);
        }
        let (pe, age_days, vpass) = (ledger.pe_cycles[b], ledger.age_days[b], ledger.vpass[b]);
        let point = ShiftPoint::at(params, model, pe, age_days, 0.0);
        let rber = point.rber(self.rd_term(model, model.rd_slope(pe, vpass), wordline));
        let blocked_prob = 2.0 * model.rber_passthrough(pe, age_days, vpass);
        ((rber + 0.5 * blocked_prob) * bits as f64, bits)
    }

    /// Closed-form expected RBER of one wordline's programmed pages
    /// (pass-through errors included), rounded to whole bits.
    pub(crate) fn rber_wordline_oracle(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        ledger: &BlockLedger,
        b: usize,
        wordline: u32,
    ) -> BitErrorStats {
        let (expected, bits) = self.wordline_expectation(params, model, ledger, b, wordline);
        BitErrorStats::new(expected.round() as u64, bits)
    }

    /// Closed-form expected RBER over all programmed pages of the block,
    /// unrounded: `(expected error bits, total bits)`.
    pub(crate) fn rber_expectation(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        ledger: &BlockLedger,
        b: usize,
    ) -> (f64, u64) {
        (0..self.wordlines)
            .map(|wl| self.wordline_expectation(params, model, ledger, b, wl))
            .fold((0.0, 0), |(expected, bits), (e, n)| (expected + e, bits + n))
    }
}

/// Means below which [`sample_binomial`] inverts one uniform draw.
pub(crate) const INVERSION_MAX_MEAN: f64 = 32.0;

/// Samples `Binomial(n, p)` deterministically from `rng`: exact inverse-CDF
/// from a single uniform draw for small means (the common case — RBERs here
/// are 1e-9..1e-2), a normal approximation for large ones. Always in `0..=n`.
pub(crate) fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if mean < INVERSION_MAX_MEAN {
        // One RNG draw regardless of outcome (the former Knuth product
        // inversion paid one draw per trial), and an exact binomial rather
        // than its Poisson approximation.
        crate::math::binomial_from_uniform(n, p, rng.gen())
    } else {
        let sd = (mean * (1.0 - p)).sqrt();
        let z = retention::sample_standard_normal(rng);
        let k = (mean + sd * z).round();
        (k.max(0.0) as u64).min(n)
    }
}

/// Bitset over bitline indices: the position sampler's rejection set, and
/// what lets the count-only sink see flip/block overlap without a page.
#[derive(Debug, Clone)]
struct BitSet(Vec<u64>);

impl BitSet {
    /// Inserts `i`; `false` if it was already present.
    fn insert(&mut self, i: usize) -> bool {
        let (word, mask) = (&mut self.0[i / 64], 1u64 << (i % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Per-chip sampling scratch, reused by every read so none allocates.
#[derive(Debug, Clone)]
pub(crate) struct ReadScratch {
    flipped: BitSet,
    blocked: BitSet,
}

impl ReadScratch {
    pub(crate) fn new(bitlines: u32) -> Self {
        let empty = BitSet(vec![0; (bitlines as usize).div_ceil(64)]);
        Self { flipped: empty.clone(), blocked: empty }
    }
}

/// Receives the bit events of one sampled read, in draw order. `stored` is
/// the page as programmed, `None` for an erased page (all ones).
pub(crate) trait ReadSink {
    /// Whether the sink keeps the sensed bytes (the cell-exact tier, which
    /// senses states rather than events, assembles them only then).
    const BYTES: bool;
    fn start(stored: Option<&[u8]>, nbits: usize, top_bit: bool) -> Self;
    /// Bitline `bl` senses the complement of its stored bit.
    fn flip(&mut self, bl: usize);
    /// Bitline `bl` (storing `stored_bit`) cannot conduct and senses the top
    /// state's bit, whether or not it was `flipped` before.
    fn block(&mut self, bl: usize, flipped: bool, stored_bit: bool);
    /// `(raw bit errors, sensed bytes if the sink kept any)`.
    fn finish(self, stored: Option<&[u8]>) -> (u64, Vec<u8>);
}

/// Count-only sink: `errors = flips − |flips ∩ blocked| + |{blocked :
/// stored bit ≠ top bit}|`.
pub(crate) struct CountSink {
    top_bit: bool,
    errors: u64,
}

impl ReadSink for CountSink {
    const BYTES: bool = false;
    fn start(_stored: Option<&[u8]>, _nbits: usize, top_bit: bool) -> Self {
        Self { top_bit, errors: 0 }
    }

    fn flip(&mut self, _bl: usize) {
        self.errors += 1;
    }

    fn block(&mut self, _bl: usize, flipped: bool, stored_bit: bool) {
        self.errors = self.errors - u64::from(flipped) + u64::from(stored_bit != self.top_bit);
    }

    fn finish(self, _stored: Option<&[u8]>) -> (u64, Vec<u8>) {
        (self.errors, Vec::new())
    }
}

/// Materializing sink: applies the events to a copy of the stored page and
/// counts errors by comparing the two.
pub(crate) struct ByteSink {
    data: Vec<u8>,
    nbits: usize,
    top_bit: bool,
}

impl ReadSink for ByteSink {
    const BYTES: bool = true;
    fn start(stored: Option<&[u8]>, nbits: usize, top_bit: bool) -> Self {
        Self { data: stored.map_or_else(|| bits::ones(nbits), <[u8]>::to_vec), nbits, top_bit }
    }

    fn flip(&mut self, bl: usize) {
        self.data[bl / 8] ^= 1 << (bl % 8);
    }

    fn block(&mut self, bl: usize, _flipped: bool, _stored_bit: bool) {
        bits::set_bit(&mut self.data, bl, self.top_bit);
    }

    fn finish(self, stored: Option<&[u8]>) -> (u64, Vec<u8>) {
        let errors = match stored {
            Some(stored) => bits::hamming(&self.data, stored),
            // Intended is all-ones: errors are exactly the cleared bits.
            None => self.nbits as u64 - bits::count_ones(&self.data),
        };
        (errors, self.data)
    }
}

/// Draws one read's events into `sink` — the binomial raw error count, that
/// many distinct bitlines, then (at a relaxed Vpass) the blocked count and
/// as many distinct bitlines — and returns the blocked count. The draws do
/// not depend on the sink.
fn sample_events(
    rng: &mut StdRng,
    scratch: &mut ReadScratch,
    bitlines: u32,
    p_err: f64,
    p_block: f64,
    stored: Option<&[u8]>,
    sink: &mut impl ReadSink,
) -> u64 {
    let ReadScratch { flipped, blocked } = scratch;
    let flips = sample_binomial(rng, u64::from(bitlines), p_err);
    for_distinct_positions(rng, bitlines, flips, flipped, |bl| sink.flip(bl));
    if p_block <= 0.0 {
        return 0;
    }
    let n_blocked = sample_binomial(rng, u64::from(bitlines), p_block);
    for_distinct_positions(rng, bitlines, n_blocked, blocked, |bl| {
        sink.block(bl, flipped.contains(bl), stored.is_none_or(|data| bits::get_bit(data, bl)));
    });
    n_blocked
}

/// Invokes `apply` on `k` distinct positions in `0..n`, sampled uniformly
/// by rejection against `chosen` (left holding exactly those positions);
/// `k` is far below `n` at model error rates.
fn for_distinct_positions(
    rng: &mut StdRng,
    n: u32,
    k: u64,
    chosen: &mut BitSet,
    mut apply: impl FnMut(usize),
) {
    chosen.0.fill(0);
    let mut left = k.min(u64::from(n));
    if left == u64::from(n) {
        for bl in 0..n as usize {
            chosen.insert(bl);
            apply(bl);
        }
        return;
    }
    while left > 0 {
        let bl = rng.gen_range(0..n) as usize;
        if chosen.insert(bl) {
            apply(bl);
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{gaussian_tail_floor_shifted, RETRY_SHIFT_DECAY, RETRY_SHIFT_GAIN_CAP};
    use crate::params::NOMINAL_VPASS;
    use crate::{Chip, FlashError, Geometry, ReadFidelity};
    use rand::SeedableRng;

    /// A block with a one-row ledger of its own (row 0), moved by the rules
    /// the chip applies.
    #[derive(Debug, Clone)]
    struct Fixture {
        block: AnalyticBlock,
        ledger: BlockLedger,
    }

    impl Fixture {
        fn new(wordlines: u32, bitlines: u32, bits_per_cell: u32) -> Self {
            let block = AnalyticBlock::new(wordlines, bitlines, bits_per_cell);
            Self { block, ledger: BlockLedger::new(1, wordlines * bits_per_cell, bitlines, false) }
        }

        fn pre_wear(&mut self, cycles: u64) {
            self.ledger.erase(0, cycles);
            self.block.reset();
        }

        fn program(&mut self, page: u32, data: &[u8]) {
            if self.ledger.program(0, page, data).unwrap() {
                self.block.op_point_moved();
            }
            self.block.program_page(page, data);
        }

        fn advance_days(&mut self, days: f64) {
            self.ledger.advance_days(0, days);
            self.block.op_point_moved();
        }

        fn set_vpass(&mut self, model: &AnalyticModel, vpass: f64) {
            self.block.fold_pending(model, &self.ledger, 0);
            self.ledger.vpass[0] = vpass;
            self.block.op_point_moved();
        }

        fn disturb(&mut self, n: u64) {
            self.block.apply_read_disturbs(&mut self.ledger, 0, n);
        }

        fn hammer(&mut self, params: &ChipParams, wordline: u32, n: u64) {
            self.block.hammer_wordline(params, &mut self.ledger, 0, wordline, n);
        }

        fn dose(&self, model: &AnalyticModel) -> f64 {
            self.block.dose(model, &self.ledger, 0)
        }

        #[allow(clippy::too_many_arguments)]
        fn read<S: ReadSink>(
            &mut self,
            params: &ChipParams,
            model: &AnalyticModel,
            rng: &mut StdRng,
            scratch: &mut ReadScratch,
            page: u32,
            shift: f64,
            disturb: bool,
        ) -> ReadOutcome {
            let Self { block, ledger } = self;
            block.read::<S>(params, model, ledger, 0, rng, scratch, page, shift, disturb)
        }

        fn probabilities(
            &mut self,
            params: &ChipParams,
            model: &AnalyticModel,
            wordline: u32,
            shift: f64,
        ) -> (f64, f64) {
            self.block.read_probabilities(params, model, &self.ledger, 0, wordline, shift)
        }

        fn oracle(&self, params: &ChipParams, model: &AnalyticModel) -> BitErrorStats {
            let (expected, bits) = self.block.rber_expectation(params, model, &self.ledger, 0);
            BitErrorStats::new(expected.round() as u64, bits)
        }

        fn oracle_wordline(
            &self,
            params: &ChipParams,
            model: &AnalyticModel,
            wordline: u32,
        ) -> BitErrorStats {
            self.block.rber_wordline_oracle(params, model, &self.ledger, 0, wordline)
        }
    }

    fn setup() -> (Fixture, ChipParams, AnalyticModel, StdRng) {
        let params = ChipParams::default();
        let model = AnalyticModel::from_chip(&params, 8);
        (Fixture::new(8, 1024, 2), params, model, StdRng::seed_from_u64(7))
    }

    /// A default-reference materializing read (fresh scratch per call).
    fn read_page(
        block: &mut Fixture,
        params: &ChipParams,
        model: &AnalyticModel,
        rng: &mut StdRng,
        page: u32,
        disturb: bool,
    ) -> ReadOutcome {
        let mut scratch = ReadScratch::new(block.block.bitlines);
        block.read::<ByteSink>(params, model, rng, &mut scratch, page, 0.0, disturb)
    }

    fn program_all(block: &mut Fixture, rng: &mut StdRng) {
        for page in 0..16 {
            let data = bits::random(rng, 1024);
            block.program(page, &data);
        }
    }

    #[test]
    fn program_read_round_trip_is_near_clean_when_fresh() {
        let (mut block, params, model, mut rng) = setup();
        let data = bits::random(&mut rng, 1024);
        block.program(4, &data);
        assert_eq!(block.block.payload(4), data);
        let out = read_page(&mut block, &params, &model, &mut rng, 4, true);
        // Fresh block at 0 P/E: expected errors ≪ 1.
        assert!(out.stats.errors <= 2, "fresh analytic read had {} errors", out.stats.errors);
        assert_eq!(out.blocked_bitlines, 0, "no blocking at nominal Vpass");
        assert_eq!(block.ledger.status(0, block.dose(&model)).reads_since_erase, 1);
    }

    /// Program validation on the page-analytic chip refuses exactly what
    /// the cell-exact chip refuses.
    #[test]
    fn program_validation_matches_exact_block() {
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
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        let r0 = block.oracle(&params, &model).rate();
        block.disturb(250_000);
        let r1 = block.oracle(&params, &model).rate();
        block.disturb(750_000);
        let r2 = block.oracle(&params, &model).rate();
        assert!(r0 < r1 && r1 < r2, "{r0} {r1} {r2}");
    }

    #[test]
    fn sampled_errors_track_expectation() {
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.disturb(500_000);
        let expect = block.probabilities(&params, &model, 3, 0.0).0 * 1024.0;
        let n_reads = 400usize;
        let mut total = 0u64;
        for _ in 0..n_reads {
            // Oracle reads: no extra disturb, so the expectation is fixed.
            let out = read_page(&mut block, &params, &model, &mut rng, 6, false);
            total += out.stats.errors;
        }
        let mean = total as f64 / n_reads as f64;
        assert!(
            (0.7..=1.4).contains(&(mean / expect)),
            "sampled mean {mean:.2} vs expectation {expect:.2}"
        );
    }

    #[test]
    fn hammer_concentrates_on_neighbours() {
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.hammer(&params, 4, 500_000);
        let neighbour = block.oracle_wordline(&params, &model, 5).rate();
        let distant = block.oracle_wordline(&params, &model, 1).rate();
        let hammered = block.oracle_wordline(&params, &model, 4).rate();
        assert!(neighbour > distant, "neighbour {neighbour:.3e} vs distant {distant:.3e}");
        assert!(hammered < distant, "hammered {hammered:.3e} vs distant {distant:.3e}");
    }

    #[test]
    fn vpass_fold_preserves_accumulated_disturb() {
        let (mut block, _, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.disturb(100_000);
        let before = block.dose(&model);
        // Lowering Vpass must not erase the disturb damage already done
        // (pass-through errors do rise — that is the physics, not history).
        block.set_vpass(&model, 0.96 * NOMINAL_VPASS);
        let after = block.dose(&model);
        assert!((after / before - 1.0).abs() < 1e-9, "fold changed history: {before} -> {after}");
        // …but future reads at the lower Vpass accumulate disturb slower.
        let mut low = block.clone();
        low.disturb(100_000);
        let mut high = block.clone();
        high.set_vpass(&model, NOMINAL_VPASS);
        high.disturb(100_000);
        assert!(low.dose(&model) < high.dose(&model), "lower Vpass must slow disturb accumulation");
    }

    #[test]
    fn relaxed_vpass_blocks_bitlines_and_nominal_does_not() {
        let (mut block, params, model, mut rng) = setup();
        program_all(&mut block, &mut rng);
        block.set_vpass(&model, params.min_vpass);
        let mut blocked = 0u64;
        for _ in 0..64 {
            blocked += read_page(&mut block, &params, &model, &mut rng, 0, false).blocked_bitlines;
        }
        assert!(blocked > 0, "expected sampled blocking at minimum Vpass");
        block.set_vpass(&model, NOMINAL_VPASS);
        let out = read_page(&mut block, &params, &model, &mut rng, 0, false);
        assert_eq!(out.blocked_bitlines, 0);
    }

    /// The closed form as written before the shift cache existed: every
    /// term re-derived per read (the reference the cache must reproduce).
    fn p_err_reference(
        block: &Fixture,
        params: &ChipParams,
        model: &AnalyticModel,
        wordline: u32,
        shift: f64,
    ) -> f64 {
        let wl = wordline as usize;
        let (pe, age_days, vpass) =
            (block.ledger.pe_cycles[0], block.ledger.age_days[0], block.ledger.vpass[0]);
        let block = &block.block;
        let slope = model.rd_slope(pe, vpass);
        let lin = (block.folded_lin
            + block.folded_extra[wl]
            + slope * (block.pending_reads + block.pending_extra[wl]))
            .max(0.0);
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
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.advance_days(30.0);
        block.disturb(200_000);
        block.hammer(&params, 3, 50_000);
        // More distinct shifts than cache slots, so eviction is exercised.
        let shifts = [0.0, 4.0, 8.0, 12.0, 16.0, -4.0, 10.0, 20.0, 30.0, 0.05];
        assert!(shifts.len() > SHIFT_CACHE);
        let mut scratch = ReadScratch::new(1024);
        // Cached reads (the block warms its cache on first use) must
        // consume RNG draws and produce data bit-identically to a
        // cache-cold clone evaluated fresh at every step.
        for trial in 0..16 {
            let mut rng_a = StdRng::seed_from_u64(100 + trial);
            let mut rng_b = StdRng::seed_from_u64(100 + trial);
            for (i, &shift) in shifts.iter().cycle().take(24).enumerate() {
                let page = [0u32, 6, 7, 12][i % 4];
                let mut cold = block.clone();
                cold.block.op_cache = None;
                let wl = page / 2;
                assert_eq!(
                    block.probabilities(&params, &model, wl, shift).0.to_bits(),
                    p_err_reference(&block, &params, &model, wl, shift).to_bits(),
                    "shift {shift}"
                );
                let warm = block.read::<ByteSink>(
                    &params,
                    &model,
                    &mut rng_a,
                    &mut scratch,
                    page,
                    shift,
                    true,
                );
                let fresh = cold.read::<ByteSink>(
                    &params,
                    &model,
                    &mut rng_b,
                    &mut scratch,
                    page,
                    shift,
                    true,
                );
                assert_eq!(warm, fresh, "shift {shift}");
                assert_eq!(rng_a.state(), rng_b.state());
            }
            // A new operating point every trial.
            block.advance_days(1.0);
        }
    }

    /// Every chip command that moves a page-analytic block's
    /// `(pe_cycles, age_days, vpass)` drops its operating-point cache,
    /// shift points included; the next read re-evaluates at the new point.
    #[test]
    fn op_point_movers_drop_the_cache() {
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
            let op = chip.analytic_block(0).op_cache.clone().expect("warmed");
            let point = *op.shifts.iter().find(|s| s.shift == 8.0).expect("shift cached");
            (point, op.slope, op.blocked_prob)
        };
        let cold = |chip: &Chip| chip.analytic_block(0).op_cache.is_none();
        let (aged, slope_nominal, _) = warm(&mut chip);
        chip.advance_days(5.0);
        assert!(cold(&chip), "advance_days must invalidate");
        assert_ne!(aged.static_rber, warm(&mut chip).0.static_rber);
        chip.advance_block_days(0, 1.0).unwrap();
        assert!(cold(&chip), "advance_block_days must invalidate");
        warm(&mut chip);
        chip.set_block_vpass(0, min_vpass).unwrap();
        assert!(cold(&chip), "set_block_vpass must invalidate");
        let (_, slope_low, p_block) = warm(&mut chip);
        assert!(p_block > 0.0 && slope_low < slope_nominal);
        let mut w = crate::wire::Writer::new();
        chip.encode_state(&mut w);
        chip.restore_state(&mut crate::wire::Reader::new(&w.into_bytes())).unwrap();
        assert!(cold(&chip), "restore must invalidate");
        warm(&mut chip);
        chip.cycle_block(0, 10).unwrap();
        assert!(cold(&chip), "cycle_block must invalidate");
        chip.program_page(0, 0, &bits::random(&mut StdRng::seed_from_u64(3), 512)).unwrap();
        warm(&mut chip);
        chip.erase_block(0).unwrap();
        assert!(cold(&chip), "erase_block must invalidate");
        // Programming into the erased block restarts the retention clock.
        chip.advance_days(2.0);
        warm(&mut chip);
        chip.program_page(0, 0, &bits::random(&mut StdRng::seed_from_u64(4), 512)).unwrap();
        assert!(cold(&chip), "the program-age reset must invalidate");
    }

    #[test]
    fn binomial_sampler_bounds_and_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
        // Small-mean regime (exact inverse-CDF path).
        let mean_of = |rng: &mut StdRng, n: u64, p: f64, draws: u64| -> f64 {
            (0..draws).map(|_| sample_binomial(rng, n, p)).sum::<u64>() as f64 / draws as f64
        };
        let m = mean_of(&mut rng, 100_000, 1.0e-4, 3_000);
        assert!((m / 10.0 - 1.0).abs() < 0.15, "small-mean sampler mean {m} (expect 10)");
        // Large-mean regime (normal path).
        let m = mean_of(&mut rng, 100_000, 1.0e-2, 3_000);
        assert!((m / 1000.0 - 1.0).abs() < 0.05, "large-mean sampler mean {m} (expect 1000)");
        for _ in 0..200 {
            assert!(sample_binomial(&mut rng, 50, 0.9) <= 50);
        }
    }

    #[test]
    fn distinct_positions_are_distinct_and_complete() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chosen = ReadScratch::new(64).flipped;
        let mut seen = Vec::new();
        for_distinct_positions(&mut rng, 64, 20, &mut chosen, |i| seen.push(i));
        assert_eq!(seen.len(), 20);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20);
        assert_eq!(seen, (0..64).filter(|&i| chosen.contains(i)).collect::<Vec<_>>());
        // k == n short-circuits to the full range (and still marks it).
        let mut all = Vec::new();
        for_distinct_positions(&mut rng, 16, 16, &mut chosen, |i| all.push(i));
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        assert!((0..16).all(|i| chosen.contains(i)) && !chosen.contains(16));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The count-only identity against the bytes where flipped and
        /// blocked bitlines overlap heavily (model-rate reads almost never
        /// do): both sinks fed by the same draws must agree on the count.
        #[test]
        fn count_sink_identity_holds_under_dense_overlap(
            seed in proptest::prelude::any::<u64>(),
            bitlines in 1u32..700,
            p_err in 0.0f64..1.05,
            p_block in 0.0f64..1.05,
            programmed in proptest::prelude::any::<bool>(),
            top_bit in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nbits = bitlines as usize;
            let page = bits::random(&mut rng, nbits);
            let stored = programmed.then_some(page.as_slice());
            let mut scratch = ReadScratch::new(bitlines);

            let mut rng_c = rng.clone();
            let mut counted = CountSink::start(stored, nbits, top_bit);
            let blocked_c = sample_events(
                &mut rng_c, &mut scratch, bitlines, p_err, p_block, stored, &mut counted,
            );
            let mut bytes = ByteSink::start(stored, nbits, top_bit);
            let blocked = sample_events(
                &mut rng, &mut scratch, bitlines, p_err, p_block, stored, &mut bytes,
            );
            let (errors, data) = bytes.finish(stored);
            let intended = stored.map_or_else(|| bits::ones(nbits), <[u8]>::to_vec);
            proptest::prop_assert_eq!(errors, bits::hamming(&data, &intended));
            proptest::prop_assert_eq!(counted.finish(stored).0, errors);
            proptest::prop_assert_eq!(blocked_c, blocked);
            proptest::prop_assert_eq!(rng_c.state(), rng.state());
        }

        /// The count-only read is the materializing read minus the bytes:
        /// from the same block state and RNG state it reports the same
        /// counts and leaves the RNG where the materializing read does —
        /// for every database chip, operating point, page and shift.
        #[test]
        fn count_only_read_equals_materializing_read(
            seed in proptest::prelude::any::<u64>(),
            pe in 0u64..20_000,
            age_days in 0.0f64..60.0,
            pending in 0u64..3_000_000,
            hammered in 0u64..500_000,
            relax in 0.0f64..1.0,
            programmed in proptest::prelude::any::<bool>(),
            pick in 0usize..64,
        ) {
            for spec in crate::chips::all() {
                let params = spec.params;
                let (wordlines, bitlines, bpc) = (4u32, 1000u32, params.bits_per_cell());
                let model = AnalyticModel::from_chip(&params, wordlines);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut block = Fixture::new(wordlines, bitlines, bpc);
                block.pre_wear(pe);
                let pages = wordlines * bpc;
                let page = pick as u32 % pages;
                for p in (0..pages).filter(|&p| programmed || p != page) {
                    block.program(p, &bits::random(&mut rng, bitlines as usize));
                }
                block.advance_days(age_days);
                block.disturb(pending);
                block.hammer(&params, pick as u32 % wordlines, hammered);
                // Half the cases at the fully relaxed Vpass, so bitlines do
                // get blocked (dense overlap is the property above).
                let relax = (2.0 * relax - 1.0).max(0.0);
                let vpass = params.min_vpass + relax * (NOMINAL_VPASS - params.min_vpass);
                block.set_vpass(&model, vpass);
                let shifts: Vec<f64> = std::iter::once(0.0)
                    .chain(params.retry_shifts.iter().copied())
                    .chain(params.reread_va_raises.iter().copied())
                    .collect();
                let shift = shifts[pick % shifts.len()];

                let mut scratch = ReadScratch::new(bitlines);
                let (mut counted, mut rng_c) = (block.clone(), rng.clone());
                let counts = counted
                    .read::<CountSink>(&params, &model, &mut rng_c, &mut scratch, page, shift, true);
                proptest::prop_assert!(counts.data.is_empty());
                let counts = counts.counts();
                let bytes = block
                    .read::<ByteSink>(&params, &model, &mut rng, &mut scratch, page, shift, true);
                proptest::prop_assert!(
                    counts == bytes.counts(),
                    "{} shift {shift}: {counts:?} vs {:?}", spec.name, bytes.counts()
                );
                proptest::prop_assert_eq!(rng_c.state(), rng.state());
                // The materializing side is itself anchored to the bytes.
                let intended = if programmed {
                    block.block.payload(page).to_vec()
                } else {
                    bits::ones(bitlines as usize)
                };
                let distance = bits::hamming(&bytes.data, &intended);
                proptest::prop_assert_eq!(distance, bytes.stats.errors);
            }
        }
    }
}
