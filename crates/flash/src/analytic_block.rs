//! Page-analytic block state: the [`crate::ReadFidelity::PageAnalytic`]
//! backend of [`crate::Chip`].
//!
//! Instead of per-cell threshold voltages, a block keeps only
//!
//! * the packed **page payloads** as programmed (so reads return real data
//!   and the engine's payload digest gate still bites),
//! * the block **operating point** (P/E cycles, retention age, Vpass), and
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
//! `(pe_cycles, age_days, vpass)` drops the whole cache.

use rand::rngs::StdRng;
use rand::Rng;

use crate::analytic::{AnalyticModel, ShiftPoint};
use crate::bits;
use crate::block::BlockStatus;
use crate::chip::ReadOutcome;
use crate::error::FlashError;
use crate::noise::retention;
use crate::params::{ChipParams, NOMINAL_VPASS};
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

/// One flash block of the page-analytic chip model.
#[derive(Debug, Clone)]
pub(crate) struct AnalyticBlock {
    wordlines: u32,
    bitlines: u32,
    bits_per_cell: u32,
    pe_cycles: u64,
    age_days: f64,
    reads_since_erase: u64,
    vpass: f64,
    page_programmed: Vec<bool>,
    /// Packed page payloads as programmed (empty until first program).
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
    /// invalidated whenever `pe_cycles`, `age_days`, or `vpass` changes.
    /// Never serialized — a restored block recomputes on first read.
    op_cache: Option<OpPoint>,
}

impl AnalyticBlock {
    pub(crate) fn new(wordlines: u32, bitlines: u32, bits_per_cell: u32) -> Self {
        let pages = wordlines as usize * bits_per_cell as usize;
        Self {
            wordlines,
            bitlines,
            bits_per_cell,
            pe_cycles: 0,
            age_days: 0.0,
            reads_since_erase: 0,
            vpass: NOMINAL_VPASS,
            page_programmed: vec![false; pages],
            page_data: vec![Vec::new(); pages],
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
        wordline: u32,
        shift: f64,
    ) -> (f64, f64) {
        let (pe, age_days, vpass) = (self.pe_cycles, self.age_days, self.vpass);
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

    fn pages(&self) -> u32 {
        self.wordlines * self.bits_per_cell
    }

    fn reset_after_erase(&mut self) {
        self.age_days = 0.0;
        self.reads_since_erase = 0;
        self.page_programmed.fill(false);
        for d in &mut self.page_data {
            d.clear();
        }
        self.folded_lin = 0.0;
        self.folded_extra.fill(0.0);
        self.pending_reads = 0.0;
        self.pending_extra.fill(0.0);
        self.op_cache = None;
    }

    pub(crate) fn erase(&mut self) {
        self.pe_cycles += 1;
        self.reset_after_erase();
    }

    pub(crate) fn pre_wear(&mut self, cycles: u64) {
        self.pe_cycles += cycles;
        self.reset_after_erase();
    }

    pub(crate) fn advance_days(&mut self, days: f64) {
        assert!(days >= 0.0, "time flows forward");
        self.age_days += days;
        self.op_cache = None;
    }

    pub(crate) fn vpass(&self) -> f64 {
        self.vpass
    }

    /// Folds the pending read counters into the disturb term at the Vpass
    /// they were accumulated under, then applies the new setting.
    pub(crate) fn set_vpass(&mut self, model: &AnalyticModel, vpass: f64) {
        self.fold_pending(model);
        self.vpass = vpass;
        self.op_cache = None;
    }

    fn fold_pending(&mut self, model: &AnalyticModel) {
        let slope = model.rd_slope(self.pe_cycles, self.vpass);
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

    /// Block-uniform disturb linear term (the [`BlockStatus::dose`] analogue).
    fn disturb_lin_uniform(&self, model: &AnalyticModel) -> f64 {
        let slope = model.rd_slope(self.pe_cycles, self.vpass);
        (self.folded_lin + slope * self.pending_reads).max(0.0)
    }

    /// Per-bit RBER of one wordline at the default references, excluding
    /// pass-through errors (those are realized as blocked bitlines at read
    /// time). The oracles' uncached evaluation of what
    /// [`Self::read_probabilities`] serves at `shift == 0`.
    fn rber_wordline(&self, params: &ChipParams, model: &AnalyticModel, wordline: u32) -> f64 {
        let point = ShiftPoint::at(params, model, self.pe_cycles, self.age_days, 0.0);
        let slope = model.rd_slope(self.pe_cycles, self.vpass);
        point.rber(self.rd_term(model, slope, wordline))
    }

    /// Probability that a bitline is blocked (pass-through failure) at the
    /// block's current Vpass. Each blocked bitline senses as P3 and flips
    /// half the bits on average, so the model's per-bit pass-through RBER
    /// doubles into a per-bitline blocking probability.
    fn blocked_prob(&self, model: &AnalyticModel) -> f64 {
        2.0 * model.rber_passthrough(self.pe_cycles, self.age_days, self.vpass)
    }

    /// Uniformly spread reads: block-level disturb only (matches
    /// `Block::apply_read_disturbs`).
    pub(crate) fn apply_read_disturbs(&mut self, n: u64) {
        self.pending_reads += n as f64;
        self.reads_since_erase += n;
    }

    /// Reads concentrated on one wordline: neighbours get boosted disturb,
    /// the target none from its own reads (matches `Block::hammer_wordline`).
    pub(crate) fn hammer_wordline(&mut self, params: &ChipParams, wordline: u32, n: u64) {
        assert!(wordline < self.wordlines, "wordline out of range");
        self.pending_reads += n as f64;
        self.reads_since_erase += n;
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

    pub(crate) fn is_page_programmed(&self, page: u32) -> bool {
        self.page_programmed.get(page as usize).copied().unwrap_or(false)
    }

    /// Serializes every mutable lane of the block (checkpointing support).
    pub(crate) fn encode_state(&self, w: &mut crate::wire::Writer) {
        w.put_u64(self.pe_cycles);
        w.put_f64(self.age_days);
        w.put_u64(self.reads_since_erase);
        w.put_f64(self.vpass);
        w.put_bools(&self.page_programmed);
        w.put_u64(self.page_data.len() as u64);
        for d in &self.page_data {
            w.put_bytes(d);
        }
        w.put_f64(self.folded_lin);
        w.put_f64s(&self.folded_extra);
        w.put_f64(self.pending_reads);
        w.put_f64s(&self.pending_extra);
    }

    /// Restores a block serialized by [`Self::encode_state`] into `self`,
    /// which must have been constructed with the same geometry.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<(), crate::wire::SnapError> {
        use crate::wire::SnapError;
        let pages = self.pages() as usize;
        let pe_cycles = r.get_u64()?;
        let age_days = r.get_f64()?;
        let reads_since_erase = r.get_u64()?;
        let vpass = r.get_f64()?;
        let page_programmed = r.get_bools()?;
        if page_programmed.len() != pages {
            return Err(SnapError::Mismatch(format!(
                "analytic block page count {} != {}",
                page_programmed.len(),
                pages
            )));
        }
        let n_data = r.get_u64()? as usize;
        if n_data != pages {
            return Err(SnapError::Mismatch(format!(
                "analytic block payload count {n_data} != {pages}"
            )));
        }
        let mut page_data = Vec::with_capacity(pages);
        for _ in 0..pages {
            page_data.push(r.get_bytes()?);
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
        self.pe_cycles = pe_cycles;
        self.age_days = age_days;
        self.reads_since_erase = reads_since_erase;
        self.vpass = vpass;
        self.page_programmed = page_programmed;
        self.page_data = page_data;
        self.folded_lin = folded_lin;
        self.folded_extra = folded_extra;
        self.pending_reads = pending_reads;
        self.pending_extra = pending_extra;
        self.op_cache = None;
        Ok(())
    }

    pub(crate) fn status(&self, model: &AnalyticModel) -> BlockStatus {
        BlockStatus {
            pe_cycles: self.pe_cycles,
            reads_since_erase: self.reads_since_erase,
            age_days: self.age_days,
            vpass: self.vpass,
            programmed_pages: self.page_programmed.iter().filter(|p| **p).count() as u32,
            dose: self.disturb_lin_uniform(model),
        }
    }

    pub(crate) fn program_page(&mut self, page: u32, data: &[u8]) -> Result<(), FlashError> {
        if page >= self.pages() {
            return Err(FlashError::PageOutOfRange { page, pages: self.pages() });
        }
        if self.page_programmed[page as usize] {
            return Err(FlashError::PageAlreadyProgrammed { page });
        }
        let expected = self.bitlines as usize;
        if data.len() * 8 != expected {
            return Err(FlashError::DataLengthMismatch { got: data.len() * 8, expected });
        }
        // Data age: writing into a fully-erased block starts a fresh
        // retention period (same rule as the cell-exact block).
        if !self.page_programmed.iter().any(|&p| p) {
            self.age_days = 0.0;
            self.op_cache = None;
        }
        self.page_data[page as usize].clear();
        self.page_data[page as usize].extend_from_slice(data);
        self.page_programmed[page as usize] = true;
        Ok(())
    }

    pub(crate) fn intended_page_bits(&self, page: u32) -> Result<&[u8], FlashError> {
        if page >= self.pages() {
            return Err(FlashError::PageOutOfRange { page, pages: self.pages() });
        }
        if !self.page_programmed[page as usize] {
            return Err(FlashError::PageNotProgrammed { page });
        }
        Ok(&self.page_data[page as usize])
    }

    /// Serves a page read from the analytic model: a raw error count
    /// sampled around the closed-form RBER at read-reference `shift` (so a
    /// positive retry shift on a disturb-dominated wordline genuinely
    /// recovers errors while paying the shifted misclassification floor,
    /// exactly as the cell-exact sweep does in aggregate), uniformly placed,
    /// overlaid with sampled pass-through blocking. O(errors), plus whatever
    /// the sink `S` does with the events: [`CountSink`] leaves
    /// [`ReadOutcome::data`] empty, [`ByteSink`] fills it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read<S: ReadSink>(
        &mut self,
        params: &ChipParams,
        model: &AnalyticModel,
        rng: &mut StdRng,
        scratch: &mut ReadScratch,
        page: u32,
        shift: f64,
        disturb: bool,
    ) -> Result<ReadOutcome, FlashError> {
        if page >= self.pages() {
            return Err(FlashError::PageOutOfRange { page, pages: self.pages() });
        }
        let wl = page / self.bits_per_cell;
        if disturb {
            self.hammer_wordline(params, wl, 1);
        }
        let (p_err, p_block) = self.read_probabilities(params, model, wl, shift);
        // A blocked bitline cannot conduct, so the cell senses as the top
        // state (P3 on MLC).
        let top_bit = crate::state::state_bit(
            params.n_states() - 1,
            (page % self.bits_per_cell) as usize,
            self.bits_per_cell as usize,
        );
        // An unprogrammed page reads back as erased cells (ER stores 1/1).
        let stored =
            self.page_programmed[page as usize].then(|| self.page_data[page as usize].as_slice());
        let mut sink = S::start(stored, self.bitlines as usize, top_bit);
        let blocked_bitlines =
            sample_events(rng, scratch, self.bitlines, p_err, p_block, stored, &mut sink);
        let (errors, data) = sink.finish(stored);
        let stats = BitErrorStats::new(errors, u64::from(self.bitlines));
        Ok(ReadOutcome { data, stats, blocked_bitlines })
    }

    /// Closed-form expected RBER of one wordline's programmed pages
    /// (pass-through errors included), rounded to whole bits.
    pub(crate) fn rber_wordline_oracle(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
        wordline: u32,
    ) -> BitErrorStats {
        let pages = (0..self.bits_per_cell)
            .filter(|&k| self.page_programmed[(wordline * self.bits_per_cell + k) as usize])
            .count() as u64;
        if pages == 0 {
            return BitErrorStats::default();
        }
        let bits = pages * self.bitlines as u64;
        let p = self.rber_wordline(params, model, wordline) + 0.5 * self.blocked_prob(model);
        BitErrorStats::new((p * bits as f64).round() as u64, bits)
    }

    /// Closed-form expected RBER over all programmed pages of the block,
    /// unrounded: `(expected error bits, total bits)`.
    pub(crate) fn rber_expectation(
        &self,
        params: &ChipParams,
        model: &AnalyticModel,
    ) -> (f64, u64) {
        let mut expected = 0.0f64;
        let mut bits = 0u64;
        let p_block_err = 0.5 * self.blocked_prob(model);
        for wl in 0..self.wordlines {
            let pages = (0..self.bits_per_cell)
                .filter(|&k| self.page_programmed[(wl * self.bits_per_cell + k) as usize])
                .count() as u64;
            if pages == 0 {
                continue;
            }
            let wl_bits = pages * self.bitlines as u64;
            expected += (self.rber_wordline(params, model, wl) + p_block_err) * wl_bits as f64;
            bits += wl_bits;
        }
        (expected, bits)
    }

    /// Closed-form expected RBER over all programmed pages of the block,
    /// rounded to whole bits (the [`BitErrorStats`] oracle shape).
    pub(crate) fn rber_oracle(&self, params: &ChipParams, model: &AnalyticModel) -> BitErrorStats {
        let (expected, bits) = self.rber_expectation(params, model);
        BitErrorStats::new(expected.round() as u64, bits)
    }
}

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
    if mean < 32.0 {
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
    use rand::SeedableRng;

    fn setup() -> (AnalyticBlock, ChipParams, AnalyticModel, StdRng) {
        let params = ChipParams::default();
        let model = AnalyticModel::from_chip(&params, 8);
        (AnalyticBlock::new(8, 1024, 2), params, model, StdRng::seed_from_u64(7))
    }

    /// A default-reference materializing read (fresh scratch per call).
    fn read_page(
        block: &mut AnalyticBlock,
        params: &ChipParams,
        model: &AnalyticModel,
        rng: &mut StdRng,
        page: u32,
        disturb: bool,
    ) -> ReadOutcome {
        let mut scratch = ReadScratch::new(block.bitlines);
        block.read::<ByteSink>(params, model, rng, &mut scratch, page, 0.0, disturb).unwrap()
    }

    fn program_all(block: &mut AnalyticBlock, rng: &mut StdRng) {
        for page in 0..16 {
            let data = bits::random(rng, 1024);
            block.program_page(page, &data).unwrap();
        }
    }

    #[test]
    fn program_read_round_trip_is_near_clean_when_fresh() {
        let (mut block, params, model, mut rng) = setup();
        let data = bits::random(&mut rng, 1024);
        block.program_page(4, &data).unwrap();
        assert_eq!(block.intended_page_bits(4).unwrap(), data);
        let out = read_page(&mut block, &params, &model, &mut rng, 4, true);
        // Fresh block at 0 P/E: expected errors ≪ 1.
        assert!(out.stats.errors <= 2, "fresh analytic read had {} errors", out.stats.errors);
        assert_eq!(out.blocked_bitlines, 0, "no blocking at nominal Vpass");
        assert_eq!(block.status(&model).reads_since_erase, 1);
    }

    #[test]
    fn program_validation_matches_exact_block() {
        let (mut block, _, _, mut rng) = setup();
        let data = bits::random(&mut rng, 1024);
        block.program_page(0, &data).unwrap();
        assert!(matches!(
            block.program_page(0, &data),
            Err(FlashError::PageAlreadyProgrammed { page: 0 })
        ));
        assert!(matches!(block.program_page(99, &data), Err(FlashError::PageOutOfRange { .. })));
        assert!(matches!(
            block.program_page(1, &[0u8; 3]),
            Err(FlashError::DataLengthMismatch { .. })
        ));
        assert!(matches!(block.intended_page_bits(2), Err(FlashError::PageNotProgrammed { .. })));
    }

    #[test]
    fn disturb_raises_expected_rber() {
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        let r0 = block.rber_oracle(&params, &model).rate();
        block.apply_read_disturbs(250_000);
        let r1 = block.rber_oracle(&params, &model).rate();
        block.apply_read_disturbs(750_000);
        let r2 = block.rber_oracle(&params, &model).rate();
        assert!(r0 < r1 && r1 < r2, "{r0} {r1} {r2}");
    }

    #[test]
    fn sampled_errors_track_expectation() {
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.apply_read_disturbs(500_000);
        let expect = block.rber_wordline(&params, &model, 3) * 1024.0;
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
        block.hammer_wordline(&params, 4, 500_000);
        let neighbour = block.rber_wordline_oracle(&params, &model, 5).rate();
        let distant = block.rber_wordline_oracle(&params, &model, 1).rate();
        let hammered = block.rber_wordline_oracle(&params, &model, 4).rate();
        assert!(neighbour > distant, "neighbour {neighbour:.3e} vs distant {distant:.3e}");
        assert!(hammered < distant, "hammered {hammered:.3e} vs distant {distant:.3e}");
    }

    #[test]
    fn vpass_fold_preserves_accumulated_disturb() {
        let (mut block, _, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.apply_read_disturbs(100_000);
        let before = block.disturb_lin_uniform(&model);
        // Lowering Vpass must not erase the disturb damage already done
        // (pass-through errors do rise — that is the physics, not history).
        block.set_vpass(&model, 0.96 * NOMINAL_VPASS);
        let after = block.disturb_lin_uniform(&model);
        assert!((after / before - 1.0).abs() < 1e-9, "fold changed history: {before} -> {after}");
        // …but future reads at the lower Vpass accumulate disturb slower.
        let mut low = block.clone();
        low.apply_read_disturbs(100_000);
        let mut high = block.clone();
        high.set_vpass(&model, NOMINAL_VPASS);
        high.apply_read_disturbs(100_000);
        assert!(
            low.disturb_lin_uniform(&model) < high.disturb_lin_uniform(&model),
            "lower Vpass must slow disturb accumulation"
        );
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

    #[test]
    fn erase_resets_state_and_increments_wear() {
        let (mut block, _, model, mut rng) = setup();
        program_all(&mut block, &mut rng);
        block.apply_read_disturbs(1_000);
        block.advance_days(3.0);
        block.erase();
        let st = block.status(&model);
        assert_eq!(st.pe_cycles, 1);
        assert_eq!(st.reads_since_erase, 0);
        assert_eq!(st.age_days, 0.0);
        assert_eq!(st.dose, 0.0);
        assert_eq!(st.programmed_pages, 0);
    }

    /// The closed form as written before the shift cache existed: every
    /// term re-derived per read (the reference the cache must reproduce).
    fn p_err_reference(
        block: &AnalyticBlock,
        params: &ChipParams,
        model: &AnalyticModel,
        wordline: u32,
        shift: f64,
    ) -> f64 {
        let wl = wordline as usize;
        let slope = model.rd_slope(block.pe_cycles, block.vpass);
        let lin = (block.folded_lin
            + block.folded_extra[wl]
            + slope * (block.pending_reads + block.pending_extra[wl]))
            .max(0.0);
        let p = model.params();
        let rd = p.rd_sat * (lin / p.rd_sat).ln_1p();
        let rd_factor = (-shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        let ret_factor = (shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        gaussian_tail_floor_shifted(params, block.pe_cycles, shift)
            + model.rber_pe(block.pe_cycles)
            + model.rber_retention(block.pe_cycles, block.age_days) * ret_factor
            + rd * rd_factor
    }

    #[test]
    fn op_point_cache_is_bit_identical_to_fresh_evaluation() {
        let (mut block, params, model, mut rng) = setup();
        block.pre_wear(8_000);
        program_all(&mut block, &mut rng);
        block.advance_days(30.0);
        block.apply_read_disturbs(200_000);
        block.hammer_wordline(&params, 3, 50_000);
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
                cold.op_cache = None;
                let wl = page / 2;
                assert_eq!(
                    block.read_probabilities(&params, &model, wl, shift).0.to_bits(),
                    p_err_reference(&block, &params, &model, wl, shift).to_bits(),
                    "shift {shift}"
                );
                let warm = block
                    .read::<ByteSink>(&params, &model, &mut rng_a, &mut scratch, page, shift, true)
                    .unwrap();
                let fresh = cold
                    .read::<ByteSink>(&params, &model, &mut rng_b, &mut scratch, page, shift, true)
                    .unwrap();
                assert_eq!(warm, fresh, "shift {shift}");
                assert_eq!(rng_a.state(), rng_b.state());
            }
            // A new operating point every trial.
            block.advance_days(1.0);
        }
        // Every op-point mutator must drop the cache, shift points included.
        let warm_cache = |block: &mut AnalyticBlock| {
            let p = block.read_probabilities(&params, &model, 0, 8.0);
            let op = block.op_cache.as_ref().expect("warmed");
            assert!(op.shifts.iter().any(|s| s.shift == 8.0));
            (p, op.slope)
        };
        let ((aged, _), slope_nominal) = warm_cache(&mut block);
        block.advance_days(5.0);
        assert!(block.op_cache.is_none(), "advance_days must invalidate");
        assert_ne!(aged, warm_cache(&mut block).0 .0);
        block.set_vpass(&model, params.min_vpass);
        assert!(block.op_cache.is_none(), "set_vpass must invalidate");
        let ((_, p_block), slope_low) = warm_cache(&mut block);
        assert!(p_block > 0.0 && slope_low < slope_nominal);
        let snapshot = {
            let mut w = crate::wire::Writer::new();
            block.encode_state(&mut w);
            w.into_bytes()
        };
        block.restore_state(&mut crate::wire::Reader::new(&snapshot)).unwrap();
        assert!(block.op_cache.is_none(), "restore must invalidate");
        warm_cache(&mut block);
        block.pre_wear(10);
        assert!(block.op_cache.is_none(), "pre_wear must invalidate");
        warm_cache(&mut block);
        block.erase();
        assert!(block.op_cache.is_none(), "erase must invalidate");
        // Programming into the erased block restarts the retention clock.
        block.advance_days(2.0);
        warm_cache(&mut block);
        block.program_page(0, &bits::random(&mut rng, 1024)).unwrap();
        assert!(block.op_cache.is_none(), "the program-age reset must invalidate");
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
                let mut block = AnalyticBlock::new(wordlines, bitlines, bpc);
                block.pre_wear(pe);
                let pages = wordlines * bpc;
                let page = pick as u32 % pages;
                for p in (0..pages).filter(|&p| programmed || p != page) {
                    block.program_page(p, &bits::random(&mut rng, bitlines as usize)).unwrap();
                }
                block.advance_days(age_days);
                block.apply_read_disturbs(pending);
                block.hammer_wordline(&params, pick as u32 % wordlines, hammered);
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
                    .read::<CountSink>(&params, &model, &mut rng_c, &mut scratch, page, shift, true)
                    .unwrap();
                proptest::prop_assert!(counts.data.is_empty());
                let counts = counts.counts();
                let bytes = block
                    .read::<ByteSink>(&params, &model, &mut rng, &mut scratch, page, shift, true)
                    .unwrap();
                proptest::prop_assert!(
                    counts == bytes.counts(),
                    "{} shift {shift}: {counts:?} vs {:?}", spec.name, bytes.counts()
                );
                proptest::prop_assert_eq!(rng_c.state(), rng.state());
                // The materializing side is itself anchored to the bytes.
                let intended = block
                    .intended_page_bits(page)
                    .map_or_else(|_| bits::ones(bitlines as usize), <[u8]>::to_vec);
                let distance = bits::hamming(&bytes.data, &intended);
                proptest::prop_assert_eq!(distance, bytes.stats.errors);
            }
        }
    }
}
