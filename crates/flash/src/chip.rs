//! The chip: a collection of blocks behind a validated command interface
//! mirroring what the paper's FPGA platform drives (erase, program, read,
//! read-retry) plus the per-block Vpass control the paper proposes.
//!
//! What a controller tracks per block — wear, retention age, reads since
//! erase, Vpass and the programmed pages — lives once, in the chip's block
//! ledger, whatever the tier; the lifecycle rules (program checks, erase,
//! ageing, status) are the ledger's. Each fidelity tier (see
//! the `fidelity` module) keeps only its physics beside it: the default
//! [`ReadFidelity::CellExact`] per-cell Monte-Carlo state (reachable as
//! [`Chip::cells`]), or one closed-form state for the two other tiers —
//! per-block lanes of the calibrated closed-form model with a fold-free
//! disturb accumulator, returning [`FlashError::FidelityUnsupported`] for
//! the per-cell oracles. [`ReadFidelity::BlockAggregate`] fast-forwards
//! those lanes between interesting events at O(1) per read, with no
//! payloads; [`ReadFidelity::PageAnalytic`] adds page lanes — payloads and
//! a per-wordline disturb adjustment — and samples every read at O(errors).

use std::borrow::Cow;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate_block::AggregateState;
use crate::bits;
use crate::block::{pack_page, Block};
use crate::cell_array::{CellArray, OperatingPoint, SenseScratch};
use crate::digest::{fold_page, FNV_OFFSET};
use crate::error::FlashError;
use crate::fidelity::ReadFidelity;
use crate::geometry::{Geometry, PageAddr, PageKind};
use crate::ledger::{BlockLedger, BlockStatus};
use crate::params::{ChipParams, NOMINAL_VPASS};
use crate::sampler::{ByteSink, CountSink, ReadSink};
use crate::state::{CellState, ALL_STATES};
use crate::BitErrorStats;

/// Result of a page read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Sensed page data (packed bits, one per bitline).
    pub data: Vec<u8>,
    /// Raw bit errors against the programmed data (what on-die ECC would be
    /// asked to correct; its error count is what the tuning mechanism reads).
    pub stats: BitErrorStats,
    /// Bitlines that failed to conduct because an unread cell exceeded the
    /// pass-through voltage (the paper's "number of 0's", §3 Step 2).
    pub blocked_bitlines: u64,
}

impl ReadOutcome {
    /// The read's counts without its bytes.
    pub(crate) fn counts(&self) -> ReadCounts {
        ReadCounts { stats: self.stats, blocked_bitlines: self.blocked_bitlines }
    }
}

/// What a controller learns from a read without looking at the bytes: the
/// on-die ECC's error count and the blocked-bitline count. The retry
/// ladder, the margin probes and Vpass Tuning's zero counting consume only
/// this ([`Chip::read_page_counts`], [`Chip::read_retry_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCounts {
    /// Raw bit errors against the programmed data.
    pub stats: BitErrorStats,
    /// Bitlines that failed to conduct (see [`ReadOutcome::blocked_bitlines`]).
    pub blocked_bitlines: u64,
}

/// Result of a read-retry sweep read (a read at shifted references).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryReadOutcome {
    /// The reference shift applied (normalized volts).
    pub shift: f64,
    /// The read outcome at that shift.
    pub outcome: ReadOutcome,
}

/// Histogram of threshold voltages across a block, broken down by intended
/// state — the raw material of the paper's Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct VthHistogram {
    /// Width of each bin (normalized volts).
    pub bin_width: f64,
    /// Voltage at the left edge of bin 0.
    pub min: f64,
    /// Total cell count per bin.
    pub counts: Vec<u64>,
    /// Cell count per bin, split by intended state (ER, P1, P2, P3).
    pub by_state: [Vec<u64>; 4],
    /// Total number of cells binned.
    pub total: u64,
}

impl VthHistogram {
    /// Center voltage of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.min + (i as f64 + 0.5) * self.bin_width
    }

    /// Probability density estimate at bin `i` (integrates to 1 over all
    /// states combined).
    pub fn pdf(&self, i: usize) -> f64 {
        self.counts[i] as f64 / (self.total.max(1) as f64 * self.bin_width)
    }

    /// Probability density estimate for a single state at bin `i`
    /// (normalized by the total population, like the paper's Fig. 2).
    pub fn pdf_state(&self, state: CellState, i: usize) -> f64 {
        self.by_state[state.index() as usize][i] as f64
            / (self.total.max(1) as f64 * self.bin_width)
    }

    /// Mean voltage of cells intended for `state`.
    pub fn state_mean(&self, state: CellState) -> f64 {
        let s = &self.by_state[state.index() as usize];
        let (mut num, mut den) = (0.0, 0.0);
        for (i, &c) in s.iter().enumerate() {
            num += self.bin_center(i) * c as f64;
            den += c as f64;
        }
        if den == 0.0 {
            f64::NAN
        } else {
            num / den
        }
    }
}

/// Per-block physics of the chip, selected by the fidelity tier; what every
/// tier shares is the chip's [`BlockLedger`].
// One Storage exists per chip, so the size spread between the variants
// costs a few hundred bytes total — boxing would only add an indirection
// on the read hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Storage {
    /// Per-cell Monte-Carlo state (and the wordline-sensing scratch, shared
    /// by all blocks).
    Exact { blocks: Vec<Block>, scratch: SenseScratch },
    /// The closed-form model's struct-of-arrays per-block state, with page
    /// lanes (payloads, per-wordline disturb and the event sampler's
    /// scratch) on a page-analytic chip.
    ClosedForm { state: AggregateState },
}

impl Storage {
    /// Block `b`'s `(pe_cycles, age_days, vpass)` moved: the closed-form
    /// state marks the block dirty.
    fn op_point_moved(&mut self, b: usize) {
        match self {
            Storage::Exact { .. } => {}
            Storage::ClosedForm { state } => state.op_point_moved(b),
        }
    }

    /// Returns block `b`'s physics to erased after the ledger's erase.
    fn reset(&mut self, params: &ChipParams, ledger: &BlockLedger, b: usize, rng: &mut StdRng) {
        match self {
            Storage::Exact { blocks, .. } => blocks[b].reset(params, rng, ledger.pe_cycles[b]),
            Storage::ClosedForm { state } => state.reset(b),
        }
    }

    /// Block `b`'s block-uniform disturb dose, in the tier's own units.
    fn dose(&self, b: usize) -> f64 {
        match self {
            Storage::Exact { blocks, .. } => blocks[b].dose(),
            Storage::ClosedForm { state } => state.dose(b),
        }
    }
}

/// The simulated MLC NAND flash chip. A clone continues exactly as the
/// original would: same cells, same ledger, same generator.
#[derive(Debug, Clone)]
pub struct Chip {
    geometry: Geometry,
    params: ChipParams,
    ledger: BlockLedger,
    storage: Storage,
    /// `fold_page(FNV_OFFSET, payload)` of every programmed page, recorded
    /// when [`Chip::program_page`] stores it, at `b * pages_per_block +
    /// page`; empty on the payload-free aggregate tier. Never checkpointed:
    /// a restore recomputes it.
    digests: Vec<u64>,
    rng: StdRng,
    /// ECC correction capability hint (error bits per page) used by the
    /// block-aggregate tier to compute ECC-margin crossings analytically.
    read_margin: Option<u64>,
}

impl Chip {
    /// Creates a chip with the given geometry and model parameters,
    /// deterministically seeded. The fidelity tier is taken from
    /// [`ChipParams::fidelity`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero blocks or a bitline count that is not
    /// a multiple of 8 (pages are exchanged as packed bytes), if the
    /// geometry's `bits_per_cell` disagrees with the parameter set's state
    /// count, or if a non-MLC chip is built at the per-cell Monte-Carlo
    /// tier (the cell-exact model is MLC-native; TLC/QLC parts run on the
    /// analytic tiers).
    pub fn new(geometry: Geometry, params: ChipParams, seed: u64) -> Self {
        assert!(geometry.blocks > 0, "chip needs at least one block");
        assert!(geometry.wordlines_per_block > 0, "blocks need wordlines");
        assert_eq!(geometry.bitlines % 8, 0, "bitlines must be a multiple of 8");
        assert_eq!(
            geometry.bits_per_cell,
            params.bits_per_cell(),
            "geometry bits_per_cell disagrees with the chip parameters' state count"
        );
        assert!(
            params.fidelity != ReadFidelity::CellExact || params.n_states() == 4,
            "the cell-exact tier is MLC-only ({} states requested); \
             use PageAnalytic or BlockAggregate",
            params.n_states()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let (wordlines, bitlines) = (geometry.wordlines_per_block, geometry.bitlines);
        let storage = match params.fidelity {
            ReadFidelity::CellExact => Storage::Exact {
                blocks: (0..geometry.blocks)
                    .map(|_| Block::new(wordlines, bitlines, &params, &mut rng))
                    .collect(),
                scratch: SenseScratch::default(),
            },
            ReadFidelity::PageAnalytic | ReadFidelity::BlockAggregate => {
                Storage::ClosedForm { state: AggregateState::new(geometry, params.clone()) }
            }
        };
        let empty_writes = params.fidelity == ReadFidelity::BlockAggregate;
        let ledger =
            BlockLedger::new(geometry.blocks, geometry.pages_per_block(), bitlines, empty_writes);
        let pages = if empty_writes { 0 } else { geometry.blocks * geometry.pages_per_block() };
        let digests = vec![0; pages as usize];
        Self { geometry, params, ledger, storage, digests, rng, read_margin: None }
    }

    /// Tells the chip the decoder's per-page correction capability (error
    /// bits). The block-aggregate tier uses it to compute ECC-margin
    /// crossings analytically and fast-forward reads in between; without a
    /// margin every aggregate read samples live. Other tiers ignore it.
    pub fn set_read_margin(&mut self, margin: Option<u64>) {
        self.read_margin = margin;
    }

    /// The configured ECC-margin hint (see [`Chip::set_read_margin`]).
    pub fn read_margin(&self) -> Option<u64> {
        self.read_margin
    }

    /// Serializes the chip's full mutable state — fidelity tag, RNG stream,
    /// ECC-margin hint, and every block lane — into `w` (checkpointing
    /// support; see [`crate::wire`]). Config-derived constants (geometry,
    /// params, analytic model) are not written: restore targets a chip
    /// rebuilt from the same configuration.
    pub fn encode_state(&self, w: &mut crate::wire::Writer) {
        w.put_u8(self.params.fidelity.tag());
        for word in self.rng.state() {
            w.put_u64(word);
        }
        match self.read_margin {
            Some(m) => {
                w.put_bool(true);
                w.put_u64(m);
            }
            None => w.put_bool(false),
        }
        let ledger = &self.ledger;
        match &self.storage {
            Storage::Exact { blocks, .. } => {
                blocks.iter().enumerate().for_each(|(b, block)| block.encode_state(ledger, b, w));
            }
            Storage::ClosedForm { state } => state.encode_state(ledger, w),
        }
    }

    /// Restores state serialized by [`Chip::encode_state`] into `self`,
    /// which must have been constructed from the same configuration
    /// (geometry, params, fidelity tier, any seed). After a successful
    /// restore the chip continues bit-identically to the checkpointed one;
    /// a failed one, at any tier, leaves the chip as it was.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnapError::Mismatch`] when the snapshot's fidelity
    /// tier or block-lane shapes disagree with this chip, or its block
    /// state contradicts itself (a programmed-page count that is not the
    /// flags', a payload that is not one page long), and the usual decode
    /// errors on truncated input.
    pub fn restore_state(
        &mut self,
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<(), crate::wire::SnapError> {
        use crate::wire::SnapError;
        let tag = r.get_u8()?;
        let expected = self.params.fidelity.tag();
        if tag != expected {
            return Err(SnapError::Mismatch(format!(
                "snapshot fidelity tag {tag} != chip tier {expected}"
            )));
        }
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        if rng_state == [0, 0, 0, 0] {
            return Err(SnapError::Mismatch("all-zero RNG state".into()));
        }
        let read_margin = if r.get_bool()? { Some(r.get_u64()?) } else { None };
        let ledger = &mut self.ledger;
        match &mut self.storage {
            Storage::Exact { blocks, .. } => {
                // Every block decodes into staging before any is restored,
                // so a snapshot that fails anywhere changes nothing.
                let mut rows = ledger.clone();
                let decoded = (blocks.iter().enumerate())
                    .map(|(b, block)| block.decode_state(&mut rows, b, r))
                    .collect::<Result<Vec<_>, _>>()?;
                *ledger = rows;
                blocks.iter_mut().zip(decoded).for_each(|(block, lanes)| block.restore(lanes));
            }
            Storage::ClosedForm { state } => state.restore_state(ledger, r)?,
        }
        self.rng = StdRng::from_state(rng_state);
        self.read_margin = read_margin;
        if !self.digests.is_empty() {
            for block in 0..self.geometry.blocks {
                self.record_digests(block, 0..self.geometry.pages_per_block());
            }
        }
        Ok(())
    }

    /// Creates a chip at an explicit fidelity tier (overriding
    /// [`ChipParams::fidelity`]).
    pub fn with_fidelity(
        geometry: Geometry,
        mut params: ChipParams,
        seed: u64,
        fidelity: ReadFidelity,
    ) -> Self {
        params.fidelity = fidelity;
        Self::new(geometry, params, seed)
    }

    /// The chip's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The chip's model parameters.
    pub fn params(&self) -> &ChipParams {
        &self.params
    }

    /// The chip's fidelity tier.
    pub fn fidelity(&self) -> ReadFidelity {
        self.params.fidelity
    }

    /// A closed-form chip's state (its dirty flags and caches, for tier
    /// tests).
    #[cfg(test)]
    pub(crate) fn closed_form(&self) -> &AggregateState {
        match &self.storage {
            Storage::ClosedForm { state } => state,
            Storage::Exact { .. } => panic!("not a closed-form chip"),
        }
    }

    /// A cell-exact chip's block and the ledger it reads (for the tests
    /// below the chip).
    #[cfg(test)]
    pub(crate) fn exact_parts(&self, block: u32) -> (&Block, &BlockLedger) {
        (self.exact_block(block).expect("a cell-exact block"), &self.ledger)
    }

    fn exact_block(&self, block: u32) -> Result<&Block, FlashError> {
        self.geometry.check_block(block)?;
        match &self.storage {
            Storage::Exact { blocks, .. } => Ok(&blocks[block as usize]),
            _ => Err(FlashError::FidelityUnsupported { op: "per-cell block access" }),
        }
    }

    /// Read-only access to a block's cells (oracle inspection for
    /// experiments and tests). Requires [`ReadFidelity::CellExact`]. A
    /// wordline not yet sensed since its erase or its LSB program has its
    /// voltages drawn as it is walked; walk one with
    /// [`CellArray::wordline_current_vth`].
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range or the chip is not cell-exact.
    pub fn cells(&self, block: u32) -> Result<&CellArray, FlashError> {
        self.exact_block(block).map(Block::cells)
    }

    /// The operating point a wordline's cells sit at — the block's wear and
    /// retention age, and the wordline's own disturb dose (concentrated
    /// disturb included) — for evaluating `CellArray::current_vth`.
    /// Requires [`ReadFidelity::CellExact`].
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the chip is not cell-exact.
    pub fn operating_point(&self, block: u32, wordline: u32) -> Result<OperatingPoint, FlashError> {
        let exact = self.exact_block(block)?;
        self.geometry.check_wordline(wordline)?;
        Ok(exact.operating_point_for(&self.ledger, block as usize, wordline))
    }

    /// Status snapshot of a block.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn block_status(&self, block: u32) -> Result<BlockStatus, FlashError> {
        self.geometry.check_block(block)?;
        let b = block as usize;
        Ok(self.ledger.status(b, self.storage.dose(b)))
    }

    /// Erases a block: one P/E cycle of wear ([`Chip::cycle_block`] by one).
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn erase_block(&mut self, block: u32) -> Result<(), FlashError> {
        self.cycle_block(block, 1)
    }

    /// Adds `cycles` of prior wear to a block, leaving it erased (the
    /// paper's pre-wear methodology).
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn cycle_block(&mut self, block: u32, cycles: u64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        let Self { params, ledger, storage, rng, .. } = self;
        ledger.erase(block as usize, cycles);
        storage.reset(params, ledger, block as usize, rng);
        if !self.digests.is_empty() {
            let ppb = self.geometry.pages_per_block() as usize;
            let b = block as usize;
            self.digests[b * ppb..(b + 1) * ppb].fill(0);
        }
        Ok(())
    }

    /// Programs a page with packed data bits. LSB pages may be programmed
    /// before their MSB page (real MLC program order); programming an MSB
    /// page whose LSB page was never written treats the LSB data as
    /// all-ones (erased). The first page after an erase restarts the
    /// block's retention clock. On the payload tiers it records the page's
    /// digest ([`Chip::stored_page`]); erasing the block drops it.
    ///
    /// # Errors
    ///
    /// Checked in this order, each leaving the block untouched:
    /// * [`FlashError::BlockOutOfRange`] / [`FlashError::PageOutOfRange`]
    ///   for a bad address;
    /// * [`FlashError::PageAlreadyProgrammed`] if the page was written since
    ///   the last erase;
    /// * [`FlashError::DataLengthMismatch`] if `data` is not exactly one bit
    ///   per bitline (a block-aggregate chip, which keeps no payloads, also
    ///   accepts an empty slice).
    pub fn program_page(&mut self, block: u32, page: u32, data: &[u8]) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        let b = block as usize;
        if self.ledger.program(b, page, data)? {
            self.storage.op_point_moved(b);
        }
        let Self { params, ledger, storage, rng, .. } = self;
        let recorded = match storage {
            Storage::Exact { blocks, .. } => {
                blocks[b].program_page(params, rng, ledger, b, page, data);
                // A cell-exact LSB program after its MSB rewrites the
                // wordline's intended states, and with them the MSB page's
                // bits (page + 1), which are recorded again; an MSB program
                // keeps the LSB bits.
                match (PageAddr { block, page }).kind() {
                    PageKind::Lsb => page..page + 2,
                    PageKind::Msb => page..page + 1,
                }
            }
            Storage::ClosedForm { state } => {
                state.program_page(b, page, data);
                page..page + 1
            }
        };
        // The aggregate tier keeps no payloads, so no digests.
        if !self.digests.is_empty() {
            self.record_digests(block, recorded);
        }
        Ok(())
    }

    /// Records the digest of each programmed page of `block` in `pages`.
    fn record_digests(&mut self, block: u32, pages: Range<u32>) {
        let first = (block * self.geometry.pages_per_block()) as usize;
        for page in pages {
            if let Ok(payload) = self.page_payload(block, page) {
                let digest = fold_page(FNV_OFFSET, &payload);
                self.digests[first + page as usize] = digest;
            }
        }
    }

    /// Programs every page of a block with pseudo-random data derived from
    /// `data_seed` (the paper's characterization setup). Returns the seed's
    /// generator so callers can reproduce the data.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range or pages were already programmed.
    pub fn program_block_random(&mut self, block: u32, data_seed: u64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        let mut data_rng = StdRng::seed_from_u64(data_seed);
        let nbits = self.geometry.bits_per_page();
        for page in 0..self.geometry.pages_per_block() {
            let data = bits::random(&mut data_rng, nbits);
            self.program_page(block, page, &data)?;
        }
        Ok(())
    }

    /// Reads a page at the block's current references and Vpass; the read
    /// disturbs the rest of the block.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn read_page(&mut self, block: u32, page: u32) -> Result<ReadOutcome, FlashError> {
        self.read_into::<ByteSink>(block, page, None)
    }

    /// [`Chip::read_page`] for callers that consume only the counts. Same
    /// read — same disturb, same RNG draws, same counts — but a
    /// page-analytic chip counts the sampled events through its page lanes
    /// without building, corrupting and re-comparing the page.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    // Inlined into the die's per-read pipeline so the dispatch costs the
    // payload-free aggregate mode nothing over `read_page`.
    #[inline]
    pub fn read_page_counts(&mut self, block: u32, page: u32) -> Result<ReadCounts, FlashError> {
        self.read_into::<CountSink>(block, page, None).map(|outcome| outcome.counts())
    }

    /// A read at the default references (`shift` `None`) or shifted ones,
    /// whose page-analytic events land in sink `S` (a cell-exact chip only
    /// asks it whether to keep the bytes). A block-aggregate chip
    /// fast-forwards default reads and samples every retry.
    fn read_into<S: ReadSink>(
        &mut self,
        block: u32,
        page: u32,
        shift: Option<f64>,
    ) -> Result<ReadOutcome, FlashError> {
        self.geometry.check_block(block)?;
        self.geometry.check_page(page)?;
        let b = block as usize;
        let Self { params, ledger, storage, rng, read_margin, .. } = self;
        match storage {
            Storage::Exact { blocks, scratch } => {
                let refs = shift.map_or(params.refs, |shift| params.refs.shifted(shift));
                blocks[b].read_page(params, ledger, b, page, &refs, true, S::BYTES, scratch)
            }
            Storage::ClosedForm { state } => {
                Ok(state.read::<S>(ledger, rng, *read_margin, b, page, shift))
            }
        }
    }

    /// Reads a page at fully custom read references (each boundary moved
    /// independently), as read-reference optimization requires.
    ///
    /// The closed-form tiers (page-analytic and block-aggregate) serve only
    /// the default references: their model has no per-boundary error
    /// decomposition.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range, or with
    /// [`FlashError::FidelityUnsupported`] for non-default references on a
    /// closed-form tier or a non-MLC reference set on a cell-exact chip.
    pub fn read_page_with_refs(
        &mut self,
        block: u32,
        page: u32,
        refs: &crate::state::VoltageRefs,
    ) -> Result<ReadOutcome, FlashError> {
        self.geometry.check_block(block)?;
        let b = block as usize;
        let Self { geometry, params, ledger, storage, .. } = self;
        match storage {
            Storage::Exact { blocks, scratch } => {
                geometry.check_page(page)?;
                blocks[b].read_page(params, ledger, b, page, refs, true, true, scratch)
            }
            _ if *refs == params.refs => self.read_page(block, page),
            _ => Err(FlashError::FidelityUnsupported { op: "custom-reference read" }),
        }
    }

    /// Read-retry: reads a page with all references shifted by `shift`
    /// (the mechanism the paper uses to measure Vth distributions and to
    /// mimic Vpass changes on real chips, §2).
    ///
    /// Served at every fidelity tier: the cell-exact chip classifies every
    /// cell against the shifted references; the closed-form tiers sample
    /// the retry around the shifted-RBER model (disturb errors decay with a
    /// positive shift, retention errors grow, and the misclassification
    /// floor follows the moved references), its read-count-independent
    /// terms memoized per die — per wordline on a page-analytic chip, at the
    /// block-level rate on a block-aggregate one.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn read_retry(
        &mut self,
        block: u32,
        page: u32,
        shift: f64,
    ) -> Result<RetryReadOutcome, FlashError> {
        let outcome = self.read_into::<ByteSink>(block, page, Some(shift))?;
        Ok(RetryReadOutcome { shift, outcome })
    }

    /// [`Chip::read_retry`] for callers that consume only the counts (see
    /// [`Chip::read_page_counts`]).
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn read_retry_counts(
        &mut self,
        block: u32,
        page: u32,
        shift: f64,
    ) -> Result<ReadCounts, FlashError> {
        self.read_into::<CountSink>(block, page, Some(shift)).map(|outcome| outcome.counts())
    }

    /// Applies the disturb effect of `n` reads spread over a block in one
    /// batch.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn apply_read_disturbs(&mut self, block: u32, n: u64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        let b = block as usize;
        let Self { params, ledger, storage, .. } = self;
        match storage {
            Storage::Exact { blocks, .. } => blocks[b].apply_read_disturbs(params, ledger, b, n),
            Storage::ClosedForm { state } => state.disturb(ledger, b, None, n),
        }
        Ok(())
    }

    /// Applies the disturb effect of `n` reads all targeting one wordline
    /// (a "hammered" page): every other wordline receives the uniform dose,
    /// its direct neighbours concentrated extra disturb, the target itself
    /// none — its gates see read references, not Vpass, during its own
    /// reads. A block-aggregate chip folds the hammer into its block mean.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn hammer_wordline(&mut self, block: u32, wordline: u32, n: u64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        self.geometry.check_wordline(wordline)?;
        let b = block as usize;
        let Self { params, ledger, storage, .. } = self;
        match storage {
            Storage::Exact { blocks, .. } => {
                blocks[b].hammer_wordline(params, ledger, b, wordline, n)
            }
            Storage::ClosedForm { state } => state.disturb(ledger, b, Some(wordline), n),
        }
        Ok(())
    }

    /// Oracle RBER of one wordline's programmed pages. On the closed-form
    /// tiers this is the closed-form expectation, rounded to whole bits; a
    /// block-aggregate chip keeps no per-wordline state, so its value is the
    /// block-level rate, with no hammer concentration.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn wordline_rber(
        &self,
        block: u32,
        wordline: u32,
    ) -> Result<crate::BitErrorStats, FlashError> {
        self.geometry.check_block(block)?;
        self.geometry.check_wordline(wordline)?;
        let (b, params, ledger) = (block as usize, &self.params, &self.ledger);
        Ok(match &self.storage {
            Storage::Exact { blocks, .. } => {
                blocks[b].rber_oracle_wordline(params, ledger, b, wordline)
            }
            Storage::ClosedForm { state } => state.rber_wordline_oracle(ledger, b, wordline),
        })
    }

    /// Advances the retention clock of every block.
    pub fn advance_days(&mut self, days: f64) {
        for b in 0..self.geometry.blocks as usize {
            self.ledger.advance_days(b, days);
            self.storage.op_point_moved(b);
        }
    }

    /// Advances the retention clock of one block.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn advance_block_days(&mut self, block: u32, days: f64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        self.ledger.advance_days(block as usize, days);
        self.storage.op_point_moved(block as usize);
        Ok(())
    }

    /// Sets a block's pass-through voltage (the interface the paper
    /// proposes manufacturers add, §7). Disturb already done stays as it
    /// was: the closed-form tiers applied each read's slope at the read.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range or `vpass` is outside the supported
    /// tuning range.
    pub fn set_block_vpass(&mut self, block: u32, vpass: f64) -> Result<(), FlashError> {
        self.geometry.check_block(block)?;
        self.check_vpass(vpass)?;
        let b = block as usize;
        self.ledger.vpass[b] = vpass;
        self.storage.op_point_moved(b);
        Ok(())
    }

    /// Refuses a pass-through voltage outside the supported tuning range.
    fn check_vpass(&self, vpass: f64) -> Result<(), FlashError> {
        if (self.params.min_vpass..=NOMINAL_VPASS).contains(&vpass) {
            return Ok(());
        }
        Err(FlashError::VpassOutOfRange {
            requested: vpass,
            min: self.params.min_vpass,
            max: NOMINAL_VPASS,
        })
    }

    /// A block's current pass-through voltage.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn block_vpass(&self, block: u32) -> Result<f64, FlashError> {
        self.geometry.check_block(block)?;
        Ok(self.ledger.vpass[block as usize])
    }

    /// Oracle RBER of a block (no disturb added by the measurement). On the
    /// closed-form tiers this is the closed-form expectation, rounded to
    /// whole bits.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn block_rber(&self, block: u32) -> Result<BitErrorStats, FlashError> {
        let (expected, bits) = self.rber_expectation(block)?;
        Ok(BitErrorStats::new(expected.round() as u64, bits))
    }

    /// [`Chip::block_rber`] as it would read with the block's Vpass set to
    /// each of `vpasses` in turn — entry `k` is what
    /// `set_block_vpass(block, vpasses[k])` followed by `block_rber(block)`
    /// gives — without changing the chip. A Vpass sweep of one block state
    /// (paper Fig. 5) costs one oracle sensing, not one per point: the
    /// cell-exact tier senses each programmed wordline once and works out
    /// each pass-through candidate's voltage once, then decides blocking
    /// per Vpass; the closed-form tiers evaluate their point at each Vpass.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range or any of `vpasses` is outside the
    /// supported tuning range (as [`Chip::set_block_vpass`] would).
    pub fn block_rber_sweep(
        &self,
        block: u32,
        vpasses: &[f64],
    ) -> Result<Vec<BitErrorStats>, FlashError> {
        self.geometry.check_block(block)?;
        for &vpass in vpasses {
            self.check_vpass(vpass)?;
        }
        let (b, params, ledger) = (block as usize, &self.params, &self.ledger);
        Ok(match &self.storage {
            Storage::Exact { blocks, .. } => blocks[b].rber_sweep(params, ledger, b, vpasses),
            Storage::ClosedForm { state } => vpasses
                .iter()
                .map(|&vpass| {
                    let (expected, bits) = state.rber_expectation(ledger, b, vpass);
                    BitErrorStats::new(expected.round() as u64, bits)
                })
                .collect(),
        })
    }

    /// Expected block RBER as a real number over the block's programmed
    /// pages: the per-cell oracle rate on a cell-exact chip, the *unrounded*
    /// closed-form expectation on the closed-form tiers. This is the
    /// quantity to compare across fidelity tiers — [`Chip::block_rber`]
    /// rounds to whole bits, which quantizes small expectations to zero.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn block_rber_rate(&self, block: u32) -> Result<f64, FlashError> {
        let (expected, bits) = self.rber_expectation(block)?;
        Ok(if bits == 0 { 0.0 } else { expected / bits as f64 })
    }

    /// `(expected error bits, bits)` over a block's programmed pages: the
    /// per-cell oracle's count on a cell-exact chip, the unrounded
    /// closed-form expectation on the other tiers.
    fn rber_expectation(&self, block: u32) -> Result<(f64, u64), FlashError> {
        self.geometry.check_block(block)?;
        let (b, params, ledger) = (block as usize, &self.params, &self.ledger);
        Ok(match &self.storage {
            Storage::Exact { blocks, .. } => {
                let oracle = blocks[b].rber_oracle(params, ledger, b);
                (oracle.errors as f64, oracle.bits)
            }
            Storage::ClosedForm { state } => state.rber_expectation(ledger, b, ledger.vpass[b]),
        })
    }

    /// Threshold-voltage histogram of a block (oracle; the experimental
    /// equivalent is an exhaustive read-retry sweep). Requires
    /// [`ReadFidelity::CellExact`].
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range, the chip is not cell-exact, or
    /// `bin_width` is not positive and finite.
    pub fn vth_histogram(&self, block: u32, bin_width: f64) -> Result<VthHistogram, FlashError> {
        let b = self.exact_block(block)?;
        if !(bin_width > 0.0 && bin_width.is_finite()) {
            return Err(FlashError::StepNotPositive { step: bin_width });
        }
        let min = -80.0;
        let max = NOMINAL_VPASS + 40.0;
        let nbins = ((max - min) / bin_width).ceil() as usize;
        let mut hist = VthHistogram {
            bin_width,
            min,
            counts: vec![0; nbins],
            by_state: [vec![0; nbins], vec![0; nbins], vec![0; nbins], vec![0; nbins]],
            total: 0,
        };
        for (_, _, state, vth) in b.iter_cells_current(&self.params, &self.ledger, block as usize) {
            let bin = ((vth - min) / bin_width).floor();
            if bin >= 0.0 && (bin as usize) < nbins {
                let i = bin as usize;
                hist.counts[i] += 1;
                hist.by_state[state.index() as usize][i] += 1;
            }
            hist.total += 1;
        }
        Ok(hist)
    }

    /// Measures per-cell threshold voltages of a wordline via a read-retry
    /// sweep quantized at `step`. With `disturb`, the sweep's reads disturb
    /// the block (as on real hardware). Requires [`ReadFidelity::CellExact`].
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range, the chip is not cell-exact, or
    /// `step` is not positive and finite.
    pub fn measure_wordline_vth(
        &mut self,
        block: u32,
        wordline: u32,
        step: f64,
        disturb: bool,
    ) -> Result<Vec<f64>, FlashError> {
        self.geometry.check_block(block)?;
        self.geometry.check_wordline(wordline)?;
        let b = block as usize;
        match &mut self.storage {
            Storage::Exact { blocks, scratch } => blocks[b].measure_wordline_vth(
                &self.params,
                &mut self.ledger,
                b,
                wordline,
                step,
                disturb,
                scratch,
            ),
            _ => Err(FlashError::FidelityUnsupported { op: "per-cell Vth measurement" }),
        }
    }

    /// Whether a page has been programmed since its block's last erase.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn is_page_programmed(&self, block: u32, page: u32) -> Result<bool, FlashError> {
        self.geometry.check_block(block)?;
        self.geometry.check_page(page)?;
        Ok(self.ledger.is_programmed(block as usize, page))
    }

    /// Ground-truth programmed bits of a page (evaluation oracle for
    /// recovery experiments; a real controller does not have this).
    ///
    /// # Errors
    ///
    /// See [`Chip::page_payload`].
    pub fn intended_page_bits(&self, block: u32, page: u32) -> Result<Vec<u8>, FlashError> {
        self.page_payload(block, page).map(Cow::into_owned)
    }

    /// [`Chip::intended_page_bits`] without the copy where the tier stores
    /// payloads: a page-analytic chip lends its stored page, a cell-exact
    /// chip assembles the bits from its cells' intended states.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the page is unprogrammed,
    /// and with [`FlashError::FidelityUnsupported`] on a block-aggregate
    /// chip, which keeps no payloads.
    pub fn page_payload(&self, block: u32, page: u32) -> Result<Cow<'_, [u8]>, FlashError> {
        let programmed = self.is_page_programmed(block, page)?;
        let b = block as usize;
        match &self.storage {
            Storage::ClosedForm { state } => match state.payload(b, page) {
                None => Err(FlashError::FidelityUnsupported { op: "page payload retrieval" }),
                Some(_) if !programmed => Err(FlashError::PageNotProgrammed { page }),
                Some(stored) => Ok(Cow::Borrowed(stored)),
            },
            _ if !programmed => Err(FlashError::PageNotProgrammed { page }),
            Storage::Exact { blocks, .. } => {
                let addr = PageAddr { block, page };
                let cells = blocks[b].cells();
                Ok(Cow::Owned(pack_page(cells.intended_wordline(addr.wordline()), addr.kind())))
            }
        }
    }

    /// A programmed page's payload ([`Chip::page_payload`]) with the digest
    /// [`Chip::program_page`] recorded for it, `fold_page(FNV_OFFSET,
    /// payload)`: what a consumer that fingerprints its reads folds instead
    /// of the page's bytes.
    ///
    /// # Errors
    ///
    /// As [`Chip::page_payload`].
    pub fn stored_page(&self, block: u32, page: u32) -> Result<(Cow<'_, [u8]>, u64), FlashError> {
        let payload = self.page_payload(block, page)?;
        let i = block * self.geometry.pages_per_block() + page;
        Ok((payload, self.digests[i as usize]))
    }
}

/// Convenience: the four states with their default distribution parameters,
/// for plotting figure legends.
pub fn state_legend(params: &ChipParams) -> Vec<(CellState, f64, f64)> {
    ALL_STATES
        .iter()
        .map(|&s| {
            let d = params.states[s.index() as usize];
            (s, d.mean, d.sigma)
        })
        .collect()
}

#[cfg(test)]
mod lazy_erase_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn test_chip() -> Chip {
        Chip::new(Geometry::small(), ChipParams::default(), 1234)
    }

    fn analytic_chip() -> Chip {
        Chip::with_fidelity(
            Geometry::small(),
            ChipParams::default(),
            1234,
            ReadFidelity::PageAnalytic,
        )
    }

    #[test]
    fn geometry_validation_on_construction() {
        let result = std::panic::catch_unwind(|| {
            Chip::new(
                Geometry { blocks: 1, wordlines_per_block: 4, bitlines: 12, bits_per_cell: 2 },
                ChipParams::default(),
                0,
            )
        });
        assert!(result.is_err(), "non-multiple-of-8 bitlines must panic");
    }

    #[test]
    fn out_of_range_addresses_error() {
        let mut chip = test_chip();
        assert!(chip.erase_block(99).is_err());
        assert!(chip.read_page(0, 999).is_err());
        assert!(chip.set_block_vpass(99, 500.0).is_err());
        assert!(chip.block_status(99).is_err());
    }

    #[test]
    fn program_and_read_round_trip() {
        let mut chip = test_chip();
        chip.program_block_random(0, 55).unwrap();
        let truth = chip.intended_page_bits(0, 3).unwrap();
        let out = chip.read_page(0, 3).unwrap();
        assert_eq!(bits::hamming(&truth, &out.data), out.stats.errors);
        assert!(out.stats.rate() < 1e-2);
    }

    #[test]
    fn unprogrammed_page_oracle_errors() {
        let chip = test_chip();
        assert!(matches!(chip.intended_page_bits(0, 0), Err(FlashError::PageNotProgrammed { .. })));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 777);
            chip.cycle_block(1, 5_000).unwrap();
            chip.program_block_random(1, 3).unwrap();
            chip.apply_read_disturbs(1, 50_000).unwrap();
            chip.block_rber(1).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn histogram_shows_four_modes() {
        let mut chip = Chip::new(
            Geometry { blocks: 1, wordlines_per_block: 16, bitlines: 2048, bits_per_cell: 2 },
            ChipParams::default(),
            5,
        );
        chip.program_block_random(0, 1).unwrap();
        let hist = chip.vth_histogram(0, 4.0).unwrap();
        assert_eq!(hist.total as usize, 16 * 2048);
        // State means near the programming targets.
        assert!((hist.state_mean(CellState::Er) - 40.0).abs() < 6.0);
        assert!((hist.state_mean(CellState::P1) - 160.0).abs() < 6.0);
        assert!((hist.state_mean(CellState::P2) - 290.0).abs() < 6.0);
        assert!((hist.state_mean(CellState::P3) - 420.0).abs() < 6.0);
        // PDF integrates to ~1.
        let integral: f64 = (0..hist.counts.len()).map(|i| hist.pdf(i) * hist.bin_width).sum();
        assert!((integral - 1.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_matches_the_per_cell_reference() {
        let mut chip = test_chip();
        chip.cycle_block(0, 9_000).unwrap();
        chip.program_block_random(0, 6).unwrap();
        chip.advance_days(10.0);
        chip.apply_read_disturbs(0, 700_000).unwrap();
        chip.hammer_wordline(0, 3, 200_000).unwrap();
        let hist = chip.vth_histogram(0, 2.0).unwrap();
        let cells = chip.cells(0).unwrap();
        let mut expected = [(); 4].map(|()| vec![0u64; hist.counts.len()]);
        let geometry = chip.geometry();
        for wl in 0..geometry.wordlines_per_block {
            let op = chip.operating_point(0, wl).unwrap();
            for bl in 0..geometry.bitlines {
                let i = (wl * geometry.bitlines + bl) as usize;
                let vth = cells.reference_vth(chip.params(), i, op);
                let bin = ((vth - hist.min) / hist.bin_width).floor() as usize;
                expected[cells.intended_state(wl, bl).index() as usize][bin] += 1;
            }
        }
        assert_eq!(hist.by_state, expected);
        assert_eq!(hist.total, geometry.cells_per_block() as u64);
    }

    #[test]
    fn count_only_reads_match_materializing_reads() {
        let build = || {
            let mut chip = test_chip();
            chip.cycle_block(0, 8_000).unwrap();
            chip.program_block_random(0, 2).unwrap();
            chip.apply_read_disturbs(0, 600_000).unwrap();
            chip.set_block_vpass(0, chip.params().min_vpass).unwrap();
            chip
        };
        let (mut bytes, mut counts) = (build(), build());
        for page in 0..bytes.geometry().pages_per_block() {
            let read = bytes.read_page(0, page).unwrap();
            assert_eq!(read.data.len(), bytes.geometry().bits_per_page() / 8);
            assert_eq!(counts.read_page_counts(0, page).unwrap(), read.counts());
            let retry = bytes.read_retry(0, page, 8.0).unwrap().outcome;
            assert_eq!(counts.read_retry_counts(0, page, 8.0).unwrap(), retry.counts());
        }
        assert_eq!(bytes.rng.state(), counts.rng.state());
        assert_eq!(bytes.block_status(0).unwrap(), counts.block_status(0).unwrap());
        assert_eq!(bytes.block_rber(0).unwrap(), counts.block_rber(0).unwrap());
    }

    #[test]
    fn non_mlc_references_are_a_typed_error() {
        let mut chip = test_chip();
        chip.program_block_random(0, 1).unwrap();
        let tlc =
            crate::state::VoltageRefs::from_levels(&[60., 120., 180., 240., 300., 360., 420.]);
        assert!(matches!(
            chip.read_page_with_refs(0, 0, &tlc),
            Err(FlashError::FidelityUnsupported { .. })
        ));
        assert_eq!(chip.block_status(0).unwrap().reads_since_erase, 0);
    }

    #[test]
    fn non_positive_steps_are_a_typed_error() {
        let mut chip = test_chip();
        chip.program_block_random(0, 1).unwrap();
        for step in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                chip.measure_wordline_vth(0, 0, step, false),
                Err(FlashError::StepNotPositive { .. })
            ));
            assert!(matches!(chip.vth_histogram(0, step), Err(FlashError::StepNotPositive { .. })));
        }
    }

    #[test]
    fn read_retry_shift_changes_classification() {
        let mut chip = test_chip();
        chip.program_block_random(0, 2).unwrap();
        // A large negative shift reads many cells as higher states: errors rise.
        let base = chip.read_retry(0, 0, 0.0).unwrap().outcome.stats.errors;
        let shifted = chip.read_retry(0, 0, -60.0).unwrap().outcome.stats.errors;
        assert!(shifted > base);
    }

    #[test]
    fn disturb_then_rber_increases_with_reads_at_high_wear() {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 99);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 4).unwrap();
        let r0 = chip.block_rber(0).unwrap().rate();
        chip.apply_read_disturbs(0, 100_000).unwrap();
        let r1 = chip.block_rber(0).unwrap().rate();
        chip.apply_read_disturbs(0, 400_000).unwrap();
        let r2 = chip.block_rber(0).unwrap().rate();
        assert!(r0 < r1 && r1 < r2, "{r0} {r1} {r2}");
    }

    #[test]
    fn vpass_at_nominal_by_default() {
        let chip = test_chip();
        assert_eq!(chip.block_vpass(0).unwrap(), NOMINAL_VPASS);
    }

    #[test]
    fn state_legend_has_four_entries() {
        let legend = state_legend(&ChipParams::default());
        assert_eq!(legend.len(), 4);
        assert_eq!(legend[0].0, CellState::Er);
    }

    #[test]
    fn hammer_wordline_validates_addresses() {
        let mut chip = test_chip();
        assert!(chip.hammer_wordline(0, 0, 100).is_ok());
        assert!(chip.hammer_wordline(99, 0, 100).is_err());
        assert!(chip.hammer_wordline(0, 999, 100).is_err());
        assert!(chip.wordline_rber(0, 999).is_err());
    }

    #[test]
    fn hammering_counts_as_reads() {
        let mut chip = test_chip();
        chip.program_block_random(0, 1).unwrap();
        chip.hammer_wordline(0, 2, 5_000).unwrap();
        assert_eq!(chip.block_status(0).unwrap().reads_since_erase, 5_000);
    }

    #[test]
    fn custom_refs_read_matches_default_at_defaults() {
        let mut chip = test_chip();
        chip.program_block_random(0, 3).unwrap();
        let default_refs = chip.params().refs;
        let a = chip.read_page_with_refs(0, 4, &default_refs).unwrap();
        let b = chip.read_page(0, 4).unwrap();
        assert_eq!(a.data, b.data);
        // Wildly wrong references produce many errors.
        let bad = crate::state::VoltageRefs::new(10.0, 20.0, 30.0);
        let c = chip.read_page_with_refs(0, 4, &bad).unwrap();
        assert!(c.stats.errors > a.stats.errors + 100);
    }

    #[test]
    fn wordline_rber_consistent_with_block_rber() {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 8);
        chip.cycle_block(0, 10_000).unwrap();
        chip.program_block_random(0, 8).unwrap();
        chip.apply_read_disturbs(0, 200_000).unwrap();
        let total: crate::BitErrorStats =
            (0..64).map(|wl| chip.wordline_rber(0, wl).unwrap()).sum();
        let block = chip.block_rber(0).unwrap();
        assert_eq!(total, block, "per-wordline sums must equal the block oracle");
    }

    #[test]
    fn analytic_chip_serves_reads_and_counters() {
        let mut chip = analytic_chip();
        assert_eq!(chip.fidelity(), ReadFidelity::PageAnalytic);
        chip.program_block_random(0, 55).unwrap();
        let truth = chip.intended_page_bits(0, 3).unwrap();
        let out = chip.read_page(0, 3).unwrap();
        assert_eq!(bits::hamming(&truth, &out.data), out.stats.errors);
        assert_eq!(chip.block_status(0).unwrap().reads_since_erase, 1);
    }

    #[test]
    fn analytic_chip_is_deterministic_given_seed() {
        let run = || {
            let mut chip = analytic_chip();
            chip.cycle_block(1, 8_000).unwrap();
            chip.program_block_random(1, 3).unwrap();
            let mut errors = 0;
            for page in 0..chip.geometry().pages_per_block() {
                errors += chip.read_page(1, page).unwrap().stats.errors;
            }
            (errors, chip.block_rber(1).unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn analytic_chip_rejects_per_cell_oracles() {
        let mut chip = analytic_chip();
        chip.program_block_random(0, 1).unwrap();
        assert!(matches!(chip.vth_histogram(0, 4.0), Err(FlashError::FidelityUnsupported { .. })));
        assert!(matches!(
            chip.measure_wordline_vth(0, 0, 1.0, false),
            Err(FlashError::FidelityUnsupported { .. })
        ));
        assert!(matches!(chip.cells(0), Err(FlashError::FidelityUnsupported { .. })));
        assert!(matches!(chip.operating_point(0, 0), Err(FlashError::FidelityUnsupported { .. })));
        // Default refs and zero shift are served.
        let refs = chip.params().refs;
        assert!(chip.read_page_with_refs(0, 0, &refs).is_ok());
        assert!(chip.read_retry(0, 0, 0.0).is_ok());
    }

    #[test]
    fn analytic_chip_serves_shifted_retry_reads() {
        let mut chip = analytic_chip();
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 2).unwrap();
        chip.apply_read_disturbs(0, 800_000).unwrap();
        // Average several sampled reads per shift: a modest positive shift
        // must recover disturb errors, a negative one must add errors.
        let mean_errors = |chip: &mut Chip, shift: f64| -> f64 {
            (0..24).map(|_| chip.read_retry(0, 3, shift).unwrap().outcome.stats.errors).sum::<u64>()
                as f64
                / 24.0
        };
        let base = mean_errors(&mut chip, 0.0);
        let raised = mean_errors(&mut chip, 8.0);
        let lowered = mean_errors(&mut chip, -12.0);
        assert!(raised < base, "positive retry shift must recover: {base} -> {raised}");
        assert!(lowered > base, "negative retry shift must hurt: {base} -> {lowered}");
    }

    fn aggregate_chip() -> Chip {
        Chip::with_fidelity(
            Geometry::small(),
            ChipParams::default(),
            1234,
            ReadFidelity::BlockAggregate,
        )
    }

    #[test]
    fn aggregate_chip_serves_reads_and_counters() {
        let mut chip = aggregate_chip();
        assert_eq!(chip.fidelity(), ReadFidelity::BlockAggregate);
        chip.program_block_random(0, 55).unwrap();
        assert!(chip.is_page_programmed(0, 3).unwrap());
        let out = chip.read_page(0, 3).unwrap();
        assert!(out.data.is_empty(), "aggregate reads carry no payload");
        assert_eq!(out.stats.bits, chip.geometry().bits_per_page() as u64);
        assert_eq!(chip.block_status(0).unwrap().reads_since_erase, 1);
    }

    #[test]
    fn aggregate_chip_rejects_per_cell_oracles_and_payloads() {
        let mut chip = aggregate_chip();
        chip.program_block_random(0, 1).unwrap();
        assert!(matches!(chip.vth_histogram(0, 4.0), Err(FlashError::FidelityUnsupported { .. })));
        assert!(matches!(
            chip.measure_wordline_vth(0, 0, 1.0, false),
            Err(FlashError::FidelityUnsupported { .. })
        ));
        assert!(matches!(chip.cells(0), Err(FlashError::FidelityUnsupported { .. })));
        assert!(matches!(chip.operating_point(0, 0), Err(FlashError::FidelityUnsupported { .. })));
        assert!(matches!(
            chip.intended_page_bits(0, 0),
            Err(FlashError::FidelityUnsupported { .. })
        ));
        // Default refs and shifted retries are served.
        let refs = chip.params().refs;
        assert!(chip.read_page_with_refs(0, 0, &refs).is_ok());
        assert!(chip.read_retry(0, 0, 5.0).is_ok());
    }

    #[test]
    fn aggregate_chip_is_deterministic_given_seed() {
        let run = || {
            let mut chip = aggregate_chip();
            chip.cycle_block(1, 8_000).unwrap();
            chip.program_block_random(1, 3).unwrap();
            let mut errors = 0;
            for _ in 0..50 {
                for page in 0..chip.geometry().pages_per_block() {
                    errors += chip.read_page(1, page).unwrap().stats.errors;
                }
            }
            (errors, chip.block_rber(1).unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aggregate_chip_margin_hint_enables_fast_forward() {
        // With a generous ECC-margin hint a fresh block stays far from the
        // margin, so reads are served from the per-block summary — the
        // error count is frozen between refresh horizons instead of
        // resampling noise every read.
        let mut chip = aggregate_chip();
        chip.set_read_margin(Some(40));
        assert_eq!(chip.read_margin(), Some(40));
        chip.program_block_random(0, 9).unwrap();
        let first = chip.read_page(0, 0).unwrap().stats.errors;
        let next = chip.read_page(0, 0).unwrap().stats.errors;
        assert_eq!(first, next, "summary-served reads are constant within a horizon");
        // Without a hint the chip must assume a standalone caller and sample.
        chip.set_read_margin(None);
        assert!(chip.read_page(0, 0).is_ok());
    }

    /// Checks that every programmed page's recorded digest is the fold of
    /// its payload as the chip serves it now.
    fn assert_digests_current(chip: &Chip, when: &str) {
        let geometry = chip.geometry();
        for block in 0..geometry.blocks {
            for page in 0..geometry.pages_per_block() {
                match chip.stored_page(block, page) {
                    Ok((payload, digest)) => assert_eq!(
                        digest,
                        fold_page(FNV_OFFSET, &payload),
                        "{}: block {block} page {page} {when}",
                        chip.fidelity()
                    ),
                    Err(FlashError::PageNotProgrammed { .. }) => {}
                    Err(e) => panic!("{}: block {block} page {page} {when}: {e}", chip.fidelity()),
                }
            }
        }
    }

    /// A chip rebuilt (under another seed) from `chip`'s checkpoint.
    fn restored(chip: &Chip) -> Chip {
        let mut w = crate::wire::Writer::new();
        chip.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut copy =
            Chip::with_fidelity(chip.geometry(), chip.params().clone(), 99, chip.fidelity());
        copy.restore_state(&mut crate::wire::Reader::new(&bytes)).unwrap();
        copy
    }

    #[test]
    fn recorded_page_digests_follow_program_erase_and_restore() {
        use rand::Rng;
        // 65-byte pages: the digest folds a one-byte tail too.
        let geometry =
            Geometry { blocks: 4, wordlines_per_block: 8, bitlines: 520, bits_per_cell: 2 };
        for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
            let mut chip = Chip::with_fidelity(geometry, ChipParams::default(), 5, fidelity);
            let mut rng = StdRng::seed_from_u64(11);
            let page_data = |rng: &mut StdRng| bits::random(rng, 520);
            // MSB after LSB on wordline 0; LSB after MSB on wordline 1, whose
            // LSB program rewrites the intended states under the MSB page.
            for page in [0, 1, 3, 2] {
                chip.program_page(0, page, &page_data(&mut rng)).unwrap();
                assert_digests_current(&chip, &format!("after programming page {page}"));
            }
            for step in 0..300 {
                let block = rng.gen_range(0..geometry.blocks);
                match rng.gen_range(0..20) {
                    0 => chip.erase_block(block).unwrap(),
                    1 => chip.cycle_block(block, rng.gen_range(1..500)).unwrap(),
                    2 => {
                        let copy = restored(&chip);
                        assert_eq!(copy.digests, chip.digests, "{fidelity}: step {step}");
                        chip = copy;
                    }
                    _ => {
                        let page = rng.gen_range(0..geometry.pages_per_block());
                        let data = page_data(&mut rng);
                        let programmed = chip.is_page_programmed(block, page).unwrap();
                        assert_eq!(chip.program_page(block, page, &data).is_err(), programmed);
                    }
                }
                assert_digests_current(&chip, &format!("at step {step}"));
            }
        }
        let mut chip =
            Chip::with_fidelity(geometry, ChipParams::default(), 5, ReadFidelity::BlockAggregate);
        chip.program_page(0, 0, &[]).unwrap();
        let _ = restored(&chip);
        assert!(chip.digests.is_empty(), "a block-aggregate chip keeps no digest lane");
        assert!(matches!(chip.stored_page(0, 0), Err(FlashError::FidelityUnsupported { .. })));
    }

    /// A cell-exact restore that fails anywhere — a truncated snapshot, one
    /// whose last block holds an out-of-range state index, or one whose last
    /// block's `leak` lane is a cell short (the error names the lane and its
    /// length) — leaves every block and every ledger row as it was.
    #[test]
    fn cell_exact_restore_is_all_or_nothing() {
        use crate::wire::{Reader, SnapError, Writer};
        let geometry =
            Geometry { blocks: 3, wordlines_per_block: 4, bitlines: 64, bits_per_cell: 2 };
        let encoded = |chip: &Chip| {
            let mut w = Writer::new();
            chip.encode_state(&mut w);
            w.into_bytes()
        };
        let worked = |seed: u64| {
            let mut chip = Chip::new(geometry, ChipParams::default(), seed);
            for block in 0..geometry.blocks {
                chip.cycle_block(block, 1_000 * seed).unwrap();
                chip.program_block_random(block, seed + u64::from(block)).unwrap();
                chip.apply_read_disturbs(block, 10_000 * seed).unwrap();
            }
            chip
        };
        let good = encoded(&worked(3));
        let mut chip = worked(4);
        let before = encoded(&chip);
        assert_ne!(good, before);
        let truncated = &good[..good.len() - 1];
        assert!(chip.restore_state(&mut Reader::new(truncated)).is_err());
        assert_eq!(encoded(&chip), before, "after a truncated snapshot");
        // The last block ends with its intended states and three
        // length-prefixed f32 lanes; flip the top bit of its last state.
        let cells = (geometry.wordlines_per_block * geometry.bitlines) as usize;
        let mut flipped = good.clone();
        flipped[good.len() - 3 * (8 + 4 * cells) - 1] ^= 0x80;
        let result = chip.restore_state(&mut Reader::new(&flipped));
        assert!(matches!(result, Err(SnapError::Mismatch(_))), "{result:?}");
        assert_eq!(encoded(&chip), before, "after a bit-flipped snapshot");
        let susceptibility_at = good.len() - (8 + 4 * cells);
        let leak_at = susceptibility_at - (8 + 4 * cells);
        let mut short = good[..susceptibility_at - 4].to_vec();
        short[leak_at..leak_at + 8].copy_from_slice(&(cells as u64 - 1).to_le_bytes());
        short.extend_from_slice(&good[susceptibility_at..]);
        let result = chip.restore_state(&mut Reader::new(&short));
        let named = |message: &str| message.ends_with(&format!("leak lane has {}", cells - 1));
        assert!(matches!(&result, Err(SnapError::Mismatch(m)) if named(m)), "{result:?}");
        assert_eq!(encoded(&chip), before, "after a short leak lane");
        chip.restore_state(&mut Reader::new(&good)).unwrap();
        assert_eq!(encoded(&chip), good);
    }
}
