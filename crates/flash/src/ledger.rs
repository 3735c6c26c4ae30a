//! The block ledger: what a controller tracks about every block — P/E
//! cycles, retention age, reads since erase, pass-through voltage and the
//! programmed pages — and the lifecycle rules that move it, kept once for
//! all three fidelity tiers. The tiers keep only their physics and read the
//! ledger as `(&ledger, b)`.

use crate::error::FlashError;
use crate::params::NOMINAL_VPASS;
use crate::wire::{Reader, SnapError, Writer};

/// Snapshot of a block's operating state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStatus {
    /// Program/erase cycles endured.
    pub pe_cycles: u64,
    /// Reads performed since the last erase.
    pub reads_since_erase: u64,
    /// Days since the last erase/program.
    pub age_days: f64,
    /// Current pass-through voltage (normalized scale).
    pub vpass: f64,
    /// Number of programmed pages.
    pub programmed_pages: u32,
    /// Accumulated read-disturb dose (model-internal units).
    pub dose: f64,
}

/// Struct-of-arrays ledger with one row per block of a chip.
#[derive(Debug, Clone)]
pub(crate) struct BlockLedger {
    pages: usize,
    bitlines: usize,
    /// Whether an empty payload is a valid program: the block-aggregate
    /// tier keeps no payloads, so it also accepts the empty write.
    empty_writes: bool,
    pub(crate) pe_cycles: Vec<u64>,
    pub(crate) age_days: Vec<f64>,
    pub(crate) reads_since_erase: Vec<u64>,
    pub(crate) vpass: Vec<f64>,
    /// Programmed-page flags, `b * pages + page`.
    programmed: Vec<bool>,
    /// How many of each block's flags are set.
    programmed_count: Vec<u32>,
}

impl BlockLedger {
    pub(crate) fn new(blocks: u32, pages: u32, bitlines: u32, empty_writes: bool) -> Self {
        let (n, pages) = (blocks as usize, pages as usize);
        Self {
            pages,
            bitlines: bitlines as usize,
            empty_writes,
            pe_cycles: vec![0; n],
            age_days: vec![0.0; n],
            reads_since_erase: vec![0; n],
            vpass: vec![NOMINAL_VPASS; n],
            programmed: vec![false; n * pages],
            programmed_count: vec![0; n],
        }
    }

    /// Whether a page has been programmed since its block's last erase.
    pub(crate) fn is_programmed(&self, b: usize, page: u32) -> bool {
        (page as usize) < self.pages && self.programmed[b * self.pages + page as usize]
    }

    pub(crate) fn programmed_pages(&self, b: usize) -> u32 {
        self.programmed_count[b]
    }

    /// Records a program of `page`, checked in this order: the page is in
    /// range, not programmed since the erase, and `data` is one bit per
    /// bitline. The first page after an erase restarts the retention clock
    /// (it tracks the age of the *data*); the return value says whether that
    /// happened, i.e. whether the operating point moved.
    ///
    /// # Errors
    ///
    /// [`FlashError::PageOutOfRange`], [`FlashError::PageAlreadyProgrammed`]
    /// or [`FlashError::DataLengthMismatch`], leaving the row untouched.
    pub(crate) fn program(&mut self, b: usize, page: u32, data: &[u8]) -> Result<bool, FlashError> {
        if page as usize >= self.pages {
            return Err(FlashError::PageOutOfRange { page, pages: self.pages as u32 });
        }
        let i = b * self.pages + page as usize;
        if self.programmed[i] {
            return Err(FlashError::PageAlreadyProgrammed { page });
        }
        if data.len() * 8 != self.bitlines && !(self.empty_writes && data.is_empty()) {
            return Err(FlashError::DataLengthMismatch {
                got: data.len() * 8,
                expected: self.bitlines,
            });
        }
        let first = self.programmed_count[b] == 0;
        if first {
            self.age_days[b] = 0.0;
        }
        self.programmed[i] = true;
        self.programmed_count[b] += 1;
        Ok(first)
    }

    /// Erase and pre-wear alike (an erase is one cycle of wear): `cycles`
    /// more P/E cycles, no programmed page, no reads, a fresh retention
    /// clock. The Vpass setting survives.
    pub(crate) fn erase(&mut self, b: usize, cycles: u64) {
        self.pe_cycles[b] += cycles;
        self.age_days[b] = 0.0;
        self.reads_since_erase[b] = 0;
        self.programmed[b * self.pages..(b + 1) * self.pages].fill(false);
        self.programmed_count[b] = 0;
    }

    pub(crate) fn advance_days(&mut self, b: usize, days: f64) {
        assert!(days >= 0.0, "time flows forward");
        self.age_days[b] += days;
    }

    /// Block `b`'s status, with the tier's disturb `dose`.
    pub(crate) fn status(&self, b: usize, dose: f64) -> BlockStatus {
        BlockStatus {
            pe_cycles: self.pe_cycles[b],
            reads_since_erase: self.reads_since_erase[b],
            age_days: self.age_days[b],
            vpass: self.vpass[b],
            programmed_pages: self.programmed_count[b],
            dose,
        }
    }

    /// Writes row `b` as the per-block tiers checkpoint it: the P/E count,
    /// whatever `physics` writes (the cell-exact tier's dose lanes sit
    /// there), then age, reads, Vpass and the page flags.
    pub(crate) fn encode_row(&self, b: usize, w: &mut Writer, physics: impl FnOnce(&mut Writer)) {
        w.put_u64(self.pe_cycles[b]);
        physics(w);
        w.put_f64(self.age_days[b]);
        w.put_u64(self.reads_since_erase[b]);
        w.put_f64(self.vpass[b]);
        w.put_bools(&self.programmed[b * self.pages..(b + 1) * self.pages]);
    }

    /// Restores row `b` written by [`Self::encode_row`], with `physics`
    /// reading back what its counterpart wrote; the row is untouched unless
    /// everything up to the page flags decodes and fits.
    pub(crate) fn restore_row<T>(
        &mut self,
        b: usize,
        r: &mut Reader<'_>,
        physics: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let pe_cycles = r.get_u64()?;
        let physical = physics(r)?;
        let (age, reads, vpass, flags) = (r.get_f64()?, r.get_u64()?, r.get_f64()?, r.get_bools()?);
        if flags.len() != self.pages {
            let pages = self.pages;
            return Err(SnapError::Mismatch(format!("{} page flags, not {pages}", flags.len())));
        }
        self.pe_cycles[b] = pe_cycles;
        (self.age_days[b], self.reads_since_erase[b], self.vpass[b]) = (age, reads, vpass);
        self.programmed_count[b] = flags.iter().filter(|&&p| p).count() as u32;
        self.programmed[b * self.pages..(b + 1) * self.pages].copy_from_slice(&flags);
        Ok(physical)
    }

    /// Writes the whole ledger lane by lane, as the block-aggregate tier
    /// checkpoints it: P/E, age, reads and Vpass lanes, whatever `physics`
    /// writes, then the page flags and their per-block counts.
    pub(crate) fn encode_lanes(&self, w: &mut Writer, physics: impl FnOnce(&mut Writer)) {
        w.put_u64s(&self.pe_cycles);
        w.put_f64s(&self.age_days);
        w.put_u64s(&self.reads_since_erase);
        w.put_f64s(&self.vpass);
        physics(w);
        w.put_bools(&self.programmed);
        w.put_u32s(&self.programmed_count);
    }

    /// Restores lanes written by [`Self::encode_lanes`]. Every lane must fit
    /// the chip and every block's count must equal its set flags; otherwise
    /// nothing is restored.
    pub(crate) fn restore_lanes<T>(
        &mut self,
        r: &mut Reader<'_>,
        physics: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let n = self.pe_cycles.len();
        let (pe, age, reads, vpass) = (r.get_u64s()?, r.get_f64s()?, r.get_u64s()?, r.get_f64s()?);
        let physical = physics(r)?;
        let (flags, counts) = (r.get_bools()?, r.get_u32s()?);
        let lens = [pe.len(), age.len(), reads.len(), vpass.len(), counts.len()];
        if lens.iter().any(|&len| len != n) || flags.len() != n * self.pages {
            return Err(SnapError::Mismatch(format!("block ledger lanes do not fit {n} blocks")));
        }
        let counted = flags.chunks(self.pages).map(|f| f.iter().filter(|&&p| p).count());
        if let Some(b) = counted.zip(&counts).position(|(set, &count)| set != count as usize) {
            return Err(SnapError::Mismatch(format!(
                "block {b}: programmed count {} disagrees with its page flags",
                counts[b]
            )));
        }
        (self.pe_cycles, self.age_days, self.reads_since_erase, self.vpass) =
            (pe, age, reads, vpass);
        (self.programmed, self.programmed_count) = (flags, counts);
        Ok(physical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, ChipParams, Geometry, ReadFidelity};

    const TIERS: [ReadFidelity; 3] =
        [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate];

    /// Two blocks of four pages on 64 bitlines (8-byte pages).
    fn two_blocks(empty_writes: bool) -> BlockLedger {
        BlockLedger::new(2, 4, 64, empty_writes)
    }

    #[test]
    fn program_checks_run_in_order() {
        for empty_writes in [false, true] {
            let mut ledger = two_blocks(empty_writes);
            let page = [0u8; 8];
            assert_eq!(ledger.program(1, 3, &page), Ok(true), "first page of the block");
            assert_eq!(ledger.program(1, 0, &page), Ok(false));
            let before = ledger.clone();
            // Range first, even for a page that is also a short write…
            assert!(matches!(
                ledger.program(1, 4, &[0u8; 3]),
                Err(FlashError::PageOutOfRange { page: 4, pages: 4 })
            ));
            // …then the double program, even with a short payload…
            assert!(matches!(
                ledger.program(1, 3, &[0u8; 3]),
                Err(FlashError::PageAlreadyProgrammed { page: 3 })
            ));
            // …then the length.
            assert!(matches!(
                ledger.program(1, 2, &[0u8; 3]),
                Err(FlashError::DataLengthMismatch { got: 24, expected: 64 })
            ));
            assert!(matches!(
                ledger.program(1, 2, &[0u8; 9]),
                Err(FlashError::DataLengthMismatch { got: 72, expected: 64 })
            ));
            // The empty write: the payload-free tier's canonical program.
            assert_eq!(
                ledger.program(1, 2, &[]).is_ok(),
                empty_writes,
                "empty writes accepted iff the tier keeps no payloads"
            );
            if !empty_writes {
                assert_eq!(ledger.programmed, before.programmed, "a refusal records nothing");
            }
            assert!(ledger.is_programmed(1, 3) && !ledger.is_programmed(0, 3));
            assert!(!ledger.is_programmed(1, 99), "out of range reads as unprogrammed");
        }
    }

    #[test]
    fn first_program_restarts_the_retention_clock() {
        let mut ledger = two_blocks(false);
        ledger.advance_days(0, 5.0);
        assert_eq!(ledger.age_days[0], 5.0);
        assert_eq!(ledger.program(0, 1, &[0u8; 8]), Ok(true));
        assert_eq!(ledger.age_days[0], 0.0, "the clock tracks the data's age");
        ledger.advance_days(0, 2.0);
        assert_eq!(ledger.program(0, 2, &[0u8; 8]), Ok(false));
        assert_eq!(ledger.age_days[0], 2.0, "later pages do not restart it");
    }

    #[test]
    #[should_panic(expected = "time flows forward")]
    fn time_flows_forward() {
        two_blocks(false).advance_days(0, -1.0);
    }

    /// Erase on every tier: wear +1, and no reads, age, programmed page or
    /// dose left; the Vpass setting survives.
    #[test]
    fn erase_resets_the_block_on_every_tier() {
        for tier in TIERS {
            let mut chip = Chip::with_fidelity(Geometry::small(), ChipParams::default(), 5, tier);
            let min_vpass = chip.params().min_vpass;
            chip.program_block_random(0, 1).unwrap();
            chip.apply_read_disturbs(0, 1_000).unwrap();
            chip.hammer_wordline(0, 2, 500).unwrap();
            chip.advance_days(3.0);
            chip.set_block_vpass(0, min_vpass).unwrap();
            chip.erase_block(0).unwrap();
            let status = chip.block_status(0).unwrap();
            assert_eq!(
                status,
                BlockStatus {
                    pe_cycles: 1,
                    reads_since_erase: 0,
                    age_days: 0.0,
                    vpass: min_vpass,
                    programmed_pages: 0,
                    dose: 0.0
                },
                "{tier}"
            );
            assert!(!chip.is_page_programmed(0, 2).unwrap(), "{tier}");
            if tier != ReadFidelity::BlockAggregate {
                assert!(
                    matches!(
                        chip.intended_page_bits(0, 2),
                        Err(FlashError::PageNotProgrammed { .. })
                    ),
                    "{tier}"
                );
            }
        }
    }

    #[test]
    fn rows_and_lanes_round_trip() {
        let mut ledger = two_blocks(true);
        ledger.erase(0, 7);
        ledger.program(0, 1, &[]).unwrap();
        ledger.program(1, 3, &[0u8; 8]).unwrap();
        ledger.advance_days(1, 4.5);
        ledger.reads_since_erase[1] = 11;
        ledger.vpass[0] = 480.0;

        let mut rows = Writer::new();
        for b in 0..2 {
            ledger.encode_row(b, &mut rows, |w| w.put_u32(b as u32));
        }
        let (rows, mut restored) = (rows.into_bytes(), two_blocks(true));
        let mut r = Reader::new(&rows);
        for b in 0..2 {
            assert_eq!(restored.restore_row(b, &mut r, |r| r.get_u32()), Ok(b as u32));
        }
        assert_eq!(restored.status(0, 0.0), ledger.status(0, 0.0));
        assert_eq!(restored.status(1, 0.0), ledger.status(1, 0.0));
        assert_eq!(restored.programmed, ledger.programmed);

        let mut lanes = Writer::new();
        ledger.encode_lanes(&mut lanes, |w| w.put_u8(9));
        let (lanes, mut restored) = (lanes.into_bytes(), two_blocks(true));
        let got = restored.restore_lanes(&mut Reader::new(&lanes), |r| r.get_u8());
        assert_eq!(got, Ok(9));
        assert_eq!(restored.programmed_count, ledger.programmed_count);
        assert_eq!(restored.pe_cycles, ledger.pe_cycles);

        // A row whose flags do not fit the geometry restores nothing.
        let mut short = Writer::new();
        BlockLedger::new(1, 3, 64, true).encode_row(0, &mut short, |_| {});
        let before = restored.clone();
        let result = restored.restore_row(0, &mut Reader::new(&short.into_bytes()), |_| Ok(()));
        assert!(matches!(result, Err(SnapError::Mismatch(_))));
        assert_eq!(restored.pe_cycles, before.pe_cycles);
    }
}
