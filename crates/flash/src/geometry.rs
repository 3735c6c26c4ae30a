//! Chip geometry: blocks, wordlines, pages, bitlines, and addressing.
//!
//! The paper's device model (§1–2): a flash **block** is a 2-D array whose
//! columns are **bitlines** and whose rows are **wordlines**. In 2-bit MLC,
//! each wordline stores two logical **pages** — the LSB page and the MSB
//! page — one bit of every cell belonging to each. A read of one wordline
//! applies `Vpass` to every *other* wordline of the block, which is the root
//! cause of read disturb.
//!
//! [`Geometry::bits_per_cell`] generalizes the pages-per-wordline count so
//! the chip database can describe TLC (3) and QLC (4) parts; the
//! [`PageAddr`] LSB/MSB helpers remain the MLC vocabulary the cell-exact
//! tier uses; at any state count, page `w * bits_per_cell + k` is bit `k`
//! of wordline `w`.

use crate::error::FlashError;

/// Which of the two MLC pages of a wordline is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageKind {
    /// Page backed by the LSBs of a wordline (single `Vb` comparison).
    Lsb,
    /// Page backed by the MSBs of a wordline (`Va`/`Vc` comparisons).
    Msb,
}

impl PageKind {
    /// The two page kinds in program order (LSB is programmed first on real
    /// MLC parts).
    pub(crate) const ALL: [PageKind; 2] = [PageKind::Lsb, PageKind::Msb];
}

/// Shape of a simulated chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of blocks on the chip.
    pub blocks: u32,
    /// Wordlines per block.
    pub wordlines_per_block: u32,
    /// Cells per wordline (= number of bitlines of the block).
    pub bitlines: u32,
    /// Bits stored per cell (= pages per wordline): 2 for MLC, 3 for TLC,
    /// 4 for QLC. Must match the chip parameters' state count.
    pub bits_per_cell: u32,
}

impl Geometry {
    /// A realistic single-die MLC shape: 64 wordlines × 16,384 bitlines
    /// (2 KiB per page, 128 pages and 256 KiB of data per block).
    pub fn standard() -> Self {
        Self { blocks: 8, wordlines_per_block: 64, bitlines: 16 * 1024, bits_per_cell: 2 }
    }

    /// A small MLC shape for unit tests and doc tests.
    pub fn small() -> Self {
        Self { blocks: 4, wordlines_per_block: 8, bitlines: 512, bits_per_cell: 2 }
    }

    /// A single-block MLC shape sized for characterization experiments:
    /// keeps per-figure Monte-Carlo runs fast while leaving enough cells
    /// (64 × 4096 = 256 Ki cells) for RBER resolution down to ~1e-5.
    pub fn characterization() -> Self {
        Self { blocks: 1, wordlines_per_block: 64, bitlines: 4096, bits_per_cell: 2 }
    }

    /// Pages per block (`bits_per_cell` pages per wordline).
    pub fn pages_per_block(&self) -> u32 {
        self.wordlines_per_block * self.bits_per_cell
    }

    /// Bits of user data per page (one bit per cell of the wordline).
    pub fn bits_per_page(&self) -> usize {
        self.bitlines as usize
    }

    /// Validates a block index.
    pub(crate) fn check_block(&self, block: u32) -> Result<(), FlashError> {
        if block < self.blocks {
            Ok(())
        } else {
            Err(FlashError::BlockOutOfRange { block, blocks: self.blocks })
        }
    }

    /// Validates a wordline index.
    pub(crate) fn check_wordline(&self, wordline: u32) -> Result<(), FlashError> {
        if wordline < self.wordlines_per_block {
            Ok(())
        } else {
            Err(FlashError::WordlineOutOfRange { wordline, wordlines: self.wordlines_per_block })
        }
    }

    /// Validates a page index within a block.
    pub(crate) fn check_page(&self, page: u32) -> Result<(), FlashError> {
        if page < self.pages_per_block() {
            Ok(())
        } else {
            Err(FlashError::PageOutOfRange { page, pages: self.pages_per_block() })
        }
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::standard()
    }
}

/// Address of a logical page within the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Block index.
    pub block: u32,
    /// Page index within the block (`0 .. pages_per_block`).
    pub page: u32,
}

impl PageAddr {
    /// The wordline backing this page on an MLC part: pages are interleaved
    /// (page `2w` = LSB of wordline `w`, page `2w + 1` = MSB). Non-MLC
    /// parts put page `w * bits_per_cell + k` on wordline `w`.
    pub fn wordline(&self) -> u32 {
        self.page / 2
    }

    /// Whether this page is the LSB or MSB page of its wordline (MLC).
    pub fn kind(&self) -> PageKind {
        if self.page.is_multiple_of(2) {
            PageKind::Lsb
        } else {
            PageKind::Msb
        }
    }

    /// Builds the page address backed by `(wordline, kind)` on an MLC part.
    pub(crate) fn of(block: u32, wordline: u32, kind: PageKind) -> Self {
        let page = wordline * 2 + u32::from(kind == PageKind::Msb);
        Self { block, page }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Geometry {
        /// Cells per block.
        pub(crate) fn cells_per_block(&self) -> usize {
            self.wordlines_per_block as usize * self.bitlines as usize
        }

        /// Bits of user data per block.
        fn bits_per_block(&self) -> usize {
            self.cells_per_block() * self.bits_per_cell as usize
        }

        /// The wordline backing a page index (pages of a wordline are
        /// consecutive: page `w * bits_per_cell + k` is bit-kind `k` of
        /// wordline `w`).
        fn wordline_of_page(&self, page: u32) -> u32 {
            page / self.bits_per_cell
        }

        /// The bit position within the cell (0 = LSB page) a page index maps to.
        fn page_bit(&self, page: u32) -> u32 {
            page % self.bits_per_cell
        }
    }

    #[test]
    fn page_wordline_interleaving_round_trips() {
        let g = Geometry::small();
        for page in 0..g.pages_per_block() {
            let addr = PageAddr { block: 0, page };
            let rebuilt = PageAddr::of(0, addr.wordline(), addr.kind());
            assert_eq!(rebuilt, addr);
            assert_eq!(g.wordline_of_page(page), addr.wordline());
        }
    }

    #[test]
    fn page_kind_alternates() {
        assert_eq!(PageAddr { block: 0, page: 0 }.kind(), PageKind::Lsb);
        assert_eq!(PageAddr { block: 0, page: 1 }.kind(), PageKind::Msb);
        assert_eq!(PageAddr { block: 0, page: 6 }.wordline(), 3);
        assert_eq!(PageAddr { block: 0, page: 7 }.wordline(), 3);
    }

    #[test]
    fn geometry_counts_consistent() {
        let g = Geometry::standard();
        assert_eq!(g.pages_per_block(), 128);
        assert_eq!(g.cells_per_block(), 64 * 16384);
        assert_eq!(g.bits_per_block(), g.cells_per_block() * 2);
        assert_eq!(g.bits_per_page() * g.pages_per_block() as usize, g.bits_per_block());
    }

    #[test]
    fn tlc_geometry_counts() {
        let g = Geometry { bits_per_cell: 3, ..Geometry::small() };
        assert_eq!(g.pages_per_block(), 24);
        assert_eq!(g.bits_per_block(), g.cells_per_block() * 3);
        assert_eq!(g.wordline_of_page(7), 2);
        assert_eq!(g.page_bit(7), 1);
    }

    #[test]
    fn bounds_checks() {
        let g = Geometry::small();
        assert!(g.check_block(3).is_ok());
        assert!(g.check_block(4).is_err());
        assert!(g.check_wordline(7).is_ok());
        assert!(g.check_wordline(8).is_err());
        assert!(g.check_page(15).is_ok());
        assert!(g.check_page(16).is_err());
    }
}
