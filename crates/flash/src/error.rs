//! Error type for flash device operations.

/// Errors returned by simulated flash operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlashError {
    /// A block index exceeded the chip geometry.
    BlockOutOfRange {
        /// Requested block.
        block: u32,
        /// Number of blocks on the chip.
        blocks: u32,
    },
    /// A wordline index exceeded the block geometry.
    WordlineOutOfRange {
        /// Requested wordline.
        wordline: u32,
        /// Wordlines per block.
        wordlines: u32,
    },
    /// A page index exceeded the block geometry.
    PageOutOfRange {
        /// Requested page.
        page: u32,
        /// Pages per block.
        pages: u32,
    },
    /// A program operation targeted a page that was already programmed
    /// (NAND requires an erase before reprogramming).
    PageAlreadyProgrammed {
        /// Offending page index.
        page: u32,
    },
    /// A read targeted a page that has not been programmed since the last
    /// erase of its block.
    PageNotProgrammed {
        /// Offending page index.
        page: u32,
    },
    /// Program data length did not match the page size.
    DataLengthMismatch {
        /// Bits supplied by the caller.
        got: usize,
        /// Bits required by the page.
        expected: usize,
    },
    /// A pass-through voltage outside the supported tuning range was
    /// requested.
    VpassOutOfRange {
        /// Requested value (normalized scale).
        requested: f64,
        /// Lowest supported value.
        min: f64,
        /// Highest supported value.
        max: f64,
    },
    /// The chip's fidelity tier does not serve the operation: it needs
    /// per-cell state the tier does not keep (e.g. Vth histograms or
    /// read-retry sweeps on a [`crate::ReadFidelity::PageAnalytic`] chip —
    /// rebuild the chip with [`crate::ReadFidelity::CellExact`] to run it),
    /// or a reference set for another cell type than the MLC-native
    /// cell-exact tier senses.
    FidelityUnsupported {
        /// The operation that was requested.
        op: &'static str,
    },
    /// A voltage step (the quantum of a read-retry sweep, the bin width of
    /// a histogram) was not a positive finite number.
    StepNotPositive {
        /// Requested step (normalized volts).
        step: f64,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (chip has {blocks} blocks)")
            }
            FlashError::WordlineOutOfRange { wordline, wordlines } => {
                write!(f, "wordline {wordline} out of range (block has {wordlines} wordlines)")
            }
            FlashError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (block has {pages} pages)")
            }
            FlashError::PageAlreadyProgrammed { page } => {
                write!(f, "page {page} already programmed since last erase")
            }
            FlashError::PageNotProgrammed { page } => {
                write!(f, "page {page} not programmed since last erase")
            }
            FlashError::DataLengthMismatch { got, expected } => {
                write!(f, "program data of {got} bits does not match page size of {expected} bits")
            }
            FlashError::VpassOutOfRange { requested, min, max } => {
                write!(f, "pass-through voltage {requested} outside supported range [{min}, {max}]")
            }
            FlashError::FidelityUnsupported { op } => {
                write!(
                    f,
                    "{op} is not served at this fidelity tier \
                     (per-cell operations need CellExact, which is MLC-only)"
                )
            }
            FlashError::StepNotPositive { step } => {
                write!(f, "voltage step {step} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = FlashError::BlockOutOfRange { block: 9, blocks: 4 };
        let s = e.to_string();
        assert!(s.contains("block 9"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlashError>();
    }
}
