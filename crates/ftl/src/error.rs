//! Error type for SSD operations.

use rd_flash::FlashError;

/// Errors returned by the SSD layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FtlError {
    /// A logical page address beyond the exported capacity.
    LpaOutOfRange {
        /// Requested logical page.
        lpa: u64,
        /// Exported logical pages.
        capacity: u64,
    },
    /// Read of a logical page that was never written.
    NotWritten {
        /// Requested logical page.
        lpa: u64,
    },
    /// The raw bit errors of a read exceeded the ECC capability — data loss
    /// (the paper's lifetime-end criterion, §4).
    Uncorrectable {
        /// The logical page that failed.
        lpa: u64,
        /// Raw bit errors observed.
        errors: u64,
        /// ECC capability per page.
        capability: u64,
    },
    /// No free block could be found even after garbage collection.
    OutOfSpace,
    /// An underlying flash operation failed.
    Flash(FlashError),
    /// A die or array configuration failed its check; the message names the
    /// first impossible value.
    InvalidConfig(String),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpaOutOfRange { lpa, capacity } => {
                write!(f, "logical page {lpa} out of range (capacity {capacity} pages)")
            }
            FtlError::NotWritten { lpa } => write!(f, "logical page {lpa} has never been written"),
            FtlError::Uncorrectable { lpa, errors, capability } => write!(
                f,
                "uncorrectable read of logical page {lpa}: {errors} raw bit errors exceed ECC capability {capability}"
            ),
            FtlError::OutOfSpace => write!(f, "no free blocks available after garbage collection"),
            FtlError::Flash(e) => write!(f, "flash operation failed: {e}"),
            FtlError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FtlError::Flash(FlashError::PageNotProgrammed { page: 3 });
        assert!(e.to_string().contains("flash operation failed"));
        assert!(e.source().is_some());
        let e = FtlError::Uncorrectable { lpa: 9, errors: 50, capability: 16 };
        assert!(e.to_string().contains("uncorrectable"));
    }
}
