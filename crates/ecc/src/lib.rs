//! # rd-ecc — BCH error correction and ECC capability models
//!
//! NAND flash controllers protect each page with a binary BCH code able to
//! correct up to `t` raw bit errors per codeword. The mechanisms of the
//! DSN 2015 read-disturb paper consume ECC in two ways:
//!
//! 1. the **error count reported by a decode** — Vpass Tuning's daily probe
//!    reads the predicted worst-case page and takes the reported count as
//!    its maximum estimated error (MEE, paper §3);
//! 2. the **correction margin** `M = (1 - 0.2) * C - MEE`, the unused
//!    correction capability that can be spent on the deliberate pass-through
//!    errors a lowered Vpass introduces.
//!
//! This crate provides a real codec — [`BchCode`] over [`gf::GfTables`]
//! (syndromes → Berlekamp–Massey → Chien search), including shortened codes
//! sized like flash page ECC — and a fast [`ThresholdEcc`] model with the
//! same accept/reject behaviour for simulation at scale, plus the margin
//! arithmetic (`margin`).
//!
//! ```
//! use rd_ecc::{BchCode, ThresholdEcc};
//!
//! # fn main() -> Result<(), rd_ecc::EccError> {
//! // A shortened BCH code over GF(2^8) carrying 224 data bits, t = 3.
//! let code = BchCode::new_shortened(8, 3, 224)?;
//! let data = vec![0xA5u8; code.data_bits() / 8];
//! let mut cw = code.encode(&data)?;
//! cw[0] ^= 0b101; // two bit errors
//! let decoded = code.decode(&cw)?;
//! assert_eq!(decoded.data, data);
//! assert_eq!(decoded.corrected, 2);
//!
//! // The threshold model mirrors the accept/reject behaviour.
//! let model = ThresholdEcc::new(3, code.codeword_bits());
//! assert!(model.correctable(2) && !model.correctable(4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bch;
pub mod gf;
mod margin;
mod model;
mod poly;

pub use bch::{BchCode, Decoded};
pub use margin::MarginPolicy;
pub use model::{page_capability, PageDecode, PageEccModel, ThresholdEcc};

/// Errors returned by ECC construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EccError {
    /// The requested field order is unsupported.
    UnsupportedField {
        /// Requested extension degree `m`.
        m: u32,
    },
    /// The requested correction capability does not fit the field.
    InvalidCapability {
        /// Requested `t`.
        t: u32,
        /// Codeword length `n = 2^m - 1`.
        n: usize,
    },
    /// The shortening amount exceeds the data length.
    InvalidShortening {
        /// Requested bits to remove.
        shorten: usize,
        /// Unshortened data bits available.
        data_bits: usize,
    },
    /// Input buffer length does not match the code.
    LengthMismatch {
        /// Bits supplied.
        got: usize,
        /// Bits expected.
        expected: usize,
    },
    /// More errors are present than the code can correct.
    Uncorrectable,
}

impl std::fmt::Display for EccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EccError::UnsupportedField { m } => {
                write!(f, "unsupported field GF(2^{m}); supported m is 4..=14")
            }
            EccError::InvalidCapability { t, n } => {
                write!(f, "correction capability t={t} does not fit codeword length {n}")
            }
            EccError::InvalidShortening { shorten, data_bits } => {
                write!(f, "cannot shorten by {shorten} bits; only {data_bits} data bits exist")
            }
            EccError::LengthMismatch { got, expected } => {
                write!(f, "buffer of {got} bits does not match expected {expected} bits")
            }
            EccError::Uncorrectable => write!(f, "error count exceeds the correction capability"),
        }
    }
}

impl std::error::Error for EccError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = EccError::UnsupportedField { m: 99 };
        assert!(e.to_string().contains("GF(2^99)"));
        assert!(EccError::Uncorrectable.to_string().contains("capability"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<EccError>();
    }
}
