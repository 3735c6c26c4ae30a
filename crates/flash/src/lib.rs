//! # rd-flash — a cell-accurate MLC NAND flash memory simulator
//!
//! This crate is the device substrate for the reproduction of
//! *Read Disturb Errors in MLC NAND Flash Memory: Characterization,
//! Mitigation, and Recovery* (Cai et al., DSN 2015). The paper characterizes
//! real 2Y-nm MLC chips on an FPGA platform; this crate replaces that
//! hardware with a simulator that models each physical effect the paper
//! measures:
//!
//! * **Threshold-voltage (Vth) distributions** — each cell stores one of four
//!   states (ER, P1, P2, P3) as a normalized threshold voltage on a scale
//!   where GND = 0 and the nominal pass-through voltage `Vpass` = 512
//!   (the paper's normalization, §2).
//! * **Program/erase (P/E) cycling noise** — distribution widening and
//!   misprogram errors that grow with wear.
//! * **Retention loss** — charge leakage that lowers Vth over time, with
//!   per-cell leak-rate variation.
//! * **Read disturb** — every read weakly programs the *unread* cells of the
//!   block; the shift is larger for lower-Vth cells, grows with wear, and is
//!   exponentially sensitive to `Vpass` (the paper's key findings, §2.1–2.3).
//! * **Pass-through errors** — lowering `Vpass` below the highest stored Vth
//!   blocks bitlines and produces read errors that do *not* alter cell state
//!   (§2.4).
//!
//! Two levels of fidelity are provided and kept consistent by tests:
//!
//! 1. [`Chip`] / [`CellArray`] — Monte-Carlo, per-cell simulation used for
//!    the characterization experiments (Figs. 2–6, 10); [`Chip::cells`] and
//!    [`Chip::operating_point`] expose a block's cells for inspection.
//! 2. [`AnalyticModel`] — closed-form RBER model used at SSD scale
//!    (endurance evaluation, Fig. 8), calibrated to the paper's reported
//!    curves (pinned by `tests/calibration.rs`).
//!
//! A [`Chip`] itself can be built at any of three tiers via
//! [`ReadFidelity`]: the default [`ReadFidelity::CellExact`] runs the
//! per-cell simulation, [`ReadFidelity::PageAnalytic`] serves page reads
//! from the calibrated closed-form model at O(errors) per read, and
//! [`ReadFidelity::BlockAggregate`] fast-forwards closed-form per-block
//! state between interesting events at O(1) per read — the tier
//! billion-op lifetime replay uses; the two share one closed-form per-block
//! state, to which a page-analytic chip adds payloads and per-wordline
//! disturb (see [`fidelity`] for the contract between the tiers). Whatever the tier, a chip keeps each block's wear,
//! retention age, read count, Vpass and programmed pages once, in one block
//! ledger with one set of lifecycle rules ([`BlockStatus`] reports it);
//! each tier adds only its physics.
//!
//! ## Quick example
//!
//! ```
//! use rd_flash::{Chip, ChipParams, Geometry};
//!
//! # fn main() -> Result<(), rd_flash::FlashError> {
//! let geometry = Geometry::small(); // small block for doc tests
//! let mut chip = Chip::new(geometry, ChipParams::default(), 42);
//! chip.cycle_block(0, 1_000)?;              // pre-wear: 1K P/E cycles
//! chip.program_block_random(0, 7)?;         // program pseudo-random data
//! chip.apply_read_disturbs(0, 100_000)?;    // 100K reads to the block
//! let rber = chip.block_rber(0)?;
//! assert!(rber.rate() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod cell_array;
pub mod chip;
pub mod error;
pub mod geometry;
pub mod noise;
pub mod wire;

// The chip model — parameters, cell states, the fidelity enum, the math and
// the closed-form RBER — and the chip database live in the dependency-free
// `chips-codegen` crate.
pub use chips_codegen::{analytic, chips, fidelity, math, params, state};

mod aggregate_block;
mod block;
mod ledger;
mod sampler;

pub use analytic::{gaussian_tail_floor, AnalyticModel, AnalyticParams, RberBreakdown};
pub use cell_array::CellArray;
pub use chip::{Chip, ReadCounts, ReadOutcome, RetryReadOutcome, VthHistogram};
pub use error::FlashError;
pub use fidelity::ReadFidelity;
pub use geometry::{CellAddr, Geometry, PageAddr, PageKind, WordlineAddr};
pub use ledger::BlockStatus;
pub use params::{ChipParams, StateParams, NOMINAL_VPASS};
pub use state::{CellState, StateRegion, VoltageRefs};
pub use wire::SnapError;

/// Measured raw bit error statistics for a region of the chip.
///
/// Returned by read operations; `errors / bits` is the raw bit error rate
/// (RBER) the paper plots on every characterization figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitErrorStats {
    /// Number of raw bit errors observed (sensed bit != programmed bit).
    pub errors: u64,
    /// Total number of bits read.
    pub bits: u64,
}

impl BitErrorStats {
    /// Creates statistics from an error count and a total bit count.
    pub fn new(errors: u64, bits: u64) -> Self {
        Self { errors, bits }
    }

    /// The raw bit error rate. Returns 0 when no bits were read.
    pub fn rate(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }

    /// Merges two measurements (e.g. across pages of a block).
    pub fn merge(self, other: Self) -> Self {
        Self { errors: self.errors + other.errors, bits: self.bits + other.bits }
    }
}

impl std::ops::Add for BitErrorStats {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.merge(rhs)
    }
}

impl std::iter::Sum for BitErrorStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Self::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_error_stats_rate() {
        let s = BitErrorStats::new(5, 1000);
        assert!((s.rate() - 0.005).abs() < 1e-12);
        assert_eq!(BitErrorStats::default().rate(), 0.0);
    }

    #[test]
    fn bit_error_stats_merge_and_sum() {
        let a = BitErrorStats::new(1, 10);
        let b = BitErrorStats::new(2, 20);
        let m = a + b;
        assert_eq!(m, BitErrorStats::new(3, 30));
        let s: BitErrorStats = vec![a, b, m].into_iter().sum();
        assert_eq!(s, BitErrorStats::new(6, 60));
    }
}
