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
//! disturb (see `fidelity` for the contract between the tiers). Whatever the tier, a chip keeps each block's wear,
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

// The chip model: parameters, cell states, the fidelity enum, the math and
// the closed-form RBER, and the chip database. None of it depends on the
// simulator below.
pub mod analytic;
pub mod chips;
mod fidelity;
mod math;
pub mod params;
mod state;

pub mod bits;
mod cell_array;
pub mod chip;
mod digest;
mod error;
mod geometry;
pub mod noise;
pub mod wire;

mod aggregate_block;
mod block;
mod ledger;
mod sampler;

pub use analytic::AnalyticModel;
pub use cell_array::{CellArray, OperatingPoint};
pub use chip::{Chip, VthHistogram};
pub use digest::{fnv1a, fold_page, fold_word, FNV_OFFSET};
pub use error::FlashError;
pub use fidelity::ReadFidelity;
pub use geometry::{Geometry, PageAddr, PageKind};
pub use ledger::BlockStatus;
pub use params::{ChipParams, NOMINAL_VPASS};
pub use state::{CellState, VoltageRefs};
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
    pub(crate) fn merge(self, other: Self) -> Self {
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
    use crate::chips::{CalibrationAnchor, ChipSpec, DEFAULT_CHIP};

    // The chip database's rules, which rustc cannot check in `chips::all`:
    // `chips::tests::database_passes_every_rule` runs `validate` on the
    // committed table, and the `validation_*` tests below break one rule at
    // a time.

    /// Wordlines-per-block assumed when deriving the pass-through amplitude for
    /// anchor validation (the standard characterization geometry).
    const ANCHOR_WORDLINES: u32 = 64;

    /// Log10 tolerance between an anchor's declared RBER and the closed-form
    /// model: anchors must land within `10^0.2 ≈ 1.6x` of the model.
    const ANCHOR_TOL_LOG10: f64 = 0.2;

    fn validate_chip(c: &ChipSpec) -> Result<(), String> {
        if c.name.is_empty()
            || !c.name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            return Err(format!("chip name `{}` must be non-empty kebab-case", c.name));
        }
        c.params.check()?;
        if !(c.ecc_capability_rber > 0.0 && c.ecc_capability_rber < 0.1) {
            return Err(format!("ecc_capability_rber {} outside (0, 0.1)", c.ecc_capability_rber));
        }
        if c.anchors.is_empty() {
            return Err("at least one calibration anchor is required".into());
        }
        let model = AnalyticModel::from_chip(&c.params, ANCHOR_WORDLINES);
        for a in c.anchors {
            if !(a.rber > 0.0 && a.rber < 1.0) {
                return Err(format!("anchor rber {} outside (0, 1)", a.rber));
            }
            if !(a.vpass >= c.params.min_vpass && a.vpass <= NOMINAL_VPASS) {
                return Err(format!(
                    "anchor vpass {} outside the chip's [{}, {NOMINAL_VPASS}] range",
                    a.vpass, c.params.min_vpass
                ));
            }
            if a.days < 0.0 {
                return Err(format!("anchor days {} must be non-negative", a.days));
            }
            let got = model.rber(a.pe_cycles, a.days, a.reads, a.vpass);
            let err = (got.log10() - a.rber.log10()).abs();
            if err > ANCHOR_TOL_LOG10 {
                return Err(format!(
                    "anchor (pe={}, days={}, reads={}, vpass={}) declares rber {:.3e} but the \
                     closed-form model gives {:.3e} ({:.2} decades apart, tolerance {})",
                    a.pe_cycles, a.days, a.reads, a.vpass, a.rber, got, err, ANCHOR_TOL_LOG10
                ));
            }
        }
        for w in c.anchors.windows(2) {
            let ka = (w[0].pe_cycles, w[0].days.to_bits(), w[0].reads);
            let kb = (w[1].pe_cycles, w[1].days.to_bits(), w[1].reads);
            if ka >= kb {
                return Err(format!(
                    "anchors must be sorted by (pe, days, reads) without duplicates: \
                     (pe={}, days={}, reads={}) then (pe={}, days={}, reads={})",
                    w[0].pe_cycles, w[0].days, w[0].reads, w[1].pe_cycles, w[1].days, w[1].reads
                ));
            }
            // More wear / age / disturb at the same Vpass never lowers RBER
            // (only comparable when every stress axis is non-decreasing).
            if w[0].vpass == w[1].vpass
                && w[0].pe_cycles <= w[1].pe_cycles
                && w[0].days <= w[1].days
                && w[0].reads <= w[1].reads
                && w[1].rber < w[0].rber
            {
                return Err(format!(
                    "anchor rber must be monotone along the (pe, days, reads) order at fixed \
                     vpass: {:.3e} then {:.3e}",
                    w[0].rber, w[1].rber
                ));
            }
        }
        Ok(())
    }

    /// Checks a chip table against the database rules: the first entry is
    /// [`DEFAULT_CHIP`] with [`ChipParams::default`] as its parameters, names
    /// are unique and kebab-case, every parameter set passes
    /// [`ChipParams::check`], the ECC capability line lies in (0, 0.1), and each
    /// chip has at least one anchor — anchors in range, sorted by
    /// `(pe_cycles, days, reads)`, monotone in RBER along that order at fixed
    /// Vpass, and each within [`ANCHOR_TOL_LOG10`] decades of
    /// [`AnalyticModel::from_chip`] at [`ANCHOR_WORDLINES`] wordlines.
    ///
    /// # Errors
    ///
    /// Returns a list of human-readable problems (chip-scoped ones are prefixed
    /// with `vendor/chip:`).
    pub(crate) fn validate(chips: &[ChipSpec]) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if !chips
            .first()
            .is_some_and(|c| c.name == DEFAULT_CHIP && c.params == ChipParams::default())
        {
            problems.push(format!(
                "the first entry must be the default chip `{DEFAULT_CHIP}`, with \
                 `ChipParams::default()` as its params"
            ));
        }
        for (i, c) in chips.iter().enumerate() {
            if chips[..i].iter().any(|earlier| earlier.name == c.name) {
                problems.push(format!("duplicate chip name `{}`", c.name));
            }
            if let Err(e) = validate_chip(c) {
                problems.push(format!("{}/{}: {e}", c.vendor, c.name));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    fn mlc_chip(name: &'static str) -> ChipSpec {
        ChipSpec {
            name,
            vendor: "vendor-t",
            description: "test chip",
            ecc_capability_rber: 1.0e-3,
            params: ChipParams::default(),
            anchors: &[CalibrationAnchor {
                pe_cycles: 8_000,
                days: 0.0,
                reads: 0,
                vpass: NOMINAL_VPASS,
                rber: 4.456e-4,
            }],
        }
    }

    /// What [`validate`] reports for a sound default entry followed by
    /// `t-mlc` after `break_it`.
    fn problems_after(break_it: impl FnOnce(&mut ChipSpec)) -> Vec<String> {
        let mut chip = mlc_chip("t-mlc");
        break_it(&mut chip);
        validate(&[mlc_chip(DEFAULT_CHIP), chip]).unwrap_err()
    }

    /// `t-mlc`'s only anchor moved to `reads`, at `scale` times the RBER the
    /// model gives there.
    fn anchor_at(reads: u64, scale: f64) -> CalibrationAnchor {
        let chip = mlc_chip("t-mlc");
        let model = AnalyticModel::from_chip(&chip.params, ANCHOR_WORDLINES);
        let rber = scale * model.rber(8_000, 0.0, reads, NOMINAL_VPASS);
        CalibrationAnchor { reads, rber, ..chip.anchors[0] }
    }

    #[test]
    fn validation_catches_database_level_problems() {
        validate(&[mlc_chip(DEFAULT_CHIP), mlc_chip("t-mlc")]).unwrap();

        let problems = validate(&[mlc_chip("dup"), mlc_chip("dup")]).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("duplicate chip name `dup`")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("the first entry must be")), "{problems:?}");

        let mut first = mlc_chip(DEFAULT_CHIP);
        first.params.rd_kappa += 1.0;
        for table in [vec![], vec![mlc_chip("t-mlc"), mlc_chip(DEFAULT_CHIP)], vec![first]] {
            let problems = validate(&table).unwrap_err();
            assert!(problems[0].contains("the first entry must be"), "{problems:?}");
            assert!(problems[0].contains("ChipParams::default()"), "{problems:?}");
        }

        for (break_it, needle) in [
            ((|c| c.name = "T_mlc") as fn(&mut ChipSpec), "kebab-case"),
            (|c| c.ecc_capability_rber = 0.2, "ecc_capability_rber 0.2 outside (0, 0.1)"),
            (|c| c.anchors = &[], "at least one calibration anchor"),
        ] {
            let problems = problems_after(break_it);
            assert!(problems.len() == 1 && problems[0].contains(needle), "{problems:?}");
        }
    }

    #[test]
    fn validation_catches_bad_anchor() {
        for (anchor, needle) in [
            // 2+ decades off the model.
            (CalibrationAnchor { rber: 1.0e-1, ..anchor_at(0, 1.0) }, "closed-form model"),
            // Just past the tolerance, on either side.
            (anchor_at(0, 10f64.powf(ANCHOR_TOL_LOG10 + 0.01)), "0.21 decades apart"),
            (anchor_at(0, 10f64.powf(-ANCHOR_TOL_LOG10 - 0.01)), "0.21 decades apart"),
            (CalibrationAnchor { vpass: 400.0, ..anchor_at(0, 1.0) }, "anchor vpass 400 outside"),
            (CalibrationAnchor { vpass: 513.0, ..anchor_at(0, 1.0) }, "anchor vpass 513 outside"),
            (CalibrationAnchor { rber: 1.0, ..anchor_at(0, 1.0) }, "anchor rber 1 outside (0, 1)"),
            (CalibrationAnchor { days: -1.0, ..anchor_at(0, 1.0) }, "anchor days -1 must be"),
        ] {
            let problems = problems_after(|c| c.anchors = vec![anchor].leak());
            assert!(problems.len() == 1 && problems[0].contains(needle), "{problems:?}");
        }
        // Inside the tolerance is fine.
        let near = anchor_at(0, 10f64.powf(ANCHOR_TOL_LOG10 - 0.01));
        let mut chip = mlc_chip(DEFAULT_CHIP);
        chip.anchors = vec![near].leak();
        validate(&[chip]).unwrap();
    }

    #[test]
    fn validation_requires_sorted_anchors() {
        for (anchors, needle) in [
            (vec![anchor_at(100, 1.0), anchor_at(0, 1.0)], "sorted"),
            (vec![anchor_at(100, 1.0), anchor_at(100, 1.0)], "without duplicates"),
            // In order and each within tolerance, but the RBER falls.
            (vec![anchor_at(0, 1.2), anchor_at(100, 1.0)], "monotone"),
        ] {
            let problems = problems_after(|c| c.anchors = anchors.leak());
            assert!(problems.len() == 1 && problems[0].contains(needle), "{problems:?}");
        }
    }

    #[test]
    fn per_chip_validation_is_the_runtime_check() {
        let params = ChipParams { outlier_scale: 0.0, ..ChipParams::default() };
        let err = params.check().unwrap_err();
        assert_eq!(problems_after(|c| c.params = params), [format!("vendor-t/t-mlc: {err}")]);
    }

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
