//! The chip model and its parts list.
//!
//! This crate has no dependencies, so everything that needs the model sits
//! on top of it: `rd-flash` re-exports these modules, and the rest of the
//! workspace reaches them as `rd_flash::…`.
//!
//! * **The model** (`src/model/`): [`params`] — the `ChipParams`
//!   coefficient set, its `check` and the [`params::COEFFICIENTS`] table;
//!   [`state`] — cell states, the Gray map, read references; [`fidelity`] —
//!   the tier enum and its codecs; [`math`] — Gaussian tails and the
//!   one-draw binomial; [`analytic`] — the closed-form RBER model every
//!   mitigation result in the paper rests on.
//! * **The chip database** ([`chips`]): one `ChipSpec` literal per
//!   (anonymized-vendor) NAND part — a full `ChipParams` plus chip-level
//!   metadata and **calibration anchors**, headline RBER operating points
//!   from the read disturb / SSD-error-characterization papers. rustc is the
//!   parser: a missing or misspelt field is a compile error at its
//!   `file:line:col`.
//!
//! What rustc cannot see, [`validate`] checks, and a unit test of [`chips`]
//! runs it on the committed table. Per chip that is `ChipParams::check`,
//! the gate the runtime uses; on top of it come the database-level
//! invariants: unique names, the default chip first, anchor monotonicity,
//! and agreement between each anchor and [`analytic::AnalyticModel`] within
//! a log-scale tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The model's sources sit together under `model/` but are mounted at the
// crate root: `rd-flash` re-exports them at *its* root, so a path such as
// `crate::params::ChipParams` reads the same in either crate.
#[path = "model/analytic.rs"]
pub mod analytic;
#[path = "model/chips.rs"]
pub mod chips;
#[path = "model/fidelity.rs"]
pub mod fidelity;
#[path = "model/math.rs"]
pub mod math;
#[path = "model/params.rs"]
pub mod params;
#[path = "model/state.rs"]
pub mod state;

use analytic::AnalyticModel;
use chips::{ChipSpec, DEFAULT_CHIP};
use params::{ChipParams, NOMINAL_VPASS};

/// Wordlines-per-block assumed when deriving the pass-through amplitude for
/// anchor validation (the standard characterization geometry).
pub const ANCHOR_WORDLINES: u32 = 64;

/// Log10 tolerance between an anchor's declared RBER and the closed-form
/// model: anchors must land within `10^0.2 ≈ 1.6x` of the model.
pub const ANCHOR_TOL_LOG10: f64 = 0.2;

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
pub fn validate(chips: &[ChipSpec]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if !chips.first().is_some_and(|c| c.name == DEFAULT_CHIP && c.params == ChipParams::default()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use chips::CalibrationAnchor;

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
}
