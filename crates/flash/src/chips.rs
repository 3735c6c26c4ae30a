//! The generated chip database: named [`ChipParams`] sets for real-ish NAND
//! parts across vendors and cell generations.
//!
//! The database source is `chips/vendors/*.ron` (one file per anonymized
//! vendor); `build.rs` parses and validates it with the `chips-codegen`
//! crate and generates the lookup tables included below. Each entry carries:
//!
//! * the full [`ChipParams`] coefficient set (any power-of-two state count —
//!   MLC, TLC, QLC — with matching reference voltages and retry ranges);
//! * chip-level metadata: the vendor label, a one-line description, the
//!   part's provisioned ECC capability line, and its default read-path
//!   fidelity tier;
//! * **calibration anchors** — headline RBER operating points from the read
//!   disturb papers that the closed-form model must reproduce. `build.rs`
//!   checks every anchor against [`crate::AnalyticModel`] — the model this
//!   crate runs, which `chips-codegen` owns — and fails the build on a miss.
//!
//! The default chip ([`DEFAULT_CHIP`], index 0 of [`NAMES`]) is bit-for-bit
//! identical to [`ChipParams::default`]; a regression test enforces this, so
//! golden runs are independent of the database plumbing.
//!
//! # Example
//!
//! ```
//! let spec = rd_flash::chips::get("va-mlc-2y").expect("default chip exists");
//! assert_eq!(spec.params, rd_flash::ChipParams::default());
//! assert_eq!(spec.params.n_states(), 4);
//! let tlc = rd_flash::chips::get("va-tlc-v3").expect("TLC part exists");
//! assert_eq!(tlc.params.bits_per_cell(), 3);
//! ```

use crate::fidelity::ReadFidelity;
use crate::params::{ChipParams, StateParams};
use crate::state::VoltageRefs;

/// One calibration anchor: a headline operating point from the papers and
/// the raw bit error rate the chip's closed-form model reproduces there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationAnchor {
    /// Program/erase cycles of wear.
    pub pe_cycles: u64,
    /// Days of retention age.
    pub days: f64,
    /// Cumulative read-disturb count.
    pub reads: u64,
    /// Pass-through voltage during the reads (normalized scale).
    pub vpass: f64,
    /// Expected raw bit error rate at this operating point.
    pub rber: f64,
}

/// One database entry: a named chip with its parameters and metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Unique chip name (the `--chip` selector).
    pub name: &'static str,
    /// Anonymized vendor label (`"vendor-a"`, ...).
    pub vendor: &'static str,
    /// One-line description (node, cell type, role).
    pub description: &'static str,
    /// Provisioned ECC capability line (tolerable RBER) for this part.
    pub ecc_capability_rber: f64,
    /// Full flash-model parameter set (including the part's default
    /// fidelity tier and read-retry ranges).
    pub params: ChipParams,
    /// Calibration anchors, sorted by `(pe_cycles, days, reads)`.
    pub anchors: &'static [CalibrationAnchor],
}

include!(concat!(env!("OUT_DIR"), "/chip_db.rs"));

/// Names of every chip in the database, default chip first.
pub fn names() -> &'static [&'static str] {
    NAMES
}

/// Looks up a chip by name. Returns `None` for names not in the database;
/// [`names`] lists the valid ones.
pub fn get(name: &str) -> Option<ChipSpec> {
    NAMES.iter().position(|n| *n == name).map(spec)
}

/// Every chip in the database, default chip first.
pub fn all() -> Vec<ChipSpec> {
    (0..NAMES.len()).map(spec).collect()
}

/// The repository default chip (bit-identical to [`ChipParams::default`]).
pub fn default_spec() -> ChipSpec {
    get(DEFAULT_CHIP).expect("the database always contains the default chip")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chip_is_bit_identical_to_hardcoded_params() {
        // The load-bearing regression test of the whole database tier:
        // every golden run pins ChipParams::default(), and the DB's default
        // entry must reproduce it exactly — field for field, bit for bit.
        let spec = default_spec();
        let hardcoded = ChipParams::default();
        assert_eq!(spec.params, hardcoded);
        // PartialEq on f64 structs is bitwise-equality only for non-NaN
        // values, which is exactly what we want here; double-check a few
        // fields at the bit level to make the intent unmistakable.
        assert_eq!(spec.params.pe_rber_coeff.to_bits(), hardcoded.pe_rber_coeff.to_bits());
        assert_eq!(spec.params.min_vpass.to_bits(), hardcoded.min_vpass.to_bits());
        assert_eq!(spec.params.refs.levels()[0].to_bits(), hardcoded.refs.levels()[0].to_bits());
        assert_eq!(spec.ecc_capability_rber, 1.0e-3);
    }

    #[test]
    fn database_spans_vendors_and_generations() {
        let all = all();
        assert!(all.len() >= 6, "need >= 6 chips, have {}", all.len());
        let vendors: std::collections::BTreeSet<_> = all.iter().map(|s| s.vendor).collect();
        assert!(vendors.len() >= 2, "need >= 2 vendors, have {vendors:?}");
        let bits: std::collections::BTreeSet<_> =
            all.iter().map(|s| s.params.bits_per_cell()).collect();
        assert!(
            bits.contains(&2) && bits.contains(&3) && bits.contains(&4),
            "need MLC, TLC, and QLC parts, have bits-per-cell {bits:?}"
        );
    }

    #[test]
    fn every_chip_passes_params_check_and_lookup() {
        for spec in all() {
            spec.params.check().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(!spec.anchors.is_empty(), "{} has no anchors", spec.name);
            assert_eq!(get(spec.name).as_ref(), Some(&spec));
        }
        assert_eq!(get("no-such-chip"), None);
        assert_eq!(names()[0], DEFAULT_CHIP);
    }
}
