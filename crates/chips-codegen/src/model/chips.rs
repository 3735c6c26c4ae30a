//! The chip database: named [`ChipParams`] sets for real-ish NAND parts
//! across vendors and cell generations. `rd-flash` re-exports this module,
//! so the rest of the workspace reaches it as `rd_flash::chips`.
//!
//! The database is the table in [`all`] — one [`ChipSpec`] literal per part,
//! vendors anonymized as in the papers. Each entry carries:
//!
//! * the full [`ChipParams`] coefficient set (any power-of-two state count —
//!   MLC, TLC, QLC — with matching reference voltages and retry ranges),
//!   the part's default read-path fidelity tier included;
//! * chip-level metadata: the vendor label, a one-line description and the
//!   part's provisioned ECC capability line;
//! * **calibration anchors** — headline RBER operating points from the DSN
//!   2015 read disturb paper and the 2017 error-characterization survey
//!   that the closed-form model must reproduce.
//!
//! [`crate::validate`] holds the rules the table must satisfy — unique
//! kebab-case names, [`ChipParams::check`], sorted monotone anchors, each
//! within [`crate::ANCHOR_TOL_LOG10`] decades of
//! [`crate::analytic::AnalyticModel`] — and this module's unit tests run
//! it on the committed table (`cargo test -p chips-codegen chips`).
//!
//! The default chip ([`DEFAULT_CHIP`], the first entry) *is*
//! [`ChipParams::default`], so golden runs are independent of the database.
//!
//! # Example
//!
//! ```
//! use chips_codegen::{chips, params::ChipParams};
//!
//! let spec = chips::get("va-mlc-2y").expect("default chip exists");
//! assert_eq!(spec.params, ChipParams::default());
//! assert_eq!(spec.params.n_states(), 4);
//! let tlc = chips::get("va-tlc-v3").expect("TLC part exists");
//! assert_eq!(tlc.params.bits_per_cell(), 3);
//! ```

use std::sync::OnceLock;

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
    /// Unique chip name (the `--chip` selector), kebab-case.
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

/// Name of the repository default chip, whose parameters are
/// [`ChipParams::default`].
pub const DEFAULT_CHIP: &str = "va-mlc-2y";

/// Names of every chip in the database, default chip first.
pub fn names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| all().iter().map(|spec| spec.name).collect())
}

/// Looks up a chip by name. Returns `None` for names not in the database;
/// [`names`] lists the valid ones.
pub fn get(name: &str) -> Option<ChipSpec> {
    all().into_iter().find(|spec| spec.name == name)
}

// Each entry's calibration anchors, in the order of the table below: the
// DSN 2015 paper's figures for the MLC parts, the 2017 survey's
// MLC → TLC → QLC ordering for the rest.
const VA_MLC_2Y_ANCHORS: &[CalibrationAnchor] = &[
    // Fig. 3 first table row: 1e-9/read slope at 2K P/E.
    CalibrationAnchor { pe_cycles: 2000, days: 0.0, reads: 100000, vpass: 512.0, rber: 1.48e-4 },
    // Fig. 3 / Fig. 6 day-0 intercept at 8K P/E.
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 0, vpass: 512.0, rber: 4.46e-4 },
    // Fig. 3: 100K reads at 8K P/E (7.5e-9/read slope).
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 100000, vpass: 512.0, rber: 1.18e-3 },
    // Fig. 6: 21-day retention at 8K P/E.
    CalibrationAnchor { pe_cycles: 8000, days: 21.0, reads: 0, vpass: 512.0, rber: 8.17e-4 },
];
const VA_MLC_1X_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 2000, days: 0.0, reads: 100000, vpass: 512.0, rber: 3.10e-4 },
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 0, vpass: 512.0, rber: 9.60e-4 },
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 100000, vpass: 512.0, rber: 2.54e-3 },
    CalibrationAnchor { pe_cycles: 8000, days: 21.0, reads: 0, vpass: 512.0, rber: 1.51e-3 },
];
const VA_QLC_V5_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 500, days: 0.0, reads: 0, vpass: 512.0, rber: 2.27e-5 },
    CalibrationAnchor { pe_cycles: 1500, days: 0.0, reads: 0, vpass: 512.0, rber: 1.06e-4 },
    CalibrationAnchor { pe_cycles: 1500, days: 0.0, reads: 50000, vpass: 512.0, rber: 2.44e-4 },
    CalibrationAnchor { pe_cycles: 1500, days: 14.0, reads: 0, vpass: 512.0, rber: 1.70e-4 },
];
const VA_TLC_V3_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 1000, days: 0.0, reads: 0, vpass: 512.0, rber: 3.20e-5 },
    CalibrationAnchor { pe_cycles: 3000, days: 0.0, reads: 0, vpass: 512.0, rber: 1.66e-4 },
    CalibrationAnchor { pe_cycles: 3000, days: 0.0, reads: 200000, vpass: 512.0, rber: 3.01e-4 },
    CalibrationAnchor { pe_cycles: 3000, days: 30.0, reads: 0, vpass: 512.0, rber: 2.87e-4 },
];
const VB_MLC_2Z_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 2000, days: 0.0, reads: 100000, vpass: 512.0, rber: 1.16e-4 },
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 0, vpass: 512.0, rber: 3.34e-4 },
    CalibrationAnchor { pe_cycles: 8000, days: 0.0, reads: 100000, vpass: 512.0, rber: 9.23e-4 },
    CalibrationAnchor { pe_cycles: 8000, days: 21.0, reads: 0, vpass: 512.0, rber: 6.57e-4 },
];
const VB_QLC_96L_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 500, days: 0.0, reads: 0, vpass: 512.0, rber: 2.94e-5 },
    CalibrationAnchor { pe_cycles: 1500, days: 0.0, reads: 0, vpass: 512.0, rber: 1.30e-4 },
    CalibrationAnchor { pe_cycles: 1500, days: 0.0, reads: 50000, vpass: 512.0, rber: 2.98e-4 },
    CalibrationAnchor { pe_cycles: 1500, days: 14.0, reads: 0, vpass: 512.0, rber: 2.06e-4 },
];
const VB_TLC_64L_ANCHORS: &[CalibrationAnchor] = &[
    CalibrationAnchor { pe_cycles: 1000, days: 0.0, reads: 0, vpass: 512.0, rber: 2.60e-5 },
    CalibrationAnchor { pe_cycles: 3000, days: 0.0, reads: 0, vpass: 512.0, rber: 1.43e-4 },
    CalibrationAnchor { pe_cycles: 3000, days: 0.0, reads: 200000, vpass: 512.0, rber: 3.32e-4 },
    CalibrationAnchor { pe_cycles: 3000, days: 30.0, reads: 0, vpass: 512.0, rber: 2.84e-4 },
];

/// Every chip in the database: the default chip first, the rest sorted by
/// name.
pub fn all() -> Vec<ChipSpec> {
    vec![
        // The paper's characterization part and the repository default:
        // every golden run pins `ChipParams::default()`, so this entry is
        // that set and no copy of it.
        ChipSpec {
            name: "va-mlc-2y",
            vendor: "vendor-a",
            description: "2Y-nm planar MLC, the DSN 2015 characterization part (repo default)",
            ecc_capability_rber: 1.0e-3,
            params: ChipParams::default(),
            anchors: VA_MLC_2Y_ANCHORS,
        },
        // Next planar shrink: every error mechanism worse (the 2017 survey's
        // node-scaling trend), wider programming distributions, a longer
        // read-retry table.
        ChipSpec {
            name: "va-mlc-1x",
            vendor: "vendor-a",
            description: "1X-nm planar MLC, wear- and disturb-sensitive shrink",
            ecc_capability_rber: 3.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 40.0, sigma: 16.0 },
                    StateParams { mean: 160.0, sigma: 14.0 },
                    StateParams { mean: 290.0, sigma: 14.0 },
                    StateParams { mean: 420.0, sigma: 13.0 },
                ],
                refs: VoltageRefs::from_levels(&[100.0, 225.0, 355.0]),
                min_vpass: 470.0,
                fidelity: ReadFidelity::CellExact,
                pe_rber_coeff: 2.8e-5,
                pe_rber_exp: 1.7,
                pe_sigma_widen_coeff: 0.03,
                pe_sigma_widen_exp: 0.72,
                retention_rate: 2.2e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.8,
                rd_alpha: 1.8e-7,
                rd_kappa: 23.0,
                rd_pe_exp: 1.45,
                rd_pe_ref: 2000.0,
                rd_vpass_lambda: 4.0,
                rd_susceptibility_pareto_a: 0.8,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 1.8,
                outlier_prob: 1.1e-3,
                outlier_base: 460.0,
                outlier_scale: 12.0,
                outlier_cap: 508.0,
                program_interference_sigma: 2.6,
                analytic_ret_coeff: 3.4e-6,
                analytic_rd_slope: 2.2e-9,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![3.0, 6.0, 9.0, 12.0, 15.0, 18.0, -3.0],
                reread_va_raises: vec![8.0, 16.0, 24.0, 32.0],
            },
            anchors: VA_MLC_1X_ANCHORS,
        },
        // Dense QLC: 16 tightly packed states, low endurance, strong ECC.
        ChipSpec {
            name: "va-qlc-v5",
            vendor: "vendor-a",
            description: "3D QLC (5th-gen vertical), 16-state, low-endurance archival part",
            ecc_capability_rber: 8.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 25.0, sigma: 5.0 },
                    StateParams { mean: 52.0, sigma: 4.5 },
                    StateParams { mean: 79.0, sigma: 4.5 },
                    StateParams { mean: 106.0, sigma: 4.5 },
                    StateParams { mean: 133.0, sigma: 4.5 },
                    StateParams { mean: 160.0, sigma: 4.5 },
                    StateParams { mean: 187.0, sigma: 4.5 },
                    StateParams { mean: 214.0, sigma: 4.5 },
                    StateParams { mean: 241.0, sigma: 4.5 },
                    StateParams { mean: 268.0, sigma: 4.5 },
                    StateParams { mean: 295.0, sigma: 4.5 },
                    StateParams { mean: 322.0, sigma: 4.5 },
                    StateParams { mean: 349.0, sigma: 4.5 },
                    StateParams { mean: 376.0, sigma: 4.5 },
                    StateParams { mean: 403.0, sigma: 4.5 },
                    StateParams { mean: 430.0, sigma: 4.0 },
                ],
                refs: VoltageRefs::from_levels(&[
                    38.5, 65.5, 92.5, 119.5, 146.5, 173.5, 200.5, 227.5, 254.5, 281.5, 308.5,
                    335.5, 362.5, 389.5, 416.5,
                ]),
                min_vpass: 485.0,
                fidelity: ReadFidelity::PageAnalytic,
                pe_rber_coeff: 6.0e-5,
                pe_rber_exp: 1.4,
                pe_sigma_widen_coeff: 0.025,
                pe_sigma_widen_exp: 0.7,
                retention_rate: 2.6e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.8,
                rd_alpha: 9.0e-8,
                rd_kappa: 26.0,
                rd_pe_exp: 1.35,
                rd_pe_ref: 1000.0,
                rd_vpass_lambda: 4.0,
                rd_susceptibility_pareto_a: 0.88,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 2.0,
                outlier_prob: 2.4e-4,
                outlier_base: 435.0,
                outlier_scale: 12.0,
                outlier_cap: 500.0,
                program_interference_sigma: 1.2,
                analytic_ret_coeff: 4.2e-6,
                analytic_rd_slope: 1.6e-9,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![1.5, 3.0, 4.5, 6.0, 7.5, 9.0, -1.5],
                reread_va_raises: vec![4.0, 8.0, 12.0],
            },
            anchors: VA_QLC_V5_ANCHORS,
        },
        // Early 3D TLC: higher P/E noise floor than planar MLC but far
        // gentler read disturb and retention (charge-trap cells; the 3D
        // follow-up papers' headline result).
        ChipSpec {
            name: "va-tlc-v3",
            vendor: "vendor-a",
            description: "3D TLC (3rd-gen vertical), mild disturb, LDPC-class ECC",
            ecc_capability_rber: 5.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 30.0, sigma: 9.0 },
                    StateParams { mean: 85.0, sigma: 8.0 },
                    StateParams { mean: 140.0, sigma: 8.0 },
                    StateParams { mean: 195.0, sigma: 8.0 },
                    StateParams { mean: 250.0, sigma: 8.0 },
                    StateParams { mean: 305.0, sigma: 8.0 },
                    StateParams { mean: 360.0, sigma: 8.0 },
                    StateParams { mean: 415.0, sigma: 7.0 },
                ],
                refs: VoltageRefs::from_levels(&[57.5, 112.5, 167.5, 222.5, 277.5, 332.5, 387.5]),
                min_vpass: 480.0,
                fidelity: ReadFidelity::PageAnalytic,
                pe_rber_coeff: 3.2e-5,
                pe_rber_exp: 1.5,
                pe_sigma_widen_coeff: 0.018,
                pe_sigma_widen_exp: 0.65,
                retention_rate: 1.0e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.7,
                rd_alpha: 6.0e-8,
                rd_kappa: 28.0,
                rd_pe_exp: 1.3,
                rd_pe_ref: 2000.0,
                rd_vpass_lambda: 5.0,
                rd_susceptibility_pareto_a: 0.9,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 2.5,
                outlier_prob: 4.0e-4,
                outlier_base: 430.0,
                outlier_scale: 12.0,
                outlier_cap: 500.0,
                program_interference_sigma: 1.6,
                analytic_ret_coeff: 1.8e-6,
                analytic_rd_slope: 4.0e-10,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, -2.0],
                reread_va_raises: vec![6.0, 12.0, 18.0],
            },
            anchors: VA_TLC_V3_ANCHORS,
        },
        // Vendor B's planar MLC (the 2Z node): slightly better behaved than
        // the 2Y default.
        ChipSpec {
            name: "vb-mlc-2z",
            vendor: "vendor-b",
            description: "2Z-nm planar MLC, lower noise floor than the 2Y default",
            ecc_capability_rber: 1.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 45.0, sigma: 14.0 },
                    StateParams { mean: 165.0, sigma: 12.0 },
                    StateParams { mean: 290.0, sigma: 12.0 },
                    StateParams { mean: 415.0, sigma: 11.0 },
                ],
                refs: VoltageRefs::from_levels(&[105.0, 227.0, 352.0]),
                min_vpass: 465.0,
                fidelity: ReadFidelity::CellExact,
                pe_rber_coeff: 1.2e-5,
                pe_rber_exp: 1.6,
                pe_sigma_widen_coeff: 0.02,
                pe_sigma_widen_exp: 0.7,
                retention_rate: 1.4e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.72,
                rd_alpha: 9.0e-8,
                rd_kappa: 25.0,
                rd_pe_exp: 1.45,
                rd_pe_ref: 2000.0,
                rd_vpass_lambda: 4.0,
                rd_susceptibility_pareto_a: 0.85,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 1.4,
                outlier_prob: 6.0e-4,
                outlier_base: 455.0,
                outlier_scale: 12.0,
                outlier_cap: 505.0,
                program_interference_sigma: 1.8,
                analytic_ret_coeff: 2.0e-6,
                analytic_rd_slope: 8.0e-10,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![5.0, 10.0, 15.0, -5.0],
                reread_va_raises: vec![12.0, 24.0],
            },
            anchors: VB_MLC_2Z_ANCHORS,
        },
        // A 96-layer QLC whose default tier is block-aggregate (fleet-scale
        // archival simulations).
        ChipSpec {
            name: "vb-qlc-96l",
            vendor: "vendor-b",
            description: "96-layer 3D QLC, block-aggregate default for fleet sweeps",
            ecc_capability_rber: 8.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 28.0, sigma: 4.8 },
                    StateParams { mean: 55.0, sigma: 4.3 },
                    StateParams { mean: 82.0, sigma: 4.3 },
                    StateParams { mean: 109.0, sigma: 4.3 },
                    StateParams { mean: 136.0, sigma: 4.3 },
                    StateParams { mean: 163.0, sigma: 4.3 },
                    StateParams { mean: 190.0, sigma: 4.3 },
                    StateParams { mean: 217.0, sigma: 4.3 },
                    StateParams { mean: 244.0, sigma: 4.3 },
                    StateParams { mean: 271.0, sigma: 4.3 },
                    StateParams { mean: 298.0, sigma: 4.3 },
                    StateParams { mean: 325.0, sigma: 4.3 },
                    StateParams { mean: 352.0, sigma: 4.3 },
                    StateParams { mean: 379.0, sigma: 4.3 },
                    StateParams { mean: 406.0, sigma: 4.3 },
                    StateParams { mean: 433.0, sigma: 3.8 },
                ],
                refs: VoltageRefs::from_levels(&[
                    41.5, 68.5, 95.5, 122.5, 149.5, 176.5, 203.5, 230.5, 257.5, 284.5, 311.5,
                    338.5, 365.5, 392.5, 419.5,
                ]),
                min_vpass: 486.0,
                fidelity: ReadFidelity::BlockAggregate,
                pe_rber_coeff: 7.5e-5,
                pe_rber_exp: 1.35,
                pe_sigma_widen_coeff: 0.028,
                pe_sigma_widen_exp: 0.72,
                retention_rate: 3.0e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.82,
                rd_alpha: 1.0e-7,
                rd_kappa: 25.0,
                rd_pe_exp: 1.3,
                rd_pe_ref: 1000.0,
                rd_vpass_lambda: 4.0,
                rd_susceptibility_pareto_a: 0.88,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 2.0,
                outlier_prob: 2.0e-4,
                outlier_base: 438.0,
                outlier_scale: 12.0,
                outlier_cap: 500.0,
                program_interference_sigma: 1.1,
                analytic_ret_coeff: 5.0e-6,
                analytic_rd_slope: 2.0e-9,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![1.5, 3.0, 4.5, 6.0, 7.5, -1.5],
                reread_va_raises: vec![4.0, 8.0, 12.0],
            },
            anchors: VB_QLC_96L_ANCHORS,
        },
        // A mainstream 64-layer 3D TLC.
        ChipSpec {
            name: "vb-tlc-64l",
            vendor: "vendor-b",
            description: "64-layer 3D TLC, mainstream datacenter part",
            ecc_capability_rber: 5.0e-3,
            params: ChipParams {
                states: vec![
                    StateParams { mean: 32.0, sigma: 8.5 },
                    StateParams { mean: 88.0, sigma: 7.5 },
                    StateParams { mean: 144.0, sigma: 7.5 },
                    StateParams { mean: 200.0, sigma: 7.5 },
                    StateParams { mean: 256.0, sigma: 7.5 },
                    StateParams { mean: 312.0, sigma: 7.5 },
                    StateParams { mean: 368.0, sigma: 7.5 },
                    StateParams { mean: 424.0, sigma: 7.0 },
                ],
                refs: VoltageRefs::from_levels(&[60.0, 116.0, 172.0, 228.0, 284.0, 340.0, 396.0]),
                min_vpass: 478.0,
                fidelity: ReadFidelity::PageAnalytic,
                pe_rber_coeff: 2.6e-5,
                pe_rber_exp: 1.55,
                pe_sigma_widen_coeff: 0.02,
                pe_sigma_widen_exp: 0.68,
                retention_rate: 1.2e-4,
                retention_pe_exp: 1.2,
                retention_time_exp: 0.85,
                retention_leak_sigma_ln: 0.7,
                rd_alpha: 7.0e-8,
                rd_kappa: 27.0,
                rd_pe_exp: 1.35,
                rd_pe_ref: 2000.0,
                rd_vpass_lambda: 5.0,
                rd_susceptibility_pareto_a: 0.9,
                rd_susceptibility_cap: 1.0e5,
                rd_neighbor_boost: 2.2,
                outlier_prob: 5.0e-4,
                outlier_base: 440.0,
                outlier_scale: 12.0,
                outlier_cap: 502.0,
                program_interference_sigma: 1.5,
                analytic_ret_coeff: 2.1e-6,
                analytic_rd_slope: 5.5e-10,
                analytic_rd_sat: 2.0e-2,
                retry_shifts: vec![2.5, 5.0, 7.5, 10.0, 12.5, -2.5],
                reread_va_raises: vec![7.0, 14.0, 21.0],
            },
            anchors: VB_TLC_64L_ANCHORS,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_passes_every_rule() {
        crate::validate(&all()).unwrap_or_else(|problems| panic!("{}", problems.join("\n")));
    }

    #[test]
    fn default_chip_is_bit_identical_to_hardcoded_params() {
        // The load-bearing regression test of the whole database tier:
        // every golden run pins ChipParams::default(), and the DB's default
        // entry must reproduce it exactly — field for field, bit for bit.
        let spec = get(DEFAULT_CHIP).expect("the database contains the default chip");
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
