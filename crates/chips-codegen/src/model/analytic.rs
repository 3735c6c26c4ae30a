//! Closed-form RBER model, calibrated to the paper's measured curves.
//!
//! The Monte-Carlo chip is exact but too slow for SSD-lifetime questions
//! (Fig. 8 sweeps years of operation over many blocks). This module provides
//! the closed forms that the figures pin down directly:
//!
//! * `rber_pe` — P/E cycling noise floor (Fig. 3 intercepts);
//! * `rber_retention` — retention error growth (Fig. 6's curve);
//! * `rber_read_disturb` — the disturb term: linear in reads at Fig. 3's
//!   table of per-P/E slopes, exponentially sensitive to Vpass (§2.3),
//!   softly saturating at high read counts (Figs. 4, 10);
//! * `rber_passthrough` — additional read errors from a relaxed Vpass
//!   (Fig. 5), decreasing with retention age.
//!
//! A consistency test in the calibration suite keeps the Monte-Carlo chip
//! within tolerance of this model across the Fig. 3 grid.

use crate::math::normal_q;
use crate::params::{ChipParams, NOMINAL_VPASS};

/// Parameters of the analytic model. Defaults are derived from
/// [`ChipParams`] so the two fidelity levels agree by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticParams {
    /// P/E noise: `rber_pe = pe_coeff * (PE/1000)^pe_exp`.
    pub pe_coeff: f64,
    /// Exponent of the P/E noise law.
    pub pe_exp: f64,
    /// Retention: `rber_ret = ret_coeff * (PE/1000)^ret_pe_exp * days^ret_time_exp`.
    pub ret_coeff: f64,
    /// Wear acceleration of retention errors.
    pub ret_pe_exp: f64,
    /// Time exponent of retention errors.
    pub ret_time_exp: f64,
    /// Read-disturb slope at the reference wear level and nominal Vpass
    /// (RBER per read). Fig. 3's table: 1.0e-9 at 2K P/E.
    pub rd_slope_coeff: f64,
    /// Wear exponent of the slope (`(PE/rd_pe_ref)^rd_pe_exp`).
    pub rd_pe_exp: f64,
    /// Reference P/E count for the slope law.
    pub rd_pe_ref: f64,
    /// Vpass sensitivity (normalized volts per e-fold of slope).
    pub rd_lambda: f64,
    /// Soft saturation level of the disturb term:
    /// `rber_rd = rd_sat * ln(1 + slope*reads/rd_sat)`.
    pub rd_sat: f64,
    /// Pass-through: amplitude of the additional-RBER exponential at
    /// `vpass = pt_v0` with fresh data.
    pub pt_amp: f64,
    /// Voltage anchor of the pass-through exponential.
    pub pt_v0: f64,
    /// Exponential scale (volts) of the pass-through tail.
    pub pt_scale: f64,
    /// Hard cap of the over-programmed tail (no stored voltage exceeds it,
    /// so Vpass above the cap produces zero read errors).
    pub pt_cap: f64,
    /// Retention relief: the over-programmed tail drifts down as data ages,
    /// by `pt_drift_rate * (PE/1000)^ret_pe_exp * days^ret_time_exp` volts.
    pub pt_drift_rate: f64,
}

impl AnalyticParams {
    /// Derives the analytic constants from the Monte-Carlo chip parameters
    /// and the block's wordline count (pass-through errors scale with the
    /// number of unread wordlines per bitline).
    pub fn from_chip(chip: &ChipParams, wordlines_per_block: u32) -> Self {
        let w = wordlines_per_block.max(2) as f64;
        // A blocked bitline senses as the top state; averaged over the N
        // intended states of the target cell and the page kinds, half the
        // sensed bits are wrong (the Gray map splits bits evenly). Only
        // top-state cells (1/N of randomly-programmed data) carry the
        // over-programmed tail.
        let pt_amp_at_base = 0.5 * (w - 1.0) * (1.0 / chip.n_states() as f64) * chip.outlier_prob;
        Self {
            pe_coeff: chip.pe_rber_coeff,
            pe_exp: chip.pe_rber_exp,
            ret_coeff: chip.analytic_ret_coeff,
            ret_pe_exp: chip.retention_pe_exp,
            ret_time_exp: chip.retention_time_exp,
            rd_slope_coeff: chip.analytic_rd_slope,
            rd_pe_exp: chip.rd_pe_exp,
            rd_pe_ref: chip.rd_pe_ref,
            rd_lambda: chip.rd_vpass_lambda,
            rd_sat: chip.analytic_rd_sat,
            pt_amp: pt_amp_at_base,
            pt_v0: chip.outlier_base,
            pt_scale: chip.outlier_scale,
            pt_cap: chip.outlier_cap,
            // The outlier tail drifts down with retention age (Fig. 5's
            // curve ordering), but — over-programmed cells sit on saturated
            // traps — slower than ordinary charge loss, which is what makes
            // Fig. 6's safe-reduction staircase margin-driven rather than
            // drift-driven.
            pt_drift_rate: 0.5 * chip.outlier_base * chip.retention_rate,
        }
    }
}

impl Default for AnalyticParams {
    fn default() -> Self {
        Self::from_chip(&ChipParams::default(), 64)
    }
}

/// Per-component RBER decomposition at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RberBreakdown {
    /// P/E cycling noise floor.
    pub pe: f64,
    /// Retention errors.
    pub retention: f64,
    /// Read-disturb errors.
    pub read_disturb: f64,
    /// Additional read errors from a relaxed pass-through voltage.
    pub passthrough: f64,
}

impl RberBreakdown {
    /// Total RBER (components are independent error channels at these
    /// magnitudes, so they add).
    pub fn total(&self) -> f64 {
        self.pe + self.retention + self.read_disturb + self.passthrough
    }
}

/// The analytic RBER model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalyticModel {
    params: AnalyticParams,
}

impl AnalyticModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: AnalyticParams) -> Self {
        Self { params }
    }

    /// Creates the model matched to a Monte-Carlo chip configuration.
    pub fn from_chip(chip: &ChipParams, wordlines_per_block: u32) -> Self {
        Self::new(AnalyticParams::from_chip(chip, wordlines_per_block))
    }

    /// The model's parameters.
    pub fn params(&self) -> &AnalyticParams {
        &self.params
    }

    /// P/E cycling noise floor.
    pub fn rber_pe(&self, pe_cycles: u64) -> f64 {
        self.params.pe_coeff * (pe_cycles as f64 / 1000.0).powf(self.params.pe_exp)
    }

    /// Retention error rate after `days` of retention at a wear level.
    pub fn rber_retention(&self, pe_cycles: u64, days: f64) -> f64 {
        if days <= 0.0 {
            return 0.0;
        }
        self.params.ret_coeff
            * (pe_cycles as f64 / 1000.0).powf(self.params.ret_pe_exp)
            * days.powf(self.params.ret_time_exp)
    }

    /// The per-read disturb slope at an operating point (the quantity
    /// tabulated in Fig. 3).
    pub fn rd_slope(&self, pe_cycles: u64, vpass: f64) -> f64 {
        self.params.rd_slope_coeff
            * (pe_cycles.max(1) as f64 / self.params.rd_pe_ref).powf(self.params.rd_pe_exp)
            * ((vpass - NOMINAL_VPASS) / self.params.rd_lambda).exp()
    }

    /// Read-disturb error rate after `reads` reads.
    pub fn rber_read_disturb(&self, pe_cycles: u64, reads: u64, vpass: f64) -> f64 {
        let linear = self.rd_slope(pe_cycles, vpass) * reads as f64;
        self.params.rd_sat * (linear / self.params.rd_sat).ln_1p()
    }

    /// Additional read (pass-through) error rate at a relaxed Vpass.
    ///
    /// Exactly zero whenever `vpass` clears the (retention-drifted)
    /// over-programmed tail cap — the paper's "Vpass can be lowered to some
    /// degree without inducing any read errors" (§2.4). Older data drifts
    /// downward, so larger relaxations become safe with retention age
    /// (Fig. 5's curve ordering).
    pub fn rber_passthrough(&self, pe_cycles: u64, days: f64, vpass: f64) -> f64 {
        let p = &self.params;
        let drift = p.pt_drift_rate
            * (pe_cycles as f64 / 1000.0).powf(p.ret_pe_exp)
            * days.max(0.0).powf(p.ret_time_exp);
        // Truncated exponential exceedance of the drifted tail.
        let q_cap = (-(p.pt_cap - p.pt_v0) / p.pt_scale).exp();
        let exceed = ((-(vpass - p.pt_v0 + drift) / p.pt_scale).exp() - q_cap) / (1.0 - q_cap);
        p.pt_amp * exceed.clamp(0.0, 1.0)
    }

    /// Full decomposition at an operating point.
    pub fn breakdown(&self, pe_cycles: u64, days: f64, reads: u64, vpass: f64) -> RberBreakdown {
        RberBreakdown {
            pe: self.rber_pe(pe_cycles),
            retention: self.rber_retention(pe_cycles, days),
            read_disturb: self.rber_read_disturb(pe_cycles, reads, vpass),
            passthrough: self.rber_passthrough(pe_cycles, days, vpass),
        }
    }

    /// Total RBER at an operating point.
    pub fn rber(&self, pe_cycles: u64, days: f64, reads: u64, vpass: f64) -> f64 {
        self.breakdown(pe_cycles, days, reads, vpass).total()
    }
}

/// Per-bit error floor from programming-distribution tail overlap at the
/// factory read references (the page-analytic backend's fresh-block floor).
/// Exposed for benchmarks and calibration tooling that want the
/// read-count-independent part of the closed form on its own.
pub fn gaussian_tail_floor(params: &ChipParams, pe_cycles: u64) -> f64 {
    gaussian_tail_floor_shifted(params, pe_cycles, 0.0)
}

/// Per-bit error floor from programming-distribution tail overlap at the
/// read references, each moved by `shift` normalized volts (randomly
/// programmed data; `shift == 0` is the default read path).
///
/// The closed-form [`AnalyticModel`] is calibrated to the paper's measured
/// curves from 2K P/E upward, where misprogram noise dominates; on a fresh
/// block the Monte-Carlo chip still shows a small error floor from the
/// Gaussian tails crossing the read references. Each of the `N - 1` state
/// boundaries contributes its two one-sided tails; states are equiprobable
/// (`1/N`) under random data and an adjacent-state misread flips exactly
/// one of the cell's `bits_per_cell` bits (Gray coding), hence the
/// `1/(N * bits_per_cell)` weight (1/8 for MLC). A nonzero `shift` is the
/// floor a read-retry re-read pays: away from the factory references, the
/// tails of *undisturbed* states cross the shifted boundaries and
/// misclassify.
pub fn gaussian_tail_floor_shifted(params: &ChipParams, pe_cycles: u64, shift: f64) -> f64 {
    let refs = &params.refs;
    let mut per_cell = 0.0;
    for i in 0..refs.len() {
        let vref = refs.level(i) + shift;
        let d_lo = params.state_dist_index(i, pe_cycles);
        let d_hi = params.state_dist_index(i + 1, pe_cycles);
        per_cell +=
            normal_q((vref - d_lo.mean) / d_lo.sigma) + normal_q((d_hi.mean - vref) / d_hi.sigma);
    }
    per_cell / (params.n_states() as u32 * params.bits_per_cell()) as f64
}

/// E-folding scale (normalized volts) of a retry shift's effect on the
/// disturb/retention error components. Read disturb lifts ER/P1 upward, so
/// raising the references by a state-sigma-scale shift re-centres them past
/// the drifted cells (errors decay); retention pulls P2/P3 downward, so the
/// same raise moves the boundaries *into* the leaked cells (errors grow).
/// The scale matches the default state sigma (≈10 normalized volts).
pub const RETRY_SHIFT_DECAY: f64 = 10.0;

/// Cap on the shift amplification factors: beyond a few decay lengths the
/// shifted-floor term dominates anyway, and an unbounded exponential would
/// just overflow the sampled error count.
pub const RETRY_SHIFT_GAIN_CAP: f64 = 32.0;

/// The read-count-independent closed-form terms at one read-reference
/// shift (the read-retry model): the misclassification floor follows the
/// shifted references exactly, the disturb component decays as a positive
/// shift tracks the up-drifted ER/P1 cells, and the retention component
/// grows by the mirror factor (the shifted boundaries cut into the
/// down-leaked P2/P3 cells). Both gains are exactly 1 at `shift == 0`, so
/// the default read is the shift-0 point. Both closed-form tiers sense
/// through this ([`ShiftPoint::rber`]).
#[derive(Debug, Clone, Copy)]
pub struct ShiftPoint {
    /// The read-reference shift the point was evaluated at.
    pub shift: f64,
    /// Shifted Gaussian tail floor + P/E noise + retention × gain, summed
    /// left to right.
    pub static_rber: f64,
    /// Factor on the disturb term.
    pub rd_gain: f64,
}

impl ShiftPoint {
    /// Evaluates the point for a block at `pe` P/E cycles and `age_days`
    /// of retention.
    pub fn at(
        params: &ChipParams,
        model: &AnalyticModel,
        pe: u64,
        age_days: f64,
        shift: f64,
    ) -> Self {
        let rd_gain = (-shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        let ret_gain = (shift / RETRY_SHIFT_DECAY).exp().min(RETRY_SHIFT_GAIN_CAP);
        let static_rber = gaussian_tail_floor_shifted(params, pe, shift)
            + model.rber_pe(pe)
            + model.rber_retention(pe, age_days) * ret_gain;
        Self { shift, static_rber, rd_gain }
    }

    /// Per-bit RBER of a read (pass-through excluded) whose saturating
    /// disturb term at the default references is `rd_term`.
    pub fn rber(&self, rd_term: f64) -> f64 {
        self.static_rber + rd_term * self.rd_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticModel {
        AnalyticModel::default()
    }

    #[test]
    fn slope_table_matches_paper_fig3() {
        // Paper Fig. 3 slope table (P/E cycles -> slope per read).
        let table = [
            (2_000u64, 1.00e-9),
            (3_000, 1.63e-9),
            (4_000, 2.37e-9),
            (5_000, 3.74e-9),
            (8_000, 7.50e-9),
            (10_000, 9.10e-9),
            (15_000, 1.90e-8),
        ];
        let m = model();
        for (pe, expect) in table {
            let got = m.rd_slope(pe, NOMINAL_VPASS);
            let ratio = got / expect;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "slope at {pe} P/E: got {got:.3e}, paper {expect:.3e}"
            );
        }
    }

    #[test]
    fn two_percent_vpass_cut_halves_total_rber_at_100k_reads() {
        // Paper §2.3: "at 100K reads, lowering Vpass by 2% can reduce the
        // RBER by as much as 50%".
        let m = model();
        let base = m.rber(8_000, 0.0, 100_000, NOMINAL_VPASS);
        let cut = m.rber(8_000, 0.0, 100_000, 0.98 * NOMINAL_VPASS);
        let reduction = 1.0 - cut / base;
        assert!(
            (0.35..=0.65).contains(&reduction),
            "2% Vpass cut reduced RBER by {:.0}%",
            reduction * 100.0
        );
    }

    #[test]
    fn disturb_linear_then_saturating() {
        let m = model();
        // Near-linear over Fig. 3's range (0..100K reads).
        let r50 = m.rber_read_disturb(8_000, 50_000, NOMINAL_VPASS);
        let r100 = m.rber_read_disturb(8_000, 100_000, NOMINAL_VPASS);
        let lin_ratio = r100 / (2.0 * r50);
        assert!((0.9..=1.0).contains(&lin_ratio), "linearity ratio {lin_ratio}");
        // Saturating beyond 1M (Fig. 10's range).
        let r1m = m.rber_read_disturb(8_000, 1_000_000, NOMINAL_VPASS);
        assert!(r1m < 10.0 * r100, "saturation missing: {r1m} vs {r100}");
        assert!(r1m > 3.0 * r100);
    }

    #[test]
    fn passthrough_zero_at_nominal_and_falls_with_age() {
        let m = model();
        // Exactly zero at and slightly below nominal (tail is capped).
        assert_eq!(m.rber_passthrough(8_000, 0.0, NOMINAL_VPASS), 0.0);
        assert_eq!(m.rber_passthrough(8_000, 0.0, m.params().pt_cap), 0.0);
        let fresh = m.rber_passthrough(8_000, 0.0, 480.0);
        let aged = m.rber_passthrough(8_000, 21.0, 480.0);
        assert!(fresh > aged && aged > 0.0, "retention must relieve pass-through errors");
        // Fig. 5 scale: ~1e-3 at Vpass=480 with fresh data (within ~2x).
        assert!((4e-4..=2e-3).contains(&fresh), "addl RBER at 480: {fresh}");
    }

    #[test]
    fn retention_matches_fig6_scale() {
        let m = model();
        // Day-21 retention errors at 8K P/E ≈ 0.35e-3.
        let r = m.rber_retention(8_000, 21.0);
        assert!((2e-4..=5e-4).contains(&r), "retention at 21d: {r}");
        // Total base RBER stays under the 1e-3 ECC operating point for the
        // whole 21-day window the paper plots.
        let total = m.rber(8_000, 21.0, 0, NOMINAL_VPASS);
        assert!(total < 1.0e-3, "total at 21d: {total}");
    }

    #[test]
    fn breakdown_components_sum() {
        let m = model();
        let b = m.breakdown(8_000, 7.0, 250_000, 500.0);
        assert!((b.total() - (b.pe + b.retention + b.read_disturb + b.passthrough)).abs() < 1e-18);
        assert!(b.pe > 0.0 && b.retention > 0.0 && b.read_disturb > 0.0 && b.passthrough > 0.0);
    }

    #[test]
    fn tolerable_reads_grow_exponentially_as_vpass_drops() {
        // Paper §2.3: "for a fixed RBER, a decrease in Vpass exponentially
        // increases the number of tolerable read disturbs."
        let m = model();
        let target = 1.0e-3;
        let reads_to_target = |vpass: f64| -> f64 {
            // Invert rd term: rd_sat*ln1p(S*N/rd_sat) + pe = target.
            let rd_needed = target - m.rber_pe(8_000);
            let lin = m.params().rd_sat * ((rd_needed / m.params().rd_sat).exp() - 1.0);
            lin / m.rd_slope(8_000, vpass)
        };
        let n100 = reads_to_target(NOMINAL_VPASS);
        let n98 = reads_to_target(0.98 * NOMINAL_VPASS);
        let n96 = reads_to_target(0.96 * NOMINAL_VPASS);
        let g1 = n98 / n100;
        let g2 = n96 / n98;
        assert!(g1 > 2.0, "per-2% gain {g1}");
        assert!((g2 / g1 - 1.0).abs() < 0.01, "exponential spacing: {g1} vs {g2}");
    }
}
