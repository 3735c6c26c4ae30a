//! Chip model parameters, with defaults calibrated to the paper's figures.
//!
//! Every constant here is pinned by a specific observation in the DSN 2015
//! paper (`tests/calibration.rs` enforces them; the baseline tables in
//! `benchmark/README.md` carry the paper-vs-measured errors). The voltage
//! scale is the paper's normalization: GND = 0 and the nominal pass-through
//! voltage = 512 (§2).
//!
//! [`ChipParams::default`] is the calibrated 2Y-nm MLC set; the chip
//! database ([`crate::chips`]) provides named parameter sets for other
//! vendors, nodes, and state counts (TLC/QLC). The state list is variable-length for that reason — the
//! per-cell Monte-Carlo tier stays MLC-native, the analytic tiers accept any
//! power-of-two state count.

use crate::fidelity::ReadFidelity;
use crate::state::{CellState, VoltageRefs, MAX_STATES};

/// The nominal pass-through voltage on the normalized scale (paper §2:
/// "the nominal value of Vpass is equal to 512 in our normalized scale").
pub const NOMINAL_VPASS: f64 = 512.0;

/// Gaussian programming-target distribution for one cell state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateParams {
    /// Mean threshold voltage right after programming (fresh block).
    pub mean: f64,
    /// Standard deviation right after programming (fresh block).
    pub sigma: f64,
}

/// Full parameter set of the simulated chip.
///
/// Construct via [`ChipParams::default`] (calibrated 2Y-nm MLC model), look
/// one up by name in the chip database ([`crate::chips`]), or
/// adjust individual fields for ablation studies.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipParams {
    /// Programming distributions in threshold-voltage order (MLC: ER, P1,
    /// P2, P3). The length must be a power of two (2/4/8/16 for
    /// SLC/MLC/TLC/QLC) and match `refs.n_states()`.
    pub states: Vec<StateParams>,
    /// Default read-reference voltages (`states.len() - 1` boundaries).
    pub refs: VoltageRefs,
    /// Lowest pass-through voltage the tuning interface accepts. Real
    /// read-retry ranges bound how far Vref (and hence the mimicked Vpass)
    /// can move; the paper explores down to 94% of nominal (Fig. 4).
    pub min_vpass: f64,
    /// Fidelity tier of the chip built from these parameters:
    /// per-cell Monte-Carlo ([`ReadFidelity::CellExact`], the default) or
    /// the sampled closed-form model ([`ReadFidelity::PageAnalytic`]) for
    /// SSD-scale replay. See the `fidelity` module for the tier contract.
    pub fidelity: ReadFidelity,

    // --- P/E cycling noise -------------------------------------------------
    /// Coefficient of the P/E-cycling raw bit error rate
    /// `rber_pe = pe_rber_coeff * (PE/1000)^pe_rber_exp`.
    ///
    /// Calibrated to Fig. 3's intercepts (~0.5e-3 at 8K P/E) and Fig. 6's
    /// day-0 level.
    pub pe_rber_coeff: f64,
    /// Exponent of the P/E-cycling error law (see [`ChipParams::pe_rber_coeff`]).
    pub pe_rber_exp: f64,
    /// Mild distribution widening with wear:
    /// `sigma(PE) = sigma0 * (1 + widen_coeff * (PE/1000)^widen_exp)`.
    /// Kept subdominant to the misprogram term so the analytic and
    /// Monte-Carlo error floors agree; visually reproduces the broadening in
    /// Fig. 2a.
    pub pe_sigma_widen_coeff: f64,
    /// Exponent of the widening law.
    pub pe_sigma_widen_exp: f64,

    // --- Retention loss ----------------------------------------------------
    /// Base retention-loss rate:
    /// `drop = leak_i * vth * retention_rate * (PE/1000)^retention_pe_exp
    ///  * days^retention_time_exp`.
    ///
    /// Calibrated so a block with 8K P/E cycles accumulates ≈0.35e-3 RBER of
    /// retention errors by day 21 (Fig. 6).
    pub retention_rate: f64,
    /// Wear acceleration of retention loss.
    pub retention_pe_exp: f64,
    /// Sub-linear time exponent of retention loss.
    pub retention_time_exp: f64,
    /// Log-normal sigma of the per-cell leak-rate factor (fast- vs
    /// slow-leaking cells; what the authors' earlier RFR mechanism exploits).
    pub retention_leak_sigma_ln: f64,

    // --- Read disturb ------------------------------------------------------
    /// Per-read disturb dose coefficient. A cell's threshold voltage after a
    /// cumulative dose `D` is `kappa * ln(exp(v0/kappa) + alpha * s_i * D)`
    /// — the weak-programming closed form: lower-Vth cells shift more
    /// (Fig. 2 finding), and the shift grows logarithmically with reads.
    pub rd_alpha: f64,
    /// Tunneling softness `kappa` of the closed form (normalized volts).
    /// Anchored by Fig. 2b: the ER peak shifts ≈10 units after 1M reads.
    pub rd_kappa: f64,
    /// Wear exponent of the disturb slope: the Fig. 3 slope table follows
    /// `slope ∝ (PE/2000)^1.45` almost exactly.
    pub rd_pe_exp: f64,
    /// Reference P/E count of the slope law (2K, the table's first row).
    pub rd_pe_ref: f64,
    /// Exponential Vpass sensitivity in normalized volts per e-fold:
    /// a 2% Vpass reduction halves the total RBER at 100K reads (§2.3), and
    /// each 1% multiplies tolerable reads ≈3.6x (Fig. 4 spacing).
    pub rd_vpass_lambda: f64,
    /// Pareto tail exponent of per-cell disturb susceptibility. Process
    /// variation makes a small population of cells disturb much faster —
    /// the disturb-prone cells RDR identifies (§5.2). The exponent also sets
    /// the sub-linear saturation of disturb RBER beyond ~1M reads (Fig. 10).
    pub rd_susceptibility_pareto_a: f64,
    /// Upper cap on the susceptibility factor (keeps moments finite).
    pub rd_susceptibility_cap: f64,
    /// Extra disturb dose received by the *direct neighbours* of a
    /// repeatedly-read wordline, as a multiple of the uniform per-read
    /// dose. Models the concentrated read disturb effect reported for
    /// mid-1X TLC parts (paper §5, Zambelli et al. \[97\]); neighbours of a
    /// hammered page accumulate `1 + rd_neighbor_boost` times the dose of
    /// distant wordlines.
    pub rd_neighbor_boost: f64,

    // --- Over-programmed outliers (pass-through errors) --------------------
    /// Probability that a top-state cell lands in the over-programmed
    /// exponential tail; these are the cells that block bitlines when Vpass
    /// is relaxed (Fig. 5).
    pub outlier_prob: f64,
    /// Lower edge of the outlier tail (normalized volts).
    pub outlier_base: f64,
    /// Exponential scale of the outlier tail; sets the slope of Fig. 5's
    /// additional-RBER-vs-Vpass curves.
    pub outlier_scale: f64,
    /// Hard upper cap of the outlier tail, strictly below the nominal Vpass:
    /// program-verify guarantees no stored voltage reaches the nominal
    /// pass-through voltage, so *some* Vpass relaxation is always free of
    /// read errors (paper §2.4 / Fig. 5), and the 4/3/2/1/0% staircase of
    /// Fig. 6 terminates at "no reduction" only at extreme retention age.
    pub outlier_cap: f64,

    // --- Program interference ----------------------------------------------
    /// Extra Gaussian sigma added in quadrature at program time, modelling
    /// cell-to-cell program interference from neighbouring wordlines.
    pub program_interference_sigma: f64,

    // --- Closed-form (analytic tier) calibration ---------------------------
    /// Retention coefficient of the closed-form RBER model the analytic
    /// tiers sample from (`rber_ret = coeff * (PE/1000)^ret_pe_exp *
    /// days^ret_time_exp`). Calibrated to Fig. 6's 21-day level for the
    /// default chip; per-generation in the chip database.
    pub analytic_ret_coeff: f64,
    /// Per-read disturb slope of the closed-form model at the reference
    /// wear level and nominal Vpass (Fig. 3's first table row: 1.0e-9 per
    /// read at 2K P/E).
    pub analytic_rd_slope: f64,
    /// Saturation level of the closed-form disturb RBER (Fig. 10's plateau).
    pub analytic_rd_sat: f64,

    // --- Recovery ladder (read-retry interface) ----------------------------
    /// Uniform reference shifts the chip's read-retry command supports, in
    /// the order the controller's retry sweep tries them. Vendor- and
    /// generation-specific (the SSD-error survey's read-retry tables).
    pub retry_shifts: Vec<f64>,
    /// Lowest-boundary raises the disturb-aware re-read step tries, in
    /// order (RFR-style recovery; disturb errors concentrate at the lowest
    /// boundary).
    pub reread_va_raises: Vec<f64>,
}

impl ChipParams {
    /// Number of programmable states per cell.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Bits stored per cell (`log2` of the state count).
    ///
    /// # Panics
    ///
    /// Panics if the state count is not a power of two.
    pub fn bits_per_cell(&self) -> u32 {
        assert!(
            self.states.len().is_power_of_two() && self.states.len() >= 2,
            "state count {} is not a power of two",
            self.states.len()
        );
        self.states.len().ilog2()
    }

    /// Programming distribution of the state at index `i` at a given wear
    /// level.
    pub(crate) fn state_dist_index(&self, i: usize, pe_cycles: u64) -> StateParams {
        let base = self.states[i];
        let widen = 1.0
            + self.pe_sigma_widen_coeff * (pe_cycles as f64 / 1000.0).powf(self.pe_sigma_widen_exp);
        let sigma = (base.sigma * widen).hypot(self.program_interference_sigma);
        StateParams { mean: base.mean, sigma }
    }

    /// Programming distribution of an MLC state at a given wear level.
    pub(crate) fn state_dist(&self, state: CellState, pe_cycles: u64) -> StateParams {
        self.state_dist_index(state.index() as usize, pe_cycles)
    }

    /// The P/E-cycling component of RBER (program/erase noise floor).
    pub(crate) fn rber_pe(&self, pe_cycles: u64) -> f64 {
        self.pe_rber_coeff * (pe_cycles as f64 / 1000.0).powf(self.pe_rber_exp)
    }

    /// Probability that a programmed cell is misplaced into an adjacent
    /// state. Each misprogrammed cell contributes one erroneous bit out of
    /// its `bits_per_cell`, so this is `bits_per_cell` times the per-bit
    /// P/E error rate.
    pub(crate) fn misprogram_prob(&self, pe_cycles: u64) -> f64 {
        (f64::from(self.bits_per_cell()) * self.rber_pe(pe_cycles)).min(0.05)
    }

    /// Retention-loss rate multiplier at a given wear level (per unit
    /// `days^retention_time_exp`, as a fraction of the cell's Vth).
    pub(crate) fn retention_rate_at(&self, pe_cycles: u64) -> f64 {
        self.retention_rate * (pe_cycles as f64 / 1000.0).powf(self.retention_pe_exp)
    }

    /// Read-disturb wear factor entering the dose accumulation.
    ///
    /// The *observed* error slope scales as `(PE/2000)^rd_pe_exp` (Fig. 3
    /// slope table); because errors scale as `dose^a` with `a` the
    /// susceptibility Pareto exponent, the dose itself must carry the
    /// exponent `rd_pe_exp / a`.
    pub(crate) fn rd_wear_factor(&self, pe_cycles: u64) -> f64 {
        let a = self.rd_susceptibility_pareto_a;
        (pe_cycles.max(1) as f64 / self.rd_pe_ref).powf(self.rd_pe_exp / a)
    }

    /// Vpass factor entering the dose accumulation (see
    /// [`ChipParams::rd_wear_factor`] for why the Pareto exponent divides).
    pub(crate) fn rd_vpass_factor(&self, vpass: f64) -> f64 {
        let a = self.rd_susceptibility_pareto_a;
        ((vpass - NOMINAL_VPASS) / (self.rd_vpass_lambda * a)).exp()
    }

    /// Dose contributed by `n` reads at the given operating point.
    pub fn dose_increment(&self, n: u64, pe_cycles: u64, vpass: f64) -> f64 {
        n as f64 * self.rd_wear_factor(pe_cycles) * self.rd_vpass_factor(vpass)
    }

    /// Validates internal consistency: power-of-two state count (four at
    /// the cell-exact tier), ordered state means with positive sigmas,
    /// matching reference count with references placed between adjacent
    /// means, the top state and the over-programmed tail fitting below the
    /// nominal Vpass, non-empty retry ranges, and a positive value for
    /// every coefficient `COEFFICIENTS` marks so.
    ///
    /// This is the one per-chip gate: the chip database's rules
    /// ([`crate::chips`]' unit tests), a decoded checkpoint's configuration and the
    /// command-line tools all call it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let n = self.states.len();
        if !(n.is_power_of_two() && (2..=MAX_STATES).contains(&n)) {
            return Err(format!("state count {n} must be a power of two in 2..={MAX_STATES}"));
        }
        if self.fidelity == ReadFidelity::CellExact && n != 4 {
            return Err(format!(
                "the cell-exact tier is MLC-only ({n} states requested); \
                 use page-analytic or block-aggregate"
            ));
        }
        for w in self.states.windows(2) {
            if w[0].mean >= w[1].mean {
                return Err(format!(
                    "state means must be strictly increasing ({} >= {})",
                    w[0].mean, w[1].mean
                ));
            }
        }
        for s in &self.states {
            if s.sigma <= 0.0 {
                return Err(format!("state sigma {} must be positive", s.sigma));
            }
        }
        if self.refs.n_states() != n {
            return Err(format!(
                "{} references separate {} states, chip has {n}",
                self.refs.len(),
                self.refs.n_states()
            ));
        }
        for i in 0..n - 1 {
            let v = self.refs.level(i);
            if !(self.states[i].mean < v && v < self.states[i + 1].mean) {
                return Err(format!(
                    "reference {i} ({v}) must sit between state means {} and {}",
                    self.states[i].mean,
                    self.states[i + 1].mean
                ));
            }
        }
        let top = self.states[n - 1];
        if top.mean + 4.0 * top.sigma >= NOMINAL_VPASS {
            return Err(format!(
                "top state ({} + 4*{}) must clear the nominal Vpass {NOMINAL_VPASS}",
                top.mean, top.sigma
            ));
        }
        if !(self.min_vpass > 0.0 && self.min_vpass < NOMINAL_VPASS) {
            return Err(format!("min_vpass {} outside (0, {NOMINAL_VPASS})", self.min_vpass));
        }
        if !(self.outlier_base < self.outlier_cap && self.outlier_cap < NOMINAL_VPASS) {
            return Err(format!(
                "outlier tail [{}, {}] must sit below the nominal Vpass",
                self.outlier_base, self.outlier_cap
            ));
        }
        if self.retry_shifts.is_empty() || self.reread_va_raises.is_empty() {
            return Err("retry_shifts and reread_va_raises must be non-empty".into());
        }
        for c in COEFFICIENTS.iter().filter(|c| c.positive) {
            let value = (c.get)(self);
            if value <= 0.0 {
                return Err(format!("{} must be positive, got {value}", c.name));
            }
        }
        Ok(())
    }
}

/// One scalar coefficient of [`ChipParams`], addressable by name.
pub(crate) struct Coefficient {
    /// The field's name, as [`ChipParams::check`] reports it.
    pub name: &'static str,
    /// Whether [`ChipParams::check`] insists on a value above zero (the
    /// model divides by it, or takes its logarithm or a power of it).
    pub positive: bool,
    /// Reads the field.
    pub get: fn(&ChipParams) -> f64,
    /// Writes the field (the table's own test zeroes each coefficient).
    #[cfg(test)]
    pub set: fn(&mut ChipParams, f64),
}

macro_rules! coefficients {
    ($($field:ident: $positive:literal,)*) => {
        &[$(Coefficient {
            name: stringify!($field),
            positive: $positive,
            get: |p| p.$field,
            #[cfg(test)]
            set: |p, v| p.$field = v,
        }),*]
    };
}

/// Every scalar coefficient of [`ChipParams`] in declaration order, each
/// with whether it must be positive: [`ChipParams::check`]'s sign rows walk
/// this table, so a new coefficient is a struct field, its [`Default`] value
/// and one row here (rustc then asks for it in every spelled-out entry of
/// [`crate::chips::all`]).
pub(crate) const COEFFICIENTS: &[Coefficient] = coefficients! {
    pe_rber_coeff: true,
    pe_rber_exp: false,
    pe_sigma_widen_coeff: false,
    pe_sigma_widen_exp: false,
    retention_rate: true,
    retention_pe_exp: false,
    retention_time_exp: false,
    retention_leak_sigma_ln: false,
    rd_alpha: true,
    rd_kappa: true,
    rd_pe_exp: false,
    rd_pe_ref: true,
    rd_vpass_lambda: true,
    rd_susceptibility_pareto_a: true,
    rd_susceptibility_cap: false,
    rd_neighbor_boost: false,
    outlier_prob: true,
    outlier_base: false,
    outlier_scale: true,
    outlier_cap: false,
    program_interference_sigma: false,
    analytic_ret_coeff: true,
    analytic_rd_slope: true,
    analytic_rd_sat: true,
};

impl Default for ChipParams {
    /// The calibrated 2Y-nm MLC model (pinned by `tests/calibration.rs`).
    fn default() -> Self {
        Self {
            states: vec![
                StateParams { mean: 40.0, sigma: 15.0 },  // ER
                StateParams { mean: 160.0, sigma: 13.0 }, // P1
                StateParams { mean: 290.0, sigma: 13.0 }, // P2
                StateParams { mean: 420.0, sigma: 12.0 }, // P3
            ],
            refs: VoltageRefs::default(),
            min_vpass: 0.90 * NOMINAL_VPASS,
            fidelity: ReadFidelity::CellExact,

            pe_rber_coeff: 1.6e-5,
            pe_rber_exp: 1.6,
            pe_sigma_widen_coeff: 0.02,
            pe_sigma_widen_exp: 0.7,

            retention_rate: 1.6e-4,
            retention_pe_exp: 1.2,
            retention_time_exp: 0.85,
            retention_leak_sigma_ln: 0.75,

            rd_alpha: 1.1e-7,
            rd_kappa: 25.0,
            rd_pe_exp: 1.45,
            rd_pe_ref: 2000.0,
            rd_vpass_lambda: 4.0,
            rd_susceptibility_pareto_a: 0.85,
            rd_susceptibility_cap: 1.0e5,
            rd_neighbor_boost: 1.5,

            outlier_prob: 7.6e-4,
            outlier_base: 460.0,
            outlier_scale: 12.0,
            outlier_cap: 508.0,

            program_interference_sigma: 2.0,

            analytic_ret_coeff: 2.3e-6,
            analytic_rd_slope: 1.0e-9,
            analytic_rd_sat: 2.0e-2,

            retry_shifts: vec![4.0, 8.0, 12.0, 16.0, -4.0],
            reread_va_raises: vec![10.0, 20.0, 30.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_states_are_ordered_below_vpass() {
        let p = ChipParams::default();
        for w in p.states.windows(2) {
            assert!(w[0].mean < w[1].mean);
        }
        let p3 = p.states[3];
        assert!(p3.mean + 4.0 * p3.sigma < NOMINAL_VPASS);
        assert!(p.refs.va() > p.states[0].mean && p.refs.va() < p.states[1].mean);
        assert!(p.refs.vc() > p.states[2].mean && p.refs.vc() < p.states[3].mean);
        p.check().unwrap();
        assert_eq!(p.n_states(), 4);
        assert_eq!(p.bits_per_cell(), 2);
    }

    /// Every per-chip row the chip database rules enforce, each as one
    /// mutation of the default chip.
    #[test]
    fn check_rejects_inconsistent_params() {
        type Break = fn(&mut ChipParams);
        let cases: [(Break, &str); 14] = [
            (|p| p.states.truncate(3), "power of two"),
            (
                |p| {
                    p.states.truncate(2);
                    p.refs = VoltageRefs::from_levels(&[100.0]);
                },
                "MLC-only",
            ),
            (|p| p.states[2].mean = 100.0, "strictly increasing"),
            (|p| p.states[1].sigma = 0.0, "state sigma 0 must be positive"),
            (|p| p.refs = VoltageRefs::from_levels(&[100.0, 225.0]), "references separate"),
            (
                |p| p.refs = VoltageRefs::from_levels(&[100.0, 150.0, 355.0]),
                "(150) must sit between state means",
            ),
            (|p| p.states[3].sigma = 30.0, "must clear the nominal Vpass"),
            (|p| p.min_vpass = 0.0, "min_vpass 0 outside"),
            (|p| p.min_vpass = NOMINAL_VPASS, "min_vpass 512 outside"),
            (|p| p.outlier_cap = NOMINAL_VPASS, "outlier tail"),
            (|p| p.outlier_base = p.outlier_cap, "outlier tail"),
            (|p| p.retry_shifts.clear(), "retry_shifts"),
            (|p| p.reread_va_raises.clear(), "reread_va_raises"),
            (|p| p.analytic_rd_sat = -1.0, "analytic_rd_sat must be positive, got -1"),
        ];
        for (break_it, needle) in cases {
            let mut p = ChipParams::default();
            break_it(&mut p);
            let err = p.check().expect_err(needle);
            assert!(err.contains(needle), "`{err}` does not name `{needle}`");
        }
        // The sign rows are exactly the table's: a marked coefficient is
        // rejected at zero under its own name, an unmarked one is not.
        for c in COEFFICIENTS {
            let mut p = ChipParams::default();
            (c.set)(&mut p, 0.0);
            assert_eq!((c.get)(&p), 0.0);
            let sign_row = format!("{} must be positive, got 0", c.name);
            assert_eq!(p.check().err().is_some_and(|e| e == sign_row), c.positive, "{}", c.name);
        }
    }

    #[test]
    fn rber_pe_matches_fig3_intercept_scale() {
        let p = ChipParams::default();
        // ~0.5e-3 at 8K P/E (Fig. 3 / Fig. 6 level).
        let r = p.rber_pe(8_000);
        assert!(r > 3e-4 && r < 7e-4, "rber_pe(8K) = {r}");
        // Monotone in wear.
        assert!(p.rber_pe(15_000) > p.rber_pe(8_000));
        assert!(p.rber_pe(2_000) < p.rber_pe(3_000));
    }

    #[test]
    fn dose_scales_with_wear_and_vpass() {
        let p = ChipParams::default();
        let base = p.dose_increment(1000, 8_000, NOMINAL_VPASS);
        assert!(p.dose_increment(1000, 15_000, NOMINAL_VPASS) > base);
        assert!(p.dose_increment(1000, 8_000, 0.98 * NOMINAL_VPASS) < base);
        assert!((p.dose_increment(2000, 8_000, NOMINAL_VPASS) / base - 2.0).abs() < 1e-12);
    }

    #[test]
    fn observed_slope_scaling_matches_table() {
        // The wear factor is constructed so that slope ∝ dose^a reproduces
        // (PE/2000)^1.45; verify the composition.
        let p = ChipParams::default();
        let a = p.rd_susceptibility_pareto_a;
        let ratio = (p.rd_wear_factor(15_000) / p.rd_wear_factor(2_000)).powf(a);
        let expected = (15_000.0f64 / 2_000.0).powf(1.45); // = 18.6x, table 1.9e-8/1.0e-9
        assert!((ratio / expected - 1.0).abs() < 1e-9, "{ratio} vs {expected}");
    }

    #[test]
    fn sigma_widens_mildly_with_wear() {
        let p = ChipParams::default();
        let fresh = p.state_dist(CellState::Er, 0);
        let worn = p.state_dist(CellState::Er, 10_000);
        assert!(worn.sigma > fresh.sigma);
        assert!(worn.sigma < fresh.sigma * 1.4, "widening should stay mild");
        assert_eq!(worn.mean, fresh.mean);
    }

    #[test]
    fn misprogram_prob_clamped() {
        let p = ChipParams::default();
        assert!(p.misprogram_prob(1_000_000) <= 0.05);
        assert!(p.misprogram_prob(8_000) > 0.0);
        // MLC: exactly twice the per-bit rate (two bits per cell).
        assert_eq!(p.misprogram_prob(8_000), (2.0 * p.rber_pe(8_000)).min(0.05));
    }
}
