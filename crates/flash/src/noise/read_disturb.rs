//! Read disturb noise: the pass-through voltage applied to unread wordlines
//! during a read weakly programs their cells, shifting threshold voltages
//! upward (paper §1–2).
//!
//! ## The closed form
//!
//! Fowler–Nordheim-style tunneling gives a per-read voltage gain that decays
//! exponentially with the cell's own voltage (the oxide field shrinks as the
//! floating gate charges). Integrating `dV/dn = α·s·exp(-V/κ)` yields
//!
//! ```text
//! V(D) = κ · ln( exp(V0/κ) + α · s · D )
//! ```
//!
//! where `D` is the cumulative *dose* (reads weighted by wear and Vpass
//! factors, see [`crate::ChipParams::dose_increment`]) and `s` the cell's
//! susceptibility. The form reproduces the paper's three characterization
//! findings simultaneously:
//!
//! * shift grows with the number of reads (sub-linearly — Fig. 2a);
//! * lower-Vth cells shift more (Fig. 2b: the ER state moves most);
//! * the per-read effect is exponentially sensitive to Vpass (§2.3).
//!
//! ## Susceptibility
//!
//! Per-cell process variation is modelled as a Pareto-tailed factor: most
//! cells barely move, a small population moves fast. This is exactly the
//! disturb-prone / disturb-resistant split that Read Disturb Recovery
//! exploits (paper §5.2), and its tail exponent sets the observed
//! `RBER ∝ reads^a` growth that keeps Fig. 3 near-linear while Fig. 4 and
//! Fig. 10 saturate.
//!
//! The split is sharp in the closed form. A cell crosses a reference `L`
//! when `exp(V0/κ) + α·s·D ≥ exp(L/κ)`, so under a dose `D` every cell
//! sitting more than `κ·ln2` below `L` has a *critical susceptibility*
//! `s_crit = ½·exp(L/κ) / (α·D)`: with `s ≤ s_crit` it cannot reach `L`
//! whatever else is true of it (disturb-resistant at this dose), and only
//! the `P(s > s_crit) = s_crit^-a` tail above — a fraction of a percent of
//! a worn block after 100K reads — can have changed state. RDR finds that
//! tail by inducing more disturb and watching which cells move;
//! `CellArray`'s wordline-sensing kernel uses the same inequality
//! to classify the resistant majority by comparison, without evaluating
//! the `exp`/`ln` pair.

use rand::Rng;

use crate::params::ChipParams;

/// A cell's threshold voltage after accumulating disturb dose `dose`.
///
/// `base_vth` is the voltage the cell would have with no disturb (already
/// including retention loss), `susceptibility` the cell's process factor.
pub fn disturbed_vth(params: &ChipParams, base_vth: f64, susceptibility: f64, dose: f64) -> f64 {
    if dose <= 0.0 {
        return base_vth;
    }
    disturbed_vth_at(params.rd_kappa, base_vth, params.rd_alpha * susceptibility * dose)
}

/// The closed form itself, `κ · ln(exp(V0/κ) + term)` with
/// `term = α · s · D` — the one place it is written down.
#[inline]
pub(crate) fn disturbed_vth_at(kappa: f64, base_vth: f64, term: f64) -> f64 {
    kappa * ((base_vth / kappa).exp() + term).ln()
}

/// The disturb-induced shift `disturbed_vth - base_vth` (always ≥ 0).
pub fn vth_shift(params: &ChipParams, base_vth: f64, susceptibility: f64, dose: f64) -> f64 {
    disturbed_vth(params, base_vth, susceptibility, dose) - base_vth
}

/// Reference implementation: applies the dose in `steps` increments,
/// feeding each step's output voltage into the next. Used by property tests
/// to show the closed form is exactly the fixed point of incremental
/// application (the additivity that lets the cell-exact tier batch a
/// million reads into one update).
#[cfg(test)]
fn disturbed_vth_iterative(
    params: &ChipParams,
    base_vth: f64,
    susceptibility: f64,
    dose: f64,
    steps: u32,
) -> f64 {
    let mut v = base_vth;
    let step = dose / steps as f64;
    for _ in 0..steps {
        v = disturbed_vth(params, v, susceptibility, step);
    }
    v
}

/// Samples the per-cell susceptibility factor: Pareto(1, a) capped at
/// `rd_susceptibility_cap`.
pub(crate) fn sample_susceptibility<R: Rng + ?Sized>(rng: &mut R, params: &ChipParams) -> f64 {
    let a = params.rd_susceptibility_pareto_a;
    let u: f64 = rng.gen::<f64>().max(1e-300);
    u.powf(-1.0 / a).min(params.rd_susceptibility_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_dose_is_identity() {
        let p = ChipParams::default();
        assert_eq!(disturbed_vth(&p, 40.0, 1.0, 0.0), 40.0);
    }

    #[test]
    fn shift_monotone_in_dose() {
        let p = ChipParams::default();
        let mut last = 0.0;
        for dose in [1e3, 1e4, 1e5, 1e6, 1e7] {
            let s = vth_shift(&p, 40.0, 1.0, dose);
            assert!(s > last, "dose {dose}: shift {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn lower_vth_cells_shift_more() {
        // The paper's Fig. 2 finding: ER shifts most, P3 barely moves.
        let p = ChipParams::default();
        let dose = 1e6;
        let er = vth_shift(&p, 40.0, 1.0, dose);
        let p1 = vth_shift(&p, 160.0, 1.0, dose);
        let p3 = vth_shift(&p, 420.0, 1.0, dose);
        assert!(er > p1 && p1 > p3);
        assert!(p3 < 0.05, "P3 shift should be negligible, got {p3}");
    }

    #[test]
    fn er_shift_magnitude_matches_fig2_anchor() {
        // Fig. 2b: the ER peak shifts ≈10 normalized units after 1M reads at
        // the experiment's wear level (8K P/E, nominal Vpass). Median-
        // susceptibility cell: s = 2^(1/a).
        let p = ChipParams::default();
        let dose = p.dose_increment(1_000_000, 8_000, crate::params::NOMINAL_VPASS);
        let s_median = 2.0f64.powf(1.0 / p.rd_susceptibility_pareto_a);
        let shift = vth_shift(&p, 40.0, s_median, dose);
        assert!(shift > 5.0 && shift < 20.0, "ER median shift = {shift}");
    }

    #[test]
    fn closed_form_equals_iterative_application() {
        let p = ChipParams::default();
        for (v0, s, dose) in [(40.0, 1.0, 1e5), (160.0, 3.0, 1e6), (40.0, 120.0, 5e5)] {
            let direct = disturbed_vth(&p, v0, s, dose);
            let iter = disturbed_vth_iterative(&p, v0, s, dose, 50);
            assert!((direct - iter).abs() < 1e-9, "v0={v0} s={s} dose={dose}: {direct} vs {iter}");
        }
    }

    #[test]
    fn susceptibility_is_pareto_tailed() {
        let p = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 400_000usize;
        let samples: Vec<f64> = (0..n).map(|_| sample_susceptibility(&mut rng, &p)).collect();
        assert!(samples.iter().all(|s| *s >= 1.0 && *s <= p.rd_susceptibility_cap));
        // P(s > x) should be ~x^-a: check at x = 10 and x = 100.
        let a = p.rd_susceptibility_pareto_a;
        for x in [10.0f64, 100.0] {
            let frac = samples.iter().filter(|s| **s > x).count() as f64 / n as f64;
            let expect = x.powf(-a);
            assert!((frac / expect - 1.0).abs() < 0.15, "P(s>{x}) = {frac}, expected {expect}");
        }
    }

    #[test]
    fn dose_vpass_factor_accelerates_disturb() {
        let p = ChipParams::default();
        let hi = p.dose_increment(1000, 8_000, 512.0);
        let lo = p.dose_increment(1000, 8_000, 0.98 * 512.0);
        // 2% Vpass reduction cuts the observed error rate ~2.6x at the
        // calibrated lambda once the Pareto exponent is applied.
        let observed_ratio = (hi / lo).powf(p.rd_susceptibility_pareto_a);
        let expect = ((0.02 * 512.0) / p.rd_vpass_lambda).exp();
        assert!((observed_ratio / expect - 1.0).abs() < 1e-9);
    }
}
