//! Retention noise: programmed cells slowly leak charge, lowering their
//! threshold voltage over time (paper §2.4: "cells slowly leak charge and
//! thus have lower threshold voltage values over time").
//!
//! The drop is proportional to the stored voltage, accelerated by wear, and
//! sub-linear in time; a per-cell log-normal leak factor produces the fast-
//! vs slow-leaking cell split the authors exploit in their companion RFR
//! mechanism.

use rand::Rng;

use crate::params::ChipParams;

/// Threshold-voltage drop of a cell after `days` of retention.
///
/// `leak` is the cell's process-variation factor (mean 1, sampled by
/// [`sample_leak_factor`]). The drop is clamped so the voltage never falls
/// below zero (the scale's GND).
pub fn vth_drop(params: &ChipParams, base_vth: f64, leak: f64, pe_cycles: u64, days: f64) -> f64 {
    if days <= 0.0 {
        return 0.0;
    }
    let time_pow = days.powf(params.retention_time_exp);
    vth_drop_at(base_vth, leak, params.retention_rate_at(pe_cycles), time_pow)
}

/// [`vth_drop`] for a positive age whose two block-level powers — the wear
/// rate [`ChipParams::retention_rate_at`] and `days^retention_time_exp` —
/// were evaluated by the caller (once per wordline, not once per cell).
///
/// Written as two selects rather than an early return and `f64::min` (same
/// value for every input, NaNs included) so that the wordline-sensing loop
/// it is inlined into stays free of data-dependent branches.
#[inline]
pub(crate) fn vth_drop_at(base_vth: f64, leak: f64, rate: f64, time_pow: f64) -> f64 {
    let drop = base_vth * rate * time_pow * leak;
    let drop = if drop < base_vth { drop } else { base_vth };
    if base_vth <= 0.0 {
        0.0
    } else {
        drop
    }
}

/// Samples the per-cell leak factor: log-normal with mean 1.
pub fn sample_leak_factor<R: Rng + ?Sized>(rng: &mut R, params: &ChipParams) -> f64 {
    let sigma = params.retention_leak_sigma_ln;
    let mu = -0.5 * sigma * sigma; // mean-1 lognormal
    let z: f64 = sample_standard_normal(rng);
    (mu + sigma * z).exp()
}

/// Box–Muller standard normal sample (avoids a distribution-crate
/// dependency; two uniforms per call, one output used).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_drop_at_time_zero() {
        let p = ChipParams::default();
        assert_eq!(vth_drop(&p, 420.0, 1.0, 8_000, 0.0), 0.0);
    }

    #[test]
    fn drop_monotone_in_time_wear_and_voltage() {
        let p = ChipParams::default();
        let d1 = vth_drop(&p, 420.0, 1.0, 8_000, 1.0);
        let d7 = vth_drop(&p, 420.0, 1.0, 8_000, 7.0);
        let d21 = vth_drop(&p, 420.0, 1.0, 8_000, 21.0);
        assert!(d1 < d7 && d7 < d21);
        assert!(vth_drop(&p, 420.0, 1.0, 15_000, 7.0) > d7);
        assert!(vth_drop(&p, 160.0, 1.0, 8_000, 7.0) < vth_drop(&p, 420.0, 1.0, 8_000, 7.0));
    }

    #[test]
    fn drop_magnitude_matches_calibration() {
        // P3 cell at 8K P/E after 21 days: mean drop ≈ 420 * 1.94e-3 * 21^0.85
        // ≈ 10-12 normalized units.
        let p = ChipParams::default();
        let d = vth_drop(&p, 420.0, 1.0, 8_000, 21.0);
        assert!(d > 7.0 && d < 16.0, "drop = {d}");
    }

    #[test]
    fn drop_never_exceeds_voltage() {
        let p = ChipParams::default();
        let d = vth_drop(&p, 50.0, 1.0e6, 15_000, 21.0);
        assert!(d <= 50.0);
    }

    #[test]
    fn leak_factor_has_mean_one_and_heavy_tail() {
        let p = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_leak_factor(&mut rng, &p)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean = {mean}");
        // A visible fast-leaking tail: some cells leak >4x the average.
        let fast = samples.iter().filter(|s| **s > 4.0).count();
        assert!(fast > 20, "fast leakers = {fast}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 400_000;
        let (mut m1, mut m2) = (0.0, 0.0);
        for _ in 0..n {
            let z = sample_standard_normal(&mut rng);
            m1 += z;
            m2 += z * z;
        }
        m1 /= n as f64;
        m2 /= n as f64;
        assert!(m1.abs() < 0.01, "mean {m1}");
        assert!((m2 - 1.0).abs() < 0.02, "var {m2}");
    }
}
