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
/// `sample_leak_factor`). The drop is clamped so the voltage never falls
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
pub(crate) fn sample_leak_factor<R: Rng + ?Sized>(rng: &mut R, params: &ChipParams) -> f64 {
    let sigma = params.retention_leak_sigma_ln;
    let mu = -0.5 * sigma * sigma; // mean-1 lognormal
    let z: f64 = sample_standard_normal(rng);
    (mu + sigma * z).exp()
}

/// A bound on `|z|` for every `z` [`sample_standard_normal`] returns. A
/// uniform draw is a multiple of 2⁻⁵³, so an accepted `u1` is at least 2⁻⁵³
/// and `|z| ≤ √(−2·ln u1) ≤ √(106·ln 2) ≈ 8.5716`; the rest is margin for
/// the rounding of `ln`, `sqrt` and `cos`.
pub(crate) const NORMAL_Z_BOUND: f64 = 8.6;

/// Box–Muller standard normal sample (avoids a distribution-crate
/// dependency; two uniforms per call, one output used). A draw takes the
/// generator through a `u1` loop that rejects `u1 = 0` and then one `u2`;
/// [`skip_standard_normal`] advances it through the same draws without the
/// `ln`, `sqrt` and `cos`. Every result lies within [`NORMAL_Z_BOUND`].
pub(crate) fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Leaves `rng` where [`sample_standard_normal`] would leave it — the same
/// `u1` loop and the same `u2` draw — without computing the sample. A
/// caller that saves the generator's state first can draw the sample later,
/// bit for bit, from that state.
#[inline]
pub(crate) fn skip_standard_normal<R: Rng + ?Sized>(rng: &mut R) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            rng.gen::<f64>();
            return;
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

    /// A generator that returns the given words, in order.
    struct Words(std::vec::IntoIter<u64>);

    impl rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a word left")
        }
    }

    /// The largest `|z|` a draw can have comes from the smallest accepted
    /// `u1`, 2⁻⁵³ (the word `1 << 11`), with `cos(2π·u2) = ±1` (`u2` = 0 or
    /// ½): it is √(106·ln 2), inside [`NORMAL_Z_BOUND`]. A zero `u1` is
    /// rejected and redrawn.
    #[test]
    fn normal_z_bound_holds_at_the_smallest_u1() {
        let extreme = (106.0 * std::f64::consts::LN_2).sqrt();
        assert!((8.5715..8.5717).contains(&extreme), "{extreme}");
        for (u2, sign) in [(0u64, 1.0), (1 << 63, -1.0)] {
            let mut rng = Words(vec![0, 1 << 11, u2].into_iter());
            let z = sample_standard_normal(&mut rng);
            assert!((z - sign * extreme).abs() < 1e-12, "z = {z}");
            assert!(z.abs() < NORMAL_Z_BOUND);
            assert_eq!(rng.0.len(), 0, "the zero u1 was redrawn");
        }
    }

    #[test]
    fn skipping_a_draw_leaves_the_generator_where_drawing_does() {
        let mut rng = Words(vec![0, 0, 5 << 11, 9, 1].into_iter());
        skip_standard_normal(&mut rng);
        assert_eq!(rng.0.as_slice(), [1]);
        let (mut drawn, mut skipped) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for _ in 0..10_000 {
            sample_standard_normal(&mut drawn);
            skip_standard_normal(&mut skipped);
        }
        assert_eq!(drawn.state(), skipped.state());
    }
}
