//! Retention noise: programmed cells slowly leak charge, lowering their
//! threshold voltage over time (paper §2.4: "cells slowly leak charge and
//! thus have lower threshold voltage values over time").
//!
//! The drop is proportional to the stored voltage, accelerated by wear, and
//! sub-linear in time; a per-cell log-normal leak factor produces the fast-
//! vs slow-leaking cell split the authors exploit in their companion RFR
//! mechanism.

use std::sync::OnceLock;

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

/// A bound on `|z|` for every `z` [`sample_standard_normal`] returns: only
/// the ziggurat's tail reaches past `ZIG_R`, and it redraws any value at or
/// beyond this bound, so `|z| < NORMAL_Z_BOUND` holds by construction. The
/// truncation drops `2·Q(8.6) ≈ 8e-18` of the normal's mass.
pub(crate) const NORMAL_Z_BOUND: f64 = 8.6;

/// Layers of the ziggurat.
const ZIG_LAYERS: usize = 256;

/// Where the base layer's tail begins for 256 layers (Marsaglia & Tsang,
/// J. Stat. Softw. 5(8), 2000).
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The ziggurat's layers under the unnormalized density `f(x) = exp(−x²/2)`:
/// 256 regions of equal area `V`, layer `i` the rectangle `[0, x[i]]` ×
/// `[f(x[i]), f(x[i + 1])]`. Layer 0 is the base strip `[0, R] × [0, f(R)]`
/// plus the tail beyond `R`, drawn as a rectangle of width `x[0] = V/f(R)`.
struct Ziggurat {
    /// Layer edges, `x[1] = R` falling to `x[256] = 0` at the peak.
    x: [f64; ZIG_LAYERS + 1],
    /// `f(x[i])`.
    f: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: a `|u|` under it puts `u·x[i]` in the part of
    /// layer `i` that lies wholly under the curve.
    inner: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// Doornik's (2005) construction from `R`.
    fn new() -> Self {
        let f_r = (-0.5 * ZIG_R * ZIG_R).exp();
        // V = R·f(R) + ∫_R^∞ f, the tail being f(R) times Mills' ratio,
        // evaluated by its continued fraction 1/(R + 1/(R + 2/(R + …))).
        let mills = 1.0 / (1..=200).rev().fold(ZIG_R, |t, k| ZIG_R + f64::from(k) / t);
        let area = f_r * (ZIG_R + mills);
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [1.0; ZIG_LAYERS + 1];
        (x[0], x[1], f[1]) = (area / f_r, ZIG_R, f_r);
        f[0] = (-0.5 * x[0] * x[0]).exp();
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (area / x[i - 1] + f[i - 1]).ln()).sqrt();
            f[i] = (-0.5 * x[i] * x[i]).exp();
        }
        let inner = std::array::from_fn(|i| x[i + 1] / x[i]);
        Self { x, f, inner }
    }

    /// The tables, computed on first use.
    fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Self::new)
    }

    /// Layer `i`'s outcome for a `u` outside its inner rectangle: layer 0
    /// draws from the tail, any other layer keeps `u·x[i]` if a uniform
    /// height in the layer's wedge falls under the curve (`None`: draw
    /// again).
    #[cold]
    fn outside<R: Rng + ?Sized>(&self, rng: &mut R, i: usize, u: f64) -> Option<f64> {
        if i == 0 {
            // Marsaglia's tail: an exponential proposal beyond R, accepted
            // with probability exp(−x²/2); uniforms in (0, 1] keep `ln`
            // finite.
            loop {
                let x = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
                let y = -(1.0 - rng.gen::<f64>()).ln();
                if 2.0 * y > x * x && ZIG_R + x < NORMAL_Z_BOUND {
                    return Some((ZIG_R + x).copysign(u));
                }
            }
        }
        let x = u * self.x[i];
        let y = self.f[i] + rng.gen::<f64>() * (self.f[i + 1] - self.f[i]);
        (y < (-0.5 * x * x).exp()).then_some(x)
    }
}

/// Standard normal sample from a 256-layer ziggurat (Marsaglia & Tsang
/// 2000, in Doornik's 2005 form; no distribution-crate dependency). Each
/// attempt takes one word: the layer `i` from its top 8 bits, and
/// `u ∈ (−1, 1)` from bits 3..55 — disjoint fields, clear of xoshiro's
/// weak low bits. `u·x[i]` is returned at once when `|u|` is under the
/// layer's inner ratio (98.5% of attempts); otherwise a wedge test (one more
/// uniform and an `exp`) or the tail (two uniforms and two `ln` per try)
/// decides, and a rejected attempt starts over. A draw keeps no state
/// beyond the generator's, so a saved generator repeats it bit for bit.
/// Every result lies within [`NORMAL_Z_BOUND`].
#[inline]
pub(crate) fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = Ziggurat::get();
    loop {
        let word = rng.next_u64();
        let i = (word >> 56) as usize;
        // The 53-bit field m as the odd integer 2m + 1 − 2⁵³, exact in f64:
        // u is symmetric about 0 and never 0 or ±1.
        let m = (word >> 3) & ((1 << 53) - 1);
        let u = ((2 * m + 1) as i64 - (1 << 53)) as f64 * (1.0 / (1u64 << 53) as f64);
        if u.abs() < zig.inner[i] {
            return u * zig.x[i];
        }
        if let Some(z) = zig.outside(rng, i, u) {
            return z;
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

    /// Ten million draws: mean, variance, the sign split and both tails at
    /// 1..4σ, each within five standard errors of the normal's value.
    #[test]
    fn ziggurat_draws_follow_the_standard_normal() {
        let n = 10_000_000u64;
        let nf = n as f64;
        let mut rng = StdRng::seed_from_u64(2000);
        let (mut sum, mut sum_sq, mut positive) = (0.0, 0.0, 0u64);
        let (mut above, mut below) = ([0u64; 4], [0u64; 4]);
        for _ in 0..n {
            let z = sample_standard_normal(&mut rng);
            sum += z;
            sum_sq += z * z;
            positive += u64::from(z > 0.0);
            for k in 0..4 {
                above[k] += u64::from(z > (k + 1) as f64);
                below[k] += u64::from(z < -((k + 1) as f64));
            }
        }
        let mean = sum / nf;
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean {mean}");
        let second = sum_sq / nf;
        assert!((second - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(), "E[z²] {second}");
        let half = nf / 2.0;
        assert!((positive as f64 - half).abs() < 5.0 * (nf / 4.0).sqrt(), "{positive} positive");
        for k in 0..4 {
            let p = crate::math::normal_q((k + 1) as f64);
            let sd = (nf * p * (1.0 - p)).sqrt();
            for (side, count) in [("above", above[k]), ("below", below[k])] {
                let off = (count as f64 - nf * p).abs() / sd;
                assert!(off < 5.0, "{count} draws {side} ±{}σ: {off:.2} sd from {}", k + 1, nf * p);
            }
        }
    }

    /// Layer `i`'s equal area: the base layer's `x[0]·f(R)` is the strip
    /// and the tail, and the recurrence closes at the peak — the top layer,
    /// `x[255]·(1 − f(x[255]))`, has the same area to 1e-12.
    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = Ziggurat::new();
        let area = zig.x[0] * zig.f[1];
        for i in 1..ZIG_LAYERS {
            let layer = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((layer / area - 1.0).abs() < 1e-12, "layer {i}: {layer} against {area}");
        }
        assert_eq!((zig.x[1], zig.x[ZIG_LAYERS]), (ZIG_R, 0.0));
    }

    /// A generator that returns the given words, in order.
    struct Words(std::vec::IntoIter<u64>);

    impl rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a word left")
        }
    }

    /// The attempt word for layer `i` whose 53-bit field is `m`:
    /// `u = (2m + 1 − 2⁵³)·2⁻⁵³`.
    fn attempt(i: u64, m: u64) -> u64 {
        i << 56 | m << 3
    }

    /// The word whose uniform draw is `1 − 2^−k`: a tail uniform of `2^−k`.
    fn tail_uniform(k: u32) -> u64 {
        ((1 << 53) - (1 << (53 - k))) << 11
    }

    /// Crafted words through each path: an inner rectangle returns `u·x[i]`
    /// from one word; a wedge keeps `u·x[i]` under the curve and starts over
    /// above it; layer 0's outer `u` goes to the tail, which returns
    /// `±(R + x)` once `2y > x²`.
    #[test]
    fn ziggurat_words_take_the_rectangle_wedge_and_tail() {
        let zig = Ziggurat::new();
        let draw = |words: Vec<u64>| {
            let mut rng = Words(words.into_iter());
            let z = sample_standard_normal(&mut rng);
            (z, rng.0.len())
        };
        // The fields of u = ½ + 2⁻⁵³ and of u = 2⁻⁵³.
        let (half, tiny) = (3 << 51, 1 << 52);
        // Rectangle: layer 5 at u = 2⁻⁵³, and the base layer at u = ½.
        assert_eq!(draw(vec![attempt(5, tiny)]), (zig.x[5] / (1u64 << 53) as f64, 0));
        let (z, left) = draw(vec![attempt(0, half)]);
        assert!(z < ZIG_R && (z - 0.5 * zig.x[0]).abs() < 1e-15 && left == 0, "{z}");
        // Wedge: the top layer has no inner rectangle. The lowest height is
        // under the curve at u = ½; the highest is not, so a rectangle word
        // decides the draw.
        let (z, left) = draw(vec![attempt(255, half), 0]);
        assert!((z - 0.5 * zig.x[255]).abs() < 1e-15 && left == 0, "{z}");
        let (z, left) = draw(vec![attempt(255, half), !0, attempt(5, tiny), 7]);
        assert_eq!((z, left), (zig.x[5] / (1u64 << 53) as f64, 1));
        // Tail: x = −ln(1)/R = 0 with y = 53·ln 2 is accepted, signed as u;
        // with y = 0 it is not, and the next pair is drawn.
        assert_eq!(draw(vec![attempt(0, 0), tail_uniform(0), tail_uniform(53)]), (-ZIG_R, 0));
        let words = vec![attempt(0, (1 << 53) - 1), 0, 0, tail_uniform(0), tail_uniform(53)];
        assert_eq!(draw(words), (ZIG_R, 0));
    }

    /// The largest `|z|` a draw can have comes from the tail's smallest
    /// accepted `u1`: `2⁻²⁶` gives `R + 26·ln 2/R ≈ 8.586`, inside
    /// [`NORMAL_Z_BOUND`], while `2⁻²⁷` would give ≈ 8.776 — its shape test
    /// passes (`y = 53·ln 2`), and the bound redraws it.
    #[test]
    fn normal_z_bound_holds_at_the_smallest_u1() {
        let extreme = ZIG_R + 26.0 * std::f64::consts::LN_2 / ZIG_R;
        assert!((8.585..8.587).contains(&extreme), "{extreme}");
        const { assert!(ZIG_R + 27.0 * std::f64::consts::LN_2 / ZIG_R > NORMAL_Z_BOUND) };
        for (m, sign) in [((1 << 53) - 1, 1.0), (0, -1.0)] {
            let words = vec![
                attempt(0, m),
                tail_uniform(27),
                tail_uniform(53),
                tail_uniform(26),
                tail_uniform(53),
            ];
            let mut rng = Words(words.into_iter());
            let z = sample_standard_normal(&mut rng);
            assert!((z - sign * extreme).abs() < 1e-12, "z = {z}");
            assert!(z.abs() < NORMAL_Z_BOUND);
            assert_eq!(rng.0.len(), 0, "the pair past the bound was redrawn");
        }
    }

    /// A draw takes exactly the words its acceptance steps use: a wedge
    /// rejection (two words), then a tail draw (three), and the sixth word
    /// is left.
    #[test]
    fn skipping_a_draw_leaves_the_generator_where_drawing_does() {
        let words = vec![attempt(255, 3 << 51), !0, attempt(0, 0), 0, !0, 1];
        let mut rng = Words(words.into_iter());
        let z = sample_standard_normal(&mut rng);
        assert_eq!((z, rng.0.as_slice()), (-ZIG_R, &[1][..]));
    }
}
