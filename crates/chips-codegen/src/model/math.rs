//! Numerical helpers: Gaussian tail functions and distribution sampling.
//!
//! The standard library does not provide `erf`, so a rational-approximation
//! implementation (Abramowitz & Stegun 7.1.26, |ε| < 1.5e-7) is included.
//! That accuracy is far below the Monte-Carlo noise floor of any experiment
//! in this reproduction.

/// Error function via the Abramowitz & Stegun 7.1.26 rational approximation.
///
/// Maximum absolute error ~1.5e-7 over the real line.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal upper-tail probability `Q(z) = P(Z > z)`.
///
/// For large `z` the complementary form of [`erf`] loses precision, so an
/// asymptotic expansion is used beyond `z = 6`.
pub fn normal_q(z: f64) -> f64 {
    if z > 6.0 {
        // Asymptotic upper tail: phi(z)/z * (1 - 1/z^2 + 3/z^4).
        let phi = (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt();
        let z2 = z * z;
        phi / z * (1.0 - 1.0 / z2 + 3.0 / (z2 * z2))
    } else {
        1.0 - normal_cdf(z)
    }
}

/// Standard normal probability density function.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt()
}

/// Density at `x` of a normal distribution with the given mean and sigma.
pub fn gaussian_pdf(x: f64, mean: f64, sigma: f64) -> f64 {
    normal_pdf((x - mean) / sigma) / sigma
}

/// `ln(1 + x)` kept as a named helper because the analytic read-disturb model
/// uses it as its soft-saturation primitive (see `AnalyticParams::rd_sat`).
pub fn ln1p(x: f64) -> f64 {
    x.ln_1p()
}

/// Binomial(`n`, `p`) sample from a single uniform draw `u ∈ [0, 1)` via an
/// inverse-CDF walk (product recursion on the PMF).
///
/// The walk consumes exactly one RNG draw regardless of outcome — the hot
/// sampling loop never branches on the RNG stream, which keeps tier results
/// independent of how many variates earlier reads consumed. Expected cost is
/// O(np) multiply-adds with no further RNG calls (the classic Knuth
/// product-inversion costs one RNG call *per trial*). Intended for the
/// small-mean regime (`np` ≲ 32); larger means should use a normal
/// approximation.
pub fn binomial_from_uniform(n: u64, p: f64, u: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // pmf(0) = (1-p)^n, then pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
    let ratio = p / (1.0 - p);
    let mut pmf = ((n as f64) * (-p).ln_1p()).exp();
    let mut cdf = pmf;
    let mut k = 0u64;
    while u > cdf && k < n {
        pmf *= ((n - k) as f64) / ((k + 1) as f64) * ratio;
        k += 1;
        cdf += pmf;
        if pmf < 1e-300 {
            // Underflow guard: the remaining tail mass is numerically zero.
            break;
        }
    }
    k
}

/// Rounding allowance of [`binomial_zero_bound`], in probability.
const ZERO_BOUND_GUARD: f64 = 1.0e-12;

/// A uniform below which [`binomial_from_uniform`]`(n, p, u)` returns 0 for
/// every `p ∈ (0, p_up]`, with `p_up < 1`: the zero-error screen, which
/// settles most small-mean draws without the walk's `ln_1p` and `exp`.
///
/// The walk returns 0 exactly when `u ≤ pmf(0) = exp(n·ln_1p(−p))`. For
/// `p ≤ p_up < 1`, `ln(1 − p) ≥ −p/(1 − p) ≥ −p_up/(1 − p_up)` (the ratio
/// grows with `p`) and `exp(x) ≥ 1 + x`, so
/// `(1 − p)^n ≥ 1 − n·p_up/(1 − p_up)`. The bound is only positive when
/// `n·p/(1 − p) < 1`, where the computed exponent is within a few ulps of
/// its true value, at most 1 in magnitude: the walk's `pmf(0)` is then off
/// by under 1e-15, and the bound's own three roundings by a few ulps of 1.
/// A guard keeps the bound 1e-12 under its exact value, three orders of
/// magnitude more than both together, so a screened draw is one the walk
/// would have returned 0 for. A bound that is not positive screens nothing.
pub fn binomial_zero_bound(n: u64, p_up: f64) -> f64 {
    debug_assert!(p_up > 0.0 && p_up < 1.0, "p_up {p_up} outside (0, 1)");
    1.0 - n as f64 * p_up / (1.0 - p_up) - ZERO_BOUND_GUARD
}

/// Intersection point of two Gaussian PDFs with `mean_lo < mean_hi`.
///
/// Solves `N(x; lo) = N(x; hi)` for the crossing between the two means; this
/// is the optimal read-reference position between two adjacent states and the
/// `ΔVref` classification threshold used by Read Disturb Recovery (paper
/// §5.2). Falls back to the midpoint when sigmas are equal (closed form
/// degenerates).
pub fn gaussian_intersection(mean_lo: f64, sigma_lo: f64, mean_hi: f64, sigma_hi: f64) -> f64 {
    assert!(mean_lo < mean_hi, "means must be ordered");
    if (sigma_lo - sigma_hi).abs() < 1e-12 {
        return 0.5 * (mean_lo + mean_hi);
    }
    // Quadratic a x^2 + b x + c = 0 from equating log-densities.
    let (s1, s2) = (sigma_lo * sigma_lo, sigma_hi * sigma_hi);
    let a = 1.0 / s1 - 1.0 / s2;
    let b = -2.0 * (mean_lo / s1 - mean_hi / s2);
    let c = mean_lo * mean_lo / s1 - mean_hi * mean_hi / s2 + 2.0 * (sigma_lo / sigma_hi).ln();
    let disc = (b * b - 4.0 * a * c).max(0.0);
    let r1 = (-b + disc.sqrt()) / (2.0 * a);
    let r2 = (-b - disc.sqrt()) / (2.0 * a);
    // Pick the root between the means; otherwise fall back to the midpoint.
    let mid = 0.5 * (mean_lo + mean_hi);
    [r1, r2].into_iter().find(|r| *r > mean_lo && *r < mean_hi).unwrap_or(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for z in [-3.0, -1.5, -0.2, 0.0, 0.7, 2.5] {
            let s = normal_cdf(z) + normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-6, "z={z}: {s}");
        }
    }

    #[test]
    fn q_function_values() {
        assert!((normal_q(0.0) - 0.5).abs() < 1e-7);
        // Q(3) = 1.3499e-3
        assert!((normal_q(3.0) - 1.3499e-3).abs() < 1e-5);
        // Deep tail should be finite, positive, decreasing.
        let q7 = normal_q(7.0);
        let q8 = normal_q(8.0);
        assert!(q7 > q8 && q8 > 0.0);
        assert!((q7 - 1.28e-12).abs() < 1e-13);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Trapezoidal integration of the Gaussian PDF.
        let (mean, sigma) = (100.0, 15.0);
        let mut sum = 0.0;
        let step = 0.05;
        let mut x = mean - 8.0 * sigma;
        while x < mean + 8.0 * sigma {
            sum += gaussian_pdf(x, mean, sigma) * step;
            x += step;
        }
        assert!((sum - 1.0).abs() < 1e-4, "integral = {sum}");
    }

    #[test]
    fn binomial_from_uniform_edges_and_moments() {
        assert_eq!(binomial_from_uniform(0, 0.5, 0.9), 0);
        assert_eq!(binomial_from_uniform(100, 0.0, 0.9), 0);
        assert_eq!(binomial_from_uniform(100, 1.0, 0.1), 100);
        // u = 0 always lands in the first CDF bucket.
        assert_eq!(binomial_from_uniform(100, 0.05, 0.0), 0);
        // u → 1 walks to the far tail but never past n.
        assert!(binomial_from_uniform(16, 0.5, 0.999_999_999) <= 16);
        // Mean over a uniform grid of u matches n·p (inverse-CDF is exact).
        let (n, p) = (2048u64, 4.0e-3);
        let grid = 20_000;
        let mean: f64 = (0..grid)
            .map(|i| binomial_from_uniform(n, p, (i as f64 + 0.5) / grid as f64) as f64)
            .sum::<f64>()
            / grid as f64;
        let expect = n as f64 * p;
        assert!((mean - expect).abs() / expect < 0.02, "mean {mean} vs np {expect}");
    }

    /// SplitMix64: the property tests' generator (the crate has no
    /// dependencies, test ones included).
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform over `[0, 1)`, 53 bits, as `rand`'s `f64` draws.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The largest `f64` below a positive `x`.
    fn below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// Whenever the screen accepts `(n, p_up, u)` — `u` below the bound —
    /// the walk returns 0 for every `p ∈ (0, p_up]`: `n ∈ 1..=65_536`,
    /// `p_up ∈ (0, min(0.5, 32/n))` spread uniformly and over twelve
    /// decades, `u` uniform and within 1e-12 of the bound.
    #[test]
    fn zero_bound_screens_only_zero_draws() {
        let mut rng = SplitMix(0x2015);
        let (mut screened, mut near) = (0u64, 0u64);
        for case in 0..100_000u32 {
            let n = (65_536f64.powf(rng.unit()) as u64).clamp(1, 65_536);
            let cap = (32.0 / n as f64).min(0.5);
            let p_up = if case % 2 == 0 {
                cap * rng.unit().max(1e-300)
            } else {
                cap * 1e-12f64.powf(1.0 - rng.unit())
            };
            let p = match case % 3 {
                0 => p_up,
                _ => p_up * (1.0 - rng.unit()),
            };
            let bound = binomial_zero_bound(n, p_up);
            let jitter = (2.0 * rng.unit() - 1.0) * 1e-12;
            let edge = if bound > 0.0 { below(bound) } else { 0.0 };
            for u in [rng.unit(), (bound + jitter).clamp(0.0, below(1.0)), edge] {
                if u < bound {
                    assert_eq!(
                        binomial_from_uniform(n, p, u),
                        0,
                        "n {n}, p_up {p_up:e}, p {p:e}, u {u} under bound {bound}"
                    );
                    screened += 1;
                    near += u64::from(bound - u <= 1e-12);
                }
            }
        }
        assert!(screened > 100_000 && near > 30_000, "{screened} screened, {near} near the bound");
    }

    /// The bound's edge, `p == p_up` and `u` the largest screened uniform,
    /// over a grid of `n` and of means from 1e-9 to just under 1.
    #[test]
    fn zero_bound_holds_at_its_edge() {
        let means = [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999_999];
        for n in [1u64, 2, 3, 7, 64, 1000, 1024, 2048, 4096, 8192, 65_535, 65_536] {
            for mean in means {
                let p_up = (mean / n as f64).min(0.5);
                let bound = binomial_zero_bound(n, p_up);
                if bound <= 0.0 {
                    continue;
                }
                let u = below(bound);
                assert_eq!(binomial_from_uniform(n, p_up, u), 0, "n {n}, p_up {p_up:e}, u {u}");
                // Not vacuous: the bound is within 2e-12 of `1 − n·p_up/(1 − p_up)`.
                assert!(bound > 1.0 - n as f64 * p_up / (1.0 - p_up) - 2e-12);
            }
        }
    }

    #[test]
    fn intersection_between_means_equal_sigma() {
        let x = gaussian_intersection(40.0, 10.0, 160.0, 10.0);
        assert!((x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn intersection_shifts_toward_narrow_distribution() {
        // A wider low distribution pushes the crossing toward the high one.
        let x = gaussian_intersection(40.0, 20.0, 160.0, 10.0);
        assert!(x > 100.0 && x < 160.0, "x = {x}");
        let pdf_lo = gaussian_pdf(x, 40.0, 20.0);
        let pdf_hi = gaussian_pdf(x, 160.0, 10.0);
        assert!((pdf_lo - pdf_hi).abs() / pdf_hi < 1e-6);
    }
}
