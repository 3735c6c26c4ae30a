//! Zipfian sampling over ranked items, used for block popularity.

use std::sync::Arc;

use rand::Rng;

/// Samples ranks `0..n` with probability proportional to `(rank+1)^-theta`.
///
/// `theta = 0` degenerates to uniform; real storage traces show
/// `theta ≈ 0.5–1.0` for read popularity. The table is shared, so a clone
/// costs a reference count, not a rebuild.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf: cdf.into() }
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is over an empty set (never true; `new` rejects
    /// `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Share of the most popular item (`pmf(0)`), i.e. the fraction of
    /// operations landing on the hottest block.
    pub fn top_share(&self) -> f64 {
        self.cdf[0]
    }

    /// Draws a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Top-rank share without building a sampler (used by the analytic
/// endurance path): `1 / Σ (k+1)^-theta`, an O(n) sum of `powf` terms —
/// 2,048–12,288 of them for the suite's footprints. Evaluate it once per
/// profile, not once per use.
pub(crate) fn top_share(n: usize, theta: f64) -> f64 {
    assert!(n > 0);
    let h: f64 = (0..n).map(|k| ((k + 1) as f64).powf(-theta)).sum();
    1.0 / h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ZipfSampler {
        /// Probability mass of rank `k`.
        fn pmf(&self, k: usize) -> f64 {
            if k == 0 {
                self.cdf[0]
            } else {
                self.cdf[k] - self.cdf[k - 1]
            }
        }
    }

    #[test]
    fn uniform_when_theta_zero() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
        assert!((top_share(10, 0.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = ZipfSampler::new(1000, 0.8);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..1000 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
    }

    #[test]
    fn closed_form_matches_sampler() {
        let z = ZipfSampler::new(512, 0.7);
        assert!((z.top_share() - top_share(512, 0.7)).abs() < 1e-12);
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = ZipfSampler::new(50, 0.9);
        let mut rng = StdRng::seed_from_u64(17);
        let n = 400_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.pmf(k);
            assert!((emp / exp - 1.0).abs() < 0.1, "rank {k}: {emp} vs {exp}");
        }
    }

    #[test]
    fn higher_theta_concentrates_more() {
        assert!(top_share(1000, 1.0) > top_share(1000, 0.5));
        assert!(top_share(1000, 0.5) > top_share(1000, 0.0));
    }
}
