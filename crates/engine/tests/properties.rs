//! Property suite for the engine's arithmetic helpers: `FastDiv` against
//! the hardware `/`/`%` across the full divisor range, and the latency
//! histogram at degenerate sample sizes, against a sorted reference across
//! its whole range, and merged in any order. Also the one table check:
//! `EngineConfig::check` against what the constructors return.

use proptest::prelude::*;
use rd_engine::{Engine, EngineConfig, FastDiv, LatencyHistogram};
use rd_ftl::{Die, FtlError};

proptest! {
    /// The reciprocal-multiply division must agree with `/` and `%` for
    /// arbitrary (dividend, divisor) pairs.
    #[test]
    fn fastdiv_matches_hardware_division(n in any::<u64>(), d in 1u64..=u64::MAX) {
        let fast = FastDiv::new(d);
        prop_assert_eq!(fast.div_rem(n), (n / d, n % d));
    }

    /// Divisors near the engine's actual operating points (die counts,
    /// dies-per-shard: small u32 values) with dividends across the lpa
    /// range.
    #[test]
    fn fastdiv_matches_at_small_divisors(n in any::<u64>(), d in 1u64..=4096) {
        let fast = FastDiv::new(d);
        prop_assert_eq!(fast.div_rem(n), (n / d, n % d));
    }
}

/// The fix-up step is exercised hardest where `u64::MAX / d` truncates
/// most: powers of two, primes, and divisors near `u32::MAX`/`u64::MAX`.
#[test]
fn fastdiv_edge_divisors_exhaustive_neighborhoods() {
    let divisors = [
        1u64,
        2,
        3,
        5,
        7,
        11,
        63,
        64,
        65,
        251,
        1009,
        65_521,
        u64::from(u32::MAX) - 1,
        u64::from(u32::MAX),
        u64::from(u32::MAX) + 1,
        (1 << 62) - 57, // prime near 2^62
        u64::MAX - 1,
        u64::MAX,
    ];
    for &d in &divisors {
        let fast = FastDiv::new(d);
        // Dividends around every multiple-of-d boundary near the extremes,
        // where the underestimated quotient needs its +1 fix-up.
        let mut dividends = vec![0, 1, d - 1, d, d.saturating_add(1), u64::MAX - 1, u64::MAX];
        let near_top = (u64::MAX / d) * d;
        dividends.extend([near_top.saturating_sub(1), near_top, near_top.saturating_add(1)]);
        for n in dividends {
            assert_eq!(fast.div_rem(n), (n / d, n % d), "n={n} d={d}");
        }
    }
}

#[test]
#[should_panic]
fn fastdiv_rejects_zero_divisor() {
    let _ = FastDiv::new(0);
}

/// Lower end of the histogram's documented range (µs).
const RANGE_MIN: f64 = 1.0 / 65_536.0;

/// The largest latency below the top of the documented range, 2⁴⁷ µs.
fn range_max() -> f64 {
    f64::from_bits(2f64.powi(47).to_bits() - 1)
}

/// A histogram of `sample`, recorded in order.
fn histogram(sample: &[f64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &latency in sample {
        h.record(latency);
    }
    h
}

#[test]
fn histogram_percentiles_at_degenerate_sample_sizes() {
    // Empty: defined as (0, 0) rather than a panic.
    assert_eq!(histogram(&[]).p50_p99(), (0.0, 0.0));
    assert_eq!(histogram(&[]).mean(), 0.0);
    // n=1: both percentiles are the only observation.
    assert_eq!(histogram(&[42.0]).p50_p99(), (42.0, 42.0));
    // n=2: the rank rule rounds p50 to the upper element and p99 to the max.
    assert_eq!(histogram(&[10.0, 20.0]).p50_p99(), (20.0, 20.0));
    assert_eq!(histogram(&[20.0, 10.0]).p50_p99(), (20.0, 20.0), "order must not matter");
    // n=3: p50 is the median.
    assert_eq!(histogram(&[30.0, 10.0, 20.0]).p50_p99(), (20.0, 30.0));
    // Values on bucket edges are reported exactly, 0 included.
    assert_eq!(histogram(&[0.0, 0.0, 75.0]).p50_p99(), (0.0, 75.0));
}

/// Nearest-rank p50/p99 read off a copy sorted by `total_cmp`: the exact
/// values the histogram's bucket edges approximate from below.
fn sorted_reference(sample: &[f64]) -> (f64, f64) {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let last = sorted.len() - 1;
    let at = |q: f64| sorted[(last as f64 * q).round() as usize];
    (at(0.50), at(0.99))
}

/// Maps arbitrary bits to a latency the histogram must bucket: 0, both
/// ends of its documented range, bucket edges, and values spread
/// log-uniformly across the whole range.
fn range_value(bits: u64) -> f64 {
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
    match bits % 6 {
        0 => 0.0,
        1 => RANGE_MIN,
        2 => range_max(),
        3 => 75.0,
        4 => 75.0 + unit * 1.0e-6,
        _ => RANGE_MIN * 2f64.powf(63.0 * unit),
    }
}

/// A sample of `n` draws from `palette` (weighted by `weights`), so a few
/// values carry heavy ties.
fn weighted_sample(palette: &[f64], weights: &[u32], n: usize, seed: u64) -> Vec<f64> {
    let total: u32 = weights[..palette.len()].iter().sum();
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let mut pick = (x >> 33) as u32 % total;
            let mut i = 0;
            while pick >= weights[i] {
                pick -= weights[i];
                i += 1;
            }
            palette[i]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each reported percentile is its bucket's lower edge: never above the
    /// exact nearest-rank value, and more than that value over 1 + 2⁻⁷ (a
    /// 0 is reported exactly). The mean is the sample's, summed in order.
    #[test]
    fn histogram_percentiles_are_within_one_bucket_below_the_exact_ones(
        palette in proptest::collection::vec(any::<u64>(), 1..=8),
        weights in proptest::collection::vec(1u32..1000, 8),
        n in 1usize..3000,
        seed in any::<u64>(),
    ) {
        let palette: Vec<f64> = palette.into_iter().map(range_value).collect();
        let sample = weighted_sample(&palette, &weights, n, seed);
        let h = histogram(&sample);
        let (p50, p99) = h.p50_p99();
        let (e50, e99) = sorted_reference(&sample);
        for (reported, exact) in [(p50, e50), (p99, e99)] {
            prop_assert!(reported <= exact, "{} above the exact {}", reported, exact);
            prop_assert!(
                reported > exact / (1.0 + 2f64.powi(-7)) || (exact == 0.0 && reported == 0.0),
                "{} more than one bucket below the exact {}", reported, exact
            );
        }
        let sum = sample.iter().fold(0.0, |sum, latency| sum + latency);
        prop_assert_eq!(h.sum().to_bits(), sum.to_bits());
        prop_assert_eq!(h.count(), n as u64);
    }

    /// A sample split arbitrarily across `k` histograms and merged back in
    /// any order is the histogram of the whole sample: the same counts,
    /// sum and percentiles. Latencies are multiples of 2⁻⁴ µs below 2³⁰ µs,
    /// whose sums are exact in an `f64`, so the sum checks the merge, not
    /// rounding.
    #[test]
    fn merged_histograms_equal_one_over_the_whole_sample(
        palette in proptest::collection::vec(0u64..1 << 34, 1..=8),
        weights in proptest::collection::vec(1u32..1000, 8),
        n in 0usize..3000,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let palette: Vec<f64> = palette.into_iter().map(|q| q as f64 / 16.0).collect();
        let sample = weighted_sample(&palette, &weights, n, seed);
        let whole = histogram(&sample);
        let mut parts = vec![LatencyHistogram::default(); k];
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for &latency in &sample {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            parts[(x >> 33) as usize % k].record(latency);
        }
        let merge = |order: &[usize]| {
            let mut merged = LatencyHistogram::default();
            for &i in order {
                merged.merge(&parts[i]);
            }
            merged
        };
        let forward: Vec<usize> = (0..k).collect();
        let mut shuffled = forward.clone();
        for i in (1..k).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        for merged in [merge(&forward), merge(&shuffled)] {
            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(merged.sum().to_bits(), whole.sum().to_bits());
            prop_assert_eq!(merged.p50_p99(), whole.p50_p99());
        }
    }
}

/// `EngineConfig::check` is the gate for configurations from outside the
/// program: it must name every impossible value, and the constructors
/// return what it says — `Engine::new` on every row, `Die::new` on exactly
/// the per-die rows, which are `SsdConfig::check`'s.
#[test]
fn check_rejects_what_the_asserting_validates_panic_on() {
    type Break = fn(&mut EngineConfig);
    let cases: [(Break, &str, bool); 14] = [
        (|c| c.topology.channels = 0, "channel", false),
        (|c| c.topology.dies_per_channel = 0, "die per channel", false),
        (|c| c.timing.read_us = f64::NAN, "read_us", false),
        (|c| c.queue_depth = 0, "queue depth", false),
        (|c| c.die.geometry.blocks = 3, "blocks", true),
        (|c| c.die.overprovision = 0.95, "overprovision", true),
        (|c| c.die.gc_free_threshold = 0, "gc_free_threshold", true),
        (|c| c.die.refresh_interval_days = f64::NAN, "refresh_interval_days", true),
        (|c| c.die.ecc_capability_rber = 0.0, "ECC capability", true),
        (|c| c.die.geometry.wordlines_per_block = 0, "wordlines", true),
        (|c| c.die.geometry.bitlines = 1004, "multiple of 8", true),
        (|c| c.die.geometry.bits_per_cell = 3, "bits_per_cell", true),
        (|c| c.die.chip_params.retry_shifts.clear(), "retry_shifts", true),
        (
            |c| {
                c.die = c.die.clone().with_chip("va-tlc-v3").unwrap();
                c.die.chip_params.fidelity = rd_engine::ReadFidelity::CellExact;
            },
            "MLC-only",
            true,
        ),
    ];
    EngineConfig::small_test().check().expect("the test config is valid");
    for (break_it, needle, per_die) in cases {
        let mut config = EngineConfig::small_test();
        break_it(&mut config);
        let err = config.check().expect_err(needle);
        assert!(err.contains(needle), "`{err}` does not name `{needle}`");
        let rejected = FtlError::InvalidConfig(err);
        assert_eq!(Engine::new(config.clone()).err(), Some(rejected.clone()), "{needle}");
        let die = Die::new(config.die).err();
        assert_eq!(die.is_some(), per_die, "Die::new disagrees on `{needle}`");
        if per_die {
            assert_eq!(die, Some(rejected), "{needle}");
        }
    }
}
