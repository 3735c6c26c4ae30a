//! Property suite for the engine's arithmetic helpers: `FastDiv` against
//! the hardware `/`/`%` across the full divisor range, and the latency
//! percentile selector at degenerate sample sizes and, against a sorted
//! reference, on both sides of its switch to counting. Also the one table
//! check: `EngineConfig::check` against what the constructors return.

use proptest::prelude::*;
use rd_engine::{percentiles_50_99, Engine, EngineConfig, FastDiv};
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

#[test]
fn percentiles_at_degenerate_sample_sizes() {
    // Empty: defined as (0, 0) rather than a panic.
    assert_eq!(percentiles_50_99(&[]), (0.0, 0.0));
    // n=1: both percentiles are the only observation.
    assert_eq!(percentiles_50_99(&[42.0]), (42.0, 42.0));
    // n=2: index arithmetic rounds p50 to the upper element and p99 to the
    // max — and must not index out of bounds.
    assert_eq!(percentiles_50_99(&[10.0, 20.0]), (20.0, 20.0));
    assert_eq!(percentiles_50_99(&[20.0, 10.0]), (20.0, 20.0), "order must not matter");
    // n=3: p50 is the median.
    assert_eq!(percentiles_50_99(&[30.0, 10.0, 20.0]), (20.0, 30.0));
}

proptest! {
    /// For any sample: p50 ≤ p99, both are members of the sample, and the
    /// input slice is never reordered (callers keep accounting order).
    #[test]
    fn percentiles_are_order_statistics(sample in proptest::collection::vec(0.0f64..1e9, 1..200)) {
        let before = sample.clone();
        let (p50, p99) = percentiles_50_99(&sample);
        prop_assert!(p50 <= p99);
        prop_assert!(sample.contains(&p50));
        prop_assert!(sample.contains(&p99));
        prop_assert_eq!(sample, before);
    }
}

/// Nearest-rank p50/p99 read off a copy sorted by `total_cmp`: what
/// `percentiles_50_99` must return, bit for bit.
fn sorted_reference(sample: &[f64]) -> (u64, u64) {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let last = sorted.len() - 1;
    let at = |q: f64| sorted[(last as f64 * q).round() as usize].to_bits();
    (at(0.50), at(0.99))
}

fn selected(sample: &[f64]) -> (u64, u64) {
    let (p50, p99) = percentiles_50_99(sample);
    (p50.to_bits(), p99.to_bits())
}

/// Maps arbitrary bits to a value the counting selection must order as
/// `total_cmp` does: both zeros, both infinities, subnormals, either sign,
/// any non-NaN bit pattern, and neighbours that share every leading digit
/// of their key.
fn awkward_value(bits: u64) -> f64 {
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
    match bits % 9 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 5e-324,
        5 => -f64::MIN_POSITIVE / 8.0,
        6 => (unit - 0.5) * 2.0e6,
        7 => 75.0 + unit * 1.0e-6,
        _ => {
            let x = f64::from_bits(bits);
            if x.is_nan() {
                f64::from_bits(bits & !(1 << 62))
            } else {
                x
            }
        }
    }
}

/// Lengths on both sides of the switch from copy-and-select to counting
/// (4096), and long enough beyond it that gathered buckets are real.
fn straddling_len() -> impl Strategy<Value = usize> {
    prop_oneof![4000usize..4200, 4095usize..4098, 10_000usize..30_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heavy ties: at most eight distinct values, so a rank's bucket never
    /// shrinks below a large share of the sample and the selection has to
    /// recognize one value repeated (a palette of one is exactly that).
    #[test]
    fn selection_is_exact_under_heavy_ties(
        palette in proptest::collection::vec(any::<u64>(), 1..=8),
        weights in proptest::collection::vec(1u32..1000, 8),
        n in straddling_len(),
        seed in any::<u64>(),
    ) {
        let total: u32 = weights[..palette.len()].iter().sum();
        let mut x = seed | 1;
        let sample: Vec<f64> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let mut pick = (x >> 33) as u32 % total;
                let mut i = 0;
                while pick >= weights[i] {
                    pick -= weights[i];
                    i += 1;
                }
                awkward_value(palette[i])
            })
            .collect();
        prop_assert_eq!(selected(&sample), sorted_reference(&sample));
    }

    /// Few or no ties: both ranks in one leading-digit bucket (a narrow
    /// band), in two (a band plus a far tail), or anywhere (mixed signs and
    /// magnitudes).
    #[test]
    fn selection_is_exact_across_buckets(
        n in straddling_len(),
        tail in 0usize..400,
        band in 0usize..3,
        outliers in proptest::collection::vec(any::<u64>(), 400),
        seed in any::<u64>(),
    ) {
        let band = [(75.0, 75.000_001), (25.0, 700.0), (-3.0e3, 3.0e3)][band];
        let mut x = seed | 1;
        let sample: Vec<f64> = (0..n)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                if i < tail {
                    awkward_value(outliers[i])
                } else {
                    band.0 + (band.1 - band.0) * ((x >> 11) as f64 / (1u64 << 53) as f64)
                }
            })
            .collect();
        prop_assert_eq!(selected(&sample), sorted_reference(&sample));
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
