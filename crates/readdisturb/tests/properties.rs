//! Property-based tests of the endurance evaluator's invariants.

use proptest::prelude::*;
use readdisturb::core::lifetime::{EnduranceConfig, EnduranceEvaluator, Mitigation};
use readdisturb::ecc::MarginPolicy;
use readdisturb::workloads::WorkloadProfile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tuning never hurts endurance for any sane reserve fraction or
    /// refresh interval. (With reserve below ~10% the greedy tuner can
    /// over-spend capability on deliberate pass-through errors and lose
    /// endurance on read-cold workloads — the failure mode the paper's 20%
    /// reserve exists to prevent; the `ablations` figure quantifies it.)
    ///
    /// Physics: closed-form model, no noise drawn.
    #[test]
    fn endurance_gain_never_negative(
        reserve in 0.15f64..0.5,
        interval in 2.0f64..21.0,
        profile_idx in 0usize..11,
    ) {
        let cfg = EnduranceConfig {
            margin: MarginPolicy { capability_rber: 1.0e-3, reserve_frac: reserve },
            refresh_interval_days: interval,
            ..EnduranceConfig::default()
        };
        let evaluator = EnduranceEvaluator::new(cfg);
        let profile = &WorkloadProfile::suite()[profile_idx];
        let base = evaluator.endurance(profile, Mitigation::Baseline);
        let tuned = evaluator.endurance(profile, Mitigation::VpassTuning);
        prop_assert!(tuned >= base, "{}: {tuned} < {base}", profile.name);
    }

    /// Tuned voltage is monotone non-decreasing in wear (margins shrink).
    ///
    /// Physics: closed-form model, no noise drawn.
    #[test]
    fn tuned_vpass_monotone_in_wear(pe_lo in 500u64..8_000, delta in 500u64..8_000) {
        let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
        let lo = evaluator.tuned_vpass(pe_lo);
        let hi = evaluator.tuned_vpass(pe_lo + delta);
        prop_assert!(hi >= lo - 1e-9, "vpass({}) = {lo} > vpass({}) = {hi}", pe_lo, pe_lo + delta);
    }
}
