//! Property-based tests of the core mechanisms' invariants.

use proptest::prelude::*;
use rd_core::lifetime::{EnduranceConfig, EnduranceEvaluator};
use rd_core::{Mitigation, VpassTuner, VpassTunerConfig};
use rd_ecc::MarginPolicy;
use rd_flash::{Chip, ChipParams, Geometry, NOMINAL_VPASS};
use rd_workloads::WorkloadProfile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tuner's safety contract: whatever the block state, the final
    /// setting satisfies N <= M (or falls back to nominal), and the voltage
    /// stays inside the legal range.
    #[test]
    fn tuner_always_ends_safe(
        seed in any::<u64>(),
        pe in 1_000u64..14_000,
        reads in 0u64..150_000,
        days in 0.0f64..10.0,
    ) {
        let mut chip = Chip::new(
            Geometry { blocks: 1, wordlines_per_block: 16, bitlines: 32 * 1024, bits_per_cell: 2 },
            ChipParams::default(),
            seed,
        );
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, seed ^ 1).unwrap();
        chip.apply_read_disturbs(0, reads).unwrap();
        chip.advance_days(days);
        let mut tuner = VpassTuner::new(VpassTunerConfig::default());
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let report = tuner.tune_block(&mut chip, 0).unwrap();
        let params = chip.params();
        prop_assert!(report.vpass_after >= params.min_vpass - 1e-9);
        prop_assert!(report.vpass_after <= NOMINAL_VPASS + 1e-9);
        prop_assert!(
            report.fell_back || report.passthrough_zeros <= report.margin,
            "N={} > M={}", report.passthrough_zeros, report.margin
        );
        prop_assert_eq!(chip.block_vpass(0).unwrap(), report.vpass_after);
    }

    /// Tuning never hurts endurance for any sane reserve fraction or
    /// refresh interval. (With reserve below ~10% the greedy tuner can
    /// over-spend capability on deliberate pass-through errors and lose
    /// endurance on read-cold workloads — the failure mode the paper's 20%
    /// reserve exists to prevent; the `ablations` figure quantifies it.)
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
    #[test]
    fn tuned_vpass_monotone_in_wear(pe_lo in 500u64..8_000, delta in 500u64..8_000) {
        let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
        let lo = evaluator.tuned_vpass(pe_lo);
        let hi = evaluator.tuned_vpass(pe_lo + delta);
        prop_assert!(hi >= lo - 1e-9, "vpass({}) = {lo} > vpass({}) = {hi}", pe_lo, pe_lo + delta);
    }
}
