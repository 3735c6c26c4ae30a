//! Ablation studies over four design choices:
//!
//! 1. **ECC reserve fraction** — the paper reserves 20% of capability;
//!    how does the endurance gain respond to the reserve?
//! 2. **Refresh interval** — the 7-day assumption; shorter intervals leave
//!    less time for disturb to accumulate.
//! 3. **Susceptibility tail** — the Pareto exponent that shapes the
//!    disturb-error growth (and RDR's opportunity).
//! 4. **Tuner resolution Δ** — coarser steps leave margin unexploited.

use readdisturb::core::lifetime::{average_gain, EnduranceConfig, EnduranceEvaluator};
use readdisturb::prelude::*;

pub(crate) fn run() -> crate::FigureResult {
    let suite = WorkloadProfile::suite();
    let mut rows = Vec::new();

    // 1. Reserve fraction sweep.
    for reserve in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let cfg = EnduranceConfig {
            margin: MarginPolicy { capability_rber: 1.0e-3, reserve_frac: reserve },
            ..EnduranceConfig::default()
        };
        let evaluator = EnduranceEvaluator::new(cfg);
        let gain = average_gain(&evaluator.evaluate_suite(&suite));
        rows.push(format!("reserve_frac,{reserve},{gain:.4}"));
    }

    // 2. Refresh interval sweep.
    for days in [3.5, 7.0, 14.0, 28.0] {
        let cfg = EnduranceConfig { refresh_interval_days: days, ..EnduranceConfig::default() };
        let evaluator = EnduranceEvaluator::new(cfg);
        let results = evaluator.evaluate_suite(&suite);
        let gain = average_gain(&results);
        let base_mean =
            results.iter().map(|r| r.baseline as f64).sum::<f64>() / results.len() as f64;
        rows.push(format!("refresh_days,{days},{gain:.4},{base_mean:.0}"));
    }

    // 3. Susceptibility Pareto exponent: disturb RBER at 1M reads (MC).
    for a in [0.7, 0.85, 1.0] {
        let params = ChipParams { rd_susceptibility_pareto_a: a, ..ChipParams::default() };
        let mut chip = Chip::new(Geometry::characterization(), params, 9);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 9).unwrap();
        chip.apply_read_disturbs(0, 1_000_000).unwrap();
        rows.push(format!("pareto_a,{a},{:.6e}", chip.block_rber(0).unwrap().rate()));
    }

    // 4. Tuner step resolution: achieved reduction on a fresh 4K-P/E block.
    for step_frac in [0.0025, 0.005, 0.01, 0.02] {
        let mut chip = Chip::new(
            Geometry { blocks: 1, wordlines_per_block: 32, bitlines: 64 * 1024, bits_per_cell: 2 },
            ChipParams::default(),
            77,
        );
        chip.cycle_block(0, 4_000).unwrap();
        chip.program_block_random(0, 77).unwrap();
        let mut tuner = VpassTuner::new(VpassTunerConfig {
            step: step_frac * NOMINAL_VPASS,
            ..VpassTunerConfig::default()
        });
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let report = tuner.tune_block(&mut chip, 0).unwrap();
        rows.push(format!(
            "tuner_step_frac,{step_frac},{:.4},{}",
            report.reduction(),
            report.probe_reads
        ));
    }

    crate::emit_csv("ablations", "knob,value,result,extra", &rows);
    println!("\nreadings:");
    println!("- reserve 0.2 trades a little day-0 margin for robustness (paper's choice)");
    println!("- longer refresh intervals amplify tuning's value (more disturb to mitigate)");
    println!("- heavier susceptibility tails (smaller a) saturate disturb RBER sooner");
    println!("- finer tuner steps squeeze more reduction at more probe reads");
    Ok(())
}
