//! Smoke tests for the figure pipeline: the routine under every
//! `rd_bench::FIGURES` entry (`fig*`, `ext_*`, `ablations`, `overheads`), run
//! on the miniature testsupport geometry, asserting non-empty and finite
//! output — plus the table itself, and the closed-form entries run through
//! it at full scale.
//!
//! These guard the figure-regeneration path without full-scale runs: a
//! refactor that breaks a `characterize::fig*` function fails here in
//! milliseconds instead of at the next (minutes-long) figure regeneration.

use rd_bench::{HammerExperiment, ModulePopulation};
use readdisturb::core::characterize::{
    ext_concentrated_disturb, ext_partial_block, ext_slc_mode, fig10_rdr, fig2_vth_histograms,
    fig3_rber_vs_reads, fig4_vpass_read_tolerance, fig5_passthrough_sweep,
    fig6_retention_staircase, fig7_refresh_intervals, Scale,
};
use readdisturb::core::lifetime::{average_gain, EnduranceConfig, EnduranceEvaluator};
use readdisturb::core::overhead::OverheadModel;
use readdisturb::flash::chip::state_legend;
use readdisturb::prelude::*;
use readdisturb_repro::testsupport::{tiny_scale, worn_chip, GOLDEN_SEED};

fn assert_finite(label: &str, value: f64) {
    assert!(value.is_finite(), "{label} is not finite: {value}");
}

/// fig01_states: the state legend has the four MLC states with ordered,
/// finite means.
#[test]
fn fig01_state_legend() {
    let legend = state_legend(&ChipParams::default());
    assert_eq!(legend.len(), 4);
    for (state, mean, sigma) in &legend {
        assert_finite(&format!("mean of {state:?}"), *mean);
        assert_finite(&format!("sigma of {state:?}"), *sigma);
        assert!(*sigma > 0.0);
    }
    assert!(legend.windows(2).all(|w| w[0].1 < w[1].1), "state means must be ordered");
}

/// fig02a/fig02b: Vth histograms at every read checkpoint, with mass.
#[test]
fn fig02_vth_histograms() {
    let data = fig2_vth_histograms(tiny_scale(), GOLDEN_SEED).expect("fig2");
    assert_eq!(data.snapshots.len(), 4);
    for (reads, hist) in &data.snapshots {
        let mass: f64 = (0..hist.counts.len()).map(|i| hist.pdf(i)).sum();
        assert!(mass > 0.0, "empty histogram at {reads} reads");
        assert_finite(&format!("pdf mass at {reads} reads"), mass);
    }
}

/// fig03: one series per P/E level, every point finite, positive slopes.
#[test]
fn fig03_rber_vs_reads() {
    let data = fig3_rber_vs_reads(tiny_scale(), GOLDEN_SEED).expect("fig3");
    assert!(!data.series.is_empty());
    for series in &data.series {
        assert!(!series.points.is_empty());
        for &(reads, rber) in &series.points {
            assert_finite(&format!("rber at pe={} reads={reads}", series.pe_cycles), rber);
            assert!(rber >= 0.0);
        }
        assert_finite("fitted slope", series.fitted_slope);
        assert_finite("analytic slope", series.analytic_slope);
        assert!(series.fitted_slope > 0.0, "disturb must accumulate errors");
    }
}

/// fig04: seven Vpass series over the read grid, all finite.
#[test]
fn fig04_vpass_read_tolerance() {
    let data = fig4_vpass_read_tolerance(tiny_scale(), GOLDEN_SEED).expect("fig4");
    assert_eq!(data.series.len(), 7);
    for series in &data.series {
        assert!((94..=100).contains(&series.vpass_pct));
        assert!(!series.points.is_empty());
        for &(_, rber) in &series.points {
            assert_finite(&format!("rber at vpass {}%", series.vpass_pct), rber);
        }
    }
}

/// fig05: additional pass-through RBER per retention age, finite and
/// non-negative, and every point bit-equal to the values recorded when each
/// point set the block's Vpass and sensed the whole block anew: at
/// `tiny_scale` (too few cells for a relaxed Vpass to block a bitline, so
/// every extra RBER is 0) and at the `paper-exact` benchmark's 32×2048
/// block, where bitlines block.
#[test]
fn fig05_passthrough_sweep() {
    const VPASS_BITS: [u64; 17] = [
        0x407e000000000000,
        0x407e200000000000,
        0x407e400000000000,
        0x407e600000000000,
        0x407e800000000000,
        0x407ea00000000000,
        0x407ec00000000000,
        0x407ee00000000000,
        0x407f000000000000,
        0x407f200000000000,
        0x407f400000000000,
        0x407f600000000000,
        0x407f800000000000,
        0x407fa00000000000,
        0x407fc00000000000,
        0x407fe00000000000,
        0x4080000000000000,
    ];
    const A: u64 = 0x3f41c00000000000; // 5.4168701171875e-4
    const B: u64 = 0x3f30800000000000; // 2.5177001953125e-4
    const Z: u64 = 0;
    const TINY: [[u64; 17]; 7] = [[Z; 17]; 7];
    const BENCH_BLOCK: [[u64; 17]; 7] = [
        [A, A, A, A, A, A, B, B, B, B, B, B, Z, Z, Z, Z, Z], // 0 days
        [A, A, A, A, A, A, B, B, B, B, B, B, Z, Z, Z, Z, Z], // 1 days
        [A, A, A, A, A, A, B, B, B, B, B, B, Z, Z, Z, Z, Z], // 2 days
        [A, A, A, A, A, B, B, B, B, B, B, Z, Z, Z, Z, Z, Z], // 6 days
        [A, A, A, A, A, B, B, B, B, B, Z, Z, Z, Z, Z, Z, Z], // 9 days
        [A, A, A, B, B, B, B, B, Z, Z, Z, Z, Z, Z, Z, Z, Z], // 17 days
        [A, A, A, B, B, B, B, Z, Z, Z, Z, Z, Z, Z, Z, Z, Z], // 21 days
    ];
    let bench_block = Scale { wordlines: 32, bitlines: 2048 };
    for (scale, recorded) in [(tiny_scale(), TINY), (bench_block, BENCH_BLOCK)] {
        let data = fig5_passthrough_sweep(scale, GOLDEN_SEED).expect("fig5");
        let ages: Vec<u32> = data.series.iter().map(|s| s.age_days).collect();
        assert_eq!(ages, [0, 1, 2, 6, 9, 17, 21]);
        for (series, recorded) in data.series.iter().zip(&recorded) {
            for &(vpass, extra) in &series.points {
                assert_finite(&format!("extra rber at vpass {vpass}"), extra);
                assert!(extra >= 0.0);
            }
            let bits: Vec<(u64, u64)> =
                series.points.iter().map(|&(v, extra)| (v.to_bits(), extra.to_bits())).collect();
            let expected: Vec<(u64, u64)> = VPASS_BITS.into_iter().zip(*recorded).collect();
            assert_eq!(bits, expected, "{scale:?}, {} days", series.age_days);
        }
    }
}

/// fig06: the staircase rows exist and the margin shrinks with age.
#[test]
fn fig06_retention_staircase() {
    let data = fig6_retention_staircase(8);
    assert!(!data.rows.is_empty());
    assert!(data.capability > 0.0 && data.usable > 0.0);
    for row in &data.rows {
        assert_finite(&format!("base rber day {}", row.day), row.base_rber);
        assert_finite(&format!("margin day {}", row.day), row.margin_rber);
        assert!(row.safe_reduction_pct <= 10);
    }
}

/// fig07: both curves defined over four refresh intervals, finite.
#[test]
fn fig07_refresh_intervals() {
    let data = fig7_refresh_intervals(8_000, 40_000.0, 8);
    assert!(!data.points.is_empty());
    for point in &data.points {
        assert_finite(&format!("unmitigated at day {}", point.day), point.unmitigated);
        assert_finite(&format!("mitigated at day {}", point.day), point.mitigated);
        assert!(
            point.mitigated <= point.unmitigated + 1e-12,
            "tuning must not increase uncorrectable errors (day {})",
            point.day
        );
    }
}

/// fig08 / ablations: the endurance evaluator produces positive endurance
/// and a positive average gain on a workload subset.
#[test]
fn fig08_endurance_subset() {
    let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
    let suite = WorkloadProfile::suite();
    let results = evaluator.evaluate_suite(&suite[..2]);
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(r.baseline > 0, "{}: zero baseline endurance", r.workload);
        assert!(r.tuned >= r.baseline, "{}: tuning must not hurt", r.workload);
    }
    let gain = average_gain(&results);
    assert_finite("average gain", gain);
    assert!(gain > 0.0);
}

/// fig09: the illustration's substance — ER cells drift toward Va under
/// disturb while P1 cells stay put (prone vs resistant populations).
#[test]
fn fig09_prone_vs_resistant() {
    let mut chip = worn_chip(tiny_scale(), 8_000, GOLDEN_SEED);
    let er_mean_before = chip.vth_histogram(0, 2.0).unwrap().state_mean(CellState::Er);
    chip.apply_read_disturbs(0, 1_000_000).unwrap();
    let er_mean_after = chip.vth_histogram(0, 2.0).unwrap().state_mean(CellState::Er);
    assert!(
        er_mean_after > er_mean_before,
        "ER population must drift up under disturb ({er_mean_before} -> {er_mean_after})"
    );
}

/// fig10: RDR points exist, finite, and recovery never hurts at the top of
/// the read range.
#[test]
fn fig10_rdr_points() {
    let data = fig10_rdr(tiny_scale(), GOLDEN_SEED).expect("fig10");
    assert!(!data.points.is_empty());
    for p in &data.points {
        assert_finite(&format!("no_recovery at {} reads", p.reads), p.no_recovery);
        assert_finite(&format!("rdr at {} reads", p.reads), p.rdr);
    }
    let last = data.points.last().unwrap();
    assert!(last.rdr <= last.no_recovery, "RDR must not increase RBER at {} reads", last.reads);
}

/// fig11: the DRAM population exists with finite dates and a vulnerable
/// majority (the related-work reproduction's core claim).
#[test]
fn fig11_population() {
    let population = ModulePopulation::paper_129(GOLDEN_SEED);
    let points = population.fig11_points();
    assert!(!points.is_empty());
    for (_, date, _) in &points {
        assert_finite("manufacture date", *date);
    }
    assert!(population.vulnerable_count() > 0);
}

/// fig12: hammering a representative module yields a non-empty victim
/// histogram.
#[test]
fn fig12_hammer() {
    let population = ModulePopulation::paper_129(GOLDEN_SEED);
    let reps = population.fig12_representatives();
    assert!(!reps.is_empty());
    let exp = HammerExperiment::run(reps[0], 1_024, GOLDEN_SEED);
    assert!(!exp.histogram.is_empty());
}

/// overheads: the paper's 512 GB overhead model produces finite positives.
#[test]
fn overheads_model() {
    let model = OverheadModel::paper_512gb();
    assert!(model.blocks() > 0);
    assert!(model.storage_overhead_bytes() > 0);
    assert_finite("daily overhead s", model.daily_overhead_seconds());
    assert!(model.daily_overhead_seconds() > 0.0);
    assert!(model.daily_overhead_fraction() < 1.0);
}

/// ext_concentrated: per-wordline rows with finite RBER; neighbours of the
/// hammered wordline see more disturb than the hammered wordline itself.
#[test]
fn ext_concentrated() {
    let rows = ext_concentrated_disturb(tiny_scale(), GOLDEN_SEED, 200_000).expect("ext");
    assert_eq!(rows.len(), tiny_scale().wordlines as usize);
    for row in &rows {
        assert_finite(&format!("rber at distance {}", row.distance), row.rber);
    }
    let hammered = rows.iter().find(|r| r.distance == 0).unwrap();
    let neighbour = rows.iter().find(|r| r.distance == 1).unwrap();
    assert!(
        neighbour.rber >= hammered.rber,
        "neighbour must suffer at least the hammered wordline's disturb"
    );
}

/// ext_partial_block: erased-cell shift grows with reads, all finite.
#[test]
fn ext_partial() {
    let rows = ext_partial_block(tiny_scale(), GOLDEN_SEED).expect("ext");
    assert!(!rows.is_empty());
    for row in &rows {
        assert_finite(&format!("erased shift at {} reads", row.reads), row.erased_shift);
        assert_finite(&format!("programmed rber at {} reads", row.reads), row.programmed_rber);
    }
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(last.erased_shift > first.erased_shift, "erased cells must drift");
}

/// ext_slc_mode: SLC stays more disturb-resistant than MLC at the end of
/// the sweep, all finite.
#[test]
fn ext_slc() {
    let rows = ext_slc_mode(tiny_scale(), GOLDEN_SEED).expect("ext");
    assert!(!rows.is_empty());
    for row in &rows {
        assert_finite(&format!("mlc at {} reads", row.reads), row.mlc_rber);
        assert_finite(&format!("slc at {} reads", row.reads), row.slc_rber);
    }
    let last = rows.last().unwrap();
    assert!(last.slc_rber <= last.mlc_rber, "SLC must resist disturb better than MLC");
}

/// ext_recovery: the whole recovery family (RDR, RFR, ROR) runs on the
/// miniature geometry and returns finite outcomes.
#[test]
fn ext_recovery_family() {
    // RDR on a disturb-dominated block.
    let mut chip = worn_chip(tiny_scale(), 8_000, GOLDEN_SEED);
    chip.apply_read_disturbs(0, 500_000).unwrap();
    let rdr = Rdr::new(RdrConfig::default());
    let outcome = rdr.recover_block(&mut chip, 0).unwrap();
    let recovered = rdr.errors_vs_intended(&chip, 0, &outcome).unwrap().rate();
    assert_finite("rdr recovered rber", recovered);

    // RFR on a retention-dominated block.
    let mut chip = worn_chip(tiny_scale(), 12_000, GOLDEN_SEED ^ 1);
    chip.advance_days(28.0);
    let rfr = Rfr::new(RfrConfig::default());
    let outcome = rfr.recover_block(&mut chip, 0).unwrap();
    let recovered = rfr.errors_vs_intended(&chip, 0, &outcome).unwrap().rate();
    assert_finite("rfr recovered rber", recovered);

    // ROR re-centers a wordline's references.
    let mut chip = worn_chip(tiny_scale(), 8_000, GOLDEN_SEED ^ 2);
    chip.apply_read_disturbs(0, 500_000).unwrap();
    let ror = Ror::new(RorConfig::default());
    let outcome = ror.optimize_wordline(&mut chip, 0, 0).unwrap();
    let _ = outcome;
}

/// ext_recovery_path: the recovery-pipeline scenario on its miniature
/// config — the ECC line is crossed under traffic, the ladder engages,
/// and retry work is charged to the engine clock, on both fidelity tiers.
#[test]
fn ext_recovery_path_scenario() {
    use rd_bench::replay::{json_row, measure_recovery_scenario, RecoveryScenario};
    let scenario = RecoveryScenario::smoke();
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let m = measure_recovery_scenario(&scenario, fidelity);
        let s = &m.stats;
        assert!(
            s.recovered_reads + s.uncorrectable_reads > 0,
            "{fidelity}: no read ever crossed the ECC line"
        );
        assert!(s.recovered_reads > 0, "{fidelity}: the ladder never recovered a read");
        assert!(s.recovery_reads > 0, "{fidelity}: recovery must spend retry reads");
        assert!(s.background_us > 0.0, "{fidelity}: retry reads must cost engine time");
        assert!((0.0..=1.0).contains(&s.uber), "{fidelity}: uber out of range: {}", s.uber);
        let row = json_row("recovery", scenario.trace_ops, &m);
        for key in ["\"recovered\"", "\"recovery_reads\"", "\"uber\"", "\"background_ms\""] {
            assert!(row.contains(key), "row missing {key}: {row}");
        }
    }
}

/// The figure table: 20 names, none twice; the paper's figures first, in
/// ascending order; `ext_recovery_path` last.
#[test]
fn figure_table_names_are_unique_and_ordered() {
    let names: Vec<&str> = rd_bench::FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), 20);
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    let paper: Vec<&str> = names.iter().copied().filter(|n| n.starts_with("fig")).collect();
    assert_eq!(paper, names[..13], "the paper's figures come first");
    assert!(paper.windows(2).all(|w| w[0] < w[1]), "paper figures out of order: {paper:?}");
    assert_eq!(names.last(), Some(&"ext_recovery_path"));
}

/// The entries that are closed-form at full scale (milliseconds each) run
/// through the table by name, and each leaves its CSV behind.
#[test]
fn closed_form_figures_run_through_the_table() {
    for wanted in ["fig01_states", "fig06", "fig07", "fig08", "fig11", "fig12", "overheads"] {
        let (name, run) = rd_bench::FIGURES
            .iter()
            .find(|(name, _)| *name == wanted)
            .unwrap_or_else(|| panic!("{wanted} is not in the table"));
        run().unwrap_or_else(|err| panic!("{name} failed: {err}"));
        let csv = std::fs::read_to_string(format!("target/figures/{name}.csv")).expect("csv");
        assert!(csv.lines().count() > 1, "{name}.csv has no rows");
    }
}
