//! Golden-run regression suite: reduced versions of the paper's headline
//! experiments, pinned to checked-in golden values.
//!
//! Two layers of protection for every future perf/refactor PR:
//!
//! * **Determinism** — the same seed must produce *bit-identical* outputs
//!   across consecutive runs ([`golden_runs_are_bit_identical_across_runs`]).
//! * **Golden values** — each experiment's outputs must stay within an
//!   explicit tolerance of the values recorded at `GOLDEN_SEED`
//!   (regenerate deliberately with `cargo run --release --example
//!   golden_dump` and justify the diff in the PR). They pin one noise
//!   realization: any change to what the cell-exact tier draws moves them.
//! * **Golden means** — over 256 seeds, each Monte-Carlo output's mean must
//!   stay within a few standard errors of its recorded mean
//!   ([`golden_means_over_seeds`]). This is what shows the physics is
//!   unchanged when the noise is: at this scale one seed's value varies by
//!   14–54% (coefficient of variation), the mean of 256 by 1–3%.
//!
//! Golden values recorded at `GOLDEN_SEED = 2015` on the `tiny_scale`
//! (8 wordlines × 512 bitlines) substrate.

use readdisturb::core::characterize::fig8_endurance;
use readdisturb_repro::testsupport::{
    all_golden_runs, rber_growth_run, rdr_recovery_run, vpass_tuning_run, GOLDEN_SEED,
};

/// Seeds of [`golden_means_over_seeds`].
const MEAN_SEEDS: std::ops::Range<u64> = 2000..2256;

#[test]
fn golden_runs_are_bit_identical_across_runs() {
    let first: Vec<String> = all_golden_runs().iter().map(|r| r.fingerprint()).collect();
    let second: Vec<String> = all_golden_runs().iter().map(|r| r.fingerprint()).collect();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "same seed must give bit-identical experiment output");
    }
}

/// Paper anchor 1 (Fig. 3): RBER grows superlinearly with read count on a
/// worn block; at 8K P/E the growth slope is a few 1e-9 per read.
#[test]
fn golden_rber_growth() {
    let run = rber_growth_run(GOLDEN_SEED);

    run.assert_close("rber_at_0_reads", 0.0001220703125, 0.25);
    run.assert_close("rber_at_100000_reads", 0.0009765625, 0.25);
    run.assert_close("rber_at_500000_reads", 0.00341796875, 0.25);
    run.assert_close("rber_at_1000000_reads", 0.0067138671875, 0.25);
    run.assert_close("slope_per_read", 6.591796875e-9, 0.25);

    // Shape, independent of the exact goldens: strictly increasing RBER,
    // and ≥ 10x growth over the million-read span (the paper's Fig. 3
    // curves rise by well over an order of magnitude).
    let curve: Vec<f64> = run.values[..4].iter().map(|&(_, v)| v).collect();
    assert!(curve.windows(2).all(|w| w[0] < w[1]), "RBER must grow with read count: {curve:?}");
    assert!(curve[3] > 10.0 * curve[0], "1M reads must grow RBER by >10x: {curve:?}");
}

/// Paper anchor 2 (Fig. 8): Vpass Tuning extends P/E endurance for every
/// workload; the paper's headline average improvement is 21%.
#[test]
fn golden_vpass_tuning_gain() {
    let run = vpass_tuning_run(GOLDEN_SEED);

    run.assert_close("iozone_baseline_pe", 7841.0, 0.02);
    run.assert_close("iozone_tuned_pe", 10703.0, 0.02);
    run.assert_close("msr-hm0_baseline_pe", 10470.0, 0.02);
    run.assert_close("msr-hm0_tuned_pe", 11078.0, 0.02);
    run.assert_close("umass-web_baseline_pe", 6606.0, 0.02);
    run.assert_close("umass-web_tuned_pe", 10442.0, 0.02);
    run.assert_close("average_gain", 0.33458645610171356, 0.05);

    // Direction, independent of the exact goldens: every workload gains,
    // and the average gain is at least the paper-order 15%.
    for name in ["iozone", "msr-hm0", "umass-web"] {
        assert!(run.get(&format!("{name}_gain")) > 0.0, "{name}: tuning must extend endurance");
    }
    assert!(
        run.get("average_gain") > 0.15,
        "average endurance gain {} below the paper-order threshold",
        run.get("average_gain")
    );
}

/// Fig. 8 exactly: every workload's `(baseline, tuned)` endurance, as
/// recorded when the search summed the profile's Zipf share at every wear
/// level it probed. The endurance search is closed form, so these are exact
/// (the 2% tolerances above bound the model, not the noise).
#[test]
fn golden_fig8_endurance_rows() {
    const RECORDED: [(&str, u64, u64); 11] = [
        ("iozone", 7841, 10703),
        ("postmark", 8414, 10796),
        ("cello99", 9396, 10831),
        ("msr-hm0", 10470, 11078),
        ("msr-prn1", 9152, 10831),
        ("msr-proj0", 10517, 11093),
        ("msr-src12", 8182, 10760),
        ("fiu-home", 8998, 10831),
        ("umass-fin1", 8652, 10831),
        ("umass-web", 6606, 10442),
        ("write-heavy", 11123, 11275),
    ];
    let rows: Vec<(String, u64, u64)> =
        fig8_endurance().into_iter().map(|r| (r.workload, r.baseline, r.tuned)).collect();
    let recorded: Vec<(String, u64, u64)> =
        RECORDED.iter().map(|&(name, base, tuned)| (name.to_string(), base, tuned)).collect();
    assert_eq!(rows, recorded);
}

/// Paper anchor 3 (Fig. 10): RDR removes a large fraction of the raw bit
/// errors of a heavily-read block (paper: up to 36% at 1M reads).
#[test]
fn golden_rdr_recovery() {
    let run = rdr_recovery_run(GOLDEN_SEED);

    run.assert_close("rber_no_recovery", 0.007080078125, 0.25);
    run.assert_close("rber_with_rdr", 0.004150390625, 0.25);
    run.assert_close("error_reduction", 0.4137931034482759, 0.20);

    // Direction, independent of the exact goldens.
    assert!(run.get("rber_with_rdr") < run.get("rber_no_recovery"), "RDR must reduce RBER");
    assert!(
        run.get("error_reduction") > 0.25,
        "RDR error reduction {} below the paper-order threshold",
        run.get("error_reduction")
    );
    assert!(run.get("reclassified_cells") > 0.0, "RDR must act on some cells");
}

/// The physics, not one realization: over [`MEAN_SEEDS`], the mean of each
/// Monte-Carlo output of the Fig. 3 and Fig. 10 runs stays within four
/// combined standard errors (`√(se² + se_recorded²)`) of the mean recorded
/// with its standard error over the same seeds when the cell-exact tier drew
/// its normals by Box–Muller. The test passes on that sampler and on the
/// ziggurat that replaced it; a mean that moves more is a change in the
/// modelled physics, not in the noise.
#[test]
fn golden_means_over_seeds() {
    const RECORDED: [(&str, f64, f64); 9] = [
        ("rber_at_0_reads", 4.410744e-4, 1.491622e-5),
        ("rber_at_100000_reads", 1.231670e-3, 2.320480e-5),
        ("rber_at_500000_reads", 3.539085e-3, 4.327453e-5),
        ("rber_at_1000000_reads", 5.986214e-3, 5.606358e-5),
        ("slope_per_read", 5.545139e-9, 5.514190e-11),
        ("rber_no_recovery", 6.488800e-3, 5.757044e-5),
        ("rber_with_rdr", 3.966808e-3, 4.570150e-5),
        ("error_reduction", 3.889719e-1, 4.377459e-3),
        ("reclassified_cells", 2.087891e1, 2.992343e-1),
    ];
    let runs: Vec<Vec<(String, f64)>> = MEAN_SEEDS
        .map(|seed| {
            [rber_growth_run(seed), rdr_recovery_run(seed)]
                .into_iter()
                .flat_map(|run| run.values)
                .collect()
        })
        .collect();
    let n = runs.len() as f64;
    for (i, (key, recorded, recorded_se)) in RECORDED.into_iter().enumerate() {
        let values: Vec<f64> = runs
            .iter()
            .map(|run| {
                assert_eq!(run[i].0, key, "the runs' keys moved");
                run[i].1
            })
            .collect();
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        let off = (mean - recorded).abs() / (se * se + recorded_se * recorded_se).sqrt();
        assert!(
            off <= 4.0,
            "{key}: mean {mean:.6e} (se {se:.3e}) is {off:.2} combined standard errors \
             from the recorded {recorded:.6e} (se {recorded_se:.3e})"
        );
    }
}

/// Changing the seed must change the Monte-Carlo outputs (guards against a
/// fixture accidentally ignoring its seed, which would make the determinism
/// test vacuous).
#[test]
fn golden_runs_depend_on_seed() {
    let a = rber_growth_run(GOLDEN_SEED);
    let b = rber_growth_run(GOLDEN_SEED + 1);
    assert_ne!(a.fingerprint(), b.fingerprint());

    let a = rdr_recovery_run(GOLDEN_SEED);
    let b = rdr_recovery_run(GOLDEN_SEED + 1);
    assert_ne!(a.fingerprint(), b.fingerprint());
}
