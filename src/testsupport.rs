//! Shared test substrate: seeded-RNG fixtures, miniature device presets, and
//! the golden-run regression harness.
//!
//! Every suite in `tests/` (and future perf work) builds on three rules:
//!
//! 1. **All randomness is seeded.** Fixtures expose [`GOLDEN_SEED`];
//!    nothing in the test pyramid draws entropy from the environment, so
//!    every run of every suite is reproducible.
//! 2. **Experiments are pure functions of their seed.** The golden runs
//!    below re-execute reduced versions of the paper's headline experiments
//!    and expose their outputs both as named scalars (asserted against
//!    checked-in golden values with tolerances) and as a bit-exact
//!    [`GoldenRun::fingerprint`] (asserted identical across consecutive
//!    runs — the determinism gate every future perf refactor must pass).
//! 3. **Tiny geometries.** The fixtures simulate a few thousand cells, not
//!    the quarter-million of the full figures, so the whole pyramid runs in
//!    seconds.

use std::ops::Range;

use readdisturb::core::characterize::Scale;
use readdisturb::core::lifetime::{EnduranceConfig, EnduranceEvaluator};
use readdisturb::core::Rdr;
use readdisturb::flash::{Chip, ChipParams, Geometry};
use readdisturb::workloads::WorkloadProfile;

/// The one seed all golden runs are pinned to. Changing it invalidates every
/// checked-in golden value in `tests/golden_runs.rs`.
pub const GOLDEN_SEED: u64 = 2015;

/// Miniature Monte-Carlo scale (4 Ki cells/block): RBER resolution ~2e-4,
/// enough to see the paper's effects while keeping suites fast.
pub fn tiny_scale() -> Scale {
    Scale { wordlines: 8, bitlines: 512 }
}

/// Runs `body` once per seed of `seeds` and asserts that it passes at
/// `min_frac` of them or more: a physics claim checked over noise
/// realizations, where a test pinned to one seed checks that seed.
///
/// `rate` is the pass rate the body shows on a correct model, measured over
/// the same seeds. If each of the n seeds passes independently at `rate`,
/// a correct model fails this check with probability
///
/// ```text
/// P[Bin(n, rate) < k] = Σ_{i<k} C(n, i) · rate^i · (1 − rate)^(n − i),   k = ⌈min_frac · n⌉,
/// ```
///
/// and the helper refuses, before running any seed, a `min_frac` for which
/// that is not below 1e-6. For example, at n = 40 and rate 0.90 the
/// largest allowed k is 25 (62.5%), with P ≈ 5.9e-7.
///
/// # Panics
///
/// Panics if `min_frac` is too close to `rate` for that bound, or if fewer
/// than `k` seeds pass; the message lists the seeds that failed.
pub fn over_seeds(seeds: Range<u64>, rate: f64, min_frac: f64, body: impl Fn(u64) -> bool) {
    let n = seeds.end.saturating_sub(seeds.start);
    let k = (min_frac * n as f64).ceil() as u64;
    // The binomial tail, term by term: C(n, i+1)/C(n, i) = (n−i)/(i+1).
    let (mut term, mut tail) = ((1.0 - rate).powi(n as i32), 0.0);
    for i in 0..k {
        tail += term;
        term *= (n - i) as f64 / (i + 1) as f64 * rate / (1.0 - rate);
    }
    assert!(
        tail < 1e-6,
        "a correct model passing at {rate} fails {k} of {n} with probability {tail:.1e}"
    );
    let failed: Vec<u64> = seeds.filter(|&seed| !body(seed)).collect();
    assert!(
        n - failed.len() as u64 >= k,
        "passed {} of {n} seeds, needs {k}; failed: {failed:?}",
        n - failed.len() as u64
    );
}

/// A single-block chip at `pe_cycles` of wear, programmed with seeded random
/// data — the starting state of most characterization tests.
pub fn worn_chip(scale: Scale, pe_cycles: u64, seed: u64) -> Chip {
    let geometry = Geometry {
        blocks: 1,
        wordlines_per_block: scale.wordlines,
        bitlines: scale.bitlines,
        bits_per_cell: 2,
    };
    let mut chip = Chip::new(geometry, ChipParams::default(), seed);
    chip.cycle_block(0, pe_cycles).expect("block 0 exists");
    chip.program_block_random(0, seed ^ 0xF1E1D).expect("block 0 exists");
    chip
}

/// Output of one golden experiment: ordered `(key, value)` scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRun {
    /// Experiment name (used in failure messages).
    pub name: &'static str,
    /// Named outputs, in a fixed order.
    pub values: Vec<(String, f64)>,
}

impl GoldenRun {
    /// Looks up a named output; panics (with the available keys) if absent.
    pub fn get(&self, key: &str) -> f64 {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v).unwrap_or_else(|| {
            panic!(
                "golden run `{}` has no key `{key}`; available: {:?}",
                self.name,
                self.values.iter().map(|(k, _)| k).collect::<Vec<_>>()
            )
        })
    }

    /// Bit-exact digest of every output: two runs of the same seeded
    /// experiment must produce *identical* fingerprints, not merely close
    /// ones. Values are rendered as raw IEEE-754 bits so `-0.0 != 0.0` and
    /// no formatting rounding can mask a divergence.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.values {
            out.push_str(key);
            out.push('=');
            out.push_str(&format!("{:016x}\n", value.to_bits()));
        }
        out
    }

    /// Asserts `key` is within `rel_tol` (relative) of `golden`.
    ///
    /// # Panics
    ///
    /// Panics with the run name, key, both values, and the tolerance when
    /// the check fails — the message a future perf PR will read first.
    pub fn assert_close(&self, key: &str, golden: f64, rel_tol: f64) {
        let actual = self.get(key);
        let denom = golden.abs().max(f64::MIN_POSITIVE);
        let rel = (actual - golden).abs() / denom;
        assert!(
            rel <= rel_tol,
            "golden regression in `{}`: {key} = {actual:.6e}, golden {golden:.6e} \
             (relative error {rel:.3} > tolerance {rel_tol})",
            self.name
        );
    }
}

/// Reduced Fig. 3: RBER growth under read disturb at 8K P/E cycles of wear.
///
/// Records the block RBER at 0 / 100K / 500K / 1M reads plus the per-read
/// growth slope over the 1M-read span (the paper's slope table reports
/// ~7.5e-9 per read at this wear level, full scale).
pub fn rber_growth_run(seed: u64) -> GoldenRun {
    let mut chip = worn_chip(tiny_scale(), 8_000, seed);
    let checkpoints = [0u64, 100_000, 500_000, 1_000_000];
    let mut values = Vec::new();
    let mut applied = 0u64;
    let mut first = 0.0;
    let mut last = 0.0;
    for &reads in &checkpoints {
        chip.apply_read_disturbs(0, reads - applied).expect("block 0 exists");
        applied = reads;
        let rber = chip.block_rber(0).expect("block 0 exists").rate();
        if reads == 0 {
            first = rber;
        }
        last = rber;
        values.push((format!("rber_at_{reads}_reads"), rber));
    }
    values.push((
        "slope_per_read".to_string(),
        (last - first) / checkpoints[checkpoints.len() - 1] as f64,
    ));
    GoldenRun { name: "rber_growth", values }
}

/// Reduced Fig. 8: endurance with and without Vpass Tuning over three of the
/// paper's workload profiles (the analytic evaluator is deterministic, so
/// this run needs no RNG at all — the seed only keeps the signature uniform).
pub fn vpass_tuning_run(_seed: u64) -> GoldenRun {
    let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
    let suite = WorkloadProfile::suite();
    let picks = ["iozone", "msr-hm0", "umass-web"];
    let profiles: Vec<&WorkloadProfile> =
        picks.iter().filter_map(|name| suite.iter().find(|p| p.name == *name)).collect();
    assert_eq!(profiles.len(), picks.len(), "workload suite no longer contains all of {picks:?}");

    let mut values = Vec::new();
    let mut gain_sum = 0.0;
    for profile in &profiles {
        let results = evaluator.evaluate_suite(&[(*profile).clone()]);
        let result = &results[0];
        values.push((format!("{}_baseline_pe", profile.name), result.baseline as f64));
        values.push((format!("{}_tuned_pe", profile.name), result.tuned as f64));
        values.push((format!("{}_gain", profile.name), result.gain()));
        gain_sum += result.gain();
    }
    values.push(("average_gain".to_string(), gain_sum / profiles.len() as f64));
    GoldenRun { name: "vpass_tuning", values }
}

/// Reduced Fig. 10: Read Disturb Recovery on a worn block after 1M reads.
///
/// Records the RBER on the post-recovery device state without and with RDR's
/// probabilistic correction, and the fraction of raw bit errors removed
/// (the paper reports up to 36% at 1M reads, full scale).
pub fn rdr_recovery_run(seed: u64) -> GoldenRun {
    let mut chip = worn_chip(tiny_scale(), 8_000, seed);
    chip.apply_read_disturbs(0, 1_000_000).expect("block 0 exists");

    let rdr = Rdr::default();
    let outcome = rdr.recover_block(&mut chip, 0).expect("block 0 exists");
    let no_recovery = chip.block_rber(0).expect("block 0 exists").rate();
    let recovered = rdr.errors_vs_intended(&chip, 0, &outcome).expect("block 0 exists").rate();
    let reduction = if no_recovery > 0.0 { 1.0 - recovered / no_recovery } else { 0.0 };

    GoldenRun {
        name: "rdr_recovery",
        values: vec![
            ("rber_no_recovery".to_string(), no_recovery),
            ("rber_with_rdr".to_string(), recovered),
            ("error_reduction".to_string(), reduction),
            ("reclassified_cells".to_string(), outcome.reclassified as f64),
        ],
    }
}

/// All three golden runs at [`GOLDEN_SEED`], in a fixed order — the payload
/// the determinism test fingerprints.
pub fn all_golden_runs() -> Vec<GoldenRun> {
    vec![rber_growth_run(GOLDEN_SEED), vpass_tuning_run(GOLDEN_SEED), rdr_recovery_run(GOLDEN_SEED)]
}
