//! Endurance evaluation (paper Fig. 8): how many P/E cycles a device
//! survives under a workload, with and without Vpass Tuning.
//!
//! Flash lifetime is dictated by the error count: once the total number of
//! raw bit errors at the end of a refresh interval exceeds the ECC
//! correction capability, the device has reached end of life (paper §3,
//! Fig. 7). The evaluator finds, for each workload, the largest wear level
//! whose worst-case (hottest-block, end-of-interval) RBER still fits.
//!
//! The analytic RBER model is used here — the Monte-Carlo chip is pinned to
//! it by the calibration suite — because the search evaluates it at a
//! hundred-odd operating points per workload.
//!
//! A search costs one evaluation of the profile's hottest-block read count
//! (a Zipf top share, an O(footprint) `powf` sum) and then, for each of the
//! twenty-odd P/E values it probes, a few closed-form RBER terms — plus,
//! under Vpass Tuning, the tuner's walk down its Vpass steps.
//! [`evaluate_suite`] shares that read count between its two searches per
//! workload.
//!
//! [`evaluate_suite`]: EnduranceEvaluator::evaluate_suite

use rd_ecc::MarginPolicy;
use rd_flash::{AnalyticModel, ChipParams, NOMINAL_VPASS};
use rd_workloads::WorkloadProfile;

/// Mitigation applied during the endurance evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// Fixed nominal Vpass (the paper's baseline).
    Baseline,
    /// The paper's Vpass Tuning (per-block, margin-bounded reduction).
    VpassTuning,
    /// Prior-art read reclaim: remap after a fixed read count.
    ReadReclaim {
        /// Reads after which a block is remapped.
        threshold: u64,
    },
    /// Vpass Tuning combined with read reclaim — the integrated approach of
    /// Ha et al. \[30\], which the paper cites as evidence its technique is
    /// orthogonal to prior mitigations (§5).
    Combined {
        /// Read-reclaim threshold.
        threshold: u64,
    },
}

/// Endurance evaluation configuration.
#[derive(Debug, Clone)]
pub struct EnduranceConfig {
    /// Flash model parameters (the analytic model derives from these).
    pub chip_params: ChipParams,
    /// Wordlines per block (pass-through error scaling).
    pub wordlines_per_block: u32,
    /// Refresh interval in days (paper: 7).
    pub refresh_interval_days: f64,
    /// ECC margin policy.
    pub margin: MarginPolicy,
    /// Tuner granularity as a fraction of nominal Vpass (paper explores 1%
    /// steps in Fig. 6).
    pub vpass_step_frac: f64,
}

impl Default for EnduranceConfig {
    fn default() -> Self {
        Self {
            chip_params: ChipParams::default(),
            wordlines_per_block: 64,
            refresh_interval_days: 7.0,
            margin: MarginPolicy::paper_default(),
            vpass_step_frac: 0.01,
        }
    }
}

/// Result row for one workload (one group of bars in Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceResult {
    /// Workload name.
    pub workload: String,
    /// P/E cycle endurance with the fixed nominal Vpass.
    pub baseline: u64,
    /// P/E cycle endurance with Vpass Tuning.
    pub tuned: u64,
}

impl EnduranceResult {
    /// Relative endurance improvement (0.21 = +21%).
    pub fn gain(&self) -> f64 {
        if self.baseline == 0 {
            0.0
        } else {
            self.tuned as f64 / self.baseline as f64 - 1.0
        }
    }
}

/// The endurance evaluator.
#[derive(Debug, Clone)]
pub struct EnduranceEvaluator {
    config: EnduranceConfig,
    model: AnalyticModel,
}

impl EnduranceEvaluator {
    /// Creates the evaluator (derives the analytic model from the chip
    /// parameters).
    pub fn new(config: EnduranceConfig) -> Self {
        let model = AnalyticModel::from_chip(&config.chip_params, config.wordlines_per_block);
        Self { config, model }
    }

    /// The underlying analytic model.
    pub fn model(&self) -> &AnalyticModel {
        &self.model
    }

    /// The Vpass the tuner settles at for a block at `pe_cycles`, right
    /// after a refresh: the lowest step-multiple whose day-0 pass-through
    /// errors fit inside the margin `M = usable − MEE`.
    pub fn tuned_vpass(&self, pe_cycles: u64) -> f64 {
        let mee_rber = self.model.rber_pe(pe_cycles);
        let margin = self.config.margin.margin_rber(mee_rber);
        if margin <= 0.0 {
            return NOMINAL_VPASS;
        }
        let step = self.config.vpass_step_frac * NOMINAL_VPASS;
        let min_vpass = self.config.chip_params.min_vpass;
        let mut vpass = NOMINAL_VPASS;
        while vpass - step >= min_vpass {
            let candidate = vpass - step;
            if self.model.rber_passthrough(pe_cycles, 0.0, candidate) <= margin {
                vpass = candidate;
            } else {
                break;
            }
        }
        vpass
    }

    /// Reads landing on the workload's hottest block during one refresh
    /// interval, rounded to whole reads. Sums the profile's Zipf share:
    /// evaluate it once per search, not per probed wear level.
    fn hottest_block_reads(&self, profile: &WorkloadProfile) -> u64 {
        profile.hottest_block_reads_per_interval(self.config.refresh_interval_days).round() as u64
    }

    /// Worst-case RBER at the end of a refresh interval for a hottest block
    /// that takes `reads` reads per interval.
    fn interval_end_rber(&self, reads: u64, mitigation: Mitigation, pe_cycles: u64) -> f64 {
        let days = self.config.refresh_interval_days;
        match mitigation {
            Mitigation::Baseline => self.model.rber(pe_cycles, days, reads, NOMINAL_VPASS),
            Mitigation::ReadReclaim { threshold } => {
                // Reclaim restarts the disturb accumulation: between refresh
                // and reclaim events a block sees at most `threshold` reads.
                self.model.rber(pe_cycles, days, reads.min(threshold), NOMINAL_VPASS)
            }
            Mitigation::VpassTuning => {
                let vpass = self.tuned_vpass(pe_cycles);
                self.model.rber(pe_cycles, days, reads, vpass)
            }
            Mitigation::Combined { threshold } => {
                let vpass = self.tuned_vpass(pe_cycles);
                self.model.rber(pe_cycles, days, reads.min(threshold), vpass)
            }
        }
    }

    /// P/E cycle endurance: the largest wear level whose worst-case
    /// interval-end RBER stays within the ECC capability.
    pub fn endurance(&self, profile: &WorkloadProfile, mitigation: Mitigation) -> u64 {
        self.endurance_at(self.hottest_block_reads(profile), mitigation)
    }

    /// [`Self::endurance`] of a hottest block that takes `reads` reads per
    /// refresh interval.
    fn endurance_at(&self, reads: u64, mitigation: Mitigation) -> u64 {
        let capability = self.config.margin.capability_rber;
        let fits = |pe: u64| self.interval_end_rber(reads, mitigation, pe) <= capability;
        if !fits(100) {
            return 0;
        }
        let (mut lo, mut hi) = (100u64, 100u64);
        while fits(hi) && hi < 1_000_000 {
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Evaluates the full workload suite: baseline vs Vpass Tuning
    /// (the data behind Fig. 8).
    pub fn evaluate_suite(&self, profiles: &[WorkloadProfile]) -> Vec<EnduranceResult> {
        profiles
            .iter()
            .map(|p| {
                let reads = self.hottest_block_reads(p);
                EnduranceResult {
                    workload: p.name.to_string(),
                    baseline: self.endurance_at(reads, Mitigation::Baseline),
                    tuned: self.endurance_at(reads, Mitigation::VpassTuning),
                }
            })
            .collect()
    }
}

/// Average relative gain across suite results (the paper's headline 21%).
pub fn average_gain(results: &[EnduranceResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.gain()).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator() -> EnduranceEvaluator {
        EnduranceEvaluator::new(EnduranceConfig::default())
    }

    /// Physics: the closed-form evaluator against the paper's ~4% reduction.
    #[test]
    fn tuned_vpass_monotone_in_wear_and_bounded() {
        let e = evaluator();
        let v2 = e.tuned_vpass(2_000);
        let v8 = e.tuned_vpass(8_000);
        let v14 = e.tuned_vpass(14_000);
        assert!(v2 <= v8 + 1e-9 && v8 <= v14 + 1e-9, "{v2} {v8} {v14}");
        for v in [v2, v8, v14] {
            assert!(v >= e.config.chip_params.min_vpass && v <= NOMINAL_VPASS);
        }
        // Fresh blocks should achieve the paper's ~4% reduction.
        let reduction = 1.0 - v2 / NOMINAL_VPASS;
        assert!((0.02..=0.06).contains(&reduction), "fresh reduction {reduction}");
    }

    /// Physics: the closed-form evaluator, no noise drawn.
    #[test]
    fn tuning_never_hurts_endurance() {
        let e = evaluator();
        for p in WorkloadProfile::suite() {
            let base = e.endurance(&p, Mitigation::Baseline);
            let tuned = e.endurance(&p, Mitigation::VpassTuning);
            assert!(tuned >= base, "{}: {tuned} < {base}", p.name);
        }
    }

    /// Physics: the closed-form evaluator against Fig. 8's ordering.
    #[test]
    fn read_hot_workloads_gain_most() {
        let e = evaluator();
        let web = WorkloadProfile::by_name("umass-web").unwrap();
        let wh = WorkloadProfile::by_name("write-heavy").unwrap();
        let web_gain = {
            let b = e.endurance(&web, Mitigation::Baseline);
            e.endurance(&web, Mitigation::VpassTuning) as f64 / b as f64 - 1.0
        };
        let wh_gain = {
            let b = e.endurance(&wh, Mitigation::Baseline);
            e.endurance(&wh, Mitigation::VpassTuning) as f64 / b as f64 - 1.0
        };
        assert!(web_gain > wh_gain, "web {web_gain} vs write-heavy {wh_gain}");
    }

    /// Physics: the closed-form evaluator against Fig. 8's range.
    #[test]
    fn endurance_in_papers_range() {
        // Fig. 8's bars run roughly 4K-12K P/E cycles.
        let e = evaluator();
        for p in WorkloadProfile::suite() {
            let base = e.endurance(&p, Mitigation::Baseline);
            assert!(
                (1_500..=16_000).contains(&base),
                "{}: baseline endurance {base} outside plausible range",
                p.name
            );
        }
    }

    /// Physics: the closed-form evaluator, no noise drawn.
    #[test]
    fn read_reclaim_between_baseline_and_tuning() {
        let e = evaluator();
        let p = WorkloadProfile::by_name("umass-web").unwrap();
        let base = e.endurance(&p, Mitigation::Baseline);
        let reclaim = e.endurance(&p, Mitigation::ReadReclaim { threshold: 50_000 });
        assert!(reclaim >= base, "reclaim {reclaim} < baseline {base}");
    }

    /// Physics: the closed-form evaluator, no noise drawn.
    #[test]
    fn combined_mitigation_dominates_both_components() {
        // Ha et al. [30]: combining read reclaim with Vpass Tuning gives
        // strictly more protection than either alone on read-hot data.
        let e = evaluator();
        let p = WorkloadProfile::by_name("umass-web").unwrap();
        let reclaim = e.endurance(&p, Mitigation::ReadReclaim { threshold: 50_000 });
        let tuned = e.endurance(&p, Mitigation::VpassTuning);
        let combined = e.endurance(&p, Mitigation::Combined { threshold: 50_000 });
        assert!(combined >= reclaim && combined >= tuned, "{combined} vs {reclaim}/{tuned}");
        assert!(
            combined > tuned,
            "combining should add protection on a read-hot workload: {combined} vs {tuned}"
        );
    }

    /// Physics: arithmetic, no noise drawn.
    #[test]
    fn average_gain_math() {
        let results = vec![
            EnduranceResult { workload: "a".into(), baseline: 100, tuned: 120 },
            EnduranceResult { workload: "b".into(), baseline: 100, tuned: 140 },
        ];
        assert!((average_gain(&results) - 0.3).abs() < 1e-12);
        assert!((results[0].gain() - 0.2).abs() < 1e-12);
    }
}
