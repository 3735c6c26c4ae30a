//! Controller integration: Vpass Tuning as an [`rd_ftl::ControllerPolicy`].
//!
//! Plugs the paper's mechanism into the same SSD substrate as the baseline
//! and read-reclaim policies, so endurance comparisons run the identical
//! controller with only the mitigation swapped (paper §3's evaluation
//! methodology). It implements only the daily
//! [`rd_ftl::ControllerPolicy::on_tick`]: the mechanism needs one margin
//! probe per block a day and nothing from the host reads in between, which
//! keep the trait's empty `on_read`. The tuner's probe reads are charged
//! to the controller through [`rd_ftl::PolicyContext::charge_probe_reads`],
//! so the engine's discrete-event clock pays tR for every margin probe and
//! zero-counting read — the paper's §3 overhead accounting, now measured
//! in engine time rather than modelled offline.

use rd_ftl::{ControllerPolicy, PolicyContext};

use crate::vpass_tuning::{VpassTuner, VpassTunerConfig};

/// Vpass Tuning as a pluggable controller policy: on each daily tick,
/// every block holding valid data is tuned — freshly-refreshed blocks get
/// the full identification (Action 2), others the raise-check (Action 1).
#[derive(Debug, Clone)]
pub struct VpassTuningPolicy {
    tuner: VpassTuner,
}

impl VpassTuningPolicy {
    /// Creates the policy with the paper-default tuner configuration.
    pub fn new(config: VpassTunerConfig) -> Self {
        Self { tuner: VpassTuner::new(config) }
    }

    /// Access to the embedded tuner (statistics, worst-page table).
    pub fn tuner(&self) -> &VpassTuner {
        &self.tuner
    }
}

impl Default for VpassTuningPolicy {
    fn default() -> Self {
        Self::new(VpassTunerConfig::default())
    }
}

impl ControllerPolicy for VpassTuningPolicy {
    fn on_tick(&mut self, ctx: &mut PolicyContext<'_>) {
        let probe_reads_before = self.tuner.stats().probe_reads;
        for &block in ctx.valid_blocks {
            if !self.tuner.is_initialized(block) {
                // Lazy worst-page discovery for blocks first seen with data.
                if self.tuner.manufacture_init(ctx.chip, block).is_err() {
                    continue;
                }
            }
            let age = ctx.chip.block_status(block).map(|s| s.age_days).unwrap_or(f64::MAX);
            // Freshly refreshed/written (age ≤ one daily tick): full
            // identification; else the cheap daily raise-check.
            let result = if age < 1.5 {
                self.tuner.tune_block(ctx.chip, block)
            } else {
                self.tuner.daily_check(ctx.chip, block)
            };
            // Individual block failures must not stop the daily sweep.
            let _ = result;
        }
        // Every probe read the sweep issued becomes controller time (tR
        // each on the engine clock).
        ctx.charge_probe_reads(self.tuner.stats().probe_reads - probe_reads_before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::NOMINAL_VPASS;
    use rd_ftl::{Ssd, SsdConfig};

    fn tuning_ssd_config() -> SsdConfig {
        SsdConfig {
            chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
            geometry: rd_flash::Geometry {
                blocks: 8,
                wordlines_per_block: 8,
                bitlines: 16 * 1024,
                bits_per_cell: 2,
            },
            overprovision: 0.25,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: 1.0e-3,
            seed: 13,
            chip_params: rd_flash::ChipParams::default(),
        }
    }

    #[test]
    fn policy_tunes_valid_blocks_daily() {
        let mut ssd = Ssd::with_policy(tuning_ssd_config(), VpassTuningPolicy::default()).unwrap();
        // Pre-wear so the disturb slope is visible, then write data.
        for b in 0..8 {
            ssd.chip_mut().cycle_block(b, 4_000).unwrap();
        }
        for lpa in 0..32 {
            ssd.write(lpa).unwrap();
        }
        ssd.advance_time(1.0).unwrap();
        // At least one block with valid data should now be tuned below nominal.
        let tuned =
            ssd.valid_blocks().iter().any(|&b| ssd.chip().block_vpass(b).unwrap() < NOMINAL_VPASS);
        assert!(tuned, "no block was tuned below nominal");
        assert!(ssd.policy().tuner().stats().tunings + ssd.policy().tuner().stats().checks > 0);
    }

    #[test]
    fn probe_reads_are_charged_to_the_controller() {
        let mut ssd = Ssd::with_policy(tuning_ssd_config(), VpassTuningPolicy::default()).unwrap();
        for b in 0..8 {
            ssd.chip_mut().cycle_block(b, 4_000).unwrap();
        }
        for lpa in 0..32 {
            ssd.write(lpa).unwrap();
        }
        ssd.advance_time(1.0).unwrap();
        let charged = ssd.stats().policy_probe_reads;
        let spent = ssd.policy().tuner().stats().probe_reads;
        assert!(charged > 0, "tuning probes must be charged as controller time");
        assert_eq!(charged, spent, "every tuner probe read must be charged exactly once");
    }

    #[test]
    fn reads_remain_correct_under_tuning() {
        let mut ssd = Ssd::with_policy(tuning_ssd_config(), VpassTuningPolicy::default()).unwrap();
        for b in 0..8 {
            ssd.chip_mut().cycle_block(b, 4_000).unwrap();
        }
        for lpa in 0..32 {
            ssd.write(lpa).unwrap();
        }
        ssd.advance_time(2.0).unwrap();
        // All data must still decode within ECC capability after tuning.
        for lpa in 0..32 {
            let r = ssd.read(lpa).expect("read must stay correctable under tuning");
            assert!(r.corrected_errors <= ssd.config().page_capability());
        }
    }
}
