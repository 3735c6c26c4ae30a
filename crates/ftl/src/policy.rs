//! Controller policy hooks: how read-disturb countermeasures plug into the
//! controller.
//!
//! A [`ControllerPolicy`] sees two events: every host read the pipeline
//! decoded ([`ControllerPolicy::on_read`], with the chip and the physical
//! block read), which may ask for one background [`PolicyAction`]; and the
//! daily maintenance tick ([`ControllerPolicy::on_tick`]), whose
//! [`PolicyContext`] lets it probe and tune the chip. The flash work of both
//! — relocation reads and programs, probe reads — is counted in
//! [`crate::SsdStats`] and charged to the engine's discrete-event clock.
//!
//! The FTL ships three policies: [`NoMitigation`] (the paper's baseline),
//! [`ReadReclaim`] (the prior-art mitigation, §5) and the paper's Vpass
//! Tuning, [`crate::VpassTuner`].

use rd_flash::Chip;

/// Mutable controller state handed to the daily tick.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The flash chip (policies may probe pages, adjust per-block Vpass, …).
    pub chip: &'a mut Chip,
    /// Blocks currently holding valid data.
    pub valid_blocks: &'a [u32],
    /// Probe reads the policy performed against the chip during this tick
    /// (reported via [`PolicyContext::charge_probe_reads`]); the controller
    /// folds them into [`crate::SsdStats::policy_probe_reads`] so the
    /// engine clock can cost them at tR each.
    probe_reads: u64,
}

impl<'a> PolicyContext<'a> {
    /// Builds a context for one tick.
    pub(crate) fn new(chip: &'a mut Chip, valid_blocks: &'a [u32]) -> Self {
        Self { chip, valid_blocks, probe_reads: 0 }
    }

    /// Reports `n` probe reads the policy issued against the chip (tuning
    /// sweeps, margin probes). They become controller time: tR each on the
    /// engine's discrete-event clock.
    pub fn charge_probe_reads(&mut self, n: u64) {
        self.probe_reads += n;
    }

    /// Probe reads charged so far in this tick.
    pub(crate) fn probe_reads(&self) -> u64 {
        self.probe_reads
    }
}

/// Background job requested by a policy, executed by the controller after
/// the hook returns; its flash work is costed in engine time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Relocate all valid data out of a block and erase it (a reclaim
    /// migration: one read + one program per valid page, plus the erase).
    ReclaimBlock(u32),
}

/// An event-driven controller policy (read-disturb mitigation or any other
/// background maintenance scheme) embedded in the controller. Both hooks
/// default to "observe nothing, request nothing".
pub trait ControllerPolicy {
    /// Called after every host read the pipeline decoded — clean, corrected
    /// or recovered; never for a read of an unwritten page or one the
    /// recovery ladder lost — with the physical block read. The action it
    /// returns runs before the read returns.
    fn on_read(&mut self, chip: &Chip, block: u32) -> Option<PolicyAction> {
        let _ = (chip, block);
        None
    }

    /// Called once per simulated day, after the refresh scan.
    fn on_tick(&mut self, ctx: &mut PolicyContext<'_>) {
        let _ = ctx;
    }
}

/// The paper's baseline: fixed nominal Vpass, no countermeasures beyond the
/// periodic refresh the controller already performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl ControllerPolicy for NoMitigation {}

/// Read reclaim: remap a block once it has served a fixed number of reads
/// (prior art the paper compares against, §5: Yaffs-style, \[21, 29, 30, 40\]).
#[derive(Debug, Clone, Copy)]
pub struct ReadReclaim {
    /// Reads after which a block is reclaimed (e.g. 50 000 for MLC, the
    /// Yaffs figure quoted in §5).
    pub read_threshold: u64,
}

impl ControllerPolicy for ReadReclaim {
    fn on_read(&mut self, chip: &Chip, block: u32) -> Option<PolicyAction> {
        let reads = chip.block_status(block).map(|s| s.reads_since_erase).unwrap_or(0);
        (reads >= self.read_threshold).then_some(PolicyAction::ReclaimBlock(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Die, SsdConfig, VpassTuner};
    use rd_flash::{ChipParams, Geometry, NOMINAL_VPASS};

    impl ReadReclaim {
        /// Creates the policy with the Yaffs MLC default of 50 000 reads.
        fn yaffs_default() -> Self {
            Self { read_threshold: 50_000 }
        }
    }

    /// A worn 8-block die under Vpass Tuning, 32 pages written.
    fn tuning_die() -> Die<VpassTuner> {
        let config = SsdConfig {
            chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry {
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
            chip_params: ChipParams::default(),
        };
        let mut die = Die::with_policy(config, VpassTuner::default()).unwrap();
        // Pre-wear so the disturb slope is visible, then write data.
        for b in 0..8 {
            die.chip_mut().cycle_block(b, 4_000).unwrap();
        }
        for lpa in 0..32 {
            die.write(lpa).unwrap();
        }
        die
    }

    #[test]
    fn policy_tunes_valid_blocks_daily() {
        let mut die = tuning_die();
        die.advance_time(1.0).unwrap();
        // At least one block with valid data should now be tuned below nominal.
        let tuned =
            die.valid_blocks().iter().any(|&b| die.chip().block_vpass(b).unwrap() < NOMINAL_VPASS);
        assert!(tuned, "no block was tuned below nominal");
        assert!(die.policy().stats().tunings + die.policy().stats().checks > 0);
    }

    #[test]
    fn probe_reads_are_charged_to_the_controller() {
        let mut die = tuning_die();
        die.advance_time(1.0).unwrap();
        let charged = die.stats().policy_probe_reads;
        let spent = die.policy().stats().probe_reads;
        assert!(charged > 0, "tuning probes must be charged as controller time");
        assert_eq!(charged, spent, "every tuner probe read must be charged exactly once");
    }

    #[test]
    fn reads_remain_correct_under_tuning() {
        let mut die = tuning_die();
        die.advance_time(2.0).unwrap();
        // All data must still decode within ECC capability after tuning.
        for lpa in 0..32 {
            let r = die.read(lpa).expect("read must stay correctable under tuning");
            assert!(r.corrected_errors <= die.config().page_capability());
        }
    }

    #[test]
    fn no_mitigation_is_inert() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        chip.program_block_random(0, 1).unwrap();
        chip.apply_read_disturbs(0, 1_000_000).unwrap();
        let mut p = NoMitigation;
        assert_eq!(p.on_read(&chip, 0), None);
        let valid = vec![0u32];
        let mut ctx = PolicyContext::new(&mut chip, &valid);
        p.on_tick(&mut ctx);
        assert_eq!(ctx.probe_reads(), 0);
    }

    #[test]
    fn read_reclaim_triggers_at_threshold() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        chip.program_block_random(0, 1).unwrap();
        chip.read_page_counts(0, 0).unwrap();
        let mut p = ReadReclaim { read_threshold: 100 };
        assert_eq!(p.on_read(&chip, 0), None);
        chip.apply_read_disturbs(0, 200).unwrap();
        assert_eq!(p.on_read(&chip, 0), Some(PolicyAction::ReclaimBlock(0)));
    }

    #[test]
    fn probe_read_charges_accumulate() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        let valid = vec![0u32];
        let mut ctx = PolicyContext::new(&mut chip, &valid);
        ctx.charge_probe_reads(3);
        ctx.charge_probe_reads(4);
        assert_eq!(ctx.probe_reads(), 7);
    }

    #[test]
    fn yaffs_default_threshold() {
        assert_eq!(ReadReclaim::yaffs_default().read_threshold, 50_000);
    }
}
