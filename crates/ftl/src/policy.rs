//! Controller policy hook: how read-disturb countermeasures plug into the
//! controller, event-driven.
//!
//! A [`ControllerPolicy`] observes the controller's events — every host
//! read ([`ControllerPolicy::on_read`]), every host program
//! ([`ControllerPolicy::on_program`]), and the maintenance tick
//! ([`ControllerPolicy::on_tick`], simulated nanoseconds) — and answers
//! each with a *batch* of [`PolicyAction`]s. The controller turns those
//! actions into background jobs whose flash work (relocation reads and
//! programs, probe reads) is counted in [`crate::SsdStats`] and charged to
//! the engine's discrete-event clock.
//!
//! The FTL ships two built-in policies — [`NoMitigation`] (the paper's
//! baseline) and [`ReadReclaim`] (the prior-art mitigation, §5) — and
//! `rd-core` implements the paper's Vpass Tuning against the same trait.

use rd_flash::chip::ReadOutcome;
use rd_flash::Chip;

/// Mutable controller state handed to policies.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The flash chip (policies may probe pages, adjust per-block Vpass, …).
    pub chip: &'a mut Chip,
    /// Blocks currently holding valid data.
    pub valid_blocks: &'a [u32],
    /// The controller's refresh interval in days.
    pub refresh_interval_days: f64,
    /// ECC capability per page in bit errors.
    pub page_capability: u64,
    /// Probe reads the policy performed against the chip during this hook
    /// (reported via [`PolicyContext::charge_probe_reads`]); the controller
    /// folds them into [`crate::SsdStats::policy_probe_reads`] so the
    /// engine clock can cost them at tR each.
    probe_reads: u64,
}

impl<'a> PolicyContext<'a> {
    /// Builds a context for one policy hook invocation.
    pub fn new(
        chip: &'a mut Chip,
        valid_blocks: &'a [u32],
        refresh_interval_days: f64,
        page_capability: u64,
    ) -> Self {
        Self { chip, valid_blocks, refresh_interval_days, page_capability, probe_reads: 0 }
    }

    /// Reports `n` probe reads the policy issued against the chip (tuning
    /// sweeps, margin probes). They become controller time: tR each on the
    /// engine's discrete-event clock.
    pub fn charge_probe_reads(&mut self, n: u64) {
        self.probe_reads += n;
    }

    /// Probe reads charged so far in this hook invocation.
    pub fn probe_reads(&self) -> u64 {
        self.probe_reads
    }
}

/// Background job requested by a policy. Jobs are executed by the
/// controller after the hook returns, in batch order, and their flash work
/// is costed in engine time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Relocate all valid data out of a block and erase it (a reclaim
    /// migration: one read + one program per valid page, plus the erase).
    ReclaimBlock(u32),
}

/// An event-driven controller policy (read-disturb mitigation or any other
/// background maintenance scheme) embedded in the controller.
///
/// All hooks default to "observe nothing, request nothing", so a policy
/// only implements the events it cares about. Hooks return action
/// *batches*; an empty batch means no background work.
pub trait ControllerPolicy {
    /// Policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Whether this policy observes per-request events
    /// ([`ControllerPolicy::on_read`] / [`ControllerPolicy::on_program`]).
    /// Tick-only policies return `false` so the controller can skip
    /// per-request context construction on the hot path — and serve host
    /// reads count-only, without materializing the [`ReadOutcome::data`]
    /// only `on_read` would look at; the tick hook always fires regardless.
    fn observes_requests(&self) -> bool {
        true
    }

    /// Called after every host read that reached the flash array, with the
    /// physical block read and the raw read outcome.
    fn on_read(
        &mut self,
        ctx: &mut PolicyContext<'_>,
        block: u32,
        outcome: &ReadOutcome,
    ) -> Vec<PolicyAction> {
        let _ = (ctx, block, outcome);
        Vec::new()
    }

    /// Called after every host program, with the physical block written.
    fn on_program(&mut self, ctx: &mut PolicyContext<'_>, block: u32) -> Vec<PolicyAction> {
        let _ = (ctx, block);
        Vec::new()
    }

    /// Called on each maintenance tick with the simulated time elapsed
    /// since the previous tick, in nanoseconds. The controller ticks at
    /// each day boundary (`86 400 × 10⁹ ns` per tick under
    /// [`crate::Die::advance_time`]).
    fn on_tick(&mut self, ctx: &mut PolicyContext<'_>, elapsed_ns: u64) -> Vec<PolicyAction> {
        let _ = (ctx, elapsed_ns);
        Vec::new()
    }
}

/// Nanoseconds in one simulated day (the controller's tick period).
pub const DAY_NS: u64 = 86_400_000_000_000;

/// The paper's baseline: fixed nominal Vpass, no countermeasures beyond the
/// periodic refresh the controller already performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl ControllerPolicy for NoMitigation {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn observes_requests(&self) -> bool {
        false
    }
}

/// Read reclaim: remap a block once it has served a fixed number of reads
/// (prior art the paper compares against, §5: Yaffs-style, \[21, 29, 30, 40\]).
#[derive(Debug, Clone, Copy)]
pub struct ReadReclaim {
    /// Reads after which a block is reclaimed (e.g. 50 000 for MLC, the
    /// Yaffs figure quoted in §5).
    pub read_threshold: u64,
}

impl ReadReclaim {
    /// Creates the policy with the Yaffs MLC default of 50 000 reads.
    pub fn yaffs_default() -> Self {
        Self { read_threshold: 50_000 }
    }
}

impl ControllerPolicy for ReadReclaim {
    fn name(&self) -> &'static str {
        "read-reclaim"
    }

    fn on_read(
        &mut self,
        ctx: &mut PolicyContext<'_>,
        block: u32,
        _outcome: &ReadOutcome,
    ) -> Vec<PolicyAction> {
        let reads = ctx.chip.block_status(block).map(|s| s.reads_since_erase).unwrap_or(0);
        if reads >= self.read_threshold {
            vec![PolicyAction::ReclaimBlock(block)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    #[test]
    fn no_mitigation_is_inert() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        let valid = vec![0u32];
        let mut ctx = PolicyContext::new(&mut chip, &valid, 7.0, 4);
        let mut p = NoMitigation;
        assert!(p.on_tick(&mut ctx, DAY_NS).is_empty());
        assert!(p.on_program(&mut ctx, 0).is_empty());
        assert_eq!(ctx.probe_reads(), 0);
        assert_eq!(p.name(), "baseline");
    }

    #[test]
    fn read_reclaim_triggers_at_threshold() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        chip.program_block_random(0, 1).unwrap();
        let outcome = chip.read_page(0, 0).unwrap();
        let valid = vec![0u32];
        let mut p = ReadReclaim { read_threshold: 100 };
        {
            let mut ctx = PolicyContext::new(&mut chip, &valid, 7.0, 4);
            assert!(p.on_read(&mut ctx, 0, &outcome).is_empty());
        }
        chip.apply_read_disturbs(0, 200).unwrap();
        {
            let mut ctx = PolicyContext::new(&mut chip, &valid, 7.0, 4);
            assert_eq!(p.on_read(&mut ctx, 0, &outcome), vec![PolicyAction::ReclaimBlock(0)]);
        }
    }

    #[test]
    fn probe_read_charges_accumulate() {
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), 0);
        let valid = vec![0u32];
        let mut ctx = PolicyContext::new(&mut chip, &valid, 7.0, 4);
        ctx.charge_probe_reads(3);
        ctx.charge_probe_reads(4);
        assert_eq!(ctx.probe_reads(), 7);
    }

    #[test]
    fn yaffs_default_threshold() {
        assert_eq!(ReadReclaim::yaffs_default().read_threshold, 50_000);
    }
}
