//! ROR and RFR as rungs of the controller's recovery ladder.
//!
//! `rd-ftl`'s read pipeline escalates uncorrectable host reads through a
//! pluggable [`RecoveryLadder`]; this module adapts the paper-era recovery
//! machinery — read-reference optimization ([`crate::Ror`], §5/HPCA 2015)
//! and Retention Failure Recovery ([`crate::Rfr`], §5) — to that
//! [`RecoveryStep`] trait, so the offline experiment routines become live
//! last-resort rungs of a running controller.
//!
//! Both mechanisms need the per-cell oracles of the cell-exact chip
//! (read-retry Vth sweeps); on the closed-form tiers they skip cleanly
//! (`errors: None`, no read spent) before touching the chip or the heap,
//! letting the built-in uniform-retry rungs carry the escalation there.

use rd_flash::{bits, Chip, FlashError, PageAddr, PageKind, ReadFidelity};
use rd_ftl::{RecoveryLadder, RecoveryStep, RetrySweep, StepAttempt};

use crate::rfr::{Rfr, RfrConfig};
use crate::ror::{Ror, RorConfig};

/// Read-reference optimization as a ladder rung: learn near-optimal
/// per-boundary references from a read-retry sweep of the failing
/// wordline, then re-read at the learned references.
#[derive(Debug, Clone, Default)]
pub struct RorRecoveryStep {
    ror: Ror,
}

impl RorRecoveryStep {
    /// Creates the rung with an explicit optimizer configuration.
    pub fn new(config: RorConfig) -> Self {
        Self { ror: Ror::new(config) }
    }
}

impl RecoveryStep for RorRecoveryStep {
    fn name(&self) -> &'static str {
        "ror"
    }

    fn attempt(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<StepAttempt, FlashError> {
        if chip.fidelity() != ReadFidelity::CellExact {
            return Ok(StepAttempt { reads_spent: 0, errors: None });
        }
        let wordline = PageAddr { block, page }.wordline();
        let reads_before = chip.block_status(block)?.reads_since_erase;
        let result = self.ror.optimize_wordline(chip, block, wordline);
        // Charge whatever the sweep actually read, even on a partial
        // failure — those reads disturbed the block and cost tR each.
        let sweep_reads = chip.block_status(block)?.reads_since_erase - reads_before;
        let learned = match result {
            Ok(outcome) => outcome,
            // A sweep the chip cannot measure (or a non-flash optimizer
            // failure below) skips the rung cleanly.
            Err(crate::CoreError::Flash(FlashError::FidelityUnsupported { .. })) => {
                return Ok(StepAttempt { reads_spent: sweep_reads, errors: None });
            }
            Err(crate::CoreError::Flash(e)) => return Err(e),
            Err(_) => return Ok(StepAttempt { reads_spent: sweep_reads, errors: None }),
        };
        let outcome = chip.read_page_with_refs(block, page, &learned.refs)?;
        let reads_spent = sweep_reads + 1;
        if outcome.stats.errors <= capability {
            Ok(StepAttempt { reads_spent, errors: Some(outcome.stats.errors) })
        } else {
            Ok(StepAttempt { reads_spent, errors: None })
        }
    }
}

/// Retention Failure Recovery as the last-resort rung: take the block
/// offline, induce the extra retention period, classify fast/slow-leaking
/// cells, and rebuild the failing page from the reassigned states.
///
/// This is the expensive end of the ladder (two Vth sweeps per wordline of
/// the block plus the induced offline time), exactly as the paper frames
/// RFR: an offline mechanism for data that is otherwise lost.
#[derive(Debug, Clone, Default)]
pub struct RfrRecoveryStep {
    rfr: Rfr,
}

impl RfrRecoveryStep {
    /// Creates the rung with an explicit RFR configuration.
    pub fn new(config: RfrConfig) -> Self {
        Self { rfr: Rfr::new(config) }
    }
}

impl RecoveryStep for RfrRecoveryStep {
    fn name(&self) -> &'static str {
        "rfr"
    }

    fn attempt(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<StepAttempt, FlashError> {
        if chip.fidelity() != ReadFidelity::CellExact {
            return Ok(StepAttempt { reads_spent: 0, errors: None });
        }
        let reads_before = chip.block_status(block)?.reads_since_erase;
        let outcome = match self.rfr.recover_block(chip, block) {
            Ok(outcome) => outcome,
            Err(crate::CoreError::Flash(FlashError::FidelityUnsupported { .. })) => {
                return Ok(StepAttempt { reads_spent: 0, errors: None });
            }
            Err(crate::CoreError::Flash(e)) => return Err(e),
            Err(_) => return Ok(StepAttempt { reads_spent: 0, errors: None }),
        };
        let reads_spent = chip.block_status(block)?.reads_since_erase - reads_before;

        // Rebuild the failing page from the recovered cell states and count
        // its residual errors the same way the simulator scores any read.
        let addr = PageAddr { block, page };
        let wl = addr.wordline() as usize;
        let kind = addr.kind();
        let geometry = chip.geometry();
        let mut data = bits::zeroed(geometry.bits_per_page());
        for bl in 0..geometry.bitlines as usize {
            let state = outcome.corrected[wl][bl];
            let bit = match kind {
                PageKind::Lsb => state.lsb(),
                PageKind::Msb => state.msb(),
            };
            bits::set_bit(&mut data, bl, bit);
        }
        let intended = chip.intended_page_bits(block, page)?;
        let errors = bits::hamming(&data, &intended);
        if errors <= capability {
            Ok(StepAttempt { reads_spent, errors: Some(errors) })
        } else {
            Ok(StepAttempt { reads_spent, errors: None })
        }
    }
}

/// The full recovery ladder the paper's toolbox supports, cheap rungs
/// first: uniform read-retry, learned references (ROR), then offline
/// retention recovery (RFR).
pub fn full_recovery_ladder() -> RecoveryLadder {
    RecoveryLadder::new(vec![
        Box::<RetrySweep>::default(),
        Box::<RorRecoveryStep>::default(),
        Box::<RfrRecoveryStep>::default(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    fn stressed_chip(fidelity: ReadFidelity, pe: u64, disturbs: u64, days: f64) -> Chip {
        let mut chip = Chip::with_fidelity(
            Geometry { blocks: 1, wordlines_per_block: 16, bitlines: 2048, bits_per_cell: 2 },
            ChipParams::default(),
            31,
            fidelity,
        );
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, 4).unwrap();
        chip.apply_read_disturbs(0, disturbs).unwrap();
        chip.advance_days(days);
        chip
    }

    #[test]
    fn ror_step_recovers_a_shifted_page() {
        let mut chip = stressed_chip(ReadFidelity::CellExact, 10_000, 1_500_000, 14.0);
        // Find a page failing a capability the learned references can meet.
        let mut step = RorRecoveryStep::default();
        let mut tried = 0;
        let mut recovered = 0;
        for page in 0..32 {
            let raw = chip.read_page(0, page).unwrap().stats.errors;
            if raw == 0 {
                continue;
            }
            let capability = raw.saturating_sub(1).max(1);
            tried += 1;
            let attempt = step.attempt(&mut chip, 0, page, capability).unwrap();
            if let Some(errors) = attempt.errors {
                assert!(errors <= capability);
                assert!(attempt.reads_spent > 1, "ROR must spend sweep reads");
                recovered += 1;
            }
        }
        assert!(tried > 0, "no page carried errors at this stress level");
        assert!(recovered > 0, "ROR never beat the default references ({tried} tried)");
    }

    #[test]
    fn ror_step_skips_on_analytic_tier() {
        for fidelity in [ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate] {
            let mut chip = stressed_chip(fidelity, 10_000, 1_500_000, 14.0);
            let mut step = RorRecoveryStep::default();
            let attempt = step.attempt(&mut chip, 0, 3, 8).unwrap();
            assert_eq!(attempt, StepAttempt { reads_spent: 0, errors: None });
        }
    }

    #[test]
    fn rfr_step_recovers_retention_errors() {
        // Retention-dominated failure: heavy age, no disturb.
        let mut chip = stressed_chip(ReadFidelity::CellExact, 12_000, 0, 28.0);
        let mut step = RfrRecoveryStep::default();
        let mut recovered = 0;
        let mut tried = 0;
        for page in 0..32 {
            let raw = chip.read_page(0, page).unwrap().stats.errors;
            if raw < 2 {
                continue;
            }
            tried += 1;
            let attempt = step.attempt(&mut chip, 0, page, raw - 1).unwrap();
            if let Some(errors) = attempt.errors {
                assert!(errors < raw);
                assert!(attempt.reads_spent > 0, "RFR must spend sweep reads");
                recovered += 1;
            }
            if recovered >= 2 {
                break; // each attempt ages the block further; two suffice
            }
        }
        assert!(tried > 0, "no page carried retention errors");
        assert!(recovered > 0, "RFR never reduced a page's errors ({tried} tried)");
    }

    #[test]
    fn rfr_step_skips_on_analytic_tier() {
        for fidelity in [ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate] {
            let mut chip = stressed_chip(fidelity, 12_000, 0, 28.0);
            let mut step = RfrRecoveryStep::default();
            let attempt = step.attempt(&mut chip, 0, 3, 8).unwrap();
            assert_eq!(attempt, StepAttempt { reads_spent: 0, errors: None });
        }
    }

    #[test]
    fn full_ladder_has_three_rungs() {
        let ladder = full_recovery_ladder();
        assert_eq!(ladder.len(), 3);
    }
}
