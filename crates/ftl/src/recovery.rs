//! The read-recovery ladder: what the controller does when a page fails to
//! decode.
//!
//! The host read path runs every raw read through the ECC decode
//! ([`rd_ecc::PageEccModel`]); when the raw error count exceeds the
//! capability, the controller escalates through a [`RecoveryLadder`] of
//! pluggable [`RecoveryStep`]s instead of declaring loss immediately —
//! the controller structure the SSD-error survey (Cai et al., 2017)
//! describes as decode → read-retry → targeted recovery → uncorrectable:
//!
//! 1. [`RetrySweep`] — read-retry at a ladder of uniform reference shifts
//!    (the ROR machinery's sweep, controller-visible error counts only);
//! 2. [`DisturbReRead`] — an RFR-style disturb-aware re-read that raises
//!    only the ER/P1 boundary (where read-disturb errors concentrate),
//!    falling back to deep uniform shifts on chips that only support
//!    uniform retry (the page-analytic tier);
//! 3. give up: the read is uncorrectable (the paper's data-loss event).
//!
//! Every retry read costs real flash work: the steps report the reads they
//! spent, the controller folds them into [`crate::SsdStats`], and the
//! engine charges tR per retry read on its discrete-event clock. A rung
//! decides on error counts alone — what a real decoder reports — so the
//! built-in rungs issue count-only reads ([`Chip::read_retry_counts`]) and
//! never look at page bytes.

use rd_flash::{Chip, FlashError};

/// How a host read was resolved by the controller pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResolution {
    /// The initial read decoded with zero raw bit errors.
    Clean,
    /// The initial read decoded after ECC corrected `errors` raw bit
    /// errors.
    Corrected {
        /// Raw bit errors ECC corrected.
        errors: u64,
    },
    /// The initial read failed to decode, and the recovery ladder found a
    /// decodable re-read. `steps` records every ladder step engaged, in
    /// order, including the failed attempts before the one that succeeded.
    Recovered {
        /// Per-step reports, in escalation order.
        steps: Vec<RecoveryStepReport>,
    },
    /// The initial read failed to decode and the ladder was exhausted —
    /// the paper's end-of-life data-loss event.
    Uncorrectable {
        /// Raw bit errors of the initial read.
        errors: u64,
    },
}

/// Report of one ladder step's attempt on a failing page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStepReport {
    /// The step's name.
    pub step: &'static str,
    /// Flash reads the step issued (each costs tR on the engine clock).
    pub reads_spent: u64,
    /// Raw errors of the step's decodable read, or `None` if the step
    /// failed to find one.
    pub errors: Option<u64>,
}

/// Outcome of one [`RecoveryStep::attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAttempt {
    /// Flash reads the step issued.
    pub reads_spent: u64,
    /// Raw errors of the best decodable read found, or `None` on failure.
    pub errors: Option<u64>,
}

/// One rung of the recovery ladder: given a page whose raw read exceeded
/// the ECC capability, try to obtain a read that decodes.
///
/// Implementations must be deterministic (all randomness comes from the
/// chip's seeded RNG) and must only use controller-visible information —
/// raw reads, retry reads, and the error counts the simulator exposes as
/// the on-die ECC's report.
pub trait RecoveryStep: std::fmt::Debug + Send {
    /// The step's name (recorded in [`RecoveryStepReport`]).
    fn name(&self) -> &'static str;

    /// Attempts to find a read of `(block, page)` whose raw errors fit
    /// within `capability`.
    ///
    /// # Errors
    ///
    /// Fails only on flash addressing errors; an unsuccessful recovery is
    /// `Ok` with [`StepAttempt::errors`] `None`.
    fn attempt(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<StepAttempt, FlashError>;
}

/// Read-retry at a ladder of uniform reference shifts — the first rung.
///
/// Positive shifts first: read disturb (this paper's subject) lifts ER/P1
/// upward, so raising the references tracks the drifted cells. A single
/// negative shift covers retention-dominated failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySweep {
    /// Reference shifts tried in order (normalized volts).
    pub shifts: Vec<f64>,
}

impl Default for RetrySweep {
    fn default() -> Self {
        Self { shifts: vec![4.0, 8.0, 12.0, 16.0, -4.0] }
    }
}

impl RecoveryStep for RetrySweep {
    fn name(&self) -> &'static str {
        "retry-sweep"
    }

    fn attempt(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<StepAttempt, FlashError> {
        let mut reads_spent = 0;
        for &shift in &self.shifts {
            let errors = chip.read_retry_counts(block, page, shift)?.stats.errors;
            reads_spent += 1;
            if errors <= capability {
                return Ok(StepAttempt { reads_spent, errors: Some(errors) });
            }
        }
        Ok(StepAttempt { reads_spent, errors: None })
    }
}

/// RFR-style disturb-aware re-read — the second rung.
///
/// Read-disturb errors concentrate just above the ER/P1 boundary (disturb
/// lifts erased cells across Va), so this step raises *only* Va, leaving
/// Vb/Vc at the factory points — recovering disturb errors without paying
/// the misclassification floor a uniform shift costs at the upper
/// boundaries. Chips that only support uniform retry (the page-analytic
/// tier answers per-boundary references with `FidelityUnsupported`) get a
/// deep uniform shift of the same magnitude instead.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DisturbReRead {
    /// Va raises tried in order (normalized volts).
    pub va_raises: Vec<f64>,
}

impl Default for DisturbReRead {
    fn default() -> Self {
        Self { va_raises: vec![10.0, 20.0, 30.0] }
    }
}

impl RecoveryStep for DisturbReRead {
    fn name(&self) -> &'static str {
        "disturb-reread"
    }

    fn attempt(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<StepAttempt, FlashError> {
        let defaults = chip.params().refs;
        let mut reads_spent = 0;
        for &raise in &self.va_raises {
            let refs = defaults.with_lowest_raised(raise);
            let errors = match chip.read_page_with_refs(block, page, &refs) {
                Ok(outcome) => outcome.stats.errors,
                Err(FlashError::FidelityUnsupported { .. }) => {
                    chip.read_retry_counts(block, page, raise)?.stats.errors
                }
                Err(e) => return Err(e),
            };
            reads_spent += 1;
            if errors <= capability {
                return Ok(StepAttempt { reads_spent, errors: Some(errors) });
            }
        }
        Ok(StepAttempt { reads_spent, errors: None })
    }
}

/// Outcome of a full ladder escalation on one failing page, borrowed from
/// the ladder (which reuses the report buffer across escalations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LadderOutcome<'a> {
    /// Per-step reports, in escalation order (every step engaged, up to
    /// and including the one that succeeded).
    pub steps: &'a [RecoveryStepReport],
    /// Total flash reads spent across all steps.
    pub reads_spent: u64,
}

impl LadderOutcome<'_> {
    /// Raw errors of the decodable read the ladder found, or `None` if
    /// every step failed.
    pub(crate) fn recovered_errors(&self) -> Option<u64> {
        self.steps.last().and_then(|s| s.errors)
    }
}

/// The controller's recovery ladder: an ordered sequence of
/// [`RecoveryStep`]s tried until one finds a decodable read.
#[derive(Debug)]
pub struct RecoveryLadder {
    steps: Vec<Box<dyn RecoveryStep>>,
    /// Reports of the latest escalation.
    reports: Vec<RecoveryStepReport>,
}

impl RecoveryLadder {
    /// Builds a ladder from explicit steps.
    pub fn new(steps: Vec<Box<dyn RecoveryStep>>) -> Self {
        Self { steps, reports: Vec::new() }
    }

    /// The ladder driven by a chip's declared read-retry interface: the
    /// chip database's `retry_shifts` feed the uniform sweep and
    /// `reread_va_raises` the disturb-aware re-read. For
    /// [`rd_flash::ChipParams::default`] the rungs are the step `Default`s
    /// ([`RetrySweep`] then [`DisturbReRead`]), which mirror the default
    /// chip's ranges.
    pub(crate) fn for_chip(params: &rd_flash::ChipParams) -> Self {
        Self::new(vec![
            Box::new(RetrySweep { shifts: params.retry_shifts.clone() }),
            Box::new(DisturbReRead { va_raises: params.reread_va_raises.clone() }),
        ])
    }

    /// A ladder with no rungs: every decode failure is immediately
    /// uncorrectable (the pre-pipeline controller behaviour).
    pub fn disabled() -> Self {
        Self::new(Vec::new())
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the ladder has no rungs.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Escalates through the rungs in order, stopping at the first
    /// decodable read.
    ///
    /// # Errors
    ///
    /// Fails only on flash addressing errors.
    pub(crate) fn recover(
        &mut self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        capability: u64,
    ) -> Result<LadderOutcome<'_>, FlashError> {
        self.reports.clear();
        let mut reads_spent = 0;
        for step in &mut self.steps {
            let attempt = step.attempt(chip, block, page, capability)?;
            reads_spent += attempt.reads_spent;
            let done = attempt.errors.is_some();
            self.reports.push(RecoveryStepReport {
                step: step.name(),
                reads_spent: attempt.reads_spent,
                errors: attempt.errors,
            });
            if done {
                break;
            }
        }
        Ok(LadderOutcome { steps: &self.reports, reads_spent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry, ReadFidelity};

    /// A worn, disturbed block whose pages read past a small capability at
    /// the default references. At seed 101 the retry sweep brings the first
    /// failing cell-exact page back under capability 20, as it does at 61–66%
    /// of seeds 0–59 and 99 under either normal sampler the tier has used.
    fn disturbed_chip(fidelity: ReadFidelity, pe: u64, disturbs: u64) -> Chip {
        let mut chip = Chip::with_fidelity(
            Geometry { blocks: 2, wordlines_per_block: 16, bitlines: 2048, bits_per_cell: 2 },
            ChipParams::default(),
            101,
            fidelity,
        );
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, 5).unwrap();
        chip.apply_read_disturbs(0, disturbs).unwrap();
        chip
    }

    fn failing_page(chip: &mut Chip, capability: u64) -> u32 {
        for page in 0..chip.geometry().pages_per_block() {
            if chip.read_page(0, page).unwrap().stats.errors > capability {
                return page;
            }
        }
        panic!("no page fails at capability {capability}");
    }

    #[test]
    fn retry_sweep_recovers_disturbed_page_on_all_tiers() {
        for fidelity in
            [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate]
        {
            let mut chip = disturbed_chip(fidelity, 10_000, 1_000_000);
            // Above the ~10-error misprogram floor of this wear level but
            // below the disturb-inflated raw counts: the retry regime.
            let capability = 20;
            let page = failing_page(&mut chip, capability);
            let mut step = RetrySweep::default();
            let attempt = step.attempt(&mut chip, 0, page, capability).unwrap();
            assert!(
                attempt.errors.is_some(),
                "{fidelity:?}: retry sweep failed on a disturb-dominated page"
            );
            assert!(attempt.reads_spent >= 1);
            assert!(attempt.errors.unwrap() <= capability);
        }
    }

    #[test]
    fn ladder_reports_every_step_engaged() {
        // Deep wear and disturb: capability zero is unreachable at any
        // shift on this block, so every rung engages and fails.
        let mut chip = disturbed_chip(ReadFidelity::CellExact, 12_000, 2_000_000);
        let mut ladder = RecoveryLadder::for_chip(&ChipParams::default());
        let page = failing_page(&mut chip, 0);
        let outcome = ladder.recover(&mut chip, 0, page, 0).unwrap();
        assert_eq!(outcome.steps.len(), 2, "both rungs must engage");
        assert!(outcome.recovered_errors().is_none());
        assert_eq!(outcome.reads_spent, outcome.steps.iter().map(|s| s.reads_spent).sum::<u64>());
        assert_eq!(outcome.steps[0].step, "retry-sweep");
        assert_eq!(outcome.steps[1].step, "disturb-reread");
    }

    #[test]
    fn disabled_ladder_never_recovers() {
        let mut chip = disturbed_chip(ReadFidelity::CellExact, 10_000, 1_000_000);
        let mut ladder = RecoveryLadder::disabled();
        assert!(ladder.is_empty());
        let outcome = ladder.recover(&mut chip, 0, 0, 1_000_000).unwrap();
        assert!(outcome.steps.is_empty());
        assert_eq!(outcome.reads_spent, 0);
        assert!(outcome.recovered_errors().is_none());
    }

    #[test]
    fn default_chip_ladder_equals_the_standard_ladder() {
        // The step `Default`s mirror the default chip's declared retry
        // interface, so the default chip's database-driven ladder is the
        // golden one.
        let params = rd_flash::ChipParams::default();
        assert_eq!(params.retry_shifts, RetrySweep::default().shifts);
        assert_eq!(params.reread_va_raises, DisturbReRead::default().va_raises);
    }

    #[test]
    fn chip_ladders_pick_up_database_retry_ranges() {
        let spec = rd_flash::chips::get("vb-mlc-2z").expect("chip in database");
        assert_eq!(spec.params.retry_shifts, vec![5.0, 10.0, 15.0, -5.0]);
        // The ladder exists and carries both steps; behaviour is covered by
        // the tier tests above.
        let ladder = RecoveryLadder::for_chip(&spec.params);
        assert_eq!(ladder.steps.len(), 2);
    }
}
