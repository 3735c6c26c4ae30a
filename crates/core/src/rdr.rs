//! Read Disturb Recovery (RDR) — the paper's post-failure recovery (§4–5).
//!
//! When a read carries more raw bit errors than ECC can correct, the drive
//! has traditionally lost the data. RDR exploits process variation in
//! disturb susceptibility to claw errors back:
//!
//! 1. **Identify susceptible cells** — induce a significant number of
//!    additional read disturbs (default 100K) and measure each cell's
//!    threshold-voltage shift `ΔVth` via read-retry sweeps. Cells with
//!    `ΔVth > ΔVref` are **disturb-prone**; the rest disturb-resistant.
//! 2. **Correct susceptible cells** — for cells near a read-reference
//!    boundary, predict that disturb-prone cells belong to the *lower* of
//!    the two adjacent states (they drifted up into the boundary) and
//!    disturb-resistant cells to the *higher* (they were programmed there).
//!
//! The probabilistic reassignment does not fix every bit, but it reduces
//! the raw error count enough for ECC to finish the job (Fig. 10: up to a
//! 36% RBER reduction at 1M reads).

use rd_flash::noise::read_disturb;
use rd_flash::{BitErrorStats, CellState, Chip, PageKind};

use crate::error::CoreError;

/// RDR configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RdrConfig {
    /// Additional read disturbs induced for characterization (paper: e.g.
    /// 100K).
    pub extra_disturbs: u64,
    /// Read-retry sweep resolution for the ΔVth measurement (normalized
    /// volts per retry step).
    pub measure_step: f64,
    /// Extent of the boundary window *above* each read reference. The
    /// ambiguous overlap region created by read disturb lies at and above
    /// the reference (lower-state cells drift *up* across it, Fig. 9b), so
    /// reassignment only considers cells reading just across a boundary.
    pub boundary_window: f64,
    /// Small allowance *below* each reference (measurement quantization):
    /// cells this close under the boundary are also ambiguous.
    pub boundary_window_below: f64,
    /// Susceptibility quantile separating prone from resistant cells,
    /// expressed as the model susceptibility factor whose expected shift
    /// defines `ΔVref` (the paper derives ΔVref from the intersection of
    /// the prone/resistant shift distributions).
    pub susceptibility_threshold: f64,
}

impl Default for RdrConfig {
    fn default() -> Self {
        Self {
            extra_disturbs: 100_000,
            measure_step: 1.0,
            boundary_window: 15.0,
            boundary_window_below: 1.0,
            susceptibility_threshold: 6.0,
        }
    }
}

/// Result of recovering a block.
#[derive(Debug, Clone, PartialEq)]
pub struct RdrOutcome {
    /// Recovered cell states, `corrected[wordline][bitline]`.
    pub corrected: Vec<Vec<CellState>>,
    /// Cells whose state was changed by the prone/resistant rule.
    pub reclassified: u64,
    /// Cells that fell inside a boundary window (reassignment candidates).
    pub boundary_cells: u64,
    /// Reads spent by the recovery procedure (sweeps + induced disturbs).
    pub reads_spent: u64,
}

/// The Read Disturb Recovery mechanism.
#[derive(Debug, Clone, Default)]
pub struct Rdr {
    config: RdrConfig,
}

impl Rdr {
    /// Creates the mechanism.
    pub fn new(config: RdrConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RdrConfig {
        &self.config
    }

    /// Runs recovery over a whole block: measure, induce extra disturbs,
    /// re-measure, classify, and reassign boundary cells.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn recover_block(&self, chip: &mut Chip, block: u32) -> Result<RdrOutcome, CoreError> {
        let geometry = chip.geometry();
        let params = chip.params().clone();
        let wordlines = geometry.wordlines_per_block;
        let reads_before = chip.block_status(block)?.reads_since_erase;

        // Phase 1: baseline Vth measurement (read-retry sweeps; disturbing).
        let mut before = Vec::with_capacity(wordlines as usize);
        for wl in 0..wordlines {
            before.push(chip.measure_wordline_vth(block, wl, self.config.measure_step, true)?);
        }

        // Phase 2: induce the additional disturbs.
        chip.apply_read_disturbs(block, self.config.extra_disturbs)?;
        let status = chip.block_status(block)?;
        let vpass = chip.block_vpass(block)?;
        // Dose corresponding to the induced disturbs (what ΔVref is scaled to).
        let extra_dose = params.dose_increment(self.config.extra_disturbs, status.pe_cycles, vpass);

        // Phase 3: re-measure and classify.
        let refs = params.refs;
        let boundaries = [
            (refs.va(), CellState::Er, CellState::P1),
            (refs.vb(), CellState::P1, CellState::P2),
            (refs.vc(), CellState::P2, CellState::P3),
        ];
        let mut corrected = Vec::with_capacity(wordlines as usize);
        let mut reclassified = 0u64;
        let mut boundary_cells = 0u64;
        for wl in 0..wordlines {
            let after = chip.measure_wordline_vth(block, wl, self.config.measure_step, true)?;
            let mut row = Vec::with_capacity(geometry.bitlines as usize);
            for bl in 0..geometry.bitlines as usize {
                let v_after = after[bl];
                let v_before = before[wl as usize][bl];
                // Blocked bitlines read as the highest state.
                if !v_after.is_finite() || !v_before.is_finite() {
                    row.push(CellState::P3);
                    continue;
                }
                let plain = refs.classify(v_after);
                let nearest = boundaries
                    .iter()
                    .min_by(|a, b| {
                        (v_after - a.0).abs().partial_cmp(&(v_after - b.0).abs()).expect("finite")
                    })
                    .expect("three boundaries");
                let offset = v_after - nearest.0;
                let in_window = offset >= -self.config.boundary_window_below
                    && offset <= self.config.boundary_window;
                let state = if in_window {
                    boundary_cells += 1;
                    let delta_vref = self.delta_vref(&params, v_before, extra_dose);
                    let prone = (v_after - v_before) > delta_vref;
                    let assigned = if prone { nearest.1 } else { nearest.2 };
                    if assigned != plain {
                        reclassified += 1;
                    }
                    assigned
                } else {
                    plain
                };
                row.push(state);
            }
            corrected.push(row);
        }
        let reads_after = chip.block_status(block)?.reads_since_erase;
        Ok(RdrOutcome {
            corrected,
            reclassified,
            boundary_cells,
            reads_spent: reads_after - reads_before,
        })
    }

    /// The classification threshold `ΔVref` for a cell measured at
    /// `v_before`: the shift the disturb model predicts for a cell at that
    /// voltage with the threshold susceptibility. Measured shifts above it
    /// mark disturb-prone cells.
    fn delta_vref(&self, params: &rd_flash::ChipParams, v_before: f64, extra_dose: f64) -> f64 {
        let model_shift = read_disturb::vth_shift(
            params,
            v_before,
            self.config.susceptibility_threshold,
            extra_dose,
        );
        // Never classify below the measurement quantization noise.
        model_shift.max(self.config.measure_step)
    }

    /// Evaluation oracle: raw bit errors of the recovered states against the
    /// programmed ground truth, over all programmed pages of the block.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn errors_vs_intended(
        &self,
        chip: &Chip,
        block: u32,
        outcome: &RdrOutcome,
    ) -> Result<BitErrorStats, CoreError> {
        errors_vs_intended(chip, block, &outcome.corrected)
    }

    /// Extracts the recovered bits of one page from an outcome.
    pub fn page_bits(&self, outcome: &RdrOutcome, page: u32) -> Vec<u8> {
        let wl = (page / 2) as usize;
        let kind = if page.is_multiple_of(2) { PageKind::Lsb } else { PageKind::Msb };
        let row = &outcome.corrected[wl];
        let mut data = vec![0u8; row.len().div_ceil(8)];
        for (bl, state) in row.iter().enumerate() {
            let bit = match kind {
                PageKind::Lsb => state.lsb(),
                PageKind::Msb => state.msb(),
            };
            if bit {
                data[bl / 8] |= 1 << (bl % 8);
            }
        }
        data
    }
}

/// Raw bit errors of recovered per-cell states (`corrected[wordline][bitline]`)
/// against the programmed ground truth, over the programmed pages of `block`.
/// Shared with [`crate::Rfr`], whose outcome has the same shape.
pub(crate) fn errors_vs_intended(
    chip: &Chip,
    block: u32,
    corrected: &[Vec<CellState>],
) -> Result<BitErrorStats, CoreError> {
    let geometry = chip.geometry();
    let cells = chip.cells(block)?;
    let mut errors = 0u64;
    let mut bits = 0u64;
    for wl in 0..geometry.wordlines_per_block {
        let lsb_on = chip.is_page_programmed(block, wl * 2)?;
        let msb_on = chip.is_page_programmed(block, wl * 2 + 1)?;
        if !lsb_on && !msb_on {
            continue;
        }
        for (intended, &got) in cells.wordline_states(wl).zip(&corrected[wl as usize]) {
            if lsb_on {
                bits += 1;
                errors += u64::from(got.lsb() != intended.lsb());
            }
            if msb_on {
                bits += 1;
                errors += u64::from(got.msb() != intended.msb());
            }
        }
    }
    Ok(BitErrorStats::new(errors, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    fn disturbed_chip(reads: u64) -> Chip {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 77);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 3).unwrap();
        chip.apply_read_disturbs(0, reads).unwrap();
        chip
    }

    #[test]
    fn recovery_reduces_errors_after_heavy_disturb() {
        let mut chip = disturbed_chip(1_000_000);
        let rdr = Rdr::default();
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        // Apples-to-apples: the uncorrected error count of the device state
        // recovery actually ran on (the chip holds the post-procedure state;
        // recover_block only reads).
        let no_recovery = chip.block_rber(0).unwrap();
        let after = rdr.errors_vs_intended(&chip, 0, &outcome).unwrap();
        assert!(
            after.errors < no_recovery.errors,
            "RDR must reduce errors: {} -> {}",
            no_recovery.errors,
            after.errors
        );
        let reduction = 1.0 - after.rate() / no_recovery.rate();
        assert!(reduction > 0.15, "reduction only {:.1}%", reduction * 100.0);
    }

    #[test]
    fn recovery_is_nearly_free_of_harm_at_low_disturb() {
        let mut chip = disturbed_chip(10_000);
        let rdr = Rdr::default();
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        let no_recovery = chip.block_rber(0).unwrap();
        let after = rdr.errors_vs_intended(&chip, 0, &outcome).unwrap();
        // At low read counts most errors are not disturb errors; the paper
        // reports only "a few percent" reduction there — but recovery must
        // not hurt.
        assert!(
            after.errors <= no_recovery.errors + 10,
            "RDR caused harm: {} -> {}",
            no_recovery.errors,
            after.errors
        );
    }

    #[test]
    fn outcome_accounting_is_consistent() {
        let mut chip = disturbed_chip(200_000);
        let rdr = Rdr::default();
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        assert!(outcome.boundary_cells >= outcome.reclassified);
        assert!(outcome.reads_spent >= rdr.config().extra_disturbs);
        let g = chip.geometry();
        assert_eq!(outcome.corrected.len(), g.wordlines_per_block as usize);
        assert_eq!(outcome.corrected[0].len(), g.bitlines as usize);
    }

    #[test]
    fn page_bits_match_corrected_states() {
        let mut chip = disturbed_chip(100_000);
        let rdr = Rdr::default();
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        let bits = rdr.page_bits(&outcome, 0); // LSB of wordline 0
        for bl in 0..chip.geometry().bitlines as usize {
            let expect = outcome.corrected[0][bl].lsb();
            let got = bits[bl / 8] >> (bl % 8) & 1 == 1;
            assert_eq!(got, expect, "bitline {bl}");
        }
    }
}
