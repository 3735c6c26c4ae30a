//! Retention Failure Recovery (RFR) — the authors' companion recovery
//! mechanism for *retention* errors (HPCA 2015, discussed in this paper's
//! §5: "RFR, similar to RDR …, identifies fast- and slow-leaking cells,
//! rather than disturb-prone and disturb-resistant cells, and
//! probabilistically correct\[s\] uncorrectable retention errors offline").
//!
//! Mirror image of [`crate::Rdr`]:
//!
//! 1. let the data sit for an additional retention period (offline);
//! 2. measure each cell's *downward* voltage shift;
//! 3. cells shifting more than `ΔVref` are **fast-leaking**; near a
//!    reference boundary, fast-leaking cells likely belong to the *upper*
//!    of the two adjacent states (they leaked down across the boundary),
//!    slow-leaking cells to the *lower*.

use rd_flash::noise::retention;
use rd_flash::{BitErrorStats, CellState, Chip};

use crate::error::CoreError;

/// RFR configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RfrConfig {
    /// Additional (offline) retention time induced for characterization.
    pub extra_days: f64,
    /// Read-retry sweep resolution for the ΔVth measurement.
    pub measure_step: f64,
    /// Window *below* each read reference considered ambiguous (retention
    /// errors are upper-state cells fallen just under the boundary).
    pub boundary_window: f64,
    /// Small allowance above each reference.
    pub boundary_window_above: f64,
    /// Leak-factor quantile separating fast from slow leakers, expressed as
    /// the model leak factor whose expected drop defines `ΔVref`.
    pub leak_threshold: f64,
}

impl Default for RfrConfig {
    fn default() -> Self {
        Self {
            extra_days: 3.0,
            measure_step: 1.0,
            boundary_window: 15.0,
            boundary_window_above: 1.0,
            leak_threshold: 3.0,
        }
    }
}

/// Result of retention recovery over a block.
#[derive(Debug, Clone, PartialEq)]
pub struct RfrOutcome {
    /// Recovered cell states, `corrected[wordline][bitline]`.
    pub corrected: Vec<Vec<CellState>>,
    /// Cells whose state was changed by the fast/slow rule.
    pub reclassified: u64,
    /// Cells inside a boundary window.
    pub boundary_cells: u64,
}

/// The Retention Failure Recovery mechanism.
#[derive(Debug, Clone, Default)]
pub struct Rfr {
    config: RfrConfig,
}

impl Rfr {
    /// Creates the mechanism.
    pub fn new(config: RfrConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RfrConfig {
        &self.config
    }

    /// Runs recovery over a block: measure, wait the extra retention
    /// period, re-measure, classify leak speed, and reassign boundary
    /// cells.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn recover_block(&self, chip: &mut Chip, block: u32) -> Result<RfrOutcome, CoreError> {
        let geometry = chip.geometry();
        let params = chip.params().clone();
        let wordlines = geometry.wordlines_per_block;

        let mut before = Vec::with_capacity(wordlines as usize);
        for wl in 0..wordlines {
            before.push(chip.measure_wordline_vth(block, wl, self.config.measure_step, true)?);
        }
        let age0 = chip.block_status(block)?.age_days;
        chip.advance_block_days(block, self.config.extra_days)?;
        let pe = chip.block_status(block)?.pe_cycles;

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
                let v_before = before[wl as usize][bl];
                let v_after = after[bl];
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
                let in_window = offset >= -self.config.boundary_window
                    && offset <= self.config.boundary_window_above;
                let state = if in_window {
                    boundary_cells += 1;
                    let delta_vref = self.delta_vref(&params, v_before, pe, age0);
                    let fast_leaking = (v_before - v_after) > delta_vref;
                    // Fast leakers fell from the upper state; slow leakers
                    // were programmed where they sit.
                    let assigned = if fast_leaking { nearest.2 } else { plain };
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
        Ok(RfrOutcome { corrected, reclassified, boundary_cells })
    }

    /// Expected extra drop over the induced period for a cell at `v` with
    /// the threshold leak factor; measured drops above it mark fast
    /// leakers.
    fn delta_vref(&self, params: &rd_flash::ChipParams, v: f64, pe: u64, age0: f64) -> f64 {
        let drop_before = retention::vth_drop(params, v, self.config.leak_threshold, pe, age0);
        let drop_after = retention::vth_drop(
            params,
            v,
            self.config.leak_threshold,
            pe,
            age0 + self.config.extra_days,
        );
        (drop_after - drop_before).max(self.config.measure_step)
    }

    /// Evaluation oracle: raw bit errors of the recovered states against
    /// the programmed truth.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn errors_vs_intended(
        &self,
        chip: &Chip,
        block: u32,
        outcome: &RfrOutcome,
    ) -> Result<BitErrorStats, CoreError> {
        crate::rdr::errors_vs_intended(chip, block, &outcome.corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    fn aged_chip(days: f64) -> Chip {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 31);
        chip.cycle_block(0, 12_000).unwrap();
        chip.program_block_random(0, 8).unwrap();
        chip.advance_days(days);
        chip
    }

    #[test]
    fn rfr_reduces_retention_errors_on_aged_block() {
        let mut chip = aged_chip(28.0);
        let rfr = Rfr::default();
        let outcome = rfr.recover_block(&mut chip, 0).unwrap();
        // Compare against the uncorrected state RFR actually measured
        // (which includes the induced extra retention).
        let no_recovery = chip.block_rber(0).unwrap();
        let after = rfr.errors_vs_intended(&chip, 0, &outcome).unwrap();
        assert!(
            after.errors < no_recovery.errors,
            "RFR must reduce errors: {} -> {}",
            no_recovery.errors,
            after.errors
        );
        let reduction = 1.0 - after.rate() / no_recovery.rate();
        assert!(reduction > 0.05, "reduction only {:.1}%", reduction * 100.0);
    }

    #[test]
    fn rfr_harmless_on_fresh_data() {
        let mut chip = aged_chip(0.0);
        let rfr = Rfr::default();
        let outcome = rfr.recover_block(&mut chip, 0).unwrap();
        let no_recovery = chip.block_rber(0).unwrap();
        let after = rfr.errors_vs_intended(&chip, 0, &outcome).unwrap();
        assert!(
            after.errors <= no_recovery.errors + 10,
            "RFR harmed fresh data: {} -> {}",
            no_recovery.errors,
            after.errors
        );
    }

    #[test]
    fn outcome_accounting() {
        let mut chip = aged_chip(21.0);
        let rfr = Rfr::default();
        let outcome = rfr.recover_block(&mut chip, 0).unwrap();
        assert!(outcome.boundary_cells >= outcome.reclassified);
        assert_eq!(outcome.corrected.len(), 64);
    }
}
