//! Read-reference optimization (ROR) — the voltage-optimization family the
//! paper's §5 situates Vpass Tuning in: "a few works that propose
//! optimizing the *read reference* voltage have the same spirit"
//! (\[11, 14, 68\], and the authors' own ROR from their HPCA 2015 paper).
//!
//! As threshold-voltage distributions shift (disturb pushes low states up,
//! retention pulls high states down), the factory read references drift
//! away from the distribution valleys and raw bit errors grow. This module
//! re-learns near-optimal references **from controller-visible data only**:
//! a read-retry sweep builds a voltage histogram, and each reference moves
//! to the lowest-density point (the valley) between the adjacent state
//! modes.

use rd_flash::{Chip, FlashError, VoltageRefs};

/// Configuration of the reference optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct RorConfig {
    /// Read-retry sweep resolution (normalized volts).
    pub sweep_step: f64,
    /// Half-width of the search window around each current reference.
    pub search_window: f64,
}

impl Default for RorConfig {
    fn default() -> Self {
        Self { sweep_step: 2.0, search_window: 40.0 }
    }
}

/// Optimized references plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct RorOutcome {
    /// The learned references.
    pub refs: VoltageRefs,
    /// Histogram cell count used for the estimate.
    pub cells: u64,
    /// Read-retry reads spent.
    pub reads_spent: u64,
}

/// The read-reference optimizer.
#[derive(Debug, Clone, Default)]
pub struct Ror {
    config: RorConfig,
}

impl Ror {
    /// Creates the optimizer.
    pub fn new(config: RorConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RorConfig {
        &self.config
    }

    /// Learns near-optimal references for one wordline from a read-retry
    /// sweep (the measurement disturbs the block, as on real chips).
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range.
    pub fn optimize_wordline(
        &self,
        chip: &mut Chip,
        block: u32,
        wordline: u32,
    ) -> Result<RorOutcome, FlashError> {
        let reads_before = chip.block_status(block)?.reads_since_erase;
        let measured = chip.measure_wordline_vth(block, wordline, self.config.sweep_step, true)?;
        let reads_after = chip.block_status(block)?.reads_since_erase;
        let defaults = chip.params().refs;

        // Histogram of finite (non-blocked) voltages.
        let step = self.config.sweep_step;
        let lo = -80.0f64;
        let nbins = ((rd_flash::NOMINAL_VPASS + 40.0 - lo) / step) as usize;
        let mut hist = vec![0u64; nbins];
        let mut cells = 0u64;
        for v in measured.iter().filter(|v| v.is_finite()) {
            let bin = ((v - lo) / step).floor();
            if (0.0..nbins as f64).contains(&bin) {
                hist[bin as usize] += 1;
                cells += 1;
            }
        }

        let valley = |center: f64| -> f64 {
            let from = (((center - self.config.search_window) - lo) / step).max(0.0) as usize;
            let to = ((((center + self.config.search_window) - lo) / step) as usize).min(nbins - 1);
            // Smooth over 3 bins and take the minimum-density position;
            // ties resolve toward the window center.
            let mut best = (u64::MAX, center);
            for i in from.max(1)..to.min(nbins - 2) {
                let density = hist[i - 1] + 2 * hist[i] + hist[i + 1];
                let pos = lo + (i as f64 + 0.5) * step;
                if density < best.0
                    || (density == best.0 && (pos - center).abs() < (best.1 - center).abs())
                {
                    best = (density, pos);
                }
            }
            best.1
        };

        let va = valley(defaults.va());
        let vb = valley(defaults.vb()).max(va + step);
        let vc = valley(defaults.vc()).max(vb + step);
        Ok(RorOutcome {
            refs: VoltageRefs::new(va, vb, vc),
            cells,
            reads_spent: reads_after - reads_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    fn shifted_chip() -> Chip {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 13);
        chip.cycle_block(0, 10_000).unwrap();
        chip.program_block_random(0, 4).unwrap();
        // Disturb pushes ER/P1 up while retention pulls P2/P3 down: both
        // valleys move off the factory references.
        chip.apply_read_disturbs(0, 800_000).unwrap();
        chip.advance_days(21.0);
        chip
    }

    /// Realization: one cell-exact chip, seed 13.
    #[test]
    fn optimized_refs_reduce_errors_on_shifted_block() {
        let mut chip = shifted_chip();
        let ror = Ror::default();
        let mut default_errors = 0u64;
        let mut optimized_errors = 0u64;
        for wl in (0..64).step_by(8) {
            let outcome = ror.optimize_wordline(&mut chip, 0, wl).unwrap();
            let d = chip.read_page(0, wl * 2 + 1).unwrap().stats.errors;
            let o = chip.read_page_with_refs(0, wl * 2 + 1, &outcome.refs).unwrap().stats.errors;
            default_errors += d;
            optimized_errors += o;
        }
        assert!(
            optimized_errors < default_errors,
            "ROR did not help: {default_errors} -> {optimized_errors}"
        );
    }

    /// Physics: bounds the optimizer enforces at any seed.
    #[test]
    fn references_stay_ordered_and_near_defaults_on_fresh_block() {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 2);
        chip.program_block_random(0, 2).unwrap();
        let ror = Ror::default();
        let outcome = ror.optimize_wordline(&mut chip, 0, 3).unwrap();
        let r = outcome.refs;
        assert!(r.va() < r.vb() && r.vb() < r.vc());
        let defaults = chip.params().refs;
        assert!((r.va() - defaults.va()).abs() <= ror.config().search_window);
        assert!((r.vb() - defaults.vb()).abs() <= ror.config().search_window);
        assert!((r.vc() - defaults.vc()).abs() <= ror.config().search_window);
        assert!(outcome.reads_spent > 0 && outcome.cells > 0);
    }

    /// Realization: one cell-exact chip per read count, seed 7.
    #[test]
    fn disturb_moves_learned_va_upward() {
        // The ER-P1 valley moves up as ER shifts up under disturb.
        let ror = Ror::default();
        let va_at = |reads: u64| -> f64 {
            let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 7);
            chip.cycle_block(0, 8_000).unwrap();
            chip.program_block_random(0, 7).unwrap();
            chip.apply_read_disturbs(0, reads).unwrap();
            ror.optimize_wordline(&mut chip, 0, 5).unwrap().refs.va()
        };
        let fresh = va_at(0);
        let disturbed = va_at(1_000_000);
        assert!(disturbed > fresh, "va {fresh} -> {disturbed}");
    }
}
