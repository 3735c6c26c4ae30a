//! Vpass Tuning — the paper's read-disturb mitigation (§3).
//!
//! For each block, the mechanism learns the minimum pass-through voltage at
//! which all data can still be read correctly with ECC:
//!
//! 1. **Margin discovery** — probe the predicted worst-case page for its
//!    error count (MEE) and compute `M = 0.8 · C − MEE`
//!    ([`crate::margin_probe`]).
//! 2. **Vpass identification** — Step 1: aggressively lower Vpass by the
//!    resolution Δ; Step 2: read and count the bitlines incorrectly
//!    switched off (`N`); repeat while `N ≤ M`; Step 3: roll back upward
//!    until the verification `N ≤ M` passes again.
//!
//! Daily operation alternates the paper's two actions: on refresh days the
//! full identification re-runs (Action 2); on other days a cheap check
//! raises Vpass if accumulating retention/disturb errors have eaten the
//! margin (Action 1). When the margin is exhausted the mechanism falls back
//! to the nominal Vpass — correctness is never traded for endurance.
//!
//! [`VpassTuner`] is itself the [`ControllerPolicy`]: once a day it runs one
//! of the two actions on every block holding valid data and bills the probe
//! reads at tR each ([`PolicyContext::charge_probe_reads`]).

use rd_ecc::MarginPolicy;
use rd_flash::{Chip, FlashError, NOMINAL_VPASS};

use crate::margin_probe::{discover_worst_page, probe_margin};
use crate::policy::{ControllerPolicy, PolicyContext};

/// `worst_pages` entry of a block whose worst page is not yet discovered.
const UNKNOWN: u32 = u32::MAX;

/// Configuration of the tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct VpassTunerConfig {
    /// ECC margin policy (capability line and reserved fraction).
    pub margin: MarginPolicy,
    /// Δ — the smallest resolution by which Vpass can change, in normalized
    /// volts. Default: 0.5% of nominal.
    pub step: f64,
}

impl Default for VpassTunerConfig {
    fn default() -> Self {
        Self { margin: MarginPolicy::paper_default(), step: 0.005 * NOMINAL_VPASS }
    }
}

/// Report of one tuning pass over a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneReport {
    /// The tuned block.
    pub block: u32,
    /// Pass-through voltage before tuning.
    pub vpass_before: f64,
    /// Pass-through voltage after tuning.
    pub vpass_after: f64,
    /// Maximum estimated error from the worst-page probe.
    pub mee: u64,
    /// Margin `M` in bit errors.
    pub margin: u64,
    /// Bitlines incorrectly switched off at the final setting (`N ≤ M`).
    pub passthrough_zeros: u64,
    /// Whether the mechanism fell back to nominal Vpass.
    pub fell_back: bool,
    /// Probe reads spent (overhead accounting).
    pub probe_reads: u64,
}

impl TuneReport {
    /// The relative Vpass reduction achieved (0.04 = 4%).
    pub fn reduction(&self) -> f64 {
        1.0 - self.vpass_after / NOMINAL_VPASS
    }
}

/// Cumulative tuner statistics (for the paper's overhead accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TunerStats {
    /// Full identifications performed (Action 2).
    pub tunings: u64,
    /// Daily raise-checks performed (Action 1).
    pub checks: u64,
    /// Fallbacks to nominal Vpass.
    pub fallbacks: u64,
    /// Total probe reads.
    pub probe_reads: u64,
}

/// The per-device Vpass tuning mechanism, and the controller policy that
/// runs it daily.
///
/// A block's worst page is discovered on its first [`Self::tune_block`] or
/// [`Self::daily_check`], unless [`Self::manufacture_init`] ran first. The
/// discovery reads count in [`TunerStats::probe_reads`], not in the
/// returned [`TuneReport`].
///
/// [`crate::Die::encode_state`] writes neither the worst pages nor the
/// stats: a restored tuning die re-discovers each worst page with fresh,
/// disturbing reads and does not continue bit-identically (ROADMAP.md,
/// item 5(c)).
#[derive(Debug, Clone)]
pub struct VpassTuner {
    config: VpassTunerConfig,
    /// Worst page per block, [`UNKNOWN`] until discovered.
    worst_pages: Vec<u32>,
    stats: TunerStats,
}

impl Default for VpassTuner {
    fn default() -> Self {
        Self::new(VpassTunerConfig::default())
    }
}

impl VpassTuner {
    /// Creates a tuner.
    pub fn new(config: VpassTunerConfig) -> Self {
        Self { config, worst_pages: Vec::new(), stats: TunerStats::default() }
    }

    /// The tuner's configuration.
    pub fn config(&self) -> &VpassTunerConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TunerStats {
        self.stats
    }

    /// Manufacture-time step: discover and record the predicted worst-case
    /// page of a (programmed) block.
    ///
    /// # Errors
    ///
    /// Fails if `block` is out of range.
    pub fn manufacture_init(&mut self, chip: &mut Chip, block: u32) -> Result<u32, FlashError> {
        let (page, _) = discover_worst_page(chip, block)?;
        self.stats.probe_reads += chip.geometry().pages_per_block() as u64;
        // The discovery reads range-checked `block`, so the chip's block
        // count covers it.
        if self.worst_pages.len() <= block as usize {
            self.worst_pages.resize(chip.geometry().blocks as usize, UNKNOWN);
        }
        self.worst_pages[block as usize] = page;
        Ok(page)
    }

    /// The block's recorded worst page, discovered first if unknown.
    fn worst_page(&mut self, chip: &mut Chip, block: u32) -> Result<u32, FlashError> {
        match self.worst_pages.get(block as usize) {
            Some(&page) if page != UNKNOWN => Ok(page),
            _ => self.manufacture_init(chip, block),
        }
    }

    /// Action 2 — full Vpass identification for a block (run after each
    /// refresh): Steps 1–3 of the paper.
    ///
    /// # Errors
    ///
    /// Fails on flash errors (an out-of-range block).
    pub fn tune_block(&mut self, chip: &mut Chip, block: u32) -> Result<TuneReport, FlashError> {
        let worst = self.worst_page(chip, block)?;
        let vpass_before = chip.block_vpass(block)?;
        let probe = probe_margin(chip, block, worst, &self.config.margin)?;
        let mut probe_reads = 1u64;
        self.stats.tunings += 1;

        let fell_back = probe.margin == 0;
        let (vpass, zeros) = if fell_back {
            // Fallback: no unused correction capability to spend.
            self.stats.fallbacks += 1;
            (NOMINAL_VPASS, 0)
        } else {
            let min_vpass = chip.params().min_vpass;
            let step = self.config.step;
            let mut vpass = vpass_before;
            let mut zeros = self.count_zeros(chip, block, worst, vpass, &mut probe_reads)?;

            // Steps 1 + 2: aggressively lower while the induced zeros fit.
            while zeros <= probe.margin && vpass - step >= min_vpass {
                let candidate = vpass - step;
                let n = self.count_zeros(chip, block, worst, candidate, &mut probe_reads)?;
                if n <= probe.margin {
                    vpass = candidate;
                    zeros = n;
                } else {
                    // Went one step too far; leave `vpass` at the last good value.
                    break;
                }
            }
            // Step 3: roll upward until verification passes (handles the case
            // where even the starting Vpass no longer verifies).
            while zeros > probe.margin && vpass + step <= NOMINAL_VPASS {
                vpass += step;
                zeros = self.count_zeros(chip, block, worst, vpass, &mut probe_reads)?;
            }
            if zeros > probe.margin {
                (NOMINAL_VPASS, 0)
            } else {
                (vpass, zeros)
            }
        };
        chip.set_block_vpass(block, vpass)?;
        self.stats.probe_reads += probe_reads;
        Ok(TuneReport {
            block,
            vpass_before,
            vpass_after: vpass,
            mee: probe.mee,
            margin: probe.margin,
            passthrough_zeros: zeros,
            fell_back,
            probe_reads,
        })
    }

    /// Action 1 — daily raise-check for a block that was not refreshed
    /// today: verifies the current setting still fits the (shrinking)
    /// margin, raising Vpass step-by-step if not.
    ///
    /// # Errors
    ///
    /// Fails on flash errors (an out-of-range block).
    pub fn daily_check(&mut self, chip: &mut Chip, block: u32) -> Result<TuneReport, FlashError> {
        let worst = self.worst_page(chip, block)?;
        let vpass_before = chip.block_vpass(block)?;
        let probe = probe_margin(chip, block, worst, &self.config.margin)?;
        let mut probe_reads = 1u64;
        self.stats.checks += 1;

        let step = self.config.step;
        let mut vpass = vpass_before;
        let mut zeros = self.count_zeros(chip, block, worst, vpass, &mut probe_reads)?;
        let mut fell_back = false;
        while zeros > probe.margin {
            if vpass + step > NOMINAL_VPASS || probe.margin == 0 {
                vpass = NOMINAL_VPASS;
                zeros = 0;
                fell_back = true;
                self.stats.fallbacks += 1;
                break;
            }
            vpass += step;
            zeros = self.count_zeros(chip, block, worst, vpass, &mut probe_reads)?;
        }
        chip.set_block_vpass(block, vpass)?;
        self.stats.probe_reads += probe_reads;
        Ok(TuneReport {
            block,
            vpass_before,
            vpass_after: vpass,
            mee: probe.mee,
            margin: probe.margin,
            passthrough_zeros: zeros,
            fell_back,
            probe_reads,
        })
    }

    /// Reads the worst page at a candidate Vpass and counts the bitlines
    /// incorrectly switched off (the paper's "number of 0's", Step 2).
    fn count_zeros(
        &self,
        chip: &mut Chip,
        block: u32,
        page: u32,
        vpass: f64,
        probe_reads: &mut u64,
    ) -> Result<u64, FlashError> {
        let restore = chip.block_vpass(block)?;
        chip.set_block_vpass(block, vpass)?;
        let counts = chip.read_page_counts(block, page);
        chip.set_block_vpass(block, restore)?;
        *probe_reads += 1;
        Ok(counts?.blocked_bitlines)
    }
}

impl ControllerPolicy for VpassTuner {
    /// Tunes every block holding valid data: freshly refreshed or written
    /// blocks get the full identification (Action 2), others the
    /// raise-check (Action 1).
    fn on_tick(&mut self, ctx: &mut PolicyContext<'_>) {
        let probe_reads_before = self.stats.probe_reads;
        for &block in ctx.valid_blocks {
            let age = ctx.chip.block_status(block).map(|s| s.age_days).unwrap_or(f64::MAX);
            // Age ≤ one daily tick means refreshed or written since the last
            // tick. A failing block must not stop the daily sweep.
            let _ = if age < 1.5 {
                self.tune_block(ctx.chip, block)
            } else {
                self.daily_check(ctx.chip, block)
            };
        }
        ctx.charge_probe_reads(self.stats.probe_reads - probe_reads_before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry, ReadFidelity};

    /// Geometry with realistic page sizes (64 Ki bits, as on real MLC
    /// parts): the worst-page/mean-page error ratio is then small enough
    /// that the ECC margin behaves like the paper's Fig. 6 (C = 65 at the
    /// 1e-3 line, 52 usable).
    fn tuning_geometry() -> Geometry {
        Geometry { blocks: 1, wordlines_per_block: 32, bitlines: 64 * 1024, bits_per_cell: 2 }
    }

    fn chip_at(pe: u64, seed: u64) -> Chip {
        chip_at_tier(ReadFidelity::CellExact, pe, seed)
    }

    fn chip_at_tier(fidelity: ReadFidelity, pe: u64, seed: u64) -> Chip {
        let mut chip =
            Chip::with_fidelity(tuning_geometry(), ChipParams::default(), seed, fidelity);
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, seed ^ 1).unwrap();
        chip
    }

    /// A fresh tuner's first action on a block is `manufacture_init`
    /// followed by that action, down to the chip's RNG stream.
    #[test]
    fn first_visit_discovers_the_worst_page() {
        type Action = fn(&mut VpassTuner, &mut Chip, u32) -> Result<TuneReport, FlashError>;
        let actions: [(&str, Action); 2] =
            [("tune_block", VpassTuner::tune_block), ("daily_check", VpassTuner::daily_check)];
        for fidelity in [ReadFidelity::PageAnalytic, ReadFidelity::CellExact] {
            for (name, action) in actions {
                let mut lazy_chip = chip_at_tier(fidelity, 5_000, 21);
                let mut eager_chip = chip_at_tier(fidelity, 5_000, 21);
                let mut lazy = VpassTuner::default();
                let mut eager = VpassTuner::default();
                eager.manufacture_init(&mut eager_chip, 0).unwrap();
                let at = format!("{name} at {fidelity:?}");
                assert_eq!(
                    action(&mut lazy, &mut lazy_chip, 0).unwrap(),
                    action(&mut eager, &mut eager_chip, 0).unwrap(),
                    "{at}"
                );
                assert_eq!(lazy.stats(), eager.stats(), "{at}");
                assert_eq!(lazy_chip.block_vpass(0), eager_chip.block_vpass(0), "{at}");
                assert_eq!(lazy_chip.block_status(0), eager_chip.block_status(0), "{at}");
                assert_eq!(
                    lazy_chip.read_page_counts(0, 0),
                    eager_chip.read_page_counts(0, 0),
                    "{at}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn fresh_block_tunes_below_nominal() {
        let mut chip = chip_at(4_000, 5);
        let mut tuner = VpassTuner::new(VpassTunerConfig::default());
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let report = tuner.tune_block(&mut chip, 0).unwrap();
        assert!(!report.fell_back);
        assert!(
            report.vpass_after < NOMINAL_VPASS,
            "low-wear fresh data should allow reduction, got {}",
            report.vpass_after
        );
        assert!(report.reduction() > 0.005 && report.reduction() < 0.08, "{}", report.reduction());
        // Invariant: final zeros within margin.
        assert!(report.passthrough_zeros <= report.margin);
        assert_eq!(chip.block_vpass(0).unwrap(), report.vpass_after);
    }

    #[test]
    fn reduction_shrinks_with_wear() {
        let reduction_at = |pe: u64| -> f64 {
            let mut total = 0.0;
            for seed in 0..3 {
                let mut chip = chip_at(pe, 100 + seed);
                let mut tuner = VpassTuner::new(VpassTunerConfig::default());
                tuner.manufacture_init(&mut chip, 0).unwrap();
                total += tuner.tune_block(&mut chip, 0).unwrap().reduction();
            }
            total / 3.0
        };
        let young = reduction_at(2_000);
        let worn = reduction_at(12_000);
        assert!(young >= worn, "young blocks must tune at least as deep: {young} vs {worn}");
    }

    #[test]
    fn exhausted_margin_falls_back_to_nominal() {
        // Drive the block near end of life: errors eat the usable capability.
        let mut chip = chip_at(15_000, 9);
        chip.advance_days(12.0);
        chip.apply_read_disturbs(0, 80_000).unwrap();
        let mut tuner = VpassTuner::new(VpassTunerConfig::default());
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let report = tuner.tune_block(&mut chip, 0).unwrap();
        assert!(report.fell_back, "expected fallback, margin = {}", report.margin);
        assert_eq!(report.vpass_after, NOMINAL_VPASS);
        assert_eq!(tuner.stats().fallbacks, 1);
    }

    #[test]
    fn daily_check_raises_vpass_as_errors_accumulate() {
        // Moderate wear: at 8K+ P/E the worst-page MEE alone exhausts the
        // usable capability of these (real-chip-sized) pages, which is the
        // fallback regime tested separately.
        let mut chip = chip_at(5_000, 21);
        let mut tuner = VpassTuner::new(VpassTunerConfig::default());
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let t0 = tuner.tune_block(&mut chip, 0).unwrap();
        assert!(t0.vpass_after < NOMINAL_VPASS);
        // A week of retention plus heavy reads shrink the margin.
        chip.advance_days(10.0);
        chip.apply_read_disturbs(0, 60_000).unwrap();
        let t1 = tuner.daily_check(&mut chip, 0).unwrap();
        assert!(
            t1.vpass_after >= t0.vpass_after,
            "check must not lower: {} -> {}",
            t0.vpass_after,
            t1.vpass_after
        );
        assert!(t1.passthrough_zeros <= t1.margin || t1.fell_back);
    }

    #[test]
    fn probe_reads_are_accounted() {
        let mut chip = chip_at(4_000, 2);
        let mut tuner = VpassTuner::new(VpassTunerConfig::default());
        tuner.manufacture_init(&mut chip, 0).unwrap();
        let report = tuner.tune_block(&mut chip, 0).unwrap();
        assert!(report.probe_reads >= 2, "at least MEE + one step");
        let stats = tuner.stats();
        assert_eq!(stats.tunings, 1);
        assert!(stats.probe_reads >= report.probe_reads);
    }
}
