//! SSD configuration.

use rd_flash::{ChipParams, Geometry, ReadFidelity};

use crate::mapping::MAX_PHYSICAL_PAGES;

/// Configuration of the simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Name of the chip-database entry `chip_params` came from (see
    /// [`rd_flash::chips`]). Purely a label — `chip_params` stays the
    /// authoritative model — used by fleet snapshots and bench artifact
    /// rows so per-chip results never collide. Construct via
    /// [`SsdConfig::with_chip`] to keep the label and parameters in sync.
    pub chip: String,
    /// Flash chip geometry.
    pub geometry: Geometry,
    /// Flash model parameters.
    pub chip_params: ChipParams,
    /// Fraction of physical capacity hidden from the host (over-provisioning
    /// for garbage collection headroom). Typical consumer SSDs: ~7%.
    pub overprovision: f64,
    /// Garbage collection starts when free blocks fall to this count.
    pub gc_free_threshold: u32,
    /// Remapping-based refresh interval in days (the paper assumes 7).
    pub refresh_interval_days: f64,
    /// ECC capability line: the provisioned tolerable RBER (paper: 1e-3).
    pub ecc_capability_rber: f64,
    /// Chip RNG seed (full determinism).
    pub seed: u64,
}

impl SsdConfig {
    /// A small configuration for tests and examples: fast to simulate but
    /// with every mechanism active.
    pub fn small_test() -> Self {
        Self {
            chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry {
                blocks: 16,
                wordlines_per_block: 8,
                bitlines: 1024,
                bits_per_cell: 2,
            },
            chip_params: ChipParams::default(),
            overprovision: 0.20,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: 2.0e-3, // small pages need a coarser line
            seed: 7,
        }
    }

    /// The per-die shape the engine-scale suites share (integration parity
    /// test, `engine_replay` example, the benchmark's arrays): large
    /// enough for realistic GC/ECC behaviour, small enough to replay
    /// 100k-op traces quickly.
    pub fn engine_scale(seed: u64) -> Self {
        Self {
            chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry {
                blocks: 16,
                wordlines_per_block: 8,
                bitlines: 2048,
                bits_per_cell: 2,
            },
            chip_params: ChipParams::default(),
            overprovision: 0.25,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: 2.0e-3,
            seed,
        }
    }

    /// The read-path fidelity tier the die's chip is built at (carried by
    /// [`ChipParams::fidelity`]; [`ReadFidelity::CellExact`] by default).
    pub fn fidelity(&self) -> ReadFidelity {
        self.chip_params.fidelity
    }

    /// Returns the configuration with the chip built at `fidelity` —
    /// [`ReadFidelity::PageAnalytic`] swaps the per-cell Monte-Carlo read
    /// path for the sampled closed-form model (SSD-scale replay tier).
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: ReadFidelity) -> Self {
        self.chip_params.fidelity = fidelity;
        self
    }

    /// Returns the configuration rebuilt around a named chip-database
    /// entry: flash parameters (including the part's default fidelity tier
    /// and read-retry ranges), the geometry's bits-per-cell, and the
    /// part's provisioned ECC capability line all come from the database.
    /// Geometry shape (blocks, wordlines, bitlines), GC/refresh settings,
    /// and the seed are kept.
    ///
    /// # Errors
    ///
    /// Returns an error naming the valid chips if `name` is not in the
    /// database.
    pub fn with_chip(mut self, name: &str) -> Result<Self, String> {
        let spec = rd_flash::chips::get(name).ok_or_else(|| {
            format!("unknown chip `{name}` (database has: {})", rd_flash::chips::names().join(", "))
        })?;
        self.chip = spec.name.to_string();
        self.geometry.bits_per_cell = spec.params.bits_per_cell();
        self.chip_params = spec.params;
        self.ecc_capability_rber = spec.ecc_capability_rber;
        Ok(self)
    }

    /// Number of logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        let physical = self.geometry.blocks as u64 * self.geometry.pages_per_block() as u64;
        ((physical as f64) * (1.0 - self.overprovision)).floor() as u64
    }

    /// ECC capability per page in bit errors ([`rd_ecc::page_capability`]).
    pub fn page_capability(&self) -> u64 {
        rd_ecc::page_capability(self.geometry.bits_per_page(), self.ecc_capability_rber)
    }

    /// Checks the configuration: the chip parameters
    /// ([`ChipParams::check`]), their agreement with the geometry — what
    /// [`rd_flash::Chip::new`] asserts — and the FTL's own limits (die size,
    /// capacity, GC headroom, ECC capability). This is the gate for
    /// configurations that arrive from outside the program (command-line
    /// flags, decoded checkpoints).
    ///
    /// # Errors
    ///
    /// Names the first impossible value.
    pub fn check(&self) -> Result<(), String> {
        self.chip_params.check()?;
        let g = &self.geometry;
        if g.bits_per_cell != self.chip_params.bits_per_cell() {
            return Err(format!(
                "geometry bits_per_cell {} disagrees with the chip parameters' {} states",
                g.bits_per_cell,
                self.chip_params.n_states()
            ));
        }
        // Before anything below multiplies them out: the page count of a
        // block must fit `u32`, and the die's the page map's packed entries.
        let pages = g.wordlines_per_block.checked_mul(g.bits_per_cell).ok_or_else(|| {
            format!(
                "pages per block ({} wordlines x {} bits per cell) overflow u32",
                g.wordlines_per_block, g.bits_per_cell
            )
        })?;
        let physical = u64::from(g.blocks) * u64::from(pages);
        if physical > MAX_PHYSICAL_PAGES {
            return Err(format!(
                "{physical} physical pages per die exceed the page map's {MAX_PHYSICAL_PAGES}"
            ));
        }
        for (ok, what) in [
            (g.blocks >= 4, "need at least 4 blocks per die"),
            (g.wordlines_per_block > 0, "blocks need wordlines"),
            (g.bitlines.is_multiple_of(8), "bitlines must be a multiple of 8"),
            ((0.01..0.9).contains(&self.overprovision), "overprovision must be in (0.01, 0.9)"),
            (self.gc_free_threshold >= 1, "gc_free_threshold must be at least 1"),
            (self.refresh_interval_days > 0.0, "refresh_interval_days must be positive"),
            (self.page_capability() >= 1, "page ECC capability is zero"),
            (self.logical_pages() > 0, "die exports no logical pages"),
        ] {
            if !ok {
                return Err(what.into());
            }
        }
        Ok(())
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self {
            chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry::standard(),
            chip_params: ChipParams::default(),
            overprovision: 0.07,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: 1.0e-3,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(SsdConfig::default().check(), Ok(()));
        assert_eq!(SsdConfig::small_test().check(), Ok(()));
    }

    #[test]
    fn oversized_dies_are_typed_errors() {
        // 2^31 wordlines x 2 bits per cell wraps `pages_per_block` to 0.
        let mut wraps = SsdConfig::small_test();
        wraps.geometry.wordlines_per_block = 1 << 31;
        assert!(wraps.check().unwrap_err().contains("overflow u32"));
        // 2^16 blocks x 2^16 pages = 2^32: two pages more than the packed
        // map addresses, and no wrap on the way to finding out.
        let mut large = SsdConfig::small_test();
        large.geometry.blocks = 1 << 16;
        large.geometry.wordlines_per_block = 1 << 15;
        assert!(large.check().unwrap_err().contains("exceed the page map"));
        // One block fewer fits, passes this row and fails none after it.
        large.geometry.blocks = (1 << 16) - 1;
        assert_eq!(large.check(), Ok(()));
    }

    #[test]
    fn logical_capacity_below_physical() {
        let c = SsdConfig::small_test();
        let physical = c.geometry.blocks as u64 * c.geometry.pages_per_block() as u64;
        assert!(c.logical_pages() < physical);
        assert!(c.logical_pages() > physical / 2);
    }

    #[test]
    fn fidelity_defaults_exact_and_threads_to_chip_params() {
        let c = SsdConfig::small_test();
        assert_eq!(c.fidelity(), ReadFidelity::CellExact);
        let a = c.with_fidelity(ReadFidelity::PageAnalytic);
        assert_eq!(a.fidelity(), ReadFidelity::PageAnalytic);
        assert_eq!(a.chip_params.fidelity, ReadFidelity::PageAnalytic);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn page_capability_scales_with_page_size() {
        let mut c = SsdConfig::default();
        let base = c.page_capability();
        c.geometry.bitlines *= 2;
        assert_eq!(c.page_capability(), base * 2);
    }
}
