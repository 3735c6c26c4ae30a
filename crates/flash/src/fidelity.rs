//! Read-path fidelity tiers.
//!
//! The simulator serves two kinds of questions with very different cost
//! profiles:
//!
//! * **Characterization** (Figs. 2–6, 10, RDR recovery) needs per-cell
//!   threshold voltages — Vth histograms, read-retry sweeps, per-cell
//!   disturb susceptibility. Only the Monte-Carlo cell model can answer
//!   these, at O(cells) per page read.
//! * **SSD-scale evaluation** (sustained-traffic replay, mitigation
//!   lifetime comparisons) only needs statistically faithful per-page
//!   error counts. The closed-form [`crate::analytic`] model — already
//!   calibrated against the Monte-Carlo chip by the calibration suite —
//!   answers these at O(errors) per page read.
//!
//! [`ReadFidelity`] selects the tier a `Chip` is built with (via
//! [`crate::params::ChipParams::fidelity`]); the knob threads unchanged through
//! `rd_ftl::SsdConfig` → `rd_ftl::Die` → `rd_engine::EngineConfig`.
//!
//! # Tier contract
//!
//! | Operation | `CellExact` | `PageAnalytic` | `BlockAggregate` |
//! |---|---|---|---|
//! | `read_page`, `program_page`, `erase`, refresh | per-cell Monte-Carlo | sampled from the analytic model | cached per-block summary, sampled only near events |
//! | `block_rber` / `wordline_rber` | per-cell oracle | closed-form expectation | closed-form expectation (block-level) |
//! | disturb accounting | per-read dose updates | fold-free per-block accumulator plus a per-wordline adjustment (slope applied at read time) | fold-free per-block accumulator (slope applied at read time) |
//! | `ReadReclaim`, Vpass Tuning, refresh policies | exact | fully supported (counter/probe driven) | fully supported (counter/probe driven) |
//! | read-retry sweeps (`read_retry`) | exact | sampled at the shifted reference | sampled at the shifted reference |
//! | page payloads (`intended_page_bits`, read data) | exact bytes | exact bytes | empty (error counts only) |
//! | Vth histograms, RDR, per-cell oracles | exact | `FlashError::FidelityUnsupported` | `FlashError::FidelityUnsupported` |
//!
//! `CellExact` is the default everywhere and is bit-for-bit identical to
//! the behaviour before the tier existed (the golden-run suite enforces
//! this). `PageAnalytic` is deterministic per seed and bit-identical for
//! any engine worker-thread count, but produces a *different* (sampled)
//! error stream than `CellExact` by construction. `BlockAggregate` shares
//! those determinism guarantees, and serves a host read without touching
//! the RNG while the block's expected errors sit more than a 6-sigma +
//! 2-bit band under the page's ECC capability. With a capability of 2 bits
//! or fewer (`SsdConfig::small_test` pages, the fleet's drives) that band
//! is always open and every read samples — through a zero-error screen that
//! settles most small-mean reads from their one uniform without the
//! binomial's `ln_1p`/`exp` — and a write-heavy run's GC relocation reads
//! settle every block they rewrite, from a per-die memo of the closed form
//! when another block already stood at the same (P/E, age, Vpass).

/// Fidelity tier of a chip's read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadFidelity {
    /// Per-cell Monte-Carlo simulation (the default): every read evaluates
    /// each cell's threshold voltage. Exact, supports every characterization
    /// oracle, O(cells) per page read.
    #[default]
    CellExact,
    /// Closed-form analytic error model: reads sample an error count and
    /// error positions from the calibrated RBER model (per-block P/E,
    /// read-disturb dose, retention age, and Vpass as inputs) using the
    /// chip's seeded RNG. The same per-block closed-form state as
    /// [`ReadFidelity::BlockAggregate`], plus page lanes: stored payloads,
    /// and a fold-free per-wordline disturb adjustment so a hammered
    /// wordline's neighbours err more than the rest. Reads never
    /// fast-forward. Statistically faithful, O(errors) per page read;
    /// per-cell oracles are unavailable.
    PageAnalytic,
    /// Event-driven per-block aggregate model: a block's error state is a
    /// closed-form function of (reads-since-erase, P/E count, retention
    /// time, Vpass), advanced lazily. Host reads that cannot change the
    /// ECC outcome are served from a precomputed per-block error summary
    /// without touching the RNG; error samples are materialized only at
    /// the *fast-forward events*:
    ///
    /// * **ECC-margin crossings**, computed analytically — the block's
    ///   expected error count approaches the decoder's correction
    ///   capability (the chip learns the margin via
    ///   `Chip::set_read_margin`);
    /// * **Vpass changes** (`Chip::set_block_vpass`) — any
    ///   relaxed pass-through voltage makes blocked-bitline sensing
    ///   probabilistic, so reads sample live from then on;
    /// * **policy probes** at relaxed Vpass (Vpass Tuning's
    ///   blocked-bitline zero counting) — served by the same live path;
    /// * **recovery-ladder entry** (`Chip::read_retry`) — retry
    ///   reads at shifted references are always sampled so escalation
    ///   behaves like the other tiers;
    /// * **bulk disturb / retention / wear updates**
    ///   (`apply_read_disturbs`, `advance_days`, erase, program) — the
    ///   cached summary is invalidated and recomputed at the next read.
    ///
    /// Between events a read costs O(1) with no RNG draw and no payload
    /// allocation. A page ECC capability of 2 bits or fewer is inside the
    /// margin band from the first read, so there every read samples, most
    /// of them settled by a zero-error screen on their one uniform. Read
    /// payloads are empty at this tier — only error counts and
    /// blocked-bitline counts are modeled.
    BlockAggregate,
}

impl ReadFidelity {
    /// Stable lowercase identifier (used in benchmark JSON rows and CLI
    /// arguments).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ReadFidelity::CellExact => "cell-exact",
            ReadFidelity::PageAnalytic => "page-analytic",
            ReadFidelity::BlockAggregate => "block-aggregate",
        }
    }

    /// The tier's byte in checkpoints and configuration fingerprints.
    pub fn tag(self) -> u8 {
        match self {
            ReadFidelity::CellExact => 0,
            ReadFidelity::PageAnalytic => 1,
            ReadFidelity::BlockAggregate => 2,
        }
    }

    /// The tier a checkpoint byte names, `None` for an unknown one.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ReadFidelity::CellExact),
            1 => Some(ReadFidelity::PageAnalytic),
            2 => Some(ReadFidelity::BlockAggregate),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReadFidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ReadFidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cell-exact" | "exact" => Ok(ReadFidelity::CellExact),
            "page-analytic" | "analytic" => Ok(ReadFidelity::PageAnalytic),
            "block-aggregate" | "aggregate" => Ok(ReadFidelity::BlockAggregate),
            other => Err(format!("unknown fidelity tier: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_cell_exact() {
        assert_eq!(ReadFidelity::default(), ReadFidelity::CellExact);
    }

    #[test]
    fn round_trips_through_strings() {
        for tier in
            [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate]
        {
            assert_eq!(tier.as_str().parse::<ReadFidelity>().unwrap(), tier);
            assert_eq!(tier.to_string(), tier.as_str());
            assert_eq!(ReadFidelity::from_tag(tier.tag()), Some(tier));
        }
        assert_eq!("analytic".parse::<ReadFidelity>().unwrap(), ReadFidelity::PageAnalytic);
        assert_eq!("aggregate".parse::<ReadFidelity>().unwrap(), ReadFidelity::BlockAggregate);
        assert!("mlc".parse::<ReadFidelity>().is_err());
        assert_eq!(ReadFidelity::from_tag(3), None);
    }
}
