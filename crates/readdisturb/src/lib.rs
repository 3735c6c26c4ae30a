//! # readdisturb — reproduction of "Read Disturb Errors in MLC NAND Flash
//! # Memory: Characterization, Mitigation, and Recovery" (DSN 2015)
//!
//! This facade crate re-exports the full system and holds its offline
//! experiments:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`flash`] | cell-accurate MLC NAND simulator: Vth distributions, P/E cycling, retention, read disturb, pass-through errors |
//! | [`ecc`] | GF(2^m) + BCH codec, threshold ECC model, the paper's margin arithmetic |
//! | [`ftl`] | SSD substrate: page-mapped FTL, GC, wear leveling, 7-day refresh, read reclaim, the paper's mitigation, Vpass Tuning, as a controller policy, and its recovery — RDR, ROR and RFR — beside the recovery ladder |
//! | [`engine`] | multi-channel/multi-die SSD engine: request scheduling, die-level timing, parallel trace replay |
//! | [`workloads`] | synthetic trace generators modelled on the paper's trace families |
//! | [`serve`] | sharded async multi-tenant serving front-end over the engine |
//! | [`fleet`] | fleet-scale lifetime simulation: varied drives, epoch phases, versioned checkpoint/restore |
//! | [`core`] | **the paper's offline experiments** (a module, not a crate): the characterization harness, the endurance evaluator and overheads |
//!
//! ## Quickstart
//!
//! ```
//! use readdisturb::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A worn block accumulating read disturb...
//! let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 1);
//! chip.cycle_block(0, 8_000)?;
//! chip.program_block_random(0, 2)?;
//! chip.apply_read_disturbs(0, 100_000)?;
//! let before = chip.block_rber(0)?.rate();
//!
//! // ...is mitigated by tuning its pass-through voltage within the unused
//! // ECC margin (paper §3).
//! let mut tuner = VpassTuner::new(VpassTunerConfig::default());
//! tuner.manufacture_init(&mut chip, 0)?;
//! let report = tuner.tune_block(&mut chip, 0)?;
//! assert!(report.vpass_after <= NOMINAL_VPASS);
//! assert!(before < 1.0); // toy assertion to use the value
//! # Ok(())
//! # }
//! ```
//!
//! See the repository `README.md` for the system inventory and the
//! baseline tables in `benchmark/README.md` for the paper-vs-measured
//! errors (`core.*_err`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The experiments are `core`'s files, declared here at the root so that
// their unit tests keep the paths `characterize::tests::…` and so on.
#[path = "core/characterize.rs"]
mod characterize;
#[path = "core/lifetime.rs"]
mod lifetime;
#[path = "core/overhead.rs"]
mod overhead;

pub mod core;

/// BCH and threshold ECC.
pub use rd_ecc as ecc;
/// The multi-channel/multi-die SSD engine.
pub use rd_engine as engine;
/// The flash device simulator.
pub use rd_flash as flash;
/// Fleet-scale lifetime simulation with checkpoint/restore.
pub use rd_fleet as fleet;
/// The SSD/FTL substrate.
pub use rd_ftl as ftl;
/// Sharded multi-tenant serving front-end.
pub use rd_serve as serve;
/// Synthetic workload generators.
pub use rd_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::lifetime::Mitigation;
    pub use rd_ecc::{BchCode, MarginPolicy, PageEccModel, ThresholdEcc};
    pub use rd_engine::{Engine, EngineConfig, EngineStats, ReqKind, Timing, Topology};
    pub use rd_flash::{
        AnalyticModel, BitErrorStats, CellState, Chip, ChipParams, Geometry, ReadFidelity,
        VoltageRefs, NOMINAL_VPASS,
    };
    pub use rd_fleet::{Fleet, FleetConfig, FleetRow, VariationSpread};
    pub use rd_ftl::{
        full_recovery_ladder, ControllerPolicy, NoMitigation, Rdr, RdrConfig, ReadReclaim,
        ReadResolution, RecoveryLadder, RecoveryStep, Rfr, RfrConfig, RfrRecoveryStep, Ror,
        RorConfig, RorRecoveryStep, SsdConfig, TuneReport, VpassTuner, VpassTunerConfig,
    };
    pub use rd_serve::{ServeConfig, Service, ShardPlan, TenantConfig, Traffic};
    pub use rd_workloads::{TraceGenerator, TraceStats, WorkloadProfile};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_layers() {
        // Compile-time checks that the re-exports resolve.
        let _ = crate::flash::Geometry::small();
        let _ = crate::ecc::MarginPolicy::paper_default();
        let _ = crate::workloads::WorkloadProfile::suite();
        let _ = crate::ftl::RdrConfig::default();
        let _ = crate::engine::EngineConfig::small_test();
        let _ = crate::fleet::FleetConfig::quick();
        let _ = crate::serve::ServeConfig::small_test();
    }
}
