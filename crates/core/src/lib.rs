//! # rd-core — Read Disturb Recovery, characterization and evaluation
//!
//! The offline half of *Read Disturb Errors in MLC NAND Flash Memory:
//! Characterization, Mitigation, and Recovery* (Cai et al., DSN 2015),
//! implemented against the `rd-flash` device substrate. The paper's
//! mitigation, Vpass Tuning (§3), is a controller mechanism and lives in
//! `rd-ftl` as the controller policy [`rd_ftl::VpassTuner`]; this crate
//! re-exports it.
//!
//! * [`Rdr`] — the paper's recovery (§4–5): after ECC fails, induce
//!   additional read disturbs, classify cells as disturb-prone or
//!   disturb-resistant by their measured threshold-voltage shift against
//!   `ΔVref`, and probabilistically reassign boundary cells (prone → lower
//!   state, resistant → higher state) to pull the error count back inside
//!   the ECC capability. Reproduces Fig. 10's up-to-36% RBER reduction.
//! * [`Ror`] and [`Rfr`] — read-reference optimization and Retention
//!   Failure Recovery, also as rungs of the controller's recovery ladder
//!   (`recovery`).
//! * [`characterize`] — the experiment harness regenerating every
//!   characterization figure (Figs. 2–7, 10).
//! * [`lifetime`] — the analytic endurance evaluator over the
//!   `rd-workloads` suite (Fig. 8's +21% average endurance from Vpass
//!   Tuning).
//! * [`overhead`] — Vpass Tuning's storage and latency cost accounting
//!   (128 KB metadata and ≈24 s/day for a 512 GB SSD, §3).
//!
//! ```
//! use rd_core::lifetime::EnduranceEvaluator;
//! use rd_core::{EnduranceConfig, Mitigation};
//! use rd_workloads::WorkloadProfile;
//!
//! let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
//! let profile = &WorkloadProfile::suite()[0];
//! let baseline = evaluator.endurance(profile, Mitigation::Baseline);
//! let tuned = evaluator.endurance(profile, Mitigation::VpassTuning);
//! assert!(tuned >= baseline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
mod error;
pub mod lifetime;
pub mod overhead;
pub mod rdr;
mod recovery;
mod rfr;
mod ror;

pub use error::CoreError;
pub use lifetime::{EnduranceConfig, EnduranceResult, Mitigation};
pub use rd_ftl::{TuneReport, VpassTuner, VpassTunerConfig};
pub use rdr::{Rdr, RdrConfig};
pub use recovery::{full_recovery_ladder, RfrRecoveryStep, RorRecoveryStep};
pub use rfr::{Rfr, RfrConfig, RfrOutcome};
pub use ror::{Ror, RorConfig, RorOutcome};

/// The tuner's former wrapper name, kept for the benchmark, which names it.
pub type VpassTuningPolicy = VpassTuner;
