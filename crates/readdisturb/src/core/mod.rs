//! The paper's offline experiments, over the mechanisms of the layers
//! below:
//!
//! * [`characterize`] — the experiment harness regenerating every
//!   characterization figure (Figs. 2–7, 10);
//! * [`lifetime`] — the analytic endurance evaluator over the
//!   `rd-workloads` suite (Fig. 8's +21% average endurance from Vpass
//!   Tuning);
//! * [`overhead`] — Vpass Tuning's storage and latency cost accounting
//!   (128 KB metadata and ≈24 s/day for a 512 GB SSD, §3).
//!
//! The mechanisms they drive ([`Rdr`], [`full_recovery_ladder`],
//! [`VpassTuner`]) are controller code in [`crate::ftl`]; this module
//! re-exports the ones the repository benchmark names here.
//!
//! ```
//! use readdisturb::core::lifetime::{EnduranceConfig, EnduranceEvaluator, Mitigation};
//! use readdisturb::workloads::WorkloadProfile;
//!
//! let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
//! let profile = &WorkloadProfile::suite()[0];
//! let baseline = evaluator.endurance(profile, Mitigation::Baseline);
//! let tuned = evaluator.endurance(profile, Mitigation::VpassTuning);
//! assert!(tuned >= baseline);
//! ```

pub use rd_ftl::{full_recovery_ladder, Rdr, VpassTuner, VpassTunerConfig};

/// The tuner's former wrapper name, kept for the benchmark, which names it.
pub type VpassTuningPolicy = VpassTuner;

/// Characterization harness: the data series behind Figs. 2–8 and 10.
pub mod characterize {
    pub use crate::characterize::*;
}

/// Endurance evaluation (Fig. 8), with and without Vpass Tuning.
pub mod lifetime {
    pub use crate::lifetime::*;
}

/// Vpass Tuning's storage and latency overheads (§3).
pub mod overhead {
    pub use crate::overhead::*;
}
