//! # rd-workloads — synthetic storage workloads for endurance evaluation
//!
//! The paper evaluates Vpass Tuning "with I/O traces collected from a wide
//! range of real workloads with different use cases \[38, 43, 65, 83, 89\]"
//! (Postmark, FIU I/O-dedup, MSR write-offloading, SNIA Cello99, UMass).
//! Those traces are not redistributable, so this crate provides synthetic
//! generators with matched aggregate statistics — the quantities the
//! endurance result actually depends on:
//!
//! * the **read/write mix** and daily operation volume;
//! * the **read locality**: contemporary workloads concentrate reads on few
//!   blocks with high temporal locality (paper §1, citing \[65, 89\]), modelled
//!   as a Zipfian block-popularity distribution;
//! * the **footprint** over which operations spread.
//!
//! From these, the per-refresh-interval read pressure on the hottest flash
//! block — the quantity that gates read-disturb-limited endurance — is both
//! analytically available ([`WorkloadProfile::hottest_block_reads_per_interval`])
//! and reproduced by the op-by-op generator ([`TraceGenerator`]).
//!
//! ```
//! use rd_workloads::WorkloadProfile;
//!
//! let suite = WorkloadProfile::suite();
//! assert!(suite.len() >= 10);
//! let postmark = WorkloadProfile::by_name("postmark").unwrap();
//! let trace: Vec<_> = postmark.generator(42, 256).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod stats;
mod trace;
mod zipf;

pub use profile::WorkloadProfile;
pub use stats::TraceStats;
pub use trace::{OpKind, TraceGenerator, TraceOp};
pub use zipf::ZipfSampler;
