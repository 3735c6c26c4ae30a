//! # rd-engine — multi-channel/multi-die SSD engine
//!
//! The paper evaluates its mitigations against real SSDs serving sustained
//! read traffic; this crate provides the missing SSD-scale layer over the
//! single-die substrate. It stripes a logical address space across
//! `channels × dies_per_channel` flash dies (each a full [`rd_ftl::Die`]:
//! chip + FTL + GC + refresh + mitigation policy): [`Engine::submit`] appends
//! each request to its die's work list, a launched batch runs every list
//! and posts completions in simulated-time order. The engine advances a
//! discrete-event clock with per-command latencies ([`Timing`]: tR, tPROG,
//! tBERS, channel transfer), and replays [`rd_workloads`] traces across dies
//! in parallel with deterministic per-die seeding — the flash phase is
//! bit-identical for any worker-thread count.
//!
//! ```
//! use rd_engine::{Engine, EngineConfig};
//!
//! # fn main() -> Result<(), rd_ftl::FtlError> {
//! let mut engine = Engine::new(EngineConfig::small_test())?; // 2 ch × 2 dies
//! let id = engine.submit_write(3);
//! engine.submit_read(3);
//! engine.run(2); // flash phase on 2 worker threads, then timing phase
//! let mut completions = Vec::new();
//! engine.drain_completions_into(&mut completions);
//! let [write, read] = &completions[..] else { panic!("two completions") };
//! assert_eq!(write.id, id);
//! assert!(read.result.is_ok() && read.complete_us > write.complete_us);
//! assert!(engine.stats().iops() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod pool;
pub mod queue;
pub mod stats;
pub mod timing;
pub mod topology;

pub use engine::{Engine, EngineConfig, EngineStageNs, FastDiv, ENGINE_SNAP_MAGIC};
pub use pool::{PoolHandle, WorkerPool};
pub use queue::{CompletionSummary, IoCompletion, Outcome, OutcomeClass, ReqKind};
pub use rd_ftl::wire;
pub use rd_ftl::SnapError;
// Re-export: the per-die read-path fidelity knob (see `rd_flash::fidelity`).
pub use rd_ftl::ReadFidelity;
pub use stats::{fnv1a, fold_page, percentiles_50_99, DieStats, EngineStats, FNV_OFFSET};
pub use timing::Timing;
pub use topology::Topology;
