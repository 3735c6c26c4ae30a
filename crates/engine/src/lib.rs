//! # rd-engine — multi-channel/multi-die SSD engine
//!
//! The paper evaluates its mitigations against real SSDs serving sustained
//! read traffic; this crate provides the missing SSD-scale layer over the
//! single-die substrate. It stripes a logical address space across
//! `channels × dies_per_channel` flash dies (each a full [`rd_ftl::Die`]:
//! chip + FTL + GC + refresh + mitigation policy): [`Engine::submit`] appends
//! each request to its die's work list, and [`Engine::run`] runs every list
//! as one batch and posts completions in simulated-time order. The engine
//! advances a discrete-event clock with per-command latencies ([`Timing`]:
//! tR, tPROG, tBERS, channel transfer), and replays [`rd_workloads`] traces
//! across dies in parallel with deterministic per-die seeding. The engine
//! owns no thread: a batch runs its dies inline, or on scoped lanes that
//! end before the call that launched them returns, and its results are
//! bit-identical for any lane count. Request latencies go into one
//! bounded, mergeable [`LatencyHistogram`] (the same type rd-serve keeps per
//! tenant), so the engine's latency state and its checkpoint stay the same
//! size however many requests it serves.
//!
//! ```
//! use rd_engine::{Engine, EngineConfig};
//!
//! # fn main() -> Result<(), rd_ftl::FtlError> {
//! let mut engine = Engine::new(EngineConfig::small_test())?; // 2 ch × 2 dies
//! let id = engine.submit_write(3);
//! engine.submit_read(3);
//! engine.run(2); // flash phase on 2 scoped lanes, then timing phase
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

mod engine;
// The engine runs no pool; `WorkerPool` stays public only until the
// benchmark's round-trip probe stops naming it (ROADMAP item 1(k)).
#[expect(dead_code, reason = "the engine no longer asks a pool its size")]
mod pool;
mod queue;
mod stats;
mod timing;
mod topology;

pub use engine::{Engine, EngineConfig, EngineStageNs, FastDiv, ENGINE_SNAP_MAGIC};
pub use pool::WorkerPool;
pub use queue::{CompletionSummary, IoCompletion, Outcome, OutcomeClass, ReqKind};
pub use rd_ftl::wire;
pub use rd_ftl::SnapError;
// Re-export: the per-die read-path fidelity knob (see `rd_flash::fidelity`).
pub use rd_ftl::ReadFidelity;
pub use rd_ftl::{fnv1a, fold_page, fold_word, FNV_OFFSET};
pub use stats::{DieStats, EngineStats, LatencyHistogram};
pub use timing::Timing;
pub use topology::Topology;
