//! # rd-serve — sharded async multi-tenant front-end over the SSD array
//!
//! The paper's mitigations are evaluated against devices serving sustained
//! read traffic; `rd-serve` provides that serving layer at array scale. It
//! splits the [`rd_engine`] SSD array into per-channel-group **shards**
//! (one engine + worker thread each, no shared flash state), accepts
//! asynchronously submitted batches from N concurrent **tenants** (each
//! with its own Zipf working set and bursty open-loop arrival process),
//! and reports per-tenant latency percentiles and UBER on top of the
//! engine's array-wide statistics.
//!
//! The correctness anchor is **digest parity**: sharding, batching, and
//! multi-tenant interleaving must not change what lands on the flash. For
//! any trace and seed, a sharded service run produces a data digest
//! bit-identical to a monolithic single-engine batch replay of the same op
//! sequence — see [`ShardPlan`] for the routing/seeding invariants and
//! `EngineStats::merge_shards` for the digest fold.
//!
//! ```
//! use rd_serve::{ServeConfig, Service, TenantConfig};
//!
//! # fn main() -> Result<(), rd_ftl::FtlError> {
//! let tenants = vec![
//!     TenantConfig::new("web", "umass-web", 4000.0),
//!     TenantConfig::new("mail", "postmark", 1000.0),
//! ];
//! let mut service = Service::start(ServeConfig::small_test(), tenants)?;
//! let mut traffic = service.traffic(42);
//! let report = service.run_traffic(&mut traffic, 2000);
//! assert_eq!(report.stats.ops, 2000);
//! assert_eq!(report.tenants.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
pub mod cli;
pub mod repl;
mod service;
mod shard;
mod tenant;

pub use accounting::{TenantAccounting, TenantSummary};
pub use service::{ServeConfig, Service, ServiceReport, ServiceStageNs};
pub use shard::ShardPlan;
pub use tenant::{ServiceOp, TenantConfig, Traffic};
