//! # rd-fleet — fleet-scale lifetime simulation with checkpoint/restore
//!
//! The paper characterizes read-disturb on one chip family; operators care
//! about what that physics does to a *population* of drives over years of
//! service. This crate drives N varied drives (each a full
//! [`rd_engine::Engine`]: channels × dies of chip + FTL + policy) through
//! epoch-granular lifetime phases — host traffic burst, retention dwell,
//! refresh/relocation background work, endurance-based replacement — and
//! aggregates fleet UBER, refresh amplification, and drive-replacement
//! curves into self-describing JSON rows.
//!
//! Two properties make multi-year trajectories practical:
//!
//! - **Determinism**: everything derives from the fleet seed. The same
//!   [`FleetConfig`] yields bit-identical rows at any worker-thread count;
//!   `threads` is how many drives advance concurrently, each replayed
//!   inline on its worker.
//! - **Checkpoint/restore**: [`Fleet::snapshot`] serializes the whole
//!   fleet (config included) into one versioned, CRC-guarded container
//!   built on [`rd_ftl::wire`]; [`Fleet::restore`] resumes it
//!   bit-identically to a run that never stopped. Long trajectories
//!   survive preemption, and mid-life fixtures can be committed and
//!   replayed in CI.
//!
//! ```
//! use rd_fleet::{Fleet, FleetConfig};
//!
//! let mut cfg = FleetConfig::quick();
//! cfg.drives = 2;
//! cfg.ops_per_epoch = 1_000;
//! let mut fleet = Fleet::new(cfg).unwrap();
//! let rows = fleet.run(2, 1, |_| {});
//! let snap = fleet.snapshot().unwrap();
//! let resumed = Fleet::restore(&snap).unwrap();
//! assert_eq!(resumed.row(), rows[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod variation;

pub use fleet::{Fleet, FleetConfig, FleetRow, FLEET_SNAP_MAGIC, FLEET_SNAP_VERSION};
pub use variation::{drive_seed, sample_drive, traffic_seed, DriveVariation, VariationSpread};

// Re-exports so fleet callers name engine/ftl types without extra deps.
pub use rd_engine::{Engine, EngineConfig, ReadFidelity, SnapError};
