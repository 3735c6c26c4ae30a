//! # rd-ftl — SSD substrate: flash translation layer over the simulated chip
//!
//! The paper's mechanisms live inside a flash controller; this crate builds
//! the controller substrate around [`rd_flash::Chip`]:
//!
//! * a page-mapped **flash translation layer** (logical page → physical
//!   page, out-of-place writes, invalidation);
//! * greedy **garbage collection** with implicit wear-leveling allocation;
//! * **remapping-based refresh** on the paper's assumed 7-day interval
//!   (§3: "the refresh interval");
//! * the **read reclaim** baseline mitigation — remap a block's data after a
//!   fixed read count (paper §5: Yaffs-style, \[29\]);
//! * the **controller read pipeline** — every host read runs through the
//!   ECC decode ([`rd_ecc::PageEccModel`]) and, on uncorrectable pages,
//!   escalates through a pluggable [`RecoveryLadder`] (read-retry sweep,
//!   RFR-style disturb-aware re-read) before declaring loss, returning a
//!   typed [`ReadResolution`];
//! * a two-hook [`ControllerPolicy`] — `on_read(chip, block)` after every
//!   decoded host read, `on_tick(ctx)` once per simulated day — through
//!   which `rd-core` plugs Vpass Tuning into the same controller; a
//!   policy's actions and probe reads are counted and charged to the
//!   engine clock.
//!
//! The per-die controller state lives in [`Die`]; [`Ssd`] is the name of
//! one die used on its own and the multi-die engine (`rd-engine`) arrays
//! many of them, so both share semantics by construction.
//!
//! ```
//! use rd_ftl::{Ssd, SsdConfig};
//!
//! # fn main() -> Result<(), rd_ftl::FtlError> {
//! let mut ssd = Ssd::new(SsdConfig::small_test())?;
//! ssd.write(3)?;             // write logical page 3
//! let read = ssd.read(3)?;   // read it back through ECC
//! assert_eq!(read.corrected_errors, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod die;
pub mod error;
pub mod mapping;
pub mod policy;
pub mod recovery;
pub mod ssd;
pub mod stats;

pub use config::SsdConfig;
pub use die::{DecodedRead, Die, HostRead};
pub use error::FtlError;
pub use mapping::{PageMap, Ppa};
pub use policy::{ControllerPolicy, NoMitigation, PolicyAction, PolicyContext, ReadReclaim};
pub use rd_flash::chips;
pub use rd_flash::wire;
// Re-exports: the fidelity knob threads ChipParams → SsdConfig → Die →
// EngineConfig, and `ControllerPolicy::on_read` takes the chip; rd-engine
// reaches both through this crate.
pub use rd_flash::{Chip, ReadFidelity, SnapError};
pub use recovery::{
    DisturbReRead, LadderOutcome, ReadResolution, RecoveryLadder, RecoveryStep, RecoveryStepReport,
    RetrySweep, StepAttempt,
};
pub use ssd::Ssd;
pub use stats::SsdStats;
