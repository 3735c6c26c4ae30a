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
//! * the paper's **recovery mechanisms** beside that ladder: Read Disturb
//!   Recovery ([`Rdr`], §4–5, Fig. 10), read-reference optimization
//!   ([`Ror`]) and Retention Failure Recovery ([`Rfr`]), the last two also as
//!   ladder rungs ([`full_recovery_ladder`]);
//! * a two-hook [`ControllerPolicy`] — `on_read(chip, block)` after every
//!   decoded host read, `on_tick(ctx)` once per simulated day; a policy's
//!   actions and probe reads are counted and charged to the engine clock;
//! * the paper's mitigation, **Vpass Tuning** (§3): [`VpassTuner`] is a
//!   controller policy whose daily tick probes each valid block's
//!   worst-case page for the unused ECC margin (`margin_probe`) and walks
//!   the block's pass-through voltage down into it, beside the
//!   [`ReadReclaim`] baseline it is compared against.
//!
//! The per-die controller state lives in [`Die`]: one die used on its own
//! is the single-chip SSD, and the multi-die engine (`rd-engine`) arrays
//! many of them, so both share semantics by construction.
//!
//! ```
//! use rd_ftl::{Die, SsdConfig};
//!
//! # fn main() -> Result<(), rd_ftl::FtlError> {
//! let mut ssd = Die::new(SsdConfig::small_test())?;
//! ssd.write(3)?;             // write logical page 3
//! let read = ssd.read(3)?;   // read it back through ECC
//! assert_eq!(read.corrected_errors, 0);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`, so that one item may opt out: the page map's cache
// prefetch (`mapping.rs`), which safe Rust cannot express.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod die;
mod error;
mod mapping;
mod margin_probe;
mod policy;
mod rdr;
mod recovery;
mod rfr;
mod ror;
mod stats;
mod vpass_tuning;

pub use config::SsdConfig;
pub use die::{DecodedRead, Die, HostRead};
pub use error::FtlError;
pub use mapping::{PageMap, Ppa};
pub use policy::{ControllerPolicy, NoMitigation, PolicyAction, PolicyContext, ReadReclaim};
pub use rd_flash::chips;
pub use rd_flash::wire;
pub use vpass_tuning::{TuneReport, TunerStats, VpassTuner, VpassTunerConfig};
// Re-exports: the fidelity knob threads ChipParams → SsdConfig → Die →
// EngineConfig, `ControllerPolicy::on_read` takes the chip, and a
// `DecodedRead` carries its page's `fold_page` digest; rd-engine reaches
// all three through this crate.
pub use rd_flash::{fnv1a, fold_page, fold_word, Chip, ReadFidelity, SnapError, FNV_OFFSET};
pub use rdr::{Rdr, RdrConfig, RdrOutcome};
pub use recovery::{
    full_recovery_ladder, ReadResolution, RecoveryLadder, RecoveryStep, RecoveryStepReport,
    RetrySweep, RfrRecoveryStep, RorRecoveryStep, StepAttempt,
};
pub use rfr::{Rfr, RfrConfig, RfrOutcome};
pub use ror::{Ror, RorConfig, RorOutcome};
pub use stats::SsdStats;
