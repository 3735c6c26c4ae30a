//! The single-chip SSD is one [`Die`]: [`Ssd`] names that use of the type.
//!
//! All controller mechanics (FTL, garbage collection, refresh, policy
//! orchestration) live in [`crate::die`]. The multi-die engine
//! (`rd-engine`) arrays the same [`Die`] type, so the single-chip and
//! multi-die paths share semantics by construction. The tests below drive
//! the controller through the single-chip name.

use crate::die::Die;
use crate::policy::NoMitigation;

/// The simulated single-chip SSD: exactly one [`Die`].
pub type Ssd<P = NoMitigation> = Die<P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::error::FtlError;
    use crate::policy::ReadReclaim;

    fn small_ssd() -> Ssd {
        Ssd::new(SsdConfig::small_test()).unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut ssd = small_ssd();
        ssd.write(0).unwrap();
        ssd.write(1).unwrap();
        let r = ssd.read(0).unwrap();
        assert_eq!(r.corrected_errors, 0);
        assert_eq!(ssd.stats().host_writes, 2);
        assert_eq!(ssd.stats().host_reads, 1);
    }

    #[test]
    fn unwritten_read_fails() {
        let mut ssd = small_ssd();
        assert!(matches!(ssd.read(5), Err(FtlError::NotWritten { lpa: 5 })));
        assert!(matches!(ssd.read(1 << 40), Err(FtlError::LpaOutOfRange { .. })));
        assert!(matches!(ssd.write(1 << 40), Err(FtlError::LpaOutOfRange { .. })));
    }

    #[test]
    fn overwrite_invalidates_and_gc_reclaims() {
        let mut ssd = small_ssd();
        let pages = ssd.map().logical_pages();
        // Fill the logical space, then overwrite it several times: GC must
        // keep the device writable well past one physical fill.
        for round in 0..6u64 {
            for lpa in 0..pages {
                ssd.write(lpa).unwrap_or_else(|e| panic!("round {round} lpa {lpa}: {e}"));
            }
        }
        assert!(ssd.stats().erases > 0, "GC never ran");
        assert!(ssd.stats().waf() >= 1.0);
        assert!(ssd.map().check_consistency());
        // All data still readable.
        for lpa in 0..pages {
            ssd.read(lpa).unwrap();
        }
    }

    #[test]
    fn refresh_runs_on_schedule() {
        let mut ssd = small_ssd();
        ssd.write(0).unwrap();
        ssd.advance_time(6.0).unwrap();
        assert_eq!(ssd.stats().refreshes, 0, "too early");
        ssd.advance_time(2.0).unwrap();
        assert!(ssd.stats().refreshes >= 1, "refresh missed");
        // Data survived the refresh.
        let r = ssd.read(0).unwrap();
        assert_eq!(r.corrected_errors, 0);
        // The block holding lpa 0 is young again.
        let st = ssd.chip().block_status(r.ppa.block).unwrap();
        assert!(st.age_days < 2.0);
    }

    #[test]
    fn read_reclaim_policy_relocates_hot_block() {
        let mut ssd =
            Ssd::with_policy(SsdConfig::small_test(), ReadReclaim { read_threshold: 500 }).unwrap();
        ssd.write(0).unwrap();
        let first = ssd.read(0).unwrap().ppa;
        for _ in 0..600 {
            let _ = ssd.read(0).unwrap();
        }
        assert!(ssd.stats().reclaims >= 1, "reclaim never fired");
        let after = ssd.read(0).unwrap().ppa;
        assert_ne!(first.block, after.block, "hot data should have moved");
    }

    #[test]
    fn wear_spreads_across_blocks() {
        let mut ssd = small_ssd();
        let pages = ssd.map().logical_pages();
        for _ in 0..8 {
            for lpa in 0..pages {
                ssd.write(lpa).unwrap();
            }
        }
        let wear: Vec<u64> = (0..ssd.config().geometry.blocks)
            .map(|b| ssd.chip().block_status(b).unwrap().pe_cycles)
            .collect();
        let max = *wear.iter().max().unwrap();
        let min = *wear.iter().min().unwrap();
        assert!(max >= 1);
        assert!(max - min <= max / 2 + 2, "wear imbalance: {wear:?}");
    }

    #[test]
    fn clock_advances_in_fractional_steps() {
        let mut ssd = small_ssd();
        ssd.write(0).unwrap();
        ssd.advance_time(0.25).unwrap();
        ssd.advance_time(0.25).unwrap();
        assert!((ssd.clock_days() - 0.5).abs() < 1e-9);
        ssd.advance_time(0.75).unwrap();
        assert!((ssd.clock_days() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut ssd = small_ssd();
            for lpa in 0..40 {
                ssd.write(lpa % 8).unwrap();
            }
            for _ in 0..50 {
                ssd.read(3).unwrap();
            }
            ssd.advance_time(9.0).unwrap();
            ssd.stats()
        };
        assert_eq!(run(), run());
    }
}
