//! Die-level command timing: the discrete-event clock's unit costs.
//!
//! Values default to paper-era (2Y-nm) MLC NAND datasheet figures: a page
//! read (tR) of tens of microseconds, a program (tPROG) roughly an order of
//! magnitude slower, a block erase (tBERS) in the milliseconds, and a
//! channel transfer slot for moving the page between controller and die.
//! Only ratios matter for the scheduling behaviour the engine studies
//! (channel saturation, die-level parallelism, GC stalls).

use rd_ftl::SsdStats;

/// The three controller-counter groups the timing model bills as background
/// die time (relocation writes, erases, retry/probe reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BackgroundCounters {
    /// GC + refresh + reclaim relocation writes.
    pub relocations: u64,
    /// Block erases.
    pub erases: u64,
    /// Recovery-ladder re-reads plus policy probe reads.
    pub retry_reads: u64,
}

/// Extracts the background-billable counter groups from a stats block.
pub(crate) fn background_counters(stats: &SsdStats) -> BackgroundCounters {
    BackgroundCounters {
        relocations: stats.gc_writes + stats.refresh_writes + stats.reclaim_writes,
        erases: stats.erases,
        retry_reads: stats.recovery_reads + stats.policy_probe_reads,
    }
}

/// Per-command latencies in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Page read, array to page buffer (tR).
    pub read_us: f64,
    /// Page program, page buffer to array (tPROG).
    pub program_us: f64,
    /// Block erase (tBERS).
    pub erase_us: f64,
    /// Channel occupancy of one page transfer (command + data).
    pub xfer_us: f64,
}

impl Timing {
    /// Paper-era MLC NAND defaults: tR 50 µs, tPROG 650 µs, tBERS 3.5 ms,
    /// 25 µs channel slot per page.
    pub fn mlc() -> Self {
        Self { read_us: 50.0, program_us: 650.0, erase_us: 3500.0, xfer_us: 25.0 }
    }

    /// Service time of a host read that reached the flash array.
    pub fn read_service_us(&self) -> f64 {
        self.read_us + self.xfer_us
    }

    /// Service time of a host write.
    pub(crate) fn write_service_us(&self) -> f64 {
        self.program_us + self.xfer_us
    }

    /// Extra die-busy time implied by background work the FTL performed
    /// while serving one request, reconstructed from the controller-counter
    /// delta between two [`background_counters`] snapshots: every
    /// relocation write is a read + program pair, every erase a tBERS, and
    /// every recovery-ladder re-read or policy probe read a tR — so retry
    /// escalations and tuning sweeps cost real engine time. The replay hot
    /// loop extracts the counters to avoid copying the full stats block
    /// around every request.
    pub(crate) fn background_us_between(
        &self,
        before: BackgroundCounters,
        after: BackgroundCounters,
    ) -> f64 {
        // Most requests trigger no background work at all; three integer
        // compares beat the float reconstruction on that path.
        if before == after {
            return 0.0;
        }
        let relocations = after.relocations - before.relocations;
        let erases = after.erases - before.erases;
        let retry_reads = after.retry_reads - before.retry_reads;
        relocations as f64 * (self.read_us + self.program_us)
            + erases as f64 * self.erase_us
            + retry_reads as f64 * self.read_us
    }

    /// Checks the constants.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite latency.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("read_us", self.read_us),
            ("program_us", self.program_us),
            ("erase_us", self.erase_us),
            ("xfer_us", self.xfer_us),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("timing {name} must be positive, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::mlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timing {
        /// [`Timing::background_us_between`] from two full stats blocks.
        fn background_us(&self, before: &SsdStats, after: &SsdStats) -> f64 {
            self.background_us_between(background_counters(before), background_counters(after))
        }
    }

    #[test]
    fn defaults_validate_and_order_sanely() {
        let t = Timing::default();
        assert_eq!(t.check(), Ok(()));
        assert!(t.read_us < t.program_us);
        assert!(t.program_us < t.erase_us);
        assert!(t.xfer_us < t.read_us);
    }

    #[test]
    fn background_charge_counts_relocations_and_erases() {
        let t = Timing::mlc();
        let before = SsdStats::default();
        let mut after = SsdStats::default();
        assert_eq!(t.background_us(&before, &after), 0.0);
        after.gc_writes = 3;
        after.erases = 1;
        let expected = 3.0 * (t.read_us + t.program_us) + t.erase_us;
        assert!((t.background_us(&before, &after) - expected).abs() < 1e-9);
    }

    #[test]
    fn background_charge_counts_recovery_and_probe_reads() {
        let t = Timing::mlc();
        let before = SsdStats::default();
        let after = SsdStats { recovery_reads: 4, policy_probe_reads: 6, ..Default::default() };
        let expected = 10.0 * t.read_us;
        assert!((t.background_us(&before, &after) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_rejected() {
        Timing { read_us: 0.0, ..Timing::mlc() }.check().unwrap();
    }
}
