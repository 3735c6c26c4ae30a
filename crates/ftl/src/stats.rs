//! Controller statistics: write amplification, wear, reliability events,
//! and the recovery/background-work counters the engine clock charges.

/// Counters maintained by the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SsdStats {
    /// Host-issued page writes.
    pub host_writes: u64,
    /// Page writes performed by garbage collection.
    pub gc_writes: u64,
    /// Page writes performed by refresh remapping.
    pub refresh_writes: u64,
    /// Page writes performed by read reclaim / policy-requested relocation.
    pub reclaim_writes: u64,
    /// Block erases.
    pub erases: u64,
    /// Host-issued page reads.
    pub host_reads: u64,
    /// Host reads that stayed uncorrectable after the full recovery ladder
    /// (data-loss events, the paper's end-of-life criterion).
    pub uncorrectable_reads: u64,
    /// Host reads whose initial decode failed but were salvaged by the
    /// recovery ladder (retry / disturb-aware re-read).
    pub recovered_reads: u64,
    /// Recovery-ladder steps engaged across all escalations (each failed
    /// or succeeding rung counts once).
    pub recovery_steps: u64,
    /// Flash re-reads spent inside the recovery ladder (each costs tR on
    /// the engine clock).
    pub recovery_reads: u64,
    /// Probe reads controller policies performed (tuning sweeps, margin
    /// probes; each costs tR on the engine clock).
    pub policy_probe_reads: u64,
    /// Total raw bit errors corrected across all reads.
    pub corrected_bits: u64,
    /// Relocations where even the internal read was uncorrectable, so raw
    /// (corrupted) data was copied forward — permanent data loss events.
    pub data_loss_relocations: u64,
    /// Blocks refreshed.
    pub refreshes: u64,
    /// Blocks reclaimed on policy request.
    pub reclaims: u64,
}

impl std::ops::AddAssign for SsdStats {
    fn add_assign(&mut self, mut rhs: Self) {
        for (sum, add) in self.counters_mut().into_iter().zip(rhs.counters_mut()) {
            *sum += *add;
        }
    }
}

impl SsdStats {
    /// Every counter, in checkpoint wire order. The one full destructuring:
    /// adding a field to [`SsdStats`] fails to compile here until summing,
    /// encoding and restoring all learn about it.
    fn counters_mut(&mut self) -> [&mut u64; 15] {
        let SsdStats {
            host_writes,
            gc_writes,
            refresh_writes,
            reclaim_writes,
            erases,
            host_reads,
            uncorrectable_reads,
            recovered_reads,
            recovery_steps,
            recovery_reads,
            policy_probe_reads,
            corrected_bits,
            data_loss_relocations,
            refreshes,
            reclaims,
        } = self;
        [
            host_writes,
            gc_writes,
            refresh_writes,
            reclaim_writes,
            erases,
            host_reads,
            uncorrectable_reads,
            recovered_reads,
            recovery_steps,
            recovery_reads,
            policy_probe_reads,
            corrected_bits,
            data_loss_relocations,
            refreshes,
            reclaims,
        ]
    }

    /// Total physical page writes.
    pub fn total_writes(&self) -> u64 {
        self.host_writes + self.gc_writes + self.refresh_writes + self.reclaim_writes
    }

    /// Pages relocated by background jobs (GC, refresh, policy reclaim) —
    /// each cost a read + a program on the engine clock.
    pub fn relocated_pages(&self) -> u64 {
        self.gc_writes + self.refresh_writes + self.reclaim_writes
    }

    /// Write amplification factor: physical writes per host write.
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            self.total_writes() as f64 / self.host_writes as f64
        }
    }

    /// Serializes every counter (checkpointing support).
    pub fn encode_state(&self, w: &mut rd_flash::wire::Writer) {
        let mut copy = *self;
        for counter in copy.counters_mut() {
            w.put_u64(*counter);
        }
    }

    /// Restores counters serialized by [`Self::encode_state`].
    ///
    /// # Errors
    ///
    /// Propagates decode errors on truncated input.
    pub fn restore_state(
        &mut self,
        r: &mut rd_flash::wire::Reader<'_>,
    ) -> Result<(), rd_flash::SnapError> {
        for counter in self.counters_mut() {
            *counter = r.get_u64()?;
        }
        Ok(())
    }

    /// Uncorrectable bit error rate over the host reads served. When ECC
    /// fails, the whole page is lost, so bits-lost over bits-read reduces
    /// exactly to uncorrectable page events per page read — page size
    /// cancels out of the ratio.
    pub fn uber(&self) -> f64 {
        if self.host_reads == 0 {
            0.0
        } else {
            self.uncorrectable_reads as f64 / self.host_reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_every_counter() {
        let mut a = SsdStats { host_writes: 1, corrected_bits: 5, ..Default::default() };
        let b = SsdStats {
            host_writes: 2,
            erases: 3,
            corrected_bits: 7,
            recovered_reads: 2,
            recovery_steps: 3,
            recovery_reads: 11,
            policy_probe_reads: 4,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.host_writes, 3);
        assert_eq!(a.erases, 3);
        assert_eq!(a.corrected_bits, 12);
        assert_eq!(a.recovered_reads, 2);
        assert_eq!(a.recovery_steps, 3);
        assert_eq!(a.recovery_reads, 11);
        assert_eq!(a.policy_probe_reads, 4);
    }

    #[test]
    fn waf_computation() {
        let mut s = SsdStats::default();
        assert_eq!(s.waf(), 0.0);
        s.host_writes = 100;
        s.gc_writes = 30;
        s.refresh_writes = 10;
        assert!((s.waf() - 1.4).abs() < 1e-12);
        assert_eq!(s.total_writes(), 140);
        assert_eq!(s.relocated_pages(), 40);
    }

    #[test]
    fn uber_is_whole_page_loss_rate() {
        let mut s = SsdStats::default();
        assert_eq!(s.uber(), 0.0);
        s.host_reads = 1_000;
        assert_eq!(s.uber(), 0.0);
        s.uncorrectable_reads = 2;
        // 2 whole-page losses in 1000 page reads: UBER = 2/1000.
        assert!((s.uber() - 2.0e-3).abs() < 1e-15);
    }
}
