//! Channel/die organization of the SSD array.
//!
//! Modern SSDs reach their bandwidth by spreading flash dies over several
//! independent channels (paper §1: "multiple flash chips connected over
//! multiple channels"); the engine models exactly that two-level tree. Dies
//! are numbered `0..channels * dies_per_channel`, channel-major: die `d`
//! sits on channel `d / dies_per_channel`.

/// Shape of the SSD array: `channels` independent buses, each with
/// `dies_per_channel` flash dies that share the bus but operate in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Independent flash channels (buses).
    pub channels: u32,
    /// Dies attached to each channel.
    pub dies_per_channel: u32,
}

impl Topology {
    /// A single-channel, single-die topology — the degenerate case that must
    /// behave exactly like one bare [`rd_ftl::Die`].
    pub fn single() -> Self {
        Self { channels: 1, dies_per_channel: 1 }
    }

    /// Total number of dies in the array.
    pub fn dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// The channel a die is attached to.
    pub(crate) fn channel_of(&self, die: u32) -> u32 {
        die / self.dies_per_channel
    }

    /// Stripes an engine-level logical page across the array: page-level
    /// round-robin, so consecutive pages (and therefore a hot logical
    /// block's pages) spread over every die. Returns `(die, die_lpa)`.
    pub fn stripe(&self, lpa: u64) -> (u32, u64) {
        let n = self.dies() as u64;
        ((lpa % n) as u32, lpa / n)
    }

    /// Checks the shape.
    ///
    /// # Errors
    ///
    /// Rejects a zero-channel or zero-die topology, and one whose die count
    /// overflows `u32`.
    pub fn check(&self) -> Result<(), String> {
        if self.channels < 1 {
            return Err("need at least one channel".into());
        }
        if self.dies_per_channel < 1 {
            return Err("need at least one die per channel".into());
        }
        if self.channels.checked_mul(self.dies_per_channel).is_none() {
            return Err(format!(
                "{} channels x {} dies per channel overflow u32",
                self.channels, self.dies_per_channel
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_numbering_is_channel_major() {
        let t = Topology { channels: 4, dies_per_channel: 2 };
        assert_eq!(t.dies(), 8);
        assert_eq!(t.channel_of(0), 0);
        assert_eq!(t.channel_of(1), 0);
        assert_eq!(t.channel_of(2), 1);
        assert_eq!(t.channel_of(7), 3);
    }

    #[test]
    fn striping_round_robins_and_partitions() {
        let t = Topology { channels: 2, dies_per_channel: 2 };
        // Consecutive pages land on consecutive dies.
        let dies: Vec<u32> = (0..8u64).map(|lpa| t.stripe(lpa).0).collect();
        assert_eq!(dies, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Per-die page indices are dense.
        assert_eq!(t.stripe(0), (0, 0));
        assert_eq!(t.stripe(4), (0, 1));
        assert_eq!(t.stripe(9), (1, 2));
    }

    #[test]
    fn single_topology_is_identity() {
        let t = Topology::single();
        assert_eq!(t.check(), Ok(()));
        for lpa in [0u64, 3, 17, 1 << 30] {
            assert_eq!(t.stripe(lpa), (0, lpa));
        }
    }
}
