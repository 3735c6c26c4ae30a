//! Aggregate statistics over generated traces, used to validate that the
//! generators reproduce their profile's parameters and to feed the
//! SSD-level simulations with per-block pressure summaries.

use std::collections::HashMap;

use crate::trace::{OpKind, TraceOp};

/// Aggregate statistics of a trace segment.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total operations observed.
    pub ops: u64,
    /// Read operations observed.
    pub reads: u64,
    /// Write operations observed.
    pub writes: u64,
    /// Duration covered (seconds).
    pub duration_s: f64,
    /// Reads per logical block.
    pub reads_per_block: HashMap<u64, u64>,
    /// Writes per logical block.
    pub writes_per_block: HashMap<u64, u64>,
}

impl TraceStats {
    /// Computes statistics from trace ops, interpreting logical pages with
    /// the given block size.
    pub fn from_ops<'a, I: IntoIterator<Item = &'a TraceOp>>(ops: I, pages_per_block: u64) -> Self {
        let mut stats = TraceStats {
            ops: 0,
            reads: 0,
            writes: 0,
            duration_s: 0.0,
            reads_per_block: HashMap::new(),
            writes_per_block: HashMap::new(),
        };
        for op in ops {
            stats.ops += 1;
            stats.duration_s = stats.duration_s.max(op.time_s);
            let block = op.logical_block(pages_per_block);
            match op.kind {
                OpKind::Read => {
                    stats.reads += 1;
                    *stats.reads_per_block.entry(block).or_insert(0) += 1;
                }
                OpKind::Write => {
                    stats.writes += 1;
                    *stats.writes_per_block.entry(block).or_insert(0) += 1;
                }
            }
        }
        stats
    }

    /// Observed read fraction.
    pub fn read_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.reads as f64 / self.ops as f64
        }
    }

    /// Reads on the hottest block.
    pub fn hottest_block_reads(&self) -> u64 {
        self.reads_per_block.values().copied().max().unwrap_or(0)
    }

    /// The `n` hottest blocks by read count, hottest first.
    pub fn hottest_blocks(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.reads_per_block.iter().map(|(&b, &c)| (b, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    impl TraceStats {
        /// Share of reads going to the hottest block.
        fn hottest_block_read_share(&self) -> f64 {
            if self.reads == 0 {
                0.0
            } else {
                self.hottest_block_reads() as f64 / self.reads as f64
            }
        }
    }

    #[test]
    fn stats_match_profile_parameters() {
        let p = WorkloadProfile::by_name("umass-web").unwrap();
        let ops: Vec<TraceOp> = p.generator(21, 128).take(300_000).collect();
        let stats = TraceStats::from_ops(&ops, 128);
        assert_eq!(stats.ops, 300_000);
        assert_eq!(stats.reads + stats.writes, stats.ops);
        assert_eq!(stats.writes, stats.writes_per_block.values().sum::<u64>());
        assert!((stats.read_fraction() - p.read_fraction).abs() < 0.01);
        // Observed top-share tracks the Zipf closed form (within sampling noise).
        let expected = p.hottest_block_read_share();
        let observed = stats.hottest_block_read_share();
        assert!((observed / expected - 1.0).abs() < 0.25, "top share {observed} vs {expected}");
    }

    #[test]
    fn hottest_blocks_sorted() {
        let p = WorkloadProfile::by_name("postmark").unwrap();
        let ops: Vec<TraceOp> = p.generator(4, 64).take(50_000).collect();
        let stats = TraceStats::from_ops(&ops, 64);
        let top = stats.hottest_blocks(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(top[0].1, stats.hottest_block_reads());
    }

    #[test]
    fn empty_trace() {
        let stats = TraceStats::from_ops(&[], 64);
        assert_eq!(stats.read_fraction(), 0.0);
        assert_eq!(stats.hottest_block_reads(), 0);
        assert!(stats.hottest_blocks(3).is_empty());
    }
}
