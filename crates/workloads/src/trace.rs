//! Trace events and the op-by-op generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::WorkloadProfile;
use crate::zipf::ZipfSampler;

/// The kind of a storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A page read.
    Read,
    /// A page write.
    Write,
}

/// One trace event: a page-sized operation at a logical page address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// Seconds since the start of the trace.
    pub time_s: f64,
    /// Operation kind.
    pub kind: OpKind,
    /// Logical page address (`block * pages_per_block + page` in the
    /// generator's logical layout).
    pub lpa: u64,
}

impl TraceOp {
    /// The logical block this op addresses, given the generator's layout.
    pub fn logical_block(&self, pages_per_block: u64) -> u64 {
        self.lpa / pages_per_block
    }
}

/// Infinite deterministic trace generator for a workload profile.
///
/// Inter-arrival times are exponential at the profile's mean rate. Reads
/// pick a block by Zipfian popularity (hot blocks), writes spread more
/// evenly (popularity exponent halved, matching the write-offloading
/// observation that read heat and write heat decouple \[65\]).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    rng: StdRng,
    time_s: f64,
    mean_gap_s: f64,
    read_fraction: f64,
    pages_per_block: u64,
    read_popularity: ZipfSampler,
    write_popularity: ZipfSampler,
    /// Per-block random rank→block permutation seed, so the hottest logical
    /// block is not always block 0.
    block_of_rank: Vec<u32>,
}

impl TraceGenerator {
    /// Creates the generator for a profile.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_block == 0`.
    pub fn new(profile: &WorkloadProfile, seed: u64, pages_per_block: u32) -> Self {
        assert!(pages_per_block > 0);
        let n = profile.footprint_blocks as usize;
        let tables = Self {
            rng: StdRng::seed_from_u64(seed),
            time_s: 0.0,
            mean_gap_s: 86_400.0 / profile.daily_ops,
            read_fraction: profile.read_fraction,
            pages_per_block: pages_per_block as u64,
            read_popularity: ZipfSampler::new(n, profile.zipf_theta),
            write_popularity: ZipfSampler::new(n, profile.zipf_theta * 0.5),
            block_of_rank: Vec::new(),
        };
        tables.reseeded(seed)
    }

    /// The generator `profile.generator(seed, pages_per_block)` would build
    /// for this one's profile and layout, sharing this one's popularity
    /// tables instead of rebuilding them: only the rank permutation is drawn
    /// afresh. Where this generator has got to does not matter.
    pub fn reseeded(&self, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.read_popularity.len();
        let mut block_of_rank: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates permutation so heat is not index-correlated.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            block_of_rank.swap(i, j);
        }
        Self {
            rng,
            time_s: 0.0,
            read_popularity: self.read_popularity.clone(),
            write_popularity: self.write_popularity.clone(),
            block_of_rank,
            ..*self
        }
    }

    fn next_op(&mut self) -> TraceOp {
        let u: f64 = self.rng.gen::<f64>().max(1e-300);
        self.time_s += -self.mean_gap_s * u.ln();
        let is_read = self.rng.gen::<f64>() < self.read_fraction;
        let rank = if is_read {
            self.read_popularity.sample(&mut self.rng)
        } else {
            self.write_popularity.sample(&mut self.rng)
        };
        let block = self.block_of_rank[rank] as u64;
        let page = self.rng.gen_range(0..self.pages_per_block);
        TraceOp {
            time_s: self.time_s,
            kind: if is_read { OpKind::Read } else { OpKind::Write },
            lpa: block * self.pages_per_block + page,
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        Some(self.next_op())
    }

    /// Infinite, as `std::iter::repeat` reports it: `take(n)` then reports
    /// exactly `n`, so a consumer can reserve for the whole trace up front.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn profile() -> WorkloadProfile {
        WorkloadProfile::by_name("postmark").unwrap()
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<TraceOp> = TraceGenerator::new(&profile(), 9, 64).take(500).collect();
        let b: Vec<TraceOp> = TraceGenerator::new(&profile(), 9, 64).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<TraceOp> = TraceGenerator::new(&profile(), 10, 64).take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn reseeded_generators_match_fresh_ones() {
        for name in ["postmark", "write-heavy", "umass-web"] {
            let p = WorkloadProfile::by_name(name).unwrap();
            let mut template = p.generator(1, 64);
            template.nth(99); // a used template reseeds all the same
            for seed in [0, 7, 2015, u64::MAX] {
                let reseeded: Vec<TraceOp> = template.reseeded(seed).take(2_000).collect();
                let fresh: Vec<TraceOp> = p.generator(seed, 64).take(2_000).collect();
                assert_eq!(reseeded, fresh, "{name} at seed {seed}");
            }
        }
    }

    #[test]
    fn take_reports_its_exact_length() {
        let ops = TraceGenerator::new(&profile(), 9, 64).take(1_234);
        assert_eq!(ops.size_hint(), (1_234, Some(1_234)));
    }

    #[test]
    fn time_is_monotone_at_expected_rate() {
        let p = profile();
        let n = 50_000usize;
        let ops: Vec<TraceOp> = TraceGenerator::new(&p, 3, 64).take(n).collect();
        let mut last = 0.0;
        for op in &ops {
            assert!(op.time_s >= last);
            last = op.time_s;
        }
        let rate_per_day = n as f64 / (last / 86_400.0);
        assert!(
            (rate_per_day / p.daily_ops - 1.0).abs() < 0.05,
            "rate {rate_per_day} vs {}",
            p.daily_ops
        );
    }

    #[test]
    fn read_fraction_matches_profile() {
        let p = profile();
        let n = 100_000usize;
        let reads =
            TraceGenerator::new(&p, 5, 64).take(n).filter(|o| o.kind == OpKind::Read).count();
        let frac = reads as f64 / n as f64;
        assert!((frac - p.read_fraction).abs() < 0.01, "{frac}");
    }

    #[test]
    fn lpa_within_footprint() {
        let p = profile();
        let limit = p.footprint_blocks as u64 * 64;
        for op in TraceGenerator::new(&p, 5, 64).take(20_000) {
            assert!(op.lpa < limit);
            assert!(op.logical_block(64) < p.footprint_blocks as u64);
        }
    }

    #[test]
    fn reads_are_hotter_than_writes() {
        // Top read-block share should exceed top write-block share.
        let p = profile();
        let mut read_counts = std::collections::HashMap::new();
        let mut write_counts = std::collections::HashMap::new();
        for op in TraceGenerator::new(&p, 8, 64).take(200_000) {
            let b = op.logical_block(64);
            match op.kind {
                OpKind::Read => *read_counts.entry(b).or_insert(0u64) += 1,
                OpKind::Write => *write_counts.entry(b).or_insert(0u64) += 1,
            }
        }
        let top = |m: &std::collections::HashMap<u64, u64>| {
            let total: u64 = m.values().sum();
            *m.values().max().unwrap() as f64 / total as f64
        };
        assert!(top(&read_counts) > top(&write_counts));
    }
}
