//! Named workload profiles modelled on the paper's trace families.
//!
//! Each profile's parameters were chosen to land its hottest-block read
//! pressure (reads per 7-day refresh interval) in the range real enterprise
//! traces exhibit, producing the endurance spread of the paper's Fig. 8.
//! The family name records which paper-cited trace the profile stands in
//! for; `repro` note: the originals are not redistributable.

use crate::trace::TraceGenerator;
use crate::zipf;

/// A synthetic workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Short identifier (used as the Fig. 8 bar label).
    pub name: &'static str,
    /// Which paper-cited trace family this stands in for.
    pub stands_in_for: &'static str,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Total page-sized operations per day.
    pub daily_ops: f64,
    /// Zipf exponent of read block-popularity.
    pub zipf_theta: f64,
    /// Logical footprint in blocks.
    pub footprint_blocks: u32,
}

impl WorkloadProfile {
    /// The evaluation suite (one bar per profile in Fig. 8).
    pub fn suite() -> Vec<WorkloadProfile> {
        vec![
            WorkloadProfile {
                name: "iozone",
                stands_in_for: "iozone microbenchmark (paper Fig. 8)",
                read_fraction: 0.55,
                daily_ops: 6.0e5,
                zipf_theta: 0.65,
                footprint_blocks: 2048,
            },
            WorkloadProfile {
                name: "postmark",
                stands_in_for: "Postmark mail-server benchmark [38]",
                read_fraction: 0.35,
                daily_ops: 5.3e5,
                zipf_theta: 0.75,
                footprint_blocks: 4096,
            },
            WorkloadProfile {
                name: "cello99",
                stands_in_for: "SNIA Cello99 departmental server [83]",
                read_fraction: 0.27,
                daily_ops: 9.0e5,
                zipf_theta: 0.65,
                footprint_blocks: 8192,
            },
            WorkloadProfile {
                name: "msr-hm0",
                stands_in_for: "MSR Cambridge hm_0 (hardware monitor) [65]",
                read_fraction: 0.12,
                daily_ops: 1.1e6,
                zipf_theta: 0.60,
                footprint_blocks: 8192,
            },
            WorkloadProfile {
                name: "msr-prn1",
                stands_in_for: "MSR Cambridge prn_1 (print server) [65]",
                read_fraction: 0.25,
                daily_ops: 7.5e5,
                zipf_theta: 0.70,
                footprint_blocks: 6144,
            },
            WorkloadProfile {
                name: "msr-proj0",
                stands_in_for: "MSR Cambridge proj_0 (project dirs) [65]",
                read_fraction: 0.15,
                daily_ops: 1.4e6,
                zipf_theta: 0.55,
                footprint_blocks: 12288,
            },
            WorkloadProfile {
                name: "msr-src12",
                stands_in_for: "MSR Cambridge src1_2 (source control) [65]",
                read_fraction: 0.45,
                daily_ops: 3.9e5,
                zipf_theta: 0.80,
                footprint_blocks: 6144,
            },
            WorkloadProfile {
                name: "fiu-home",
                stands_in_for: "FIU I/O-dedup home-dirs trace [43]",
                read_fraction: 0.30,
                daily_ops: 6.0e5,
                zipf_theta: 0.70,
                footprint_blocks: 4096,
            },
            WorkloadProfile {
                name: "umass-fin1",
                stands_in_for: "UMass Financial1 OLTP trace [89]",
                read_fraction: 0.20,
                daily_ops: 1.06e6,
                zipf_theta: 0.75,
                footprint_blocks: 10240,
            },
            WorkloadProfile {
                name: "umass-web",
                stands_in_for: "UMass WebSearch trace [89]",
                read_fraction: 0.85,
                daily_ops: 5.8e5,
                zipf_theta: 0.75,
                footprint_blocks: 8192,
            },
            WorkloadProfile {
                name: "write-heavy",
                stands_in_for: "write-offloading worst case [65]",
                read_fraction: 0.05,
                daily_ops: 1.2e6,
                zipf_theta: 0.50,
                footprint_blocks: 8192,
            },
        ]
    }

    /// Looks up a suite profile by name.
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        Self::suite().into_iter().find(|p| p.name == name)
    }

    /// Reads per day across the whole footprint.
    pub(crate) fn reads_per_day(&self) -> f64 {
        self.daily_ops * self.read_fraction
    }

    /// Fraction of reads hitting the hottest logical block (Zipf top share).
    pub(crate) fn hottest_block_read_share(&self) -> f64 {
        zipf::top_share(self.footprint_blocks as usize, self.zipf_theta)
    }

    /// Expected reads landing on the hottest block during one refresh
    /// interval of `days` — the quantity that gates read-disturb-limited
    /// endurance (paper §3, Fig. 7).
    pub fn hottest_block_reads_per_interval(&self, days: f64) -> f64 {
        self.reads_per_day() * days * self.hottest_block_read_share()
    }

    /// An op-by-op generator for this profile.
    pub fn generator(&self, seed: u64, pages_per_block: u32) -> TraceGenerator {
        TraceGenerator::new(self, seed, pages_per_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WorkloadProfile {
        /// Writes per day across the whole footprint.
        fn writes_per_day(&self) -> f64 {
            self.daily_ops * (1.0 - self.read_fraction)
        }

        /// P/E cycles consumed per day per block, assuming even wear-leveling
        /// across the footprint and a write amplification factor `waf`.
        fn pe_per_block_day(&self, pages_per_block: u32, waf: f64) -> f64 {
            self.writes_per_day() * waf / (pages_per_block as f64 * self.footprint_blocks as f64)
        }
    }

    #[test]
    fn suite_has_distinct_names() {
        let suite = WorkloadProfile::suite();
        assert!(suite.len() >= 10);
        let mut names: Vec<_> = suite.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn by_name_round_trip() {
        for p in WorkloadProfile::suite() {
            assert_eq!(WorkloadProfile::by_name(p.name).unwrap(), p);
        }
        assert!(WorkloadProfile::by_name("nope").is_none());
    }

    #[test]
    fn parameters_within_sane_ranges() {
        for p in WorkloadProfile::suite() {
            assert!((0.0..=1.0).contains(&p.read_fraction), "{}", p.name);
            assert!(p.daily_ops > 1e4, "{}", p.name);
            assert!((0.0..=1.5).contains(&p.zipf_theta), "{}", p.name);
            assert!(p.footprint_blocks >= 1024, "{}", p.name);
        }
    }

    #[test]
    fn hottest_block_pressure_spans_realistic_range() {
        // The suite must span light to heavy read-disturb pressure so the
        // Fig. 8 endurance bars differentiate: roughly 1e3..1e6 reads per
        // 7-day interval on the hottest block.
        let pressures: Vec<f64> = WorkloadProfile::suite()
            .iter()
            .map(|p| p.hottest_block_reads_per_interval(7.0))
            .collect();
        let min = pressures.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = pressures.iter().cloned().fold(0.0, f64::max);
        assert!(min > 5e2, "lightest {min}");
        assert!(max < 2e6, "heaviest {max}");
        assert!(max / min > 10.0, "suite must spread pressure: {min}..{max}");
    }

    #[test]
    fn rates_decompose() {
        let p = WorkloadProfile::by_name("cello99").unwrap();
        assert!((p.reads_per_day() + p.writes_per_day() - p.daily_ops).abs() < 1e-6);
        let pe = p.pe_per_block_day(128, 1.5);
        assert!(pe > 0.0 && pe < 10.0, "pe/day {pe}");
    }
}
