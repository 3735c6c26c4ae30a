//! Hammer experiment: repeatedly activate aggressor rows of a module and
//! histogram the victim-cell counts (paper Fig. 12).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::module::DramModule;

/// A hammer sweep over a module's rows.
#[derive(Debug, Clone)]
pub struct HammerExperiment {
    /// Histogram: `histogram[v]` = number of aggressor rows that flipped
    /// exactly `v` victim cells.
    pub histogram: Vec<u64>,
}

impl HammerExperiment {
    /// Hammers `rows` aggressor rows of `module`, collecting the
    /// victims-per-row histogram.
    pub fn run(module: &DramModule, rows: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut histogram: Vec<u64> = Vec::new();
        for _ in 0..rows {
            let v = module.sample_victims(&mut rng) as usize;
            if histogram.len() <= v {
                histogram.resize(v + 1, 0);
            }
            histogram[v] += 1;
        }
        Self { histogram }
    }

    /// Rows that flipped at least one victim.
    pub(crate) fn affected_rows(&self) -> u64 {
        self.histogram.iter().skip(1).sum()
    }

    /// Maximum victims observed on a single aggressor row.
    pub(crate) fn max_victims(&self) -> usize {
        self.histogram.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ModulePopulation;

    impl HammerExperiment {
        /// Total victim cells across all hammered rows.
        fn total_victims(&self) -> u64 {
            self.histogram.iter().enumerate().map(|(v, &count)| v as u64 * count).sum()
        }
    }

    #[test]
    fn vulnerable_module_histogram_shape() {
        let p = ModulePopulation::paper_129(5);
        let m = p.fig12_representatives()[0];
        let exp = HammerExperiment::run(m, 32_768, 1);
        assert_eq!(exp.histogram.iter().sum::<u64>(), 32_768);
        assert!(exp.affected_rows() > 0);
        assert!(exp.total_victims() > exp.affected_rows(), "multi-victim rows expected");
        // Decreasing-ish tail: far more rows with few victims than many.
        let low: u64 = exp.histogram.iter().skip(1).take(5).sum();
        let high: u64 = exp.histogram.iter().skip(40).sum();
        assert!(low > high * 3, "low {low} vs high {high}");
    }

    #[test]
    fn invulnerable_module_is_silent() {
        let p = ModulePopulation::paper_129(5);
        let m = p
            .modules()
            .iter()
            .find(|m| !m.is_vulnerable())
            .expect("population includes pre-2010 modules");
        let exp = HammerExperiment::run(m, 10_000, 2);
        assert_eq!(exp.affected_rows(), 0);
        assert_eq!(exp.max_victims(), 0);
    }

    #[test]
    fn run_is_deterministic() {
        let p = ModulePopulation::paper_129(5);
        let m = p.fig12_representatives()[1];
        let a = HammerExperiment::run(m, 5_000, 9);
        let b = HammerExperiment::run(m, 5_000, 9);
        assert_eq!(a.histogram, b.histogram);
    }
}
