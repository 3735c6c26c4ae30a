//! A single DRAM module: manufacturer, manufacture date, and RowHammer
//! vulnerability.

use rand::rngs::StdRng;
use rand::Rng;

/// The three (anonymized) major DRAM manufacturers of the RowHammer study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Manufacturer {
    /// Manufacturer A.
    A,
    /// Manufacturer B.
    B,
    /// Manufacturer C.
    C,
}

impl std::fmt::Display for Manufacturer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Manufacturer::A => f.write_str("A"),
            Manufacturer::B => f.write_str("B"),
            Manufacturer::C => f.write_str("C"),
        }
    }
}

/// One DRAM module of the tested population.
#[derive(Debug, Clone, PartialEq)]
pub struct DramModule {
    /// Manufacturer.
    pub manufacturer: Manufacturer,
    /// Manufacture year (2008–2014).
    pub year: u32,
    /// Manufacture week (1–52).
    pub week: u32,
    /// Observed RowHammer error rate, in errors per 10^9 cells, when every
    /// row is hammered to the study's read count.
    pub errors_per_gbit: u64,
    /// Scale of the module's victims-per-aggressor-row distribution (the
    /// per-module heterogeneity visible in Fig. 12).
    pub victim_scale: f64,
}

impl DramModule {
    /// Whether the module exhibits any RowHammer errors.
    pub(crate) fn is_vulnerable(&self) -> bool {
        self.errors_per_gbit > 0
    }

    /// The module label in the paper's `X yyww / n` format (without the
    /// module index).
    pub(crate) fn label(&self) -> String {
        format!("{}{:02}{:02}", self.manufacturer, self.year % 100, self.week)
    }

    /// Samples the number of victim cells flipped by hammering one
    /// aggressor row: a heavy-tailed (geometric-mixture) count, zero for
    /// invulnerable modules and for a fraction of rows even on vulnerable
    /// ones.
    pub(crate) fn sample_victims(&self, rng: &mut StdRng) -> u32 {
        if !self.is_vulnerable() || self.victim_scale <= 0.0 {
            return 0;
        }
        // A fraction of rows resist hammering entirely; among affected
        // rows, victim counts decay geometrically with a module-specific
        // mean (matches Fig. 12's near-log-linear histograms).
        let p_affected = (self.victim_scale / (1.0 + self.victim_scale)).min(0.95);
        if rng.gen::<f64>() >= p_affected {
            return 0;
        }
        let mean = 1.0 + 5.0 * self.victim_scale;
        let u: f64 = rng.gen::<f64>().max(1e-12);
        (1.0 - mean * u.ln()).floor() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn module(scale: f64, errors: u64) -> DramModule {
        DramModule {
            manufacturer: Manufacturer::B,
            year: 2012,
            week: 46,
            errors_per_gbit: errors,
            victim_scale: scale,
        }
    }

    #[test]
    fn label_format() {
        let m = module(1.0, 10);
        assert_eq!(m.label(), "B1246");
    }

    #[test]
    fn invulnerable_modules_never_flip() {
        let m = module(1.0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(m.sample_victims(&mut rng), 0);
        }
    }

    #[test]
    fn victim_counts_are_heavy_tailed() {
        let m = module(1.5, 1000);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u32> = (0..200_000).map(|_| m.sample_victims(&mut rng)).collect();
        let zeros = samples.iter().filter(|&&v| v == 0).count();
        let big = samples.iter().filter(|&&v| v > 30).count();
        assert!(zeros > 0, "some rows must resist");
        assert!(big > 10, "tail missing");
        let max = *samples.iter().max().unwrap();
        assert!(max > 60, "max victims {max}");
    }

    #[test]
    fn larger_scale_means_more_victims() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = |scale: f64, rng: &mut StdRng| {
            let m = module(scale, 100);
            (0..100_000).map(|_| m.sample_victims(rng) as f64).sum::<f64>() / 100_000.0
        };
        let small = mean(0.3, &mut rng);
        let large = mean(2.0, &mut rng);
        assert!(large > 2.0 * small, "{small} vs {large}");
    }
}
