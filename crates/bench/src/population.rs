//! The 129-module population of the RowHammer study (paper Fig. 11): a
//! compact DRAM RowHammer (read disturb) model.
//!
//! The paper's related-work section (§5.2) reproduces two figures from the
//! authors' RowHammer study (Kim et al., ISCA 2014 \[42\]): the error rate of
//! 129 DRAM modules by manufacture date (Fig. 11) and the distribution of
//! victim cells per aggressor row for three representative modules
//! (Fig. 12). This model of that module population lets the repository
//! regenerate every figure in the paper:
//!
//! * **Date-dependent vulnerability** — modules manufactured before 2010
//!   show no RowHammer errors; vulnerability rises steeply with process
//!   scaling so that *all* tested 2012–2013 modules are vulnerable
//!   (the paper's emphasized finding).
//! * **Per-module variation** — each module has its own heavy-tailed
//!   victims-per-aggressor-row distribution; hammering an aggressor row
//!   flips a module- and row-dependent number of bits.
//!
//! ```
//! use rd_bench::{Manufacturer, ModulePopulation};
//!
//! let population = ModulePopulation::paper_129(42);
//! assert_eq!(population.modules().len(), 129);
//! let errors: u64 = population
//!     .modules()
//!     .iter()
//!     .filter(|m| m.manufacturer == Manufacturer::A)
//!     .map(|m| m.errors_per_gbit)
//!     .sum();
//! assert!(errors > 0);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::module::{DramModule, Manufacturer};

/// The tested module population.
#[derive(Debug, Clone)]
pub struct ModulePopulation {
    modules: Vec<DramModule>,
}

impl ModulePopulation {
    /// Builds a 129-module population with the study's date profile:
    /// modules from 2008–2014, the earliest vulnerable module dating to
    /// 2010, all 2012–2013 modules vulnerable, and error rates climbing to
    /// ~10^5–10^6 errors per 10^9 cells for the newest parts.
    pub fn paper_129(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modules = Vec::with_capacity(129);
        let manufacturers = [Manufacturer::A, Manufacturer::B, Manufacturer::C];
        for i in 0..129u32 {
            let manufacturer = manufacturers[(i % 3) as usize];
            // Spread manufacture dates over 2008-2014, skewed toward newer
            // parts as in the study (110 of 129 modules were vulnerable).
            let year = match i % 20 {
                0 => 2008,
                1 => 2009,
                2 | 3 => 2010,
                4..=7 => 2011,
                8..=12 => 2012,
                13..=16 => 2013,
                _ => 2014,
            };
            let week = rng.gen_range(1..=52);
            let vuln = Self::vulnerability(year, week, &mut rng);
            let victim_scale = if vuln == 0 { 0.0 } else { rng.gen_range(0.2..2.5) };
            modules.push(DramModule {
                manufacturer,
                year,
                week,
                errors_per_gbit: vuln,
                victim_scale,
            });
        }
        Self { modules }
    }

    /// Vulnerability (errors per 10^9 cells) by manufacture date: zero
    /// before 2010, probabilistic onset through 2010–2011, universal and
    /// strong from 2012 on.
    fn vulnerability(year: u32, week: u32, rng: &mut StdRng) -> u64 {
        let date = year as f64 + week as f64 / 52.0;
        if date < 2010.0 {
            return 0;
        }
        // Fraction of vulnerable modules ramps from ~30% (2010) to 100%
        // (2011.5+); among vulnerable parts the rate grows exponentially
        // with process scaling, ~1.5 decades of module-to-module spread.
        let p_vulnerable = ((date - 2009.7) / 1.5).clamp(0.0, 1.0);
        if rng.gen::<f64>() >= p_vulnerable {
            return 0;
        }
        let log_rate = 1.0 + 1.1 * (date - 2010.0) + rng.gen_range(-0.8..0.8);
        10f64.powf(log_rate.clamp(0.0, 6.3)) as u64
    }

    /// The modules.
    pub fn modules(&self) -> &[DramModule] {
        &self.modules
    }

    /// Number of vulnerable modules.
    pub fn vulnerable_count(&self) -> usize {
        self.modules.iter().filter(|m| m.is_vulnerable()).count()
    }

    /// `(year, errors_per_gbit)` scatter points for Fig. 11, one per module.
    pub fn fig11_points(&self) -> Vec<(Manufacturer, f64, u64)> {
        self.modules
            .iter()
            .map(|m| (m.manufacturer, m.year as f64 + m.week as f64 / 52.0, m.errors_per_gbit))
            .collect()
    }

    /// Three representative vulnerable modules (one per manufacturer) with
    /// the largest victim scales — the Fig. 12 exemplars.
    pub fn fig12_representatives(&self) -> Vec<&DramModule> {
        [Manufacturer::A, Manufacturer::B, Manufacturer::C]
            .iter()
            .filter_map(|&mfr| {
                self.modules
                    .iter()
                    .filter(|m| m.manufacturer == mfr && m.is_vulnerable())
                    .max_by(|a, b| a.victim_scale.partial_cmp(&b.victim_scale).expect("finite"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_matches_study_shape() {
        let p = ModulePopulation::paper_129(7);
        assert_eq!(p.modules().len(), 129);
        // No vulnerable modules before 2010 (earliest in the study: 2010).
        assert!(p.modules().iter().filter(|m| m.year < 2010).all(|m| !m.is_vulnerable()));
        // All 2012-2013 modules vulnerable (the paper's emphasized finding).
        assert!(p
            .modules()
            .iter()
            .filter(|m| m.year == 2012 || m.year == 2013)
            .all(|m| m.is_vulnerable()));
        // Majority vulnerable overall (study: 110 of 129).
        let v = p.vulnerable_count();
        assert!((70..=129).contains(&v), "vulnerable {v}");
    }

    #[test]
    fn error_rates_grow_with_date() {
        let p = ModulePopulation::paper_129(11);
        let mean_rate = |year: u32| {
            let ms: Vec<&DramModule> =
                p.modules().iter().filter(|m| m.year == year && m.is_vulnerable()).collect();
            if ms.is_empty() {
                0.0
            } else {
                ms.iter().map(|m| m.errors_per_gbit as f64).sum::<f64>() / ms.len() as f64
            }
        };
        let early = mean_rate(2010).max(1.0);
        let late = mean_rate(2013).max(mean_rate(2014));
        assert!(late > 10.0 * early, "2010 {early} vs 2013+ {late}");
    }

    #[test]
    fn representatives_cover_manufacturers() {
        let p = ModulePopulation::paper_129(3);
        let reps = p.fig12_representatives();
        assert_eq!(reps.len(), 3);
        let mfrs: Vec<Manufacturer> = reps.iter().map(|m| m.manufacturer).collect();
        assert_eq!(mfrs, vec![Manufacturer::A, Manufacturer::B, Manufacturer::C]);
        assert!(reps.iter().all(|m| m.is_vulnerable()));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ModulePopulation::paper_129(9);
        let b = ModulePopulation::paper_129(9);
        assert_eq!(a.modules(), b.modules());
    }
}
