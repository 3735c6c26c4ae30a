//! Characterization harness: regenerates the data series behind every
//! figure of the paper's evaluation (Figs. 2–8 and 10).
//!
//! Each `figN_*` function returns a plain data struct; the `rd-bench`
//! crate's `figN` figures (`figures figN`) print them as CSV and compare
//! against the paper's reported shapes (their `## shape-check` lines).

use rd_ecc::MarginPolicy;
use rd_flash::{AnalyticModel, Chip, ChipParams, Geometry, VthHistogram, NOMINAL_VPASS};
use rd_workloads::WorkloadProfile;

use crate::error::CoreError;
use crate::lifetime::{EnduranceConfig, EnduranceEvaluator, EnduranceResult};
use crate::rdr::Rdr;

/// Monte-Carlo experiment scale: cells simulated per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Wordlines per simulated block.
    pub wordlines: u32,
    /// Bitlines (cells per wordline).
    pub bitlines: u32,
}

impl Scale {
    /// Full figure fidelity (256 Ki cells: RBER resolution to ~1e-5).
    pub fn full() -> Self {
        Self { wordlines: 64, bitlines: 4096 }
    }

    /// Reduced scale for unit tests and the benchmark's smoke runs.
    pub fn quick() -> Self {
        Self { wordlines: 16, bitlines: 1024 }
    }

    fn geometry(self) -> Geometry {
        Geometry {
            blocks: 1,
            wordlines_per_block: self.wordlines,
            bitlines: self.bitlines,
            bits_per_cell: 2,
        }
    }

    fn chip(self, pe: u64, seed: u64) -> Result<Chip, CoreError> {
        let mut chip = Chip::new(self.geometry(), ChipParams::default(), seed);
        chip.cycle_block(0, pe)?;
        chip.program_block_random(0, seed ^ 0xF1E1D)?;
        Ok(chip)
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 — threshold-voltage distributions under read disturb
// ---------------------------------------------------------------------------

/// Data of Fig. 2: Vth histograms after increasing read-disturb counts.
#[derive(Debug, Clone)]
pub struct Fig2Data {
    /// `(read_count, histogram)` snapshots (0, 250K, 500K, 1M).
    pub snapshots: Vec<(u64, VthHistogram)>,
}

/// Reproduces Fig. 2a/2b: threshold-voltage distributions of a block with
/// 8K P/E cycles of wear after 0 / 250K / 500K / 1M reads.
///
/// # Errors
///
/// Propagates flash addressing errors (none for valid scales).
pub fn fig2_vth_histograms(scale: Scale, seed: u64) -> Result<Fig2Data, CoreError> {
    let mut chip = scale.chip(8_000, seed)?;
    let checkpoints = [0u64, 250_000, 500_000, 1_000_000];
    let mut snapshots = Vec::new();
    let mut applied = 0u64;
    for &reads in &checkpoints {
        chip.apply_read_disturbs(0, reads - applied)?;
        applied = reads;
        snapshots.push((reads, chip.vth_histogram(0, 2.0)?));
    }
    Ok(Fig2Data { snapshots })
}

// ---------------------------------------------------------------------------
// Fig. 3 — RBER vs read count per P/E level, with the slope table
// ---------------------------------------------------------------------------

/// One P/E-level series of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// P/E cycles of wear.
    pub pe_cycles: u64,
    /// `(reads, rber)` points.
    pub points: Vec<(u64, f64)>,
    /// Least-squares slope of the series (the paper's slope table).
    pub fitted_slope: f64,
    /// The analytic model's slope at this wear level (for comparison).
    pub analytic_slope: f64,
}

/// Data of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// One series per P/E level (2K..15K).
    pub series: Vec<Fig3Series>,
}

/// The paper's Fig. 3 slope table: `(P/E cycles, slope per read)`.
pub const PAPER_FIG3_SLOPES: [(u64, f64); 7] = [
    (2_000, 1.00e-9),
    (3_000, 1.63e-9),
    (4_000, 2.37e-9),
    (5_000, 3.74e-9),
    (8_000, 7.50e-9),
    (10_000, 9.10e-9),
    (15_000, 1.90e-8),
];

/// Reproduces Fig. 3: RBER vs read-disturb count, 0..100K reads, at seven
/// wear levels.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn fig3_rber_vs_reads(scale: Scale, seed: u64) -> Result<Fig3Data, CoreError> {
    let model = AnalyticModel::from_chip(&ChipParams::default(), scale.wordlines);
    let mut series = Vec::new();
    for &(pe, _) in &PAPER_FIG3_SLOPES {
        let mut chip = scale.chip(pe, seed ^ pe)?;
        let mut points = Vec::new();
        let mut applied = 0u64;
        for step in 0..=10u64 {
            let reads = step * 10_000;
            chip.apply_read_disturbs(0, reads - applied)?;
            applied = reads;
            points.push((reads, chip.block_rber(0)?.rate()));
        }
        series.push(Fig3Series {
            pe_cycles: pe,
            fitted_slope: fit_slope(&points),
            analytic_slope: model.rd_slope(pe, NOMINAL_VPASS),
            points,
        });
    }
    Ok(Fig3Data { series })
}

/// Least-squares slope of `(x, y)` points (intercept free).
fn fit_slope(points: &[(u64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0 as f64).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in points {
        num += (x as f64 - mean_x) * (y - mean_y);
        den += (x as f64 - mean_x).powi(2);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — RBER vs read count for relaxed Vpass values (log-x)
// ---------------------------------------------------------------------------

/// One Vpass series of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// Vpass as a percentage of nominal (94..100).
    pub vpass_pct: u32,
    /// `(reads, rber)` points over the log-x grid.
    pub points: Vec<(u64, f64)>,
}

/// Data of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// One series per Vpass percentage.
    pub series: Vec<Fig4Series>,
}

/// Reproduces Fig. 4: RBER vs read count (1e4..1e9, log scale) at 8K P/E
/// for Vpass from 94% to 100% of nominal.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn fig4_vpass_read_tolerance(scale: Scale, seed: u64) -> Result<Fig4Data, CoreError> {
    let grid: Vec<u64> = (0..=10).map(|i| (1.0e4 * 10f64.powf(i as f64 / 2.0)) as u64).collect();
    let mut series = Vec::new();
    for pct in (94..=100u32).rev() {
        let vpass = pct as f64 / 100.0 * NOMINAL_VPASS;
        let mut chip = scale.chip(8_000, seed ^ pct as u64)?;
        chip.set_block_vpass(0, vpass)?;
        let mut points = Vec::new();
        let mut applied = 0u64;
        for &reads in &grid {
            chip.apply_read_disturbs(0, reads - applied)?;
            applied = reads;
            points.push((reads, chip.block_rber(0)?.rate()));
        }
        series.push(Fig4Series { vpass_pct: pct, points });
    }
    Ok(Fig4Data { series })
}

// ---------------------------------------------------------------------------
// Fig. 5 — additional RBER from relaxed Vpass across retention ages
// ---------------------------------------------------------------------------

/// One retention-age series of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Retention age in days.
    pub age_days: u32,
    /// `(vpass, additional_rber)` points.
    pub points: Vec<(f64, f64)>,
}

/// Data of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// One series per retention age (0..21 days).
    pub series: Vec<Fig5Series>,
}

/// Reproduces Fig. 5: additional RBER induced by relaxing Vpass, for
/// retention ages 0–21 days (8K P/E). Each age is one
/// [`Chip::block_rber_sweep`] over the nominal Vpass and the grid: the
/// block is sensed once per age, not once per point.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn fig5_passthrough_sweep(scale: Scale, seed: u64) -> Result<Fig5Data, CoreError> {
    let ages = [0u32, 1, 2, 6, 9, 17, 21];
    let vpass_grid = (0..=16).map(|i| 478.0 + 2.0 * i as f64 + 2.0);
    let vpasses: Vec<f64> = std::iter::once(NOMINAL_VPASS).chain(vpass_grid).collect();
    let mut chip = scale.chip(8_000, seed)?;
    let mut series = Vec::new();
    let mut current_age = 0u32;
    for &age in &ages {
        chip.advance_days((age - current_age) as f64);
        current_age = age;
        let stats = chip.block_rber_sweep(0, &vpasses)?;
        let baseline = stats[0].rate();
        let points = vpasses[1..]
            .iter()
            .zip(&stats[1..])
            .map(|(&vpass, rber)| (vpass, (rber.rate() - baseline).max(0.0)))
            .collect();
        series.push(Fig5Series { age_days: age, points });
    }
    Ok(Fig5Data { series })
}

// ---------------------------------------------------------------------------
// Fig. 6 — retention vs margin: the safe-Vpass-reduction staircase
// ---------------------------------------------------------------------------

/// One retention-day row of Fig. 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Retention age in days.
    pub day: u32,
    /// Base RBER (P/E + retention errors, no disturb, nominal Vpass).
    pub base_rber: f64,
    /// Margin left under the usable (80%) capability.
    pub margin_rber: f64,
    /// Maximum safe Vpass reduction in percent (0–4), i.e. the largest
    /// whole-percent reduction whose additional read errors fit the margin.
    pub safe_reduction_pct: u32,
}

/// Data of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// ECC capability line (RBER).
    pub capability: f64,
    /// Usable capability after the 20% reserve.
    pub usable: f64,
    /// Per-day rows.
    pub rows: Vec<Fig6Row>,
}

/// Reproduces Fig. 6: overall RBER and tolerable Vpass reduction vs
/// retention age for a block with 8K P/E cycles of wear (analytic; the
/// Monte-Carlo pass-through model is pinned to the same closed form).
pub fn fig6_retention_staircase(wordlines: u32) -> Fig6Data {
    let params = ChipParams::default();
    let model = AnalyticModel::from_chip(&params, wordlines);
    let margin_policy = MarginPolicy::paper_default();
    let pe = 8_000u64;
    let mut rows = Vec::new();
    for day in 0..=21u32 {
        let base = model.rber_pe(pe) + model.rber_retention(pe, day as f64);
        let margin = margin_policy.margin_rber(base);
        let mut safe = 0u32;
        for pct in 1..=10u32 {
            let vpass = (1.0 - pct as f64 / 100.0) * NOMINAL_VPASS;
            if vpass < params.min_vpass {
                break;
            }
            let addl = model.rber_passthrough(pe, day as f64, vpass);
            if addl <= margin {
                safe = pct;
            } else {
                break;
            }
        }
        rows.push(Fig6Row { day, base_rber: base, margin_rber: margin, safe_reduction_pct: safe });
    }
    Fig6Data {
        capability: margin_policy.capability_rber,
        usable: margin_policy.usable_rber(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — error-rate peaks across refresh intervals
// ---------------------------------------------------------------------------

/// One time point of Fig. 7.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Time in days.
    pub day: f64,
    /// Error rate without mitigation (nominal Vpass).
    pub unmitigated: f64,
    /// Error rate with Vpass Tuning (excluding the deliberate, correctable
    /// pass-through errors, as the paper's figure does).
    pub mitigated: f64,
}

/// Data of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Data {
    /// Refresh interval in days.
    pub interval_days: f64,
    /// ECC capability line.
    pub capability: f64,
    /// Time series over several refresh intervals.
    pub points: Vec<Fig7Point>,
}

/// Reproduces Fig. 7 (conceptual figure, simulated concretely): error rate
/// over four refresh intervals for a read-hot block, with and without
/// Vpass Tuning.
pub fn fig7_refresh_intervals(pe_cycles: u64, reads_per_day: f64, wordlines: u32) -> Fig7Data {
    let params = ChipParams::default();
    let model = AnalyticModel::from_chip(&params, wordlines);
    let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
    let interval = 7.0f64;
    let tuned_vpass = evaluator.tuned_vpass(pe_cycles);
    let mut points = Vec::new();
    let mut t = 0.0;
    while t <= 4.0 * interval + 1e-9 {
        let in_interval = t % interval;
        let reads = (reads_per_day * in_interval) as u64;
        let unmitigated = model.rber(pe_cycles, in_interval, reads, NOMINAL_VPASS);
        // Mitigated: disturb accumulates at the tuned Vpass. The deliberate
        // pass-through errors are excluded (they live inside the reserved
        // margin; see the paper's Fig. 7 caption).
        let mitigated = model.rber_pe(pe_cycles)
            + model.rber_retention(pe_cycles, in_interval)
            + model.rber_read_disturb(pe_cycles, reads, tuned_vpass);
        points.push(Fig7Point { day: t, unmitigated, mitigated });
        t += 0.25;
    }
    Fig7Data {
        interval_days: interval,
        capability: MarginPolicy::paper_default().capability_rber,
        points,
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — endurance per workload
// ---------------------------------------------------------------------------

/// Reproduces Fig. 8: P/E endurance per workload, baseline vs Vpass Tuning.
pub fn fig8_endurance() -> Vec<EnduranceResult> {
    let evaluator = EnduranceEvaluator::new(EnduranceConfig::default());
    evaluator.evaluate_suite(&WorkloadProfile::suite())
}

// ---------------------------------------------------------------------------
// Fig. 10 — RBER with and without RDR
// ---------------------------------------------------------------------------

/// One read-count point of Fig. 10.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Read-disturb count before recovery.
    pub reads: u64,
    /// RBER without recovery.
    pub no_recovery: f64,
    /// RBER after RDR's probabilistic correction.
    pub rdr: f64,
}

/// Data of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Points over the 0..1M read grid.
    pub points: Vec<Fig10Point>,
}

/// Reproduces Fig. 10: RBER vs read-disturb count with and without RDR,
/// for a block with 8K P/E cycles of wear.
///
/// Both curves are evaluated on the device state the recovery actually ran
/// on (which includes the disturbs RDR itself induces for identification),
/// so the comparison isolates the effect of the probabilistic correction.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn fig10_rdr(scale: Scale, seed: u64) -> Result<Fig10Data, CoreError> {
    let rdr = Rdr::default();
    let grid = [0u64, 200_000, 400_000, 600_000, 800_000, 1_000_000];
    let mut points = Vec::new();
    let fresh = scale.chip(8_000, seed)?;
    for &reads in &grid {
        // Fresh chip per point: RDR's own induced disturbs must not leak
        // into the next measurement.
        let mut chip = fresh.clone();
        chip.apply_read_disturbs(0, reads)?;
        let outcome = rdr.recover_block(&mut chip, 0)?;
        let no_recovery = chip.block_rber(0)?.rate();
        let recovered = rdr.errors_vs_intended(&chip, 0, &outcome)?;
        points.push(Fig10Point { reads, no_recovery, rdr: recovered.rate() });
    }
    Ok(Fig10Data { points })
}

// ---------------------------------------------------------------------------
// Extensions beyond the DSN figures (paper §5 related work, reproduced)
// ---------------------------------------------------------------------------

/// One wordline row of the concentrated-disturb experiment.
#[derive(Debug, Clone, Copy)]
pub struct ConcentratedRow {
    /// Distance (in wordlines) from the hammered wordline.
    pub distance: i64,
    /// Observed RBER of the wordline's pages.
    pub rber: f64,
}

/// Extension experiment (Zambelli et al. \[97\], cited in §5): hammer one
/// page of a block and measure per-wordline RBER by distance — direct
/// neighbours of the hammered wordline suffer the most read disturb, and
/// the hammered wordline itself the least.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn ext_concentrated_disturb(
    scale: Scale,
    seed: u64,
    reads: u64,
) -> Result<Vec<ConcentratedRow>, CoreError> {
    let mut chip = scale.chip(8_000, seed)?;
    let target = scale.wordlines / 2;
    chip.hammer_wordline(0, target, reads)?;
    let mut rows = Vec::new();
    for wl in 0..scale.wordlines {
        rows.push(ConcentratedRow {
            distance: wl as i64 - target as i64,
            rber: chip.wordline_rber(0, wl)?.rate(),
        });
    }
    Ok(rows)
}

/// One row of the partially-programmed-block experiment.
#[derive(Debug, Clone, Copy)]
pub struct PartialBlockRow {
    /// Read-disturb count applied.
    pub reads: u64,
    /// Mean threshold-voltage shift of the *unprogrammed* (erased)
    /// wordlines' cells.
    pub erased_shift: f64,
    /// RBER of the programmed wordlines.
    pub programmed_rber: f64,
}

/// Extension experiment (\[15, 67\], cited in §5): in a partially-programmed
/// block, reads to the programmed pages disturb the unprogrammed (erased)
/// wordlines most — all their cells sit at the lowest threshold voltages.
/// When such wordlines are later programmed, the accumulated shift becomes
/// programming error (the security issue of \[15\]).
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn ext_partial_block(scale: Scale, seed: u64) -> Result<Vec<PartialBlockRow>, CoreError> {
    let mut chip = Chip::new(
        Geometry {
            blocks: 1,
            wordlines_per_block: scale.wordlines,
            bitlines: scale.bitlines,
            bits_per_cell: 2,
        },
        ChipParams::default(),
        seed,
    );
    chip.cycle_block(0, 8_000)?;
    // Program only the first half of the block.
    let mut data_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    for page in 0..scale.wordlines {
        let data = rd_flash::bits::random(&mut data_rng, scale.bitlines as usize);
        chip.program_page(0, page, &data)?;
    }
    let erased_wl = scale.wordlines - 1; // top wordline: never programmed
    let erased_mean = |chip: &Chip| -> f64 {
        let cells = chip.cells(0).expect("cell-exact block");
        let op = chip.operating_point(0, erased_wl).expect("in-range wordline");
        cells.wordline_current_vth(chip.params(), erased_wl, op).sum::<f64>()
            / scale.bitlines as f64
    };
    let baseline = erased_mean(&chip);
    let mut rows = Vec::new();
    let mut applied = 0u64;
    for step in 0..=4u64 {
        let reads = step * 250_000;
        chip.apply_read_disturbs(0, reads - applied)?;
        applied = reads;
        rows.push(PartialBlockRow {
            reads,
            erased_shift: erased_mean(&chip) - baseline,
            programmed_rber: chip.block_rber(0)?.rate(),
        });
    }
    Ok(rows)
}

/// One row of the SLC-mode comparison.
#[derive(Debug, Clone, Copy)]
pub struct SlcModeRow {
    /// Read-disturb count applied.
    pub reads: u64,
    /// RBER of the MLC-programmed block.
    pub mlc_rber: f64,
    /// RBER of the SLC-configured block (LSB pages only: one wide-margin
    /// bit per cell).
    pub slc_rber: f64,
}

/// Extension experiment (\[48, 100\], cited in §5): blocks configured as SLC
/// — programmed with one wide-margin bit per cell — are resistant to read
/// disturb, which is why prior work remaps read-hot pages into them. In
/// this model the resistance is emergent: the single SLC reference sits
/// ~185 units above the erased state, so disturb shifts that devastate the
/// MLC ER→P1 boundary leave SLC data untouched.
///
/// # Errors
///
/// Propagates flash addressing errors.
pub fn ext_slc_mode(scale: Scale, seed: u64) -> Result<Vec<SlcModeRow>, CoreError> {
    let geometry = scale.geometry();
    let mut mlc = Chip::new(geometry, ChipParams::default(), seed);
    mlc.cycle_block(0, 8_000)?;
    mlc.program_block_random(0, seed)?;

    let mut slc = Chip::new(geometry, ChipParams::default(), seed ^ 1);
    slc.cycle_block(0, 8_000)?;
    // SLC configuration: program only the LSB page of each wordline (one
    // bit per cell, ER vs P2, sensed at the single Vb reference).
    let mut data_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 2);
    for wl in 0..geometry.wordlines_per_block {
        let data = rd_flash::bits::random(&mut data_rng, geometry.bits_per_page());
        slc.program_page(0, wl * 2, &data)?;
    }

    let mut rows = Vec::new();
    let mut applied = 0u64;
    for step in 0..=4u64 {
        let reads = step * 250_000;
        mlc.apply_read_disturbs(0, reads - applied)?;
        slc.apply_read_disturbs(0, reads - applied)?;
        applied = reads;
        rows.push(SlcModeRow {
            reads,
            mlc_rber: mlc.block_rber(0)?.rate(),
            slc_rber: slc.block_rber(0)?.rate(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_er_state_shifts_up_with_reads() {
        let data = fig2_vth_histograms(Scale::quick(), 11).unwrap();
        assert_eq!(data.snapshots.len(), 4);
        let er_means: Vec<f64> =
            data.snapshots.iter().map(|(_, h)| h.state_mean(rd_flash::CellState::Er)).collect();
        assert!(
            er_means.windows(2).all(|w| w[1] >= w[0] - 0.2),
            "ER mean must drift up: {er_means:?}"
        );
        assert!(er_means[3] - er_means[0] > 3.0, "1M-read shift too small: {er_means:?}");
        // P3 barely moves.
        let p3_0 = data.snapshots[0].1.state_mean(rd_flash::CellState::P3);
        let p3_3 = data.snapshots[3].1.state_mean(rd_flash::CellState::P3);
        assert!((p3_3 - p3_0).abs() < 1.0, "P3 moved {p3_0} -> {p3_3}");
    }

    #[test]
    fn fig3_rber_grows_with_reads_and_wear() {
        let data = fig3_rber_vs_reads(Scale::quick(), 5).unwrap();
        assert_eq!(data.series.len(), 7);
        // At quick scale, low-wear series sit near the Monte-Carlo noise
        // floor; assert growth where the signal is resolvable (>= 5K P/E).
        for s in data.series.iter().filter(|s| s.pe_cycles >= 5_000) {
            assert!(s.fitted_slope > 0.0, "pe {}: slope {}", s.pe_cycles, s.fitted_slope);
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "pe {}: rber did not grow", s.pe_cycles);
        }
        // Wear dependence: the extremes of the slope table must separate
        // cleanly even at quick scale.
        let slope_2k = data.series.first().unwrap().fitted_slope;
        let slope_15k = data.series.last().unwrap().fitted_slope;
        assert!(
            slope_15k > slope_2k.max(0.0) * 4.0,
            "slope(15K)={slope_15k} vs slope(2K)={slope_2k}"
        );
    }

    #[test]
    fn fig4_lower_vpass_tolerates_more_reads() {
        let data = fig4_vpass_read_tolerance(Scale::quick(), 3).unwrap();
        // At 1e6 reads, 94% Vpass must show clearly lower RBER than 100%.
        let rber_at = |pct: u32, reads: u64| {
            data.series
                .iter()
                .find(|s| s.vpass_pct == pct)
                .unwrap()
                .points
                .iter()
                .find(|p| p.0 >= reads)
                .unwrap()
                .1
        };
        assert!(rber_at(94, 1_000_000) < rber_at(100, 1_000_000) * 0.7);
    }

    #[test]
    fn fig6_staircase_shape() {
        let data = fig6_retention_staircase(64);
        assert_eq!(data.rows.len(), 22);
        // Max reduction is 4%, at low retention age.
        let max = data.rows.iter().map(|r| r.safe_reduction_pct).max().unwrap();
        assert_eq!(max, 4, "max safe reduction");
        assert_eq!(data.rows[0].safe_reduction_pct, 4);
        // Non-increasing staircase.
        for w in data.rows.windows(2) {
            assert!(
                w[1].safe_reduction_pct <= w[0].safe_reduction_pct,
                "staircase must not rise: day {} -> {}",
                w[0].day,
                w[1].day
            );
        }
        // The 4% band ends within the first week (paper: < 4 days).
        let four_band_end =
            data.rows.iter().filter(|r| r.safe_reduction_pct == 4).map(|r| r.day).max().unwrap();
        assert!((2..=7).contains(&four_band_end), "4% band ends at day {four_band_end}");
    }

    #[test]
    fn fig7_mitigation_lowers_peaks() {
        let data = fig7_refresh_intervals(8_000, 40_000.0, 64);
        // Peaks at interval ends: mitigated strictly lower.
        let peak = |f: &dyn Fn(&Fig7Point) -> f64| data.points.iter().map(f).fold(0.0, f64::max);
        let unmit = peak(&|p: &Fig7Point| p.unmitigated);
        let mit = peak(&|p: &Fig7Point| p.mitigated);
        assert!(mit < unmit, "mitigated {mit} vs unmitigated {unmit}");
        // Sawtooth: error rate resets after each refresh.
        let just_before = data.points.iter().find(|p| (p.day - 6.75).abs() < 1e-9).unwrap();
        let just_after = data.points.iter().find(|p| (p.day - 7.0).abs() < 1e-9).unwrap();
        assert!(just_after.unmitigated < just_before.unmitigated);
    }

    #[test]
    fn fig8_positive_average_gain() {
        let results = fig8_endurance();
        assert!(results.len() >= 10);
        let avg = crate::lifetime::average_gain(&results);
        assert!(avg > 0.05, "average gain {avg}");
    }

    #[test]
    fn concentrated_disturb_peaks_at_neighbors() {
        let rows = ext_concentrated_disturb(Scale::quick(), 3, 400_000).unwrap();
        let rber_at = |d: i64| rows.iter().find(|r| r.distance == d).unwrap().rber;
        let neighbors = rber_at(-1) + rber_at(1);
        let distant = rber_at(-6) + rber_at(6);
        assert!(neighbors > distant, "neighbors {neighbors:.3e} vs distant {distant:.3e}");
        assert!(rber_at(0) < rber_at(1), "hammered wordline should see least disturb");
    }

    #[test]
    fn slc_blocks_resist_read_disturb() {
        let rows = ext_slc_mode(Scale::quick(), 7).unwrap();
        let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
        // The MLC block accumulates visible disturb errors over 1M reads;
        // the SLC block's wide single-bit margin keeps its *growth* an
        // order of magnitude smaller (both share the wear error floor).
        let mlc_growth = last.mlc_rber - first.mlc_rber;
        let slc_growth = (last.slc_rber - first.slc_rber).max(0.0);
        assert!(mlc_growth > 1e-3, "MLC disturb growth {mlc_growth}");
        assert!(
            slc_growth < mlc_growth / 10.0,
            "SLC growth {slc_growth} not clearly smaller than MLC growth {mlc_growth}"
        );
    }

    #[test]
    fn partial_block_erased_wordlines_shift_most() {
        let rows = ext_partial_block(Scale::quick(), 5).unwrap();
        // Erased-cell shift grows monotonically with reads and dwarfs the
        // programmed pages' RBER-equivalent voltage motion.
        assert!(rows.windows(2).all(|w| w[1].erased_shift >= w[0].erased_shift - 1e-9));
        let last = rows.last().unwrap();
        assert!(last.erased_shift > 3.0, "erased shift only {}", last.erased_shift);
        assert!(last.programmed_rber > rows[0].programmed_rber);
    }
}
