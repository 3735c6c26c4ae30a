//! Calibration acceptance suite: pins the simulator to the paper's
//! reported numbers. Every test names the paper claim it enforces.

use readdisturb::core::characterize::{
    fig10_rdr, fig3_rber_vs_reads, fig6_retention_staircase, fig8_endurance, Scale,
    PAPER_FIG3_SLOPES,
};
use readdisturb::core::lifetime::average_gain;
use readdisturb::prelude::*;

/// Paper Fig. 3 slope table: the analytic model must match within ±20%.
#[test]
fn analytic_slope_table_matches_paper() {
    let model = AnalyticModel::from_chip(&ChipParams::default(), 64);
    for (pe, paper) in PAPER_FIG3_SLOPES {
        let got = model.rd_slope(pe, NOMINAL_VPASS);
        let ratio = got / paper;
        assert!((0.8..=1.25).contains(&ratio), "PE {pe}: {got:.2e} vs paper {paper:.2e}");
    }
}

/// Monte-Carlo fitted slopes must track the paper table within ±45%
/// (Monte-Carlo noise at this scale) and preserve the wear ordering.
#[test]
fn monte_carlo_slopes_track_paper_table() {
    let data = fig3_rber_vs_reads(Scale::full(), 1234).unwrap();
    for (series, (pe, paper)) in data.series.iter().zip(PAPER_FIG3_SLOPES) {
        assert_eq!(series.pe_cycles, pe);
        let ratio = series.fitted_slope / paper;
        assert!(
            (0.55..=1.8).contains(&ratio),
            "PE {pe}: MC slope {:.2e} vs paper {paper:.2e} (ratio {ratio:.2})",
            series.fitted_slope
        );
    }
    let s2k = data.series[0].fitted_slope;
    let s15k = data.series[6].fitted_slope;
    assert!(
        (10.0..=35.0).contains(&(s15k / s2k)),
        "15K/2K slope ratio {:.1} (paper: 19)",
        s15k / s2k
    );
}

/// Paper §2.3: "at 100K reads, lowering Vpass by 2% can reduce the RBER by
/// as much as 50%" — checked on the Monte-Carlo chip.
#[test]
fn two_percent_vpass_cut_halves_rber_at_100k_reads() {
    let rber_at = |vpass_frac: f64| -> f64 {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 5);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 9).unwrap();
        chip.set_block_vpass(0, vpass_frac * NOMINAL_VPASS).unwrap();
        chip.apply_read_disturbs(0, 100_000).unwrap();
        // Errors measured at nominal references; the paper's comparison is
        // of disturb damage, not deliberate pass-through errors.
        chip.set_block_vpass(0, NOMINAL_VPASS).unwrap();
        chip.block_rber(0).unwrap().rate()
    };
    let nominal = rber_at(1.0);
    let cut = rber_at(0.98);
    let reduction = 1.0 - cut / nominal;
    assert!(
        (0.30..=0.70).contains(&reduction),
        "2% Vpass cut reduced RBER by {:.0}% (paper: ~50%)",
        reduction * 100.0
    );
}

/// Paper Fig. 6: Vpass can be safely reduced by at most 4%, only at low
/// retention age, with a non-increasing staircase.
#[test]
fn staircase_max_four_percent_at_low_age() {
    let data = fig6_retention_staircase(64);
    assert_eq!(data.rows[0].safe_reduction_pct, 4);
    assert_eq!(data.rows.iter().map(|r| r.safe_reduction_pct).max().unwrap(), 4);
    for w in data.rows.windows(2) {
        assert!(w[1].safe_reduction_pct <= w[0].safe_reduction_pct);
    }
    let end_of_4 = data.rows.iter().filter(|r| r.safe_reduction_pct == 4).count();
    assert!((2..=8).contains(&end_of_4), "4% band spans {end_of_4} days (paper: <4 days)");
    // The base RBER curve stays under the capability for the whole window,
    // like the paper's Fig. 6 plot.
    assert!(data.rows.iter().all(|r| r.base_rber < data.capability * 1.05));
}

/// Paper Fig. 8: Vpass Tuning improves endurance by 21% on average across
/// the workload suite (we accept 15–29%).
#[test]
fn endurance_gain_averages_twenty_one_percent() {
    let results = fig8_endurance();
    let avg = average_gain(&results);
    assert!(
        (0.15..=0.29).contains(&avg),
        "average endurance gain {:.1}% (paper: 21%)",
        avg * 100.0
    );
    // Per-workload gains must be non-negative and heterogeneous.
    for r in &results {
        assert!(r.gain() >= 0.0, "{}: negative gain", r.workload);
    }
    let max = results.iter().map(|r| r.gain()).fold(0.0, f64::max);
    let min = results.iter().map(|r| r.gain()).fold(1.0, f64::min);
    assert!(max - min > 0.05, "workloads should differentiate: {min:.2}..{max:.2}");
    // Fig. 8's bars live in the single-digit-thousands of P/E cycles.
    for r in &results {
        assert!(
            (1_500..=16_000).contains(&r.baseline),
            "{}: baseline {} P/E",
            r.workload,
            r.baseline
        );
    }
}

/// Paper Fig. 10 / abstract: RDR reduces RBER by up to 36% at 1M reads,
/// growing with read count (we accept 25–50% at 1M).
#[test]
fn rdr_reduction_reaches_paper_level_at_1m_reads() {
    let data = fig10_rdr(Scale::full(), 77).unwrap();
    let last = data.points.last().unwrap();
    assert_eq!(last.reads, 1_000_000);
    let reduction = 1.0 - last.rdr / last.no_recovery;
    assert!(
        (0.25..=0.50).contains(&reduction),
        "RDR reduction at 1M reads: {:.1}% (paper: 36%)",
        reduction * 100.0
    );
    // Growth with read count: the last point's reduction is the maximum.
    for p in &data.points {
        let r = 1.0 - p.rdr / p.no_recovery;
        assert!(r <= reduction + 0.03, "reduction at {} reads = {r:.2} exceeds 1M's", p.reads);
    }
}

/// Monte-Carlo vs analytic consistency: total RBER
/// within ±35% across a grid of operating points.
#[test]
fn monte_carlo_matches_analytic_model() {
    let model = AnalyticModel::from_chip(&ChipParams::default(), 64);
    for (pe, reads, days) in [
        (8_000u64, 0u64, 0.0f64),
        (8_000, 100_000, 0.0),
        (8_000, 0, 14.0),
        (5_000, 50_000, 7.0),
        (12_000, 50_000, 3.0),
    ] {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 31);
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, 3).unwrap();
        chip.apply_read_disturbs(0, reads).unwrap();
        chip.advance_days(days);
        let mc = chip.block_rber(0).unwrap().rate();
        let analytic = model.rber(pe, days, reads, NOMINAL_VPASS);
        let ratio = mc / analytic;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "pe={pe} reads={reads} days={days}: MC {mc:.3e} vs analytic {analytic:.3e}"
        );
    }
}

/// Paper §3: overheads are 24.34 s/day and 128 KB for a 512 GB SSD.
#[test]
fn overheads_match_paper() {
    let m = readdisturb::core::overhead::OverheadModel::paper_512gb();
    let s = m.daily_overhead_seconds();
    let kb = m.storage_overhead_bytes() as f64 / 1024.0;
    assert!((18.0..=32.0).contains(&s), "daily overhead {s}s (paper 24.34s)");
    assert!((100.0..=160.0).contains(&kb), "storage {kb}KB (paper 128KB)");
}
