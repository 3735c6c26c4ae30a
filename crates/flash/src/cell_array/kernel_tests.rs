//! [`CellArray::sense_wordline`] against the closed form it stands in for:
//! for every cell, the state the kernel reports must be
//! `refs.classify_index` of the voltage the un-hoisted per-cell functions
//! compute ([`CellArray::reference_vth`]), and the voltage
//! [`CellArray::current_vth_at`] reports must be that voltage to the bit —
//! on sampled operating points and on cells built to sit on the screen's
//! edges.

use proptest::prelude::*;
use rand::SeedableRng;

use super::*;
use crate::params::NOMINAL_VPASS;

/// `(base_vth, leak, susceptibility)`.
type Cell = (f32, f32, f32);

/// A one-wordline array of exactly these cells.
fn array_of(cells: &[Cell]) -> CellArray {
    CellArray {
        wordlines: 1,
        bitlines: cells.len() as u32,
        intended: vec![0; cells.len()],
        base_vth: cells.iter().map(|c| c.0).collect(),
        leak: cells.iter().map(|c| c.1).collect(),
        susceptibility: cells.iter().map(|c| c.2).collect(),
    }
}

/// Holds the kernel to the reference on every cell, at `refs` and at the
/// pass-through decision for `vpass`. Returns how many cells the screen
/// left to the closed form.
fn check(
    cells: &[Cell],
    params: &ChipParams,
    op: OperatingPoint,
    refs: &VoltageRefs,
    vpass: f64,
) -> Result<usize, String> {
    let array = array_of(cells);
    let sense = Sense::new(params, op);
    let mut scratch = SenseScratch::default();
    let left = array.sense_wordline(0, &sense, &Screen::new(params, refs), &mut scratch);
    let vpass_level = Level::vpass(params, vpass);
    for (i, cell) in cells.iter().enumerate() {
        let vth = array.reference_vth(params, i, op);
        let got = array.current_vth_at(i, &sense);
        if got.to_bits() != vth.to_bits() {
            return Err(format!("cell {cell:?} at {op:?}: voltage {got:e}, reference {vth:e}"));
        }
        let state = refs.classify_index(vth) as u8;
        if scratch.states[i] != state {
            return Err(format!(
                "cell {cell:?} at {op:?}, refs {:?}: sensed {}, reference {state} (vth {vth:e})",
                refs.levels(),
                scratch.states[i]
            ));
        }
        let blocks = (vth as f32) as f64 > vpass;
        if array.exceeds_vpass(i, &sense, &vpass_level) != blocks {
            return Err(format!("cell {cell:?} at {op:?}: vpass {vpass} decision is not {blocks}"));
        }
    }
    Ok(left)
}

/// The three reference sets a controller reads at: the defaults, a
/// read-retry shift of all three, and each boundary moved on its own.
fn reference_sets(params: &ChipParams, shift: f64, moves: [f64; 3]) -> [VoltageRefs; 3] {
    let refs = params.refs;
    [
        refs,
        refs.shifted(shift),
        VoltageRefs::new(refs.va() + moves[0], refs.vb() + moves[1], refs.vc() + moves[2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Sampled cells and operating points: every wear level, fresh and
    /// aged data, no dose, a few reads' dose and the 1e4..1e11 range the
    /// experiments reach, nominal and relaxed Vpass.
    #[test]
    fn kernel_matches_the_closed_form(
        bases in proptest::collection::vec(-60.0f32..520.0, 48),
        leaks in proptest::collection::vec(-3.0f32..3.0, 48),
        tails in proptest::collection::vec(1.0e-5f32..1.0, 48),
        pe_cycles in 0u64..20_000,
        aged in any::<bool>(),
        age_days in 0.01f64..40.0,
        dose_arm in 0u8..3,
        few_reads in 0.5f64..50.0,
        dose_exponent in 4.0f64..11.0,
        vpass in 0.90f64..=1.0,
        shift in -16.0f64..16.0,
        moves in proptest::collection::vec(-30.0f64..30.0, 3),
    ) {
        let params = ChipParams::default();
        // Log-normal leak, Pareto susceptibility up to the cap.
        let cells: Vec<Cell> = bases
            .iter()
            .zip(&leaks)
            .zip(&tails)
            .map(|((&base, &z), &u)| (base, z.exp(), u.powf(-1.0 / 0.85).min(1.0e5)))
            .collect();
        let dose = [0.0, few_reads, 10f64.powf(dose_exponent)][usize::from(dose_arm)];
        let op = OperatingPoint { pe_cycles, age_days: if aged { age_days } else { 0.0 }, dose };
        for refs in reference_sets(&params, shift, [moves[0], moves[1], moves[2]]) {
            if let Err(mismatch) = check(&cells, &params, op, &refs, vpass * NOMINAL_VPASS) {
                prop_assert!(false, "{mismatch}");
            }
        }
    }
}

/// `x` moved by `ulps` representable values.
fn nudge(x: f64, ulps: i32) -> f64 {
    (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
}

fn nudge32(x: f32, ulps: i32) -> f32 {
    (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
}

const FRESH: OperatingPoint = OperatingPoint { pe_cycles: 8_000, age_days: 0.0, dose: 0.0 };

/// (b) An undisturbed voltage sitting on a reference, and one to four
/// representable values either side of it — in the cell's `f32` and in the
/// reference's `f64` — under no dose, a single read's, and a heavy one.
#[test]
fn voltages_on_and_around_a_reference() {
    let params = ChipParams::default();
    for (level, base) in [(0, 100.0f32), (1, 225.0), (2, 355.0)] {
        for dose in [0.0, 1.0e-3, 10.6, 1.0e5, 1.0e9] {
            let op = OperatingPoint { dose, ..FRESH };
            let cells: Vec<Cell> =
                (-4..=4).flat_map(|k| [1.0, 40.0].map(|s| (nudge32(base, k), 1.0, s))).collect();
            for k in -4..=4 {
                let mut levels = [100.0, 225.0, 355.0];
                levels[level] = nudge(f64::from(base), k);
                let refs = VoltageRefs::from_levels(&levels);
                check(&cells, &params, op, &refs, NOMINAL_VPASS).unwrap();
            }
        }
    }
}

/// (b) The far edge of the screen: `v0` within a few 1e-6 V of
/// `L − κ·ln2 − GUARD_V`, dose terms from far under to far over
/// `½·exp(L/κ)` with the bound itself approached to the ulp. The cells the
/// screen takes here are the closest to `L` it ever takes; shrink the gap
/// or drop the term test and they read on the wrong side.
#[test]
fn the_screen_edge_is_safe_on_both_sides() {
    let params = ChipParams::default();
    let kappa = params.rd_kappa;
    let (base, s) = (80.0f32, 3.0f32);
    let mut settled_by_comparison = 0;
    for gap in [-3.0e-6, -1.0e-6, -1.0e-9, 0.0, 1.0e-9, 1.0e-6, 3.0e-6] {
        // v0 = base = L − κ·ln2 − GUARD_V + gap
        let level = f64::from(base) + kappa * LN_2 + GUARD_V - gap;
        let refs = VoltageRefs::new(level, level + 125.0, level + 255.0);
        let bound = 0.5 * (1.0 - TERM_SLACK) * (level / kappa).exp();
        let terms = [0.0, 0.25, 0.999_999, 1.0, 1.000_001, 1.02, 2.0, 50.0]
            .into_iter()
            .flat_map(|f| (-3..=3).map(move |k| nudge(f * bound, k)));
        for term in terms {
            // α·s·D == term up to the rounding of one division.
            let dose = term / (params.rd_alpha * f64::from(s));
            for dose in (-2..=2).map(|k| nudge(dose, k).max(0.0)) {
                let op = OperatingPoint { dose, ..FRESH };
                let left = check(&[(base, 1.0, s)], &params, op, &refs, NOMINAL_VPASS).unwrap();
                settled_by_comparison += usize::from(left == 0);
            }
        }
    }
    assert!(settled_by_comparison > 100, "the edge cases must include screened cells");
}

/// (b) `exp(v0/κ) + α·s·D` within a few ulp of `exp(L/κ)`, on both sides:
/// the closed form decides by its last bit, so the kernel must be running
/// it.
#[test]
fn sums_within_ulps_of_a_reference() {
    let params = ChipParams::default();
    let kappa = params.rd_kappa;
    let refs = params.refs;
    for &level in refs.levels() {
        for (under, s) in [(0.5f32, 1.0f32), (9.0, 17.5), (17.0, 250.0), (60.0, 3.0e4)] {
            let base = level as f32 - under;
            let mut sides = [0usize; 2];
            for k in -40..=40 {
                let missing = nudge((level / kappa).exp(), k) - (f64::from(base) / kappa).exp();
                let dose = missing / (params.rd_alpha * f64::from(s));
                let op = OperatingPoint { dose, ..FRESH };
                let left = check(&[(base, 1.0, s)], &params, op, &refs, NOMINAL_VPASS).unwrap();
                assert_eq!(left, 1, "a cell this close to {level} is not the screen's to settle");
                let vth = array_of(&[(base, 1.0, s)]).reference_vth(&params, 0, op);
                sides[usize::from(vth >= level)] += 1;
            }
            assert!(sides[0] > 0 && sides[1] > 0, "doses must straddle {level}: {sides:?}");
        }
    }
}

/// (b) Retention's special cases under an aged operating point — a base
/// voltage at or under zero (no drop), a leak so large the drop clamps to
/// the base — and a negative dose, which disturbs nothing.
#[test]
fn retention_clamps_and_negative_doses() {
    let params = ChipParams::default();
    let cells: Vec<Cell> = [0.0f32, -0.0, -5.0, 1.0e-30, 40.0, 99.0, 160.0, 420.0]
        .into_iter()
        .flat_map(|base| {
            [0.0f32, 0.3, 1.0, 25.0, 1.0e6, f32::INFINITY].map(|leak| (base, leak, 2.0))
        })
        .collect();
    for dose in [-1.0e6, -0.0, 0.0, 10.6, 1.0e7] {
        let op = OperatingPoint { pe_cycles: 15_000, age_days: 21.0, dose };
        for refs in reference_sets(&params, -4.0, [12.0, -7.0, 3.0]) {
            check(&cells, &params, op, &refs, 0.92 * NOMINAL_VPASS).unwrap();
        }
    }
}

/// (b) Cells at the pass-through voltage: blocking compares the `f32` a
/// cell's voltage rounds to, so voltages within that rounding of Vpass go
/// to the closed form.
#[test]
fn voltages_around_vpass() {
    let params = ChipParams::default();
    for vpass in [NOMINAL_VPASS, 0.96 * NOMINAL_VPASS, params.min_vpass] {
        let cells: Vec<Cell> = (-6..=6)
            .map(|k| nudge32(vpass as f32, k))
            .chain([vpass as f32 - 17.0, vpass as f32 - 17.5, vpass as f32 - 18.0])
            .flat_map(|base| [1.0f32, 400.0, 9.0e4].map(|s| (base, 1.0, s)))
            .collect();
        for dose in [0.0, 10.6, 1.0e6, 1.0e10] {
            let op = OperatingPoint { dose, ..FRESH };
            check(&cells, &params, op, &params.refs, vpass).unwrap();
        }
    }
}

/// The point of the screen: on a worn block after 100K reads, the cells
/// that still need the closed form are a fraction of a percent.
#[test]
fn the_screen_settles_almost_every_cell() {
    let params = ChipParams::default();
    let mut rng = StdRng::seed_from_u64(2015);
    let (wordlines, bitlines) = (16u32, 4096u32);
    let mut array = CellArray::new(wordlines, bitlines, &params, &mut rng);
    let states: Vec<CellState> = (0..bitlines).map(|bl| ALL_STATES[bl as usize % 4]).collect();
    for wl in 0..wordlines {
        array.program_wordline(&params, &mut rng, wl, &states, 8_000);
    }
    let dose = params.dose_increment(100_000, 8_000, NOMINAL_VPASS);
    let op = OperatingPoint { pe_cycles: 8_000, age_days: 0.0, dose };
    let (sense, screen) = (Sense::new(&params, op), Screen::new(&params, &params.refs));
    let mut scratch = SenseScratch::default();
    let mut left = 0;
    for wl in 0..wordlines {
        left += array.sense_wordline(wl, &sense, &screen, &mut scratch);
        let lo = (wl * bitlines) as usize;
        for (bl, &state) in scratch.states.iter().enumerate() {
            let vth = array.reference_vth(&params, lo + bl, op);
            assert_eq!(usize::from(state), params.refs.classify_index(vth));
        }
    }
    let share = left as f64 / array.len() as f64;
    assert!(share < 0.01, "{left} of {} cells ({share:.4}) went to the closed form", array.len());
}

/// Hoisting the wear-level terms out of the programming loop changes no
/// draw and no voltage: the per-cell reference (every cell re-deriving
/// them) leaves the same cells and the same generator state.
#[test]
fn program_wordline_matches_the_per_cell_reference() {
    let params = ChipParams::default();
    for pe_cycles in [0, 3_000, 15_000, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(41);
        let mut array = CellArray::new(2, 512, &params, &mut rng);
        let states: Vec<CellState> = (0..512).map(|bl| ALL_STATES[(bl / 3) % 4]).collect();
        let (mut reference, mut reference_rng) = (array.clone(), rng.clone());
        array.program_wordline(&params, &mut rng, 1, &states, pe_cycles);
        for (bl, &state) in states.iter().enumerate() {
            let i = reference.index(1, bl as u32);
            reference.intended[i] = state.index();
            let placed = pe_cycling::place_state(&mut reference_rng, &params, state, pe_cycles);
            let vth = if placed == CellState::P3 && reference_rng.gen::<f64>() < params.outlier_prob
            {
                let span = 1.0
                    - (-(params.outlier_cap - params.outlier_base) / params.outlier_scale).exp();
                let u: f64 = reference_rng.gen::<f64>() * span;
                params.outlier_base - params.outlier_scale * (1.0 - u).ln()
            } else {
                let dist = params.state_dist(placed, pe_cycles);
                dist.mean + dist.sigma * retention::sample_standard_normal(&mut reference_rng)
            };
            reference.base_vth[i] = vth as f32;
        }
        assert_eq!(array.intended, reference.intended);
        assert_eq!(
            array.base_vth.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.base_vth.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(rng.state(), reference_rng.state(), "at {pe_cycles} P/E");
    }
}
