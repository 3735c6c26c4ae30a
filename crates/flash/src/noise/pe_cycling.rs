//! Program/erase cycling noise: wear widens the programming distributions
//! and misplaces a growing fraction of cells into adjacent states.
//!
//! The misprogram channel is calibrated so the Monte-Carlo error floor
//! equals the analytic `rber_pe` law by construction (each misprogrammed
//! cell contributes exactly one wrong bit, because the Gray map makes
//! adjacent states differ in one bit).

use rand::Rng;

use crate::params::ChipParams;
use crate::state::CellState;

/// Decides whether a cell being programmed to `intended` is misplaced, and
/// if so into which adjacent state.
///
/// Returns the state the cell actually lands in. ER can only be misplaced
/// upward and P3 only downward; interior states go either way with equal
/// probability.
pub fn place_state<R: Rng + ?Sized>(
    rng: &mut R,
    params: &ChipParams,
    intended: CellState,
    pe_cycles: u64,
) -> CellState {
    place_state_at(rng, params.misprogram_prob(pe_cycles), intended)
}

/// [`place_state`] at a misprogram probability the caller evaluated (once
/// per wordline, not once per cell). Same draws in the same order.
#[inline]
pub(crate) fn place_state_at<R: Rng + ?Sized>(
    rng: &mut R,
    p: f64,
    intended: CellState,
) -> CellState {
    if p <= 0.0 || rng.gen::<f64>() >= p {
        return intended;
    }
    let up = match (intended.up(), intended.down()) {
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => rng.gen::<bool>(),
    };
    if up {
        intended.up().unwrap_or(intended)
    } else {
        intended.down().unwrap_or(intended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_cells_never_misprogram() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(place_state(&mut rng, &params, CellState::P2, 0), CellState::P2);
        }
    }

    #[test]
    fn misprogram_rate_tracks_wear_law() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(2);
        let pe = 10_000;
        let n = 2_000_000;
        let mut missed = 0u64;
        for _ in 0..n {
            if place_state(&mut rng, &params, CellState::P1, pe) != CellState::P1 {
                missed += 1;
            }
        }
        let rate = missed as f64 / n as f64;
        let expect = params.misprogram_prob(pe);
        assert!((rate / expect - 1.0).abs() < 0.1, "rate {rate} vs expected {expect}");
    }

    #[test]
    fn edge_states_misplace_inward_only() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200_000 {
            let er = place_state(&mut rng, &params, CellState::Er, 1_000_000);
            assert!(matches!(er, CellState::Er | CellState::P1));
            let p3 = place_state(&mut rng, &params, CellState::P3, 1_000_000);
            assert!(matches!(p3, CellState::P3 | CellState::P2));
        }
    }

    #[test]
    fn interior_states_misplace_both_ways() {
        let params = ChipParams::default();
        let mut rng = StdRng::seed_from_u64(4);
        let (mut up, mut down) = (0u32, 0u32);
        for _ in 0..500_000 {
            match place_state(&mut rng, &params, CellState::P1, 1_000_000) {
                CellState::P2 => up += 1,
                CellState::Er => down += 1,
                _ => {}
            }
        }
        assert!(up > 0 && down > 0);
        let ratio = up as f64 / down as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "up/down ratio {ratio}");
    }
}
