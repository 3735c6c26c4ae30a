//! Per-drive manufacturing variation.
//!
//! Real fleets are not populated by identical chips: RBER coefficients,
//! retention leak rates, disturb sensitivity, and endurance all spread
//! across drives of the same part number (the paper characterizes one chip
//! family; fleet studies like Meza+ SIGMETRICS'15 show order-of-magnitude
//! drive-to-drive spread in error rates). rd-fleet models that as
//! **lognormal factors around the calibrated MLC parameter set**: each
//! (slot, generation) pair deterministically draws one factor per knob from
//! a seeded stream, so any drive's parameters can be re-derived from the
//! fleet seed alone — checkpoints never serialize `ChipParams`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_flash::ChipParams;

/// Lognormal spread (sigma of the underlying normal, in log space) applied
/// to each varied parameter group. Zero sigma pins the knob to the
/// calibrated value on every drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpread {
    /// Spread of the P/E-cycling RBER coefficient (`pe_rber_coeff`).
    pub rber_sigma: f64,
    /// Spread of the retention leak rate (`retention_rate`).
    pub retention_sigma: f64,
    /// Spread of the read-disturb shift coefficient (`rd_alpha`).
    pub disturb_sigma: f64,
    /// Spread of the drive's endurance rating (replacement P/E threshold).
    pub endurance_sigma: f64,
}

impl VariationSpread {
    /// A moderate spread: ~±25% one-sigma on error coefficients, ~±15% on
    /// endurance — wide enough that fleet percentiles separate from the
    /// nominal drive, narrow enough that every drive stays on the
    /// calibrated model's validity range.
    pub(crate) fn moderate() -> Self {
        Self { rber_sigma: 0.25, retention_sigma: 0.25, disturb_sigma: 0.25, endurance_sigma: 0.15 }
    }

    /// No variation: every drive is the calibrated nominal chip.
    pub fn none() -> Self {
        Self { rber_sigma: 0.0, retention_sigma: 0.0, disturb_sigma: 0.0, endurance_sigma: 0.0 }
    }
}

/// SplitMix64 finalizer: decorrelates structured (seed, slot, generation)
/// tuples into independent-looking 64-bit seeds.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG seed for a drive's flash streams: a pure function of the fleet
/// seed, the slot index, and the drive generation in that slot, so a
/// replaced drive gets fresh decorrelated streams and a restored checkpoint
/// re-derives the same ones.
pub(crate) fn drive_seed(fleet_seed: u64, slot: u32, generation: u32) -> u64 {
    mix64(
        fleet_seed
            ^ (u64::from(slot) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(generation) + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// The seed of one epoch's host-traffic generator for a drive: varies per
/// epoch (fresh arrivals every epoch) and per generation (a replacement
/// drive does not replay its predecessor's traffic).
pub(crate) fn traffic_seed(fleet_seed: u64, slot: u32, generation: u32, epoch: u32) -> u64 {
    mix64(
        drive_seed(fleet_seed, slot, generation)
            ^ (u64::from(epoch) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// One standard-normal draw via Box-Muller (two uniform draws; the sine
/// half is discarded — sampling here is cold, determinism is what matters).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One lognormal factor with log-space sigma `sigma` (median 1).
fn lognormal_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// A drive's sampled identity: varied chip parameters plus its endurance
/// rating (the P/E count at which the fleet driver replaces it).
#[derive(Debug, Clone)]
pub(crate) struct DriveVariation {
    /// Chip parameters: the calibrated set scaled by this drive's factors.
    pub chip_params: ChipParams,
    /// Replacement threshold in P/E cycles.
    pub endurance_pe: u64,
}

/// Samples the (slot, generation) drive's variation around `base`. A pure
/// function of its arguments: checkpoint restore re-derives the same drive
/// without serializing parameters. `base_endurance_pe` is the nominal
/// rating the endurance factor scales.
pub(crate) fn sample_drive(
    base: &ChipParams,
    spread: &VariationSpread,
    fleet_seed: u64,
    slot: u32,
    generation: u32,
    base_endurance_pe: u64,
) -> DriveVariation {
    // Its own stream, decorrelated from the drive's flash RNG streams.
    let mut rng =
        StdRng::seed_from_u64(drive_seed(fleet_seed, slot, generation) ^ 0x7A81_A710_5A17_0001);
    let mut chip_params = base.clone();
    chip_params.pe_rber_coeff *= lognormal_factor(&mut rng, spread.rber_sigma);
    chip_params.retention_rate *= lognormal_factor(&mut rng, spread.retention_sigma);
    chip_params.rd_alpha *= lognormal_factor(&mut rng, spread.disturb_sigma);
    let endurance_pe = (base_endurance_pe as f64
        * lognormal_factor(&mut rng, spread.endurance_sigma))
    .round() as u64;
    DriveVariation { chip_params, endurance_pe: endurance_pe.max(1) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..8 {
            for generation in 0..4 {
                assert!(seen.insert(drive_seed(2015, slot, generation)));
                for epoch in 0..4 {
                    assert!(seen.insert(traffic_seed(2015, slot, generation, epoch)));
                }
            }
        }
    }

    #[test]
    fn sampling_is_a_pure_function() {
        let base = ChipParams::default();
        let spread = VariationSpread::moderate();
        let a = sample_drive(&base, &spread, 42, 3, 1, 10_000);
        let b = sample_drive(&base, &spread, 42, 3, 1, 10_000);
        assert_eq!(a.chip_params.pe_rber_coeff, b.chip_params.pe_rber_coeff);
        assert_eq!(a.endurance_pe, b.endurance_pe);
        let c = sample_drive(&base, &spread, 42, 3, 2, 10_000);
        assert_ne!(a.chip_params.pe_rber_coeff, c.chip_params.pe_rber_coeff);
    }

    #[test]
    fn zero_spread_is_the_nominal_drive() {
        let base = ChipParams::default();
        let v = sample_drive(&base, &VariationSpread::none(), 7, 0, 0, 3_000);
        assert_eq!(v.chip_params.pe_rber_coeff, base.pe_rber_coeff);
        assert_eq!(v.chip_params.retention_rate, base.retention_rate);
        assert_eq!(v.chip_params.rd_alpha, base.rd_alpha);
        assert_eq!(v.endurance_pe, 3_000);
    }

    #[test]
    fn spread_actually_spreads() {
        let base = ChipParams::default();
        let spread = VariationSpread::moderate();
        let factors: Vec<f64> = (0..64)
            .map(|s| {
                sample_drive(&base, &spread, 11, s, 0, 10_000).chip_params.pe_rber_coeff
                    / base.pe_rber_coeff
            })
            .collect();
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.9 && max > 1.1, "spread too tight: {min}..{max}");
    }
}
