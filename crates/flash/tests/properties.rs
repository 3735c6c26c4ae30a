//! Property-based tests for the flash substrate's physical invariants.

use proptest::prelude::*;
use rd_flash::noise::read_disturb;
use rd_flash::noise::retention;
use rd_flash::{bits, ChipParams, VoltageRefs};

proptest! {
    /// The closed-form disturb model is exactly additive in dose: applying a
    /// dose in pieces equals applying it at once (this is what lets the
    /// simulator batch a million reads into one update).
    #[test]
    fn disturb_closed_form_is_additive(
        v0 in -40.0f64..470.0,
        s in 1.0f64..1e4,
        dose in 0.0f64..1e8,
        split in 0.01f64..0.99,
    ) {
        let p = ChipParams::default();
        let whole = read_disturb::disturbed_vth(&p, v0, s, dose);
        let first = read_disturb::disturbed_vth(&p, v0, s, dose * split);
        let then = read_disturb::disturbed_vth(&p, first, s, dose * (1.0 - split));
        prop_assert!((whole - then).abs() < 1e-8, "{whole} vs {then}");
    }

    /// Disturb shift is non-negative and monotone in dose.
    #[test]
    fn disturb_shift_monotone(
        v0 in -40.0f64..470.0,
        s in 1.0f64..1e4,
        d1 in 0.0f64..1e7,
        extra in 0.0f64..1e7,
    ) {
        let p = ChipParams::default();
        let a = read_disturb::disturbed_vth(&p, v0, s, d1);
        let b = read_disturb::disturbed_vth(&p, v0, s, d1 + extra);
        prop_assert!(a >= v0 - 1e-9);
        prop_assert!(b >= a - 1e-9);
    }

    /// Lower-voltage cells always shift at least as much (the paper's
    /// Fig. 2 finding, which RDR's correction rule relies on).
    #[test]
    fn lower_cells_shift_more(
        v_lo in -40.0f64..200.0,
        delta in 1.0f64..250.0,
        s in 1.0f64..1e3,
        dose in 1.0f64..1e7,
    ) {
        let p = ChipParams::default();
        let v_hi = v_lo + delta;
        let shift_lo = read_disturb::vth_shift(&p, v_lo, s, dose);
        let shift_hi = read_disturb::vth_shift(&p, v_hi, s, dose);
        prop_assert!(shift_lo >= shift_hi - 1e-9,
            "shift({v_lo})={shift_lo} < shift({v_hi})={shift_hi}");
    }

    /// Retention drop is monotone in time and never exceeds the voltage.
    #[test]
    fn retention_monotone_and_bounded(
        v in 0.0f64..470.0,
        leak in 0.01f64..50.0,
        pe in 0u64..20_000,
        d1 in 0.0f64..30.0,
        extra in 0.0f64..30.0,
    ) {
        let p = ChipParams::default();
        let a = retention::vth_drop(&p, v, leak, pe, d1);
        let b = retention::vth_drop(&p, v, leak, pe, d1 + extra);
        prop_assert!(a >= 0.0 && b >= a - 1e-12);
        prop_assert!(b <= v + 1e-12);
    }

    /// Sensing via single comparisons always agrees with full-state
    /// classification, for any reference shift.
    #[test]
    fn sensing_agrees_with_classification(
        vth in -100.0f64..600.0,
        shift in -80.0f64..80.0,
    ) {
        let refs = VoltageRefs::default().shifted(shift);
        let state = refs.classify(vth);
        prop_assert_eq!(refs.sense_lsb(vth), state.lsb());
        prop_assert_eq!(refs.sense_msb(vth), state.msb());
    }

    /// Packed-bit set/get round trip.
    #[test]
    fn bit_roundtrip(nbits in 1usize..200, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut buf = bits::zeroed(nbits);
        let mut truth = vec![false; nbits];
        for (i, slot) in truth.iter_mut().enumerate() {
            let v = rng.gen::<bool>();
            bits::set_bit(&mut buf, i, v);
            *slot = v;
        }
        for (i, &expected) in truth.iter().enumerate() {
            prop_assert_eq!(bits::get_bit(&buf, i), expected);
        }
    }

    /// Hamming distance is a metric on packed buffers of equal length.
    #[test]
    fn hamming_is_metric(len in 1usize..64, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let c: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        prop_assert_eq!(bits::hamming(&a, &a), 0);
        prop_assert_eq!(bits::hamming(&a, &b), bits::hamming(&b, &a));
        prop_assert!(bits::hamming(&a, &c) <= bits::hamming(&a, &b) + bits::hamming(&b, &c));
    }

    /// The word-wise `hamming` / `count_ones` equal the byte-wise reference
    /// at every length, including empty buffers and non-multiple-of-8 tails.
    #[test]
    fn wordwise_bit_counts_match_the_bytewise_reference(
        len in 0usize..601,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let reference: u64 = a.iter().zip(&b).map(|(x, y)| u64::from((x ^ y).count_ones())).sum();
        prop_assert_eq!(bits::hamming(&a, &b), reference);
        let ones: u64 = a.iter().map(|x| u64::from(x.count_ones())).sum();
        prop_assert_eq!(bits::count_ones(&a), ones);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: programming random data and reading it back on a fresh
    /// block yields the data with near-zero errors; error count always equals
    /// the Hamming distance to the programmed truth.
    #[test]
    fn read_errors_equal_hamming_distance(seed in any::<u64>(), page in 0u32..16) {
        use rd_flash::{Chip, Geometry};
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), seed);
        chip.program_block_random(0, seed ^ 0xABCD).unwrap();
        let truth = chip.intended_page_bits(0, page).unwrap();
        let out = chip.read_page(0, page).unwrap();
        prop_assert_eq!(bits::hamming(&truth, &out.data), out.stats.errors);
    }

    /// Disturb dose reduces when Vpass is lowered, for any read count.
    #[test]
    fn vpass_reduction_always_reduces_dose(
        seed in any::<u64>(),
        n in 1u64..1_000_000,
        pct in 0.90f64..0.999,
    ) {
        use rd_flash::{Chip, Geometry, NOMINAL_VPASS};
        let mut chip = Chip::new(Geometry::small(), ChipParams::default(), seed);
        chip.program_block_random(0, 1).unwrap();
        chip.program_block_random(1, 1).unwrap();
        chip.set_block_vpass(1, pct * NOMINAL_VPASS).unwrap();
        chip.apply_read_disturbs(0, n).unwrap();
        chip.apply_read_disturbs(1, n).unwrap();
        let d0 = chip.block_status(0).unwrap().dose;
        let d1 = chip.block_status(1).unwrap().dose;
        prop_assert!(d1 < d0);
    }
}
