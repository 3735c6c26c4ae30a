//! Property tests for the chip-database codegen: random vendor files must
//! survive a full serialize → parse round trip, and the emitter must stay
//! loss-free on the float values it writes into generated Rust.

use chips_codegen::fidelity::ReadFidelity;
use chips_codegen::params::{ChipParams, StateParams, COEFFICIENTS};
use chips_codegen::state::VoltageRefs;
use chips_codegen::{parse_vendor_file, to_ron, AnchorDef, ChipDef, VendorFile};
use proptest::prelude::*;

/// Builds a structurally valid chip (parseable; not necessarily passing
/// database validation — round-tripping must not depend on validity):
/// the default parameters with the shape fields regenerated and every
/// coefficient moved off its default by its own amount.
#[allow(clippy::too_many_arguments)]
fn chip(
    name_suffix: u32,
    bits: u32,
    base_mean: f64,
    spacing: f64,
    sigma: f64,
    coeff: f64,
    n_retry: usize,
    n_anchors: usize,
) -> ChipDef {
    let n = 1usize << bits;
    let refs: Vec<f64> = (0..n - 1).map(|i| base_mean + spacing * (i as f64 + 0.5)).collect();
    let mut params = ChipParams {
        states: (0..n)
            .map(|i| StateParams { mean: base_mean + spacing * i as f64, sigma })
            .collect(),
        refs: VoltageRefs::from_levels(&refs),
        min_vpass: 460.0 + coeff,
        fidelity: match bits {
            2 => ReadFidelity::CellExact,
            3 => ReadFidelity::PageAnalytic,
            _ => ReadFidelity::BlockAggregate,
        },
        retry_shifts: (1..=n_retry).map(|i| i as f64 * (1.0 + coeff)).collect(),
        reread_va_raises: (1..=n_retry).map(|i| i as f64 * 7.0).collect(),
        ..ChipParams::default()
    };
    for (i, c) in COEFFICIENTS.iter().enumerate() {
        let moved = (c.get)(&params) * (1.0 + coeff / (i + 1) as f64);
        (c.set)(&mut params, moved);
    }
    ChipDef {
        name: format!("pt-chip-{name_suffix}"),
        description: format!("proptest chip #{name_suffix}"),
        default: name_suffix == 0,
        ecc_capability_rber: coeff * 10.0,
        params,
        anchors: (0..n_anchors)
            .map(|i| AnchorDef {
                pe: 1000 * (i as u64 + 1),
                days: i as f64 * coeff,
                reads: 10_000 * i as u64,
                vpass: 512.0 - i as f64,
                rber: coeff * 1.0e-4 * (i + 1) as f64,
            })
            .collect(),
    }
}

proptest! {
    #[test]
    fn vendor_file_round_trips_through_ron(
        n_chips in 1usize..4,
        bits in 1u32..5,
        base_mean in 20.0f64..50.0,
        spacing in 25.0f64..120.0,
        sigma in 2.0f64..16.0,
        coeff in 0.01f64..0.99,
        n_retry in 1usize..8,
        n_anchors in 1usize..5,
    ) {
        let vf = VendorFile {
            vendor: "vendor-pt".to_string(),
            chips: (0..n_chips)
                .map(|i| chip(i as u32, bits, base_mean, spacing, sigma, coeff, n_retry, n_anchors))
                .collect(),
        };
        let ron = to_ron(&vf);
        let back = parse_vendor_file(&ron, "roundtrip.ron")
            .map_err(|d| TestCaseError::fail(format!("{d}")))?;
        prop_assert_eq!(back, vf);
        // Serialization is deterministic: a second trip is byte-identical.
        let again = parse_vendor_file(&to_ron(&parse_vendor_file(&ron, "r2.ron").unwrap()), "r3.ron").unwrap();
        prop_assert_eq!(to_ron(&again), ron);
    }

    #[test]
    fn awkward_floats_survive_the_trip(
        mantissa in 1.0f64..10.0,
        exp in -12i32..3,
    ) {
        // Values like 7.158203125e-9 must reparse to the identical bits —
        // the emitter relies on this for the bit-for-bit default chip.
        let x = mantissa * 10f64.powi(exp);
        let mut c = chip(0, 2, 40.0, 120.0, 12.0, 0.5, 3, 1);
        c.params.pe_rber_coeff = x;
        c.anchors[0].rber = x;
        let vf = VendorFile { vendor: "vendor-pt".to_string(), chips: vec![c] };
        let back = parse_vendor_file(&to_ron(&vf), "floats.ron").unwrap();
        prop_assert_eq!(back.chips[0].params.pe_rber_coeff.to_bits(), x.to_bits());
        prop_assert_eq!(back.chips[0].anchors[0].rber.to_bits(), x.to_bits());
    }
}
