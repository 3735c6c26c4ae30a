//! ECC integration: the real BCH codec against error patterns produced by
//! the simulated flash device (not synthetic uniform flips).

use readdisturb::prelude::*;

/// Collect real error positions from a disturbed chip page.
fn flash_error_positions(seed: u64, reads: u64) -> (Vec<u8>, Vec<u8>) {
    let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), seed);
    chip.cycle_block(0, 8_000).unwrap();
    chip.program_block_random(0, seed).unwrap();
    chip.apply_read_disturbs(0, reads).unwrap();
    let truth = chip.intended_page_bits(0, 1).unwrap();
    let read = chip.read_page(0, 1).unwrap();
    (truth, read.data)
}

#[test]
fn bch_corrects_real_flash_error_patterns() {
    let code = BchCode::new_shortened(13, 16, 4096).unwrap();
    let mut corrected_total = 0u64;
    for seed in 0..5u64 {
        let (truth, read) = flash_error_positions(seed, 120_000);
        let errors = readdisturb::flash::bits::hamming(&truth, &read);
        assert!(errors <= code.t() as u64, "seed {seed}: {errors} errors exceed demo t");
        // Systematic codeword: parity from the truth, data bits replaced by
        // what the flash returned.
        let mut received = code.encode(&truth).unwrap();
        let offset = code.parity_bits() / 8;
        received[offset..offset + read.len()].copy_from_slice(&read);
        let decoded = code.decode(&received).unwrap();
        assert_eq!(decoded.data, truth, "seed {seed}");
        assert_eq!(decoded.corrected as u64, errors, "seed {seed}");
        corrected_total += errors;
    }
    assert!(corrected_total > 0, "no errors produced; raise wear or reads");
}

#[test]
fn threshold_model_agrees_with_real_codec_on_flash_patterns() {
    let code = BchCode::new_shortened(13, 8, 4096).unwrap();
    let model = ThresholdEcc::from_code(&code);
    for seed in 10..14u64 {
        let (truth, read) = flash_error_positions(seed, 400_000);
        let errors = readdisturb::flash::bits::hamming(&truth, &read);
        let mut received = code.encode(&truth).unwrap();
        let offset = code.parity_bits() / 8;
        received[offset..offset + read.len()].copy_from_slice(&read);
        let real = code.decode(&received);
        match model.decode_count(errors) {
            Ok(n) => {
                let decoded = real.expect("threshold model accepted but codec failed");
                assert_eq!(decoded.corrected as u64, n);
                assert_eq!(decoded.data, truth);
            }
            Err(_) => {
                assert!(real.is_err(), "codec decoded what the model rejected");
            }
        }
    }
}

#[test]
fn operating_point_consistent_with_margin_policy() {
    // The flash-default BCH operating point and the paper's 1e-3 capability
    // line must be the same order of magnitude.
    let code = ThresholdEcc::flash_default();
    let operating = code.operating_rber(1e-15);
    let policy = MarginPolicy::paper_default();
    let ratio = operating / policy.capability_rber;
    assert!((0.5..=3.0).contains(&ratio), "operating {operating:e} vs line 1e-3");
}

#[test]
fn ecc_capability_gates_ssd_data_loss() {
    // Lowering the configured capability line must flip healthy reads into
    // uncorrectable ones on a disturbed device — the ECC line is what
    // stands between disturb and data loss.
    let run = |capability: f64| -> u64 {
        let mut ssd = Ssd::new(SsdConfig {
            chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
            geometry: Geometry {
                blocks: 8,
                wordlines_per_block: 8,
                bitlines: 4096,
                bits_per_cell: 2,
            },
            overprovision: 0.25,
            gc_free_threshold: 2,
            refresh_interval_days: 7.0,
            ecc_capability_rber: capability,
            seed: 3,
            chip_params: ChipParams::default(),
        })
        .unwrap();
        for b in 0..8 {
            ssd.chip_mut().cycle_block(b, 10_000).unwrap();
        }
        for lpa in 0..16 {
            ssd.write(lpa).unwrap();
        }
        for b in ssd.valid_blocks() {
            ssd.chip_mut().apply_read_disturbs(b, 300_000).unwrap();
        }
        let mut losses = 0;
        for lpa in 0..16 {
            if ssd.read(lpa).is_err() {
                losses += 1;
            }
        }
        losses
    };
    let strict = run(5.0e-4);
    let generous = run(1.2e-2);
    assert!(strict > generous, "strict {strict} vs generous {generous}");
    assert_eq!(generous, 0);
}
