//! Integration tests of Read Disturb Recovery: from uncorrectable page to
//! recovered data.

use readdisturb::prelude::*;
use readdisturb_repro::testsupport::over_seeds;

fn disturbed_chip(seed: u64, reads: u64) -> Chip {
    let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), seed);
    chip.cycle_block(0, 8_000).unwrap();
    chip.program_block_random(0, seed ^ 0xAB).unwrap();
    chip.apply_read_disturbs(0, reads).unwrap();
    chip
}

#[test]
fn rdr_recovers_pages_past_the_ecc_limit() {
    // 400K reads: the pages have just crossed the hard ECC limit — the
    // regime where a controller would actually invoke recovery. RDR brings
    // back a third of the lost pages at 90–95% of seeds 30..70; seed 43 is
    // one of them under both normal samplers the cell-exact tier has used.
    let mut chip = disturbed_chip(43, 400_000);
    let page_bits = chip.geometry().bits_per_page();
    // The *hard* correction capability (t-scaled from the flash BCH code,
    // t=40 per 8752 bits => ~4.5e-3), which is what stands between an
    // uncorrectable read and data loss (the 1e-3 line is the provisioned
    // operating point with deep frame-error margin).
    let ecc = PageEccModel::from_operating_rber(page_bits, 4.5e-3);

    // Find pages that are past the data-loss point.
    let mut lost_pages = Vec::new();
    for page in 0..chip.geometry().pages_per_block() {
        let outcome = chip.read_page(0, page).unwrap();
        if !ecc.correctable(outcome.stats.errors) {
            lost_pages.push(page);
        }
    }
    assert!(
        lost_pages.len() >= 5,
        "expected widespread data loss at 400K reads, got {} pages",
        lost_pages.len()
    );

    let rdr = Rdr::new(RdrConfig::default());
    let outcome = rdr.recover_block(&mut chip, 0).unwrap();

    // RDR must bring a substantial fraction of lost pages back inside the
    // ECC capability (the correction is probabilistic; the paper reports a
    // 36% RBER reduction, not full recovery).
    let mut recovered = 0usize;
    for &page in &lost_pages {
        let truth = chip.intended_page_bits(0, page).unwrap();
        let bits = rdr.page_bits(&outcome, page);
        let remaining = readdisturb::flash::bits::hamming(&truth, &bits);
        if ecc.correctable(remaining) {
            recovered += 1;
        }
    }
    assert!(
        recovered * 3 >= lost_pages.len(),
        "recovered only {recovered}/{} lost pages",
        lost_pages.len()
    );
}

/// `rdr_recovers_pages_past_the_ecc_limit` over seeds 30..70 instead of
/// at seed 43: at 400K reads at least five pages are past the hard ECC
/// limit, and RDR brings a third of them back. The body passes at 90–95% of
/// these seeds; at a rate of 0.90, needing 24 of 40 fails a correct model
/// with probability below 1e-6 (`over_seeds`).
#[test]
fn rdr_recovers_pages_past_the_ecc_limit_over_seeds() {
    let rdr = Rdr::new(RdrConfig::default());
    over_seeds(30..70, 0.90, 0.6, |seed| {
        let mut chip = disturbed_chip(seed, 400_000);
        let ecc = PageEccModel::from_operating_rber(chip.geometry().bits_per_page(), 4.5e-3);
        let lost: Vec<u32> = (0..chip.geometry().pages_per_block())
            .filter(|&page| !ecc.correctable(chip.read_page(0, page).unwrap().stats.errors))
            .collect();
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        let recovered = lost
            .iter()
            .filter(|&&page| {
                let truth = chip.intended_page_bits(0, page).unwrap();
                let bits = rdr.page_bits(&outcome, page);
                ecc.correctable(readdisturb::flash::bits::hamming(&truth, &bits))
            })
            .count();
        lost.len() >= 5 && recovered * 3 >= lost.len()
    });
}

#[test]
fn rdr_reduction_grows_with_read_count() {
    // Paper Fig. 10: "the reduction in overall RBER grows with the read
    // disturb count".
    let rdr = Rdr::new(RdrConfig::default());
    let reduction_at = |reads: u64| -> f64 {
        let mut chip = disturbed_chip(7, reads);
        let outcome = rdr.recover_block(&mut chip, 0).unwrap();
        let no_recovery = chip.block_rber(0).unwrap();
        let after = rdr.errors_vs_intended(&chip, 0, &outcome).unwrap();
        1.0 - after.rate() / no_recovery.rate()
    };
    let low = reduction_at(100_000);
    let high = reduction_at(1_000_000);
    assert!(high > low, "reduction must grow: {low:.3} -> {high:.3}");
    assert!(high > 0.15, "reduction at 1M reads only {high:.3}");
}

#[test]
fn rdr_identifies_more_prone_cells_on_wornier_blocks() {
    let rdr = Rdr::new(RdrConfig::default());
    let reclassified_at = |pe: u64| -> u64 {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 5);
        chip.cycle_block(0, pe).unwrap();
        chip.program_block_random(0, 5).unwrap();
        chip.apply_read_disturbs(0, 500_000).unwrap();
        rdr.recover_block(&mut chip, 0).unwrap().reclassified
    };
    let young = reclassified_at(3_000);
    let worn = reclassified_at(12_000);
    assert!(worn > young, "worn {worn} <= young {young}");
}

#[test]
fn rdr_plus_ecc_pipeline_end_to_end() {
    // The full recovery pipeline the paper describes: RDR's probabilistic
    // correction followed by a REAL BCH decode of the residual errors.
    let mut chip = disturbed_chip(99, 1_500_000);
    let rdr = Rdr::new(RdrConfig::default());
    let outcome = rdr.recover_block(&mut chip, 0).unwrap();

    let code = BchCode::new_shortened(13, 16, 4096).unwrap();
    assert_eq!(code.data_bits(), chip.geometry().bits_per_page());

    let mut decoded_pages = 0;
    let mut attempted = 0;
    for page in (0..chip.geometry().pages_per_block()).step_by(16) {
        attempted += 1;
        let truth = chip.intended_page_bits(0, page).unwrap();
        let recovered = rdr.page_bits(&outcome, page);
        // Encode the truth (what was originally stored, parity in the spare
        // area), then overlay the post-RDR data bits as the received word.
        let mut received = code.encode(&truth).unwrap();
        for (i, byte) in recovered.iter().enumerate() {
            received[code.parity_bits() / 8 + i] = *byte;
        }
        // Parity region is byte-aligned for this code; verify that.
        assert_eq!(code.parity_bits() % 8, 0);
        if let Ok(d) = code.decode(&received) {
            assert_eq!(d.data, truth, "BCH returned wrong data");
            decoded_pages += 1;
        }
    }
    assert!(
        decoded_pages * 2 >= attempted,
        "BCH decoded only {decoded_pages}/{attempted} post-RDR pages"
    );
}
