//! ECC margin discovery (paper §3, first component of Vpass Tuning).
//!
//! After manufacturing, the controller finds each block's **predicted
//! worst-case page** by programming pseudo-random data and reading every
//! page back, recording the page with the highest raw error count. At run
//! time, one daily read of that page yields the **maximum estimated error**
//! (MEE), from which the available margin is
//! `M = (1 − 0.2) · C − MEE`.

use rd_ecc::MarginPolicy;
use rd_flash::{Chip, FlashError};

/// Outcome of probing a block's worst-case page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MarginProbe {
    /// The page probed.
    pub page: u32,
    /// Raw bit errors observed (the MEE).
    pub mee: u64,
    /// Margin in bit errors: `M = 0.8 · C − MEE` (clamped at zero).
    pub margin: u64,
}

/// Finds the predicted worst-case page of a freshly-programmed block by
/// reading every page and returning `(page, errors)` of the maximum.
///
/// This is the manufacture-time step: the block must already hold (any)
/// data. The reads disturb the block like real characterization reads do.
///
/// # Errors
///
/// Fails if `block` is out of range.
pub(crate) fn discover_worst_page(chip: &mut Chip, block: u32) -> Result<(u32, u64), FlashError> {
    let pages = chip.geometry().pages_per_block();
    let mut worst = (0u32, 0u64);
    for page in 0..pages {
        let errors = chip.read_page_counts(block, page)?.stats.errors;
        if errors >= worst.1 {
            worst = (page, errors);
        }
    }
    Ok(worst)
}

/// Daily MEE probe: a single read of the recorded worst-case page at the
/// block's **nominal** reference conditions, returning the margin available
/// for deliberate pass-through errors.
///
/// The probe temporarily restores the nominal Vpass so the measured MEE
/// reflects retention/disturb/wear errors only, not the deliberate read
/// errors the current tuning already introduces.
///
/// # Errors
///
/// Fails if the address is out of range.
pub(crate) fn probe_margin(
    chip: &mut Chip,
    block: u32,
    worst_page: u32,
    policy: &MarginPolicy,
) -> Result<MarginProbe, FlashError> {
    let tuned_vpass = chip.block_vpass(block)?;
    chip.set_block_vpass(block, rd_flash::NOMINAL_VPASS)?;
    let counts = chip.read_page_counts(block, worst_page);
    chip.set_block_vpass(block, tuned_vpass)?;
    let mee = counts?.stats.errors;
    let page_bits = chip.geometry().bits_per_page();
    Ok(MarginProbe { page: worst_page, mee, margin: policy.margin_errors(page_bits, mee) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_flash::{ChipParams, Geometry};

    fn chip() -> Chip {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 31);
        chip.cycle_block(0, 8_000).unwrap();
        chip.program_block_random(0, 5).unwrap();
        chip
    }

    #[test]
    fn worst_page_is_a_valid_page() {
        let mut c = chip();
        let (page, errors) = discover_worst_page(&mut c, 0).unwrap();
        assert!(page < c.geometry().pages_per_block());
        // At 8K P/E the worst page carries at least one error with
        // overwhelming probability (rber ~5e-4 over 4096 bits/page).
        assert!(errors >= 1, "worst page reported {errors} errors");
    }

    #[test]
    fn probe_margin_uses_nominal_vpass_and_restores_tuning() {
        let mut c = chip();
        let (page, _) = discover_worst_page(&mut c, 0).unwrap();
        let tuned = 0.96 * rd_flash::NOMINAL_VPASS;
        c.set_block_vpass(0, tuned).unwrap();
        let policy = MarginPolicy::paper_default();
        let probe = probe_margin(&mut c, 0, page, &policy).unwrap();
        assert_eq!(c.block_vpass(0).unwrap(), tuned, "tuning must be restored");
        let capability = policy.capability_errors(c.geometry().bits_per_page());
        assert!(probe.margin <= (0.8 * capability as f64) as u64 + 1);
    }

    #[test]
    fn margin_shrinks_with_wear() {
        // The paper's 1e-3 capability quantizes to usable = 3 errors on the
        // simulator's 4-Kbit page, so both young and worn margins clamp to
        // zero. Scale the capability to the miniature page so the margin
        // signal is resolvable; the monotone-in-wear property under test is
        // unchanged.
        let policy = MarginPolicy { capability_rber: 1.0e-2, reserve_frac: 0.2 };
        let margin_at = |pe: u64, seed: u64| {
            let mut c = Chip::new(Geometry::characterization(), ChipParams::default(), seed);
            c.cycle_block(0, pe).unwrap();
            c.program_block_random(0, 5).unwrap();
            let (page, _) = discover_worst_page(&mut c, 0).unwrap();
            probe_margin(&mut c, 0, page, &policy).unwrap().margin
        };
        // Average over a few seeds to smooth Monte-Carlo noise.
        let young: u64 = (0..3).map(|s| margin_at(2_000, s)).sum();
        let old: u64 = (0..3).map(|s| margin_at(14_000, s)).sum();
        assert!(young > old, "margin young {young} vs worn {old}");
    }
}
