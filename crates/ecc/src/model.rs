//! Fast ECC capability models used at simulation scale.
//!
//! A full BCH decode per simulated page read would dominate runtime without
//! changing any decision: the mechanisms only consume *whether* a page
//! decodes and *how many* errors were corrected. [`ThresholdEcc`] reproduces
//! exactly that accept/reject behaviour, and adds the binomial frame-error
//! analysis that turns a correction capability `t` into the "tolerable
//! RBER ≈ 1e-3" operating point the paper quotes (§2.5).

use crate::bch::BchCode;
use crate::EccError;

/// Threshold model of a `t`-error-correcting code over `n`-bit codewords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdEcc {
    t: u32,
    codeword_bits: usize,
}

impl ThresholdEcc {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `codeword_bits` is zero or not larger than `t`.
    pub fn new(t: u32, codeword_bits: usize) -> Self {
        assert!(codeword_bits > t as usize, "codeword must exceed capability");
        Self { t, codeword_bits }
    }

    /// Model matching a concrete BCH code.
    pub fn from_code(code: &BchCode) -> Self {
        Self::new(code.t(), code.codeword_bits())
    }

    /// Model matching the default flash provisioning (t=40 per 8752-bit
    /// codeword).
    pub fn flash_default() -> Self {
        Self::new(40, 8192 + 560)
    }

    /// Correction capability in bit errors.
    pub fn t(&self) -> u32 {
        self.t
    }

    /// Codeword length in bits.
    pub fn codeword_bits(&self) -> usize {
        self.codeword_bits
    }

    /// Whether an error count decodes.
    pub fn correctable(&self, errors: u64) -> bool {
        errors <= self.t as u64
    }

    /// Mimics a decode: returns the corrected count or
    /// [`EccError::Uncorrectable`].
    ///
    /// # Errors
    ///
    /// Fails when `errors > t`.
    pub fn decode_count(&self, errors: u64) -> Result<u64, EccError> {
        if self.correctable(errors) {
            Ok(errors)
        } else {
            Err(EccError::Uncorrectable)
        }
    }

    /// Probability that a codeword fails to decode at raw bit error rate
    /// `rber` (binomial upper tail beyond `t`).
    pub fn frame_error_prob(&self, rber: f64) -> f64 {
        binomial_tail_above(self.codeword_bits, rber, self.t as usize)
    }

    /// The highest RBER at which the frame error probability stays below
    /// `target` — the code's operating point. For the flash default this is
    /// ≈1e-3 at `target = 1e-15` (the paper's "ECC … can tolerate an RBER of
    /// up to 1e-3", §2.5).
    pub fn operating_rber(&self, target: f64) -> f64 {
        assert!(target > 0.0 && target < 1.0);
        let (mut lo, mut hi) = (1e-9_f64, 0.4_f64);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.frame_error_prob(mid) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Correction capability `C` of a page, in bit errors, for an ECC
/// provisioned to tolerate `capability_rber` raw bit errors per bit:
/// `floor(capability_rber × page_bits)`. The page model, the margin policy
/// and the FTL configuration all count a page's capability with it.
pub fn page_capability(page_bits: usize, capability_rber: f64) -> u64 {
    (capability_rber * page_bits as f64).floor() as u64
}

/// ECC capability expressed at page granularity — the unit the paper's
/// tuning mechanism reasons in ("the maximum number of raw bit errors
/// correctable by ECC is C", §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageEccModel {
    page_bits: usize,
    capability: u64,
}

impl PageEccModel {
    /// Builds the page model from the provisioned per-bit operating RBER:
    /// `capability = floor(operating_rber * page_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting capability is zero (page too small for the
    /// requested operating point).
    pub fn from_operating_rber(page_bits: usize, operating_rber: f64) -> Self {
        let capability = page_capability(page_bits, operating_rber);
        assert!(capability > 0, "page of {page_bits} bits has zero capability");
        Self { page_bits, capability }
    }

    /// Page size in bits.
    pub fn page_bits(&self) -> usize {
        self.page_bits
    }

    /// Correctable raw bit errors per page, `C`.
    pub fn capability(&self) -> u64 {
        self.capability
    }

    /// Whether a page-level error count decodes.
    pub fn correctable(&self, errors: u64) -> bool {
        errors <= self.capability
    }

    /// The controller's decode entry point: maps a raw page error count to
    /// the decode outcome the read pipeline acts on. Both chip fidelity
    /// tiers report raw error counts, so this one function is the shared
    /// ECC stage of the host read path.
    pub fn decode(&self, errors: u64) -> PageDecode {
        if errors == 0 {
            PageDecode::Clean
        } else if errors <= self.capability {
            PageDecode::Corrected { errors }
        } else {
            PageDecode::Failed { errors }
        }
    }
}

/// Outcome of a page-granular ECC decode ([`PageEccModel::decode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDecode {
    /// The codeword decoded with zero raw bit errors.
    Clean,
    /// The codeword decoded after correcting `errors` raw bit errors.
    Corrected {
        /// Raw bit errors corrected.
        errors: u64,
    },
    /// The raw error count exceeds the correction capability; the
    /// controller must escalate (read-retry, recovery, or report loss).
    Failed {
        /// Raw bit errors observed.
        errors: u64,
    },
}

/// Upper tail `P(X > k)` of `X ~ Binomial(n, p)`, computed by direct
/// summation in log space (accurate into the deep tail where the normal
/// approximation fails by orders of magnitude).
pub fn binomial_tail_above(n: usize, p: f64, k: usize) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return if k < n { 1.0 } else { 0.0 };
    }
    if k >= n {
        return 0.0;
    }
    let ln_p = p.ln();
    let ln_q = (-p).ln_1p(); // ln(1 - p), stable for small p
                             // ln C(n, k+1) via additive construction.
    let mut ln_choose = 0.0f64;
    for i in 0..(k + 1) {
        ln_choose += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    let mut ln_term = ln_choose + (k + 1) as f64 * ln_p + (n - k - 1) as f64 * ln_q;
    let mut sum = 0.0f64;
    let mut j = k + 1;
    loop {
        sum += ln_term.exp();
        if j >= n {
            break;
        }
        // term_{j+1} = term_j * (n-j)/(j+1) * p/q
        ln_term += ((n - j) as f64).ln() - ((j + 1) as f64).ln() + ln_p - ln_q;
        // Terms decay geometrically once j >> np; stop when negligible.
        if ln_term < sum.ln() - 40.0 && j > (n as f64 * p) as usize + k {
            break;
        }
        j += 1;
    }
    sum.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_accept_reject() {
        let m = ThresholdEcc::new(40, 8752);
        assert!(m.correctable(40));
        assert!(!m.correctable(41));
        assert_eq!(m.decode_count(12).unwrap(), 12);
        assert!(matches!(m.decode_count(100), Err(EccError::Uncorrectable)));
    }

    #[test]
    fn binomial_tail_sanity() {
        // Fair coin, 10 flips, P(X > 5) = P(X >= 6) = 0.376953125.
        let p = binomial_tail_above(10, 0.5, 5);
        assert!((p - 0.376953125).abs() < 1e-9, "{p}");
        // P(X > 9) = p^10.
        let p = binomial_tail_above(10, 0.5, 9);
        assert!((p - 0.5f64.powi(10)).abs() < 1e-12);
        // Degenerate cases.
        assert_eq!(binomial_tail_above(10, 0.0, 3), 0.0);
        assert_eq!(binomial_tail_above(10, 1.0, 3), 1.0);
        assert_eq!(binomial_tail_above(10, 0.3, 10), 0.0);
    }

    #[test]
    fn binomial_tail_deep_tail_is_positive_and_tiny() {
        let m = ThresholdEcc::flash_default();
        let fep = m.frame_error_prob(1.0e-3);
        assert!(fep > 0.0 && fep < 1e-10, "fep at 1e-3: {fep:e}");
        // Monotone in rber.
        assert!(m.frame_error_prob(2.0e-3) > fep);
    }

    #[test]
    fn flash_operating_point_matches_paper_scale() {
        // Paper §2.5: flash ECC tolerates RBER up to ~1e-3. Our t=40/8752
        // provisioning should land in that decade for any sane frame-error
        // target.
        let m = ThresholdEcc::flash_default();
        let p15 = m.operating_rber(1e-15);
        assert!((8e-4..=2.5e-3).contains(&p15), "operating rber {p15:e}");
        // Lower targets demand lower operating points.
        assert!(m.operating_rber(1e-18) < p15);
    }

    #[test]
    fn page_decode_maps_counts_to_outcomes() {
        let pm = PageEccModel::from_operating_rber(4096, 1.0e-3);
        assert_eq!(pm.decode(0), PageDecode::Clean);
        assert_eq!(pm.decode(3), PageDecode::Corrected { errors: 3 });
        assert_eq!(pm.decode(4), PageDecode::Corrected { errors: 4 });
        assert_eq!(pm.decode(5), PageDecode::Failed { errors: 5 });
    }

    #[test]
    fn page_model_capability() {
        let pm = PageEccModel::from_operating_rber(4096, 1.0e-3);
        assert_eq!(pm.capability(), 4);
        assert!(pm.correctable(4) && !pm.correctable(5));
        assert_eq!(page_capability(4096, 1.0e-3), 4);
        let pm = PageEccModel::from_operating_rber(16384, 1.0e-3);
        assert_eq!(pm.capability(), 16);
    }

    #[test]
    #[should_panic(expected = "zero capability")]
    fn page_model_rejects_tiny_pages() {
        let _ = PageEccModel::from_operating_rber(100, 1.0e-3);
    }
}
