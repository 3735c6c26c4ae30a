//! The paper's ECC margin arithmetic (§3): a flash controller reserves 20%
//! of the correction capability for error-distribution variance and other
//! noise, and the remainder above the currently-observed worst-case error
//! count is the margin `M` that Vpass Tuning may spend on deliberate
//! pass-through errors:
//!
//! ```text
//! M = (1 - 0.2) * C - MEE
//! ```
//!
//! where `C` is the correction capability and MEE the maximum estimated
//! error discovered by probing the predicted worst-case page.

/// Margin policy: capability operating point and reserved fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginPolicy {
    /// Provisioned tolerable RBER of the ECC (the paper's 1e-3 capability
    /// line in Fig. 6).
    pub capability_rber: f64,
    /// Fraction of capability reserved for variance (the paper's 20%).
    pub reserve_frac: f64,
}

impl MarginPolicy {
    /// The paper's configuration: capability 1e-3 RBER, 20% reserved.
    pub fn paper_default() -> Self {
        Self { capability_rber: 1.0e-3, reserve_frac: 0.2 }
    }

    /// Usable capability after the reserve, as an RBER.
    pub fn usable_rber(&self) -> f64 {
        (1.0 - self.reserve_frac) * self.capability_rber
    }

    /// Margin left at a given current RBER, as an RBER (clamped at zero).
    pub fn margin_rber(&self, current_rber: f64) -> f64 {
        (self.usable_rber() - current_rber).max(0.0)
    }

    /// Correction capability `C` of a page, in bit errors.
    pub fn capability_errors(&self, page_bits: usize) -> u64 {
        crate::model::page_capability(page_bits, self.capability_rber)
    }

    /// The paper's `M = (1 - reserve) * C - MEE`, in bit errors (clamped at
    /// zero).
    pub fn margin_errors(&self, page_bits: usize, mee: u64) -> u64 {
        let usable =
            ((1.0 - self.reserve_frac) * self.capability_errors(page_bits) as f64).floor() as u64;
        usable.saturating_sub(mee)
    }
}

impl Default for MarginPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = MarginPolicy::paper_default();
        assert!((p.usable_rber() - 8.0e-4).abs() < 1e-12);
        assert!((p.margin_rber(5.0e-4) - 3.0e-4).abs() < 1e-12);
        assert_eq!(p.margin_rber(9.0e-4), 0.0);
    }

    #[test]
    fn margin_errors_formula() {
        let p = MarginPolicy::paper_default();
        // 16384-bit page: C = 16, usable = 12, MEE = 5 -> M = 7.
        assert_eq!(p.capability_errors(16384), 16);
        assert_eq!(p.margin_errors(16384, 5), 7);
        assert_eq!(p.margin_errors(16384, 20), 0, "clamped");
    }
}
