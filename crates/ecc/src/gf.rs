//! Arithmetic in the finite field GF(2^m), 4 ≤ m ≤ 14, via log/antilog
//! tables over a fixed primitive polynomial per degree.

use crate::EccError;

/// Primitive polynomials (including the x^m term) for each supported degree.
/// Index = m - MIN_M.
const PRIMITIVE_POLYS: [u32; 11] = [
    0x13,   // m=4:  x^4 + x + 1
    0x25,   // m=5:  x^5 + x^2 + 1
    0x43,   // m=6:  x^6 + x + 1
    0x89,   // m=7:  x^7 + x^3 + 1
    0x11D,  // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,  // m=9:  x^9 + x^4 + 1
    0x409,  // m=10: x^10 + x^3 + 1
    0x805,  // m=11: x^11 + x^2 + 1
    0x1053, // m=12: x^12 + x^6 + x^4 + x + 1
    0x201B, // m=13: x^13 + x^4 + x^3 + x + 1
    0x4443, // m=14: x^14 + x^10 + x^6 + x + 1
];

/// Smallest supported extension degree.
pub(crate) const MIN_M: u32 = 4;
/// Largest supported extension degree (GF(2^14): 16383-bit codewords, the
/// size class of real flash page BCH).
pub(crate) const MAX_M: u32 = 14;

/// Log/antilog tables for GF(2^m). Elements are represented as `u16`
/// polynomial bit patterns; zero is the additive identity.
#[derive(Debug, Clone)]
pub struct GfTables {
    size: usize, // 2^m - 1 (multiplicative group order)
    exp: Vec<u16>,
    log: Vec<u16>,
}

impl GfTables {
    /// Builds the tables for GF(2^m).
    ///
    /// # Errors
    ///
    /// Returns [`EccError::UnsupportedField`] for `m` outside `4..=14`.
    pub fn new(m: u32) -> Result<Self, EccError> {
        if !(MIN_M..=MAX_M).contains(&m) {
            return Err(EccError::UnsupportedField { m });
        }
        let poly = PRIMITIVE_POLYS[(m - MIN_M) as usize];
        let size = (1usize << m) - 1;
        let mut exp = vec![0u16; 2 * size]; // doubled to skip a mod in mul
        let mut log = vec![0u16; size + 1];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(size) {
            *e = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        for i in size..2 * size {
            exp[i] = exp[i - size];
        }
        Ok(Self { size, exp, log })
    }

    /// Order of the multiplicative group, `2^m - 1` (also the codeword
    /// length of the primitive BCH code over this field).
    pub(crate) fn group_order(&self) -> usize {
        self.size
    }

    /// `alpha^i` for `i` taken modulo the group order.
    pub(crate) fn alpha_pow(&self, i: usize) -> u16 {
        self.exp[i % self.size]
    }

    /// Field multiplication.
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "inverse of zero");
        self.exp[self.size - self.log[a as usize] as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            let d = self.size + self.log[a as usize] as usize - self.log[b as usize] as usize;
            self.exp[d % self.size]
        }
    }

    /// `a` raised to the integer power `e` (e may exceed the group order).
    pub fn pow(&self, a: u16, e: usize) -> u16 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let l = self.log[a as usize] as usize;
        self.exp[(l * (e % self.size)) % self.size]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GfTables {
        /// Discrete log of a nonzero element.
        ///
        /// # Panics
        ///
        /// Panics on zero (zero has no logarithm).
        fn log(&self, a: u16) -> u16 {
            assert!(a != 0, "log of zero");
            self.log[a as usize]
        }
    }

    #[test]
    fn rejects_out_of_range_degrees() {
        assert!(GfTables::new(3).is_err());
        assert!(GfTables::new(15).is_err());
        assert!(GfTables::new(8).is_ok());
    }

    #[test]
    fn alpha_generates_whole_group() {
        for m in MIN_M..=10 {
            let gf = GfTables::new(m).unwrap();
            let mut seen = vec![false; gf.group_order() + 1];
            for i in 0..gf.group_order() {
                let e = gf.alpha_pow(i);
                assert!(e != 0);
                assert!(!seen[e as usize], "m={m}: alpha^{i} repeats");
                seen[e as usize] = true;
            }
        }
    }

    #[test]
    fn log_exp_round_trip() {
        let gf = GfTables::new(10).unwrap();
        for i in 0..gf.group_order() {
            let e = gf.alpha_pow(i);
            assert_eq!(gf.log(e) as usize, i);
        }
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        // Carry-less multiply then reduce, compared against table mul.
        let m = 8u32;
        let poly = PRIMITIVE_POLYS[(m - MIN_M) as usize];
        let gf = GfTables::new(m).unwrap();
        let slow_mul = |a: u16, b: u16| -> u16 {
            let mut acc: u32 = 0;
            for i in 0..16 {
                if b & (1 << i) != 0 {
                    acc ^= (a as u32) << i;
                }
            }
            for i in (m..32).rev() {
                if acc & (1 << i) != 0 {
                    acc ^= poly << (i - m);
                }
            }
            acc as u16
        };
        for a in [0u16, 1, 2, 3, 0x53, 0xCA, 0xFF] {
            for b in [0u16, 1, 2, 0x11, 0x80, 0xFE] {
                assert_eq!(gf.mul(a, b), slow_mul(a, b), "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn inverse_and_division() {
        let gf = GfTables::new(9).unwrap();
        for a in 1..=gf.group_order() as u16 {
            assert_eq!(gf.mul(a, gf.inv(a)), 1);
            assert_eq!(gf.div(a, a), 1);
        }
        assert_eq!(gf.div(0, 7), 0);
    }

    #[test]
    fn pow_basics() {
        let gf = GfTables::new(8).unwrap();
        assert_eq!(gf.pow(0, 0), 1);
        assert_eq!(gf.pow(0, 5), 0);
        assert_eq!(gf.pow(2, 1), 2);
        let a = 0x1D;
        assert_eq!(gf.pow(a, 2), gf.mul(a, a));
        assert_eq!(gf.pow(a, gf.group_order()), 1, "Fermat");
    }
}
