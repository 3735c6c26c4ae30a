//! Polynomial helpers over GF(2^m) used by BCH construction and decoding.
//!
//! Polynomials are coefficient vectors, lowest degree first.

use crate::gf::GfTables;

/// Multiplies two polynomials over GF(2^m).
pub(crate) fn mul(gf: &GfTables, a: &[u16], b: &[u16]) -> Vec<u16> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u16; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if bj != 0 {
                out[i + j] ^= gf.mul(ai, bj);
            }
        }
    }
    out
}

/// Evaluates a polynomial at `x` (Horner).
pub(crate) fn eval(gf: &GfTables, poly: &[u16], x: u16) -> u16 {
    let mut acc = 0u16;
    for &c in poly.iter().rev() {
        acc = gf.mul(acc, x) ^ c;
    }
    acc
}

/// Degree of a polynomial (ignoring leading zeros); degree 0 for constants
/// and empty polynomials.
pub(crate) fn degree(poly: &[u16]) -> usize {
    poly.iter().rposition(|&c| c != 0).unwrap_or(0)
}

/// Minimal polynomial over GF(2) of `alpha^i`: product of `(x - alpha^c)`
/// over the cyclotomic coset of `i`. All coefficients land in {0, 1}.
pub(crate) fn minimal_polynomial(gf: &GfTables, i: usize) -> Vec<u16> {
    let n = gf.group_order();
    // Cyclotomic coset {i, 2i, 4i, ...} mod n.
    let mut coset = Vec::new();
    let mut c = i % n;
    loop {
        coset.push(c);
        c = (c * 2) % n;
        if c == i % n {
            break;
        }
    }
    let mut poly = vec![1u16];
    for &c in &coset {
        // Multiply by (x + alpha^c)  (same as x - alpha^c in char 2).
        poly = mul(gf, &poly, &[gf.alpha_pow(c), 1]);
    }
    debug_assert!(poly.iter().all(|&c| c <= 1), "minimal polynomial must be binary");
    poly
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_against_known_product() {
        let gf = GfTables::new(4).unwrap();
        // (x + 1)(x + 1) = x^2 + 1 over GF(2) coefficients (cross terms cancel).
        let p = mul(&gf, &[1, 1], &[1, 1]);
        assert_eq!(p, vec![1, 0, 1]);
    }

    #[test]
    fn eval_horner() {
        let gf = GfTables::new(4).unwrap();
        // p(x) = x^2 + x + 1 at x=alpha: alpha^2 ^ alpha ^ 1.
        let a = gf.alpha_pow(1);
        let expect = gf.mul(a, a) ^ a ^ 1;
        assert_eq!(eval(&gf, &[1, 1, 1], a), expect);
        assert_eq!(eval(&gf, &[7], 3), 7, "constant");
    }

    #[test]
    fn degree_ignores_leading_zeros() {
        assert_eq!(degree(&[1, 2, 0, 0]), 1);
        assert_eq!(degree(&[0]), 0);
        assert_eq!(degree(&[]), 0);
    }

    #[test]
    fn minimal_polynomial_is_binary_and_annihilates() {
        for m in [4u32, 6, 8] {
            let gf = GfTables::new(m).unwrap();
            for i in [1usize, 3, 5] {
                let mp = minimal_polynomial(&gf, i);
                assert!(mp.iter().all(|&c| c <= 1));
                // It must vanish on the whole coset.
                let mut c = i;
                loop {
                    assert_eq!(eval(&gf, &mp, gf.alpha_pow(c)), 0, "m={m} i={i} at alpha^{c}");
                    c = (c * 2) % gf.group_order();
                    if c == i {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_polynomial_degree_divides_m() {
        let gf = GfTables::new(8).unwrap();
        for i in 1..20usize {
            let d = degree(&minimal_polynomial(&gf, i));
            assert!(8 % d == 0 || d == 8, "deg {d} for i={i}");
        }
    }
}
