//! Binary BCH codec: systematic encoding via the generator polynomial, and
//! decoding via syndromes → Berlekamp–Massey → Chien search.
//!
//! Supports shortened codes, which is how flash page ECC is provisioned
//! (e.g. 8192 data bits protected by a t=40 code over GF(2^14) occupies an
//! 8752-bit codeword shortened from n = 16383).

use crate::gf::GfTables;
use crate::{poly, EccError};

#[inline]
fn get_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

#[inline]
fn set_bit(bytes: &mut [u8], i: usize, value: bool) {
    let mask = 1u8 << (i % 8);
    if value {
        bytes[i / 8] |= mask;
    } else {
        bytes[i / 8] &= !mask;
    }
}

/// Result of a successful decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The corrected data bits (packed).
    pub data: Vec<u8>,
    /// Number of bit errors corrected.
    pub corrected: usize,
    /// Positions (codeword bit indices) that were flipped.
    pub positions: Vec<usize>,
}

/// A binary BCH code over GF(2^m) correcting up to `t` errors, optionally
/// shortened.
///
/// Bit position `p` of a codeword is the coefficient of `x^p`: parity bits
/// occupy positions `0 .. parity_bits`, data bits the positions above.
#[derive(Debug, Clone)]
pub struct BchCode {
    gf: GfTables,
    t: u32,
    parity_bits: usize,
    data_bits: usize,
    /// Binary generator polynomial, lowest degree first.
    generator: Vec<u8>,
}

impl BchCode {
    /// Builds the primitive (unshortened) code over GF(2^m) correcting `t`
    /// errors.
    ///
    /// # Errors
    ///
    /// Fails if the field is unsupported or `t` leaves no data bits.
    pub(crate) fn new(m: u32, t: u32) -> Result<Self, EccError> {
        let gf = GfTables::new(m)?;
        let n = gf.group_order();
        // Generator = LCM of minimal polynomials of alpha^1 .. alpha^{2t}.
        // (Even powers share cosets with odd ones, so iterate odd i.)
        let mut covered = vec![false; n];
        let mut generator = vec![1u16];
        for i in (1..2 * t as usize).step_by(2) {
            if covered[i % n] {
                continue;
            }
            // Mark the whole cyclotomic coset as covered.
            let mut c = i % n;
            loop {
                covered[c] = true;
                c = (c * 2) % n;
                if c == i % n {
                    break;
                }
            }
            let mp = poly::minimal_polynomial(&gf, i);
            generator = poly::mul(&gf, &generator, &mp);
        }
        debug_assert!(generator.iter().all(|&c| c <= 1));
        let parity_bits = poly::degree(&generator);
        if parity_bits >= n {
            return Err(EccError::InvalidCapability { t, n });
        }
        let generator: Vec<u8> = generator.iter().take(parity_bits + 1).map(|&c| c as u8).collect();
        Ok(Self { gf, t, parity_bits, data_bits: n - parity_bits, generator })
    }

    /// Builds a shortened code carrying exactly `data_bits` of payload.
    ///
    /// # Errors
    ///
    /// Fails if the unshortened code cannot carry that much data.
    pub fn new_shortened(m: u32, t: u32, data_bits: usize) -> Result<Self, EccError> {
        let mut code = Self::new(m, t)?;
        if data_bits == 0 || data_bits > code.data_bits {
            return Err(EccError::InvalidShortening {
                shorten: code.data_bits.saturating_sub(data_bits),
                data_bits: code.data_bits,
            });
        }
        code.data_bits = data_bits;
        Ok(code)
    }

    /// The configuration used by real flash controllers in the paper's
    /// setting: 1 KiB of data (8192 bits) protected by a t=40 code over
    /// GF(2^14), able to tolerate ~1e-3 raw bit error rate at negligible
    /// frame error probability.
    pub fn flash_default() -> Self {
        Self::new_shortened(14, 40, 8192).expect("flash default parameters are valid")
    }

    /// Correction capability in bit errors per codeword.
    pub fn t(&self) -> u32 {
        self.t
    }

    /// Payload size in bits.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Parity size in bits.
    pub fn parity_bits(&self) -> usize {
        self.parity_bits
    }

    /// Total codeword size in bits (data + parity after shortening).
    pub fn codeword_bits(&self) -> usize {
        self.data_bits + self.parity_bits
    }

    /// Code rate (payload fraction).
    pub fn rate(&self) -> f64 {
        self.data_bits as f64 / self.codeword_bits() as f64
    }

    /// Encodes packed data bits into a packed systematic codeword.
    ///
    /// # Errors
    ///
    /// Fails if `data` is not exactly `data_bits` long (whole bytes).
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, EccError> {
        if data.len() * 8 != self.data_bits {
            return Err(EccError::LengthMismatch { got: data.len() * 8, expected: self.data_bits });
        }
        // LFSR division of d(x)*x^r by g(x); data processed from the top
        // coefficient downward.
        let r = self.parity_bits;
        let mut lfsr = vec![false; r];
        for i in (0..self.data_bits).rev() {
            let feedback = get_bit(data, i) ^ lfsr[r - 1];
            for j in (1..r).rev() {
                lfsr[j] = lfsr[j - 1] ^ (feedback && self.generator[j] == 1);
            }
            lfsr[0] = feedback && self.generator[0] == 1;
        }
        let nbits = self.codeword_bits();
        let mut cw = vec![0u8; nbits.div_ceil(8)];
        for (p, &bit) in lfsr.iter().enumerate() {
            set_bit(&mut cw, p, bit);
        }
        for i in 0..self.data_bits {
            set_bit(&mut cw, r + i, get_bit(data, i));
        }
        Ok(cw)
    }

    /// Decodes a packed codeword, correcting up to `t` bit errors.
    ///
    /// # Errors
    ///
    /// * [`EccError::LengthMismatch`] if the buffer size is wrong;
    /// * [`EccError::Uncorrectable`] if more than `t` errors are present
    ///   (detected via locator degree, root count, or out-of-range roots).
    pub fn decode(&self, received: &[u8]) -> Result<Decoded, EccError> {
        let nbits = self.codeword_bits();
        if received.len() != nbits.div_ceil(8) {
            return Err(EccError::LengthMismatch { got: received.len() * 8, expected: nbits });
        }
        let syndromes = self.syndromes(received);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(Decoded {
                data: self.extract_data(received),
                corrected: 0,
                positions: Vec::new(),
            });
        }
        let sigma = self.berlekamp_massey(&syndromes);
        let errors = poly::degree(&sigma);
        if errors == 0 || errors > self.t as usize {
            return Err(EccError::Uncorrectable);
        }
        let positions = self.chien_search(&sigma);
        if positions.len() != errors {
            return Err(EccError::Uncorrectable);
        }
        let mut fixed = received.to_vec();
        for &p in &positions {
            let bit = get_bit(&fixed, p);
            set_bit(&mut fixed, p, !bit);
        }
        // Safety net: re-verify (catches rare miscorrections past t).
        if self.syndromes(&fixed).iter().any(|&s| s != 0) {
            return Err(EccError::Uncorrectable);
        }
        Ok(Decoded { data: self.extract_data(&fixed), corrected: positions.len(), positions })
    }

    fn extract_data(&self, cw: &[u8]) -> Vec<u8> {
        let mut data =
            vec![0u8; self.data_bits / 8 + usize::from(!self.data_bits.is_multiple_of(8))];
        for i in 0..self.data_bits {
            set_bit(&mut data, i, get_bit(cw, self.parity_bits + i));
        }
        data
    }

    /// Syndromes S_1 .. S_2t of the received word (Horner evaluation at
    /// alpha^j).
    fn syndromes(&self, received: &[u8]) -> Vec<u16> {
        let nbits = self.codeword_bits();
        (1..=2 * self.t as usize)
            .map(|j| {
                let x = self.gf.alpha_pow(j);
                let mut acc = 0u16;
                for p in (0..nbits).rev() {
                    acc = self.gf.mul(acc, x);
                    if get_bit(received, p) {
                        acc ^= 1;
                    }
                }
                acc
            })
            .collect()
    }

    /// Berlekamp–Massey: smallest LFSR (error locator sigma) generating the
    /// syndrome sequence.
    fn berlekamp_massey(&self, s: &[u16]) -> Vec<u16> {
        let gf = &self.gf;
        let mut sigma = vec![1u16];
        let mut prev = vec![1u16];
        let mut l = 0usize;
        let mut b = 1u16;
        let mut gap = 1usize;
        for n in 0..s.len() {
            let mut d = s[n];
            for i in 1..=l.min(sigma.len() - 1) {
                d ^= gf.mul(sigma[i], s[n - i]);
            }
            if d == 0 {
                gap += 1;
            } else if 2 * l <= n {
                let temp = sigma.clone();
                let coef = gf.div(d, b);
                if sigma.len() < prev.len() + gap {
                    sigma.resize(prev.len() + gap, 0);
                }
                for (i, &pc) in prev.iter().enumerate() {
                    sigma[i + gap] ^= gf.mul(coef, pc);
                }
                l = n + 1 - l;
                prev = temp;
                b = d;
                gap = 1;
            } else {
                let coef = gf.div(d, b);
                if sigma.len() < prev.len() + gap {
                    sigma.resize(prev.len() + gap, 0);
                }
                for (i, &pc) in prev.iter().enumerate() {
                    sigma[i + gap] ^= gf.mul(coef, pc);
                }
                gap += 1;
            }
        }
        sigma.truncate(poly::degree(&sigma) + 1);
        sigma
    }

    /// Chien search: error positions are the `p` with sigma(alpha^{-p}) = 0,
    /// restricted to the shortened codeword range.
    fn chien_search(&self, sigma: &[u16]) -> Vec<usize> {
        let gf = &self.gf;
        let n = gf.group_order();
        let nbits = self.codeword_bits();
        let mut positions = Vec::new();
        for p in 0..nbits {
            let x = gf.alpha_pow(n - p % n);
            if poly::eval(gf, sigma, x) == 0 {
                positions.push(p);
            }
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flip(cw: &mut [u8], pos: usize) {
        cw[pos / 8] ^= 1 << (pos % 8);
    }

    #[test]
    fn code_parameters_sane() {
        let code = BchCode::new(8, 3).unwrap();
        assert_eq!(code.codeword_bits(), 255);
        assert_eq!(code.parity_bits(), 3 * 8); // t*m for these parameters
        assert_eq!(code.data_bits(), 255 - 24);
        assert!(code.rate() > 0.9);
    }

    #[test]
    fn clean_round_trip() {
        // Use a shortened code so data is whole bytes.
        let code = BchCode::new_shortened(8, 3, 224).unwrap();
        let data = vec![0x5Au8; 28];
        let cw = code.encode(&data).unwrap();
        let out = code.decode(&cw).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.corrected, 0);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let code = BchCode::new_shortened(8, 5, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for nerr in 1..=5usize {
            let data: Vec<u8> = (0..25).map(|_| rng.gen()).collect();
            let mut cw = code.encode(&data).unwrap();
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < nerr {
                picked.insert(rng.gen_range(0..code.codeword_bits()));
            }
            for &p in &picked {
                flip(&mut cw, p);
            }
            let out = code.decode(&cw).unwrap();
            assert_eq!(out.data, data, "nerr={nerr}");
            assert_eq!(out.corrected, nerr);
            let mut found: Vec<usize> = out.positions.clone();
            found.sort_unstable();
            assert_eq!(found, picked.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        let code = BchCode::new_shortened(8, 4, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut detected = 0;
        let trials = 50;
        for _ in 0..trials {
            let data: Vec<u8> = (0..25).map(|_| rng.gen()).collect();
            let mut cw = code.encode(&data).unwrap();
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < 9 {
                picked.insert(rng.gen_range(0..code.codeword_bits()));
            }
            for &p in &picked {
                flip(&mut cw, p);
            }
            match code.decode(&cw) {
                Err(EccError::Uncorrectable) => detected += 1,
                Ok(out) => {
                    // Miscorrection is possible beyond t, but must not be
                    // reported as a clean decode of the original data.
                    assert_ne!(out.data, data, "silently healed >t errors");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(detected > trials / 2, "detected only {detected}/{trials}");
    }

    #[test]
    fn shortened_code_round_trip() {
        let code = BchCode::new_shortened(10, 8, 512).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let mut cw = code.encode(&data).unwrap();
        for p in [0usize, 100, 513, code.codeword_bits() - 1] {
            flip(&mut cw, p);
        }
        let out = code.decode(&cw).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.corrected, 4);
    }

    #[test]
    fn flash_default_shape() {
        let code = BchCode::flash_default();
        assert_eq!(code.data_bits(), 8192);
        assert_eq!(code.t(), 40);
        assert_eq!(code.parity_bits(), 40 * 14);
        assert_eq!(code.codeword_bits(), 8192 + 560);
    }

    #[test]
    fn flash_default_corrects_realistic_error_pattern() {
        let code = BchCode::flash_default();
        let mut rng = StdRng::seed_from_u64(2024);
        let data: Vec<u8> = (0..1024).map(|_| rng.gen()).collect();
        let mut cw = code.encode(&data).unwrap();
        // ~1e-3 RBER worth of errors: ~9 flips across 8752 bits.
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < 9 {
            picked.insert(rng.gen_range(0..code.codeword_bits()));
        }
        for &p in &picked {
            flip(&mut cw, p);
        }
        let out = code.decode(&cw).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.corrected, 9);
    }

    #[test]
    fn length_validation() {
        let code = BchCode::new_shortened(8, 3, 224).unwrap();
        assert!(matches!(code.encode(&[0u8; 5]), Err(EccError::LengthMismatch { .. })));
        assert!(matches!(code.decode(&[0u8; 5]), Err(EccError::LengthMismatch { .. })));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BchCode::new(3, 2).is_err());
        assert!(BchCode::new_shortened(8, 3, 0).is_err());
        assert!(BchCode::new_shortened(8, 3, 100_000).is_err());
    }
}
