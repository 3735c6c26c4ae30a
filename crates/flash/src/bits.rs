//! Packed-bit helpers shared by the flash, ECC, and FTL crates.
//!
//! Pages are exchanged as packed little-endian-bit byte slices: bit `i` of a
//! page lives at `bytes[i / 8] >> (i % 8) & 1`.

use rand::Rng;

/// Reads bit `i` of a packed slice.
///
/// # Panics
///
/// Panics if `i / 8` is out of bounds.
#[inline]
pub fn get_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

/// Writes bit `i` of a packed slice.
///
/// # Panics
///
/// Panics if `i / 8` is out of bounds.
#[inline]
pub fn set_bit(bytes: &mut [u8], i: usize, value: bool) {
    let mask = 1u8 << (i % 8);
    if value {
        bytes[i / 8] |= mask;
    } else {
        bytes[i / 8] &= !mask;
    }
}

/// Allocates a zeroed buffer holding `nbits` bits.
pub fn zeroed(nbits: usize) -> Vec<u8> {
    vec![0u8; nbits.div_ceil(8)]
}

/// Allocates a buffer holding `nbits` set bits (an erased page).
pub fn ones(nbits: usize) -> Vec<u8> {
    let mut out = vec![0xFFu8; nbits.div_ceil(8)];
    mask_tail(&mut out, nbits);
    out
}

/// Samples `nbits` uniformly random bits.
pub fn random<R: Rng + ?Sized>(rng: &mut R, nbits: usize) -> Vec<u8> {
    let mut out = zeroed(nbits);
    rng.fill(&mut out[..]);
    mask_tail(&mut out, nbits);
    out
}

/// Clears the spare bits past `nbits` in the last byte, so equality
/// comparisons and bit counts are well defined.
fn mask_tail(bytes: &mut [u8], nbits: usize) {
    let spare = bytes.len() * 8 - nbits;
    if let Some(last) = bytes.last_mut().filter(|_| spare > 0) {
        *last &= 0xFF >> spare;
    }
}

/// Hamming distance between two equal-length packed slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hamming(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "buffers must have equal length");
    let ((a_words, a_tail), (b_words, b_tail)) = (words(a), words(b));
    a_words.zip(b_words).map(|(x, y)| u64::from((x ^ y).count_ones())).sum::<u64>()
        + a_tail.iter().zip(b_tail).map(|(x, y)| u64::from((x ^ y).count_ones())).sum::<u64>()
}

/// Number of set bits in a packed slice.
pub fn count_ones(bytes: &[u8]) -> u64 {
    let (words, tail) = words(bytes);
    words.map(|w| u64::from(w.count_ones())).sum::<u64>()
        + tail.iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
}

/// Splits a slice into its whole 8-byte words and the byte tail, so bit
/// counts cost one popcount per 64 bits instead of one per byte.
fn words(bytes: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    (chunks.map(|c| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"))), tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn set_get_round_trip() {
        let mut buf = zeroed(20);
        for i in [0, 1, 7, 8, 13, 19] {
            set_bit(&mut buf, i, true);
            assert!(get_bit(&buf, i));
            set_bit(&mut buf, i, false);
            assert!(!get_bit(&buf, i));
        }
    }

    #[test]
    fn random_masks_tail() {
        let mut rng = StdRng::seed_from_u64(1);
        for nbits in [1usize, 7, 8, 9, 63] {
            let b = random(&mut rng, nbits);
            assert_eq!(b.len(), nbits.div_ceil(8));
            for i in nbits..b.len() * 8 {
                assert!(!get_bit(&b, i), "tail bit {i} set for nbits={nbits}");
            }
        }
    }

    #[test]
    fn ones_masks_tail() {
        for nbits in [0usize, 1, 7, 8, 9, 63, 64] {
            let b = ones(nbits);
            assert_eq!(b.len(), nbits.div_ceil(8));
            assert_eq!(count_ones(&b), nbits as u64, "nbits={nbits}");
        }
    }

    #[test]
    fn hamming_counts_differences() {
        let a = vec![0b1010_1010u8, 0xFF];
        let b = vec![0b1010_1000u8, 0x0F];
        assert_eq!(hamming(&a, &b), 1 + 4);
        assert_eq!(hamming(&a, &a), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn hamming_rejects_mismatched_lengths() {
        let _ = hamming(&[0u8], &[0u8, 1u8]);
    }
}
