//! The folds that fingerprint stored data: FNV-1a for short byte strings
//! and a word-at-a-time fold for pages.
//!
//! A payload-carrying [`crate::Chip`] records each page's
//! `fold_page(FNV_OFFSET, payload)` when it programs the page
//! ([`crate::Chip::stored_page`]); a consumer that digests what it reads
//! folds that one word ([`fold_word`]) instead of the page's bytes.

/// FNV-1a offset basis (the digest's initial state). Public so external
/// digest-parity harnesses can fold per-die digests the way the engine
/// does.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
///
/// Byte-serial, so it is kept off the per-read path: it folds the engine's
/// per-die digests into its data digest, the `len % 8` tail of
/// [`fold_page`], and the fleet's slot and row digests; the benchmark
/// hashes each workload's statistics into its fingerprint with it.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Multiplier of [`fold_word`]: 2⁶⁴ over the golden ratio.
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of [`fold_page`]: `word` xored into `hash`, the result
/// multiplied to 128 bits by an odd constant (2⁶⁴ over the golden ratio),
/// and the two halves xored into the new hash. Equal to
/// `fold_page(hash, &word.to_le_bytes())`.
#[inline]
pub fn fold_word(hash: u64, word: u64) -> u64 {
    let p = u128::from(hash ^ word) * u128::from(FOLD_K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Folds a page into a digest eight bytes per round. A payload-carrying
/// chip records `fold_page(FNV_OFFSET, payload)` for each page it programs
/// ([`crate::Chip::stored_page`]).
///
/// Each little-endian word goes through [`fold_word`]; the `len % 8` tail
/// bytes go through [`fnv1a`], so every byte reaches the digest. The high
/// half of the product is what carries a flipped top bit into the low
/// bits: a wrapping multiply by an odd constant (FNV's prime, applied to
/// whole words) never carries downwards, so flips of bit 63 in two words
/// would cancel.
pub fn fold_page(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8-byte words"));
        hash = fold_word(hash, w);
    }
    fnv1a(hash, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_word_is_one_fold_page_round() {
        for (hash, word) in [(FNV_OFFSET, 0), (FNV_OFFSET, u64::MAX), (7, 0x0123_4567_89ab_cdef)] {
            assert_eq!(fold_word(hash, word), fold_page(hash, &word.to_le_bytes()));
        }
    }
}
