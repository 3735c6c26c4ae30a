//! The closed-form tiers' read sampler (see [`crate::aggregate_block`]):
//! [`sample_binomial`] draws an error count around a closed-form RBER, and
//! [`sample_events`] draws a page read's events — the raw error count, that
//! many distinct bitlines, then (at a relaxed Vpass) the blocked count and
//! as many distinct bitlines — into a [`ReadSink`]: [`CountSink`] for the
//! counts a controller's ECC reports ([`crate::Chip::read_page_counts`]),
//! [`ByteSink`] for the sensed bytes ([`crate::Chip::read_page`]). The
//! draws are the same, in the same order, whichever sink receives them.

use rand::rngs::StdRng;
use rand::Rng;

use crate::bits;
use crate::noise::retention;

/// Means below which [`sample_binomial`] inverts one uniform draw.
pub(crate) const INVERSION_MAX_MEAN: f64 = 32.0;

/// Samples `Binomial(n, p)` deterministically from `rng`: exact inverse-CDF
/// from a single uniform draw for small means (the common case — RBERs here
/// are 1e-9..1e-2), a normal approximation for large ones. Always in `0..=n`.
pub(crate) fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if mean < INVERSION_MAX_MEAN {
        // One RNG draw regardless of outcome (the former Knuth product
        // inversion paid one draw per trial), and an exact binomial rather
        // than its Poisson approximation.
        crate::math::binomial_from_uniform(n, p, rng.gen())
    } else {
        let sd = (mean * (1.0 - p)).sqrt();
        let z = retention::sample_standard_normal(rng);
        let k = (mean + sd * z).round();
        (k.max(0.0) as u64).min(n)
    }
}

/// Bitset over bitline indices: the position sampler's rejection set, and
/// what lets the count-only sink see flip/block overlap without a page.
#[derive(Debug, Clone)]
struct BitSet(Vec<u64>);

impl BitSet {
    /// Inserts `i`; `false` if it was already present.
    fn insert(&mut self, i: usize) -> bool {
        let (word, mask) = (&mut self.0[i / 64], 1u64 << (i % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Per-chip sampling scratch, reused by every read so none allocates.
#[derive(Debug, Clone)]
pub(crate) struct ReadScratch {
    flipped: BitSet,
    blocked: BitSet,
}

impl ReadScratch {
    pub(crate) fn new(bitlines: u32) -> Self {
        let empty = BitSet(vec![0; (bitlines as usize).div_ceil(64)]);
        Self { flipped: empty.clone(), blocked: empty }
    }
}

/// Receives the bit events of one sampled read, in draw order. `stored` is
/// the page as programmed, `None` for an erased page (all ones).
pub(crate) trait ReadSink {
    /// Whether the sink keeps the sensed bytes (the cell-exact tier, which
    /// senses states rather than events, assembles them only then).
    const BYTES: bool;
    fn start(stored: Option<&[u8]>, nbits: usize, top_bit: bool) -> Self;
    /// Bitline `bl` senses the complement of its stored bit.
    fn flip(&mut self, bl: usize);
    /// Bitline `bl` (storing `stored_bit`) cannot conduct and senses the top
    /// state's bit, whether or not it was `flipped` before.
    fn block(&mut self, bl: usize, flipped: bool, stored_bit: bool);
    /// `(raw bit errors, sensed bytes if the sink kept any)`.
    fn finish(self, stored: Option<&[u8]>) -> (u64, Vec<u8>);
}

/// Count-only sink, with no page buffer: a flipped bitline is one error
/// unless blocking overrides it, and a blocked bitline senses the top
/// state, so `errors = flips − |flips ∩ blocked| + |{blocked : stored bit ≠
/// top bit}|`, in O(flips + blocked).
pub(crate) struct CountSink {
    top_bit: bool,
    errors: u64,
}

impl ReadSink for CountSink {
    const BYTES: bool = false;
    fn start(_stored: Option<&[u8]>, _nbits: usize, top_bit: bool) -> Self {
        Self { top_bit, errors: 0 }
    }

    fn flip(&mut self, _bl: usize) {
        self.errors += 1;
    }

    fn block(&mut self, _bl: usize, flipped: bool, stored_bit: bool) {
        self.errors = self.errors - u64::from(flipped) + u64::from(stored_bit != self.top_bit);
    }

    fn finish(self, _stored: Option<&[u8]>) -> (u64, Vec<u8>) {
        (self.errors, Vec::new())
    }
}

/// Materializing sink: applies the events to a copy of the stored page and
/// counts errors by comparing the two.
pub(crate) struct ByteSink {
    data: Vec<u8>,
    nbits: usize,
    top_bit: bool,
}

impl ReadSink for ByteSink {
    const BYTES: bool = true;
    fn start(stored: Option<&[u8]>, nbits: usize, top_bit: bool) -> Self {
        Self { data: stored.map_or_else(|| bits::ones(nbits), <[u8]>::to_vec), nbits, top_bit }
    }

    fn flip(&mut self, bl: usize) {
        self.data[bl / 8] ^= 1 << (bl % 8);
    }

    fn block(&mut self, bl: usize, _flipped: bool, _stored_bit: bool) {
        bits::set_bit(&mut self.data, bl, self.top_bit);
    }

    fn finish(self, stored: Option<&[u8]>) -> (u64, Vec<u8>) {
        let errors = match stored {
            Some(stored) => bits::hamming(&self.data, stored),
            // Intended is all-ones: errors are exactly the cleared bits.
            None => self.nbits as u64 - bits::count_ones(&self.data),
        };
        (errors, self.data)
    }
}

/// Draws one read's events into `sink` — the binomial raw error count, that
/// many distinct bitlines, then (at a relaxed Vpass) the blocked count and
/// as many distinct bitlines — and returns the blocked count. The draws do
/// not depend on the sink.
pub(crate) fn sample_events(
    rng: &mut StdRng,
    scratch: &mut ReadScratch,
    bitlines: u32,
    p_err: f64,
    p_block: f64,
    stored: Option<&[u8]>,
    sink: &mut impl ReadSink,
) -> u64 {
    let ReadScratch { flipped, blocked } = scratch;
    let flips = sample_binomial(rng, u64::from(bitlines), p_err);
    for_distinct_positions(rng, bitlines, flips, flipped, |bl| sink.flip(bl));
    if p_block <= 0.0 {
        return 0;
    }
    let n_blocked = sample_binomial(rng, u64::from(bitlines), p_block);
    for_distinct_positions(rng, bitlines, n_blocked, blocked, |bl| {
        sink.block(bl, flipped.contains(bl), stored.is_none_or(|data| bits::get_bit(data, bl)));
    });
    n_blocked
}

/// Invokes `apply` on `k` distinct positions in `0..n`, sampled uniformly
/// by rejection against `chosen` (left holding exactly those positions);
/// `k` is far below `n` at model error rates.
fn for_distinct_positions(
    rng: &mut StdRng,
    n: u32,
    k: u64,
    chosen: &mut BitSet,
    mut apply: impl FnMut(usize),
) {
    chosen.0.fill(0);
    let mut left = k.min(u64::from(n));
    if left == u64::from(n) {
        for bl in 0..n as usize {
            chosen.insert(bl);
            apply(bl);
        }
        return;
    }
    while left > 0 {
        let bl = rng.gen_range(0..n) as usize;
        if chosen.insert(bl) {
            apply(bl);
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn binomial_sampler_bounds_and_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
        // Small-mean regime (exact inverse-CDF path).
        let mean_of = |rng: &mut StdRng, n: u64, p: f64, draws: u64| -> f64 {
            (0..draws).map(|_| sample_binomial(rng, n, p)).sum::<u64>() as f64 / draws as f64
        };
        let m = mean_of(&mut rng, 100_000, 1.0e-4, 3_000);
        assert!((m / 10.0 - 1.0).abs() < 0.15, "small-mean sampler mean {m} (expect 10)");
        // Large-mean regime (normal path).
        let m = mean_of(&mut rng, 100_000, 1.0e-2, 3_000);
        assert!((m / 1000.0 - 1.0).abs() < 0.05, "large-mean sampler mean {m} (expect 1000)");
        for _ in 0..200 {
            assert!(sample_binomial(&mut rng, 50, 0.9) <= 50);
        }
    }

    #[test]
    fn distinct_positions_are_distinct_and_complete() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chosen = ReadScratch::new(64).flipped;
        let mut seen = Vec::new();
        for_distinct_positions(&mut rng, 64, 20, &mut chosen, |i| seen.push(i));
        assert_eq!(seen.len(), 20);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20);
        assert_eq!(seen, (0..64).filter(|&i| chosen.contains(i)).collect::<Vec<_>>());
        // k == n short-circuits to the full range (and still marks it).
        let mut all = Vec::new();
        for_distinct_positions(&mut rng, 16, 16, &mut chosen, |i| all.push(i));
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        assert!((0..16).all(|i| chosen.contains(i)) && !chosen.contains(16));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The count-only identity against the bytes where flipped and
        /// blocked bitlines overlap heavily (model-rate reads almost never
        /// do): both sinks fed by the same draws must agree on the count.
        #[test]
        fn count_sink_identity_holds_under_dense_overlap(
            seed in proptest::prelude::any::<u64>(),
            bitlines in 1u32..700,
            p_err in 0.0f64..1.05,
            p_block in 0.0f64..1.05,
            programmed in proptest::prelude::any::<bool>(),
            top_bit in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nbits = bitlines as usize;
            let page = bits::random(&mut rng, nbits);
            let stored = programmed.then_some(page.as_slice());
            let mut scratch = ReadScratch::new(bitlines);

            let mut rng_c = rng.clone();
            let mut counted = CountSink::start(stored, nbits, top_bit);
            let blocked_c = sample_events(
                &mut rng_c, &mut scratch, bitlines, p_err, p_block, stored, &mut counted,
            );
            let mut bytes = ByteSink::start(stored, nbits, top_bit);
            let blocked = sample_events(
                &mut rng, &mut scratch, bitlines, p_err, p_block, stored, &mut bytes,
            );
            let (errors, data) = bytes.finish(stored);
            let intended = stored.map_or_else(|| bits::ones(nbits), <[u8]>::to_vec);
            proptest::prop_assert_eq!(errors, bits::hamming(&data, &intended));
            proptest::prop_assert_eq!(counted.finish(stored).0, errors);
            proptest::prop_assert_eq!(blocked_c, blocked);
            proptest::prop_assert_eq!(rng_c.state(), rng.state());
        }
    }
}
