//! Aggregate engine statistics: throughput, latency percentiles, and the
//! per-die reliability counters the paper's SSD-scale evaluation tracks.

use rd_ftl::{ReadFidelity, SsdStats};

/// Per-die snapshot inside an [`EngineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct DieStats {
    /// Die index (channel-major).
    pub die: u32,
    /// Channel the die sits on.
    pub channel: u32,
    /// Host requests served by this die.
    pub ops: u64,
    /// Total simulated busy time of the die (µs), including background work.
    pub busy_us: f64,
    /// Simulated time the die spent on background jobs alone (µs):
    /// GC/refresh/reclaim relocations, erases, recovery re-reads, and
    /// policy probe reads — the relocation-cost share of `busy_us`.
    pub background_us: f64,
    /// Highest `reads_since_erase` over the die's blocks — the die's current
    /// worst-case read-disturb accumulation point.
    pub hottest_block_reads: u64,
    /// Digest of every read this die decoded, in service order (the per-die
    /// term the engine-level [`EngineStats::data_digest`] folds in die
    /// order): each decoded page through [`fold_page`] on the payload tiers,
    /// each read's corrected-error count in one xor-multiply round on the
    /// payload-free aggregate tier. Carried per die so sharded deployments
    /// ([`EngineStats::merge_shards`]) can rebuild the exact monolithic digest.
    pub digest: u64,
    /// The die's controller counters (writes, erases, corrected bits, …).
    pub ssd: SsdStats,
}

/// Aggregate statistics of an engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Channels in the array.
    pub channels: u32,
    /// Dies in the array.
    pub dies: u32,
    /// Read-path fidelity tier the dies ran at (BENCH rows must be
    /// self-describing: an analytic replay is not comparable to an exact
    /// one without this tag).
    pub fidelity: ReadFidelity,
    /// Host requests completed.
    pub ops: u64,
    /// Read requests completed (including failed lookups).
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Reads that hit a never-written page (completed with `NotWritten`).
    pub reads_not_written: u64,
    /// Writes that completed with an error (out of space / out of range) —
    /// they consumed schedule time but stored nothing.
    pub writes_failed: u64,
    /// Reads that stayed uncorrectable after the full recovery ladder
    /// (data-loss events).
    pub uncorrectable_reads: u64,
    /// Reads whose initial decode failed but were salvaged by the
    /// recovery ladder.
    pub recovered_reads: u64,
    /// Recovery-ladder steps engaged across all dies.
    pub recovery_steps: u64,
    /// Flash re-reads spent inside recovery ladders (each charged tR).
    pub recovery_reads: u64,
    /// Uncorrectable bit error rate across all dies: whole-page loss
    /// events per host page read (page size cancels out of bits-lost over
    /// bits-read).
    pub uber: f64,
    /// Raw bit errors corrected across all dies (host reads + relocations).
    pub corrected_bits: u64,
    /// Simulated background-job time across all dies (µs): relocations,
    /// erases, recovery re-reads, probe reads.
    pub background_us: f64,
    /// Simulated time at which the last request completed (µs).
    pub makespan_us: f64,
    /// Median end-to-end request latency (µs).
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end request latency (µs).
    pub latency_p99_us: f64,
    /// Mean end-to-end request latency (µs).
    pub latency_mean_us: f64,
    /// The per-die [`DieStats::digest`]s folded by [`fnv1a`] in die order — a
    /// bit-exact fingerprint of all data the engine served. A die folds each
    /// decoded page eight bytes per round ([`fold_page`]) at the
    /// `PageAnalytic` and `CellExact` tiers, and each read's corrected-error
    /// count at `BlockAggregate`, which carries no payload.
    pub data_digest: u64,
    /// Per-die breakdown, indexed by die id.
    pub per_die: Vec<DieStats>,
}

impl EngineStats {
    /// Raw simulated throughput in I/O operations per second: **every**
    /// completed request over the makespan, including failed-lookup reads
    /// and rejected writes (they consume schedule slots). For the rate of
    /// requests that did useful work, divide [`EngineStats::effective_ops`]
    /// by the makespan.
    pub fn iops(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            0.0
        } else {
            self.ops as f64 / (self.makespan_us / 1e6)
        }
    }

    /// Requests that did useful flash work: total ops minus `NotWritten`
    /// reads and failed writes. On an error-heavy run this is the honest
    /// numerator for throughput claims — the raw [`EngineStats::iops`]
    /// would count requests that moved no data.
    pub fn effective_ops(&self) -> u64 {
        self.ops - self.reads_not_written - self.writes_failed
    }

    /// Sum of the per-die controller counters.
    pub fn totals(&self) -> SsdStats {
        let mut t = SsdStats::default();
        for d in &self.per_die {
            t += d.ssd;
        }
        t
    }

    /// Merges per-shard snapshots into the statistics of the whole array,
    /// exactly as a monolithic engine over the union of the shards' dies
    /// would report them. Shards are independent channel groups, so:
    ///
    /// * counters and background time sum;
    /// * the makespan is the maximum over shards (they run concurrently);
    /// * dies and channels are renumbered globally in shard order;
    /// * the data digest folds every die digest in global die order —
    ///   bit-identical to the monolithic engine's digest when the shards
    ///   were built with matching [`crate::EngineConfig::die_index_offset`]s;
    /// * latency percentiles/mean come from `latency_sample` (per-shard
    ///   percentiles are not mergeable), which the caller collects from
    ///   completions; pass the concatenated per-request latencies.
    ///
    /// UBER is recomputed from the merged counters and defined as 0 when no
    /// host reads were served (never a 0/0 NaN).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on fidelity.
    pub fn merge_shards(shards: &[EngineStats], latency_sample: &[f64]) -> EngineStats {
        assert!(!shards.is_empty(), "need at least one shard");
        let fidelity = shards[0].fidelity;
        assert!(
            shards.iter().all(|s| s.fidelity == fidelity),
            "shards must run at one fidelity tier"
        );
        let mut merged = EngineStats {
            channels: 0,
            dies: 0,
            fidelity,
            ops: 0,
            reads: 0,
            writes: 0,
            reads_not_written: 0,
            writes_failed: 0,
            uncorrectable_reads: 0,
            recovered_reads: 0,
            recovery_steps: 0,
            recovery_reads: 0,
            uber: 0.0,
            corrected_bits: 0,
            background_us: 0.0,
            makespan_us: 0.0,
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            latency_mean_us: 0.0,
            data_digest: FNV_OFFSET,
            per_die: Vec::with_capacity(shards.iter().map(|s| s.per_die.len()).sum()),
        };
        for s in shards {
            let die_base = merged.dies;
            let channel_base = merged.channels;
            merged.channels += s.channels;
            merged.dies += s.dies;
            merged.ops += s.ops;
            merged.reads += s.reads;
            merged.writes += s.writes;
            merged.reads_not_written += s.reads_not_written;
            merged.writes_failed += s.writes_failed;
            merged.uncorrectable_reads += s.uncorrectable_reads;
            merged.recovered_reads += s.recovered_reads;
            merged.recovery_steps += s.recovery_steps;
            merged.recovery_reads += s.recovery_reads;
            merged.corrected_bits += s.corrected_bits;
            merged.background_us += s.background_us;
            merged.makespan_us = merged.makespan_us.max(s.makespan_us);
            for d in &s.per_die {
                merged.data_digest = fnv1a(merged.data_digest, &d.digest.to_le_bytes());
                let mut d = d.clone();
                d.die += die_base;
                d.channel += channel_base;
                merged.per_die.push(d);
            }
        }
        let totals = merged.totals();
        merged.uber = totals.uber();
        let (p50, p99) = percentiles_50_99(latency_sample);
        merged.latency_p50_us = p50;
        merged.latency_p99_us = p99;
        merged.latency_mean_us = if latency_sample.is_empty() {
            0.0
        } else {
            latency_sample.iter().sum::<f64>() / latency_sample.len() as f64
        };
        merged
    }
}

/// The `q`-quantile (0..=1) of a latency sample by nearest-rank on a sorted
/// copy. Returns 0 for an empty sample.
#[cfg(test)]
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Nearest-rank p50 and p99 of an (unsorted) latency sample — the same two
/// values a nearest-rank read off a copy sorted by [`f64::total_cmp`]
/// yields, bit for bit, without the sort. Returns zeros for an empty
/// sample; with `n == 1` or `n == 2` the two ranks coincide on the maximum,
/// so `p50 == p99`. Public because per-tenant accounting layers (rd-serve)
/// reduce their own latency samples with the exact same estimator.
///
/// A short sample is copied and selected in place. From 4096 values
/// (`COUNTING_MIN_LEN`) on nothing is copied: the sample is counted by the
/// leading bits of each value's `total_cmp` key (past the bits every value
/// shares), the bucket holding a rank is counted again one digit deeper
/// while it is large, and only a bucket under 1/32 of the sample is
/// gathered for the final selection. A replay window's millions of
/// latencies hold a few thousand distinct values, so a large bucket that
/// stops shrinking is one value repeated, and is recognized as such. Which
/// path runs is read from `sample.len()` alone.
pub fn percentiles_50_99(sample: &[f64]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let last = sample.len() - 1;
    let i50 = (last as f64 * 0.50).round() as usize;
    let i99 = (last as f64 * 0.99).round() as usize;
    if sample.len() < COUNTING_MIN_LEN {
        let mut scratch = sample.to_vec();
        let (lower, p99, _) = scratch.select_nth_unstable_by(i99, f64::total_cmp);
        let p99 = *p99;
        let p50 =
            if i50 == i99 { p99 } else { *lower.select_nth_unstable_by(i50, f64::total_cmp).1 };
        return (p50, p99);
    }
    let (all, any) = sample.iter().fold((u64::MAX, 0), |(all, any), &x| {
        let key = total_key(x);
        (all & key, any | key)
    });
    let shared = (all ^ any).leading_zeros();
    let mut keys = [all; 2];
    if shared < 64 {
        select_keys(sample, key_prefix(all, shared), shared, &mut [i50, i99], &mut keys);
    }
    (from_key(keys[0]), from_key(keys[1]))
}

/// Shortest sample [`percentiles_50_99`] counts instead of copying: below
/// it the copy is smaller than the count tables.
const COUNTING_MIN_LEN: usize = 4096;

/// Key bits one counting pass resolves (its tables live on the stack).
const DIGIT_BITS: u32 = 11;

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s order.
#[inline]
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The value [`total_key`] maps to `key`.
fn from_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ (1 << 63) } else { !key })
}

/// The leading `known` bits of `key`.
#[inline]
fn key_prefix(key: u64, known: u32) -> u64 {
    if known == 0 {
        0
    } else {
        key >> (64 - known)
    }
}

/// Among the samples whose key starts with the `known < 64` bits `prefix`,
/// finds the keys at sorted positions `ranks` (ascending, relative to that
/// subset) and writes them to the parallel `out`.
fn select_keys(sample: &[f64], prefix: u64, known: u32, ranks: &mut [usize], out: &mut [u64]) {
    let digit = DIGIT_BITS.min(64 - known);
    let shift = 64 - known - digit;
    let mask = (1usize << digit) - 1;
    // Branch-free, and two tables filled alternately: a latency sample is
    // mostly ties, and consecutive increments of one counter wait for each
    // other.
    let mut counts = [[0usize; 1 << DIGIT_BITS]; 2];
    let (mut all, mut any) = (u64::MAX, 0u64);
    let mut tally = |table: usize, x: f64| {
        let key = total_key(x);
        let hit = key_prefix(key, known) == prefix;
        counts[table][(key >> shift) as usize & mask] += usize::from(hit);
        let hit = u64::from(hit).wrapping_neg();
        all &= key | !hit;
        any |= key & hit;
    };
    let mut pairs = sample.chunks_exact(2);
    for pair in &mut pairs {
        tally(0, pair[0]);
        tally(1, pair[1]);
    }
    if let [x] = pairs.remainder() {
        tally(0, *x);
    }
    if all == any {
        // One value repeated: no digit would ever split it.
        out.fill(all);
        return;
    }
    let gather_max = sample.len() / 32;
    let (mut below, mut next) = (0usize, 0usize);
    let [even, odd] = &counts;
    for (d, count) in even.iter().zip(odd).map(|(a, b)| a + b).enumerate() {
        let first = next;
        while next < ranks.len() && ranks[next] < below + count {
            ranks[next] -= below;
            next += 1;
        }
        if next > first {
            let (prefix, known) = ((prefix << digit) | d as u64, known + digit);
            let (ranks, out) = (&mut ranks[first..next], &mut out[first..next]);
            if known == 64 {
                out.fill(prefix);
            } else if count <= gather_max {
                let mut keys = Vec::with_capacity(count);
                for &x in sample {
                    let key = total_key(x);
                    if key_prefix(key, known) == prefix {
                        keys.push(key);
                    }
                }
                for (rank, out) in ranks.iter().zip(out) {
                    *out = *keys.select_nth_unstable(*rank).1;
                }
            } else {
                select_keys(sample, prefix, known, ranks, out);
            }
        }
        below += count;
        if next == ranks.len() {
            break;
        }
    }
}

/// FNV-1a offset basis (the digest's initial state). Public so external
/// digest-parity harnesses can fold per-die digests the way
/// [`EngineStats::merge_shards`] does.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
///
/// Byte-serial, so it is kept off the per-read path: it folds the per-die
/// digests into [`EngineStats::data_digest`] ([`crate::Engine::data_digest`],
/// [`EngineStats::merge_shards`]), the `len % 8` tail of [`fold_page`], and
/// the fleet's slot and row digests; the benchmark hashes each workload's
/// statistics into its fingerprint with it.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Multiplier of [`fold_page`]'s word round: 2⁶⁴ over the golden ratio.
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds a decoded page into a die's payload digest eight bytes per round.
///
/// Each little-endian word `w` is xored into `hash`, the result multiplied
/// to 128 bits by an odd constant (2⁶⁴ over the golden ratio), and the two
/// halves xored into the new `hash`; the `len % 8` tail bytes go through
/// [`fnv1a`], so every byte reaches the digest. The high half is what
/// carries a flipped top bit into the low bits: a wrapping multiply by an
/// odd constant (FNV's prime, applied to whole words) never carries
/// downwards, so flips of bit 63 in two words would cancel.
pub fn fold_page(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8-byte words"));
        let p = u128::from(hash ^ w) * u128::from(FOLD_K);
        hash = (p as u64) ^ ((p >> 64) as u64);
    }
    fnv1a(hash, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iops_and_totals() {
        let mut s = EngineStats {
            channels: 1,
            dies: 2,
            fidelity: ReadFidelity::CellExact,
            ops: 1000,
            reads: 800,
            writes: 200,
            reads_not_written: 5,
            writes_failed: 0,
            uncorrectable_reads: 0,
            recovered_reads: 0,
            recovery_steps: 0,
            recovery_reads: 0,
            uber: 0.0,
            corrected_bits: 42,
            background_us: 0.0,
            makespan_us: 500_000.0,
            latency_p50_us: 75.0,
            latency_p99_us: 300.0,
            latency_mean_us: 90.0,
            data_digest: FNV_OFFSET,
            per_die: Vec::new(),
        };
        assert!((s.iops() - 2000.0).abs() < 1e-9);
        s.makespan_us = 0.0;
        assert_eq!(s.iops(), 0.0);
        let a = SsdStats { host_reads: 3, erases: 1, ..Default::default() };
        let b = SsdStats { host_reads: 4, corrected_bits: 9, ..Default::default() };
        s.per_die = vec![
            DieStats {
                die: 0,
                channel: 0,
                ops: 3,
                busy_us: 1.0,
                background_us: 0.0,
                hottest_block_reads: 0,
                digest: FNV_OFFSET,
                ssd: a,
            },
            DieStats {
                die: 1,
                channel: 0,
                ops: 4,
                busy_us: 2.0,
                background_us: 0.5,
                hottest_block_reads: 7,
                digest: FNV_OFFSET,
                ssd: b,
            },
        ];
        let t = s.totals();
        assert_eq!(t.host_reads, 7);
        assert_eq!(t.erases, 1);
        assert_eq!(t.corrected_bits, 9);
    }

    #[test]
    fn effective_ops_excludes_failed_ops() {
        let s = EngineStats {
            channels: 1,
            dies: 1,
            fidelity: ReadFidelity::CellExact,
            ops: 1000,
            reads: 800,
            writes: 200,
            reads_not_written: 150,
            writes_failed: 50,
            uncorrectable_reads: 0,
            recovered_reads: 0,
            recovery_steps: 0,
            recovery_reads: 0,
            uber: 0.0,
            corrected_bits: 0,
            background_us: 0.0,
            makespan_us: 1_000_000.0,
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            latency_mean_us: 0.0,
            data_digest: FNV_OFFSET,
            per_die: Vec::new(),
        };
        // Error-heavy run: raw iops counts every schedule slot, effective
        // ops only the 800 requests that moved data.
        assert_eq!(s.effective_ops(), 800);
        assert!((s.iops() - 1000.0).abs() < 1e-9);
        assert_eq!(EngineStats { makespan_us: 0.0, ..s }.iops(), 0.0);
    }

    fn shard_stats(fidelity: ReadFidelity, dies: u32, reads: u64, makespan: f64) -> EngineStats {
        let per_die = (0..dies)
            .map(|d| DieStats {
                die: d,
                channel: d,
                ops: reads / dies as u64,
                busy_us: 1.0,
                background_us: 0.0,
                hottest_block_reads: 0,
                digest: fnv1a(FNV_OFFSET, &[d as u8]),
                ssd: SsdStats { host_reads: reads / dies as u64, ..Default::default() },
            })
            .collect();
        EngineStats {
            channels: dies,
            dies,
            fidelity,
            ops: reads,
            reads,
            writes: 0,
            reads_not_written: 0,
            writes_failed: 0,
            uncorrectable_reads: 0,
            recovered_reads: 0,
            recovery_steps: 0,
            recovery_reads: 0,
            uber: 0.0,
            corrected_bits: 0,
            background_us: 0.0,
            makespan_us: makespan,
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            latency_mean_us: 0.0,
            data_digest: FNV_OFFSET,
            per_die,
        }
    }

    #[test]
    fn merge_shards_sums_renumbers_and_folds_digests() {
        let a = shard_stats(ReadFidelity::BlockAggregate, 2, 10, 5.0);
        let b = shard_stats(ReadFidelity::BlockAggregate, 2, 30, 7.0);
        let lat = [1.0, 2.0, 3.0, 4.0];
        let m = EngineStats::merge_shards(&[a.clone(), b.clone()], &lat);
        assert_eq!(m.dies, 4);
        assert_eq!(m.channels, 4);
        assert_eq!(m.ops, 40);
        assert_eq!(m.makespan_us, 7.0);
        assert_eq!(
            m.per_die.iter().map(|d| d.die).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "dies renumbered globally in shard order"
        );
        assert_eq!(m.per_die[2].channel, 2);
        // The digest folds the four per-die digests in global order —
        // exactly what a monolithic engine over the same dies computes.
        let mut expect = FNV_OFFSET;
        for d in a.per_die.iter().chain(b.per_die.iter()) {
            expect = fnv1a(expect, &d.digest.to_le_bytes());
        }
        assert_eq!(m.data_digest, expect);
        assert!((m.latency_mean_us - 2.5).abs() < 1e-12);
        assert_eq!(m.latency_p50_us, percentiles_50_99(&lat).0);
    }

    #[test]
    fn merge_shards_uber_guards_zero_host_reads() {
        // No host reads anywhere: UBER must be 0, not 0/0 = NaN.
        let a = shard_stats(ReadFidelity::CellExact, 1, 0, 1.0);
        let b = shard_stats(ReadFidelity::CellExact, 1, 0, 2.0);
        let m = EngineStats::merge_shards(&[a, b], &[]);
        assert_eq!(m.uber, 0.0);
        assert!(m.uber.is_finite());
        assert_eq!(m.latency_p50_us, 0.0);
        // And with losses present the ratio is recomputed from the merged
        // counters, not averaged per shard.
        let mut c = shard_stats(ReadFidelity::CellExact, 1, 1000, 1.0);
        c.uncorrectable_reads = 2;
        c.per_die[0].ssd.uncorrectable_reads = 2;
        let d = shard_stats(ReadFidelity::CellExact, 1, 1000, 1.0);
        let m = EngineStats::merge_shards(&[c, d], &[]);
        assert!((m.uber - 2.0 / 2000.0).abs() < 1e-15);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((percentile(&v, 0.5) - 51.0).abs() < 1.01);
        assert!(percentile(&v, 0.99) >= 98.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn selection_percentiles_match_sorted_nearest_rank() {
        // Deterministic pseudo-random sample (LCG), checked at several sizes
        // including the tiny ones where the two rank indices coincide.
        for n in [1usize, 2, 3, 7, 100, 1013] {
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let sample: Vec<f64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (x >> 11) as f64
                })
                .collect();
            let mut sorted = sample.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let (p50, p99) = percentiles_50_99(&sample);
            assert_eq!(p50, percentile(&sorted, 0.50), "n = {n}");
            assert_eq!(p99, percentile(&sorted, 0.99), "n = {n}");
        }
        assert_eq!(percentiles_50_99(&[]), (0.0, 0.0));
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a(FNV_OFFSET, &[1, 2, 3]);
        let b = fnv1a(FNV_OFFSET, &[3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(FNV_OFFSET, &[1, 2, 3]));
    }

    /// A 256-byte page of distinct, non-trivial bytes.
    fn page() -> Vec<u8> {
        (0..256u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect()
    }

    #[test]
    fn fold_page_separates_every_single_bit_flip() {
        let page = page();
        let clean = fold_page(FNV_OFFSET, &page);
        let mut digests: Vec<u64> = (0..page.len() * 8)
            .map(|bit| {
                let mut flipped = page.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                fold_page(FNV_OFFSET, &flipped)
            })
            .collect();
        assert!(digests.iter().all(|&d| d != clean), "a bit flip left the digest unchanged");
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 2048, "two single-bit flips collided");
    }

    #[test]
    fn fold_page_is_word_order_sensitive() {
        let page = page();
        let mut swapped = page.clone();
        swapped[8..16].copy_from_slice(&page[80..88]);
        swapped[80..88].copy_from_slice(&page[8..16]);
        assert_ne!(fold_page(FNV_OFFSET, &page), fold_page(FNV_OFFSET, &swapped));
    }

    #[test]
    fn fold_page_folds_the_tail_and_passes_empty_through() {
        let mut page = page();
        page.truncate(125);
        let digest = fold_page(FNV_OFFSET, &page);
        page[124] ^= 1;
        assert_ne!(digest, fold_page(FNV_OFFSET, &page), "the 5-byte tail was not folded");
        assert_eq!(fold_page(0x1234_5678_9abc_def0, &[]), 0x1234_5678_9abc_def0);
    }
}
