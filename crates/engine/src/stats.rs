//! Aggregate engine statistics: throughput, latency percentiles from a
//! bounded [`LatencyHistogram`], and the per-die reliability counters the
//! paper's SSD-scale evaluation tracks.

use rd_ftl::wire::{Reader, Writer};
use rd_ftl::{fnv1a, ReadFidelity, SnapError, SsdStats, FNV_OFFSET};

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
    /// order): on the payload tiers each decoded page's recorded
    /// `fold_page(FNV_OFFSET, payload)` through one [`rd_ftl::fold_word`]
    /// round, on the payload-free aggregate tier each read's corrected-error
    /// count in one xor-multiply round. Carried per die so sharded deployments
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
    /// Median end-to-end request latency (µs): the lower edge of its
    /// [`LatencyHistogram`] bucket, within 2⁻⁷ below the exact value.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end request latency (µs), bucketed as
    /// `latency_p50_us` is.
    pub latency_p99_us: f64,
    /// Mean end-to-end request latency (µs).
    pub latency_mean_us: f64,
    /// The per-die [`DieStats::digest`]s folded by [`fnv1a`] in die order — a
    /// bit-exact fingerprint of all data the engine served. At the
    /// `PageAnalytic` and `CellExact` tiers a die folds each decoded page's
    /// digest, `fold_page(FNV_OFFSET, payload)` recorded when the chip
    /// programmed the page, in one [`rd_ftl::fold_word`] round; at
    /// `BlockAggregate`, which carries no payload, each read's
    /// corrected-error count.
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
    /// * latency percentiles and mean come from `latency`, the merge of
    ///   every shard's (or tenant's) [`LatencyHistogram`]: a histogram
    ///   merges by adding counts, so the merged percentiles are the ones
    ///   one histogram over every request would report.
    ///
    /// UBER is recomputed from the merged counters and defined as 0 when no
    /// host reads were served (never a 0/0 NaN).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on fidelity.
    pub fn merge_shards(shards: &[EngineStats], latency: &LatencyHistogram) -> EngineStats {
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
        (merged.latency_p50_us, merged.latency_p99_us) = latency.p50_p99();
        merged.latency_mean_us = latency.mean();
        merged
    }
}

/// Mantissa bits a bucket keeps below the exponent: a bucket spans at most
/// 2⁻⁷ (0.8%) of its lower edge.
const MANTISSA_BITS: u32 = 7;
/// The bits of an `f64` below its bucket key.
const KEY_SHIFT: u32 = 52 - MANTISSA_BITS;
/// Bottom of the range, 2⁻¹⁶ µs: bucket 0 (edge 0) holds what is below it.
const MIN_US: f64 = 1.0 / 65_536.0;
const MIN_KEY: u64 = MIN_US.to_bits() >> KEY_SHIFT;
/// Bucket 0, then 2⁷ buckets per binade up to 2⁴⁷ µs (4.5 years; the last
/// bucket holds anything larger): 63 KiB of counters at most.
const BUCKETS: usize = 1 + (63 << MANTISSA_BITS);
/// Counters come in aligned blocks of this many buckets, so a histogram's
/// layout is the block hull of its buckets, whatever order it was filled in.
const BLOCK: usize = 1 << MANTISSA_BITS;

/// The bucket of `latency_us`: its exponent and top 7 mantissa bits.
#[inline]
fn bucket(latency_us: f64) -> usize {
    let key = latency_us.to_bits() >> KEY_SHIFT;
    if key < MIN_KEY || latency_us.is_sign_negative() {
        return 0;
    }
    (key - MIN_KEY + 1).min(BUCKETS as u64 - 1) as usize
}

/// The smallest latency bucket `b` holds.
fn lower_edge(b: usize) -> f64 {
    if b == 0 {
        return 0.0;
    }
    f64::from_bits((b as u64 - 1 + MIN_KEY) << KEY_SHIFT)
}

/// A bounded, mergeable record of request latencies (µs): log-linear
/// buckets keyed by the bits of each `f64` (HdrHistogram's layout) and the
/// exact sum, added in record order. Its counters cover whole blocks around
/// the buckets seen, so recording allocates only when a latency leaves that
/// range, and never past 64 KiB. [`Self::merge`] adds counts, so merged
/// shards or tenants report what one histogram over all of them would.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket of `counts[0]`.
    first: usize,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl LatencyHistogram {
    /// Counts one latency (µs).
    #[inline]
    pub fn record(&mut self, latency_us: f64) {
        let b = bucket(latency_us);
        if b.wrapping_sub(self.first) >= self.counts.len() {
            self.widen(b, b + 1);
        }
        self.counts[b - self.first] += 1;
        self.count += 1;
        self.sum += latency_us;
    }

    /// Adds `other`'s counts and sum to this histogram's.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            self.widen(other.first, other.first + other.counts.len());
            let mine = &mut self.counts[other.first - self.first..];
            mine.iter_mut().zip(&other.counts).for_each(|(mine, theirs)| *mine += theirs);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Latencies recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Their sum (µs).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Their mean (µs); 0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank p50 and p99 — ranks `round((n − 1) · q)` of the sorted
    /// latencies — each reported as its bucket's lower edge: at most the
    /// exact value, and more than it over 1 + 2⁻⁷. `(0, 0)` when empty. One
    /// scan of the counters, no allocation.
    pub fn p50_p99(&self) -> (f64, f64) {
        let last = self.count.saturating_sub(1) as f64;
        let ranks = [(last * 0.50).round() as u64, (last * 0.99).round() as u64];
        let (mut edges, mut below, mut next) = ([0.0; 2], 0, 0);
        for (i, &count) in self.counts.iter().enumerate() {
            below += count;
            while next < 2 && ranks[next] < below {
                edges[next] = lower_edge(self.first + i);
                next += 1;
            }
        }
        (edges[0], edges[1])
    }

    /// Writes the histogram into a checkpoint.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.first as u64);
        w.put_u64s(&self.counts);
        w.put_f64(self.sum);
    }

    /// Restores a histogram written by [`Self::encode_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the bytes end early, and
    /// [`SnapError::Mismatch`] if the counters leave the range.
    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let (first, counts, sum) = (r.get_u64()?, r.get_u64s()?, r.get_f64()?);
        let fits = BUCKETS.checked_sub(counts.len()).is_some_and(|room| first <= room as u64);
        match counts.iter().try_fold(0u64, |n, &c| n.checked_add(c)) {
            Some(count) if fits && first % BLOCK as u64 == 0 => {
                *self = LatencyHistogram { first: first as usize, counts, count, sum };
                Ok(())
            }
            _ => Err(SnapError::Mismatch("latency histogram out of range".into())),
        }
    }

    /// Grows the counters to cover buckets `lo..hi`, in whole blocks.
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        let (first, end) = (self.first, self.first + self.counts.len());
        let (lo, hi) = if self.counts.is_empty() { (lo, hi) } else { (lo.min(first), hi.max(end)) };
        let (lo, hi) = (lo / BLOCK * BLOCK, hi.next_multiple_of(BLOCK).min(BUCKETS));
        if (lo, hi) != (first, end) {
            let mut counts = vec![0; hi - lo];
            counts[first.saturating_sub(lo)..][..end - first].copy_from_slice(&self.counts);
            (self.first, self.counts) = (lo, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_ftl::fold_page;

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
        let mut lat = LatencyHistogram::default();
        for latency in [1.0, 2.0, 3.0, 4.0] {
            lat.record(latency);
        }
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
        assert_eq!((m.latency_p50_us, m.latency_p99_us), (3.0, 4.0));
    }

    #[test]
    fn merge_shards_uber_guards_zero_host_reads() {
        // No host reads anywhere: UBER must be 0, not 0/0 = NaN.
        let a = shard_stats(ReadFidelity::CellExact, 1, 0, 1.0);
        let b = shard_stats(ReadFidelity::CellExact, 1, 0, 2.0);
        let m = EngineStats::merge_shards(&[a, b], &LatencyHistogram::default());
        assert_eq!(m.uber, 0.0);
        assert!(m.uber.is_finite());
        assert_eq!(m.latency_p50_us, 0.0);
        // And with losses present the ratio is recomputed from the merged
        // counters, not averaged per shard.
        let mut c = shard_stats(ReadFidelity::CellExact, 1, 1000, 1.0);
        c.uncorrectable_reads = 2;
        c.per_die[0].ssd.uncorrectable_reads = 2;
        let d = shard_stats(ReadFidelity::CellExact, 1, 1000, 1.0);
        let m = EngineStats::merge_shards(&[c, d], &LatencyHistogram::default());
        assert!((m.uber - 2.0 / 2000.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_is_sized_to_the_occupied_range() {
        let mut h = LatencyHistogram::default();
        for latency in [52.0, 75.5, 99.9, 52.0] {
            h.record(latency);
        }
        // 52 to 100 µs straddle one binade edge: one or two blocks.
        assert!(h.counts.len() <= 2 * BLOCK, "{} counters", h.counts.len());
        let warm = h.counts.as_ptr();
        h.record(64.0);
        assert_eq!(h.counts.as_ptr(), warm, "a latency inside the range moved the counters");
        // Both ends of the range, past both ends, and the non-finite.
        for latency in [0.0, -1.0, MIN_US, 1e-30, 2f64.powi(47) * 0.999, 1e300, f64::INFINITY] {
            h.record(latency);
        }
        assert_eq!(h.counts.len(), BUCKETS);
        assert!(BUCKETS * std::mem::size_of::<u64>() <= 64 << 10);
        assert_eq!(h.counts[0], 3, "0, a negative and 1e-30 count below the range");
        assert_eq!(h.counts[BUCKETS - 1], 3, "the top bucket holds what is past the range");
        assert_eq!(lower_edge(bucket(MIN_US)), MIN_US);
        assert_eq!(h.count(), 12);
    }

    #[test]
    fn histogram_checkpoint_round_trips_and_rejects_out_of_range_counters() {
        let mut h = LatencyHistogram::default();
        for i in 0..1000 {
            h.record(40.0 + f64::from(i) * 3.7);
        }
        let mut w = Writer::new();
        h.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = LatencyHistogram::default();
        restored.restore_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored, h);
        assert_eq!(restored.sum().to_bits(), h.sum().to_bits());
        for (first, counts) in
            [(1u64, vec![1u64]), (BUCKETS as u64 - 1, vec![1, 1]), (0, vec![u64::MAX, 1])]
        {
            let mut w = Writer::new();
            w.put_u64(first);
            w.put_u64s(&counts);
            w.put_f64(0.0);
            let bytes = w.into_bytes();
            let err = LatencyHistogram::default().restore_state(&mut Reader::new(&bytes));
            assert!(matches!(err, Err(SnapError::Mismatch(_))), "first {first}: {err:?}");
        }
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
