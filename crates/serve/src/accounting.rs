//! Per-tenant service accounting layered over the engine's completions.
//!
//! The engine's [`rd_engine::EngineStats`] aggregates over the whole array;
//! a multi-tenant front-end additionally owes each tenant its own latency
//! percentiles and its own reliability number (UBER — uncorrectable bit
//! errors per bit read, the paper's headline metric). [`TenantAccounting`]
//! folds completions one at a time in the shard workers — from the engine's
//! 32-byte [`CompletionSummary`], which carries everything the fold reads
//! — then merges across shards at report time. Latencies go into a
//! [`LatencyHistogram`], so a tenant's accounting stays the same size
//! whether it has served one request or a billion.

use rd_engine::{
    CompletionSummary, IoCompletion, LatencyHistogram, Outcome, OutcomeClass, ReqKind,
};

/// One tenant's running totals on one shard: counters and a bounded
/// latency histogram, all of which merge across shards by adding.
#[derive(Debug, Clone, Default)]
pub struct TenantAccounting {
    /// Completions observed.
    pub ops: u64,
    /// Read completions (successful or not).
    pub reads: u64,
    /// Write completions.
    pub writes: u64,
    /// Reads of never-written pages (`FtlError::NotWritten`).
    pub reads_not_written: u64,
    /// Reads ECC could not correct (`FtlError::Uncorrectable`) — UBER's
    /// numerator counts these pages.
    pub uncorrectable_reads: u64,
    /// Writes the FTL rejected.
    pub writes_failed: u64,
    /// Bit errors ECC corrected across this tenant's reads.
    pub corrected_bits: u64,
    /// Device-time latency of every completion (µs), bucketed, with their
    /// exact sum.
    pub latency: LatencyHistogram,
}

impl TenantAccounting {
    /// Folds one completion into the totals.
    pub fn record(&mut self, completion: &IoCompletion) {
        self.fold(completion.outcome(), completion.latency_us());
    }

    /// Folds one summarized completion into the totals: what
    /// [`TenantAccounting::record`] makes of the same request's
    /// [`IoCompletion`], to the bit.
    pub(crate) fn record_summary(&mut self, summary: &CompletionSummary) {
        self.fold(summary.outcome, summary.latency_us());
    }

    fn fold(&mut self, outcome: Outcome, latency_us: f64) {
        self.ops += 1;
        self.corrected_bits += outcome.corrected_errors();
        match (outcome.kind(), outcome.class()) {
            (ReqKind::Read, class) => {
                self.reads += 1;
                match class {
                    OutcomeClass::Ok => {}
                    OutcomeClass::NotWritten => self.reads_not_written += 1,
                    OutcomeClass::Failed => self.uncorrectable_reads += 1,
                }
            }
            (ReqKind::Write, class) => {
                self.writes += 1;
                self.writes_failed += u64::from(class != OutcomeClass::Ok);
            }
        }
        self.latency.record(latency_us);
    }

    /// Merges another shard's totals for the same tenant into this one.
    pub(crate) fn merge(&mut self, other: &TenantAccounting) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.reads_not_written += other.reads_not_written;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.writes_failed += other.writes_failed;
        self.corrected_bits += other.corrected_bits;
        self.latency.merge(&other.latency);
    }

    /// Uncorrectable bit error rate over this tenant's reads. When ECC
    /// fails the whole page is lost, so bits-lost over bits-read reduces to
    /// uncorrectable page events per page read (page size cancels, matching
    /// `rd_ftl::SsdStats::uber`). Zero when the tenant has attempted no
    /// reads (guarded divide).
    pub(crate) fn uber(&self) -> f64 {
        let attempted = self.reads - self.reads_not_written;
        if attempted == 0 {
            return 0.0;
        }
        self.uncorrectable_reads as f64 / attempted as f64
    }

    /// Point-in-time summary: percentiles from one scan of the latency
    /// histogram's counters, the mean from its exact sum.
    pub(crate) fn summary(&self, name: &str) -> TenantSummary {
        let (p50, p99) = self.latency.p50_p99();
        TenantSummary {
            name: name.to_string(),
            ops: self.ops,
            reads: self.reads,
            writes: self.writes,
            reads_not_written: self.reads_not_written,
            uncorrectable_reads: self.uncorrectable_reads,
            writes_failed: self.writes_failed,
            mean_latency_us: self.latency.mean(),
            p50_latency_us: p50,
            p99_latency_us: p99,
            uber: self.uber(),
        }
    }
}

/// A tenant's externally reported numbers. The percentiles are
/// [`LatencyHistogram`] bucket edges: at most the exact nearest-rank value,
/// and within 2⁻⁷ (0.8%) of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant display name.
    pub name: String,
    /// Completions observed.
    pub ops: u64,
    /// Read completions.
    pub reads: u64,
    /// Write completions.
    pub writes: u64,
    /// Reads of never-written pages.
    pub reads_not_written: u64,
    /// Reads ECC could not correct.
    pub uncorrectable_reads: u64,
    /// Writes the FTL rejected.
    pub writes_failed: u64,
    /// Mean device-time latency (µs).
    pub mean_latency_us: f64,
    /// Median device-time latency (µs), a bucket's lower edge.
    pub p50_latency_us: f64,
    /// 99th-percentile device-time latency (µs), a bucket's lower edge.
    pub p99_latency_us: f64,
    /// Uncorrectable bit error rate over reads.
    pub uber: f64,
}

impl TenantSummary {
    /// One flat JSON object (for snapshot files and bench rows).
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"tenant\":\"{}\",\"ops\":{},\"reads\":{},\"writes\":{},",
                "\"reads_not_written\":{},\"uncorrectable_reads\":{},",
                "\"writes_failed\":{},\"mean_latency_us\":{:.3},",
                "\"p50_latency_us\":{:.3},\"p99_latency_us\":{:.3},\"uber\":{:e}}}"
            ),
            self.name,
            self.ops,
            self.reads,
            self.writes,
            self.reads_not_written,
            self.uncorrectable_reads,
            self.writes_failed,
            self.mean_latency_us,
            self.p50_latency_us,
            self.p99_latency_us,
            self.uber,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_ftl::FtlError;

    fn not_written() -> FtlError {
        FtlError::NotWritten { lpa: 0 }
    }

    fn uncorrectable() -> FtlError {
        FtlError::Uncorrectable { lpa: 0, errors: 99, capability: 40 }
    }

    fn completion(kind: ReqKind, result: Result<(), FtlError>, latency: u64) -> IoCompletion {
        IoCompletion {
            id: 0,
            kind,
            lpa: 0,
            die: 0,
            submit_us: 0.0,
            start_us: 0.0,
            complete_us: latency as f64,
            corrected_errors: 2,
            result,
            data: None,
        }
    }

    #[test]
    fn record_classifies_outcomes() {
        let mut acct = TenantAccounting::default();
        acct.record(&completion(ReqKind::Read, Ok(()), 50));
        acct.record(&completion(ReqKind::Read, Err(not_written()), 10));
        acct.record(&completion(ReqKind::Read, Err(uncorrectable()), 90));
        acct.record(&completion(ReqKind::Write, Ok(()), 200));
        assert_eq!(acct.ops, 4);
        assert_eq!((acct.reads, acct.writes), (3, 1));
        assert_eq!(acct.reads_not_written, 1);
        assert_eq!(acct.uncorrectable_reads, 1);
        assert_eq!(acct.writes_failed, 0);
        assert_eq!(acct.corrected_bits, 8);
        assert_eq!((acct.latency.count(), acct.latency.sum()), (4, 350.0));
        assert_eq!(acct.latency.p50_p99(), (90.0, 200.0));
        // 1 uncorrectable page out of 2 attempted reads.
        assert!((acct.uber() - 0.5).abs() < 1e-12);
    }

    /// The shard workers fold summaries; `record` folds full completions.
    /// From identical engines over the same batches — unwritten reads,
    /// rejected writes, corrected reads — every tenant's accounting comes
    /// out equal, the order-sensitive latency sum behind the mean included.
    #[test]
    fn summaries_fold_to_what_completions_fold_to() {
        use rd_engine::{Engine, EngineConfig, ReadFidelity};
        const TENANTS: usize = 3;
        let accounts = |summarized: bool| {
            let config = EngineConfig::small_test().with_fidelity(ReadFidelity::PageAnalytic);
            let mut engine = Engine::new(config).unwrap();
            let logical = engine.logical_pages();
            let mut accounts = vec![TenantAccounting::default(); TENANTS];
            let mut summaries = Vec::new();
            let mut completions = Vec::new();
            for batch in 0..6u64 {
                for i in 0..200u64 {
                    let draw = (batch * 200 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
                    let kind = if draw % 3 == 0 { ReqKind::Write } else { ReqKind::Read };
                    // One address in sixteen is past the end; the rest
                    // share 96 pages, so reads find written ones.
                    let lpa = if draw % 16 == 0 { logical + draw % 5 } else { draw / 16 % 96 };
                    engine.submit(kind, lpa);
                }
                if summarized {
                    engine.run_summarized(2);
                } else {
                    engine.run(2);
                }
                let first_id = batch * 200;
                engine.swap_summaries(&mut summaries);
                for summary in &summaries {
                    accounts[summary.slot as usize % TENANTS].record_summary(summary);
                }
                completions.clear();
                engine.drain_completions_into(&mut completions);
                for completion in &completions {
                    accounts[(completion.id - first_id) as usize % TENANTS].record(completion);
                }
            }
            accounts
        };
        let (full, lean) = (accounts(false), accounts(true));
        for (tenant, (full, lean)) in full.iter().zip(&lean).enumerate() {
            assert!(full.reads_not_written > 0 && full.writes_failed > 0);
            assert!(full.reads > 2 * full.reads_not_written && full.uncorrectable_reads > 0);
            assert_eq!(full.latency, lean.latency, "tenant {tenant}: latencies differ");
            assert_eq!(full.latency.sum().to_bits(), lean.latency.sum().to_bits());
            let (full, lean) = (full.summary("t"), lean.summary("t"));
            assert_eq!(full, lean, "tenant {tenant}");
            assert_eq!(full.mean_latency_us.to_bits(), lean.mean_latency_us.to_bits());
        }
    }

    /// As above, over a window in which garbage collection relocates pages,
    /// so that latencies carry background time: the array is filled, then
    /// overwritten several times over, and every tenant's accounting —
    /// its latency sum to the bit — is the same from summaries, which are
    /// posted in timing order, as from completions, posted in completion
    /// order.
    #[test]
    fn summaries_fold_to_what_completions_fold_to_under_gc() {
        use rd_engine::{Engine, EngineConfig, ReadFidelity};
        const TENANTS: usize = 3;
        let accounts = |summarized: bool| {
            let config = EngineConfig::small_test().with_fidelity(ReadFidelity::PageAnalytic);
            let mut engine = Engine::new(config).unwrap();
            let logical = engine.logical_pages();
            let mut accounts = vec![TenantAccounting::default(); TENANTS];
            let mut summaries = Vec::new();
            let mut completions = Vec::new();
            for batch in 0..8u64 {
                for i in 0..logical {
                    let draw = (batch * logical + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
                    let kind = if draw.is_multiple_of(4) { ReqKind::Read } else { ReqKind::Write };
                    engine.submit(kind, if batch == 0 { i } else { draw % logical });
                }
                if summarized {
                    engine.run_summarized(2);
                } else {
                    engine.run(2);
                }
                engine.swap_summaries(&mut summaries);
                for summary in &summaries {
                    accounts[summary.slot as usize % TENANTS].record_summary(summary);
                }
                completions.clear();
                engine.drain_completions_into(&mut completions);
                for completion in &completions {
                    let slot = completion.id - batch * logical;
                    accounts[slot as usize % TENANTS].record(completion);
                }
            }
            let gc_writes: u64 = engine.stats().per_die.iter().map(|d| d.ssd.gc_writes).sum();
            (accounts, gc_writes)
        };
        let ((full, gc_writes), (lean, _)) = (accounts(false), accounts(true));
        assert!(gc_writes > 0, "the window relocated no page");
        for (tenant, (full, lean)) in full.iter().zip(&lean).enumerate() {
            assert_eq!(full.latency, lean.latency, "tenant {tenant}: latencies differ");
            assert_eq!(full.latency.sum().to_bits(), lean.latency.sum().to_bits());
            assert_eq!(full.summary("t"), lean.summary("t"), "tenant {tenant}");
        }
    }

    #[test]
    fn uber_guards_zero_reads() {
        let mut acct = TenantAccounting::default();
        assert_eq!(acct.uber(), 0.0);
        // A tenant whose only reads hit unwritten pages attempted nothing.
        acct.record(&completion(ReqKind::Read, Err(not_written()), 5));
        assert_eq!(acct.uber(), 0.0);
    }

    #[test]
    fn merge_concatenates_and_summary_reports_percentiles() {
        let mut a = TenantAccounting::default();
        let mut b = TenantAccounting::default();
        for i in 0..50 {
            a.record(&completion(ReqKind::Read, Ok(()), i + 1));
            b.record(&completion(ReqKind::Write, Ok(()), i + 51));
        }
        a.merge(&b);
        assert_eq!(a.ops, 100);
        assert_eq!(a.latency.count(), 100);
        let s = a.summary("t0");
        assert_eq!(s.name, "t0");
        assert!((s.p50_latency_us - 50.0).abs() <= 1.0, "p50 {}", s.p50_latency_us);
        assert!((s.p99_latency_us - 99.0).abs() <= 1.0, "p99 {}", s.p99_latency_us);
        assert!((s.mean_latency_us - 50.5).abs() < 1e-9);
        let json = s.to_json();
        assert!(json.starts_with("{\"tenant\":\"t0\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
    }
}
