//! The sharded service: one engine + worker thread per channel group.
//!
//! [`Service`] owns `shards` worker threads, each wrapping its own
//! [`rd_engine::Engine`] over a disjoint channel group (see
//! [`crate::ShardPlan`]). The front-end routes each incoming op to its
//! shard, accumulates per-shard batches, and ships them over an mpsc
//! channel. An admission window (`max_inflight_batches`) keeps the
//! open-loop generator from growing queues without bound, and settled
//! batch buffers recycle back to the front-end, so the steady-state hot
//! loop allocates nothing.
//!
//! **The shard count is the parallelism.** A shard worker serves each
//! batch start to finish on its own thread — submit, every die's flash
//! phase, the timing pass, the tenant fold — so serving runs one thread
//! per shard beside the front-end, and a shard owns whole channels, the
//! controller's unit of parallelism.
//!
//! **What a shard worker consumes.** Of each completion: its latency, its
//! outcome (kind, ok / not-written / failed, corrected errors) and which op
//! of the batch it answers — that op's tenant is whom it is accounted to.
//! So batches run with [`Engine::run_summarized`] and settle as 32-byte
//! [`CompletionSummary`]s in timing order, taken in a buffer the worker
//! swaps with the engine's; no [`rd_engine::IoCompletion`] is built on this
//! path. Under the default
//! timing every latency is a whole number of µs, so each tenant's latency
//! sum is exact in that order as in any other.
//!
//! **Digest parity.** Workers process batches FIFO and each shard engine
//! sees exactly the ops the monolithic engine's matching dies would see, in
//! the same order, with the same per-die RNG streams. The merged data
//! digest ([`rd_engine::EngineStats::merge_shards`]) is therefore
//! bit-identical to a single-engine batch replay of the same op sequence at
//! every shard count. `tests/integration_serve.rs` and the benchmark's
//! `serve-mixed` workload gate on this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rd_engine::wire::{self, Reader, Writer};
use rd_engine::{
    CompletionSummary, Engine, EngineConfig, EngineStageNs, EngineStats, LatencyHistogram, ReqKind,
    SnapError,
};
use rd_ftl::FtlError;

use crate::accounting::{TenantAccounting, TenantSummary};
use crate::shard::ShardPlan;
use crate::tenant::{ServiceOp, TenantConfig, Traffic};

/// Service deployment parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Whole-array engine configuration (`die_index_offset` must be 0; the
    /// plan derives per-shard configs from it).
    pub engine: EngineConfig,
    /// Number of shards (must divide the channel count).
    pub shards: u32,
    /// Ops gathered per shard batch before it ships to the worker.
    pub batch_ops: usize,
    /// Admission window: max batches in flight per shard before
    /// `submit` backpressures the generator.
    pub max_inflight_batches: u64,
    /// Ignored: each shard runs its dies on its own worker thread, so
    /// `shards` is the service's parallelism. Kept for callers that still
    /// set it.
    pub pool_threads: usize,
}

impl ServeConfig {
    /// A small deterministic deployment for tests: 2 shards over the
    /// engine's 2×2 `small_test` array.
    pub fn small_test() -> Self {
        Self {
            engine: EngineConfig::small_test(),
            shards: 2,
            batch_ops: 64,
            max_inflight_batches: 4,
            pool_threads: 0,
        }
    }
}

/// Container magic of a service checkpoint (see [`rd_ftl::wire`]).
pub(crate) const SERVICE_SNAP_MAGIC: &[u8; 8] = b"RDSRVSNP";
/// Current service checkpoint format version.
pub(crate) const SERVICE_SNAP_VERSION: u32 = 1;
/// Section tag: shard count + one engine container per shard.
const SEC_SHARDS: u32 = 1;

/// One routed op inside a shard batch.
#[derive(Debug, Clone, Copy)]
struct ShardOp {
    kind: ReqKind,
    /// Shard-local logical page (already routed).
    lpa: u64,
    tenant: u16,
}

enum ShardMsg {
    Batch(Vec<ShardOp>),
    /// Snapshot request; the worker sends its report over the channel.
    Report(Sender<ShardReport>),
    /// Checkpoint request; the worker serializes its engine.
    Snapshot(Sender<Result<Vec<u8>, SnapError>>),
    /// Restore request; the worker rebuilds its engine from the bytes.
    Restore(Vec<u8>, Sender<Result<(), SnapError>>),
    Shutdown,
    /// Panics the worker thread, as a panicking die would.
    #[cfg(test)]
    Panic,
}

/// One shard's contribution to a service report.
struct ShardReport {
    stats: EngineStats,
    tenants: Vec<TenantAccounting>,
    stage: EngineStageNs,
    accounting_ns: u64,
}

struct ShardWorker {
    sender: Sender<ShardMsg>,
    handle: Option<JoinHandle<()>>,
    /// Batch under construction for this shard.
    pending: Vec<ShardOp>,
    /// Batches shipped so far.
    submitted: u64,
    /// Batches the worker finished (shared with the worker thread).
    completed: Arc<AtomicU64>,
    /// Settled batch buffers coming back from the worker for reuse.
    recycle: Receiver<Vec<ShardOp>>,
}

impl ShardWorker {
    /// Panics, naming the shard, if the worker thread has exited. Until
    /// the service drops, a worker exits only by panicking, and then its
    /// `completed` never advances again: a wait on it asks this each round.
    fn assert_alive(&self) {
        let handle = self.handle.as_ref().expect("a shard worker is joined only on drop");
        if handle.is_finished() {
            self.exited();
        }
    }

    /// The result of a send to, or a receive from, the worker thread: an
    /// error means the thread has exited, and this panics naming it.
    fn alive<T, E>(&self, result: Result<T, E>) -> T {
        result.unwrap_or_else(|_| self.exited())
    }

    /// Sends the worker the request `msg` builds around a reply channel,
    /// and waits for the reply.
    fn ask<T>(&self, msg: impl FnOnce(Sender<T>) -> ShardMsg) -> T {
        let (reply, receiver) = mpsc::channel();
        self.alive(self.sender.send(msg(reply)));
        self.alive(receiver.recv())
    }

    fn exited(&self) -> ! {
        let handle = self.handle.as_ref().expect("a shard worker is joined only on drop");
        panic!(
            "shard worker alive: {} has exited",
            handle.thread().name().unwrap_or("a shard worker")
        );
    }
}

/// A shard worker thread's state: its engine and what serving a batch
/// touches.
struct ShardState {
    engine: Engine,
    accounting: Vec<TenantAccounting>,
    /// The settled batch's summaries, swapped with the engine's buffer.
    scratch: Vec<CompletionSummary>,
    accounting_ns: u64,
    recycle: Sender<Vec<ShardOp>>,
    completed: Arc<AtomicU64>,
}

impl ShardState {
    /// Serves one batch start to finish on this thread: submits it, runs
    /// every die's flash phase inline and then the timing pass, asking for
    /// summaries (the worker reads a completion's latency, outcome and
    /// batch slot, nothing else), folds each summary into its op's tenant,
    /// recycles the buffer and bumps the completion count the admission
    /// window watches.
    fn serve(&mut self, mut ops: Vec<ShardOp>) {
        for op in &ops {
            self.engine.submit(op.kind, op.lpa);
        }
        self.engine.run_summarized(1);
        let started = Instant::now();
        self.engine.swap_summaries(&mut self.scratch);
        for summary in &self.scratch {
            let tenant = usize::from(ops[summary.slot as usize].tenant);
            self.accounting[tenant].record_summary(summary);
        }
        self.accounting_ns += started.elapsed().as_nanos() as u64;
        ops.clear();
        // The front-end may be mid-shutdown and not listening; drop it then.
        let _ = self.recycle.send(ops);
        self.completed.fetch_add(1, Ordering::Release);
    }
}

fn shard_worker_loop(mut shard: ShardState, inbox: Receiver<ShardMsg>) {
    while let Ok(msg) = inbox.recv() {
        match msg {
            ShardMsg::Batch(batch) => shard.serve(batch),
            ShardMsg::Report(reply) => {
                let report = ShardReport {
                    stats: shard.engine.stats(),
                    tenants: shard.accounting.clone(),
                    stage: shard.engine.stage_ns(),
                    accounting_ns: shard.accounting_ns,
                };
                // The service side may have dropped the reply receiver on
                // a racing shutdown; nothing to do then.
                let _ = reply.send(report);
            }
            ShardMsg::Snapshot(reply) => {
                let _ = reply.send(shard.engine.snapshot());
            }
            ShardMsg::Restore(bytes, reply) => {
                let _ = reply.send(shard.engine.restore(&bytes));
            }
            ShardMsg::Shutdown => return,
            #[cfg(test)]
            ShardMsg::Panic => panic!("shard worker told to panic"),
        }
    }
}

/// The running sharded front-end.
pub struct Service {
    plan: ShardPlan,
    config: ServeConfig,
    tenants: Vec<TenantConfig>,
    workers: Vec<ShardWorker>,
    /// Host ops accepted so far.
    ops_submitted: u64,
}

impl Service {
    /// Builds the shard engines (on the calling thread, so flash init cost
    /// is paid before traffic starts) and spawns one worker per shard.
    ///
    /// # Errors
    ///
    /// [`FtlError::InvalidConfig`] naming the field, before any thread is
    /// spawned: no tenants or one `TenantConfig::validate` rejects, a zero
    /// `batch_ops` or `max_inflight_batches`, or a bad engine topology, shard
    /// split or `die_index_offset`. Engine construction failures propagate.
    pub fn start(config: ServeConfig, tenants: Vec<TenantConfig>) -> Result<Self, FtlError> {
        Self::check(&config, &tenants).map_err(FtlError::InvalidConfig)?;
        let plan = ShardPlan::new(config.engine.topology, config.shards);
        let mut workers = Vec::with_capacity(config.shards as usize);
        for shard in 0..config.shards {
            let engine = Engine::new(plan.shard_config(&config.engine, shard))?;
            let (sender, inbox) = mpsc::channel();
            let (recycle_tx, recycle_rx) = mpsc::channel();
            let completed = Arc::new(AtomicU64::new(0));
            let state = ShardState {
                engine,
                accounting: vec![TenantAccounting::default(); tenants.len()],
                scratch: Vec::new(),
                accounting_ns: 0,
                recycle: recycle_tx,
                completed: Arc::clone(&completed),
            };
            let handle = std::thread::Builder::new()
                .name(format!("rd-shard-{shard}"))
                .spawn(move || shard_worker_loop(state, inbox))
                .expect("spawn shard worker");
            workers.push(ShardWorker {
                sender,
                handle: Some(handle),
                pending: Vec::with_capacity(config.batch_ops),
                submitted: 0,
                completed,
                recycle: recycle_rx,
            });
        }
        Ok(Self { plan, config, tenants, workers, ops_submitted: 0 })
    }

    /// What [`Self::start`] rejects, as a message naming the field.
    pub(crate) fn check(config: &ServeConfig, tenants: &[TenantConfig]) -> Result<(), String> {
        if tenants.is_empty() {
            return Err("tenants: need at least one tenant".into());
        }
        for (i, tenant) in tenants.iter().enumerate() {
            tenant.validate().map_err(|e| format!("tenants[{i}]: {e}"))?;
        }
        if config.batch_ops == 0 {
            return Err("batch_ops must be positive".into());
        }
        if config.max_inflight_batches == 0 {
            return Err("max_inflight_batches must be positive".into());
        }
        let topology = config.engine.topology;
        topology.check().map_err(|e| format!("engine.topology: {e}"))?;
        if config.shards == 0 || !topology.channels.is_multiple_of(config.shards) {
            return Err(format!(
                "shards ({}) must divide the channel count ({})",
                config.shards, topology.channels
            ));
        }
        if config.engine.die_index_offset != 0 {
            return Err("engine.die_index_offset must be 0: it is the whole array's".into());
        }
        Ok(())
    }

    /// The shard plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Builds the deterministic multi-tenant arrival stream for this
    /// deployment: the configured tenants over the array's full logical
    /// address space, block-aligned to the die geometry. The same
    /// `(tenants, seed)` always yields the same op sequence — replaying it
    /// through a monolithic engine must reproduce this service's digest.
    pub fn traffic(&self, seed: u64) -> Traffic {
        Traffic::new(
            &self.tenants,
            seed,
            self.config.engine.logical_pages(),
            self.config.engine.die.geometry.pages_per_block(),
        )
    }

    /// Tenant configurations, in tenant-index order.
    pub fn tenants(&self) -> &[TenantConfig] {
        &self.tenants
    }

    /// Host ops accepted so far.
    pub fn ops_submitted(&self) -> u64 {
        self.ops_submitted
    }

    /// Routes one op to its shard, shipping the shard's batch when full.
    /// Blocks (spin-yield) while the shard's admission window is closed —
    /// open-loop arrivals beyond the device's throughput become queueing
    /// delay here instead of unbounded memory.
    pub fn submit(&mut self, op: ServiceOp) {
        let (shard, shard_lpa) = self.plan.route(op.lpa);
        let worker = &mut self.workers[shard as usize];
        worker.pending.push(ShardOp { kind: op.kind, lpa: shard_lpa, tenant: op.tenant });
        self.ops_submitted += 1;
        if worker.pending.len() >= self.config.batch_ops {
            Self::ship(worker, self.config.max_inflight_batches, self.config.batch_ops);
        }
    }

    fn ship(worker: &mut ShardWorker, window: u64, batch_ops: usize) {
        while worker.submitted - worker.completed.load(Ordering::Acquire) >= window {
            worker.assert_alive();
            std::thread::yield_now();
        }
        // Reuse a settled batch's buffer when one has cycled back; the
        // steady-state hot loop then ships without allocating.
        let mut replacement = worker.recycle.try_recv().unwrap_or_default();
        replacement.reserve(batch_ops);
        let batch = std::mem::replace(&mut worker.pending, replacement);
        worker.alive(worker.sender.send(ShardMsg::Batch(batch)));
        worker.submitted += 1;
    }

    /// Ships every partially-filled batch and waits until all shards have
    /// drained their queues.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a shard worker has died (it panicked),
    /// instead of waiting for it forever; [`Self::submit`] does the same
    /// while its admission window is closed.
    pub fn flush(&mut self) {
        for worker in &mut self.workers {
            if !worker.pending.is_empty() {
                Self::ship(worker, self.config.max_inflight_batches, self.config.batch_ops);
            }
        }
        for worker in &self.workers {
            while worker.completed.load(Ordering::Acquire) < worker.submitted {
                worker.assert_alive();
                std::thread::yield_now();
            }
        }
    }

    /// Pulls `total_ops` arrivals from `traffic`, serves them, flushes, and
    /// reports. The returned wall-clock seconds cover submit-to-drain.
    pub fn run_traffic(&mut self, traffic: &mut Traffic, total_ops: u64) -> ServiceReport {
        let started = Instant::now();
        for _ in 0..total_ops {
            let op = traffic.next().expect("traffic is infinite");
            self.submit(op);
        }
        self.flush();
        let wall_s = started.elapsed().as_secs_f64();
        self.report(wall_s)
    }

    /// Collects per-shard stats and tenant accounting and merges them into
    /// one array-wide report. `wall_s` is the measured serving wall time
    /// (pass 0.0 for a pure state snapshot).
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a shard worker has died.
    pub fn report(&mut self, wall_s: f64) -> ServiceReport {
        self.flush();
        let mut shard_stats = Vec::with_capacity(self.workers.len());
        let mut tenant_accounting: Vec<TenantAccounting> =
            vec![TenantAccounting::default(); self.tenants.len()];
        let mut stage = ServiceStageNs::default();
        for worker in &self.workers {
            let shard = worker.ask(ShardMsg::Report);
            for (merged, part) in tenant_accounting.iter_mut().zip(&shard.tenants) {
                merged.merge(part);
            }
            stage.flash_ns += shard.stage.flash_ns;
            stage.timing_ns += shard.stage.timing_ns;
            stage.accounting_ns += shard.accounting_ns;
            shard_stats.push(shard.stats);
        }
        let mut latency = LatencyHistogram::default();
        for acct in &tenant_accounting {
            latency.merge(&acct.latency);
        }
        let stats = EngineStats::merge_shards(&shard_stats, &latency);
        let tenants: Vec<TenantSummary> = self
            .tenants
            .iter()
            .zip(&tenant_accounting)
            .map(|(config, acct)| acct.summary(&config.name))
            .collect();
        ServiceReport { stats, tenants, wall_s, shards: self.workers.len() as u32, stage }
    }

    /// Serializes every shard engine into one versioned, CRC-guarded
    /// container (magic `RDSRVSNP`, built on [`rd_engine::wire`]). The
    /// flash state round-trips bit-exactly: a service restored from these
    /// bytes serves subsequent traffic with the same data digest as one
    /// that never checkpointed.
    ///
    /// Tenant accounting (per-tenant op counts and latency histograms) is
    /// reporting state, not simulation state, and is **not** captured — a
    /// restored service starts its accounting from zero.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a shard worker has died.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, SnapError> {
        self.flush();
        let mut shards = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            shards.push(worker.ask(ShardMsg::Snapshot)?);
        }
        let mut payload = Writer::new();
        payload.section(SEC_SHARDS, |w| {
            w.put_u32(shards.len() as u32);
            for shard in &shards {
                w.put_bytes(shard);
            }
        });
        Ok(wire::seal(SERVICE_SNAP_MAGIC, SERVICE_SNAP_VERSION, &payload.into_bytes()))
    }

    /// Restores every shard engine from a [`Service::checkpoint`]
    /// container. The running service must have the same deployment shape
    /// (shard count, topology, fidelity, seeds) as the one that wrote the
    /// checkpoint — each shard engine validates its config fingerprint and
    /// returns [`SnapError::Mismatch`] otherwise.
    ///
    /// The container is fully decoded and CRC-checked before any shard is
    /// touched, but a per-shard fingerprint mismatch surfaces only as that
    /// shard restores — on error, earlier shards keep the restored state
    /// and the service should be rebuilt before further use.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a shard worker has died.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.flush();
        let payload = wire::open(bytes, SERVICE_SNAP_MAGIC, SERVICE_SNAP_VERSION)?;
        let mut r = Reader::new(payload);
        let mut sec = r.section(SEC_SHARDS)?;
        let n = sec.get_u32()?;
        if n as usize != self.workers.len() {
            return Err(SnapError::Mismatch(format!(
                "checkpoint has {n} shards but the service runs {}",
                self.workers.len()
            )));
        }
        let mut blobs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            blobs.push(sec.get_bytes()?);
        }
        if !sec.is_empty() {
            return Err(SnapError::Mismatch("trailing bytes in shard section".into()));
        }
        if !r.is_empty() {
            return Err(SnapError::Mismatch("trailing bytes after shard section".into()));
        }
        for (worker, blob) in self.workers.iter().zip(blobs) {
            worker.ask(|reply| ShardMsg::Restore(blob, reply))?;
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // The worker may already be gone if it panicked; ignore.
            let _ = worker.sender.send(ShardMsg::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Wall-clock stage totals summed across every shard worker since service
/// start: where serving time went. Diagnostic only — the counters are not
/// part of any determinism comparison and reset with the service.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStageNs {
    /// Always 0: a shard runs its dies on its own thread and waits on no
    /// pool. Kept for callers that still read it.
    pub pool_wait_ns: u64,
    /// Flash execution, ns (summed over dies and shards, so it exceeds wall
    /// time whenever shards overlap).
    pub flash_ns: u64,
    /// Serial discrete-event timing phase, ns.
    pub timing_ns: u64,
    /// Summary swap + tenant-accounting fold, ns.
    pub accounting_ns: u64,
}

/// Array-wide view of a service run: merged engine stats plus per-tenant
/// summaries.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Merged engine statistics (digest, counters, simulated-time IOPS).
    pub stats: EngineStats,
    /// Per-tenant summaries, in tenant-index order.
    pub tenants: Vec<TenantSummary>,
    /// Wall-clock seconds of the measured serving window (0 for pure
    /// snapshots).
    pub wall_s: f64,
    /// Shards that served the run.
    pub shards: u32,
    /// Per-stage wall-clock totals across shard workers (diagnostic).
    pub stage: ServiceStageNs,
}

impl ServiceReport {
    /// Aggregate host throughput against the wall clock (ops/s); 0 when no
    /// window was measured.
    pub fn wall_ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.stats.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Multi-line JSON snapshot: one header object, then one object per
    /// tenant (the snapshot-file format `rd-serve snapshot` writes).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"kind\":\"service\",\"shards\":{},\"ops\":{},",
                "\"effective_ops\":{},\"wall_s\":{:.3},\"wall_ops_per_s\":{:.0},",
                "\"data_digest\":\"{:016x}\",\"uber\":{:e},",
                "\"p50_latency_us\":{:.3},\"p99_latency_us\":{:.3}}}\n"
            ),
            self.shards,
            self.stats.ops,
            self.stats.effective_ops(),
            self.wall_s,
            self.wall_ops_per_s(),
            self.stats.data_digest,
            self.stats.uber,
            self.stats.latency_p50_us,
            self.stats.latency_p99_us,
        );
        for tenant in &self.tenants {
            out.push_str(&tenant.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Vec<TenantConfig> {
        vec![
            TenantConfig::new("web", "umass-web", 4000.0),
            TenantConfig::new("mail", "postmark", 2000.0),
        ]
    }

    #[test]
    fn start_rejects_a_bad_deployment_naming_the_field() {
        let ok = ServeConfig::small_test;
        let engine = |topology, die_index_offset| ServeConfig {
            engine: EngineConfig { topology, die_index_offset, ..EngineConfig::small_test() },
            ..ok()
        };
        let mut bad_tenant = tenants();
        bad_tenant[1].ops_per_s = 0.0;
        let zero_channels = rd_engine::Topology { channels: 0, dies_per_channel: 2 };
        let cases = [
            ("tenants", ok(), Vec::new()),
            ("tenants[1]: ops_per_s", ok(), bad_tenant),
            ("batch_ops", ServeConfig { batch_ops: 0, ..ok() }, tenants()),
            ("max_inflight_batches", ServeConfig { max_inflight_batches: 0, ..ok() }, tenants()),
            ("engine.topology", engine(zero_channels, 0), tenants()),
            ("shards (0)", ServeConfig { shards: 0, ..ok() }, tenants()),
            ("shards (3)", ServeConfig { shards: 3, ..ok() }, tenants()),
            ("engine.die_index_offset", engine(ok().engine.topology, 2), tenants()),
        ];
        for (field, config, tenants) in cases {
            match Service::start(config, tenants) {
                Err(FtlError::InvalidConfig(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field}: expected InvalidConfig, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn service_runs_traffic_and_accounts_every_op() {
        let config = ServeConfig::small_test();
        let mut service = Service::start(config, tenants()).unwrap();
        let mut traffic = service.traffic(42);
        let report = service.run_traffic(&mut traffic, 3000);
        assert_eq!(report.stats.ops, 3000);
        let tenant_ops: u64 = report.tenants.iter().map(|t| t.ops).sum();
        assert_eq!(tenant_ops, 3000, "every completion must land in a tenant bucket");
        assert_eq!(report.shards, 2);
        assert!(report.wall_s > 0.0 && report.wall_ops_per_s() > 0.0);
        assert!(report.tenants.iter().all(|t| t.p99_latency_us >= t.p50_latency_us));
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"service\""), "{json}");
        assert_eq!(json.lines().count(), 1 + report.tenants.len());
    }

    #[test]
    fn service_is_deterministic_across_runs() {
        let run = || {
            let mut service = Service::start(ServeConfig::small_test(), tenants()).unwrap();
            let mut t = service.traffic(7);
            let report = service.run_traffic(&mut t, 2000);
            (report.stats.data_digest, report.stats.ops, report.stats.reads)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Serve a prefix, checkpoint, serve a suffix; a second service
        // restored from the checkpoint must reproduce the suffix digest.
        let mut service = Service::start(ServeConfig::small_test(), tenants()).unwrap();
        let mut traffic = service.traffic(11);
        service.run_traffic(&mut traffic, 1500);
        let snap = service.checkpoint().unwrap();
        assert_eq!(&snap[..8], SERVICE_SNAP_MAGIC);
        let suffix: Vec<crate::tenant::ServiceOp> = (&mut traffic).take(1500).collect();
        for op in &suffix {
            service.submit(*op);
        }
        service.flush();
        let reference = service.report(0.0);

        let mut restored = Service::start(ServeConfig::small_test(), tenants()).unwrap();
        restored.restore(&snap).unwrap();
        for op in &suffix {
            restored.submit(*op);
        }
        restored.flush();
        let resumed = restored.report(0.0);
        assert_eq!(resumed.stats.data_digest, reference.stats.data_digest);
        assert_eq!(resumed.stats.uncorrectable_reads, reference.stats.uncorrectable_reads);
        // Accounting is not captured: only the suffix is attributed.
        assert_eq!(resumed.tenants.iter().map(|t| t.ops).sum::<u64>(), 1500);
    }

    #[test]
    fn restore_rejects_wrong_shape_and_corruption() {
        let mut service = Service::start(ServeConfig::small_test(), tenants()).unwrap();
        let mut traffic = service.traffic(5);
        service.run_traffic(&mut traffic, 500);
        let snap = service.checkpoint().unwrap();

        let mut corrupt = snap.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert_eq!(service.restore(&corrupt).err(), Some(SnapError::BadCrc));

        let mut other_shape = ServeConfig::small_test();
        other_shape.shards = 1;
        let mut single = Service::start(other_shape, tenants()).unwrap();
        assert!(matches!(single.restore(&snap).err(), Some(SnapError::Mismatch(_))));
    }

    /// Runs `f` on a helper thread and returns its panic message; fails if
    /// `f` returns, or neither returns nor panics within 30 s (it hangs).
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let message = outcome
                .err()
                .map(|payload| payload.downcast::<String>().map_or_else(|_| String::new(), |m| *m));
            let _ = done.send(message);
        });
        result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("hung on a dead shard worker instead of panicking")
            .expect("returned instead of panicking")
    }

    /// A service whose shard 1 died with `batches` shipped to it and never
    /// completed, as a die panicking mid-batch leaves it.
    fn with_dead_shard(batches: u64) -> Service {
        let mut service = Service::start(ServeConfig::small_test(), tenants()).unwrap();
        let worker = &mut service.workers[1];
        worker.sender.send(ShardMsg::Panic).unwrap();
        while !worker.handle.as_ref().unwrap().is_finished() {
            std::thread::yield_now();
        }
        worker.submitted += batches;
        service
    }

    #[test]
    fn dead_shard_worker_panics_flush_and_submit_instead_of_hanging() {
        let flush = panic_message(|| with_dead_shard(1).flush());
        assert!(flush.contains("shard worker alive: rd-shard-1 has exited"), "{flush}");
        let submit = panic_message(|| {
            let mut service = with_dead_shard(ServeConfig::small_test().max_inflight_batches);
            // Shard 1's window is closed: its first full batch waits.
            for lpa in 0.. {
                if service.plan.route(lpa).0 == 1 {
                    service.submit(ServiceOp { time_s: 0.0, tenant: 0, kind: ReqKind::Read, lpa });
                }
            }
        });
        assert!(submit.contains("shard worker alive: rd-shard-1 has exited"), "{submit}");
        // A shard that died idle, with nothing shipped to it, fails the
        // requests it is sent instead.
        let died_idle = |call: &str, f: fn(&mut Service)| {
            let message = panic_message(move || f(&mut with_dead_shard(0)));
            let named = message.contains("shard worker alive: rd-shard-1 has exited");
            assert!(named, "{call}: {message}");
        };
        died_idle("report", |service| drop(service.report(0.0)));
        died_idle("checkpoint", |service| drop(service.checkpoint()));
        died_idle("restore", |service| {
            let mut healthy = Service::start(ServeConfig::small_test(), tenants()).unwrap();
            drop(service.restore(&healthy.checkpoint().unwrap()));
        });
    }

    #[test]
    fn report_is_repeatable_when_idle() {
        let mut service = Service::start(ServeConfig::small_test(), tenants()).unwrap();
        let mut t = service.traffic(3);
        service.run_traffic(&mut t, 1000);
        let a = service.report(0.0);
        let b = service.report(0.0);
        assert_eq!(a.stats.data_digest, b.stats.data_digest);
        assert_eq!(a.stats.ops, b.stats.ops);
        assert_eq!(a.tenants, b.tenants);
    }
}
