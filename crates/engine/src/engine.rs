//! The engine proper: request scheduling over an array of dies, a
//! discrete-event clock with die-level command timing, and parallel trace
//! replay.
//!
//! # Execution model
//!
//! [`Engine::submit`] stripes each request over the dies (page-level
//! round-robin, as [`Topology::stripe`]) and appends it to its die's queue.
//! A call to [`Engine::run`] processes everything submitted since the last
//! batch as one batch, in two deterministic phases, and returns when both
//! are done:
//!
//! 1. **Flash phase (parallel over dies).** Each die executes its queue in
//!    arrival order against its own [`Die`] (chip + FTL + mitigation
//!    policy). Dies share no state, so lanes never contend and the result
//!    is bit-identical for any thread count.
//! 2. **Timing phase (serial, channel by channel).** A discrete-event pass
//!    assigns simulated timestamps: per-die queue-depth pacing (a die
//!    admits at most `queue_depth` outstanding requests), die busy
//!    intervals from the [`Timing`] constants plus reconstructed background
//!    work (GC/refresh/reclaim relocations, erases), and per-channel
//!    transfer slots that serialize dies sharing a bus.
//!
//! The unit of the timing phase is the **channel**: a request starts at
//! `ready.max(chan_free)` — its die's clock and its channel's — so two
//! channels share no clock. Channels are timed strictly in index order,
//! whatever order their dies finish in, and the batch's submission time is
//! read once, before the first; what the channels do share — the latency
//! histogram, whose running sum behind the mean is added in timing order,
//! and the makespan — sees exactly what a serial pass would, so statistics,
//! completions and checkpoint bytes do not depend on the thread count.
//!
//! Completions are posted ordered by simulated completion time, and
//! [`Engine::stats`] aggregates throughput, latency percentiles, and
//! per-die reliability counters. Trace replay
//! ([`Engine::replay_stats_only`]) is the same path: fold each op's lpa
//! into the logical space and queue it, then run one batch that posts
//! nothing.
//!
//! # Lanes
//!
//! A batch starts and ends inside the call that launched it: the engine
//! owns no thread and no lock. One lane runs inline. With `threads > 1`
//! there are that many lanes, die `d` on lane `d % lanes` in ascending
//! order: lane 0 is the calling thread, the others [`std::thread::scope`]
//! threads that send their dies back over one channel (spawning every lane
//! made a 4096-request fill batch a third slower on a 2-core x86_64 box).
//! The calling thread folds each die as it arrives — into the die's own
//! slots and integer totals, so arrival order changes no bit — and times
//! the lowest untimed channel as soon as all its dies are in, running its
//! own next die only when no channel is ready. A die that panics on a lane
//! is caught there; the caller waits for every lane to end, puts the dies
//! back and panics in turn, naming the die.
//!
//! # Bytes per request
//!
//! A bulk replay is bound by the memory it touches for the first time, not
//! by the instructions in its loops (a fresh 4 KiB page costs ~2.4 µs on
//! the box the benchmark runs on), so the per-request records are kept to
//! one word each, in arenas the engine keeps across batches:
//!
//! | stage | stats-only (`replay_stats_only`) | summarized (`run_summarized`) | full (`run`) |
//! |---|---|---|---|
//! | queued | 24 → **8** (`WorkItem`: address + kind in one slot) | **12** (the slot + a `u32` id offset) | 24 → **12** |
//! | executed | 16 → **0** (`ExecTiming` overwrites the slot it answers) | **8** (an `Outcome` word: kind, class, corrected errors) | 16 + 80 → 8 + **72** (the word + `ExecRich`: address, start time, error, data) |
//! | completed | 8 → **0** (a latency sample; now one counter of a [`LatencyHistogram`] sized to the range) | **32** (`CompletionSummary`) | 32 + 112 (the summary, then the `IoCompletion` assembled from it) |
//! | reported | 8 → **0** (`stats()` copied, then selected in, the sample; now it scans the histogram's counters) | same | same |
//!
//! A front-end that only accounts — an rd-serve shard worker reads a
//! completion's latency, its outcome and which request of the batch it was
//! — asks for the summarized level: the timing pass writes the same
//! 32-byte record for both emitting levels, and posts a summarized batch's
//! records in the order it wrote them; only a full batch sorts them into
//! completion order and goes on to assemble [`IoCompletion`]s from them.
//! Every record of the table lives in a per-die arena that a batch takes for
//! its flash phase and gives back answered, or in one the engine keeps, so
//! a warm batch allocates nothing per request.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

use rd_ftl::wire::{self, Reader, Writer};
use rd_ftl::{
    fnv1a, fold_word, ControllerPolicy, Die, FtlError, NoMitigation, ReadFidelity, SnapError,
    SsdConfig, FNV_OFFSET,
};
use rd_workloads::{OpKind, TraceOp};

use crate::queue::{CompletionSummary, IoCompletion, Outcome, ReqKind};
use crate::stats::{DieStats, EngineStats, LatencyHistogram};
use crate::timing::Timing;
use crate::topology::Topology;

/// Configuration of the SSD-array engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Channel/die organization.
    pub topology: Topology,
    /// Per-die configuration (geometry, over-provisioning, ECC line).
    /// `die.seed` is the base seed; each die derives its own stream from it
    /// via [`EngineConfig::die_seed`].
    pub die: SsdConfig,
    /// Die-level command latencies.
    pub timing: Timing,
    /// Outstanding requests a single die admits before the next one queues
    /// (NVMe-style per-die pacing; shapes the latency distribution).
    pub queue_depth: u32,
    /// Capture decoded page data in read completions (parity tests). The
    /// data digest is maintained regardless.
    pub capture_read_data: bool,
    /// Global index of this engine's die 0 when the engine is one shard of
    /// a larger array (rd-serve shards a big topology into one engine per
    /// channel group). Die seeds derive from `die_index_offset + die`, so a
    /// sharded deployment reproduces the monolithic engine's per-die RNG
    /// streams — and therefore its data digest — exactly. 0 for a
    /// standalone engine.
    pub die_index_offset: u32,
}

impl EngineConfig {
    /// A small 2-channel × 2-die configuration for tests and examples.
    pub fn small_test() -> Self {
        Self {
            topology: Topology { channels: 2, dies_per_channel: 2 },
            die: SsdConfig::small_test(),
            timing: Timing::default(),
            queue_depth: 8,
            capture_read_data: false,
            die_index_offset: 0,
        }
    }

    /// Logical pages exported by the whole array (dies × per-die capacity).
    pub fn logical_pages(&self) -> u64 {
        self.topology.dies() as u64 * self.die.logical_pages()
    }

    /// The read-path fidelity tier every die is built at (carried by the
    /// per-die [`SsdConfig`]).
    pub fn fidelity(&self) -> ReadFidelity {
        self.die.fidelity()
    }

    /// Returns the configuration with every die built at `fidelity` —
    /// [`ReadFidelity::PageAnalytic`] swaps the per-cell Monte-Carlo read
    /// path for the sampled closed-form model (the bulk-replay tier).
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: ReadFidelity) -> Self {
        self.die = self.die.with_fidelity(fidelity);
        self
    }

    /// The seed of a die's private RNG streams, derived from the base seed
    /// and the die's **global** index (`die_index_offset + die`) so die 0
    /// of an unsharded engine reproduces a single-chip [`rd_ftl::Die`]
    /// exactly, the other dies get decorrelated streams, and a shard's dies
    /// match the monolithic engine's dies at the same global positions.
    pub fn die_seed(&self, die: u32) -> u64 {
        let global = u64::from(self.die_index_offset) + u64::from(die);
        self.die.seed ^ global.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Checks the configuration: topology, timing, per-die config and queue
    /// depth. This is the gate for configurations that arrive from outside
    /// the program (command-line flags, decoded checkpoints).
    ///
    /// # Errors
    ///
    /// Names the first impossible value.
    pub fn check(&self) -> Result<(), String> {
        self.topology.check()?;
        self.timing.check()?;
        self.die.check()?;
        if self.queue_depth == 0 {
            return Err("queue depth must be at least 1".into());
        }
        Ok(())
    }

    /// [`EngineConfig::check`] for configurations the program built itself.
    ///
    /// # Panics
    ///
    /// Panics with the error `check` returns.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Container magic of an engine checkpoint (see [`rd_ftl::wire`]).
pub const ENGINE_SNAP_MAGIC: &[u8; 8] = b"RDENGSNP";

/// Snapshot section tags (engine container).
const SEC_CONFIG: u32 = 1;
const SEC_CLOCK: u32 = 2;
const SEC_ACCOUNTING: u32 = 3;
const SEC_DIES: u32 = 4;

/// A request routed to its die (flash-phase work unit), packed into one
/// word: the die-local page address above the kind bit. Neither the
/// original lpa nor the command id is carried: striping is a bijection, so
/// emit paths reconstruct the lpa as `die_lpa * dies + die`, and ids are
/// completion-record data that ride in [`DieQueue::ids`].
#[derive(Debug, Clone, Copy)]
struct WorkItem(u64);

impl WorkItem {
    /// Address field of a request whose die-local address does not fit it;
    /// the address itself is the next entry of [`DieQueue::wide`]. Only a
    /// single-die array can produce one (with two dies or more the
    /// quotient of a `u64` is below 2⁶³), and no die has that many pages,
    /// so such a request always completes with `LpaOutOfRange`.
    const WIDE: u64 = u64::MAX >> 1;

    fn new(kind: ReqKind, die_lpa: u64) -> Self {
        Self(die_lpa.min(Self::WIDE) << 1 | u64::from(kind == ReqKind::Write))
    }

    fn kind(self) -> ReqKind {
        if self.0 & 1 == 0 {
            ReqKind::Read
        } else {
            ReqKind::Write
        }
    }

    fn addr(self) -> u64 {
        self.0 >> 1
    }
}

/// Hot flash-phase record: the 8 bytes per request the discrete-event
/// timing pass actually touches (background die time is folded into
/// `service_us` and accumulated per die in [`DieExec`]). Everything a
/// completion record needs beyond this lives in [`ExecRich`], which bulk
/// (stats-only) replay never materializes.
#[derive(Debug, Clone, Copy)]
struct ExecTiming {
    service_us: f64,
}

impl ExecTiming {
    fn to_slot(self) -> u64 {
        self.service_us.to_bits()
    }

    fn from_slot(slot: u64) -> Self {
        Self { service_us: f64::from_bits(slot) }
    }
}

/// One die's queue. `slots` holds one word per request in arrival order: a
/// packed [`WorkItem`] from `submit` until the die executes it, the bits of
/// its [`ExecTiming`] from then until the timing pass has read it — the
/// answer overwrites the question in place, so a request costs 8 bytes of
/// arena from submission to posting. What the flash phase records beyond
/// that (`outcomes`, `rich`) rides here too, so the whole per-die record of
/// a batch is one set of arenas the engine gets back.
#[derive(Debug, Clone, Default)]
struct DieQueue {
    slots: Vec<u64>,
    /// Command ids as offsets from the batch's first id, parallel to
    /// `slots` on a batch that emits completions. A stats-only replay
    /// leaves it short: nothing reads an id there.
    ids: Vec<u32>,
    /// Die-local addresses too wide for a slot, in arrival order (see
    /// [`WorkItem::WIDE`]).
    wide: Vec<u64>,
    /// What each request came to, parallel to `slots` on a batch that
    /// emits ([`Emit::Summary`] and [`Emit::Full`]).
    outcomes: Vec<Outcome>,
    /// The rest of an [`IoCompletion`], parallel to `slots` on an
    /// [`Emit::Full`] batch only.
    rich: Vec<ExecRich>,
}

impl DieQueue {
    fn clear(&mut self) {
        self.slots.clear();
        self.ids.clear();
        self.wide.clear();
        self.outcomes.clear();
        self.rich.clear();
    }
}

/// Most requests one batch may hold ahead of a request submitted with an
/// id (ids travel as `u32` offsets from the batch's first). Unit tests
/// build with a small limit so the guard is reachable.
const MAX_ID_OFFSET: usize = if cfg!(test) { 4095 } else { u32::MAX as usize };

/// How much of each request a batch reports once it is timed. The levels
/// differ in what the flash phase keeps per request; the timing pass writes
/// one [`CompletionSummary`] per request for both emitting levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// Statistics only (bulk replay): nothing kept per request.
    None,
    /// One [`CompletionSummary`] per request: the flash phase keeps an
    /// [`Outcome`] word.
    Summary,
    /// One [`IoCompletion`] per request: the flash phase also keeps an
    /// [`ExecRich`].
    Full,
}

/// Cold flash-phase record, built only for full completions: what an
/// [`IoCompletion`] holds that neither its [`CompletionSummary`] nor the
/// batch's first id gives.
#[derive(Debug, Clone)]
struct ExecRich {
    lpa: u64,
    /// Filled in by the timing pass.
    start_us: f64,
    result: Result<(), FtlError>,
    data: Option<Vec<u8>>,
}

/// What every die's flash phase of one batch shares.
#[derive(Debug, Clone, Copy)]
struct ExecContext {
    timing: Timing,
    capture: bool,
    emit: Emit,
    dies: u64,
}

/// Flash-phase output of one die: its queue with every slot answered (and,
/// on an emitting batch, its outcomes recorded) and the batch's per-die
/// totals, which [`Engine::fold`] adds to the accounting where the die
/// arrives.
#[derive(Debug)]
struct DieExec {
    queue: DieQueue,
    digest: u64,
    /// Total background die time across the batch (per-op deltas summed in
    /// execution order, so the accumulated float is reproducible).
    background_us: f64,
    /// Total service time across the batch (same reproducible order).
    busy_us: f64,
    /// Op-kind tallies, so the dispatch loop carries no counter updates.
    reads: u64,
    writes: u64,
    reads_not_written: u64,
    writes_failed: u64,
    /// Wall-clock nanoseconds spent executing this die's work list
    /// (measured on its lane; summed into the flash stage counter).
    wall_ns: u64,
}

/// What [`Engine::time_channel`] keeps per die of the channel it is timing:
/// the next slot to dispatch and the cached `(ready, submit)` pair.
#[derive(Debug, Clone, Copy)]
struct DieCursor {
    next: usize,
    ready: f64,
    submit: f64,
}

/// Wall-clock time spent in each stage of the engine's batch loop,
/// cumulative since construction. Diagnostic only: the counters are kept
/// out of [`EngineStats`] (which determinism gates compare bit-for-bit)
/// and out of checkpoints.
///
/// `pool_wait_ns` is the calling thread's time blocked waiting for lane
/// results (0 for a batch run inline; the name predates the lanes);
/// `flash_ns` is flash-phase execution time summed over dies (it can exceed
/// wall time when lanes overlap); `timing_ns` is the rest of the calling
/// thread's time in a batch past an inline flash phase — the serial
/// discrete-event pass and, with lanes, their launch — less its waits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStageNs {
    /// The calling thread's wait for lane results, ns.
    pub pool_wait_ns: u64,
    /// Flash-phase execution, ns (summed over dies).
    pub flash_ns: u64,
    /// Serial timing phase, ns.
    pub timing_ns: u64,
}

/// Fixed-capacity ring of the last `queue_depth` completion times
/// (oldest-first): the flat layout keeps the dispatch loop's
/// queue-depth window allocation-free.
#[derive(Debug, Clone)]
struct Window {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Self { buf: vec![0.0; capacity], start: 0, len: 0 }
    }

    /// Oldest completion time, only once the window is full.
    #[inline]
    fn front_if_full(&self) -> Option<f64> {
        (self.len == self.buf.len()).then(|| self.buf[self.start])
    }

    /// Serializes the ring verbatim (checkpointing support): the buffer
    /// contents beyond `len` are never read back, but bit-exact resume is
    /// simplest with the whole allocation written as-is.
    fn encode_state(&self, w: &mut Writer) {
        w.put_f64s(&self.buf);
        w.put_u64(self.start as u64);
        w.put_u64(self.len as u64);
    }

    /// Restores a ring serialized by [`Self::encode_state`]; capacity must
    /// match (it is the configured queue depth).
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let buf = r.get_f64s()?;
        if buf.len() != self.buf.len() {
            return Err(SnapError::Mismatch(format!(
                "window capacity {} != {}",
                buf.len(),
                self.buf.len()
            )));
        }
        let start = r.get_u64()? as usize;
        let len = r.get_u64()? as usize;
        if start >= buf.len() || len > buf.len() {
            return Err(SnapError::Mismatch("window cursor out of range".into()));
        }
        self.buf = buf;
        self.start = start;
        self.len = len;
        Ok(())
    }

    /// Appends a completion time, evicting the oldest when full.
    #[inline]
    fn push(&mut self, v: f64) {
        let cap = self.buf.len();
        if self.len == cap {
            self.buf[self.start] = v;
            self.start += 1;
            if self.start == cap {
                self.start = 0;
            }
        } else {
            let mut i = self.start + self.len;
            if i >= cap {
                i -= cap;
            }
            self.buf[i] = v;
            self.len += 1;
        }
    }
}

/// The multi-channel/multi-die SSD engine.
#[derive(Debug)]
pub struct Engine<P: ControllerPolicy = NoMitigation> {
    config: EngineConfig,
    dies: Vec<Die<P>>,
    /// Reciprocal of the die count: `submit` stripes every request with it.
    die_div: FastDiv,
    /// Requests submitted and not yet run (they sit in `work`).
    pending: usize,
    /// Posted completions, ordered by simulated completion time.
    cq: Vec<IoCompletion>,
    /// One record per request of an emitting batch, written by the timing
    /// pass channel by channel, each in dispatch order. A full batch's
    /// records are sorted into completion order when the pass ends and
    /// assembled into `cq`; a summarized batch's stay, posted as written,
    /// until [`Engine::swap_summaries`] takes them.
    timed: Vec<CompletionSummary>,
    next_id: u64,
    /// Per-die queues `submit` appends to, reused across batches (arena:
    /// cleared, never reallocated once the loop reaches steady state). A
    /// batch takes a die's queue for its flash phase and puts it back
    /// answered, where the timing pass reads it.
    work: Vec<DieQueue>,
    /// Sizes of the batches [`Engine::begin_batch`] ran that
    /// [`Engine::finish_batch`] has not returned yet, oldest first.
    unfinished: VecDeque<usize>,
    /// Timing-pass scratch: one cursor per die of a channel.
    cursors: Vec<DieCursor>,
    /// Completion-assembly scratch: the next `rich` entry of each die.
    rich_next: Vec<usize>,
    /// Cumulative per-stage wall-clock counters (diagnostic only).
    stage_ns: EngineStageNs,
    // Discrete-event clock state (persists across batches).
    die_free_us: Vec<f64>,
    chan_free_us: Vec<f64>,
    inflight: Vec<Window>,
    sim_end_us: f64,
    // Cumulative accounting.
    die_ops: Vec<u64>,
    die_busy_us: Vec<f64>,
    die_background_us: Vec<f64>,
    die_digest: Vec<u64>,
    reads: u64,
    writes: u64,
    reads_not_written: u64,
    writes_failed: u64,
    /// Every request's latency, bucketed, with their sum added in the
    /// order the timing pass produces them.
    latency: LatencyHistogram,
}

impl Engine<NoMitigation> {
    /// Creates an engine with the baseline (no-mitigation) policy on every
    /// die.
    ///
    /// # Errors
    ///
    /// As [`Engine::with_policy`].
    pub fn new(config: EngineConfig) -> Result<Self, FtlError> {
        Self::with_policy(config, NoMitigation)
    }
}

impl<P: ControllerPolicy + Clone> Engine<P> {
    /// Creates an engine running one clone of `policy` per die — the same
    /// [`ControllerPolicy`] implementations a single-chip [`rd_ftl::Die`]
    /// accepts plug in unchanged, with per-die state.
    ///
    /// # Errors
    ///
    /// [`FtlError::InvalidConfig`] with [`EngineConfig::check`]'s message.
    pub fn with_policy(config: EngineConfig, policy: P) -> Result<Self, FtlError> {
        config.check().map_err(FtlError::InvalidConfig)?;
        let nd = config.topology.dies() as usize;
        let nc = config.topology.channels as usize;
        let qd = config.queue_depth as usize;
        let mut dies = Vec::with_capacity(nd);
        for d in 0..nd {
            let mut die_cfg = config.die.clone();
            die_cfg.seed = config.die_seed(d as u32);
            dies.push(Die::with_policy(die_cfg, policy.clone())?);
        }
        Ok(Self {
            config,
            dies,
            die_div: FastDiv::new(nd as u64),
            pending: 0,
            cq: Vec::new(),
            timed: Vec::new(),
            next_id: 0,
            work: vec![DieQueue::default(); nd],
            unfinished: VecDeque::new(),
            cursors: Vec::new(),
            rich_next: vec![0; nd],
            stage_ns: EngineStageNs::default(),
            die_free_us: vec![0.0; nd],
            chan_free_us: vec![0.0; nc],
            inflight: vec![Window::new(qd); nd],
            sim_end_us: 0.0,
            die_ops: vec![0; nd],
            die_busy_us: vec![0.0; nd],
            die_background_us: vec![0.0; nd],
            die_digest: vec![FNV_OFFSET; nd],
            reads: 0,
            writes: 0,
            reads_not_written: 0,
            writes_failed: 0,
            latency: LatencyHistogram::default(),
        })
    }
}

impl<P: ControllerPolicy> Engine<P> {
    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Logical pages exported by the array.
    pub fn logical_pages(&self) -> u64 {
        self.config.logical_pages()
    }

    /// Read-only access to a die (tests and experiments).
    pub fn die(&self, die: u32) -> &Die<P> {
        &self.dies[die as usize]
    }

    /// Mutable access to a die (experiments may pre-wear chips or inject
    /// disturbs before a replay).
    pub fn die_mut(&mut self, die: u32) -> &mut Die<P> {
        &mut self.dies[die as usize]
    }

    /// Cumulative wall-clock stage counters (see [`EngineStageNs`]).
    pub fn stage_ns(&self) -> EngineStageNs {
        self.stage_ns
    }

    /// Stripes a request onto its die's work list (page-level round-robin,
    /// as [`Topology::stripe`]); returns its command id. The request runs
    /// with the next batch.
    ///
    /// # Panics
    ///
    /// Panics once 2³² requests are pending: run a batch first.
    pub fn submit(&mut self, kind: ReqKind, lpa: u64) -> u64 {
        self.enqueue(kind, lpa, true)
    }

    /// [`Engine::submit`]; `with_id: false` skips recording the id, for a
    /// batch that will post no completions.
    #[inline]
    fn enqueue(&mut self, kind: ReqKind, lpa: u64, with_id: bool) -> u64 {
        // Checked before anything is queued, so a refused request leaves
        // the batch as it was.
        assert!(
            !with_id || self.pending <= MAX_ID_OFFSET,
            "{} requests pending: run a batch before submitting more",
            self.pending
        );
        let id = self.next_id;
        self.next_id += 1;
        let (die_lpa, die) = self.die_div.div_rem(lpa);
        let queue = &mut self.work[die as usize];
        queue.slots.push(WorkItem::new(kind, die_lpa).0);
        if die_lpa >= WorkItem::WIDE {
            queue.wide.push(die_lpa);
        }
        if with_id {
            // The batch's first id is `pending` submissions back.
            queue.ids.push(self.pending as u32);
        }
        self.pending += 1;
        id
    }

    /// Enqueues a read of an engine-level logical page.
    pub fn submit_read(&mut self, lpa: u64) -> u64 {
        self.submit(ReqKind::Read, lpa)
    }

    /// Enqueues a write of an engine-level logical page.
    pub fn submit_write(&mut self, lpa: u64) -> u64 {
        self.submit(ReqKind::Write, lpa)
    }

    /// Requests submitted and not yet run.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Appends every unconsumed completion to `out`, oldest first: a
    /// front-end that drains batch after batch reuses one buffer.
    pub fn drain_completions_into(&mut self, out: &mut Vec<IoCompletion>) {
        out.append(&mut self.cq);
    }

    /// Takes every unconsumed summary of the summarized batches finished so
    /// far by swap: `out` is cleared and becomes the engine's next buffer,
    /// so a front-end that swaps batch after batch allocates nothing.
    /// Batches come oldest first, each in timing order
    /// ([`Engine::run_summarized`]).
    pub fn swap_summaries(&mut self, out: &mut Vec<CompletionSummary>) {
        out.clear();
        std::mem::swap(&mut self.timed, out);
    }

    /// Advances every die's wall clock, running their daily maintenance
    /// (refresh scans, policy daily hooks).
    ///
    /// # Errors
    ///
    /// Propagates relocation failures.
    pub fn advance_time(&mut self, days: f64) -> Result<(), FtlError> {
        for die in &mut self.dies {
            die.advance_time(days)?;
        }
        Ok(())
    }

    /// Builds the aggregate statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let mut per_die = Vec::with_capacity(self.dies.len());
        let mut totals = rd_ftl::SsdStats::default();
        for (d, die) in self.dies.iter().enumerate() {
            let ssd = die.stats();
            totals += ssd;
            let blocks = die.config().geometry.blocks;
            let hottest = (0..blocks)
                .map(|b| die.chip().block_status(b).map(|s| s.reads_since_erase).unwrap_or(0))
                .max()
                .unwrap_or(0);
            per_die.push(DieStats {
                die: d as u32,
                channel: self.config.topology.channel_of(d as u32),
                ops: self.die_ops[d],
                busy_us: self.die_busy_us[d],
                background_us: self.die_background_us[d],
                hottest_block_reads: hottest,
                digest: self.die_digest[d],
                ssd,
            });
        }
        // The timing pass runs channels in index order, so the latency sum
        // behind the mean is added in a thread-count-independent order.
        let (p50, p99) = self.latency.p50_p99();
        EngineStats {
            channels: self.config.topology.channels,
            dies: self.config.topology.dies(),
            fidelity: self.config.fidelity(),
            ops: self.reads + self.writes,
            reads: self.reads,
            writes: self.writes,
            reads_not_written: self.reads_not_written,
            writes_failed: self.writes_failed,
            uncorrectable_reads: totals.uncorrectable_reads,
            recovered_reads: totals.recovered_reads,
            recovery_steps: totals.recovery_steps,
            recovery_reads: totals.recovery_reads,
            uber: totals.uber(),
            corrected_bits: totals.corrected_bits,
            background_us: self.die_background_us.iter().sum(),
            makespan_us: self.sim_end_us,
            latency_p50_us: p50,
            latency_p99_us: p99,
            latency_mean_us: self.latency.mean(),
            data_digest: self.data_digest(),
            per_die,
        }
    }

    /// The [`EngineStats::data_digest`] of [`Engine::stats`], without
    /// building the rest of the snapshot: the per-die digests folded by
    /// [`fnv1a`] in die order. On the payload tiers (`PageAnalytic`,
    /// `CellExact`) each die folds, for every page it decodes, the page's
    /// `fold_page(FNV_OFFSET, payload)` its chip recorded at program time
    /// ([`rd_ftl::DecodedRead::digest`]), in one [`crate::fold_word`]
    /// round; on the payload-free `BlockAggregate` tier, every read's
    /// corrected-error count in one round.
    pub fn data_digest(&self) -> u64 {
        self.die_digest.iter().fold(FNV_OFFSET, |digest, dd| fnv1a(digest, &dd.to_le_bytes()))
    }

    /// Writes the configuration fingerprint the restore path validates:
    /// every knob that shapes die construction, striping, seeding, or the
    /// discrete-event clock. Two engines with equal fingerprints evolve
    /// identically from the same state.
    fn encode_config_fingerprint(&self, w: &mut Writer) {
        let c = &self.config;
        w.put_u32(c.topology.channels);
        w.put_u32(c.topology.dies_per_channel);
        w.put_u32(c.queue_depth);
        w.put_u32(c.die_index_offset);
        w.put_u64(c.die.seed);
        w.put_u64(c.die.logical_pages());
        w.put_u8(c.fidelity().tag());
        w.put_u32(c.die.geometry.blocks);
        w.put_u32(c.die.geometry.wordlines_per_block);
        w.put_u32(c.die.geometry.bitlines);
        w.put_f64(c.timing.read_us);
        w.put_f64(c.timing.program_us);
        w.put_f64(c.timing.erase_us);
        w.put_f64(c.timing.xfer_us);
    }

    /// Checkpoints sit between batches: nothing submitted or unconsumed.
    fn require_idle(&self, what: &str) -> Result<(), SnapError> {
        if self.pending > 0 || !self.cq.is_empty() || !self.timed.is_empty() {
            return Err(SnapError::Mismatch(format!(
                "{what} requires every submitted request run and every completion drained"
            )));
        }
        Ok(())
    }

    /// Serializes the engine's complete mutable state into a versioned,
    /// CRC-protected checkpoint: configuration fingerprint, discrete-event
    /// clock, cumulative accounting, and every die (chip + FTL + RNG
    /// streams). Restoring the bytes into an engine built from the same
    /// configuration resumes the run bit-identically — same digests, same
    /// statistics, same latencies — on every fidelity tier, for stateless
    /// policies. A [`rd_ftl::VpassTuner`] is not written, so a restored
    /// tuning engine re-discovers worst pages with fresh, disturbing reads
    /// and diverges ([`rd_ftl::Die::encode_state`]; ROADMAP.md, item 5(c)).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Mismatch`] while requests are in flight: every
    /// submitted request must have run and every completion been consumed
    /// (a checkpoint sits between batches, never inside one).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        self.require_idle("snapshot")?;
        let mut w = Writer::new();
        w.section(SEC_CONFIG, |w| self.encode_config_fingerprint(w));
        w.section(SEC_CLOCK, |w| {
            w.put_f64s(&self.die_free_us);
            w.put_f64s(&self.chan_free_us);
            w.put_u64(self.inflight.len() as u64);
            for window in &self.inflight {
                window.encode_state(w);
            }
            w.put_f64(self.sim_end_us);
        });
        w.section(SEC_ACCOUNTING, |w| {
            w.put_u64(self.next_id);
            w.put_u64s(&self.die_ops);
            w.put_f64s(&self.die_busy_us);
            w.put_f64s(&self.die_background_us);
            w.put_u64s(&self.die_digest);
            w.put_u64(self.reads);
            w.put_u64(self.writes);
            w.put_u64(self.reads_not_written);
            w.put_u64(self.writes_failed);
            self.latency.encode_state(w);
        });
        w.section(SEC_DIES, |w| {
            w.put_u64(self.dies.len() as u64);
            for die in &self.dies {
                die.encode_state(w);
            }
        });
        Ok(wire::seal(ENGINE_SNAP_MAGIC, wire::SNAP_VERSION, &w.into_bytes()))
    }

    /// Restores a checkpoint produced by [`Engine::snapshot`] into this
    /// engine, which must have been built from the same configuration.
    /// Existing state is replaced wholesale; on error the engine may be
    /// partially restored and must be discarded. Policies keep their own
    /// state, so a [`rd_ftl::VpassTuner`] is not restored ([`Engine::snapshot`]).
    ///
    /// # Errors
    ///
    /// * [`SnapError::BadMagic`] / [`SnapError::BadCrc`] /
    ///   [`SnapError::BadVersion`] / [`SnapError::Truncated`] — the bytes
    ///   are not an intact engine checkpoint of this version;
    /// * [`SnapError::Mismatch`] — intact checkpoint, incompatible engine
    ///   (different topology, seed, fidelity, geometry, or timing), or
    ///   requests were in flight here.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.require_idle("restore")?;
        let payload = wire::open(bytes, ENGINE_SNAP_MAGIC, wire::SNAP_VERSION)?;
        let mut r = Reader::new(payload);

        let mut cfg = r.section(SEC_CONFIG)?;
        let mut expected = Writer::new();
        self.encode_config_fingerprint(&mut expected);
        let expected = expected.into_bytes();
        if cfg.take(expected.len()).ok() != Some(&expected[..]) || !cfg.is_empty() {
            return Err(SnapError::Mismatch(
                "checkpoint was taken under a different engine configuration".into(),
            ));
        }

        let mut clock = r.section(SEC_CLOCK)?;
        let die_free_us = clock.get_f64s()?;
        let chan_free_us = clock.get_f64s()?;
        if die_free_us.len() != self.dies.len() || chan_free_us.len() != self.chan_free_us.len() {
            return Err(SnapError::Mismatch("clock lane shape mismatch".into()));
        }
        let n_windows = clock.get_u64()? as usize;
        if n_windows != self.inflight.len() {
            return Err(SnapError::Mismatch("inflight window count mismatch".into()));
        }
        for window in &mut self.inflight {
            window.restore_state(&mut clock)?;
        }
        self.die_free_us = die_free_us;
        self.chan_free_us = chan_free_us;
        self.sim_end_us = clock.get_f64()?;

        let mut acc = r.section(SEC_ACCOUNTING)?;
        self.next_id = acc.get_u64()?;
        let die_ops = acc.get_u64s()?;
        let die_busy_us = acc.get_f64s()?;
        let die_background_us = acc.get_f64s()?;
        let die_digest = acc.get_u64s()?;
        if die_ops.len() != self.dies.len()
            || die_busy_us.len() != self.dies.len()
            || die_background_us.len() != self.dies.len()
            || die_digest.len() != self.dies.len()
        {
            return Err(SnapError::Mismatch("accounting lane shape mismatch".into()));
        }
        self.die_ops = die_ops;
        self.die_busy_us = die_busy_us;
        self.die_background_us = die_background_us;
        self.die_digest = die_digest;
        self.reads = acc.get_u64()?;
        self.writes = acc.get_u64()?;
        self.reads_not_written = acc.get_u64()?;
        self.writes_failed = acc.get_u64()?;
        self.latency.restore_state(&mut acc)?;

        let mut dies = r.section(SEC_DIES)?;
        let n_dies = dies.get_u64()? as usize;
        if n_dies != self.dies.len() {
            return Err(SnapError::Mismatch(format!(
                "checkpoint holds {n_dies} dies, engine has {}",
                self.dies.len()
            )));
        }
        for die in &mut self.dies {
            die.restore_state(&mut dies)?;
        }
        Ok(())
    }
}

impl<P: ControllerPolicy + Send> Engine<P> {
    /// Processes every pending request as one batch: flash phase (parallel
    /// over dies on `threads` lanes; 0 = one per available core; one lane
    /// runs inline) then timing phase, both finished when this returns.
    /// Returns the number of requests completed; the completions are posted
    /// ordered by simulated completion time. Results are bit-identical for
    /// any thread count. With nothing pending the batch is empty, and still
    /// a batch: it returns 0.
    ///
    /// # Panics
    ///
    /// Panics, naming the die, if a die's flash phase panicked on a lane.
    pub fn run(&mut self, threads: usize) -> usize {
        self.execute(threads, Emit::Full)
    }

    /// [`Engine::run`] for a front-end that only accounts: the batch runs,
    /// is timed and is counted exactly as a full one, but posts one 32-byte
    /// [`CompletionSummary`] per request for [`Engine::swap_summaries`] to
    /// take, and no [`IoCompletion`] is built.
    ///
    /// Summaries are posted in **timing order**, not completion order:
    /// channel by channel in index order, and within a channel in the order
    /// the timing pass dispatched them. Each summary is the record the
    /// request's [`IoCompletion`] is built from, to the bit; only the order
    /// differs. Counts and [`LatencyHistogram`] buckets do not depend on
    /// order. A latency sum does in general, but under [`Timing::mlc`] (the
    /// default) every latency is a whole number of µs below 2⁵³, so a
    /// tenant's sum is exact in any order. With time constants that are not
    /// whole µs, a sum folded from summaries may differ in its last bits
    /// from one folded in completion order.
    pub fn run_summarized(&mut self, threads: usize) -> usize {
        self.execute(threads, Emit::Summary)
    }

    /// [`Engine::run`], remembering the batch's size for
    /// [`Engine::finish_batch`]. The batch has run when this returns: the
    /// staged API is a thin forward kept for callers that still name it.
    pub fn begin_batch(&mut self, threads: usize) -> usize {
        let total = self.run(threads);
        self.unfinished.push_back(total);
        total
    }

    /// Does nothing: [`Engine::begin_batch`] has already run the batch.
    pub fn join_batch(&mut self) {}

    /// The size of the oldest batch [`Engine::begin_batch`] ran that this
    /// has not returned yet.
    ///
    /// # Panics
    ///
    /// Panics if there is none.
    pub fn finish_batch(&mut self) -> usize {
        self.unfinished.pop_front().expect("no batch to finish; call begin_batch() first")
    }

    /// Runs every pending request as one batch that posts what `emit` asks
    /// for, and returns its size.
    fn execute(&mut self, threads: usize, emit: Emit) -> usize {
        let total = std::mem::take(&mut self.pending);
        let first_id = self.next_id - total as u64;
        let nd = self.dies.len();
        let ctx = ExecContext {
            timing: self.config.timing,
            capture: self.config.capture_read_data,
            emit,
            dies: nd as u64,
        };
        // The batch was submitted at the clock before any channel moves it;
        // its records begin at `first` in `timed`.
        let (batch_now, first) = (self.sim_end_us, self.timed.len());
        if emit != Emit::None {
            self.timed.reserve(total);
        }
        // One lane per thread asked for (0: one per core), at most one per
        // die; an empty batch has nothing to execute anywhere.
        let lanes = match threads {
            _ if total == 0 => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()).min(nd),
            t => t.min(nd),
        };
        let started;
        let waited_before = self.stage_ns.pool_wait_ns;
        if lanes == 1 {
            for d in 0..nd {
                if !self.work[d].slots.is_empty() {
                    let queue = std::mem::take(&mut self.work[d]);
                    let exec =
                        execute_die(&mut self.dies[d], queue, &ctx, self.die_digest[d], d as u64);
                    self.work[d] = self.fold(d, exec);
                }
            }
            started = Instant::now();
            for ch in 0..self.chan_free_us.len() {
                self.time_channel(ch, batch_now, emit);
            }
        } else {
            started = Instant::now();
            self.settle_on_lanes(lanes, ctx, batch_now);
        }
        let done = self.end_timing(emit, total, first_id, first);
        let waited = self.stage_ns.pool_wait_ns - waited_before;
        self.stage_ns.timing_ns += (started.elapsed().as_nanos() as u64).saturating_sub(waited);
        done
    }

    /// The flash phase on `lanes` lanes and the timing pass beside it, as
    /// the module docs describe. A lane owns its dies for the batch and
    /// hands them back as it ends: lanes writing to neighbours in one `Vec`
    /// share cache lines, and a replay's flash phase measured ~15% slower.
    ///
    /// # Panics
    ///
    /// Panics, naming the die, if a die's flash phase panicked on its lane:
    /// once every lane has ended and the dies are back in the engine.
    fn settle_on_lanes(&mut self, lanes: usize, ctx: ExecContext, batch_now: f64) {
        let dies_per_channel = self.config.topology.dies_per_channel as usize;
        let mut missing = vec![0usize; self.chan_free_us.len()];
        let mut dies = Vec::with_capacity(self.dies.len());
        let mut lane_work: Vec<Vec<_>> = (0..lanes).map(|_| Vec::new()).collect();
        for (d, die) in std::mem::take(&mut self.dies).into_iter().enumerate() {
            if self.work[d].slots.is_empty() {
                dies.push((d, die));
            } else {
                missing[d / dies_per_channel] += 1;
                let queue = std::mem::take(&mut self.work[d]);
                lane_work[d % lanes].push((d, die, queue, self.die_digest[d]));
            }
        }
        let mut own = std::mem::take(&mut lane_work[0]).into_iter();
        let panicked = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let spawned: Vec<_> = lane_work
                .into_iter()
                .filter(|work| !work.is_empty())
                .map(|mut work| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        for (d, die, queue, digest) in &mut work {
                            let ran = execute_caught(die, std::mem::take(queue), &ctx, *digest, *d);
                            // The send fails only while the caller unwinds.
                            let _ = tx.send((*d, ran));
                        }
                        work
                    })
                })
                .collect();
            drop(tx);
            let mut next = 0;
            let panicked = loop {
                while next < missing.len() && missing[next] == 0 {
                    self.time_channel(next, batch_now, ctx.emit);
                    next += 1;
                }
                if next == missing.len() {
                    break None;
                }
                let (d, ran) = if let Some((d, mut die, queue, digest)) = own.next() {
                    let ran = execute_caught(&mut die, queue, &ctx, digest, d);
                    dies.push((d, die));
                    (d, ran)
                } else {
                    let waiting = Instant::now();
                    let sent = rx.recv().expect("a lane ended without sending its dies back");
                    self.stage_ns.pool_wait_ns += waiting.elapsed().as_nanos() as u64;
                    sent
                };
                match ran {
                    Ok(exec) => {
                        self.work[d] = self.fold(d, exec);
                        missing[d / dies_per_channel] -= 1;
                    }
                    // The die's own panic message is already out.
                    Err(_) => break Some(d),
                }
            };
            dies.extend(own.map(|(d, die, ..)| (d, die)));
            for lane in spawned {
                let work = lane.join().expect("a lane catches its dies' panics");
                dies.extend(work.into_iter().map(|(d, die, ..)| (d, die)));
            }
            panicked
        });
        dies.sort_unstable_by_key(|&(d, _)| d);
        self.dies = dies.into_iter().map(|(_, die)| die).collect();
        if let Some(d) = panicked {
            panic!("die {d}'s flash phase panicked on its lane");
        }
    }

    /// The contiguous die range of channel `ch`.
    fn channel_dies(&self, ch: usize) -> Range<usize> {
        let dpc = self.config.topology.dies_per_channel as usize;
        ch * dpc..(ch + 1) * dpc
    }

    /// Folds die `d`'s flash-phase output into the cumulative accounting and
    /// returns its answered queue. Every update is the die's own slot or an
    /// integer total, so the order dies arrive in changes no bit.
    fn fold(&mut self, d: usize, exec: DieExec) -> DieQueue {
        self.die_digest[d] = exec.digest;
        self.die_background_us[d] += exec.background_us;
        self.die_busy_us[d] += exec.busy_us;
        self.die_ops[d] += exec.queue.slots.len() as u64;
        self.reads += exec.reads;
        self.writes += exec.writes;
        self.reads_not_written += exec.reads_not_written;
        self.writes_failed += exec.writes_failed;
        self.stage_ns.flash_ns += exec.wall_ns;
        exec.queue
    }

    /// Discrete-event timing of channel `ch`, whose dies have all executed,
    /// for a batch submitted at `batch_now`. Repeatedly dispatches the
    /// request with the earliest per-die ready time (queue-depth pacing +
    /// die availability), serializing the channel's transfer slots. A die's
    /// (ready, submit) pair only changes when that die dispatches, so the
    /// values are cached and the loop is a flat argmin scan; ties pick the
    /// lowest die index, exactly as a full rescan would.
    ///
    /// Channels share no timing state (see the module docs), so the argmin
    /// spans one channel's `dies_per_channel` entries, the channel-slot
    /// clock lives in a register, and callers time channels strictly in
    /// index order; for a full batch the sort in [`Self::end_timing`]
    /// restores one global time order.
    ///
    /// An emitting batch gets one [`CompletionSummary`] per request, the
    /// same record whether summaries or full completions are wanted. A
    /// channel's start times strictly increase in dispatch order (a request
    /// starts no earlier than the end of the previous one's transfer slot,
    /// which is positive), so its records are written in start-time order.
    fn time_channel(&mut self, ch: usize, batch_now: f64, emit: Emit) {
        let dies = self.channel_dies(ch);
        let lo = dies.start;
        let emit = emit != Emit::None;
        let queues = &mut self.work[dies];
        let chan_total: usize = queues.iter().map(|q| q.slots.len()).sum();
        if chan_total == 0 {
            return;
        }
        let ready_of = |window: &Window, die_free: f64| -> (f64, f64) {
            let submit = match window.front_if_full() {
                Some(front) => front.max(batch_now),
                None => batch_now,
            };
            (submit.max(die_free), submit)
        };
        let mut chan_free = self.chan_free_us[ch];
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.extend(queues.iter().enumerate().map(|(j, q)| {
            let (ready, submit) = if q.slots.is_empty() {
                (f64::INFINITY, batch_now)
            } else {
                ready_of(&self.inflight[lo + j], self.die_free_us[lo + j])
            };
            DieCursor { next: 0, ready, submit }
        }));
        for _ in 0..chan_total {
            let mut j = 0usize;
            for i in 1..cursors.len() {
                if cursors[i].ready < cursors[j].ready {
                    j = i;
                }
            }
            let d = lo + j;
            let DieCursor { next, ready, submit } = cursors[j];
            debug_assert!(ready.is_finite(), "work remains while total not reached");
            let queue = &mut queues[j];
            let item = ExecTiming::from_slot(queue.slots[next]);
            let start = ready.max(chan_free);
            let complete = start + item.service_us;
            chan_free = start + self.config.timing.xfer_us.min(item.service_us);
            self.die_free_us[d] = complete;
            self.inflight[d].push(complete);
            self.latency.record(complete - submit);
            if complete > self.sim_end_us {
                self.sim_end_us = complete;
            }
            if emit {
                self.timed.push(CompletionSummary {
                    complete_us: complete,
                    submit_us: submit,
                    outcome: queue.outcomes[next],
                    slot: queue.ids[next],
                    die: d as u32,
                });
                // The one time a full completion carries that its summary
                // does not.
                if let Some(rich) = queue.rich.get_mut(next) {
                    rich.start_us = start;
                }
            }
            let next = next + 1;
            let (ready, submit) = if next >= queue.slots.len() {
                (f64::INFINITY, batch_now)
            } else {
                ready_of(&self.inflight[d], self.die_free_us[d])
            };
            cursors[j] = DieCursor { next, ready, submit };
        }
        self.chan_free_us[ch] = chan_free;
        self.cursors = cursors;
    }

    /// Closes a batch's timing pass: leaves a summarized batch's records
    /// (from `first` on in `timed`) posted in timing order; sorts a full
    /// batch's into simulated completion order and assembles its
    /// completions from them, numbered from `first_id`; and clears the
    /// queues for later batches.
    fn end_timing(&mut self, emit: Emit, total: usize, first_id: u64, first: usize) -> usize {
        // A summarized batch is posted in timing order, as written.
        if emit == Emit::Full {
            // `slot` orders as the command id does: both count from the
            // batch's first request.
            self.timed[first..].sort_unstable_by(|a, b| {
                a.complete_us.total_cmp(&b.complete_us).then(a.slot.cmp(&b.slot))
            });
            // A die's completion times never decrease and its ids grow, so
            // the sort left each die's records in dispatch order: a die's
            // next record belongs to its next `rich` entry.
            self.rich_next.fill(0);
            self.cq.reserve(total);
            for s in self.timed.drain(first..) {
                let d = s.die as usize;
                let queue = &mut self.work[d];
                let i = self.rich_next[d];
                self.rich_next[d] += 1;
                assert_eq!(queue.ids[i], s.slot, "die {d}'s records left dispatch order");
                let rich = &mut queue.rich[i];
                self.cq.push(IoCompletion {
                    id: first_id + u64::from(s.slot),
                    kind: s.outcome.kind(),
                    lpa: rich.lpa,
                    die: s.die,
                    submit_us: s.submit_us,
                    start_us: rich.start_us,
                    complete_us: s.complete_us,
                    corrected_errors: s.outcome.corrected_errors(),
                    result: std::mem::replace(&mut rich.result, Ok(())),
                    data: rich.data.take(),
                });
            }
        }
        for queue in &mut self.work {
            queue.clear();
        }
        total
    }

    /// Replays a trace across the array: every op's lpa is folded into the
    /// logical space (`lpa % logical_pages`) and queued, and the whole trace
    /// — with anything already pending ahead of it — runs as one saturating
    /// batch that posts nothing. Flash execution, timing, digest and
    /// statistics are those of `submit` + [`Engine::run`]; what is skipped
    /// is the per-request [`IoCompletion`] build/sort/post, whose cost
    /// dominates the analytic tiers at billion-op trace scale. Returns the
    /// cumulative statistics.
    pub fn replay_stats_only<I: IntoIterator<Item = TraceOp>>(
        &mut self,
        ops: I,
        threads: usize,
    ) -> EngineStats {
        self.replay_unreported(ops, threads);
        self.stats()
    }

    /// [`Engine::replay_stats_only`] for a caller that reads the statistics
    /// later, or only some of them ([`Engine::data_digest`], a die's
    /// counters): returns the number of requests completed instead of
    /// building an [`EngineStats`].
    pub fn replay_unreported<I: IntoIterator<Item = TraceOp>>(
        &mut self,
        ops: I,
        threads: usize,
    ) -> usize {
        self.submit_trace(ops);
        self.execute(threads, Emit::None)
    }

    /// Queues a trace without ids, each lpa folded into the logical space.
    fn submit_trace<I: IntoIterator<Item = TraceOp>>(&mut self, ops: I) {
        // Reciprocal multiply, as in `submit`: a hardware divide per op is
        // measurable at billion-op scale.
        let logical_div = FastDiv::new(self.logical_pages());
        let ops = ops.into_iter();
        // Striping spreads a trace near-uniformly; reserving the per-die
        // arenas up front keeps the first replay off the realloc path.
        let hint = ops.size_hint().0 / self.work.len().max(1);
        for w in &mut self.work {
            w.slots.reserve(hint + hint / 8);
        }
        for op in ops {
            let kind = match op.kind {
                OpKind::Read => ReqKind::Read,
                OpKind::Write => ReqKind::Write,
            };
            self.enqueue(kind, logical_div.div_rem(op.lpa).1, false);
        }
    }
}

/// Exact unsigned division by a fixed divisor via one reciprocal multiply:
/// `m = floor(u64::MAX / d)` underestimates the true quotient by at most 1
/// for any 64-bit dividend, so a single conditional fix-up after the
/// high-half multiply restores `(n / d, n % d)` exactly.
///
/// [`Engine::submit`] stripes every request through one, trace replay folds
/// each lpa into the logical space through another, and rd-serve's shard
/// router divides by the die and shard counts the same way. Public so those
/// callers (and the property suite pitting it against `/`/`%` over the full
/// divisor range) share one implementation.
#[derive(Debug, Clone, Copy)]
pub struct FastDiv {
    d: u64,
    m: u64,
}

impl FastDiv {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics (division by zero) if `d == 0`.
    pub fn new(d: u64) -> Self {
        Self { d, m: u64::MAX / d }
    }

    /// `(n / d, n % d)`, exactly.
    #[inline]
    pub fn div_rem(&self, n: u64) -> (u64, u64) {
        let mut q = ((u128::from(n) * u128::from(self.m)) >> 64) as u64;
        let mut r = n - q * self.d;
        if r >= self.d {
            q += 1;
            r -= self.d;
        }
        (q, r)
    }
}

/// How many requests ahead of the one it is executing [`execute_die`]
/// prefetches the `l2p` entry of a request, and how many ahead the `p2l`
/// entry of that request's current mapping (see
/// [`rd_ftl::PageMap::pretouch`]): far enough for a miss to be served
/// meanwhile, and the `p2l` prefetch later than the `l2p` one whose entry it
/// reads. Twice these distances (32/16) measured no better on `serve-mixed`.
const L2P_AHEAD: usize = 16;
const P2L_AHEAD: usize = 8;

/// Executes one die's queue, measuring per-request service time from the
/// timing constants plus the controller-counter delta (background GC/refresh
/// relocations and erases the request triggered), and answers every slot in
/// place with its [`ExecTiming`].
///
/// A lane that cycles through several dies finds each die's page map gone
/// from its cache when it returns, and the misses of one request would
/// otherwise start only when it executes; the queue says which addresses
/// come next, so their map lines are prefetched ahead. On `serve-mixed`'s
/// shape (8 dies of 1024 blocks per lane, 1024-op batches) that took the
/// flash stage from 171–199 to 96–148 ns per op (`examples/serve_threads`,
/// three windows each on a 2-core x86_64 box); the ordinary loads it
/// replaced stalled on their own misses and measured no better than no
/// look-ahead at all.
fn execute_die<P: ControllerPolicy>(
    die: &mut Die<P>,
    mut queue: DieQueue,
    ctx: &ExecContext,
    start_digest: u64,
    die_index: u64,
) -> DieExec {
    let wall_started = Instant::now();
    let timing = &ctx.timing;
    let mut digest = start_digest;
    let mut background_total = 0.0f64;
    let mut busy_total = 0.0f64;
    let (mut reads, mut writes, mut reads_not_written, mut writes_failed) =
        (0u64, 0u64, 0u64, 0u64);
    // The billable counters are monotone, so each request's delta runs from
    // the previous request's snapshot — one extraction per op, not two.
    let mut before = crate::timing::background_counters(die.stats_ref());
    let DieQueue { slots, wide, outcomes, rich, .. } = &mut queue;
    let mut wide = wide.iter();
    for i in 0..slots.len() {
        // Past the end, and for a wide address, there is nothing to touch:
        // both read as out of range.
        let ahead = |n: usize| slots.get(i + n).map_or(u64::MAX, |&slot| WorkItem(slot).addr());
        die.pretouch(ahead(L2P_AHEAD), ahead(P2L_AHEAD));
        let item = WorkItem(slots[i]);
        let kind = item.kind();
        let die_lpa = match item.addr() {
            WorkItem::WIDE => *wide.next().expect("a wide slot queues its address"),
            addr => addr,
        };
        let (result, corrected, data) = match kind {
            // The decoded page is digested by the word its chip recorded
            // when it programmed it, and copied only for a capturing caller.
            ReqKind::Read => match die.read_with(die_lpa, |r| {
                // Payload-carrying tiers fold the page's recorded digest in
                // one `fold_page` round, not its bytes; the aggregate tier
                // carries no payload, so its digest folds the corrected-
                // error count (the read's full information content) in one
                // xor-multiply round. Both are order- and value-sensitive.
                digest = if r.data.is_empty() {
                    (digest ^ r.corrected_errors).wrapping_mul(0x0000_0100_0000_01B3)
                } else {
                    fold_word(digest, r.digest)
                };
                (r.corrected_errors, ctx.capture.then(|| r.data.to_vec()))
            }) {
                Ok((corrected, data)) => (Ok(()), corrected, data),
                Err(e) => (Err(e), 0, None),
            },
            ReqKind::Write => (die.write(die_lpa), 0, None),
        };
        let after = crate::timing::background_counters(die.stats_ref());
        // Failed lookups (NotWritten / out-of-range) are answered from the
        // mapping table without touching the array: only a command slot.
        let base = match (kind, &result) {
            (ReqKind::Read, Ok(()) | Err(FtlError::Uncorrectable { .. })) => {
                timing.read_service_us()
            }
            (ReqKind::Write, Ok(())) => timing.write_service_us(),
            _ => timing.xfer_us,
        };
        let background_us = timing.background_us_between(before, after);
        before = after;
        background_total += background_us;
        let service_us = base + background_us;
        match kind {
            ReqKind::Read => {
                reads += 1;
                reads_not_written += u64::from(matches!(result, Err(FtlError::NotWritten { .. })));
            }
            ReqKind::Write => {
                writes += 1;
                writes_failed += u64::from(result.is_err());
            }
        }
        busy_total += service_us;
        slots[i] = ExecTiming { service_us }.to_slot();
        if ctx.emit != Emit::None {
            outcomes.push(Outcome::new(kind, &result, corrected));
        }
        if ctx.emit == Emit::Full {
            let lpa = die_lpa * ctx.dies + die_index;
            rich.push(ExecRich { lpa, start_us: 0.0, result, data });
        }
    }
    DieExec {
        queue,
        digest,
        background_us: background_total,
        busy_us: busy_total,
        reads,
        writes,
        reads_not_written,
        writes_failed,
        wall_ns: wall_started.elapsed().as_nanos() as u64,
    }
}

/// [`execute_die`] on a lane: a panic is caught and returned, for the
/// caller to report with the die's index.
fn execute_caught<P: ControllerPolicy>(
    die: &mut Die<P>,
    queue: DieQueue,
    ctx: &ExecContext,
    start_digest: u64,
    d: usize,
) -> std::thread::Result<DieExec> {
    panic::catch_unwind(AssertUnwindSafe(|| execute_die(die, queue, ctx, start_digest, d as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(engine: &mut Engine) -> Vec<IoCompletion> {
        let mut completions = Vec::new();
        engine.drain_completions_into(&mut completions);
        completions
    }

    fn fill_and_read(config: EngineConfig, threads: usize) -> EngineStats {
        let mut engine = Engine::new(config).unwrap();
        let logical = engine.logical_pages();
        for lpa in 0..logical {
            engine.submit_write(lpa);
        }
        engine.run(threads);
        for lpa in 0..logical {
            engine.submit_read(lpa);
        }
        engine.run(threads);
        engine.stats()
    }

    #[test]
    fn write_read_round_trip_through_queues() {
        let mut engine = Engine::new(EngineConfig::small_test()).unwrap();
        for lpa in 0..8u64 {
            engine.submit_write(lpa);
        }
        assert_eq!(engine.pending(), 8);
        assert_eq!(engine.run(2), 8);
        assert_eq!(engine.pending(), 0);
        for lpa in 0..8u64 {
            engine.submit_read(lpa);
        }
        engine.run(2);
        let completions = drained(&mut engine);
        assert_eq!(completions.len(), 16);
        for c in &completions {
            assert!(c.result.is_ok(), "request {} failed: {:?}", c.id, c.result);
            assert!(c.complete_us > c.submit_us);
            assert_eq!(c.die, engine.config().topology.stripe(c.lpa).0, "submit mis-striped");
        }
        let stats = engine.stats();
        assert_eq!(stats.ops, 16);
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.writes, 8);
        assert!(stats.iops() > 0.0);
    }

    #[test]
    fn unwritten_reads_complete_with_not_written() {
        let mut engine = Engine::new(EngineConfig::small_test()).unwrap();
        engine.submit_read(3);
        engine.run(1);
        let completions = drained(&mut engine);
        assert!(matches!(
            completions[..],
            [IoCompletion { result: Err(FtlError::NotWritten { .. }), .. }]
        ));
        assert_eq!(engine.stats().reads_not_written, 1);
    }

    #[test]
    fn striping_spreads_ops_over_all_dies() {
        let stats = fill_and_read(EngineConfig::small_test(), 2);
        assert_eq!(stats.per_die.len(), 4);
        for d in &stats.per_die {
            assert!(d.ops > 0, "die {} got no work", d.die);
            assert!(d.ssd.host_writes > 0);
            assert!(d.busy_us > 0.0);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let a = fill_and_read(EngineConfig::small_test(), 1);
        let b = fill_and_read(EngineConfig::small_test(), 4);
        assert_eq!(a, b);
        assert_ne!(a.data_digest, FNV_OFFSET, "digest never folded read data");
    }

    #[test]
    fn more_dies_mean_more_throughput() {
        let one = fill_and_read(
            EngineConfig { topology: Topology::single(), ..EngineConfig::small_test() },
            1,
        );
        let four = fill_and_read(EngineConfig::small_test(), 2);
        // Same per-die capacity means 4x the ops; throughput must scale too.
        assert!(four.ops > one.ops);
        assert!(
            four.iops() > one.iops() * 2.0,
            "4 dies {:.0} iops vs 1 die {:.0}",
            four.iops(),
            one.iops()
        );
    }

    #[test]
    fn queue_depth_one_means_no_queueing_delay() {
        let config = EngineConfig {
            topology: Topology::single(),
            queue_depth: 1,
            ..EngineConfig::small_test()
        };
        let mut engine = Engine::new(config).unwrap();
        for lpa in 0..4u64 {
            engine.submit_write(lpa);
        }
        engine.run(1);
        drained(&mut engine);
        for lpa in 0..4u64 {
            engine.submit_read(lpa);
        }
        engine.run(1);
        for c in drained(&mut engine) {
            // Each request is admitted only once the previous finished, so
            // latency is pure service time.
            assert!(
                (c.latency_us() - Timing::mlc().read_service_us()).abs() < 1e-9,
                "latency {} != read service",
                c.latency_us()
            );
        }
    }

    #[test]
    fn per_die_policy_runs() {
        use rd_ftl::ReadReclaim;
        let config = EngineConfig {
            topology: Topology { channels: 1, dies_per_channel: 2 },
            ..EngineConfig::small_test()
        };
        let mut engine = Engine::with_policy(config, ReadReclaim { read_threshold: 300 }).unwrap();
        engine.submit_write(0);
        engine.run(1);
        for _ in 0..400 {
            engine.submit_read(0);
        }
        engine.run(1);
        let stats = engine.stats();
        assert!(stats.per_die[0].ssd.reclaims >= 1, "reclaim never fired on die 0");
        assert_eq!(stats.per_die[1].ssd.reclaims, 0, "idle die reclaimed");
    }

    #[test]
    fn stats_only_replay_matches_full_replay() {
        let ops: Vec<TraceOp> = (0..200u64)
            .map(|i| TraceOp {
                time_s: i as f64,
                kind: if i % 3 == 0 { OpKind::Read } else { OpKind::Write },
                lpa: i * 7,
            })
            .collect();
        let mut full = Engine::new(EngineConfig::small_test()).unwrap();
        let mut lean = Engine::new(EngineConfig::small_test()).unwrap();
        let logical = full.logical_pages();
        for op in &ops {
            let kind = if op.kind == OpKind::Read { ReqKind::Read } else { ReqKind::Write };
            full.submit(kind, op.lpa % logical);
        }
        assert_eq!(full.run(2), ops.len());
        let b = lean.replay_stats_only(ops.iter().copied(), 2);
        assert_eq!(full.stats(), b, "stats-only replay must be statistically identical");
        assert_eq!(drained(&mut full).len(), ops.len());
        assert!(drained(&mut lean).is_empty(), "stats-only replay emits no completions");
    }

    #[test]
    fn die_index_offset_aligns_shard_seeds_with_the_monolithic_array() {
        let global = EngineConfig::small_test();
        // Shard 1 of 2 over a 2×2 array: local dies 0..2 sit at global
        // positions 2..4 and must draw the exact same RNG streams.
        let shard = EngineConfig { die_index_offset: 2, ..EngineConfig::small_test() };
        for i in 0..2 {
            assert_eq!(shard.die_seed(i), global.die_seed(2 + i));
            assert_ne!(shard.die_seed(i), global.die_seed(i));
        }
    }

    #[test]
    fn per_die_digest_is_surfaced_in_stats() {
        let stats = fill_and_read(EngineConfig::small_test(), 1);
        let mut folded = FNV_OFFSET;
        for d in &stats.per_die {
            folded = fnv1a(folded, &d.digest.to_le_bytes());
        }
        assert_eq!(folded, stats.data_digest, "stats digest folds the per-die digests");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        for fidelity in [ReadFidelity::CellExact, ReadFidelity::BlockAggregate] {
            let config = EngineConfig::small_test().with_fidelity(fidelity);
            let ops: Vec<TraceOp> = (0..400u64)
                .map(|i| TraceOp {
                    time_s: i as f64,
                    kind: if i % 3 == 0 { OpKind::Read } else { OpKind::Write },
                    lpa: i * 13,
                })
                .collect();
            let mut full = Engine::new(config.clone()).unwrap();
            let uninterrupted = full.replay_stats_only(ops.iter().copied(), 2);

            // Baseline: the same split into two batches, no snapshot.
            let mut unsnapped = Engine::new(config.clone()).unwrap();
            unsnapped.replay_stats_only(ops[..150].iter().copied(), 1);
            let baseline = unsnapped.replay_stats_only(ops[150..].iter().copied(), 1);

            // Checkpoint at the split, resume in a fresh engine: everything —
            // clock, latencies, digests, counters — must match the baseline.
            let mut first = Engine::new(config.clone()).unwrap();
            first.replay_stats_only(ops[..150].iter().copied(), 1);
            let snap = first.snapshot().unwrap();
            let mut resumed = Engine::new(config).unwrap();
            resumed.restore(&snap).unwrap();
            let split = resumed.replay_stats_only(ops[150..].iter().copied(), 4);
            assert_eq!(split, baseline, "snapshot/restore diverged ({fidelity:?})");

            // Against the uninterrupted single batch, flash-state outcomes
            // (digest, reliability counters, op tallies) are batch-boundary
            // independent; only queueing timing legitimately differs.
            assert_eq!(split.data_digest, uninterrupted.data_digest);
            assert_eq!(split.ops, uninterrupted.ops);
            for (s, u) in split.per_die.iter().zip(&uninterrupted.per_die) {
                assert_eq!(s.ssd, u.ssd, "per-die SsdStats diverged ({fidelity:?})");
                assert_eq!(s.digest, u.digest);
            }
        }
    }

    #[test]
    fn snapshot_rejects_inflight_and_mismatched_configs() {
        let mut engine = Engine::new(EngineConfig::small_test()).unwrap();
        engine.submit_write(0);
        assert!(matches!(engine.snapshot(), Err(SnapError::Mismatch(_))));
        engine.run(1);
        drained(&mut engine);
        let snap = engine.snapshot().unwrap();
        // Same shape, different base seed: the fingerprint must reject it.
        let mut other_cfg = EngineConfig::small_test();
        other_cfg.die.seed ^= 1;
        let mut other = Engine::new(other_cfg).unwrap();
        assert!(matches!(other.restore(&snap), Err(SnapError::Mismatch(_))));
        // Corruption is caught by the CRC, truncation by the length check.
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let mut target = Engine::new(EngineConfig::small_test()).unwrap();
        assert!(matches!(target.restore(&bad), Err(SnapError::BadCrc)));
        // Mid-payload truncation misaligns the CRC trailer; truncation below
        // the container floor is typed as Truncated.
        assert!(matches!(target.restore(&snap[..snap.len() - 3]), Err(SnapError::BadCrc)));
        assert!(matches!(target.restore(&snap[..10]), Err(SnapError::Truncated)));
        // The intact snapshot restores into a fresh same-config engine.
        target.restore(&snap).unwrap();
        assert_eq!(target.stats(), engine.stats());
    }

    #[test]
    fn queued_and_executed_records_are_one_word() {
        assert_eq!(std::mem::size_of::<WorkItem>(), 8);
        assert_eq!(std::mem::size_of::<ExecTiming>(), 8);
        assert_eq!(std::mem::size_of::<Outcome>(), 8);
        assert_eq!(std::mem::size_of::<ExecRich>(), 72);
        for (kind, die_lpa) in
            [(ReqKind::Read, 0), (ReqKind::Write, 0), (ReqKind::Write, WorkItem::WIDE - 1)]
        {
            let item = WorkItem::new(kind, die_lpa);
            assert_eq!((item.kind(), item.addr()), (kind, die_lpa));
        }
        for die_lpa in [WorkItem::WIDE, WorkItem::WIDE + 1, u64::MAX] {
            assert_eq!(WorkItem::new(ReqKind::Read, die_lpa).addr(), WorkItem::WIDE);
        }
        let answered = ExecTiming::from_slot(ExecTiming { service_us: 675.0 }.to_slot());
        assert_eq!(answered.service_us, 675.0);
    }

    /// Ids ride as `u32` offsets from the batch's first; unit tests build
    /// with `MAX_ID_OFFSET` = 4095, so the 4097th pending `submit` trips the
    /// guard, while a stats-only replay — which records no ids — may queue
    /// any number.
    #[test]
    fn id_offsets_are_guarded_at_their_limit() {
        let reads =
            |n: usize| (0..n).map(|i| TraceOp { time_s: 0.0, kind: OpKind::Read, lpa: i as u64 });
        let mut engine = Engine::new(EngineConfig::small_test()).unwrap();
        assert_eq!(engine.replay_unreported(reads(MAX_ID_OFFSET + 2), 1), MAX_ID_OFFSET + 2);
        let first = engine.submit_read(0);
        for _ in 0..MAX_ID_OFFSET {
            engine.submit_read(0);
        }
        let overflow =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.submit_read(0)));
        assert!(overflow.is_err(), "the guard let offset {} through", MAX_ID_OFFSET + 1);
        // Running makes room, and the largest offset came through intact.
        assert_eq!(engine.run(2), MAX_ID_OFFSET + 1);
        let ids: Vec<u64> = drained(&mut engine).iter().map(|c| c.id).collect();
        assert_eq!(ids.iter().max(), Some(&(first + MAX_ID_OFFSET as u64)));
        engine.submit_read(0);
    }

    #[test]
    fn die_seeds_are_decorrelated_but_anchored() {
        let config = EngineConfig::small_test();
        assert_eq!(config.die_seed(0), config.die.seed);
        let mut seeds: Vec<u64> = (0..4).map(|d| config.die_seed(d)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "die seeds collide");
    }
}
