//! The pre-stressed recovery scenario behind `ext_recovery_path`: build a
//! worn, disturbed array, replay the shared read-heavy trace on it, and
//! render the result as a self-describing JSON row.

use readdisturb::prelude::*;
use readdisturb::workloads::TraceOp;

/// Seed of the trace and of every die.
const TRACE_SEED: u64 = 2015;

/// Generates the trace (umass-web stands in for the paper's WebSearch
/// trace: 85% reads with strong Zipfian block popularity — the
/// read-disturb-heavy case).
fn harness_trace(trace_ops: usize) -> Vec<TraceOp> {
    let profile = WorkloadProfile::by_name("umass-web").expect("profile");
    let pages_per_block = SsdConfig::engine_scale(TRACE_SEED).geometry.pages_per_block();
    profile.generator(TRACE_SEED, pages_per_block).take(trace_ops).collect()
}

/// Engine-scale dies, default timing, queue depth 16, no payload capture.
fn engine_config(channels: u32, dies_per_channel: u32, fidelity: ReadFidelity) -> EngineConfig {
    EngineConfig {
        topology: Topology { channels, dies_per_channel },
        die: SsdConfig::engine_scale(TRACE_SEED),
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
    .with_fidelity(fidelity)
}

/// One measured replay: engine statistics plus the RBER it left behind.
#[derive(Debug, Clone)]
pub struct ReplayMeasurement {
    /// Topology: channels.
    pub channels: u32,
    /// Topology: dies per channel.
    pub dies_per_channel: u32,
    /// Chip-database entry the dies were built from.
    pub chip: String,
    /// Fidelity tier the dies ran at.
    pub fidelity: ReadFidelity,
    /// Engine statistics after the replay.
    pub stats: EngineStats,
    /// Aggregate block RBER over every valid block of every die
    /// (closed-form expectation on analytic dies, per-cell oracle on exact
    /// ones).
    pub mean_block_rber: f64,
}

/// Replays `ops` on the pre-built `engine` and takes the post-replay RBER
/// summary.
fn measure_replay_on(engine: &mut Engine, ops: &[TraceOp]) -> ReplayMeasurement {
    // Stats-only replay: identical execution, timing, and digest, but no
    // per-request completion records — only the stats are read.
    let stats = engine.replay_stats_only(ops.iter().copied(), 0);

    let mut errors = 0.0f64;
    let mut bits = 0u64;
    for d in 0..engine.config().topology.dies() {
        let die = engine.die(d);
        let bits_per_page = die.chip().geometry().bits_per_page() as u64;
        for block in die.valid_blocks() {
            let pages = die.chip().block_status(block).expect("valid block").programmed_pages;
            let b = pages as u64 * bits_per_page;
            errors += die.chip().block_rber_rate(block).expect("valid block") * b as f64;
            bits += b;
        }
    }
    let mean_block_rber = if bits == 0 { 0.0 } else { errors / bits as f64 };
    let topology = engine.config().topology;
    ReplayMeasurement {
        channels: topology.channels,
        dies_per_channel: topology.dies_per_channel,
        chip: engine.config().die.chip.clone(),
        fidelity: engine.config().fidelity(),
        stats,
        mean_block_rber,
    }
}

/// A pre-stressed recovery scenario: how worn and disturbed the array is
/// before the measured read-heavy replay, and how tight the ECC line sits.
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// Topology: channels.
    pub channels: u32,
    /// Topology: dies per channel.
    pub dies_per_channel: u32,
    /// Prior wear on every block (P/E cycles).
    pub pe_cycles: u64,
    /// Read disturbs injected into every data-holding block after warm-up.
    pub disturbs: u64,
    /// ECC capability line (RBER); sits between the retry-recoverable
    /// error level and the raw disturbed level so the ladder engages.
    pub ecc_capability_rber: f64,
    /// Measured read-heavy trace length.
    pub trace_ops: usize,
}

impl RecoveryScenario {
    /// The full `ext_recovery_path` scenario.
    pub(crate) fn full() -> Self {
        Self {
            channels: 2,
            dies_per_channel: 2,
            pe_cycles: 10_000,
            disturbs: 1_000_000,
            ecc_capability_rber: 8.0e-3,
            trace_ops: 30_000,
        }
    }

    /// Miniature variant for test-profile smoke tests.
    pub fn smoke() -> Self {
        Self { trace_ops: 2_000, ..Self::full() }
    }
}

/// Measures the recovery pipeline under traffic: pre-wear every block,
/// warm the logical space with writes, inject read disturb into every
/// data-holding block, then replay the shared read-heavy trace — reads on
/// hot blocks now exceed the ECC line and escalate through the recovery
/// ladder, with retry reads charged on the engine clock.
pub fn measure_recovery_scenario(
    scenario: &RecoveryScenario,
    fidelity: ReadFidelity,
) -> ReplayMeasurement {
    let mut config = engine_config(scenario.channels, scenario.dies_per_channel, fidelity);
    config.die.ecc_capability_rber = scenario.ecc_capability_rber;
    let mut engine = Engine::new(config).expect("engine");
    let dies = engine.config().topology.dies();
    let blocks = engine.config().die.geometry.blocks;
    for d in 0..dies {
        let chip = engine.die_mut(d).chip_mut();
        for b in 0..blocks {
            chip.cycle_block(b, scenario.pe_cycles).expect("block in range");
        }
    }
    // Warm-up: fill the logical space so the measured trace reads hit data.
    for lpa in 0..engine.logical_pages() {
        engine.submit_write(lpa);
    }
    engine.run(0);
    engine.drain_completions_into(&mut Vec::new());
    // Concentrated read-disturb burst on every data-holding block.
    for d in 0..dies {
        let die = engine.die_mut(d);
        for b in die.valid_blocks() {
            die.chip_mut().apply_read_disturbs(b, scenario.disturbs).expect("block in range");
        }
    }
    let ops = harness_trace(scenario.trace_ops);
    measure_replay_on(&mut engine, &ops)
}

/// Renders a measurement as one self-describing JSON row: topology,
/// fidelity tier, simulated throughput, latency percentiles,
/// reliability counters (UBER, recovery, relocation cost), and the data
/// digest.
pub fn json_row(kind: &str, trace_ops: usize, m: &ReplayMeasurement) -> String {
    let s = &m.stats;
    let totals = s.totals();
    let hottest = s.per_die.iter().map(|d| d.hottest_block_reads).max().unwrap_or(0);
    format!(
        concat!(
            "{{\"kind\":\"{}\",\"trace\":\"umass-web\",\"trace_ops\":{},",
            "\"chip\":\"{}\",",
            "\"channels\":{},\"dies_per_channel\":{},\"dies\":{},\"fidelity\":\"{}\",",
            "\"ops\":{},\"reads\":{},\"writes\":{},\"sim_kiops\":{:.2},",
            "\"makespan_ms\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1},\"mean_us\":{:.1},",
            "\"mean_block_rber\":{:.3e},\"corrected_bits\":{},\"uncorrectable\":{},",
            "\"recovered\":{},\"recovery_steps\":{},\"recovery_reads\":{},\"uber\":{:.3e},",
            "\"background_ms\":{:.3},\"hottest_block_reads\":{},\"host_writes\":{},",
            "\"gc_writes\":{},\"refresh_writes\":{},\"erases\":{},\"digest\":\"{:016x}\"}}"
        ),
        kind,
        trace_ops,
        m.chip,
        m.channels,
        m.dies_per_channel,
        s.dies,
        m.fidelity,
        s.ops,
        s.reads,
        s.writes,
        s.iops() / 1e3,
        s.makespan_us / 1e3,
        s.latency_p50_us,
        s.latency_p99_us,
        s.latency_mean_us,
        m.mean_block_rber,
        s.corrected_bits,
        s.uncorrectable_reads,
        s.recovered_reads,
        s.recovery_steps,
        s.recovery_reads,
        s.uber,
        s.background_us / 1e3,
        hottest,
        totals.host_writes,
        totals.gc_writes,
        totals.refresh_writes,
        totals.erases,
        s.data_digest,
    )
}
