//! Fleet driver: N varied drives advanced through epoch-granular lifetime
//! phases, with a versioned binary checkpoint of the whole fleet.
//!
//! Each epoch every drive serves one burst of host traffic (a seeded
//! [`rd_workloads`] trace replayed on the engine clock), then dwells for
//! the epoch's retention window (`advance_time`, which also charges
//! refresh/relocation background work). After the dwell the driver applies
//! the replacement policy: a drive whose worst block crossed its sampled
//! endurance rating — or whose lifetime uncorrectable count crossed the
//! configured ceiling — is retired, its counters folded into the slot's
//! retired ledger, and a fresh drive (next generation, freshly sampled
//! variation, decorrelated RNG streams) takes the slot.
//!
//! The drives of an epoch advance concurrently, one per worker thread, and
//! the replacement policy runs once they are all done. Everything is a
//! deterministic function of [`FleetConfig`]: the same config produces
//! bit-identical fleet rows at any worker-thread count, and a run resumed
//! from a checkpoint is bit-identical to one that never stopped.

use crate::variation::{drive_seed, sample_drive, traffic_seed, VariationSpread};
use rd_engine::wire::{self, Reader, Writer};
use rd_engine::{
    fnv1a, Engine, EngineConfig, ReadFidelity, SnapError, Timing, Topology, FNV_OFFSET,
};
use rd_flash::Geometry;
use rd_ftl::{SsdConfig, SsdStats};
use rd_workloads::WorkloadProfile;
use std::sync::Mutex;

/// Container magic of a fleet checkpoint (see [`rd_ftl::wire`]).
pub const FLEET_SNAP_MAGIC: &[u8; 8] = b"RDFLTSNP";
/// Current fleet checkpoint format version.
pub const FLEET_SNAP_VERSION: u32 = 1;

/// Section tags inside the fleet container.
const SEC_CONFIG: u32 = 1;
const SEC_STATE: u32 = 2;

/// Full description of a fleet run. The checkpoint serializes every field
/// (chip parameters excluded — drives always vary around the calibrated
/// [`rd_flash::ChipParams::default`] set at the configured fidelity, so
/// `rd-fleet resume` needs no flags).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Drive slots in the fleet.
    pub drives: u32,
    /// Master seed: drive variation, RNG streams, and traffic all derive
    /// from it.
    pub seed: u64,
    /// Retention dwell per epoch, in days (also drives refresh scheduling).
    pub epoch_days: f64,
    /// Host trace operations replayed per drive per epoch.
    pub ops_per_epoch: u64,
    /// Workload profile name (see [`WorkloadProfile::suite`]).
    pub profile: String,
    /// Per-drive manufacturing variation spread.
    pub spread: VariationSpread,
    /// Nominal endurance rating in P/E cycles; each drive's actual rating
    /// is this scaled by its sampled endurance factor.
    pub endurance_pe: u64,
    /// Retire a drive once its lifetime uncorrectable-read count reaches
    /// this ceiling (0 disables the criterion).
    pub replace_uncorrectable: u64,
    /// Per-drive engine template. `die.chip_params` is treated as the base
    /// the variation scales; `die.seed` is the base seed each drive's
    /// streams derive from.
    pub engine: EngineConfig,
}

impl FleetConfig {
    /// A small fleet for tests and smoke runs: four 2×2-die drives at the
    /// aggregate fidelity tier, low endurance so replacement kicks in
    /// within a short trajectory.
    pub fn quick() -> Self {
        Self {
            drives: 4,
            seed: 2015,
            epoch_days: 30.0,
            ops_per_epoch: 20_000,
            profile: "write-heavy".to_string(),
            spread: VariationSpread::moderate(),
            endurance_pe: 200,
            replace_uncorrectable: 0,
            engine: EngineConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate),
        }
    }

    /// Validates the configuration, engine template included
    /// ([`EngineConfig::check`]). [`Fleet::restore`] runs a config decoded
    /// from checkpoint bytes through this, so nothing here may panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.drives == 0 {
            return Err("fleet needs at least one drive".into());
        }
        if self.ops_per_epoch == 0 {
            return Err("ops_per_epoch must be at least 1".into());
        }
        if !self.epoch_days.is_finite() || self.epoch_days <= 0.0 {
            return Err("epoch_days must be positive".into());
        }
        if self.endurance_pe == 0 {
            return Err("endurance_pe must be at least 1".into());
        }
        if WorkloadProfile::by_name(&self.profile).is_none() {
            return Err(format!("unknown workload profile '{}'", self.profile));
        }
        self.engine.check()
    }
}

/// One aggregated fleet sample, emitted after every epoch. Wall-clock free
/// and bit-reproducible: two runs of the same config produce identical
/// rows, including the digest.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// Epochs completed when this row was sampled (1-based).
    pub epoch: u32,
    /// Drive slots in the fleet.
    pub drives: u32,
    /// Fleet-wide uncorrectable bit error rate over all host reads served
    /// by current and retired drives (page size cancels; see
    /// [`SsdStats::uber`]).
    pub fleet_uber: f64,
    /// Refresh amplification: background relocation writes (refresh +
    /// policy reclaim) per host write, fleet-wide.
    pub refresh_amp: f64,
    /// Write amplification factor fleet-wide (host + GC + background over
    /// host writes).
    pub waf: f64,
    /// Cumulative drive replacements since the fleet was born.
    pub replacements: u64,
    /// Cumulative uncorrectable host reads fleet-wide.
    pub uncorrectable: u64,
    /// Cumulative host reads served fleet-wide.
    pub host_reads: u64,
    /// Cumulative host writes served fleet-wide.
    pub host_writes: u64,
    /// FNV-1a fold of every slot's retired-drive digests and its live
    /// drive's data digest — the fleet's reproducibility fingerprint.
    pub digest: u64,
}

impl FleetRow {
    /// Renders the row as one self-describing JSON object. The digest is a
    /// hex string (JSON numbers lose precision past 2^53).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"row\":\"fleet\",\"epoch\":{},\"drives\":{},",
                "\"fleet_uber\":{:e},\"refresh_amp\":{},\"waf\":{},",
                "\"replacements\":{},\"uncorrectable\":{},",
                "\"host_reads\":{},\"host_writes\":{},\"digest\":\"{:016x}\"}}"
            ),
            self.epoch,
            self.drives,
            self.fleet_uber,
            self.refresh_amp,
            self.waf,
            self.replacements,
            self.uncorrectable,
            self.host_reads,
            self.host_writes,
            self.digest,
        )
    }
}

/// One slot in the fleet: the live drive plus the folded ledger of every
/// drive retired from this slot.
struct DriveSlot {
    /// How many drives this slot has seen (0 = the original drive).
    generation: u32,
    /// The live drive's sampled endurance rating (P/E cycles).
    endurance_pe: u64,
    /// The live drive.
    engine: Engine,
    /// Folded counters of retired predecessors.
    retired: SsdStats,
    /// FNV-1a fold of retired predecessors' data digests.
    retired_digest: u64,
}

/// Builds the (slot, generation) drive: the engine template with this
/// drive's sampled chip parameters and a decorrelated base seed. Pure in
/// (config, slot, generation), which is what lets checkpoints skip
/// serializing any per-drive parameters.
fn build_drive(config: &FleetConfig, slot: u32, generation: u32) -> Result<(Engine, u64), String> {
    let v = sample_drive(
        &config.engine.die.chip_params,
        &config.spread,
        config.seed,
        slot,
        generation,
        config.endurance_pe,
    );
    let mut ec = config.engine.clone();
    ec.die.chip_params = v.chip_params;
    ec.die.seed = config.engine.die.seed ^ drive_seed(config.seed, slot, generation);
    let engine = Engine::new(ec).map_err(|e| format!("drive {slot}.{generation}: {e:?}"))?;
    Ok((engine, v.endurance_pe))
}

/// Sums the per-die FTL counters of a live drive.
fn live_stats(engine: &Engine) -> SsdStats {
    let mut total = SsdStats::default();
    for die in 0..engine.config().topology.dies() {
        total += engine.die(die).stats();
    }
    total
}

/// True once any block of the drive crossed its endurance rating.
fn wearout(engine: &Engine, endurance_pe: u64) -> bool {
    let blocks = engine.config().die.geometry.blocks;
    for die in 0..engine.config().topology.dies() {
        let chip = engine.die(die).chip();
        for block in 0..blocks {
            if chip.block_status(block).map(|s| s.pe_cycles).unwrap_or(0) >= endurance_pe {
                return true;
            }
        }
    }
    false
}

/// The fleet driver. See the module docs for the lifetime-phase loop.
pub struct Fleet {
    config: FleetConfig,
    epochs_done: u32,
    replacements: u64,
    slots: Vec<DriveSlot>,
}

impl Fleet {
    /// Builds a fresh fleet: `config.drives` generation-0 drives, each with
    /// its own sampled variation.
    pub fn new(config: FleetConfig) -> Result<Self, String> {
        config.validate()?;
        let mut slots = Vec::with_capacity(config.drives as usize);
        for slot in 0..config.drives {
            let (engine, endurance_pe) = build_drive(&config, slot, 0)?;
            slots.push(DriveSlot {
                generation: 0,
                endurance_pe,
                engine,
                retired: SsdStats::default(),
                retired_digest: FNV_OFFSET,
            });
        }
        Ok(Self { config, epochs_done: 0, replacements: 0, slots })
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Cumulative drive replacements.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Advances the whole fleet by one epoch (traffic burst, retention
    /// dwell, replacement policy) and returns the post-epoch row.
    ///
    /// `threads` drives advance concurrently (0 = one per available core),
    /// the calling thread among them: each worker takes the next drive off
    /// a shared queue, generates its trace, replays it inline and runs its
    /// dwell. After the join the calling thread applies the replacement
    /// policy and builds the row, slot by slot. A drive's epoch reads only
    /// the config, its own slot and the epoch number, and writes only its
    /// own slot, so `threads` does not affect any result bit.
    pub fn epoch(&mut self, threads: usize) -> FleetRow {
        let profile = WorkloadProfile::by_name(&self.config.profile)
            .expect("profile validated at construction");
        // Every drive draws from the same popularity tables; each reseeded
        // copy redraws only its rank permutation.
        let tables = profile.generator(0, self.config.engine.die.geometry.pages_per_block());
        let (config, epoch) = (&self.config, self.epochs_done);
        let workers = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
        .min(self.slots.len());
        let queue = Mutex::new(self.slots.iter_mut().enumerate());
        let drain = || loop {
            let next = queue.lock().expect("drive queue lock poisoned").next();
            let Some((i, slot)) = next else { break };
            let tseed = traffic_seed(config.seed, i as u32, slot.generation, epoch);
            let trace = tables.reseeded(tseed).take(config.ops_per_epoch as usize);
            slot.engine.replay_unreported(trace, 1);
            slot.engine.advance_time(config.epoch_days).expect("epoch dwell on a validated config");
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(drain);
            }
            drain();
        });
        self.epochs_done += 1;
        self.apply_replacement_policy();
        self.row()
    }

    /// Retires drives past their endurance rating or uncorrectable
    /// ceiling; their counters and digest fold into the slot ledger and a
    /// next-generation drive takes the slot.
    fn apply_replacement_policy(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let live = live_stats(&slot.engine);
            let worn = wearout(&slot.engine, slot.endurance_pe);
            let lifetime_uncorrectable =
                slot.retired.uncorrectable_reads + live.uncorrectable_reads;
            let failed = self.config.replace_uncorrectable > 0
                && lifetime_uncorrectable >= self.config.replace_uncorrectable;
            if !(worn || failed) {
                continue;
            }
            slot.retired += live;
            let digest = slot.engine.data_digest();
            slot.retired_digest = fnv1a(slot.retired_digest, &digest.to_le_bytes());
            let next = slot.generation + 1;
            let (engine, endurance_pe) = build_drive(&self.config, i as u32, next)
                .expect("replacement drive from a validated config");
            slot.generation = next;
            slot.endurance_pe = endurance_pe;
            slot.engine = engine;
            self.replacements += 1;
        }
    }

    /// Aggregates the current fleet state into a row (cumulative over live
    /// and retired drives).
    pub fn row(&self) -> FleetRow {
        let mut total = SsdStats::default();
        let mut digest = FNV_OFFSET;
        for slot in &self.slots {
            total += slot.retired;
            total += live_stats(&slot.engine);
            digest = fnv1a(digest, &slot.retired_digest.to_le_bytes());
            digest = fnv1a(digest, &slot.engine.data_digest().to_le_bytes());
        }
        let refresh_amp = if total.host_writes == 0 {
            0.0
        } else {
            (total.refresh_writes + total.reclaim_writes) as f64 / total.host_writes as f64
        };
        FleetRow {
            epoch: self.epochs_done,
            drives: self.config.drives,
            fleet_uber: total.uber(),
            refresh_amp,
            waf: total.waf(),
            replacements: self.replacements,
            uncorrectable: total.uncorrectable_reads,
            host_reads: total.host_reads,
            host_writes: total.host_writes,
            digest,
        }
    }

    /// Runs `epochs` further epochs, invoking `on_row` after each, and
    /// returns all rows. Each epoch advances `threads` drives at a time
    /// (0 = one per available core; see [`Fleet::epoch`]).
    pub fn run(
        &mut self,
        epochs: u32,
        threads: usize,
        mut on_row: impl FnMut(&FleetRow),
    ) -> Vec<FleetRow> {
        let mut rows = Vec::with_capacity(epochs as usize);
        for _ in 0..epochs {
            let row = self.epoch(threads);
            on_row(&row);
            rows.push(row);
        }
        rows
    }

    /// Serializes the whole fleet — config and every drive — into one
    /// versioned container. A fleet restored from these bytes continues
    /// bit-identically to one that never checkpointed.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        // Engine snapshots are fallible (undrained queues); collect them
        // before committing any section bytes.
        let engines: Vec<Vec<u8>> =
            self.slots.iter().map(|s| s.engine.snapshot()).collect::<Result<_, _>>()?;
        let mut payload = Writer::new();
        payload.section(SEC_CONFIG, |w| encode_config(&self.config, w));
        payload.section(SEC_STATE, |w| {
            w.put_u32(self.epochs_done);
            w.put_u64(self.replacements);
            w.put_u32(self.slots.len() as u32);
            for (slot, engine_bytes) in self.slots.iter().zip(&engines) {
                w.put_u32(slot.generation);
                w.put_u64(slot.endurance_pe);
                slot.retired.encode_state(w);
                w.put_u64(slot.retired_digest);
                w.put_bytes(engine_bytes);
            }
        });
        Ok(wire::seal(FLEET_SNAP_MAGIC, FLEET_SNAP_VERSION, &payload.into_bytes()))
    }

    /// Reconstructs a fleet from checkpoint bytes. The config travels in
    /// the checkpoint, so no external state is needed; per-drive variation
    /// is re-derived from (seed, slot, generation) and each engine is
    /// restored in place.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapError> {
        let payload = wire::open(bytes, FLEET_SNAP_MAGIC, FLEET_SNAP_VERSION)?;
        let mut r = Reader::new(payload);

        let mut cfg = r.section(SEC_CONFIG)?;
        let config = decode_config(&mut cfg)?;
        if !cfg.is_empty() {
            return Err(SnapError::Mismatch("trailing bytes in config section".into()));
        }
        config.validate().map_err(SnapError::Mismatch)?;

        let mut st = r.section(SEC_STATE)?;
        let epochs_done = st.get_u32()?;
        let replacements = st.get_u64()?;
        let n = st.get_u32()?;
        if n != config.drives {
            return Err(SnapError::Mismatch(format!(
                "checkpoint has {n} slots but config says {} drives",
                config.drives
            )));
        }
        let mut slots = Vec::with_capacity(n as usize);
        for slot in 0..n {
            let generation = st.get_u32()?;
            let endurance_pe = st.get_u64()?;
            let mut retired = SsdStats::default();
            retired.restore_state(&mut st)?;
            let retired_digest = st.get_u64()?;
            let engine_bytes = st.get_bytes()?;
            let (mut engine, _) =
                build_drive(&config, slot, generation).map_err(SnapError::Mismatch)?;
            engine.restore(&engine_bytes)?;
            slots.push(DriveSlot { generation, endurance_pe, engine, retired, retired_digest });
        }
        if !st.is_empty() {
            return Err(SnapError::Mismatch("trailing bytes in state section".into()));
        }
        if !r.is_empty() {
            return Err(SnapError::Mismatch("trailing bytes after state section".into()));
        }
        Ok(Self { config, epochs_done, replacements, slots })
    }
}

/// Serializes every config knob. Chip parameters travel as the chip's
/// database name (plus the configured fidelity tag), not as raw values —
/// restore re-resolves them from [`rd_flash::chips`].
fn encode_config(c: &FleetConfig, w: &mut Writer) {
    w.put_u32(c.drives);
    w.put_u64(c.seed);
    w.put_f64(c.epoch_days);
    w.put_u64(c.ops_per_epoch);
    w.put_bytes(c.profile.as_bytes());
    w.put_f64(c.spread.rber_sigma);
    w.put_f64(c.spread.retention_sigma);
    w.put_f64(c.spread.disturb_sigma);
    w.put_f64(c.spread.endurance_sigma);
    w.put_u64(c.endurance_pe);
    w.put_u64(c.replace_uncorrectable);
    let e = &c.engine;
    w.put_u32(e.topology.channels);
    w.put_u32(e.topology.dies_per_channel);
    w.put_u32(e.queue_depth);
    w.put_u32(e.die_index_offset);
    w.put_bool(e.capture_read_data);
    w.put_u32(e.die.geometry.blocks);
    w.put_u32(e.die.geometry.wordlines_per_block);
    w.put_u32(e.die.geometry.bitlines);
    w.put_f64(e.die.overprovision);
    w.put_u32(e.die.gc_free_threshold);
    w.put_f64(e.die.refresh_interval_days);
    w.put_f64(e.die.ecc_capability_rber);
    w.put_u64(e.die.seed);
    w.put_u8(e.die.chip_params.fidelity.tag());
    w.put_f64(e.timing.read_us);
    w.put_f64(e.timing.program_us);
    w.put_f64(e.timing.erase_us);
    w.put_f64(e.timing.xfer_us);
    w.put_bytes(e.die.chip.as_bytes());
}

/// Mirror of [`encode_config`].
fn decode_config(r: &mut Reader<'_>) -> Result<FleetConfig, SnapError> {
    let drives = r.get_u32()?;
    let seed = r.get_u64()?;
    let epoch_days = r.get_f64()?;
    let ops_per_epoch = r.get_u64()?;
    let profile = String::from_utf8(r.get_bytes()?)
        .map_err(|_| SnapError::Mismatch("profile name is not UTF-8".into()))?;
    let spread = VariationSpread {
        rber_sigma: r.get_f64()?,
        retention_sigma: r.get_f64()?,
        disturb_sigma: r.get_f64()?,
        endurance_sigma: r.get_f64()?,
    };
    let endurance_pe = r.get_u64()?;
    let replace_uncorrectable = r.get_u64()?;
    let topology = Topology { channels: r.get_u32()?, dies_per_channel: r.get_u32()? };
    let queue_depth = r.get_u32()?;
    let die_index_offset = r.get_u32()?;
    let capture_read_data = r.get_bool()?;
    let mut geometry = Geometry {
        blocks: r.get_u32()?,
        wordlines_per_block: r.get_u32()?,
        bitlines: r.get_u32()?,
        bits_per_cell: 2,
    };
    let overprovision = r.get_f64()?;
    let gc_free_threshold = r.get_u32()?;
    let refresh_interval_days = r.get_f64()?;
    let ecc_capability_rber = r.get_f64()?;
    let die_seed = r.get_u64()?;
    let tag = r.get_u8()?;
    let fidelity = ReadFidelity::from_tag(tag)
        .ok_or_else(|| SnapError::Mismatch(format!("unknown fidelity tag {tag}")))?;
    let timing = Timing {
        read_us: r.get_f64()?,
        program_us: r.get_f64()?,
        erase_us: r.get_f64()?,
        xfer_us: r.get_f64()?,
    };
    let chip_name = String::from_utf8(r.get_bytes()?)
        .map_err(|_| SnapError::Mismatch("chip name is not UTF-8".into()))?;
    let spec = rd_flash::chips::get(&chip_name).ok_or_else(|| {
        SnapError::Mismatch(format!("checkpoint names unknown chip `{chip_name}`"))
    })?;
    geometry.bits_per_cell = spec.params.bits_per_cell();
    let mut die = SsdConfig {
        chip: spec.name.to_string(),
        geometry,
        chip_params: spec.params,
        overprovision,
        gc_free_threshold,
        refresh_interval_days,
        ecc_capability_rber,
        seed: die_seed,
    };
    die.chip_params.fidelity = fidelity;
    Ok(FleetConfig {
        drives,
        seed,
        epoch_days,
        ops_per_epoch,
        profile,
        spread,
        endurance_pe,
        replace_uncorrectable,
        engine: EngineConfig {
            topology,
            die,
            timing,
            queue_depth,
            capture_read_data,
            die_index_offset,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        let mut c = FleetConfig::quick();
        c.drives = 2;
        c.ops_per_epoch = 2_000;
        c
    }

    #[test]
    fn identical_seeds_give_identical_curves() {
        let mut a = Fleet::new(tiny()).unwrap();
        let mut b = Fleet::new(tiny()).unwrap();
        let ra = a.run(3, 1, |_| {});
        let rb = b.run(3, 2, |_| {});
        assert_eq!(ra, rb, "fleet rows must not depend on thread count");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Fleet::new(tiny()).unwrap();
        let mut cfg = tiny();
        cfg.seed ^= 1;
        let mut b = Fleet::new(cfg).unwrap();
        let ra = a.run(2, 1, |_| {});
        let rb = b.run(2, 1, |_| {});
        assert_ne!(ra[1].digest, rb[1].digest);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut uninterrupted = Fleet::new(tiny()).unwrap();
        uninterrupted.run(4, 1, |_| {});

        let mut first = Fleet::new(tiny()).unwrap();
        first.run(2, 1, |_| {});
        let snap = first.snapshot().unwrap();
        let mut resumed = Fleet::restore(&snap).unwrap();
        resumed.run(2, 1, |_| {});

        assert_eq!(uninterrupted.row(), resumed.row());
        assert_eq!(uninterrupted.epochs_done(), resumed.epochs_done());
    }

    /// The epoch loop replays without building a report and reads each
    /// drive's digest directly. Twin drives driven the reporting way — one
    /// `EngineStats` per replay, the digest read out of another — must
    /// leave the same row, the same digest and the same checkpoint bytes.
    #[test]
    fn unreported_epochs_match_reporting_replays() {
        let config = tiny();
        let profile = WorkloadProfile::by_name(&config.profile).unwrap();
        let pages_per_block = config.engine.die.geometry.pages_per_block();
        let mut fleet = Fleet::new(config.clone()).unwrap();
        let mut twins: Vec<Engine> =
            (0..config.drives).map(|slot| build_drive(&config, slot, 0).unwrap().0).collect();
        for epoch in 0..3 {
            let row = fleet.epoch(1);
            assert_eq!(row.replacements, 0, "twins model generation 0 only");
            let mut digest = FNV_OFFSET;
            let mut total = SsdStats::default();
            for (slot, twin) in twins.iter_mut().enumerate() {
                let tseed = traffic_seed(config.seed, slot as u32, 0, epoch);
                let trace =
                    profile.generator(tseed, pages_per_block).take(config.ops_per_epoch as usize);
                let stats = twin.replay_stats_only(trace, 1);
                twin.advance_time(config.epoch_days).unwrap();
                assert_eq!(stats.data_digest, twin.data_digest());
                digest = fnv1a(digest, &FNV_OFFSET.to_le_bytes());
                digest = fnv1a(digest, &twin.stats().data_digest.to_le_bytes());
                total += live_stats(twin);
                assert_eq!(
                    fleet.slots[slot].engine.snapshot().unwrap(),
                    twin.snapshot().unwrap(),
                    "drive {slot} checkpoint bytes diverged at epoch {epoch}"
                );
            }
            assert_eq!(row.digest, digest, "fleet digest diverged at epoch {epoch}");
            assert_eq!((row.host_reads, row.host_writes), (total.host_reads, total.host_writes));
            assert_eq!(row.waf, total.waf());
        }
    }

    #[test]
    fn replacement_happens_and_resumes_across_generations() {
        let mut c = tiny();
        c.endurance_pe = 30; // force early wearout
        let mut fleet = Fleet::new(c.clone()).unwrap();
        let rows = fleet.run(6, 1, |_| {});
        assert!(rows.last().unwrap().replacements > 0, "endurance 30 must retire drives");

        // The ledger (retired stats + generations) survives a checkpoint.
        let snap = fleet.snapshot().unwrap();
        let mut resumed = Fleet::restore(&snap).unwrap();
        let mut reference = Fleet::new(c).unwrap();
        reference.run(8, 1, |_| {});
        resumed.run(2, 1, |_| {});
        assert_eq!(reference.row(), resumed.row());
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let fleet = Fleet::new(tiny()).unwrap();
        let snap = fleet.snapshot().unwrap();
        assert_eq!(Fleet::restore(&snap[..10]).err(), Some(SnapError::Truncated));
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(Fleet::restore(&flipped).err(), Some(SnapError::BadCrc));
        let mut wrong_magic = snap.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(Fleet::restore(&wrong_magic).err(), Some(SnapError::BadMagic { .. })));
        // Restore validates the decoded config: an engine template no drive
        // can be built from must come back as an error, not unwind — the
        // rows `Chip::new` asserts included.
        type Break = fn(&mut EngineConfig);
        let cases: [(Break, &str); 6] = [
            (|e| e.queue_depth = 0, "queue depth"),
            // A die count that wraps `u32` (2^32 + 2^16 dies).
            (
                |e| {
                    e.topology.channels = 65_536;
                    e.topology.dies_per_channel = 65_537;
                },
                "dies per channel overflow u32",
            ),
            // A die the packed page map cannot address, and a block whose
            // page count wraps `u32`: refused before anything is allocated
            // or indexed with them.
            (
                |e| {
                    e.die.geometry.blocks = 1 << 16;
                    e.die.geometry.wordlines_per_block = 1 << 15;
                },
                "exceed the page map",
            ),
            (|e| e.die.geometry.wordlines_per_block = 1 << 31, "overflow u32"),
            (
                |e| {
                    e.die = e.die.clone().with_chip("vb-tlc-64l").unwrap();
                    *e = e.clone().with_fidelity(ReadFidelity::CellExact);
                },
                "MLC-only",
            ),
            (|e| e.die.geometry.bitlines = 1004, "multiple of 8"),
        ];
        for (break_it, needle) in cases {
            let mut bad = tiny();
            break_it(&mut bad.engine);
            let mut payload = Writer::new();
            payload.section(SEC_CONFIG, |w| encode_config(&bad, w));
            let sealed = wire::seal(FLEET_SNAP_MAGIC, FLEET_SNAP_VERSION, &payload.into_bytes());
            match Fleet::restore(&sealed).err() {
                Some(SnapError::Mismatch(e)) => assert!(e.contains(needle), "{e}"),
                other => panic!("{needle}: expected a config mismatch, got {other:?}"),
            }
        }
        // A config section that ends before the chip name (how checkpoints
        // older than the chip database ended it) is truncated, not the
        // default chip.
        let mut w = Writer::new();
        encode_config(&tiny(), &mut w);
        let full = w.into_bytes();
        let chipless = &full[..full.len() - 8 - tiny().engine.die.chip.len()];
        let mut payload = Writer::new();
        payload.section(SEC_CONFIG, |w| w.put_raw(chipless));
        let sealed = wire::seal(FLEET_SNAP_MAGIC, FLEET_SNAP_VERSION, &payload.into_bytes());
        assert_eq!(Fleet::restore(&sealed).err(), Some(SnapError::Truncated));
    }

    #[test]
    fn row_json_is_self_describing() {
        let fleet = Fleet::new(tiny()).unwrap();
        let json = fleet.row().to_json();
        assert!(json.starts_with("{\"row\":\"fleet\""));
        assert!(json.contains("\"digest\":\""));
    }

    #[test]
    fn checkpoint_carries_non_default_chip() {
        let mut c = tiny();
        c.engine.die = c.engine.die.clone().with_chip("vb-tlc-64l").unwrap();
        c.engine = c.engine.with_fidelity(ReadFidelity::BlockAggregate);

        let mut uninterrupted = Fleet::new(c.clone()).unwrap();
        uninterrupted.run(4, 1, |_| {});

        let mut first = Fleet::new(c).unwrap();
        first.run(2, 1, |_| {});
        let snap = first.snapshot().unwrap();
        let resumed_config = Fleet::restore(&snap).unwrap();
        assert_eq!(resumed_config.config().engine.die.chip, "vb-tlc-64l");
        assert_eq!(resumed_config.config().engine.die.geometry.bits_per_cell, 3);

        let mut resumed = Fleet::restore(&snap).unwrap();
        resumed.run(2, 1, |_| {});
        assert_eq!(uninterrupted.row(), resumed.row());
    }
}
