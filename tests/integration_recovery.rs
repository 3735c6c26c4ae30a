//! The controller read pipeline end to end: ECC decode → read-retry →
//! disturb-aware re-read → uncorrectable, under escalating read-disturb
//! stress, on both fidelity tiers — plus bit-identical determinism of the
//! recovery path across engine worker-thread counts.

use readdisturb::ftl::{Die, FtlError, ReadResolution, RetrySweep, SsdConfig};
use readdisturb::prelude::*;
use readdisturb_repro::testsupport::over_seeds;

/// A per-die configuration whose ECC line (capability = 16 bit errors per
/// 2048-bit page) sits between the retry-recoverable error level and the
/// deep-disturb error level at 10K P/E, so every pipeline outcome is
/// reachable by turning the disturb knob.
fn staged_config(fidelity: ReadFidelity) -> SsdConfig {
    SsdConfig {
        chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
        geometry: Geometry { blocks: 16, wordlines_per_block: 8, bitlines: 2048, bits_per_cell: 2 },
        chip_params: ChipParams::default(),
        overprovision: 0.25,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 8.0e-3,
        seed: 77,
    }
    .with_fidelity(fidelity)
}

/// Rank of a resolution in the escalation order.
fn rank(read: &Result<readdisturb::ftl::HostRead, FtlError>) -> u8 {
    match read {
        Ok(r) => match &r.resolution {
            ReadResolution::Clean => 0,
            ReadResolution::Corrected { .. } => 1,
            ReadResolution::Recovered { .. } => 2,
            // Die::read surfaces exhausted ladders as FtlError::Uncorrectable,
            // but the variant is a legal resolution for pipeline consumers.
            ReadResolution::Uncorrectable { .. } => 3,
        },
        Err(FtlError::Uncorrectable { .. }) => 3,
        Err(e) => panic!("unexpected read error: {e}"),
    }
}

/// The chip seed of the single-die escalation tests. Whether a fresh
/// cell-exact page at 10K P/E decodes clean, and whether 600K reads leave
/// lpa 1 recoverable, is a property of one noise realization: both hold at
/// 70–90% of seeds 60..100, and at seed 78 under both normal samplers the
/// tier has used.
const ESCALATION_SEED: u64 = 78;

#[test]
fn escalation_order_clean_corrected_recovered_uncorrectable() {
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let mut die =
            Die::new(SsdConfig { seed: ESCALATION_SEED, ..staged_config(fidelity) }).unwrap();
        for b in 0..16 {
            die.chip_mut().cycle_block(b, 10_000).unwrap();
        }
        // Fresh pages at this wear level: at least one read decodes clean
        // (which page/read depends on the tier's error placement — the
        // analytic tier re-samples per read, so probe each page a few
        // times), and lpa 1 — the MSB page of wordline 0, where disturb
        // errors concentrate on the exact tier — is the escalation target.
        for lpa in 0..4 {
            die.write(lpa).unwrap();
        }
        let saw_clean = (0..4).any(|lpa| (0..8).any(|_| rank(&die.read(lpa)) == 0));
        assert!(saw_clean, "{fidelity}: no fresh page decoded clean");
        let block = die.read(1).unwrap().ppa.block;

        // Escalating disturb: one read per dose step, recording the rank.
        let mut ranks = Vec::new();
        for step in 0..24 {
            die.chip_mut().apply_read_disturbs(block, 250_000).unwrap();
            if step >= 12 {
                // Deep phase: add retention so no reference shift can fit
                // both the up-drifted ER/P1 and the down-leaked P2/P3.
                die.chip_mut().advance_block_days(block, 5.0).unwrap();
            }
            ranks.push(rank(&die.read(1)));
        }

        let first = |r: u8| ranks.iter().position(|&x| x == r);
        let (corrected, recovered, uncorrectable) = (first(1), first(2), first(3));
        assert!(
            corrected.is_some() && recovered.is_some() && uncorrectable.is_some(),
            "{fidelity}: escalation incomplete, ranks = {ranks:?}"
        );
        assert!(
            corrected < recovered && recovered < uncorrectable,
            "{fidelity}: escalation out of order, ranks = {ranks:?}"
        );

        // Recovery-step statistics follow the escalation.
        let stats = die.stats();
        assert!(stats.recovered_reads > 0, "{fidelity}: no recovered reads recorded");
        assert!(stats.uncorrectable_reads > 0, "{fidelity}: no loss events recorded");
        assert!(
            stats.recovery_steps >= stats.recovered_reads,
            "{fidelity}: every escalation engages at least one ladder step"
        );
        assert!(
            stats.recovery_reads >= stats.recovery_steps,
            "{fidelity}: every engaged step spends at least one flash read"
        );
        assert!(stats.uber() > 0.0 && stats.uber() < 1.0, "{fidelity}: uber = {}", stats.uber());
    }
}

#[test]
fn recovered_reads_report_their_ladder_steps() {
    let config = SsdConfig { seed: ESCALATION_SEED, ..staged_config(ReadFidelity::CellExact) };
    let mut die = Die::new(config).unwrap();
    for b in 0..16 {
        die.chip_mut().cycle_block(b, 10_000).unwrap();
    }
    die.write(0).unwrap();
    die.write(1).unwrap();
    let block = die.read(1).unwrap().ppa.block;
    die.chip_mut().apply_read_disturbs(block, 600_000).unwrap();
    let mut saw_recovered = false;
    for _ in 0..10 {
        if let Ok(r) = die.read(1) {
            if let ReadResolution::Recovered { steps } = &r.resolution {
                saw_recovered = true;
                // The successful rung reports its decodable error count
                // within capability; earlier rungs (if any) report None.
                let last = steps.last().expect("recovered implies a step");
                let errors = last.errors.expect("last step succeeded");
                assert!(errors <= die.ecc().capability());
                assert_eq!(errors, r.corrected_errors);
                assert!(last.reads_spent >= 1);
                for failed in &steps[..steps.len() - 1] {
                    assert!(failed.errors.is_none());
                }
            }
        }
    }
    assert!(saw_recovered, "disturb level never produced a recovered read");
}

/// The body of `escalation_order_clean_corrected_recovered_uncorrectable`
/// at chip seed `seed` on `fidelity`: whether a fresh page decodes clean and
/// lpa 1's reads then escalate Corrected → Recovered → Uncorrectable in that
/// order. The recovery counters' invariants are asserted at every seed.
fn escalates_in_order(seed: u64, fidelity: ReadFidelity) -> bool {
    let mut die = Die::new(SsdConfig { seed, ..staged_config(fidelity) }).unwrap();
    for b in 0..16 {
        die.chip_mut().cycle_block(b, 10_000).unwrap();
    }
    for lpa in 0..4 {
        die.write(lpa).unwrap();
    }
    let saw_clean = (0..4).any(|lpa| (0..8).any(|_| rank(&die.read(lpa)) == 0));
    let Ok(read) = die.read(1) else { return false };
    let block = read.ppa.block;
    let mut ranks = Vec::new();
    for step in 0..24 {
        die.chip_mut().apply_read_disturbs(block, 250_000).unwrap();
        if step >= 12 {
            die.chip_mut().advance_block_days(block, 5.0).unwrap();
        }
        ranks.push(rank(&die.read(1)));
    }
    let stats = die.stats();
    assert!(stats.recovery_steps >= stats.recovered_reads, "{fidelity}: {ranks:?}");
    assert!(stats.recovery_reads >= stats.recovery_steps, "{fidelity}: {ranks:?}");
    let first = |r: u8| ranks.iter().position(|&x| x == r);
    let (corrected, recovered, uncorrectable) = (first(1), first(2), first(3));
    saw_clean && corrected.is_some() && corrected < recovered && recovered < uncorrectable
}

/// `escalation_order_clean_corrected_recovered_uncorrectable` over chip
/// seeds 60..100 instead of at `ESCALATION_SEED`: on both tiers a fresh page
/// at 10K P/E decodes clean, and escalating disturb (then retention) walks
/// lpa 1 through Corrected, Recovered and Uncorrectable in that order. The
/// body passed at 36 of these 40 seeds and at 104 of seeds 0..120, all its
/// failures on the cell-exact tier; needing 20 of 40 fails a model passing
/// at 0.85 with probability below 1e-6 (`over_seeds`).
///
/// Physics: asserted over seeds.
#[test]
fn escalation_order_clean_corrected_recovered_uncorrectable_over_seeds() {
    over_seeds(60..100, 0.85, 0.5, |seed| {
        [ReadFidelity::CellExact, ReadFidelity::PageAnalytic]
            .into_iter()
            .all(|fidelity| escalates_in_order(seed, fidelity))
    });
}

/// The body of `recovered_reads_report_their_ladder_steps` at chip seed
/// `seed`: whether 600K disturbs leave lpa 1 recoverable by the ladder
/// within ten reads. What a recovered read reports of its ladder steps is
/// asserted at every seed.
fn recovers_within_ten_reads(seed: u64) -> bool {
    let config = SsdConfig { seed, ..staged_config(ReadFidelity::CellExact) };
    let mut die = Die::new(config).unwrap();
    for b in 0..16 {
        die.chip_mut().cycle_block(b, 10_000).unwrap();
    }
    die.write(0).unwrap();
    die.write(1).unwrap();
    let Ok(read) = die.read(1) else { return false };
    let block = read.ppa.block;
    die.chip_mut().apply_read_disturbs(block, 600_000).unwrap();
    let mut saw_recovered = false;
    for _ in 0..10 {
        if let Ok(r) = die.read(1) {
            if let ReadResolution::Recovered { steps } = &r.resolution {
                saw_recovered = true;
                let (last, failed) = steps.split_last().expect("recovered implies a step");
                let errors = last.errors.expect("last step succeeded");
                assert!(errors <= die.ecc().capability());
                assert_eq!(errors, r.corrected_errors);
                assert!(last.reads_spent >= 1);
                assert!(failed.iter().all(|step| step.errors.is_none()));
            }
        }
    }
    saw_recovered
}

/// `recovered_reads_report_their_ladder_steps` over chip seeds 60..100
/// instead of at `ESCALATION_SEED`: on the cell-exact tier, 600K disturbs on
/// a 10K-P/E block leave lpa 1 past ECC but within the recovery ladder's
/// reach. The body passed at 38 of these 40 seeds and at 102 of seeds
/// 0..120; needing 20 of 40 fails a model passing at 0.85 with probability
/// below 1e-6 (`over_seeds`).
///
/// Physics: asserted over seeds.
#[test]
fn recovered_reads_report_their_ladder_steps_over_seeds() {
    over_seeds(60..100, 0.85, 0.5, recovers_within_ten_reads);
}

/// The body of `rd-ftl`'s `retry_sweep_recovers_disturbed_page_on_all_tiers`
/// at chip seed `seed` on `fidelity`: whether, on a 10K-P/E block disturbed
/// a million times, a default retry sweep brings the first page that fails
/// capability 20 back under it.
fn retry_sweep_recovers(seed: u64, fidelity: ReadFidelity) -> bool {
    let geometry =
        Geometry { blocks: 2, wordlines_per_block: 16, bitlines: 2048, bits_per_cell: 2 };
    let mut chip = Chip::with_fidelity(geometry, ChipParams::default(), seed, fidelity);
    chip.cycle_block(0, 10_000).unwrap();
    chip.program_block_random(0, 5).unwrap();
    chip.apply_read_disturbs(0, 1_000_000).unwrap();
    let capability = 20;
    let failing = (0..geometry.pages_per_block())
        .find(|&page| chip.read_page(0, page).unwrap().stats.errors > capability);
    let Some(page) = failing else { return false };
    let attempt = RetrySweep::default().attempt(&mut chip, 0, page, capability).unwrap();
    assert!(attempt.reads_spent >= 1);
    attempt.errors.is_some_and(|errors| errors <= capability)
}

/// `retry_sweep_recovers_disturbed_page_on_all_tiers` over chip seeds 0..60
/// instead of at seed 101: at capability 20, above the wear level's
/// misprogram floor, a retry sweep recovers a disturb-dominated page on all
/// three tiers. The body passed at 37 of these 60 seeds and at 76 of seeds
/// 0..120, all its failures on the cell-exact tier; needing 18 of 60 fails a
/// model passing at 0.6 with probability below 1e-6 (`over_seeds`).
///
/// Physics: asserted over seeds.
#[test]
fn retry_sweep_recovers_disturbed_page_on_all_tiers_over_seeds() {
    over_seeds(0..60, 0.6, 0.3, |seed| {
        [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate]
            .into_iter()
            .all(|fidelity| retry_sweep_recovers(seed, fidelity))
    });
}

/// Pre-stresses every die of an engine so the replayed trace escalates
/// through the recovery ladder, then replays with `threads` workers.
fn stressed_replay(fidelity: ReadFidelity, threads: usize) -> EngineStats {
    let config = EngineConfig {
        topology: Topology { channels: 2, dies_per_channel: 2 },
        die: staged_config(fidelity),
        timing: Timing::default(),
        queue_depth: 8,
        capture_read_data: false,
        die_index_offset: 0,
    };
    let mut engine = Engine::new(config).unwrap();
    for d in 0..4 {
        let chip = engine.die_mut(d).chip_mut();
        for b in 0..16 {
            chip.cycle_block(b, 10_000).unwrap();
        }
    }
    for lpa in 0..engine.logical_pages() {
        engine.submit_write(lpa);
    }
    engine.run(threads);
    engine.drain_completions_into(&mut Vec::new());
    for d in 0..4 {
        let die = engine.die_mut(d);
        for b in die.valid_blocks() {
            die.chip_mut().apply_read_disturbs(b, 1_000_000).unwrap();
        }
    }
    let ops = WorkloadProfile::by_name("umass-web")
        .unwrap()
        .generator(2015, 16)
        .take(6_000)
        .collect::<Vec<_>>();
    engine.replay_stats_only(ops, threads)
}

#[test]
fn recovery_path_is_bit_identical_across_thread_counts_on_both_tiers() {
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let one = stressed_replay(fidelity, 1);
        let four = stressed_replay(fidelity, 4);
        assert!(
            one.recovered_reads > 0,
            "{fidelity}: the stressed replay never engaged the recovery ladder"
        );
        assert!(one.recovery_reads > 0 && one.background_us > 0.0);
        assert_eq!(one, four, "{fidelity}: recovery path diverged across thread counts");
    }
}

/// The reliability counters the read pipeline produces, in one comparable
/// row: `(digest, recovered, uncorrectable, recovery_reads, recovery_steps,
/// policy_probe_reads, corrected_bits)`.
type PipelineRow = (u64, u64, u64, u64, u64, u64, u64);

fn pipeline_row(stats: &EngineStats) -> PipelineRow {
    (
        stats.data_digest,
        stats.recovered_reads,
        stats.uncorrectable_reads,
        stats.recovery_reads,
        stats.recovery_steps,
        stats.totals().policy_probe_reads,
        stats.corrected_bits,
    )
}

/// A small worn, aged, pre-disturbed 2×2 PageAnalytic array (the
/// `hammer-recovery` benchmark shape in miniature) serving a read-mostly
/// trace with daily maintenance in between, under `policy`.
fn hammered_analytic_replay<P>(policy: P, threads: usize) -> EngineStats
where
    P: ControllerPolicy + Clone + Send + 'static,
{
    let die = SsdConfig {
        geometry: Geometry {
            blocks: 16,
            wordlines_per_block: 16,
            bitlines: 2048,
            bits_per_cell: 2,
        },
        ecc_capability_rber: 1.0e-3,
        ..staged_config(ReadFidelity::PageAnalytic)
    };
    let config = EngineConfig {
        topology: Topology { channels: 2, dies_per_channel: 2 },
        die,
        timing: Timing::default(),
        queue_depth: 8,
        capture_read_data: false,
        die_index_offset: 0,
    };
    let mut engine = Engine::with_policy(config, policy).unwrap();
    for d in 0..4 {
        let die = engine.die_mut(d);
        die.set_recovery_ladder(full_recovery_ladder());
        for b in 0..16 {
            die.chip_mut().cycle_block(b, 8_000).unwrap();
        }
    }
    for lpa in 0..engine.logical_pages() {
        engine.submit_write(lpa);
    }
    engine.run(threads);
    engine.drain_completions_into(&mut Vec::new());
    engine.advance_time(5.0).unwrap();
    for d in 0..4 {
        let die = engine.die_mut(d);
        for b in die.valid_blocks() {
            die.chip_mut().apply_read_disturbs(b, 300_000).unwrap();
        }
    }
    let ops = WorkloadProfile::by_name("umass-web")
        .unwrap()
        .generator(2015, 32)
        .take(12_000)
        .collect::<Vec<_>>();
    for day in ops.chunks(4_000) {
        engine.replay_stats_only(day.iter().copied(), threads);
        engine.advance_time(1.0).unwrap();
    }
    engine.stats()
}

/// Values recorded at commit 9f68a0e, before the count-first read path:
/// every read of this run then materialized, corrupted and re-compared a
/// full page. The count-only reads (ladder rungs, tuner probes, host reads
/// under a tick-only policy) must land on the same digest and counters.
/// Element 0, the data digest, was re-recorded twice, the same pages
/// reaching it under another fold each time: when the engine began folding
/// each decoded page eight bytes per round (`fold_page`) instead of byte by
/// byte with FNV-1a (it was 9709479594948248871), and when it began folding
/// the one word its chip recorded for the page when programming it (it was
/// 12543777059110965207). The six counters are 9f68a0e's.
#[test]
fn count_first_pipeline_matches_the_materializing_parent_under_vpass_tuning() {
    const PARENT: PipelineRow = (9372948417196246184, 2295, 328, 9279, 5171, 3515, 14980);
    for threads in [1, 2] {
        let stats = hammered_analytic_replay(VpassTuner::default(), threads);
        assert_eq!(pipeline_row(&stats), PARENT, "{threads} thread(s)");
        assert!(stats.recovered_reads > 0 && stats.uncorrectable_reads > 0);
        assert!(stats.totals().policy_probe_reads > 0);
    }
}

/// `ReadReclaim`'s host reads were once materialized for its hook to look
/// at; they are count-only now, as every policy's are, and must stay on the
/// digest and counters of that materializing branch (values recorded at
/// commit 9f68a0e; element 0, the data digest, re-recorded for the
/// eight-bytes-per-round page fold as above — it was 8218770412743587499 —
/// and for the recorded page digest — it was 9560771601823409599).
#[test]
fn request_observing_policy_keeps_the_materializing_read_branch() {
    const PARENT: PipelineRow = (1985846387163200756, 776, 7, 5301, 3146, 0, 14481);
    let stats = hammered_analytic_replay(ReadReclaim { read_threshold: 2_000 }, 2);
    assert_eq!(pipeline_row(&stats), PARENT);
    assert!(stats.totals().reclaims > 0, "the reclaim policy never fired");
    assert!(stats.recovery_reads > 0, "the ladder never engaged");
}
