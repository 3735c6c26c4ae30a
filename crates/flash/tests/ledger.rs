//! The per-block state every fidelity tier keeps — wear, retention clock,
//! read count, Vpass and programmed pages — and the bytes each tier
//! checkpoints.
//!
//! One random command sequence drives one chip per tier, and after every
//! step the three agree on everything but the tier-specific disturb dose. A
//! scripted history then pins `fnv1a(Chip::encode_state)` per tier, so a
//! change to any tier's checkpoint layout or arithmetic shows up here. An
//! erase is pre-wear by one cycle on every tier, and a checkpoint whose
//! block state contradicts itself is refused rather than restored — on the
//! closed-form tiers without restoring any of it. A hand-built
//! page-analytic checkpoint restores to the closed form at its lanes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_flash::analytic::ShiftPoint;
use rd_flash::NOMINAL_VPASS;
use rd_flash::{
    bits, wire, AnalyticModel, BlockStatus, Chip, ChipParams, FlashError, Geometry, ReadFidelity,
    SnapError,
};

const TIERS: [ReadFidelity; 3] =
    [ReadFidelity::CellExact, ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate];

fn geometry() -> Geometry {
    Geometry { blocks: 3, wordlines_per_block: 4, bitlines: 256, bits_per_cell: 2 }
}

/// One chip command, with addresses that may be one past the end.
#[derive(Debug, Clone)]
enum Op {
    Program { block: u32, page: u32, data: Vec<u8> },
    Erase { block: u32 },
    Cycle { block: u32, cycles: u64 },
    AdvanceDays { days: f64 },
    AdvanceBlockDays { block: u32, days: f64 },
    SetVpass { block: u32, vpass: f64 },
    Disturbs { block: u32, n: u64 },
    Hammer { block: u32, wordline: u32, n: u64 },
    Read { block: u32, page: u32 },
    Retry { block: u32, page: u32, shift: f64 },
}

impl Op {
    fn decode(draw: u64, params: &ChipParams) -> Self {
        let g = geometry();
        let mut pick = StdRng::seed_from_u64(draw);
        let block = pick.gen_range(0..=g.blocks);
        let page = pick.gen_range(0..=g.pages_per_block());
        let n = pick.gen_range(1..300_000u64);
        match pick.gen_range(0..10u32) {
            0 => {
                // Mostly a whole page, sometimes a short one; never empty
                // (an empty payload is the aggregate tier's canonical write).
                let data = if pick.gen_bool(0.85) {
                    bits::random(&mut pick, g.bits_per_page())
                } else {
                    vec![0u8; 3]
                };
                Op::Program { block, page, data }
            }
            1 => Op::Erase { block },
            2 => Op::Cycle { block, cycles: n % 5_000 },
            3 => Op::AdvanceDays { days: pick.gen_range(0.0..6.0) },
            4 => Op::AdvanceBlockDays { block, days: pick.gen_range(0.0..6.0) },
            5 => Op::SetVpass {
                block,
                vpass: pick.gen_range(params.min_vpass - 10.0..NOMINAL_VPASS + 5.0),
            },
            6 => Op::Disturbs { block, n },
            7 => Op::Hammer { block, wordline: page / 2, n },
            8 => Op::Read { block, page },
            _ => Op::Retry { block, page, shift: pick.gen_range(-12.0..12.0) },
        }
    }

    fn apply(&self, chip: &mut Chip) -> Result<(), FlashError> {
        match *self {
            Op::Program { block, page, ref data } => chip.program_page(block, page, data),
            Op::Erase { block } => chip.erase_block(block),
            Op::Cycle { block, cycles } => chip.cycle_block(block, cycles),
            Op::AdvanceDays { days } => {
                chip.advance_days(days);
                Ok(())
            }
            Op::AdvanceBlockDays { block, days } => chip.advance_block_days(block, days),
            Op::SetVpass { block, vpass } => chip.set_block_vpass(block, vpass),
            Op::Disturbs { block, n } => chip.apply_read_disturbs(block, n),
            Op::Hammer { block, wordline, n } => chip.hammer_wordline(block, wordline, n),
            Op::Read { block, page } => chip.read_page(block, page).map(drop),
            Op::Retry { block, page, shift } => chip.read_retry(block, page, shift).map(drop),
        }
    }
}

/// One block's status (dose masked), Vpass and programmed flags.
type Row =
    (Result<BlockStatus, FlashError>, Result<f64, FlashError>, Vec<Result<bool, FlashError>>);

/// What every tier must report alike, for every block and page including
/// one past the end: the status with the tier-specific dose masked, the
/// Vpass and the programmed flags.
fn ledger(chip: &Chip) -> Vec<Row> {
    let g = chip.geometry();
    (0..=g.blocks)
        .map(|block| {
            let status = chip.block_status(block).map(|s| BlockStatus { dose: 0.0, ..s });
            let pages = (0..=g.pages_per_block())
                .map(|page| chip.is_page_programmed(block, page))
                .collect();
            (status, chip.block_vpass(block), pages)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One random command sequence — out-of-range addresses, double
    /// programs, short payloads and out-of-range Vpass included — applied
    /// to one chip per tier: every step returns the same error, or none, on
    /// every tier and leaves the same ledger behind.
    #[test]
    fn tiers_agree_on_the_ledger(
        seed in any::<u64>(),
        draws in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let params = ChipParams::default();
        let mut chips: Vec<Chip> = TIERS
            .iter()
            .map(|&tier| Chip::with_fidelity(geometry(), params.clone(), seed, tier))
            .collect();
        for draw in draws {
            let op = Op::decode(draw, &params);
            let results: Vec<Result<(), FlashError>> =
                chips.iter_mut().map(|chip| op.apply(chip)).collect();
            let exact = ledger(&chips[0]);
            for (i, chip) in chips.iter().enumerate().skip(1) {
                prop_assert!(results[i] == results[0], "{} on {:?}", TIERS[i], op);
                prop_assert!(ledger(chip) == exact, "{} after {:?}", TIERS[i], op);
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A page of data drawn from `seed`.
fn page(seed: u64) -> Vec<u8> {
    bits::random(&mut StdRng::seed_from_u64(seed), Geometry::small().bits_per_page())
}

/// Wear, program, age, disturb, hammer, relax Vpass, read, erase — then
/// the checkpoint.
fn scripted_checkpoint(tier: ReadFidelity) -> Vec<u8> {
    let params = ChipParams::default();
    let min_vpass = params.min_vpass;
    let mut chip = Chip::with_fidelity(Geometry::small(), params, 2015, tier);
    chip.set_read_margin(Some(6));
    chip.cycle_block(0, 6_000).unwrap();
    chip.cycle_block(2, 900).unwrap();
    chip.program_block_random(0, 11).unwrap();
    for p in 0..5 {
        chip.program_page(1, p, &page(p.into())).unwrap();
    }
    chip.advance_days(9.0);
    chip.advance_block_days(1, 2.5).unwrap();
    chip.apply_read_disturbs(0, 400_000).unwrap();
    chip.hammer_wordline(0, 3, 120_000).unwrap();
    chip.set_block_vpass(0, min_vpass).unwrap();
    chip.apply_read_disturbs(0, 50_000).unwrap();
    for p in 0..6 {
        chip.read_page(0, p).unwrap();
        chip.read_page_counts(1, p).unwrap();
    }
    chip.read_retry(0, 7, 8.0).unwrap();
    chip.read_retry_counts(1, 2, -4.0).unwrap();
    chip.set_block_vpass(0, NOMINAL_VPASS).unwrap();
    chip.erase_block(1).unwrap();
    chip.program_page(1, 0, &page(99)).unwrap();
    let mut w = wire::Writer::new();
    chip.encode_state(&mut w);
    w.into_bytes()
}

/// Each tier's checkpoint bytes after [`scripted_checkpoint`]'s history:
/// the layout, and every value in it, stay as recorded.
#[test]
fn checkpoint_bytes_are_pinned_per_tier() {
    const PINNED: [(ReadFidelity, u64); 3] = [
        (ReadFidelity::CellExact, 0x9bb0_8ffe_d567_eb6d),
        (ReadFidelity::PageAnalytic, 0x3b36_9cd0_50e6_6ce2),
        (ReadFidelity::BlockAggregate, 0x327e_05bf_5824_ea60),
    ];
    let got: Vec<(ReadFidelity, u64)> =
        TIERS.iter().map(|&tier| (tier, fnv1a(&scripted_checkpoint(tier)))).collect();
    assert_eq!(
        got,
        PINNED,
        "{}",
        got.iter().map(|(tier, h)| format!("{tier}: {h:#018x}")).collect::<Vec<_>>().join(", ")
    );
}

/// A worn, programmed, aged, disturbed chip of `tier`: blocks 0 and 1 in
/// use, block 2 fresh.
fn used_chip(tier: ReadFidelity) -> Chip {
    let mut chip = Chip::with_fidelity(geometry(), ChipParams::default(), 33, tier);
    chip.set_read_margin(Some(8));
    chip.cycle_block(0, 4_000).unwrap();
    chip.program_block_random(0, 1).unwrap();
    chip.program_page(1, 0, &bits::random(&mut StdRng::seed_from_u64(2), 256)).unwrap();
    chip.advance_days(6.0);
    chip.apply_read_disturbs(0, 200_000).unwrap();
    chip.hammer_wordline(1, 0, 30_000).unwrap();
    chip.set_block_vpass(0, chip.params().min_vpass).unwrap();
    chip.read_page(0, 3).unwrap();
    chip
}

fn encoded(chip: &Chip) -> Vec<u8> {
    let mut w = wire::Writer::new();
    chip.encode_state(&mut w);
    w.into_bytes()
}

/// On every tier, erasing a block and pre-wearing it by one cycle leave
/// twin chips with the same checkpoint bytes and the same next reads.
#[test]
fn erase_is_pre_wear_by_one() {
    for tier in TIERS {
        for block in 0..geometry().blocks {
            let (mut erased, mut cycled) = (used_chip(tier), used_chip(tier));
            erased.erase_block(block).unwrap();
            cycled.cycle_block(block, 1).unwrap();
            assert_eq!(encoded(&erased), encoded(&cycled), "{tier}, block {block}");
            for chip in [&mut erased, &mut cycled] {
                chip.program_block_random(block, 7).unwrap();
            }
            for page in 0..geometry().pages_per_block() {
                let reads = [&mut erased, &mut cycled]
                    .map(|chip| chip.read_page_counts(block, page).unwrap());
                assert_eq!(reads[0], reads[1], "{tier}, block {block}, page {page}");
            }
            assert_eq!(encoded(&erased), encoded(&cycled), "{tier}, block {block}");
        }
    }
}

/// The head of a snapshot: fidelity tag, a non-zero RNG state, no margin.
fn snapshot_head(tier: ReadFidelity) -> wire::Writer {
    let mut w = wire::Writer::new();
    w.put_u8(tier.tag());
    for word in 1..=4u64 {
        w.put_u64(word);
    }
    w.put_bool(false);
    w
}

fn restore(tier: ReadFidelity, snapshot: wire::Writer) -> Result<(), SnapError> {
    let mut chip = Chip::with_fidelity(geometry(), ChipParams::default(), 1, tier);
    chip.restore_state(&mut wire::Reader::new(&snapshot.into_bytes()))
}

/// One block of a hand-built page-analytic checkpoint: its ledger row,
/// its disturb accumulator and wordline adjustments, and its payloads.
#[derive(Debug, Clone)]
struct AnalyticRow {
    pe_cycles: u64,
    age_days: f64,
    vpass: f64,
    programmed: Vec<bool>,
    /// Bytes of each programmed page's payload.
    payload_len: Vec<usize>,
    lin: f64,
    extra: Vec<f64>,
}

impl AnalyticRow {
    /// A fresh, unprogrammed block of [`geometry`].
    fn fresh() -> Self {
        let g = geometry();
        let (pages, wordlines) = (g.pages_per_block() as usize, g.wordlines_per_block as usize);
        Self {
            pe_cycles: 0,
            age_days: 0.0,
            vpass: NOMINAL_VPASS,
            programmed: vec![false; pages],
            payload_len: vec![g.bits_per_page() / 8; pages],
            lin: 0.0,
            extra: vec![0.0; wordlines],
        }
    }
}

/// A page-analytic snapshot of `rows`, one per block, in the ledger's lane
/// layout: the P/E, age, reads and Vpass lanes, the accumulator lane, the
/// flat wordline lane and the payloads, then the page flags and counts.
fn analytic_snapshot(rows: &[AnalyticRow]) -> wire::Writer {
    let mut w = snapshot_head(ReadFidelity::PageAnalytic);
    let lane = |of: fn(&AnalyticRow) -> f64| rows.iter().map(of).collect::<Vec<_>>();
    w.put_u64s(&rows.iter().map(|row| row.pe_cycles).collect::<Vec<_>>());
    w.put_f64s(&lane(|row| row.age_days));
    w.put_u64s(&vec![0; rows.len()]); // reads since erase
    w.put_f64s(&lane(|row| row.vpass));
    w.put_f64s(&lane(|row| row.lin));
    w.put_f64s(&rows.iter().flat_map(|row| row.extra.iter().copied()).collect::<Vec<_>>());
    for row in rows {
        for (&programmed, &len) in row.programmed.iter().zip(&row.payload_len) {
            w.put_bytes(&vec![0xa5; if programmed { len } else { 0 }]);
        }
    }
    w.put_bools(&rows.iter().flat_map(|row| row.programmed.iter().copied()).collect::<Vec<_>>());
    let counts = rows.iter().map(|row| row.programmed.iter().filter(|&&p| p).count() as u32);
    w.put_u32s(&counts.collect::<Vec<_>>());
    w
}

/// A page-analytic snapshot whose one programmed page carries a 1-byte
/// payload on a 256-bitline chip is refused; restored, its next read would
/// index past the payload.
#[test]
fn analytic_payloads_must_be_one_page_long() {
    let snapshot = |payload_len: usize| {
        let mut rows = vec![AnalyticRow::fresh(); geometry().blocks as usize];
        rows[0].programmed[0] = true;
        rows[0].payload_len[0] = payload_len;
        analytic_snapshot(&rows)
    };
    let page_bytes = geometry().bits_per_page() / 8;
    assert_eq!(restore(ReadFidelity::PageAnalytic, snapshot(page_bytes)), Ok(()));
    assert!(matches!(
        restore(ReadFidelity::PageAnalytic, snapshot(1)),
        Err(SnapError::Mismatch(_))
    ));
}

/// A hand-built page-analytic checkpoint restores to the closed form at
/// its lanes: the dose is the block accumulator `lin`, and the block RBER
/// is the closed form at every wordline's `lin + extra`.
#[test]
fn restored_analytic_lanes_read_as_the_closed_form() {
    let g = geometry();
    let params = ChipParams::default();
    let model = AnalyticModel::from_chip(&params, g.wordlines_per_block);
    let mut rows = vec![AnalyticRow::fresh(); g.blocks as usize];
    for (b, row) in rows.iter_mut().enumerate() {
        row.pe_cycles = 6_000 + 1_500 * b as u64;
        row.age_days = 12.5 + b as f64;
        row.vpass = (0.99 - 0.02 * b as f64) * NOMINAL_VPASS;
        row.programmed = (0..g.pages_per_block()).map(|p| b == 0 || p % 3 != 1).collect();
        row.lin = 2.0e-3 * (b + 1) as f64;
        row.extra = vec![-1.0e-4, 3.0e-4, 0.0, 2.0e-4 * b as f64];
    }
    let mut chip = Chip::with_fidelity(g, params.clone(), 1, ReadFidelity::PageAnalytic);
    chip.restore_state(&mut wire::Reader::new(&analytic_snapshot(&rows).into_bytes())).unwrap();
    let close = |got: f64, expected: f64| (got / expected - 1.0).abs() < 1e-12;
    let rd_sat = model.params().rd_sat;
    for (b, row) in rows.iter().enumerate() {
        let (pe, age, vpass) = (row.pe_cycles, row.age_days, row.vpass);
        let status = chip.block_status(b as u32).unwrap();
        assert!(close(status.dose, row.lin), "block {b}: dose {} vs {}", status.dose, row.lin);
        let point = ShiftPoint::at(&params, &model, pe, age, 0.0);
        let blocked = 2.0 * model.rber_passthrough(pe, age, vpass);
        let (mut expected, mut bits) = (0.0, 0.0);
        for wl in 0..g.wordlines_per_block as usize {
            let lin = row.lin + row.extra[wl];
            let rd = rd_sat * (lin.max(0.0) / rd_sat).ln_1p();
            let pages = (0..2).filter(|&i| row.programmed[2 * wl + i]).count() as f64;
            expected += (point.rber(rd) + 0.5 * blocked) * pages * f64::from(g.bitlines);
            bits += pages * f64::from(g.bitlines);
        }
        let rate = chip.block_rber_rate(b as u32).unwrap();
        assert!(close(rate, expected / bits), "block {b}: rate {rate} vs {}", expected / bits);
    }
}

/// A closed-form restore commits nothing unless the whole snapshot
/// decodes and fits: a snapshot cut at every third byte, or (page-analytic)
/// one whose last block carries a payload one byte short, is refused, and
/// the chip restored into keeps its checkpoint bytes.
#[test]
fn closed_form_restores_are_all_or_nothing() {
    for tier in [ReadFidelity::PageAnalytic, ReadFidelity::BlockAggregate] {
        let mut source = used_chip(tier);
        source.erase_block(1).unwrap();
        source.program_block_random(2, 4).unwrap();
        source.apply_read_disturbs(2, 70_000).unwrap();
        let snapshot = encoded(&source);
        let mut target = Chip::with_fidelity(geometry(), ChipParams::default(), 9, tier);
        target.cycle_block(1, 300).unwrap();
        target.program_block_random(1, 5).unwrap();
        let before = encoded(&target);
        for cut in (0..snapshot.len()).step_by(3) {
            let result = target.restore_state(&mut wire::Reader::new(&snapshot[..cut]));
            assert!(result.is_err(), "{tier}: a snapshot cut at byte {cut} restored");
            assert_eq!(encoded(&target), before, "{tier}: a cut at byte {cut} left state behind");
        }
        if tier == ReadFidelity::PageAnalytic {
            let mut rows = vec![AnalyticRow::fresh(); geometry().blocks as usize];
            for row in &mut rows {
                row.programmed[0] = true;
            }
            rows.last_mut().unwrap().payload_len[0] -= 1;
            let short = analytic_snapshot(&rows).into_bytes();
            let result = target.restore_state(&mut wire::Reader::new(&short));
            assert!(matches!(result, Err(SnapError::Mismatch(_))), "{result:?}");
            assert_eq!(encoded(&target), before, "{tier}: a short payload left state behind");
        }
        target.restore_state(&mut wire::Reader::new(&snapshot)).unwrap();
        assert_eq!(encoded(&target), snapshot, "{tier}");
    }
}

/// A block-aggregate snapshot whose programmed-page count says 0 while a
/// page flag is set is refused; restored, the chip would report
/// `programmed_pages: 0` for a block with a programmed page.
#[test]
fn aggregate_programmed_counts_must_match_the_flags() {
    let g = geometry();
    let n = g.blocks as usize;
    let snapshot = |count: u32| {
        let mut w = snapshot_head(ReadFidelity::BlockAggregate);
        w.put_u64s(&vec![0; n]); // P/E cycles
        w.put_f64s(&vec![0.0; n]); // age
        w.put_u64s(&vec![0; n]); // reads since erase
        w.put_f64s(&vec![NOMINAL_VPASS; n]);
        for _ in 0..4 {
            w.put_f64s(&vec![0.0; n]); // lin, slope, static RBER, blocked
        }
        w.put_u64s(&vec![0; n]); // summary errors
        w.put_u64s(&vec![0; n]); // summary horizon
        w.put_bools(&vec![false; n]); // sampling
        let mut flags = vec![false; n * g.pages_per_block() as usize];
        flags[0] = true;
        w.put_bools(&flags);
        let mut counts = vec![0u32; n];
        counts[0] = count;
        w.put_u32s(&counts);
        w
    };
    assert_eq!(restore(ReadFidelity::BlockAggregate, snapshot(1)), Ok(()));
    assert!(matches!(
        restore(ReadFidelity::BlockAggregate, snapshot(0)),
        Err(SnapError::Mismatch(_))
    ));
}
