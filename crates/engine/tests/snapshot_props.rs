//! Property suite for the engine checkpoint codec: encode→decode identity
//! over arbitrary engine states, and rejection (typed errors, never a
//! panic) of truncated, bit-flipped, and version-mismatched containers.

use proptest::prelude::*;
use rd_engine::{Engine, EngineConfig, ReadFidelity, SnapError, ENGINE_SNAP_MAGIC};
use rd_workloads::WorkloadProfile;

/// An engine in an "arbitrary" mid-life state: seeded geometry-default
/// array, `ops` trace operations of a seeded workload replayed through it,
/// at the chosen fidelity tier.
fn arbitrary_engine(seed: u64, ops: usize, fidelity_tag: u8) -> Engine {
    let fidelity = match fidelity_tag % 3 {
        0 => ReadFidelity::CellExact,
        1 => ReadFidelity::PageAnalytic,
        _ => ReadFidelity::BlockAggregate,
    };
    let mut config = EngineConfig::small_test().with_fidelity(fidelity);
    config.die.seed = seed;
    let mut engine = Engine::new(config).expect("engine");
    if ops > 0 {
        let profile = WorkloadProfile::by_name("write-heavy").expect("profile");
        let pages_per_block = engine.config().die.geometry.pages_per_block();
        let trace = profile.generator(seed ^ 0xA5A5, pages_per_block).take(ops);
        engine.replay_stats_only(trace, 1);
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot → restore → snapshot is the identity on the container
    /// bytes, for arbitrary seeds, op counts, and fidelity tiers — the
    /// restored engine is indistinguishable byte-for-byte from the one
    /// that wrote the checkpoint.
    #[test]
    fn round_trip_is_identity(seed in any::<u64>(), ops in 0usize..400, tier in 0u8..3) {
        let engine = arbitrary_engine(seed, ops, tier);
        let snap = engine.snapshot().expect("queues are drained");

        let mut config = EngineConfig::small_test().with_fidelity(match tier % 3 {
            0 => ReadFidelity::CellExact,
            1 => ReadFidelity::PageAnalytic,
            _ => ReadFidelity::BlockAggregate,
        });
        config.die.seed = seed;
        let mut restored = Engine::new(config).expect("engine");
        restored.restore(&snap).expect("restore a valid container");
        let second = restored.snapshot().expect("queues are drained");
        prop_assert_eq!(&snap, &second);
        prop_assert_eq!(
            restored.stats().data_digest,
            engine.stats().data_digest
        );
    }

    /// Any strict prefix of a container is rejected with a typed error —
    /// `Truncated` when even the header is gone, `BadCrc` once the
    /// misaligned trailer fails the checksum — and never panics.
    #[test]
    fn truncation_is_rejected(seed in any::<u64>(), ops in 0usize..200, cut in 0usize..10_000) {
        let engine = arbitrary_engine(seed, ops, 2);
        let snap = engine.snapshot().expect("snapshot");
        let cut = cut % snap.len();

        let mut config = EngineConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
        config.die.seed = seed;
        let mut victim = Engine::new(config).expect("engine");
        let err = victim.restore(&snap[..cut]).expect_err("truncated container accepted");
        match err {
            SnapError::Truncated | SnapError::BadCrc => {}
            other => prop_assert!(false, "unexpected error for cut {}: {:?}", cut, other),
        }
    }

    /// Any single bit flip is caught — by the magic check if it lands in
    /// the first 8 bytes, by the CRC everywhere else.
    #[test]
    fn bit_flips_are_rejected(seed in any::<u64>(), bit in 0usize..100_000) {
        let engine = arbitrary_engine(seed, 64, 2);
        let mut snap = engine.snapshot().expect("snapshot");
        let bit = bit % (snap.len() * 8);
        snap[bit / 8] ^= 1 << (bit % 8);

        let mut config = EngineConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
        config.die.seed = seed;
        let mut victim = Engine::new(config).expect("engine");
        let err = victim.restore(&snap).expect_err("corrupt container accepted");
        if bit / 8 < ENGINE_SNAP_MAGIC.len() {
            prop_assert!(matches!(err, SnapError::BadMagic { .. }), "{:?}", err);
        } else {
            prop_assert!(matches!(err, SnapError::BadCrc), "{:?}", err);
        }
    }

    /// A well-formed container (valid magic and CRC) of a future format
    /// version is refused with `BadVersion` — not misparsed, not a panic.
    #[test]
    fn version_mismatch_is_a_typed_error(version in 2u32..=u32::MAX, junk in 0usize..256) {
        let payload = vec![0xABu8; junk];
        let snap = rd_engine::wire::seal(ENGINE_SNAP_MAGIC, version, &payload);
        let mut victim = Engine::new(EngineConfig::small_test()).expect("engine");
        let err = victim.restore(&snap).expect_err("future version accepted");
        prop_assert_eq!(err, SnapError::BadVersion { found: version, expected: 1 });
    }
}

/// The allocator fields of one die image, as `Die::encode_state` lays them
/// out after the chip, the map and the statistics.
struct Allocator {
    free: Vec<u32>,
    active: Option<(u32, u32)>,
    relocating: Option<u32>,
}

/// `engine`'s checkpoint with die 0's allocator fields passed through
/// `edit`: a CRC-valid container whose every other byte is the engine's
/// own.
fn with_edited_allocator(engine: &Engine, edit: impl FnOnce(&mut Allocator)) -> Vec<u8> {
    use rd_engine::wire::{self, Reader, Writer};
    let encoded = |f: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        f(&mut w);
        w.into_bytes()
    };
    let die = engine.die(0);
    let image = encoded(&|w| die.encode_state(w));
    // What precedes the allocator in a die image is public state.
    let head = encoded(&|w| {
        die.chip().encode_state(w);
        die.map().encode_state(w);
        die.stats().encode_state(w);
    })
    .len();
    let mut r = Reader::new(&image[head..]);
    let mut allocator = Allocator {
        free: r.get_u32s().unwrap(),
        active: r.get_bool().unwrap().then(|| (r.get_u32().unwrap(), r.get_u32().unwrap())),
        relocating: None,
    };
    let in_gc = r.get_bool().unwrap();
    allocator.relocating = r.get_bool().unwrap().then(|| r.get_u32().unwrap());
    let tail = r.take(r.remaining()).unwrap(); // data RNG and clocks
    edit(&mut allocator);
    let edited = encoded(&|w| {
        w.put_raw(&image[..head]);
        w.put_u32s(&allocator.free);
        w.put_bool(allocator.active.is_some());
        if let Some((block, page)) = allocator.active {
            w.put_u32(block);
            w.put_u32(page);
        }
        w.put_bool(in_gc);
        w.put_bool(allocator.relocating.is_some());
        if let Some(block) = allocator.relocating {
            w.put_u32(block);
        }
        w.put_raw(tail);
    });

    // The dies are the container's last section and die 0 leads it: splice
    // the edited image in and re-frame the section with the tag it had.
    let snap = engine.snapshot().expect("queues are drained");
    let payload = wire::open(&snap, ENGINE_SNAP_MAGIC, wire::SNAP_VERSION).unwrap();
    let dies: usize = (0..engine.config().topology.dies())
        .map(|d| encoded(&|w| engine.die(d).encode_state(w)).len())
        .sum::<usize>()
        + 8;
    let section = payload.len() - dies - 12;
    let tag = u32::from_le_bytes(payload[section..section + 4].try_into().unwrap());
    let body = &payload[section + 12..];
    assert_eq!(&body[8..8 + image.len()], &image[..], "die 0 is where the layout says");
    let rebuilt = encoded(&|w| {
        w.put_raw(&payload[..section]);
        w.section(tag, |w| {
            w.put_raw(&body[..8]);
            w.put_raw(&edited);
            w.put_raw(&body[8 + image.len()..]);
        });
    });
    wire::seal(ENGINE_SNAP_MAGIC, wire::SNAP_VERSION, &rebuilt)
}

/// A CRC-valid checkpoint whose free list repeats a block, lists a block
/// that still holds valid pages, or lists the active or relocating block
/// would restore into a die that later hands one block out twice (the
/// `already mapped` panic, inside a pool job). Restore names each instead.
#[test]
fn inconsistent_allocators_are_rejected() {
    let engine = arbitrary_engine(11, 300, 2);
    let restore = |snap: &[u8]| {
        let mut config = EngineConfig::small_test().with_fidelity(ReadFidelity::BlockAggregate);
        config.die.seed = 11;
        Engine::new(config).expect("engine").restore(snap)
    };
    // The unedited rebuild is the engine's own checkpoint.
    let same = with_edited_allocator(&engine, |_| {});
    assert_eq!(same, engine.snapshot().unwrap());
    assert_eq!(restore(&same), Ok(()));

    let die = engine.die(0);
    let in_use = die.valid_blocks()[0];
    type Edit = Box<dyn FnOnce(&mut Allocator)>;
    let cases: [(Edit, &str); 4] = [
        (Box::new(|a| a.free.push(a.free[0])), "repeats block"),
        (Box::new(move |a| a.free.push(in_use)), "still holds valid pages"),
        // An empty block can only be active or relocating if it left the
        // free list: claim the list's first block without removing it.
        (Box::new(|a| a.active = Some((a.free[0], 0))), "names the active block"),
        (Box::new(|a| a.relocating = Some(a.free[0])), "names the relocating block"),
    ];
    for (edit, needle) in cases {
        match restore(&with_edited_allocator(&engine, edit)) {
            Err(SnapError::Mismatch(e)) => assert!(e.contains(needle), "{needle}: got `{e}`"),
            other => panic!("{needle}: expected a mismatch, got {other:?}"),
        }
    }
}
