//! The checkpoint wire-format pin: the committed mid-life checkpoint
//! (`fixtures/midlife.fleetsnap`, three epochs into `FleetConfig::quick()`)
//! must restore and, resumed to epoch six, reproduce the committed baseline
//! rows (`fixtures/midlife.baseline.jsonl`) byte for byte. This pins both
//! the `RDFLTSNP` container layout and the simulation physics; a PR that
//! intentionally changes either regenerates both files with
//! `cargo test -p rd-fleet --test fixture -- --ignored regen`.
//!
//! The committed checkpoint predates the chip name at the end of the config
//! section, so it also pins that such snapshots still restore (to the
//! default chip); a regenerated one is that name longer.

use std::path::PathBuf;

use rd_fleet::{Fleet, FleetConfig};

/// Epoch the checkpoint is taken at, and the epoch the baseline runs to.
const FIXTURE_EPOCHS: u32 = 3;
const FIXTURE_TOTAL_EPOCHS: u32 = 6;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

#[test]
fn midlife_checkpoint_resumes_onto_committed_baseline() {
    let snap = std::fs::read(fixture("midlife.fleetsnap")).expect("read midlife.fleetsnap");
    let baseline =
        std::fs::read_to_string(fixture("midlife.baseline.jsonl")).expect("read baseline");
    let baseline: Vec<&str> = baseline.lines().collect();
    assert_eq!(baseline.len() as u32, FIXTURE_TOTAL_EPOCHS, "baseline row count");

    let mut fleet = Fleet::restore(&snap).expect("restore mid-life fixture");
    assert_eq!(fleet.epochs_done(), FIXTURE_EPOCHS, "fixture epoch count");
    let resumed = fleet.run(FIXTURE_TOTAL_EPOCHS - FIXTURE_EPOCHS, 2, |_| {});
    assert_eq!(resumed.len() as u32, FIXTURE_TOTAL_EPOCHS - FIXTURE_EPOCHS);
    for (row, expected) in resumed.iter().zip(&baseline[FIXTURE_EPOCHS as usize..]) {
        assert_eq!(
            &row.to_json(),
            expected,
            "resumed fixture diverged from the committed baseline at epoch {} — if this PR \
             intentionally changed the checkpoint format or the simulation physics, regenerate \
             with `cargo test -p rd-fleet --test fixture -- --ignored regen`",
            row.epoch,
        );
    }
}

/// Rewrites both fixture files from `FleetConfig::quick()`.
#[test]
#[ignore = "overwrites the committed fixture; run only when the format or physics changed on purpose"]
fn regen() {
    let mut fleet = Fleet::new(FleetConfig::quick()).expect("fixture fleet");
    let mut baseline = String::new();
    for _ in 0..FIXTURE_TOTAL_EPOCHS {
        baseline.push_str(&fleet.epoch(1).to_json());
        baseline.push('\n');
        if fleet.epochs_done() == FIXTURE_EPOCHS {
            let snap = fleet.snapshot().expect("fixture snapshot");
            std::fs::write(fixture("midlife.fleetsnap"), snap).expect("write fixture");
        }
    }
    std::fs::write(fixture("midlife.baseline.jsonl"), baseline).expect("write baseline");
}
