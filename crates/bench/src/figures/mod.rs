//! One module per figure; each `run` regenerates its figure at full scale,
//! printing to stdout and writing `target/figures/<name>.{csv,jsonl}`.

use crate::Figure;

mod ablations;
mod ext_concentrated;
mod ext_partial_block;
mod ext_recovery;
mod ext_recovery_path;
mod ext_slc_mode;
mod fig01_states;
mod fig02a;
mod fig02b;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09_rdr_illustration;
mod fig10;
mod fig11;
mod fig12;
mod overheads;

/// Every figure by name, in the order `figures --all` regenerates them:
/// the paper's figures, its overhead accounting, then the extensions.
pub const FIGURES: &[Figure] = &[
    ("fig01_states", fig01_states::run),
    ("fig02a", fig02a::run),
    ("fig02b", fig02b::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09_rdr_illustration", fig09_rdr_illustration::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("overheads", overheads::run),
    ("ext_concentrated", ext_concentrated::run),
    ("ext_partial_block", ext_partial_block::run),
    ("ext_recovery", ext_recovery::run),
    ("ext_slc_mode", ext_slc_mode::run),
    ("ablations", ablations::run),
    ("ext_recovery_path", ext_recovery_path::run),
];
