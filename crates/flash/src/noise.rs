//! The four circuit-level noise sources the paper identifies (§1):
//! program/erase cycling noise, cell-to-cell program interference,
//! retention noise, and — the subject of the paper — read disturb noise.
//!
//! Each submodule implements one source as a pure function of cell state
//! plus sampled per-cell process variation, so the closed forms can be
//! property-tested in isolation and composed by `CellArray`.

pub(crate) mod pe_cycling;
pub(crate) mod program_interference;
pub mod read_disturb;
pub mod retention;
