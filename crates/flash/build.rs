//! Generates the typed chip database (`chips::spec` et al.) from
//! `chips/vendors/*.ron` into `OUT_DIR/chip_db.rs`.
//!
//! Parsing, validation (including the calibration-anchor gate against the
//! closed-form RBER model), and emission all live in the `chips-codegen`
//! crate so CI can run the same checks standalone via
//! `chips-codegen --check`.

use std::path::{Path, PathBuf};

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let db_dir = Path::new(&manifest_dir).join("../../chips/vendors");
    // A directory path covers every file under it.
    println!("cargo:rerun-if-changed={}", db_dir.display());

    let files = chips_codegen::load_dir(&db_dir)
        .unwrap_or_else(|e| panic!("chip database parse error:\n{e}"));
    if let Err(problems) = chips_codegen::validate(&files) {
        panic!("chip database validation failed:\n{}", problems.join("\n"));
    }

    let code = chips_codegen::emit(&files);
    let out =
        PathBuf::from(std::env::var("OUT_DIR").expect("cargo sets OUT_DIR")).join("chip_db.rs");
    std::fs::write(&out, code).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
}
