//! Standalone chip-database linter: `chips-codegen --check [DIR|FILE...]`.
//!
//! Runs the same parse + validation pass `rd-flash`'s `build.rs` performs,
//! without building the workspace — CI runs it as an early lint step next to
//! `fmt`/`clippy`. Exit status 0 means the database is sound; diagnostics go
//! to stderr with `file:line:col:` prefixes so editors can jump to them.
//!
//! With no paths, lints `chips/vendors` relative to the current directory.
//! `--emit <out>` additionally writes the generated Rust (handy for
//! inspecting what `build.rs` will produce).

use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let mut check = false;
    let mut emit_to: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--emit" => {
                let out = args.next().ok_or("--emit requires an output path")?;
                emit_to = Some(PathBuf::from(out));
            }
            "--help" | "-h" => {
                println!(
                    "usage: chips-codegen --check [--emit OUT] [DIR|FILE...]\n\
                     Lints the chip database (default: ./chips/vendors)."
                );
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (try --help)"));
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if !check && emit_to.is_none() {
        return Err("nothing to do: pass --check and/or --emit OUT (try --help)".to_string());
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("chips/vendors"));
    }

    let mut parsed = Vec::new();
    for path in &paths {
        if path.is_dir() {
            parsed.extend(chips_codegen::load_dir(path)?);
        } else {
            parsed.push(chips_codegen::load_file(path)?);
        }
    }
    if parsed.is_empty() {
        return Err("no .ron files found".to_string());
    }
    chips_codegen::validate(&parsed).map_err(|problems| problems.join("\n"))?;

    let total: usize = parsed.iter().map(|vf| vf.chips.len()).sum();
    eprintln!(
        "chip database OK: {} vendors, {total} chips ({})",
        parsed.len(),
        parsed
            .iter()
            .flat_map(|vf| vf.chips.iter().map(|c| c.name.as_str()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(out) = emit_to {
        let code = chips_codegen::emit(&parsed);
        std::fs::write(&out, code).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote {}", out.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
