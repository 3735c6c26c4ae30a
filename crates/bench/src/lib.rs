//! The paper's figures as one table ([`FIGURES`], which the `figures`
//! binary runs by name) and the plumbing they share: CSV/JSONL emission to
//! `target/figures/` and stdout, the paper-vs-measured shape check, and
//! the pre-stressed recovery scenario behind `ext_recovery_path`
//! ([`replay`]). Host-time measurement lives in `benchmark/`, not here.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

mod figures;
pub mod replay;

pub use figures::FIGURES;

/// What a figure's `run` returns; an `Err` ends the `figures` run the way
/// it ends a `main`.
pub type FigureResult = Result<(), Box<dyn std::error::Error>>;

/// One [`FIGURES`] entry: the name `figures` takes on its command line and
/// files the output under, and the routine that regenerates the figure.
pub type Figure = (&'static str, fn() -> FigureResult);

/// Writes `rows` (already comma-joined) under a header to
/// `target/figures/<name>.csv` and echoes the first rows to stdout.
///
/// # Panics
///
/// Panics on I/O failure (these are experiment routines).
pub fn emit_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    let path = dir.join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).expect("create csv");
    writeln!(file, "{header}").expect("write header");
    for row in rows {
        writeln!(file, "{row}").expect("write row");
    }
    println!("# {name}: {} rows -> {}", rows.len(), path.display());
    println!("{header}");
    let shown = rows.len().min(12);
    for row in &rows[..shown] {
        println!("{row}");
    }
    if rows.len() > shown {
        println!("... ({} more rows in the csv)", rows.len() - shown);
    }
}

/// Writes one JSON object per line to `target/figures/<name>.jsonl` and
/// echoes every row to stdout.
///
/// # Panics
///
/// Panics on I/O failure (these are experiment routines).
pub fn emit_jsonl(name: &str, rows: &[String]) {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    let path = dir.join(format!("{name}.jsonl"));
    let mut file = fs::File::create(&path).expect("create jsonl");
    for row in rows {
        writeln!(file, "{row}").expect("write row");
        println!("{row}");
    }
    println!("# {name}: {} rows -> {}", rows.len(), path.display());
}

/// Prints a paper-vs-measured comparison line (the per-figure shape
/// check; a ratio near 1.0 means the simulator still tracks the paper).
pub fn shape_check(label: &str, measured: f64, paper: f64) {
    let ratio = if paper != 0.0 { measured / paper } else { f64::NAN };
    println!("## shape-check {label}: measured {measured:.3e}, paper {paper:.3e} (x{ratio:.2})");
}

#[cfg(test)]
mod tests {
    #[test]
    fn emit_csv_writes_file() {
        super::emit_csv("selftest", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let content = std::fs::read_to_string("target/figures/selftest.csv").unwrap();
        assert!(content.contains("a,b") && content.contains("3,4"));
    }
}
