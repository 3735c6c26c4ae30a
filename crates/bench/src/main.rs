//! `figures <name>...` regenerates the named [`FIGURES`] entries in
//! argument order; `figures --all` regenerates the whole table, one banner
//! per figure. A figure that fails or panics ends the run non-zero.

use std::process::ExitCode;

use rd_bench::{Figure, FIGURES};

/// The table entries `args` select, in that order (`--all`: the table) —
/// or, when `args` is empty or holds a name the table lacks, the usage
/// message listing every name.
fn select(args: &[String]) -> Result<Vec<&'static Figure>, String> {
    if args == ["--all"] {
        return Ok(FIGURES.iter().collect());
    }
    let found: Option<Vec<_>> =
        args.iter().map(|wanted| FIGURES.iter().find(|(name, _)| name == wanted)).collect();
    found.filter(|figures| !figures.is_empty()).ok_or_else(|| {
        let table: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        format!("usage: figures --all | figures <name>...\nnames: {}", table.join(" "))
    })
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&args) {
        Ok(selected) => selected,
        Err(usage) => {
            eprintln!("{usage}");
            return Ok(ExitCode::from(2));
        }
    };
    let all = args == ["--all"];
    for (name, run) in selected {
        if all {
            println!("\n================= {name} =================");
        }
        run()?;
    }
    if all {
        println!("\nall figures regenerated under target/figures/");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_name_selects_nothing_and_lists_the_table() {
        let usage = select(&args(&["fig03", "fig99"])).expect_err("fig99 is not in the table");
        for (name, _) in FIGURES {
            assert!(usage.split_whitespace().any(|word| word == *name), "{name} not listed");
        }
        assert_eq!(select(&[]).expect_err("no name given"), usage);
        assert!(select(&args(&["--all", "fig03"])).is_err(), "--all stands alone");
        let picked = select(&args(&["fig10", "fig03"])).expect("both are in the table");
        assert_eq!(picked.iter().map(|(name, _)| *name).collect::<Vec<_>>(), ["fig10", "fig03"]);
        assert_eq!(select(&args(&["--all"])).expect("the whole table").len(), FIGURES.len());
    }
}
