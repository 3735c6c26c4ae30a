//! The repo benchmark. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run of
//!   one workload (what `BENCHMARK.json`'s command receives); the last line
//!   of stdout is the result object.
//! * `run --all [--seed n] [--seconds s] [--trace] [--smoke]` — every
//!   workload, each in its own process, every metric printed by name with
//!   its unit; writes `benchmark/out/results.json`.
//! * `compare <a.json> <b.json>` — two `results.json` files side by side
//!   with a verdict per (metric, workload).
//!
//! `spec` prints `BENCHMARK.json` from the tables in `spec.rs`; `tables
//! [results.json]` prints the README's markdown tables.

mod compare;
mod json;
mod measure;
mod run;
mod shapes;
mod spec;
mod suite;
mod tables;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;

const USAGE: &str = "usage:
  rd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  rd-benchmark run --all [--seed <n>] [--seconds <s>] [--trace] [--smoke]
  rd-benchmark compare <a.json> <b.json>
  rd-benchmark spec
  rd-benchmark tables [results.json]";

/// Flags shared by the single-run and suite forms.
#[derive(Debug, PartialEq)]
struct Flags {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

/// Parses `--flag value` pairs. `--trace` takes an optional `0|1`.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags =
        Flags { workload: None, all: false, seed: 2015, seconds: None, trace: false, smoke: false };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" => flags.all = true,
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

impl Flags {
    /// Seconds one run measures: as given, else a token budget under
    /// `--smoke` (one window per workload), else the declared run length.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.05 } else { f64::from(spec::RUN_SECONDS) })
    }
}

fn single(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload.clone().ok_or("--workload or --all is required")?;
    let args = RunArgs {
        workload,
        seed: flags.seed,
        seconds: flags.seconds(),
        trace: flags.trace,
        smoke: flags.smoke,
    };
    let (line, correct) = run::run(args)?;
    println!("{}", line.compact());
    Ok(correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("tables") => {
            print!("{}", tables::declarations());
            if let Some(path) = args.get(1) {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                print!(
                    "\n{}",
                    tables::baseline(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
                );
            }
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two results.json paths".into()),
        },
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            if flags.all {
                suite::run_all(flags.seed, flags.seconds(), flags.trace, flags.smoke)
            } else {
                single(&flags)
            }
        }
        Some(_) => single(&parse_flags(args)?),
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let flags = parse_flags(&strs(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(flags.workload.as_deref(), Some("serve-mixed"));
        assert_eq!((flags.seed, flags.seconds(), flags.trace), (7, 3.0, false));
        let flags = parse_flags(&strs(&["--all", "--trace", "--smoke"])).unwrap();
        assert!(flags.all && flags.trace && flags.smoke);
        assert_eq!(flags.seed, 2015);
        assert!(flags.seconds() < 1.0);
        assert!(parse_flags(&strs(&["--trace", "1", "--seconds", "0"])).is_err());
        assert!(parse_flags(&strs(&["--bogus"])).is_err());
        assert!(parse_flags(&strs(&["--seed"])).is_err());
    }
}
