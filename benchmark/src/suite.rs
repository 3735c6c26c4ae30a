//! `run --all`: every workload in its own process (so `peak_rss_mb` is per
//! workload), every metric printed by name with its unit, and the whole
//! record written to `benchmark/out/results.json` for `compare`.

use std::process::Command;

use crate::json::{self, Value};
use crate::measure::Summary;
use crate::run::out_dir;
use crate::spec;

/// Runs one workload in a child process and returns its detail record
/// (what the child wrote under `benchmark/out/`).
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    // The child's stderr (gate failures) passes through; `output` waits
    // for it to end.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("{workload}: no result line"))?;
    json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let suffix = if trace { "trace" } else { "run" };
    let path = out_dir().join(format!("{workload}.{suffix}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_end_to_end(detail: &Value) {
    for m in &spec::END_TO_END {
        let Some(s) =
            detail.get("end_to_end").and_then(|e| e.get(m.name)).and_then(Summary::from_json)
        else {
            continue;
        };
        println!(
            "  {:<34} {:>14.6} {:<7} q1 {:.6}  q3 {:.6}  min {:.6}  n {}",
            m.name, s.value, m.unit, s.q1, s.q3, s.min, s.n
        );
    }
}

fn print_per_layer(detail: &Value) {
    let Some(measured) = detail.get("per_layer").and_then(Value::as_obj) else { return };
    for m in spec::PER_LAYER {
        if let Some(value) =
            measured.iter().find(|(k, _)| k == m.name).and_then(|(_, v)| v.as_f64())
        {
            println!("  {:<34} {:>14.6} {}", m.name, value, m.unit);
        }
    }
}

/// Runs the suite; returns whether every workload's gates passed.
pub fn run_all(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let run = child(w.name, seed, seconds, false, smoke)?;
        let correct = run.get("correct").and_then(Value::as_bool).unwrap_or(false);
        let windows = run.get("windows").and_then(Value::as_f64).unwrap_or(0.0);
        let fp = run.get("fingerprint").and_then(Value::as_str).unwrap_or("?");
        let verdict = if correct { "correct" } else { "INCORRECT" };
        println!("{} (seed {seed}, {windows} windows, fingerprint {fp}): {verdict}", w.name);
        print_end_to_end(&run);
        let mut record = vec![("run".to_string(), run)];
        let mut traced_correct = true;
        if trace {
            let traced = child(w.name, seed, seconds, true, smoke)?;
            traced_correct = traced.get("correct").and_then(Value::as_bool).unwrap_or(false);
            println!("  -- traced run: {}", if traced_correct { "correct" } else { "INCORRECT" });
            print_per_layer(&traced);
            record.push(("trace".to_string(), traced));
        }
        all_correct &= correct && traced_correct;
        workloads.push((w.name.to_string(), Value::Obj(record)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("nproc", Value::Num(nproc as f64)),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
