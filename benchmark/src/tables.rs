//! `tables [results.json]`: the markdown tables `benchmark/README.md`
//! carries — the declarations from `spec.rs`, and the baseline from a
//! `results.json` written by `run --all --trace`.

use std::fmt::Write as _;

use crate::json::Value;
use crate::measure::Summary;
use crate::spec;

/// Workloads, end-to-end metrics and per-layer metrics as declared.
pub fn declarations() -> String {
    let mut out = String::new();
    out.push_str("| workload | why it exists |\n|---|---|\n");
    for w in &spec::WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n",
    );
    for m in &spec::END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0}% | {} |",
            m.name,
            m.unit,
            m.better,
            100.0 * m.bound,
            m.what
        );
    }
    out.push_str("\n| per-layer metric | unit | better | end-to-end metric it should move |\n|---|---|---|---|\n");
    for m in spec::PER_LAYER {
        let _ = writeln!(out, "| `{}` | {} | {} | {} |", m.name, m.unit, m.better, m.moves);
    }
    out
}

/// A rendering short enough for a table cell: whole above 1000, three
/// decimals above 1, four above 0.01, scientific below.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// The baseline tables of one `results.json`: end-to-end values with the
/// quartiles of their per-window samples per workload, then every per-layer metric a traced run set.
pub fn baseline(results: &Value) -> String {
    let mut out = String::new();
    let field = |key: &str| results.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "Seed {}, {} s per run, nproc {}. Value [q1 .. q3 of its n per-window samples].\n",
        field("seed"),
        field("seconds"),
        field("nproc")
    );
    let runs: Vec<(&str, Option<&Value>)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name, results.get("workloads").and_then(|all| all.get(w.name))))
        .collect();
    out.push_str("| end-to-end metric |");
    for (name, _) in &runs {
        let _ = write!(out, " `{name}` |");
    }
    out.push_str("\n|---|");
    out.push_str(&"---|".repeat(runs.len()));
    out.push('\n');
    for m in &spec::END_TO_END {
        let _ = write!(out, "| `{}` ({}) |", m.name, m.unit);
        for (_, record) in &runs {
            let summary = record
                .and_then(|r| r.get("run")?.get("end_to_end")?.get(m.name))
                .and_then(Summary::from_json);
            match summary {
                Some(s) if s.n > 1 => {
                    let _ = write!(
                        out,
                        " {} [{} .. {}] n={} |",
                        short(s.value),
                        short(s.q1),
                        short(s.q3),
                        s.n
                    );
                }
                Some(s) => {
                    let _ = write!(out, " {} |", short(s.value));
                }
                None => out.push_str(" |"),
            }
        }
        out.push('\n');
    }
    out.push_str("\n| per-layer metric |");
    for (name, _) in &runs {
        let _ = write!(out, " `{name}` |");
    }
    out.push_str("\n|---|");
    out.push_str(&"---|".repeat(runs.len()));
    out.push('\n');
    for m in spec::PER_LAYER {
        let _ = write!(out, "| `{}` ({}) |", m.name, m.unit);
        for (_, record) in &runs {
            let value =
                record.and_then(|r| r.get("trace")?.get("per_layer")?.get(m.name)?.as_f64());
            match value {
                Some(v) => {
                    let _ = write!(out, " {} |", short(v));
                }
                None => out.push_str(" |"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_carries_the_declared_tables() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("benchmark/README.md");
        assert!(
            readme.contains(&declarations()),
            "regenerate the README's tables with `-- tables`"
        );
    }

    #[test]
    fn baseline_renders_measured_cells_and_blanks() {
        let e2e = Value::obj([(
            "host_kops_per_s",
            Summary { value: 1236.0, q1: 1200.0, q3: 1300.0, min: 1100.0, n: 5 }.to_json("kops/s"),
        )]);
        let record = Value::obj([
            ("run", Value::obj([("end_to_end", e2e)])),
            (
                "trace",
                Value::obj([("per_layer", Value::obj([("ftl.uber", Value::Num(0.003125))]))]),
            ),
        ]);
        let results = Value::obj([
            ("seed", Value::Num(2015.0)),
            ("workloads", Value::obj([("hammer-recovery", record)])),
        ]);
        let text = baseline(&results);
        assert!(text.contains("1236 [1200 .. 1300] n=5"), "{text}");
        assert!(text.contains("| `ftl.uber` (ratio) | | | 3.125e-3 | | |"), "{text}");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(12.0), "12");
        assert_eq!(short(3.4567), "3.457");
        assert_eq!(short(0.96875), "0.9688");
    }
}
