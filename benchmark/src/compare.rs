//! `compare <a.json> <b.json>`: two `results.json` files side by side.
//! Per (metric, workload) both values with their quartiles and a verdict
//! for `b` against `a`; per workload whether the simulated statistics are
//! still the same.

use crate::json::{self, Value};
use crate::measure::Summary;
use crate::spec::{self, EndToEnd};

/// How `b`'s value stands against `a`'s under a metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The window-to-window spread of either side exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a`'s value by which `b`'s is worse (negative when better).
pub fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = if metric.better == "lower" { b - a } else { a - b };
    delta / a.abs()
}

pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if a.spread().max(b.spread()) > metric.bound {
        Verdict::Unresolved
    } else if worse_by(metric, a.value, b.value) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_of<'a>(results: &'a Value, workload: &str) -> Option<&'a Value> {
    results.get("workloads")?.get(workload)?.get("run")
}

/// Prints the comparison; returns whether nothing regressed and no
/// workload's simulated behaviour changed.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let (Some(ra), Some(rb)) = (run_of(a, w.name), run_of(b, w.name)) else {
            println!("{}: missing from one side", w.name);
            ok = false;
            continue;
        };
        let fp =
            |r: &Value| r.get("fingerprint").and_then(Value::as_str).unwrap_or("?").to_string();
        let same = fp(ra) == fp(rb);
        ok &= same;
        println!(
            "{}: fingerprint {} vs {}: {}",
            w.name,
            fp(ra),
            fp(rb),
            if same { "identical" } else { "SIMULATED BEHAVIOUR CHANGED" }
        );
        for m in &spec::END_TO_END {
            let summary = |r: &Value| {
                r.get("end_to_end").and_then(|e| e.get(m.name)).and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(ra), summary(rb)) else {
                println!("  {:<18} missing from one side", m.name);
                ok = false;
                continue;
            };
            let v = verdict(m, &sa, &sb);
            ok &= v != Verdict::Regressed;
            println!(
                "  {:<18} {:>13.6} [{:.6} .. {:.6}]  ->  {:>13.6} [{:.6} .. {:.6}] {:<6} {:+7.2}% (bound {:.0}%): {}",
                m.name,
                sa.value,
                sa.q1,
                sa.q3,
                sb.value,
                sb.q1,
                sb.q3,
                m.unit,
                100.0 * worse_by(m, sa.value, sb.value),
                100.0 * m.bound,
                v.label()
            );
        }
    }
    ok
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    Ok(compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let metric = |better| EndToEnd { name: "m", unit: "u", better, bound: 0.10, what: "" };
        let kops = &metric("higher");
        let steady = |value: f64| Summary {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            min: value * 0.98,
            n: 5,
        };
        assert_eq!(verdict(kops, &steady(100.0), &steady(95.0)), Verdict::WithinBound);
        assert_eq!(verdict(kops, &steady(100.0), &steady(80.0)), Verdict::Regressed);
        assert_eq!(
            verdict(kops, &steady(100.0), &steady(140.0)),
            Verdict::WithinBound,
            "faster is fine"
        );
        let noisy = Summary { value: 80.0, q1: 60.0, q3: 100.0, min: 50.0, n: 5 };
        assert_eq!(verdict(kops, &steady(100.0), &noisy), Verdict::Unresolved);

        let cpu = &metric("lower");
        assert_eq!(
            verdict(cpu, &steady(100.0), &steady(120.0)),
            Verdict::Regressed,
            "lower is better"
        );
        assert_eq!(verdict(cpu, &steady(100.0), &steady(60.0)), Verdict::WithinBound);
        assert!((worse_by(cpu, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(kops, 100.0, 120.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_changed_fingerprints_and_regressions() {
        let side = |fp: &str, kops: f64| {
            let e2e = Value::Obj(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        let v = if m.name == "host_kops_per_s" { kops } else { 1.0 };
                        (m.name.to_string(), Summary::exact(v).to_json(m.unit))
                    })
                    .collect(),
            );
            let run = Value::obj([("fingerprint", Value::str(fp)), ("end_to_end", e2e)]);
            let workloads = spec::WORKLOADS
                .iter()
                .map(|w| (w.name.to_string(), Value::obj([("run", run.clone())])))
                .collect();
            Value::obj([("workloads", Value::Obj(workloads))])
        };
        assert!(compare(&side("aa", 100.0), &side("aa", 99.0)));
        assert!(!compare(&side("aa", 100.0), &side("bb", 100.0)));
        assert!(!compare(&side("aa", 100.0), &side("aa", 50.0)));
        assert!(!compare(&side("aa", 100.0), &Value::obj([("workloads", Value::Obj(Vec::new()))])));
    }
}
