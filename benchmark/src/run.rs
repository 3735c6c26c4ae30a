//! One benchmark run: the window loop every workload shares, the
//! correctness gates, and the result line the driver reads.
//!
//! A run generates its inputs once, then alternates *build* (construct and
//! pre-condition fresh state; timed as set-up) and *window* (the fixed work
//! the workload is about; timed) until `--seconds` have passed. Every
//! window does the same ops on identically built state, so simulated
//! statistics repeat exactly and are asserted to; host-time metrics are
//! taken over all the run's windows together.
//!
//! The sandbox this runs in slows down and speeds up by tens of percent
//! over minutes, so the run samples a [`SpeedProbe`] after every build and
//! window and its host-time end-to-end metrics are scaled to the speed the
//! probe has on the quiet baseline box. The window walls as measured are
//! kept in the detail record and reported per layer as `bench.*`; every
//! other per-layer time is as measured.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::measure::{self, SpeedProbe, Summary};
use crate::shapes::THREADS;
use crate::spec;
use crate::trace::{self, SelfTimes, Tracer};

/// Arguments of one run (the driver's flags plus `--smoke`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Simulated statistics every workload reports (exact for a seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub waf: f64,
    pub readable_frac: f64,
}

/// What one window did.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Host ops the window submitted.
    pub ops: u64,
    /// Ops the program failed to process: failed writes plus ops submitted
    /// but never accounted. A simulated uncorrectable read is an outcome
    /// the benchmark measures (`readable_frac`), not a failure.
    pub failed: u64,
    /// Hash of every simulated statistic; equal across windows.
    pub fingerprint: u64,
    pub sim: Sim,
}

/// Samples gathered by [`Ctx::measure`]. The per-window vectors hold one
/// entry per untraced window, in order.
#[derive(Debug)]
pub struct Measured {
    pub window: Window,
    pub windows: usize,
    /// Wall seconds of each build.
    pub setup_s: Vec<f64>,
    /// Wall and CPU seconds of the untraced windows.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub ctx_switches: Vec<f64>,
    /// Wall seconds of the traced windows (traced runs only).
    pub traced_wall_s: Vec<f64>,
    /// Span self times inside traced windows / traced builds.
    pub window_self: SelfTimes,
    pub setup_self: SelfTimes,
}

impl Measured {
    /// Median untraced window wall as measured, ns per op.
    pub fn ns_per_op(&self) -> f64 {
        measure::median(&self.wall_s) * 1e9 / self.window.ops as f64
    }

    /// Ops covered by the traced windows.
    pub fn traced_ops(&self) -> f64 {
        (self.traced_wall_s.len() as u64 * self.window.ops) as f64
    }

    /// Self time of `span` inside traced windows, ns per traced op.
    pub fn span_ns_per_op(&self, span: &str) -> f64 {
        self.window_self.get(span).map_or(0.0, |s| s.0 as f64) / self.traced_ops().max(1.0)
    }

    /// Mean self time of one `span` call inside traced builds, ms.
    pub fn setup_span_ms(&self, span: &str) -> f64 {
        self.setup_self.get(span).map_or(0.0, |&(ns, calls)| ns as f64 / calls.max(1) as f64 / 1e6)
    }
}

/// Share of a run's measuring time spent sampling the speed probe.
const PROBE_SHARE: f64 = 0.12;

/// State of one run.
pub struct Ctx {
    pub args: RunArgs,
    pub tracer: Tracer,
    started: Instant,
    probe: SpeedProbe,
    inputs_ready_s: f64,
    layer: BTreeMap<&'static str, f64>,
    gates: Vec<(String, bool)>,
}

impl Ctx {
    pub fn new(args: RunArgs) -> Self {
        let started = Instant::now();
        Self {
            args,
            tracer: Tracer::default(),
            started,
            probe: SpeedProbe::new(),
            inputs_ready_s: 0.0,
            layer: BTreeMap::new(),
            gates: Vec::new(),
        }
    }

    /// An op count, divided by 100 under `--smoke`.
    pub fn ops(&self, full: usize) -> usize {
        if self.args.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }

    /// Marks the end of input generation; the time since process start is
    /// the first part of `setup_s`.
    pub fn inputs_ready(&mut self) {
        self.inputs_ready_s = self.started.elapsed().as_secs_f64();
    }

    /// Records a correctness gate; a failed gate makes the run incorrect.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("GATE FAILED: {name}");
        }
        self.gates.push((name, ok));
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec::PER_LAYER` does not declare, or one set twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        assert!(self.layer.insert(name, value).is_none(), "per-layer metric {name} set twice");
    }

    /// Samples the speed probe until it has had its share of the time
    /// since `since`.
    fn sample_speed(&mut self, since: Instant) {
        loop {
            self.probe.sample(THREADS);
            if self.probe.spent_s() >= PROBE_SHARE * since.elapsed().as_secs_f64() {
                break;
            }
        }
    }

    /// Runs build + window + check repeatedly until `--seconds` have
    /// passed. `check` runs untimed after each window and reports what it
    /// did. In a traced run the budget is halved (the layer probes need the
    /// rest) and every second window records spans, so traced and untraced
    /// walls come from interleaved windows of the same process. Returns the
    /// samples and the last window's state (checked, still warm) for the
    /// probes that follow.
    pub fn measure<S>(
        &mut self,
        mut build: impl FnMut(&mut Tracer) -> S,
        mut window: impl FnMut(&mut S, &mut Tracer),
        mut check: impl FnMut(&mut S) -> Window,
    ) -> (Measured, S) {
        let budget = if self.args.trace { self.args.seconds / 2.0 } else { self.args.seconds };
        let begun = Instant::now();
        let deadline = begun + Duration::from_secs_f64(budget);
        let min_windows = if self.args.trace { 2 } else { 1 };
        let mut m = Measured {
            window: Window {
                ops: 0,
                failed: 0,
                fingerprint: 0,
                sim: Sim { waf: 0.0, readable_frac: 0.0 },
            },
            windows: 0,
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            ctx_switches: Vec::new(),
            traced_wall_s: Vec::new(),
            window_self: SelfTimes::new(),
            setup_self: SelfTimes::new(),
        };
        let mut identical = true;
        let mut last = None;
        while m.windows < min_windows || Instant::now() < deadline {
            let traced = self.args.trace && m.windows % 2 == 1;
            self.tracer.enabled = traced;
            // One state alive at a time, so peak RSS is one window's.
            drop(last.take());

            let t = Instant::now();
            let open = self.tracer.enter("bench.setup");
            let mut state = build(&mut self.tracer);
            self.tracer.exit(open);
            m.setup_s.push(t.elapsed().as_secs_f64());
            self.sample_speed(begun);

            let (cpu0, cs0) = (measure::cpu_seconds(), measure::context_switches());
            let t = Instant::now();
            let open = self.tracer.enter("bench.window");
            window(&mut state, &mut self.tracer);
            self.tracer.exit(open);
            let wall = t.elapsed().as_secs_f64();
            if traced {
                m.traced_wall_s.push(wall);
            } else {
                m.wall_s.push(wall);
                m.cpu_s.push(measure::cpu_seconds() - cpu0);
                m.ctx_switches.push((measure::context_switches() - cs0) as f64);
            }
            self.tracer.enabled = false;
            self.sample_speed(begun);

            let done = check(&mut state);
            if m.windows == 0 {
                m.window = done;
            } else {
                identical &= done == m.window;
            }
            m.windows += 1;
            last = Some(state);
        }
        self.gate("every window bit-identical", identical);
        self.gate("no op failed", m.window.failed == 0);
        m.window_self = trace::self_times_under(self.tracer.spans(), "bench.window");
        m.setup_self = trace::self_times_under(self.tracer.spans(), "bench.setup");
        if self.args.trace {
            self.set_trace_metrics(&m);
        }
        (m, last.expect("at least one window"))
    }

    /// `trace.*`: overhead, residual, and each layer's share of the traced
    /// windows' self time; `bench.*`: the run as measured, before scaling.
    fn set_trace_metrics(&mut self, m: &Measured) {
        let untraced = measure::median(&m.wall_s);
        self.set("trace.overhead_frac", measure::median(&m.traced_wall_s) / untraced - 1.0);
        let total: u64 = m.window_self.values().map(|s| s.0).sum();
        let share = |layer: &str| {
            let ns: u64 = m
                .window_self
                .iter()
                .filter(|(name, _)| trace::layer_of(name) == layer)
                .map(|(_, s)| s.0)
                .sum();
            ns as f64 / total.max(1) as f64
        };
        self.set("trace.residual_frac", share("bench"));
        self.set("trace.self_frac.serve", share("serve"));
        self.set("trace.self_frac.engine", share("engine"));
        self.set("trace.self_frac.fleet", share("fleet"));
        self.set("trace.self_frac.core", share("core"));
        self.set("trace.self_frac.flash", share("flash"));
        self.set("bench.machine_speed", self.probe.speed());
        self.set("bench.raw_host_kops_per_s", m.window.ops as f64 / measure::mean(&m.wall_s) / 1e3);
    }

    /// Assembles the result: the driver's line, and the detailed record
    /// (quartiles, samples, gates) and the spans written under
    /// `benchmark/out/`. Returns the line and whether every gate passed.
    pub fn finish(mut self, m: &Measured) -> (Value, bool) {
        let ops = m.window.ops as f64;
        // Seconds at the baseline box's speed: seconds measured, times the
        // box's speed over the run. Each metric is taken over the whole
        // run (total ops over total window seconds, the mean build); the
        // per-window samples beside it show how steady the run was.
        let speed = self.probe.speed();
        let kops = |wall_s: f64| ops / (wall_s * speed) / 1e3;
        let cpu = |cpu_s: f64| cpu_s * speed * 1e9 / ops;
        let setup = |build_s: f64| (build_s + self.inputs_ready_s) * speed;
        let per = |seconds: &[f64], f: &dyn Fn(f64) -> f64| -> Summary {
            Summary::of(
                f(measure::mean(seconds)),
                &seconds.iter().map(|&s| f(s)).collect::<Vec<_>>(),
            )
        };
        // The probe's table is the instrument's, not the workload's.
        let peak_rss_mb = measure::peak_rss_mb() - SpeedProbe::TABLE_MIB;
        let end_to_end: Vec<(&str, Summary)> = vec![
            ("host_kops_per_s", per(&m.wall_s, &kops)),
            ("cpu_ns_per_op", per(&m.cpu_s, &cpu)),
            ("setup_s", per(&m.setup_s, &setup)),
            ("peak_rss_mb", Summary::exact(peak_rss_mb)),
            ("waf", Summary::exact(m.window.sim.waf)),
            ("readable_frac", Summary::exact(m.window.sim.readable_frac)),
        ];
        let finite_nonzero = end_to_end.iter().all(|(_, s)| s.value.is_finite() && s.value > 0.0);
        self.gate("every end-to-end metric finite and non-zero", finite_nonzero);
        self.gate("every per-layer metric finite", self.layer.values().all(|v| v.is_finite()));

        // The line carries every declared metric of its kind exactly once,
        // whatever the workload: the two tables are its only source of names.
        let declared: Vec<(&str, &str)> = if self.args.trace {
            spec::PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
        };
        self.gate(
            "every emitted name is well-formed",
            declared.iter().all(|d| spec::valid_name(d.0)),
        );
        let correct = self.gates.iter().all(|g| g.1);
        let value_of = |name: &str| -> f64 {
            if self.args.trace {
                // A layer this workload never enters spent no time there.
                self.layer.get(name).copied().unwrap_or(0.0)
            } else {
                end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("declared metric measured")
                    .1
                    .value
            }
        };
        let metrics = Value::Obj(
            declared
                .iter()
                .map(|(name, unit)| {
                    let entry = Value::obj([
                        ("value", Value::Num(value_of(name))),
                        ("unit", Value::str(*unit)),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        );
        let attempted = m.windows as u64 * m.window.ops;
        let line = Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num((m.windows as u64 * m.window.failed) as f64)),
            ("metrics", metrics),
        ]);

        let nums = |values: &[f64]| Value::Arr(values.iter().map(|v| Value::Num(*v)).collect());
        let detail = Value::obj([
            ("workload", Value::str(self.args.workload.clone())),
            ("seed", Value::Num(self.args.seed as f64)),
            ("seconds", Value::Num(self.args.seconds)),
            ("trace", Value::Bool(self.args.trace)),
            ("smoke", Value::Bool(self.args.smoke)),
            ("windows", Value::Num(m.windows as f64)),
            ("ops_per_window", Value::Num(ops)),
            ("fingerprint", Value::str(format!("{:016x}", m.window.fingerprint))),
            ("correct", Value::Bool(correct)),
            (
                "gates",
                Value::Obj(
                    self.gates.iter().map(|(n, ok)| (n.clone(), Value::Bool(*ok))).collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Obj(
                    end_to_end
                        .iter()
                        .map(|(name, s)| {
                            let unit = spec::END_TO_END
                                .iter()
                                .find(|d| d.name == *name)
                                .expect("declared")
                                .unit;
                            (name.to_string(), s.to_json(unit))
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Obj(
                    self.layer.iter().map(|(n, v)| (n.to_string(), Value::Num(*v))).collect(),
                ),
            ),
            // Every sample as measured, beside the speed the end-to-end
            // times above are scaled by.
            ("machine_speed", Value::Num(speed)),
            ("probe_s", nums(self.probe.samples())),
            ("window_wall_s", nums(&m.wall_s)),
            ("window_cpu_s", nums(&m.cpu_s)),
            ("setup_wall_s", nums(&m.setup_s)),
            ("inputs_ready_s", Value::Num(self.inputs_ready_s)),
        ]);
        let suffix = if self.args.trace { "trace" } else { "run" };
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let name = format!("{}.{suffix}.json", self.args.workload);
                std::fs::write(dir.join(name), detail.pretty())
            })
            .and_then(|()| {
                if self.args.trace {
                    let name = format!("{}.trace.jsonl", self.args.workload);
                    self.tracer.write_jsonl(&dir.join(name), &self.args.workload)
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("warning: could not write under {}: {e}", dir.display());
        }
        (line, correct)
    }
}

/// One run of one workload: the driver's result line and whether every
/// gate passed.
///
/// # Errors
///
/// Returns a message for a workload name nobody declared.
pub fn run(args: RunArgs) -> Result<(Value, bool), String> {
    let mut ctx = Ctx::new(args);
    let Some(measured) = crate::workloads::run(&mut ctx) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload `{}` (one of {names:?})", ctx.args.workload));
    };
    Ok(ctx.finish(&measured))
}

/// `benchmark/out/`, beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Hash of a `Debug` rendering: the fingerprint of a window's simulated
/// statistics.
pub fn fingerprint(stats: &impl std::fmt::Debug) -> u64 {
    readdisturb::engine::fnv1a(readdisturb::engine::FNV_OFFSET, format!("{stats:?}").as_bytes())
}
