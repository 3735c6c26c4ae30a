//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their bounds, and its per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repo root is generated from these
//! tables (`-- spec`) and a test fails when the two drift.

use crate::json::Value;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];

/// One workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "replay-mixed",
        why: "4-tenant mix bulk-replayed on a filled 16-die aggregate array whose page map exceeds L2: engine queue/striping/timing, FTL map and GC do the work, flash math almost none",
    },
    Workload {
        name: "serve-mixed",
        why: "the same op sequence through Service submit/flush on the same array: isolates the serve layer (router, shard workers, pool, accounting); digest must equal monolithic replay",
    },
    Workload {
        name: "hammer-recovery",
        why: "worn, aged, pre-disturbed analytic array under a hot-set read mix with Vpass Tuning: closed-form sampling, ECC decode, the recovery ladder and tuner probes do the work; UBER is non-zero",
    },
    Workload {
        name: "fleet-lifetime",
        why: "write-heavy 30-day epochs over 8 small varied drives with replacement, then snapshot+restore: programs, GC, refresh and ageing dominate, on cache-resident dies",
    },
    Workload {
        name: "paper-exact",
        why: "the researcher's flow at the cell-exact tier: five figure routines plus one trace replayed at all three tiers; the only workload where per-cell Monte-Carlo does the work",
    },
];

/// An end-to-end metric. `bound` is the share of the parent's median by
/// which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "host_kops_per_s",
        unit: "kops/s",
        better: "higher",
        bound: 0.25,
        what: "host ops per wall second over all the run's windows, /1000, at the baseline box's speed (host time)",
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: "lower",
        bound: 0.25,
        what: "process user+system CPU (/proc/self/stat, all threads) per host op over all the run's windows, at the baseline box's speed (host time)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "process start to inputs generated, plus the mean time to construct and pre-condition the state of one window, at the baseline box's speed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM after the last window, less the speed probe's 16 MiB table; every window does the same fixed work on freshly built state",
    },
    EndToEnd {
        name: "waf",
        unit: "ratio",
        better: "lower",
        bound: 0.06,
        what: "(host + GC + refresh + reclaim writes) / host writes since the array was built; simulated, exact for a seed",
    },
    EndToEnd {
        name: "readable_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
        what: "1 - UBER: share of host reads that returned decodable data; simulated, exact for a seed",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const M_SETUP: &str = "setup_s everywhere, nothing else (inputs are pre-generated)";
const M_SERVE: &str =
    "host_kops_per_s and cpu_ns_per_op on serve-mixed; flat on replay-mixed and hammer-recovery";
const M_SERVE_OPS: &str = "operator stalls outside the window; report also tracks peak_rss_mb";
const M_ENGINE: &str = "host_kops_per_s on replay-mixed and serve-mixed (the shared hot path), small on hammer-recovery, none on paper-exact";
const M_FTL_RW: &str =
    "host_kops_per_s on replay-mixed/serve-mixed (read) and fleet-lifetime (write)";
const M_FTL_LADDER: &str = "host_kops_per_s on hammer-recovery only";
const M_FTL_COUNT: &str = "waf, readable_frac (counted at the same boundary as the window)";
const M_FLASH: &str = ".analytic moves host_kops_per_s on hammer-recovery, .aggregate on replay-mixed/serve-mixed/fleet-lifetime (small share), .exact on paper-exact";
const M_CORE_TUNE: &str = "host_kops_per_s on hammer-recovery";
const M_CORE_FIG: &str = "host_kops_per_s on paper-exact";
const M_ACCURACY: &str =
    "none; the simulator's error against the paper, read beside every speed-up";
const M_FLEET: &str = "host_kops_per_s and waf on fleet-lifetime only";

pub const PER_LAYER: &[PerLayer] = &[
    pl("workloads.trace_gen_ns_per_op", "ns", "lower", M_SETUP),
    pl("serve.traffic_gen_ns_per_op", "ns", "lower", "setup_s on replay-mixed and serve-mixed"),
    pl("serve.start_ms", "ms", "lower", "setup_s on serve-mixed"),
    pl("serve.fill_ns_per_op", "ns", "lower", "setup_s on serve-mixed"),
    pl("serve.route_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.submit_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.flush_tail_ms", "ms", "lower", M_SERVE),
    pl("serve.stage_pool_wait_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.stage_flash_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.stage_timing_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.stage_accounting_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.accounting_record_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.gap_ns_per_op", "ns", "lower", M_SERVE),
    pl("serve.ctx_switches_per_kop", "1/kop", "lower", M_SERVE),
    pl("serve.burst_rtt_p50_us", "us", "lower", "host wall latency of a 64-op burst; serve-mixed"),
    pl("serve.burst_rtt_p99_us", "us", "lower", "serve.burst_rtt_p50_us"),
    pl("serve.report_ms", "ms", "lower", M_SERVE_OPS),
    pl("serve.checkpoint_ms", "ms", "lower", M_SERVE_OPS),
    pl("serve.restore_ms", "ms", "lower", M_SERVE_OPS),
    pl("serve.snapshot_bytes", "bytes", "lower", M_SERVE_OPS),
    pl("engine.new_ms", "ms", "lower", "setup_s"),
    pl("engine.fill_ns_per_op", "ns", "lower", "setup_s (4096-op batches)"),
    pl("engine.giant_batch_fill_ns_per_op", "ns", "lower", "setup_s (one batch of every LPA)"),
    pl("engine.submit_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.begin_batch_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.join_batch_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.finish_batch_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.drain_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.stage_pool_wait_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.stage_flash_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.stage_timing_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.queue_only_ns_per_op", "ns", "lower", M_ENGINE),
    pl("engine.pool_roundtrip_us", "us", "lower", M_ENGINE),
    pl("engine.thread_scaling_x", "x", "higher", M_ENGINE),
    pl("engine.snapshot_ms", "ms", "lower", "serve.checkpoint_ms"),
    pl("engine.restore_ms", "ms", "lower", "serve.restore_ms"),
    pl("engine.snapshot_bytes", "bytes", "lower", "serve.snapshot_bytes"),
    pl("engine.sim_kiops", "kIOPS", "higher", "simulated device throughput; exact for a seed"),
    pl("engine.makespan_ms", "ms", "lower", "simulated device time; exact for a seed"),
    pl("engine.sim_p99_us", "us", "lower", "simulated device latency p99; exact for a seed"),
    pl("ftl.die_read_ns.exact", "ns", "lower", M_FTL_RW),
    pl("ftl.die_read_ns.analytic", "ns", "lower", M_FTL_RW),
    pl("ftl.die_read_ns.aggregate", "ns", "lower", M_FTL_RW),
    pl("ftl.die_write_ns.aggregate", "ns", "lower", M_FTL_RW),
    pl("ftl.read_clean_ns", "ns", "lower", M_FTL_LADDER),
    pl("ftl.read_corrected_ns", "ns", "lower", M_FTL_LADDER),
    pl("ftl.read_recovered_ns", "ns", "lower", M_FTL_LADDER),
    pl("ftl.read_uncorrectable_ns", "ns", "lower", M_FTL_LADDER),
    pl("ftl.retry_reads_per_escalation", "count", "lower", M_FTL_LADDER),
    pl(
        "ftl.advance_day_ms",
        "ms",
        "lower",
        "host_kops_per_s on fleet-lifetime and hammer-recovery",
    ),
    pl("ftl.gc_writes", "count", "lower", M_FTL_COUNT),
    pl("ftl.erases", "count", "lower", M_FTL_COUNT),
    pl("ftl.refresh_writes", "count", "lower", M_FTL_COUNT),
    pl("ftl.recovered_reads", "count", "higher", M_FTL_COUNT),
    pl("ftl.uncorrectable_reads", "count", "lower", M_FTL_COUNT),
    pl("ftl.recovery_steps", "count", "lower", M_FTL_COUNT),
    pl("ftl.recovery_reads", "count", "lower", M_FTL_COUNT),
    pl("ftl.hottest_block_reads", "count", "lower", M_FTL_COUNT),
    pl("ftl.uber", "ratio", "lower", "readable_frac"),
    pl("ftl.recovered_frac", "ratio", "higher", "readable_frac on hammer-recovery"),
    pl("ftl.failed_op_frac", "ratio", "lower", "readable_frac"),
    pl("flash.read_page_ns.exact", "ns", "lower", M_FLASH),
    pl("flash.read_page_ns.analytic", "ns", "lower", M_FLASH),
    pl("flash.read_page_ns.aggregate", "ns", "lower", M_FLASH),
    pl("flash.disturb_fold_ns.exact", "ns", "lower", M_FLASH),
    pl("flash.disturb_fold_ns.analytic", "ns", "lower", M_FLASH),
    pl("flash.disturb_fold_ns.aggregate", "ns", "lower", M_FLASH),
    pl("flash.program_page_ns.exact", "ns", "lower", M_FLASH),
    pl("flash.program_page_ns.analytic", "ns", "lower", M_FLASH),
    pl("flash.program_page_ns.aggregate", "ns", "lower", M_FLASH),
    pl("flash.erase_block_ns.exact", "ns", "lower", M_FLASH),
    pl("flash.erase_block_ns.analytic", "ns", "lower", M_FLASH),
    pl("flash.erase_block_ns.aggregate", "ns", "lower", M_FLASH),
    pl("flash.read_retry_ns.analytic", "ns", "lower", M_FTL_LADDER),
    pl("flash.block_rber_rate_warm_ns", "ns", "lower", M_CORE_TUNE),
    pl("flash.block_rber_rate_cold_ns", "ns", "lower", M_CORE_TUNE),
    pl("flash.advance_days_ns_per_block", "ns", "lower", "ftl.advance_day_ms"),
    pl("flash.mean_block_rber.exact", "ratio", "lower", "core.tier_rber_err"),
    pl("flash.mean_block_rber.analytic", "ratio", "lower", "core.tier_rber_err"),
    pl("flash.mean_block_rber.aggregate", "ratio", "lower", "core.tier_rber_err"),
    pl("ecc.page_decode_ns", "ns", "lower", M_FTL_LADDER),
    pl(
        "ecc.bch_encode_us",
        "us",
        "lower",
        "none of the five; recorded so a codec change is visible",
    ),
    pl(
        "ecc.bch_decode_us",
        "us",
        "lower",
        "none of the five; recorded so a codec change is visible",
    ),
    pl("ecc.corrected_bits", "count", "lower", M_FTL_COUNT),
    pl("core.manufacture_init_us", "us", "lower", M_CORE_TUNE),
    pl("core.tune_block_us", "us", "lower", M_CORE_TUNE),
    pl("core.daily_check_us", "us", "lower", M_CORE_TUNE),
    pl("core.policy_probe_reads", "count", "lower", M_CORE_TUNE),
    pl("core.characterize_s", "s", "lower", M_CORE_FIG),
    pl("core.fig3_s", "s", "lower", "core.characterize_s"),
    pl("core.fig4_s", "s", "lower", "core.characterize_s"),
    pl("core.fig5_s", "s", "lower", "core.characterize_s"),
    pl("core.fig8_s", "s", "lower", "core.characterize_s"),
    pl("core.fig10_s", "s", "lower", "core.characterize_s"),
    pl("core.rdr_recover_ms", "ms", "lower", "core.fig10_s"),
    pl("core.fig3_slope_err_max", "ratio", "lower", M_ACCURACY),
    pl("core.endurance_gain_err", "ratio", "lower", M_ACCURACY),
    pl("core.rdr_reduction_err", "ratio", "lower", M_ACCURACY),
    pl("core.tier_rber_err", "ratio", "lower", M_ACCURACY),
    pl("fleet.new_ms", "ms", "lower", "setup_s on fleet-lifetime"),
    pl("fleet.epoch_ms_p50", "ms", "lower", M_FLEET),
    pl("fleet.epoch_ms_max", "ms", "lower", M_FLEET),
    pl("fleet.snapshot_us", "us", "lower", M_FLEET),
    pl("fleet.restore_us", "us", "lower", M_FLEET),
    pl("fleet.snapshot_bytes", "bytes", "lower", M_FLEET),
    pl("fleet.replacements", "count", "lower", M_FLEET),
    pl("fleet.refresh_amp", "ratio", "lower", M_FLEET),
    pl(
        "bench.machine_speed",
        "ratio",
        "higher",
        "the box, not the program: every host-time end-to-end metric is scaled by it",
    ),
    pl(
        "bench.raw_host_kops_per_s",
        "kops/s",
        "higher",
        "host_kops_per_s as measured, before scaling by bench.machine_speed",
    ),
    pl("trace.overhead_frac", "ratio", "lower", "traced / untraced window wall - 1"),
    pl("trace.residual_frac", "ratio", "lower", "window wall not covered by a layer span"),
    pl(
        "trace.self_frac.serve",
        "ratio",
        "lower",
        "share of traced window self time in serve calls",
    ),
    pl(
        "trace.self_frac.engine",
        "ratio",
        "lower",
        "share in engine calls (FTL and flash run inside)",
    ),
    pl("trace.self_frac.fleet", "ratio", "lower", "share in fleet calls"),
    pl("trace.self_frac.core", "ratio", "lower", "share in core calls (figure routines)"),
    pl("trace.self_frac.flash", "ratio", "lower", "share in direct chip calls"),
];

/// Whether `name` obeys the driver's rule for names.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `BENCHMARK.json` document, with exactly the driver's keys.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declarations_meet_the_driver_limits() {
        let mut names = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name), "{name}");
            assert!(names.insert(name), "{name} declared twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()), "{}", PER_LAYER.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        for (unit, better) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
        {
            assert!(unit_ok(unit), "{unit}");
            assert!(matches!(better, "higher" | "lower"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> BTreeSet<(String, String)> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .filter_map(|line| line.split('#').next()?.split_once('='))
            .map(|(key, value)| (key.trim().to_string(), value.trim().to_string()))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_root_workspace() {
        let read =
            |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let ours = release_profile(&read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")));
        let root = release_profile(&read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")));
        assert!(!root.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(ours, root, "the benchmark must measure the build users ship");
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with `-- spec > BENCHMARK.json`");
    }
}
