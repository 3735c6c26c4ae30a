//! Minimal interactive REPL for the `rd-serve` binary.
//!
//! Generic over its input/output streams so the command loop is unit-
//! testable without a TTY. One command per line:
//!
//! * `run [ops]` — serve the next `ops` arrivals (default `--ops`)
//! * `stats` — print the merged array report and per-tenant table
//! * `tenant add <name> <profile> <rate> [burst]` — add a tenant (takes
//!   effect at the next service rebuild)
//! * `tenant ls` — list configured tenants
//! * `tier <fidelity>` — switch read fidelity (rebuilds the service)
//! * `snapshot <path>` — write a binary engine checkpoint (versioned,
//!   CRC-guarded `RDSRVSNP` container; see [`crate::Service::checkpoint`])
//! * `restore <path>` — restore the shard engines from such a checkpoint
//!   (the deployment shape must match the one that wrote it)
//! * `help`, `quit`

use std::io::{BufRead, Write};

use crate::cli::{CliOptions, USAGE};
use crate::service::Service;
use crate::tenant::TenantConfig;

/// Runs the command loop until `quit` or end-of-input. Returns the number
/// of commands executed (prompt/diagnostics go to `out`).
///
/// # Errors
///
/// Propagates I/O errors from the streams; command errors are printed and
/// do not abort the loop.
pub fn run_repl<R: BufRead, W: Write>(
    mut options: CliOptions,
    input: R,
    out: &mut W,
) -> std::io::Result<usize> {
    let mut service: Option<Service> = None;
    let mut commands = 0usize;
    // Vary the traffic seed per `run` so repeated runs extend the workload
    // instead of replaying identical arrivals.
    let mut run_index = 0u64;
    writeln!(out, "rd-serve repl — `help` for commands")?;
    write!(out, "> ")?;
    out.flush()?;
    for line in input.lines() {
        let line = line?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => {}
            ["quit" | "exit" | "q"] => break,
            ["help"] => {
                writeln!(
                    out,
                    "commands: run [ops] | stats | tenant add <name> <profile> <rate> \
                     [burst] | tenant ls | tier <fidelity> | snapshot <path> | \
                     restore <path> | help | quit"
                )?;
                writeln!(out, "{USAGE}")?;
            }
            ["run", rest @ ..] => {
                let ops = match rest {
                    [] => Ok(options.ops),
                    [n] => n.parse::<u64>().map_err(|_| format!("bad op count `{n}`")),
                    _ => Err("usage: run [ops]".to_string()),
                };
                match ops {
                    Err(message) => writeln!(out, "error: {message}")?,
                    Ok(ops) => match ensure_service(&mut service, &options, out)? {
                        None => {}
                        Some(service) => {
                            let mut traffic = service.traffic(options.seed ^ run_index);
                            run_index += 1;
                            let report = service.run_traffic(&mut traffic, ops);
                            writeln!(
                                out,
                                "served {} ops in {:.2}s ({:.0} ops/s wall), digest {:016x}",
                                report.stats.ops,
                                report.wall_s,
                                report.wall_ops_per_s(),
                                report.stats.data_digest,
                            )?;
                        }
                    },
                }
            }
            ["stats"] => match ensure_service(&mut service, &options, out)? {
                None => {}
                Some(service) => {
                    let report = service.report(0.0);
                    writeln!(
                        out,
                        "array: {} shards, {} ops ({} effective), uber {:e}, \
                         p50 {:.1}us p99 {:.1}us",
                        report.shards,
                        report.stats.ops,
                        report.stats.effective_ops(),
                        report.stats.uber,
                        report.stats.latency_p50_us,
                        report.stats.latency_p99_us,
                    )?;
                    for tenant in &report.tenants {
                        writeln!(
                            out,
                            "  {:<12} ops {:<9} p50 {:>8.1}us p99 {:>8.1}us uber {:e}",
                            tenant.name,
                            tenant.ops,
                            tenant.p50_latency_us,
                            tenant.p99_latency_us,
                            tenant.uber,
                        )?;
                    }
                }
            },
            ["tenant", "ls"] => {
                for tenant in options.tenants() {
                    writeln!(
                        out,
                        "  {:<12} {:<12} {:>8.0} ops/s  burst {:.1}x",
                        tenant.name, tenant.profile, tenant.ops_per_s, tenant.burst_factor,
                    )?;
                }
            }
            ["tenant", "add", name, profile, rate, rest @ ..] if rest.len() <= 1 => {
                let mut spec = format!("{name}:{profile}:{rate}");
                if let [burst] = rest {
                    spec.push(':');
                    spec.push_str(burst);
                }
                match TenantConfig::parse_spec(&spec) {
                    Err(message) => writeln!(out, "error: {message}")?,
                    Ok(tenant) => {
                        // Materialize the default mix first so `add` extends
                        // it instead of silently replacing it.
                        if options.tenants.is_empty() {
                            options.tenants = CliOptions::default_tenants();
                        }
                        writeln!(
                            out,
                            "added tenant {} (takes effect on next rebuild)",
                            tenant.name
                        )?;
                        options.tenants.push(tenant);
                        service = None; // force rebuild with the new tenant set
                    }
                }
            }
            ["tier", tier] => {
                // The same gate the `--tier` flag passes: not every chip
                // supports every tier.
                let switched = tier.parse().and_then(|fidelity| {
                    let switched = CliOptions { fidelity, ..options.clone() };
                    switched.validate().map(|()| switched)
                });
                match switched {
                    Err(message) => writeln!(out, "error: {message}")?,
                    Ok(switched) => {
                        options = switched;
                        service = None; // rebuilt lazily with the new tier
                        writeln!(
                            out,
                            "fidelity set to {} (service will rebuild)",
                            options.fidelity
                        )?;
                    }
                }
            }
            ["snapshot", path] => match ensure_service(&mut service, &options, out)? {
                None => {}
                Some(service) => match service.checkpoint() {
                    Err(error) => writeln!(out, "error: checkpoint failed: {error}")?,
                    Ok(bytes) => match std::fs::write(path, &bytes) {
                        Ok(()) => writeln!(out, "wrote {path} ({} bytes)", bytes.len())?,
                        Err(error) => writeln!(out, "error: {path}: {error}")?,
                    },
                },
            },
            ["restore", path] => match ensure_service(&mut service, &options, out)? {
                None => {}
                Some(service) => match std::fs::read(path) {
                    Err(error) => writeln!(out, "error: {path}: {error}")?,
                    Ok(bytes) => match service.restore(&bytes) {
                        Ok(()) => writeln!(
                            out,
                            "restored {path}, digest {:016x}",
                            service.report(0.0).stats.data_digest,
                        )?,
                        Err(error) => writeln!(out, "error: restore failed: {error}")?,
                    },
                },
            },
            _ => writeln!(out, "error: unknown command `{line}` (try help)")?,
        }
        commands += 1;
        write!(out, "> ")?;
        out.flush()?;
    }
    writeln!(out, "bye")?;
    Ok(commands)
}

/// Lazily builds the service (engine construction is the expensive step, so
/// it only happens when a command actually needs flash). Build failures are
/// printed, returning `None`.
fn ensure_service<'s, W: Write>(
    service: &'s mut Option<Service>,
    options: &CliOptions,
    out: &mut W,
) -> std::io::Result<Option<&'s mut Service>> {
    if service.is_none() {
        match Service::start(options.serve_config(), options.tenants()) {
            Ok(built) => *service = Some(built),
            Err(error) => {
                writeln!(out, "error: failed to start service: {error}")?;
                return Ok(None);
            }
        }
    }
    Ok(service.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CliOptions;

    fn small_options() -> CliOptions {
        CliOptions {
            channels: 2,
            dies_per_channel: 2,
            shards: 2,
            ops: 500,
            batch_ops: 64,
            ..CliOptions::default()
        }
    }

    fn drive(script: &str) -> (usize, String) {
        drive_with(small_options(), script)
    }

    fn drive_with(options: CliOptions, script: &str) -> (usize, String) {
        let mut out = Vec::new();
        let commands = run_repl(options, script.as_bytes(), &mut out).expect("repl I/O");
        (commands, String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn runs_stats_and_quits() {
        let (commands, out) = drive("run 300\nstats\nquit\n");
        assert_eq!(commands, 2, "quit is not counted");
        assert!(out.contains("served 300 ops"), "{out}");
        assert!(out.contains("array: 2 shards"), "{out}");
        assert!(out.contains("bye"), "{out}");
    }

    #[test]
    fn tenant_add_extends_default_mix_and_tier_switches() {
        let (_, out) =
            drive("tenant add cache umass-web 8000 6\ntenant ls\ntier exact\nrun 200\nquit\n");
        assert!(out.contains("added tenant cache"), "{out}");
        assert!(out.contains("cache"), "{out}");
        assert!(out.contains("web"), "default mix still present: {out}");
        assert!(out.contains("fidelity set to cell-exact"), "{out}");
        assert!(out.contains("served 200 ops"), "{out}");
    }

    #[test]
    fn bad_commands_are_diagnosed_not_fatal() {
        let (commands, out) = drive("frobnicate\ntier marble\ntenant add x nope 10\nquit\n");
        assert_eq!(commands, 3);
        assert!(out.contains("unknown command"), "{out}");
        assert!(out.contains("unknown fidelity"), "{out}");
        assert!(out.contains("unknown profile"), "{out}");

        // A tier the chip does not support is refused like the `--tier` flag
        // refuses it: the old tier and the running service both stay (a
        // run reports the service's cumulative op count).
        let tlc = CliOptions { chip: "va-tlc-v3".to_string(), ..small_options() };
        let (commands, out) = drive_with(tlc, "run 50\ntier cell-exact\nrun 100\nquit\n");
        assert_eq!(commands, 3);
        assert_eq!(out.matches("error:").count(), 1, "{out}");
        assert!(out.contains("error: --chip va-tlc-v3 --tier cell-exact: "), "{out}");
        assert!(out.contains("served 50 ops") && out.contains("served 150 ops"), "{out}");
    }

    #[test]
    fn snapshot_and_restore_round_trip_a_binary_checkpoint() {
        let dir = std::env::temp_dir().join("rd_serve_repl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shards.snap");
        let script = format!("run 200\nsnapshot {p}\nrestore {p}\nquit\n", p = path.display());
        let mut out = Vec::new();
        run_repl(small_options(), script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let snap = std::fs::read(&path).unwrap();
        assert_eq!(&snap[..8], crate::service::SERVICE_SNAP_MAGIC, "binary container, not JSON");
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("restored"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_of_garbage_is_diagnosed_not_fatal() {
        let dir = std::env::temp_dir().join("rd_serve_repl_bad_restore");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.snap");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let script = format!("restore {}\nstats\nquit\n", path.display());
        let (commands, out) = {
            let mut out = Vec::new();
            let commands =
                run_repl(small_options(), script.as_bytes(), &mut out).expect("repl I/O");
            (commands, String::from_utf8(out).unwrap())
        };
        assert_eq!(commands, 2);
        assert!(out.contains("error: restore failed"), "{out}");
        assert!(out.contains("array: 2 shards"), "loop must continue: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
