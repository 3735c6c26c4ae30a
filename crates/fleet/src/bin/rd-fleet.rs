//! `rd-fleet` — fleet lifetime runs from the command line.
//!
//! ```text
//! rd-fleet run     [--drives N] [--epochs N] [--ops N] [--epoch-days F]
//!                  [--seed N] [--profile NAME] [--chip NAME] [--fidelity TIER]
//!                  [--endurance N] [--replace-uncorrectable N]
//!                  [--threads N] [--checkpoint PATH]
//! rd-fleet resume  --checkpoint PATH [--epochs N] [--threads N] [--save PATH]
//! rd-fleet inspect --checkpoint PATH
//! ```
//!
//! `run` advances a fresh fleet and prints one JSON row per epoch; with
//! `--checkpoint` it writes the final fleet state to a versioned container.
//! `resume` restores that container (the config travels inside it — no
//! other flags needed) and continues; the result is bit-identical to a run
//! that never stopped. `inspect` decodes a container and prints its config
//! and current aggregate row without advancing anything.
//!
//! `--threads N` (default 1) advances N drives concurrently; 0 means one per
//! available core. The rows do not depend on it.

use rd_fleet::{Fleet, FleetConfig, ReadFidelity};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: rd-fleet run [--drives N] [--epochs N] [--ops N] [--epoch-days F] \
         [--seed N] [--profile NAME] [--chip NAME] \
         [--fidelity exact|analytic|aggregate] \
         [--endurance N] [--replace-uncorrectable N] [--threads N] [--checkpoint PATH]\n\
         \x20      rd-fleet resume --checkpoint PATH [--epochs N] [--threads N] [--save PATH]\n\
         \x20      rd-fleet inspect --checkpoint PATH\n\
         --threads N advances N drives concurrently (0 = one per core); rows do not depend on it"
    );
    std::process::exit(2);
}

/// Pulls the value of `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("rd-fleet: {flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn parse<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("rd-fleet: bad value '{v}' for {flag}");
        std::process::exit(2);
    })
}

fn config_json(c: &FleetConfig) -> String {
    format!(
        concat!(
            "{{\"row\":\"fleet-config\",\"drives\":{},\"seed\":{},",
            "\"epoch_days\":{},\"ops_per_epoch\":{},\"profile\":\"{}\",",
            "\"endurance_pe\":{},\"replace_uncorrectable\":{},\"chip\":\"{}\",",
            "\"fidelity\":\"{:?}\",\"channels\":{},\"dies_per_channel\":{}}}"
        ),
        c.drives,
        c.seed,
        c.epoch_days,
        c.ops_per_epoch,
        c.profile,
        c.endurance_pe,
        c.replace_uncorrectable,
        c.engine.die.chip,
        c.engine.fidelity(),
        c.engine.topology.channels,
        c.engine.topology.dies_per_channel,
    )
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let mut config = FleetConfig::quick();
    let epochs: u32 = take_flag(&mut args, "--epochs").map_or(6, |v| parse("--epochs", v));
    let threads: usize = take_flag(&mut args, "--threads").map_or(1, |v| parse("--threads", v));
    let checkpoint = take_flag(&mut args, "--checkpoint");
    if let Some(v) = take_flag(&mut args, "--drives") {
        config.drives = parse("--drives", v);
    }
    if let Some(v) = take_flag(&mut args, "--ops") {
        config.ops_per_epoch = parse("--ops", v);
    }
    if let Some(v) = take_flag(&mut args, "--epoch-days") {
        config.epoch_days = parse("--epoch-days", v);
    }
    if let Some(v) = take_flag(&mut args, "--seed") {
        config.seed = parse("--seed", v);
    }
    if let Some(v) = take_flag(&mut args, "--profile") {
        config.profile = v;
    }
    if let Some(v) = take_flag(&mut args, "--chip") {
        // Before --fidelity: selecting a chip adopts its native tier, which
        // an explicit --fidelity flag then overrides.
        config.engine.die = config.engine.die.clone().with_chip(&v)?;
    }
    if let Some(v) = take_flag(&mut args, "--fidelity") {
        config.engine = config.engine.with_fidelity(parse::<ReadFidelity>("--fidelity", v));
    }
    if let Some(v) = take_flag(&mut args, "--endurance") {
        config.endurance_pe = parse("--endurance", v);
    }
    if let Some(v) = take_flag(&mut args, "--replace-uncorrectable") {
        config.replace_uncorrectable = parse("--replace-uncorrectable", v);
    }
    if !args.is_empty() {
        return Err(format!("unrecognized arguments: {args:?}"));
    }

    // `Fleet::new` is the gate for flag combinations no drive can be built
    // from (a TLC chip at the MLC-only exact tier, say): nothing is printed
    // for one.
    let mut fleet = Fleet::new(config)?;
    println!("{}", config_json(fleet.config()));
    fleet.run(epochs, threads, |row| println!("{}", row.to_json()));
    if let Some(path) = checkpoint {
        let bytes = fleet.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        std::fs::write(&path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("rd-fleet: checkpoint written to {path} ({} bytes)", bytes.len());
    }
    Ok(())
}

fn resume(mut args: Vec<String>) -> Result<(), String> {
    let path = take_flag(&mut args, "--checkpoint").ok_or("resume needs --checkpoint PATH")?;
    let epochs: u32 = take_flag(&mut args, "--epochs").map_or(6, |v| parse("--epochs", v));
    let threads: usize = take_flag(&mut args, "--threads").map_or(1, |v| parse("--threads", v));
    let save = take_flag(&mut args, "--save");
    if !args.is_empty() {
        return Err(format!("unrecognized arguments: {args:?}"));
    }

    let bytes = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
    let mut fleet = Fleet::restore(&bytes).map_err(|e| format!("restore {path}: {e}"))?;
    eprintln!(
        "rd-fleet: resumed {} drives at epoch {} ({} replacements so far)",
        fleet.config().drives,
        fleet.epochs_done(),
        fleet.replacements()
    );
    fleet.run(epochs, threads, |row| println!("{}", row.to_json()));
    if let Some(out) = save {
        let bytes = fleet.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        std::fs::write(&out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("rd-fleet: checkpoint written to {out} ({} bytes)", bytes.len());
    }
    Ok(())
}

fn inspect(mut args: Vec<String>) -> Result<(), String> {
    let path = take_flag(&mut args, "--checkpoint").ok_or("inspect needs --checkpoint PATH")?;
    if !args.is_empty() {
        return Err(format!("unrecognized arguments: {args:?}"));
    }
    let bytes = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
    // A full restore doubles as an integrity check: magic, version, CRC,
    // section shapes, and every engine's config fingerprint must decode.
    let fleet = Fleet::restore(&bytes).map_err(|e| format!("restore {path}: {e}"))?;
    println!("{}", config_json(fleet.config()));
    println!("{}", fleet.row().to_json());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "run" => run(args),
        "resume" => resume(args),
        "inspect" => inspect(args),
        "-h" | "--help" | "help" => usage(),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rd-fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
