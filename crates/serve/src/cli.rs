//! Hand-rolled clap-style command line for the `rd-serve` binary.
//!
//! Vendored-deps-only build: no clap, so this module implements the usual
//! `--flag value` / `--flag=value` conventions (repeatable `--tenant`,
//! `--help`, unknown-flag diagnostics) over plain `std::env::args`.

use rd_engine::{EngineConfig, ReadFidelity, Timing, Topology};
use rd_ftl::SsdConfig;

use crate::service::ServeConfig;
use crate::tenant::TenantConfig;

/// Parsed deployment options shared by `run` and `repl`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Channels in the array.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Shards (must divide `channels`).
    pub shards: u32,
    /// Chip-database entry every die is built from (see [`rd_ftl::chips`]).
    pub chip: String,
    /// Read-path fidelity tier.
    pub fidelity: ReadFidelity,
    /// Base RNG seed (dies and traffic derive their streams from it).
    pub seed: u64,
    /// Host ops to serve in `run` mode (and the REPL's default `run` count).
    pub ops: u64,
    /// Ops per shard batch.
    pub batch_ops: usize,
    /// Per-die queue depth.
    pub queue_depth: u32,
    /// Shared flash worker pool size (0 = one lane per available core);
    /// every shard draws a proportional slice.
    pub pool_threads: usize,
    /// Tenant specs; empty means the default 4-tenant mix.
    pub tenants: Vec<TenantConfig>,
    /// Write a JSON snapshot here after `run`.
    pub snapshot: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            channels: 4,
            dies_per_channel: 4,
            shards: 2,
            chip: rd_ftl::chips::DEFAULT_CHIP.to_string(),
            fidelity: ReadFidelity::BlockAggregate,
            seed: 2015,
            ops: 200_000,
            batch_ops: 512,
            queue_depth: 16,
            pool_threads: 0,
            tenants: Vec::new(),
            snapshot: None,
        }
    }
}

impl CliOptions {
    /// The default 4-tenant mix used when no `--tenant` is given: two
    /// read-heavy web/financial tenants and two mixed mail/engineering
    /// tenants, rates staggered so no two tenants are in lockstep.
    pub fn default_tenants() -> Vec<TenantConfig> {
        vec![
            TenantConfig::new("web", "umass-web", 6000.0),
            TenantConfig::new("fin", "umass-fin1", 4000.0),
            TenantConfig::new("mail", "postmark", 2500.0),
            TenantConfig::new("eng", "msr-src12", 1500.0),
        ]
    }

    /// Tenants in force (configured or default).
    pub fn tenants(&self) -> Vec<TenantConfig> {
        if self.tenants.is_empty() {
            Self::default_tenants()
        } else {
            self.tenants.clone()
        }
    }

    /// Builds the whole-array engine configuration.
    ///
    /// # Panics
    ///
    /// Panics on an unknown chip name; [`CliOptions::validate`] catches that
    /// first on every CLI path.
    pub fn engine_config(&self) -> EngineConfig {
        let die = SsdConfig::engine_scale(self.seed)
            .with_chip(&self.chip)
            .expect("chip name checked in validate()")
            .with_fidelity(self.fidelity);
        EngineConfig {
            topology: Topology { channels: self.channels, dies_per_channel: self.dies_per_channel },
            die,
            timing: Timing::default(),
            queue_depth: self.queue_depth,
            capture_read_data: false,
            die_index_offset: 0,
        }
    }

    /// Builds the service deployment configuration.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            engine: self.engine_config(),
            shards: self.shards,
            batch_ops: self.batch_ops,
            max_inflight_batches: 4,
            pool_threads: self.pool_threads,
        }
    }

    /// Validates cross-flag invariants the type system cannot.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn validate(&self) -> Result<(), String> {
        Topology { channels: self.channels, dies_per_channel: self.dies_per_channel }
            .check()
            .map_err(|e| {
                format!("--channels {} --dies {}: {e}", self.channels, self.dies_per_channel)
            })?;
        if self.shards == 0 || !self.channels.is_multiple_of(self.shards) {
            return Err(format!(
                "--shards {} must divide --channels {}",
                self.shards, self.channels
            ));
        }
        if self.batch_ops == 0 {
            return Err("--batch must be positive".into());
        }
        if rd_ftl::chips::get(&self.chip).is_none() {
            return Err(format!(
                "--chip {}: unknown chip (database has: {})",
                self.chip,
                rd_ftl::chips::names().join(", ")
            ));
        }
        for tenant in &self.tenants {
            tenant.validate()?;
        }
        // The topology was checked above and the remaining engine knobs are
        // constants, so what a flag can still break is the chip at the
        // chosen tier (cell-exact is MLC-only) and the queue depth.
        let engine = self.engine_config();
        engine
            .die
            .check()
            .map_err(|e| format!("--chip {} --tier {}: {e}", self.chip, self.fidelity))?;
        engine.check().map_err(|e| format!("--queue-depth {}: {e}", self.queue_depth))
    }
}

/// A parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Serve `--ops` arrivals, print the report, exit.
    Run(CliOptions),
    /// Drop into the interactive REPL.
    Repl(CliOptions),
    /// Print usage and exit.
    Help,
}

/// Usage text (also the `help` REPL command's flag reference).
pub const USAGE: &str = "\
rd-serve — sharded multi-tenant SSD serving front-end

USAGE:
    rd-serve <run|repl> [FLAGS]

FLAGS:
    --channels <n>     channels in the array            [default: 4]
    --dies <n>         dies per channel                 [default: 4]
    --shards <n>       engine shards; must divide channels [default: 2]
    --chip <name>      chip-database entry for every die   [default: va-mlc-2y]
    --tier <t>         read fidelity: cell-exact | page-analytic |
                       block-aggregate                  [default: block-aggregate]
    --seed <n>         base RNG seed                    [default: 2015]
    --ops <n>          host ops to serve (run mode)     [default: 200000]
    --batch <n>        ops per shard batch              [default: 512]
    --queue-depth <n>  per-die queue depth              [default: 16]
    --pool-threads <n> shared flash worker pool size; 0 = one
                       lane per core                    [default: 0]
    --tenant <spec>    name:profile:ops_per_s[:burst_factor]; repeatable
                       (default: 4-tenant web/fin/mail/eng mix)
    --snapshot <path>  write a JSON report here after run
    -h, --help         this text
";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a message suitable for stderr on unknown commands/flags, missing
/// values, or malformed numbers/specs.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut iter = args.iter().peekable();
    let mode = match iter.next().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => return Ok(Command::Help),
        Some("run") => "run",
        Some("repl") => "repl",
        Some(other) => return Err(format!("unknown command `{other}` (try run, repl, help)")),
    };
    let mut options = CliOptions::default();
    while let Some(flag) = iter.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, mut inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = inline.take() {
                return Ok(v);
            }
            iter.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--channels" => options.channels = parse_num(&value(flag)?, flag)?,
            "--dies" => options.dies_per_channel = parse_num(&value(flag)?, flag)?,
            "--shards" => options.shards = parse_num(&value(flag)?, flag)?,
            "--chip" => options.chip = value(flag)?,
            "--tier" => options.fidelity = value(flag)?.parse::<ReadFidelity>()?,
            "--seed" => options.seed = parse_num(&value(flag)?, flag)?,
            "--ops" => options.ops = parse_num(&value(flag)?, flag)?,
            "--batch" => options.batch_ops = parse_num(&value(flag)?, flag)?,
            "--queue-depth" => options.queue_depth = parse_num(&value(flag)?, flag)?,
            "--pool-threads" => options.pool_threads = parse_num(&value(flag)?, flag)?,
            "--tenant" => options.tenants.push(TenantConfig::parse_spec(&value(flag)?)?),
            "--snapshot" => options.snapshot = Some(value(flag)?),
            "-h" | "--help" => return Ok(Command::Help),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    options.validate()?;
    Ok(match mode {
        "run" => Command::Run(options),
        _ => Command::Repl(options),
    })
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: bad number `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_run_with_flags_and_equals_style() {
        let cmd = parse(&argv(
            "run --channels 8 --dies=2 --shards 4 --tier aggregate \
             --tenant web:umass-web:5000:8 --ops 1000 --snapshot out.json",
        ))
        .unwrap();
        let Command::Run(options) = cmd else { panic!("expected run") };
        assert_eq!(options.channels, 8);
        assert_eq!(options.dies_per_channel, 2);
        assert_eq!(options.shards, 4);
        assert_eq!(options.fidelity, ReadFidelity::BlockAggregate);
        assert_eq!(options.tenants.len(), 1);
        assert_eq!(options.tenants[0].burst_factor, 8.0);
        assert_eq!(options.ops, 1000);
        assert_eq!(options.snapshot.as_deref(), Some("out.json"));
        // Derived configs are consistent with the flags.
        assert_eq!(options.engine_config().topology.dies(), 16);
        assert_eq!(options.serve_config().shards, 4);
    }

    #[test]
    fn chip_flag_selects_database_entry() {
        let Command::Run(options) = parse(&argv("run --chip va-tlc-v3 --ops 10")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(options.chip, "va-tlc-v3");
        let die = &options.engine_config().die;
        assert_eq!(die.chip, "va-tlc-v3");
        assert_eq!(die.geometry.bits_per_cell, 3);
        // The default chip stays the database default.
        let Command::Repl(defaults) = parse(&argv("repl")).unwrap() else { panic!() };
        assert_eq!(defaults.chip, rd_ftl::chips::DEFAULT_CHIP);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&argv("fly")).is_err());
        assert!(parse(&argv("run --chip not-a-chip")).is_err());
        assert!(
            parse(&argv("run --chip va-tlc-v3 --tier cell-exact")).is_err(),
            "cell-exact is MLC-only"
        );
        assert!(parse(&argv("run --shards")).is_err());
        assert!(parse(&argv("run --shards 3")).is_err(), "3 does not divide 4 channels");
        assert!(parse(&argv("run --tier marble")).is_err());
        assert!(parse(&argv("run --ops twelve")).is_err());
        assert!(parse(&argv("run --wat 1")).is_err());
        let zero_depth = parse(&argv("run --queue-depth 0")).unwrap_err();
        assert!(zero_depth.starts_with("--queue-depth 0"), "{zero_depth}");
        assert!(parse(&argv("run --tenant only-one-field")).is_err());
        let too_many_dies = parse(&argv("run --channels 65536 --dies 65537")).unwrap_err();
        assert!(too_many_dies.contains("dies per channel overflow u32"), "{too_many_dies}");
    }

    #[test]
    fn help_and_default_tenants() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("run -h")).unwrap(), Command::Help));
        let Command::Repl(options) = parse(&argv("repl")).unwrap() else { panic!() };
        let tenants = options.tenants();
        assert_eq!(tenants.len(), 4, "default mix is 4 tenants");
        for t in &tenants {
            t.validate().unwrap();
        }
        assert!(USAGE.contains("--tenant"));
    }
}
