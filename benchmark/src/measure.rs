//! Sample statistics and the `/proc` readers behind the host-time metrics.

use std::time::Instant;

use crate::json::Value;

/// First quartile, median and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive: the i-th cut sits
/// at position `i * (n + 1) / 4`), so spreads computed here match the
/// driver's. One sample yields itself three times.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// The median (second quartile) of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it — a tail estimated from a handful of points is
/// not reported.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// One metric of one run: its value, and the quartiles, minimum and count
/// of the per-window samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// `value` over the whole run beside its non-empty per-window `samples`.
    pub fn of(value: f64, samples: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        Self { value, q1, q3, min, n: samples.len() }
    }

    /// A value that has no spread (counts, simulated statistics).
    pub fn exact(value: f64) -> Self {
        Self { value, q1: value, q3: value, min: value, n: 1 }
    }

    /// Interquartile distance of the samples as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj([
            ("value", Value::Num(self.value)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("n", Value::Num(self.n as f64)),
            ("unit", Value::str(unit)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Self {
            value: v.get("value")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI; the value is not readable without libc.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Parses user+system CPU seconds out of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Parses a `Key:   <n> kB`-style numeric field out of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Process CPU seconds so far (user + system, all threads, 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat readable")
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    parse_status_field(&status, "VmHWM").expect("VmHWM present") as f64 / 1024.0
}

/// Context switches (voluntary + involuntary) of every live thread.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("status")).ok())
        .map(|status| {
            parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// A fixed synthetic kernel timed throughout a run: the instrument that
/// tells how fast the box was while the run's windows were measured.
///
/// The sandbox the baseline was taken in shares its memory system with
/// other tenants. A fixed window of any of the five workloads reads up to
/// 1.5x slower for minutes at a time, in CPU time as in wall time, so the
/// medians of two sets of runs of one binary differ by more than any bound
/// the benchmark could state. Random lookups in a table larger than L2
/// slow down by the same factor over the same minutes (correlation 0.85 to
/// 0.95 between 30 s means; a pure ALU chain: 0.2), so every run samples
/// this kernel between its windows and scales its host-time metrics to the
/// speed the kernel has on the quiet baseline box. Over two sets of 100
/// runs that took the spread of ten runs from 14% (worst 31%) to 8% (worst
/// 12%), and the shift between two sets' medians from 20% (worst 85%) to 3%
/// (worst 7%).
pub struct SpeedProbe {
    table: Vec<u32>,
    samples: Vec<f64>,
    spent_s: f64,
}

impl SpeedProbe {
    /// The table's size: past L2, so lookups contend where the workloads do.
    pub const TABLE_MIB: f64 = 16.0;
    /// Lookups per thread per sample (four independent chains of this many
    /// steps): about 5 ms on the baseline box.
    const STEPS: usize = 300_000;
    /// Seconds one sample takes on the quiet baseline box; fixes the unit
    /// of [`SpeedProbe::speed`], nothing else.
    const REFERENCE_S: f64 = 0.0047;

    pub fn new() -> Self {
        let entries = (Self::TABLE_MIB * 1024.0 * 1024.0) as usize / std::mem::size_of::<u32>();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..entries)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u32
            })
            .collect();
        Self { table, samples: Vec::new(), spent_s: 0.0 }
    }

    /// Times one pass of the kernel on `threads` threads at once.
    pub fn sample(&mut self, threads: usize) {
        let table = &self.table;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mask = table.len() as u64 - 1;
                    let mut chains = [1u64, 2, 3, 4];
                    let mut acc = 0u64;
                    for _ in 0..Self::STEPS {
                        for x in &mut chains {
                            *x ^= *x << 13;
                            *x ^= *x >> 7;
                            *x ^= *x << 17;
                            let v = u64::from(table[(*x & mask) as usize]);
                            acc = if v & 1 == 0 {
                                acc.wrapping_add(v)
                            } else {
                                acc ^ v.rotate_left(7)
                            };
                        }
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        let seconds = t.elapsed().as_secs_f64();
        self.samples.push(seconds);
        self.spent_s += seconds;
    }

    /// Seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The box's speed over the run relative to the quiet baseline box
    /// (below 1 when slower): the reference sample time over the first
    /// quartile of this run's samples. Seconds measured in the run, times
    /// this, are seconds at the baseline box's speed. Of the statistics
    /// tried (mean, trimmed means, median, quartiles) the first quartile
    /// paired with whole-run totals left the least spread and shift: the
    /// kernel slows more than the workloads do, and its fast samples move
    /// less than its mean.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    pub fn speed(&self) -> f64 {
        Self::REFERENCE_S / quartiles(&self.samples)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sample: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99.0), None, "9.99 samples beyond p99");
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99.0), Some(990.0));
        assert_eq!(percentile(&sample, 50.0), Some(500.0));
        assert_eq!(percentile(&sample[..19], 50.0), None);
        assert_eq!(percentile(&sample[..20], 50.0), Some(10.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(10.0, &[10.0, 11.0, 12.0, 9.0, 10.0]);
        assert_eq!((s.value, s.min, s.n), (10.0, 9.0, 5));
        assert!((s.spread() - (s.q3 - s.q1) / 10.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn stat_parser_skips_hostile_command_names() {
        let line = "42 (a) b (c)) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_cpu_s(line), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn status_parser_reads_numeric_fields() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn speed_probe_reports_a_positive_speed() {
        let mut probe = SpeedProbe::new();
        probe.sample(2);
        probe.sample(2);
        assert_eq!(probe.samples().len(), 2);
        assert!(probe.spent_s() > 0.0);
        assert!(probe.speed().is_finite() && probe.speed() > 0.0);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
        let _ = context_switches();
    }
}
