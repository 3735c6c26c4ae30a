//! Multi-tenant open-loop traffic: per-tenant Zipf working sets with
//! bursty arrivals.
//!
//! Each tenant owns a [`rd_workloads::WorkloadProfile`] (read mix + Zipf
//! block popularity + footprint), a private slice of the array's logical
//! address space, and an **on/off modulated Poisson arrival process**: the
//! tenant alternates between a base-rate phase and a burst phase whose rate
//! is `burst_factor`× higher, with exponentially distributed dwell times —
//! the standard open-loop model for the rate surges a front-end absorbs
//! from millions of independent users.
//!
//! [`Traffic`] merges the tenant streams in arrival-time order, producing a
//! deterministic sequence of [`ServiceOp`]s for a given seed — the service
//! equivalent of a trace file, which is what makes a service run digest-
//! comparable to a batch replay of the same op sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_engine::ReqKind;
use rd_workloads::{OpKind, TraceGenerator, WorkloadProfile};

/// Configuration of one tenant's offered load.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Display name (REPL tables, snapshots).
    pub name: String,
    /// Workload profile name (see [`WorkloadProfile::suite`]) — fixes the
    /// read/write mix, Zipf exponent, and footprint of the working set.
    pub profile: String,
    /// Mean arrival rate outside bursts (host ops per second of traffic
    /// time).
    pub ops_per_s: f64,
    /// Rate multiplier while bursting (`>= 1`; 1 disables bursts).
    pub burst_factor: f64,
    /// Long-run fraction of time spent bursting (`0..1`).
    pub burst_duty: f64,
    /// Mean burst duration in seconds of traffic time.
    pub burst_len_s: f64,
}

impl TenantConfig {
    /// A tenant with the default burst shape: 4× surges, 20% duty cycle,
    /// half-second mean bursts.
    pub fn new(name: &str, profile: &str, ops_per_s: f64) -> Self {
        Self {
            name: name.to_string(),
            profile: profile.to_string(),
            ops_per_s,
            burst_factor: 4.0,
            burst_duty: 0.2,
            burst_len_s: 0.5,
        }
    }

    /// Parses the CLI tenant spec `name:profile:ops_per_s[:burst_factor]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a malformed spec, an unknown
    /// profile, or a non-positive rate.
    pub(crate) fn parse_spec(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if !(3..=4).contains(&parts.len()) {
            return Err(format!(
                "tenant spec `{spec}` must be name:profile:ops_per_s[:burst_factor]"
            ));
        }
        let (name, profile) = (parts[0], parts[1]);
        if WorkloadProfile::by_name(profile).is_none() {
            let known: Vec<&str> = WorkloadProfile::suite().iter().map(|p| p.name).collect();
            return Err(format!("unknown profile `{profile}` (known: {})", known.join(", ")));
        }
        let ops_per_s: f64 = parts[2].parse().map_err(|_| format!("bad ops_per_s in `{spec}`"))?;
        let mut tenant = Self::new(name, profile, ops_per_s);
        if let Some(burst) = parts.get(3) {
            tenant.burst_factor =
                burst.parse().map_err(|_| format!("bad burst_factor in `{spec}`"))?;
        }
        tenant.validate()?;
        Ok(tenant)
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("tenant name must be non-empty".into());
        }
        // The JSON report interpolates the name between quotes as it is.
        if self.name.contains(|c: char| c == '"' || c == '\\' || c.is_control()) {
            return Err(format!(
                "tenant name {:?} must not contain `\"`, `\\` or a control character",
                self.name
            ));
        }
        if WorkloadProfile::by_name(&self.profile).is_none() {
            return Err(format!("unknown profile `{}`", self.profile));
        }
        if !(self.ops_per_s > 0.0 && self.ops_per_s.is_finite()) {
            return Err(format!("ops_per_s must be positive, got {}", self.ops_per_s));
        }
        if !(self.burst_factor >= 1.0 && self.burst_factor.is_finite()) {
            return Err(format!("burst_factor must be >= 1, got {}", self.burst_factor));
        }
        if !(0.0..1.0).contains(&self.burst_duty) {
            return Err(format!("burst_duty must be in [0, 1), got {}", self.burst_duty));
        }
        if !(self.burst_len_s > 0.0 && self.burst_len_s.is_finite()) {
            return Err(format!("burst_len_s must be positive, got {}", self.burst_len_s));
        }
        Ok(())
    }

    /// Long-run mean offered rate with bursts folded in.
    pub(crate) fn mean_ops_per_s(&self) -> f64 {
        self.ops_per_s * (1.0 - self.burst_duty + self.burst_duty * self.burst_factor)
    }
}

/// One generated host operation, tagged with its tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOp {
    /// Arrival time in seconds of traffic time.
    pub time_s: f64,
    /// Index of the tenant in the [`Traffic`]'s tenant list.
    pub tenant: u16,
    /// Request kind.
    pub kind: ReqKind,
    /// Engine-level logical page (already inside the tenant's region).
    pub lpa: u64,
}

/// Per-tenant generator state inside a [`Traffic`].
#[derive(Debug)]
struct TenantStream {
    trace: TraceGenerator,
    rng: StdRng,
    config: TenantConfig,
    /// Arrival time of this tenant's next op.
    next_time_s: f64,
    /// Currently inside a burst phase.
    bursting: bool,
    /// Traffic time at which the current phase ends.
    phase_end_s: f64,
    /// First engine-level lpa of the tenant's private region.
    lpa_base: u64,
    /// Pages in the region (working set wraps into it).
    lpa_span: u64,
}

impl TenantStream {
    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen::<f64>().max(1e-300);
        -mean * u.ln()
    }

    fn current_rate(&self) -> f64 {
        if self.bursting {
            self.config.ops_per_s * self.config.burst_factor
        } else {
            self.config.ops_per_s
        }
    }

    /// Mean dwell of the off phase keeping the duty cycle at
    /// `burst_duty`: `off / (off + on) = 1 - duty`.
    fn off_len_s(&self) -> f64 {
        self.config.burst_len_s * (1.0 - self.config.burst_duty) / self.config.burst_duty
    }

    fn advance(&mut self) -> ServiceOp {
        // Phase switching (only when bursts are enabled): arrivals past the
        // phase boundary flip the phase and draw the next dwell.
        if self.config.burst_factor > 1.0 && self.config.burst_duty > 0.0 {
            while self.next_time_s >= self.phase_end_s {
                self.bursting = !self.bursting;
                let mean = if self.bursting { self.config.burst_len_s } else { self.off_len_s() };
                let dwell = self.exp(mean);
                self.phase_end_s += dwell;
            }
        }
        let gap = self.exp(1.0 / self.current_rate());
        let time_s = self.next_time_s;
        self.next_time_s += gap;
        let op = self.trace.next().expect("trace generators are infinite");
        ServiceOp {
            time_s,
            tenant: 0, // filled by the merger
            kind: match op.kind {
                OpKind::Read => ReqKind::Read,
                OpKind::Write => ReqKind::Write,
            },
            lpa: self.lpa_base + op.lpa % self.lpa_span,
        }
    }
}

/// The merged multi-tenant open-loop arrival stream.
///
/// Deterministic for a given `(tenants, seed, logical_pages)` tuple; an
/// infinite iterator of [`ServiceOp`]s in nondecreasing arrival order.
#[derive(Debug)]
pub struct Traffic {
    streams: Vec<TenantStream>,
    /// `streams[i].advance()` result waiting to be merged, one per tenant.
    pending: Vec<ServiceOp>,
}

impl Traffic {
    /// Builds the merged stream. Tenants get equal contiguous slices of
    /// `logical_pages` (their Zipf working sets wrap into their slice, so
    /// working sets never overlap across tenants); `pages_per_block` is the
    /// generators' logical block size, which should match the die geometry
    /// so block heat lines up with physical blocks.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or larger than `logical_pages` or
    /// `u16::MAX`, if a config fails validation, or if
    /// `pages_per_block == 0`.
    pub fn new(
        tenants: &[TenantConfig],
        seed: u64,
        logical_pages: u64,
        pages_per_block: u32,
    ) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(tenants.len() <= usize::from(u16::MAX), "too many tenants");
        assert!(tenants.len() as u64 <= logical_pages, "more tenants than logical pages");
        let span = logical_pages / tenants.len() as u64;
        let mut streams = Vec::with_capacity(tenants.len());
        for (i, config) in tenants.iter().enumerate() {
            config.validate().expect("tenant config");
            let profile = WorkloadProfile::by_name(&config.profile).expect("validated above");
            // Decorrelate per-tenant streams; the trace generator and the
            // arrival process get independent seeds.
            let tenant_seed = seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            let mut stream = TenantStream {
                trace: TraceGenerator::new(&profile, tenant_seed, pages_per_block),
                rng: StdRng::seed_from_u64(tenant_seed.wrapping_add(0x9E37_79B9)),
                config: config.clone(),
                next_time_s: 0.0,
                bursting: false,
                phase_end_s: 0.0,
                lpa_base: i as u64 * span,
                lpa_span: span,
            };
            // Stagger first arrivals so tenant 0 does not always lead.
            stream.next_time_s = stream.exp(1.0 / stream.config.ops_per_s);
            streams.push(stream);
        }
        let pending = streams
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let mut op = s.advance();
                op.tenant = i as u16;
                op
            })
            .collect();
        Self { streams, pending }
    }

    /// Number of tenants in the stream.
    pub fn tenants(&self) -> usize {
        self.streams.len()
    }

    /// Aggregate long-run offered rate (ops per second of traffic time).
    pub fn offered_ops_per_s(&self) -> f64 {
        self.streams.iter().map(|s| s.config.mean_ops_per_s()).sum()
    }
}

impl Iterator for Traffic {
    type Item = ServiceOp;

    /// Pops the earliest pending arrival (ties break toward the lowest
    /// tenant index, keeping the merge deterministic).
    fn next(&mut self) -> Option<ServiceOp> {
        let mut winner = 0usize;
        for i in 1..self.pending.len() {
            if self.pending[i].time_s < self.pending[winner].time_s {
                winner = i;
            }
        }
        let out = self.pending[winner];
        let mut refill = self.streams[winner].advance();
        refill.tenant = winner as u16;
        self.pending[winner] = refill;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<TenantConfig> {
        vec![
            TenantConfig::new("web", "umass-web", 1000.0),
            TenantConfig::new("mail", "postmark", 500.0),
        ]
    }

    #[test]
    fn traffic_is_deterministic_and_time_ordered() {
        let a: Vec<ServiceOp> = Traffic::new(&two_tenants(), 7, 1 << 16, 64).take(2000).collect();
        let b: Vec<ServiceOp> = Traffic::new(&two_tenants(), 7, 1 << 16, 64).take(2000).collect();
        assert_eq!(a, b);
        let c: Vec<ServiceOp> = Traffic::new(&two_tenants(), 8, 1 << 16, 64).take(2000).collect();
        assert_ne!(a, c);
        let mut last = 0.0;
        for op in &a {
            assert!(op.time_s >= last, "arrivals must be nondecreasing");
            last = op.time_s;
        }
    }

    #[test]
    fn tenant_regions_are_disjoint() {
        let logical = 1u64 << 16;
        let span = logical / 2;
        for op in Traffic::new(&two_tenants(), 3, logical, 64).take(5000) {
            let region = (op.lpa / span) as u16;
            assert_eq!(region, op.tenant, "lpa {} escaped tenant {}'s region", op.lpa, op.tenant);
        }
    }

    #[test]
    fn arrival_rates_respect_config_ratio() {
        // Bursts disabled: few on/off cycles fit a finite window, so rate
        // assertions on the modulated process would be dominated by phase
        // luck. Pure Poisson makes the split and the aggregate rate tight.
        let tenants: Vec<TenantConfig> = two_tenants()
            .into_iter()
            .map(|mut t| {
                t.burst_factor = 1.0;
                t
            })
            .collect();
        let mut counts = [0u64; 2];
        let mut end = 0.0;
        for op in Traffic::new(&tenants, 11, 1 << 16, 64).take(60_000) {
            counts[op.tenant as usize] += 1;
            end = op.time_s;
        }
        // web offers 2x mail's rate — the op split must reflect it, and the
        // aggregate rate must match the offered load.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "tenant op ratio {ratio} (want ~2)");
        let offered = Traffic::new(&tenants, 11, 1 << 16, 64).offered_ops_per_s();
        let measured = 60_000.0 / end;
        assert!(
            (measured / offered - 1.0).abs() < 0.15,
            "aggregate rate {measured:.0} vs offered {offered:.0}"
        );
    }

    #[test]
    fn bursty_interarrivals_are_more_variable_than_poisson() {
        // Coefficient of variation of inter-arrival gaps: an on/off
        // modulated process must beat the exponential's CV of 1; with
        // bursts disabled it must sit near 1.
        let cv = |bursty: bool| {
            let mut t = TenantConfig::new("t", "umass-web", 1000.0);
            if !bursty {
                t.burst_factor = 1.0;
            } else {
                t.burst_factor = 8.0;
                t.burst_duty = 0.15;
            }
            let times: Vec<f64> =
                Traffic::new(&[t], 5, 1 << 14, 64).take(30_000).map(|o| o.time_s).collect();
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = cv(false);
        let bursty = cv(true);
        assert!((poisson - 1.0).abs() < 0.1, "unmodulated CV {poisson} should be ~1");
        assert!(bursty > 1.2, "bursty CV {bursty} should exceed Poisson");
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let t = TenantConfig::parse_spec("web:umass-web:2500:6").unwrap();
        assert_eq!(t.name, "web");
        assert_eq!(t.profile, "umass-web");
        assert_eq!(t.ops_per_s, 2500.0);
        assert_eq!(t.burst_factor, 6.0);
        assert!(TenantConfig::parse_spec("no-colons").is_err());
        assert!(TenantConfig::parse_spec("a:not-a-profile:100").is_err());
        assert!(TenantConfig::parse_spec("a:postmark:abc").is_err());
        assert!(TenantConfig::parse_spec("a:postmark:-5").is_err());
        assert!(TenantConfig::parse_spec("a:postmark:100:0.5").is_err());
        // Names the JSON report could not quote as they are.
        for name in ["", "we\"b", "we\\b", "we\nb", "we\u{7f}b"] {
            let err = TenantConfig::parse_spec(&format!("{name}:postmark:100")).unwrap_err();
            assert!(err.starts_with("tenant name"), "{err}");
        }
        TenantConfig::parse_spec("tenant 1 (wéb):postmark:100").unwrap();
    }

    #[test]
    fn mean_rate_folds_burst_duty() {
        let t = TenantConfig::new("t", "postmark", 100.0);
        // 4x bursts 20% of the time: 0.8 + 0.2*4 = 1.6x the base rate.
        assert!((t.mean_ops_per_s() - 160.0).abs() < 1e-9);
    }
}
