//! The named array shapes, tenant mix and seeded input generators the
//! workloads share. Thread counts are constants sized to the 2-core box the
//! baseline was taken on, never "0 = autodetect", so runs compare.

use readdisturb::engine::{EngineConfig, ReqKind, Timing, Topology};
use readdisturb::flash::ReadFidelity;
use readdisturb::ftl::SsdConfig;
use readdisturb::serve::{ServeConfig, ServiceOp, TenantConfig, Traffic};
use readdisturb::workloads::{OpKind, TraceOp};

/// Replay worker threads, pool lanes and fleet epoch threads.
pub const THREADS: usize = 2;
/// Ops per engine batch when the benchmark drives the staged API itself.
pub const ENGINE_BATCH: usize = 4096;

fn array(channels: u32, dies_per_channel: u32, die: SsdConfig) -> EngineConfig {
    EngineConfig {
        topology: Topology { channels, dies_per_channel },
        die,
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
}

/// `array-L`: 4 channels x 4 dies of 1024 blocks x 64 wordlines at the
/// aggregate tier — 1,572,864 logical pages, so the page map exceeds L2.
pub fn array_l(seed: u64) -> EngineConfig {
    let mut die = SsdConfig::engine_scale(seed);
    die.geometry.blocks = 1024;
    die.geometry.wordlines_per_block = 64;
    array(4, 4, die).with_fidelity(ReadFidelity::BlockAggregate)
}

/// `array-M`: 2x2 dies of 64 blocks x 64 wordlines at the analytic tier with
/// the paper's 1e-3 ECC line, so worn and disturbed pages cross it.
pub fn array_m(seed: u64) -> EngineConfig {
    let mut die = SsdConfig::engine_scale(seed);
    die.geometry.blocks = 64;
    die.geometry.wordlines_per_block = 64;
    die.ecc_capability_rber = 1.0e-3;
    array(2, 2, die).with_fidelity(ReadFidelity::PageAnalytic)
}

/// The stock 2x2 array of 16-block `engine_scale` dies (768 logical
/// pages): the cache-resident case.
pub fn array_s(seed: u64, fidelity: ReadFidelity) -> EngineConfig {
    array(2, 2, SsdConfig::engine_scale(seed)).with_fidelity(fidelity)
}

/// The service deployment over `array-L`.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        engine: array_l(seed),
        shards: 2,
        batch_ops: 1024,
        max_inflight_batches: 4,
        pool_threads: THREADS,
    }
}

/// The four tenants of the mixed sequence.
pub fn tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::new("web", "umass-web", 6000.0),
        TenantConfig::new("fin", "umass-fin1", 4000.0),
        TenantConfig::new("mail", "postmark", 2500.0),
        TenantConfig::new("eng", "msr-src12", 1500.0),
    ]
}

/// The first `n` arrivals of the 4-tenant sequence over `config`'s logical
/// space — what `Service::traffic(seed)` yields on the same deployment.
pub fn mixed_ops(config: &EngineConfig, seed: u64, n: usize) -> Vec<ServiceOp> {
    Traffic::new(&tenants(), seed, config.logical_pages(), config.die.geometry.pages_per_block())
        .take(n)
        .collect()
}

/// The replay form of a service op.
pub fn trace_op(op: &ServiceOp) -> TraceOp {
    let kind = match op.kind {
        ReqKind::Read => OpKind::Read,
        ReqKind::Write => OpKind::Write,
    };
    TraceOp { time_s: op.time_s, kind, lpa: op.lpa }
}

/// SplitMix64: the benchmark's own seeded generator for inputs the
/// repository has no generator for.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The hammer mix: 97% reads, 90% of them on a 256-page hot set drawn from
/// the seed; writes and the remaining reads are uniform over the space.
pub fn hammer_ops(seed: u64, logical_pages: u64, n: usize) -> Vec<TraceOp> {
    let mut rng = SplitMix(seed);
    let hot: Vec<u64> = (0..256).map(|_| rng.below(logical_pages)).collect();
    (0..n)
        .map(|_| {
            let is_read = rng.below(100) < 97;
            let lpa = if is_read && rng.below(100) < 90 {
                hot[rng.below(hot.len() as u64) as usize]
            } else {
                rng.below(logical_pages)
            };
            TraceOp { time_s: 0.0, kind: if is_read { OpKind::Read } else { OpKind::Write }, lpa }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_documented_sizes() {
        assert_eq!(array_l(1).logical_pages(), 1_572_864);
        assert_eq!(array_m(1).logical_pages(), 24_576);
        assert_eq!(array_s(1, ReadFidelity::CellExact).logical_pages(), 768);
        array_l(1).validate();
        array_m(1).validate();
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let config = array_s(3, ReadFidelity::BlockAggregate);
        let a = mixed_ops(&config, 3, 500);
        let b = mixed_ops(&config, 3, 500);
        let c = mixed_ops(&config, 4, 500);
        let lpas = |ops: &[ServiceOp]| ops.iter().map(|o| o.lpa).collect::<Vec<_>>();
        assert_eq!(lpas(&a), lpas(&b));
        assert_ne!(lpas(&a), lpas(&c));
        assert_eq!(hammer_ops(9, 1000, 300), hammer_ops(9, 1000, 300));
        let reads = hammer_ops(9, 1000, 10_000).iter().filter(|o| o.kind == OpKind::Read).count();
        assert!((9_500..9_900).contains(&reads), "{reads}");
    }
}
