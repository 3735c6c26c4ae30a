//! Sharding the SSD array over channel groups.
//!
//! A shard is a contiguous group of channels served by its own
//! [`rd_engine::Engine`] (with its own per-die work lists, its own
//! completions and its own worker thread in the service). Shards share no
//! flash state, so they execute concurrently without locks; the
//! [`ShardPlan`] owns the only cross-shard invariants:
//!
//! * **routing** — an engine-level logical page maps to exactly one shard
//!   and one shard-local page, via the same page-level round-robin striping
//!   the monolithic [`Topology::stripe`] uses, so a request lands on the
//!   *same physical die* it would in an unsharded engine;
//! * **seeding** — each shard's [`EngineConfig`] carries the
//!   `die_index_offset` that makes its dies draw the monolithic array's
//!   per-die RNG streams.
//!
//! Together these make a sharded deployment's data digest bit-identical to
//! a single-engine batch replay of the same trace (see
//! `EngineStats::merge_shards`), which is the service's correctness anchor.

use rd_engine::{EngineConfig, FastDiv, Topology};

/// How a total topology is split into per-channel-group shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    topology: Topology,
    shards: u32,
    dies_per_shard: u32,
    /// Reciprocal divide by the total die count (the router runs per op).
    die_div: FastDiv,
    /// Reciprocal divide by `dies_per_shard`.
    shard_div: FastDiv,
}

impl ShardPlan {
    /// Splits `topology` into `shards` equal channel groups.
    ///
    /// # Panics
    ///
    /// Panics with [`Topology::check`]'s message on a topology it rejects,
    /// and if `shards` is zero or does not divide the channel count (a
    /// shard must be a whole number of channels — dies on one channel share
    /// a bus and cannot straddle engines).
    pub fn new(topology: Topology, shards: u32) -> Self {
        if let Err(e) = topology.check() {
            panic!("{e}");
        }
        assert!(shards >= 1, "need at least one shard");
        assert!(
            topology.channels.is_multiple_of(shards),
            "shards ({shards}) must divide the channel count ({})",
            topology.channels
        );
        let dies_per_shard = (topology.channels / shards) * topology.dies_per_channel;
        Self {
            topology,
            shards,
            dies_per_shard,
            die_div: FastDiv::new(u64::from(topology.dies())),
            shard_div: FastDiv::new(u64::from(dies_per_shard)),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The total (pre-split) topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Dies owned by one shard.
    pub fn dies_per_shard(&self) -> u32 {
        self.dies_per_shard
    }

    /// The topology of a single shard's engine.
    pub fn shard_topology(&self) -> Topology {
        Topology {
            channels: self.topology.channels / self.shards,
            dies_per_channel: self.topology.dies_per_channel,
        }
    }

    /// Builds shard `shard`'s engine configuration from the whole-array
    /// `base` config: the shard's channel-group topology plus the
    /// `die_index_offset` that aligns its die seeds with the monolithic
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if `base` already carries a nonzero offset (it must describe
    /// the whole array), disagrees with the plan's topology, or `shard` is
    /// out of range.
    pub fn shard_config(&self, base: &EngineConfig, shard: u32) -> EngineConfig {
        assert!(shard < self.shards, "shard {shard} out of range ({})", self.shards);
        assert_eq!(base.die_index_offset, 0, "base config must describe the whole array");
        assert_eq!(base.topology, self.topology, "base config topology disagrees with the plan");
        let mut config = base.clone();
        config.topology = self.shard_topology();
        config.die_index_offset = shard * self.dies_per_shard;
        config
    }

    /// Routes an engine-level logical page: `(shard, shard_lpa)` such that
    /// the shard engine's own striping sends `shard_lpa` to the die (and
    /// die-local page) the monolithic engine's striping would pick for
    /// `lpa`.
    #[inline]
    pub fn route(&self, lpa: u64) -> (u32, u64) {
        let (die_lpa, die) = self.die_div.div_rem(lpa);
        let (shard, local_die) = self.shard_div.div_rem(die);
        (shard as u32, die_lpa * u64::from(self.dies_per_shard) + local_die)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(topology: Topology) -> EngineConfig {
        EngineConfig { topology, ..EngineConfig::small_test() }
    }

    #[test]
    fn routing_agrees_with_monolithic_striping() {
        let topology = Topology { channels: 4, dies_per_channel: 2 };
        for shards in [1u32, 2, 4] {
            let plan = ShardPlan::new(topology, shards);
            for lpa in 0..1000u64 {
                let (global_die, global_die_lpa) = topology.stripe(lpa);
                let (shard, shard_lpa) = plan.route(lpa);
                // The shard's own striping must land on the same physical
                // die at the same die-local page.
                let (local_die, die_lpa) = plan.shard_topology().stripe(shard_lpa);
                assert_eq!(shard * plan.dies_per_shard() + local_die, global_die, "lpa {lpa}");
                assert_eq!(die_lpa, global_die_lpa, "lpa {lpa}");
            }
        }
    }

    #[test]
    fn routing_is_a_bijection_per_shard() {
        let plan = ShardPlan::new(Topology { channels: 2, dies_per_channel: 2 }, 2);
        let mut seen = std::collections::HashSet::new();
        for lpa in 0..512u64 {
            assert!(seen.insert(plan.route(lpa)), "collision at {lpa}");
        }
    }

    #[test]
    fn shard_configs_reproduce_monolithic_die_seeds() {
        let topology = Topology { channels: 4, dies_per_channel: 2 };
        let whole = base(topology);
        let plan = ShardPlan::new(topology, 2);
        for shard in 0..2u32 {
            let cfg = plan.shard_config(&whole, shard);
            assert_eq!(cfg.topology.dies(), plan.dies_per_shard());
            for local in 0..plan.dies_per_shard() {
                assert_eq!(
                    cfg.die_seed(local),
                    whole.die_seed(shard * plan.dies_per_shard() + local),
                    "shard {shard} die {local}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn shards_must_divide_channels() {
        ShardPlan::new(Topology { channels: 3, dies_per_channel: 1 }, 2);
    }
}
