//! Overhead accounting for Vpass Tuning (paper §3): "it only incurs an
//! average daily performance overhead of 24.34 sec for a 512 GB SSD, and
//! uses only 128 KB storage overhead to record per-block data."

/// Cost model of the tuning mechanism on a production SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// SSD capacity in bytes.
    pub ssd_bytes: u64,
    /// Flash block size in bytes (2Y-nm MLC class: 4 MiB).
    pub block_bytes: u64,
    /// Metadata recorded per block (tuned Vpass level fits one byte).
    pub metadata_bytes_per_block: u64,
    /// Flash page read latency in microseconds.
    pub read_latency_us: f64,
    /// Average probe reads per block per day (MEE probe + verification
    /// read; Action 2 days add a few more, amortized).
    pub probe_reads_per_block_day: f64,
}

impl OverheadModel {
    /// The paper's 512 GB SSD configuration.
    pub fn paper_512gb() -> Self {
        Self {
            ssd_bytes: 512 * 1024 * 1024 * 1024,
            block_bytes: 4 * 1024 * 1024,
            metadata_bytes_per_block: 1,
            read_latency_us: 100.0,
            probe_reads_per_block_day: 2.0,
        }
    }

    /// Number of blocks on the device.
    pub fn blocks(&self) -> u64 {
        self.ssd_bytes / self.block_bytes
    }

    /// Storage overhead in bytes (paper: 128 KB for 512 GB).
    pub fn storage_overhead_bytes(&self) -> u64 {
        self.blocks() * self.metadata_bytes_per_block
    }

    /// Daily performance overhead in seconds (paper: 24.34 s for 512 GB).
    pub fn daily_overhead_seconds(&self) -> f64 {
        self.blocks() as f64 * self.probe_reads_per_block_day * self.read_latency_us * 1e-6
    }

    /// Overhead as a fraction of a day.
    pub fn daily_overhead_fraction(&self) -> f64 {
        self.daily_overhead_seconds() / 86_400.0
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self::paper_512gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Physics: the cost model against the paper's 128 KB.
    #[test]
    fn storage_overhead_matches_paper() {
        let m = OverheadModel::paper_512gb();
        let kb = m.storage_overhead_bytes() as f64 / 1024.0;
        // Paper: 128 KB.
        assert!((100.0..=160.0).contains(&kb), "storage overhead {kb} KB");
    }

    /// Physics: the cost model against the paper's 24.34 s/day.
    #[test]
    fn daily_overhead_matches_paper() {
        let m = OverheadModel::paper_512gb();
        let s = m.daily_overhead_seconds();
        // Paper: 24.34 s/day.
        assert!((18.0..=32.0).contains(&s), "daily overhead {s} s");
        assert!(m.daily_overhead_fraction() < 1e-3, "must be negligible");
    }

    /// Physics: the cost model's linearity, no noise drawn.
    #[test]
    fn overhead_scales_with_capacity() {
        let mut m = OverheadModel::paper_512gb();
        let base = m.daily_overhead_seconds();
        m.ssd_bytes *= 2;
        assert!((m.daily_overhead_seconds() / base - 2.0).abs() < 1e-9);
    }
}
