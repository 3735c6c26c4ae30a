//! The host-visible request and completion records.
//!
//! A host hands [`Engine::submit`](crate::Engine::submit) a [`ReqKind`] and
//! an engine-level logical page; the engine stripes the request onto its
//! die's work list and, once the batch has run, posts one [`IoCompletion`]
//! — carrying the simulated submit/start/complete timestamps from which
//! latency percentiles are computed — that the host pops or drains in
//! simulated completion order.

use rd_ftl::FtlError;

/// Kind of a host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read one logical page.
    Read,
    /// Write one logical page (fresh pseudo-random content, as the paper's
    /// characterization writes).
    Write,
}

/// Completion record of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct IoCompletion {
    /// Command identifier [`Engine::submit`](crate::Engine::submit) returned.
    pub id: u64,
    /// Request kind.
    pub kind: ReqKind,
    /// Engine-level logical page address.
    pub lpa: u64,
    /// Die that served the request.
    pub die: u32,
    /// Simulated time the request became eligible for dispatch (µs).
    pub submit_us: f64,
    /// Simulated time service began on the die (µs).
    pub start_us: f64,
    /// Simulated completion time (µs).
    pub complete_us: f64,
    /// Raw bit errors ECC corrected (reads only).
    pub corrected_errors: u64,
    /// `Ok` or the FTL error the request ended with (`NotWritten` reads and
    /// uncorrectable reads complete with their error rather than aborting
    /// the batch).
    pub result: Result<(), FtlError>,
    /// Decoded page data, when the engine was configured to capture it.
    pub data: Option<Vec<u8>>,
}

impl IoCompletion {
    /// End-to-end latency: queueing plus service (µs).
    pub fn latency_us(&self) -> f64 {
        self.complete_us - self.submit_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = IoCompletion {
            id: 7,
            kind: ReqKind::Read,
            lpa: 3,
            die: 0,
            submit_us: 10.0,
            start_us: 40.0,
            complete_us: 115.0,
            corrected_errors: 0,
            result: Ok(()),
            data: None,
        };
        assert!((c.latency_us() - 105.0).abs() < 1e-12);
    }
}
