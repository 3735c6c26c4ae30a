//! The host-visible request and completion records.
//!
//! A host hands [`Engine::submit`](crate::Engine::submit) a [`ReqKind`] and
//! an engine-level logical page; the engine stripes the request onto its
//! die's work list and, once the batch has run, posts one [`IoCompletion`]
//! — carrying the simulated submit/start/complete timestamps from which
//! latency percentiles are computed — that the host pops or drains in
//! simulated completion order. A front-end that only accounts (rd-serve's
//! shard workers) asks for the 32-byte [`CompletionSummary`] instead: the
//! same requests, without the address, the error value or the page data,
//! posted in the order the timing pass produced them.

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

    /// The request's [`Outcome`]: what a summarized batch would have
    /// reported of it.
    pub fn outcome(&self) -> Outcome {
        Outcome::new(self.kind, &self.result, self.corrected_errors)
    }
}

/// How a request ended, as far as accounting tells requests apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Completed.
    Ok,
    /// A read of a never-written page (`FtlError::NotWritten`).
    NotWritten,
    /// Any other error: an uncorrectable or out-of-range read, a rejected
    /// write.
    Failed,
}

/// Kind, [`OutcomeClass`] and corrected-error count of one request in one
/// word (`corrected << 3 | write << 2 | class`): what the flash phase
/// records per request of a summarized batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome(u64);

impl Outcome {
    const WRITE: u64 = 1 << 2;

    /// Packs a request's kind, result and corrected-error count (a count of
    /// bits in one page; it stays far below the 61 bits it has).
    pub(crate) fn new(kind: ReqKind, result: &Result<(), FtlError>, corrected_errors: u64) -> Self {
        let class = match result {
            Ok(()) => 0,
            Err(FtlError::NotWritten { .. }) => 1,
            Err(_) => 2,
        };
        debug_assert!(corrected_errors < 1 << 61);
        let write = if kind == ReqKind::Write { Self::WRITE } else { 0 };
        Self(corrected_errors << 3 | write | class)
    }

    /// Request kind.
    pub fn kind(self) -> ReqKind {
        if self.0 & Self::WRITE == 0 {
            ReqKind::Read
        } else {
            ReqKind::Write
        }
    }

    /// How the request ended.
    pub fn class(self) -> OutcomeClass {
        match self.0 & 3 {
            0 => OutcomeClass::Ok,
            1 => OutcomeClass::NotWritten,
            _ => OutcomeClass::Failed,
        }
    }

    /// Raw bit errors ECC corrected (reads only).
    pub fn corrected_errors(self) -> u64 {
        self.0 >> 3
    }
}

/// Completion record of one request of a summarized batch
/// ([`Engine::run_summarized`](crate::Engine::run_summarized)):
/// 32 bytes, the record the request's [`IoCompletion`] would be built from,
/// to the bit. A batch's summaries are posted in timing order — channel by
/// channel in index order, within a channel in dispatch order — not in
/// completion order. Under [`Timing::mlc`](crate::Timing::mlc), the default,
/// every latency is a whole number of µs below 2⁵³, so a latency sum folded
/// from them is exact in any order; with time constants that are not whole
/// µs, it may differ in its last bits from a fold in completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionSummary {
    /// Simulated completion time (µs).
    pub complete_us: f64,
    /// Simulated time the request became eligible for dispatch (µs).
    pub submit_us: f64,
    /// Kind, outcome class and corrected-error count.
    pub outcome: Outcome,
    /// Position of the request in its batch: its command id less the id of
    /// the batch's first request.
    pub slot: u32,
    /// Die that served the request.
    pub die: u32,
}

impl CompletionSummary {
    /// End-to-end latency: queueing plus service (µs) — the subtraction
    /// [`IoCompletion::latency_us`] makes, to the bit.
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

    #[test]
    fn outcome_round_trips_kind_class_and_count() {
        assert_eq!(std::mem::size_of::<CompletionSummary>(), 32);
        let not_written = Err(FtlError::NotWritten { lpa: 9 });
        let lost = Err(FtlError::Uncorrectable { lpa: 9, errors: 99, capability: 40 });
        let range = Err(FtlError::LpaOutOfRange { lpa: 9, capacity: 4 });
        for (kind, result, corrected, class) in [
            (ReqKind::Read, Ok(()), 0, OutcomeClass::Ok),
            (ReqKind::Read, Ok(()), (1 << 61) - 1, OutcomeClass::Ok),
            (ReqKind::Read, not_written, 0, OutcomeClass::NotWritten),
            (ReqKind::Read, lost, 0, OutcomeClass::Failed),
            (ReqKind::Read, range.clone(), 0, OutcomeClass::Failed),
            (ReqKind::Write, Ok(()), 0, OutcomeClass::Ok),
            (ReqKind::Write, range, 0, OutcomeClass::Failed),
        ] {
            let outcome = Outcome::new(kind, &result, corrected);
            assert_eq!(
                (outcome.kind(), outcome.class(), outcome.corrected_errors()),
                (kind, class, corrected)
            );
        }
    }
}
