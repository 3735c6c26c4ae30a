//! Extension — the recovery pipeline under traffic: pre-wear and disturb
//! an array past its ECC line, then replay the shared read-heavy trace at
//! both fidelity tiers and report what the controller's recovery ladder
//! did about it (recovered vs uncorrectable reads, retry reads spent,
//! UBER, and the engine-clock cost of the background work).
//!
//! Built on the [`crate::replay`] helpers.

use crate::replay::{json_row, measure_recovery_scenario, RecoveryScenario};
use readdisturb::prelude::*;

pub(crate) fn run() -> crate::FigureResult {
    let scenario = RecoveryScenario::full();
    let mut rows = Vec::new();
    let mut measurements = Vec::new();
    for fidelity in [ReadFidelity::CellExact, ReadFidelity::PageAnalytic] {
        let m = measure_recovery_scenario(&scenario, fidelity);
        rows.push(json_row("recovery", scenario.trace_ops, &m));
        measurements.push(m);
    }
    crate::emit_jsonl("ext_recovery_path", &rows);

    for m in &measurements {
        let s = &m.stats;
        println!(
            "## {}: {} reads -> {} recovered / {} uncorrectable \
             ({} retry reads, {:.1} ms background, uber {:.3e})",
            m.fidelity,
            s.reads,
            s.recovered_reads,
            s.uncorrectable_reads,
            s.recovery_reads,
            s.background_us / 1e3,
            s.uber,
        );
        assert!(
            s.recovered_reads + s.uncorrectable_reads > 0,
            "{}: the scenario never pushed a read past the ECC line",
            m.fidelity
        );
        if s.recovered_reads > 0 {
            assert!(s.recovery_reads > 0, "recovered reads must cost retry reads");
            assert!(s.background_us > 0.0, "retry reads must be charged to the engine clock");
        }
    }
    let exact = &measurements[0];
    crate::shape_check(
        "recovered fraction of escalated reads (cell-exact)",
        exact.stats.recovered_reads as f64
            / (exact.stats.recovered_reads + exact.stats.uncorrectable_reads).max(1) as f64,
        0.5,
    );
    Ok(())
}
