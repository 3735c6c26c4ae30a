//! Fig. 8 — P/E cycle endurance per workload, baseline vs Vpass Tuning
//! (the paper's headline: +21% on average).

use readdisturb::core::characterize::fig8_endurance;
use readdisturb::core::lifetime::average_gain;

pub(crate) fn run() -> crate::FigureResult {
    let results = fig8_endurance();
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("{},{},{},{:.3}", r.workload, r.baseline, r.tuned, r.gain()))
        .collect();
    crate::emit_csv("fig08", "workload,baseline_pe,tuned_pe,gain", &rows);

    let avg = average_gain(&results);
    crate::shape_check("fig8 average endurance gain", avg, 0.21);
    Ok(())
}
