//! Overhead accounting (paper §3): 24.34 s/day performance overhead and
//! 128 KB metadata for a 512 GB SSD.

use readdisturb::core::overhead::OverheadModel;

pub fn run() -> crate::FigureResult {
    let model = OverheadModel::paper_512gb();
    let rows = vec![
        format!("blocks,{}", model.blocks()),
        format!("storage_overhead_kb,{:.1}", model.storage_overhead_bytes() as f64 / 1024.0),
        format!("daily_overhead_s,{:.2}", model.daily_overhead_seconds()),
        format!("daily_overhead_fraction,{:.2e}", model.daily_overhead_fraction()),
    ];
    crate::emit_csv("overheads", "quantity,value", &rows);
    crate::shape_check("daily overhead (s/512GB)", model.daily_overhead_seconds(), 24.34);
    crate::shape_check(
        "storage overhead (KB/512GB)",
        model.storage_overhead_bytes() as f64 / 1024.0,
        128.0,
    );
    Ok(())
}
