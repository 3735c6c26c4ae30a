//! Fig. 6 — overall RBER and tolerable Vpass reduction vs retention age
//! (8K P/E cycles, ECC capability 1e-3 with 20% reserved margin).

use readdisturb::core::characterize::fig6_retention_staircase;

pub fn run() -> crate::FigureResult {
    let data = fig6_retention_staircase(64);
    let rows: Vec<String> = data
        .rows
        .iter()
        .map(|r| {
            format!("{},{:.6e},{:.6e},{}", r.day, r.base_rber, r.margin_rber, r.safe_reduction_pct)
        })
        .collect();
    crate::emit_csv("fig06", "day,base_rber,margin_rber,safe_reduction_pct", &rows);
    println!("capability {:.1e}, usable {:.1e}", data.capability, data.usable);

    let max_pct = data.rows.iter().map(|r| r.safe_reduction_pct).max().unwrap_or(0);
    crate::shape_check("fig6 max safe reduction (%)", max_pct as f64, 4.0);
    let band = data.rows.iter().filter(|r| r.safe_reduction_pct == 4).count();
    crate::shape_check("fig6 4% band length (days)", band as f64, 4.0);
    Ok(())
}
