//! Fig. 11 — RowHammer error rate vs module manufacture date for the
//! 129-module DRAM population (related-work reproduction, from \[42\]).

use crate::ModulePopulation;

pub(crate) fn run() -> crate::FigureResult {
    let population = ModulePopulation::paper_129(2014);
    let rows: Vec<String> = population
        .fig11_points()
        .into_iter()
        .map(|(mfr, date, errors)| format!("{mfr},{date:.2},{errors}"))
        .collect();
    crate::emit_csv("fig11", "manufacturer,date,errors_per_gbit", &rows);

    crate::shape_check(
        "fig11 vulnerable modules (of 129)",
        population.vulnerable_count() as f64,
        110.0,
    );
    // All 2012-2013 modules vulnerable (the paper's emphasized finding).
    let all_2012_13 = population
        .modules()
        .iter()
        .filter(|m| m.year == 2012 || m.year == 2013)
        .all(|m| m.is_vulnerable());
    println!("all 2012-2013 modules vulnerable: {all_2012_13}");
    Ok(())
}
