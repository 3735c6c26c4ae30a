//! Fig. 12 — victims per aggressor row for three representative DRAM
//! modules, one per manufacturer (related-work reproduction, from \[42\]).

use readdisturb::dram::{HammerExperiment, ModulePopulation};

pub fn run() -> crate::FigureResult {
    let population = ModulePopulation::paper_129(2014);
    let mut rows = Vec::new();
    for (i, module) in population.fig12_representatives().iter().enumerate() {
        let exp = HammerExperiment::run(module, 32_768, 7 + i as u64);
        for (victims, &count) in exp.histogram.iter().enumerate() {
            if count > 0 {
                rows.push(format!("{},{victims},{count}", module.label()));
            }
        }
        println!(
            "{}: {} affected rows, max {} victims/row",
            module.label(),
            exp.affected_rows(),
            exp.max_victims()
        );
    }
    crate::emit_csv("fig12", "module,victims_per_row,row_count", &rows);
    Ok(())
}
