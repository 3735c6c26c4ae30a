//! Extension — the recovery family side by side: RDR (disturb errors, this
//! paper) and RFR (retention errors, the authors' HPCA 2015 mechanism,
//! §5), plus read-reference optimization (ROR) as the lightweight
//! alternative that re-centers references instead of reassigning cells.

use readdisturb::prelude::*;

pub(crate) fn run() -> crate::FigureResult {
    let mut rows = Vec::new();

    // RDR on a disturb-dominated block.
    {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 21);
        chip.cycle_block(0, 8_000)?;
        chip.program_block_random(0, 1)?;
        chip.apply_read_disturbs(0, 1_000_000)?;
        let rdr = Rdr::new(RdrConfig::default());
        let outcome = rdr.recover_block(&mut chip, 0)?;
        let no_rec = chip.block_rber(0)?.rate();
        let rec = rdr.errors_vs_intended(&chip, 0, &outcome)?.rate();
        rows.push(format!("rdr,disturb-1M,{no_rec:.6e},{rec:.6e},{:.3}", 1.0 - rec / no_rec));
    }

    // RFR on a retention-dominated block.
    {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 22);
        chip.cycle_block(0, 12_000)?;
        chip.program_block_random(0, 2)?;
        chip.advance_days(28.0);
        let rfr = Rfr::new(RfrConfig::default());
        let outcome = rfr.recover_block(&mut chip, 0)?;
        let no_rec = chip.block_rber(0)?.rate();
        let rec = rfr.errors_vs_intended(&chip, 0, &outcome)?.rate();
        rows.push(format!("rfr,retention-28d,{no_rec:.6e},{rec:.6e},{:.3}", 1.0 - rec / no_rec));
    }

    // ROR on a block with both stresses.
    {
        let mut chip = Chip::new(Geometry::characterization(), ChipParams::default(), 23);
        chip.cycle_block(0, 10_000)?;
        chip.program_block_random(0, 3)?;
        chip.apply_read_disturbs(0, 800_000)?;
        chip.advance_days(21.0);
        let ror = Ror::new(RorConfig::default());
        let (mut before, mut after) = (0u64, 0u64);
        for wl in (0..64).step_by(4) {
            let learned = ror.optimize_wordline(&mut chip, 0, wl)?;
            before += chip.read_page(0, wl * 2 + 1)?.stats.errors;
            after += chip.read_page_with_refs(0, wl * 2 + 1, &learned.refs)?.stats.errors;
        }
        rows.push(format!(
            "ror,mixed-stress,{before},{after},{:.3}",
            1.0 - after as f64 / before.max(1) as f64
        ));
    }

    crate::emit_csv("ext_recovery", "mechanism,scenario,before,after,reduction", &rows);
    Ok(())
}
