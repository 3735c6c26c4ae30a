//! Fig. 1 — the MLC threshold-voltage layout: state distributions, read
//! references Va/Vb/Vc, and the nominal Vpass (a diagram in the paper;
//! here, the model's concrete numbers).

use readdisturb::flash::chip::state_legend;
use readdisturb::prelude::*;

pub(crate) fn run() -> crate::FigureResult {
    let params = ChipParams::default();
    let rows: Vec<String> = state_legend(&params)
        .into_iter()
        .map(|(state, mean, sigma)| {
            let (lsb, msb) = state.bits();
            format!("{state},{mean},{sigma},{}{}", u8::from(lsb), u8::from(msb))
        })
        .collect();
    crate::emit_csv("fig01_states", "state,mean,sigma,bits(lsb msb)", &rows);
    println!(
        "references: Va={} Vb={} Vc={}  nominal Vpass={}",
        params.refs.va(),
        params.refs.vb(),
        params.refs.vc(),
        NOMINAL_VPASS
    );
    Ok(())
}
