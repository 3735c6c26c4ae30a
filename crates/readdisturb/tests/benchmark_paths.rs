//! The `readdisturb::core` paths the repository benchmark imports. The
//! benchmark is a workspace of its own that `cargo test --workspace` never
//! builds, so without this a broken path shows only in its own build.

use readdisturb::core::characterize::{
    fig10_rdr, fig3_rber_vs_reads, fig4_vpass_read_tolerance, fig5_passthrough_sweep,
    fig8_endurance, Scale, PAPER_FIG3_SLOPES,
};
use readdisturb::core::lifetime::average_gain;
use readdisturb::core::Rdr;
use readdisturb::core::{full_recovery_ladder, VpassTuner, VpassTunerConfig, VpassTuningPolicy};

/// Names every path as the benchmark names it and builds `Scale` as the
/// struct literal it builds; the figure calls are type-checked, not run.
#[test]
fn facade_keeps_the_benchmark_core_paths() {
    let scale = Scale { wordlines: 32, bitlines: 2048 };
    let _ = || {
        let _ = (fig3_rber_vs_reads(scale, 1), fig4_vpass_read_tolerance(scale, 1));
        let _ = (fig5_passthrough_sweep(scale, 1), fig10_rdr(scale, 1));
        average_gain(&fig8_endurance())
    };
    assert_eq!(PAPER_FIG3_SLOPES.len(), 7);
    let _ = (Rdr::default(), full_recovery_ladder());
    let _: VpassTuningPolicy = VpassTuner::new(VpassTunerConfig::default());
}
