//! Extension — concentrated read disturb (paper §5, Zambelli et al. \[97\]):
//! hammering one page concentrates disturb on its direct neighbours.

use readdisturb::core::characterize::{ext_concentrated_disturb, Scale};

pub(crate) fn run() -> crate::FigureResult {
    let rows = ext_concentrated_disturb(Scale::full(), 11, 400_000).expect("experiment");
    let csv: Vec<String> = rows.iter().map(|r| format!("{},{:.6e}", r.distance, r.rber)).collect();
    crate::emit_csv("ext_concentrated", "wordline_distance,rber", &csv);

    let at = |d: i64| rows.iter().find(|r| r.distance == d).map(|r| r.rber).unwrap_or(f64::NAN);
    crate::shape_check(
        "concentrated neighbour/distant RBER ratio",
        (at(-1) + at(1)) / (at(-8) + at(8)),
        2.0,
    );
    println!("hammered wordline itself: {:.3e} (least disturbed)", at(0));
    Ok(())
}
