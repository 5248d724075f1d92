//! Regenerates Table 1: TRIPS tile specifications.

use trips_area::{chip_summary, render_table1};
use trips_core::CoreGeometry;

fn main() {
    let [] = trips_bench::flags_or_exit("table1", []);
    println!("Table 1. TRIPS Tile Specifications (model-regenerated).");
    print!("{}", render_table1(CoreGeometry::prototype()));

    let s = chip_summary();
    println!();
    println!("Section 5.2 overhead attribution:");
    println!(
        "  OPN routers/links : {:>5.1}% of processor core area (paper: ~12%)",
        s.opn_pct_of_core
    );
    println!(
        "  OCN routers/links : {:>5.1}% of chip area           (paper: ~14%)",
        s.ocn_pct_of_chip
    );
    println!(
        "  Replicated LSQs   : {:>5.1}% of processor core area (paper: ~13%)",
        s.lsq_pct_of_core
    );
    println!(
        "  LSQ share of DT   : {:>5.1}% of each data tile      (paper: ~40%)",
        s.lsq_pct_of_dt
    );
}
