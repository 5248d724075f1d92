//! Regenerates Figure 6: the TRIPS physical floorplan, with the area
//! breakdown by function.

use trips_area::{floorplan, table1, ChipConfig};

fn main() {
    let [] = trips_bench::flags_or_exit("fig6", []);
    let cfg = ChipConfig::prototype();
    println!("Figure 6. TRIPS physical floorplan (ASCII rendition).");
    println!();
    print!("{}", floorplan(&cfg));
    println!();
    println!("Area by function:");
    let (rows, summary) = table1(&cfg);
    let pct = |labels: &[&str]| -> f64 {
        rows.iter().filter(|r| labels.contains(&r.tile)).map(|r| r.pct_chip_area).sum()
    };
    println!("  Processor cores (GT+RT+IT+DT+ET): {:>5.1}%", pct(&["GT", "RT", "IT", "DT", "ET"]));
    println!("  Secondary memory (MT+NT):         {:>5.1}%", pct(&["MT", "NT"]));
    println!("  Controllers (SDC+DMA+EBC+C2C):    {:>5.1}%", pct(&["SDC", "DMA", "EBC", "C2C"]));
    println!(
        "  Placed tile area: {:.0} mm² of the {:.0} mm² die",
        summary.tile_area_mm2, summary.die_area_mm2
    );
}
