//! An ASCII rendition of the Figure 6 chip floorplan.

use trips_core::CoreGeometry;
use trips_mem::{BANKS_PER_BLOCK, BANK_KB, BANK_WAYS};

use crate::tiles::{CORES, NTS};

/// The fixed left edge of the die: controllers and the central OCN
/// column of memory tiles (their counts do not follow the core
/// geometry).
const LEFT: [&str; 12] = [
    "| DMA | MT  MT |  EBC |",
    "|-----+--------+------+",
    "| SDC | MT  MT |      |",
    "|-----+--------+ OCN  |",
    "|     | MT  MT | (4x10|",
    "|     |        | mesh,|",
    "|     | MT  MT | 24 NT|",
    "|     |        | ring)|",
    "|     | MT  MT |      |",
    "|-----+--------+------+",
    "| SDC | MT  MT |      |",
    "|-----+--------+ C2C  |",
];
/// A pass-through left row for dies whose processor blocks are taller
/// than the memory column.
const LEFT_BLANK: &str = "|     |        |      |";
/// Last row of the fixed left edge.
const LEFT_LAST: &str = "| DMA | MT  MT |      |";

/// Renders the chip floorplan: the processor cores flank the central
/// OCN column of memory tiles, with the controllers on the left edge
/// (Figure 6). The per-core tile array is drawn from the same
/// [`CoreGeometry`] the simulator runs: a header row with the GT and
/// the RT banks, then one row per ET row led by its IT and DT.
pub fn floorplan(g: CoreGeometry) -> String {
    let mut procs: Vec<String> = Vec::new();
    for k in 0..CORES {
        procs.push(format!("            PROC {k}"));
        let mut head = String::from("   I  G");
        for _ in 0..g.num_rts() {
            head.push_str("  R");
        }
        procs.push(head);
        for _ in 0..g.et_rows {
            let mut row = String::from("   I  D");
            for _ in 0..g.et_cols {
                row.push_str("  E");
            }
            procs.push(row);
        }
    }

    let lw = LEFT[0].len();
    let rw = procs.iter().map(String::len).max().unwrap_or(0).max(25) + 2;
    let rows = (LEFT.len() + 1).max(procs.len());
    let border = format!("+{}+\n", "-".repeat(lw + rw - 1));

    let mut s = String::new();
    s.push_str(&border);
    for i in 0..rows {
        let left =
            if i + 1 == rows { LEFT_LAST } else { LEFT.get(i).copied().unwrap_or(LEFT_BLANK) };
        let right = procs.get(i).map(String::as_str).unwrap_or("");
        s.push_str(&format!("{left}{right:<rw$}|\n"));
    }
    s.push_str(&border);
    s.push_str(&format!(
        "  {} cores ({} geometry), {} MTs of {} KB ({}-way), {} NTs; die 18.30 x 18.37 mm\n",
        CORES,
        g.name(),
        BANKS_PER_BLOCK,
        BANK_KB,
        BANK_WAYS,
        NTS
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floorplan_mentions_both_cores_and_the_ocn() {
        let s = floorplan(CoreGeometry::prototype());
        assert!(s.contains("PROC 0"));
        assert!(s.contains("PROC 1"));
        assert!(s.contains("OCN"));
        assert!(s.contains("16 MTs of 64 KB"));
        assert!(s.contains("I  G  R  R  R  R"), "prototype header row: GT plus four RTs\n{s}");
        assert!(s.contains("I  D  E  E  E  E"), "prototype ET row: IT, DT, four ETs\n{s}");
    }

    #[test]
    fn floorplan_follows_the_geometry() {
        let s = floorplan(CoreGeometry::mini());
        assert!(s.contains("I  G  R  R"), "mini header row: GT plus two RTs\n{s}");
        assert!(s.contains("I  D  E  E"), "mini ET row: IT, DT, two ETs\n{s}");
        assert!(!s.contains("E  E  E  E"), "a mini row has only two ETs\n{s}");
        assert!(s.contains("(mini geometry)"));
    }
}
