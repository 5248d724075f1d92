//! Per-tile area modelling.
//!
//! Array bits are computed from the microarchitecture — the same
//! `CoreGeometry` and constants the simulator runs — so a change to,
//! say, the tile array or a predictor table shows up in the
//! regenerated Table 1. Logic cell counts and layout densities are
//! calibrated constants (an area model always needs a technology
//! calibration; the published tile data of Table 1 is ours).

use trips_core::{
    CoreGeometry, BTB_ENTRIES, BTYPE_ENTRIES, CHOOSER_ENTRIES, CTB_ENTRIES, DEPPRED_ENTRIES,
    GSHARE_ENTRIES, L1D_SETS, L1D_WAYS, LOCAL_EXIT_ENTRIES, MSHR_LINES, RAS_ENTRIES,
};
use trips_mem::{BANKS_PER_BLOCK, BANK_KB};

/// The eleven tile types of the chip (§5.1: "the entire TRIPS design
/// is composed of only 11 different types of tiles").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// Global control tile.
    Gt,
    /// Register tile.
    Rt,
    /// Instruction tile.
    It,
    /// Data tile.
    Dt,
    /// Execution tile.
    Et,
    /// Secondary-memory tile (NUCA bank).
    Mt,
    /// OCN network interface tile.
    Nt,
    /// SDRAM controller.
    Sdc,
    /// DMA controller.
    Dma,
    /// External bus controller.
    Ebc,
    /// Chip-to-chip controller.
    C2c,
}

impl TileKind {
    /// All kinds in Table 1 order.
    pub const ALL: [TileKind; 11] = [
        TileKind::Gt,
        TileKind::Rt,
        TileKind::It,
        TileKind::Dt,
        TileKind::Et,
        TileKind::Mt,
        TileKind::Nt,
        TileKind::Sdc,
        TileKind::Dma,
        TileKind::Ebc,
        TileKind::C2c,
    ];

    /// Table 1 label.
    pub fn label(self) -> &'static str {
        match self {
            TileKind::Gt => "GT",
            TileKind::Rt => "RT",
            TileKind::It => "IT",
            TileKind::Dt => "DT",
            TileKind::Et => "ET",
            TileKind::Mt => "MT",
            TileKind::Nt => "NT",
            TileKind::Sdc => "SDC",
            TileKind::Dma => "DMA",
            TileKind::Ebc => "EBC",
            TileKind::C2c => "C2C",
        }
    }
}

// The chip around the cores is the prototype's, its secondary memory
// `trips-mem`'s NUCA (`BANKS_PER_BLOCK` banks of `BANK_KB` KB): only
// the cores' `CoreGeometry` varies.

/// Processor cores on the chip, identical to one another.
pub(crate) const CORES: usize = 2;
/// OCN network interface tiles.
pub(crate) const NTS: usize = 24;
/// SMT threads per core: the copies of each register bank.
const THREADS: usize = 4;

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSpec {
    /// Tile type.
    pub kind: TileKind,
    /// Placeable logic instances (complexity estimate).
    pub cell_count: u64,
    /// Bits held in dense register/SRAM arrays.
    pub array_bits: u64,
    /// Tile area in mm².
    pub size_mm2: f64,
    /// Copies across the whole chip.
    pub count: usize,
}

/// Calibrated logic-cell counts per tile (Table 1's Cell Count
/// column): logic complexity is not derivable from the configuration,
/// so these are the published values.
fn cell_count(kind: TileKind) -> u64 {
    match kind {
        TileKind::Gt => 52_000,
        TileKind::Rt => 26_000,
        TileKind::It => 5_000,
        TileKind::Dt => 119_000,
        TileKind::Et => 84_000,
        TileKind::Mt => 60_000,
        TileKind::Nt => 23_000,
        TileKind::Sdc => 64_000,
        TileKind::Dma => 30_000,
        TileKind::Ebc => 29_000,
        TileKind::C2c => 48_000,
    }
}

/// Layout-inefficiency factor per tile: ratio of placed area to the
/// raw cell+bit estimate. The DT's factor is dominated by its LSQ CAM,
/// which had to be built from discrete latches because the ASIC
/// library offered no dense CAM (§5.2) — the LSQ ends up ~40% of the
/// tile.
fn layout_factor(kind: TileKind) -> f64 {
    match kind {
        TileKind::Gt => 1.35,
        TileKind::Rt => 1.26,
        TileKind::It => 0.82,
        TileKind::Dt => 1.87,
        TileKind::Et => 1.0,
        TileKind::Mt => 1.0,
        TileKind::Nt => 1.29,
        TileKind::Sdc => 2.69,
        TileKind::Dma => 1.27,
        TileKind::Ebc => 1.02,
        TileKind::C2c => 1.36,
    }
}

/// mm² per placed logic cell (fitted to the ET, which is nearly all
/// logic).
const MM2_PER_CELL: f64 = 3.32e-5;
/// mm² per dense array bit (fitted to the MT, which is nearly all
/// SRAM).
const MM2_PER_BIT: f64 = 8.3e-6;

/// Derives each tile's array-bit census from the core geometry.
pub(crate) fn array_bits(kind: TileKind, g: CoreGeometry) -> u64 {
    match kind {
        TileKind::Gt => {
            // Exit predictor: local/gshare entries carry a 3-bit exit
            // plus confidence; chooser is 2-bit + tag bit.
            let exit = (LOCAL_EXIT_ENTRIES * 9 + GSHARE_ENTRIES * 4 + CHOOSER_ENTRIES * 3) as u64;
            // Target predictor: BTB/CTB tagged targets, RAS addresses,
            // type table.
            let target =
                (BTB_ENTRIES * 40 + CTB_ENTRIES * 48 + RAS_ENTRIES * 57 + BTYPE_ENTRIES * 3) as u64;
            // I-TLB, a block PC per frame, I-cache tag array, control regs.
            let tags = 128 * 20;
            let misc = g.frames * 40 + 16 * 64 + 640;
            exit + target + tags as u64 + misc as u64
        }
        TileKind::Rt => {
            // Per-thread register banks plus per-frame read/write
            // queues, all sized by the tile-array geometry (prototype:
            // 32x64b banks, 8 frames x 8 header slots per RT).
            let regs = (THREADS * g.regs_per_bank() * 64) as u64;
            let wq = (g.frames * g.slots_per_rt() * (64 + 6 + 2)) as u64;
            let rq = (g.frames * g.slots_per_rt() * (22 + 2)) as u64;
            regs + wq + rq
        }
        TileKind::It => {
            // 16 KB I-cache bank plus the 128-bit × 32 refill buffer.
            (16 * 1024 * 8 + 128 * 32) as u64
        }
        TileKind::Dt => {
            // 8 KB data bank + tags, dependence predictor, TLB, MSHR,
            // write buffer. (The LSQ is latches, counted as cells.)
            let data = (L1D_SETS * L1D_WAYS * 64 * 8) as u64;
            let tags = (L1D_SETS * L1D_WAYS * 25) as u64;
            let deppred = DEPPRED_ENTRIES as u64;
            let tlb = 16 * 80u64;
            let mshr = (MSHR_LINES * 4 * (64 + 40)) as u64;
            let wb = 64 * 8 + 40;
            // The LSQ's address CAM is discrete latches (cells), but
            // its 64-bit data payload per entry is a dense array: 16
            // entries per ET, at most 512 (the simulator bounds none).
            let lsq_data = ((16 * g.num_ets()).min(512) * 64) as u64;
            data + tags + deppred + tlb + mshr + wb as u64 + lsq_data
        }
        TileKind::Et => {
            // frames x beats reservation stations (64 on the
            // prototype): two 64-bit operands, a predicate bit, and
            // the 32-bit instruction plus status.
            (g.frames * g.beats() * (2 * 64 + 1 + 32 + 4)) as u64 + 1500
        }
        TileKind::Mt => {
            let data = (BANK_KB * 1024 * 8) as u64;
            let lines = (BANK_KB * 1024 / 64) as u64;
            let tags = lines * 22;
            data + tags + 300
        }
        TileKind::Nt => 0,
        TileKind::Sdc => 6_000,
        TileKind::Dma => 4_000,
        TileKind::Ebc => 0,
        TileKind::C2c => 0,
    }
}

/// Chip-wide copy counts.
fn tile_count(kind: TileKind, g: CoreGeometry) -> usize {
    match kind {
        TileKind::Gt => CORES,
        TileKind::Rt => CORES * g.num_rts(),
        TileKind::It => CORES * g.num_its(),
        TileKind::Dt => CORES * g.num_dts(),
        TileKind::Et => CORES * g.num_ets(),
        TileKind::Mt => BANKS_PER_BLOCK,
        TileKind::Nt => NTS,
        TileKind::Sdc => 2,
        TileKind::Dma => 2,
        TileKind::Ebc => 1,
        TileKind::C2c => 1,
    }
}

/// The full Table 1 inventory for a chip of `g`-shaped cores.
pub fn tile_specs(g: CoreGeometry) -> Vec<TileSpec> {
    TileKind::ALL
        .iter()
        .map(|&kind| {
            let cells = cell_count(kind);
            let bits = array_bits(kind, g);
            let raw = cells as f64 * MM2_PER_CELL + bits as f64 * MM2_PER_BIT;
            TileSpec {
                kind,
                cell_count: cells,
                array_bits: bits,
                size_mm2: raw * layout_factor(kind),
                count: tile_count(kind, g),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published Table 1 values: (kind, array_kbits, size_mm2, count,
    /// pct_area).
    const PAPER: [(TileKind, f64, f64, usize); 11] = [
        (TileKind::Gt, 93.0, 3.1, 2),
        (TileKind::Rt, 14.0, 1.2, 8),
        (TileKind::It, 135.0, 1.0, 10),
        (TileKind::Dt, 89.0, 8.8, 8),
        (TileKind::Et, 13.0, 2.9, 32),
        (TileKind::Mt, 542.0, 6.5, 16),
        (TileKind::Nt, 0.0, 1.0, 24),
        (TileKind::Sdc, 6.0, 5.8, 2),
        (TileKind::Dma, 4.0, 1.3, 2),
        (TileKind::Ebc, 0.0, 1.0, 1),
        (TileKind::C2c, 0.0, 2.2, 1),
    ];

    #[test]
    fn array_bits_track_the_paper_within_ten_percent() {
        for (kind, paper_kbits, _, _) in PAPER {
            if paper_kbits == 0.0 {
                continue;
            }
            let model = array_bits(kind, CoreGeometry::prototype()) as f64 / 1000.0;
            let err = (model - paper_kbits).abs() / paper_kbits;
            assert!(
                err < 0.10,
                "{}: model {model:.1}K vs paper {paper_kbits}K ({:.0}% off)",
                kind.label(),
                err * 100.0
            );
        }
    }

    #[test]
    fn tile_sizes_track_the_paper_within_ten_percent() {
        let specs = tile_specs(CoreGeometry::prototype());
        for ((kind, _, paper_mm2, _), spec) in PAPER.iter().zip(&specs) {
            assert_eq!(*kind, spec.kind);
            let err = (spec.size_mm2 - paper_mm2).abs() / paper_mm2;
            assert!(
                err < 0.10,
                "{}: model {:.2} vs paper {paper_mm2} mm² ({:.0}% off)",
                kind.label(),
                spec.size_mm2,
                err * 100.0
            );
        }
    }

    #[test]
    fn tile_counts_sum_to_106() {
        let total: usize = tile_specs(CoreGeometry::prototype()).iter().map(|s| s.count).sum();
        assert_eq!(total, 106);
    }

    #[test]
    fn the_lsq_is_sized_from_the_et_array() {
        // Only the LSQ's 64-bit payload varies with the die: mini's
        // 64 entries are the floor every other point is measured from.
        let dt_bits = |spec| array_bits(TileKind::Dt, CoreGeometry::parse(spec).unwrap());
        for (spec, depth) in [("prototype", 256), ("fat", 512), ("2x4/8", 128), ("4x8/8", 512)] {
            assert_eq!(dt_bits(spec) - dt_bits("mini"), (depth - 64) * 64, "{spec}");
        }
    }
}
