//! Per-tile area modelling.
//!
//! Array bits are computed from the microarchitectural configuration —
//! the same `CoreConfig` the simulator runs — so a change to, say, the
//! predictor sizing or the LSQ depth shows up in the regenerated
//! Table 1. Logic cell counts and layout densities are calibrated
//! constants (an area model always needs a technology calibration; the
//! published tile data of Table 1 is ours).

use trips_core::CoreConfig;

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

/// Chip-level configuration: two processor cores plus the secondary
/// memory system.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// The processor-core configuration (both cores identical).
    pub core: CoreConfig,
    /// Processor cores on the chip.
    pub cores: usize,
    /// Secondary-memory (NUCA) banks.
    pub mt_banks: usize,
    /// Kilobytes per NUCA bank.
    pub mt_bank_kb: usize,
    /// NUCA bank associativity.
    pub mt_ways: usize,
    /// OCN network interface tiles.
    pub nts: usize,
    /// SMT threads per core (register file copies).
    pub threads: usize,
}

impl ChipConfig {
    /// The prototype: 2 cores, 16 × 64 KB NUCA banks, 24 NTs, 4-way
    /// SMT register files. Pinned to the prototype die — the published
    /// Table 1 must regenerate byte-identically regardless of
    /// `TRIPS_GEOMETRY`.
    pub fn prototype() -> ChipConfig {
        ChipConfig {
            core: CoreConfig::prototype_pinned(),
            cores: 2,
            mt_banks: 16,
            mt_bank_kb: 64,
            mt_ways: 4,
            nts: 24,
            threads: 4,
        }
    }
}

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

/// Derives each tile's array-bit census from the configuration.
pub fn array_bits(kind: TileKind, cfg: &ChipConfig) -> u64 {
    let c = &cfg.core;
    let p = &c.predictor;
    match kind {
        TileKind::Gt => {
            // Exit predictor: local/gshare entries carry a 3-bit exit
            // plus confidence; chooser is 2-bit + tag bit.
            let exit = (p.local_entries * 9 + p.gshare_entries * 4 + p.chooser_entries * 3) as u64;
            // Target predictor: BTB/CTB tagged targets, RAS addresses,
            // type table.
            let target = (p.btb_entries * 40
                + p.ctb_entries * 48
                + p.ras_entries * 57
                + p.btype_entries * 3) as u64;
            // I-TLB, eight block PCs, I-cache tag array, control regs.
            let tags = 128 * 20;
            let misc = 8 * 40 + 16 * 64 + 640;
            exit + target + tags as u64 + misc as u64
        }
        TileKind::Rt => {
            // Per-thread register banks plus per-frame read/write
            // queues, all sized by the tile-array geometry (prototype:
            // 32x64b banks, 8 frames x 8 header slots per RT).
            let g = c.geometry;
            let regs = (cfg.threads * g.regs_per_bank() * 64) as u64;
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
            let data = (c.l1d_sets * c.l1d_ways * 64 * 8) as u64;
            let tags = (c.l1d_sets * c.l1d_ways * 25) as u64;
            let deppred = c.deppred_entries as u64;
            let tlb = 16 * 80u64;
            let mshr = (c.mshr_lines * 4 * (64 + 40)) as u64;
            let wb = 64 * 8 + 40;
            // The LSQ's address CAM is discrete latches (cells), but
            // its 64-bit data payload per entry is a dense array.
            let lsq_data = (c.geometry.lsq_depth * 64) as u64;
            data + tags + deppred + tlb + mshr + wb as u64 + lsq_data
        }
        TileKind::Et => {
            // frames x rs_per_frame reservation stations (64 on the
            // prototype): two 64-bit operands, a predicate bit, and
            // the 32-bit instruction plus status.
            (c.geometry.frames * c.geometry.rs_per_frame * (2 * 64 + 1 + 32 + 4)) as u64 + 1500
        }
        TileKind::Mt => {
            let data = (cfg.mt_bank_kb * 1024 * 8) as u64;
            let lines = (cfg.mt_bank_kb * 1024 / 64) as u64;
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
fn tile_count(kind: TileKind, cfg: &ChipConfig) -> usize {
    let g = cfg.core.geometry;
    match kind {
        TileKind::Gt => cfg.cores,
        TileKind::Rt => cfg.cores * g.num_rts(),
        TileKind::It => cfg.cores * g.num_its(),
        TileKind::Dt => cfg.cores * g.num_dts(),
        TileKind::Et => cfg.cores * g.num_ets(),
        TileKind::Mt => cfg.mt_banks,
        TileKind::Nt => cfg.nts,
        TileKind::Sdc => 2,
        TileKind::Dma => 2,
        TileKind::Ebc => 1,
        TileKind::C2c => 1,
    }
}

/// The full Table 1 inventory for a chip configuration.
pub fn tile_specs(cfg: &ChipConfig) -> Vec<TileSpec> {
    TileKind::ALL
        .iter()
        .map(|&kind| {
            let cells = cell_count(kind);
            let bits = array_bits(kind, cfg);
            let raw = cells as f64 * MM2_PER_CELL + bits as f64 * MM2_PER_BIT;
            TileSpec {
                kind,
                cell_count: cells,
                array_bits: bits,
                size_mm2: raw * layout_factor(kind),
                count: tile_count(kind, cfg),
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
        let cfg = ChipConfig::prototype();
        for (kind, paper_kbits, _, _) in PAPER {
            if paper_kbits == 0.0 {
                continue;
            }
            let model = array_bits(kind, &cfg) as f64 / 1000.0;
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
        let cfg = ChipConfig::prototype();
        let specs = tile_specs(&cfg);
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
        let cfg = ChipConfig::prototype();
        let total: usize = tile_specs(&cfg).iter().map(|s| s.count).sum();
        assert_eq!(total, 106);
    }

    #[test]
    fn predictor_resize_shows_up_in_gt_bits() {
        let mut cfg = ChipConfig::prototype();
        let before = array_bits(TileKind::Gt, &cfg);
        cfg.core.predictor.gshare_entries *= 2;
        let after = array_bits(TileKind::Gt, &cfg);
        assert!(after > before, "the model derives from the configuration");
    }
}
