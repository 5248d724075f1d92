//! Computed OCN geometry for N-core dies.
//!
//! The prototype die (§2, §3.6) is one **block**: a 4×10 OCN slab
//! whose two middle columns hold sixteen NUCA banks (two columns of
//! eight, rows 1..=8) and whose edge columns expose ten client ports
//! each — west ports 0..10 for the DTs, east ports 10..20 for the ITs
//! — shared by the die's two cores (core 0 on port rows 0..5 of each
//! side, core 1 on rows 5..10).
//!
//! [`OcnGeometry`] scales that die to N ∈ 1..=16 cores by **tiling
//! blocks vertically**: `blocks = ⌈N/2⌉`, the mesh grows to
//! `10·blocks` rows (still 4 columns), and each block carries its own
//! sixteen banks and twenty ports. Core `k` lives in block `k/2`,
//! taking the block-local port slice core `k%2` takes on the
//! prototype die, and its routing tables stripe over **its own
//! block's** banks in the same ascending order the prototype uses.
//!
//! Two consequences carry the whole correctness story:
//!
//! * **N=1 and N=2 reduce to the prototype.** One block, rows 0..10,
//!   banks 0..16, ports 0..20, and the per-core port slices equal the
//!   hand-written `SOLO`/`for_core` maps this module replaced — so
//!   every existing bit-identity anchor (solo vs. one-core chip,
//!   dual-core baselines) is untouched by construction, not by luck.
//! * **Every slot is a pure translation of a prototype slot.** The
//!   mesh's wormhole routing, per-router round-robin arbitration, and
//!   bank timing are all invariant under shifting a traffic pattern
//!   by whole blocks (`+10·b` rows moves sources, destinations, and
//!   every intermediate router together; no routing decision, credit
//!   check, or arbitration order can tell). So an even slot of any
//!   die behaves cycle-for-cycle like prototype core 0 and an odd
//!   slot like prototype core 1 — the property
//!   `tests/chip_equivalence.rs` pins for every slot of 2/4/8-core
//!   dies.
//!
//! Contention is therefore *intra-block*: the two cores of a block
//! share its banks exactly as the prototype pair does, while separate
//! blocks are disjoint timing domains on one die. Aggregate
//! bank-conflict pressure grows with the number of populated blocks —
//! the monotone scaling curve `chipsim` gates.

use std::ops::Range;

use trips_micronet::Coord;

/// Rows per block: the prototype's 10-row OCN slab.
pub const BLOCK_ROWS: u8 = 10;
/// Client ports per block side (west = DT-side, east = IT-side).
pub const BLOCK_SIDE_PORTS: usize = BLOCK_ROWS as usize;
/// Cores per block: the prototype die pairs two cores on one slab.
pub const CORES_PER_BLOCK: usize = 2;
/// Largest die the geometry (and the OCN tag space) supports.
pub const MAX_CORES: usize = 16;

/// The OCN/NUCA floorplan of an N-core die, derived entirely from the
/// core count and the per-block bank count (16 on the prototype).
///
/// All coordinates follow the prototype convention: banks in mesh
/// columns 1..=2 of their block, client ports on columns 0 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcnGeometry {
    ncores: usize,
    blocks: usize,
    banks_per_block: usize,
}

impl OcnGeometry {
    /// Geometry of an `ncores`-core die with the prototype's sixteen
    /// banks per block.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ncores <= 16`.
    pub fn for_cores(ncores: usize) -> OcnGeometry {
        OcnGeometry::with_banks(ncores, 16)
    }

    /// Geometry with a non-prototype per-block bank count (the
    /// `memsweep`-style single-block experiments). Banks fill the two
    /// middle columns bottom-up, eight per column, so
    /// `banks_per_block <= 16`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ncores <= 16` and
    /// `1 <= banks_per_block <= 16`.
    pub fn with_banks(ncores: usize, banks_per_block: usize) -> OcnGeometry {
        assert!(
            (1..=MAX_CORES).contains(&ncores),
            "a die carries 1..={MAX_CORES} cores, not {ncores}"
        );
        assert!(
            (1..=16).contains(&banks_per_block),
            "a block holds 1..=16 banks, not {banks_per_block}"
        );
        OcnGeometry { ncores, blocks: ncores.div_ceil(CORES_PER_BLOCK), banks_per_block }
    }

    /// Cores on the die.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// Prototype-sized blocks tiled vertically (`⌈ncores/2⌉`).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Mesh rows (`10·blocks`).
    pub fn rows(&self) -> u8 {
        BLOCK_ROWS * self.blocks as u8
    }

    /// Mesh columns — always the prototype's four.
    pub fn cols(&self) -> u8 {
        4
    }

    /// Total NUCA banks on the die.
    pub fn banks(&self) -> usize {
        self.banks_per_block * self.blocks
    }

    /// Total client ports (`20·blocks`; west side first).
    pub fn ports(&self) -> usize {
        2 * BLOCK_SIDE_PORTS * self.blocks
    }

    /// Ports on the west (DT-side) edge column; ports `0..west_ports`
    /// sit on column 0, the rest on column 3.
    pub fn west_ports(&self) -> usize {
        BLOCK_SIDE_PORTS * self.blocks
    }

    /// The block core `k` lives in.
    pub fn core_block(&self, k: usize) -> usize {
        k / CORES_PER_BLOCK
    }

    /// First west-side port of core `k`'s DT slice (the prototype's
    /// `dt_base`: 0 for an even slot, 5 for an odd one, plus the
    /// block's ten-port stride).
    pub fn core_dt_base(&self, k: usize) -> usize {
        assert!(k < self.ncores, "core {k} of {}", self.ncores);
        BLOCK_SIDE_PORTS * self.core_block(k) + 5 * (k % CORES_PER_BLOCK)
    }

    /// Client ports per side (west for DTs, east for ITs) that core
    /// `k`'s slot owns: its half of the block's ten, or all ten when no
    /// neighbour shares the block (the last core of an odd-sized die).
    pub fn core_side_ports(&self, k: usize) -> usize {
        assert!(k < self.ncores, "core {k} of {}", self.ncores);
        let alone = k.is_multiple_of(CORES_PER_BLOCK) && k + 1 == self.ncores;
        BLOCK_SIDE_PORTS / if alone { 1 } else { CORES_PER_BLOCK }
    }

    /// First east-side port of core `k`'s IT slice.
    pub fn core_it_base(&self, k: usize) -> usize {
        self.west_ports() + self.core_dt_base(k)
    }

    /// The bank indices core `k`'s routing table stripes over — its
    /// own block's banks, ascending, exactly the prototype's table
    /// order.
    pub fn core_bank_table(&self, k: usize) -> Range<usize> {
        self.block_banks(self.core_block(k))
    }

    /// Bank indices of block `b`.
    pub fn block_banks(&self, b: usize) -> Range<usize> {
        b * self.banks_per_block..(b + 1) * self.banks_per_block
    }

    /// Mesh coordinate of bank `i`: two columns of eight in its
    /// block's rows 1..=8 (the prototype layout, shifted by whole
    /// blocks).
    pub fn bank_coord(&self, i: usize) -> Coord {
        let (b, w) = (i / self.banks_per_block, i % self.banks_per_block);
        Coord { row: BLOCK_ROWS * b as u8 + 1 + (w % 8) as u8, col: 1 + (w / 8) as u8 }
    }

    /// Inverts [`OcnGeometry::bank_coord`].
    pub fn bank_index(&self, c: Coord) -> usize {
        let b = (c.row / BLOCK_ROWS) as usize;
        let local = (c.row % BLOCK_ROWS) as usize - 1 + (c.col as usize - 1) * 8;
        b * self.banks_per_block + local
    }

    /// Mesh coordinate of client port `p`: west ports on column 0 at
    /// row `p`, east ports on column 3 at row `p - west_ports`.
    pub fn port_coord(&self, p: usize) -> Coord {
        let w = self.west_ports();
        if p < w {
            Coord { row: p as u8, col: 0 }
        } else {
            Coord { row: (p - w) as u8, col: self.cols() - 1 }
        }
    }

    /// The block port `p` belongs to.
    pub fn port_block(&self, p: usize) -> usize {
        let w = self.west_ports();
        (if p < w { p } else { p - w }) / BLOCK_SIDE_PORTS
    }

    /// Whether `p` is a west-side (DT) port.
    pub fn is_west_port(&self, p: usize) -> bool {
        p < self.west_ports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_and_two_core_dies_are_the_prototype_block() {
        for n in [1, 2] {
            let g = OcnGeometry::for_cores(n);
            assert_eq!(g.blocks(), 1);
            assert_eq!((g.rows(), g.cols()), (10, 4));
            assert_eq!(g.banks(), 16);
            assert_eq!((g.ports(), g.west_ports()), (20, 10));
            // The hand-written maps this geometry replaced: SOLO was
            // {dt_base: 0, it_base: 10}; core 1 was {dt_base: 5,
            // it_base: 15}; both tables striped banks 0..16.
            assert_eq!((g.core_dt_base(0), g.core_it_base(0)), (0, 10));
            assert_eq!(g.core_bank_table(0), 0..16);
            if n == 2 {
                assert_eq!((g.core_dt_base(1), g.core_it_base(1)), (5, 15));
                assert_eq!(g.core_bank_table(1), 0..16);
            }
            // Prototype coordinates, verbatim.
            for i in 0..16 {
                assert_eq!(
                    g.bank_coord(i),
                    Coord { row: 1 + (i % 8) as u8, col: 1 + (i / 8) as u8 }
                );
                assert_eq!(g.bank_index(g.bank_coord(i)), i);
            }
            for p in 0..20 {
                let side = if p < 10 { 0 } else { 3 };
                assert_eq!(g.port_coord(p), Coord { row: (p % 10) as u8, col: side });
            }
        }
    }

    #[test]
    fn slots_are_block_translations_of_the_prototype_slots() {
        // Core k's port rows and bank rows are core (k%2)'s prototype
        // rows shifted by 10·(k/2) — the translation invariance the
        // slot bit-identity tests rest on.
        let proto = OcnGeometry::for_cores(2);
        for n in [4, 8, 16] {
            let g = OcnGeometry::for_cores(n);
            assert_eq!(g.blocks(), n / 2);
            assert_eq!(g.rows() as usize, 10 * n / 2);
            assert_eq!(g.banks(), 16 * n / 2);
            for k in 0..n {
                let (b, p) = (g.core_block(k), k % 2);
                let shift = 10 * b as u8;
                // DT slice: same column, rows shifted by the block.
                for d in 0..4 {
                    let got = g.port_coord(g.core_dt_base(k) + d);
                    let want = proto.port_coord(proto.core_dt_base(p) + d);
                    assert_eq!(got, Coord { row: want.row + shift, col: want.col });
                }
                for i in 0..5 {
                    let got = g.port_coord(g.core_it_base(k) + i);
                    let want = proto.port_coord(proto.core_it_base(p) + i);
                    assert_eq!(got, Coord { row: want.row + shift, col: want.col });
                }
                // Bank table: the block's own banks, whose coords are
                // the prototype banks' shifted by the block.
                let table: Vec<Coord> = g.core_bank_table(k).map(|i| g.bank_coord(i)).collect();
                for (w, c) in table.iter().enumerate() {
                    let want = proto.bank_coord(w);
                    assert_eq!(*c, Coord { row: want.row + shift, col: want.col });
                }
            }
        }
    }

    #[test]
    fn port_and_bank_indexing_round_trips() {
        for n in 1..=16 {
            let g = OcnGeometry::for_cores(n);
            for i in 0..g.banks() {
                assert_eq!(g.bank_index(g.bank_coord(i)), i);
            }
            // Port slices of distinct cores never overlap.
            let mut owner = vec![None; g.ports()];
            for k in 0..n {
                for d in 0..4 {
                    let p = g.core_dt_base(k) + d;
                    assert!(g.is_west_port(p));
                    assert_eq!(owner[p].replace(k), None, "port {p} double-owned");
                    assert_eq!(g.port_block(p), g.core_block(k));
                }
                for i in 0..5 {
                    let p = g.core_it_base(k) + i;
                    assert!(!g.is_west_port(p));
                    assert_eq!(owner[p].replace(k), None, "port {p} double-owned");
                    assert_eq!(g.port_block(p), g.core_block(k));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=16 cores")]
    fn rejects_oversized_dies() {
        OcnGeometry::for_cores(17);
    }
}
