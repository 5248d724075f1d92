//! Message types carried by the micronetworks, and the tile/topology
//! maps of the core.

use trips_isa::semantics::Tok;
use trips_isa::{BranchKind, Instruction, Opcode, OperandSlot, ReadInst, Target, WriteInst};
use trips_micronet::Coord;

use crate::config::MAX_FRAMES;
use crate::frames::FrameSet;

/// An in-flight block slot (0..[`CoreGeometry::frames`]).
///
/// [`CoreGeometry::frames`]: crate::CoreGeometry
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u8);

/// Frame generation: bumped on every flush/reallocation so stale
/// in-flight messages can be recognized and dropped.
pub type Gen = u32;

/// Critical-path event handle.
pub type EvId = u32;

/// Identity of every tile on the operand network (the ITs are not OPN
/// clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileId {
    /// The global control tile.
    Gt,
    /// Register tile `0..4` (bank index).
    Rt(u8),
    /// Data tile `0..4` (row index).
    Dt(u8),
    /// Execution tile at (row, col), each `0..4`.
    Et(u8, u8),
}

impl TileId {
    /// The tile's OPN coordinate: the GT and RTs occupy row 0, the
    /// DTs column 0, and the ETs the 4×4 interior (Figure 2).
    pub fn opn(self) -> Coord {
        match self {
            TileId::Gt => Coord { row: 0, col: 0 },
            TileId::Rt(b) => Coord { row: 0, col: b + 1 },
            TileId::Dt(d) => Coord { row: d + 1, col: 0 },
            TileId::Et(r, c) => Coord { row: r + 1, col: c + 1 },
        }
    }

    /// The tile at an OPN coordinate — the inverse of
    /// [`TileId::opn`]. The perimeter map (row 0 = GT/RTs, column 0 =
    /// DTs, interior = ETs) is the same for every
    /// [`CoreGeometry`](crate::CoreGeometry)'s mesh, so no geometry is
    /// needed to invert it.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the largest supported
    /// (9×9) mesh.
    pub fn from_opn(c: Coord) -> TileId {
        match (c.row, c.col) {
            (0, 0) => TileId::Gt,
            (0, col) if col <= 8 => TileId::Rt(col - 1),
            (row, 0) if row <= 8 => TileId::Dt(row - 1),
            (row, col) if row <= 8 && col <= 8 => TileId::Et(row - 1, col - 1),
            _ => panic!("coordinate {c} outside the OPN"),
        }
    }

    /// The tile that hosts block-body instruction `idx` **on the
    /// prototype die**. Geometry-aware code uses
    /// [`CoreGeometry::tile_of_inst`](crate::CoreGeometry::tile_of_inst).
    pub fn of_inst(idx: u8) -> TileId {
        let s = trips_isa::InstSlot::from_index(idx);
        TileId::Et(s.et.row, s.et.col)
    }

    /// The RT that hosts header read/write slot `slot` **on the
    /// prototype die** (see
    /// [`CoreGeometry::tile_of_header_slot`](crate::CoreGeometry::tile_of_header_slot)).
    pub fn of_header_slot(slot: u8) -> TileId {
        TileId::Rt(slot / 8)
    }

    /// The DT owning byte address `ea` **on the prototype die**
    /// (§3.5; see
    /// [`CoreGeometry::tile_of_addr`](crate::CoreGeometry::tile_of_addr)).
    pub fn of_addr(ea: u64) -> TileId {
        TileId::Dt(((ea >> 6) & 3) as u8)
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileId::Gt => write!(f, "GT"),
            TileId::Rt(b) => write!(f, "RT{b}"),
            TileId::Dt(d) => write!(f, "DT{d}"),
            TileId::Et(r, c) => write!(f, "ET({r},{c})"),
        }
    }
}

/// Payloads on the operand network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpnPayload {
    /// An operand headed for a reservation-station slot of an ET.
    Operand {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Destination instruction index within the block.
        idx: u8,
        /// Destination operand slot.
        slot: OperandSlot,
        /// The token.
        tok: Tok,
        /// Producing event (critical path).
        ev: EvId,
    },
    /// A value headed for a write-queue slot of an RT.
    WriteVal {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Write-queue slot (0..32).
        wslot: u8,
        /// The token.
        tok: Tok,
        /// Producing event.
        ev: EvId,
    },
    /// A load request from an ET to the owning DT.
    LoadReq {
        /// Issuing frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// The load's LSID.
        lsid: u8,
        /// The load opcode (width/extension).
        opcode: Opcode,
        /// Effective address.
        ea: u64,
        /// Where the loaded value goes.
        target: Target,
        /// Producing event.
        ev: EvId,
    },
    /// A store (or nullified store) from an ET to a DT.
    StoreReq {
        /// Issuing frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// The store's LSID.
        lsid: u8,
        /// Effective address (meaningless when nullified).
        ea: u64,
        /// The value (meaningless when nullified).
        val: u64,
        /// Access width in bytes.
        bytes: u32,
        /// True when the store was nullified on this predicate path.
        nullified: bool,
        /// Producing event.
        ev: EvId,
    },
    /// The block's branch, headed for the GT.
    Branch {
        /// Issuing frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Branch class.
        kind: BranchKind,
        /// Exit number for predictor training.
        exit: u8,
        /// Block offset (B format).
        offset: i32,
        /// Absolute target for register branches.
        reg_target: Option<u64>,
        /// Producing event.
        ev: EvId,
    },
}

/// Fetch/dispatch command from the GT down the IT column (GDN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GdnFetch {
    /// Destination frame.
    pub frame: FrameId,
    /// Frame generation.
    pub gen: Gen,
    /// Block header address.
    pub addr: u64,
    /// Body chunk count (1..=4).
    pub chunks: u8,
    /// The header's store mask, delivered to the DTs at dispatch.
    pub store_mask: u32,
    /// Fetch-start event (critical path).
    pub ev: EvId,
}

/// Messages an IT sends east along its row (GDN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowMsg {
    /// A body instruction for an ET.
    Inst {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Block-body index.
        idx: u8,
        /// The instruction.
        inst: Instruction,
        /// Fetch event.
        ev: EvId,
    },
    /// A header read instruction for an RT.
    Read {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Read-queue slot (0..32).
        slot: u8,
        /// The read.
        read: ReadInst,
        /// Fetch event.
        ev: EvId,
    },
    /// A header write declaration for an RT.
    Write {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Write-queue slot (0..32).
        slot: u8,
        /// The write.
        write: WriteInst,
        /// Fetch event.
        ev: EvId,
    },
    /// All header read/write declarations for this frame have been
    /// dispatched (sent on the last header beat so each RT knows its
    /// declaration set is complete).
    HeaderDone {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// Fetch event.
        ev: EvId,
    },
    /// Block metadata for a DT (store mask).
    DtMask {
        /// Destination frame.
        frame: FrameId,
        /// Frame generation.
        gen: Gen,
        /// The store mask.
        store_mask: u32,
        /// Fetch event.
        ev: EvId,
    },
}

/// Global status network messages (completion/ack daisy chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GsnMsg {
    /// All register writes of `frame` have arrived (RT chain).
    WritesDone {
        /// The frame.
        frame: FrameId,
        /// Generation.
        gen: Gen,
        /// Last-arrival event.
        ev: EvId,
    },
    /// All expected stores of `frame` have arrived (DT chain).
    StoresDone {
        /// The frame.
        frame: FrameId,
        /// Generation.
        gen: Gen,
        /// Last-arrival event.
        ev: EvId,
    },
    /// Register commit finished for `frame` (RT chain).
    WritesCommitted {
        /// The frame.
        frame: FrameId,
        /// Generation.
        gen: Gen,
    },
    /// Store commit finished for `frame` (DT chain).
    StoresCommitted {
        /// The frame.
        frame: FrameId,
        /// Generation.
        gen: Gen,
    },
    /// A memory-ordering violation was detected: flush from `frame`.
    Violation {
        /// The frame of the mis-speculated load.
        frame: FrameId,
        /// Generation.
        gen: Gen,
    },
    /// An IT finished refilling its chunk (IT chain, northward).
    RefillDone {
        /// Block address being refilled.
        addr: u64,
    },
}

/// Global control network messages (commit/flush wave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcnMsg {
    /// Commit `frame`: write queues and store queues drain to
    /// architectural state; speculative state for the frame clears.
    Commit {
        /// The frame.
        frame: FrameId,
        /// Generation.
        gen: Gen,
    },
    /// Flush the frames in `mask`; each flushed frame's generation is
    /// bumped to the paired value.
    Flush {
        /// The frames to flush.
        mask: FrameSet,
        /// New generation for each flushed frame (indices past the
        /// geometry's frame count are unused).
        gens: [Gen; MAX_FRAMES],
    },
}

/// Global refill network: the GT broadcasts the refill address to the
/// ITs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrnRefill {
    /// Block header address.
    pub addr: u64,
    /// Body chunk count (so each IT knows whether it participates).
    pub chunks: u8,
}

/// Data status network: store-arrival broadcasts between DTs (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsnMsg {
    /// The frame.
    pub frame: FrameId,
    /// Generation.
    pub gen: Gen,
    /// The arrived store's LSID.
    pub lsid: u8,
    /// Arrival event at the owning DT.
    pub ev: EvId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opn_map_matches_figure_2() {
        assert_eq!(TileId::Gt.opn(), Coord { row: 0, col: 0 });
        assert_eq!(TileId::Rt(3).opn(), Coord { row: 0, col: 4 });
        assert_eq!(TileId::Dt(0).opn(), Coord { row: 1, col: 0 });
        assert_eq!(TileId::Et(0, 0).opn(), Coord { row: 1, col: 1 });
        assert_eq!(TileId::Et(3, 3).opn(), Coord { row: 4, col: 4 });
    }

    #[test]
    fn from_opn_inverts_the_coordinate_map() {
        for tile in std::iter::once(TileId::Gt)
            .chain((0..4).map(TileId::Rt))
            .chain((0..4).map(TileId::Dt))
            .chain((0..4).flat_map(|r| (0..4).map(move |c| TileId::Et(r, c))))
        {
            assert_eq!(TileId::from_opn(tile.opn()), tile);
        }
    }

    #[test]
    fn inst_to_tile_follows_chunk_striping() {
        assert_eq!(TileId::of_inst(0), TileId::Et(0, 0));
        assert_eq!(TileId::of_inst(33), TileId::Et(1, 1));
        assert_eq!(TileId::of_inst(127), TileId::Et(3, 3));
    }

    #[test]
    fn addresses_interleave_across_dts_by_line() {
        assert_eq!(TileId::of_addr(0x00), TileId::Dt(0));
        assert_eq!(TileId::of_addr(0x3f), TileId::Dt(0));
        assert_eq!(TileId::of_addr(0x40), TileId::Dt(1));
        assert_eq!(TileId::of_addr(0x80), TileId::Dt(2));
        assert_eq!(TileId::of_addr(0xc0), TileId::Dt(3));
        assert_eq!(TileId::of_addr(0x100), TileId::Dt(0));
    }

    #[test]
    fn header_slots_stripe_across_rts() {
        assert_eq!(TileId::of_header_slot(0), TileId::Rt(0));
        assert_eq!(TileId::of_header_slot(7), TileId::Rt(0));
        assert_eq!(TileId::of_header_slot(8), TileId::Rt(1));
        assert_eq!(TileId::of_header_slot(31), TileId::Rt(3));
    }
}
