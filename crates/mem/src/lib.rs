//! # trips-mem — the secondary memory system
//!
//! The TRIPS prototype's 1 MB static NUCA array: sixteen memory tiles
//! (MT), each a 64 KB 4-way bank with an OCN router and a single-entry
//! MSHR, embedded in a 4×10 wormhole-routed mesh with 16-byte links
//! and four virtual channels (§3.6). Network tiles (NT) around the
//! array hold programmable routing tables that decide where each
//! request goes, which lets software configure the array as one shared
//! L2, two per-processor L2s, scratchpad memory, or mixtures. Behind
//! the banks sit two SDRAM controllers; two DMA engines move bulk data
//! across the physical address space.
//!
//! By default the processor cores of `trips-core` run their
//! evaluation against a perfect L2, exactly as the paper's Table 3
//! does — but the core's `MemBackend::Nuca` configuration plugs this
//! crate in as the live secondary system: DT miss fills, IT I-cache
//! refills, and store writebacks then travel the OCN to the banks,
//! ticked in lockstep with the core (DESIGN.md §5d). The `memsweep`
//! harness sweeps cache modes and interleavings over that path; the
//! crate also stands alone for memory-system experiments and
//! streaming/DMA studies.
//!
//! ```
//! use trips_mem::{MemConfig, MemMode, MemReq, SecondarySystem};
//!
//! let mut l2 = SecondarySystem::new(MemConfig::prototype());
//! l2.write_backing(0x4_0000, &[7u8; 64]);
//! l2.request(0, 0, MemReq::read_line(1, 0x4_0000));
//! let mut t = 0;
//! let resp = loop {
//!     l2.tick(t);
//!     t += 1;
//!     if let Some(r) = l2.pop_response(t, 0) {
//!         break r;
//!     }
//!     assert!(t < 10_000);
//! };
//! assert_eq!(resp.id, 1);
//! assert_eq!(resp.data[0], 7);
//! assert_eq!(l2.config().mode, MemMode::L2Shared);
//! ```

mod dma;
mod geometry;
mod system;
mod tags;
mod tiles;

pub use dma::{DmaEngine, DmaJob};
pub use geometry::{
    OcnGeometry, BANKS_PER_BLOCK, BLOCK_ROWS, BLOCK_SIDE_PORTS, CORES_PER_BLOCK, MAX_CORES,
};
pub use system::{
    CohSnapshot, DirView, MemConfig, MemMode, MemReq, MemResp, ReqKind, SecondarySystem, DRAM_LAT,
    ID_COH, PERFECT_L2_LAT, VC_CAP,
};
pub use tags::TagStore;
pub use tiles::{MemTile, NetTile, BANK_KB, BANK_LAT, BANK_WAYS};
