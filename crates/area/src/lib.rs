//! # trips-area — the physical-design model
//!
//! The TRIPS chip is a 170 M-transistor, 18.30 mm × 18.37 mm ASIC in
//! IBM's CU-11 130 nm process, built from 106 copies of 11 tile types
//! (§5). This crate regenerates the paper's physical-design artifacts
//! from the same core geometry the simulator runs:
//!
//! * **Table 1** — per-tile cell counts, array bits, sizes, and chip
//!   area shares. Array bits are *derived* from the
//!   microarchitectural configuration (predictor tables, cache banks,
//!   queues); cell counts and layout densities are calibrated against
//!   the published tile characteristics.
//! * **Table 2** — the control- and data-network link widths, from
//!   [`trips_micronet::widths`].
//! * **Figure 6** — an ASCII rendition of the chip floorplan.
//! * The §5.2 overhead observations: the OPN at ~12% of processor
//!   area, the OCN at ~14% of chip area, and the replicated LSQs at
//!   ~13% of the processor core (≈40% of each DT).

mod chip;
mod floorplan;
mod tiles;

pub use chip::{
    chip_summary, core_area_mm2, networks_table, render_table1, table1, ChipSummary, NetworkRow,
    Table1Row,
};
pub use floorplan::floorplan;
pub use tiles::{tile_specs, TileKind, TileSpec};
