//! Configuration of the processor core model.

use trips_mem::MemConfig;

use crate::fault::FaultPlan;
use crate::frames::FrameSet;
use crate::msg::TileId;

/// Number of ET rows/columns in the **prototype** (the die the paper
/// built). Runtime sizing goes through [`CoreGeometry`]; these consts
/// remain as the prototype's pinned values — the bit-identity anchor
/// the `gating_equivalence` geometry gate checks
/// [`CoreGeometry::prototype`] against.
pub const ET_ROWS: usize = 4;
/// ET columns per row (prototype).
pub const ET_COLS: usize = 4;
/// Register tiles (= register banks, prototype).
pub const NUM_RTS: usize = 4;
/// Data tiles (= L1D banks, prototype).
pub const NUM_DTS: usize = 4;
/// Instruction tiles (header + four body chunks, prototype).
pub const NUM_ITS: usize = 5;
/// In-flight block frames (prototype).
pub const NUM_FRAMES: usize = 8;
/// Reservation stations per ET per frame (prototype).
pub const RS_PER_FRAME: usize = 8;

/// Hard ceiling on [`CoreGeometry::frames`], sized so a frame set
/// always fits a [`FrameSet`] and the fixed-size generation arrays
/// carried by GCN flush waves.
pub const MAX_FRAMES: usize = 16;

/// A set of reservation-station slots within one ET frame. Wide
/// enough for any legal [`CoreGeometry::rs_per_frame`] (≤ 32).
pub type StationMask = u32;

/// A set of tile-tick slots (bit layout per
/// [`CoreGeometry::tile_bit`]). An 8×8 array needs 86 bits
/// (1 GT + 9 ITs + 4 RTs + 64 ETs + 8 DTs).
pub type TileMask = u128;

/// Runtime-parameterized core geometry: the ET array, the frame file,
/// and the LSQ — everything Table 1 and the tick loop size from.
///
/// The block format is ISA-fixed (128 instructions, 32 header
/// read/write slots, 32 LSIDs, 128 architectural registers in four
/// encoding banks); the geometry decides how those architectural
/// resources are *folded onto hardware tiles*:
///
/// * `et_rows × et_cols` execution tiles, each holding
///   `128 / (et_rows * et_cols)` instructions of every block
///   (`rs_per_frame` reservation stations per frame).
/// * One DT per ET row (the DT sits at the head of its row's GDN
///   chain) and one body IT per row plus the header IT, so
///   `num_dts = et_rows` and `num_its = et_rows + 1`.
/// * `min(et_cols, 4)` register tiles on the top mesh row. The RT
///   count is capped at 4 because the ISA's header-slot banking is
///   4-wide: slot `s` may only name a register of encoding bank
///   `s / 8`, so hardware banking finer than the encoding's would
///   split a slot from its register.
/// * An `(et_rows + 1) × (et_cols + 1)` OPN mesh (the perimeter row 0
///   / column 0 carry the GT, RTs, and DTs, as in Figure 2).
///
/// [`CoreGeometry::prototype`] reproduces today's constants exactly
/// and is pinned bit-identical by the equivalence gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreGeometry {
    /// ET rows (1..=8, power of two).
    pub et_rows: usize,
    /// ET columns (1..=8, power of two).
    pub et_cols: usize,
    /// In-flight block frames (1..=[`MAX_FRAMES`]).
    pub frames: usize,
    /// Reservation stations per ET per frame; must equal
    /// `128 / (et_rows * et_cols)` (a frame holds exactly one block).
    pub rs_per_frame: usize,
    /// Load/store queue entries per DT (area model + config wiring).
    pub lsq_depth: usize,
}

impl CoreGeometry {
    /// The prototype geometry of the paper: 4×4 ETs, 8 frames, 8
    /// reservation stations per frame, 256-entry LSQs.
    pub fn prototype() -> CoreGeometry {
        CoreGeometry { et_rows: 4, et_cols: 4, frames: 8, rs_per_frame: 8, lsq_depth: 256 }
    }

    /// The blessed CI fast-lane geometry: a 2×2 ET array with 4
    /// frames — 13 tile ticks per cycle instead of 30 and half the
    /// speculation depth, making a full tier-1 pass much cheaper than
    /// prototype while exercising every protocol.
    pub fn mini() -> CoreGeometry {
        CoreGeometry { et_rows: 2, et_cols: 2, frames: 4, rs_per_frame: 32, lsq_depth: 64 }
    }

    /// The scaled-up sweep point: an 8×8 ET array with 16 frames.
    pub fn fat() -> CoreGeometry {
        CoreGeometry { et_rows: 8, et_cols: 8, frames: 16, rs_per_frame: 2, lsq_depth: 512 }
    }

    /// The geometry selected by the `TRIPS_GEOMETRY` environment
    /// variable (`prototype`, `mini`, `fat`, or `RxC/F` such as
    /// `2x4/8`), defaulting to [`CoreGeometry::prototype`] when unset.
    /// Read once per process; the CI mini-gate sets it for a whole
    /// `cargo test` run.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse or validate
    /// — a misconfigured gate must fail loudly, not silently run the
    /// wrong die.
    pub fn from_env() -> CoreGeometry {
        static CHOICE: std::sync::OnceLock<CoreGeometry> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| match std::env::var("TRIPS_GEOMETRY") {
            Err(_) => CoreGeometry::prototype(),
            Ok(s) => CoreGeometry::parse(&s).unwrap_or_else(|e| panic!("TRIPS_GEOMETRY={s}: {e}")),
        })
    }

    /// Parses a geometry name (`prototype`, `mini`, `fat`) or a
    /// custom `RxC/F` spec (rows×cols ETs, `F` frames; `rs_per_frame`
    /// and `lsq_depth` derived). A spec matching a blessed point's
    /// dims and frames canonicalizes to that point, so `8x8/16` is
    /// exactly [`CoreGeometry::fat`].
    ///
    /// # Errors
    ///
    /// A description of the parse or validation failure.
    pub fn parse(s: &str) -> Result<CoreGeometry, String> {
        let g = match s {
            "prototype" => CoreGeometry::prototype(),
            "mini" => CoreGeometry::mini(),
            "fat" => CoreGeometry::fat(),
            custom => {
                let (dims, frames) = custom
                    .split_once('/')
                    .ok_or_else(|| format!("bad geometry spec {custom:?}"))?;
                let (r, c) =
                    dims.split_once('x').ok_or_else(|| format!("bad geometry spec {custom:?}"))?;
                let et_rows: usize = r.parse().map_err(|_| format!("bad rows {r:?}"))?;
                let et_cols: usize = c.parse().map_err(|_| format!("bad cols {c:?}"))?;
                let frames: usize = frames.parse().map_err(|_| format!("bad frames {frames:?}"))?;
                // Bounded before the derivations below multiply them.
                if !(1..=8).contains(&et_rows) || !(1..=8).contains(&et_cols) {
                    return Err(format!("ET array {r}x{c} must have power-of-two dims in 1..=8"));
                }
                let ets = et_rows * et_cols;
                let derived = CoreGeometry {
                    et_rows,
                    et_cols,
                    frames,
                    rs_per_frame: 128 / ets,
                    lsq_depth: (256 * ets / 16).max(16),
                };
                // A spec naming a blessed die *is* that die: the
                // blessed points pin lsq_depth (fat caps it at 512
                // where the linear derivation would say 1024), and a
                // spelled-out `8x8/16` must reproduce the swept
                // configuration, not a near-miss of it.
                [CoreGeometry::mini(), CoreGeometry::prototype(), CoreGeometry::fat()]
                    .into_iter()
                    .find(|b| {
                        (b.et_rows, b.et_cols, b.frames)
                            == (derived.et_rows, derived.et_cols, derived.frames)
                    })
                    .unwrap_or(derived)
            }
        };
        g.validate()?;
        Ok(g)
    }

    /// The blessed name of this geometry, for reports and failure
    /// artifacts (`mini` / `prototype` / `fat`, else `RxC/F`).
    pub fn name(&self) -> String {
        if *self == CoreGeometry::prototype() {
            "prototype".into()
        } else if *self == CoreGeometry::mini() {
            "mini".into()
        } else if *self == CoreGeometry::fat() {
            "fat".into()
        } else {
            format!("{}x{}/{}", self.et_rows, self.et_cols, self.frames)
        }
    }

    /// Checks the structural constraints the tile protocols assume.
    ///
    /// # Errors
    ///
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let ok_dim = |d: usize| (1..=8).contains(&d) && d.is_power_of_two();
        if !ok_dim(self.et_rows) || !ok_dim(self.et_cols) {
            return Err(format!(
                "ET array {}x{} must have power-of-two dims in 1..=8",
                self.et_rows, self.et_cols
            ));
        }
        let ets = self.et_rows * self.et_cols;
        if ets < 4 {
            return Err(format!(
                "{ets} ETs hold {} instructions each; stations per frame are capped at 32",
                128 / ets
            ));
        }
        if self.rs_per_frame * ets != 128 {
            return Err(format!(
                "rs_per_frame {} * {ets} ETs != 128 (a frame holds exactly one block)",
                self.rs_per_frame
            ));
        }
        if self.frames == 0 || self.frames > MAX_FRAMES {
            return Err(format!("frames {} outside 1..={MAX_FRAMES}", self.frames));
        }
        if self.lsq_depth == 0 {
            return Err("zero-entry LSQ".into());
        }
        Ok(())
    }

    // ---- derived tile counts ----

    /// Execution tiles.
    pub fn num_ets(&self) -> usize {
        self.et_rows * self.et_cols
    }

    /// Register tiles: one per ET column, capped at the ISA's 4-wide
    /// header-slot banking (see the type docs).
    pub fn num_rts(&self) -> usize {
        self.et_cols.min(4)
    }

    /// Data tiles: one per ET row.
    pub fn num_dts(&self) -> usize {
        self.et_rows
    }

    /// Instruction tiles: the header IT plus one per ET row.
    pub fn num_its(&self) -> usize {
        self.et_rows + 1
    }

    /// OPN mesh rows (ET rows plus the GT/RT perimeter row).
    pub fn mesh_rows(&self) -> usize {
        self.et_rows + 1
    }

    /// OPN mesh columns (ET columns plus the DT perimeter column).
    pub fn mesh_cols(&self) -> usize {
        self.et_cols + 1
    }

    // ---- block-onto-tiles folding ----
    //
    // Shift-only: `validate` makes every dimension a power of two, so
    // `x / d` is `x >> d.trailing_zeros()` and `x % d` is `x & (d - 1)`.
    // These run per dispatched instruction and per delivered operand,
    // where a 64-bit divide by a runtime value costs more than the rest
    // of the helper (DESIGN.md §5f).

    /// Block-body instructions per ET row (one body IT's slice).
    pub fn insts_per_row(&self) -> usize {
        128 >> self.et_rows.trailing_zeros()
    }

    /// Dispatch beats per block: each body IT streams its slice at
    /// `et_cols` instructions per beat, so `insts_per_row / et_cols`
    /// (= `rs_per_frame`; 8 on the prototype).
    pub fn beats(&self) -> usize {
        self.insts_per_row() >> self.et_cols.trailing_zeros()
    }

    /// Header read/write slots the header IT issues per beat
    /// (`32 / beats`; 4 on the prototype).
    pub fn header_slots_per_beat(&self) -> usize {
        32 >> self.beats().trailing_zeros()
    }

    /// Header read/write slots homed at each RT (8 on the prototype).
    pub fn slots_per_rt(&self) -> usize {
        32 >> self.num_rts().trailing_zeros()
    }

    /// Architectural registers homed at each RT (32 on the prototype).
    pub fn regs_per_bank(&self) -> usize {
        128 >> self.num_rts().trailing_zeros()
    }

    /// The (row, col, station-slot) placement of block-body
    /// instruction `idx`: row `idx / insts_per_row`; within the slice,
    /// instruction `p` goes to column `p % et_cols`, slot
    /// `p / et_cols` — the prototype's chunk striping generalized
    /// (4×4 recovers `InstSlot::from_index` exactly).
    pub fn inst_place(&self, idx: u8) -> (u8, u8, u8) {
        let (ipr, cols) = (self.insts_per_row(), self.et_cols);
        let p = idx as usize & (ipr - 1);
        let (row, slot) = (idx as usize >> ipr.trailing_zeros(), p >> cols.trailing_zeros());
        (row as u8, (p & (cols - 1)) as u8, slot as u8)
    }

    /// The ET hosting block-body instruction `idx`.
    pub fn tile_of_inst(&self, idx: u8) -> TileId {
        let (r, c, _) = self.inst_place(idx);
        TileId::Et(r, c)
    }

    /// The reservation-station slot of block-body instruction `idx`
    /// within its ET.
    pub fn inst_slot(&self, idx: u8) -> usize {
        self.inst_place(idx).2 as usize
    }

    /// The RT hosting header read/write slot `slot`.
    pub fn tile_of_header_slot(&self, slot: u8) -> TileId {
        TileId::Rt(slot >> self.slots_per_rt().trailing_zeros())
    }

    /// The DT owning byte address `ea` (cache lines interleave across
    /// the DTs at 64-byte granularity, §3.5).
    pub fn tile_of_addr(&self, ea: u64) -> TileId {
        TileId::Dt(((ea >> 6) & (self.num_dts() as u64 - 1)) as u8)
    }

    /// The DT that owns LSID `lsid`'s queue entry for requests with
    /// no address (nullified stores).
    pub fn dt_of_lsid(&self, lsid: u8) -> u8 {
        lsid & (self.num_dts() - 1) as u8
    }

    /// The hardware register bank (RT index) holding register `r`.
    /// For the prototype this is `ArchReg::bank`; with fewer RTs,
    /// whole encoding banks fold together, so a header slot and the
    /// register it names always land on the same RT.
    pub fn reg_bank(&self, r: u8) -> usize {
        r as usize >> self.regs_per_bank().trailing_zeros()
    }

    /// The index of register `r` within its hardware bank.
    pub fn reg_index(&self, r: u8) -> usize {
        r as usize & (self.regs_per_bank() - 1)
    }

    // ---- tick-mask / wake-table layout ----

    /// Tile ticks per cycle: GT + ITs + RTs + ETs + DTs.
    pub fn tile_ticks(&self) -> usize {
        1 + self.num_its() + self.num_rts() + self.num_ets() + self.num_dts()
    }

    /// Mask bit (and wake-table entry) of IT `it` — the ITs follow the
    /// GT's bit 0. (ITs are not OPN clients, so they have no
    /// [`TileId`]; every other tile goes through
    /// [`CoreGeometry::tile_bit`].)
    pub fn it_bit(&self, it: usize) -> u32 {
        1 + it as u32
    }

    /// Mask bit (and wake-table entry) of a routed tile: GT, ITs, RTs,
    /// the ET array row-major, DTs.
    pub fn tile_bit(&self, tile: TileId) -> u32 {
        let rt0 = self.it_bit(self.num_its());
        let et0 = rt0 + self.num_rts() as u32;
        match tile {
            TileId::Gt => 0,
            TileId::Rt(b) => rt0 + u32::from(b),
            TileId::Et(r, c) => et0 + u32::from(r) * self.et_cols as u32 + u32::from(c),
            TileId::Dt(d) => et0 + self.num_ets() as u32 + u32::from(d),
        }
    }

    /// The all-tiles activity mask.
    pub fn full_mask(&self) -> TileMask {
        (1 << self.tile_ticks()) - 1
    }

    // ---- GCN wave positions ----

    /// GCN chain length (every routed tile: GT, RTs, DTs, ETs).
    pub fn gcn_len(&self) -> usize {
        1 + self.num_rts() + self.num_dts() + self.num_ets()
    }

    /// GCN position of a routed tile (0 = GT, then RTs, DTs, ETs
    /// row-major — the prototype's 0 / 1..=4 / 5..=8 / 9..=24 map).
    pub fn gcn_pos(&self, tile: TileId) -> usize {
        match tile {
            TileId::Gt => 0,
            TileId::Rt(b) => 1 + b as usize,
            TileId::Dt(d) => 1 + self.num_rts() + d as usize,
            TileId::Et(r, c) => {
                1 + self.num_rts() + self.num_dts() + r as usize * self.et_cols + c as usize
            }
        }
    }
}

/// Next-block predictor sizing (§3.1: a tournament local/gshare exit
/// predictor plus a BTB/CTB/RAS/type target predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the local exit predictor (paper: 9K bits).
    pub local_entries: usize,
    /// Entries in the gshare exit predictor (paper: 16K bits).
    pub gshare_entries: usize,
    /// Entries in the tournament chooser (paper: 12K bits).
    pub chooser_entries: usize,
    /// Exits of history used by gshare (3 bits each).
    pub history_exits: usize,
    /// Branch target buffer entries (paper: 20K bits).
    pub btb_entries: usize,
    /// Call target buffer entries (paper: 6K bits).
    pub ctb_entries: usize,
    /// Return address stack depth (paper: 7K bits).
    pub ras_entries: usize,
    /// Branch type predictor entries (paper: 12K bits).
    pub btype_entries: usize,
}

impl PredictorConfig {
    /// The prototype's sizing.
    pub fn prototype() -> PredictorConfig {
        PredictorConfig {
            local_entries: 1024,
            gshare_entries: 4096,
            chooser_entries: 4096,
            history_exits: 8,
            btb_entries: 512,
            ctb_entries: 128,
            ras_entries: 128,
            btype_entries: 4096,
        }
    }

    /// A degenerate predictor for ablations: always predicts the
    /// sequential next block.
    pub fn sequential_only() -> PredictorConfig {
        PredictorConfig {
            local_entries: 1,
            gshare_entries: 1,
            chooser_entries: 1,
            history_exits: 1,
            btb_entries: 1,
            ctb_entries: 1,
            ras_entries: 1,
            btype_entries: 1,
        }
    }
}

/// The secondary memory system behind the L1 banks.
///
/// Both variants serve the same two request streams — DT MSHR fills
/// and IT I-cache refills — and only ever change *when* a fill
/// completes, never what a load returns (load values come from the
/// core's memory image at execute time, see DESIGN.md §5d), so the
/// backend choice cannot affect architectural results.
#[derive(Debug, Clone, PartialEq)]
pub enum MemBackend {
    /// A perfect L2: every miss fills after a flat `latency`, as the
    /// paper's Table 3 runs do to isolate core effects. The default;
    /// bit-identical to the pre-backend model (pinned by the
    /// `mem_backend` equivalence suite).
    PerfectL2 {
        /// Fill latency in cycles for I-side refills and D-side misses.
        latency: u64,
    },
    /// The §3.6 NUCA secondary system: requests travel the 4×10
    /// wormhole OCN to sixteen cache banks
    /// ([`trips_mem::SecondarySystem`]), ticked in lockstep with the
    /// core. Store commits additionally issue line writebacks whose
    /// acknowledgements gate commit completion (the ESN's role in the
    /// hardware).
    Nuca(MemConfig),
}

impl MemBackend {
    /// The prototype default: a perfect L2 with the 12-cycle fill the
    /// paper's Table 3 runs use.
    pub fn prototype() -> MemBackend {
        MemBackend::PerfectL2 { latency: 12 }
    }

    /// The NUCA backend in its prototype configuration.
    pub fn nuca_prototype() -> MemBackend {
        MemBackend::Nuca(MemConfig::prototype())
    }
}

/// The host-side schedule that ticks the model. Both schedules
/// simulate the same machine cycle for cycle; they differ only in how
/// much provably inert work the host skips (DESIGN.md §5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// The default: one read of the wake table per cycle, only tiles
    /// that are due are ticked, cycles in which nothing can act are
    /// skipped, the RT/DT/ET frame walks visit dirty frames only, and
    /// the GT does its completion/commit/dealloc work in one age-order
    /// pass.
    Fast,
    /// The oracle the tests compare [`TickMode::Fast`] against: no
    /// gating, every tile every cycle, every frame walk over
    /// [`FrameSet::all`], the GT's phases in the §4 specification
    /// order, never a skipped cycle.
    Reference,
}

impl TickMode {
    /// The frames a tile's walk visits: the tile's dirty-frame set
    /// under `Fast`, every frame of the `frames`-deep file under
    /// `Reference`. A frame outside `dirty` is inert by the set's
    /// own definition, so the two walks act on the same frames.
    pub(crate) fn walk(self, dirty: FrameSet, frames: usize) -> FrameSet {
        match self {
            TickMode::Fast => dirty,
            TickMode::Reference => FrameSet::all(frames),
        }
    }
}

/// Full configuration of the core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// The tile-array geometry (ET array, frame file, LSQ depth).
    /// [`CoreGeometry::prototype`] is the paper's die; `max_frames`
    /// below must stay within what the geometry provides.
    pub geometry: CoreGeometry,
    /// Parallel operand networks (1 in the prototype; 2 models the
    /// "more operand network bandwidth" extension of §7).
    pub opn_networks: usize,
    /// OPN router input-FIFO depth.
    pub opn_fifo: usize,
    /// L1D sets per DT bank (8 KB, 2-way, 64 B lines = 64 sets).
    pub l1d_sets: usize,
    /// L1D associativity.
    pub l1d_ways: usize,
    /// L1D hit latency in cycles.
    pub l1d_hit_lat: u64,
    /// The secondary memory system serving I-side refills and D-side
    /// misses (a perfect flat-latency L2 by default, or the §3.6 NUCA
    /// system).
    pub mem_backend: MemBackend,
    /// Integer ALU latency.
    pub int_lat: u64,
    /// Integer multiply latency (pipelined).
    pub mul_lat: u64,
    /// Integer divide latency (unpipelined, §3.4: 24 cycles).
    pub div_lat: u64,
    /// FP add/mul/compare latency (pipelined).
    pub fp_lat: u64,
    /// FP divide/sqrt latency (unpipelined).
    pub fdiv_lat: u64,
    /// Dependence predictor entries (§3.5: 1024-entry bit vector).
    pub deppred_entries: usize,
    /// Blocks between dependence-predictor clears (§3.5: 10,000).
    pub deppred_clear_blocks: u64,
    /// Disable the dependence predictor entirely (ablation): loads
    /// always issue aggressively.
    pub deppred_disabled: bool,
    /// Outstanding miss lines per DT MSHR (§3.5: 4).
    pub mshr_lines: usize,
    /// Cycles of next-block prediction in the fetch pipeline (§4.1: 3).
    pub predict_lat: u64,
    /// Cycles of I-TLB + tag access + hit/miss detection (§4.1: 2).
    pub tag_lat: u64,
    /// Architectural register writes committed per RT per cycle.
    pub commit_bw: usize,
    /// The next-block predictor.
    pub predictor: PredictorConfig,
    /// Record the critical-path event graph (costs memory and time).
    pub critpath: bool,
    /// Maximum in-flight frames to use (≤ [`CoreGeometry::frames`]);
    /// 1 disables speculation.
    pub max_frames: usize,
    /// Which of the two host-side tick schedules runs the model (see
    /// [`TickMode`]). The schedules are bit-identical in statistics
    /// and architectural state (enforced by `gating_equivalence`).
    pub tick_mode: TickMode,
    /// Timing-only fault plan for protocol fuzzing. `None` (the
    /// default) leaves every fault hook uninstalled; the run is then
    /// bit-identical to a build without the hooks (enforced by the
    /// `fault_injection` zero-overhead suite).
    pub faults: Option<FaultPlan>,
    /// Check the protocol invariants every cycle and after the run
    /// drains ([`crate::invariants`]). Off by default: the checks walk
    /// all tile state each tick and exist for the fuzzing harness, not
    /// the measurement paths.
    pub check_invariants: bool,
}

impl CoreConfig {
    /// The configuration selected by `TRIPS_GEOMETRY` (the prototype
    /// when unset — see [`CoreGeometry::from_env`]). Everything that
    /// constructs "the default core" goes through here, so the CI
    /// mini-gate can retarget the whole suite with one variable.
    pub fn prototype() -> CoreConfig {
        CoreConfig::with_geometry(CoreGeometry::from_env())
    }

    /// The prototype die, regardless of environment — for tests and
    /// baselines that pin the paper's absolute numbers.
    pub fn prototype_pinned() -> CoreConfig {
        CoreConfig::with_geometry(CoreGeometry::prototype())
    }

    /// The TRIPS prototype configuration of the paper, resized to the
    /// given tile-array geometry (frame count and LSQ depth follow the
    /// geometry; latencies, predictors, and the tick schedule are
    /// unchanged).
    pub fn with_geometry(geometry: CoreGeometry) -> CoreConfig {
        geometry.validate().expect("invalid CoreGeometry");
        CoreConfig {
            geometry,
            opn_networks: 1,
            opn_fifo: 4,
            l1d_sets: 64,
            l1d_ways: 2,
            l1d_hit_lat: 2,
            mem_backend: MemBackend::prototype(),
            int_lat: 1,
            mul_lat: 3,
            div_lat: 24,
            fp_lat: 4,
            fdiv_lat: 24,
            deppred_entries: 1024,
            deppred_clear_blocks: 10_000,
            deppred_disabled: false,
            mshr_lines: 4,
            predict_lat: 3,
            tag_lat: 2,
            commit_bw: 1,
            predictor: PredictorConfig::prototype(),
            critpath: false,
            max_frames: geometry.frames,
            tick_mode: TickMode::Fast,
            faults: None,
            check_invariants: false,
        }
    }

    /// Checks that a core built from this cannot panic or wedge later:
    /// a valid geometry (a struct literal skips
    /// [`CoreGeometry::validate`]) and every sized field in range.
    ///
    /// # Errors
    ///
    /// Names the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate().map_err(|e| format!("geometry: {e}"))?;
        let ranges = [
            ("max_frames", self.max_frames, self.geometry.frames), // the GT's allocation bound
            ("opn_networks", self.opn_networks, 32), // the outboxes' grant bits are a `u32`
            ("l1d_ways", self.l1d_ways, 255),        // the LRU counters are `u8`
            ("opn_fifo", self.opn_fifo, usize::MAX),
            ("l1d_sets", self.l1d_sets, usize::MAX),
            ("mshr_lines", self.mshr_lines, usize::MAX),
            ("commit_bw", self.commit_bw, usize::MAX),
            ("deppred_entries", self.deppred_entries, usize::MAX),
        ];
        match ranges.into_iter().find(|&(_, v, max)| !(1..=max).contains(&v)) {
            Some((field, _, usize::MAX)) => Err(format!("{field} must be at least 1")),
            Some((field, v, max)) => Err(format!("{field} {v} outside 1..={max}")),
            None => Ok(()),
        }
    }

    /// The prototype with critical-path recording on (for Table 3).
    pub fn prototype_critpath() -> CoreConfig {
        CoreConfig { critpath: true, ..CoreConfig::prototype() }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper_parameters() {
        let c = CoreConfig::prototype_pinned();
        assert_eq!(c.l1d_sets * c.l1d_ways * 64, 8 * 1024, "8KB L1D bank");
        assert_eq!(c.div_lat, 24);
        assert_eq!(c.deppred_entries, 1024);
        assert_eq!(c.deppred_clear_blocks, 10_000);
        assert_eq!(c.geometry.lsq_depth, 256);
        assert_eq!(c.max_frames, 8);
        assert_eq!(c.predict_lat + c.tag_lat, 5, "front of the 13-cycle fetch pipe");
    }

    #[test]
    fn prototype_geometry_reproduces_the_constants() {
        let g = CoreGeometry::prototype();
        g.validate().unwrap();
        assert_eq!((g.et_rows, g.et_cols), (ET_ROWS, ET_COLS));
        assert_eq!(g.num_rts(), NUM_RTS);
        assert_eq!(g.num_dts(), NUM_DTS);
        assert_eq!(g.num_its(), NUM_ITS);
        assert_eq!(g.frames, NUM_FRAMES);
        assert_eq!(g.rs_per_frame, RS_PER_FRAME);
        assert_eq!((g.mesh_rows(), g.mesh_cols()), (5, 5));
        assert_eq!(g.beats(), 8);
        assert_eq!(g.header_slots_per_beat(), 4);
        assert_eq!(g.slots_per_rt(), 8);
        assert_eq!(g.regs_per_bank(), 32);
        assert_eq!(g.tile_ticks(), 30);
        assert_eq!(g.gcn_len(), 25);
        assert_eq!(g.full_mask(), (1 << 30) - 1);
    }

    #[test]
    fn prototype_placement_matches_the_isa_striping() {
        // The generalized folding must recover `InstSlot::from_index`
        // and `ArchReg::bank` exactly on the prototype — the whole
        // bit-identity argument rests on this.
        let g = CoreGeometry::prototype();
        for idx in 0..128u8 {
            let s = trips_isa::InstSlot::from_index(idx);
            assert_eq!(g.inst_place(idx), (s.et.row, s.et.col, s.slot), "inst {idx}");
        }
        for r in 0..128u8 {
            let a = trips_isa::ArchReg::new(r);
            assert_eq!(g.reg_bank(r), a.bank() as usize, "reg {r}");
            assert_eq!(g.reg_index(r), a.index_in_bank() as usize, "reg {r}");
        }
        for slot in 0..32u8 {
            assert_eq!(g.tile_of_header_slot(slot), TileId::Rt(slot / 8));
        }
    }

    #[test]
    fn every_geometry_folds_a_whole_block() {
        for g in [
            CoreGeometry::mini(),
            CoreGeometry::prototype(),
            CoreGeometry::fat(),
            CoreGeometry::parse("2x4/8").unwrap(),
            CoreGeometry::parse("4x2/8").unwrap(),
            CoreGeometry::parse("8x2/4").unwrap(),
        ] {
            g.validate().unwrap();
            // Placement is a bijection 0..128 → (row, col, slot).
            let mut seen = std::collections::HashSet::new();
            for idx in 0..128u8 {
                let (r, c, s) = g.inst_place(idx);
                assert!((r as usize) < g.et_rows && (c as usize) < g.et_cols);
                assert!((s as usize) < g.rs_per_frame);
                assert!(seen.insert((r, c, s)), "{} double-books {r},{c},{s}", g.name());
            }
            // A header slot's RT owns the registers the ISA lets the
            // slot name (encoding bank slot/8 folds into the RT bank).
            for slot in 0..32u8 {
                let TileId::Rt(rt) = g.tile_of_header_slot(slot) else { panic!() };
                let bank = trips_isa::read_slot_bank(slot);
                for gr in 0..32u8 {
                    let reg = trips_isa::ArchReg::from_bank_index(bank, gr);
                    assert_eq!(g.reg_bank(reg.num()), rt as usize, "{} slot {slot}", g.name());
                }
            }
            // Dispatch beats cover the header slots exactly.
            assert_eq!(g.beats() * g.header_slots_per_beat(), 32);
            assert_eq!(g.beats() * g.et_cols, g.insts_per_row());
        }
    }

    #[test]
    fn shift_folding_equals_the_division_formulas_on_every_legal_die() {
        // The reference is the `/`-`%` arithmetic the helpers were
        // first written in, over every input a `u8` (or a line address)
        // can carry — not only the in-range ones: an out-of-range
        // index must keep folding to the same out-of-range tile.
        let dims = [1usize, 2, 4, 8];
        let mut dies = 0;
        for (et_rows, et_cols) in dims.iter().flat_map(|&r| dims.map(|c| (r, c))) {
            for frames in 1..=MAX_FRAMES {
                let ets = et_rows * et_cols;
                let g = CoreGeometry {
                    et_rows,
                    et_cols,
                    frames,
                    rs_per_frame: 128 / ets.max(4),
                    lsq_depth: 64,
                };
                if g.validate().is_err() {
                    assert!(ets < 4, "{et_rows}x{et_cols}/{frames} must be a legal die");
                    continue;
                }
                dies += 1;
                let ipr = 128 / et_rows;
                let beats = ipr / et_cols;
                let rts = et_cols.min(4);
                assert_eq!(g.insts_per_row(), ipr);
                assert_eq!(g.beats(), beats);
                assert_eq!(g.beats(), g.rs_per_frame);
                assert_eq!(g.header_slots_per_beat(), 32 / beats);
                assert_eq!(g.slots_per_rt(), 32 / rts);
                assert_eq!(g.regs_per_bank(), 128 / rts);
                for v in 0..=u8::MAX {
                    let i = v as usize;
                    let p = i % ipr;
                    let place = ((i / ipr) as u8, (p % et_cols) as u8, (p / et_cols) as u8);
                    assert_eq!(g.inst_place(v), place, "{} inst {v}", g.name());
                    assert_eq!(g.tile_of_inst(v), TileId::Et(place.0, place.1));
                    assert_eq!(g.inst_slot(v), place.2 as usize);
                    assert_eq!(g.tile_of_header_slot(v), TileId::Rt(v / (32 / rts) as u8));
                    assert_eq!(g.dt_of_lsid(v), v % et_rows as u8);
                    assert_eq!(g.reg_bank(v), i / (128 / rts));
                    assert_eq!(g.reg_index(v), i % (128 / rts));
                }
                for line in (0..64u64).chain([u64::MAX >> 6, (u64::MAX >> 6) - 5]) {
                    for ea in [line << 6, (line << 6) | 63] {
                        let dt = ((ea >> 6) % et_rows as u64) as u8;
                        assert_eq!(g.tile_of_addr(ea), TileId::Dt(dt), "{} ea {ea:#x}", g.name());
                    }
                }
            }
        }
        assert_eq!(dies, 13 * MAX_FRAMES, "13 of the 16 power-of-two arrays have ≥4 ETs");
    }

    #[test]
    fn geometry_parser_round_trips_the_blessed_names() {
        for name in ["mini", "prototype", "fat"] {
            assert_eq!(CoreGeometry::parse(name).unwrap().name(), name);
        }
        // A spec spelling out a blessed die's dims/frames canonicalizes
        // to that die — same lsq_depth, round-tripping name() — so
        // TRIPS_GEOMETRY=8x8/16 reproduces the swept fat point whose
        // lsq_depth (512) differs from the linear derivation (1024).
        assert_eq!(CoreGeometry::parse("2x2/4").unwrap(), CoreGeometry::mini());
        assert_eq!(CoreGeometry::parse("4x4/8").unwrap(), CoreGeometry::prototype());
        assert_eq!(CoreGeometry::parse("8x8/16").unwrap(), CoreGeometry::fat());
        assert_eq!(CoreGeometry::parse("8x8/16").unwrap().name(), "fat");
        assert!(CoreGeometry::parse("3x3/8").is_err(), "non-power-of-two dims");
        assert!(CoreGeometry::parse("1x2/8").is_err(), "needs ≥4 ETs");
        assert!(CoreGeometry::parse("4x4/0").is_err(), "zero frames");
        assert!(CoreGeometry::parse("16x16/8").is_err(), "dims capped at 8");
        assert!(CoreGeometry::parse("junk").is_err());
    }

    #[test]
    fn default_backend_is_the_perfect_l2() {
        assert_eq!(
            CoreConfig::prototype_pinned().mem_backend,
            MemBackend::PerfectL2 { latency: 12 },
            "Table 3 isolates core effects behind a 12-cycle perfect L2"
        );
        let MemBackend::Nuca(mc) = MemBackend::nuca_prototype() else {
            panic!("nuca_prototype must select the NUCA system");
        };
        assert_eq!(mc.banks * mc.bank_kb, 1024, "1 MB secondary system");
    }
}
