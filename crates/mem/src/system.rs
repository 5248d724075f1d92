//! The assembled secondary system: NUCA banks on the OCN mesh.
//!
//! The prototype instance is sixteen banks on the 4×10 OCN; an N-core
//! die tiles that block vertically per [`OcnGeometry`].

use trips_isa::mem::SparseMem;
use trips_micronet::{
    Mesh, MeshFaultConfig, MeshMsg, MeshWork, PacketStats, MAX_TAGS, VIRTUAL_CHANNELS,
};

use crate::geometry::{OcnGeometry, BANKS_PER_BLOCK};
use crate::tiles::{MemTile, NetTile, BANK_LAT, LINE};

/// Memory-system organization (§3.6 lists these configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMode {
    /// One 1 MB shared L2 striped over all sixteen banks of each
    /// block.
    L2Shared,
    /// Two independent 512 KB L2s per block, one per processor
    /// (west-side ports use the lower half of their block's banks,
    /// east-side ports the upper half; on the prototype block that is
    /// ports 0–9 vs. 10–19).
    L2Split,
    /// 1 MB of on-chip physical memory: no tags, no misses.
    Scratchpad,
}

/// DRAM access latency through an SDC, in cycles.
pub const DRAM_LAT: u64 = 60;
/// Per-virtual-channel OCN router buffering, in packets.
pub const VC_CAP: usize = 2;
const _: () = assert!(VC_CAP >= 1, "a channel with no buffer never forwards");
const _: () = assert!(VC_CAP <= trips_micronet::FIFO_DEPTH, "the router's FIFO is that deep");

/// The two settings of the secondary system that `memsweep` sweeps;
/// the banks' size and timing are the prototype's constants
/// ([`BANKS_PER_BLOCK`](crate::BANKS_PER_BLOCK), [`BANK_KB`](crate::BANK_KB),
/// [`BANK_WAYS`](crate::BANK_WAYS), [`BANK_LAT`], [`DRAM_LAT`], [`VC_CAP`]).
///
/// Derives `PartialEq`/`Eq` so it can sit inside a core configuration
/// that is itself compared by the equivalence suites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Organization.
    pub mode: MemMode,
    /// Right-shift applied to the line index before bank routing:
    /// 0 stripes consecutive lines across banks (the prototype), `k`
    /// gives each bank runs of `2^k` consecutive lines — coarser
    /// interleavings trade bank-level parallelism for spatial locality
    /// at one bank (the `memsweep` binary sweeps this).
    pub interleave_shift: u32,
}

impl MemConfig {
    /// The prototype: the banks as one shared L2, consecutive lines
    /// striped across them.
    pub fn prototype() -> MemConfig {
        MemConfig { mode: MemMode::L2Shared, interleave_shift: 0 }
    }

    /// Checks that a system built from this cannot panic or silently
    /// misroute later.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.interleave_shift >= u64::BITS {
            return Err(format!("interleave_shift {} outside 0..64", self.interleave_shift));
        }
        Ok(())
    }
}

/// Request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Fetch a 64-byte line.
    ReadLine,
    /// Write a 64-byte line back.
    WriteLine,
    /// Coherent line fetch (MSI GetS): identical to [`ReqKind::ReadLine`]
    /// on the wire and in the bank, but the home bank's directory slice
    /// records the requester as a sharer (and downgrades a remote M
    /// owner to S). Only sent by shared-memory adapters.
    GetS,
    /// Coherent writeback (MSI GetM): identical to
    /// [`ReqKind::WriteLine`] on the wire and in the bank, but the home
    /// directory claims ownership for the requester, invalidates every
    /// other sharer over the OCN, and withholds the write
    /// acknowledgement until every invalidation is acknowledged — so
    /// the ESN store-completion role now spans the whole coherence
    /// transaction.
    GetM,
    /// A client port's acknowledgement of a received invalidation
    /// (one header flit back to the home bank). Processed at the
    /// bank's router on arrival — no service slot, no tag access.
    InvalAck,
}

/// Marker bit for coherence-token ids: invalidations are delivered as
/// unsolicited responses with `id = ID_COH | line`, and their acks echo
/// the same id, so adapters can separate protocol tokens from the
/// request/response ledger.
pub const ID_COH: u64 = 1 << 62;

/// A request from an IT/DT port into the secondary system.
#[derive(Debug, Clone)]
pub struct MemReq {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Line-aligned byte address.
    pub addr: u64,
    /// Kind.
    pub kind: ReqKind,
    /// Line contents for writes.
    pub data: [u8; LINE],
}

impl MemReq {
    /// A line read.
    pub fn read_line(id: u64, addr: u64) -> MemReq {
        MemReq { id, addr: addr & !(LINE as u64 - 1), kind: ReqKind::ReadLine, data: [0; LINE] }
    }

    /// A line writeback.
    pub fn write_line(id: u64, addr: u64, data: [u8; LINE]) -> MemReq {
        MemReq { id, addr: addr & !(LINE as u64 - 1), kind: ReqKind::WriteLine, data }
    }

    /// A coherent read (MSI GetS).
    pub fn get_s(id: u64, addr: u64) -> MemReq {
        MemReq { id, addr: addr & !(LINE as u64 - 1), kind: ReqKind::GetS, data: [0; LINE] }
    }

    /// A coherent writeback (MSI GetM).
    pub fn get_m(id: u64, addr: u64, data: [u8; LINE]) -> MemReq {
        MemReq { id, addr: addr & !(LINE as u64 - 1), kind: ReqKind::GetM, data }
    }

    /// An invalidation acknowledgement for `line` (echoes the
    /// invalidation's `ID_COH | line` id back to the home bank).
    pub fn inval_ack(line: u64) -> MemReq {
        MemReq { id: ID_COH | line, addr: line << 6, kind: ReqKind::InvalAck, data: [0; LINE] }
    }
}

/// A response to a [`MemReq`].
#[derive(Debug, Clone)]
pub struct MemResp {
    /// The request's id.
    pub id: u64,
    /// The request's address.
    pub addr: u64,
    /// Line contents for reads.
    pub data: [u8; LINE],
}

#[derive(Debug, Clone)]
enum Packet {
    Req {
        port: usize,
        req: MemReq,
    },
    Resp {
        port: usize,
        resp: MemResp,
        /// Flit count and virtual channel, kept with the payload so a
        /// refused injection can be retried without re-deriving them
        /// (and without re-running the bank access that produced it).
        flits: u32,
        vc: u8,
    },
}

/// The observable state of one directory line, for the coherence
/// invariant suite and occupancy reports (DESIGN.md §5g).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirView {
    /// The home bank holding this slice entry.
    pub bank: usize,
    /// The 64-byte line index (`addr / 64`).
    pub line: u64,
    /// The port holding M, if any. A nonempty `pending_ports` means
    /// the claim is transient: invalidations are still in flight.
    pub owner_port: Option<u16>,
    /// Ports the directory believes hold S copies. An
    /// over-approximation: L1 banks evict silently, so a listed port
    /// may no longer hold the line — but an unlisted one never does.
    pub sharer_ports: Vec<u16>,
    /// Ports whose invalidation ack is still owed before the deferred
    /// write ack of an in-flight GetM may be released. A victim stays
    /// listed here (it may still hold its copy until the invalidation
    /// reaches it), which is what keeps the inclusion invariant
    /// checkable every tick.
    pub pending_ports: Vec<u16>,
}

/// Aggregate coherence counters (all zero unless the system was built
/// by [`SecondarySystem::for_cores_shared`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohSnapshot {
    /// GetS transactions matured at a directory.
    pub gets: u64,
    /// GetM transactions matured at a directory.
    pub getms: u64,
    /// Invalidations issued by directories.
    pub invals_sent: u64,
    /// Invalidation acks processed by directories.
    pub inval_acks: u64,
    /// GetM transactions whose write ack had to wait for invalidations.
    pub deferred_acks: u64,
    /// Directory entries currently allocated across all slices.
    pub dir_lines: usize,
    /// High-water mark of `dir_lines`.
    pub dir_highwater: usize,
}

/// One line's directory state, co-located with its home bank. Stable
/// states are I (no entry), S (`owner: None`, nonempty sharers), and
/// M (`owner: Some`, `pending` empty); the single transient is the
/// GetM mid-invalidation (`pending` nonempty), during which the write
/// ack is parked in `deferred` (DESIGN.md §5g).
#[derive(Debug, Default)]
struct DirEntry {
    owner: Option<u16>,
    sharers: Vec<u16>,
    /// Victim ports whose invalidation ack has not arrived yet.
    pending: Vec<u16>,
    /// (port, id, addr) of the write ack withheld until the last
    /// invalidation ack arrives.
    deferred: Option<(usize, u64, u64)>,
}

/// The secondary memory system: banks, NTs, the OCN, and the DRAM
/// backing store.
pub struct SecondarySystem {
    cfg: MemConfig,
    /// The floorplan: prototype blocks tiled per the die's core count
    /// (4×10 mesh, 16 banks, 20 ports per block — Figure 6).
    geo: OcnGeometry,
    ocn: Mesh<Packet, VIRTUAL_CHANNELS>,
    banks: Vec<MemTile>,
    nts: Vec<NetTile>,
    backing: SparseMem,
    /// Requests the bank is working on: (ready_at, bank, packet).
    in_bank: Vec<(u64, usize, Packet)>,
    /// Live requests per bank (accepted, response not yet injected).
    in_bank_count: Vec<usize>,
    /// High-water mark of `in_bank_count`, per bank.
    bank_peak: Vec<u64>,
    /// Client tag carried by each port's packets (core attribution in
    /// a multi-core chip; all zero for a single client).
    port_tag: Vec<u8>,
    /// Shared-memory mode: every bank carries a directory slice and
    /// GetS/GetM requests drive the MSI protocol. Off for every system
    /// built by [`SecondarySystem::for_cores`], which keeps the
    /// multiprogrammed path bit-identical.
    coherent: bool,
    /// Per-bank directory slices, keyed by line index. A `BTreeMap` so
    /// iteration (invariant walks, reports) is deterministic.
    dir: Vec<std::collections::BTreeMap<u64, DirEntry>>,
    /// Coherence counters (see [`CohSnapshot`]).
    coh: CohSnapshot,
    /// Coherence tokens (invalidations + acks) currently inside
    /// [`SecondarySystem::in_system`] — they sit outside the
    /// request/response ledger, so conservation audits subtract them.
    coh_in_system: i64,
    /// GetM transactions whose write ack is currently parked at a
    /// directory (no packet anywhere in the system represents them).
    dir_deferred_now: usize,
    /// Total requests accepted.
    pub requests: u64,
    /// Total DRAM accesses.
    pub dram_accesses: u64,
}

impl SecondarySystem {
    /// Builds the prototype-die system: one block, the geometry the
    /// solo `Processor` path and the dual-core chip have always used.
    pub fn new(cfg: MemConfig) -> SecondarySystem {
        SecondarySystem::for_cores(cfg, 2)
    }

    /// Builds the system for an `ncores`-core die: `⌈ncores/2⌉`
    /// prototype blocks tiled vertically, each with its own
    /// [`BANKS_PER_BLOCK`] banks and twenty client ports (see
    /// [`OcnGeometry`]). Every port's routing table stripes over its
    /// **own block's** banks in prototype order, so each block is the
    /// prototype system translated — N=1/2 build exactly the die
    /// [`SecondarySystem::new`] always built.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ncores <= 16` (see
    /// [`OcnGeometry::for_cores`]) and `cfg` passes
    /// [`MemConfig::validate`].
    pub fn for_cores(cfg: MemConfig, ncores: usize) -> SecondarySystem {
        SecondarySystem::build(cfg, ncores, false)
    }

    /// Builds the shared-memory system for an `ncores`-core die: the
    /// same banks and OCN as [`SecondarySystem::for_cores`], but every
    /// port's routing table stripes over **all** of the die's banks
    /// (per-block striping would home the same line at a different
    /// bank per block, so cross-block sharing would never meet at one
    /// directory), and each bank carries an MSI directory slice for
    /// the lines it homes. On a one-block die in `L2Shared` mode the
    /// routing is identical to the multiprogrammed system.
    ///
    /// # Panics
    ///
    /// As [`SecondarySystem::for_cores`].
    pub fn for_cores_shared(cfg: MemConfig, ncores: usize) -> SecondarySystem {
        SecondarySystem::build(cfg, ncores, true)
    }

    fn build(cfg: MemConfig, ncores: usize, coherent: bool) -> SecondarySystem {
        cfg.validate().unwrap_or_else(|e| panic!("invalid MemConfig: {e}"));
        let geo = OcnGeometry::for_cores(ncores);
        let banks: Vec<MemTile> = (0..geo.banks())
            .map(|i| {
                let mut mt = MemTile::new(geo.bank_coord(i));
                mt.scratchpad = cfg.mode == MemMode::Scratchpad;
                mt
            })
            .collect();
        let nts = (0..geo.ports())
            .map(|p| {
                let block = geo.block_banks(geo.port_block(p));
                let table: Vec<usize> = if coherent {
                    // One die-wide stripe: every port homes line L at
                    // the same bank, so each line has exactly one
                    // directory slice.
                    (0..geo.banks()).collect()
                } else {
                    match cfg.mode {
                        MemMode::L2Shared | MemMode::Scratchpad => block.collect(),
                        MemMode::L2Split => {
                            let half = BANKS_PER_BLOCK / 2;
                            if geo.is_west_port(p) {
                                block.take(half).collect()
                            } else {
                                block.skip(half).collect()
                            }
                        }
                    }
                };
                NetTile::new(
                    geo.port_coord(p),
                    table.into_iter().map(|i| geo.bank_coord(i)).collect(),
                )
            })
            .collect();
        SecondarySystem {
            ocn: Mesh::new(geo.rows(), geo.cols(), VC_CAP),
            banks,
            nts,
            backing: SparseMem::new(),
            in_bank: Vec::new(),
            in_bank_count: vec![0; geo.banks()],
            bank_peak: vec![0; geo.banks()],
            port_tag: vec![0; geo.ports()],
            coherent,
            dir: (0..geo.banks()).map(|_| std::collections::BTreeMap::new()).collect(),
            coh: CohSnapshot::default(),
            coh_in_system: 0,
            dir_deferred_now: 0,
            requests: 0,
            dram_accesses: 0,
            cfg,
            geo,
        }
    }

    /// Whether this system runs the MSI directory protocol (built by
    /// [`SecondarySystem::for_cores_shared`]).
    pub fn is_coherent(&self) -> bool {
        self.coherent
    }

    /// Coherence counters and directory occupancy (all zero when the
    /// system is not coherent).
    pub fn coherence(&self) -> CohSnapshot {
        self.coh
    }

    /// Coherence tokens (invalidations and their acks) currently
    /// inside [`SecondarySystem::in_system`]. These packets belong to
    /// no request/response pair, so conservation audits subtract them:
    /// `accepted - delivered == in_system() - coh_tokens_in_system()
    /// + dir_deferred()`.
    pub fn coh_tokens_in_system(&self) -> i64 {
        self.coh_in_system
    }

    /// GetM transactions whose write ack is parked at a directory
    /// awaiting invalidation acks — outstanding to their issuer, but
    /// represented by no packet in the system.
    pub fn dir_deferred(&self) -> usize {
        self.dir_deferred_now
    }

    /// The client tag of `port` (see [`SecondarySystem::set_port_tag`]).
    pub fn port_tag_of(&self, port: usize) -> u8 {
        self.port_tag[port]
    }

    /// Every allocated directory entry, in (bank, line) order — the
    /// raw material of the SWMR and inclusion invariants.
    pub fn dir_views(&self) -> Vec<DirView> {
        self.dir
            .iter()
            .enumerate()
            .flat_map(|(bank, slice)| {
                slice.iter().map(move |(&line, e)| DirView {
                    bank,
                    line,
                    owner_port: e.owner,
                    sharer_ports: e.sharers.clone(),
                    pending_ports: e.pending.clone(),
                })
            })
            .collect()
    }

    /// The die floorplan this system was built for.
    pub fn geometry(&self) -> &OcnGeometry {
        &self.geo
    }

    /// Installs (or clears) a timing-fault configuration on the OCN —
    /// output-port stall bursts and arbitration rotation, as on the
    /// core's operand network (see
    /// [`MeshFaultConfig`](trips_micronet::MeshFaultConfig)).
    pub fn set_ocn_fault(&mut self, cfg: Option<&MeshFaultConfig>) {
        self.ocn.set_fault(cfg);
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Tags every packet of `port` with `tag` (0..[`MAX_TAGS`]) — a
    /// multi-core chip tags each core's ports with the core index so
    /// OCN occupancy and delivery counts attribute per core. Tags are
    /// attribution only and never change routing or arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `port` is beyond the die's ports or
    /// `tag >= MAX_TAGS`.
    pub fn set_port_tag(&mut self, port: usize, tag: u8) {
        assert!((tag as usize) < MAX_TAGS, "tag out of range: {tag}");
        self.port_tag[port] = tag;
    }

    /// The bank a request from `port` to `addr` is homed at — the
    /// routing decision [`SecondarySystem::request`] will make, exposed
    /// so a chip-level arbiter can detect two clients converging on
    /// one bank before either injects.
    pub fn home_bank(&self, port: usize, addr: u64) -> usize {
        let dst = self.nts[port].route((addr / LINE as u64) >> self.cfg.interleave_shift);
        let bank = self.geo.bank_index(dst);
        debug_assert_eq!(self.geo.bank_coord(bank), dst);
        bank
    }

    /// Initializes backing-store contents (DRAM image).
    pub fn write_backing(&mut self, addr: u64, data: &[u8]) {
        self.backing.write_bytes(addr, data);
    }

    /// Reads backing-store contents (for tests).
    pub fn read_backing(&self, addr: u64, out: &mut [u8]) {
        self.backing.read_bytes(addr, out);
    }

    /// Flit count and virtual channel of a request. A line plus
    /// header is five 16-byte flits; requests travel VC0, writes VC1
    /// (separating traffic classes). The coherent kinds ride the same
    /// classes as their plain counterparts; inval acks are a lone
    /// header flit on the request channel.
    fn wire_class(kind: ReqKind) -> (u32, u8) {
        match kind {
            ReqKind::ReadLine | ReqKind::GetS | ReqKind::InvalAck => (1, 0),
            ReqKind::WriteLine | ReqKind::GetM => (5, 1),
        }
    }

    /// True if a request of `kind` at `port` would be accepted this
    /// cycle. A refusal counts as a refused [`SecondarySystem::request`]
    /// (`ocn_stats().inject_fails`), so a client that asks first keeps
    /// its request — line payload and all — in its own queue on the
    /// retry path instead of copying it into a packet to be refused.
    pub fn admit(&mut self, port: usize, kind: ReqKind) -> bool {
        self.ocn.admit(self.geo.port_coord(port), Self::wire_class(kind).1)
    }

    /// Injects a request at client port `port` (0..20). Returns false
    /// if the network refused it this cycle.
    pub fn request(&mut self, now: u64, port: usize, req: MemReq) -> bool {
        if !self.admit(port, req.kind) {
            return false;
        }
        let src = self.geo.port_coord(port);
        let dst = self.nts[port].route((req.addr / LINE as u64) >> self.cfg.interleave_shift);
        let (flits, vc) = Self::wire_class(req.kind);
        if req.kind == ReqKind::InvalAck {
            // A protocol token, not a client transaction: it has
            // no response and stays off the request ledger.
            self.coh_in_system += 1;
        } else {
            self.requests += 1;
        }
        let msg = MeshMsg::packet(src, dst, Packet::Req { port, req }, flits, vc);
        let accepted = self.ocn.inject(now, msg.with_tag(self.port_tag[port]));
        debug_assert!(accepted, "admitted a moment ago");
        true
    }

    /// Pops a response for `port`, if one has arrived by `now`.
    pub fn pop_response(&mut self, now: u64, port: usize) -> Option<MemResp> {
        match self.ocn.eject_at(now, self.geo.port_coord(port)) {
            Some(m) => match m.payload {
                Packet::Resp { resp, .. } => {
                    if resp.id & ID_COH != 0 {
                        // An invalidation leaves the system here; its
                        // ack re-enters via `request`.
                        self.coh_in_system -= 1;
                    }
                    Some(resp)
                }
                Packet::Req { .. } => unreachable!("request delivered to a client port"),
            },
            None => None,
        }
    }

    /// Whether any OCN eject queue (client port or bank) holds a packet;
    /// if not, no [`SecondarySystem::pop_response`] returns one.
    pub fn responses_waiting(&self) -> bool {
        self.ocn.undrained() > 0
    }

    /// Whether `port`'s eject queue holds a packet (its tail may still
    /// be arriving); if not, `pop_response` at `port` returns `None`.
    #[inline]
    pub fn has_response(&self, port: usize) -> bool {
        self.ocn.has_delivered(self.geo.port_coord(port))
    }

    /// Requests currently inside the system: OCN router queues,
    /// undrained eject queues, and bank service slots. Every accepted
    /// request is exactly one packet somewhere (the request on its way
    /// in, the bank access, or the response on its way out), so
    /// `accepted - delivered == in_system` at every tick boundary —
    /// the request/response conservation invariant the fuzzing harness
    /// checks. In a coherent system the equation gains two terms:
    /// invalidations and their acks are packets outside the ledger
    /// ([`SecondarySystem::coh_tokens_in_system`]) and a deferred
    /// write ack is a ledgered transaction with no packet
    /// ([`SecondarySystem::dir_deferred`]), giving
    /// `accepted - delivered ==
    ///  in_system - coh_tokens_in_system + dir_deferred`.
    pub fn in_system(&self) -> usize {
        self.ocn.in_flight() + self.ocn.undrained() + self.in_bank.len()
    }

    /// Cycle of the next state change inside the secondary system, for
    /// the epoch-skipping scheduler. While any packet is in an OCN
    /// router or an undrained eject queue the system must tick every
    /// cycle (`Some(now)`); with the network empty the only future
    /// work is bank service slots maturing, so the answer is the
    /// earliest `ready` among them (clamped to `now` for any already
    /// due). `None` means the system is quiescent and cannot act until
    /// a new request is injected.
    ///
    /// Bank MSHR fill times need no entry of their own:
    /// [`MemTile::mshr_fill`] is lazy — it completes any fill due by
    /// `now` — and [`SecondarySystem::tick`] calls it before every
    /// look at a bank's tags or MSHR (a request arriving, a write
    /// installing), so a fill is in place by the time anything can
    /// tell, however many cycles were skipped since it came due.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.ocn.in_flight() > 0 || self.ocn.undrained() > 0 {
            return Some(now);
        }
        self.in_bank.iter().map(|&(ready, _, _)| ready.max(now)).min()
    }

    /// OCN aggregate statistics (hops, queueing, inject stalls).
    pub fn ocn_stats(&self) -> PacketStats {
        self.ocn.stats
    }

    /// The OCN's deterministic cost counters — ticks, routers
    /// arbitrated, queue heads routed (see [`MeshWork`]). They
    /// repeat exactly for a given request pattern, so a test can gate
    /// "the network did work proportional to its traffic" as it gates
    /// cycle counts.
    pub fn ocn_work(&self) -> MeshWork {
        self.ocn.work()
    }

    /// Per-tag OCN in-flight high-water marks (see [`set_port_tag`]).
    ///
    /// [`set_port_tag`]: SecondarySystem::set_port_tag
    pub fn ocn_tag_highwater(&self) -> [usize; MAX_TAGS] {
        self.ocn.tag_highwater()
    }

    /// Per-tag OCN (injected, ejected) packet counts.
    pub fn ocn_tag_counts(&self) -> [(u64, u64); MAX_TAGS] {
        self.ocn.tag_counts()
    }

    /// Per-bank high-water marks of concurrently-serviced requests.
    pub fn bank_peaks(&self) -> &[u64] {
        &self.bank_peak
    }

    /// OCN conservation audit (see
    /// [`Mesh::audit`](trips_micronet::Mesh::audit)).
    ///
    /// # Errors
    ///
    /// A description of the first violated accounting equation.
    pub fn audit(&self) -> Result<(), String> {
        self.ocn.audit()
    }

    /// One cycle: move the network, run the banks.
    pub fn tick(&mut self, now: u64) {
        // Nothing can arrive at a bank unless some router holds a
        // delivered packet. A bank this passes over may have a DRAM
        // fill due; `mshr_fill` is lazy, and both places that look at
        // a bank's tags or MSHR settle it first, so the fill still
        // lands before anything can observe the bank.
        if self.ocn.undrained() > 0 {
            self.accept_at_banks(now);
        }
        self.finish_bank_accesses(now);
        self.ocn.tick(now);
    }

    /// Bank-side: accepts the packet (at most one per cycle) that has
    /// arrived at each bank's router (skipping routers with nothing
    /// delivered, where the pop would find nothing).
    fn accept_at_banks(&mut self, now: u64) {
        for (bi, bank) in self.banks.iter_mut().enumerate() {
            if !self.ocn.has_delivered(bank.coord) {
                continue;
            }
            if let Some(m) = self.ocn.eject_at(now, bank.coord) {
                match m.payload {
                    Packet::Req { port, req } if req.kind == ReqKind::InvalAck => {
                        // Processed on arrival: no service slot, no tag
                        // access — the ack only moves directory state.
                        self.coh_in_system -= 1;
                        self.coh.inval_acks += 1;
                        let line = req.addr / LINE as u64;
                        if let Some(e) = self.dir[bi].get_mut(&line) {
                            e.pending.retain(|&p| p != port as u16);
                            if e.pending.is_empty() {
                                if let Some((p, id, addr)) = e.deferred.take() {
                                    // Every sharer is gone: release the
                                    // writer's deferred ESN write ack.
                                    self.dir_deferred_now -= 1;
                                    let resp = MemResp { id, addr, data: [0; LINE] };
                                    self.in_bank.push((
                                        now,
                                        bi,
                                        Packet::Resp { port: p, resp, flits: 1, vc: 2 },
                                    ));
                                    self.in_bank_count[bi] += 1;
                                    self.bank_peak[bi] =
                                        self.bank_peak[bi].max(self.in_bank_count[bi] as u64);
                                }
                            }
                        }
                    }
                    Packet::Req { port, req } => {
                        let line = req.addr / LINE as u64;
                        bank.mshr_fill(now);
                        let ready = if bank.present(line) {
                            bank.hits += 1;
                            now + BANK_LAT
                        } else if bank.mshr_free(now) {
                            bank.misses += 1;
                            self.dram_accesses += 1;
                            bank.mshr_alloc(line, now + DRAM_LAT);
                            now + DRAM_LAT + BANK_LAT
                        } else {
                            // Single-entry MSHR busy: serialize behind
                            // the outstanding fill.
                            bank.misses += 1;
                            self.dram_accesses += 1;
                            now + 2 * DRAM_LAT + BANK_LAT
                        };
                        self.in_bank.push((ready, bi, Packet::Req { port, req }));
                        self.in_bank_count[bi] += 1;
                        self.bank_peak[bi] = self.bank_peak[bi].max(self.in_bank_count[bi] as u64);
                    }
                    Packet::Resp { .. } => unreachable!("response delivered to a bank"),
                }
            }
        }
    }

    /// Finishes matured bank accesses and sends their responses. The
    /// bank access runs exactly once; a response the network refuses
    /// is retried as a ready-made `Resp` packet, so a congested OCN
    /// delays an acknowledgement but can never drop it or repeat the
    /// access.
    fn finish_bank_accesses(&mut self, now: u64) {
        let mut k = 0;
        while k < self.in_bank.len() {
            if self.in_bank[k].0 <= now {
                let (_, bi, pkt) = self.in_bank.swap_remove(k);
                // A directory line mid-invalidation admits no new
                // coherent transaction: retry the matured request next
                // cycle (the pending acks resolve at the router accept
                // path, never here, so this cannot deadlock).
                if let Packet::Req { req, .. } = &pkt {
                    if matches!(req.kind, ReqKind::GetS | ReqKind::GetM) {
                        let line = req.addr / LINE as u64;
                        if self.dir[bi].get(&line).is_some_and(|e| !e.pending.is_empty()) {
                            self.in_bank.push((now + 1, bi, pkt));
                            continue;
                        }
                    }
                }
                let (port, resp, flits, vc) = match pkt {
                    Packet::Req { port, req } => match req.kind {
                        ReqKind::WriteLine | ReqKind::GetM => {
                            self.backing.write_bytes(req.addr, &req.data);
                            // A due fill installs first: `install`
                            // advances the set's replacement pointer,
                            // so the order of the two is visible.
                            self.banks[bi].mshr_fill(now);
                            self.banks[bi].install(req.addr / LINE as u64);
                            if req.kind == ReqKind::GetM && self.dir_getm(now, bi, port, &req) {
                                // The ack is parked behind invalidations;
                                // the GetM's own service slot ends here.
                                self.in_bank_count[bi] = self.in_bank_count[bi].saturating_sub(1);
                                continue;
                            }
                            // Writes are acknowledged with a header flit.
                            let resp = MemResp { id: req.id, addr: req.addr, data: [0; LINE] };
                            (port, resp, 1, 2)
                        }
                        ReqKind::ReadLine | ReqKind::GetS => {
                            if req.kind == ReqKind::GetS {
                                self.dir_gets(bi, port, req.addr / LINE as u64);
                            }
                            let mut data = [0u8; LINE];
                            self.backing.read_bytes(req.addr, &mut data);
                            // A full line back: five flits on VC2/3.
                            (port, MemResp { id: req.id, addr: req.addr, data }, 5, 3)
                        }
                        ReqKind::InvalAck => unreachable!("acks are consumed at the router"),
                    },
                    Packet::Resp { port, resp, flits, vc } => (port, resp, flits, vc),
                };
                let pkt = Packet::Resp { port, resp, flits, vc };
                let src = self.banks[bi].coord;
                if self.ocn.admit(src, vc) {
                    let dst = self.geo.port_coord(port);
                    let msg = MeshMsg::packet(src, dst, pkt, flits, vc);
                    let accepted = self.ocn.inject(now, msg.with_tag(self.port_tag[port]));
                    debug_assert!(accepted, "admitted a moment ago");
                    self.in_bank_count[bi] = self.in_bank_count[bi].saturating_sub(1);
                } else {
                    // Retry next cycle without repeating the access.
                    self.in_bank.push((now + 1, bi, pkt));
                }
            } else {
                k += 1;
            }
        }
    }

    /// GetS directory action at the home bank: record `port` as a
    /// sharer, downgrading a remote M owner to S (the old owner keeps
    /// its copy — the value plane is core-side, so there is no dirty
    /// data to fetch, see DESIGN.md §5g).
    fn dir_gets(&mut self, bi: usize, port: usize, line: u64) {
        self.coh.gets += 1;
        let me = port as u16;
        let e = self.dir_entry(bi, line);
        if let Some(o) = e.owner {
            if o != me {
                e.owner = None;
                if !e.sharers.contains(&o) {
                    e.sharers.push(o);
                }
            }
        }
        if e.owner != Some(me) && !e.sharers.contains(&me) {
            e.sharers.push(me);
        }
    }

    /// GetM directory action at the home bank: claim ownership for
    /// `port` and invalidate every other holder. Returns true when the
    /// write ack was parked behind the invalidations (their acks will
    /// release it at the router accept path).
    fn dir_getm(&mut self, now: u64, bi: usize, port: usize, req: &MemReq) -> bool {
        let line = req.addr / LINE as u64;
        self.coh.getms += 1;
        let me = port as u16;
        let e = self.dir_entry(bi, line);
        let mut victims = std::mem::take(&mut e.sharers);
        victims.retain(|&p| p != me);
        if let Some(o) = e.owner {
            if o != me && !victims.contains(&o) {
                victims.push(o);
            }
        }
        e.owner = Some(me);
        if victims.is_empty() {
            return false;
        }
        e.pending.clone_from(&victims);
        e.deferred = Some((port, req.id, req.addr));
        self.coh.deferred_acks += 1;
        self.dir_deferred_now += 1;
        for v in victims {
            self.coh.invals_sent += 1;
            self.coh_in_system += 1;
            let resp = MemResp { id: ID_COH | line, addr: req.addr, data: [0; LINE] };
            self.in_bank.push((now, bi, Packet::Resp { port: v as usize, resp, flits: 1, vc: 2 }));
            self.in_bank_count[bi] += 1;
            self.bank_peak[bi] = self.bank_peak[bi].max(self.in_bank_count[bi] as u64);
        }
        true
    }

    /// The directory entry of `line` at bank `bi`, allocated on first
    /// touch. Entries are never freed, so the running line count (and
    /// its high-water mark) moves only here.
    fn dir_entry(&mut self, bi: usize, line: u64) -> &mut DirEntry {
        self.dir[bi].entry(line).or_insert_with(|| {
            self.coh.dir_lines += 1;
            self.coh.dir_highwater = self.coh.dir_highwater.max(self.coh.dir_lines);
            DirEntry::default()
        })
    }

    /// Aggregate hit rate across banks.
    pub fn hit_rate(&self) -> f64 {
        let hits: u64 = self.banks.iter().map(|b| b.hits).sum();
        let misses: u64 = self.banks.iter().map(|b| b.misses).sum();
        if hits + misses == 0 {
            return 1.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Per-bank (hits, misses), for NUCA distribution checks.
    pub fn bank_stats(&self) -> Vec<(u64, u64)> {
        self.banks.iter().map(|b| (b.hits, b.misses)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_resp(
        l2: &mut SecondarySystem,
        port: usize,
        start: u64,
        limit: u64,
    ) -> (MemResp, u64) {
        let mut t = start;
        loop {
            l2.tick(t);
            t += 1;
            if let Some(r) = l2.pop_response(t, port) {
                return (r, t - start);
            }
            assert!(t < start + limit, "no response within {limit}");
        }
    }

    #[test]
    fn read_misses_then_hits() {
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        l2.write_backing(0x1000, &[0xab; 64]);
        l2.request(0, 0, MemReq::read_line(1, 0x1000));
        let (r1, lat1) = run_until_resp(&mut l2, 0, 0, 1000);
        assert_eq!(r1.data[0], 0xab);
        assert!(lat1 > DRAM_LAT, "first touch goes to DRAM: {lat1}");
        let t0 = 2000;
        l2.request(t0, 0, MemReq::read_line(2, 0x1000));
        let (_, lat2) = run_until_resp(&mut l2, 0, t0, 1000);
        assert!(lat2 < lat1, "second touch hits in the bank: {lat2} vs {lat1}");
    }

    #[test]
    fn writeback_then_read_roundtrip() {
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        let mut line = [0u8; 64];
        line[7] = 99;
        l2.request(0, 3, MemReq::write_line(5, 0x2040, line));
        let (ack, _) = run_until_resp(&mut l2, 3, 0, 1000);
        assert_eq!(ack.id, 5);
        l2.request(500, 3, MemReq::read_line(6, 0x2040));
        let (r, _) = run_until_resp(&mut l2, 3, 500, 1000);
        assert_eq!(r.data[7], 99);
    }

    #[test]
    fn nuca_latency_depends_on_bank_distance() {
        // Two lines homed at different banks see different round-trip
        // latencies from the same port — the static-NUCA property.
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        // Warm both lines.
        l2.request(0, 0, MemReq::read_line(1, 0)); // line 0 -> bank 0 (near row 0)
        run_until_resp(&mut l2, 0, 0, 1000);
        l2.request(2000, 0, MemReq::read_line(2, 7 * 64)); // line 7 -> bank 7 (far row)
        run_until_resp(&mut l2, 0, 2000, 1000);
        let (_, near) = {
            l2.request(4000, 0, MemReq::read_line(3, 0));
            run_until_resp(&mut l2, 0, 4000, 1000)
        };
        let (_, far) = {
            l2.request(6000, 0, MemReq::read_line(4, 7 * 64));
            run_until_resp(&mut l2, 0, 6000, 1000)
        };
        assert!(far > near, "far bank must cost more hops: near={near} far={far}");
    }

    #[test]
    fn split_mode_partitions_banks() {
        let cfg = MemConfig { mode: MemMode::L2Split, ..MemConfig::prototype() };
        let mut l2 = SecondarySystem::new(cfg);
        // Port 0 (processor 0) and port 10 (processor 1) read the same
        // line; it must land in different halves.
        l2.request(0, 0, MemReq::read_line(1, 0x8000));
        run_until_resp(&mut l2, 0, 0, 1000);
        l2.request(3000, 10, MemReq::read_line(2, 0x8000));
        run_until_resp(&mut l2, 10, 3000, 1000);
        let stats = l2.bank_stats();
        let top: u64 = stats[..8].iter().map(|s| s.0 + s.1).sum();
        let bottom: u64 = stats[8..].iter().map(|s| s.0 + s.1).sum();
        assert!(top > 0 && bottom > 0, "both halves served their processor");
    }

    #[test]
    fn scratchpad_never_misses() {
        let cfg = MemConfig { mode: MemMode::Scratchpad, ..MemConfig::prototype() };
        let mut l2 = SecondarySystem::new(cfg);
        for i in 0..8u64 {
            let t = i * 500;
            l2.request(t, 0, MemReq::read_line(i, i * 64 * 131));
            run_until_resp(&mut l2, 0, t, 400);
        }
        assert_eq!(l2.dram_accesses, 0);
        assert_eq!(l2.hit_rate(), 1.0);
    }

    #[test]
    fn two_ports_hammering_one_bank_see_bounded_waits() {
        // Starvation check: two clients on opposite edge columns keep
        // one outstanding read each to the *same* line — every access
        // serializes at one bank. The OCN's round-robin arbitration
        // must keep both making progress with a bounded round trip.
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        l2.write_backing(0x3000, &[1; 64]);
        let ports = [2usize, 13usize];
        assert_eq!(
            l2.home_bank(ports[0], 0x3000),
            l2.home_bank(ports[1], 0x3000),
            "both clients must be homed at the same bank for this test"
        );
        const ROUNDS: usize = 50;
        // Generous bound: a DRAM miss plus worst-case OCN queueing is
        // well under this; an unfair arbiter that parks one client
        // behind the other's stream blows through it.
        const MAX_WAIT: u64 = 1500;
        let mut issued_at = [0u64, 0];
        let mut pending = [false; 2];
        let mut done = [0usize; 2];
        let mut worst = [0u64; 2];
        let mut id = 0u64;
        let mut t = 0u64;
        while done.iter().any(|&d| d < ROUNDS) {
            for (c, &port) in ports.iter().enumerate() {
                if !pending[c] && done[c] < ROUNDS {
                    id += 1;
                    if l2.request(t, port, MemReq::read_line(id, 0x3000)) {
                        pending[c] = true;
                        issued_at[c] = t;
                    }
                }
            }
            l2.tick(t);
            t += 1;
            for (c, &port) in ports.iter().enumerate() {
                if pending[c] && l2.pop_response(t, port).is_some() {
                    pending[c] = false;
                    done[c] += 1;
                    worst[c] = worst[c].max(t - issued_at[c]);
                }
                if pending[c] {
                    assert!(
                        t - issued_at[c] < MAX_WAIT,
                        "port {port} starved: outstanding {} cycles (done {done:?})",
                        t - issued_at[c]
                    );
                }
            }
        }
        assert_eq!(done, [ROUNDS; 2]);
        for (c, &port) in ports.iter().enumerate() {
            assert!(worst[c] < MAX_WAIT, "port {port} worst wait {} >= {MAX_WAIT}", worst[c]);
        }
    }

    #[test]
    fn conservation_holds_under_concurrent_clients() {
        // Ten clients issue interleaved reads and writes while the
        // accounting equation `accepted - delivered == in_system` and
        // the OCN's own audit are checked at every tick boundary.
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        let ports: Vec<usize> = (0..20).step_by(2).collect();
        let mut accepted = 0u64;
        let mut delivered = 0u64;
        let mut id = 0u64;
        let mut t = 0u64;
        while t < 2000 || accepted != delivered {
            assert!(t < 100_000, "drain did not converge: {accepted} accepted, {delivered} out");
            if t < 2000 {
                for (c, &port) in ports.iter().enumerate() {
                    if t % 3 != c as u64 % 3 {
                        continue; // stagger issue so ports overlap, not lockstep
                    }
                    id += 1;
                    let addr = (id * 64) % 0x8000;
                    let req = if id.is_multiple_of(4) {
                        MemReq::write_line(id, addr, [id as u8; 64])
                    } else {
                        MemReq::read_line(id, addr)
                    };
                    if l2.request(t, port, req) {
                        accepted += 1;
                    }
                }
            }
            l2.tick(t);
            for &port in &ports {
                while l2.pop_response(t + 1, port).is_some() {
                    delivered += 1;
                }
            }
            assert_eq!(
                accepted - delivered,
                l2.in_system() as u64,
                "conservation broken at cycle {t}"
            );
            l2.audit().unwrap_or_else(|e| panic!("OCN audit failed at cycle {t}: {e}"));
            t += 1;
        }
        assert!(accepted > 1000, "the sweep must actually exercise concurrency: {accepted}");
        assert_eq!(accepted, delivered, "every accepted request must drain by the end");
        assert_eq!(l2.in_system(), 0);
    }

    #[test]
    fn many_ports_hammering_one_bank_on_a_sixteen_core_die_see_bounded_waits() {
        // The widest die (8 stacked blocks, 160 ports): N clients
        // spread over block 0's west and east edges keep one
        // outstanding read each to the same line, so every access
        // serializes at one bank. Round-robin OCN arbitration must
        // keep all of them progressing with waits that grow no worse
        // than linearly in the client count — and the traffic must
        // stay confined to the block that owns the bank.
        for n in [4usize, 8, 16] {
            let mut l2 = SecondarySystem::for_cores(MemConfig::prototype(), 16);
            let west = l2.geometry().west_ports();
            l2.write_backing(0x3000, &[1; 64]);
            let ports: Vec<usize> = (0..n / 2).flat_map(|i| [i, west + i]).collect();
            let home = l2.home_bank(ports[0], 0x3000);
            for &p in &ports {
                assert_eq!(l2.home_bank(p, 0x3000), home, "port {p} homed elsewhere");
            }
            const ROUNDS: usize = 20;
            let max_wait: u64 = 1000 + 300 * n as u64;
            let mut issued_at = vec![0u64; n];
            let mut pending = vec![false; n];
            let mut done = vec![0usize; n];
            let mut id = 0u64;
            let mut t = 0u64;
            while done.iter().any(|&d| d < ROUNDS) {
                for (c, &port) in ports.iter().enumerate() {
                    if !pending[c] && done[c] < ROUNDS {
                        id += 1;
                        if l2.request(t, port, MemReq::read_line(id, 0x3000)) {
                            pending[c] = true;
                            issued_at[c] = t;
                        }
                    }
                }
                l2.tick(t);
                t += 1;
                for (c, &port) in ports.iter().enumerate() {
                    if pending[c] && l2.pop_response(t, port).is_some() {
                        pending[c] = false;
                        done[c] += 1;
                    }
                    if pending[c] {
                        assert!(
                            t - issued_at[c] < max_wait,
                            "port {port} starved among {n} clients: outstanding {} cycles",
                            t - issued_at[c]
                        );
                    }
                }
            }
            let banks_per_block = l2.geometry().banks() / l2.geometry().blocks();
            for (b, (h, m)) in l2.bank_stats().iter().enumerate() {
                if b >= banks_per_block {
                    assert_eq!((*h, *m), (0, 0), "bank {b} outside block 0 saw traffic");
                }
            }
        }
    }

    #[test]
    fn ocn_work_follows_the_packets_in_flight() {
        use trips_micronet::{Coord, FaultPort, PortStall};
        // One read outstanding at a time: at most one packet is ever
        // in the network (the request, then its response), so a tick
        // may arbitrate at most one router — plus, with a fault plan
        // installed, the routers that carry a stall.
        for bearing in [0u64, 2] {
            let mut l2 = SecondarySystem::new(MemConfig::prototype());
            if bearing > 0 {
                let stall = |row, col, port| PortStall {
                    router: Coord { row, col },
                    port,
                    num: 1,
                    den: 3,
                    max_burst: 4,
                };
                l2.set_ocn_fault(Some(&MeshFaultConfig {
                    seed: 5,
                    rotate_arbitration: false,
                    stalls: vec![stall(0, 1, FaultPort::North), stall(9, 3, FaultPort::Eject)],
                }));
            }
            let mut t = 0;
            for i in 0..40u64 {
                assert!(l2.request(t, (i % 20) as usize, MemReq::read_line(i, i * 64 * 37)));
                t += run_until_resp(&mut l2, (i % 20) as usize, t, 1000).1;
            }
            let busy = l2.ocn_work();
            assert!(busy.router_visits > 0 && busy.queue_probes > 0);
            assert!(
                busy.router_visits <= busy.ticks * (1 + bearing),
                "{bearing} fault-bearing routers: {busy:?}"
            );
            assert!(busy.queue_probes <= busy.ticks, "one head per in-flight packet: {busy:?}");
            // An idle system ticks without visiting anything.
            for _ in 0..100 {
                l2.tick(t);
                t += 1;
            }
            let idle = l2.ocn_work();
            assert_eq!(idle.ticks, busy.ticks + 100);
            assert_eq!(
                (idle.router_visits, idle.queue_probes),
                (busy.router_visits, busy.queue_probes)
            );
        }
    }

    #[test]
    fn shared_mode_stripes_across_banks() {
        let mut l2 = SecondarySystem::new(MemConfig::prototype());
        for i in 0..32u64 {
            let t = i * 500;
            l2.request(t, 0, MemReq::read_line(i, i * 64));
            run_until_resp(&mut l2, 0, t, 400);
        }
        let used = l2.bank_stats().iter().filter(|(h, m)| h + m > 0).count();
        assert_eq!(used, 16, "consecutive lines stripe across all banks");
    }
}
