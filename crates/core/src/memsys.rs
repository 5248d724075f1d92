//! The pluggable secondary memory system behind the L1 banks.
//!
//! [`MemSys`] is the core-side adapter for
//! [`CoreConfig::mem_backend`](crate::CoreConfig): the perfect-L2
//! variant answers every fill after a flat latency and holds no state
//! at all, while the NUCA variant is a client of a
//! [`trips_mem::SecondarySystem`] and carries DT MSHR fills, IT
//! I-cache refills, and commit-time store writebacks as [`MemReq`]
//! packets over the 4×10 OCN.
//!
//! The backend is **timing-only**: load values are read from the
//! core's memory image at execute time (with LSQ forwarding overlaid),
//! and committed stores write that image directly, so the secondary
//! system only decides *when* a fill completes or a store-commit
//! acknowledgement returns — never what a load observes. That is the
//! same timing/data split the NUCA model itself uses (banks hold tags
//! only), and it is why the two backends are architecturally
//! interchangeable (see DESIGN.md §5d for the determinism argument).
//!
//! Per client (each DT and each IT owns one OCN port) the adapter
//! keeps a FIFO of requests the network has not yet accepted and a
//! FIFO of completions the tile has not yet consumed, supporting any
//! number of outstanding requests per client. Arbitration is
//! deterministic: pending queues are drained in fixed client order
//! every tick, and the OCN itself resolves contention with its own
//! deterministic round-robin.
//!
//! ## One owner for the NUCA
//!
//! The prototype chip has **two** cores on the same secondary system
//! (§2), so an [`Adapter`] holds only a core's client-side state, bound
//! to its [`PortMap`] slice of the die's OCN client ports (computed
//! from [`OcnGeometry`] for any 1..=16-core die). The
//! [`SecondarySystem`] itself has one owner, [`Nuca`], which also holds
//! the round-robin [`BankArb`] between cores that converge on one bank
//! and runs the one memory phase — inject → `SecondarySystem::tick` →
//! drain — for all of its cores. A [`Chip`](crate::chip::Chip) holds
//! one for its *n* cores; a solo NUCA [`Processor`] holds one for
//! itself, *n* = 1, whose lone core never loses an arbitration.
//!
//! [`Processor`]: crate::Processor

use std::collections::VecDeque;

use trips_mem::{MemConfig, MemReq, OcnGeometry, SecondarySystem, ID_COH, PERFECT_L2_LAT};
use trips_micronet::{WakePort, WakeTable};

use crate::config::{CoreConfig, CoreGeometry, MemBackend};
use crate::msg::TileId;
use crate::proc::Processor;
use crate::stats::MemSysStats;
use crate::trace::{TraceKind, Tracer};

/// Clients of the secondary system, in deterministic arbitration
/// order: the DTs, then the ITs (the prototype's four-then-five).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemClient {
    /// Data tile (geometry-sized column; `0..4` on the prototype).
    Dt(u8),
    /// Instruction tile (`0..5` on the prototype).
    It(u8),
}

impl MemClient {
    /// Flat client index: DTs first, then ITs. The split point is the
    /// geometry's DT count, so every geometry keeps the prototype's
    /// deterministic arbitration order over its own prefix.
    fn index(self, num_dts: usize) -> usize {
        match self {
            MemClient::Dt(d) => d as usize,
            MemClient::It(i) => num_dts + i as usize,
        }
    }
}

/// A core's slice of the secondary system: which OCN client ports its
/// DTs and ITs drive, and the physical-address offset that keeps its
/// lines from aliasing another core's in the shared bank tags.
///
/// The prototype gives each L1 bank a private OCN link (§3.6): core 0
/// drives DTs on west ports 0..4 and ITs on east ports 10..15, core 1
/// takes the remaining ports of the block. Dies beyond two cores tile
/// that block per [`OcnGeometry`], so every slot's map is a
/// whole-block translation of one of the two prototype slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortMap {
    /// First OCN port of the DT clients.
    dt_base: usize,
    /// First OCN port of the IT clients.
    it_base: usize,
    /// Added to every request address: cores run disjoint address
    /// spaces (no coherence in the model), so their lines must not
    /// alias in the shared bank tags. Zero for core 0. The
    /// offset is a multiple of 2^40, invisible to bank striping and
    /// set indexing (both divide 2^34 line indices by small powers of
    /// two), so it shifts *which* tags a core occupies, never *where*
    /// its lines are homed.
    phys_base: u64,
    /// The die block this core lives in — its bank-stat slice of the
    /// shared system (block-local, so a core of any die reports the
    /// same 16-bank vectors a solo run does).
    block: usize,
}

impl PortMap {
    /// The mapping for core `k` of an `ncores`-core die, computed
    /// from [`OcnGeometry`]. A solo core is `for_core(0, 1)`, the
    /// same ports as slot 0 of the prototype die; `trips_mem`'s
    /// geometry tests pin both prototype slots against the hand maps
    /// this computation replaced.
    pub(crate) fn for_core(k: usize, ncores: usize) -> PortMap {
        assert!(k < ncores, "core {k} of an {ncores}-core die");
        let geo = OcnGeometry::for_cores(ncores);
        PortMap {
            dt_base: geo.core_dt_base(k),
            it_base: geo.core_it_base(k),
            phys_base: (k as u64) << 40,
            block: geo.core_block(k),
        }
    }

    /// The shared-memory mapping for core `k`: the same port slice as
    /// [`PortMap::for_core`], but `phys_base = 0` — every core names
    /// the **same** physical lines, which is the whole point of the
    /// coherent mode (the directory, not address disjointness, keeps
    /// the bank tags honest).
    pub(crate) fn for_core_shared(k: usize, ncores: usize) -> PortMap {
        PortMap { phys_base: 0, ..PortMap::for_core(k, ncores) }
    }

    fn port_of(&self, c: usize, num_dts: usize) -> usize {
        if c < num_dts {
            self.dt_base + c
        } else {
            self.it_base + (c - num_dts)
        }
    }

    /// All OCN ports this map drives, for tagging. A lone core owns
    /// the whole block, which every supported geometry fits
    /// (`num_dts ≤ 8`, `num_its ≤ 9`, ten ports a side); a chip slot
    /// may own only five a side, which `ChipConfig::validate` checks.
    pub(crate) fn ports(&self, geom: CoreGeometry) -> impl Iterator<Item = usize> + '_ {
        let num_dts = geom.num_dts();
        (0..num_dts + geom.num_its()).map(move |c| self.port_of(c, num_dts))
    }
}

/// Request-id bit marking a line fill; store writebacks carry the
/// committing frame index instead, so a response is self-describing.
/// Fill ids also carry the **core-local** line index, so completions
/// are recovered from the id and never from the (possibly
/// `phys_base`-offset) address.
const ID_FILL: u64 = 1 << 63;

/// A completion delivered back to a client tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemEvent {
    /// A requested line arrived (fill the MSHR / refill chunk).
    Fill {
        /// The 64-byte line index (`addr >> 6`).
        line: u64,
    },
    /// A commit-time store writeback was acknowledged (the ESN's role
    /// in the hardware: L2-side store completion feeding commit).
    StoreAck {
        /// The committing frame the writeback belonged to.
        frame: u8,
    },
}

/// How a fill request will complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillPath {
    /// Perfect backend: the fill completes at this cycle.
    At(u64),
    /// NUCA backend: the fill completes via a later
    /// [`MemEvent::Fill`].
    Queued,
}

/// Per-cycle round-robin arbitration between cores converging on one
/// NUCA bank: within a core the fixed client order stands (so a lone
/// core is never restricted), but across cores each bank admits
/// injections from only one core per cycle. The winning order rotates
/// every cycle, bounding any core's wait for a contested bank to
/// `ncores - 1` cycles — the starvation-freedom the arbitration tests
/// pin.
pub(crate) struct BankArb {
    /// Which core (if any) holds each bank this cycle.
    granted: Vec<Option<u8>>,
    /// Cumulative cross-core conflict stalls per bank.
    pub(crate) conflict_stalls: Vec<u64>,
}

impl BankArb {
    pub(crate) fn new(banks: usize) -> BankArb {
        BankArb { granted: vec![None; banks], conflict_stalls: vec![0; banks] }
    }

    /// Clears the per-cycle grants (call once per chip cycle).
    pub(crate) fn begin_cycle(&mut self) {
        self.granted.fill(None);
    }

    /// Whether `core` may inject to `bank` this cycle; a grant holds
    /// the bank for that core for the rest of the cycle. A refusal is
    /// recorded as a conflict stall against the bank.
    fn try_grant(&mut self, bank: usize, core: u8) -> bool {
        match self.granted[bank] {
            None => {
                self.granted[bank] = Some(core);
                true
            }
            Some(owner) if owner == core => true,
            Some(_) => {
                self.conflict_stalls[bank] += 1;
                false
            }
        }
    }
}

/// One FIFO per client and their total occupancy `len`, kept by `push`
/// and `pop` (the only mutators) and recounted by `audit`.
struct ClientQueues<T> {
    queues: Vec<VecDeque<T>>,
    len: u64,
}

impl<T> ClientQueues<T> {
    fn new(clients: usize) -> ClientQueues<T> {
        ClientQueues { queues: (0..clients).map(|_| VecDeque::new()).collect(), len: 0 }
    }

    fn push(&mut self, c: usize, item: T) {
        self.queues[c].push_back(item);
        self.len += 1;
    }

    fn pop(&mut self, c: usize) -> Option<T> {
        let item = self.queues[c].pop_front();
        self.len -= u64::from(item.is_some());
        item
    }

    fn audit(&self, name: &str) -> Result<(), String> {
        let recount: u64 = self.queues.iter().map(|q| q.len() as u64).sum();
        let err = || format!("memsys {name} count {} != recounted {recount}", self.len);
        (recount == self.len).then_some(()).ok_or_else(err)
    }
}

/// Client-side state of a NUCA-backed core: the request/completion
/// FIFOs, the conservation ledger, and the per-core statistics. Owns
/// no network — the [`Nuca`] that owns the [`SecondarySystem`] passes
/// it into [`Adapter::inject`]/[`Adapter::drain`].
pub(crate) struct Adapter {
    ports: PortMap,
    /// Coherent (shared-memory) mode: D-side fills become MSI GetS,
    /// store writebacks become GetM, and received invalidations are
    /// acknowledged from the [`Adapter::coh_pending`] side channel.
    coherent: bool,
    /// Client split point (DTs before, ITs after), from the geometry.
    num_dts: usize,
    /// Total clients (`num_dts + num_its`).
    num_clients: usize,
    /// Per-client requests the network has not accepted yet.
    pending: ClientQueues<MemReq>,
    /// Per-client invalidation acks awaiting injection. Coherence
    /// tokens live entirely outside the request/response ledger
    /// (`outstanding`/`issued`/`delivered` never see them); they take
    /// priority over `pending` so a stalled writeback can never wedge
    /// the ack that would release it.
    coh_pending: ClientQueues<MemReq>,
    /// Per-client invalidated lines the owning DT has not consumed
    /// yet. The DT drops its tag *before* the ack is queued (see
    /// [`MemSys::ack_inval`]), which is what makes the chip's SWMR
    /// invariant sound: by the time the directory counts the last ack,
    /// every victim copy is provably gone.
    inval_ready: ClientQueues<u64>,
    /// Per-client completions the tile has not consumed yet.
    ready: ClientQueues<MemEvent>,
    /// The core's wake table, by client: a completion or invalidation
    /// queued for a tile is filed with it.
    wake: WakePort,
    /// Accepted-but-undelivered requests over all clients (the
    /// conservation ledger: pending + in-system + ready).
    outstanding: u64,
    /// Committed stores awaiting chip-level propagation to the shared
    /// memory (coherent mode only): `(ea, val, bytes)` in
    /// commit-drain order.
    prop: Vec<(u64, u64, usize)>,
    /// Fill-request issue times, for the miss-latency histogram:
    /// `(client, line, requested_at)`.
    sent_at: Vec<(u64, u64, u64)>,
    /// Requests accepted into the OCN.
    issued: u64,
    /// Responses popped out of the OCN.
    delivered: u64,
    stats: MemSysStats,
}

impl Adapter {
    fn new(ports: PortMap, geom: CoreGeometry, coherent: bool, wake: &WakeTable) -> Adapter {
        let num_clients = geom.num_dts() + geom.num_its();
        let dts = (0..geom.num_dts()).map(|d| geom.tile_bit(TileId::Dt(d as u8)));
        let its = (0..geom.num_its()).map(|i| geom.it_bit(i));
        Adapter {
            ports,
            wake: WakePort::new(wake, dts.chain(its).collect()),
            coherent,
            num_dts: geom.num_dts(),
            num_clients,
            pending: ClientQueues::new(num_clients),
            coh_pending: ClientQueues::new(num_clients),
            inval_ready: ClientQueues::new(num_clients),
            ready: ClientQueues::new(num_clients),
            outstanding: 0,
            prop: Vec::new(),
            sent_at: Vec::new(),
            issued: 0,
            delivered: 0,
            stats: MemSysStats::default(),
        }
    }

    fn push_fill(&mut self, client: MemClient, line: u64) {
        let c = client.index(self.num_dts);
        debug_assert_eq!(line << 6 >> 6, line, "line index collides with phys_base");
        let id = ID_FILL | line;
        let addr = self.ports.phys_base | (line << 6);
        // I-side refills stay plain reads even in coherent mode: code
        // is never stored to, so instruction lines need no sharer
        // tracking.
        let req = if self.coherent && matches!(client, MemClient::Dt(_)) {
            MemReq::get_s(id, addr)
        } else {
            MemReq::read_line(id, addr)
        };
        self.pending.push(c, req);
        self.outstanding += 1;
        match client {
            MemClient::Dt(_) => self.stats.dside_fills += 1,
            MemClient::It(_) => self.stats.iside_fills += 1,
        }
    }

    fn push_store(&mut self, dt: u8, frame: u8, ea: u64, val: u64, bytes: usize) {
        let c = MemClient::Dt(dt).index(self.num_dts);
        let id = u64::from(frame);
        let addr = self.ports.phys_base | ea;
        let req = if self.coherent {
            self.prop.push((ea, val, bytes));
            MemReq::get_m(id, addr, [0; 64])
        } else {
            MemReq::write_line(id, addr, [0; 64])
        };
        self.pending.push(c, req);
        self.outstanding += 1;
        self.stats.store_writebacks += 1;
    }

    fn quiet(&self) -> bool {
        self.outstanding + self.coh_pending.len + self.inval_ready.len == 0
    }

    /// True when the adapter itself has same-cycle work: a request
    /// awaiting injection or a completion awaiting its tile. Packets
    /// inside the OCN/banks are the [`SecondarySystem`]'s events, not
    /// the adapter's.
    fn busy_now(&self) -> bool {
        self.pending.len + self.coh_pending.len + self.inval_ready.len + self.ready.len != 0
    }

    /// Injects pending requests into `sys` in fixed client order, as
    /// core `core`. A client whose head request is homed at a bank
    /// another core already holds this cycle stalls in place
    /// (preserving its FIFO order); otherwise only the OCN's own
    /// backpressure can refuse a request, as it always does for a lone
    /// core.
    fn inject(
        &mut self,
        now: u64,
        sys: &mut SecondarySystem,
        tracer: &mut Tracer,
        arb: &mut BankArb,
        core: u8,
    ) {
        if self.pending.len + self.coh_pending.len == 0 {
            return;
        }
        for c in 0..self.num_clients {
            let port = self.ports.port_of(c, self.num_dts);
            // Invalidation acks first — outside the issued/delivered
            // ledger, and never queued behind a request whose own
            // completion may be waiting on this very ack. A client
            // whose ack stalls injects nothing else this cycle.
            let mut ack_stalled = false;
            while let Some(req) = self.coh_pending.queues[c].front() {
                let addr = req.addr;
                if !arb.try_grant(sys.home_bank(port, addr), core) {
                    self.stats.bank_conflict_stalls += 1;
                    ack_stalled = true;
                    break;
                }
                // Ask before handing the request over: a refused
                // attempt leaves it in the queue, uncopied.
                if !sys.admit(port, req.kind) {
                    self.stats.inject_stalls += 1;
                    ack_stalled = true;
                    break;
                }
                let req = self.coh_pending.pop(c).expect("front just seen");
                let accepted = sys.request(now, port, req);
                debug_assert!(accepted, "admitted a moment ago");
                tracer.record(now, || TraceKind::OcnInject {
                    port: port as u8,
                    addr,
                    write: false,
                });
            }
            if ack_stalled {
                continue;
            }
            while let Some(req) = self.pending.queues[c].front() {
                let is_fill = req.id & ID_FILL != 0;
                let addr = req.addr;
                if !arb.try_grant(sys.home_bank(port, addr), core) {
                    self.stats.bank_conflict_stalls += 1;
                    break;
                }
                if !sys.admit(port, req.kind) {
                    self.stats.inject_stalls += 1;
                    break;
                }
                let req = self.pending.pop(c).expect("front just seen");
                let line = req.id & !ID_FILL;
                let accepted = sys.request(now, port, req);
                debug_assert!(accepted, "admitted a moment ago");
                self.issued += 1;
                if is_fill {
                    self.sent_at.push((c as u64, line, now));
                }
                tracer.record(now, || TraceKind::OcnInject {
                    port: port as u8,
                    addr,
                    write: !is_fill,
                });
            }
        }
    }

    /// Steers responses that arrived at this core's ports back into
    /// the per-client completion queues (consumed by the tiles next
    /// cycle). Fill lines are recovered from the request id, which
    /// carries the core-local line index regardless of `phys_base`.
    /// Only ports whose eject queue holds a packet are visited.
    fn drain(&mut self, now: u64, sys: &mut SecondarySystem, tracer: &mut Tracer) {
        if !sys.responses_waiting() {
            return;
        }
        for c in 0..self.num_clients {
            let port = self.ports.port_of(c, self.num_dts);
            if !sys.has_response(port) {
                continue;
            }
            while let Some(resp) = sys.pop_response(now, port) {
                self.wake.file(c, now);
                // An unsolicited invalidation from the home directory:
                // park it for the owning DT, which drops its tag and
                // poisons overlapping MSHRs *before* acknowledging
                // (via [`MemSys::ack_inval`] → `coh_pending`). The ack
                // therefore proves the copy is gone — the ordering the
                // directory's SWMR argument rests on.
                if resp.id & ID_COH != 0 {
                    self.stats.invals_received += 1;
                    self.inval_ready.push(c, resp.id & !ID_COH);
                    continue;
                }
                self.delivered += 1;
                let is_fill = resp.id & ID_FILL != 0;
                tracer.record(now, || TraceKind::OcnEject {
                    port: port as u8,
                    addr: resp.addr,
                    write: !is_fill,
                });
                if is_fill {
                    let line = resp.id & !ID_FILL;
                    if let Some(k) =
                        self.sent_at.iter().position(|&(sc, sl, _)| sc == c as u64 && sl == line)
                    {
                        let (_, _, at) = self.sent_at.swap_remove(k);
                        // 8-cycle buckets: a NUCA round trip is tens of
                        // cycles, far past the histogram's 0..31 range.
                        self.stats.fill_latency.record((now - at) / 8);
                    }
                    self.ready.push(c, MemEvent::Fill { line });
                } else {
                    self.ready.push(c, MemEvent::StoreAck { frame: resp.id as u8 });
                }
            }
        }
    }

    /// Updates the outstanding high-water mark (end of each tick the
    /// adapter participated in).
    fn note_peak(&mut self) {
        self.stats.peak_outstanding = self.stats.peak_outstanding.max(self.outstanding);
    }

    /// Every occupancy count against a recount of its queues, then the
    /// client-side conservation ledger: every request handed over is
    /// exactly one of pending, inside the system, or ready.
    fn audit_ledger(&self) -> Result<(), String> {
        self.pending.audit("pending")?;
        self.coh_pending.audit("coh_pending")?;
        self.inval_ready.audit("inval_ready")?;
        self.ready.audit("ready")?;
        let held = self.pending.len + (self.issued - self.delivered) + self.ready.len;
        if self.outstanding != held {
            return Err(format!(
                "memsys ledger {} != pending + in-flight + ready {held}",
                self.outstanding
            ));
        }
        Ok(())
    }

    fn diag(&self) -> String {
        let pending = self.pending.len + self.coh_pending.len + self.inval_ready.len;
        let (in_system, ready) = (self.issued - self.delivered, self.ready.len);
        format!(
            "{pending} request(s) awaiting injection, {in_system} in the OCN/banks, \
             {ready} completion(s) unconsumed"
        )
    }
}

/// The core-side memory system in any backend configuration.
// One per core, built once per run: boxing the adapter would cost an
// allocation per run and an indirection per tile due-check.
#[allow(clippy::large_enum_variant)]
pub(crate) enum MemSys {
    /// Flat-latency answer machine ([`PERFECT_L2_LAT`]); holds no state.
    Perfect,
    /// A client of a NUCA whose [`Nuca`] owner — the solo core's own
    /// or the chip's — runs the memory phase.
    Adapter(Adapter),
}

impl MemSys {
    /// The backend `cfg.mem_backend` selects, for a solo core: the
    /// perfect L2, or a NUCA client on core 0's ports of a one-core
    /// die (its [`Nuca`] is built beside it).
    pub(crate) fn new(cfg: &CoreConfig, wake: &WakeTable) -> MemSys {
        match &cfg.mem_backend {
            MemBackend::PerfectL2 => MemSys::Perfect,
            MemBackend::Nuca(_) => MemSys::client(0, 1, cfg.geometry, false, wake),
        }
    }

    /// A NUCA client for core `k` of an `ncores`-core die, coherent or
    /// not. The coherent client has the same port slice but
    /// `phys_base = 0` (one physical address space), sends D-side
    /// fills as GetS and writebacks as GetM, and delivers received
    /// invalidations to the owning DT (which drops its copy, then
    /// acknowledges via [`MemSys::ack_inval`]).
    pub(crate) fn client(
        k: usize,
        ncores: usize,
        geom: CoreGeometry,
        coherent: bool,
        wake: &WakeTable,
    ) -> MemSys {
        let ports = if coherent {
            PortMap::for_core_shared(k, ncores)
        } else {
            PortMap::for_core(k, ncores)
        };
        MemSys::Adapter(Adapter::new(ports, geom, coherent, wake))
    }

    fn adapter(&self) -> Option<&Adapter> {
        match self {
            MemSys::Perfect => None,
            MemSys::Adapter(ad) => Some(ad),
        }
    }

    fn adapter_mut(&mut self) -> Option<&mut Adapter> {
        match self {
            MemSys::Perfect => None,
            MemSys::Adapter(ad) => Some(ad),
        }
    }

    /// A D-side line fill for DT `dt` (line = `ea >> 6`).
    pub(crate) fn dside_fill(&mut self, now: u64, dt: u8, line: u64) -> FillPath {
        self.fill(now, MemClient::Dt(dt), line)
    }

    /// An I-side line fill for IT `it` (`addr` is line-aligned).
    pub(crate) fn iside_fill(&mut self, now: u64, it: u8, addr: u64) -> FillPath {
        self.fill(now, MemClient::It(it), addr >> 6)
    }

    fn fill(&mut self, now: u64, client: MemClient, line: u64) -> FillPath {
        match self {
            MemSys::Perfect => FillPath::At(now + PERFECT_L2_LAT),
            MemSys::Adapter(ad) => {
                ad.push_fill(client, line);
                FillPath::Queued
            }
        }
    }

    /// A commit-time store writeback from DT `dt` for frame `frame`
    /// (ESN-style). Returns true when an acknowledgement will follow
    /// as a [`MemEvent::StoreAck`]; the perfect backend acknowledges
    /// implicitly and returns false. The line payload is zeros — the
    /// core's memory image is the data authority (timing-only model).
    /// `val`/`bytes` matter only to the coherent mode, which queues
    /// the store for chip-level propagation to the shared memory.
    pub(crate) fn store_write(
        &mut self,
        dt: u8,
        frame: u8,
        ea: u64,
        val: u64,
        bytes: usize,
    ) -> bool {
        let Some(ad) = self.adapter_mut() else { return false };
        ad.push_store(dt, frame, ea, val, bytes);
        true
    }

    /// Takes the committed stores queued for chip-level propagation
    /// (coherent mode; empty otherwise): `(ea, val, bytes)` in
    /// commit-drain order.
    pub(crate) fn take_propagations(&mut self) -> Vec<(u64, u64, usize)> {
        self.adapter_mut().map(|ad| std::mem::take(&mut ad.prop)).unwrap_or_default()
    }

    /// The OCN port DT `dt` drives, for directory/cache agreement
    /// checks (coherent chips only; the perfect backend has no ports).
    pub(crate) fn dt_port(&self, dt: u8) -> usize {
        let ad = self.adapter().expect("dt_port on a perfect backend");
        ad.ports.port_of(dt as usize, ad.num_dts)
    }

    /// Pops the next completion for `client`, if one is ready.
    pub(crate) fn pop_event(&mut self, client: MemClient) -> Option<MemEvent> {
        let ad = self.adapter_mut()?;
        let ev = ad.ready.pop(client.index(ad.num_dts));
        ad.outstanding -= u64::from(ev.is_some());
        ev
    }

    /// True when `client` has an unconsumed completion or invalidation
    /// — the client tile is due now.
    pub(crate) fn has_events(&self, client: MemClient) -> bool {
        self.adapter().is_some_and(|ad| {
            let c = client.index(ad.num_dts);
            !ad.ready.queues[c].is_empty() || !ad.inval_ready.queues[c].is_empty()
        })
    }

    /// True when this adapter runs the coherent (shared-memory)
    /// protocol — gates the DT behaviours that differ between the
    /// multiprogrammed and coherent chips (e.g. no silent line install
    /// at commit drain, which would break directory inclusion).
    pub(crate) fn is_coherent(&self) -> bool {
        self.adapter().is_some_and(|ad| ad.coherent)
    }

    /// Pops the next directory invalidation delivered to `client`
    /// (coherent mode). The DT must drop its tag and poison matching
    /// MSHRs, then call [`MemSys::ack_inval`] in the same tick.
    pub(crate) fn pop_inval(&mut self, client: MemClient) -> Option<u64> {
        let ad = self.adapter_mut()?;
        ad.inval_ready.pop(client.index(ad.num_dts))
    }

    /// Queues the acknowledgement for an invalidation previously
    /// popped via [`MemSys::pop_inval`]. Called *after* the victim
    /// copy is dropped; the ack is injected in the chip's memory phase
    /// (which runs after the core ticks of the same cycle), so the
    /// directory can only observe it once the drop has happened.
    pub(crate) fn ack_inval(&mut self, client: MemClient, line: u64) {
        let ad = self.adapter_mut().expect("ack_inval on a perfect backend");
        ad.coh_pending.push(client.index(ad.num_dts), MemReq::inval_ack(line));
    }

    /// `Some(now)` while the adapter has same-cycle work (injections or
    /// undelivered completions), for the epoch-skipping scheduler;
    /// packets inside the OCN and banks are the [`Nuca`]'s events. The
    /// perfect backend is stateless — fill timers live inside the
    /// requesting tile (DT MSHR `fill_at`, IT refill `done_at`) and
    /// are folded by that tile's own `next_wake`.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        self.adapter()?.busy_now().then_some(now)
    }

    /// True when nothing is pending anywhere: no unaccepted request,
    /// nothing inside the OCN or banks, no unconsumed completion. The
    /// complement of the work the memory phase could still do for
    /// this core, so "quiesced" and "nothing to tick" can never
    /// disagree.
    pub(crate) fn quiet(&self) -> bool {
        self.adapter().is_none_or(Adapter::quiet)
    }

    /// A run-end statistics snapshot (`None` for the perfect backend,
    /// keeping `CoreStats` bit-identical to the pre-backend model): the
    /// adapter's own counters and whatever [`Nuca::fold_stats`] last
    /// captured.
    pub(crate) fn stats_snapshot(&self) -> Option<MemSysStats> {
        self.adapter().map(|ad| ad.stats.clone())
    }

    /// The adapter's own ledger: every request a client handed over is
    /// exactly one of pending, inside the system, or ready. The
    /// system-wide equations are [`Nuca::audit`]'s, since only the
    /// owner sees all the traffic.
    ///
    /// # Errors
    ///
    /// A description of the first violated accounting equation.
    pub(crate) fn audit(&self) -> Result<(), String> {
        self.adapter().map_or(Ok(()), Adapter::audit_ledger)
    }

    /// Queued work for the hang diagnoser (`None` when quiet).
    pub(crate) fn diag(&self) -> Option<String> {
        self.adapter().filter(|ad| !ad.quiet()).map(Adapter::diag)
    }
}

/// The one owner of a NUCA: the [`SecondarySystem`], the [`BankArb`]
/// between its cores, and their rotating injection priority. A
/// [`Chip`](crate::chip::Chip) holds one for its cores, a solo NUCA
/// [`Processor`] one for itself; both run the same phase.
pub(crate) struct Nuca {
    pub(crate) sys: SecondarySystem,
    pub(crate) arb: BankArb,
    /// Round-robin injection priority: core `rr` injects first this
    /// cycle.
    rr: usize,
    ncores: usize,
}

impl Nuca {
    /// The NUCA of a die seating `cores` (1..=16, in slot order) on
    /// `mem`, coherent or not: core 0's fault plan supplies the OCN
    /// stalls (the OCN is chip-level hardware), and every OCN port is
    /// tagged with the core whose [`PortMap`] drives it.
    pub(crate) fn new(mem: &MemConfig, cores: &[CoreConfig], coherent: bool) -> Nuca {
        let n = cores.len();
        let mut sys = if coherent {
            SecondarySystem::for_cores_shared(mem.clone(), n)
        } else {
            SecondarySystem::for_cores(mem.clone(), n)
        };
        if let Some(plan) = &cores[0].faults {
            sys.set_ocn_fault(plan.ocn_fault().as_ref());
        }
        for (k, core) in cores.iter().enumerate() {
            for port in PortMap::for_core(k, n).ports(core.geometry) {
                sys.set_port_tag(port, k as u8);
            }
        }
        let arb = BankArb::new(sys.geometry().banks());
        Nuca { sys, arb, rr: 0, ncores: n }
    }

    /// The solo core's own NUCA, if its backend names one.
    pub(crate) fn solo(cfg: &CoreConfig) -> Option<Box<Nuca>> {
        let MemBackend::Nuca(mem) = &cfg.mem_backend else { return None };
        Some(Box::new(Nuca::new(mem, std::slice::from_ref(cfg), false)))
    }

    /// The memory phase of cycle `now`, run after every core's tiles
    /// and nets have ticked: unless every adapter is quiet, inject
    /// each core's pending requests in rotating priority order through
    /// the bank arbiter, tick the OCN and banks once, then steer
    /// arrived responses back to each core in index order (consumed by
    /// the tiles next cycle). The priority rotates every cycle.
    pub(crate) fn tick(&mut self, now: u64, cores: &mut [Processor]) {
        if cores.iter().any(|c| !c.memsys.quiet()) {
            self.arb.begin_cycle();
            for i in 0..self.ncores {
                let k = (self.rr + i) % self.ncores;
                let Processor { memsys, tracer, .. } = &mut cores[k];
                if let MemSys::Adapter(ad) = memsys {
                    ad.inject(now, &mut self.sys, tracer, &mut self.arb, k as u8);
                }
            }
            self.sys.tick(now);
            for Processor { memsys, tracer, .. } in cores {
                if let MemSys::Adapter(ad) = memsys {
                    ad.drain(now, &mut self.sys, tracer);
                    ad.note_peak();
                }
            }
        }
        self.skip(1);
    }

    /// Advances the injection priority over `cycles` skipped cycles,
    /// exactly as that many quiet phases would have.
    pub(crate) fn skip(&mut self, cycles: u64) {
        self.rr = (self.rr + cycles as usize) % self.ncores;
    }

    /// Cycle of the system's next state change (see
    /// [`SecondarySystem::next_event`]).
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        self.sys.next_event(now)
    }

    /// Folds the system's counters (OCN, DRAM, banks) into a core's
    /// snapshot-to-be, at that core's halt time — so its
    /// [`MemSysStats`] describe the system as it stood when the core
    /// finished. The per-bank vectors are sliced to the core's **own
    /// block**, so every core of every die reports the same 16-entry
    /// bank vectors (on a one-block die the slice is the whole system).
    /// OCN and DRAM counters stay die-wide.
    pub(crate) fn fold_stats(&self, memsys: &mut MemSys) {
        let Some(ad) = memsys.adapter_mut() else { return };
        ad.stats.ocn = self.sys.ocn_stats();
        ad.stats.dram_accesses = self.sys.dram_accesses;
        let block = self.sys.geometry().block_banks(ad.ports.block);
        let (hits, misses): (Vec<u64>, Vec<u64>) =
            self.sys.bank_stats()[block.clone()].iter().copied().unzip();
        ad.stats.bank_hits = hits;
        ad.stats.bank_misses = misses;
        ad.stats.bank_peak_occupancy = self.sys.bank_peaks()[block].to_vec();
    }

    /// The conservation audit: the OCN's own packet accounting
    /// balances, and the cores' accepted-but-undelivered requests sum
    /// to exactly what the system holds (no response can be lost *or*
    /// misdelivered to another core's port without this failing).
    ///
    /// # Errors
    ///
    /// A description of the first violated accounting equation.
    pub(crate) fn audit(&self, cores: &[Processor]) -> Result<(), String> {
        self.sys.audit().map_err(|e| format!("OCN: {e}"))?;
        let (issued, delivered) = cores
            .iter()
            .filter_map(|c| c.memsys.adapter())
            .fold((0u64, 0u64), |(i, d), ad| (i + ad.issued, d + ad.delivered));
        // Coherence tokens (invalidations and their acks) travel the
        // OCN outside the request/response ledger, and a write ack
        // parked at the directory mid-invalidation is *outside* the
        // system until released — both terms are zero on a
        // non-coherent die, degenerating to `issued - delivered ==
        // in-system`.
        let in_system = self.sys.in_system() as i64;
        let flow = issued as i64 - delivered as i64;
        let (tokens, parked) = (self.sys.coh_tokens_in_system(), self.sys.dir_deferred());
        if flow != in_system - tokens + parked as i64 {
            return Err(format!(
                "NUCA conservation broken: Σissued {issued} - Σdelivered {delivered} \
                 != in-system {in_system} - coherence tokens {tokens} + parked acks {parked}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    // The chip visits cores in `(rr + i) % n` order with `rr`
    // advancing every cycle; these properties hold for that order no
    // matter what the other cores demand, which is what makes the
    // bound a starvation-freedom guarantee rather than a benchmark
    // observation.

    #[test]
    fn contested_bank_wait_is_bounded_by_ncores_minus_one() {
        for n in [4usize, 8, 16] {
            let mut rng = Rng::new(0xbab5 ^ n as u64);
            let mut arb = BankArb::new(1);
            let mut want = vec![false; n];
            let mut waited = vec![0u64; n];
            for t in 0..20_000u64 {
                // Random flips keep a mix of persistent and bursty
                // demand; the wait counter runs only while a core
                // continuously wants the bank.
                for w in want.iter_mut() {
                    if rng.chance(1, 7) {
                        *w = !*w;
                    }
                }
                arb.begin_cycle();
                let rr = t as usize % n;
                for i in 0..n {
                    let k = (rr + i) % n;
                    if want[k] && !arb.try_grant(0, k as u8) {
                        waited[k] += 1;
                        assert!(
                            waited[k] < n as u64,
                            "core {k} of {n} waited {} cycles on a contested bank",
                            waited[k]
                        );
                    } else {
                        waited[k] = 0;
                    }
                }
            }
        }
    }

    #[test]
    fn a_skewed_occupancy_count_is_caught_by_the_audit_within_one_cycle() {
        use trips_tasm::{compile, ProgramBuilder, Quality};
        let mut p = ProgramBuilder::new();
        let mut f = p.func("main", 0);
        f.halt();
        f.finish();
        let image = compile(&p.finish(), Quality::Hand).expect("compiles").image;
        for name in ["pending", "coh_pending", "inval_ready", "ready"] {
            let nuca = MemBackend::Nuca(trips_mem::MemConfig::prototype());
            let cfg = CoreConfig { mem_backend: nuca, ..CoreConfig::prototype() };
            let mut cpu = Processor::new(cfg);
            cpu.start(&image);
            // A few cycles in: the first I-side refills are queued.
            for _ in 0..5 {
                cpu.tick();
                cpu.check_invariants().expect("the counts are exact until skewed");
            }
            let MemSys::Adapter(ad) = &mut cpu.memsys else {
                unreachable!("a NUCA core is a client of its NUCA")
            };
            *match name {
                "pending" => &mut ad.pending.len,
                "coh_pending" => &mut ad.coh_pending.len,
                "inval_ready" => &mut ad.inval_ready.len,
                _ => &mut ad.ready.len,
            } += 1;
            cpu.tick();
            let err = cpu.check_invariants().expect_err("the skewed count must be caught");
            assert!(err.detail.contains(&format!("memsys {name} count")), "{name}: {err}");
            assert_eq!(err.cycle, cpu.cycle, "{name}: caught at the end of the skewed cycle");
        }
    }

    #[test]
    fn saturated_bank_grants_rotate_fairly() {
        for n in [4usize, 8, 16] {
            let mut arb = BankArb::new(1);
            let mut grants = vec![0u64; n];
            let window = 25 * n as u64;
            for t in 0..window {
                arb.begin_cycle();
                let rr = t as usize % n;
                let mut winners = 0;
                for i in 0..n {
                    let k = (rr + i) % n;
                    if arb.try_grant(0, k as u8) {
                        grants[k] += 1;
                        winners += 1;
                    }
                }
                assert_eq!(winners, 1, "one bank admits exactly one core per cycle");
            }
            let min = *grants.iter().min().unwrap();
            let max = *grants.iter().max().unwrap();
            assert!(
                max - min <= 1,
                "grant counts drifted beyond rotation fairness over {window} cycles: {grants:?}"
            );
            assert_eq!(
                arb.conflict_stalls[0],
                window * (n as u64 - 1),
                "every cycle the {} losers must each record one conflict stall",
                n - 1
            );
        }
    }
}
