//! The pluggable secondary memory system behind the L1 banks.
//!
//! [`MemSys`] is the core-side adapter for
//! [`CoreConfig::mem_backend`](crate::CoreConfig): the perfect-L2
//! variant answers every fill after a flat latency and holds no state
//! at all, while the NUCA variant owns a
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
//! ## Sharing one NUCA between cores
//!
//! The prototype chip has **two** cores on the same secondary system
//! (§2), so the client-side state lives in an [`Adapter`] that does
//! not own the [`SecondarySystem`]: a solo [`Processor`] wraps both
//! together (`Imp::Owned`, behaviourally identical to the original
//! single-owner design), while a [`Chip`](crate::chip::Chip) gives
//! each core an `Imp::Shared` adapter bound to a disjoint
//! [`PortMap`] slice of the die's OCN client ports — computed from
//! [`OcnGeometry`] for any 1..=16-core die — and drives the
//! inject → `SecondarySystem::tick` → drain phases itself, inserting
//! a round-robin [`BankArb`] between cores that converge on one bank.
//!
//! [`Processor`]: crate::Processor

use std::collections::VecDeque;

use trips_mem::{MemReq, OcnGeometry, SecondarySystem, ID_COH};
use trips_micronet::{WakePort, WakeTable};

use crate::config::{CoreConfig, CoreGeometry, MemBackend};
use crate::msg::TileId;
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
/// keeps the original solo mapping (DTs on west ports 0..4, ITs on
/// east ports 10..15), core 1 takes the remaining ports of the block.
/// Dies beyond two cores tile that block per [`OcnGeometry`], so
/// every slot's map is a whole-block translation of one of the two
/// prototype slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortMap {
    /// First OCN port of the DT clients.
    dt_base: usize,
    /// First OCN port of the IT clients.
    it_base: usize,
    /// Added to every request address: cores run disjoint address
    /// spaces (no coherence in the model), so their lines must not
    /// alias in the shared bank tags. Zero for a solo core. The
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
    /// The solo mapping the single-`Processor` path has always used.
    pub(crate) const SOLO: PortMap = PortMap { dt_base: 0, it_base: 10, phys_base: 0, block: 0 };

    /// The mapping for core `k` of an `ncores`-core die, computed
    /// from [`OcnGeometry`]. Core 0 is exactly [`PortMap::SOLO`] —
    /// the bit-identity anchor for the single-core-chip pin test —
    /// and `for_core(1, 2)` is the dual-core prototype's hand map
    /// this computation replaced (pinned by a test below).
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

    /// All OCN ports this map drives, for tagging. A solo core owns
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
/// NUCA bank: within a core the fixed client order stands (so a solo
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

/// Client-side state of a NUCA-backed core: the request/completion
/// FIFOs, the conservation ledger, and the per-core statistics. Owns
/// no network — the [`SecondarySystem`] is passed into
/// [`Adapter::inject`]/[`Adapter::drain`] by whoever owns it (the
/// solo `MemSys` or the chip).
struct Adapter {
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
    pending: Vec<VecDeque<MemReq>>,
    /// Per-client invalidation acks awaiting injection. Coherence
    /// tokens live entirely outside the request/response ledger
    /// (`outstanding`/`issued`/`delivered` never see them); they take
    /// priority over `pending` so a stalled writeback can never wedge
    /// the ack that would release it.
    coh_pending: Vec<VecDeque<MemReq>>,
    /// Per-client invalidated lines the owning DT has not consumed
    /// yet. The DT drops its tag *before* the ack is queued (see
    /// [`MemSys::ack_inval`]), which is what makes the chip's SWMR
    /// invariant sound: by the time the directory counts the last ack,
    /// every victim copy is provably gone.
    inval_ready: Vec<VecDeque<u64>>,
    /// Per-client completions the tile has not consumed yet.
    ready: Vec<VecDeque<MemEvent>>,
    /// The core's wake table, by client: a completion or invalidation
    /// queued for a tile is filed with it.
    wake: WakePort,
    /// Per-client accepted-but-undelivered request count (the
    /// conservation ledger: pending + in-system + ready).
    outstanding: Vec<u64>,
    /// Committed stores awaiting chip-level propagation to every
    /// core's replica (coherent mode only): `(ea, val, bytes)` in
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
            pending: vec![VecDeque::new(); num_clients],
            coh_pending: vec![VecDeque::new(); num_clients],
            inval_ready: vec![VecDeque::new(); num_clients],
            ready: vec![VecDeque::new(); num_clients],
            outstanding: vec![0; num_clients],
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
        self.pending[c].push_back(req);
        self.outstanding[c] += 1;
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
        self.pending[c].push_back(req);
        self.outstanding[c] += 1;
        self.stats.store_writebacks += 1;
    }

    fn quiet(&self) -> bool {
        self.outstanding.iter().all(|&o| o == 0)
            && self.coh_pending.iter().all(VecDeque::is_empty)
            && self.inval_ready.iter().all(VecDeque::is_empty)
    }

    /// True when the adapter itself has same-cycle work: a request
    /// awaiting injection or a completion awaiting its tile. Packets
    /// inside the OCN/banks are the [`SecondarySystem`]'s events, not
    /// the adapter's.
    fn busy_now(&self) -> bool {
        self.pending.iter().any(|q| !q.is_empty())
            || self.coh_pending.iter().any(|q| !q.is_empty())
            || self.inval_ready.iter().any(|q| !q.is_empty())
            || self.ready.iter().any(|q| !q.is_empty())
    }

    /// Injects pending requests into `sys` in fixed client order. With
    /// an arbiter, a client whose head request is homed at a bank
    /// another core already holds this cycle stalls in place
    /// (preserving its FIFO order); without one, only the OCN's own
    /// backpressure can refuse a request — the solo behaviour.
    fn inject(
        &mut self,
        now: u64,
        sys: &mut SecondarySystem,
        tracer: &mut Tracer,
        mut arb: Option<(&mut BankArb, u8)>,
    ) {
        for c in 0..self.num_clients {
            let port = self.ports.port_of(c, self.num_dts);
            // Invalidation acks first — outside the issued/delivered
            // ledger, and never queued behind a request whose own
            // completion may be waiting on this very ack. A client
            // whose ack stalls injects nothing else this cycle.
            let mut ack_stalled = false;
            while let Some(req) = self.coh_pending[c].front() {
                let addr = req.addr;
                if let Some((arb, core)) = arb.as_mut() {
                    if !arb.try_grant(sys.home_bank(port, addr), *core) {
                        self.stats.bank_conflict_stalls += 1;
                        ack_stalled = true;
                        break;
                    }
                }
                // Ask before handing the request over: a refused
                // attempt leaves it in the queue, uncopied.
                if !sys.admit(port, req.kind) {
                    self.stats.inject_stalls += 1;
                    ack_stalled = true;
                    break;
                }
                let req = self.coh_pending[c].pop_front().expect("front just seen");
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
            while let Some(req) = self.pending[c].front() {
                let is_fill = req.id & ID_FILL != 0;
                let addr = req.addr;
                if let Some((arb, core)) = arb.as_mut() {
                    if !arb.try_grant(sys.home_bank(port, addr), *core) {
                        self.stats.bank_conflict_stalls += 1;
                        break;
                    }
                }
                if !sys.admit(port, req.kind) {
                    self.stats.inject_stalls += 1;
                    break;
                }
                let req = self.pending[c].pop_front().expect("front just seen");
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
    fn drain(&mut self, now: u64, sys: &mut SecondarySystem, tracer: &mut Tracer) {
        for c in 0..self.num_clients {
            let port = self.ports.port_of(c, self.num_dts);
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
                    self.inval_ready[c].push_back(resp.id & !ID_COH);
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
                    self.ready[c].push_back(MemEvent::Fill { line });
                } else {
                    self.ready[c].push_back(MemEvent::StoreAck { frame: resp.id as u8 });
                }
            }
        }
    }

    /// Updates the outstanding high-water mark (end of each tick the
    /// adapter participated in).
    fn note_peak(&mut self) {
        let total: u64 = self.outstanding.iter().sum();
        self.stats.peak_outstanding = self.stats.peak_outstanding.max(total);
    }

    /// The client-side conservation ledger: every request handed over
    /// is exactly one of pending, inside the system, or ready.
    fn audit_ledger(&self) -> Result<(), String> {
        let ledger: u64 = self.outstanding.iter().sum();
        let held: u64 = self.pending.iter().map(|q| q.len() as u64).sum::<u64>()
            + (self.issued - self.delivered)
            + self.ready.iter().map(|q| q.len() as u64).sum::<u64>();
        if ledger != held {
            return Err(format!("memsys ledger {ledger} != pending + in-flight + ready {held}"));
        }
        Ok(())
    }

    fn diag(&self, in_system: u64) -> String {
        let pending: usize = self.pending.iter().map(VecDeque::len).sum::<usize>()
            + self.coh_pending.iter().map(VecDeque::len).sum::<usize>()
            + self.inval_ready.iter().map(VecDeque::len).sum::<usize>();
        let ready: usize = self.ready.iter().map(VecDeque::len).sum();
        format!(
            "{pending} request(s) awaiting injection, {in_system} in the OCN/banks, \
             {ready} completion(s) unconsumed"
        )
    }
}

/// The secondary memory system in any backend configuration.
pub(crate) struct MemSys {
    imp: Imp,
}

enum Imp {
    /// Flat-latency answer machine; holds no state.
    Perfect { latency: u64 },
    /// A solo core owning its private NUCA — the original
    /// single-processor path.
    Owned { sys: Box<SecondarySystem>, ad: Adapter },
    /// One core of a chip: the [`SecondarySystem`] lives in the
    /// [`Chip`](crate::chip::Chip), which drives this adapter's
    /// inject/drain phases. [`MemSys::tick`] is a no-op.
    Shared { ad: Adapter },
}

impl MemSys {
    /// Builds the backend selected by `cfg.mem_backend`, installing
    /// the fault plan's OCN stalls when one is configured.
    pub(crate) fn new(cfg: &CoreConfig, wake: &WakeTable) -> MemSys {
        let imp = match &cfg.mem_backend {
            MemBackend::PerfectL2 { latency } => Imp::Perfect { latency: *latency },
            MemBackend::Nuca(mc) => {
                let mut sys = SecondarySystem::new(mc.clone());
                if let Some(plan) = &cfg.faults {
                    sys.set_ocn_fault(plan.ocn_fault().as_ref());
                }
                Imp::Owned {
                    sys: Box::new(sys),
                    ad: Adapter::new(PortMap::SOLO, cfg.geometry, false, wake),
                }
            }
        };
        MemSys { imp }
    }

    /// A shared-NUCA adapter for core `k` of an `ncores`-core chip
    /// (the chip owns the [`SecondarySystem`] and drives the phases),
    /// coherent or not. The coherent adapter has the same port slice
    /// but `phys_base = 0` (one physical address space), sends D-side
    /// fills as GetS and writebacks as GetM, and delivers received
    /// invalidations to the owning DT (which drops its copy, then
    /// acknowledges via [`MemSys::ack_inval`]).
    pub(crate) fn shared(
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
        MemSys { imp: Imp::Shared { ad: Adapter::new(ports, geom, coherent, wake) } }
    }

    /// The port map of core `k` of an `ncores`-core die (for tagging
    /// the shared system's ports).
    pub(crate) fn ports_for_core(k: usize, ncores: usize) -> PortMap {
        PortMap::for_core(k, ncores)
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
        match &mut self.imp {
            Imp::Perfect { latency } => FillPath::At(now + *latency),
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
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
    /// the store for chip-level propagation to every core's replica.
    pub(crate) fn store_write(
        &mut self,
        dt: u8,
        frame: u8,
        ea: u64,
        val: u64,
        bytes: usize,
    ) -> bool {
        match &mut self.imp {
            Imp::Perfect { .. } => false,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
                ad.push_store(dt, frame, ea, val, bytes);
                true
            }
        }
    }

    /// Takes the committed stores queued for chip-level propagation
    /// (coherent mode; empty otherwise): `(ea, val, bytes)` in
    /// commit-drain order.
    pub(crate) fn take_propagations(&mut self) -> Vec<(u64, u64, usize)> {
        match &mut self.imp {
            Imp::Perfect { .. } => Vec::new(),
            Imp::Owned { ad, .. } | Imp::Shared { ad } => std::mem::take(&mut ad.prop),
        }
    }

    /// The OCN port DT `dt` drives, for directory/cache agreement
    /// checks (coherent chips only; the perfect backend has no ports).
    pub(crate) fn dt_port(&self, dt: u8) -> usize {
        match &self.imp {
            Imp::Perfect { .. } => unreachable!("dt_port on a perfect backend"),
            Imp::Owned { ad, .. } | Imp::Shared { ad } => ad.ports.port_of(dt as usize, ad.num_dts),
        }
    }

    /// Pops the next completion for `client`, if one is ready.
    pub(crate) fn pop_event(&mut self, client: MemClient) -> Option<MemEvent> {
        match &mut self.imp {
            Imp::Perfect { .. } => None,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
                let c = client.index(ad.num_dts);
                let ev = ad.ready[c].pop_front();
                if ev.is_some() {
                    ad.outstanding[c] -= 1;
                }
                ev
            }
        }
    }

    /// True when `client` has an unconsumed completion or invalidation
    /// — the client tile is due now.
    pub(crate) fn has_events(&self, client: MemClient) -> bool {
        match &self.imp {
            Imp::Perfect { .. } => false,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
                let c = client.index(ad.num_dts);
                !ad.ready[c].is_empty() || !ad.inval_ready[c].is_empty()
            }
        }
    }

    /// True when this adapter runs the coherent (shared-memory)
    /// protocol — gates the DT behaviours that differ between the
    /// multiprogrammed and coherent chips (e.g. no silent line install
    /// at commit drain, which would break directory inclusion).
    pub(crate) fn is_coherent(&self) -> bool {
        match &self.imp {
            Imp::Perfect { .. } => false,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => ad.coherent,
        }
    }

    /// Pops the next directory invalidation delivered to `client`
    /// (coherent mode). The DT must drop its tag and poison matching
    /// MSHRs, then call [`MemSys::ack_inval`] in the same tick.
    pub(crate) fn pop_inval(&mut self, client: MemClient) -> Option<u64> {
        match &mut self.imp {
            Imp::Perfect { .. } => None,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
                ad.inval_ready[client.index(ad.num_dts)].pop_front()
            }
        }
    }

    /// Queues the acknowledgement for an invalidation previously
    /// popped via [`MemSys::pop_inval`]. Called *after* the victim
    /// copy is dropped; the ack is injected in the chip's memory phase
    /// (which runs after the core ticks of the same cycle), so the
    /// directory can only observe it once the drop has happened.
    pub(crate) fn ack_inval(&mut self, client: MemClient, line: u64) {
        match &mut self.imp {
            Imp::Perfect { .. } => unreachable!("ack_inval on a perfect backend"),
            Imp::Owned { ad, .. } | Imp::Shared { ad } => {
                ad.coh_pending[client.index(ad.num_dts)].push_back(MemReq::inval_ack(line));
            }
        }
    }

    /// One cycle, run after the tiles and nets: inject pending
    /// requests in client order, advance the OCN and banks, and steer
    /// arrived responses back to their client queues (consumed by the
    /// tiles next cycle). A no-op for the shared variant — the chip
    /// drives the same phases around the one shared system.
    pub(crate) fn tick(&mut self, now: u64, tracer: &mut Tracer) {
        let Imp::Owned { sys, ad } = &mut self.imp else {
            return;
        };
        if ad.quiet() {
            return;
        }
        ad.inject(now, sys, tracer, None);
        sys.tick(now);
        ad.drain(now, sys, tracer);
        ad.note_peak();
    }

    /// Chip phase 1: inject this core's pending requests through the
    /// shared `sys`, arbitrated per bank.
    pub(crate) fn shared_inject(
        &mut self,
        now: u64,
        sys: &mut SecondarySystem,
        tracer: &mut Tracer,
        arb: &mut BankArb,
        core: u8,
    ) {
        let Imp::Shared { ad } = &mut self.imp else {
            unreachable!("shared_inject on a non-shared memsys");
        };
        ad.inject(now, sys, tracer, Some((arb, core)));
    }

    /// Chip phase 2 (after `sys.tick`): collect this core's responses
    /// and update its outstanding high-water mark.
    pub(crate) fn shared_drain(
        &mut self,
        now: u64,
        sys: &mut SecondarySystem,
        tracer: &mut Tracer,
    ) {
        let Imp::Shared { ad } = &mut self.imp else {
            unreachable!("shared_drain on a non-shared memsys");
        };
        ad.drain(now, sys, tracer);
        ad.note_peak();
    }

    /// `(issued, delivered)` through this adapter, for the chip-level
    /// conservation audit (`Σ(issued−delivered) == sys.in_system()`).
    pub(crate) fn flow(&self) -> (u64, u64) {
        match &self.imp {
            Imp::Perfect { .. } => (0, 0),
            Imp::Owned { ad, .. } | Imp::Shared { ad } => (ad.issued, ad.delivered),
        }
    }

    /// Folds the shared system's counters (OCN, DRAM, banks) into
    /// this core's snapshot-to-be. Called by the chip when the core
    /// halts, so its [`MemSysStats`] describe the system state at its
    /// own halt time — exactly what a solo run reports. The per-bank
    /// vectors are sliced to the core's **own block**, so every core
    /// of every die reports the same 16-entry bank vectors a solo run
    /// does (on a one-block die the slice is the whole system —
    /// unchanged from the dual-core prototype). OCN and DRAM counters
    /// stay die-wide, as they always have.
    pub(crate) fn absorb_sys(&mut self, sys: &SecondarySystem) {
        let Imp::Shared { ad } = &mut self.imp else {
            unreachable!("absorb_sys on a non-shared memsys");
        };
        ad.stats.ocn = sys.ocn_stats();
        ad.stats.dram_accesses = sys.dram_accesses;
        let block = sys.geometry().block_banks(ad.ports.block);
        let (hits, misses): (Vec<u64>, Vec<u64>) =
            sys.bank_stats()[block.clone()].iter().copied().unzip();
        ad.stats.bank_hits = hits;
        ad.stats.bank_misses = misses;
        ad.stats.bank_peak_occupancy = sys.bank_peaks()[block].to_vec();
    }

    /// Cycle of the memory system's next state change, for the
    /// epoch-skipping scheduler. `Some(now)` while the adapter has
    /// same-cycle work (injections or undelivered completions); the
    /// owned backend then defers to its private system's timers. The
    /// perfect backend is stateless — fill timers live inside the
    /// requesting tile (DT MSHR `fill_at`, IT refill `done_at`) and
    /// are folded by that tile's own `next_wake`. For the shared
    /// variant the chip folds the one shared system's
    /// [`SecondarySystem::next_event`] itself.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        match &self.imp {
            Imp::Perfect { .. } => None,
            Imp::Owned { sys, ad } => {
                if ad.busy_now() {
                    Some(now)
                } else {
                    sys.next_event(now)
                }
            }
            Imp::Shared { ad } => {
                if ad.busy_now() {
                    Some(now)
                } else {
                    None
                }
            }
        }
    }

    /// True when nothing is pending anywhere: no unaccepted request,
    /// nothing inside the OCN or banks, no unconsumed completion. The
    /// complement of the work [`MemSys::tick`] could still do, so
    /// "quiesced" and "nothing to tick" can never disagree.
    pub(crate) fn quiet(&self) -> bool {
        match &self.imp {
            Imp::Perfect { .. } => true,
            Imp::Owned { ad, .. } | Imp::Shared { ad } => ad.quiet(),
        }
    }

    /// A run-end statistics snapshot (`None` for the perfect backend,
    /// keeping `CoreStats` bit-identical to the pre-backend model).
    /// The owned variant folds in its private system's counters; the
    /// shared variant reports whatever [`MemSys::absorb_sys`] last
    /// captured.
    pub(crate) fn stats_snapshot(&self) -> Option<MemSysStats> {
        match &self.imp {
            Imp::Perfect { .. } => None,
            Imp::Owned { sys, ad } => {
                let mut s = ad.stats.clone();
                s.ocn = sys.ocn_stats();
                s.dram_accesses = sys.dram_accesses;
                let (hits, misses): (Vec<u64>, Vec<u64>) = sys.bank_stats().into_iter().unzip();
                s.bank_hits = hits;
                s.bank_misses = misses;
                s.bank_peak_occupancy = sys.bank_peaks().to_vec();
                Some(s)
            }
            Imp::Shared { ad } => Some(ad.stats.clone()),
        }
    }

    /// Request/response conservation: every request a client handed
    /// over is exactly one of pending, inside the system, or ready —
    /// and, for the owned variant, the OCN's own packet accounting
    /// balances. (A shared adapter checks its ledger only; the
    /// system-wide equations are the chip's to audit, since no single
    /// core sees all the traffic.)
    ///
    /// # Errors
    ///
    /// A description of the first violated accounting equation.
    pub(crate) fn audit(&self) -> Result<(), String> {
        match &self.imp {
            Imp::Perfect { .. } => Ok(()),
            Imp::Owned { sys, ad } => {
                sys.audit().map_err(|e| format!("OCN: {e}"))?;
                let in_system = sys.in_system() as u64;
                if ad.issued - ad.delivered != in_system {
                    return Err(format!(
                        "memsys conservation broken: issued {} - delivered {} != in-system {}",
                        ad.issued, ad.delivered, in_system
                    ));
                }
                ad.audit_ledger()
            }
            Imp::Shared { ad } => ad.audit_ledger(),
        }
    }

    /// Queued work for the hang diagnoser (`None` when quiet).
    pub(crate) fn diag(&self) -> Option<String> {
        match &self.imp {
            Imp::Perfect { .. } => None,
            Imp::Owned { sys, ad } => {
                if ad.quiet() {
                    return None;
                }
                Some(ad.diag(sys.in_system() as u64))
            }
            Imp::Shared { ad } => {
                if ad.quiet() {
                    return None;
                }
                Some(ad.diag(ad.issued - ad.delivered))
            }
        }
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
