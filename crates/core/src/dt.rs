//! Data tiles (§3.5).
//!
//! Each DT holds one 2-way 8 KB L1 data-cache bank (addresses
//! interleave across the four DTs at 64-byte-line granularity), a
//! replicated copy of the 256-entry load/store queue, a memory-side
//! dependence predictor, and an MSHR. Loads issue aggressively unless
//! the dependence predictor holds them back; a later-arriving older
//! store that overlaps a performed younger load raises a
//! memory-ordering violation, which flushes from the load's block and
//! trains the predictor (§3.5). Store arrivals are broadcast on the
//! DSN so every DT can detect store completion against the block's
//! store mask (§4.4).

use trips_isa::mem::SparseMem;
use trips_isa::semantics::{extend_load, Tok};
use trips_isa::{Opcode, Target};
use trips_mem::TagStore;
use trips_micronet::WakeTable;

use crate::config::{
    CoreConfig, CoreGeometry, LsidMask, DEPPRED_CLEAR_BLOCKS, DEPPRED_ENTRIES, L1D_HIT_LAT,
    L1D_SETS, L1D_WAYS, MSHR_LINES,
};
use crate::critpath::{Cat, CritPath};
use crate::frames::{FrameFile, FrameSet, GtSlots};
use crate::memsys::{FillPath, MemClient, MemEvent, MemSys};
use crate::msg::{DsnMsg, EvId, FrameId, GcnMsg, Gen, GsnMsg, OpnPayload, RowMsg, TileId};
use crate::nets::{dt_chain_pos, opn_recv, Nets, OpnOutbox};
use crate::stats::CoreStats;
use crate::trace::{TraceKind, Tracer};

#[derive(Debug, Clone, Copy)]
struct StoreRec {
    lsid: u8,
    ea: u64,
    val: u64,
    bytes: u32,
    nullified: bool,
}

#[derive(Debug, Clone, Copy)]
struct LoadRec {
    lsid: u8,
    ea: u64,
    bytes: u32,
}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    lsid: u8,
    opcode: Opcode,
    ea: u64,
    target: Target,
    ev: EvId,
}

/// A frame's body ([`FrameFile`] holds its lifecycle): LSQ records and
/// store-completion counting.
#[derive(Debug, Default)]
struct DtFrame {
    /// The store mask arrived (by dispatch, so the frame has its age).
    mask_known: bool,
    store_mask: LsidMask,
    /// The store LSIDs that have arrived at some DT (own and DSN).
    arrived: LsidMask,
    own_stores: Vec<StoreRec>,
    performed_loads: Vec<LoadRec>,
    deferred: Vec<PendingLoad>,
    pending: Vec<OpnPayload>,
    done_sent: bool,
    done_ev: EvId,
    commit_cursor: usize,
    /// All own stores drained through the commit port.
    stores_drained: bool,
    /// Store writebacks awaiting a secondary-system acknowledgement
    /// (always 0 under the perfect backend); the frame's commit drain
    /// is done once it is drained *and* acknowledged.
    acks_pending: u32,
}

impl DtFrame {
    /// Reinitializes in place, keeping the record-list allocations
    /// (frame churn is hot; `*f = default()` would free and re-grow
    /// every list on every block).
    fn reset(&mut self) {
        self.mask_known = false;
        self.store_mask = LsidMask::EMPTY;
        self.arrived = LsidMask::EMPTY;
        self.own_stores.clear();
        self.performed_loads.clear();
        self.deferred.clear();
        self.pending.clear();
        self.done_sent = false;
        self.done_ev = 0;
        self.commit_cursor = 0;
        self.stores_drained = false;
        self.acks_pending = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct ExecLoad {
    frame: FrameId,
    gen: Gen,
    opcode: Opcode,
    raw: u64,
    target: Target,
    ev: EvId,
}

/// `fill_at` sentinel for an MSHR waiting on a NUCA fill event (the
/// perfect backend always knows the fill cycle up front).
const PENDING_FILL: u64 = u64::MAX;

/// Whether byte ranges `[a, a+an)` and `[b, b+bn)` intersect on the
/// 2⁶⁴ address ring (an access straddling the top continues at 0, as
/// in [`SparseMem`]).
fn ranges_overlap(a: u64, an: u64, b: u64, bn: u64) -> bool {
    b.wrapping_sub(a) < an || a.wrapping_sub(b) < bn
}

#[derive(Debug)]
struct Mshr {
    line: u64,
    fill_at: u64,
    waiting: Vec<ExecLoad>,
    /// The line was invalidated while the fill was in flight
    /// (coherent chips only): the fill still completes for timing —
    /// the waiting loads respond — but skips the tag install, so the
    /// cache never holds a line the directory no longer lists.
    poisoned: bool,
}

/// One data tile.
#[cfg_attr(test, derive(Debug))]
pub struct DataTile {
    /// Tile index (0 is nearest the GT).
    pub index: u8,
    geom: CoreGeometry,
    frames: FrameFile<DtFrame>,
    tags: TagStore,
    deppred: Vec<bool>,
    blocks_since_clear: u64,
    mshrs: Vec<Mshr>,
    respond_q: Vec<(u64, ExecLoad)>,
    outbox: OpnOutbox,
    /// Current LSQ occupancy (own live memory records).
    occupancy: usize,
    /// The active frames with a non-empty deferred-load list. Exact
    /// like the file's draining set, and for the same reason: a parked
    /// load's eligibility can flip through this DT's own deallocations,
    /// so the tile must stay clocked while any frame is in it.
    deferred: FrameSet,
    /// Frames examined by the advance/wake walks (not in
    /// [`CoreStats`]; host-side observability for the non-vacuousness
    /// tests).
    pub(crate) advance_visits: u64,
}

impl DataTile {
    /// A fresh DT.
    pub fn new(index: u8, cfg: &CoreConfig) -> DataTile {
        DataTile {
            index,
            geom: cfg.geometry,
            frames: FrameFile::new(
                cfg.geometry.frames,
                index as usize == cfg.geometry.num_dts() - 1,
                DtFrame::default,
            ),
            tags: TagStore::new(L1D_SETS, L1D_WAYS),
            deppred: vec![false; DEPPRED_ENTRIES],
            blocks_since_clear: 0,
            mshrs: Vec::with_capacity(MSHR_LINES),
            respond_q: Vec::with_capacity(8),
            outbox: OpnOutbox::with_capacity(16),
            occupancy: 0,
            deferred: FrameSet::EMPTY,
            advance_visits: 0,
        }
    }

    /// True when nothing is pending.
    pub fn idle(&self) -> bool {
        self.mshrs.is_empty() && self.respond_q.is_empty() && self.outbox.is_empty()
    }

    /// True while a tick can make progress without a new message: an
    /// MSHR fill, load response, or outbox flush is timed; a commit
    /// drain is underway; or a deferred load is parked. Deferred loads
    /// must keep the tile awake because their eligibility can change
    /// through this DT's *own* frame deallocation in
    /// [`advance_frames`], with no message involved.
    pub(crate) fn busy(&self) -> bool {
        !self.idle() || !self.frames.draining().is_empty() || !self.deferred.is_empty()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit): due now while the
    /// outbox, a commit drain or a deferred load needs attention
    /// (deferred loads stay "now" because their eligibility can flip
    /// through this DT's own frame deallocation, with no message), or
    /// an operand or memory-system completion is unconsumed; else the
    /// earliest timed MSHR fill (`PENDING_FILL` is `u64::MAX`: a NUCA
    /// fill is event-driven), queued load response or chain-inbox head.
    pub(crate) fn due(&self, nets: &Nets, memsys: &MemSys) -> u64 {
        let (tile, d) = (self.tile_id(), self.index as usize);
        if !self.outbox.is_empty()
            || !self.frames.draining().is_empty()
            || !self.deferred.is_empty()
            || nets.opn_delivered_at(tile)
            || memsys.has_events(MemClient::Dt(self.index))
        {
            return WakeTable::NOW;
        }
        let timers = self.mshrs.iter().map(|m| m.fill_at).chain(self.respond_q.iter().map(|r| r.0));
        (timers.min().unwrap_or(WakeTable::ASLEEP))
            .min(nets.gcn.next_arrival(self.geom.gcn_pos(tile)))
            .min(nets.gdn_rows[d + 1].next_arrival(1))
            .min(nets.dsn.next_arrival(d))
            .min(nets.gsn_dt.next_arrival(dt_chain_pos(d)))
    }

    /// Queued work for the hang diagnoser (`None` when nothing is
    /// held, including deferred loads and parked requests).
    pub fn diag(&self) -> Option<String> {
        let active = || self.frames.active().iter().map(|f| &self.frames[f]);
        let deferred: usize = active().map(|f| f.deferred.len()).sum();
        let parked: usize = active().map(|f| f.pending.len()).sum();
        if self.idle() && deferred == 0 && parked == 0 {
            return None;
        }
        let mut parts = Vec::new();
        if deferred > 0 {
            parts.push(format!("{deferred} load(s) deferred by the dependence predictor"));
        }
        if parked > 0 {
            parts.push(format!("{parked} request(s) parked awaiting dispatch"));
        }
        if !self.mshrs.is_empty() {
            parts.push(format!("{} MSHR fill(s) outstanding", self.mshrs.len()));
        }
        if !self.respond_q.is_empty() {
            parts.push(format!("{} load response(s) queued", self.respond_q.len()));
        }
        if !self.outbox.is_empty() {
            parts.push(format!("outbox {}", self.outbox.len()));
        }
        Some(parts.join(", "))
    }

    /// DT-side protocol invariants: LSQ-ID sanity, occupancy
    /// accounting, and the cross-tile generation bound — or
    /// (`only_gens`) that bound alone over those frames (see
    /// [`crate::invariants`]).
    pub(crate) fn audit(&self, gt: &GtSlots, only_gens: Option<FrameSet>) -> Result<(), String> {
        let audit = match only_gens {
            None => self.audit_frames(gt),
            Some(frames) => self.frames.audit_gens(gt, frames),
        };
        audit.map_err(|e| format!("DT{}: {e}", self.index))
    }

    fn audit_frames(&self, gt: &GtSlots) -> Result<(), String> {
        let (mut live, mut parked) = (0usize, FrameSet::EMPTY);
        self.frames.audit(gt, |frame, f| {
            let fi = frame.0;
            if !f.deferred.is_empty() {
                parked.insert(frame);
            }
            live += f.own_stores.len() + f.performed_loads.len();
            for s in &f.own_stores {
                if s.lsid >= 32 {
                    return Err(format!("frame {fi} store LSQ id {} out of range", s.lsid));
                }
                if f.mask_known && !f.store_mask.contains(s.lsid.into()) {
                    return Err(format!(
                        "frame {fi} holds store lsid {} absent from its store mask {:#x}",
                        s.lsid, f.store_mask
                    ));
                }
            }
            if let Some(l) = f.performed_loads.iter().find(|l| l.lsid >= 32) {
                return Err(format!("frame {fi} load LSQ id {} out of range", l.lsid));
            }
            if f.mask_known && !f.arrived.is_subset(f.store_mask) {
                return Err(format!(
                    "frame {fi} arrival bits {:#x} outside the store mask {:#x}",
                    f.arrived, f.store_mask
                ));
            }
            Ok(())
        })?;
        if parked != self.deferred {
            return Err(format!("deferred set {:#b}, recount {parked:#b}", self.deferred));
        }
        if live != self.occupancy {
            return Err(format!(
                "LSQ occupancy counter {} disagrees with live records {live}",
                self.occupancy
            ));
        }
        Ok(())
    }

    fn tile_id(&self) -> TileId {
        TileId::Dt(self.index)
    }

    /// [`FrameFile::ensure`] with this tile's body reset.
    fn ensure(&mut self, frame: FrameId, gen: Gen, from_dispatch: bool) -> bool {
        let deferred = &mut self.deferred;
        self.frames.ensure(frame, gen, from_dispatch, |f| {
            f.reset();
            deferred.remove(frame);
        })
    }

    fn set_index(&self, ea: u64) -> (usize, u64) {
        let line = ea >> 6;
        let nd = self.geom.num_dts() as u64;
        debug_assert_eq!((line % nd) as u8, self.index, "address routed to wrong DT");
        let set = ((line / nd) as usize) % L1D_SETS;
        let tag = line / nd;
        (set, tag)
    }

    fn is_hit(&self, ea: u64) -> bool {
        let (set, tag) = self.set_index(ea);
        self.tags.contains(set, tag)
    }

    fn install(&mut self, ea: u64) {
        let (set, tag) = self.set_index(ea);
        self.tags.install(set, tag);
    }

    /// Drops the cached copy of `ea`'s line, if held (coherent chips:
    /// directory invalidations and value-plane store propagation).
    fn drop_line(&mut self, ea: u64) {
        let (set, tag) = self.set_index(ea);
        self.tags.remove(set, tag);
    }

    /// Every line this DT's cache currently holds (global line
    /// indices), for the chip's directory-inclusion invariant. The
    /// stored tag is `line / num_dts` and this DT only caches lines
    /// with `line % num_dts == index`, so the line reconstructs
    /// exactly.
    pub(crate) fn cached_lines(&self) -> Vec<u64> {
        let nd = self.geom.num_dts() as u64;
        self.tags.iter().map(|tag| tag * nd + u64::from(self.index)).collect()
    }

    /// A remote core's committed store landed in the shared memory
    /// (coherent chips, value plane). Drops any cached copy of
    /// the touched line(s) this DT homes, poisons overlapping in-flight
    /// fills, and — the speculation repair — squashes from the oldest
    /// non-committing block that already performed an overlapping
    /// load, exactly like a memory-ordering violation (§3.5): that
    /// load observed the old value, so the block and everything
    /// younger re-execute against the updated memory. Blocks already
    /// committing are exempt — their loads are architecturally
    /// committed, and the store propagation order makes that the
    /// sequential order.
    pub(crate) fn shared_invalidate(
        &mut self,
        now: u64,
        ea: u64,
        bytes: usize,
        nets: &mut Nets,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        let dt = self.index;
        let nd = self.geom.num_dts() as u64;
        let (first, last) = (ea >> 6, ea.wrapping_add(bytes as u64 - 1) >> 6);
        for line in std::iter::once(first).chain((last != first).then_some(last)) {
            if line % nd != u64::from(self.index) {
                continue;
            }
            self.drop_line(line << 6);
            for m in self.mshrs.iter_mut().filter(|m| m.line == line) {
                m.poisoned = true;
            }
        }
        let overlaps = |l: &LoadRec| ranges_overlap(l.ea, u64::from(l.bytes), ea, bytes as u64);
        let victim = self.frames.order().iter().copied().find(|&yf| {
            !self.frames.is_committing(yf) && self.frames[yf].performed_loads.iter().any(overlaps)
        });
        if let Some(frame) = victim {
            stats.coherence_flushes += 1;
            tracer.record(now, || TraceKind::Violation { dt, frame });
            let (pos, gen) = (dt_chain_pos(self.index as usize), self.frames.gen(frame));
            // The cause lies on another core, outside this core's
            // graph: the flush hangs off the victim's last event here.
            let ev = self.frames[frame].done_ev;
            nets.gsn_dt.send(now, pos, 0, GsnMsg::Violation { frame, gen, ev });
        }
    }

    fn deppred_index(&self, ea: u64) -> usize {
        ((ea >> 3) as usize ^ (ea >> 13) as usize) % DEPPRED_ENTRIES
    }

    /// One cycle.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        mem: &mut SparseMem,
        memsys: &mut MemSys,
        tracer: &mut Tracer,
    ) {
        let tile = self.tile_id();
        // GCN commit/flush.
        while let Some(msg) = nets.gcn.recv(now, self.geom.gcn_pos(self.tile_id())) {
            match msg {
                GcnMsg::Commit { frame, gen } => {
                    if self.frames.commit_wave(frame, gen) {
                        tracer.record(now, || TraceKind::CommitWave { tile, frame });
                    }
                }
                GcnMsg::Flush { mask, gens } => {
                    tracer.record(now, || TraceKind::FlushWave { tile, mask });
                    let (occupancy, deferred) = (&mut self.occupancy, &mut self.deferred);
                    self.frames.flush(mask, &gens, |frame, f| {
                        *occupancy =
                            occupancy.saturating_sub(f.own_stores.len() + f.performed_loads.len());
                        deferred.remove(frame);
                    });
                }
            }
        }

        // Store mask dispatch from this row's IT.
        let row = self.index as usize + 1;
        while let Some(msg) = nets.gdn_rows[row].recv(now, 1) {
            if let RowMsg::DtMask { frame, gen, store_mask, ev } = msg {
                if self.ensure(frame, gen, true) {
                    let f = &mut self.frames[frame];
                    f.mask_known = true;
                    f.store_mask = LsidMask::from_header(store_mask);
                    f.done_ev = crit.later(f.done_ev, ev);
                    let pending = std::mem::take(&mut f.pending);
                    for p in pending {
                        self.process_req(now, cfg, nets, crit, stats, mem, memsys, p, tracer);
                    }
                }
            }
        }

        // DSN store-arrival broadcasts from the other DTs.
        while let Some(d) = nets.dsn.recv(now, self.index as usize) {
            if self.ensure(d.frame, d.gen, false) {
                let f = &mut self.frames[d.frame];
                f.arrived.insert(d.lsid.into());
                f.done_ev = crit.later(f.done_ev, d.ev);
            }
        }

        // Memory requests from the ETs.
        while let Some(m) = opn_recv(nets, now, self.tile_id(), tracer) {
            let (frame, gen, ev0) = match &m.payload {
                OpnPayload::LoadReq { frame, gen, ev, .. }
                | OpnPayload::StoreReq { frame, gen, ev, .. } => (*frame, *gen, *ev),
                _ => continue,
            };
            if !self.ensure(frame, gen, false) {
                continue;
            }
            let e_arr = crit.opn_arrival(now, ev0, &m);
            let payload = retag(m.payload, e_arr);
            if self.frames[frame].mask_known {
                self.process_req(now, cfg, nets, crit, stats, mem, memsys, payload, tracer);
            } else {
                self.frames[frame].pending.push(payload);
            }
        }

        // South neighbour's commit acks.
        while let Some(msg) = nets.gsn_dt.recv(now, dt_chain_pos(self.index as usize)) {
            if let GsnMsg::StoresCommitted { frame, gen } = msg {
                self.frames.neighbour_ack(frame, gen);
            }
        }

        // Directory invalidations (coherent chips only). The copy is
        // dropped — tag and in-flight fills both — *before* the ack is
        // queued; the ack enters the OCN in the chip's memory phase,
        // after every core tick of this cycle, so the home directory
        // can only count an ack for a copy that is already gone.
        while let Some(line) = memsys.pop_inval(MemClient::Dt(self.index)) {
            self.drop_line(line << 6);
            for m in self.mshrs.iter_mut().filter(|m| m.line == line) {
                m.poisoned = true;
            }
            memsys.ack_inval(MemClient::Dt(self.index), line);
        }

        // Secondary-system completions (only the NUCA backend queues
        // events; the perfect backend resolves fills by timestamp).
        while let Some(ev) = memsys.pop_event(MemClient::Dt(self.index)) {
            match ev {
                MemEvent::Fill { line } => {
                    // Mark the MSHR ready; the fill scan below picks it
                    // up this same cycle.
                    if let Some(m) =
                        self.mshrs.iter_mut().find(|m| m.line == line && m.fill_at == PENDING_FILL)
                    {
                        m.fill_at = now;
                    }
                }
                MemEvent::StoreAck { frame } => {
                    let f = &mut self.frames[FrameId(frame)];
                    f.acks_pending = f.acks_pending.saturating_sub(1);
                }
            }
        }

        // MSHR fills. Filling inline while scanning is safe: install
        // and the response queue never touch `mshrs`.
        let mut k = 0;
        while k < self.mshrs.len() {
            if self.mshrs[k].fill_at <= now {
                let m = self.mshrs.swap_remove(k);
                if !m.poisoned {
                    self.install(m.line << 6);
                }
                for ld in m.waiting {
                    self.respond_q.push((now + L1D_HIT_LAT, ld));
                }
            } else {
                k += 1;
            }
        }

        // Load responses.
        let mut r = 0;
        while r < self.respond_q.len() {
            if self.respond_q[r].0 <= now {
                let (_, ld) = self.respond_q.swap_remove(r);
                self.respond(now, crit, ld);
            } else {
                r += 1;
            }
        }

        // Wake deferred loads whose prior stores have all arrived.
        self.wake_deferred(now, cfg, stats, mem, memsys, tracer);

        // Completion detection and commit draining.
        self.advance_frames(now, cfg, nets, crit, stats, mem, memsys, tracer);

        stats.lsq_peak_occupancy = stats.lsq_peak_occupancy.max(self.occupancy);
        self.outbox.flush(nets, now, self.tile_id(), tracer);
    }

    #[allow(clippy::too_many_arguments)]
    fn process_req(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        mem: &SparseMem,
        memsys: &mut MemSys,
        payload: OpnPayload,
        tracer: &mut Tracer,
    ) {
        match payload {
            OpnPayload::LoadReq { frame, gen, lsid, opcode, ea, target, ev } => {
                let stalled = !cfg.deppred_disabled && self.deppred[self.deppred_index(ea)];
                if stalled && !self.prior_stores_arrived(frame, lsid) {
                    stats.deppred_stalls += 1;
                    self.frames[frame].deferred.push(PendingLoad { lsid, opcode, ea, target, ev });
                    self.deferred.insert(frame);
                    return;
                }
                self.execute_load(
                    now, stats, mem, memsys, frame, gen, lsid, opcode, ea, target, ev, tracer,
                );
            }
            OpnPayload::StoreReq { frame, gen, lsid, ea, val, bytes, nullified, ev } => {
                self.store_arrived(
                    now, nets, crit, stats, frame, gen, lsid, ea, val, bytes, nullified, ev, tracer,
                );
            }
            _ => unreachable!("only memory requests are queued"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_load(
        &mut self,
        now: u64,
        stats: &mut CoreStats,
        mem: &SparseMem,
        memsys: &mut MemSys,
        frame: FrameId,
        gen: Gen,
        lsid: u8,
        opcode: Opcode,
        ea: u64,
        target: Target,
        ev: EvId,
        tracer: &mut Tracer,
    ) {
        let dt = self.index;
        tracer.record(now, || TraceKind::LsqInsert { dt, frame, lsid, store: false });
        let bytes = opcode.access_bytes();
        let (raw, forwarded) = self.load_value(mem, frame, lsid, ea, bytes);
        if forwarded {
            stats.lsq_forwards += 1;
        }
        self.frames[frame].performed_loads.push(LoadRec { lsid, ea, bytes });
        self.occupancy += 1;
        let ld = ExecLoad { frame, gen, opcode, raw, target, ev };
        if self.is_hit(ea) || forwarded {
            stats.l1d_hits += 1;
            self.respond_q.push((now + L1D_HIT_LAT, ld));
        } else {
            stats.l1d_misses += 1;
            let line = ea >> 6;
            if let Some(m) = self.mshrs.iter_mut().find(|m| m.line == line) {
                m.waiting.push(ld);
            } else if self.mshrs.len() < MSHR_LINES {
                let fill_at = match memsys.dside_fill(now, self.index, line) {
                    FillPath::At(t) => t,
                    FillPath::Queued => PENDING_FILL,
                };
                self.mshrs.push(Mshr { line, fill_at, waiting: vec![ld], poisoned: false });
            } else {
                // MSHR full: model a structural stall by serializing
                // behind the earliest fill.
                let earliest =
                    self.mshrs.iter_mut().min_by_key(|m| m.fill_at).expect("MSHR_LINES > 0");
                earliest.waiting.push(ld);
            }
        }
    }

    /// The loaded value: memory overlaid with arrived older stores, in
    /// age order (LSQ store-to-load forwarding, byte-accurate).
    fn load_value(
        &self,
        mem: &SparseMem,
        frame: FrameId,
        lsid: u8,
        ea: u64,
        bytes: u32,
    ) -> (u64, bool) {
        let mut buf = [0u8; 8];
        mem.read_bytes(ea, &mut buf[..bytes as usize]);
        let mut forwarded = false;
        let my_pos = self.frames.age(frame).expect("load frame must be in order");
        for &of in &self.frames.order()[..=my_pos] {
            let fr = &self.frames[of];
            let mut stores: Vec<&StoreRec> = fr.own_stores.iter().collect();
            stores.sort_by_key(|s| s.lsid);
            for s in stores {
                if s.nullified {
                    continue;
                }
                if of == frame && s.lsid >= lsid {
                    continue;
                }
                // Byte overlay.
                for b in 0..u64::from(bytes) {
                    let into = ea.wrapping_add(b).wrapping_sub(s.ea);
                    if into < u64::from(s.bytes) {
                        buf[b as usize] = (s.val >> (8 * into)) as u8;
                        forwarded = true;
                    }
                }
            }
        }
        (u64::from_le_bytes(buf), forwarded)
    }

    fn prior_stores_arrived(&self, frame: FrameId, lsid: u8) -> bool {
        let Some(my_pos) = self.frames.age(frame) else {
            return false;
        };
        for pi in 0..=my_pos {
            let f = &self.frames[self.frames.order()[pi]];
            if pi < my_pos {
                if !f.mask_known || !f.store_mask.is_subset(f.arrived) {
                    return false;
                }
            } else {
                let need = f.store_mask.intersect(LsidMask::below(lsid.into()));
                if !need.is_subset(f.arrived) {
                    return false;
                }
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn store_arrived(
        &mut self,
        now: u64,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        frame: FrameId,
        gen: Gen,
        lsid: u8,
        ea: u64,
        val: u64,
        bytes: u32,
        nullified: bool,
        ev: EvId,
        tracer: &mut Tracer,
    ) {
        let dt = self.index;
        tracer.record(now, || TraceKind::LsqInsert { dt, frame, lsid, store: true });
        {
            let f = &mut self.frames[frame];
            f.arrived.insert(lsid.into());
            f.own_stores.push(StoreRec { lsid, ea, val, bytes, nullified });
            f.done_ev = crit.later(f.done_ev, ev);
        }
        self.occupancy += 1;

        // Broadcast arrival on the DSN so every DT can count (§4.4).
        for other in 0..self.geom.num_dts() {
            if other != self.index as usize {
                nets.dsn.send(now, self.index as usize, other, DsnMsg { frame, gen, lsid, ev });
            }
        }

        // Memory-ordering violation: a younger load already performed
        // against this address without seeing this store (§3.5). The
        // GT is notified over the GSN and flushes from the load's
        // block; the dependence predictor trains on the load address
        // hash (here equal to the conflicting store address range).
        if !nullified {
            if let Some((victim, victim_gen, load_ea)) = self.find_violation(frame, lsid, ea, bytes)
            {
                let di = self.deppred_index(load_ea);
                self.deppred[di] = true;
                stats.violation_flushes += 1;
                tracer.record(now, || TraceKind::Violation { dt, frame: victim });
                nets.gsn_dt.send(
                    now,
                    dt_chain_pos(self.index as usize),
                    0,
                    GsnMsg::Violation { frame: victim, gen: victim_gen, ev },
                );
            }
        }
    }

    /// Finds the oldest performed load that is younger than the
    /// arriving store and overlaps its bytes.
    fn find_violation(
        &self,
        frame: FrameId,
        lsid: u8,
        ea: u64,
        bytes: u32,
    ) -> Option<(FrameId, Gen, u64)> {
        let my_pos = self.frames.age(frame)?;
        for &yf in &self.frames.order()[my_pos..] {
            let f = &self.frames[yf];
            let mut best: Option<&LoadRec> = None;
            for l in &f.performed_loads {
                if yf == frame && l.lsid <= lsid {
                    continue;
                }
                if ranges_overlap(l.ea, u64::from(l.bytes), ea, u64::from(bytes))
                    && best.is_none_or(|b| l.lsid < b.lsid)
                {
                    best = Some(l);
                }
            }
            if let Some(l) = best {
                return Some((yf, self.frames.gen(yf), l.ea));
            }
        }
        None
    }

    fn wake_deferred(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        stats: &mut CoreStats,
        mem: &SparseMem,
        memsys: &mut MemSys,
        tracer: &mut Tracer,
    ) {
        let dt = self.index;
        // `Fast` visits only frames holding a deferred load (`deferred`
        // is exactly the full scan's `active && !deferred.is_empty()`
        // predicate).
        for frame in cfg.tick_mode.walk(self.deferred, self.frames.len()).iter() {
            self.advance_visits += 1;
            let Some((gen, f)) = self.frames.live(frame) else { continue };
            let deferred = std::mem::take(&mut f.deferred);
            for d in deferred {
                if self.prior_stores_arrived(frame, d.lsid) {
                    let lsid = d.lsid;
                    tracer.record(now, || TraceKind::LsqWakeup { dt, frame, lsid });
                    self.execute_load(
                        now, stats, mem, memsys, frame, gen, d.lsid, d.opcode, d.ea, d.target,
                        d.ev, tracer,
                    );
                } else {
                    self.frames[frame].deferred.push(d);
                }
            }
            if self.frames[frame].deferred.is_empty() {
                self.deferred.remove(frame);
            }
        }
    }

    fn respond(&mut self, now: u64, crit: &mut CritPath, ld: ExecLoad) {
        if !self.frames.ok(ld.frame, ld.gen) {
            return;
        }
        let ev = crit.event(now, ld.ev, Cat::Other);
        let tok = Tok::Val(extend_load(ld.opcode, ld.raw));
        match ld.target {
            Target::None => {}
            Target::Inst { idx, slot } => self.outbox.push(
                self.geom.tile_of_inst(idx),
                OpnPayload::Operand { frame: ld.frame, gen: ld.gen, idx, slot, tok, ev },
            ),
            Target::Write { slot } => self.outbox.push(
                self.geom.tile_of_header_slot(slot),
                OpnPayload::WriteVal { frame: ld.frame, gen: ld.gen, wslot: slot, tok, ev },
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_frames(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        mem: &mut SparseMem,
        memsys: &mut MemSys,
        tracer: &mut Tracer,
    ) {
        let index = self.index;
        let my_pos = dt_chain_pos(self.index as usize);
        let north = my_pos - 1;

        // Commit drain: one store per cycle to the cache/memory, through
        // the one port all frames share, oldest committing frame first
        // (two in-flight commits can both store to the same address).
        let mut cursor = 0;
        'drain: while let Some(frame) = self.frames.next_draining(&mut cursor) {
            let f = &mut self.frames[frame];
            if f.stores_drained {
                continue;
            }
            if f.commit_cursor == 0 {
                f.own_stores.sort_by_key(|s| s.lsid);
            }
            loop {
                let f = &mut self.frames[frame];
                let Some(s) = f.own_stores.get(f.commit_cursor).copied() else {
                    f.stores_drained = true;
                    break; // next (younger) frame may use the port
                };
                f.commit_cursor += 1;
                if f.commit_cursor >= f.own_stores.len() {
                    f.stores_drained = true;
                }
                if !s.nullified {
                    stats.stores += 1;
                    // A coherent chip neither writes nor adopts the
                    // line here. The chip writes the store to the one
                    // shared memory at the end of the cycle, so no
                    // core ticking later this cycle sees it early
                    // (this core's younger loads forward from the
                    // LSQ until the ack retires the frame). And the
                    // GetM is still in flight: a silent install would
                    // put a copy in the cache the home directory does
                    // not list (inclusion). The writer re-acquires the
                    // line through a GetS fill like any other reader.
                    if !memsys.is_coherent() {
                        mem.write_uint(s.ea, s.val, s.bytes);
                        self.install(s.ea);
                    }
                    // ESN-style store completion: under the NUCA
                    // backend the line is written back and commit
                    // completion waits for the acknowledgement.
                    if memsys.store_write(self.index, frame.0, s.ea, s.val, s.bytes as usize) {
                        self.frames[frame].acks_pending += 1;
                    }
                    break 'drain; // the store port is spent this cycle
                }
            }
        }

        // A frame's commit work is done once its stores are drained
        // *and* every writeback is acknowledged. The perfect backend
        // never issues writebacks, so this degenerates to drain-done in
        // the same cycle — exactly the pre-backend behaviour. The
        // draining set holds exactly the frames the full scan could
        // flip (a frame already done is a no-op there), so the walk
        // over it is the same transition set.
        for frame in cfg.tick_mode.walk(self.frames.draining(), self.frames.len()).iter() {
            self.advance_visits += 1;
            let f = &self.frames[frame];
            if self.frames.is_committing(frame) && f.stores_drained && f.acks_pending == 0 {
                self.frames.drain_done(frame);
            }
        }

        // Detection only ever acts on active frames, so `Fast` walks
        // the active set (same ascending order the full scan visits
        // them in).
        for frame in cfg.tick_mode.walk(self.frames.active(), self.frames.len()).iter() {
            self.advance_visits += 1;
            // Store-completion detection: the nearest DT notifies the
            // GT (§4.4).
            let Some((gen, f)) = self.frames.live(frame) else { continue };
            if self.index == 0 && f.mask_known && !f.done_sent && f.store_mask.is_subset(f.arrived)
            {
                f.done_sent = true;
                let ev = crit.event(now, f.done_ev, Cat::BlockComplete);
                tracer.record(now, || TraceKind::StoresDone { frame });
                nets.gsn_dt.send(now, my_pos, 0, GsnMsg::StoresDone { frame, gen, ev });
            }
        }

        // Ack + deallocate, strictly oldest-first.
        while let Some((frame, gen)) = self.frames.retire_head() {
            tracer.record(now, || TraceKind::CommitAck { tile: TileId::Dt(index), frame });
            nets.gsn_dt.send(now, my_pos, north, GsnMsg::StoresCommitted { frame, gen });
            let f = &self.frames[frame];
            self.occupancy =
                self.occupancy.saturating_sub(f.own_stores.len() + f.performed_loads.len());
            self.deferred.remove(frame);
            self.blocks_since_clear += 1;
            if self.blocks_since_clear >= DEPPRED_CLEAR_BLOCKS {
                self.blocks_since_clear = 0;
                self.deppred.iter_mut().for_each(|b| *b = false);
            }
        }
    }
}

fn retag(payload: OpnPayload, new_ev: EvId) -> OpnPayload {
    match payload {
        OpnPayload::LoadReq { frame, gen, lsid, opcode, ea, target, .. } => {
            OpnPayload::LoadReq { frame, gen, lsid, opcode, ea, target, ev: new_ev }
        }
        OpnPayload::StoreReq { frame, gen, lsid, ea, val, bytes, nullified, .. } => {
            OpnPayload::StoreReq { frame, gen, lsid, ea, val, bytes, nullified, ev: new_ev }
        }
        other => other,
    }
}
