//! Execution tiles (§3.4).
//!
//! Each ET is a single-issue pipeline with 64 reservation stations
//! (eight per in-flight block), an integer unit, and an FP unit; all
//! units are pipelined except divide. Operands arriving from the OPN
//! wake instructions; a selected instruction executes and routes its
//! result either through the local bypass (back-to-back issue on the
//! same ET) or onto the OPN toward a remote consumer, a register
//! tile's write queue, a data tile (loads/stores), or the GT
//! (branches) — §4.2.

use trips_isa::semantics::{eval, Tok};
use trips_isa::{Instruction, Opcode, OperandNeeds, OperandSlot, Pred, Target};
use trips_micronet::WakeTable;

use crate::config::{CoreConfig, CoreGeometry, StationMask, MAX_FRAMES};
use crate::critpath::{Cat, CritPath};
use crate::frames::{FrameFile, FrameSet};
use crate::gt::GlobalTile;
use crate::msg::{EvId, FrameId, GcnMsg, Gen, OpnPayload, RowMsg, TileId};
use crate::nets::{opn_recv_batch, row_pos_of_col, Nets, OpnOutbox};
use crate::stats::CoreStats;
use crate::trace::{TraceKind, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    Waiting,
    Issued,
    Done,
    Dead,
}

#[derive(Debug, Clone)]
struct Station {
    inst: Instruction,
    idx: u8,
    ops: [Option<(Tok, EvId)>; 3],
    state: SState,
    disp_ev: EvId,
}

/// A frame's body ([`FrameFile`] holds its lifecycle): the stations.
#[derive(Debug, Default)]
struct EtFrame {
    stations: Vec<Option<Station>>,
    /// Bit `s` set iff `stations[s]` is waiting with all needed
    /// operands present — maintained at dispatch and operand delivery
    /// so the select stage walks a mask instead of rescanning every
    /// station each cycle.
    ready: StationMask,
    early: Vec<(u8, OperandSlot, Tok, EvId)>,
    fired: u64,
}

impl EtFrame {
    /// Re-arms the frame in place, preserving the station vector's
    /// length and the `early` buffer's capacity (the prototype used
    /// `EtFrame::default()` here; with geometry-sized `Vec` stations
    /// the replacement would both shrink the array and reallocate
    /// every flush).
    fn reset(&mut self) {
        self.stations.fill(None);
        self.ready = 0;
        self.early.clear();
        self.fired = 0;
    }
}

#[derive(Debug)]
struct InFlight {
    done: u64,
    frame: FrameId,
    gen: Gen,
    slot: usize,
}

/// One execution tile.
pub struct ExecTile {
    /// Grid row (0..geometry rows).
    pub row: u8,
    /// Grid column (0..geometry cols).
    pub col: u8,
    geom: CoreGeometry,
    /// No commit drain, no ack chain, and age is first-touch order:
    /// every message counts as a dispatch (DESIGN.md §5i).
    frames: FrameFile<EtFrame>,
    inflight: Vec<InFlight>,
    local_q: Vec<(u64, FrameId, Gen, u8, OperandSlot, Tok, EvId)>,
    fu_busy_until: u64,
    outbox: OpnOutbox,
    /// Sticky issue-wakeup flag: set whenever a station or operand
    /// arrival may have created an issueable instruction; cleared only
    /// when a full select scan proves nothing can issue (and nothing
    /// was held back by a busy unpipelined unit). While false, the
    /// select stage is provably a no-op, so the clock-gating predicate
    /// can let the tile sleep.
    maybe_ready: bool,
    /// The frames with `ready != 0` — the dirty-frame work list for
    /// the select stage, maintained wherever a `ready` bit is set or
    /// cleared and audited against the frames. A frame with no ready
    /// station contributes nothing to select (its mask walk is empty
    /// and it cannot set the unpipelined-deferral flag), so skipping
    /// it is invisible; `TickMode` only selects which iteration the
    /// tick uses.
    ready_frames: FrameSet,
    /// Frames examined by the select walk (not in [`CoreStats`];
    /// host-side observability for the non-vacuousness tests).
    pub(crate) select_visits: u64,
}

fn slot_ix(slot: OperandSlot) -> usize {
    match slot {
        OperandSlot::Left => 0,
        OperandSlot::Right => 1,
        OperandSlot::Predicate => 2,
    }
}

impl ExecTile {
    /// A fresh ET at (row, col).
    pub fn new(row: u8, col: u8, geom: CoreGeometry) -> ExecTile {
        ExecTile {
            row,
            col,
            geom,
            frames: FrameFile::new(geom.frames, false, || EtFrame {
                stations: vec![None; geom.rs_per_frame],
                ..EtFrame::default()
            }),
            inflight: Vec::with_capacity(geom.rs_per_frame),
            local_q: Vec::with_capacity(geom.rs_per_frame),
            fu_busy_until: 0,
            outbox: OpnOutbox::with_capacity(16),
            maybe_ready: false,
            ready_frames: FrameSet::EMPTY,
            select_visits: 0,
        }
    }

    /// True when nothing is pending.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty() && self.local_q.is_empty() && self.outbox.is_empty()
    }

    /// True while a tick can make progress without a new message:
    /// an instruction may be selectable, an execution is in flight, a
    /// bypass value or outbox message is queued.
    pub(crate) fn busy(&self) -> bool {
        self.maybe_ready || !self.idle()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit): due now while an
    /// instruction may be selectable, the outbox holds operands or an
    /// operand is undrained; else the earliest in-flight completion,
    /// queued bypass delivery or chain-inbox head. A tile with only
    /// waiting stations sleeps — the operand that fills them arrives by
    /// message, and the OPN files it here.
    pub(crate) fn due(&self, nets: &Nets) -> u64 {
        let tile = self.tile_id();
        if self.maybe_ready || !self.outbox.is_empty() || nets.opn_delivered_at(tile) {
            return WakeTable::NOW;
        }
        let timers = self.inflight.iter().map(|f| f.done).chain(self.local_q.iter().map(|q| q.0));
        (timers.min().unwrap_or(WakeTable::ASLEEP))
            .min(nets.gcn.next_arrival(self.geom.gcn_pos(tile)))
            .min(
                nets.gdn_rows[self.row as usize + 1]
                    .next_arrival(row_pos_of_col(self.col as usize)),
            )
    }

    /// Queued work for the hang diagnoser (`None` when idle and no
    /// station waits on a missing operand).
    pub fn diag(&self) -> Option<String> {
        let waiting: usize = (self.frames.active().iter())
            .flat_map(|f| self.frames[f].stations.iter().flatten())
            .filter(|s| s.state == SState::Waiting)
            .count();
        if self.idle() && waiting == 0 {
            return None;
        }
        let mut parts = Vec::new();
        if waiting > 0 {
            parts.push(format!("{waiting} station(s) awaiting operands"));
        }
        if !self.inflight.is_empty() {
            parts.push(format!("{} execution(s) in flight", self.inflight.len()));
        }
        if !self.local_q.is_empty() {
            parts.push(format!("{} bypass value(s) queued", self.local_q.len()));
        }
        if !self.outbox.is_empty() {
            parts.push(format!("outbox {}", self.outbox.len()));
        }
        Some(parts.join(", "))
    }

    /// ET-side protocol invariants (see [`crate::invariants`]).
    pub(crate) fn audit(&self, gt: &GlobalTile) -> Result<(), String> {
        // The label is built on the failing path only: this runs on
        // every ET every checked cycle.
        self.audit_frames(gt).map_err(|e| format!("ET({},{}): {e}", self.row, self.col))
    }

    fn audit_frames(&self, gt: &GlobalTile) -> Result<(), String> {
        let mut ready = FrameSet::EMPTY;
        self.frames.audit(
            |fi| gt.slot(fi),
            |frame, _, f| {
                if f.ready != 0 {
                    ready.insert(frame);
                }
                Ok(())
            },
        )?;
        if ready != self.ready_frames {
            return Err(format!("ready frames {:#b}, recount {ready:#b}", self.ready_frames));
        }
        // First touch gives age: every active frame is ordered (the
        // order holds active frames, each once, so the counts decide).
        if self.frames.order().len() != self.frames.active().iter().count() {
            return Err("an active frame is missing from the activation order".into());
        }
        Ok(())
    }

    fn tile_id(&self) -> TileId {
        TileId::Et(self.row, self.col)
    }

    fn exec_latency(&self, cfg: &CoreConfig, op: Opcode) -> (u64, bool) {
        // (latency, pipelined)
        match op {
            Opcode::Div | Opcode::Divu | Opcode::Mod => (cfg.div_lat, false),
            Opcode::Fdiv | Opcode::Fsqrt => (cfg.fdiv_lat, false),
            Opcode::Mul => (cfg.mul_lat, true),
            o if o.is_fp() => (cfg.fp_lat, true),
            _ => (cfg.int_lat, true),
        }
    }

    /// [`FrameFile::ensure`] with this tile's body reset; any message
    /// gives the frame its age.
    fn ensure(&mut self, frame: FrameId, gen: Gen) -> bool {
        let ready_frames = &mut self.ready_frames;
        self.frames.ensure(frame, gen, true, |f| {
            f.reset();
            ready_frames.remove(frame);
        })
    }

    /// The GCN flush wave (and, one frame wide, the commit wave).
    fn flush(&mut self, mask: FrameSet, gens: &[Gen; MAX_FRAMES]) {
        let ready_frames = &mut self.ready_frames;
        self.frames.flush(mask, gens, |frame, f| {
            f.ready = 0;
            ready_frames.remove(frame);
        });
    }

    /// One cycle.
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        let tile = self.tile_id();
        // GCN commit/flush.
        while let Some(msg) = nets.gcn.recv(now, self.geom.gcn_pos(tile)) {
            match msg {
                GcnMsg::Commit { frame, gen } => {
                    if self.frames.ok(frame, gen) {
                        tracer.record(now, || TraceKind::CommitWave { tile, frame });
                        stats.insts_committed += self.frames[frame].fired;
                        // The commit command flushes remaining
                        // speculative in-flight state for the block
                        // (§4.4): for an ET it *is* a flush of that one
                        // frame to the next generation — matching the
                        // GT's deallocation bump, so straggler operands
                        // of this incarnation are recognized as stale.
                        let mut gens = [0; MAX_FRAMES];
                        gens[frame.0 as usize] = gen + 1;
                        self.flush(FrameSet::bit(frame), &gens);
                    }
                }
                GcnMsg::Flush { mask, gens } => {
                    tracer.record(now, || TraceKind::FlushWave { tile, mask });
                    self.flush(mask, &gens);
                }
            }
        }

        // Instruction dispatch from this row's IT.
        let row_chain = self.row as usize + 1;
        let pos = row_pos_of_col(self.col as usize);
        while let Some(msg) = nets.gdn_rows[row_chain].recv(now, pos) {
            if let RowMsg::Inst { frame, gen, idx, inst, ev } = msg {
                if !self.ensure(frame, gen) {
                    continue;
                }
                let dev = crit.event(now, ev, Cat::IFetch, now.saturating_sub(crit.time_of(ev)));
                let slot = self.geom.inst_slot(idx);
                let f = &mut self.frames[frame];
                debug_assert!(f.stations[slot].is_none(), "reservation station collision");
                let mut st =
                    Station { inst, idx, ops: [None; 3], state: SState::Waiting, disp_ev: dev };
                // Apply any operands that arrived early.
                let early = std::mem::take(&mut f.early);
                for (eidx, eslot, tok, eev) in early {
                    if eidx == idx {
                        st.ops[slot_ix(eslot)] = Some((tok, eev));
                    } else {
                        f.early.push((eidx, eslot, tok, eev));
                    }
                }
                check_dead(&mut st);
                if st.state == SState::Waiting && is_ready(&st) {
                    f.ready |= 1 << slot;
                    self.ready_frames.insert(frame);
                }
                f.stations[slot] = Some(st);
                self.maybe_ready = true;
            }
        }

        // OPN operand arrivals, one batched drain per cycle. Operands
        // may beat this ET's dispatch beats, so arrival activates the
        // frame and buffers early.
        opn_recv_batch(nets, now, self.tile_id(), tracer, |m| {
            let (hops, queued) = (m.hops, m.queued);
            if let OpnPayload::Operand { frame, gen, idx, slot, tok, ev } = m.payload {
                if !self.ensure(frame, gen) {
                    return;
                }
                let e_hop =
                    crit.event(now - u64::from(queued), ev, Cat::OpnHop, u64::from(hops) + 1);
                let e_arr = crit.event(now, e_hop, Cat::OpnContention, u64::from(queued));
                self.deliver_operand(frame, idx, slot, tok, e_arr);
            }
        });

        // Completion of in-flight executions (before local bypass
        // delivery so a result can reach a same-ET consumer in time
        // for back-to-back issue, §4.2). finish() never touches
        // `inflight`, so finishing inline while scanning is safe.
        let mut j = 0;
        while j < self.inflight.len() {
            if self.inflight[j].done <= now {
                let fin = self.inflight.swap_remove(j);
                self.finish(now, fin, crit, stats);
            } else {
                j += 1;
            }
        }

        // Local bypass deliveries.
        let mut i = 0;
        while i < self.local_q.len() {
            if self.local_q[i].0 <= now {
                let (_, frame, gen, idx, slot, tok, ev) = self.local_q.swap_remove(i);
                if self.frames.ok(frame, gen) {
                    self.deliver_operand(frame, idx, slot, tok, ev);
                }
            } else {
                i += 1;
            }
        }

        // Select and issue one ready instruction (oldest frame first).
        self.select_and_issue(now, cfg, crit, stats);

        self.outbox.flush(nets, now, self.tile_id(), tracer);
    }

    fn deliver_operand(&mut self, frame: FrameId, idx: u8, slot: OperandSlot, tok: Tok, ev: EvId) {
        self.maybe_ready = true;
        let sslot = self.geom.inst_slot(idx);
        let f = &mut self.frames[frame];
        match &mut f.stations[sslot] {
            Some(st) if st.idx == idx => {
                let cell = &mut st.ops[slot_ix(slot)];
                assert!(
                    cell.is_none(),
                    "double operand delivery to N[{idx}] {slot} at ET({},{})",
                    self.row,
                    self.col
                );
                *cell = Some((tok, ev));
                check_dead(st);
                if st.state == SState::Waiting && is_ready(st) {
                    f.ready |= 1 << sslot;
                    self.ready_frames.insert(frame);
                }
            }
            _ => f.early.push((idx, slot, tok, ev)),
        }
    }

    fn select_and_issue(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        crit: &mut CritPath,
        stats: &mut CoreStats,
    ) {
        if !self.maybe_ready {
            // No station became selectable since the last empty scan;
            // the walk below would find nothing.
            return;
        }
        // A ready station skipped only because the unpipelined unit is
        // busy must keep the wakeup flag set: it becomes selectable
        // again by the passage of time alone, with no new message.
        let mut deferred = false;
        // The first issue returns, so nothing below mutates
        // `ready_frames` while this snapshot is still consulted.
        let visit = cfg.tick_mode.walk(self.ready_frames, self.frames.len());
        for oi in 0..self.frames.order().len() {
            let frame = self.frames.order()[oi];
            if !visit.contains(frame) {
                // A frame with an empty ready mask yields an empty
                // walk below and cannot set `deferred`; skipping it
                // is invisible.
                continue;
            }
            self.select_visits += 1;
            // The ready mask tracks exactly the stations the old full
            // scan would have accepted (waiting, operands complete),
            // in the same slot order.
            let mut mask = self.frames[frame].ready;
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let st =
                    self.frames[frame].stations[slot].as_ref().expect("ready bit implies station");
                debug_assert!(st.state == SState::Waiting && is_ready(st), "stale ready bit");
                let (lat, pipelined) = self.exec_latency(cfg, st.inst.opcode);
                if !pipelined && self.fu_busy_until > now {
                    deferred = true;
                    continue;
                }
                // Issue.
                let gen = self.frames.gen(frame);
                let f = &mut self.frames[frame];
                f.ready &= !(1 << slot);
                if f.ready == 0 {
                    self.ready_frames.remove(frame);
                }
                f.fired += 1;
                let st = f.stations[slot].as_mut().expect("checked above");
                st.state = SState::Issued;
                let mut parent = st.disp_ev;
                for op in st.ops.iter().flatten() {
                    parent = crit.later(parent, op.1);
                }
                let iev =
                    crit.event(now, parent, Cat::Other, now.saturating_sub(crit.time_of(parent)));
                st.disp_ev = iev; // reuse the field to carry the issue event
                if !pipelined {
                    self.fu_busy_until = now + lat;
                }
                stats.insts_executed += 1;
                if st.inst.opcode == Opcode::Mov {
                    stats.fanout_movs += 1;
                }
                self.inflight.push(InFlight { done: now + lat, frame, gen, slot });
                return;
            }
        }
        // Full scan, nothing issued: the flag stays set only if a
        // ready station was held back by a busy unpipelined unit.
        self.maybe_ready = deferred;
    }

    fn finish(&mut self, now: u64, fin: InFlight, crit: &mut CritPath, stats: &mut CoreStats) {
        if !self.frames.ok(fin.frame, fin.gen) {
            return;
        }
        let gen = fin.gen;
        let st = {
            let f = &mut self.frames[fin.frame];
            let Some(st) = f.stations[fin.slot].as_mut() else {
                return;
            };
            st.state = SState::Done;
            st.clone()
        };
        let inst = st.inst;
        let iev = st.disp_ev;
        let cat = if inst.opcode == Opcode::Mov { Cat::Fanout } else { Cat::Other };
        let dev = crit.event(now, iev, cat, now.saturating_sub(crit.time_of(iev)).max(1));

        let l = st.ops[0].map(|(t, _)| t);
        let r = st.ops[1].map(|(t, _)| t);
        let nullified = l == Some(Tok::Null) || r == Some(Tok::Null) || pred_is_null(&st);

        if inst.opcode.is_store() {
            let (ea, val, dst) = if nullified {
                (0, 0, TileId::Dt(self.geom.dt_of_lsid(inst.lsid)))
            } else {
                let a = l.and_then(Tok::value).expect("store address");
                let v = r.and_then(Tok::value).expect("store data");
                let ea = a.wrapping_add(inst.imm as i64 as u64);
                (ea, v, self.geom.tile_of_addr(ea))
            };
            self.outbox.push(
                dst,
                OpnPayload::StoreReq {
                    frame: fin.frame,
                    gen,
                    lsid: inst.lsid,
                    ea,
                    val,
                    bytes: inst.opcode.access_bytes(),
                    nullified,
                    ev: dev,
                },
            );
        } else if inst.opcode.is_load() {
            if nullified {
                // A nullified load delivers null straight to its
                // consumers; it is not a block output.
                for t in inst.live_targets() {
                    self.route_value(now, fin.frame, gen, t, Tok::Null, dev);
                }
            } else {
                let a = l.and_then(Tok::value).expect("load address");
                let ea = a.wrapping_add(inst.imm as i64 as u64);
                stats.loads += 1;
                self.outbox.push(
                    self.geom.tile_of_addr(ea),
                    OpnPayload::LoadReq {
                        frame: fin.frame,
                        gen,
                        lsid: inst.lsid,
                        opcode: inst.opcode,
                        ea,
                        target: inst.targets[0],
                        ev: dev,
                    },
                );
            }
        } else if let Some(kind) = inst.opcode.branch_kind() {
            let reg_target = if inst.opcode.format() == trips_isa::Format::G {
                Some(l.and_then(Tok::value).unwrap_or(0))
            } else {
                None
            };
            self.outbox.push(
                TileId::Gt,
                OpnPayload::Branch {
                    frame: fin.frame,
                    gen,
                    kind,
                    exit: inst.exit,
                    offset: inst.imm,
                    reg_target,
                    ev: dev,
                },
            );
        } else {
            // A value producer.
            let tok = if inst.opcode == Opcode::Null || nullified {
                Tok::Null
            } else {
                let lv = l.and_then(Tok::value).unwrap_or(0);
                let rv = r.and_then(Tok::value).unwrap_or(0);
                Tok::Val(eval(inst.opcode, lv, rv, inst.imm))
            };
            for t in inst.live_targets() {
                self.route_value(now, fin.frame, gen, t, tok, dev);
            }
        }
    }

    fn route_value(
        &mut self,
        now: u64,
        frame: FrameId,
        gen: Gen,
        target: Target,
        tok: Tok,
        ev: EvId,
    ) {
        match target {
            Target::None => {}
            Target::Inst { idx, slot } => {
                let dest = self.geom.tile_of_inst(idx);
                if dest == self.tile_id() {
                    // Local bypass: delivered this cycle so the
                    // consumer can issue back-to-back next cycle.
                    self.local_q.push((now, frame, gen, idx, slot, tok, ev));
                } else {
                    self.outbox.push(dest, OpnPayload::Operand { frame, gen, idx, slot, tok, ev });
                }
            }
            Target::Write { slot } => {
                self.outbox.push(
                    self.geom.tile_of_header_slot(slot),
                    OpnPayload::WriteVal { frame, gen, wslot: slot, tok, ev },
                );
            }
        }
    }
}

fn pred_is_null(st: &Station) -> bool {
    st.inst.pred != Pred::None && st.ops[2].map(|(t, _)| t) == Some(Tok::Null)
}

fn is_ready(st: &Station) -> bool {
    let needs = st.inst.opcode.needs();
    let data_ok = match needs {
        OperandNeeds::None => true,
        OperandNeeds::Left => st.ops[0].is_some(),
        OperandNeeds::LeftRight => st.ops[0].is_some() && st.ops[1].is_some(),
    };
    let pred_ok = st.inst.pred == Pred::None || st.ops[2].is_some();
    data_ok && pred_ok
}

/// Marks a station dead when its predicate has arrived and mismatches.
fn check_dead(st: &mut Station) {
    if st.inst.pred == Pred::None || st.state != SState::Waiting {
        return;
    }
    if let Some((Tok::Val(v), _)) = st.ops[2] {
        if !st.inst.pred.matches(v) {
            st.state = SState::Dead;
        }
    }
}
