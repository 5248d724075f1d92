//! The global control tile (§3.1, §4).
//!
//! The GT owns block management: next-block prediction, the 13-cycle
//! fetch pipeline (tag/hit-miss, prediction, then eight pipelined GDN
//! dispatch beats), I-cache refills over the GRN, completion detection
//! from the GSN daisy chains, misprediction and violation flushes over
//! the GCN, and the three-phase commit protocol (§4.4). It holds the
//! state of all eight in-flight frames.

use trips_isa::mem::SparseMem;
use trips_isa::{decode_header, BlockFlags, BranchKind, CHUNK_BYTES};
use trips_micronet::WakeTable;

use crate::config::{CoreConfig, CoreGeometry, TickMode, MAX_FRAMES};
use crate::critpath::{Cat, CritPath, NO_EVENT};
use crate::diag::FrameDiag;
use crate::fault::StormState;
use crate::frames::FrameSet;
use crate::msg::{EvId, FrameId, GcnMsg, GdnFetch, Gen, GrnRefill, GsnMsg, OpnPayload, TileId};
use crate::nets::{it_col_pos, opn_recv, Nets};
use crate::predictor::{NextBlockPredictor, PredictorCheckpoint};
use crate::profile::{TickPhase, TickProfile};
use crate::stats::CoreStats;
use crate::trace::{TraceKind, Tracer};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FState {
    Free,
    Fetching,
    Executing,
    Complete,
    Committing,
}

#[derive(Debug, Clone, Copy)]
struct ResolvedBranch {
    kind: BranchKind,
    exit: u8,
    /// `None` means halt: nothing follows this block.
    target: Option<u64>,
}

#[derive(Debug, Clone)]
struct Frame {
    state: FState,
    gen: Gen,
    pc: u64,
    size: u64,
    chunks: u8,
    store_mask: u32,
    flags: BlockFlags,
    predicted_next: Option<u64>,
    pred_cp: Option<PredictorCheckpoint>,
    hist_at_predict: u32,
    writes_done: bool,
    stores_done: bool,
    branch: Option<ResolvedBranch>,
    commit_sent: bool,
    rt_ack: bool,
    dt_ack: bool,
    t_fetch: u64,
    t_dispatch: u64,
    t_complete: u64,
    t_commit: u64,
    fetch_ev: EvId,
    writes_ev: EvId,
    stores_ev: EvId,
    branch_ev: EvId,
    complete_ev: EvId,
    commit_ev: EvId,
}

impl Default for Frame {
    fn default() -> Frame {
        Frame {
            state: FState::Free,
            gen: 0,
            pc: 0,
            size: 0,
            chunks: 0,
            store_mask: 0,
            flags: BlockFlags::empty(),
            predicted_next: None,
            pred_cp: None,
            hist_at_predict: 0,
            writes_done: false,
            stores_done: false,
            branch: None,
            commit_sent: false,
            rt_ack: false,
            dt_ack: false,
            t_fetch: 0,
            t_dispatch: 0,
            t_complete: 0,
            t_commit: 0,
            fetch_ev: NO_EVENT,
            writes_ev: NO_EVENT,
            stores_ev: NO_EVENT,
            branch_ev: NO_EVENT,
            complete_ev: NO_EVENT,
            commit_ev: NO_EVENT,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    Tag { done_at: u64 },
    Refill,
    Predict { done_at: u64 },
    AwaitDispatch,
}

#[derive(Debug, Clone, Copy)]
struct FetchOp {
    frame: FrameId,
    pc: u64,
    stage: Stage,
}

/// The global control tile.
pub struct GlobalTile {
    geom: CoreGeometry,
    frames: Vec<Frame>,
    order: VecDeque<FrameId>,
    next_pc: Option<u64>,
    pc_ready_ev: EvId,
    fetch: Option<FetchOp>,
    dispatch_free_at: u64,
    itag: Vec<Vec<Option<u64>>>,
    itag_lru: Vec<u8>,
    /// The next-block predictor.
    pub predictor: NextBlockPredictor,
    halt_pending: bool,
    /// True once the halt block deallocated and the machine drained.
    pub halted: bool,
    slot_free_ev: Vec<EvId>,
    last_commit_ev: EvId,
    /// Event of the final deallocation, the root for the critical-path
    /// walk.
    pub final_ev: EvId,
    /// Fault-plan flush storm (`None` on the production path).
    storm: Option<StormState>,
}

const ITAG_SETS: usize = 64;
const ITAG_WAYS: usize = 2;

impl GlobalTile {
    /// A GT that will start fetching at `entry`.
    pub fn new(cfg: &CoreConfig, entry: u64) -> GlobalTile {
        GlobalTile {
            geom: cfg.geometry,
            frames: vec![Frame::default(); cfg.geometry.frames],
            order: VecDeque::new(),
            next_pc: Some(entry),
            pc_ready_ev: NO_EVENT,
            fetch: None,
            dispatch_free_at: 0,
            itag: vec![vec![None; ITAG_WAYS]; ITAG_SETS],
            itag_lru: vec![0; ITAG_SETS],
            predictor: NextBlockPredictor::new(cfg.predictor),
            halt_pending: false,
            halted: false,
            slot_free_ev: vec![NO_EVENT; cfg.geometry.frames],
            last_commit_ev: NO_EVENT,
            final_ev: NO_EVENT,
            storm: cfg.faults.as_ref().and_then(crate::fault::FaultPlan::storm_state),
        }
    }

    /// In-flight frame count.
    pub fn in_flight(&self) -> usize {
        self.order.len()
    }

    /// Frame slot `fi`'s current generation and whether it is free (for
    /// the tile audits' cross-tile generation comparison).
    pub(crate) fn slot(&self, fi: usize) -> (Gen, bool) {
        let f = &self.frames[fi];
        (f.gen, f.state == FState::Free)
    }

    /// GT-internal protocol invariants, checked every tick under
    /// fuzzing (see [`crate::invariants`] for the full catalogue).
    pub(crate) fn audit(&self) -> Result<(), String> {
        // Age order holds each in-flight frame exactly once.
        let mut seen = FrameSet::EMPTY;
        for &f in &self.order {
            if seen.contains(f) {
                return Err(format!("frame {} appears twice in the GT age order", f.0));
            }
            seen.insert(f);
        }
        for fi in 0..self.frames.len() {
            let f = &self.frames[fi];
            let in_order = seen.contains(FrameId(fi as u8));
            if in_order == (f.state == FState::Free) {
                return Err(format!(
                    "frame {fi} is {:?} but {} the GT age order",
                    f.state,
                    if in_order { "in" } else { "not in" }
                ));
            }
            // Completion strictly requires every §4.4 completion input.
            if matches!(f.state, FState::Complete | FState::Committing)
                && !(f.writes_done && f.stores_done && f.branch.is_some())
            {
                return Err(format!(
                    "frame {fi} reached {:?} with wd={} sd={} branch={}",
                    f.state,
                    f.writes_done,
                    f.stores_done,
                    f.branch.is_some()
                ));
            }
            // Commit acks may only arrive for a sent commit command.
            if (f.rt_ack || f.dt_ack) && !f.commit_sent {
                return Err(format!(
                    "frame {fi} holds a commit ack (rt={} dt={}) before its commit command",
                    f.rt_ack, f.dt_ack
                ));
            }
            if f.commit_sent && f.state != FState::Committing {
                return Err(format!("frame {fi} sent commit but is {:?}", f.state));
            }
        }
        // Commit commands go out in age order: the committing frames
        // form a prefix of the age order (§4.4 pipelined commit).
        let mut prefix_over = false;
        for &f in &self.order {
            let sent = self.frames[f.0 as usize].commit_sent;
            if prefix_over && sent {
                return Err(format!("frame {} committed out of age order", f.0));
            }
            if !sent {
                prefix_over = true;
            }
        }
        Ok(())
    }

    /// True while a tick can make progress without a new message: a
    /// fetch is staged, a next PC awaits a free frame, or any block is
    /// in flight (in-flight blocks pipeline commit commands and
    /// deallocate across cycles with no further input).
    pub(crate) fn busy(&self) -> bool {
        self.fetch.is_some() || self.next_pc.is_some() || !self.order.is_empty()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit). Due now mirrors each
    /// tick phase's own progress condition: a commit command ready to
    /// issue, a completed-but-unconverted block, a fully-acked head
    /// block, a startable fetch, an undrained branch operand. Otherwise
    /// the earliest of the fetch FSM's timer (tag/predict latency,
    /// dispatch pacing) and the three status-chain heads; a GT whose
    /// every in-flight block waits on micronet input sleeps until the
    /// chain or OPN carrying it files the arrival here.
    pub(crate) fn due(&self, max_frames: usize, nets: &Nets) -> u64 {
        // Commit pipeline: a command goes out once the first unsent
        // block (in age order) is Complete; an Executing block with
        // all three done-conditions converts this tick.
        for &frame in &self.order {
            let f = &self.frames[frame.0 as usize];
            if f.commit_sent {
                continue;
            }
            if f.state == FState::Complete
                || (f.state == FState::Executing
                    && f.writes_done
                    && f.stores_done
                    && f.branch.is_some())
            {
                return WakeTable::NOW;
            }
            break;
        }
        // Dealloc: the head block pops once both commit acks are in.
        if let Some(&frame) = self.order.front() {
            let f = &self.frames[frame.0 as usize];
            if f.state == FState::Committing && f.rt_ack && f.dt_ack {
                return WakeTable::NOW;
            }
        }
        let mut timer = WakeTable::ASLEEP;
        if let Some(op) = &self.fetch {
            match op.stage {
                Stage::Tag { done_at } | Stage::Predict { done_at } => timer = done_at,
                // Waits on a GSN-IT RefillDone message.
                Stage::Refill => {}
                Stage::AwaitDispatch => {
                    let fi = op.frame.0 as usize;
                    let inhibit = self.frames[fi].flags.contains(BlockFlags::INHIBIT_SPECULATION);
                    let oldest = self.order.front() == Some(&op.frame);
                    if !inhibit || oldest {
                        timer = self.dispatch_free_at;
                    }
                    // else: gated until older blocks drain, which the
                    // commit/dealloc conditions above track.
                }
            }
        } else if !self.halt_pending
            && !self.halted
            && self.next_pc.is_some()
            && self.order.len() < max_frames
            && self.frames.iter().any(|f| f.state == FState::Free)
        {
            return WakeTable::NOW;
        }
        if nets.opn_delivered_at(TileId::Gt) {
            return WakeTable::NOW;
        }
        timer
            .min(nets.gsn_rt.next_arrival(0))
            .min(nets.gsn_dt.next_arrival(0))
            .min(nets.gsn_it.next_arrival(0))
    }

    /// Per-frame status for the hang diagnoser, in age order.
    pub fn frame_diags(&self) -> Vec<FrameDiag> {
        self.order
            .iter()
            .map(|&frame| {
                let f = &self.frames[frame.0 as usize];
                let mut waiting = Vec::new();
                if f.state == FState::Fetching {
                    waiting.push("dispatch");
                }
                if f.state == FState::Executing {
                    if !f.writes_done {
                        waiting.push("register writes (GSN WritesDone)");
                    }
                    if !f.stores_done {
                        waiting.push("stores (GSN StoresDone)");
                    }
                    if f.branch.is_none() {
                        waiting.push("branch (OPN)");
                    }
                }
                if f.state == FState::Complete && !f.commit_sent {
                    waiting.push("older blocks' commit commands");
                }
                if f.state == FState::Committing {
                    if !f.rt_ack {
                        waiting.push("RT commit ack");
                    }
                    if !f.dt_ack {
                        waiting.push("DT commit ack");
                    }
                }
                FrameDiag {
                    frame: frame.0,
                    state: format!("{:?}", f.state),
                    pc: f.pc,
                    waiting_on: waiting.join(", "),
                }
            })
            .collect()
    }

    /// A human-readable snapshot of GT state, for diagnosing hangs.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "GT: next_pc={:x?} halt_pending={} halted={} fetch={:?} order={:?}",
            self.next_pc, self.halt_pending, self.halted, self.fetch, self.order
        );
        for (i, f) in self.frames.iter().enumerate() {
            if f.state == FState::Free {
                continue;
            }
            let _ = writeln!(
                s,
                "  frame {i}: {:?} gen={} pc={:#x} wd={} sd={} br={:?} cs={} rta={} dta={} pred={:x?}",
                f.state,
                f.gen,
                f.pc,
                f.writes_done,
                f.stores_done,
                f.branch,
                f.commit_sent,
                f.rt_ack,
                f.dt_ack,
                f.predicted_next,
            );
        }
        s
    }

    fn itag_lookup(&self, addr: u64) -> bool {
        let set = ((addr >> 7) as usize) % ITAG_SETS;
        let tag = addr >> 13;
        self.itag[set].contains(&Some(tag))
    }

    fn itag_insert(&mut self, addr: u64) {
        let set = ((addr >> 7) as usize) % ITAG_SETS;
        let tag = addr >> 13;
        if self.itag[set].contains(&Some(tag)) {
            return;
        }
        let way = self.itag_lru[set] as usize % ITAG_WAYS;
        self.itag[set][way] = Some(tag);
        self.itag_lru[set] = (self.itag_lru[set] + 1) % ITAG_WAYS as u8;
    }

    /// One cycle.
    ///
    /// Under [`TickMode::Fast`] the tick is two passes — the chain
    /// heads, then one walk over the in-flight frames in age order
    /// doing completion, commit issue, and dealloc together. Under
    /// [`TickMode::Reference`] it is the six sequential phases the
    /// protocol is specified as (§4.2–4.4). The two orders are
    /// bit-identical (derivation in DESIGN.md §5b).
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        mem: &SparseMem,
        tracer: &mut Tracer,
        prof: &mut TickProfile,
    ) {
        let fused = cfg.tick_mode == TickMode::Fast;
        let t = prof.begin();
        self.drain_status(now, nets, crit);
        self.drain_branches(now, nets, crit, stats, tracer);
        if fused {
            self.recv_refills(now, nets);
        }
        prof.end(TickPhase::GtChains, t);
        let t = prof.begin();
        if fused {
            self.advance_frames_fused(now, nets, crit, stats, tracer);
        } else {
            self.check_completion(now, crit, tracer);
            self.issue_commit(now, nets, crit, tracer);
            self.dealloc(now, crit, stats, tracer);
        }
        prof.end(TickPhase::GtFrames, t);
        let t = prof.begin();
        if !fused {
            self.recv_refills(now, nets);
        }
        self.fetch_advance(now, cfg, nets, crit, stats, mem, tracer);
        prof.end(TickPhase::GtFetch, t);
    }

    fn frame_ok(&self, frame: FrameId, gen: Gen) -> bool {
        let f = &self.frames[frame.0 as usize];
        f.state != FState::Free && f.gen == gen
    }

    fn drain_status(&mut self, now: u64, nets: &mut Nets, crit: &mut CritPath) {
        let mut violations: Vec<(FrameId, Gen)> = Vec::new();
        while let Some(msg) = nets.gsn_rt.recv(now, 0) {
            match msg {
                GsnMsg::WritesDone { frame, gen, ev } if self.frame_ok(frame, gen) => {
                    let f = &mut self.frames[frame.0 as usize];
                    f.writes_done = true;
                    f.writes_ev = ev;
                }
                GsnMsg::WritesCommitted { frame, gen } if self.frame_ok(frame, gen) => {
                    self.frames[frame.0 as usize].rt_ack = true;
                }
                _ => {}
            }
        }
        while let Some(msg) = nets.gsn_dt.recv(now, 0) {
            match msg {
                GsnMsg::StoresDone { frame, gen, ev } if self.frame_ok(frame, gen) => {
                    let f = &mut self.frames[frame.0 as usize];
                    f.stores_done = true;
                    f.stores_ev = ev;
                }
                GsnMsg::StoresCommitted { frame, gen } if self.frame_ok(frame, gen) => {
                    self.frames[frame.0 as usize].dt_ack = true;
                }
                GsnMsg::Violation { frame, gen } => violations.push((frame, gen)),
                _ => {}
            }
        }
        // Refill completions are consumed by the fetch FSM; violations
        // flush from the mis-speculated load's block, inclusive.
        for (frame, gen) in violations {
            if !self.frame_ok(frame, gen) {
                continue;
            }
            if self.frames[frame.0 as usize].commit_sent {
                continue; // too late to matter; cannot happen in order
            }
            let pc = self.frames[frame.0 as usize].pc;
            if let Some(cp) = self.frames[frame.0 as usize].pred_cp {
                self.predictor.restore(cp);
            }
            self.flush_from(now, frame, true, Some(pc), NO_EVENT, nets, crit);
        }
    }

    fn drain_branches(
        &mut self,
        now: u64,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        while let Some(m) = opn_recv(nets, now, TileId::Gt, tracer) {
            let (hops, queued) = (m.hops, m.queued);
            let OpnPayload::Branch { frame, gen, kind, exit, offset, reg_target, ev } = m.payload
            else {
                continue;
            };
            if !self.frame_ok(frame, gen) {
                continue;
            }
            let fi = frame.0 as usize;
            if self.frames[fi].branch.is_some() {
                panic!("block {frame:?} fired more than one branch");
            }
            let e_hop = crit.event(now - u64::from(queued), ev, Cat::OpnHop, u64::from(hops) + 1);
            let e_arr = crit.event(now, e_hop, Cat::OpnContention, u64::from(queued));
            let target = match kind {
                BranchKind::Halt => None,
                _ => Some(reg_target.unwrap_or_else(|| {
                    self.frames[fi].pc.wrapping_add((i64::from(offset) * CHUNK_BYTES as i64) as u64)
                })),
            };
            self.frames[fi].branch = Some(ResolvedBranch { kind, exit, target });
            self.frames[fi].branch_ev = e_arr;

            // Misprediction check against the target used to continue
            // the fetch stream past this block.
            let predicted = self.frames[fi].predicted_next;
            let mispredicted = predicted != target;
            if mispredicted {
                stats.mispredictions += 1;
                stats.branch_flushes += 1;
                // Repair speculative predictor state: rewind to the
                // checkpoint taken before predicting this block's
                // successor, then apply the actual outcome.
                let f = &self.frames[fi];
                let (pc, size) = (f.pc, f.size);
                if let Some(cp) = f.pred_cp {
                    self.predictor.restore(cp);
                    self.predictor.apply_outcome(exit, kind, pc + size);
                }
                if kind == BranchKind::Halt {
                    self.halt_pending = true;
                }
                self.flush_from(now, frame, false, target, e_arr, nets, crit);
            } else if kind != BranchKind::Halt && target.is_some() {
                // Fault-plan flush storm: treat a *correctly* predicted
                // branch as a misprediction — destroy all younger
                // speculative work and refetch from the (correct)
                // target. Exercises the §4.3 flush protocol far more
                // often than real mispredictions would; architectural
                // state is unchanged because only speculative frames
                // die and the restart PC is the true successor.
                let storm = self.storm.as_mut().is_some_and(StormState::roll);
                if storm {
                    stats.protocol.forced_flushes += 1;
                    let f = &self.frames[fi];
                    let (pc, size) = (f.pc, f.size);
                    if let Some(cp) = f.pred_cp {
                        // Same predictor repair as a real mispredict:
                        // rewind, then replay the actual outcome.
                        self.predictor.restore(cp);
                        self.predictor.apply_outcome(exit, kind, pc + size);
                    }
                    self.flush_from(now, frame, false, target, e_arr, nets, crit);
                }
            }
        }
    }

    /// Flushes speculative frames: every frame younger than `frame`,
    /// and `frame` itself when `inclusive` (violation replay). Restart
    /// fetch at `new_pc`.
    #[allow(clippy::too_many_arguments)]
    fn flush_from(
        &mut self,
        now: u64,
        frame: FrameId,
        inclusive: bool,
        new_pc: Option<u64>,
        cause_ev: EvId,
        nets: &mut Nets,
        crit: &mut CritPath,
    ) {
        let Some(pos) = self.order.iter().position(|&x| x == frame) else {
            return;
        };
        let first_victim = if inclusive { pos } else { pos + 1 };
        let mut mask = FrameSet::EMPTY;
        let mut gens = [0u32; MAX_FRAMES];
        for (g, f) in gens.iter_mut().zip(&self.frames) {
            *g = f.gen;
        }
        while self.order.len() > first_victim {
            let v = self.order.pop_back().expect("length checked");
            let vi = v.0 as usize;
            mask.insert(v);
            let f = &mut self.frames[vi];
            let gen = f.gen + 1;
            *f = Frame { gen, ..Frame::default() };
            gens[vi] = gen;
            self.slot_free_ev[vi] = cause_ev;
        }
        if self.fetch.is_some_and(|op| mask.contains(op.frame)) {
            self.fetch = None;
        }
        if !mask.is_empty() {
            nets.gcn_broadcast(now, GcnMsg::Flush { mask, gens });
        }
        self.next_pc = new_pc;
        self.pc_ready_ev = crit.event(now, cause_ev, Cat::Other, 1);
        // A squashed halt observation must not keep gating fetch.
        if !self.halted {
            self.halt_pending = self.order.iter().any(|&f| {
                matches!(
                    self.frames[f.0 as usize].branch,
                    Some(ResolvedBranch { kind: BranchKind::Halt, .. })
                )
            });
        }
    }

    /// Converts frame `fi` to `Complete` when all its inputs are in.
    /// The predicate and the critical-path parents read only the
    /// frame's own state, so the conversion is order-independent
    /// across frames of one cycle.
    fn try_complete(&mut self, fi: usize, now: u64, crit: &mut CritPath, tracer: &mut Tracer) {
        let f = &mut self.frames[fi];
        if f.state == FState::Executing && f.writes_done && f.stores_done && f.branch.is_some() {
            f.state = FState::Complete;
            f.t_complete = now;
            tracer.record(now, || TraceKind::BlockComplete { frame: FrameId(fi as u8) });
            let parent = crit.later(crit.later(f.writes_ev, f.stores_ev), f.branch_ev);
            f.complete_ev = crit.event(
                now,
                parent,
                Cat::BlockComplete,
                now.saturating_sub(crit.time_of(parent)),
            );
        }
    }

    fn check_completion(&mut self, now: u64, crit: &mut CritPath, tracer: &mut Tracer) {
        for fi in 0..self.frames.len() {
            self.try_complete(fi, now, crit, tracer);
        }
    }

    /// Sends the cycle's one commit command for `frame` (§4.4) and
    /// trains the predictor in commit order.
    fn send_commit(
        &mut self,
        frame: FrameId,
        now: u64,
        nets: &mut Nets,
        crit: &mut CritPath,
        tracer: &mut Tracer,
    ) {
        let fi = frame.0 as usize;
        let f = &mut self.frames[fi];
        f.commit_sent = true;
        f.state = FState::Committing;
        f.t_commit = now;
        let parent = crit.later(f.complete_ev, self.last_commit_ev);
        f.commit_ev =
            crit.event(now, parent, Cat::BlockCommit, now.saturating_sub(crit.time_of(parent)));
        self.last_commit_ev = f.commit_ev;
        tracer.record(now, || TraceKind::CommitCmd { frame });
        nets.gcn_broadcast(now, GcnMsg::Commit { frame, gen: f.gen });

        let b = f.branch.expect("complete blocks resolved their branch");
        let (pc, size, hist) = (f.pc, f.size, f.hist_at_predict);
        let target = b.target.unwrap_or(pc + size);
        self.predictor.update(pc, b.exit, b.kind, target, hist);
    }

    fn issue_commit(
        &mut self,
        now: u64,
        nets: &mut Nets,
        crit: &mut CritPath,
        tracer: &mut Tracer,
    ) {
        // Pipelined commit: a command may go out for a block when all
        // older blocks have had theirs sent (§4.4).
        let mut target = None;
        for &frame in &self.order {
            let fi = frame.0 as usize;
            if self.frames[fi].commit_sent {
                continue;
            }
            if self.frames[fi].state != FState::Complete {
                return;
            }
            target = Some(frame);
            break;
        }
        if let Some(frame) = target {
            self.send_commit(frame, now, nets, crit, tracer); // one command per cycle
        }
    }

    fn dealloc(
        &mut self,
        now: u64,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        while let Some(&frame) = self.order.front() {
            let f = &self.frames[frame.0 as usize];
            if !(f.state == FState::Committing && f.rt_ack && f.dt_ack) {
                return;
            }
            self.dealloc_head(now, crit, stats, tracer);
        }
    }

    /// Retires the head of `order` (which the caller checked is fully
    /// acknowledged) and frees its slot.
    fn dealloc_head(
        &mut self,
        now: u64,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        let frame = *self.order.front().expect("dealloc_head needs a head frame");
        let fi = frame.0 as usize;
        let f = &self.frames[fi];
        let was_halt = matches!(f.branch, Some(ResolvedBranch { kind: BranchKind::Halt, .. }));
        if stats.timeline.len() < 64 {
            stats.timeline.push(crate::stats::BlockTiming {
                pc: f.pc,
                fetch: f.t_fetch,
                dispatch: f.t_dispatch,
                complete: f.t_complete,
                commit: f.t_commit,
                ack: now,
            });
        }
        let commit_ev = f.commit_ev;
        let pc = f.pc;
        tracer.record(now, || TraceKind::BlockAck { frame, pc });
        let gen = f.gen + 1;
        self.frames[fi] = Frame { gen, ..Frame::default() };
        self.order.pop_front();
        stats.blocks_committed += 1;
        let ev = crit.event(
            now,
            commit_ev,
            Cat::BlockCommit,
            now.saturating_sub(crit.time_of(commit_ev)),
        );
        self.slot_free_ev[fi] = ev;
        self.final_ev = ev;
        if was_halt {
            // The halt's resolution flushed everything younger and
            // stopped fetch, so the halt block is always last out.
            self.halt_pending = true;
            self.halted = true;
        }
    }

    /// The fused in-flight frame walk (see [`GlobalTile::tick`]): one
    /// age-order pass doing what `check_completion`, `issue_commit`,
    /// and `dealloc` do in three. Per frame, oldest first: convert an
    /// executing frame whose inputs are all in; let the cycle's single
    /// commit command go to the first frame in age order without one
    /// (nothing younger may get it, §4.4); pop the frame if it is the
    /// head and fully acknowledged. The interleaving cannot change any
    /// decision the phased order makes: completion reads only the
    /// frame's own state, a frame issued its commit this cycle cannot
    /// also dealloc this cycle (the acks need a GCN→GSN round trip),
    /// and every dealloc'd head already had `commit_sent`, so the
    /// commit window walks the same frames (DESIGN.md §5b).
    fn advance_frames_fused(
        &mut self,
        now: u64,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        tracer: &mut Tracer,
    ) {
        let mut commit_open = true;
        let mut at_head = true;
        let mut oi = 0;
        while oi < self.order.len() {
            let frame = self.order[oi];
            let fi = frame.0 as usize;
            self.try_complete(fi, now, crit, tracer);
            if commit_open && !self.frames[fi].commit_sent {
                if self.frames[fi].state == FState::Complete {
                    self.send_commit(frame, now, nets, crit, tracer);
                }
                commit_open = false;
            }
            if at_head {
                let f = &self.frames[fi];
                if f.state == FState::Committing && f.rt_ack && f.dt_ack {
                    debug_assert_eq!(oi, 0, "only the head of `order` deallocates");
                    self.dealloc_head(now, crit, stats, tracer);
                    continue; // the next frame is the new head at oi == 0
                }
                at_head = false;
            }
            oi += 1;
        }
    }

    /// Refill completions from the IT chain. Nothing between this and
    /// the fetch advance reads the I-tag array or the fetch stage, so
    /// the fused tick may drain these with the other chain heads while
    /// the phased tick keeps them adjacent to the fetch FSM — same
    /// result either way.
    fn recv_refills(&mut self, now: u64, nets: &mut Nets) {
        while let Some(msg) = nets.gsn_it.recv(now, 0) {
            if let GsnMsg::RefillDone { addr } = msg {
                self.itag_insert(addr);
                if let Some(op) = &mut self.fetch {
                    if matches!(op.stage, Stage::Refill) && op.pc == addr {
                        op.stage = Stage::Tag { done_at: now + 1 };
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fetch_advance(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        stats: &mut CoreStats,
        mem: &SparseMem,
        tracer: &mut Tracer,
    ) {
        // Advance the in-flight fetch.
        if let Some(op) = self.fetch {
            match op.stage {
                Stage::Tag { done_at } if now >= done_at => {
                    let mut header = [0u8; CHUNK_BYTES];
                    mem.read_bytes(op.pc, &mut header);
                    match decode_header(&header) {
                        Err(_) => {
                            // Speculative fetch of non-code memory:
                            // park the frame; an older block's flush
                            // will clean it up.
                            self.next_pc = None;
                            self.fetch = None;
                        }
                        Ok((h, chunks)) => {
                            if self.itag_lookup(op.pc) {
                                let fi = op.frame.0 as usize;
                                let f = &mut self.frames[fi];
                                f.chunks = chunks as u8;
                                f.size = CHUNK_BYTES as u64 * (1 + chunks as u64);
                                f.store_mask = h.store_mask;
                                f.flags = h.flags;
                                self.fetch = Some(FetchOp {
                                    stage: Stage::Predict { done_at: now + cfg.predict_lat },
                                    ..op
                                });
                            } else {
                                stats.icache_refills += 1;
                                for it in 0..self.geom.num_its() {
                                    nets.grn.send(
                                        now,
                                        0,
                                        it_col_pos(it),
                                        GrnRefill { addr: op.pc, chunks: chunks as u8 },
                                    );
                                }
                                self.fetch = Some(FetchOp { stage: Stage::Refill, ..op });
                            }
                        }
                    }
                }
                Stage::Predict { done_at } if now >= done_at => {
                    let fi = op.frame.0 as usize;
                    let cp = self.predictor.checkpoint();
                    let size = self.frames[fi].size;
                    let pred = self.predictor.predict(op.pc, size);
                    stats.predictions += 1;
                    let f = &mut self.frames[fi];
                    f.predicted_next = Some(pred.target);
                    f.pred_cp = Some(cp);
                    f.hist_at_predict = cp.history();
                    if !self.halt_pending {
                        self.next_pc = Some(pred.target);
                        self.pc_ready_ev =
                            crit.event(now, self.frames[fi].fetch_ev, Cat::IFetch, cfg.predict_lat);
                    }
                    self.fetch = Some(FetchOp { stage: Stage::AwaitDispatch, ..op });
                }
                Stage::AwaitDispatch => {
                    let fi = op.frame.0 as usize;
                    let inhibit = self.frames[fi].flags.contains(BlockFlags::INHIBIT_SPECULATION);
                    let oldest = self.order.front() == Some(&op.frame);
                    if now >= self.dispatch_free_at && (!inhibit || oldest) {
                        self.dispatch_free_at = now + self.geom.beats() as u64;
                        let f = &mut self.frames[fi];
                        f.state = FState::Executing;
                        f.t_dispatch = now;
                        let ev = crit.event(
                            now,
                            f.fetch_ev,
                            Cat::IFetch,
                            now.saturating_sub(crit.time_of(f.fetch_ev)),
                        );
                        let cmd = GdnFetch {
                            frame: op.frame,
                            gen: f.gen,
                            addr: op.pc,
                            chunks: f.chunks,
                            store_mask: f.store_mask,
                            ev,
                        };
                        for it in 0..self.geom.num_its() {
                            nets.gdn_col.send(now, 0, it_col_pos(it), cmd);
                        }
                        stats.blocks_fetched += 1;
                        let f = &self.frames[fi];
                        stats.protocol.fetch_to_dispatch.record(now - f.t_fetch);
                        tracer
                            .record(now, || TraceKind::DispatchCmd { frame: op.frame, pc: op.pc });
                        self.fetch = None;
                    }
                }
                _ => {}
            }
        }

        // Start a new fetch.
        if self.fetch.is_none() && !self.halt_pending && !self.halted {
            let Some(pc) = self.next_pc else { return };
            if self.order.len() >= cfg.max_frames {
                return;
            }
            let Some(slot) = (0..self.frames.len()).find(|&i| self.frames[i].state == FState::Free)
            else {
                return;
            };
            let frame = FrameId(slot as u8);
            let parent = crit.later(self.pc_ready_ev, self.slot_free_ev[slot]);
            let cat = if parent == self.slot_free_ev[slot] && parent != NO_EVENT {
                Cat::BlockCommit
            } else {
                Cat::IFetch
            };
            let fetch_ev = crit.event(now, parent, cat, now.saturating_sub(crit.time_of(parent)));
            stats.protocol.fetches_started += 1;
            if self.frames.iter().any(|f| f.state == FState::Committing) {
                stats.protocol.overlapped_fetches += 1;
            }
            tracer.record(now, || TraceKind::FetchIssued { frame, pc });
            let f = &mut self.frames[slot];
            f.state = FState::Fetching;
            f.pc = pc;
            f.t_fetch = now;
            f.fetch_ev = fetch_ev;
            self.order.push_back(frame);
            self.next_pc = None; // consumed; refilled by the predict stage
            self.fetch =
                Some(FetchOp { frame, pc, stage: Stage::Tag { done_at: now + cfg.tag_lat } });
        }
    }
}
