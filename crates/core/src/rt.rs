//! Register tiles (§3.3).
//!
//! Each RT owns one 32-register bank plus per-frame read and write
//! queues. The queues perform the work register renaming does in a
//! superscalar: a read first searches the write queues of all older
//! in-flight blocks and either forwards the matching write's value,
//! defers until it arrives, or falls through to the architectural
//! file (§4.2). Write arrival drives distributed block-completion
//! detection; commit drains the write queue into the architectural
//! file and joins the commit-acknowledgement daisy chain (§4.4).

use trips_isa::semantics::Tok;
use trips_isa::{ArchReg, ReadInst, Target};
use trips_micronet::WakeTable;

use crate::config::{CoreConfig, CoreGeometry, MAX_FRAMES};
use crate::critpath::{Cat, CritPath, NO_EVENT};
use crate::frames::{FrameFile, FrameSet};
use crate::gt::GlobalTile;
use crate::msg::{EvId, FrameId, GcnMsg, Gen, GsnMsg, OpnPayload, RowMsg, TileId};
use crate::nets::{opn_recv_batch, row_pos_of_col, rt_chain_pos, Nets, OpnOutbox};
use crate::stats::CoreStats;
use crate::trace::{TraceKind, Tracer};

#[derive(Debug, Default, Clone)]
struct WriteEntry {
    reg: Option<ArchReg>,
    declared: bool,
    value: Option<(Tok, EvId)>,
    waiters: Vec<Waiter>,
}

#[derive(Debug, Clone)]
struct Waiter {
    frame: FrameId,
    gen: Gen,
    read: ReadInst,
    ev: EvId,
    /// Resume the older-frame search from the order position just
    /// below this entry's frame if the value turns out to be null.
    resume_below: FrameId,
}

/// A frame's body ([`FrameFile`] holds its lifecycle): the write queue.
#[derive(Debug, Default)]
struct RtFrame {
    writes: Vec<WriteEntry>,
    header_done: bool,
    done_sent: bool,
    east_done: bool,
    done_ev: EvId,
    commit_cursor: usize,
}

impl RtFrame {
    /// Reinitializes in place, keeping the write-queue and waiter
    /// allocations (frame churn is hot; `*f = default()` would free
    /// and re-grow every queue on every block).
    fn reset(&mut self, eastmost: bool) {
        for w in &mut self.writes {
            w.reg = None;
            w.declared = false;
            w.value = None;
            w.waiters.clear();
        }
        self.header_done = false;
        self.done_sent = false;
        self.east_done = eastmost;
        self.done_ev = NO_EVENT;
        self.commit_cursor = 0;
    }
}

/// One register tile.
pub struct RegTile {
    /// Bank index.
    pub bank: u8,
    /// The last RT of the status chain: no east neighbour to wait for.
    eastmost: bool,
    geom: CoreGeometry,
    regs: Vec<u64>,
    frames: FrameFile<RtFrame>,
    outbox: OpnOutbox,
    /// Frames examined by the advance walk (not in [`CoreStats`]; a
    /// host-side observability counter for the non-vacuousness tests,
    /// like [`GatingStats`](crate::GatingStats)).
    pub(crate) advance_visits: u64,
}

impl RegTile {
    /// A fresh RT for `bank` of a `geom`-sized core.
    pub fn new(bank: u8, geom: CoreGeometry) -> RegTile {
        let body = || RtFrame {
            writes: vec![WriteEntry::default(); geom.slots_per_rt()],
            ..RtFrame::default()
        };
        let eastmost = bank as usize == geom.num_rts() - 1;
        RegTile {
            bank,
            eastmost,
            geom,
            regs: vec![0; geom.regs_per_bank()],
            frames: FrameFile::new(geom.frames, eastmost, body),
            outbox: OpnOutbox::with_capacity(16),
            advance_visits: 0,
        }
    }

    /// Reads an architectural register of this bank (tests/debug).
    pub fn arch_reg(&self, gr: u8) -> u64 {
        self.regs[gr as usize]
    }

    /// True when no frame state or traffic is pending.
    pub fn idle(&self) -> bool {
        self.frames.order().is_empty() && self.outbox.is_empty()
    }

    /// True while a tick can make progress without a new message:
    /// operands queued for injection, or a commit drain in flight
    /// (the write queue empties at `commit_bw` registers per cycle).
    /// Every other state change in this tile is message-triggered and
    /// completed in the tick that consumes the message.
    pub(crate) fn busy(&self) -> bool {
        !self.outbox.is_empty() || !self.frames.draining().is_empty()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit). The RT holds no timers:
    /// while busy or holding an undrained operand it is due now,
    /// otherwise at the earliest head of its three chain inboxes.
    pub(crate) fn due(&self, nets: &Nets) -> u64 {
        let (tile, b) = (TileId::Rt(self.bank), self.bank as usize);
        if self.busy() || nets.opn_delivered_at(tile) {
            return WakeTable::NOW;
        }
        (nets.gdn_rows[0].next_arrival(row_pos_of_col(b)))
            .min(nets.gcn.next_arrival(self.geom.gcn_pos(tile)))
            .min(nets.gsn_rt.next_arrival(rt_chain_pos(b)))
    }

    /// Queued work for the hang diagnoser (`None` when idle).
    pub fn diag(&self) -> Option<String> {
        if self.idle() {
            return None;
        }
        let mut parts = Vec::new();
        for &frame in self.frames.order() {
            let f = &self.frames[frame];
            let missing = f.writes.iter().filter(|w| w.declared && w.value.is_none()).count();
            let waiters: usize = f.writes.iter().map(|w| w.waiters.len()).sum();
            parts.push(format!(
                "frame {}: {missing} write(s) missing, {waiters} read(s) deferred",
                frame.0
            ));
        }
        if !self.outbox.is_empty() {
            parts.push(format!("outbox {}", self.outbox.len()));
        }
        Some(parts.join("; "))
    }

    /// RT-side protocol invariants (see [`crate::invariants`]).
    pub(crate) fn audit(&self, gt: &GlobalTile) -> Result<(), String> {
        let body = |frame: FrameId, active: bool, f: &RtFrame| {
            if active && f.commit_cursor > f.writes.len() {
                return Err(format!("frame {} commit cursor past the write queue", frame.0));
            }
            Ok(())
        };
        self.frames.audit(|fi| gt.slot(fi), body).map_err(|e| format!("RT{}: {e}", self.bank))
    }

    /// [`FrameFile::ensure`] with this tile's body reset.
    fn ensure(&mut self, frame: FrameId, gen: Gen, from_dispatch: bool) -> bool {
        let eastmost = self.eastmost;
        self.frames.ensure(frame, gen, from_dispatch, |f| f.reset(eastmost))
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
        let pos = row_pos_of_col(self.bank as usize);

        // Dispatch messages from IT0's row.
        while let Some(msg) = nets.gdn_rows[0].recv(now, pos) {
            match msg {
                RowMsg::Read { frame, gen, read, ev, .. } => {
                    if self.ensure(frame, gen, true) {
                        let dev = crit.event(now, ev, Cat::IFetch, now - crit.time_of(ev));
                        self.resolve_read(now, frame, gen, read, dev, None, crit);
                    }
                }
                RowMsg::Write { frame, gen, slot, write, .. } => {
                    if self.ensure(frame, gen, true) {
                        let w = slot as usize % self.geom.slots_per_rt();
                        let e = &mut self.frames[frame].writes[w];
                        e.reg = Some(write.reg);
                        e.declared = true;
                    }
                }
                RowMsg::HeaderDone { frame, gen, ev } => {
                    if self.ensure(frame, gen, true) {
                        let f = &mut self.frames[frame];
                        f.header_done = true;
                        // Anchor the completion chain to the dispatch
                        // so a block with no register writes still
                        // traces back through fetch on the critical
                        // path.
                        let anchor =
                            crit.event(now, ev, Cat::IFetch, now.saturating_sub(crit.time_of(ev)));
                        f.done_ev = crit.later(f.done_ev, anchor);
                    }
                }
                RowMsg::Inst { .. } | RowMsg::DtMask { .. } => {
                    unreachable!("body traffic on the header row")
                }
            }
        }

        // Write values from the OPN, one batched drain per cycle.
        opn_recv_batch(nets, now, TileId::Rt(self.bank), tracer, |m| {
            let (hops, queued) = (m.hops, m.queued);
            if let OpnPayload::WriteVal { frame, gen, wslot, tok, ev } = m.payload {
                if !self.ensure(frame, gen, false) {
                    return;
                }
                let e_hop =
                    crit.event(now - u64::from(queued), ev, Cat::OpnHop, u64::from(hops) + 1);
                let e_arr = crit.event(now, e_hop, Cat::OpnContention, u64::from(queued));
                self.write_arrived(now, frame, wslot, tok, e_arr, crit);
            }
        });

        // GCN commit/flush.
        while let Some(msg) = nets.gcn.recv(now, self.geom.gcn_pos(TileId::Rt(self.bank))) {
            match msg {
                GcnMsg::Commit { frame, gen } => {
                    if self.frames.commit_wave(frame, gen) {
                        tracer.record(now, || TraceKind::CommitWave {
                            tile: TileId::Rt(self.bank),
                            frame,
                        });
                    }
                }
                GcnMsg::Flush { mask, gens } => {
                    tracer
                        .record(now, || TraceKind::FlushWave { tile: TileId::Rt(self.bank), mask });
                    self.flush(now, mask, gens, crit);
                }
            }
        }

        // East neighbour's status chain messages.
        while let Some(msg) = nets.gsn_rt.recv(now, rt_chain_pos(self.bank as usize)) {
            match msg {
                // `ensure`, not `ok`: completion hops
                // overlap the flush window, so a neighbour that saw
                // the flush wave (GCN) and the redispatch (GDN) early
                // can legally complete the *next* generation before
                // this bank's flush wave lands. Dropping that
                // future-generation hop would lose it forever (the
                // neighbour's `done_sent` latch never resends) and
                // wedge the daisy chain; fast-forwarding the frame —
                // the same implicit-flush idiom OPN write arrivals
                // use — keeps the hop. Stale generations still drop.
                GsnMsg::WritesDone { frame, gen, ev } if self.ensure(frame, gen, false) => {
                    let f = &mut self.frames[frame];
                    f.east_done = true;
                    f.done_ev = crit.later(f.done_ev, ev);
                }
                GsnMsg::WritesCommitted { frame, gen } => self.frames.neighbour_ack(frame, gen),
                _ => {}
            }
        }

        // Advance completion signalling, commit draining, and acks.
        self.advance_frames(now, cfg, nets, crit, tracer);

        self.outbox.flush(nets, now, TileId::Rt(self.bank), tracer);
        let _ = stats;
    }

    fn advance_frames(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        crit: &mut CritPath,
        tracer: &mut Tracer,
    ) {
        let bank = self.bank;
        let my_pos = rt_chain_pos(self.bank as usize);
        let west = my_pos - 1;

        // Commit: drain writes to the architectural file through the
        // write ports all frames share, oldest committing frame first
        // (two in-flight commits can both write the same register).
        let (mut budget, mut cursor) = (cfg.commit_bw, 0);
        while budget > 0 {
            let Some(frame) = self.frames.next_draining(&mut cursor) else { break };
            let f = &mut self.frames[frame];
            while f.commit_cursor < f.writes.len() {
                let e = &f.writes[f.commit_cursor];
                if let (true, Some(reg), Some((Tok::Val(v), _))) = (e.declared, e.reg, e.value) {
                    if budget == 0 {
                        break;
                    }
                    self.regs[self.geom.reg_index(reg.num())] = v;
                    budget -= 1;
                }
                f.commit_cursor += 1;
            }
            if f.commit_cursor >= f.writes.len() {
                self.frames.drain_done(frame);
            }
        }

        // The completion walk only acts on active frames, so `Fast`
        // iterates the active set (same ascending frame order as
        // `Reference`'s full scan, which skips the inactive rest).
        for frame in cfg.tick_mode.walk(self.frames.active(), self.frames.len()).iter() {
            self.advance_visits += 1;
            let Some((gen, f)) = self.frames.live(frame) else { continue };
            // Block-completion detection: all declared writes have
            // values and the east neighbour agrees.
            if !f.done_sent && f.header_done && f.east_done {
                let all = f.writes.iter().all(|w| !w.declared || w.value.is_some());
                if all {
                    f.done_sent = true;
                    tracer.record(now, || TraceKind::WritesDone { rt: bank, frame });
                    let ev = crit.event(now, f.done_ev, Cat::BlockComplete, 1);
                    nets.gsn_rt.send(now, my_pos, west, GsnMsg::WritesDone { frame, gen, ev });
                }
            }
        }

        // Ack + deallocate, strictly oldest-first.
        while let Some((frame, gen)) = self.frames.retire_head() {
            tracer.record(now, || TraceKind::CommitAck { tile: TileId::Rt(bank), frame });
            nets.gsn_rt.send(now, my_pos, west, GsnMsg::WritesCommitted { frame, gen });
        }
    }

    fn flush(&mut self, now: u64, mask: FrameSet, gens: [Gen; MAX_FRAMES], crit: &mut CritPath) {
        let mut orphaned: Vec<Waiter> = Vec::new();
        self.frames.flush(mask, &gens, |_, f| {
            for w in &mut f.writes {
                orphaned.append(&mut w.waiters);
            }
        });
        // Waiters from surviving frames must retry their search (they
        // were waiting on a squashed producer). Waiters from flushed
        // frames are gone with their frames.
        for w in orphaned {
            if self.frames.ok(w.frame, w.gen) {
                let resume = Some(w.resume_below);
                self.resolve_read(now, w.frame, w.gen, w.read, w.ev, resume, crit);
            }
        }
    }

    /// Resolves a read: search older frames' write queues from the
    /// youngest older frame (or from below `resume_below`), forwarding
    /// or deferring; fall through to the architectural file.
    #[allow(clippy::too_many_arguments)]
    fn resolve_read(
        &mut self,
        now: u64,
        frame: FrameId,
        gen: Gen,
        read: ReadInst,
        ev: EvId,
        resume_below: Option<FrameId>,
        crit: &mut CritPath,
    ) {
        let age = |f| self.frames.age(f);
        let start = match resume_below {
            Some(below) => age(below).or_else(|| age(frame)).unwrap_or(self.frames.order().len()),
            None => age(frame).expect("reader frame must be in dispatch order"),
        };
        for oi in (0..start).rev() {
            let older = self.frames.order()[oi];
            let of = &mut self.frames[older];
            let hit = of.writes.iter_mut().find(|w| w.declared && w.reg == Some(read.reg));
            if let Some(entry) = hit {
                match entry.value {
                    None => {
                        entry.waiters.push(Waiter { frame, gen, read, ev, resume_below: older });
                        return;
                    }
                    Some((Tok::Val(v), vev)) => {
                        let pe = crit.later(ev, vev);
                        let dev = crit.event(
                            now,
                            pe,
                            Cat::Other,
                            now.saturating_sub(crit.time_of(pe)).max(1),
                        );
                        self.deliver(frame, gen, read.targets, Tok::Val(v), dev);
                        return;
                    }
                    Some((Tok::Null, _)) => continue, // nullified: older value stands
                }
            }
        }
        // Architectural file.
        let v = self.regs[self.geom.reg_index(read.reg.num())];
        let dev = crit.event(now, ev, Cat::Other, 1);
        self.deliver(frame, gen, read.targets, Tok::Val(v), dev);
    }

    fn write_arrived(
        &mut self,
        now: u64,
        frame: FrameId,
        wslot: u8,
        tok: Tok,
        ev: EvId,
        crit: &mut CritPath,
    ) {
        let slot = wslot as usize % self.geom.slots_per_rt();
        let waiters;
        {
            let f = &mut self.frames[frame];
            let e = &mut f.writes[slot];
            debug_assert!(e.value.is_none(), "double write delivery to W[{wslot}]");
            e.value = Some((tok, ev));
            f.done_ev = crit.later(f.done_ev, ev);
            waiters = std::mem::take(&mut e.waiters);
        }
        for w in waiters {
            if !self.frames.ok(w.frame, w.gen) {
                continue;
            }
            match tok {
                Tok::Val(v) => {
                    let pe = crit.later(w.ev, ev);
                    let dev = crit.event(
                        now,
                        pe,
                        Cat::Other,
                        now.saturating_sub(crit.time_of(pe)).max(1),
                    );
                    self.deliver(w.frame, w.gen, w.read.targets, Tok::Val(v), dev);
                }
                Tok::Null => {
                    // The write was nullified: resume the search below
                    // the producing frame.
                    self.resolve_read(
                        now,
                        w.frame,
                        w.gen,
                        w.read,
                        w.ev,
                        Some(w.resume_below),
                        crit,
                    );
                }
            }
        }
    }

    fn deliver(&mut self, frame: FrameId, gen: Gen, targets: [Target; 2], tok: Tok, ev: EvId) {
        for t in targets {
            match t {
                Target::None => {}
                Target::Inst { idx, slot } => {
                    self.outbox.push(
                        self.geom.tile_of_inst(idx),
                        OpnPayload::Operand { frame, gen, idx, slot, tok, ev },
                    );
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
}
