//! Instruction tiles (§3.2).
//!
//! Each IT holds one bank of the L1 I-cache and acts as a slave to the
//! GT: on a dispatch command it streams its slice of the block to its
//! row, one beat per cycle, one instruction per ET column per beat
//! (§4.1: the prototype's 128-byte chunk over eight four-wide beats).
//! IT0 holds header chunks and feeds the register tiles; the body ITs
//! hold `insts_per_row` consecutive body instructions each and feed
//! the ET rows (delivering the store mask to their row's DT on the
//! first beat).
//!
//! Tag state lives at the GT (which holds "the single tag array"); the
//! ITs model bank-port occupancy, dispatch pipelining, and the refill
//! protocol's south-to-north completion chain.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use trips_isa::mem::SparseMem;
use trips_isa::{decode_body_chunk, decode_header, BlockHeader, Instruction, CHUNK_BYTES};
use trips_micronet::WakeTable;

use crate::config::{CoreConfig, CoreGeometry};
use crate::memsys::{FillPath, MemClient, MemEvent, MemSys};
use crate::msg::{GdnFetch, GsnMsg, RowMsg};
use crate::nets::{it_col_pos, row_pos_of_col, Nets};
use crate::trace::{TraceKind, Tracer};

/// What a slice's bytes decode to.
#[derive(Debug)]
enum Decoded {
    /// IT0: the block header, or `None` when the bytes don't decode
    /// (no beat then sends anything).
    Header(Option<Box<BlockHeader>>),
    /// Body ITs: this tile's slice of the block body — empty when it
    /// lies entirely past the block's end (beat 0 then still delivers
    /// the store mask, nothing else). Covering chunks that fail to
    /// decode contribute `nop`s, which dispatch skips — the same
    /// traffic the prototype's whole-chunk `None` produced.
    Body(Vec<Instruction>),
}

/// One tile's slice of one block, decoded once and kept beside the
/// bytes it was decoded from. Decode is a pure function of those bytes,
/// so a job whose fetch reads equal bytes shares the entry and one that
/// reads different bytes (self-modifying code, a store propagated into
/// a chip replica, another program at the same address) replaces it —
/// no store path has to know the cache exists (DESIGN.md §5b).
#[derive(Debug)]
struct Slice {
    /// The chunks covering the slice, as fetched.
    bytes: Box<[u8]>,
    decoded: Decoded,
    /// Bit `b` set iff dispatch beat `b` sends at least one message.
    /// A `u64` because a 2×2 die streams 32 beats: clearing "every
    /// beat up to `b`" shifts by up to 32, the width of a `u32`.
    live: u64,
}

/// One tile's decoded slices by block address, each validated against
/// the fetched bytes on use.
#[derive(Default)]
struct SliceCache {
    by_addr: HashMap<u64, Rc<Slice>, BuildHasherDefault<AddrHasher>>,
    /// Slices decoded: fetches that found no entry with equal bytes.
    decodes: u64,
}

/// One multiply: block addresses are 128-byte aligned and a program
/// has a few hundred, where SipHash cost more than the rest of a fetch.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the slice cache is keyed by u64 block addresses");
    }

    fn write_u64(&mut self, addr: u64) {
        self.0 = (addr >> 7).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct DispatchJob {
    cmd: GdnFetch,
    /// Cycle of beat 0: the bank's read port serves one job at a time,
    /// one beat per cycle, in arrival order.
    start: u64,
    /// Fetched at `start` (what simulated memory holds *then*).
    slice: Option<Rc<Slice>>,
    /// Live beats not yet issued; bit 0 alone while the slice is
    /// unfetched, so the fetch itself is the job's first timer.
    live: u64,
}

#[derive(Debug)]
struct Refill {
    addr: u64,
    /// First byte of this tile's slice (header chunk for IT0).
    base: u64,
    /// 64-byte lines the slice spans (2 for the prototype's chunks).
    nlines: u8,
    /// Cycle the bank's slice arrives (perfect backend; `u64::MAX`
    /// when the NUCA backend resolves it by fill events instead).
    done_at: u64,
    own_done: bool,
    south_done: bool,
    signalled: bool,
    /// NUCA line fills still outstanding for this tile's slice
    /// (0 on the perfect backend).
    lines_pending: u8,
}

/// One instruction tile.
pub struct InstTile {
    /// Tile index 0..5; index 0 serves the header row.
    pub index: usize,
    jobs: VecDeque<DispatchJob>,
    refill: Option<Refill>,
    /// Completion hops that arrived before this tile's own GRN refill
    /// command. The GRN and GSN are separate networks, so the south
    /// neighbour's `RefillDone` can legally outrun a (delayed) refill
    /// command; the hop must be latched, not dropped — the neighbour
    /// never resends, so a drop would wedge the completion chain.
    /// Empty whenever command delivery precedes completion (always, on
    /// the unfaulted machine).
    pending_south: VecDeque<u64>,
    /// Cycle the bank's read port is free of every job received so far.
    port_free_at: u64,
    cache: SliceCache,
    /// Dispatch beats of read-port time booked (for utilization stats).
    pub beats_issued: u64,
}

impl InstTile {
    /// A fresh IT.
    pub fn new(index: usize) -> InstTile {
        InstTile {
            index,
            jobs: VecDeque::new(),
            refill: None,
            pending_south: VecDeque::new(),
            port_free_at: 0,
            cache: SliceCache::default(),
            beats_issued: 0,
        }
    }

    /// True if the tile has no queued work (drain check).
    pub fn idle(&self) -> bool {
        self.jobs.is_empty() && self.refill.is_none()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit): due now while a
    /// completed refill awaits its completion signal or a fill event is
    /// unconsumed; else the earliest of the front job's next live beat
    /// (its fetch while unfetched), the perfect-backend refill's bank
    /// timer (`u64::MAX` when the refill waits on NUCA fills) and the
    /// three column inboxes' heads.
    pub(crate) fn due(&self, nets: &Nets, memsys: &MemSys) -> u64 {
        if memsys.has_events(MemClient::It(self.index as u8)) {
            return WakeTable::NOW;
        }
        let beat = match self.jobs.front() {
            Some(j) => j.start + u64::from(j.live.trailing_zeros()),
            None => WakeTable::ASLEEP,
        };
        let timer = match &self.refill {
            Some(r) if r.own_done && r.south_done && !r.signalled => WakeTable::NOW,
            Some(r) if !r.own_done => r.done_at,
            _ => WakeTable::ASLEEP,
        };
        let pos = it_col_pos(self.index);
        beat.min(timer)
            .min(nets.gdn_col.next_arrival(pos))
            .min(nets.grn.next_arrival(pos))
            .min(nets.gsn_it.next_arrival(pos))
    }

    /// Queued work for the hang diagnoser (`None` when idle).
    pub fn diag(&self) -> Option<String> {
        if self.idle() {
            return None;
        }
        let mut parts = Vec::new();
        if !self.jobs.is_empty() {
            parts.push(format!("{} dispatch job(s) queued", self.jobs.len()));
        }
        if let Some(r) = &self.refill {
            parts.push(format!("refill of {:#x} in progress", r.addr));
        }
        Some(parts.join(", "))
    }

    /// One cycle.
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &CoreConfig,
        nets: &mut Nets,
        mem: &SparseMem,
        memsys: &mut MemSys,
        tracer: &mut Tracer,
    ) {
        let g = cfg.geometry;
        let pos = it_col_pos(self.index);

        // Forwarded fetch commands arrive down the column; each books
        // the bank's single read port for `beats` cycles from the first
        // free one — the cadence of a queue served a beat per tick.
        while let Some(cmd) = nets.gdn_col.recv(now, pos) {
            let start = now.max(self.port_free_at);
            self.port_free_at = start + g.beats() as u64;
            self.beats_issued += g.beats() as u64;
            self.jobs.push_back(DispatchJob { cmd, start, slice: None, live: 1 });
        }

        // Refill commands.
        while let Some(r) = nets.grn.recv(now, pos) {
            let span = Self::slice_span(g, self.index, r.chunks);
            let participates = span.is_some();
            if participates {
                tracer
                    .record(now, || TraceKind::RefillStart { it: self.index as u8, addr: r.addr });
            }
            let early = self.pending_south.iter().position(|&a| a == r.addr);
            if let Some(k) = early {
                self.pending_south.remove(k);
            }
            // A participating tile fetches its slice of the block: the
            // perfect backend delivers it whole after the flat
            // latency; the NUCA backend carries each of its 64-byte
            // lines as a separate fill request.
            let (base, nlines) = match span {
                None => (r.addr, 0),
                Some((off, bytes)) => (r.addr + off, bytes.div_ceil(64) as u8),
            };
            let (done_at, lines_pending) = if !participates {
                (now, 0)
            } else {
                match memsys.iside_fill(now, self.index as u8, base) {
                    FillPath::At(t) => (t, 0),
                    FillPath::Queued => {
                        for k in 1..nlines as u64 {
                            memsys.iside_fill(now, self.index as u8, base + 64 * k);
                        }
                        (u64::MAX, nlines)
                    }
                }
            };
            self.refill = Some(Refill {
                addr: r.addr,
                base,
                nlines,
                done_at,
                own_done: !participates,
                south_done: self.index == g.num_its() - 1 || early.is_some(),
                signalled: false,
                lines_pending,
            });
        }

        // NUCA fill completions. Fills for a superseded refill no
        // longer match the live slice range and are discarded — the
        // replacing command re-requested its own lines.
        while let Some(ev) = memsys.pop_event(MemClient::It(self.index as u8)) {
            let MemEvent::Fill { line } = ev else {
                continue;
            };
            if let Some(r) = &mut self.refill {
                let base = r.base >> 6;
                if r.lines_pending > 0 && line >= base && line < base + r.nlines as u64 {
                    r.lines_pending -= 1;
                    if r.lines_pending == 0 {
                        r.own_done = true;
                    }
                }
            }
        }

        // South neighbour's refill completion (chain positions put IT4
        // furthest from the GT; completion daisies northward, §4.1).
        while let Some(msg) = nets.gsn_it.recv(now, pos) {
            if let GsnMsg::RefillDone { addr } = msg {
                match &mut self.refill {
                    Some(r) if r.addr == addr => r.south_done = true,
                    _ => {
                        // Outran this tile's own refill command (or the
                        // command was superseded); latch for the
                        // command's arrival. Bounded: the GT keeps one
                        // refill in flight, so stale entries only
                        // accumulate across abandoned refills.
                        if self.pending_south.len() >= 8 {
                            self.pending_south.pop_front();
                        }
                        self.pending_south.push_back(addr);
                    }
                }
            }
        }

        // Advance the refill.
        if let Some(r) = &mut self.refill {
            if !r.own_done && now >= r.done_at {
                r.own_done = true;
            }
            if r.own_done && r.south_done && !r.signalled {
                r.signalled = true;
                let north = if self.index == 0 { 0 } else { pos - 1 };
                let addr = r.addr;
                tracer.record(now, || TraceKind::RefillDone { it: self.index as u8, addr });
                nets.gsn_it.send(now, pos, north, GsnMsg::RefillDone { addr });
            }
            if r.signalled {
                self.refill = None;
            }
        }

        // The front job's beat for this cycle, if it carries anything:
        // the tile sleeps through the beats that do not (`due`), so a
        // 10-instruction block costs its two or three live beats, not
        // `beats` ticks on each of five tiles.
        if let Some(job) = self.jobs.front_mut().filter(|j| now >= j.start) {
            let beat = now - job.start;
            debug_assert!(beat < g.beats() as u64, "a job outlived its read-port booking");
            debug_assert_eq!(job.live & ((1 << beat) - 1), 0, "slept through a live beat");
            let cmd = job.cmd;
            if job.slice.is_none() {
                let slice = self.cache.fetch(g, self.index, mem, &cmd);
                job.live = slice.live;
                job.slice = Some(slice);
            }
            if job.live >> beat & 1 != 0 {
                let index = self.index;
                tracer.record(now, || TraceKind::DispatchBeat {
                    it: index as u8,
                    frame: cmd.frame,
                    beat: beat as u8,
                });
                let slice = job.slice.as_ref().expect("fetched above");
                Self::issue_beat(g, index, now, nets, &slice.decoded, &cmd, beat as usize);
            }
            job.live &= u64::MAX << (beat + 1);
            if job.live == 0 {
                self.jobs.pop_front();
            }
        }
    }

    /// The (byte offset, byte length) of this tile's slice of a
    /// `chunks`-chunk block, or `None` when the tile holds none of it.
    /// IT0 always holds the header chunk; body IT `i` holds body
    /// instructions `(i-1)*insts_per_row ..` capped at the block's
    /// end (4 bytes per instruction, after the 128-byte header).
    fn slice_span(g: CoreGeometry, index: usize, chunks: u8) -> Option<(u64, usize)> {
        if index == 0 {
            return Some((0, CHUNK_BYTES));
        }
        let a = (index - 1) * g.insts_per_row();
        let b = (a + g.insts_per_row()).min(chunks as usize * 32);
        if b <= a {
            return None;
        }
        Some(((CHUNK_BYTES + 4 * a) as u64, 4 * (b - a)))
    }

    fn issue_beat(
        g: CoreGeometry,
        index: usize,
        now: u64,
        nets: &mut Nets,
        decoded: &Decoded,
        cmd: &GdnFetch,
        beat: usize,
    ) {
        let row = &mut nets.gdn_rows[index];
        let GdnFetch { frame, gen, ev, .. } = *cmd;
        match decoded {
            // Header chunk: reads and writes to the RTs,
            // `header_slots_per_beat` header slots per beat.
            Decoded::Header(None) => {}
            Decoded::Header(Some(header)) => {
                let per_beat = g.header_slots_per_beat();
                let rt_shift = g.slots_per_rt().trailing_zeros();
                for s in (beat * per_beat)..((beat + 1) * per_beat) {
                    let to = row_pos_of_col(s >> rt_shift);
                    let slot = s as u8;
                    if let Some(read) = header.reads[s] {
                        row.send(now, 0, to, RowMsg::Read { frame, gen, slot, read, ev });
                    }
                    if let Some(write) = header.writes[s] {
                        row.send(now, 0, to, RowMsg::Write { frame, gen, slot, write, ev });
                    }
                }
                if beat == g.beats() - 1 {
                    // Declarations complete: tell every RT.
                    for rt in 0..g.num_rts() {
                        row.send(now, 0, row_pos_of_col(rt), RowMsg::HeaderDone { frame, gen, ev });
                    }
                }
            }
            // Body slice: one instruction per ET column per beat, plus
            // the store mask to the row's DT on beat zero.
            Decoded::Body(insts) => {
                if beat == 0 {
                    let store_mask = cmd.store_mask;
                    row.send(now, 0, 1, RowMsg::DtMask { frame, gen, store_mask, ev });
                }
                let a = (index - 1) * g.insts_per_row();
                let cols = g.et_cols;
                for (s, &inst) in insts.iter().enumerate().skip(beat * cols).take(cols) {
                    if !inst.is_nop() {
                        let (idx, to) = ((a + s) as u8, row_pos_of_col(s & (cols - 1)));
                        row.send(now, 0, to, RowMsg::Inst { frame, gen, idx, inst, ev });
                    }
                }
            }
        }
    }
}

impl SliceCache {
    /// Fetches tile `index`'s slice for `cmd` — its covering chunks, read
    /// from simulated memory as it stands now — and returns the cached
    /// decode of exactly those bytes, decoding (and replacing the
    /// entry) only when there is none.
    fn fetch(
        &mut self,
        g: CoreGeometry,
        index: usize,
        mem: &SparseMem,
        cmd: &GdnFetch,
    ) -> Rc<Slice> {
        // A body slice is at most a whole 128-instruction body.
        let mut buf = [0u8; 4 * CHUNK_BYTES];
        let (first, bytes) = match InstTile::slice_span(g, index, cmd.chunks) {
            None => (0, &mut buf[..0]),
            Some((off, len)) => {
                let first = off as usize / CHUNK_BYTES;
                let last = (off as usize + len - 1) / CHUNK_BYTES;
                (first, &mut buf[..(last - first + 1) * CHUNK_BYTES])
            }
        };
        mem.read_bytes(cmd.addr + (first * CHUNK_BYTES) as u64, bytes);
        if let Some(hit) = self.by_addr.get(&cmd.addr).filter(|s| *s.bytes == *bytes) {
            return hit.clone();
        }
        self.decodes += 1;
        let slice = Rc::new(Slice::decode(g, index, bytes));
        self.by_addr.insert(cmd.addr, slice.clone());
        slice
    }
}

impl Slice {
    /// Decodes tile `index`'s slice of a block from its covering chunks
    /// (`bytes`, cut off at the block's end; the encoding's unit is the
    /// 32-instruction chunk, of which a body slice keeps its portion)
    /// and works out which beats will carry a message.
    fn decode(g: CoreGeometry, index: usize, bytes: &[u8]) -> Slice {
        let (decoded, live) = if index == 0 {
            let header = decode_header(bytes).ok().map(|(h, _)| Box::new(h));
            // A beat with a declaration in its slots, and the last for
            // `HeaderDone`; an undecodable header sends nothing at all.
            let live = header.as_ref().map_or(0, |h| {
                let declared = (0..32).filter(|&s| h.reads[s].is_some() || h.writes[s].is_some());
                declared
                    .fold(1u64 << (g.beats() - 1), |m, s| m | 1 << (s / g.header_slots_per_beat()))
            });
            (Decoded::Header(header), live)
        } else {
            let a = (index - 1) * g.insts_per_row();
            let b = a + g.insts_per_row().min(bytes.len() / 4);
            let mut insts = Vec::with_capacity(b - a);
            for (k, chunk) in bytes.chunks_exact(CHUNK_BYTES).enumerate() {
                let base = (a / 32 + k) * 32;
                let (lo, hi) = (a.max(base) - base, b.min(base + 32) - base);
                match decode_body_chunk(chunk) {
                    Ok(c) => insts.extend_from_slice(&c[lo..hi]),
                    Err(_) => insts.extend(std::iter::repeat_with(Instruction::nop).take(hi - lo)),
                }
            }
            // Beat 0 for the store mask, plus any beat with a non-`nop`.
            let busy = insts.iter().enumerate().filter(|(_, i)| !i.is_nop());
            let live = busy.fold(1u64, |m, (s, _)| m | 1 << (s / g.et_cols));
            (Decoded::Body(insts), live)
        };
        Slice { bytes: bytes.into(), decoded, live }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::NO_EVENT;
    use crate::msg::FrameId;
    use trips_isa::{encode, ArchReg, Target, TripsBlock, WriteInst};

    const ADDR: u64 = 0x1_0000;

    /// One IT on a bare `Nets`, scheduled the way `Fast` schedules it:
    /// ticked on exactly the cycles its `due()` names.
    struct Rig {
        cfg: CoreConfig,
        nets: Nets,
        mem: SparseMem,
        memsys: MemSys,
        tracer: Tracer,
        it: InstTile,
        now: u64,
        /// Cycles on which the tile ticked.
        ticks: Vec<u64>,
        /// Every row message, stamped with the cycle it was *sent*.
        sent: Vec<(u64, RowMsg)>,
    }

    impl Rig {
        fn new(g: CoreGeometry, index: usize) -> Rig {
            let cfg = CoreConfig::with_geometry(g);
            let nets = Nets::new(&cfg);
            let memsys = MemSys::new(&cfg, &nets.wake);
            Rig {
                nets,
                mem: SparseMem::new(),
                memsys,
                tracer: Tracer::enabled_with(1 << 12, g),
                it: InstTile::new(index),
                cfg,
                now: 0,
                ticks: Vec::new(),
                sent: Vec::new(),
            }
        }

        fn store(&mut self, block: &TripsBlock) -> GdnFetch {
            self.mem.write_bytes(ADDR, &encode(block));
            GdnFetch {
                frame: FrameId(0),
                gen: 0,
                addr: ADDR,
                chunks: block.body_chunks() as u8,
                store_mask: block.header.store_mask,
                ev: NO_EVENT,
            }
        }

        /// A fetch command that reaches the tile at cycle `at`.
        fn arrive(&mut self, at: u64, frame: u8, cmd: GdnFetch) {
            let cmd = GdnFetch { frame: FrameId(frame), ..cmd };
            self.nets.gdn_col.send_delayed(self.now, it_col_pos(self.it.index), at - self.now, cmd);
        }

        fn run_until(&mut self, end: u64) {
            while self.now < end {
                if self.it.due(&self.nets, &self.memsys) <= self.now {
                    self.ticks.push(self.now);
                    let (now, cfg) = (self.now, &self.cfg);
                    self.it.tick(
                        now,
                        cfg,
                        &mut self.nets,
                        &self.mem,
                        &mut self.memsys,
                        &mut self.tracer,
                    );
                }
                let row = &mut self.nets.gdn_rows[self.it.index];
                for pos in 1..row.len() {
                    while let Some(msg) = row.recv(self.now, pos) {
                        // One hop per cycle from the IT at position 0.
                        self.sent.push((self.now - pos as u64, msg));
                    }
                }
                self.now += 1;
            }
        }

        /// (send cycle, frame) of every store-mask delivery: a body
        /// job's beat 0.
        fn job_starts(&self) -> Vec<(u64, u8)> {
            let starts = self.sent.iter().filter_map(|(at, m)| match m {
                RowMsg::DtMask { frame, .. } => Some((*at, frame.0)),
                _ => None,
            });
            starts.collect()
        }
    }

    /// A body whose only instructions sit at `idxs` (`movi` of the
    /// index, so each is distinguishable on the wire).
    fn sparse_block(idxs: &[usize]) -> TripsBlock {
        let mut b = TripsBlock::new();
        b.insts = vec![Instruction::nop(); idxs.iter().max().map_or(0, |m| m + 1)];
        for &i in idxs {
            b.insts[i] = Instruction::movi(i as i32, [Target::none(), Target::none()]);
        }
        b
    }

    #[test]
    fn back_to_back_jobs_keep_the_one_beat_per_cycle_port_cadence() {
        // Prototype body IT1: instruction 28 dispatches on beat 7, so
        // the job sleeps through beats 1..=6.
        let g = CoreGeometry::prototype();
        let mut rig = Rig::new(g, 1);
        let cmd = rig.store(&sparse_block(&[0, 28]));
        rig.arrive(10, 0, cmd); // idle tile: starts the tick it arrives
        rig.arrive(13, 1, cmd); // front job asleep: waits for the port
        rig.arrive(14, 2, cmd); // queued behind a queued job
        rig.arrive(60, 3, cmd); // the port has long been free again
        rig.run_until(100);
        assert_eq!(rig.job_starts(), [(10, 0), (18, 1), (26, 2), (60, 3)]);
        let insts: Vec<_> = rig
            .sent
            .iter()
            .filter_map(|(at, m)| match m {
                RowMsg::Inst { frame, idx, .. } => Some((*at, frame.0, *idx)),
                _ => None,
            })
            .collect();
        let per_job = |s: u64, f: u8| [(s, f, 0), (s + 7, f, 28)];
        let expect = [per_job(10, 0), per_job(18, 1), per_job(26, 2), per_job(60, 3)].concat();
        assert_eq!(insts, expect, "every message leaves on the cycle of its beat");
        // The tile ran on its live beats and its arrivals, nothing else.
        assert_eq!(rig.ticks, [10, 13, 14, 17, 18, 25, 26, 33, 60, 67]);
        assert_eq!(rig.it.beats_issued, 4 * 8, "read-port time is booked per job, not per tick");
        assert!(rig.it.idle());
        // The flight recorder shows the beats that carried something.
        let beats: Vec<_> = rig
            .tracer
            .events()
            .filter_map(|e| match e.kind {
                TraceKind::DispatchBeat { it: 1, frame, beat } => Some((e.cycle, frame.0, beat)),
                _ => None,
            })
            .collect();
        let per_job = |s: u64, f: u8| [(s, f, 0), (s + 7, f, 7)];
        assert_eq!(
            beats,
            [per_job(10, 0), per_job(18, 1), per_job(26, 2), per_job(60, 3)].concat()
        );
    }

    #[test]
    fn a_changed_byte_redecodes_and_an_unchanged_one_does_not() {
        let g = CoreGeometry::prototype();
        let mut rig = Rig::new(g, 1);
        let cmd = rig.store(&sparse_block(&[0, 3, 40]));
        let movi_of = |rig: &Rig, from: usize| -> Vec<i32> {
            let insts = rig.sent[from..].iter().filter_map(|(_, m)| match m {
                RowMsg::Inst { inst, .. } => Some(inst.imm),
                _ => None,
            });
            insts.collect()
        };
        rig.arrive(5, 0, cmd);
        rig.arrive(20, 1, cmd);
        rig.run_until(40);
        assert_eq!(rig.it.cache.decodes, 1, "the second fetch read the same bytes");
        assert_eq!(movi_of(&rig, 0), [0, 3, 0, 3]);

        // Overwrite instruction 3 (a store into code): the next fetch
        // reads different bytes and dispatches the new instruction.
        let mut patched = sparse_block(&[0, 3, 40]);
        patched.insts[3] = Instruction::movi(77, [Target::none(), Target::none()]);
        let patched = encode(&patched);
        let word = &patched[CHUNK_BYTES + 12..CHUNK_BYTES + 16];
        let (mark, at) = (rig.sent.len(), ADDR + CHUNK_BYTES as u64 + 12);
        rig.mem.write_bytes(at, word);
        rig.arrive(45, 2, cmd);
        rig.run_until(60);
        assert_eq!(rig.it.cache.decodes, 2);
        assert_eq!(movi_of(&rig, mark), [0, 77]);

        // Rewriting the same value, or changing a chunk another tile
        // holds (instruction 40 is IT2's), leaves this tile's entry be.
        rig.mem.write_bytes(at, word);
        rig.mem.write_bytes(ADDR + 2 * CHUNK_BYTES as u64 + 32, &[0xff; 4]);
        let mark = rig.sent.len();
        rig.arrive(65, 3, cmd);
        rig.run_until(80);
        assert_eq!(rig.it.cache.decodes, 2);
        assert_eq!(movi_of(&rig, mark), [0, 77]);
    }

    #[test]
    fn the_last_of_thirty_two_beats_needs_no_shift_by_the_mask_width() {
        // The mini die streams 32 beats, one header slot each: a write
        // in slot 31 and `HeaderDone` both ride beat 31, and retiring
        // the job clears "every beat up to 31" — a shift by 32.
        let g = CoreGeometry::mini();
        assert_eq!(g.beats(), 32);
        let mut rig = Rig::new(g, 0);
        let mut b = sparse_block(&[0]);
        b.set_write(31, WriteInst::new(ArchReg::new(100))).unwrap();
        b.set_write(2, WriteInst::new(ArchReg::new(1))).unwrap();
        let cmd = rig.store(&b);
        rig.arrive(3, 0, cmd);
        rig.arrive(4, 1, cmd);
        rig.run_until(80);
        // The arrivals, each job's fetch at its beat 0, beats 2 and 31.
        assert_eq!(rig.ticks, [3, 4, 5, 34, 35, 37, 66]);
        let at = |want: fn(&RowMsg) -> bool| -> Vec<u64> {
            rig.sent.iter().filter(|(_, m)| want(m)).map(|(at, _)| *at).collect()
        };
        assert_eq!(at(|m| matches!(m, RowMsg::Write { slot: 2, .. })), [5, 37]);
        assert_eq!(at(|m| matches!(m, RowMsg::Write { slot: 31, .. })), [34, 66]);
        assert_eq!(at(|m| matches!(m, RowMsg::HeaderDone { .. })), [34, 34, 66, 66]);
        assert!(rig.it.idle());
        assert_eq!(rig.it.due(&rig.nets, &rig.memsys), WakeTable::ASLEEP);
    }

    #[test]
    fn the_live_mask_names_exactly_the_beats_that_send() {
        use trips_tasm::Quality;
        let programs: Vec<_> = trips_workloads::suite::all()
            .iter()
            .flat_map(|w| [Quality::Hand, Quality::Compiled].map(|q| w.build_trips(q).unwrap()))
            .collect();
        let mut checked = 0;
        for g in [CoreGeometry::mini(), CoreGeometry::prototype(), CoreGeometry::fat()] {
            let mut nets = Nets::new(&CoreConfig::with_geometry(g));
            for p in &programs {
                let mem = SparseMem::from_image(&p.image);
                for b in &p.blocks {
                    let cmd = GdnFetch {
                        frame: FrameId(0),
                        gen: 0,
                        addr: b.addr,
                        chunks: b.block.body_chunks() as u8,
                        store_mask: b.block.header.store_mask,
                        ev: NO_EVENT,
                    };
                    for index in 0..g.num_its() {
                        let slice = SliceCache::default().fetch(g, index, &mem, &cmd);
                        assert_eq!(slice.live >> g.beats(), 0, "a live beat past the last");
                        for beat in 0..g.beats() {
                            let before = nets.gdn_rows[index].total_sent;
                            InstTile::issue_beat(
                                g,
                                index,
                                0,
                                &mut nets,
                                &slice.decoded,
                                &cmd,
                                beat,
                            );
                            assert_eq!(
                                nets.gdn_rows[index].total_sent > before,
                                slice.live >> beat & 1 != 0,
                                "{} block {:#x} IT{index} beat {beat}",
                                g.name(),
                                b.addr
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 50_000, "only {checked} beats checked");
    }
}
