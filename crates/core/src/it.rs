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

use std::collections::VecDeque;

use trips_isa::mem::SparseMem;
use trips_isa::{decode_body_chunk, decode_header, BlockHeader, Instruction, CHUNK_BYTES};
use trips_micronet::WakeTable;

use crate::config::{CoreConfig, CoreGeometry};
use crate::memsys::{FillPath, MemClient, MemEvent, MemSys};
use crate::msg::{GdnFetch, GsnMsg, RowMsg};
use crate::nets::{it_col_pos, row_pos_of_col, Nets};
use crate::trace::{TraceKind, Tracer};

/// A dispatch job's slice, fetched and decoded once at its first beat
/// and reused for the remaining ones — re-reading and re-decoding the
/// same bytes every beat was the single hottest path in the whole
/// simulator. The bank's read-port occupancy (one beat per cycle) is
/// modelled by the beat counter, not by when the host happens to read
/// the bytes.
#[derive(Debug)]
enum Decoded {
    /// IT0: the block header, or `None` when the bytes don't decode
    /// (every beat is then a no-op, as the per-beat decode would be).
    Header(Option<Box<BlockHeader>>),
    /// Body ITs: this tile's slice of the block body, or `None` when
    /// the slice lies entirely past the block's end (beats then still
    /// deliver the beat-0 store mask, nothing else). Covering chunks
    /// that fail to decode contribute `nop`s, which dispatch skips —
    /// the same traffic the prototype's whole-chunk `None` produced.
    Body(Option<Vec<Instruction>>),
}

#[derive(Debug)]
struct DispatchJob {
    cmd: GdnFetch,
    beat: u8,
    decoded: Option<Decoded>,
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
    /// Dispatch beats issued (for utilization stats).
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
            beats_issued: 0,
        }
    }

    /// True if the tile has no queued work (drain check).
    pub fn idle(&self) -> bool {
        self.jobs.is_empty() && self.refill.is_none()
    }

    /// This tile's wake-table entry, from scratch (filed on the way out
    /// of every tick, recomputed by the audit): due now while dispatch
    /// beats are queued, a completed refill awaits its completion
    /// signal or a fill event is unconsumed; else the earliest of the
    /// perfect-backend refill's bank timer (`u64::MAX` when the refill
    /// waits on NUCA fills) and the three column inboxes' heads.
    pub(crate) fn due(&self, nets: &Nets, memsys: &MemSys) -> u64 {
        if !self.jobs.is_empty() || memsys.has_events(MemClient::It(self.index as u8)) {
            return WakeTable::NOW;
        }
        let timer = match &self.refill {
            Some(r) if r.own_done && r.south_done && !r.signalled => WakeTable::NOW,
            Some(r) if !r.own_done => r.done_at,
            _ => WakeTable::ASLEEP,
        };
        let pos = it_col_pos(self.index);
        timer
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

        // Forwarded fetch commands arrive down the column.
        while let Some(cmd) = nets.gdn_col.recv(now, pos) {
            self.jobs.push_back(DispatchJob { cmd, beat: 0, decoded: None });
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

        // One dispatch beat per cycle from the I-cache bank's single
        // read port.
        if let Some(job) = self.jobs.front_mut() {
            let index = self.index;
            let cmd = job.cmd;
            let beat = job.beat;
            job.beat += 1;
            let finished = job.beat >= g.beats() as u8;
            self.beats_issued += 1;
            tracer.record(now, || TraceKind::DispatchBeat {
                it: index as u8,
                frame: cmd.frame,
                beat,
            });
            let decoded = job.decoded.get_or_insert_with(|| Self::decode_job(g, index, mem, &cmd));
            Self::issue_beat(g, index, now, nets, decoded, &cmd, beat);
            if finished {
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

    /// Fetches and decodes this tile's slice for `cmd` (once per job).
    /// Body slices decode their covering 32-instruction chunks (the
    /// encoding's unit) and keep the slice's portion.
    fn decode_job(g: CoreGeometry, index: usize, mem: &SparseMem, cmd: &GdnFetch) -> Decoded {
        let mut bytes = [0u8; CHUNK_BYTES];
        if index == 0 {
            mem.read_bytes(cmd.addr, &mut bytes);
            return Decoded::Header(decode_header(&bytes).ok().map(|(h, _)| Box::new(h)));
        }
        let a = (index - 1) * g.insts_per_row();
        let b = (a + g.insts_per_row()).min(cmd.chunks as usize * 32);
        if b <= a {
            return Decoded::Body(None);
        }
        let mut insts = Vec::with_capacity(b - a);
        for chunk in (a / 32)..=((b - 1) / 32) {
            let base = cmd.addr + CHUNK_BYTES as u64 * (1 + chunk as u64);
            mem.read_bytes(base, &mut bytes);
            let decoded = decode_body_chunk(&bytes).ok();
            let lo = a.max(chunk * 32) - chunk * 32;
            let hi = b.min((chunk + 1) * 32) - chunk * 32;
            match decoded {
                Some(c) => insts.extend_from_slice(&c[lo..hi]),
                None => insts.extend(std::iter::repeat_with(Instruction::nop).take(hi - lo)),
            }
        }
        Decoded::Body(Some(insts))
    }

    fn issue_beat(
        g: CoreGeometry,
        index: usize,
        now: u64,
        nets: &mut Nets,
        decoded: &Decoded,
        cmd: &GdnFetch,
        beat: u8,
    ) {
        let row = &mut nets.gdn_rows[index];
        if let Decoded::Header(header) = decoded {
            // Header chunk: reads and writes to the RTs,
            // `header_slots_per_beat` header slots per beat.
            let Some(header) = header else {
                return;
            };
            let per_beat = g.header_slots_per_beat();
            let slots_per_rt = g.slots_per_rt() as u8;
            for s in (beat as usize * per_beat)..((beat as usize + 1) * per_beat) {
                let s = s as u8;
                let rt_col = (s / slots_per_rt) as usize;
                if let Some(read) = header.reads[s as usize] {
                    row.send(
                        now,
                        0,
                        row_pos_of_col(rt_col),
                        RowMsg::Read { frame: cmd.frame, gen: cmd.gen, slot: s, read, ev: cmd.ev },
                    );
                }
                if let Some(write) = header.writes[s as usize] {
                    row.send(
                        now,
                        0,
                        row_pos_of_col(rt_col),
                        RowMsg::Write {
                            frame: cmd.frame,
                            gen: cmd.gen,
                            slot: s,
                            write,
                            ev: cmd.ev,
                        },
                    );
                }
            }
            if beat as usize == g.beats() - 1 {
                // Declarations complete: tell every RT.
                for rt in 0..g.num_rts() {
                    row.send(
                        now,
                        0,
                        row_pos_of_col(rt),
                        RowMsg::HeaderDone { frame: cmd.frame, gen: cmd.gen, ev: cmd.ev },
                    );
                }
            }
        } else if let Decoded::Body(insts) = decoded {
            // Body slice: one instruction per ET column per beat, plus
            // the store mask to the row's DT on beat zero.
            if beat == 0 {
                row.send(
                    now,
                    0,
                    1,
                    RowMsg::DtMask {
                        frame: cmd.frame,
                        gen: cmd.gen,
                        store_mask: cmd.store_mask,
                        ev: cmd.ev,
                    },
                );
            }
            let Some(insts) = insts else {
                return;
            };
            let a = (index - 1) * g.insts_per_row();
            let cols = g.et_cols;
            for (s, &inst) in insts.iter().enumerate().skip(beat as usize * cols).take(cols) {
                if inst.is_nop() {
                    continue;
                }
                let idx = (a + s) as u8;
                let col = s % cols;
                row.send(
                    now,
                    0,
                    row_pos_of_col(col),
                    RowMsg::Inst { frame: cmd.frame, gen: cmd.gen, idx, inst, ev: cmd.ev },
                );
            }
        }
    }
}
