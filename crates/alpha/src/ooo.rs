//! An Alpha-21264-like out-of-order core.
//!
//! The paper compares TRIPS against a 467 MHz Alpha 21264 through
//! Sim-Alpha with a perfect L2 (§5.4). This model reproduces the
//! relevant shape of that machine: 4-wide fetch with a tournament
//! branch predictor and return-address stack, an 80-entry reorder
//! window, 4 integer units, 2 memory ports, 2 FP units (6-wide issue),
//! a 64 KB 2-way L1 data cache with 3-cycle hits, store-to-load
//! forwarding with conservative disambiguation, and in-order commit.

use std::collections::{HashMap, VecDeque};

use trips_isa::mem::SparseMem;
use trips_isa::semantics::{eval, extend_load};
use trips_isa::Opcode;

use crate::risc::{RInst, Reg, RiscProgram};

/// Configuration of the baseline core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphaConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Integer units (branches and simple ALU ops).
    pub int_units: usize,
    /// L1D ports (loads/stores per cycle) — the Alpha's two ports are
    /// half of TRIPS's four, bounding `vadd`/`conv` speedups near 2×.
    pub mem_ports: usize,
    /// FP units.
    pub fp_units: usize,
    /// Total issue width.
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Integer multiply latency.
    pub mul_lat: u64,
    /// Integer divide latency.
    pub div_lat: u64,
    /// FP latency.
    pub fp_lat: u64,
    /// FP divide/sqrt latency.
    pub fdiv_lat: u64,
    /// L1D sets (64 KB, 2-way, 64 B lines = 512 sets).
    pub l1_sets: usize,
    /// L1D ways.
    pub l1_ways: usize,
    /// L1D hit latency.
    pub l1_lat: u64,
    /// Perfect-L2 fill latency.
    pub l2_lat: u64,
    /// Cycles of fetch stall after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Issue-queue entries: only this many of the oldest not-yet-
    /// issued instructions are candidates each cycle (the 21264's
    /// integer queue holds 20 entries).
    pub iq_entries: usize,
}

impl AlphaConfig {
    /// 21264-like parameters.
    pub fn alpha21264() -> AlphaConfig {
        AlphaConfig {
            fetch_width: 4,
            rob_entries: 80,
            int_units: 4,
            mem_ports: 2,
            fp_units: 2,
            issue_width: 4,
            commit_width: 8,
            mul_lat: 7,
            div_lat: 20,
            fp_lat: 4,
            fdiv_lat: 16,
            l1_sets: 512,
            l1_ways: 2,
            l1_lat: 3,
            l2_lat: 12,
            mispredict_penalty: 11,
            iq_entries: 20,
        }
    }
}

impl Default for AlphaConfig {
    fn default() -> AlphaConfig {
        AlphaConfig::alpha21264()
    }
}

/// Statistics of a baseline run.
#[derive(Debug, Clone, Default)]
pub struct AlphaStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub insts_committed: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Mispredictions.
    pub mispredictions: u64,
}

impl AlphaStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_committed as f64 / self.cycles as f64
        }
    }
}

/// Errors from a baseline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphaError {
    /// The program failed validation at the given instruction.
    BadProgram(usize),
    /// The run did not halt within the cycle budget.
    Timeout {
        /// Cycles simulated.
        cycles: u64,
        /// Instructions committed.
        insts_committed: u64,
    },
}

impl std::fmt::Display for AlphaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlphaError::BadProgram(i) => write!(f, "invalid program at instruction {i}"),
            AlphaError::Timeout { cycles, insts_committed } => {
                write!(f, "timeout after {cycles} cycles ({insts_committed} committed)")
            }
        }
    }
}

impl std::error::Error for AlphaError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready(u64),
    Rob(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Done,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: usize,
    srcs: Vec<Src>,
    dst: Option<Reg>,
    state: EState,
    done_at: u64,
    value: u64,
    ea: Option<u64>,
    store_val: Option<u64>,
    store_bytes: u32,
    pred_next: usize,
    bsnap: Option<(u32, Vec<usize>)>,
}

struct Tournament {
    local: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    ghist: u32,
}

impl Tournament {
    fn new() -> Tournament {
        Tournament { local: vec![1; 1024], gshare: vec![1; 4096], chooser: vec![1; 4096], ghist: 0 }
    }

    fn idx(&self, pc: usize) -> (usize, usize, usize) {
        let l = pc % self.local.len();
        let g = (pc ^ self.ghist as usize) % self.gshare.len();
        (l, g, g % self.chooser.len())
    }

    fn predict(&self, pc: usize) -> bool {
        let (l, g, c) = self.idx(pc);
        if self.chooser[c] >= 2 {
            self.gshare[g] >= 2
        } else {
            self.local[l] >= 2
        }
    }

    fn train(&mut self, pc: usize, ghist_at_pred: u32, taken: bool) {
        let l = pc % self.local.len();
        let g = (pc ^ ghist_at_pred as usize) % self.gshare.len();
        let c = g % self.chooser.len();
        let lr = (self.local[l] >= 2) == taken;
        let gr = (self.gshare[g] >= 2) == taken;
        if lr != gr {
            if gr {
                self.chooser[c] = (self.chooser[c] + 1).min(3);
            } else {
                self.chooser[c] = self.chooser[c].saturating_sub(1);
            }
        }
        bump(&mut self.local[l], taken);
        bump(&mut self.gshare[g], taken);
    }
}

fn bump(c: &mut u8, up: bool) {
    if up {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// The baseline core.
pub struct AlphaCore {
    cfg: AlphaConfig,
    prog: RiscProgram,
    mem: SparseMem,
    arch: HashMap<Reg, u64>,
    rat: HashMap<Reg, u64>,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    pc: usize,
    fetch_stall_until: u64,
    halt_fetched: bool,
    finished: bool,
    bpred: Tournament,
    ras: Vec<usize>,
    tags: Vec<Vec<Option<u64>>>,
    lru: Vec<u8>,
    cycle: u64,
    stats: AlphaStats,
}

impl AlphaCore {
    /// Loads `prog` into a fresh core.
    ///
    /// # Errors
    ///
    /// Fails if the program has out-of-range branch targets.
    pub fn new(cfg: AlphaConfig, prog: &RiscProgram) -> Result<AlphaCore, AlphaError> {
        prog.check().map_err(AlphaError::BadProgram)?;
        let mut mem = SparseMem::new();
        for (base, data) in &prog.globals {
            mem.write_bytes(*base, data);
        }
        Ok(AlphaCore {
            tags: vec![vec![None; cfg.l1_ways]; cfg.l1_sets],
            lru: vec![0; cfg.l1_sets],
            pc: prog.entry,
            cfg,
            prog: prog.clone(),
            mem,
            arch: HashMap::new(),
            rat: HashMap::new(),
            rob: VecDeque::new(),
            next_seq: 0,
            fetch_stall_until: 0,
            halt_fetched: false,
            finished: false,
            bpred: Tournament::new(),
            ras: Vec::new(),
            cycle: 0,
            stats: AlphaStats::default(),
        })
    }

    /// Final memory, for result checking.
    pub fn memory(&self) -> &SparseMem {
        &self.mem
    }

    /// Runs to `halt` or `max_cycles`.
    ///
    /// # Errors
    ///
    /// [`AlphaError::Timeout`] if the program does not halt in budget.
    pub fn run(&mut self, max_cycles: u64) -> Result<AlphaStats, AlphaError> {
        while !self.finished {
            if self.cycle >= max_cycles {
                return Err(AlphaError::Timeout {
                    cycles: self.cycle,
                    insts_committed: self.stats.insts_committed,
                });
            }
            self.tick();
        }
        self.stats.cycles = self.cycle;
        Ok(self.stats.clone())
    }

    fn tick(&mut self) {
        self.commit();
        if self.finished {
            return;
        }
        self.execute();
        self.fetch();
        self.cycle += 1;
    }

    fn entry_by_seq(&self, seq: u64) -> Option<&RobEntry> {
        let front = self.rob.front()?.seq;
        self.rob.get((seq.checked_sub(front)?) as usize)
    }

    fn src_ready(&self, s: &Src, now: u64) -> bool {
        match s {
            Src::Ready(_) => true,
            Src::Rob(seq) => match self.entry_by_seq(*seq) {
                Some(e) => e.state == EState::Done && e.done_at <= now,
                None => true, // producer already committed
            },
        }
    }

    fn src_value(&self, s: &Src, seq_hint: u64) -> u64 {
        match s {
            Src::Ready(v) => *v,
            Src::Rob(seq) => self
                .entry_by_seq(*seq)
                .map(|e| e.value)
                .unwrap_or_else(|| panic!("producer {seq} of {seq_hint} vanished")),
        }
    }

    fn is_hit(&self, ea: u64) -> bool {
        let line = ea >> 6;
        let set = (line as usize) % self.cfg.l1_sets;
        let tag = line;
        self.tags[set].contains(&Some(tag))
    }

    fn install(&mut self, ea: u64) {
        let line = ea >> 6;
        let set = (line as usize) % self.cfg.l1_sets;
        let tag = line;
        if self.tags[set].contains(&Some(tag)) {
            return;
        }
        let way = self.lru[set] as usize % self.cfg.l1_ways;
        self.tags[set][way] = Some(tag);
        self.lru[set] = (self.lru[set] + 1) % self.cfg.l1_ways as u8;
    }

    fn latency(&self, inst: &RInst) -> u64 {
        match inst {
            RInst::Bin { op, .. } | RInst::Un { op, .. } | RInst::BinImm { op, .. } => match op {
                Opcode::Mul => self.cfg.mul_lat,
                Opcode::Div | Opcode::Divu | Opcode::Mod => self.cfg.div_lat,
                Opcode::Fdiv | Opcode::Fsqrt => self.cfg.fdiv_lat,
                o if o.is_fp() => self.cfg.fp_lat,
                _ => 1,
            },
            _ => 1,
        }
    }

    fn execute(&mut self) {
        let now = self.cycle;
        let mut int_used = 0;
        let mut mem_used = 0;
        let mut fp_used = 0;
        let mut issued = 0;
        let mut iq_seen = 0;
        for i in 0..self.rob.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            if self.rob[i].state != EState::Waiting {
                continue;
            }
            // Finite issue queue: only the oldest unissued entries are
            // visible to select.
            iq_seen += 1;
            if iq_seen > self.cfg.iq_entries {
                break;
            }
            let inst = self.prog.insts[self.rob[i].pc].clone();
            if !self.rob[i].srcs.iter().all(|s| self.src_ready(s, now)) {
                continue;
            }
            // Unit availability.
            // Loads and stores issue through the integer pipes on the
            // 21264, so they consume both a memory port and an integer
            // slot.
            let unit_ok = if inst.is_mem() {
                mem_used < self.cfg.mem_ports && int_used < self.cfg.int_units
            } else if inst.is_fp() {
                fp_used < self.cfg.fp_units
            } else {
                int_used < self.cfg.int_units
            };
            if !unit_ok {
                continue;
            }
            // Conservative disambiguation: a load waits until every
            // older store knows its address (and its data, when the
            // addresses overlap).
            if let RInst::Load { op, .. } = inst {
                let bytes = op.access_bytes();
                let seq = self.rob[i].seq;
                let addr = self.src_value(&self.rob[i].srcs[0], seq);
                let off = match inst {
                    RInst::Load { off, .. } => off,
                    _ => unreachable!(),
                };
                let ea = addr.wrapping_add(off as i64 as u64);
                let mut blocked = false;
                for j in 0..i {
                    if let RInst::Store { .. } = self.prog.insts[self.rob[j].pc] {
                        match self.rob[j].ea {
                            None => {
                                blocked = true;
                                break;
                            }
                            Some(sa) => {
                                let sb = u64::from(self.rob[j].store_bytes);
                                // On the 2^64 address ring, as `SparseMem` wraps.
                                let overlap = ea.wrapping_sub(sa) < sb
                                    || sa.wrapping_sub(ea) < u64::from(bytes);
                                if overlap && self.rob[j].store_val.is_none() {
                                    blocked = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if blocked {
                    continue;
                }
                // Value: memory overlaid with older in-flight stores.
                let mut buf = [0u8; 8];
                self.mem.read_bytes(ea, &mut buf[..bytes as usize]);
                let mut forwarded = false;
                for j in 0..i {
                    if let RInst::Store { .. } = self.prog.insts[self.rob[j].pc] {
                        let (Some(sa), Some(sv)) = (self.rob[j].ea, self.rob[j].store_val) else {
                            continue;
                        };
                        let sb = u64::from(self.rob[j].store_bytes);
                        for b in 0..u64::from(bytes) {
                            let into = ea.wrapping_add(b).wrapping_sub(sa);
                            if into < sb {
                                buf[b as usize] = (sv >> (8 * into)) as u8;
                                forwarded = true;
                            }
                        }
                    }
                }
                let raw = u64::from_le_bytes(buf);
                let lat = if forwarded || self.is_hit(ea) {
                    self.stats.l1_hits += 1;
                    self.cfg.l1_lat
                } else {
                    self.stats.l1_misses += 1;
                    self.cfg.l2_lat
                };
                self.install(ea);
                self.stats.loads += 1;
                let e = &mut self.rob[i];
                e.ea = Some(ea);
                e.value = extend_load(op, raw);
                e.state = EState::Done;
                e.done_at = now + lat;
                mem_used += 1;
                int_used += 1;
                issued += 1;
                continue;
            }

            // Everything else computes immediately.
            let seq = self.rob[i].seq;
            let vals: Vec<u64> = self.rob[i].srcs.iter().map(|s| self.src_value(s, seq)).collect();
            let lat = self.latency(&inst);
            match inst {
                RInst::Bin { op, .. } => {
                    let e = &mut self.rob[i];
                    e.value = eval(op, vals[0], vals[1], 0);
                }
                RInst::Un { op, .. } => {
                    let e = &mut self.rob[i];
                    e.value = eval(op, vals[0], 0, 0);
                }
                RInst::BinImm { op, imm, .. } => {
                    let v = match op {
                        Opcode::Addi => vals[0].wrapping_add(imm as u64),
                        Opcode::Subi => vals[0].wrapping_sub(imm as u64),
                        Opcode::Muli => vals[0].wrapping_mul(imm as u64),
                        Opcode::Andi => vals[0] & imm as u64,
                        Opcode::Ori => vals[0] | imm as u64,
                        Opcode::Xori => vals[0] ^ imm as u64,
                        _ => eval(op, vals[0], 0, imm as i32),
                    };
                    self.rob[i].value = v;
                }
                RInst::Const { val, .. } => self.rob[i].value = val as u64,
                RInst::Store { op, off, .. } => {
                    let ea = vals[0].wrapping_add(off as i64 as u64);
                    let e = &mut self.rob[i];
                    e.ea = Some(ea);
                    e.store_val = Some(vals[1]);
                    e.store_bytes = op.access_bytes();
                    mem_used += 1;
                    issued += 1;
                    e.state = EState::Done;
                    e.done_at = now + 1;
                    continue;
                }
                RInst::Bnz { target, .. } => {
                    self.stats.branches += 1;
                    let taken = vals[0] != 0;
                    let actual = if taken { target } else { self.rob[i].pc + 1 };
                    let (ghist, _) = self.rob[i].bsnap.clone().expect("branches snapshot");
                    self.bpred.train(self.rob[i].pc, ghist, taken);
                    if actual != self.rob[i].pred_next {
                        self.stats.mispredictions += 1;
                        self.mispredict(i, actual, now);
                        return; // ROB shape changed; stop this cycle
                    }
                }
                RInst::Jump { .. } | RInst::Call { .. } | RInst::Ret | RInst::Halt => {}
                RInst::Load { .. } => unreachable!("handled above"),
            }
            let e = &mut self.rob[i];
            e.state = EState::Done;
            e.done_at = now + lat;
            if inst.is_fp() {
                fp_used += 1;
            } else {
                int_used += 1;
            }
            issued += 1;
        }
    }

    fn mispredict(&mut self, rob_index: usize, actual: usize, now: u64) {
        // Squash everything younger. Sequence numbers of squashed
        // entries are reused so the window stays seq-contiguous.
        while self.rob.len() > rob_index + 1 {
            self.rob.pop_back();
        }
        self.next_seq = self.rob[rob_index].seq + 1;
        let e = &mut self.rob[rob_index];
        e.state = EState::Done;
        e.done_at = now + 1;
        let (ghist, ras) = e.bsnap.clone().expect("snapshot");
        // Correct the speculative predictor state: history reflects
        // the actual outcome.
        let taken = actual != e.pc + 1;
        self.bpred.ghist = (ghist << 1) | u32::from(taken);
        self.ras = ras;
        self.pc = actual;
        self.halt_fetched = false;
        self.fetch_stall_until = now + self.cfg.mispredict_penalty;
        // Rebuild the RAT from the surviving window.
        self.rat.clear();
        for e in &self.rob {
            if let Some(d) = e.dst {
                self.rat.insert(d, e.seq);
            }
        }
    }

    fn commit(&mut self) {
        let now = self.cycle;
        for _ in 0..self.cfg.commit_width {
            let Some(front) = self.rob.front() else {
                return;
            };
            if front.state != EState::Done || front.done_at > now {
                return;
            }
            let e = self.rob.pop_front().expect("checked front");
            let inst = &self.prog.insts[e.pc];
            match inst {
                RInst::Store { .. } => {
                    let (Some(ea), Some(v)) = (e.ea, e.store_val) else {
                        unreachable!("store committed without address")
                    };
                    self.mem.write_uint(ea, v, e.store_bytes);
                    self.stats.stores += 1;
                }
                RInst::Halt => {
                    self.finished = true;
                    self.stats.insts_committed += 1;
                    return;
                }
                _ => {}
            }
            if let Some(d) = e.dst {
                self.arch.insert(d, e.value);
                if self.rat.get(&d) == Some(&e.seq) {
                    self.rat.remove(&d);
                }
                // Forward the retired value to any consumer still
                // holding a window reference.
                for w in &mut self.rob {
                    for s in &mut w.srcs {
                        if *s == Src::Rob(e.seq) {
                            *s = Src::Ready(e.value);
                        }
                    }
                }
            }
            self.stats.insts_committed += 1;
        }
    }

    fn fetch(&mut self) {
        let now = self.cycle;
        if now < self.fetch_stall_until || self.halt_fetched {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                return;
            }
            let pc = self.pc;
            let Some(inst) = self.prog.insts.get(pc).cloned() else {
                // Fell off the end: stall until a flush redirects.
                self.halt_fetched = true;
                return;
            };
            let srcs: Vec<Src> = inst
                .srcs()
                .iter()
                .map(|r| match self.rat.get(r) {
                    Some(&seq) => Src::Rob(seq),
                    None => Src::Ready(self.arch.get(r).copied().unwrap_or(0)),
                })
                .collect();
            let mut bsnap = None;
            let pred_next = match inst {
                RInst::Bnz { target, .. } => {
                    bsnap = Some((self.bpred.ghist, self.ras.clone()));
                    let taken = self.bpred.predict(pc);
                    self.bpred.ghist = (self.bpred.ghist << 1) | u32::from(taken);
                    if taken {
                        target
                    } else {
                        pc + 1
                    }
                }
                RInst::Jump { target } => target,
                RInst::Call { target } => {
                    self.ras.push(pc + 1);
                    target
                }
                RInst::Ret => self.ras.pop().unwrap_or(pc + 1),
                RInst::Halt => pc,
                _ => pc + 1,
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let dst = inst.dst();
            self.rob.push_back(RobEntry {
                seq,
                pc,
                srcs,
                dst,
                state: EState::Waiting,
                done_at: 0,
                value: 0,
                ea: None,
                store_val: None,
                store_bytes: 0,
                pred_next,
                bsnap,
            });
            if let Some(d) = dst {
                self.rat.insert(d, seq);
            }
            if matches!(inst, RInst::Halt) {
                self.halt_fetched = true;
                return;
            }
            let taken_away = pred_next != pc + 1;
            self.pc = pred_next;
            if taken_away {
                return; // fetch stops at a taken branch
            }
        }
    }
}
