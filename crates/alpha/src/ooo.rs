//! An Alpha-21264-like out-of-order core.
//!
//! The paper compares TRIPS against a 467 MHz Alpha 21264 through
//! Sim-Alpha with a perfect L2 (§5.4). This model reproduces the
//! relevant shape of that machine: 4-wide fetch with a tournament
//! branch predictor and return-address stack, an 80-entry reorder
//! window, 4 integer units, 2 memory ports and 2 FP units, of which
//! at most 4 issue per cycle (the 21264 can issue 6), a 64 KB 2-way
//! L1 data cache with 3-cycle hits, store-to-load forwarding with
//! conservative disambiguation, and in-order commit.
//!
//! Table 3 compares TRIPS with this one machine, so its parameters are
//! the constants below, each a named modelling choice.

use std::collections::{HashMap, VecDeque};

use trips_isa::mem::SparseMem;
use trips_isa::semantics::{eval, extend_load};
use trips_isa::Opcode;
use trips_mem::{TagStore, PERFECT_L2_LAT};

use crate::risc::{RInst, Reg, RiscProgram};

/// Instructions fetched per cycle (the 21264 fetches four).
const FETCH_WIDTH: usize = 4;
const _: () = assert!(FETCH_WIDTH >= 1, "a front end that fetches nothing never advances");
/// Reorder-window entries (the 21264 holds 80 instructions in flight).
const ROB_ENTRIES: usize = 80;
const _: () = assert!(ROB_ENTRIES >= 1, "fetch stalls forever on a window of none");
/// Integer units: branches, simple ALU ops and the address half of
/// every load and store (the 21264's two clusters of two).
const INT_UNITS: usize = 4;
const _: () = assert!(INT_UNITS >= 1, "no integer instruction or memory access would issue");
/// L1D ports, loads and stores per cycle (the 21264's two). They are
/// half of TRIPS's four, bounding `vadd`/`conv` speedups near 2×.
const MEM_PORTS: usize = 2;
const _: () = assert!(MEM_PORTS >= 1, "no memory access would issue");
/// FP units (the 21264's FP add and FP multiply pipes).
const FP_UNITS: usize = 2;
const _: () = assert!(FP_UNITS >= 1, "no FP instruction would issue");
/// Instructions selected per cycle over all units. The 21264 issues
/// up to six (four integer, two FP); this model stops at four.
const ISSUE_WIDTH: usize = 4;
const _: () = assert!(ISSUE_WIDTH >= 1, "select that issues nothing never advances");
/// Instructions retired per cycle (the 21264 sustains eight).
const COMMIT_WIDTH: usize = 8;
const _: () = assert!(COMMIT_WIDTH >= 1, "commit that retires nothing never advances");
/// Integer multiply latency (the 21264's seven cycles).
const MUL_LAT: u64 = 7;
/// Integer divide and remainder latency. The 21264 has no divide
/// instruction; 20 cycles stand in for its library routine.
const DIV_LAT: u64 = 20;
/// FP add/multiply latency (the 21264's four cycles).
const FP_LAT: u64 = 4;
/// FP divide and square-root latency, near the 21264's 15-cycle
/// double-precision divide.
const FDIV_LAT: u64 = 16;
/// L1D sets: the 21264's 64 KB, 2-way, 64 B-line data cache.
const L1_SETS: usize = 512;
/// L1D associativity (the 21264's two ways).
const L1_WAYS: usize = 2;
const _: () = assert!(L1_SETS >= 1, "the set index is `% L1_SETS`");
const _: () = assert!(L1_WAYS >= 1 && L1_WAYS <= 255, "`TagStore`'s victim pointers are `u8`");
/// L1D hit latency (the 21264's three-cycle load-to-use).
const L1_LAT: u64 = 3;
/// Cycles of fetch stall after a mispredicted branch resolves, above
/// the 21264's seven-cycle minimum.
const MISPREDICT_PENALTY: u64 = 11;
/// Issue-queue entries: only this many of the oldest not-yet-issued
/// instructions are candidates each cycle (the 21264's integer queue
/// holds 20).
const IQ_ENTRIES: usize = 20;
const _: () = assert!(IQ_ENTRIES >= 1, "select that sees nothing never advances");

/// The baseline core's configuration: the 21264, whose parameters are
/// this module's constants, so there is nothing to set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphaConfig;

impl AlphaConfig {
    /// The 21264.
    pub fn alpha21264() -> AlphaConfig {
        AlphaConfig
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
    tags: TagStore,
    cycle: u64,
    stats: AlphaStats,
}

impl AlphaCore {
    /// Loads `prog` into a fresh 21264.
    ///
    /// # Errors
    ///
    /// Fails if the program has out-of-range branch targets.
    pub fn new(_: AlphaConfig, prog: &RiscProgram) -> Result<AlphaCore, AlphaError> {
        prog.check().map_err(AlphaError::BadProgram)?;
        let mut mem = SparseMem::new();
        for (base, data) in &prog.globals {
            mem.write_bytes(*base, data);
        }
        Ok(AlphaCore {
            tags: TagStore::new(L1_SETS, L1_WAYS),
            pc: prog.entry,
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

    /// The L1's (set, tag) for `ea`: the tag is the whole line index.
    fn set_index(&self, ea: u64) -> (usize, u64) {
        let line = ea >> 6;
        ((line as usize) % L1_SETS, line)
    }

    fn is_hit(&self, ea: u64) -> bool {
        let (set, tag) = self.set_index(ea);
        self.tags.contains(set, tag)
    }

    fn install(&mut self, ea: u64) {
        let (set, tag) = self.set_index(ea);
        self.tags.install(set, tag);
    }

    fn latency(&self, inst: &RInst) -> u64 {
        match inst {
            RInst::Bin { op, .. } | RInst::Un { op, .. } | RInst::BinImm { op, .. } => match op {
                Opcode::Mul => MUL_LAT,
                Opcode::Div | Opcode::Divu | Opcode::Mod => DIV_LAT,
                Opcode::Fdiv | Opcode::Fsqrt => FDIV_LAT,
                o if o.is_fp() => FP_LAT,
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
            if issued >= ISSUE_WIDTH {
                break;
            }
            if self.rob[i].state != EState::Waiting {
                continue;
            }
            // Finite issue queue: only the oldest unissued entries are
            // visible to select.
            iq_seen += 1;
            if iq_seen > IQ_ENTRIES {
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
                mem_used < MEM_PORTS && int_used < INT_UNITS
            } else if inst.is_fp() {
                fp_used < FP_UNITS
            } else {
                int_used < INT_UNITS
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
                    L1_LAT
                } else {
                    self.stats.l1_misses += 1;
                    PERFECT_L2_LAT
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
        self.fetch_stall_until = now + MISPREDICT_PENALTY;
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
        for _ in 0..COMMIT_WIDTH {
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
        for _ in 0..FETCH_WIDTH {
            if self.rob.len() >= ROB_ENTRIES {
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
