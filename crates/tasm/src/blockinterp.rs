//! A dataflow reference interpreter for compiled TRIPS images.
//!
//! This executes encoded blocks with the *architectural* semantics of
//! the EDGE ISA — dataflow firing, predication, nullification, LSID
//! memory ordering, block-atomic commit — but no timing. It sits
//! between the IR interpreter and the cycle-level core: toolchain bugs
//! show up as IR-vs-block divergence, core protocol bugs as
//! block-vs-core divergence.
//!
//! The interpreter is event-driven (DESIGN.md §5h): a block is decoded
//! once per run into a `Plan` — its *decoded ready state* — and each
//! execution resets a fixed-size `Active` state and fires
//! instructions as operand deliveries complete them. Nothing re-scans
//! the block, and executing a block allocates nothing.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

use trips_isa::mem::SparseMem;
pub use trips_isa::semantics::Tok;
use trips_isa::semantics::{eval, extend_load};
use trips_isa::{
    decode, decode_header, BranchKind, DecodeError, Format, Instruction, Opcode, OperandNeeds,
    OperandSlot, Pred, ProgramImage, Target, TripsBlock, CHUNK_BYTES, MAX_BLOCK_BYTES,
    MAX_BLOCK_INSTS,
};

/// Errors from block-level execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockInterpError {
    /// A block failed to decode at `addr`.
    Decode {
        /// The block address.
        addr: u64,
        /// The decoder's message.
        msg: String,
    },
    /// The block stalled before producing all outputs.
    Deadlock {
        /// The block address.
        addr: u64,
        /// What was still missing.
        missing: String,
    },
    /// A block fired more than one branch.
    MultipleBranches {
        /// The block address.
        addr: u64,
    },
    /// An operand arrived at a slot that already held a token.
    DoubleDelivery {
        /// The block address.
        addr: u64,
        /// The consumer instruction index.
        inst: u8,
    },
    /// An instruction fired that has no architectural meaning: a
    /// register branch whose target operand is null, or `getra`.
    Unexecutable {
        /// The block address.
        addr: u64,
        /// The instruction index.
        inst: u8,
        /// What is wrong with it.
        why: &'static str,
    },
    /// The block budget was exhausted (probable infinite loop).
    BlockLimit,
}

impl fmt::Display for BlockInterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockInterpError::Decode { addr, msg } => {
                write!(f, "decode failed at {addr:#x}: {msg}")
            }
            BlockInterpError::Deadlock { addr, missing } => {
                write!(f, "block {addr:#x} deadlocked; missing {missing}")
            }
            BlockInterpError::MultipleBranches { addr } => {
                write!(f, "block {addr:#x} fired more than one branch")
            }
            BlockInterpError::DoubleDelivery { addr, inst } => {
                write!(f, "block {addr:#x}: double operand delivery to N[{inst}]")
            }
            BlockInterpError::Unexecutable { addr, inst, why } => {
                write!(f, "block {addr:#x}: N[{inst}] cannot execute: {why}")
            }
            BlockInterpError::BlockLimit => write!(f, "block budget exhausted"),
        }
    }
}

impl std::error::Error for BlockInterpError {}

/// Result of running an image to halt.
#[derive(Debug)]
pub struct BlockRunResult {
    /// Final memory.
    pub mem: SparseMem,
    /// Final architectural registers.
    pub regs: [u64; 128],
    /// Blocks committed.
    pub blocks: u64,
    /// Useful instructions fired (reads and writes not counted, like
    /// the hardware's IPC accounting).
    pub insts: u64,
}

/// Runs `image` from its entry until a `halt` branch commits.
///
/// # Errors
///
/// See [`BlockInterpError`].
pub fn run_image(
    image: &ProgramImage,
    max_blocks: u64,
) -> Result<BlockRunResult, BlockInterpError> {
    run_image_trace(image, max_blocks, |_| {})
}

/// [`run_image`] with a per-block hook: `visit(pc)` fires before each
/// block executes, in architectural order. This is the debugging seam
/// for divergence triage — record the oracle's block-address sequence
/// and diff it against a core's committed-block trace (the flight
/// recorder's `BlockAck` events) to localize where a run left the
/// architectural path.
///
/// # Errors
///
/// See [`BlockInterpError`].
pub fn run_image_trace<F: FnMut(u64)>(
    image: &ProgramImage,
    max_blocks: u64,
    mut visit: F,
) -> Result<BlockRunResult, BlockInterpError> {
    let mut mem = SparseMem::from_image(image);
    let mut regs = [0u64; 128];
    let mut plans = PlanCache { plans: HashMap::new(), lo: image.entry, hi: image.entry };
    let mut active = Active::new();
    let mut pc = image.entry;
    let mut blocks = 0u64;
    let mut insts = 0u64;
    loop {
        if blocks >= max_blocks {
            return Err(BlockInterpError::BlockLimit);
        }
        visit(pc);
        let next = execute_block(&mut plans, &mut active, &mut regs, &mut mem, pc)?;
        blocks += 1;
        insts += active.fired;
        match next {
            Some(next) => pc = next,
            None => return Ok(BlockRunResult { mem, regs, blocks, insts }),
        }
    }
}

fn slot_ix(slot: OperandSlot) -> usize {
    match slot {
        OperandSlot::Left => 0,
        OperandSlot::Right => 1,
        OperandSlot::Predicate => 2,
    }
}

/// [`Plan::need`] of a slot that never fires: a `nop`, or an index
/// past the block's trimmed end. No have-mask contains it.
const NEVER: u8 = 0x80;

/// The *decoded ready state* of one block: everything about it that
/// is the same on every execution.
struct Plan {
    block: TripsBlock,
    /// Encoded footprint; a store into it invalidates the plan.
    bytes: u64,
    /// Per instruction, the slots (bit [`slot_ix`]) that must hold a
    /// token before it fires — L/R from the opcode, P from the
    /// predicate field — or [`NEVER`].
    need: [u8; MAX_BLOCK_INSTS],
    /// Per (instruction, slot), how many body-instruction targets name
    /// it. Header reads are not counted: they always deliver.
    producers: Vec<[u16; 3]>,
    /// Store instructions per LSID, and the LSIDs that have any.
    stores: [u8; 32],
    store_lsids: u32,
    /// Instructions that need nothing and are ready at dispatch.
    roots: Vec<u8>,
    /// Instructions with a needed slot that nothing targets.
    starved: Vec<u8>,
}

impl Plan {
    /// Reads and decodes the block at `addr` from simulated memory.
    fn build(mem: &SparseMem, addr: u64) -> Result<Plan, BlockInterpError> {
        let err = |e: DecodeError| BlockInterpError::Decode { addr, msg: e.to_string() };
        let mut bytes = [0u8; MAX_BLOCK_BYTES];
        mem.read_bytes(addr, &mut bytes);
        let (_, chunks) = decode_header(&bytes).map_err(err)?;
        let block = decode(&bytes).map_err(err)?;
        let n = block.insts.len();
        let mut plan = Plan {
            bytes: (CHUNK_BYTES * (1 + chunks)) as u64,
            need: [NEVER; MAX_BLOCK_INSTS],
            producers: vec![[0; 3]; n],
            stores: [0; 32],
            store_lsids: 0,
            roots: Vec::new(),
            starved: Vec::new(),
            block,
        };
        let mut fed = [0u8; MAX_BLOCK_INSTS];
        for t in plan.block.header.reads.iter().flatten().flat_map(|r| r.targets) {
            if let Target::Inst { idx, slot } = t {
                fed[idx as usize] |= 1 << slot_ix(slot);
            }
        }
        for inst in plan.block.insts.iter().filter(|i| !i.is_nop()) {
            for t in inst.targets {
                if let Target::Inst { idx, slot } = t {
                    fed[idx as usize] |= 1 << slot_ix(slot);
                    if let Some(p) = plan.producers.get_mut(idx as usize) {
                        p[slot_ix(slot)] += 1;
                    }
                }
            }
            if inst.opcode.is_store() {
                plan.stores[inst.lsid as usize] += 1;
                plan.store_lsids |= 1 << inst.lsid;
            }
        }
        for (i, inst) in plan.block.insts.iter().enumerate().filter(|(_, i)| !i.is_nop()) {
            let data = match inst.opcode.needs() {
                OperandNeeds::None => 0b000,
                OperandNeeds::Left => 0b001,
                OperandNeeds::LeftRight => 0b011,
            };
            let need = data | if inst.pred == Pred::None { 0 } else { 0b100 };
            plan.need[i] = need;
            if need == 0 {
                plan.roots.push(i as u8);
            } else if need & !fed[i] != 0 {
                plan.starved.push(i as u8);
            }
        }
        Ok(plan)
    }
}

/// The plans of the blocks a run has visited, keyed by block address.
/// The cache is invisible: fetch means "what simulated memory holds",
/// so a committed store into a cached block's bytes drops its plan.
struct PlanCache {
    plans: HashMap<u64, Plan>,
    /// Lowest and highest block address ever cached.
    lo: u64,
    hi: u64,
}

impl PlanCache {
    fn fetch(&mut self, mem: &SparseMem, addr: u64) -> Result<&Plan, BlockInterpError> {
        Ok(match self.plans.entry(addr) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.lo = self.lo.min(addr);
                self.hi = self.hi.max(addr);
                v.insert(Plan::build(mem, addr)?)
            }
        })
    }

    /// Drops every plan the committed store `[a, a + n)` overlaps
    /// (the address space is a ring, as in [`SparseMem`]).
    fn store_committed(&mut self, a: u64, n: u32) {
        // Data stores land outside the code's span; one compare
        // rejects them. An overlapping store has `a` within 8 below
        // `lo` to `MAX_BLOCK_BYTES` above `hi`.
        let reach = (self.hi - self.lo).saturating_add(7 + MAX_BLOCK_BYTES as u64);
        if a.wrapping_sub(self.lo).wrapping_add(8) <= reach {
            self.plans.retain(|&addr, p| {
                a.wrapping_sub(addr) >= p.bytes && addr.wrapping_sub(a) >= u64::from(n)
            });
        }
    }
}

/// A fired store: (lsid, (addr, val, bytes)), `None` when nullified.
type FiredStore = (u8, Option<(u64, u64, u32)>);

/// The *active ready state* of the block in flight: reset, not
/// reallocated, per execution.
struct Active {
    /// Operand cells; valid where the matching `have` bit is set.
    cells: [[Tok; 3]; MAX_BLOCK_INSTS],
    have: [u8; MAX_BLOCK_INSTS],
    /// No longer waiting: queued, fired, or killed.
    done: [bool; MAX_BLOCK_INSTS],
    /// Per (instruction, slot), producers that have not been killed.
    live: [[u16; 3]; MAX_BLOCK_INSTS],
    /// Per LSID, stores neither fired nor killed; bit set while > 0.
    pending: [u8; 32],
    pending_mask: u32,
    /// Instructions whose needed operands are all present.
    ready: Vec<u8>,
    ready_loads: Vec<u8>,
    writes: [Option<Tok>; 32],
    /// Sorted by LSID, and by firing order within one.
    stores: Vec<FiredStore>,
    /// The fired branch's target; `Some(None)` is `halt`.
    branch: Option<Option<u64>>,
    /// Useful instructions fired by the last block.
    fired: u64,
}

impl Active {
    fn new() -> Active {
        Active {
            cells: [[Tok::Null; 3]; MAX_BLOCK_INSTS],
            have: [0; MAX_BLOCK_INSTS],
            done: [false; MAX_BLOCK_INSTS],
            live: [[0; 3]; MAX_BLOCK_INSTS],
            pending: [0; 32],
            pending_mask: 0,
            ready: Vec::with_capacity(MAX_BLOCK_INSTS),
            ready_loads: Vec::with_capacity(MAX_BLOCK_INSTS),
            writes: [None; 32],
            stores: Vec::with_capacity(32),
            branch: None,
            fired: 0,
        }
    }

    /// Dispatches `plan`: clears the previous block's state, queues
    /// the roots, delivers the header reads, kills the starved.
    fn reset(&mut self, plan: &Plan, regs: &[u64; 128], addr: u64) -> Result<(), BlockInterpError> {
        self.have = [0; MAX_BLOCK_INSTS];
        self.done = [false; MAX_BLOCK_INSTS];
        self.live[..plan.producers.len()].copy_from_slice(&plan.producers);
        self.pending = plan.stores;
        self.pending_mask = plan.store_lsids;
        self.ready.clear();
        self.ready_loads.clear();
        self.writes = [None; 32];
        self.stores.clear();
        self.branch = None;
        self.fired = 0;
        for &i in &plan.roots {
            self.done[i as usize] = true;
            self.ready.push(i);
        }
        for r in plan.block.header.reads.iter().flatten() {
            for t in r.targets {
                self.deliver(plan, addr, t, Tok::Val(regs[r.reg.num() as usize]))?;
            }
        }
        for &i in &plan.starved {
            if !self.done[i as usize] {
                self.kill(plan, i);
            }
        }
        Ok(())
    }

    /// Fills the target's slot. The consumer is queued once it has all
    /// it needs, and killed by a predicate token that mismatches; a
    /// token for a slot nobody waits on is stored and ignored.
    fn deliver(
        &mut self,
        plan: &Plan,
        addr: u64,
        t: Target,
        tok: Tok,
    ) -> Result<(), BlockInterpError> {
        match t {
            Target::None => {}
            Target::Write { slot } => {
                if self.writes[slot as usize].replace(tok).is_some() {
                    return Err(BlockInterpError::DoubleDelivery { addr, inst: 128 + slot });
                }
            }
            Target::Inst { idx, slot } => {
                let (c, s) = (idx as usize, slot_ix(slot));
                let bit = 1 << s;
                if self.have[c] & bit != 0 {
                    return Err(BlockInterpError::DoubleDelivery { addr, inst: idx });
                }
                self.have[c] |= bit;
                self.cells[c][s] = tok;
                if self.done[c] {
                    return Ok(());
                }
                let inst = plan.block.inst(idx);
                if matches!(tok, Tok::Val(v) if bit == 0b100 && !inst.pred.matches(v)) {
                    self.kill(plan, idx);
                } else if self.have[c] & plan.need[c] == plan.need[c] {
                    self.done[c] = true;
                    let queue =
                        if inst.opcode.is_load() { &mut self.ready_loads } else { &mut self.ready };
                    queue.push(idx);
                }
            }
        }
        Ok(())
    }

    /// Marks waiting instruction `idx` as never firing, and with it
    /// every consumer left waiting on a slot with no live producer.
    fn kill(&mut self, plan: &Plan, idx: u8) {
        self.done[idx as usize] = true;
        let inst = plan.block.inst(idx);
        if inst.opcode.is_store() {
            self.store_resolved(inst.lsid);
        }
        for t in inst.targets {
            if let Target::Inst { idx: consumer, slot } = t {
                let (c, s) = (consumer as usize, slot_ix(slot));
                if plan.need[c] & (1 << s) != 0 {
                    self.live[c][s] -= 1;
                    if self.live[c][s] == 0 && !self.done[c] && self.have[c] & (1 << s) == 0 {
                        self.kill(plan, consumer);
                    }
                }
            }
        }
    }

    /// A store of `lsid` fired or was killed.
    fn store_resolved(&mut self, lsid: u8) {
        self.pending[lsid as usize] -= 1;
        if self.pending[lsid as usize] == 0 {
            self.pending_mask &= !(1 << lsid);
        }
    }

    /// The ready load with the smallest LSID, once every older store
    /// has fired or can never fire.
    fn next_load(&mut self, plan: &Plan) -> Option<u8> {
        let lsid = |i: u8| plan.block.inst(i).lsid;
        let loads = &self.ready_loads;
        let at = (0..loads.len()).min_by_key(|&p| (lsid(loads[p]), loads[p]))?;
        let older = (1u32 << lsid(self.ready_loads[at])) - 1;
        (self.pending_mask & older == 0).then(|| self.ready_loads.swap_remove(at))
    }

    fn operand(&self, idx: u8, slot: usize) -> Option<Tok> {
        (self.have[idx as usize] & (1 << slot) != 0).then_some(self.cells[idx as usize][slot])
    }

    /// Fires queued instruction `idx`.
    fn fire(
        &mut self,
        plan: &Plan,
        mem: &SparseMem,
        addr: u64,
        idx: u8,
    ) -> Result<(), BlockInterpError> {
        let inst = plan.block.inst(idx);
        let (l, r) = (self.operand(idx, 0), self.operand(idx, 1));
        let null_pred = inst.pred != Pred::None && self.operand(idx, 2) == Some(Tok::Null);
        let nullified = null_pred || l == Some(Tok::Null) || r == Some(Tok::Null);
        let (lv, rv) = (l.and_then(Tok::value).unwrap_or(0), r.and_then(Tok::value).unwrap_or(0));
        self.fired += 1;
        if inst.opcode.is_store() {
            let ea = lv.wrapping_add(inst.imm as i64 as u64);
            let rec = (!nullified).then(|| (ea, rv, inst.opcode.access_bytes()));
            let at = self.stores.partition_point(|(lsid, _)| *lsid <= inst.lsid);
            self.stores.insert(at, (inst.lsid, rec));
            self.store_resolved(inst.lsid);
        } else if let Some(kind) = inst.opcode.branch_kind() {
            if self.branch.is_some() {
                return Err(BlockInterpError::MultipleBranches { addr });
            }
            self.branch = Some(match (kind, inst.opcode.format(), l) {
                (BranchKind::Halt, ..) => None,
                (_, Format::B, _) => Some(addr.wrapping_add((i64::from(inst.imm) * 128) as u64)),
                (.., Some(Tok::Val(target))) => Some(target),
                _ => {
                    let why = "register branch with a null target";
                    return Err(BlockInterpError::Unexecutable { addr, inst: idx, why });
                }
            });
        } else {
            let tok = if nullified || inst.opcode == Opcode::Null {
                Tok::Null
            } else if inst.opcode.is_load() {
                Tok::Val(self.load(mem, &inst, lv))
            } else if inst.opcode == Opcode::Getra {
                let why = "getra has no reference semantics";
                return Err(BlockInterpError::Unexecutable { addr, inst: idx, why });
            } else {
                Tok::Val(eval(inst.opcode, lv, rv, inst.imm))
            };
            for t in inst.targets {
                self.deliver(plan, addr, t, tok)?;
            }
        }
        Ok(())
    }

    /// The value `load` reads at `base + imm`: memory, unless an older
    /// store of this block wrote the same address at least as wide —
    /// then the youngest such store (the first fired, on an LSID tie).
    fn load(&self, mem: &SparseMem, load: &Instruction, base: u64) -> u64 {
        let ea = base.wrapping_add(load.imm as i64 as u64);
        let bytes = load.opcode.access_bytes();
        let mut raw = mem.read_uint(ea, bytes);
        let mut best: Option<u8> = None;
        for &(lsid, rec) in &self.stores {
            if let Some((sa, sv, sb)) = rec {
                if lsid < load.lsid && sa == ea && sb >= bytes && best.is_none_or(|b| lsid > b) {
                    raw = sv; // `extend_load` keeps the low `bytes`
                    best = Some(lsid);
                }
            }
        }
        extend_load(load.opcode, raw)
    }
}

/// Executes the block at `addr` against registers and memory,
/// committing its outputs atomically on success. Returns the next
/// block's address, or `None` once `halt` commits.
fn execute_block(
    plans: &mut PlanCache,
    active: &mut Active,
    regs: &mut [u64; 128],
    mem: &mut SparseMem,
    addr: u64,
) -> Result<Option<u64>, BlockInterpError> {
    let plan = plans.fetch(mem, addr)?;
    active.reset(plan, regs, addr)?;
    // Non-loads first; loads only when nothing else can fire.
    while let Some(idx) = active.ready.pop().or_else(|| active.next_load(plan)) {
        active.fire(plan, mem, addr, idx)?;
    }

    // Completion check.
    let header = &plan.block.header;
    let unstored = active.stores.iter().fold(header.store_mask, |m, (lsid, _)| m & !(1 << lsid));
    let mut missing = String::new();
    for lsid in (0..32).filter(|lsid| unstored & (1 << lsid) != 0) {
        missing.push_str(&format!("store lsid {lsid}; "));
    }
    for (s, (w, tok)) in header.writes.iter().zip(&active.writes).enumerate() {
        if w.is_some() && tok.is_none() {
            missing.push_str(&format!("write W[{s}]; "));
        }
    }
    if active.branch.is_none() {
        missing.push_str("branch; ");
    }
    let (Some(next), true) = (active.branch, missing.is_empty()) else {
        return Err(BlockInterpError::Deadlock { addr, missing });
    };

    // Commit: writes, then stores in LSID order.
    for (w, tok) in header.writes.iter().zip(&active.writes) {
        if let (Some(w), Some(Tok::Val(v))) = (w, tok) {
            regs[w.reg.num() as usize] = *v;
        }
    }
    for &(_, rec) in &active.stores {
        if let Some((a, v, n)) = rec {
            mem.write_uint(a, v, n);
            plans.store_committed(a, n);
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_isa::{encode, ArchReg, ReadInst, WriteInst};

    const A: u64 = 0x1_0000;
    /// Data cells, reachable by `movi`'s 14-bit immediate.
    const X: i32 = 0x1000;
    const Y: i32 = 0x1100;

    fn block(insts: &[Instruction]) -> TripsBlock {
        let mut b = TripsBlock::new();
        for &i in insts {
            b.push(i).unwrap();
        }
        b
    }

    /// `b` with header write `W[0]` = R4, validated.
    fn writing_r4(mut b: TripsBlock, store_mask: u32) -> TripsBlock {
        b.set_write(0, WriteInst::new(ArchReg::new(4))).unwrap();
        b.header.store_mask = store_mask;
        b.validate().unwrap();
        b
    }

    fn image(blocks: &[(u64, &TripsBlock)], cells: &[(i32, u64)]) -> ProgramImage {
        let mut img = ProgramImage::new();
        img.entry = blocks[0].0;
        for &(addr, b) in blocks {
            img.add_block(addr, b);
        }
        for &(addr, v) in cells {
            img.add_segment(addr as u64, v.to_le_bytes().to_vec());
        }
        img
    }

    fn movi(imm: i32, t: Target) -> Instruction {
        Instruction::movi(imm, [t, Target::none()])
    }

    fn mov(t0: Target, t1: Target) -> Instruction {
        Instruction::op(Opcode::Mov, [t0, t1])
    }

    fn halt() -> Instruction {
        Instruction::branch(Opcode::Halt, 0, 0)
    }

    /// Two stores share LSID 0 under opposite predicates; the load at
    /// LSID 1 is released when one fired and the other was killed by
    /// its predicate, and forwards from whichever fired.
    #[test]
    fn a_younger_load_forwards_from_whichever_predicated_store_fired() {
        for (p, expect) in [(1, 11), (0, 22)] {
            let b = writing_r4(
                block(&[
                    movi(p, Target::left(1)),
                    mov(Target::pred(6), Target::pred(7)),
                    movi(X, Target::left(3)),
                    mov(Target::left(4), Target::left(8)),
                    mov(Target::left(6), Target::left(7)),
                    movi(11, Target::right(6)),
                    Instruction::store(Opcode::Sd, 0, 0).with_pred(Pred::OnTrue),
                    Instruction::store(Opcode::Sd, 0, 0).with_pred(Pred::OnFalse),
                    Instruction::load(Opcode::Ld, 1, 0, Target::write(0)),
                    movi(22, Target::right(7)),
                    halt(),
                ]),
                0b1,
            );
            let r = run_image(&image(&[(A, &b)], &[(X, 5)]), 10).unwrap();
            assert_eq!(r.regs[4], expect, "p={p}: forwarded, not read from memory");
            assert_eq!(r.mem.read_u64(X as u64), expect);
            assert_eq!((r.blocks, r.insts), (1, 10), "the mismatched store is not counted");
        }
    }

    /// The store N[4] can never fire because its address producer sits
    /// two deep behind a mismatched predicate: the kill must cascade
    /// N[2] → N[3] → N[4] for the load at LSID 1 to be released.
    #[test]
    fn a_transitively_dead_store_releases_a_younger_load() {
        let b = writing_r4(
            block(&[
                movi(0, Target::left(1)),
                mov(Target::pred(2), Target::pred(9)),
                movi(Y, Target::left(3)).with_pred(Pred::OnTrue),
                mov(Target::left(4), Target::none()),
                Instruction::store(Opcode::Sd, 0, 0),
                movi(5, Target::right(4)),
                movi(X, Target::left(7)),
                Instruction::load(Opcode::Ld, 1, 0, Target::write(0)),
                halt(),
                Instruction::op(Opcode::Null, [Target::left(10), Target::right(10)])
                    .with_pred(Pred::OnFalse),
                Instruction::store(Opcode::Sd, 0, 0),
            ]),
            0b1,
        );
        let r = run_image(&image(&[(A, &b)], &[(X, 77)]), 10).unwrap();
        assert_eq!(r.regs[4], 77);
        assert_eq!(r.mem.read_u64(Y as u64), 0, "the live store was nullified");
    }

    /// The store at LSID 1 gets its data last, from the load at LSID
    /// 0; the load at LSID 2 of the store's address waits for it.
    #[test]
    fn a_load_waits_for_an_older_store_whose_data_arrives_last() {
        let b = writing_r4(
            block(&[
                movi(X, Target::left(1)),
                Instruction::load(Opcode::Ld, 0, 0, Target::right(4)),
                movi(Y, Target::left(3)),
                mov(Target::left(4), Target::left(5)),
                Instruction::store(Opcode::Sd, 1, 0),
                Instruction::load(Opcode::Ld, 2, 0, Target::write(0)),
                halt(),
            ]),
            0b10,
        );
        let r = run_image(&image(&[(A, &b)], &[(X, 77), (Y, 5)]), 10).unwrap();
        assert_eq!(r.regs[4], 77, "the younger load saw the store, not memory's 5");

        // The gate itself: feed the store from a load *younger* than
        // both and the middle load must wait forever, not read memory.
        let cyclic = writing_r4(
            block(&[
                movi(X, Target::left(1)),
                Instruction::load(Opcode::Ld, 2, 0, Target::right(4)),
                movi(Y, Target::left(3)),
                mov(Target::left(4), Target::left(5)),
                Instruction::store(Opcode::Sd, 0, 0),
                Instruction::load(Opcode::Ld, 1, 0, Target::write(0)),
                halt(),
            ]),
            0b1,
        );
        let e = run_image(&image(&[(A, &cyclic)], &[(X, 77), (Y, 5)]), 10).unwrap_err();
        assert_eq!(e.to_string(), "block 0x10000 deadlocked; missing store lsid 0; write W[0]; ");
    }

    /// Forwarding needs a store at least as wide as the load: `sb` does
    /// not satisfy `ld` (which reads memory as of block entry), `sd`
    /// does satisfy `lbu`.
    #[test]
    fn a_sub_word_store_does_not_forward_to_a_wider_load() {
        let b = |store: Opcode, load: Opcode| {
            writing_r4(
                block(&[
                    movi(X, Target::left(1)),
                    mov(Target::left(3), Target::left(4)),
                    movi(0xab, Target::right(3)),
                    Instruction::store(store, 0, 0),
                    Instruction::load(load, 1, 0, Target::write(0)),
                    halt(),
                ]),
                0b1,
            )
        };
        let old = 0x1111_1111_1111_1111;
        let r = run_image(&image(&[(A, &b(Opcode::Sb, Opcode::Ld))], &[(X, old)]), 10).unwrap();
        assert_eq!(r.regs[4], old);
        assert_eq!(r.mem.read_u64(X as u64), 0x1111_1111_1111_11ab);
        let r = run_image(&image(&[(A, &b(Opcode::Sd, Opcode::Lbu))], &[(X, old)]), 10).unwrap();
        assert_eq!(r.regs[4], 0xab);
    }

    #[test]
    fn malformed_blocks_are_errors_with_stable_messages() {
        let run = |insts: &[Instruction], max| {
            run_image(&image(&[(A, &block(insts))], &[]), max).unwrap_err()
        };
        let twice = [movi(1, Target::left(2)), movi(2, Target::left(2)), halt()];
        assert_eq!(run(&twice, 10), BlockInterpError::DoubleDelivery { addr: A, inst: 2 });
        assert_eq!(run(&twice, 10).to_string(), "block 0x10000: double operand delivery to N[2]");
        let e = run(&[Instruction::branch(Opcode::Bro, 0, 0), halt()], 10);
        assert_eq!(e, BlockInterpError::MultipleBranches { addr: A });
        assert_eq!(e.to_string(), "block 0x10000 fired more than one branch");
        // A block that branches to itself, served from the plan cache.
        assert_eq!(
            run(&[Instruction::branch(Opcode::Bro, 0, 0)], 10),
            BlockInterpError::BlockLimit
        );
        assert_eq!(BlockInterpError::BlockLimit.to_string(), "block budget exhausted");

        // Every output kind missing at once: a store and a write whose
        // producer is predicated off, and no branch.
        let mut starved = block(&[
            movi(0, Target::pred(1)),
            movi(X, Target::left(2)).with_pred(Pred::OnTrue),
            mov(Target::left(3), Target::write(0)),
            Instruction::store(Opcode::Sd, 3, 0),
            movi(1, Target::right(3)),
        ]);
        starved.set_write(0, WriteInst::new(ArchReg::new(4))).unwrap();
        starved.header.store_mask = 0b1000;
        let e = run_image(&image(&[(A, &starved)], &[]), 10).unwrap_err();
        assert_eq!(
            e.to_string(),
            "block 0x10000 deadlocked; missing store lsid 3; write W[0]; branch; "
        );
    }

    /// The two decodable images that used to panic, and `getra`.
    #[test]
    fn images_that_used_to_panic_return_a_result() {
        // A target past the trimmed end of the block is a nop's slot.
        let past_the_end = block(&[movi(1, Target::left(100)), halt()]);
        let r = run_image(&image(&[(A, &past_the_end)], &[]), 10).unwrap();
        assert_eq!((r.blocks, r.insts), (1, 2));
        // …where a second token is still a double delivery.
        let twice = block(&[movi(1, Target::left(100)), movi(2, Target::left(100)), halt()]);
        let e = run_image(&image(&[(A, &twice)], &[]), 10).unwrap_err();
        assert_eq!(e, BlockInterpError::DoubleDelivery { addr: A, inst: 100 });

        let null = Instruction::op(Opcode::Null, [Target::left(1), Target::none()]);
        let null_br = block(&[null, Instruction::branch_reg(Opcode::Br, 0)]);
        let e = run_image(&image(&[(A, &null_br)], &[]), 10).unwrap_err();
        assert_eq!(
            e.to_string(),
            "block 0x10000: N[1] cannot execute: register branch with a null target"
        );

        let getra = Instruction::op(Opcode::Getra, [Target::none(), Target::none()]);
        let e = run_image(&image(&[(A, &block(&[getra, halt()]))], &[]), 10).unwrap_err();
        assert!(matches!(e, BlockInterpError::Unexecutable { addr: A, inst: 0, .. }), "{e}");
    }

    /// Header reads deliver register values, and a read's predicate
    /// token kills like any other.
    #[test]
    fn header_reads_deliver_and_can_kill() {
        let first = writing_r4(
            block(&[movi(9, Target::write(0)), Instruction::branch(Opcode::Bro, 0, 2)]),
            0,
        );
        let mut second = block(&[
            movi(1, Target::write(1)).with_pred(Pred::OnFalse),
            Instruction::opi(Opcode::Addi, 1, [Target::write(1), Target::none()])
                .with_pred(Pred::OnTrue),
            halt(),
        ]);
        let read = ReadInst::new(ArchReg::new(4), [Target::pred(0), Target::pred(1)]);
        second.set_read(0, read).unwrap();
        second
            .set_read(1, ReadInst::new(ArchReg::new(4), [Target::left(1), Target::none()]))
            .unwrap();
        second.set_write(1, WriteInst::new(ArchReg::new(5))).unwrap();
        second.validate().unwrap();
        let r = run_image(&image(&[(A, &first), (A + 0x100, &second)], &[]), 10).unwrap();
        assert_eq!((r.regs[4], r.regs[5]), (9, 10));
        assert_eq!((r.blocks, r.insts), (2, 4));
    }

    /// The plan cache is invisible: `second` runs (and is cached),
    /// `first` overwrites two of its instruction words and branches
    /// back, and the new bytes execute. A stale plan would loop.
    #[test]
    fn a_store_into_a_cached_block_is_fetched_on_the_next_visit() {
        let second_at = A + 0x100;
        let second =
            |n: i32, exit: Instruction| writing_r4(block(&[movi(n, Target::write(0)), exit]), 0);
        let old = second(1, Instruction::branch(Opcode::Bro, 0, -2));
        let new = encode(&second(2, halt()));
        let word = |i: usize| u32::from_le_bytes(new[128 + 4 * i..][..4].try_into().unwrap());
        let genu = |v: u32, t| Instruction::constant(Opcode::Genu, (v >> 16) as u16, t);
        let app = |v: u32, t| Instruction::constant(Opcode::App, v as u16, t);
        let body = (second_at + 128) as u32;
        let mut first = block(&[
            genu(body, Target::left(1)),
            app(body, Target::left(2)),
            mov(Target::left(7), Target::left(8)),
            genu(word(0), Target::left(4)),
            app(word(0), Target::right(7)),
            genu(word(1), Target::left(6)),
            app(word(1), Target::right(8)),
            Instruction::store(Opcode::Sw, 0, 0),
            Instruction::store(Opcode::Sw, 1, 4),
            Instruction::branch(Opcode::Bro, 0, 2),
        ]);
        first.header.store_mask = 0b11;
        first.validate().unwrap();
        let mut img = image(&[(A, &first), (second_at, &old)], &[]);
        img.entry = second_at;
        let mut visited = Vec::new();
        let r = run_image_trace(&img, 10, |pc| visited.push(pc)).unwrap();
        assert_eq!(visited, [second_at, A, second_at]);
        assert_eq!(r.regs[4], 2);
    }

    /// `PlanCache::store_committed` drops exactly the overlapped
    /// plans, on a ring.
    #[test]
    fn store_invalidation_is_exact_at_the_edges_and_across_the_wrap() {
        let b = block(&[halt()]); // 256 bytes
        let top = 0u64.wrapping_sub(128);
        let mut mem = SparseMem::new();
        for addr in [A, A + 0x100, top] {
            mem.write_bytes(addr, &encode(&b));
        }
        let cached = |stores: &[(u64, u32)]| {
            let mut plans = PlanCache { plans: HashMap::new(), lo: A, hi: A };
            for addr in [A, A + 0x100, top] {
                plans.fetch(&mem, addr).unwrap();
            }
            for &(a, n) in stores {
                plans.store_committed(a, n);
            }
            let mut left: Vec<u64> = plans.plans.into_keys().collect();
            left.sort_unstable();
            left
        };
        assert_eq!(
            cached(&[(A - 8, 8), (A + 0x200, 8), (top - 1, 1), (128, 8)]),
            [A, A + 0x100, top]
        );
        assert_eq!(cached(&[(A - 7, 8)]), [A + 0x100, top]);
        assert_eq!(cached(&[(A + 0xff, 1)]), [A + 0x100, top]);
        assert_eq!(cached(&[(A + 0xfc, 8)]), [top], "a store straddling two blocks");
        assert_eq!(cached(&[(127, 1)]), [A, A + 0x100], "the block's second chunk wrapped to 0");
        assert_eq!(cached(&[(top - 4, 8)]), [A, A + 0x100]);
    }
}
