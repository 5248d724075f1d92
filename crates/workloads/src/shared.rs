//! Shared-memory multicore workloads for the coherent chip.
//!
//! Unlike the Table 3 programs (one image per core, disjoint address
//! spaces), these build **one** program with one function per core;
//! every core loads the same image — code, globals, everything — and
//! starts at its own function's entry, so the one shared memory
//! starts as that image and all communication flows through the
//! coherence protocol. Each workload carries a final-state oracle: the `(addr,
//! value)` pairs a sequential execution would leave behind, which any
//! legal interleaving under the chip's TSO-like ordering must
//! reproduce exactly.
//!
//! The synchronization idioms are chosen for that ordering, not
//! despite it: stores drain at commit in program (lsid) order, so a
//! data store always becomes visible before the flag store that
//! publishes it — single-writer flag protocols are sound, while
//! Dekker-style mutual exclusion (store then load) is **not** (the
//! younger load may execute before the older store drains).
//! [`lockcount`] therefore uses a turn-based alternation lock, whose
//! single writer of `turn` needs no store→load ordering at all.

use trips_isa::ProgramImage;
use trips_tasm::{compile, BbId, FuncId, Opcode, ProgramBuilder, Quality};

use crate::data::{words, A, OUT};

/// Ring buffers for [`pcring`]: stage `s`'s ring lives at
/// `RING + s * 0x100`.
pub const RING: u64 = 0x30_0000;
/// [`pcring`] head counters, one cache line apart per stage.
pub const HEAD: u64 = 0x31_0000;
/// [`pcring`] tail counters, one cache line apart per stage.
pub const TAIL: u64 = 0x32_0000;
/// [`psum`] per-core partial sums, one cache line apart.
pub const PART: u64 = 0x33_0000;
/// [`psum`] per-core done flags, one cache line apart.
pub const FLAG: u64 = 0x34_0000;
/// [`lockcount`] shared counter.
pub const CTR: u64 = 0x35_0000;
/// [`lockcount`] turn variable (its own cache line).
pub const TURN: u64 = 0x35_0040;

/// A compiled shared-memory workload: one image per core plus the
/// sequential-execution oracle.
#[derive(Debug, Clone)]
pub struct SharedProgram {
    /// Per-core images — clones of one compiled image whose `entry`
    /// points at that core's function.
    pub images: Vec<ProgramImage>,
    /// `(address, u64 value)` pairs the run must leave in memory.
    pub expected: Vec<(u64, u64)>,
}

/// A registered shared-memory workload; `gen` builds the images and
/// oracle for an `ncores`-core chip.
#[derive(Debug, Clone, Copy)]
pub struct SharedWorkload {
    /// Registry name.
    pub name: &'static str,
    /// Generator, parameterized on the core count.
    pub gen: fn(usize) -> SharedProgram,
    /// Fewest cores `gen` accepts; it panics below this.
    pub min_cores: usize,
}

/// The shared-memory registry, used by `chipsim --shared` and the
/// protofuzz coherence axis.
pub fn all() -> Vec<SharedWorkload> {
    vec![
        SharedWorkload { name: "pcring", gen: pcring, min_cores: 2 },
        SharedWorkload { name: "psum", gen: psum, min_cores: 1 },
        SharedWorkload { name: "lockcount", gen: lockcount, min_cores: 1 },
    ]
}

/// Compiles `p` and clones the image once per function, pointing each
/// clone's entry at function `k` — core `k` runs function `k` of the
/// one shared image.
fn per_core_images(p: ProgramBuilder, ncores: usize) -> Vec<ProgramImage> {
    let compiled = compile(&p.finish(), Quality::Compiled)
        .unwrap_or_else(|e| panic!("shared workload failed to compile: {e:?}"));
    (0..ncores)
        .map(|k| {
            let entry = compiled
                .blocks
                .iter()
                .find(|b| b.func == FuncId(k as u32) && b.head == BbId(0))
                .unwrap_or_else(|| panic!("no entry block for core {k}'s function"))
                .addr;
            let mut image = compiled.image.clone();
            image.entry = entry;
            image
        })
        .collect()
}

/// `pcring`: an `ncores`-stage producer/consumer pipeline over 4-slot
/// rings. Stage 0 produces `3i + 1`; each middle stage `k` adds `7k`
/// and forwards; the last stage accumulates the sum. Head/tail
/// counters use the drain-order flag protocol: the slot's data store
/// drains strictly before the head store that publishes it.
///
/// # Panics
///
/// Panics unless `ncores >= 2`.
pub fn pcring(ncores: usize) -> SharedProgram {
    assert!(ncores >= 2, "pcring needs a producer and a consumer");
    const N: i64 = 32;
    const R: i64 = 4;
    let ring = |s: usize| RING + 0x100 * s as u64;
    let head = |s: usize| HEAD + 64 * s as u64;
    let tail = |s: usize| TAIL + 64 * s as u64;

    let mut p = ProgramBuilder::new();
    // Stage 0: produce 3i+1 into ring 0, honoring the consumer's tail.
    {
        let mut f = p.func("stage0", 0);
        let rp = f.iconst(ring(0) as i64);
        let hp = f.iconst(head(0) as i64);
        let tp = f.iconst(tail(0) as i64);
        let i = f.fresh();
        f.iconst_into(i, 0);
        let spin = f.new_block();
        let work = f.new_block();
        let done = f.new_block();
        f.jmp(spin);
        f.switch_to(spin); // wait for a free slot: i - tail < R
        let t = f.load(Opcode::Ld, tp, 0);
        let used = f.bin(Opcode::Sub, i, t);
        let c = f.bini(Opcode::Tlti, used, R);
        f.br(c, work, spin);
        f.switch_to(work);
        let v3 = f.bini(Opcode::Muli, i, 3);
        let v = f.addi(v3, 1);
        let slot = f.bini(Opcode::Andi, i, R - 1);
        let off = f.bini(Opcode::Slli, slot, 3);
        let sp = f.bin(Opcode::Add, rp, off);
        f.store(Opcode::Sd, sp, 0, v); // data first…
        let i1 = f.addi(i, 1);
        f.store(Opcode::Sd, hp, 0, i1); // …head publishes it (lsid order)
        f.mov_into(i, i1);
        let more = f.bini(Opcode::Tlti, i, N);
        f.br(more, spin, done);
        f.switch_to(done);
        f.halt();
        f.finish();
    }
    // Middle stages: consume ring k-1, add 7k, produce into ring k.
    // The last stage consumes ring ncores-2 and accumulates instead.
    for k in 1..ncores {
        let last = k == ncores - 1;
        let mut f = p.func(&format!("stage{k}"), 0);
        let rp_in = f.iconst(ring(k - 1) as i64);
        let hp_in = f.iconst(head(k - 1) as i64);
        let tp_in = f.iconst(tail(k - 1) as i64);
        let (rp_out, hp_out, tp_out) = if last {
            (None, None, None)
        } else {
            (
                Some(f.iconst(ring(k) as i64)),
                Some(f.iconst(head(k) as i64)),
                Some(f.iconst(tail(k) as i64)),
            )
        };
        let i = f.fresh();
        f.iconst_into(i, 0);
        let acc = f.fresh();
        f.iconst_into(acc, 0);
        let spin_in = f.new_block();
        let take = f.new_block();
        let done = f.new_block();
        f.jmp(spin_in);
        f.switch_to(spin_in); // wait for an item: head > i
        let h = f.load(Opcode::Ld, hp_in, 0);
        let avail = f.bin(Opcode::Tgt, h, i);
        f.br(avail, take, spin_in);
        f.switch_to(take);
        let slot = f.bini(Opcode::Andi, i, R - 1);
        let off = f.bini(Opcode::Slli, slot, 3);
        let sp_in = f.bin(Opcode::Add, rp_in, off);
        let v = f.load(Opcode::Ld, sp_in, 0);
        let i1 = f.addi(i, 1);
        f.store(Opcode::Sd, tp_in, 0, i1); // slot consumed: free it
        if last {
            f.bin_into(acc, Opcode::Add, acc, v);
            f.mov_into(i, i1);
            let more = f.bini(Opcode::Tlti, i, N);
            f.br(more, spin_in, done);
        } else {
            let spin_out = f.new_block();
            let put = f.new_block();
            f.jmp(spin_out);
            f.switch_to(spin_out); // wait for a free downstream slot
            let t = f.load(Opcode::Ld, tp_out.unwrap(), 0);
            let used = f.bin(Opcode::Sub, i, t);
            let c = f.bini(Opcode::Tlti, used, R);
            f.br(c, put, spin_out);
            f.switch_to(put);
            let w = f.addi(v, 7 * k as i64);
            let sp_out = f.bin(Opcode::Add, rp_out.unwrap(), off);
            f.store(Opcode::Sd, sp_out, 0, w);
            f.store(Opcode::Sd, hp_out.unwrap(), 0, i1);
            f.mov_into(i, i1);
            let more = f.bini(Opcode::Tlti, i, N);
            f.br(more, spin_in, done);
        }
        f.switch_to(done);
        if last {
            let op = f.iconst(OUT as i64);
            f.store(Opcode::Sd, op, 0, acc);
            f.store(Opcode::Sd, op, 8, i);
        }
        f.halt();
        f.finish();
    }

    // Sequential oracle: each item gains 7k at every middle stage.
    let boost: u64 = (1..ncores.saturating_sub(1)).map(|k| 7 * k as u64).sum();
    let sum: u64 = (0..N as u64).fold(0u64, |s, i| s.wrapping_add(3 * i + 1 + boost));
    let mut expected = vec![(OUT, sum), (OUT + 8, N as u64)];
    for s in 0..ncores - 1 {
        expected.push((head(s), N as u64));
        expected.push((tail(s), N as u64));
    }
    SharedProgram { images: per_core_images(p, ncores), expected }
}

/// `psum`: parallel vector reduction. Core `k` sums its 64-word chunk
/// of `A`, publishes the partial through a done flag (partial store
/// drains before the flag store), and core 0 combines the partials
/// into `OUT` once every flag is up.
pub fn psum(ncores: usize) -> SharedProgram {
    const L: usize = 64;
    let data = words(91, ncores * L, 1 << 20);
    let mut p = ProgramBuilder::new();
    p.global_words(A, &data);
    for k in 0..ncores {
        let mut f = p.func(&format!("sum{k}"), 0);
        let base = f.iconst((A + (k * L * 8) as u64) as i64);
        let acc = f.fresh();
        f.iconst_into(acc, 0);
        crate::data::counted_loop(&mut f, L as i64, 1, |f, i, _| {
            let off = f.bini(Opcode::Slli, i, 3);
            let ap = f.bin(Opcode::Add, base, off);
            let x = f.load(Opcode::Ld, ap, 0);
            f.bin_into(acc, Opcode::Add, acc, x);
        });
        let pp = f.iconst((PART + 64 * k as u64) as i64);
        f.store(Opcode::Sd, pp, 0, acc); // partial first…
        let fp = f.iconst((FLAG + 64 * k as u64) as i64);
        let one = f.iconst(1);
        f.store(Opcode::Sd, fp, 0, one); // …flag publishes it
        if k == 0 {
            // Combine: wait for each peer's flag, then add its partial.
            let total = f.fresh();
            f.mov_into(total, acc);
            for j in 1..ncores {
                let fpj = f.iconst((FLAG + 64 * j as u64) as i64);
                let spin = f.new_block();
                let grab = f.new_block();
                f.jmp(spin);
                f.switch_to(spin);
                let g = f.load(Opcode::Ld, fpj, 0);
                let up = f.bini(Opcode::Teqi, g, 1);
                f.br(up, grab, spin);
                f.switch_to(grab);
                let ppj = f.iconst((PART + 64 * j as u64) as i64);
                let part = f.load(Opcode::Ld, ppj, 0);
                f.bin_into(total, Opcode::Add, total, part);
            }
            let op = f.iconst(OUT as i64);
            f.store(Opcode::Sd, op, 0, total);
        }
        f.halt();
        f.finish();
    }

    let partials: Vec<u64> = (0..ncores)
        .map(|k| data[k * L..(k + 1) * L].iter().fold(0u64, |s, &x| s.wrapping_add(x)))
        .collect();
    let total = partials.iter().fold(0u64, |s, &x| s.wrapping_add(x));
    let mut expected = vec![(OUT, total)];
    for (k, &part) in partials.iter().enumerate() {
        expected.push((PART + 64 * k as u64, part));
        expected.push((FLAG + 64 * k as u64, 1));
    }
    SharedProgram { images: per_core_images(p, ncores), expected }
}

/// `lockcount`: every core increments one shared counter 8 times under
/// a turn-based alternation lock — core `k` enters only when `turn ==
/// k` and hands off with `turn = (k+1) % ncores`. Alternation (not
/// Dekker/Peterson) because the chip's TSO-like ordering lets a
/// younger load pass an older undrained store; here each variable has
/// a single writer per handoff, so no store→load ordering is needed.
pub fn lockcount(ncores: usize) -> SharedProgram {
    const T: i64 = 8;
    let mut p = ProgramBuilder::new();
    for k in 0..ncores {
        let mut f = p.func(&format!("lock{k}"), 0);
        let cp = f.iconst(CTR as i64);
        let tp = f.iconst(TURN as i64);
        let next = f.iconst(((k + 1) % ncores) as i64);
        let j = f.fresh();
        f.iconst_into(j, 0);
        let spin = f.new_block();
        let crit = f.new_block();
        let done = f.new_block();
        f.jmp(spin);
        f.switch_to(spin); // my turn?
        let t = f.load(Opcode::Ld, tp, 0);
        let mine = f.bini(Opcode::Teqi, t, k as i64);
        f.br(mine, crit, spin);
        f.switch_to(crit);
        let v = f.load(Opcode::Ld, cp, 0);
        let v1 = f.addi(v, 1);
        f.store(Opcode::Sd, cp, 0, v1); // counter first…
        f.store(Opcode::Sd, tp, 0, next); // …then the handoff
        f.bini_into(j, Opcode::Addi, j, 1);
        let more = f.bini(Opcode::Tlti, j, T);
        f.br(more, spin, done);
        f.switch_to(done);
        f.halt();
        f.finish();
    }
    let expected = vec![(CTR, (ncores as i64 * T) as u64), (TURN, 0)];
    SharedProgram { images: per_core_images(p, ncores), expected }
}
