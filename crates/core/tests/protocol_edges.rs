//! Targeted protocol-edge tests: I-cache refills under capacity
//! pressure, the speculation-inhibit block flag, and flush storms.

use trips_core::{CoreConfig, CoreGeometry, Processor};
use trips_isa::{
    ArchReg, BlockFlags, Instruction, Opcode, ProgramImage, ReadInst, Target, TripsBlock, WriteInst,
};
use trips_tasm::{compile, Opcode as TOp, ProgramBuilder, Quality};

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// A long straight-line chain of blocks overflows the GT's I-cache
/// tags, forcing the GRN refill protocol; results stay correct.
#[test]
fn icache_refills_under_capacity_pressure() {
    let mut p = ProgramBuilder::new();
    let mut f = p.func("long", 0);
    let acc = f.fresh();
    f.iconst_into(acc, 0);
    // 200 basic blocks, each its own TRIPS block at Compiled quality.
    let blocks: Vec<_> = (0..200).map(|_| f.new_block()).collect();
    let done = f.new_block();
    f.jmp(blocks[0]);
    for (i, &b) in blocks.iter().enumerate() {
        f.switch_to(b);
        f.bini_into(acc, TOp::Addi, acc, (i + 1) as i64);
        let next = blocks.get(i + 1).copied().unwrap_or(done);
        f.jmp(next);
    }
    f.switch_to(done);
    let buf = f.iconst(0x10_0000);
    f.store(TOp::Sd, buf, 0, acc);
    f.halt();
    f.finish();
    let img = compile(&p.finish(), Quality::Compiled).expect("compiles").image;
    let mut cpu = Processor::new(lane());
    let stats = cpu.run(&img, 10_000_000).expect("runs");
    let expect: u64 = (1..=200).sum();
    assert_eq!(cpu.memory().read_u64(0x10_0000), expect);
    assert!(
        stats.icache_refills >= 100,
        "200 distinct blocks must overflow the 128-block tag capacity: {} refills",
        stats.icache_refills
    );
}

/// A block flagged INHIBIT_SPECULATION does not dispatch until it is
/// the oldest in-flight block (§3.1's execution-mode control).
#[test]
fn inhibit_speculation_serializes_dispatch() {
    // Block A: writes R4 := 7, branches to B.
    let mut a = TripsBlock::new();
    a.push(Instruction::movi(7, [Target::write(0), Target::none()])).unwrap();
    a.set_write(0, WriteInst::new(ArchReg::new(4))).unwrap();
    a.push(Instruction::branch(Opcode::Bro, 0, 2)).unwrap(); // next block at +256B
    a.validate().unwrap();

    // Block B (flagged): stores R4 to 0x11_0000, halts.
    let mut b = TripsBlock::new();
    b.header.flags = BlockFlags::INHIBIT_SPECULATION;
    b.set_read(0, ReadInst::new(ArchReg::new(4), [Target::right(2), Target::none()])).unwrap();
    b.push(Instruction::constant(Opcode::Genu, 0x11, Target::left(1))).unwrap();
    b.push(Instruction::constant(Opcode::App, 0, Target::left(2))).unwrap();
    b.push(Instruction::store(Opcode::Sd, 0, 0)).unwrap();
    b.push(Instruction::branch(Opcode::Halt, 0, 0)).unwrap();
    b.header.store_mask = 1;
    b.validate().unwrap();

    let mut img = ProgramImage::new();
    img.entry = 0x1_0000;
    img.add_block(0x1_0000, &a);
    img.add_block(0x1_0100, &b);

    let mut cpu = Processor::new(lane());
    let stats = cpu.run(&img, 100_000).expect("runs");
    assert_eq!(cpu.memory().read_u64(0x11_0000), 7, "B read A's committed write");
    let tl = &stats.timeline;
    assert_eq!(tl.len(), 2, "two blocks commit");
    assert!(
        tl[1].dispatch >= tl[0].ack,
        "flagged block dispatched at {} before A deallocated at {}",
        tl[1].dispatch,
        tl[0].ack
    );
}

/// Without the flag, the same pair overlaps (the speculative default).
#[test]
fn unflagged_blocks_dispatch_speculatively() {
    let mut a = TripsBlock::new();
    a.push(Instruction::movi(7, [Target::write(0), Target::none()])).unwrap();
    a.set_write(0, WriteInst::new(ArchReg::new(4))).unwrap();
    a.push(Instruction::branch(Opcode::Bro, 0, 2)).unwrap();
    let mut b = TripsBlock::new();
    b.set_read(0, ReadInst::new(ArchReg::new(4), [Target::right(2), Target::none()])).unwrap();
    b.push(Instruction::constant(Opcode::Genu, 0x11, Target::left(1))).unwrap();
    b.push(Instruction::constant(Opcode::App, 0, Target::left(2))).unwrap();
    b.push(Instruction::store(Opcode::Sd, 0, 0)).unwrap();
    b.push(Instruction::branch(Opcode::Halt, 0, 0)).unwrap();
    b.header.store_mask = 1;

    let mut img = ProgramImage::new();
    img.entry = 0x1_0000;
    img.add_block(0x1_0000, &a);
    img.add_block(0x1_0100, &b);

    let mut cpu = Processor::new(lane());
    let stats = cpu.run(&img, 100_000).expect("runs");
    assert_eq!(cpu.memory().read_u64(0x11_0000), 7, "forwarding still delivers R4");
    let tl = &stats.timeline;
    assert!(
        tl[1].dispatch < tl[0].ack,
        "speculative dispatch should overlap the predecessor's commit"
    );
}

/// A die with one frame (no speculation at all) still computes
/// correctly.
#[test]
fn single_frame_mode_is_correct() {
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let sum = f.fresh();
    let i = f.fresh();
    f.iconst_into(sum, 0);
    f.iconst_into(i, 0);
    let body = f.new_block();
    let done = f.new_block();
    f.jmp(body);
    f.switch_to(body);
    f.bin_into(sum, TOp::Add, sum, i);
    f.bini_into(i, TOp::Addi, i, 1);
    let c = f.bini(TOp::Tlti, i, 20);
    f.br(c, body, done);
    f.switch_to(done);
    let buf = f.iconst(0x10_0000);
    f.store(TOp::Sd, buf, 0, sum);
    f.halt();
    f.finish();
    let img = compile(&p.finish(), Quality::Compiled).expect("compiles").image;

    let one_frame = CoreGeometry { frames: 1, ..lane().geometry };
    let mut narrow = Processor::new(CoreConfig::with_geometry(one_frame));
    let n = narrow.run(&img, 10_000_000).expect("runs");
    assert_eq!(narrow.memory().read_u64(0x10_0000), 190);

    let mut wide = Processor::new(lane());
    let w = wide.run(&img, 10_000_000).expect("runs");
    assert_eq!(wide.memory().read_u64(0x10_0000), 190);
    assert!(w.cycles < n.cycles, "speculation must help: {} vs {}", w.cycles, n.cycles);
}

/// The ITs' decoded-slice cache is invisible to self-modifying code:
/// block B runs (and every IT keeps its decoded slices), S overwrites
/// B's two instruction words with stores, and the next visit to B
/// dispatches the new instructions. Stale slices would run the old B,
/// which branches to S again — forever.
///
/// Between S and the second visit run more blocks than the core has
/// frames: fetch is speculative and the model has no I-cache coherence,
/// so B must not be *fetched* until S has committed and its stores
/// have drained to memory — which a full frame file guarantees.
#[test]
fn a_store_into_a_fetched_block_is_dispatched_on_the_next_visit() {
    const B: u64 = 0x1_0000;
    let cfg = lane();
    let fillers = cfg.geometry.frames + 1;
    let block_of = |insts: &[Instruction]| {
        let mut b = TripsBlock::new();
        for &i in insts {
            b.push(i).unwrap();
        }
        b
    };
    // B writes R4; the old body goes on to S, the new one halts.
    let b_with = |n: i32, exit: Instruction| {
        let mut b = block_of(&[Instruction::movi(n, [Target::write(0), Target::none()]), exit]);
        b.set_write(0, WriteInst::new(ArchReg::new(4))).unwrap();
        b.validate().unwrap();
        b
    };
    let old = b_with(1, Instruction::branch(Opcode::Bro, 0, 2));
    let new = trips_isa::encode(&b_with(2, Instruction::branch(Opcode::Halt, 0, 0)));
    let word = |i: usize| u32::from_le_bytes(new[128 + 4 * i..][..4].try_into().unwrap());
    let genu = |v: u32, t| Instruction::constant(Opcode::Genu, (v >> 16) as u16, t);
    let app = |v: u32, t| Instruction::constant(Opcode::App, v as u16, t);
    let body = (B + 128) as u32;
    let mut s = block_of(&[
        genu(body, Target::left(1)),
        app(body, Target::left(2)),
        Instruction::op(Opcode::Mov, [Target::left(7), Target::left(8)]),
        genu(word(0), Target::left(4)),
        app(word(0), Target::right(7)),
        genu(word(1), Target::left(6)),
        app(word(1), Target::right(8)),
        Instruction::store(Opcode::Sw, 0, 0),
        Instruction::store(Opcode::Sw, 1, 4),
        Instruction::branch(Opcode::Bro, 0, 2),
    ]);
    s.header.store_mask = 0b11;
    s.validate().unwrap();

    // B, S, then the fillers, 256 bytes each; the last filler branches
    // back to B.
    let mut img = ProgramImage::new();
    img.entry = B;
    img.add_block(B, &old);
    img.add_block(B + 0x100, &s);
    for k in 0..fillers {
        let back = -2 * (fillers as i32 + 1);
        let offset = if k + 1 == fillers { back } else { 2 };
        let filler = block_of(&[Instruction::branch(Opcode::Bro, 0, offset)]);
        img.add_block(B + 0x100 * (k as u64 + 2), &filler);
    }

    let mut visited = Vec::new();
    let reference = trips_tasm::blockinterp::run_image_trace(&img, 100, |pc| visited.push(pc))
        .expect("the oracle runs the patched program");
    assert_eq!(reference.regs[4], 2);
    assert_eq!(visited.len(), fillers + 3, "B, S, the fillers, B");

    let mut cpu = Processor::new(cfg);
    let stats = cpu.run(&img, 100_000).expect("stale slices would loop until the budget runs out");
    assert_eq!(cpu.arch_reg(ArchReg::new(4)), 2, "the second visit ran the stored instructions");
    let committed: Vec<u64> = stats.timeline.iter().map(|t| t.pc).collect();
    assert_eq!(committed, visited, "the core commits the oracle's block sequence");
    assert_eq!(cpu.memory().read_u64(B + 128), reference.mem.read_u64(B + 128));
}
