//! Regenerates Figure 5: (a) the dataflow execution example and
//! (b) the block completion/commit/acknowledgement pipeline overlap.
//! `--exec` prints only (a), `--commit` only (b).

use trips_core::{CoreConfig, Processor};
use trips_isa::{
    disassemble, ArchReg, Instruction, Opcode, Pred, ProgramImage, ReadInst, Target, TripsBlock,
};
use trips_tasm::{compile, Opcode as TOp, ProgramBuilder, Quality};

/// Figure 5a: the paper's execution example — a predicated load/store
/// diamond with nullification, register read fan-out, and a block-
/// ending call.
fn fig5a() {
    println!("Figure 5a. Execution example (the paper's code sequence).");
    println!();
    let mut b = TripsBlock::new();
    b.set_read(0, ReadInst::new(ArchReg::new(4), [Target::left(1), Target::left(2)]))
        .expect("bank 0 slot");
    b.push(Instruction::movi(0, [Target::right(1), Target::none()])).unwrap(); // N[0]
    b.push(Instruction::op(Opcode::Teq, [Target::pred(2), Target::pred(3)])).unwrap(); // N[1]
    b.push(
        Instruction::opi(Opcode::Muli, 4, [Target::left(32), Target::none()])
            .with_pred(Pred::OnFalse),
    )
    .unwrap(); // N[2]
    b.push(
        Instruction::op(Opcode::Null, [Target::left(34), Target::right(34)])
            .with_pred(Pred::OnTrue),
    )
    .unwrap(); // N[3]
    for _ in 4..32 {
        b.push(Instruction::nop()).unwrap();
    }
    b.push(Instruction::load(Opcode::Lw, 0, 8, Target::left(33))).unwrap(); // N[32]
    b.push(Instruction::op(Opcode::Mov, [Target::left(34), Target::right(34)])).unwrap(); // N[33]
    b.push(Instruction::store(Opcode::Sw, 1, 0)).unwrap(); // N[34]
    b.push(Instruction::branch(Opcode::Halt, 0, 0)).unwrap(); // N[35] (callo in the paper)
    b.header.store_mask = 1 << 1;
    b.validate().expect("the Figure 5a block is well-formed");
    println!("{}", disassemble(&b));

    // Execute it on the cycle-level core. Registers reset to zero, so
    // R4 = 0: the predicate teq(R4, 0) is true, the null instruction
    // fires, and the store commits nullified — exactly the suppressed
    // path of the figure.
    let mut img = ProgramImage::new();
    img.entry = 0x1_0000;
    img.add_block(0x1_0000, &b);
    img.add_segment(0x20_0000, (0..64u8).collect());
    let mut cpu = Processor::new(CoreConfig::prototype());
    let stats = cpu.run(&img, 100_000).expect("example runs");
    println!(
        "run with R4=0 (predicate true, null path): {} cycles, {} instructions fired, \
         stores performed: {} (the store was nullified but still counted for completion)",
        stats.cycles, stats.insts_committed, stats.stores
    );
}

/// Figure 5b: overlap of fetch, completion, commit, and commit-ack
/// across consecutive blocks.
fn fig5b() {
    println!();
    println!("Figure 5b. Block completion / commit / acknowledgement overlap.");
    println!();
    // A stream of simple blocks: a counted loop gives a steady block
    // sequence through all eight frames.
    let mut p = ProgramBuilder::new();
    let mut f = p.func("stream", 0);
    let i = f.fresh();
    f.iconst_into(i, 0);
    let body = f.new_block();
    let done = f.new_block();
    f.jmp(body);
    f.switch_to(body);
    f.bini_into(i, TOp::Addi, i, 1);
    let buf = f.iconst(0x30_0000);
    f.store(TOp::Sd, buf, 0, i);
    let c = f.bini(TOp::Tlti, i, 24);
    f.br(c, body, done);
    f.switch_to(done);
    f.halt();
    f.finish();
    let img = compile(&p.finish(), Quality::Compiled).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    let stats = cpu.run(&img, 1_000_000).expect("runs");

    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>8} {:>6}   (cycles)",
        "block", "fetch", "dispatch", "complete", "commit", "ack"
    );
    for (n, t) in stats.timeline.iter().take(12).enumerate() {
        println!(
            "{:<8} {:>8} {:>9} {:>9} {:>8} {:>6}",
            format!("Block {n}"),
            t.fetch,
            t.dispatch,
            t.complete,
            t.commit,
            t.ack
        );
    }
    // Show the overlap property the figure illustrates: block n+1's
    // fetch begins before block n's commit completes.
    let overlapped = stats.timeline.windows(2).filter(|w| w[1].fetch < w[0].ack).count();
    println!();
    println!(
        "{} of {} consecutive block pairs overlap fetch with the predecessor's \
         commit (pipelined commit, §4.4)",
        overlapped,
        stats.timeline.len().saturating_sub(1)
    );
}

fn main() {
    let [exec, commit] = trips_bench::flags_or_exit("fig5", ["--exec", "--commit"]);
    if exec || !commit {
        fig5a();
    }
    if commit || !exec {
        fig5b();
    }
}
