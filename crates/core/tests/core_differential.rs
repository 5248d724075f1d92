//! Differential tests: the cycle-level core must produce the same
//! final memory as the architectural block interpreter on every
//! program, at both code-quality levels.

use trips_core::{CoreConfig, CoreGeometry, Processor};
use trips_tasm::{blockinterp, compile, Opcode, ProgramBuilder, Quality};

const OUT: u64 = 0x10_0000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

fn run_both(p: trips_tasm::Program, cells: &[u64]) -> trips_core::CoreStats {
    let mut last_stats = None;
    for q in [Quality::Hand, Quality::Compiled] {
        let c = compile(&p, q).unwrap_or_else(|e| panic!("compile({q}) failed: {e}"));
        let reference = blockinterp::run_image(&c.image, 500_000)
            .unwrap_or_else(|e| panic!("blockinterp({q}) failed: {e}"));
        let mut cpu = Processor::new(lane());
        let stats =
            cpu.run(&c.image, 3_000_000).unwrap_or_else(|e| panic!("core({q}) failed: {e}"));
        for (i, &cell) in cells.iter().enumerate() {
            assert_eq!(
                cpu.memory().read_u64(cell),
                reference.mem.read_u64(cell),
                "quality {q}, cell {i} at {cell:#x}"
            );
        }
        assert_eq!(
            stats.blocks_committed, reference.blocks,
            "quality {q}: committed block count must match the interpreter"
        );
        last_stats = Some(stats);
    }
    last_stats.expect("ran at least once")
}

#[test]
fn single_block_store() {
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let a = f.iconst(40);
    let b = f.addi(a, 2);
    let buf = f.iconst(OUT as i64);
    f.store(Opcode::Sd, buf, 0, b);
    f.halt();
    f.finish();
    let stats = run_both(p.finish(), &[OUT]);
    assert!(stats.cycles > 0);
}

#[test]
fn register_forwarding_between_blocks() {
    // A chain of blocks each incrementing a register: exercises the
    // RT write-queue forwarding path.
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let v = f.fresh();
    f.iconst_into(v, 1);
    let b1 = f.new_block();
    let b2 = f.new_block();
    let b3 = f.new_block();
    f.jmp(b1);
    f.switch_to(b1);
    f.bini_into(v, Opcode::Muli, v, 3);
    f.jmp(b2);
    f.switch_to(b2);
    f.bini_into(v, Opcode::Addi, v, 7);
    f.jmp(b3);
    f.switch_to(b3);
    let buf = f.iconst(OUT as i64);
    f.store(Opcode::Sd, buf, 0, v);
    f.halt();
    f.finish();
    run_both(p.finish(), &[OUT]);
}

#[test]
fn counted_loop_speculation() {
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
    f.bin_into(sum, Opcode::Add, sum, i);
    f.bini_into(i, Opcode::Addi, i, 1);
    let c = f.bini(Opcode::Tlti, i, 40);
    f.br(c, body, done);
    f.switch_to(done);
    let buf = f.iconst(OUT as i64);
    f.store(Opcode::Sd, buf, 0, sum);
    f.halt();
    f.finish();
    let stats = run_both(p.finish(), &[OUT]);
    assert!(stats.predictions > 10, "loop should exercise the predictor");
}

#[test]
fn predicated_diamond() {
    let mut p = ProgramBuilder::new();
    p.global_words(0x20_0000, &(0..12u64).map(|i| i * 11 + 1).collect::<Vec<_>>());
    let mut f = p.func("main", 0);
    let i = f.fresh();
    f.iconst_into(i, 0);
    let body = f.new_block();
    let t = f.new_block();
    let e = f.new_block();
    let j = f.new_block();
    let done = f.new_block();
    f.jmp(body);
    f.switch_to(body);
    let base = f.iconst(0x20_0000);
    let off = f.bini(Opcode::Slli, i, 3);
    let addr = f.add(base, off);
    let a = f.load(Opcode::Ld, addr, 0);
    let bit = f.bini(Opcode::Andi, a, 1);
    let odd = f.bini(Opcode::Teqi, bit, 1);
    let r = f.fresh();
    f.br(odd, t, e);
    f.switch_to(t);
    f.bini_into(r, Opcode::Muli, a, 3);
    f.jmp(j);
    f.switch_to(e);
    f.bini_into(r, Opcode::Srai, a, 1);
    f.jmp(j);
    f.switch_to(j);
    let ob = f.iconst(OUT as i64);
    let oa = f.add(ob, off);
    f.store(Opcode::Sd, oa, 0, r);
    f.bini_into(i, Opcode::Addi, i, 1);
    let c = f.bini(Opcode::Tlti, i, 12);
    f.br(c, body, done);
    f.switch_to(done);
    f.halt();
    f.finish();
    run_both(p.finish(), &(0..12).map(|k| OUT + 8 * k).collect::<Vec<_>>());
}

#[test]
fn store_load_same_block() {
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let buf = f.iconst(OUT as i64);
    let a = f.iconst(111);
    f.store(Opcode::Sd, buf, 0, a);
    let b = f.load(Opcode::Ld, buf, 0);
    let c = f.addi(b, 1);
    f.store(Opcode::Sd, buf, 8, c);
    f.halt();
    f.finish();
    run_both(p.finish(), &[OUT, OUT + 8]);
}

#[test]
fn cross_block_memory_dependence() {
    // Block n stores, block n+1 loads the same address: exercises
    // speculative loads, the violation path, and the dependence
    // predictor.
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let i = f.fresh();
    f.iconst_into(i, 0);
    let st = f.new_block();
    let ld = f.new_block();
    let done = f.new_block();
    f.jmp(st);
    f.switch_to(st);
    let buf = f.iconst(OUT as i64);
    f.store(Opcode::Sd, buf, 0, i);
    f.jmp(ld);
    f.switch_to(ld);
    let buf2 = f.iconst(OUT as i64);
    let v = f.load(Opcode::Ld, buf2, 0);
    let v2 = f.bini(Opcode::Slli, v, 1);
    f.store(Opcode::Sd, buf2, 8, v2);
    f.bini_into(i, Opcode::Addi, i, 1);
    let c = f.bini(Opcode::Tlti, i, 6);
    f.br(c, st, done);
    f.switch_to(done);
    f.halt();
    f.finish();
    run_both(p.finish(), &[OUT, OUT + 8]);
}

#[test]
fn function_calls() {
    let mut p = ProgramBuilder::new();
    let mut main = p.func("main", 0);
    let x = main.iconst(10);
    let r = main.call(trips_tasm::FuncId(1), &[x]);
    let buf = main.iconst(OUT as i64);
    main.store(Opcode::Sd, buf, 0, r);
    main.halt();
    main.finish();
    let mut sq = p.func("square_plus1", 1);
    let a = sq.param(0);
    let m = sq.mul(a, a);
    let r = sq.addi(m, 1);
    sq.ret(Some(r));
    sq.finish();
    run_both(p.finish(), &[OUT]);
}

#[test]
fn conditional_store_nullification() {
    let mut p = ProgramBuilder::new();
    p.global_words(0x20_0000, &(0..8u64).map(|i| i * 13 % 50).collect::<Vec<_>>());
    let mut f = p.func("main", 0);
    let i = f.fresh();
    f.iconst_into(i, 0);
    let body = f.new_block();
    let t = f.new_block();
    let j = f.new_block();
    let done = f.new_block();
    f.jmp(body);
    f.switch_to(body);
    let base = f.iconst(0x20_0000);
    let off = f.bini(Opcode::Slli, i, 3);
    let addr = f.add(base, off);
    let a = f.load(Opcode::Ld, addr, 0);
    let big = f.bini(Opcode::Tgti, a, 25);
    f.br(big, t, j);
    f.switch_to(t);
    let ob = f.iconst(OUT as i64);
    let oa = f.add(ob, off);
    f.store(Opcode::Sd, oa, 0, a);
    f.jmp(j);
    f.switch_to(j);
    f.bini_into(i, Opcode::Addi, i, 1);
    let c = f.bini(Opcode::Tlti, i, 8);
    f.br(c, body, done);
    f.switch_to(done);
    f.halt();
    f.finish();
    run_both(p.finish(), &(0..8).map(|k| OUT + 8 * k).collect::<Vec<_>>());
}
