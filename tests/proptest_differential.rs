//! Randomized differential testing: randomly generated programs must
//! produce identical memory on the IR interpreter, the architectural
//! block interpreter, and the cycle-level core, at both code-quality
//! levels, with the clock-gated tick scheduler both on and off, with
//! the fused GT frame pass both on and off, and on every core of 1-,
//! 2- and 4-core chips sharing one NUCA.
//! (Seeded generation via `trips_harness::Rng`; the environment has no
//! crates.io access so `proptest` is unavailable.)

use trips::core::{Chip, ChipConfig, CoreConfig, CoreGeometry, FaultPlan, Processor, TickMode};
use trips::isa::Opcode;
use trips::mem::MemConfig;
use trips::tasm::{blockinterp, compile, interp, ProgramBuilder, Quality, VReg};
use trips_harness::Rng;

const OUT: u64 = 0x10_0000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// A tiny random-program AST the generator draws from.
#[derive(Debug, Clone)]
enum Step {
    Bin(u8, usize, usize),
    BinImm(u8, usize, i64),
    Const(i64),
    LoadStore { slot: u8 },
    Diamond { cond_src: usize, then_mul: i64, else_add: i64 },
}

fn bin_op(code: u8) -> Opcode {
    [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
    ][code as usize % 8]
}

fn imm_op(code: u8) -> Opcode {
    [
        Opcode::Addi,
        Opcode::Subi,
        Opcode::Muli,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Teqi,
        Opcode::Tlti,
    ][code as usize % 8]
}

fn random_step(rng: &mut Rng) -> Step {
    match rng.range_u8(0, 5) {
        0 => Step::Bin(rng.next_u32() as u8, rng.range_usize(0, 8), rng.range_usize(0, 8)),
        1 => Step::BinImm(rng.next_u32() as u8, rng.range_usize(0, 8), rng.range_i64(-4000, 4000)),
        2 => Step::Const(rng.range_i64(-100_000, 100_000)),
        3 => Step::LoadStore { slot: rng.range_u8(0, 6) },
        _ => Step::Diamond {
            cond_src: rng.range_usize(0, 8),
            then_mul: rng.range_i64(1, 5),
            else_add: rng.range_i64(-5, 5),
        },
    }
}

/// Builds an IR program from the random steps. A pool of eight live
/// values rotates; every step's result lands in the pool and is also
/// stored to a distinct output cell so the differential check observes
/// everything.
fn build_program(steps: &[Step]) -> (trips::tasm::Program, Vec<u64>) {
    let mut p = ProgramBuilder::new();
    let mut f = p.func("random", 0);
    let mut pool: Vec<VReg> = (0..8)
        .map(|i| {
            let v = f.fresh();
            f.iconst_into(v, (i * 37 + 5) as i64);
            v
        })
        .collect();
    let out = f.iconst(OUT as i64);
    let mut cells = Vec::new();

    for (n, s) in steps.iter().enumerate() {
        let val = match s {
            Step::Bin(o, a, b) => f.bin(bin_op(*o), pool[*a], pool[*b]),
            Step::BinImm(o, a, i) => f.bini(imm_op(*o), pool[*a], *i),
            Step::Const(v) => f.iconst(*v),
            Step::LoadStore { slot } => {
                // Store a pool value then read it back: exercises the
                // LSQ's same-block ordering.
                let v = pool[*slot as usize % pool.len()];
                f.store(Opcode::Sd, out, 2040, v);
                f.load(Opcode::Ld, out, 2040)
            }
            Step::Diamond { cond_src, then_mul, else_add } => {
                let bit = f.bini(Opcode::Andi, pool[*cond_src], 1);
                let c = f.bini(Opcode::Teqi, bit, 1);
                let t = f.new_block();
                let e = f.new_block();
                let j = f.new_block();
                let r = f.fresh();
                f.br(c, t, e);
                f.switch_to(t);
                f.bini_into(r, Opcode::Muli, pool[*cond_src], *then_mul);
                f.jmp(j);
                f.switch_to(e);
                f.bini_into(r, Opcode::Addi, pool[*cond_src], *else_add);
                f.jmp(j);
                f.switch_to(j);
                r
            }
        };
        let pi = n % pool.len();
        pool[pi] = val;
        f.store(Opcode::Sd, out, n as i32 * 8, val);
        cells.push(OUT + (n as u64) * 8);
    }
    f.halt();
    f.finish();
    (p.finish(), cells)
}

#[test]
fn random_programs_agree_everywhere() {
    let mut rng = Rng::new(0xd1ff_5eed);
    for case in 0..24 {
        let steps: Vec<Step> = (0..rng.range_usize(1, 24)).map(|_| random_step(&mut rng)).collect();
        let (prog, cells) = build_program(&steps);
        prog.check().expect("generated IR is structurally valid");
        let reference = interp::run(&prog, 1_000_000).expect("ir interp");

        for q in [Quality::Compiled, Quality::Hand] {
            let compiled = compile(&prog, q).expect("compiles");
            let bi = blockinterp::run_image(&compiled.image, 100_000).expect("block interp");
            // Both tick schedules (DESIGN.md §5b).
            for tick_mode in [TickMode::Fast, TickMode::Reference] {
                let cfg = CoreConfig { tick_mode, ..lane() };
                let mut cpu = Processor::new(cfg);
                cpu.run(&compiled.image, 5_000_000)
                    .unwrap_or_else(|e| panic!("core run (case {case}, {q}, {tick_mode:?}): {e}"));
                for &c in &cells {
                    let want = reference.mem.read_u64(c);
                    assert_eq!(
                        bi.mem.read_u64(c),
                        want,
                        "block interp diverged at {c:#x} (case {case}, {q}, steps {steps:?})"
                    );
                    assert_eq!(
                        cpu.memory().read_u64(c),
                        want,
                        "core diverged at {c:#x} (case {case}, {q}, {tick_mode:?}, steps {steps:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn random_programs_agree_across_geometries() {
    // The geometry axis: the same random image on the mini and
    // prototype dies — each under a seeded random fault plan folded
    // into that die's OPN mesh, invariants checked every tick — must
    // match the architectural block interpreter cell for cell. The
    // distributed protocols carry no prototype-shaped constants, so
    // shrinking the array may slow a run but never change memory.
    let mut rng = Rng::new(0x9e0d_5eed);
    for case in 0..8u64 {
        let steps: Vec<Step> = (0..rng.range_usize(1, 24)).map(|_| random_step(&mut rng)).collect();
        let (prog, cells) = build_program(&steps);
        prog.check().expect("generated IR is structurally valid");
        let compiled = compile(&prog, Quality::Hand).expect("compiles");
        let oracle = blockinterp::run_image(&compiled.image, 100_000).expect("block interp");

        for geom in [CoreGeometry::mini(), CoreGeometry::prototype()] {
            let plan = FaultPlan::random_for(0x9e0_0000 + case, geom);
            let cfg = CoreConfig {
                faults: Some(plan),
                check_invariants: true,
                ..CoreConfig::with_geometry(geom)
            };
            let mut cpu = Processor::new(cfg);
            cpu.run(&compiled.image, 10_000_000)
                .unwrap_or_else(|e| panic!("core run (case {case}, {}): {e}", geom.name()));
            for &c in &cells {
                assert_eq!(
                    cpu.memory().read_u64(c),
                    oracle.mem.read_u64(c),
                    "{} die diverged at {c:#x} (case {case}, steps {steps:?})",
                    geom.name()
                );
            }
        }
    }
}

#[test]
fn random_programs_agree_on_multicore_chips() {
    // The chip axis: the same random image on every core of an
    // n-core die must leave every core's memory identical to the IR
    // interpreter — bank contention between the twins is timing-only.
    // Fewer cases than the solo sweep: each adds up to seven NUCA
    // chip runs.
    let mut rng = Rng::new(0xc41b_5eed);
    for case in 0..8 {
        let steps: Vec<Step> = (0..rng.range_usize(1, 24)).map(|_| random_step(&mut rng)).collect();
        let (prog, cells) = build_program(&steps);
        prog.check().expect("generated IR is structurally valid");
        let reference = interp::run(&prog, 1_000_000).expect("ir interp");
        let compiled = compile(&prog, Quality::Hand).expect("compiles");

        // A die the lane's DTs/ITs overflow (fat cores
        // two to a block) is not a chip; the lone core always fits.
        let dies: Vec<ChipConfig> = [1, 2, 4]
            .into_iter()
            .map(|n| ChipConfig::with_cores(n, lane(), MemConfig::prototype()))
            .filter(|c| c.validate().is_ok())
            .collect();
        assert_eq!(dies[0].cores.len(), 1, "a one-core die seats every geometry");
        for cfg in dies {
            let n = cfg.cores.len();
            let mut chip = Chip::new(cfg);
            let images = vec![compiled.image.clone(); n];
            chip.run(&images, 5_000_000)
                .unwrap_or_else(|e| panic!("chip run (case {case}, {n} cores): {e}"));
            for k in 0..n {
                for &c in &cells {
                    assert_eq!(
                        chip.core(k).memory().read_u64(c),
                        reference.mem.read_u64(c),
                        "core {k} of {n} diverged at {c:#x} (case {case}, steps {steps:?})"
                    );
                }
            }
        }
    }
}
