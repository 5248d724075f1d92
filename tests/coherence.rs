//! The coherent shared-memory chip (DESIGN.md §5g).
//!
//! Three properties pin `ChipConfig::shared_memory`:
//!
//! 1. **Correctness** — every shared-memory workload's final state
//!    matches its sequential oracle in the one memory the cores share,
//!    with the coherence invariant suite (SWMR, directory/cache
//!    agreement, message conservation) checked every tick.
//! 2. **Non-vacuousness** — the runs actually exercise the protocol:
//!    GetS/GetM traffic, invalidations sent and received, and a
//!    populated [`CohSnapshot`] in the chip stats.
//! 3. **Value-plane timing** — a committed store becomes visible at
//!    the end of the cycle it drains, pinned by per-core cycle counts.
//!
//! The off-gate (shared_memory=false bit-identical to the
//! multiprogrammed chip) lives in `chip_equivalence.rs` with the rest
//! of the chip seam.

use trips_bench::fuzz;
use trips_core::{Chip, ChipConfig, ChipStats, CoreConfig, CoreGeometry, MemBackend};
use trips_isa::ProgramImage;
use trips_mem::MemConfig;
use trips_tasm::{compile, BbId, FuncId, Opcode, ProgramBuilder, Quality};
use trips_workloads::shared::SharedProgram;
use trips_workloads::suite;

/// This suite seats the lane's die ([`lane`]) on a chip. A die
/// no chip slot can seat — the fat lane's 8 DTs and 9 ITs against a
/// slot's 5 OCN ports each — leaves nothing to test, and says so.
macro_rules! needs_a_seatable_die {
    () => {
        if let Err(e) = ChipConfig::with_cores(2, lane(), MemConfig::prototype()).validate() {
            eprintln!("skipped: {e}");
            return;
        }
    };
}

const MAX_CYCLES: u64 = 20_000_000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// Runs a shared-memory chip and checks the oracle against the shared
/// memory.
fn run_shared(
    images: &[ProgramImage],
    expected: &[(u64, u64)],
    check_invariants: bool,
    name: &str,
) -> (ChipStats, Chip) {
    let n = images.len();
    let core = CoreConfig { check_invariants, mem_backend: MemBackend::nuca_prototype(), ..lane() };
    let mut cfg = ChipConfig::with_cores(n, core, MemConfig::prototype());
    cfg.shared_memory = true;
    let mut chip = Chip::new(cfg);
    let stats = chip.run(images, MAX_CYCLES).unwrap_or_else(|e| panic!("{name}: {e}"));
    fuzz::compare_shared_state(&chip, expected).unwrap_or_else(|e| panic!("{name}: {e}"));
    (stats, chip)
}

fn run_workload(name: &str, ncores: usize) -> ChipStats {
    let wl = suite::shared_by_name(name).expect("registered");
    let SharedProgram { images, expected } = (wl.gen)(ncores);
    run_shared(&images, &expected, true, &format!("{name}x{ncores}")).0
}

/// A directed two-core ping-pong over **one** cache line: data, both
/// flags, and the reply all live in 0x40_0000..0x40_0038, so the line
/// bounces I→M (core 0 writes), M→S→M (core 1 reads then replies),
/// and back, exercising both invalidation directions and the deferred
/// write-ack path on the smallest possible footprint.
#[test]
fn two_core_one_line_ping_pong_matches_the_sequential_oracle() {
    needs_a_seatable_die!();
    const LINE: u64 = 0x40_0000;
    const DATA: i32 = 0; // core 0's payload
    const FLAG1: i32 = 8; // core 0 published
    const REPLY: i32 = 16; // core 1's payload
    const FLAG2: i32 = 24; // core 1 published
    const OUT: i32 = 32; // core 0's copy of the reply

    let mut p = ProgramBuilder::new();
    {
        let mut f = p.func("ping", 0);
        let lp = f.iconst(LINE as i64);
        let v = f.iconst(42);
        f.store(Opcode::Sd, lp, DATA, v);
        let one = f.iconst(1);
        f.store(Opcode::Sd, lp, FLAG1, one);
        let spin = f.new_block();
        let take = f.new_block();
        f.jmp(spin);
        f.switch_to(spin);
        let g = f.load(Opcode::Ld, lp, FLAG2);
        let up = f.bini(Opcode::Teqi, g, 1);
        f.br(up, take, spin);
        f.switch_to(take);
        let r = f.load(Opcode::Ld, lp, REPLY);
        f.store(Opcode::Sd, lp, OUT, r);
        f.halt();
        f.finish();
    }
    {
        let mut f = p.func("pong", 0);
        let lp = f.iconst(LINE as i64);
        let spin = f.new_block();
        let reply = f.new_block();
        f.jmp(spin);
        f.switch_to(spin);
        let g = f.load(Opcode::Ld, lp, FLAG1);
        let up = f.bini(Opcode::Teqi, g, 1);
        f.br(up, reply, spin);
        f.switch_to(reply);
        let v = f.load(Opcode::Ld, lp, DATA);
        let d = f.bin(Opcode::Add, v, v);
        f.store(Opcode::Sd, lp, REPLY, d);
        let one = f.iconst(1);
        f.store(Opcode::Sd, lp, FLAG2, one);
        f.halt();
        f.finish();
    }
    let compiled = compile(&p.finish(), Quality::Compiled).expect("compiles");
    let images: Vec<ProgramImage> = (0..2)
        .map(|k| {
            let entry = compiled
                .blocks
                .iter()
                .find(|b| b.func == FuncId(k) && b.head == BbId(0))
                .expect("entry placed")
                .addr;
            let mut image = compiled.image.clone();
            image.entry = entry;
            image
        })
        .collect();
    let expected = [
        (LINE, 42),
        (LINE + FLAG1 as u64, 1),
        (LINE + REPLY as u64, 84),
        (LINE + FLAG2 as u64, 1),
        (LINE + OUT as u64, 84),
    ];
    let (stats, _) = run_shared(&images, &expected, true, "ping-pong");
    let coh = stats.coherence.expect("a shared-memory run reports a coherence snapshot");
    assert!(coh.getms > 0, "both cores wrote the line — the directory must have seen GetM");
    assert!(
        coh.invals_sent > 0 && coh.invals_sent == coh.inval_acks,
        "the line changed writers, so invalidations flowed and were all acknowledged: {coh:?}"
    );
}

#[test]
fn shared_workloads_match_their_sequential_oracles_on_a_dual_die() {
    needs_a_seatable_die!();
    for wl in suite::shared_memory() {
        run_workload(wl.name, 2);
    }
}

#[test]
fn shared_workloads_match_their_sequential_oracles_on_a_quad_die() {
    needs_a_seatable_die!();
    for wl in suite::shared_memory() {
        run_workload(wl.name, 4);
    }
}

#[test]
fn shared_runs_are_deterministic() {
    needs_a_seatable_die!();
    let wl = suite::shared_by_name("pcring").expect("registered");
    let SharedProgram { images, expected } = (wl.gen)(2);
    let (s1, c1) = run_shared(&images, &expected, false, "pcring-run1");
    let (s2, c2) = run_shared(&images, &expected, false, "pcring-run2");
    assert_eq!(s1, s2, "ChipStats must be bit-identical across shared-memory reruns");
    assert_eq!(*c1.core(0).memory(), *c2.core(0).memory(), "the shared memory diverged");
}

#[test]
fn coherence_traffic_is_not_vacuous() {
    needs_a_seatable_die!();
    // lockcount bounces two lines between every core T times, so each
    // core must both *send* (via its GetMs) and *receive*
    // invalidations, and the run must exercise read sharing (GetS).
    let stats = run_workload("lockcount", 2);
    let coh = stats.coherence.expect("snapshot present");
    assert!(coh.gets > 0, "spin loads must miss to GetS at least once: {coh:?}");
    assert!(coh.getms > 0, "counter/turn stores must GetM: {coh:?}");
    assert!(coh.invals_sent > 0, "ownership churn must invalidate: {coh:?}");
    assert_eq!(coh.invals_sent, coh.inval_acks, "every invalidation is acknowledged: {coh:?}");
    for (k, core) in stats.cores.iter().enumerate() {
        let mem = core.mem.as_ref().expect("NUCA stats present");
        assert!(mem.invals_received > 0, "core {k} never received an invalidation");
    }
}

/// The value plane's timing, pinned cycle for cycle: a committed store
/// becomes visible to every core — its writer included — at the end
/// of the cycle its DT drains it, never to a core that ticks later in
/// that same cycle. A store that landed at drain time would reach the
/// cores ticking after its writer one cycle early, which no oracle
/// sees (the final values agree) but these per-core cycle counts do:
/// that variant gives `[4392, 4529, 4691, 4823]` and `[1858, 1967]`
/// (`tests/bugs/value_plane_early_visibility.patch`).
#[test]
fn stores_become_visible_at_the_end_of_their_drain_cycle() {
    needs_a_seatable_die!();
    let pins: [(&str, &[u64]); 2] = [
        ("shared:4 lockcount hand prototype fast seed=0x23 rotate", &[4418, 4555, 4747, 4926]),
        (
            "shared:2 lockcount hand prototype fast seed=0x3e rotate opn=0.4.0.east:1/8*3 \
             opn=0.2.3.north:1/4*7 ocn=5.0.south:1/4*5 ocn=0.1.north:1/4*2 chain=1/4+1",
            &[1897, 2027],
        ),
    ];
    for (line, want) in pins {
        let scenario = fuzz::Scenario::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let stats = scenario
            .run(&fuzz::Oracles::default(), MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        let cycles: Vec<u64> = stats.iter().map(|s| s.cycles).collect();
        assert_eq!(cycles, want, "{line}: per-core cycles moved");
    }
}
