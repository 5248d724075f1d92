//! Fault-injection regression suite.
//!
//! Every `protofuzz_repro_*` test below is a minimized reproducer that
//! the `protofuzz` fuzzer found and shrank: a seeded, timing-only
//! [`FaultPlan`] under which the core once hung or diverged from the
//! `blockinterp` architectural oracle. Fault plans perturb *when*
//! messages move, never their values and never per-link FIFO order, so
//! the §4 distributed protocols must tolerate every plan; each test
//! pins the protocol fix that made its plan survivable.
//!
//! New reproducers come from the fuzzer itself: a failing `protofuzz`
//! run prints a `#[test]` whose body is one [`assert_scenario`] call —
//! the shrunk scenario (workloads, machine, geometry, tick schedule,
//! plan) on one line, in the grammar of `trips_bench::fuzz`.

use trips::core::{CoreConfig, FaultPlan, Processor, SimError};
use trips::tasm::Quality;
use trips::workloads::suite;
use trips_bench::fuzz::{Oracles, Scenario};

/// Cycle budget for one reproducer. Far above any passing run of the
/// micro workloads (a few hundred thousand cycles even under heavy
/// chain delay); a reproducer that exhausts it has re-wedged.
const REPRO_MAX_CYCLES: u64 = 10_000_000;

/// Runs the scenario `line` describes with every protocol invariant
/// checked each tick, then asserts bit-exact agreement with its
/// oracle(s). This is the entry point `protofuzz` reproducers call.
fn assert_scenario(line: &str) {
    let run = |sc: Scenario| sc.run(&Oracles::default(), REPRO_MAX_CYCLES);
    if let Err(why) = Scenario::parse(line).and_then(run) {
        panic!("{line}: {why}");
    }
}

/// A clean (faultless) chip sweep stays wired even while no chip
/// reproducer exists yet: the pair table's heaviest pairing plus OCN
/// link faults on the shared network must still match both oracles.
#[test]
fn chip_with_ocn_faults_matches_both_oracles() {
    assert_scenario("chip saxpy,vadd hand prototype fast seed=0xc1b ocn=1.0.eject:1/7*3");
}

/// Minimized protofuzz reproducer (seed 0x1).
///
/// Chain delays let a neighbour RT flush and redispatch early, so its
/// `WritesDone` completion hop can carry the *next* generation into a
/// bank whose own (delayed) flush wave has not landed yet. The RT used
/// to drop the hop under an exact-generation check; since completion
/// hops are sent exactly once, the daisy chain wedged and the run
/// timed out awaiting `WritesDone`. Fixed by fast-forwarding the frame
/// (`FrameFile::ensure`), the same idiom the OPN write path uses.
#[test]
fn protofuzz_repro_matrix_1() {
    assert_scenario("solo matrix hand prototype fast seed=0x1 chain=1/8+4");
}

/// Minimized protofuzz reproducer (seed 0x4).
///
/// The GRN (refill commands) and GSN (refill completions) are separate
/// chains, so a delayed refill command can arrive at an IT *after* the
/// south neighbour's `RefillDone` hop for that same refill. The IT
/// used to drop the early hop because no refill was in flight yet;
/// the neighbour never resends, so the south-to-north completion chain
/// wedged and fetch stalled forever. Fixed by latching early hops
/// until the command arrives.
#[test]
fn protofuzz_repro_matrix_4() {
    assert_scenario("solo matrix hand prototype fast seed=0x4 chain=1/8+5");
}

/// Minimized protofuzz reproducer (seed 0xd).
///
/// Chain delay bunched two commit waves so they reached an RT on the
/// same cycle, and the RT drained both write queues by *frame index*
/// rather than block age. Both blocks wrote the loop counter; the
/// younger block's write (the loop re-init) drained first and the
/// older block's stale final count landed last in the architectural
/// file, so the next loop test read 16, exited after one iteration,
/// and the run halted cleanly with most result cells zero. Fixed by
/// draining committing frames oldest-first through a shared per-tick
/// write-port budget: a younger commit cannot overtake an older one.
#[test]
fn protofuzz_repro_matrix_d() {
    assert_scenario("solo matrix hand prototype fast seed=0xd chain=1/4+4");
}

/// Minimized protofuzz reproducer (seed 0x48).
///
/// The data-tile twin of `protofuzz_repro_matrix_d`: each DT drained
/// every committing frame's stores concurrently, one store per cycle
/// *per frame*, walking frames by index. Flush storms refetch blocks
/// and chain delay bunches their commit waves, so two blocks storing
/// to the same address could drain youngest-first and leave the stale
/// older value in memory; a later load then steered a loop test wrong
/// and the run halted early (fewer blocks than the oracle). Fixed by
/// draining committing frames oldest-first through one shared store
/// port per DT.
#[test]
fn protofuzz_repro_dct8x8_48() {
    assert_scenario("solo dct8x8 hand prototype fast seed=0x48 rotate chain=1/2+5 storm=1/16");
}

/// Minimized protofuzz reproducer (seed 0x288).
///
/// The *deallocation* sibling of `protofuzz_repro_matrix_d` and
/// `protofuzz_repro_dct8x8_48`: commit drains were already made
/// oldest-first, but the RT's ack-and-deallocate step still walked
/// frames by index. Chain delay bunched two commit waves so a younger
/// frame acked and left the age order while an older frame (its east
/// ack delayed) stayed active — and the older frame's already-drained
/// write-queue entry then shadowed the architectural file for every
/// new read of that register, resurrecting the superseded value. Here
/// that register was dct8x8's inner loop counter, so a loop-bottom
/// test read a stale bound and the run exited 21 blocks early. Fixed
/// by acking/deallocating strictly oldest-first — a frame may leave
/// the dispatch order only from its head — in both the RT and the DT
/// (which had the same index-order walk for its store ack).
#[test]
fn protofuzz_repro_dct8x8_288() {
    assert_scenario(
        "solo dct8x8 hand prototype fast seed=0x288 opn=0.2.3.west:1/2*5 opn=0.0.1.north:1/16*4 opn=0.3.3.east:1/2*2 chain=1/2+3 storm=1/64",
    );
}

/// Minimized protofuzz chip reproducer (seed 0xdd).
///
/// The first bug caught by the quad-core chip seeds (`seed % 16 ==
/// 13`): the same write-queue resurrection as
/// `protofuzz_repro_dct8x8_288`, reached through shared-NUCA traffic
/// instead of operand-link stalls. An OCN eject stall plus chain
/// delay bunched core 0's commit waves until an index-order ack let a
/// younger frame deallocate past a still-active older one, and a
/// stale forwarded register corrupted one cell of matrix's result.
/// Pinned as a chip repro so the ack-order fix stays exercised with
/// all four cores contending on the shared network.
#[test]
fn protofuzz_repro_chip_matrix_vadd_dct8x8_matrix_dd() {
    assert_scenario(
        "chip matrix,vadd,dct8x8,matrix hand prototype fast seed=0xdd rotate ocn=3.0.eject:1/16*3 chain=1/8+3",
    );
}

/// Bug 5's reproducers with measured bite (seeds 0x80 and 0x2d).
///
/// `protofuzz_repro_dct8x8_288` and the quad-chip `dd` scenario above
/// no longer fail when the bug they were shrunk from is put back (not
/// in this tree, and not in the tree before `FrameFile` with the old
/// index-order ack walk restored in `rt.rs`/`dt.rs`): model timing has
/// moved under them since they were pinned. These two do — found by
/// `protofuzz --smoke` on a scratch build whose
/// `FrameFile::retire_head` retires any ready frame, lowest index
/// first (EXPERIMENTS.md, "Frame-file calibration"). The solo one
/// shows the original symptom exactly: dct8x8 exits 21 blocks early.
#[test]
fn protofuzz_repro_dct8x8_80() {
    assert_scenario("solo dct8x8 hand prototype fast seed=0x80 rotate chain=1/2+5");
}

/// The quad-chip twin of `protofuzz_repro_dct8x8_80` (one cell of core
/// 1's matrix result).
#[test]
fn protofuzz_repro_chip_matrix_matrix_sha_vadd_2d() {
    assert_scenario("chip matrix,matrix,sha,vadd hand prototype fast seed=0x2d rotate chain=1/4+6");
}

/// A deliberately lethal plan: the GT's OPN eject port is permanently
/// stalled (`num >= den`), so resolved branches can never reach the
/// global tile and the machine must wedge. The point of the test is
/// the *diagnosis*: the timeout's hang report must name the stuck
/// network and tile so a fuzz failure is actionable.
#[test]
fn deliberate_deadlock_is_diagnosed() {
    // The GT sits at OPN coordinate (0, 0).
    let plan = FaultPlan::parse("seed=0 opn=0.0.0.eject:1/1*18446744073709551615").expect("parses");
    let wl = suite::by_name("vadd").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let cfg = CoreConfig { faults: Some(plan), ..CoreConfig::prototype() };
    let mut cpu = Processor::new(cfg);
    match cpu.run(&image, 200_000) {
        Err(SimError::Timeout { diagnosis, .. }) => {
            let text = diagnosis.to_string();
            assert!(text.contains("OPN0"), "hang report must name the stuck network:\n{text}");
            assert!(text.contains("GT"), "hang report must name the starved tile:\n{text}");
        }
        Ok(stats) => panic!(
            "a dead GT eject port cannot halt cleanly ({} blocks committed)",
            stats.blocks_committed
        ),
        Err(e) => panic!("expected a diagnosed timeout, got: {e}"),
    }
}

/// Zero-overhead regression: with the fault hooks compiled in and a
/// plan installed on *every* hook but with all probabilities zero, the
/// run must be bit-identical — same cycle count, same stats, same
/// registers, same memory — to a run with no plan at all.
#[test]
fn inert_fault_plan_is_bit_identical() {
    let wl = suite::by_name("dct8x8").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let outcome = |faults: Option<FaultPlan>| {
        let cfg = CoreConfig { faults, ..CoreConfig::prototype() };
        let mut cpu = Processor::new(cfg);
        let stats = cpu.run(&image, REPRO_MAX_CYCLES).expect("halts");
        let regs: Vec<u64> =
            (0..128u8).map(|r| cpu.arch_reg(trips::isa::ArchReg::new(r))).collect();
        (stats, regs, cpu.memory().clone())
    };
    let clean = outcome(None);
    let probed = outcome(Some(FaultPlan::inert_probe(0xdead_beef)));
    assert_eq!(clean.0, probed.0, "stats must be bit-identical under an inert probe");
    assert_eq!(clean.1, probed.1, "registers must be bit-identical under an inert probe");
    assert!(
        clean.2.diff(&probed.2, 1).is_empty(),
        "memory must be bit-identical under an inert probe"
    );
}

/// An OCN-only plan under the NUCA backend: stalled secondary-system
/// links delay MSHR fills, I-cache refills, and store-completion
/// acknowledgements, but the commit protocol must absorb every delay —
/// architectural state stays bit-exact against the oracle and the
/// conservation invariants hold every tick.
#[test]
fn ocn_stalls_under_nuca_match_oracle() {
    assert_scenario(
        "nuca matrix hand prototype fast seed=0xc9 ocn=1.0.eject:1/2*6 ocn=5.3.west:1/4*3",
    );
}

/// The invariant checker itself must pass on clean (unfaulted) runs of
/// the micro suite — per-tick checks plus post-halt quiescence.
#[test]
fn invariants_hold_on_clean_runs() {
    for name in ["vadd", "sha"] {
        assert_scenario(&format!("solo {name} hand prototype fast"));
    }
}
