//! The chip seam (DESIGN.md §5e).
//!
//! Four properties pin [`Chip`]:
//!
//! 1. **Single-core pinning** — a one-core chip is *bit-identical* to
//!    the solo `Processor` + `Nuca` path: same `CoreStats` (including
//!    every secondary-system counter), registers, and memory. The
//!    chip's phase loop is the solo adapter's tick re-rolled around a
//!    shared system, and this test is what keeps it that way.
//! 2. **Co-runner independence** — contention is timing-only: each
//!    core of a dual-core chip commits the same blocks, registers,
//!    and memory as a solo run of its workload, for every pairing in
//!    the suite table.
//! 3. **Determinism** — two identical chip runs are bit-identical in
//!    every observable, `ChipStats` included.
//! 4. **Non-vacuousness** — a memory-bound pairing must actually
//!    contend: nonzero cross-core bank-conflict stalls, OCN traffic
//!    attributed to both cores, and a measurable slowdown for at
//!    least one core.
//! 5. **Slot translation** — on any die width, slot `k` is a
//!    whole-block translation of prototype slot `k % 2`
//!    ([`trips_mem::OcnGeometry`] tiles one twenty-port block per
//!    core pair), so a lone live core in any slot is *bit-identical*
//!    to the same experiment on the prototype die — and even slots
//!    are bit-identical to the solo `Processor` + `Nuca` path itself.

use std::collections::HashMap;

use trips_core::{
    Chip, ChipConfig, ChipStats, CoreConfig, CoreGeometry, CoreStats, MemBackend, Processor,
    SimError, TickMode,
};
use trips_isa::mem::SparseMem;
use trips_isa::{ArchReg, ProgramImage};
use trips_mem::MemConfig;
use trips_tasm::Quality;
use trips_workloads::{suite, Workload};

/// This suite seats the ambient die (`TRIPS_GEOMETRY`) on a chip. A die
/// no chip slot can seat — the fat lane's 8 DTs and 9 ITs against a
/// slot's 5 OCN ports each — leaves nothing to test, and says so.
macro_rules! needs_a_seatable_die {
    () => {
        if let Err(e) = ChipConfig::n_cores(2).validate() {
            eprintln!("skipped: {e}");
            return;
        }
    };
}

const MAX_CYCLES: u64 = 200_000_000;

fn regs(p: &Processor) -> Vec<u64> {
    (0..128).map(|r| p.arch_reg(ArchReg::new(r))).collect()
}

/// Solo `Processor` + prototype NUCA outcome (the chip's anchor).
fn solo(wl: &Workload) -> (CoreStats, Vec<u64>, SparseMem) {
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig {
        mem_backend: MemBackend::nuca_prototype(),
        ..CoreConfig::prototype()
    });
    let stats = cpu.run(&image, MAX_CYCLES).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    let r = regs(&cpu);
    let mem = cpu.memory().clone();
    (stats, r, mem)
}

/// Runs one workload per core on a fresh chip built from `ccfg`,
/// returning the chip stats and each core's architectural
/// observables.
fn chip_run_with(wls: &[&Workload], ccfg: ChipConfig) -> (ChipStats, Vec<(Vec<u64>, SparseMem)>) {
    let mut chip = Chip::new(ccfg);
    let images: Vec<_> =
        wls.iter().map(|wl| wl.build_trips(Quality::Hand).expect("compiles").image).collect();
    let names: Vec<&str> = wls.iter().map(|w| w.name).collect();
    let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{names:?}: {e}"));
    let arch =
        (0..wls.len()).map(|k| (regs(chip.core(k)), chip.core(k).memory().clone())).collect();
    (stats, arch)
}

/// Runs one workload per core on a fresh default-config chip.
fn chip_run(wls: &[&Workload], check_invariants: bool) -> (ChipStats, Vec<(Vec<u64>, SparseMem)>) {
    let core_cfg = CoreConfig { check_invariants, ..CoreConfig::prototype() };
    chip_run_with(wls, ChipConfig::with_cores(wls.len(), core_cfg, MemConfig::prototype()))
}

/// Runs `wl` alone in slot `slot` of an `n`-core chip (every other
/// slot idle), returning the live core's stats and architecture.
fn run_slot(wl: &Workload, slot: usize, n: usize) -> (CoreStats, Vec<u64>, SparseMem) {
    let mut chip = Chip::new(ChipConfig::n_cores(n));
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut images: Vec<Option<&ProgramImage>> = vec![None; n];
    images[slot] = Some(&image);
    let stats = chip
        .run_select(&images, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} alone in slot {slot} of {n}: {e}", wl.name));
    assert_eq!(
        stats.total_conflict_stalls(),
        0,
        "a lone live core can never lose a bank arbitration"
    );
    for (j, c) in stats.cores.iter().enumerate() {
        if j != slot {
            assert_eq!(c, &CoreStats::default(), "idle slot {j} of an {n}-core die was not idle");
        }
    }
    let mem = chip.core(slot).memory().clone();
    (stats.cores[slot].clone(), regs(chip.core(slot)), mem)
}

#[test]
fn single_core_chip_is_bit_identical_to_solo_nuca() {
    for name in ["vadd", "saxpy", "listwalk"] {
        let wl = suite::by_name(name).expect("registered");
        let (solo_stats, solo_regs, solo_mem) = solo(&wl);
        let (chip_stats, arch) = chip_run(&[&wl], false);
        assert_eq!(
            chip_stats.cores[0], solo_stats,
            "{name}: a one-core chip must report bit-identical CoreStats to the solo NUCA path"
        );
        assert_eq!(arch[0].0, solo_regs, "{name}: registers diverge");
        assert_eq!(arch[0].1, solo_mem, "{name}: memory diverges");
        assert_eq!(
            chip_stats.total_conflict_stalls(),
            0,
            "{name}: a single core can never lose a bank arbitration"
        );
    }
}

#[test]
fn per_core_state_is_corunner_independent_across_the_pair_table() {
    needs_a_seatable_die!();
    let mut failures = Vec::new();
    for (a, b) in suite::pairs() {
        let (chip_stats, arch) = chip_run(&[&a, &b], false);
        for (k, wl) in [&a, &b].into_iter().enumerate() {
            let (s_stats, s_regs, s_mem) = solo(wl);
            if chip_stats.cores[k].blocks_committed != s_stats.blocks_committed {
                failures.push(format!(
                    "{}+{} core{k} ({}): committed {} blocks paired, {} solo",
                    a.name,
                    b.name,
                    wl.name,
                    chip_stats.cores[k].blocks_committed,
                    s_stats.blocks_committed
                ));
            }
            if arch[k].0 != s_regs {
                failures.push(format!(
                    "{}+{} core{k} ({}): registers depend on the co-runner",
                    a.name, b.name, wl.name
                ));
            }
            if arch[k].1 != s_mem {
                failures.push(format!(
                    "{}+{} core{k} ({}): memory depends on the co-runner",
                    a.name, b.name, wl.name
                ));
            }
        }
    }
    assert!(failures.is_empty(), "contention leaked into architecture:\n{}", failures.join("\n"));
}

#[test]
fn chip_runs_are_deterministic() {
    needs_a_seatable_die!();
    let a = suite::by_name("listwalk").expect("registered");
    let b = suite::by_name("saxpy").expect("registered");
    let (s1, arch1) = chip_run(&[&a, &b], false);
    let (s2, arch2) = chip_run(&[&a, &b], false);
    assert_eq!(s1, s2, "ChipStats must be bit-identical across reruns");
    assert_eq!(arch1, arch2, "architectural state must be bit-identical across reruns");
}

#[test]
fn memory_bound_pairing_actually_contends() {
    needs_a_seatable_die!();
    let a = suite::by_name("listwalk").expect("registered");
    let b = suite::by_name("saxpy").expect("registered");
    let (chip_stats, _) = chip_run(&[&a, &b], false);
    assert!(
        chip_stats.total_conflict_stalls() > 0,
        "listwalk+saxpy must collide at the banks at least once"
    );
    for (k, (inj, _)) in chip_stats.ocn_tag_counts.iter().enumerate() {
        assert!(*inj > 0, "core {k} injected no OCN packets — tagging is broken");
    }
    assert!(
        chip_stats.ocn_tag_highwater.iter().all(|&h| h > 0),
        "both cores must have packets in flight at some point"
    );
    let slowdowns: Vec<f64> = [&a, &b]
        .into_iter()
        .enumerate()
        .map(|(k, wl)| chip_stats.cores[k].cycles as f64 / solo(wl).0.cycles as f64)
        .collect();
    // Contention shifts the OCN's round-robin state, so a single
    // request can in principle arrive *earlier* than solo — but net
    // across a memory-bound run, sharing the banks must cost someone
    // cycles.
    assert!(
        slowdowns.iter().any(|&s| s > 1.0),
        "two memory-bound workloads on one NUCA must slow at least one down: {slowdowns:?}"
    );
}

#[test]
fn chip_epoch_skip_is_bit_identical_and_not_vacuous() {
    needs_a_seatable_die!();
    // The chip coordinates skips: only when every core's mask is
    // empty does the whole lockstep ensemble fast-forward (folding
    // the shared system's earliest event), so per-core skipping can
    // never desynchronise the cores from the shared-NUCA phase. A
    // `Reference` core's mask is never empty, so a chip seating even
    // one must tick every cycle — and still match both pure chips.
    let a = suite::by_name("listwalk").expect("registered");
    let b = suite::by_name("saxpy").expect("registered");
    let images = [a, b].map(|wl| wl.build_trips(Quality::Hand).expect("compiles").image);
    let run = |modes: [TickMode; 2]| {
        let cores =
            modes.map(|tick_mode| CoreConfig { tick_mode, ..CoreConfig::prototype() }).to_vec();
        let mut chip = Chip::new(ChipConfig { cores, ..ChipConfig::n_cores(2) });
        let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{modes:?}: {e}"));
        let arch: Vec<_> =
            (0..2).map(|k| (regs(chip.core(k)), chip.core(k).memory().clone())).collect();
        let skipped: u64 = (0..2).map(|k| chip.core(k).gating_stats().cycles_skipped).sum();
        ((stats, arch), skipped)
    };
    let (fast, _) = run([TickMode::Fast, TickMode::Fast]);
    let (reference, r_skipped) = run([TickMode::Reference, TickMode::Reference]);
    let (mixed, m_skipped) = run([TickMode::Fast, TickMode::Reference]);
    assert!(fast == reference, "an all-Fast chip must match an all-Reference chip bit-for-bit");
    assert!(mixed == reference, "a mixed Fast/Reference chip diverges from the pure chips");
    assert_eq!((r_skipped, m_skipped), (0, 0), "a chip seating a Reference core must never skip");

    // Non-vacuous: a one-core chip running the pointer chase must
    // actually fast-forward — it mirrors the solo-NUCA case, where
    // every DRAM miss leaves the core with provably nothing to do.
    let mut chip = Chip::new(ChipConfig::n_cores(1));
    chip.run(&images[..1], MAX_CYCLES).expect("halts");
    let g = chip.core(0).gating_stats();
    assert!(g.epochs_skipped > 0, "one-core chip skipped no epochs on listwalk: {g:?}");
}

#[test]
fn timed_out_chip_runs_report_the_same_cycle_under_both_schedules() {
    needs_a_seatable_die!();
    // The chip's coordinated skip is clamped to the caller's cycle
    // budget like the solo core's: a timed-out run stops on the
    // budget, with the same diagnosis, whichever schedule ran it.
    let wl = suite::by_name("listwalk").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let images = [image.clone(), image];
    for budget in (1000..6000).step_by(37) {
        let run = |tick_mode| {
            let core = CoreConfig { tick_mode, ..CoreConfig::prototype() };
            Chip::new(ChipConfig::with_cores(2, core, MemConfig::prototype())).run(&images, budget)
        };
        let fast = run(TickMode::Fast);
        assert!(
            matches!(fast, Err(SimError::Timeout { cycles, .. }) if cycles == budget),
            "budget {budget}: expected a timeout on the budget: {fast:?}"
        );
        assert!(fast == run(TickMode::Reference), "budget {budget}: timeouts differ");
    }
}

#[test]
fn a_lone_core_in_any_slot_of_any_die_matches_its_prototype_slot() {
    needs_a_seatable_die!();
    let wl = suite::by_name("saxpy").expect("registered");
    let (solo_stats, solo_regs, solo_mem) = solo(&wl);

    // Slot 0 of the prototype die IS the solo path (PortMap::SOLO is
    // `for_core(0, 2)`), idle co-slot and all.
    let (s0, r0, m0) = run_slot(&wl, 0, 2);
    assert_eq!(s0, solo_stats, "slot 0 of the prototype die diverged from solo CoreStats");
    assert_eq!(r0, solo_regs, "slot 0 of the prototype die diverged from solo registers");
    assert_eq!(m0, solo_mem, "slot 0 of the prototype die diverged from solo memory");

    // Slot 1 of the prototype die anchors all odd slots: its ports
    // sit five rows below slot 0's, so its OCN distances — and hence
    // its cycle counts — legitimately differ from solo, but its
    // architecture must not.
    let (odd_stats, odd_regs, odd_mem) = run_slot(&wl, 1, 2);
    assert_eq!(odd_regs, solo_regs, "slot choice leaked into registers");
    assert_eq!(odd_mem, solo_mem, "slot choice leaked into memory");
    assert_eq!(
        odd_stats.blocks_committed, solo_stats.blocks_committed,
        "slot choice changed the committed block count"
    );

    // Wider dies tile whole prototype blocks vertically, and a +10·b
    // row translation preserves routing, per-router round-robin and
    // bank timing exactly — so slot k of any die must reproduce
    // prototype slot k % 2 bit-for-bit. The sweep uses the short
    // `vadd` (its loads and stores still cross the OCN) against its
    // own prototype-die anchors, keeping the debug-mode test cheap;
    // 16 cores is the widest die, and its interior slots add nothing
    // over 8's, so spot-check its corners.
    let wl = suite::by_name("vadd").expect("registered");
    let anchors = [run_slot(&wl, 0, 2), run_slot(&wl, 1, 2)];
    let slots: &[(usize, &[usize])] =
        &[(4, &[0, 1, 2, 3]), (8, &[0, 1, 2, 3, 4, 5, 6, 7]), (16, &[0, 1, 14, 15])];
    for &(n, ks) in slots {
        for &k in ks {
            let (stats, regs_k, mem_k) = run_slot(&wl, k, n);
            let (want_stats, want_regs, want_mem) = &anchors[k % 2];
            assert_eq!(
                &stats,
                want_stats,
                "slot {k} of an {n}-core die is not a translation of prototype slot {}",
                k % 2
            );
            assert_eq!(&regs_k, want_regs, "slot {k} of an {n}-core die: registers diverge");
            assert_eq!(&mem_k, want_mem, "slot {k} of an {n}-core die: memory diverges");
        }
    }
}

#[test]
fn per_core_state_is_corunner_independent_on_a_quad_die() {
    needs_a_seatable_die!();
    let mut solos: HashMap<&'static str, (CoreStats, Vec<u64>, SparseMem)> = HashMap::new();
    let mut failures = Vec::new();
    for group in suite::groups(4) {
        let wls: Vec<&Workload> = group.iter().collect();
        let (chip_stats, arch) = chip_run(&wls, false);
        let gname: Vec<&str> = group.iter().map(|w| w.name).collect();
        for (k, wl) in group.iter().enumerate() {
            let (s_stats, s_regs, s_mem) = solos.entry(wl.name).or_insert_with(|| solo(wl));
            if chip_stats.cores[k].blocks_committed != s_stats.blocks_committed {
                failures.push(format!(
                    "{gname:?} core{k} ({}): committed {} blocks grouped, {} solo",
                    wl.name, chip_stats.cores[k].blocks_committed, s_stats.blocks_committed
                ));
            }
            if &arch[k].0 != s_regs {
                failures.push(format!(
                    "{gname:?} core{k} ({}): registers depend on the co-runners",
                    wl.name
                ));
            }
            if &arch[k].1 != s_mem {
                failures.push(format!(
                    "{gname:?} core{k} ({}): memory depends on the co-runners",
                    wl.name
                ));
            }
        }
    }
    assert!(failures.is_empty(), "contention leaked into architecture:\n{}", failures.join("\n"));
}

#[test]
fn sixteen_core_chip_conserves_packets_under_audit() {
    needs_a_seatable_die!();
    // `check_invariants` runs the chip-wide OCN conservation audit
    // every cycle across all sixteen tags; after the halt-and-drain
    // loop every injected packet must have been delivered.
    let wl = suite::by_name("vadd").expect("registered");
    let wls: Vec<&Workload> = vec![&wl; 16];
    let (stats, _) = chip_run(&wls, true);
    assert_eq!(stats.cores.len(), 16);
    for (k, (inj, del)) in stats.ocn_tag_counts.iter().enumerate() {
        assert!(*inj > 0, "core {k} of 16 injected no OCN packets — tagging is broken");
        assert_eq!(inj, del, "core {k} of 16 leaked packets: {inj} injected, {del} delivered");
    }
}

#[test]
fn shared_memory_off_is_bit_identical_to_the_default_chip() {
    needs_a_seatable_die!();
    // PR 10's off-gate: `shared_memory` defaults off, and explicitly
    // off must be *bit-identical* to the default multiprogrammed chip
    // — cycles, whole-struct stats, registers, memory — across the
    // pair table, with every coherence observable quiet. Everything
    // the coherent mode adds (directory slices, GetS/GetM, the value
    // plane) must be unreachable behind the flag.
    for (a, b) in suite::pairs() {
        let core = CoreConfig { check_invariants: false, ..CoreConfig::prototype() };
        let mut cfg = ChipConfig::with_cores(2, core, MemConfig::prototype());
        assert!(!cfg.shared_memory, "shared memory must default off");
        cfg.shared_memory = false;
        let (off_stats, off_arch) = chip_run_with(&[&a, &b], cfg);
        let (def_stats, def_arch) = chip_run(&[&a, &b], false);
        assert_eq!(
            off_stats, def_stats,
            "{}+{}: shared_memory=false must not perturb ChipStats",
            a.name, b.name
        );
        assert_eq!(
            off_arch, def_arch,
            "{}+{}: shared_memory=false must not perturb architectural state",
            a.name, b.name
        );
        assert!(
            off_stats.coherence.is_none(),
            "a multiprogrammed chip must not report a coherence snapshot"
        );
        for (k, c) in off_stats.cores.iter().enumerate() {
            assert_eq!(c.coherence_flushes, 0, "core {k} flushed for coherence with it off");
            let mem = c.mem.as_ref().expect("NUCA stats present");
            assert_eq!(mem.invals_received, 0, "core {k} received invalidations with it off");
        }
    }
}

#[test]
fn chip_invariants_and_conservation_hold_under_contention() {
    needs_a_seatable_die!();
    let a = suite::by_name("saxpy").expect("registered");
    let b = suite::by_name("vadd").expect("registered");
    // `check_invariants` runs every core's per-tick suite plus the
    // chip-level conservation audit each cycle, and the post-halt
    // leak check (the whole chip must drain).
    let (chip_stats, _) = chip_run(&[&a, &b], true);
    assert_eq!(chip_stats.cores.len(), 2);
}

/// Two fat cores (8 DTs + 9 ITs each) cannot share a block whose
/// slots own five OCN ports a side.
fn two_fat_cores() -> ChipConfig {
    let fat = CoreConfig::with_geometry(CoreGeometry::fat());
    ChipConfig::with_cores(2, fat, MemConfig::prototype())
}

#[test]
#[should_panic(
    expected = "the fat geometry has 8 DTs and 9 ITs, but slot 0 of a 2-core die owns 5"
)]
fn a_die_whose_cores_overflow_their_ocn_slots_is_refused_by_name() {
    Chip::new(two_fat_cores());
}

#[test]
fn chip_config_validate_knows_each_slots_port_budget() {
    assert!(two_fat_cores().validate().is_err());
    assert!(ChipConfig::with_cores(0, CoreConfig::prototype(), MemConfig::prototype())
        .validate()
        .is_err());
    assert!(ChipConfig::n_cores(17).validate().is_err());
    for n in 1..=16 {
        ChipConfig::with_cores(n, CoreConfig::prototype_pinned(), MemConfig::prototype())
            .validate()
            .unwrap_or_else(|e| panic!("{n} prototype cores: {e}"));
    }
    // A core alone in its block owns all ten ports a side: a fat core
    // fits a one-core die, and the odd slot out of a three-core die.
    let fat = CoreConfig::with_geometry(CoreGeometry::fat());
    let mut lone = Chip::new(ChipConfig::with_cores(1, fat.clone(), MemConfig::prototype()));
    let wl = suite::by_name("vadd").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let stats = lone.run(std::slice::from_ref(&image), MAX_CYCLES).expect("halts");
    let mut solo =
        Processor::new(CoreConfig { mem_backend: MemBackend::nuca_prototype(), ..fat.clone() });
    assert_eq!(stats.cores[0], solo.run(&image, MAX_CYCLES).expect("halts"));
    let mut odd = ChipConfig::with_cores(3, CoreConfig::prototype_pinned(), MemConfig::prototype());
    odd.cores[2] = fat.clone();
    odd.validate().expect("the last core of an odd die has its block to itself");
    odd.cores.swap(1, 2);
    assert!(odd.validate().unwrap_err().contains("core 1"), "a fat core in a shared block");
}
