//! The secondary-memory backend boundary (DESIGN.md §5d).
//!
//! Three properties pin the [`MemBackend`] seam:
//!
//! 1. **Default pinning** — the default config *is* the perfect L2,
//!    and perfect-L2 runs carry no secondary-system statistics
//!    (`stats.mem == None`), so the backend seam is invisible to every
//!    pre-existing measurement path.
//! 2. **Architectural independence** — the backend changes only *when*
//!    fills and acknowledgements arrive, never what a load returns, so
//!    a NUCA run must match a perfect-L2 run in committed block count,
//!    all 128 architectural registers, and all of memory (cycle counts
//!    legitimately differ).
//! 3. **Determinism** — two NUCA runs of the same image are
//!    bit-identical in every observable, including the secondary
//!    statistics; the OCN arbitration, bank MSHRs, and the adapter's
//!    client iteration order contain no hidden host state.

use trips_core::{
    CoreConfig, CoreGeometry, CoreStats, FaultPlan, FaultPort, MemBackend, OcnFault, Processor,
    Ratio,
};
use trips_harness::{num_threads, parallel_map};
use trips_isa::mem::SparseMem;
use trips_isa::ArchReg;
use trips_tasm::Quality;
use trips_workloads::{suite, Workload};

const MAX_CYCLES: u64 = 200_000_000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// Runs `wl` at Hand quality under `backend`, returning the full
/// observable outcome.
fn outcome(wl: &Workload, backend: MemBackend) -> (CoreStats, Vec<u64>, SparseMem) {
    let image = wl
        .build_trips(Quality::Hand)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", wl.name))
        .image;
    let mut cpu = Processor::new(CoreConfig { mem_backend: backend, ..lane() });
    let stats = cpu
        .run(&image, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", wl.name));
    let regs = (0..128).map(|r| cpu.arch_reg(ArchReg::new(r))).collect();
    let mem = cpu.memory().clone();
    (stats, regs, mem)
}

#[test]
fn default_backend_is_the_perfect_l2_and_exports_no_mem_stats() {
    assert_eq!(CoreConfig::prototype().mem_backend, MemBackend::PerfectL2);
    let wl = suite::by_name("vadd").expect("registered");
    let (default_stats, default_regs, default_mem) = outcome(&wl, MemBackend::prototype());
    assert!(
        default_stats.mem.is_none(),
        "perfect-L2 runs must not grow secondary statistics (bit-identity with the pre-backend \
         model)"
    );
    // An explicitly spelled-out PerfectL2 is the same backend, not a
    // sibling code path.
    let (explicit_stats, explicit_regs, explicit_mem) = outcome(&wl, MemBackend::PerfectL2);
    assert_eq!(default_stats, explicit_stats);
    assert_eq!(default_regs, explicit_regs);
    assert_eq!(default_mem, explicit_mem);
}

/// On the prototype's 64 KB banks, so evictions and the single-entry
/// bank MSHRs are in play: only the timing may differ.
#[test]
fn nuca_matches_perfect_l2_architecturally_across_the_suite() {
    let failures: Vec<String> = parallel_map(suite::extended(), num_threads(), |wl| {
        let (p_stats, p_regs, p_mem) = outcome(&wl, MemBackend::prototype());
        let (n_stats, n_regs, n_mem) = outcome(&wl, MemBackend::nuca_prototype());
        let mut errs = Vec::new();
        if p_stats.blocks_committed != n_stats.blocks_committed {
            errs.push(format!(
                "{}: committed {} blocks under NUCA, {} under perfect L2",
                wl.name, n_stats.blocks_committed, p_stats.blocks_committed
            ));
        }
        if p_regs != n_regs {
            let diffs: Vec<String> = p_regs
                .iter()
                .zip(&n_regs)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(r, (a, b))| format!("G{r}: l2={a:#x} nuca={b:#x}"))
                .collect();
            errs.push(format!("{}: registers diverge: {}", wl.name, diffs.join(", ")));
        }
        if p_mem != n_mem {
            errs.push(format!("{}: memory diverges", wl.name));
        }
        if n_stats.mem.is_none() {
            errs.push(format!("{}: NUCA run exported no secondary statistics", wl.name));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "the backend leaked into architectural state:\n{}",
        failures.join("\n")
    );
}

#[test]
fn nuca_runs_are_deterministic() {
    let mut wls = suite::memory_bound();
    wls.push(suite::by_name("vadd").expect("registered"));
    for wl in &wls {
        let a = outcome(wl, MemBackend::nuca_prototype());
        let b = outcome(wl, MemBackend::nuca_prototype());
        assert_eq!(a.0, b.0, "{}: stats (including MemSysStats) must be bit-identical", wl.name);
        assert_eq!(a.1, b.1, "{}: registers must be bit-identical", wl.name);
        assert_eq!(a.2, b.2, "{}: memory must be bit-identical", wl.name);
    }
}

#[test]
fn nuca_timing_actually_differs_from_the_perfect_l2() {
    // Sanity that the architectural-equivalence suite above is not
    // vacuous: the NUCA system must change *timing* on a workload that
    // misses (else the OCN and banks are not in the loop at all).
    let wl = suite::by_name("saxpy").expect("registered");
    let (p_stats, _, _) = outcome(&wl, MemBackend::prototype());
    let (n_stats, _, _) = outcome(&wl, MemBackend::nuca_prototype());
    assert_ne!(
        p_stats.cycles, n_stats.cycles,
        "a 128KB streaming workload must see different fill timing under NUCA"
    );
    let m = n_stats.mem.expect("NUCA stats present");
    assert!(m.dside_fills > 0, "saxpy must miss in the L1");
    assert!(m.store_writebacks > 0, "committed stores must write back");
    assert!(m.dram_accesses > 0, "a 128KB stream must reach DRAM");
}

/// The OCN fault plan the pinned run below installs: a contended
/// on-path link, an off-edge output (North of row 0 — it routes
/// nothing but draws from the fault PRNG every cycle its router is
/// visited), an eject port on a router that never carries this core's
/// traffic, and arbitration rotation, so every kind of PRNG draw the
/// OCN makes is in the sequence.
fn ocn_fault_plan() -> FaultPlan {
    let stall = |row, col, port, den, max_burst| OcnFault {
        row,
        col,
        port,
        chance: Ratio { num: 1, den },
        max_burst,
    };
    FaultPlan {
        seed: 0x0c_2006,
        rotate_arbitration: true,
        ocn_links: vec![
            stall(4, 1, FaultPort::South, 6, 5),
            stall(0, 2, FaultPort::North, 3, 4),
            stall(9, 3, FaultPort::Eject, 4, 3),
            stall(2, 0, FaultPort::East, 5, 6),
        ],
        ..FaultPlan::default()
    }
}

#[test]
fn nuca_under_ocn_link_faults_reproduces_the_recorded_timing() {
    // The OCN tick visits only occupied and fault-bearing routers; the
    // fault PRNG is drawn sequentially, so the visit rule is correct
    // only if it reproduces the draw sequence of the full router sweep
    // it replaced. These numbers were recorded from that sweep (the
    // commit before the occupied-router tick): any change to which
    // routers are probed, or in what order, moves them.
    let recorded: [(&str, u64, [u64; 9]); 2] = [
        ("listwalk", 169_993, [5150, 5150, 0, 23_280, 681, 34_261, 15_450, 0, 1052]),
        ("saxpy", 51_347, [20_532, 20_532, 27_344, 92_444, 102_113, 235_621, 61_596, 27_343, 9859]),
    ];
    for (name, cycles, mem) in recorded {
        let wl = suite::by_name(name).expect("registered");
        let image = wl.build_trips(Quality::Hand).expect("compiles").image;
        let mut cpu = Processor::new(CoreConfig {
            mem_backend: MemBackend::nuca_prototype(),
            faults: Some(ocn_fault_plan()),
            ..CoreConfig::prototype()
        });
        let stats = cpu.run(&image, MAX_CYCLES).expect("runs");
        let m = stats.mem.expect("NUCA stats present");
        let got = [
            m.ocn.injected,
            m.ocn.ejected,
            m.ocn.inject_fails,
            m.ocn.total_hops,
            m.ocn.total_queued,
            m.ocn.total_latency,
            m.ocn.total_flits,
            m.inject_stalls,
            m.dram_accesses,
        ];
        assert_eq!(
            (stats.cycles, got),
            (cycles, mem),
            "{name}: cycles / [injected, ejected, inject_fails, hops, queued, latency, flits, \
             inject_stalls, dram_accesses] diverge from the full-sweep recording"
        );
    }
}
