//! Area/IPC Pareto sweep over the core-geometry lattice.
//!
//! The EDGE design space trades tile-array area for exposed ILP: a
//! smaller ET array means fewer reservation stations issuing per cycle
//! and shallower speculation, but a much smaller die. This sweep runs
//! the workload suite on each point of a small `CoreGeometry` lattice
//! (mini 2x2/4 → prototype 4x4/8 → fat 8x8/16, plus intermediate
//! points in full mode), reports each point's processor-core area
//! (from `trips-area`, the same geometry-derived model that
//! regenerates Table 1) against its aggregate IPC, and writes
//! `BENCH_pareto.json`.
//!
//! The run doubles as a self-check and exits nonzero when either half
//! of the Pareto story breaks:
//!
//! * the area model must order the blessed lattice monotonically
//!   (mini < prototype < fat) — a geometry formula that stopped
//!   scaling would flatten it; or
//! * the IPC spread across the lattice is trivial (< 5%) — the
//!   simulator would no longer be sensitive to the structures the
//!   sweep resizes.
//!
//! Flags (anything else is a usage error, exit 2):
//!   --smoke   micro + kernel suites only, blessed lattice only (the
//!             checked-in `BENCH_pareto.json` is this configuration)
//!
//! Writes `BENCH_pareto.json` in the current directory: simulated
//! quantities only, so `git diff` against the checked-in file is the
//! gate.

use std::process::ExitCode;

use trips_area::core_area_mm2;
use trips_bench::{flags_or_exit, run_trips};
use trips_core::{CoreConfig, CoreGeometry};
use trips_harness::json::{fixed, Object};
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::{suite, Class, Workload};

/// Minimum max/min aggregate-IPC ratio across the lattice for the
/// sweep to count as showing a real spread.
const MIN_IPC_SPREAD: f64 = 1.05;

struct WorkloadRun {
    name: &'static str,
    sim_cycles: u64,
    insts_committed: u64,
}

struct Point {
    geom: CoreGeometry,
    core_area_mm2: f64,
    runs: Vec<WorkloadRun>,
}

impl Point {
    /// Aggregate IPC: total committed instructions over total
    /// simulated cycles, so long workloads weigh more than microtests.
    fn ipc(&self) -> f64 {
        let insts: u64 = self.runs.iter().map(|r| r.insts_committed).sum();
        let cycles: u64 = self.runs.iter().map(|r| r.sim_cycles).sum();
        insts as f64 / cycles.max(1) as f64
    }
}

fn sweep_point(geom: CoreGeometry, workloads: &[Workload]) -> Point {
    let area = core_area_mm2(geom);
    let runs = parallel_map(workloads.to_vec(), num_threads(), move |wl| {
        let stats = run_trips(&wl, Quality::Hand, CoreConfig::with_geometry(geom));
        WorkloadRun {
            name: wl.name,
            sim_cycles: stats.cycles,
            insts_committed: stats.insts_committed,
        }
    });
    Point { geom, core_area_mm2: area, runs }
}

fn main() -> ExitCode {
    let [smoke] = flags_or_exit("paretosweep", ["--smoke"]);

    let workloads: Vec<Workload> = suite::all()
        .into_iter()
        .filter(|wl| !smoke || matches!(wl.class, Class::Micro | Class::Kernel))
        .collect();

    // The blessed lattice is always swept (and gated); full mode adds
    // intermediate aspect ratios between mini and fat.
    let mut lattice = vec![CoreGeometry::mini(), CoreGeometry::prototype(), CoreGeometry::fat()];
    if !smoke {
        for spec in ["2x4/8", "4x8/8"] {
            lattice.push(CoreGeometry::parse(spec).expect("lattice point validates"));
        }
    }

    println!("paretosweep: {} geometries x {} workloads\n", lattice.len(), workloads.len());
    println!(
        "{:<10} {:>4} {:>7} {:>12} {:>14} {:>8}",
        "geometry", "ETs", "frames", "core mm2", "sim cycles", "IPC"
    );

    let points: Vec<Point> = lattice.iter().map(|&g| sweep_point(g, &workloads)).collect();
    for p in &points {
        let cycles: u64 = p.runs.iter().map(|r| r.sim_cycles).sum();
        println!(
            "{:<10} {:>4} {:>7} {:>12.1} {:>14} {:>8.3}",
            p.geom.name(),
            p.geom.num_ets(),
            p.geom.frames,
            p.core_area_mm2,
            cycles,
            p.ipc(),
        );
    }

    // `points` is the Pareto curve; `workloads` the flat per
    // workload-geometry rows beneath it.
    let point_rows = points.iter().map(|p| {
        Object::default()
            .str("geometry", &p.geom.name())
            .lit("ets", p.geom.num_ets())
            .lit("frames", p.geom.frames)
            .lit("core_area_mm2", fixed(p.core_area_mm2, 3))
            .lit("ipc", fixed(p.ipc(), 4))
    });
    let run_rows = points.iter().flat_map(|p| {
        p.runs.iter().map(|r| {
            Object::default()
                .str("name", &format!("{}.{}", r.name, p.geom.name()))
                .lit("sim_cycles", r.sim_cycles)
                .lit("insts_committed", r.insts_committed)
        })
    });
    let json = Object::default()
        .lit("smoke", smoke)
        .rows("points", point_rows)
        .rows("workloads", run_rows)
        .document();
    std::fs::write("BENCH_pareto.json", &json).expect("write BENCH_pareto.json");
    println!("\nwrote BENCH_pareto.json");

    // Self-checks: the Pareto story must actually hold.
    let area_of = |g: CoreGeometry| {
        points.iter().find(|p| p.geom == g).expect("blessed point swept").core_area_mm2
    };
    let (mini, proto, fat) = (
        area_of(CoreGeometry::mini()),
        area_of(CoreGeometry::prototype()),
        area_of(CoreGeometry::fat()),
    );
    let mut failed = false;
    if !(mini < proto && proto < fat) {
        eprintln!(
            "FAIL: core area is not monotone across the lattice \
             (mini {mini:.1} mm2, prototype {proto:.1} mm2, fat {fat:.1} mm2)"
        );
        failed = true;
    }
    let ipc_min = points.iter().map(Point::ipc).fold(f64::INFINITY, f64::min);
    let ipc_max = points.iter().map(Point::ipc).fold(0.0, f64::max);
    let spread = ipc_max / ipc_min.max(1e-12);
    println!(
        "area ordering: mini {mini:.1} < prototype {proto:.1} < fat {fat:.1} mm2; \
         IPC spread {ipc_min:.3}..{ipc_max:.3} ({spread:.2}x)"
    );
    if spread < MIN_IPC_SPREAD {
        eprintln!(
            "FAIL: IPC spread {spread:.3}x across the lattice is trivial \
             (gate: >= {MIN_IPC_SPREAD}x) — the model is no longer sensitive to the geometry"
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
