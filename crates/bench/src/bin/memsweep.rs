//! NUCA secondary-memory design sweep.
//!
//! Runs the memory-bound workloads (plus the two most bandwidth-hungry
//! Table 3 programs) under [`MemBackend::Nuca`] across secondary
//! configurations — [`MemMode::L2Shared`] vs [`MemMode::Scratchpad`]
//! and line- vs 4-line bank interleaving — and tabulates simulated
//! cycles and secondary-system behaviour per point. Architectural
//! results are backend-independent by construction (DESIGN.md §5d), so
//! the sweep reports *timing* divergence only; it exits nonzero if the
//! cache modes fail to diverge on any workload, since identical cycle
//! counts would mean the OCN/bank model is not actually in the loop.
//!
//! Takes no flags (`TRIPS_THREADS` sizes the worker pool, as for every
//! binary). Writes `BENCH_memsweep.json` in the current directory:
//! simulated quantities only, checked in and gated by `git diff`.

use std::process::ExitCode;

use trips_bench::{flags_or_exit, run_trips};
use trips_core::{CoreConfig, CoreStats, MemBackend};
use trips_harness::json::{fixed, Object};
use trips_harness::{num_threads, parallel_map};
use trips_mem::{MemConfig, MemMode};
use trips_tasm::Quality;
use trips_workloads::{suite, Workload};

/// One sweep point: a mode and a bank-interleaving granularity.
#[derive(Clone, Copy)]
struct Point {
    label: &'static str,
    mode: MemMode,
    interleave_shift: u32,
}

const POINTS: [Point; 4] = [
    Point { label: "shared/il1", mode: MemMode::L2Shared, interleave_shift: 0 },
    Point { label: "shared/il4", mode: MemMode::L2Shared, interleave_shift: 2 },
    Point { label: "scratch/il1", mode: MemMode::Scratchpad, interleave_shift: 0 },
    Point { label: "scratch/il4", mode: MemMode::Scratchpad, interleave_shift: 2 },
];

fn sweep_workloads() -> Vec<Workload> {
    let mut wls = suite::memory_bound();
    for name in ["vadd", "conv"] {
        wls.push(suite::by_name(name).expect("registered"));
    }
    wls
}

fn run_point(wl: &Workload, p: Point) -> CoreStats {
    let mc = MemConfig { mode: p.mode, interleave_shift: p.interleave_shift };
    let cfg = CoreConfig { mem_backend: MemBackend::Nuca(mc), ..CoreConfig::prototype() };
    run_trips(wl, Quality::Hand, cfg)
}

fn main() -> ExitCode {
    let [] = flags_or_exit("memsweep", []);
    let threads = num_threads();

    let wls = sweep_workloads();
    let cases: Vec<(usize, usize)> =
        (0..wls.len()).flat_map(|w| (0..POINTS.len()).map(move |p| (w, p))).collect();
    eprintln!(
        "memsweep: {} workloads x {} configurations on {} thread(s)",
        wls.len(),
        POINTS.len(),
        threads
    );
    let stats = parallel_map(cases.clone(), threads, |(w, p)| run_point(&wls[w], POINTS[p]));

    println!(
        "{:<10} {:<12} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "workload", "config", "cycles", "dfills", "ifills", "dram", "bank-hit", "fill-lat"
    );
    let mut rows = Vec::new();
    let mut diverged = Vec::new();
    for (wi, wl) in wls.iter().enumerate() {
        let mut cycles_by_mode: Vec<(MemMode, u64)> = Vec::new();
        for (pi, p) in POINTS.iter().enumerate() {
            let s = &stats[cases.iter().position(|&c| c == (wi, pi)).expect("case present")];
            let m = s.mem.as_ref().expect("NUCA runs export secondary stats");
            // Fill-latency buckets are 8 cycles wide (see MemSysStats).
            println!(
                "{:<10} {:<12} {:>10} {:>8} {:>8} {:>8} {:>8.1}% {:>8.1}",
                wl.name,
                p.label,
                s.cycles,
                m.dside_fills,
                m.iside_fills,
                m.dram_accesses,
                100.0 * m.hit_rate(),
                8.0 * m.fill_latency.mean(),
            );
            rows.push(
                Object::default()
                    .str("workload", wl.name)
                    .str("config", p.label)
                    .lit("cycles", s.cycles)
                    .lit("dside_fills", m.dside_fills)
                    .lit("iside_fills", m.iside_fills)
                    .lit("dram_accesses", m.dram_accesses)
                    .lit("bank_hit_rate", fixed(m.hit_rate(), 4))
                    .lit("mean_fill_latency", fixed(8.0 * m.fill_latency.mean(), 1)),
            );
            cycles_by_mode.push((p.mode, s.cycles));
        }
        let shared: Vec<u64> = cycles_by_mode
            .iter()
            .filter(|(m, _)| *m == MemMode::L2Shared)
            .map(|&(_, c)| c)
            .collect();
        let scratch: Vec<u64> = cycles_by_mode
            .iter()
            .filter(|(m, _)| *m == MemMode::Scratchpad)
            .map(|&(_, c)| c)
            .collect();
        if shared != scratch {
            diverged.push(wl.name);
        }
    }
    let json = Object::default().rows("points", rows).document();
    std::fs::write("BENCH_memsweep.json", &json).expect("write BENCH_memsweep.json");
    println!("\nwrote BENCH_memsweep.json");

    if diverged.is_empty() {
        eprintln!(
            "memsweep: L2Shared and Scratchpad produced identical cycles everywhere — \
             the secondary system is not affecting timing"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "cache-mode divergence on {}/{} workloads: {}",
        diverged.len(),
        wls.len(),
        diverged.join(", ")
    );
    ExitCode::SUCCESS
}
