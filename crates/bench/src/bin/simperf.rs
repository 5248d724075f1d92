//! Host-throughput benchmark for the simulator itself.
//!
//! Where `table3` reports what the *modelled machine* does, `simperf`
//! reports how fast the *host* simulates it: simulated cycles per
//! host-second per workload (with the share of tile ticks the
//! scheduler gated off), and the wall-clock win from sharding the
//! whole sweep across host cores with the dependency-free worker
//! pool. It times the default schedule only; that the `Reference`
//! schedule agrees bit for bit is tier-1's job (`gating_equivalence`).
//! On a single-threaded host the sweep's parallel pass is skipped and
//! its JSON section is marked `"vacuous": true` — there is nothing to
//! shard.
//!
//! Flags:
//!   --smoke     micro + kernel suites only, Hand quality only (CI)
//!   --profile   also run each workload once with the per-phase tick
//!               profiler on and write `BENCH_tickprofile.json` (the
//!               profiling pass is separate from the timed runs, so
//!               the profiler's clock reads never pollute the reported
//!               throughput)
//!
//! Writes `BENCH_simperf.json` in the current directory.

use std::time::Instant;

use trips_bench::run_trips;
use trips_core::{CoreConfig, CoreStats, Processor, TickProfile};
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::{suite, Class, Workload};

const MAX_CYCLES: u64 = trips_bench::MAX_CYCLES;

struct WorkloadPerf {
    name: &'static str,
    sim_cycles: u64,
    wall_secs: f64,
    gated_fraction: f64,
}

impl WorkloadPerf {
    fn cycles_per_host_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_secs.max(1e-12)
    }
}

/// One measured run; returns (stats, host seconds, gated fraction).
fn timed_run(wl: &Workload, quality: Quality) -> (CoreStats, f64, f64) {
    let image = wl
        .build_trips(quality)
        .unwrap_or_else(|e| panic!("{} ({quality}): compile failed: {e}", wl.name))
        .image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    let start = Instant::now();
    let stats = cpu
        .run(&image, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} ({quality}): simulation failed: {e}", wl.name));
    let secs = start.elapsed().as_secs_f64();
    (stats, secs, cpu.gating_stats().gated_fraction())
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || ".-_".contains(c)));
    name
}

/// One profiled run: the same configuration as the timed run,
/// with the per-phase profiler on. Returns the accumulated profile.
fn profiled_run(wl: &Workload, quality: Quality) -> TickProfile {
    let image = wl
        .build_trips(quality)
        .unwrap_or_else(|e| panic!("{} ({quality}): compile failed: {e}", wl.name))
        .image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    cpu.enable_profiling();
    cpu.run(&image, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} ({quality}): profiled run failed: {e}", wl.name));
    cpu.profile().clone()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile = std::env::args().any(|a| a == "--profile");
    let threads = num_threads();

    let workloads: Vec<Workload> = suite::all()
        .into_iter()
        .filter(|wl| !smoke || matches!(wl.class, Class::Micro | Class::Kernel))
        .collect();
    let qualities: &[Quality] =
        if smoke { &[Quality::Hand] } else { &[Quality::Hand, Quality::Compiled] };

    println!(
        "simperf: simulator host throughput ({} workloads, {threads} thread(s))",
        workloads.len()
    );
    println!();

    // Per-workload single-run measurements.
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "workload", "sim cycles", "Mcyc/hostsec", "wall sec", "gatedfr"
    );
    let mut rows: Vec<WorkloadPerf> = Vec::with_capacity(workloads.len());
    for wl in &workloads {
        let (stats, wall_secs, gated_fraction) = timed_run(wl, Quality::Hand);
        let perf =
            WorkloadPerf { name: wl.name, sim_cycles: stats.cycles, wall_secs, gated_fraction };
        println!(
            "{:<12} {:>12} {:>12.2} {:>10.4} {:>7.1}%",
            perf.name,
            perf.sim_cycles,
            perf.cycles_per_host_sec() / 1e6,
            perf.wall_secs,
            100.0 * perf.gated_fraction,
        );
        rows.push(perf);
    }
    println!();

    // Sweep: the same (workload x quality) runs, serial vs sharded
    // across the worker pool. Items are independent simulations.
    let sweep: Vec<(Workload, Quality)> =
        workloads.iter().flat_map(|&wl| qualities.iter().map(move |&q| (wl, q))).collect();
    let n_runs = sweep.len();

    let start = Instant::now();
    for (wl, q) in &sweep {
        std::hint::black_box(run_trips(wl, *q, CoreConfig::prototype()).cycles);
    }
    let serial_secs = start.elapsed().as_secs_f64();

    // A one-thread host has nothing to shard: the "parallel" pass
    // would re-run the identical serial loop and report a tautological
    // ~1x. Skip it and mark the sweep section vacuous so readers (and
    // the perf gate baseline) see the speedup number is absent by
    // construction, not a regression.
    let sweep_vacuous = threads == 1;
    let (parallel_secs, sweep_speedup) = if sweep_vacuous {
        println!(
            "sweep of {n_runs} runs: serial {serial_secs:.2}s; single-threaded host — \
             parallel sharding is VACUOUS here, pass skipped"
        );
        (serial_secs, 1.0)
    } else {
        let start = Instant::now();
        let cycles = parallel_map(sweep, threads, |(wl, q)| {
            run_trips(&wl, q, CoreConfig::prototype()).cycles
        });
        let parallel_secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&cycles);
        let sweep_speedup = serial_secs / parallel_secs.max(1e-12);
        println!(
            "sweep of {n_runs} runs: serial {serial_secs:.2}s, parallel ({threads} threads) \
             {parallel_secs:.2}s -> {sweep_speedup:.2}x",
        );
        (parallel_secs, sweep_speedup)
    };

    // Hand-built JSON: the container has no serde.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"wall_secs\": {:.6}, \
             \"sim_cycles_per_host_sec\": {:.1}, \"gated_fraction\": {:.4}}}{}\n",
            json_escape_free(r.name),
            r.sim_cycles,
            r.wall_secs,
            r.cycles_per_host_sec(),
            r.gated_fraction,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sweep\": {{\"runs\": {n_runs}, \"vacuous\": {sweep_vacuous}, \
         \"serial_secs\": {serial_secs:.6}, \"parallel_secs\": {parallel_secs:.6}, \
         \"parallel_speedup\": {sweep_speedup:.4}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_simperf.json", &json).expect("write BENCH_simperf.json");
    println!("\nwrote BENCH_simperf.json");

    // The profiling pass runs dead last so its Instant reads cannot
    // perturb any timed measurement above.
    if profile {
        let mut total = TickProfile::enabled();
        let mut per_wl = String::new();
        for (i, wl) in workloads.iter().enumerate() {
            let p = profiled_run(wl, Quality::Hand);
            per_wl.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape_free(wl.name),
                p.json(),
                if i + 1 == workloads.len() { "" } else { "," },
            ));
            total.merge(&p);
        }
        println!("\nper-phase tick profile (suite total):");
        print!("{}", total.report());
        let json =
            format!("{{\n  \"workloads\": {{\n{per_wl}  }},\n  \"total\": {}\n}}\n", total.json());
        std::fs::write("BENCH_tickprofile.json", &json).expect("write BENCH_tickprofile.json");
        println!("wrote BENCH_tickprofile.json");
    }
}
