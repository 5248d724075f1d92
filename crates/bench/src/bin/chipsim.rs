//! N-core chip contention benchmark.
//!
//! Two experiments per run. First, the dual-core pair table: each
//! workload solo (a single `Processor` on its own prototype NUCA —
//! bit-identical to a one-core chip, as `tests/chip_equivalence.rs`
//! pins) and the pair together on a two-core [`Chip`] sharing one
//! NUCA. Reports each core's slowdown under contention, the bank
//! arbiter's cross-core conflict stalls, and the per-core OCN
//! occupancy high-water marks. Second, the **scaling curve**: the
//! memory-bound group (`listwalk`/`saxpy` alternating) on 1-, 2-,
//! 4-, 8- and 16-core dies, reporting aggregate core cycles, the
//! worst per-core slowdown vs. solo, chip-wide bank-conflict stalls
//! and the OCN in-flight high-water mark at each width.
//!
//! Flags:
//!   --smoke      one contended pairing + one compute control, and a
//!                1→4-core curve (CI)
//!   --ncores N   run only the N-core curve point (exploration)
//!   --shared     run the **coherent shared-memory** suite instead:
//!                every shared-registry workload on dual (and, full
//!                mode, quad) dies with `ChipConfig::shared_memory`
//!                on, self-gated on each workload's sequential
//!                final-state oracle, reporting coherence traffic
//!                (GetS/GetM, invalidations, deferred write acks),
//!                directory occupancy/high-water and coherence
//!                flushes into `BENCH_coherence.json`
//!
//! Writes `BENCH_chipsim.json` (or, under `--shared`,
//! `BENCH_coherence.json`) in the current directory (same
//! `workloads[].{name, sim_cycles, wall_secs}` shape the perf gate
//! diffs; curve rows are named `curve_nN` and report **aggregate**
//! core cycles as `sim_cycles`, so throughput stays comparable as the
//! die widens). Exits nonzero if the memory-bound pairing shows no
//! cross-core bank conflicts, or if curve contention fails to grow
//! with the core count — a chip that cannot contend is not modelling
//! shared memory. Under `--shared` it exits nonzero if any replica
//! disagrees with its oracle or a run generates no coherence traffic.

use std::collections::HashMap;
use std::time::Instant;

use trips_bench::fuzz;
use trips_core::{Chip, ChipConfig, CohSnapshot, CoreConfig, MemBackend, Processor};
use trips_harness::{num_threads, parallel_map};
use trips_mem::MemConfig;
use trips_tasm::Quality;
use trips_workloads::shared::{SharedProgram, SharedWorkload};
use trips_workloads::{suite, Workload};

const MAX_CYCLES: u64 = trips_bench::MAX_CYCLES;

struct PairPerf {
    name: String,
    chip_cycles: u64,
    host_secs: f64,
    core_cycles: [u64; 2],
    slowdown: [f64; 2],
    conflict_stalls: u64,
    ocn_highwater: [usize; 2],
}

fn solo_cycles(wl: &Workload) -> u64 {
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig {
        mem_backend: MemBackend::nuca_prototype(),
        ..CoreConfig::prototype()
    });
    cpu.run(&image, MAX_CYCLES).unwrap_or_else(|e| panic!("{} solo: {e}", wl.name)).cycles
}

fn run_pair(a: &Workload, b: &Workload, solo: &HashMap<&'static str, u64>) -> PairPerf {
    let images = [
        a.build_trips(Quality::Hand).expect("compiles").image,
        b.build_trips(Quality::Hand).expect("compiles").image,
    ];
    let mut chip =
        Chip::new(ChipConfig::with_cores(2, CoreConfig::prototype(), MemConfig::prototype()));
    let start = Instant::now();
    let stats =
        chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{}+{}: {e}", a.name, b.name));
    let host_secs = start.elapsed().as_secs_f64();
    let core_cycles = [stats.cores[0].cycles, stats.cores[1].cycles];
    let slowdown =
        [core_cycles[0] as f64 / solo[a.name] as f64, core_cycles[1] as f64 / solo[b.name] as f64];
    PairPerf {
        name: format!("{}+{}", a.name, b.name),
        chip_cycles: stats.cycles,
        host_secs,
        core_cycles,
        slowdown,
        conflict_stalls: stats.total_conflict_stalls(),
        ocn_highwater: [stats.ocn_tag_highwater[0], stats.ocn_tag_highwater[1]],
    }
}

struct CurvePerf {
    ncores: usize,
    chip_cycles: u64,
    agg_core_cycles: u64,
    host_secs: f64,
    max_slowdown: f64,
    conflict_stalls: u64,
    ocn_highwater: usize,
}

fn run_curve_point(n: usize, solo: &HashMap<&'static str, u64>) -> CurvePerf {
    // Group 0 of the table is the memory-bound one: listwalk/saxpy
    // alternating, so every core-pair block stays contended.
    let group = suite::groups(n).remove(0);
    let images: Vec<_> =
        group.iter().map(|wl| wl.build_trips(Quality::Hand).expect("compiles").image).collect();
    let mut chip = Chip::new(ChipConfig::n_cores(n));
    let start = Instant::now();
    let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("curve n={n}: {e}"));
    let host_secs = start.elapsed().as_secs_f64();
    let max_slowdown = group
        .iter()
        .zip(&stats.cores)
        .map(|(wl, c)| c.cycles as f64 / solo[wl.name] as f64)
        .fold(0.0, f64::max);
    CurvePerf {
        ncores: n,
        chip_cycles: stats.cycles,
        agg_core_cycles: stats.cores.iter().map(|c| c.cycles).sum(),
        host_secs,
        max_slowdown,
        conflict_stalls: stats.total_conflict_stalls(),
        ocn_highwater: stats.ocn_tag_highwater.iter().copied().max().unwrap_or(0),
    }
}

struct SharedPerf {
    name: String,
    ncores: usize,
    chip_cycles: u64,
    host_secs: f64,
    coh: CohSnapshot,
    invals_received: u64,
    coherence_flushes: u64,
    oracle: Result<(), String>,
}

/// One shared-memory point: the workload on a coherent `n`-core chip,
/// self-gated on its sequential final-state oracle across every
/// core's replica.
fn run_shared_point(wl: &SharedWorkload, n: usize) -> SharedPerf {
    let SharedProgram { images, expected } = (wl.gen)(n);
    let mut cfg = ChipConfig::with_cores(n, CoreConfig::prototype(), MemConfig::prototype());
    cfg.shared_memory = true;
    let mut chip = Chip::new(cfg);
    let start = Instant::now();
    let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{} x{n}: {e}", wl.name));
    let host_secs = start.elapsed().as_secs_f64();
    let oracle = fuzz::compare_shared_state(&chip, &expected);
    SharedPerf {
        name: format!("{}_n{n}", wl.name),
        ncores: n,
        chip_cycles: stats.cycles,
        host_secs,
        coh: stats.coherence.expect("a shared-memory run reports a coherence snapshot"),
        invals_received: stats
            .cores
            .iter()
            .filter_map(|c| c.mem.as_ref())
            .map(|m| m.invals_received)
            .sum(),
        coherence_flushes: stats.cores.iter().map(|c| c.coherence_flushes).sum(),
        oracle,
    }
}

/// The `--shared` experiment: the shared-memory registry across die
/// widths, the coherence-traffic table, and `BENCH_coherence.json`.
fn run_shared_suite(smoke: bool, threads: usize) {
    let widths: &[usize] = if smoke { &[2] } else { &[2, 4] };
    let points: Vec<(SharedWorkload, usize)> = suite::shared_memory()
        .into_iter()
        .flat_map(|wl| widths.iter().map(move |&n| (wl, n)))
        .collect();
    println!(
        "chipsim: coherent shared-memory suite ({} points, {threads} thread(s))",
        points.len()
    );
    println!();
    let rows = parallel_map(points, threads, |(wl, n)| run_shared_point(&wl, n));

    println!(
        "{:<14} {:>12} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "workload", "chip cycles", "gets", "getms", "invals", "recv", "dir hw", "flushes", "oracle"
    );
    for r in &rows {
        println!(
            "{:<14} {:>12} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
            r.name,
            r.chip_cycles,
            r.coh.gets,
            r.coh.getms,
            r.coh.invals_sent,
            r.invals_received,
            r.coh.dir_highwater,
            r.coherence_flushes,
            if r.oracle.is_ok() { "ok" } else { "FAIL" },
        );
    }

    // Hand-built JSON (no serde in the container); same
    // `workloads[].{name, sim_cycles, wall_secs}` shape the perf gate
    // diffs with `--label coherence`.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"wall_secs\": {:.6}, \"ncores\": {}, \
             \"gets\": {}, \"getms\": {}, \"invalidations\": {}, \"inval_acks\": {}, \
             \"deferred_acks\": {}, \"invals_received\": {}, \"dir_lines\": {}, \
             \"dir_highwater\": {}, \"coherence_flushes\": {}}}{}\n",
            r.name,
            r.chip_cycles,
            r.host_secs,
            r.ncores,
            r.coh.gets,
            r.coh.getms,
            r.coh.invals_sent,
            r.coh.inval_acks,
            r.coh.deferred_acks,
            r.invals_received,
            r.coh.dir_lines,
            r.coh.dir_highwater,
            r.coherence_flushes,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_coherence.json", &json).expect("write BENCH_coherence.json");
    println!("\nwrote BENCH_coherence.json");

    // Self-gates: every replica must match the sequential oracle, and
    // a coherent run that moved no coherence traffic tested nothing.
    // GetM traffic is per-row (every shared workload writes);
    // invalidations are gated suite-wide — a workload with disjoint
    // write sets (psum) can legitimately send none on a die whose
    // timing never interleaves a reader between two writes.
    let mut failed = false;
    let mut suite_invals = 0;
    for r in &rows {
        if let Err(why) = &r.oracle {
            eprintln!("chipsim: FAIL — {} diverged from its sequential oracle: {why}", r.name);
            failed = true;
        }
        if r.coh.getms == 0 {
            eprintln!("chipsim: FAIL — {} generated no coherence traffic", r.name);
            failed = true;
        }
        if r.coh.invals_sent != r.coh.inval_acks {
            eprintln!(
                "chipsim: FAIL — {} leaked invalidations ({} sent, {} acked)",
                r.name, r.coh.invals_sent, r.coh.inval_acks
            );
            failed = true;
        }
        suite_invals += r.coh.invals_sent;
    }
    if suite_invals == 0 {
        eprintln!("chipsim: FAIL — the whole suite sent no invalidations");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--shared") {
        run_shared_suite(smoke, num_threads());
        return;
    }
    let ncores_override: Option<usize> = args.iter().position(|a| a == "--ncores").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| (1..=16).contains(&n))
            .expect("--ncores takes a core count in 1..=16")
    });
    let threads = num_threads();

    let mut pairs = suite::pairs();
    if smoke {
        // One contended memory-bound pairing plus the compute control.
        pairs.retain(|(a, b)| {
            (a.name, b.name) == ("listwalk", "saxpy") || (a.name, b.name) == ("dct8x8", "sha")
        });
    }
    let curve_ns: Vec<usize> = match ncores_override {
        Some(n) => vec![n],
        None if smoke => vec![1, 2, 4],
        None => vec![1, 2, 4, 8, 16],
    };

    let mut names: Vec<Workload> = Vec::new();
    for (a, b) in &pairs {
        for wl in [a, b] {
            if !names.iter().any(|w| w.name == wl.name) {
                names.push(*wl);
            }
        }
    }

    println!(
        "chipsim: dual-core shared-NUCA contention ({} pairs, {threads} thread(s))",
        pairs.len()
    );
    println!();

    let solo: HashMap<&'static str, u64> = names
        .iter()
        .map(|w| w.name)
        .zip(parallel_map(names.clone(), threads, |wl| solo_cycles(&wl)))
        .collect();

    let rows = parallel_map(pairs.clone(), threads, |(a, b)| run_pair(&a, &b, &solo));
    let curve = parallel_map(curve_ns.clone(), threads, |n| run_curve_point(n, &solo));

    println!(
        "{:<20} {:>12} {:>10} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "pair",
        "chip cycles",
        "c0 cycles",
        "c1 cycles",
        "c0 slow",
        "c1 slow",
        "bank conf",
        "ocn hw"
    );
    for r in &rows {
        println!(
            "{:<20} {:>12} {:>10} {:>10} {:>8.3}x {:>8.3}x {:>10} {:>4}/{:<4}",
            r.name,
            r.chip_cycles,
            r.core_cycles[0],
            r.core_cycles[1],
            r.slowdown[0],
            r.slowdown[1],
            r.conflict_stalls,
            r.ocn_highwater[0],
            r.ocn_highwater[1],
        );
    }

    println!();
    println!(
        "{:<10} {:>12} {:>14} {:>10} {:>10} {:>8}",
        "curve", "chip cycles", "agg core cyc", "max slow", "bank conf", "ocn hw"
    );
    for c in &curve {
        println!(
            "{:<10} {:>12} {:>14} {:>9.3}x {:>10} {:>8}",
            format!("n={}", c.ncores),
            c.chip_cycles,
            c.agg_core_cycles,
            c.max_slowdown,
            c.conflict_stalls,
            c.ocn_highwater,
        );
    }

    // Hand-built JSON: the container has no serde. Same row shape the
    // perf gate diffs (`name`, `sim_cycles`, `wall_secs`). The field
    // was once called `gated_secs`, which misread: it is the whole
    // pairing's wall time, not a gated-vs-ungated comparison time.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_cycles\": {}, \"wall_secs\": {:.6}, \
             \"core_cycles\": [{}, {}], \"slowdown\": [{:.4}, {:.4}], \
             \"bank_conflict_stalls\": {}, \"ocn_tag_highwater\": [{}, {}]}}{}\n",
            r.name,
            r.chip_cycles,
            r.host_secs,
            r.core_cycles[0],
            r.core_cycles[1],
            r.slowdown[0],
            r.slowdown[1],
            r.conflict_stalls,
            r.ocn_highwater[0],
            r.ocn_highwater[1],
            if i + 1 == rows.len() && curve.is_empty() { "" } else { "," },
        ));
    }
    // Curve rows: `sim_cycles` is the aggregate over cores so the
    // cycles-per-second floor measures simulator throughput, not die
    // width (a 16-core chip advances 16 core-cycles per chip cycle).
    for (i, c) in curve.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"curve_n{}\", \"sim_cycles\": {}, \"wall_secs\": {:.6}, \
             \"ncores\": {}, \"chip_cycles\": {}, \"max_slowdown\": {:.4}, \
             \"bank_conflict_stalls\": {}, \"ocn_tag_highwater\": {}}}{}\n",
            c.ncores,
            c.agg_core_cycles,
            c.host_secs,
            c.ncores,
            c.chip_cycles,
            c.max_slowdown,
            c.conflict_stalls,
            c.ocn_highwater,
            if i + 1 == curve.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_chipsim.json", &json).expect("write BENCH_chipsim.json");
    println!("\nwrote BENCH_chipsim.json");

    // A chip that never contends is not modelling a shared NUCA.
    let contended = rows
        .iter()
        .find(|r| r.name == "listwalk+saxpy")
        .expect("the listwalk+saxpy pairing is always in the run");
    if contended.conflict_stalls == 0 {
        eprintln!("chipsim: FAIL — listwalk+saxpy produced no cross-core bank conflicts");
        std::process::exit(1);
    }
    if !contended.slowdown.iter().any(|&s| s > 1.0) {
        eprintln!("chipsim: FAIL — listwalk+saxpy shows no per-core slowdown under contention");
        std::process::exit(1);
    }

    // The scaling curve must show contention growing with the die:
    // zero cross-core conflicts on a one-core chip, some on any wider
    // memory-bound die, and strictly more at every step up in width.
    for c in &curve {
        if c.ncores == 1 && c.conflict_stalls != 0 {
            eprintln!("chipsim: FAIL — a one-core chip reported cross-core bank conflicts");
            std::process::exit(1);
        }
        if c.ncores >= 2 && c.conflict_stalls == 0 {
            eprintln!(
                "chipsim: FAIL — the memory-bound group on {} cores never contended",
                c.ncores
            );
            std::process::exit(1);
        }
    }
    for w in curve.windows(2) {
        if w[1].conflict_stalls <= w[0].conflict_stalls {
            eprintln!(
                "chipsim: FAIL — contention did not grow from {} to {} cores ({} -> {})",
                w[0].ncores, w[1].ncores, w[0].conflict_stalls, w[1].conflict_stalls
            );
            std::process::exit(1);
        }
    }
}
