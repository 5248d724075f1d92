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
//! Flags ([`USAGE`]; anything else is a usage error, exit 2):
//!   --smoke      one contended pairing + one compute control, and a
//!                1→4-core curve (the checked-in baseline)
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
//! `BENCH_coherence.json`) in the current directory: a header naming
//! the core geometry (`TRIPS_GEOMETRY` selects it) and the mode, then
//! one `workloads[]` row per run — simulated quantities only, so the
//! bytes are a pure function of the model and `git diff` is the gate.
//! Curve rows are named `curve_nN` and report **aggregate** core
//! cycles as `sim_cycles`. Exits 1 if the memory-bound pairing shows no
//! cross-core bank conflicts, or if curve contention fails to grow
//! with the core count — a chip that cannot contend is not modelling
//! shared memory. Under `--shared` it exits 1 if any replica
//! disagrees with its oracle or a run generates no coherence traffic.

use std::collections::HashMap;

use trips_bench::{fuzz, usage_exit};
use trips_core::{Chip, ChipConfig, CohSnapshot, CoreConfig, MemBackend, Processor};
use trips_harness::json::{self, Object};
use trips_harness::{num_threads, parallel_map};
use trips_mem::{MemConfig, MAX_CORES};
use trips_tasm::Quality;
use trips_workloads::shared::{SharedProgram, SharedWorkload};
use trips_workloads::{suite, Workload};

const MAX_CYCLES: u64 = trips_bench::MAX_CYCLES;

const USAGE: &str = "usage: chipsim [--smoke] [--ncores N | --shared]";

#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    shared: bool,
    ncores: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--shared" => args.shared = true,
            "--ncores" => {
                let v = it.next().ok_or("--ncores needs a core count")?;
                let n = v.parse().ok().filter(|n| (1..=MAX_CORES).contains(n));
                args.ncores = Some(n.ok_or(format!("--ncores {v}: not in 1..={MAX_CORES}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.shared && args.ncores.is_some() {
        return Err("--ncores picks a curve point; --shared runs no curve".into());
    }
    Ok(args)
}

/// The header every chipsim file leads with: which die the cores
/// were, and which table this is.
fn header(smoke: bool) -> Object {
    Object::default().str("geometry", &CoreConfig::prototype().geometry.name()).lit("smoke", smoke)
}

struct PairPerf {
    name: String,
    chip_cycles: u64,
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
    let stats =
        chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{}+{}: {e}", a.name, b.name));
    let core_cycles = [stats.cores[0].cycles, stats.cores[1].cycles];
    let slowdown =
        [core_cycles[0] as f64 / solo[a.name] as f64, core_cycles[1] as f64 / solo[b.name] as f64];
    PairPerf {
        name: format!("{}+{}", a.name, b.name),
        chip_cycles: stats.cycles,
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
    let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("curve n={n}: {e}"));
    let max_slowdown = group
        .iter()
        .zip(&stats.cores)
        .map(|(wl, c)| c.cycles as f64 / solo[wl.name] as f64)
        .fold(0.0, f64::max);
    CurvePerf {
        ncores: n,
        chip_cycles: stats.cycles,
        agg_core_cycles: stats.cores.iter().map(|c| c.cycles).sum(),
        max_slowdown,
        conflict_stalls: stats.total_conflict_stalls(),
        ocn_highwater: stats.ocn_tag_highwater.iter().copied().max().unwrap_or(0),
    }
}

struct SharedPerf {
    name: String,
    ncores: usize,
    chip_cycles: u64,
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
    let stats = chip.run(&images, MAX_CYCLES).unwrap_or_else(|e| panic!("{} x{n}: {e}", wl.name));
    let oracle = fuzz::compare_shared_state(&chip, &expected);
    SharedPerf {
        name: format!("{}_n{n}", wl.name),
        ncores: n,
        chip_cycles: stats.cycles,
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
fn run_shared_suite(smoke: bool) {
    let widths: &[usize] = if smoke { &[2] } else { &[2, 4] };
    let points: Vec<(SharedWorkload, usize)> = suite::shared_memory()
        .into_iter()
        .flat_map(|wl| widths.iter().map(move |&n| (wl, n)))
        .collect();
    println!("chipsim: coherent shared-memory suite ({} points)\n", points.len());
    let rows = parallel_map(points, num_threads(), |(wl, n)| run_shared_point(&wl, n));

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

    let json = header(smoke)
        .rows(
            "workloads",
            rows.iter().map(|r| {
                Object::default()
                    .str("name", &r.name)
                    .lit("sim_cycles", r.chip_cycles)
                    .lit("ncores", r.ncores)
                    .lit("gets", r.coh.gets)
                    .lit("getms", r.coh.getms)
                    .lit("invalidations", r.coh.invals_sent)
                    .lit("inval_acks", r.coh.inval_acks)
                    .lit("deferred_acks", r.coh.deferred_acks)
                    .lit("invals_received", r.invals_received)
                    .lit("dir_lines", r.coh.dir_lines)
                    .lit("dir_highwater", r.coh.dir_highwater)
                    .lit("coherence_flushes", r.coherence_flushes)
            }),
        )
        .document();
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
    let Args { smoke, shared, ncores } = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_exit(&format!("chipsim: {e}\n{USAGE}")));
    if shared {
        run_shared_suite(smoke);
        return;
    }
    let threads = num_threads();

    let mut pairs = suite::pairs();
    if smoke {
        // One contended memory-bound pairing plus the compute control.
        pairs.retain(|(a, b)| {
            (a.name, b.name) == ("listwalk", "saxpy") || (a.name, b.name) == ("dct8x8", "sha")
        });
    }
    let curve_ns: Vec<usize> = match ncores {
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

    println!("chipsim: dual-core shared-NUCA contention ({} pairs)\n", pairs.len());

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

    let pair_rows = rows.iter().map(|r| {
        Object::default()
            .str("name", &r.name)
            .lit("sim_cycles", r.chip_cycles)
            .raw("core_cycles", json::array(r.core_cycles))
            .raw("slowdown", json::array(r.slowdown.map(|s| json::fixed(s, 4))))
            .lit("bank_conflict_stalls", r.conflict_stalls)
            .raw("ocn_tag_highwater", json::array(r.ocn_highwater))
    });
    // Curve rows: `sim_cycles` is the aggregate over cores (a 16-core
    // chip advances 16 core-cycles per chip cycle).
    let curve_rows = curve.iter().map(|c| {
        Object::default()
            .str("name", &format!("curve_n{}", c.ncores))
            .lit("sim_cycles", c.agg_core_cycles)
            .lit("ncores", c.ncores)
            .lit("chip_cycles", c.chip_cycles)
            .lit("max_slowdown", json::fixed(c.max_slowdown, 4))
            .lit("bank_conflict_stalls", c.conflict_stalls)
            .lit("ocn_tag_highwater", c.ocn_highwater)
    });
    let json = header(smoke).rows("workloads", pair_rows.chain(curve_rows)).document();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn a_flag_chipsim_does_not_know_is_a_usage_error_not_a_full_run() {
        assert_eq!(parse(""), Ok(Args::default()));
        let smoke4 = Args { smoke: true, shared: false, ncores: Some(4) };
        assert_eq!(parse("--smoke --ncores 4"), Ok(smoke4));
        assert_eq!(parse("--shared --smoke"), Ok(Args { smoke: true, shared: true, ncores: None }));
        assert!(parse("--smok").expect_err("a typo").contains("\"--smok\""));
        for bad in ["--ncores", "--ncores x", "--ncores 0", "--ncores 17", "--ncores -1", "smoke"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert!(parse("--shared --ncores 2").expect_err("no curve").contains("no curve"));
    }
}
