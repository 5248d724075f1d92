//! # trips-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `cargo run --release -p trips-bench --bin table1` | Table 1 — tile specifications |
//! | `cargo run --release -p trips-bench --bin table2` | Table 2 — control and data networks |
//! | `cargo run --release -p trips-bench --bin table3` | Table 3 — overhead breakdown + performance vs Alpha |
//! | `cargo run --release -p trips-bench --bin fig5`   | Figure 5 — execution example and commit-pipeline timeline |
//! | `cargo run --release -p trips-bench --bin fig6`   | Figure 6 — chip floorplan |
//!
//! plus the ablation tables (`cargo bench -p trips-bench`, simulated
//! cycles only) for the design choices DESIGN.md calls out:
//! operand-network bandwidth, the dependence predictor, and the
//! next-block predictor; the `protofuzz` fault-injection fuzzer
//! (`cargo run --release -p trips-bench --bin protofuzz -- --smoke`)
//! behind [`fuzz`]; and the baseline writers `chipsim`, `paretosweep`
//! and `memsweep`, whose `BENCH_*.json` hold simulated quantities only
//! and are gated by `scripts/update_baselines.sh` + `git diff`. Nothing
//! here reads the host clock: throughput comes from `benchmark/`.

pub mod fuzz;

use trips_alpha::{AlphaConfig, AlphaCore, AlphaStats};
use trips_core::{CoreConfig, CoreStats, Processor};
use trips_tasm::Quality;
use trips_workloads::Workload;

/// Cycle budget for harness runs.
pub const MAX_CYCLES: u64 = 200_000_000;

/// Runs a workload on the TRIPS core at `quality` with `cfg`.
///
/// # Panics
///
/// Panics on compile or simulation failure — the harness treats any
/// failure as a reportable bug.
pub fn run_trips(wl: &Workload, quality: Quality, cfg: CoreConfig) -> CoreStats {
    let image = wl
        .build_trips(quality)
        .unwrap_or_else(|e| panic!("{} ({quality}): compile failed: {e}", wl.name))
        .image;
    let mut cpu = Processor::new(cfg);
    cpu.run(&image, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} ({quality}): simulation failed: {e}", wl.name))
}

/// Runs a workload on the baseline core.
///
/// # Panics
///
/// Panics on compile or simulation failure.
pub fn run_alpha(wl: &Workload) -> AlphaStats {
    let prog = wl.build_risc().unwrap_or_else(|e| panic!("{}: risc compile failed: {e}", wl.name));
    let mut cpu = AlphaCore::new(AlphaConfig::alpha21264(), &prog)
        .unwrap_or_else(|e| panic!("{}: invalid program: {e}", wl.name));
    cpu.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{}: alpha failed: {e}", wl.name))
}

/// Speedup of a TRIPS run over the baseline (cycles ratio, as the
/// paper computes it).
pub fn speedup(alpha: &AlphaStats, trips: &CoreStats) -> f64 {
    if trips.cycles == 0 {
        return 0.0;
    }
    alpha.cycles as f64 / trips.cycles as f64
}

/// Which of the on/off flags `known` the command line `args` gives —
/// the whole front door of a binary that takes no valued flag.
///
/// # Errors
///
/// Names the first argument that is none of them, with the usage line.
pub fn parse_flags<const N: usize>(
    bin: &str,
    known: [&str; N],
    args: impl Iterator<Item = String>,
) -> Result<[bool; N], String> {
    let mut given = [false; N];
    for arg in args {
        let Some(i) = known.iter().position(|k| *k == arg) else {
            let usage = known.map(|k| format!(" [{k}]")).concat();
            return Err(format!("{bin}: unknown flag {arg:?}\nusage: {bin}{usage}"));
        };
        given[i] = true;
    }
    Ok(given)
}

/// [`parse_flags`] of this process's own command line; an argument it
/// does not know is a usage error, never silently ignored.
pub fn flags_or_exit<const N: usize>(bin: &str, known: [&str; N]) -> [bool; N] {
    parse_flags(bin, known, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e))
}

/// Prints a usage error and exits 2 (1 is a failed self-check).
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    #[test]
    fn unknown_flags_are_named_with_the_usage_line() {
        let parse = |line: &str| {
            parse_flags(
                "chipsim",
                ["--smoke", "--shared"],
                line.split_whitespace().map(String::from),
            )
        };
        assert_eq!(parse(""), Ok([false, false]));
        assert_eq!(parse("--shared"), Ok([false, true]));
        assert_eq!(parse("--shared --smoke --shared"), Ok([true, true]));
        let err = parse("--shared --sharde").expect_err("a typo");
        assert_eq!(err, "chipsim: unknown flag \"--sharde\"\nusage: chipsim [--smoke] [--shared]");
    }
}
