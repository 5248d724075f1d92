//! Protocol fault-injection fuzzer: the command-line face of
//! [`trips_bench::fuzz`].
//!
//! Every seed in `--start .. --start + --seeds` becomes one
//! [`Scenario`](fuzz::Scenario) — workload(s), machine (solo perfect-L2
//! or NUCA core, multiprogrammed chip, coherent chip), die geometry
//! and a timing-only [`FaultPlan`](trips_core::FaultPlan) — by
//! [`fuzz::Scenario::from_seed`], whose docs hold the seed → axis
//! rules (the only copy; `--coherence` selects its all-coherent
//! mapping, the nightly deep-fuzz configuration). Each scenario runs
//! with every protocol invariant checked per tick and its final state
//! compared against the `blockinterp` oracle (suite workloads) or the
//! sequential oracle (shared-memory workloads). The first failure is
//! shrunk to a minimal plan and re-run under the flight recorder into
//! a JSON artifact (`--artifact`) whose `"scenario"` string is the
//! whole reproducer —
//!
//! ```text
//! "scenario": "chip matrix,vadd,dct8x8,matrix hand prototype fast seed=0xdd rotate ocn=3.0.eject:1/16*3 chain=1/8+3",
//! ```
//!
//! — and printed as a test for `tests/fault_injection.rs`:
//! `assert_scenario("<that line>")`.
//!
//! Flags are [`USAGE`]. `--smoke` is the CI configuration: 210 seeds
//! across four microbenchmarks. CI also drives the shrink-and-report
//! tail, on pinned seeds of builds with a `tests/bugs/` patch applied.
//! `--gate on` (the default) fuzzes the `TickMode::Fast` schedule,
//! `--gate off` the `Reference` one; under `Fast` epoch skipping is
//! live, so perturbed arrival times also stress the next-wake
//! computation — a skip past a maturity point the scan failed to fold
//! surfaces as a divergence.

use std::ops::Range;
use std::process::ExitCode;

use trips_bench::fuzz::{self, Fuzzer, Oracles, Sweep};
use trips_core::TickMode;
use trips_harness::num_threads;
use trips_tasm::Quality;
use trips_workloads::suite;

const USAGE: &str = "usage: protofuzz [--smoke] [--seeds N] [--start S] [--workloads a,b,c] \
                     [--quality hand|compiled] [--gate on|off] [--coherence] \
                     [--artifact FILE] [--threads N] [--max-cycles N]";

struct Args {
    seeds: Range<u64>,
    sweep: Sweep,
    fuzzer: Fuzzer,
    artifact: String,
    threads: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut start, mut seeds) = (0u64, 1000u64);
    let mut args = Args {
        seeds: 0..0,
        sweep: Sweep {
            workloads: ["dct8x8", "matrix", "sha", "vadd"].map(String::from).to_vec(),
            quality: Quality::Hand,
            tick_mode: TickMode::Fast,
            coherence: false,
        },
        fuzzer: Fuzzer { oracles: Oracles::default(), max_cycles: fuzz::FUZZ_MAX_CYCLES },
        artifact: "protofuzz-failure.json".into(),
        threads: num_threads(),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--smoke" => seeds = 210,
            "--seeds" => seeds = number(value()?)?,
            "--start" => start = number(value()?)?,
            "--workloads" => {
                args.sweep.workloads = value()?.split(',').map(str::to_string).collect();
            }
            "--quality" => args.sweep.quality = fuzz::parse_quality(&value()?)?,
            "--gate" => {
                args.sweep.tick_mode = match value()?.as_str() {
                    "on" => TickMode::Fast,
                    "off" => TickMode::Reference,
                    g => return Err(format!("unknown gate mode {g:?} (on|off)")),
                }
            }
            "--coherence" => args.sweep.coherence = true,
            "--artifact" => args.artifact = value()?,
            "--threads" => match number(value()?)? {
                0 => return Err("--threads 0 runs nothing".into()),
                n => args.threads = n as usize,
            },
            "--max-cycles" => args.fuzzer.max_cycles = number(value()?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(name) = args.sweep.workloads.iter().find(|w| suite::by_name(w).is_none()) {
        let known: Vec<&str> = suite::extended().iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name:?}; known: {}", known.join(" ")));
    }
    // A sweep that runs nothing must not report that everything passed.
    let end =
        start.checked_add(seeds).ok_or(format!("--start {start} + --seeds {seeds} overflows"))?;
    if seeds == 0 {
        return Err("--seeds 0 sweeps nothing".into());
    }
    args.seeds = start..end;
    Ok(args)
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| trips_bench::usage_exit(&format!("protofuzz: {e}\n{USAGE}")));
    let total = args.seeds.end - args.seeds.start;
    let what = match args.sweep.coherence {
        true => "shared-memory workloads on coherent chips".to_string(),
        false => format!("{} at {} quality", args.sweep.workloads.join(","), args.sweep.quality),
    };
    let (schedule, threads) = (args.sweep.tick_mode, args.threads);
    eprintln!(
        "protofuzz: sweeping {total} seeded plans ({what}, {schedule:?}) on {threads} thread(s)"
    );
    let fuzzer = args.fuzzer;
    let failures = fuzzer.sweep(args.seeds, &args.sweep, args.threads);

    let Some(fail) = failures.first() else {
        eprintln!("protofuzz: all {total} plans passed (invariants + oracle)");
        return ExitCode::SUCCESS;
    };
    eprintln!("protofuzz: {} failing plan(s); minimizing the first", failures.len());
    for f in failures.iter().take(10) {
        eprintln!("  {}\n    {}", f.scenario, first_line(&f.why));
    }

    let shrunk = fuzzer.minimize(fail);
    eprintln!("protofuzz: shrunk to: {}", shrunk.scenario);
    eprintln!("protofuzz: still fails with: {}", first_line(&shrunk.why));
    match std::fs::write(&args.artifact, fuzzer.failure_artifact(fail, &shrunk)) {
        Ok(()) => eprintln!("protofuzz: wrote failure artifact to {}", args.artifact),
        Err(e) => eprintln!("protofuzz: writing {}: {e}", args.artifact),
    }
    println!("// ---- paste into a #[test] in tests/fault_injection.rs ----");
    println!("assert_scenario(\"{}\");", shrunk.scenario);
    ExitCode::FAILURE
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn a_seed_range_that_runs_nothing_is_a_usage_error() {
        assert_eq!(parse("--start 7 --seeds 3").expect("legal").seeds, 7..10);
        assert_eq!(parse("--smoke --coherence").expect("legal").seeds, 0..210);
        let max = u64::MAX;
        assert_eq!(parse(&format!("--start {} --seeds 1", max - 1)).expect("fits").seeds.end, max);
        for bad in [format!("--start {max} --seeds 2"), format!("--seeds {max} --start 1")] {
            assert!(parse(&bad).err().expect(&bad).contains("overflows"));
        }
        assert!(parse("--seeds 0").err().expect("empty sweep").contains("sweeps nothing"));
    }

    #[test]
    fn unknown_names_are_usage_errors() {
        assert!(parse("--workloads vadd,nope").err().expect("unknown").contains("\"nope\""));
        for bad in [
            "--quality best",
            "--gate maybe",
            "--frobnicate",
            "--seeds",
            "--seeds x",
            "--threads 0",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
