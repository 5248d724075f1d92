//! Protocol fault-injection fuzzer.
//!
//! Sweeps seeded timing-only fault plans ([`FaultPlan::random`]) over
//! a set of workloads, running each on the cycle-level core with every
//! protocol invariant checked per tick and comparing the final
//! architectural state against the `blockinterp` oracle. On a failure
//! it re-runs the case with the flight recorder on, writes a JSON
//! artifact (plan, hang report, Chrome trace), shrinks the plan to a
//! minimal reproducer, and prints a `#[test]` snippet that pastes into
//! `tests/fault_injection.rs`.
//!
//! ```text
//! protofuzz [--smoke] [--seeds N] [--start S] [--workloads a,b,c]
//!           [--quality hand|compiled] [--gate on|off] [--coherence]
//!           [--demo-bug] [--artifact FILE] [--threads N]
//! ```
//!
//! `--smoke` is the CI configuration: 210 seeds across four
//! microbenchmarks. `--demo-bug` flips on a synthetic failure
//! predicate (any forced flush storm counts as a failure) to
//! demonstrate the full shrink-and-report pipeline on a healthy core.
//!
//! Every fourth seed (`seed % 4 == 3`) runs under the NUCA secondary
//! backend instead of the perfect L2, so the OCN fill/ack plumbing and
//! the store-acknowledgement commit gating fuzz alongside the §4 core
//! protocols. Every eighth seed (`seed % 8 == 5`) instead runs on a
//! **chip** sharing one NUCA — OCN faults with all cores live,
//! deterministically-chosen co-runners on the other slots, and each
//! core compared against its own oracle (contention is timing-only,
//! so a divergence still indicts the protocols). Half of those
//! (`seed % 16 == 13`) use a **four-core** die, fuzzing the tiled OCN
//! geometry; the rest keep the dual-core prototype. Every eighth seed
//! (`seed % 8 == 2`, a residue disjoint from the NUCA and chip axes)
//! runs on the [`CoreGeometry::mini`] die — same plan draw stream,
//! OPN coordinates folded into the smaller mesh
//! ([`FaultPlan::random_for`]) — so the protocols fuzz on a
//! non-prototype geometry too. Every sixteenth seed (`seed % 16 ==
//! 6`, again a disjoint residue) runs the **coherence axis**: a
//! shared-memory chip (`ChipConfig::shared_memory`) executing one of
//! the shared-registry workloads with OCN link faults and chain
//! delays live, the §5g invariant suite (SWMR, directory/cache
//! agreement, message conservation) checked every tick, and every
//! core's replica compared against the workload's sequential
//! final-state oracle. Those seeds pick quad over dual at `seed % 32
//! == 22` and the mini die at `(seed / 16) % 4 == 1`; `--coherence`
//! remaps *all* seeds onto this axis (the nightly deep-fuzz
//! configuration). All choices are pure functions of the seed, so a
//! seed reproduces identically in the sweep, the shrinker, and a
//! repro test, and every historical seed's plan and configuration are
//! unchanged by the geometry axis.
//!
//! `--gate on` (the default) fuzzes the `TickMode::Fast` schedule,
//! `--gate off` the `Reference` one. Under `Fast` the cores run with
//! epoch skipping live, so every fault plan's perturbed arrival times
//! — delayed chain hops, stalled OPN/OCN links — also stress the
//! next-wake computation: a skip past a maturity point the scan failed
//! to fold would surface as an architectural divergence from the
//! oracle.

use std::process::ExitCode;

use trips_bench::fuzz::{self, FuzzFailure, Oracle};
use trips_core::{CoreGeometry, FaultPlan, MemBackend};
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::suite;

struct Args {
    seeds: u64,
    start: u64,
    workloads: Vec<String>,
    quality: Quality,
    gate: bool,
    coherence: bool,
    demo_bug: bool,
    artifact: String,
    threads: usize,
    max_cycles: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 1000,
        start: 0,
        workloads: vec!["dct8x8".into(), "matrix".into(), "sha".into(), "vadd".into()],
        quality: Quality::Hand,
        gate: true,
        coherence: false,
        demo_bug: false,
        artifact: "protofuzz-failure.json".into(),
        threads: num_threads(),
        max_cycles: fuzz::FUZZ_MAX_CYCLES,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--smoke" => args.seeds = 210,
            "--seeds" => {
                args.seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?
            }
            "--start" => {
                args.start = value("--start")?.parse().map_err(|e| format!("--start: {e}"))?
            }
            "--workloads" => {
                args.workloads = value("--workloads")?.split(',').map(str::to_string).collect();
            }
            "--quality" => {
                args.quality = match value("--quality")?.as_str() {
                    "hand" => Quality::Hand,
                    "compiled" => Quality::Compiled,
                    q => return Err(format!("unknown quality {q:?} (hand|compiled)")),
                }
            }
            "--gate" => {
                args.gate = match value("--gate")?.as_str() {
                    "on" => true,
                    "off" => false,
                    g => return Err(format!("unknown gate mode {g:?} (on|off)")),
                }
            }
            "--coherence" => args.coherence = true,
            "--demo-bug" => args.demo_bug = true,
            "--artifact" => args.artifact = value("--artifact")?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--max-cycles" => {
                args.max_cycles =
                    value("--max-cycles")?.parse().map_err(|e| format!("--max-cycles: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workloads needs at least one name".into());
    }
    Ok(args)
}

/// Whether `plan` fails on `oracle` — the one predicate both the sweep
/// and the shrinker use, so a shrunk plan fails for the same reason as
/// the original. In `--demo-bug` mode a run that merely *experienced*
/// a forced flush storm also counts as failing, to exercise the
/// shrink-and-report pipeline without a real bug.
#[allow(clippy::too_many_arguments)]
fn case_failure(
    oracle: &Oracle,
    chip_with: &[&Oracle],
    plan: &FaultPlan,
    geom: CoreGeometry,
    nuca: bool,
    gate: bool,
    demo: bool,
    max_cycles: u64,
) -> Option<String> {
    if !chip_with.is_empty() {
        let mut all = Vec::with_capacity(1 + chip_with.len());
        all.push(oracle);
        all.extend_from_slice(chip_with);
        return match fuzz::run_chip_against_oracles(&all, Some(plan), gate, max_cycles) {
            Err(e) => Some(e),
            Ok(stats) if demo && stats.cores.iter().any(|c| c.protocol.forced_flushes > 0) => {
                Some("demo bug: forced flush storm(s) observed on a chip core".into())
            }
            Ok(_) => None,
        };
    }
    let backend = if nuca { MemBackend::nuca_prototype() } else { MemBackend::prototype() };
    match fuzz::run_against_oracle_geom(oracle, backend, geom, Some(plan), gate, max_cycles) {
        Err(e) => Some(e),
        Ok(stats) if demo && stats.protocol.forced_flushes > 0 => Some(format!(
            "demo bug: {} forced flush storm(s) observed (synthetic failure predicate)",
            stats.protocol.forced_flushes
        )),
        Ok(_) => None,
    }
}

/// The co-runner oracles for a chip seed: slot `s + 1` runs oracle
/// `(seed / 8 + s) % n`, a pure function of the seed (slots may
/// repeat the primary). One slot on the dual-core prototype keeps the
/// historical seed → co-runner mapping; a four-core die adds two more.
fn chip_co_indices(seed: u64, slots: usize, n: usize) -> Vec<usize> {
    (0..slots).map(|s| ((seed / 8 + s as u64) % n as u64) as usize).collect()
}

/// The coherence-axis configuration for a seed — workload, core
/// count, die — as a pure function of the seed, so the shrinker and
/// any repro test reconstruct the exact case. Under `--coherence`
/// (every seed remapped) the workload rotates per seed and quad dies
/// alternate with dual; on the default axis (`seed % 16 == 6`) the
/// choices use disjoint seed bits so historical residues stay put.
fn coherence_case(seed: u64, remapped: bool) -> (String, usize, CoreGeometry) {
    let wls = suite::shared_memory();
    let wi = if remapped { seed % wls.len() as u64 } else { (seed / 16) % wls.len() as u64 };
    let quad = if remapped { seed % 2 == 1 } else { seed % 32 == 22 };
    let geom = if (seed / 16) % 4 == 1 { CoreGeometry::mini() } else { CoreGeometry::prototype() };
    (wls[wi as usize].name.to_string(), if quad { 4 } else { 2 }, geom)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("protofuzz: {e}");
            eprintln!(
                "usage: protofuzz [--smoke] [--seeds N] [--start S] [--workloads a,b,c] \
                 [--quality hand|compiled] [--gate on|off] [--demo-bug] [--artifact FILE] \
                 [--threads N] [--max-cycles N]"
            );
            return ExitCode::FAILURE;
        }
    };

    let mut oracles = Vec::new();
    for name in &args.workloads {
        let Some(wl) = suite::by_name(name) else {
            eprintln!("protofuzz: unknown workload {name:?}; known:");
            for w in suite::all() {
                eprintln!("  {}", w.name);
            }
            return ExitCode::FAILURE;
        };
        oracles.push(Oracle::build(&wl, args.quality));
    }

    let cases: Vec<(u64, usize)> = (args.start..args.start + args.seeds)
        .map(|seed| (seed, (seed % oracles.len() as u64) as usize))
        .collect();
    eprintln!(
        "protofuzz: sweeping {} seeded plans over {} workload(s) ({:?}, gating {}) on {} thread(s)",
        cases.len(),
        oracles.len(),
        args.quality,
        if args.gate { "on" } else { "off" },
        args.threads,
    );

    let failures: Vec<FuzzFailure> = parallel_map(cases, args.threads, |(seed, oi)| {
        if args.coherence || seed % 16 == 6 {
            let (name, ncores, geom) = coherence_case(seed, args.coherence);
            let plan = FaultPlan::random_for(seed, geom);
            let why = fuzz::run_shared_against_oracle(
                &name,
                ncores,
                geom,
                Some(&plan),
                args.gate,
                args.max_cycles,
            )
            .err()?;
            return Some(FuzzFailure {
                seed,
                workload: name,
                quality: args.quality,
                nuca: false,
                co_runner: None,
                shared_cores: Some(ncores),
                geom,
                plan,
                why,
            });
        }
        let oracle = &oracles[oi];
        let chip = seed % 8 == 5;
        let nuca = seed % 4 == 3;
        // The geometry axis: a residue class disjoint from the NUCA
        // and chip axes, so no historical seed's configuration moves.
        let geom = if seed % 8 == 2 { CoreGeometry::mini() } else { CoreGeometry::prototype() };
        let plan = FaultPlan::random_for(seed, geom);
        let slots = if seed % 16 == 13 { 3 } else { 1 };
        let co: Vec<&Oracle> = if chip {
            chip_co_indices(seed, slots, oracles.len()).into_iter().map(|i| &oracles[i]).collect()
        } else {
            Vec::new()
        };
        case_failure(oracle, &co, &plan, geom, nuca, args.gate, args.demo_bug, args.max_cycles).map(
            |why| FuzzFailure {
                seed,
                workload: oracle.name.clone(),
                quality: oracle.quality,
                nuca,
                co_runner: (!co.is_empty())
                    .then(|| co.iter().map(|o| o.name.as_str()).collect::<Vec<_>>().join(",")),
                shared_cores: None,
                geom,
                plan,
                why,
            },
        )
    })
    .into_iter()
    .flatten()
    .collect();

    if failures.is_empty() {
        eprintln!("protofuzz: all {} plans passed (invariants + oracle)", args.seeds);
        if args.demo_bug {
            eprintln!("protofuzz: --demo-bug found no storming plan; widen --seeds");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    eprintln!("protofuzz: {} failing plan(s); minimizing the first", failures.len());
    for f in failures.iter().take(10) {
        let mode = match (f.shared_cores, &f.co_runner) {
            (Some(n), _) => format!(", shared-memory chip x{n}"),
            (None, Some(co)) => format!(", chip with {co}"),
            (None, None) if f.nuca => ", nuca".into(),
            (None, None) => String::new(),
        };
        let mode = format!("{mode}, {}", f.geom.name());
        eprintln!(
            "  seed {:#x} on {} ({:?}{mode}): {}",
            f.seed,
            f.workload,
            f.quality,
            first_line(&f.why)
        );
    }

    let fail = &failures[0];
    if let Some(ncores) = fail.shared_cores {
        // Coherence-axis failure: shrink against the shared-memory
        // oracle predicate and emit the shared artifact and snippet.
        let (shrunk, shrunk_why) = fuzz::shrink(fail.plan.clone(), fail.why.clone(), |p| {
            fuzz::run_shared_against_oracle(
                &fail.workload,
                ncores,
                fail.geom,
                Some(p),
                args.gate,
                args.max_cycles,
            )
            .err()
        });
        eprintln!("protofuzz: shrunk plan:\n{}", shrunk.to_rust_literal());
        eprintln!("protofuzz: still fails with: {}", first_line(&shrunk_why));
        let artifact =
            fuzz::failure_artifact_shared(fail, &shrunk, &shrunk_why, args.gate, args.max_cycles);
        match std::fs::write(&args.artifact, &artifact) {
            Ok(()) => eprintln!("protofuzz: wrote failure artifact to {}", args.artifact),
            Err(e) => eprintln!("protofuzz: writing {}: {e}", args.artifact),
        }
        println!("// ---- paste into tests/fault_injection.rs ----");
        println!(
            "{}",
            fuzz::repro_snippet_shared(&fail.workload, ncores, fail.geom, &shrunk, &shrunk_why)
        );
        return ExitCode::FAILURE;
    }
    let oracle = &oracles[args.workloads.iter().position(|w| *w == fail.workload).unwrap_or(0)];
    // The co-runner field is the comma-joined slot list; map each name
    // back to its oracle for the shrinker and the artifact.
    let co_oracles: Vec<&Oracle> = fail
        .co_runner
        .as_deref()
        .map(|cos| {
            cos.split(',')
                .map(|co| &oracles[args.workloads.iter().position(|w| w == co).unwrap_or(0)])
                .collect()
        })
        .unwrap_or_default();
    let (shrunk, shrunk_why) = fuzz::shrink(fail.plan.clone(), fail.why.clone(), |p| {
        case_failure(
            oracle,
            &co_oracles,
            p,
            fail.geom,
            fail.nuca,
            args.gate,
            args.demo_bug,
            args.max_cycles,
        )
    });
    eprintln!("protofuzz: shrunk plan:\n{}", shrunk.to_rust_literal());
    eprintln!("protofuzz: still fails with: {}", first_line(&shrunk_why));

    let artifact = if co_oracles.is_empty() {
        fuzz::failure_artifact(oracle, fail, &shrunk, &shrunk_why, args.gate, args.max_cycles)
    } else {
        let mut all = Vec::with_capacity(1 + co_oracles.len());
        all.push(oracle);
        all.extend_from_slice(&co_oracles);
        fuzz::failure_artifact_chip(&all, fail, &shrunk, &shrunk_why, args.gate, args.max_cycles)
    };
    match std::fs::write(&args.artifact, &artifact) {
        Ok(()) => eprintln!("protofuzz: wrote failure artifact to {}", args.artifact),
        Err(e) => eprintln!("protofuzz: writing {}: {e}", args.artifact),
    }

    println!("// ---- paste into tests/fault_injection.rs ----");
    match &fail.co_runner {
        Some(co) => println!(
            "{}",
            fuzz::repro_snippet_chip(&fail.workload, co, fail.quality, &shrunk, &shrunk_why)
        ),
        None => println!(
            "{}",
            fuzz::repro_snippet_geom(
                &fail.workload,
                fail.quality,
                fail.nuca,
                fail.geom,
                &shrunk,
                &shrunk_why
            )
        ),
    }

    if args.demo_bug {
        // The demo's whole point is to produce the reproducer above;
        // reaching it is success.
        eprintln!("protofuzz: --demo-bug pipeline complete");
        return ExitCode::SUCCESS;
    }
    ExitCode::FAILURE
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or_default()
}
