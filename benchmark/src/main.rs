//! The benchmark's command line.
//!
//! ```text
//! trips-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object {"correct", "attempted", "failed", "metrics"}
//! trips-benchmark --seed <u64> [--seconds <s>] [--check-repeat]
//!     every workload, each in a fresh process (so peak_rss_mb is its
//!     own): timed run, then traced run; prints every metric by name
//!     with its unit, then one JSON document. With --check-repeat the
//!     timed set runs twice and the exit code says whether the second
//!     agrees with the first within BENCHMARK.json's bounds.
//! trips-benchmark --emit-manifest
//!     prints the text BENCHMARK.json must hold
//! ```

use std::process::{Command, ExitCode, Stdio};

use trips_benchmark::host::{self, Fingerprint};
use trips_benchmark::json::{self, Value};
use trips_benchmark::manifest::{self, Better, WORKLOADS};
use trips_benchmark::run::{self, Outcome};
use trips_benchmark::span;
use trips_benchmark::stats::{median, quartiles};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
        emit_manifest: false,
    };
    let mut seed_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("--seed: {v:?} is not a u64"))?;
                seed_given = true;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a positive number"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is neither 0 nor 1")),
                }
            }
            "--check-repeat" => a.check_repeat = true,
            "--emit-manifest" => a.emit_manifest = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !a.emit_manifest && !seed_given {
        return Err("--seed <u64> is required".into());
    }
    Ok(a)
}

/// Writes `text` to `benchmark/out/<name>`.
fn write_out(name: &str, text: &str) -> Result<(), String> {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints one run the way a person reads it: fingerprint, per-rep
/// times, every metric with its unit and, where it has per-rep or
/// per-set-up samples, their median, quartiles and count.
fn print_human(args: &Args, workload: &str, fp: &Fingerprint, out: &Outcome) {
    println!(
        "workload {workload}  seed {}  trace {}  seconds {}",
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "host nproc={} rustc={:?} git={}{} calibration_ns={}",
        fp.nproc,
        fp.rustc,
        fp.git_head,
        if fp.git_dirty { "+dirty" } else { "" },
        fp.calibration_ns
    );
    let (q1, q3) = quartiles(&out.rep_secs);
    println!(
        "reps {}: host s inside run() per rep {:.6?}  median {:.6} q1 {q1:.6} q3 {q3:.6}",
        out.rep_secs.len(),
        out.rep_secs,
        median(&out.rep_secs),
    );
    for (d, v) in &out.metrics {
        match out.samples.get(&d.name) {
            Some(s) => {
                let (q1, q3) = quartiles(s);
                println!(
                    "  {:<36} {v:>18.6} {:<9} {} samples: median {:.6} q1 {q1:.6} q3 {q3:.6}",
                    d.name,
                    d.unit,
                    s.len(),
                    median(s),
                );
            }
            None => println!("  {:<36} {v:>18.6} {}", d.name, d.unit),
        }
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
}

/// Writes the span dump (traced runs) and the run's report — result,
/// fingerprint, seed, rep counts, samples — under `benchmark/out/`.
fn write_artifacts(
    args: &Args,
    workload: &str,
    fp: &Fingerprint,
    out: &Outcome,
) -> Result<(), String> {
    let stem = format!("{workload}-seed{}-trace{}", args.seed, u8::from(args.trace));
    if args.trace {
        write_out(&format!("{stem}.spans.tsv"), &span::dump_tsv(&out.spans))?;
    }
    // `{:?}` of an f64 slice is a JSON array with every digit.
    let samples: Vec<String> = out.samples.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
    let failures: Vec<String> =
        out.failures.iter().map(|f| format!("\"{}\"", json::escape(f))).collect();
    write_out(
        &format!("{stem}.json"),
        &format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, {}, \
             \"reps\": {}, \"rep_host_s\": {:?}, \"samples\": {{{}}}, \"failures\": [{}], \
             \"result\": {}}}\n",
            args.seed,
            args.trace,
            args.seconds,
            fp.json_members(),
            out.rep_secs.len(),
            out.rep_secs,
            samples.join(", "),
            failures.join(", "),
            out.result_line(),
        ),
    )
}

fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let out = if args.trace {
        run::traced(workload, args.seed, args.seconds)
    } else {
        run::timed(workload, args.seed, args.seconds)
    }?;
    let fp = Fingerprint::collect();
    print_human(args, workload, &fp, &out);
    write_artifacts(args, workload, &fp, &out)?;
    println!("{}", out.result_line());
    Ok(())
}

/// One workload's result in a set: its name, the parsed result object
/// and the line it was parsed from.
type SetEntry = (&'static str, Value, String);

/// Runs this binary again for one workload, in a fresh process, and
/// returns its result object, parsed and verbatim. The child's
/// human-readable lines pass through to our stdout.
fn child(args: &Args, workload: &str, trace: bool) -> Result<(Value, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}): child exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let parsed =
        json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))?;
    Ok((parsed, last.to_string()))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One pass over every workload.
fn run_set(args: &Args, trace: bool) -> Result<Vec<SetEntry>, String> {
    WORKLOADS
        .iter()
        .map(|w| child(args, w.name, trace).map(|(parsed, line)| (w.name, parsed, line)))
        .collect()
}

/// Compares the second timed set with the first under the bounds
/// `BENCHMARK.json` declares (read from the file, not from the table
/// compiled into this binary — the file is what the driver enforces).
/// Returns one line per metric that worsened by more than its bound.
fn repeat_violations(first: &[SetEntry], second: &[SetEntry]) -> Result<Vec<String>, String> {
    let path = host::benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let defs =
        doc.get("end_to_end").and_then(Value::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    let mut bad = Vec::new();
    for ((w, a, _), (_, b, _)) in first.iter().zip(second) {
        for d in defs {
            let field =
                |k: &str| d.get(k).and_then(Value::as_str).ok_or(format!("metric without {k}"));
            let name = field("name")?;
            let bound = d.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            let (x, y) = match (metric_value(a, name), metric_value(b, name)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(format!("{w}: result has no {name}")),
            };
            let worse = if field("better")? == Better::Higher.word() { x - y } else { y - x };
            // Positive = the second set is worse, as a share of the first.
            let share = worse / x.abs();
            let verdict = if share > bound { "WORSE" } else { "ok" };
            println!(
                "repeat {w:<15} {name:<24} first {x:>16.4} second {y:>16.4} worse by {share:>+8.4} \
                 bound {bound:<5} {verdict}"
            );
            if share > bound {
                bad.push(format!("{w}: {name} worsened by {share:.4} of {x} (bound {bound})"));
            }
        }
    }
    Ok(bad)
}

fn set_json(set: &[SetEntry]) -> String {
    let parts: Vec<String> = set.iter().map(|(w, _, line)| format!("\"{w}\": {line}")).collect();
    format!("{{{}}}", parts.join(", "))
}

/// Every workload, each run in its own process: the timed set (twice
/// under `--check-repeat`), then the traced set; then one JSON
/// document with the fingerprint and every result.
fn run_all(args: &Args) -> Result<bool, String> {
    let fp = Fingerprint::collect();
    let mut timed_sets = vec![run_set(args, false)?];
    if args.check_repeat {
        timed_sets.push(run_set(args, false)?);
    }
    let traced_set = run_set(args, true)?;

    let mut ok = true;
    for set in timed_sets.iter().chain([&traced_set]) {
        for (w, r, _) in set {
            if r.get("correct") != Some(&Value::Bool(true)) {
                println!("INCORRECT: {w} reported failed runs");
                ok = false;
            }
        }
    }
    if args.check_repeat {
        let bad = repeat_violations(&timed_sets[0], &timed_sets[1])?;
        for b in &bad {
            println!("NOT REPEATABLE: {b}");
        }
        ok &= bad.is_empty();
    }
    let timed_json: Vec<String> = timed_sets.iter().map(|s| set_json(s)).collect();
    let doc = format!(
        "{{\"fingerprint\": {{{}}}, \"seed\": {}, \"seconds\": {}, \"timed_sets\": [{}], \
         \"traced_set\": {}}}",
        fp.json_members(),
        args.seed,
        args.seconds,
        timed_json.join(", "),
        set_json(&traced_set),
    );
    write_out("report.json", &format!("{doc}\n"))?;
    println!("{doc}");
    Ok(ok)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.emit_manifest {
            print!("{}", manifest::benchmark_json());
            return Ok(true);
        }
        host::check_env()?;
        host::check_profile()?;
        match &args.workload {
            Some(w) => run_one(&args, w).map(|()| true),
            None => run_all(&args),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trips-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
