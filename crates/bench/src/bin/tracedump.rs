//! Dumps the flight recorder for one workload run.
//!
//! Runs a named workload on the cycle-level core with tracing on and
//! writes the recorded protocol events, either as a human-readable
//! listing or as Chrome `trace_event` JSON (load the file at
//! `chrome://tracing` or <https://ui.perfetto.dev> to see one lane per
//! tile).
//!
//! ```text
//! tracedump --workload vadd [--quality hand|compiled]
//!           [--format text|chrome] [--capacity N] [--out FILE]
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use trips_core::{CoreConfig, Processor};
use trips_tasm::Quality;
use trips_workloads::suite;

struct Args {
    workload: String,
    quality: Quality,
    format: Format,
    capacity: usize,
    out: Option<String>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Chrome,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        quality: Quality::Hand,
        format: Format::Text,
        capacity: 1 << 16,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--quality" => {
                args.quality = match value("--quality")?.as_str() {
                    "hand" => Quality::Hand,
                    "compiled" => Quality::Compiled,
                    q => return Err(format!("unknown quality {q:?} (hand|compiled)")),
                }
            }
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "chrome" => Format::Chrome,
                    f => return Err(format!("unknown format {f:?} (text|chrome)")),
                }
            }
            "--capacity" => {
                args.capacity =
                    value("--capacity")?.parse().map_err(|e| format!("--capacity: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload NAME".into());
    }
    if args.capacity == 0 {
        return Err("--capacity must be at least 1 (the trace ring holds N events)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| {
        trips_bench::usage_exit(&format!(
            "tracedump: {e}\nusage: tracedump --workload NAME [--quality hand|compiled] \
             [--format text|chrome] [--capacity N] [--out FILE]"
        ))
    });

    let Some(wl) = suite::by_name(&args.workload) else {
        eprintln!("tracedump: unknown workload {:?}; known:", args.workload);
        for w in suite::all() {
            eprintln!("  {}", w.name);
        }
        return ExitCode::FAILURE;
    };
    let image = match wl.build_trips(args.quality) {
        Ok(c) => c.image,
        Err(e) => {
            eprintln!("tracedump: compiling {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut cpu = Processor::new(CoreConfig::prototype());
    cpu.enable_tracing(args.capacity);
    match cpu.run(&image, 100_000_000) {
        Ok(stats) => eprintln!(
            "{}: {} cycles, {} blocks, {} events recorded ({} dropped)",
            args.workload,
            stats.cycles,
            stats.blocks_committed,
            cpu.tracer().len(),
            cpu.tracer().dropped(),
        ),
        Err(e) => {
            // Still dump what was recorded: the trace is most useful
            // exactly when the run hung.
            eprintln!("tracedump: run failed, dumping partial trace\n{e}");
        }
    }

    let tracer = cpu.tracer();
    let body = match args.format {
        Format::Chrome => tracer.chrome_trace(),
        Format::Text => {
            let mut s = String::new();
            for ev in tracer.events() {
                s.push_str(&format!("{:>8}  {:?}\n", ev.cycle, ev.kind));
            }
            s
        }
    };

    match args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("tracedump: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            if stdout.write_all(body.as_bytes()).is_err() {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
