//! The benchmark's contract with its driver and with later readers:
//! names and limits, `BENCHMARK.json` ⇄ the binary, span arithmetic,
//! and seeded determinism of the replay generators.

use std::collections::BTreeSet;

use trips_benchmark::json::{self, Value};
use trips_benchmark::layers::{
    mesh_schedule, secondary_schedule, MeshTraffic, Replay, SecondaryTraffic,
};
use trips_benchmark::manifest::{self, MetricDef, WORKLOADS};
use trips_benchmark::run::{self, Replays, SetupFacts};
use trips_benchmark::span::{self_times, total_self_ns, Kind, Span};
use trips_benchmark::workloads::RepOut;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn all_metrics() -> Vec<MetricDef> {
    manifest::end_to_end().into_iter().chain(manifest::per_layer()).collect()
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name.to_string()), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one line of <= 200",
            w.name
        );
    }
    for m in all_metrics() {
        assert!(is_name(&m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&manifest::end_to_end().len()));
    assert!((1..=128).contains(&manifest::per_layer().len()));
    assert!((1..=60).contains(&manifest::RUN_SECONDS));
    for m in manifest::end_to_end() {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
    }
    assert!(manifest::per_layer().iter().all(|m| m.bound.is_none()));
    let setup = manifest::end_to_end().into_iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    let widest = manifest::end_to_end().iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
}

/// `BENCHMARK.json` is the manifest table, byte for byte — regenerate
/// it with `cargo run --manifest-path benchmark/Cargo.toml --
/// --emit-manifest > BENCHMARK.json`.
#[test]
fn benchmark_json_is_the_manifest_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(text, manifest::benchmark_json(), "BENCHMARK.json is stale");
    assert!(text.len() <= 64 * 1024);

    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let names = |section: &str, want_keys: &[&str]| -> Vec<String> {
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let keys: Vec<&str> = e.as_obj().unwrap().keys().map(String::as_str).collect();
                assert_eq!(keys, want_keys, "{section} entry keys");
                e.get("name").and_then(Value::as_str).unwrap().to_string()
            })
            .collect()
    };
    let declared = |defs: Vec<MetricDef>| defs.into_iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(names("workloads", &["name", "why"]), WORKLOADS.map(|w| w.name.to_string()));
    assert_eq!(
        names("end_to_end", &["better", "bound", "name", "unit"]),
        declared(manifest::end_to_end())
    );
    assert_eq!(names("per_layer", &["better", "name", "unit"]), declared(manifest::per_layer()));

    let paths = doc.get("paths").and_then(Value::as_arr).unwrap();
    assert_eq!(paths, [Value::Str(manifest::PATH.into())]);
    let command = doc.get("command").and_then(Value::as_arr).unwrap();
    assert!(command.len() <= 32);
    assert!(command.iter().any(|c| c.as_str() == Some("benchmark/Cargo.toml")));
    // The driver appends `--workload …` to the list as it stands: after
    // anything but `--`, cargo would parse those flags itself and fail.
    assert_eq!(command.last().and_then(Value::as_str), Some("--"));
}

/// The binary emits exactly the declared names: the values a timed run
/// and a traced run compute bind to the declared lists with nothing
/// missing and nothing left over, and `bind` refuses any other set.
#[test]
fn emitted_names_equal_declared_names() {
    // Three reps of the same two simulations (slots 0 and 1); the host
    // disturbed a different one each time.
    let rep = |a, b| RepOut {
        sim_cycles: 1000,
        insts: 900,
        runs: 2,
        items: vec![(0, a), (1, b)],
        failures: Vec::new(),
    };
    let reps = [rep(600_000, 400_000), rep(1_600_000, 400_000), rep(600_000, 3_400_000)];
    assert_eq!(run::best_rep_ns(&reps), 1_000_000, "fastest execution of each slot, summed");
    let (values, samples) = run::end_to_end_values(&reps, &[0.5, 0.25, 1.0], 12.5);
    assert_eq!(samples["sim_cycles_per_host_s"], [1e6, 5e5, 2.5e5], "raw per-rep rates");
    let bound =
        run::bind(manifest::end_to_end(), values.clone()).expect("exactly the declared set");
    let get = |n: &str| bound.iter().find(|(d, _)| d.name == n).unwrap().1;
    assert_eq!(get("sim_cycles_per_host_s"), 1e6);
    assert_eq!(get("sim_insts_per_host_s"), 9e5);
    assert_eq!(get("runs_per_host_s"), 2000.0);
    assert_eq!(get("sim_cycles"), 1000.0);
    assert_eq!(get("setup_s"), 0.5);
    assert_eq!(get("peak_rss_mb"), 12.5);

    let mut extra = values.clone();
    extra.insert("undeclared".into(), 1.0);
    assert!(run::bind(manifest::end_to_end(), extra).unwrap_err().contains("undeclared"));
    let mut missing = values.clone();
    missing.remove("setup_s");
    assert!(run::bind(manifest::end_to_end(), missing).unwrap_err().contains("setup_s"));
    let mut nan = values;
    nan.insert("setup_s".into(), f64::NAN);
    assert!(run::bind(manifest::end_to_end(), nan).unwrap_err().contains("not finite"));

    let none = Replay { ns: 0, units: 0, delivered: 0 };
    let replays = Replays {
        mesh: [none; 4],
        chain: none,
        secondary: [none; 3],
        parallel_map: none,
        codec: (none, none),
    };
    let facts = SetupFacts { blockinterp_blocks: 0, image_bytes: 0, calibration_ns: 1 };
    let layer = run::layer_values(&[], &[], &facts, &replays);
    run::bind(manifest::per_layer(), layer).expect("exactly the declared per-layer set");
}

fn span(id: usize, parent: Option<usize>, name: &'static str, lo: u64, hi: u64) -> Span {
    Span { id, parent, run: 1, name, start_ns: lo, end_ns: hi, kind: Kind::Call }
}

/// Self time is the parent minus what its direct children cover:
/// overlapping children count once, a child is clipped to its parent,
/// grandchildren do not count against the grandparent.
#[test]
fn self_time_is_parent_minus_children() {
    let spans = [
        span(0, None, "root.r", 0, 100),
        span(1, Some(0), "a.x", 10, 30),   // 20 of the root
        span(2, Some(0), "a.x", 25, 50),   // overlaps 1: adds 20 more
        span(3, Some(0), "b.y", 90, 120),  // clipped to the root: 10
        span(4, Some(1), "c.z", 12, 20),   // grandchild: only against span 1
        span(5, None, "root.r", 200, 230), // a second tree
        span(6, Some(5), "a.x", 200, 230), // covers its parent entirely
    ];
    assert_eq!(self_times(&spans), [50, 12, 25, 30, 8, 0, 30]);
    assert_eq!(total_self_ns(&spans, 1, "root.r"), 50);
    assert_eq!(total_self_ns(&spans, 1, "a.x"), 12 + 25 + 30);
    assert_eq!(total_self_ns(&spans, 2, "a.x"), 0, "other reps' spans are not counted");

    // The shape the traced run builds: a run span whose children are
    // the aggregated tick phases, laid end to end.
    let mut run = vec![span(0, None, "core.processor_run", 1000, 2000)];
    for (i, (lo, hi)) in [(1000, 1300), (1300, 1350), (1350, 1900)].into_iter().enumerate() {
        run.push(Span { kind: Kind::Aggregate, ..span(i + 1, Some(0), "core.tick.et", lo, hi) });
    }
    let phases: u64 = run[1..].iter().map(Span::duration_ns).sum();
    assert_eq!(self_times(&run)[0] + phases, run[0].duration_ns());
}

#[test]
fn replay_generators_are_pure_functions_of_the_seed() {
    for traffic in [MeshTraffic::Uniform, MeshTraffic::Hotspot, MeshTraffic::Faulted] {
        let a = mesh_schedule(7, traffic, 500);
        assert_eq!(a, mesh_schedule(7, traffic, 500), "{traffic:?} is deterministic");
        assert_ne!(a, mesh_schedule(8, traffic, 500), "{traffic:?} follows the seed");
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick), "offers are in tick order");
        assert!(a.iter().all(|o| o.src.row < 5 && o.src.col < 5 && o.dst.row < 5 && o.dst.col < 5));
    }
    assert!(mesh_schedule(7, MeshTraffic::Idle, 500).is_empty());
    assert!(mesh_schedule(7, MeshTraffic::Hotspot, 500)
        .iter()
        .all(|o| (o.dst.row, o.dst.col) == (2, 2)));

    for traffic in [SecondaryTraffic::Stream, SecondaryTraffic::HotBank] {
        let a = secondary_schedule(7, traffic);
        assert_eq!(a, secondary_schedule(7, traffic), "{traffic:?} is deterministic");
        assert_ne!(a, secondary_schedule(8, traffic), "{traffic:?} follows the seed");
        assert_eq!(a.len(), 20, "one address list per OCN port");
        assert!(a.iter().flatten().all(|addr| addr % 64 == 0), "line-aligned");
    }
    // Prototype striping homes line l at bank l % 16.
    let bank = |addr: &u64| (addr / 64) % 16;
    assert!(secondary_schedule(7, SecondaryTraffic::HotBank)
        .iter()
        .flatten()
        .all(|a| bank(a) == 0));
    let stream = secondary_schedule(7, SecondaryTraffic::Stream);
    assert_eq!(stream.iter().flatten().map(bank).collect::<BTreeSet<_>>().len(), 16);
    assert!(secondary_schedule(7, SecondaryTraffic::Idle).iter().all(Vec::is_empty));
}
