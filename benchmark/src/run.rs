//! One measurement of one workload: the timed (untraced) run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer ones.

use std::collections::BTreeMap;
use std::time::Instant;

use trips_core::TickPhase;
use trips_harness::num_threads;

use crate::host;
use crate::layers::{self, MeshTraffic, Replay, SecondaryTraffic};
use crate::manifest::{self, MetricDef};
use crate::span::{self, Counts, Recorder, Span};
use crate::stats::median;
use crate::workloads::{self, phase_span, Bench, RepOut};

/// Set-up is repeated in a timed run (`setup_s` is the median): at
/// least this many times, …
const MIN_SETUPS: usize = 3;
/// … until this much time has gone into it (a 2 ms set-up needs many
/// samples for a steady median; a 1.6 s one cannot afford them), …
const SETUP_BUDGET_S: f64 = 1.0;
/// … and at most this many times.
const MAX_SETUPS: usize = 15;
/// Fewest timed reps in a timed run, however long one takes.
const MIN_REPS: usize = 3;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Oracle-checked runs attempted.
    pub attempted: u64,
    /// One line per failed run (errored, disagreed with its oracle, or
    /// broke a benchmark-level assertion).
    pub failures: Vec<String>,
    /// The metrics of this mode, in manifest order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Host seconds inside `run` calls, per timed rep (timed runs) or
    /// per traced rep (traced runs).
    pub rep_secs: Vec<f64>,
    /// The samples behind each metric that is a median: per-rep rates
    /// and per-set-up seconds (timed runs only).
    pub samples: Samples,
    /// The span dump (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The driver-facing result line: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Pairs every declared metric with its value. Refuses when the
/// computed set and the declared set differ in either direction, or a
/// value is not a finite number: the binary never emits a name
/// `BENCHMARK.json` does not declare, nor omits one it does.
///
/// # Errors
///
/// Names the missing, undeclared or non-finite metric.
pub fn bind(defs: Vec<MetricDef>, mut values: Values) -> Result<Vec<(MetricDef, f64)>, String> {
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let v =
            values.remove(&d.name).ok_or_else(|| format!("metric {} was not computed", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        out.push((d, v));
    }
    match values.keys().next() {
        Some(extra) => Err(format!("computed metric {extra} is not declared")),
        None => Ok(out),
    }
}

fn tally(out: &mut RepOut, attempted: &mut u64, failures: &mut Vec<String>) {
    *attempted += out.runs;
    failures.append(&mut out.failures);
}

/// Per-metric samples: one rate per timed rep, one duration per
/// set-up.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Host nanoseconds of one rep with the host's interference taken
/// out: for every simulation of the rep (a slot), the fastest of its
/// timed executions across the reps, summed. The simulator is
/// deterministic and single-threaded, so whatever a slot took beyond
/// its fastest execution was added by the host (another tenant, a
/// frequency step, a page fault burst) — on the box this was sized on
/// such bursts last seconds and made the per-rep median wander by 5%
/// between runs of identical code, the per-slot minimum by about 2%.
/// ROADMAP item 1b asks for exactly this estimator (min-of-N).
pub fn best_rep_ns(reps: &[RepOut]) -> u64 {
    let mut best: BTreeMap<usize, u64> = BTreeMap::new();
    for &(slot, ns) in reps.iter().flat_map(|r| &r.items) {
        best.entry(slot).and_modify(|b| *b = (*b).min(ns)).or_insert(ns);
    }
    best.values().sum()
}

/// The end-to-end metrics of a timed run, and the samples behind the
/// ones a reader will want quartiles for (raw per-rep rates, per-set-up
/// seconds). The three rates divide one rep's work by
/// [`best_rep_ns`]; `setup_s` is the median set-up (set-up allocates,
/// and its cost honestly depends on the state of the heap, so there is
/// no "true" fastest one); `sim_cycles` is a rep's simulated time.
pub fn end_to_end_values(
    reps: &[RepOut],
    setup_secs: &[f64],
    peak_rss_mb: f64,
) -> (Values, Samples) {
    let raw = |f: fn(&RepOut) -> u64| -> Vec<f64> {
        reps.iter().map(|r| f(r) as f64 / (r.run_ns() as f64 / 1e9)).collect()
    };
    let samples = Samples::from([
        ("sim_cycles_per_host_s".into(), raw(|r| r.sim_cycles)),
        ("sim_insts_per_host_s".into(), raw(|r| r.insts)),
        ("runs_per_host_s".into(), raw(|r| r.runs)),
        ("setup_s".into(), setup_secs.to_vec()),
    ]);
    let best_s = best_rep_ns(reps) as f64 / 1e9;
    let values = Values::from([
        ("sim_cycles_per_host_s".into(), reps[0].sim_cycles as f64 / best_s),
        ("sim_insts_per_host_s".into(), reps[0].insts as f64 / best_s),
        ("runs_per_host_s".into(), reps[0].runs as f64 / best_s),
        ("sim_cycles".into(), reps[0].sim_cycles as f64),
        ("setup_s".into(), median(setup_secs)),
        ("peak_rss_mb".into(), peak_rss_mb),
    ]);
    (values, samples)
}

/// Sets the workload up [`MIN_SETUPS`] to [`MAX_SETUPS`] times (each
/// from scratch, the previous instance dropped first, so `peak_rss_mb`
/// holds one instance), runs one untimed warm-up rep,
/// then timed reps — tracing off, no profiler — until `seconds` of
/// wall time have passed and at least [`MIN_REPS`] reps are in.
///
/// # Errors
///
/// Unknown workload, or a metric that could not be computed.
pub fn timed(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    let mut setup_secs = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.len() < MAX_SETUPS && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(workloads::build(workload, seed, &mut rec)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("MIN_SETUPS >= 1");

    bench.rep(0, &mut rec);

    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut reps: Vec<RepOut> = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let mut out = bench.rep(reps.len() as u64, &mut rec);
        tally(&mut out, &mut attempted, &mut failures);
        reps.push(out);
    }
    // Every rep runs the same simulations on machines that `run`
    // resets: simulated time must not depend on what ran before.
    if reps.iter().any(|r| r.sim_cycles != reps[0].sim_cycles) {
        let cycles: Vec<u64> = reps.iter().map(|r| r.sim_cycles).collect();
        failures.push(format!("sim_cycles differ across reps of identical inputs: {cycles:?}"));
    }
    let (values, samples) = end_to_end_values(&reps, &setup_secs, host::peak_rss_mb());
    Ok(Outcome {
        attempted,
        failures,
        metrics: bind(manifest::end_to_end(), values)?,
        rep_secs: reps.iter().map(|r| r.run_ns() as f64 / 1e9).collect(),
        samples,
        spans: Vec::new(),
    })
}

/// One traced rep and the untraced rep of the same inputs that ran
/// just before it.
pub struct TracedRep {
    /// The rep id stamped on its spans.
    pub run: u64,
    /// Its in-situ counters.
    pub counts: Counts,
    /// Host nanoseconds inside `run` calls, tracing on.
    pub traced_ns: u64,
    /// Host nanoseconds inside `run` calls, tracing off.
    pub plain_ns: u64,
}

/// The isolated replays of one traced run.
pub struct Replays {
    /// Mesh under uniform / hotspot / no / faulted traffic.
    pub mesh: [Replay; 4],
    /// Chain point-to-point sends.
    pub chain: Replay,
    /// `SecondarySystem` under streaming / hot-bank / no traffic.
    pub secondary: [Replay; 3],
    /// `parallel_map` fork/join.
    pub parallel_map: Replay,
    /// Block encode and decode.
    pub codec: (Replay, Replay),
}

impl Replays {
    /// Runs every replay once.
    pub fn run(seed: u64, bench: &dyn Bench) -> Replays {
        Replays {
            mesh: [
                MeshTraffic::Uniform,
                MeshTraffic::Hotspot,
                MeshTraffic::Idle,
                MeshTraffic::Faulted,
            ]
            .map(|t| layers::mesh_replay(seed, t)),
            chain: layers::chain_replay(seed),
            secondary: [
                SecondaryTraffic::Stream,
                SecondaryTraffic::HotBank,
                SecondaryTraffic::Idle,
            ]
            .map(|t| layers::secondary_replay(seed, t)),
            parallel_map: layers::parallel_map_replay(),
            codec: layers::codec_replay(
                &bench.built().iter().flat_map(|b| &b.blocks).collect::<Vec<_>>(),
            ),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced rep: span totals and self
/// times, the in-situ counters, and the ratios between them.
fn rep_values(spans: &[Span], rep: &TracedRep) -> Values {
    let mut v = Values::new();
    let c = |k: &str| rep.counts.get(k).copied().unwrap_or(0.0);
    let ns = |name: &str| span::total_ns(spans, rep.run, name) as f64;
    for (k, &x) in &rep.counts {
        if !k.starts_with('_') {
            v.insert(k.clone(), x);
        }
    }
    let run_ns = ns("core.processor_run");
    v.insert("core.processor_new_ns".into(), ns("core.processor_new"));
    v.insert("core.processor_run_ns".into(), run_ns);
    v.insert(
        "core.run_self_ns".into(),
        span::total_self_ns(spans, rep.run, "core.processor_run") as f64,
    );
    for p in TickPhase::ALL {
        v.insert(format!("core.tick.{}_ns", p.name()), ns(phase_span(p)));
    }
    v.insert("core.host_ns_per_sim_cycle".into(), ratio(run_ns, c("_core.sim_cycles")));
    v.insert("core.host_ns_per_tile_tick".into(), ratio(run_ns, c("core.ticks_run")));
    v.insert(
        "core.gated_frac".into(),
        ratio(c("core.ticks_gated"), c("core.ticks_run") + c("core.ticks_gated")),
    );
    v.insert(
        "core.squash_frac".into(),
        ratio(c("core.insts_executed") - c("core.insts_committed"), c("core.insts_executed")),
    );
    let chip_ns = ns("core.chip_run");
    let default_ns = ns("core.chip_run_default");
    v.insert("core.chip_new_ns".into(), ns("core.chip_new"));
    v.insert("core.chip_run_ns".into(), chip_ns);
    v.insert("core.chip_host_ns_per_chip_cycle".into(), ratio(chip_ns, c("core.chip_cycles")));
    v.insert("core.chip_run_default_ns".into(), default_ns);
    v.insert("core.chip_default_over_serial".into(), ratio(default_ns, c("_chip.serial_twin_ns")));
    v.insert(
        "mem.bank_hit_frac".into(),
        ratio(c("_mem.bank_hits"), c("_mem.bank_hits") + c("_mem.bank_misses")),
    );
    v.insert(
        "mem.fill_latency_mean_cycles".into(),
        ratio(c("_mem.fill_latency_sum"), c("_mem.fill_latency_count")),
    );
    let alpha_ns = ns("alpha.run");
    v.insert("alpha.run_ns".into(), alpha_ns);
    v.insert("alpha.host_ns_per_sim_cycle".into(), ratio(alpha_ns, c("alpha.sim_cycles")));
    v.insert("bench.fuzz_run_ns".into(), ns("bench.fuzz_run"));
    v.insert("bench.compare_arch_state_ns".into(), ns("bench.compare_arch_state"));
    v.insert(
        "benchmark.trace_overhead_frac".into(),
        ratio(rep.traced_ns as f64 - rep.plain_ns as f64, rep.plain_ns as f64),
    );
    v
}

/// What [`layer_values`] needs beyond the spans and reps.
pub struct SetupFacts {
    /// Blocks the oracles' `blockinterp` runs committed.
    pub blockinterp_blocks: u64,
    /// Initialized bytes across the workload's images.
    pub image_bytes: usize,
    /// [`host::calibration_ns`].
    pub calibration_ns: u64,
}

/// Every per-layer metric of a traced run: the values of the traced
/// rep whose host time is the median one (the lower middle of an even
/// count), set-up spans (rep id 0), and the replays. A metric whose
/// layer did not run in this workload is 0.
pub fn layer_values(
    spans: &[Span],
    reps: &[TracedRep],
    facts: &SetupFacts,
    replays: &Replays,
) -> Values {
    let mut v: Values = manifest::per_layer().into_iter().map(|d| (d.name, 0.0)).collect();
    // One whole rep, not a median per metric: the identities between
    // metrics (Σ phases + self = run; ratios of counts) then hold
    // exactly in what is reported.
    let mut by_time: Vec<&TracedRep> = reps.iter().collect();
    by_time.sort_by_key(|r| r.traced_ns);
    if let Some(typical) = by_time.get(by_time.len().saturating_sub(1) / 2) {
        v.extend(rep_values(spans, typical));
    }

    let setup_ns = |name: &str| span::total_ns(spans, 0, name) as f64;
    v.insert("workloads.ir_ns".into(), setup_ns("workloads.ir"));
    v.insert("tasm.compile_ns".into(), setup_ns("tasm.compile"));
    v.insert("tasm.blockinterp_ns".into(), setup_ns("tasm.blockinterp"));
    v.insert("tasm.blockinterp_blocks".into(), facts.blockinterp_blocks as f64);
    v.insert(
        "tasm.blockinterp_ns_per_block".into(),
        ratio(setup_ns("tasm.blockinterp"), facts.blockinterp_blocks as f64),
    );
    v.insert("bench.oracle_build_ns".into(), setup_ns("bench.oracle_build"));
    v.insert("isa.image_bytes".into(), facts.image_bytes as f64);
    v.insert("isa.encode_ns_per_block".into(), replays.codec.0.ns_per_unit());
    v.insert("isa.decode_ns_per_block".into(), replays.codec.1.ns_per_unit());

    for (name, r) in ["uniform", "hotspot", "idle", "faulted"].iter().zip(&replays.mesh) {
        v.insert(format!("micronet.mesh_{name}_ns_per_tick"), r.ns_per_unit());
        v.insert(format!("micronet.mesh_{name}_delivered"), r.delivered as f64);
    }
    v.insert("micronet.chain_ns_per_msg".into(), replays.chain.ns_per_unit());
    v.insert("micronet.chain_delivered".into(), replays.chain.delivered as f64);
    let [stream, hot, idle] = &replays.secondary;
    v.insert("mem.secondary_stream_ns_per_req".into(), stream.ns_per_unit());
    v.insert("mem.secondary_stream_delivered".into(), stream.delivered as f64);
    v.insert("mem.secondary_hotbank_ns_per_req".into(), hot.ns_per_unit());
    v.insert("mem.secondary_hotbank_delivered".into(), hot.delivered as f64);
    v.insert("mem.secondary_idle_ns_per_tick".into(), idle.ns_per_unit());
    v.insert("harness.threads".into(), num_threads() as f64);
    v.insert("harness.parallel_map_ns_per_call".into(), replays.parallel_map.ns_per_unit());
    v.insert("benchmark.calibration_ns".into(), facts.calibration_ns as f64);
    v
}

/// The traced run: set-up once (spans under rep id 0), then pairs of
/// {untraced rep, traced rep} of the same inputs until half of
/// `seconds` has passed (at least one pair; the first untraced rep
/// doubles as the warm-up), then the isolated replays. In a traced rep
/// every machine is constructed afresh inside a span, solo cores run
/// with the simulator's `TickProfile` on, and chip points flagged for
/// it are re-run on the default-threaded schedule and compared.
///
/// # Errors
///
/// Unknown workload, or a metric that could not be computed.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let t0 = Instant::now();
    let mut bench = workloads::build(workload, seed, &mut rec)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut reps: Vec<TracedRep> = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let r = reps.len() as u64;
        let mut plain = bench.rep(r, &mut off);
        tally(&mut plain, &mut attempted, &mut failures);
        rec.set_run(r + 1);
        let mut traced = bench.rep(r, &mut rec);
        tally(&mut traced, &mut attempted, &mut failures);
        if traced.sim_cycles != plain.sim_cycles {
            failures.push(format!(
                "rep {r}: tracing changed sim_cycles ({} traced, {} untraced)",
                traced.sim_cycles, plain.sim_cycles
            ));
        }
        reps.push(TracedRep {
            run: r + 1,
            counts: rec.take_counts(),
            traced_ns: traced.run_ns(),
            plain_ns: plain.run_ns(),
        });
    }

    let facts = SetupFacts {
        blockinterp_blocks: bench.built().iter().map(|b| b.oracle.blocks).sum(),
        image_bytes: bench.image_bytes(),
        calibration_ns: host::calibration_ns(),
    };
    let replays = Replays::run(seed, bench.as_ref());
    let spans = rec.into_spans();
    let values = layer_values(&spans, &reps, &facts, &replays);
    Ok(Outcome {
        attempted,
        failures,
        metrics: bind(manifest::per_layer(), values)?,
        rep_secs: reps.iter().map(|r| r.traced_ns as f64 / 1e9).collect(),
        samples: Samples::from([("setup_s".into(), vec![setup_s])]),
        spans,
    })
}
