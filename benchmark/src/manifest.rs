//! What the benchmark declares: workloads, metrics, units, bounds.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`]'s output, byte for byte (a
//! test pins that), and the binary emits exactly the names listed
//! here (it refuses to print a result otherwise).

use std::fmt::Write as _;

use trips_core::TickPhase;

use crate::json::escape;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`);
/// also the default of `--seconds`.
pub const RUN_SECONDS: u64 = 8;

/// The directory of the benchmark, relative to the repository root.
pub const PATH: &str = "benchmark";

/// The command the driver runs. It appends `--workload … --seed …
/// --seconds … --trace …` directly, so the list must end with `--`:
/// without it cargo takes `--workload` for a flag of its own and exits
/// with code 1 before anything is built.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One benchmark workload and the reason it exists.
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "solo_compute",
        why: "21 Table-3 programs, hand quality, perfect L2, one core: tile ticks (IT/ET/scan/RT/nets/DT/GT) do ~99% of the work, memsys ~1%; the headline simperf number",
    },
    WorkloadDef {
        name: "solo_nuca",
        why: "saxpy/listwalk/vadd/conv on the NUCA backend: SecondarySystem::tick dominates and epoch skipping fires; tile ticks do little (mirror image of solo_compute)",
    },
    WorkloadDef {
        name: "table3_repro",
        why: "what table3 computes, serially: compiled code (smaller blocks, naive placement) + hand code with critical-path recording + the Alpha baseline; GT fetch/commit and OPN hops weigh more",
    },
    WorkloadDef {
        name: "chip_multiprog",
        why: "4-core listwalk/saxpy group + 2-core dct8x8+sha control, serial schedule, coherence off: Chip::tick serial phases, BankArb, tiled OCN; directory cost is zero here",
    },
    WorkloadDef {
        name: "chip_shared",
        why: "pcring/psum/lockcount on coherent 2- and 4-core chips: the same mem/chip layers with propagate_stores, MSI directory, invalidation traffic and coherence flushes live",
    },
    WorkloadDef {
        name: "fuzz_faults",
        why: "24 fixed fault plans per rep under invariant checking (every 4th on NUCA): the slow twin of solo_compute (check_invariants, fault hooks, legacy mesh sweep); protofuzz plans/s",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is rejected.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound: Some(bound) }
}

/// The end-to-end metrics, reported by every workload with tracing
/// off (see [`crate::run::end_to_end_values`] for how each is computed).
///
/// The bounds are sized from measurement, not from hope. Over three
/// sittings of ten runs of identical code per workload, each run with
/// another seed, on the shared 2-core box this was written on, the
/// interquartile range of the three rates was 0.6% to 8.1% of their
/// median (the host's speed shifts by several percent for minutes at a
/// time, so whole runs — and half of a sitting — land in a slow
/// period), of `peak_rss_mb` up to 4.5%, of `setup_s` up to 9.5%. A
/// bound sits about three times above the worst spread it has to
/// tolerate, which for the rates is the most the contract allows.
/// `sim_cycles` is exact — its bound is there only so that "within the
/// bound" is true however the comparison is written.
///
/// `failed_frac` is not a metric here because it is 0 on every
/// workload by construction (the result line's `failed`/`attempted`
/// carry it), and `paper_speedup_err` exists on one workload only, so
/// it is reported with the per-layer metrics as
/// `model.paper_speedup_err`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("sim_cycles_per_host_s", "cycles/s", Better::Higher, 0.25),
        e2e("sim_insts_per_host_s", "insts/s", Better::Higher, 0.25),
        e2e("runs_per_host_s", "runs/s", Better::Higher, 0.25),
        e2e("sim_cycles", "cycles", Better::Lower, 0.001),
        e2e("setup_s", "s", Better::Lower, 0.25),
        e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    ]
}

/// `(name, unit, better)` of every per-layer metric except the
/// `core.tick.*` family, which [`per_layer`] derives from
/// [`TickPhase::ALL`]. `_ns` metrics are host time; the rest are exact
/// counts read from public statistics.
const LAYER_METRICS: &[(&str, &str, Better)] = &[
    // core: one Processor
    ("core.processor_new_ns", "ns", Better::Lower),
    ("core.processor_run_ns", "ns", Better::Lower),
    ("core.run_self_ns", "ns", Better::Lower),
    ("core.host_ns_per_sim_cycle", "ns/cycle", Better::Lower),
    ("core.host_ns_per_tile_tick", "ns/tick", Better::Lower),
    ("core.ticks_run", "count", Better::Lower),
    ("core.ticks_gated", "count", Better::Higher),
    ("core.gated_frac", "frac", Better::Higher),
    ("core.cycles_skipped", "count", Better::Higher),
    ("core.epochs_skipped", "count", Better::Higher),
    ("core.work_list_visits", "count", Better::Lower),
    ("core.blocks_fetched", "count", Better::Lower),
    ("core.blocks_committed", "count", Better::Lower),
    ("core.insts_executed", "count", Better::Lower),
    ("core.insts_committed", "count", Better::Lower),
    ("core.squash_frac", "frac", Better::Lower),
    ("core.flushes", "count", Better::Lower),
    // core.chip
    ("core.chip_new_ns", "ns", Better::Lower),
    ("core.chip_run_ns", "ns", Better::Lower),
    ("core.chip_cycles", "count", Better::Lower),
    ("core.chip_host_ns_per_chip_cycle", "ns/cycle", Better::Lower),
    ("core.coherence_flushes", "count", Better::Lower),
    ("core.chip_run_default_ns", "ns", Better::Lower),
    ("core.chip_default_over_serial", "x", Better::Lower),
    // micronet: in situ (the core's OPN), then isolated replays
    ("micronet.opn_injected", "count", Better::Lower),
    ("micronet.opn_hops", "count", Better::Lower),
    ("micronet.opn_queued_cycles", "count", Better::Lower),
    ("micronet.opn_inject_stalls", "count", Better::Lower),
    ("micronet.mesh_uniform_ns_per_tick", "ns/tick", Better::Lower),
    ("micronet.mesh_uniform_delivered", "count", Better::Higher),
    ("micronet.mesh_hotspot_ns_per_tick", "ns/tick", Better::Lower),
    ("micronet.mesh_hotspot_delivered", "count", Better::Higher),
    ("micronet.mesh_idle_ns_per_tick", "ns/tick", Better::Lower),
    ("micronet.mesh_idle_delivered", "count", Better::Higher),
    ("micronet.mesh_faulted_ns_per_tick", "ns/tick", Better::Lower),
    ("micronet.mesh_faulted_delivered", "count", Better::Higher),
    ("micronet.chain_ns_per_msg", "ns/msg", Better::Lower),
    ("micronet.chain_delivered", "count", Better::Higher),
    // mem: in situ (NUCA backend / chip), then isolated replays
    ("mem.dside_fills", "count", Better::Lower),
    ("mem.iside_fills", "count", Better::Lower),
    ("mem.store_writebacks", "count", Better::Lower),
    ("mem.dram_accesses", "count", Better::Lower),
    ("mem.bank_hit_frac", "frac", Better::Higher),
    ("mem.fill_latency_mean_cycles", "cycles", Better::Lower),
    ("mem.inject_stalls", "count", Better::Lower),
    ("mem.bank_conflict_stalls", "count", Better::Lower),
    ("mem.ocn_packets", "count", Better::Lower),
    ("mem.ocn_flits", "count", Better::Lower),
    ("mem.coh_gets", "count", Better::Lower),
    ("mem.coh_getms", "count", Better::Lower),
    ("mem.coh_invals_sent", "count", Better::Lower),
    ("mem.coh_deferred_acks", "count", Better::Lower),
    ("mem.dir_highwater", "count", Better::Lower),
    ("mem.secondary_stream_ns_per_req", "ns/req", Better::Lower),
    ("mem.secondary_stream_delivered", "count", Better::Higher),
    ("mem.secondary_hotbank_ns_per_req", "ns/req", Better::Lower),
    ("mem.secondary_hotbank_delivered", "count", Better::Higher),
    ("mem.secondary_idle_ns_per_tick", "ns/tick", Better::Lower),
    // harness
    ("harness.threads", "count", Better::Higher),
    ("harness.parallel_map_ns_per_call", "ns/call", Better::Lower),
    // workloads / tasm / isa: the set-up path
    ("workloads.ir_ns", "ns", Better::Lower),
    ("tasm.compile_ns", "ns", Better::Lower),
    ("tasm.blockinterp_ns", "ns", Better::Lower),
    ("tasm.blockinterp_blocks", "count", Better::Lower),
    ("tasm.blockinterp_ns_per_block", "ns/block", Better::Lower),
    ("isa.encode_ns_per_block", "ns/block", Better::Lower),
    ("isa.decode_ns_per_block", "ns/block", Better::Lower),
    ("isa.image_bytes", "bytes", Better::Lower),
    // alpha
    ("alpha.run_ns", "ns", Better::Lower),
    ("alpha.sim_cycles", "count", Better::Lower),
    ("alpha.host_ns_per_sim_cycle", "ns/cycle", Better::Lower),
    // bench (the fuzz module)
    ("bench.oracle_build_ns", "ns", Better::Lower),
    ("bench.fuzz_run_ns", "ns", Better::Lower),
    ("bench.compare_arch_state_ns", "ns", Better::Lower),
    ("bench.fuzz_nuca_plans", "count", Better::Higher),
    ("bench.fuzz_forced_flushes", "count", Better::Higher),
    // the model against the paper (table3_repro only; exact)
    ("model.paper_speedup_err", "log2", Better::Lower),
    // the instrument itself
    ("benchmark.trace_overhead_frac", "frac", Better::Lower),
    ("benchmark.calibration_ns", "ns", Better::Lower),
];

/// The per-layer metrics, reported by every workload's traced run
/// (0 where a layer does not run in that workload).
pub fn per_layer() -> Vec<MetricDef> {
    let layer = |name: String, unit, better| MetricDef { name, unit, better, bound: None };
    let mut out = Vec::new();
    for &(name, unit, better) in LAYER_METRICS {
        out.push(layer(name.to_string(), unit, better));
        if name == "core.host_ns_per_tile_tick" {
            for p in TickPhase::ALL {
                out.push(layer(format!("core.tick.{}_ns", p.name()), "ns", Better::Lower));
                out.push(layer(format!("core.tick.{}_calls", p.name()), "count", Better::Lower));
            }
        }
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    writeln!(s, "  \"command\": [{}],", quoted.join(", ")).unwrap();
    writeln!(s, "  \"paths\": [\"{PATH}\"],").unwrap();
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, escape(w.why))
            .unwrap();
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e = end_to_end();
    for (i, m) in e.iter().enumerate() {
        let sep = if i + 1 == e.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics carry a bound"),
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let l = per_layer();
    for (i, m) in l.iter().enumerate() {
        let sep = if i + 1 == l.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.word(),
        )
        .unwrap();
    }
    s.push_str("  ]\n}\n");
    s
}
