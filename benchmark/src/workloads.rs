//! The six benchmark workloads.
//!
//! Each is a closed loop with one client: a *rep* runs a fixed set of
//! simulations one after another, checks every one against its oracle,
//! and reports the simulated cycles and committed instructions it
//! covered and the host time spent **inside each public `run` call**
//! (machine construction and oracle comparison sit outside the timed
//! window). Every machine is reset by its `run`, so modelled
//! caches start empty in every simulation and `sim_cycles` of a rep is
//! independent of the order of the programs inside it — which the seed
//! shuffles.
//!
//! Set-up (IR generation, compilation, `blockinterp` oracles, machine
//! construction) happens in [`build`]; nothing in a rep allocates a
//! program.

use std::time::Instant;

use trips_alpha::{AlphaConfig, AlphaCore, RiscProgram};
use trips_bench::fuzz::{self, Oracle, FUZZ_MAX_CYCLES, ORACLE_MAX_BLOCKS};
use trips_bench::MAX_CYCLES;
use trips_core::{
    Chip, ChipConfig, ChipStats, CoreConfig, CoreStats, FaultPlan, MemBackend, Processor, TickPhase,
};
use trips_harness::Rng;
use trips_isa::{ProgramImage, TripsBlock};
use trips_tasm::{blockinterp, compile, Quality};
use trips_workloads::shared::SharedProgram;
use trips_workloads::{suite, Variant, Workload};

use crate::span::Recorder;

/// What a rep hands back.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Simulated cycles covered, summed over cores (and, on
    /// `table3_repro`, the baseline's runs).
    pub sim_cycles: u64,
    /// Instructions committed.
    pub insts: u64,
    /// Oracle-checked runs attempted (for `fuzz_faults`: plans).
    pub runs: u64,
    /// Host nanoseconds inside each public `run` call, as `(slot,
    /// ns)`: the slot names the simulation (the same slot is the same
    /// simulation in every rep, whatever order the rep ran them in).
    pub items: Vec<(usize, u64)>,
    /// One line per run that errored or disagreed with its oracle.
    pub failures: Vec<String>,
}

impl RepOut {
    /// Host nanoseconds inside the public `run` calls of this rep.
    pub fn run_ns(&self) -> u64 {
        self.items.iter().map(|&(_, ns)| ns).sum()
    }

    /// Books one timed `run` call.
    fn timed(&mut self, slot: usize, t0: Instant, t1: Instant) {
        self.items.push((slot, elapsed_ns(t0, t1)));
        self.runs += 1;
    }
}

/// A benchmark workload, set up and ready to run reps.
pub trait Bench {
    /// Runs rep number `rep` (0-based). Every rep runs the same
    /// simulations; the seed and the rep number decide their order.
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut;

    /// The compiled programs the workload runs, with their oracles
    /// (none for the shared-memory programs, whose oracle is a list of
    /// expected cells).
    fn built(&self) -> Vec<&Built>;

    /// Initialized bytes across the workload's images.
    fn image_bytes(&self) -> usize {
        self.built().iter().map(|b| b.oracle.image.size()).sum()
    }
}

/// A compiled program with its architectural oracle.
pub struct Built {
    /// The image and the block interpreter's final state.
    pub oracle: Oracle,
    /// The image's blocks, before encoding.
    pub blocks: Vec<TripsBlock>,
}

/// What `Oracle::build` does, with a span around each layer it
/// crosses: `trips-workloads` (IR), `trips-tasm` (compile, then the
/// block interpreter).
fn build_oracle(wl: &Workload, quality: Quality, rec: &mut Recorder) -> Built {
    rec.scope("bench.oracle_build", |rec| {
        let variant = if quality == Quality::Hand { Variant::Hand } else { Variant::Compiled };
        let (prog, _) = rec.scope("workloads.ir", |_| wl.ir(variant));
        let compiled = rec
            .scope("tasm.compile", |_| compile(&prog, quality))
            .unwrap_or_else(|e| panic!("{} ({quality}): compile failed: {e}", wl.name));
        let r = rec
            .scope("tasm.blockinterp", |_| {
                blockinterp::run_image(&compiled.image, ORACLE_MAX_BLOCKS)
            })
            .unwrap_or_else(|e| panic!("{} ({quality}): block interp failed: {e}", wl.name));
        Built {
            oracle: Oracle {
                name: wl.name.to_string(),
                quality,
                image: compiled.image,
                regs: r.regs,
                mem: r.mem,
                blocks: r.blocks,
            },
            blocks: compiled.blocks.into_iter().map(|b| b.block).collect(),
        }
    })
}

fn named(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| suite::by_name(n).unwrap_or_else(|| panic!("{n} is registered"))).collect()
}

/// `0..n` in an order drawn from `(seed, rep)`.
fn shuffled(n: usize, seed: u64, rep: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

fn elapsed_ns(t0: Instant, t1: Instant) -> u64 {
    t1.duration_since(t0).as_nanos() as u64
}

/// Books one core's public statistics against the per-layer counters.
fn count_core(rec: &mut Recorder, cpu: &Processor, stats: &CoreStats) {
    let g = cpu.gating_stats();
    rec.add("core.ticks_run", g.ticks_run as f64);
    rec.add("core.ticks_gated", g.ticks_gated as f64);
    rec.add("core.cycles_skipped", g.cycles_skipped as f64);
    rec.add("core.epochs_skipped", g.epochs_skipped as f64);
    rec.add("core.work_list_visits", cpu.work_list_visits() as f64);
    rec.add("core.blocks_fetched", stats.blocks_fetched as f64);
    rec.add("core.blocks_committed", stats.blocks_committed as f64);
    rec.add("core.insts_executed", stats.insts_executed as f64);
    rec.add("core.insts_committed", stats.insts_committed as f64);
    rec.add(
        "core.flushes",
        (stats.branch_flushes + stats.violation_flushes + stats.coherence_flushes) as f64,
    );
    rec.add("core.coherence_flushes", stats.coherence_flushes as f64);
    rec.add("_core.sim_cycles", stats.cycles as f64);
    rec.add("micronet.opn_injected", stats.opn.injected as f64);
    rec.add("micronet.opn_hops", stats.opn.total_hops as f64);
    rec.add("micronet.opn_queued_cycles", stats.opn.total_queued as f64);
    rec.add("micronet.opn_inject_stalls", stats.protocol.opn_inject_stalls as f64);
    for p in TickPhase::ALL {
        rec.add(&format!("core.tick.{}_calls", p.name()), cpu.profile().acc(p).calls as f64);
    }
    if let Some(m) = &stats.mem {
        rec.add("mem.dside_fills", m.dside_fills as f64);
        rec.add("mem.iside_fills", m.iside_fills as f64);
        rec.add("mem.store_writebacks", m.store_writebacks as f64);
        rec.add("mem.inject_stalls", m.inject_stalls as f64);
        // `fill_latency` records round trips in 8-cycle buckets.
        rec.add(
            "_mem.fill_latency_sum",
            8.0 * m.fill_latency.mean() * m.fill_latency.count() as f64,
        );
        rec.add("_mem.fill_latency_count", m.fill_latency.count() as f64);
    }
}

/// Books a secondary system's die-wide counters: the OCN, DRAM and the
/// banks. A solo NUCA core reports its private system through
/// `CoreStats::mem`; a chip's cores all report the one shared system,
/// so the caller passes it once.
fn count_secondary(
    rec: &mut Recorder,
    ocn: trips_micronet::PacketStats,
    dram: u64,
    banks: (u64, u64),
) {
    rec.add("mem.ocn_packets", ocn.injected as f64);
    rec.add("mem.ocn_flits", ocn.total_flits as f64);
    rec.add("mem.dram_accesses", dram as f64);
    rec.add("_mem.bank_hits", banks.0 as f64);
    rec.add("_mem.bank_misses", banks.1 as f64);
}

/// One solo simulation: run `built` on a core of configuration `cfg`,
/// compare against the oracle. Timed runs reuse `warm` (constructed
/// during set-up); a traced run constructs its own core so that
/// construction gets a span and the tick profiler — which has no off
/// switch — never touches the machine the timed reps use.
fn solo_run(
    slot: usize,
    warm: &mut Processor,
    cfg: &CoreConfig,
    built: &Built,
    rec: &mut Recorder,
    out: &mut RepOut,
) {
    let mut fresh;
    let cpu = if rec.enabled() {
        fresh = rec.scope("core.processor_new", |_| Processor::new(cfg.clone()));
        fresh.enable_profiling();
        &mut fresh
    } else {
        warm
    };
    let oracle = &built.oracle;
    let t0 = Instant::now();
    let res = cpu.run(&oracle.image, MAX_CYCLES);
    let t1 = Instant::now();
    out.timed(slot, t0, t1);
    let span = rec.record("core.processor_run", t0, t1);
    let stats = match res {
        Ok(stats) => stats,
        Err(e) => {
            out.failures.push(format!("{} ({}): {e}", oracle.name, oracle.quality));
            return;
        }
    };
    out.sim_cycles += stats.cycles;
    out.insts += stats.insts_committed;
    if rec.enabled() {
        let phases: Vec<(&'static str, u64)> =
            TickPhase::ALL.iter().map(|&p| (phase_span(p), cpu.profile().acc(p).ns)).collect();
        rec.aggregate(span, &phases);
        count_core(rec, cpu, &stats);
        if let Some(m) = &stats.mem {
            let banks = (m.bank_hits.iter().sum(), m.bank_misses.iter().sum());
            count_secondary(rec, m.ocn, m.dram_accesses, banks);
        }
    }
    let cmp =
        rec.scope("bench.compare_arch_state", |_| fuzz::compare_arch_state(cpu, &stats, oracle));
    if let Err(e) = cmp {
        out.failures.push(format!("{} ({}): {e}", oracle.name, oracle.quality));
    }
}

/// The span name of a `TickProfile` phase.
pub fn phase_span(p: TickPhase) -> &'static str {
    match p {
        TickPhase::Scan => "core.tick.scan",
        TickPhase::GtChains => "core.tick.gt_chains",
        TickPhase::GtFrames => "core.tick.gt_frames",
        TickPhase::GtFetch => "core.tick.gt_fetch",
        TickPhase::It => "core.tick.it",
        TickPhase::Rt => "core.tick.rt",
        TickPhase::Et => "core.tick.et",
        TickPhase::Dt => "core.tick.dt",
        TickPhase::Nets => "core.tick.nets",
        TickPhase::MemSys => "core.tick.memsys",
    }
}

/// `solo_compute` and `solo_nuca`: a list of programs on one core.
struct Solo {
    seed: u64,
    cfg: CoreConfig,
    built: Vec<Built>,
    cpu: Processor,
}

impl Solo {
    fn new(seed: u64, programs: Vec<Workload>, cfg: CoreConfig, rec: &mut Recorder) -> Solo {
        let built = programs.iter().map(|wl| build_oracle(wl, Quality::Hand, rec)).collect();
        let cpu = rec.scope("core.processor_new", |_| Processor::new(cfg.clone()));
        Solo { seed, cfg, built, cpu }
    }
}

impl Bench for Solo {
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut {
        let mut out = RepOut::default();
        for i in shuffled(self.built.len(), self.seed, rep) {
            solo_run(i, &mut self.cpu, &self.cfg, &self.built[i], rec, &mut out);
        }
        out
    }

    fn built(&self) -> Vec<&Built> {
        self.built.iter().collect()
    }
}

/// One Table 3 row's inputs.
struct Table3Row {
    compiled: Built,
    hand: Built,
    risc: RiscProgram,
    /// Output cells the baseline's memory must agree with the hand
    /// oracle on.
    cells: Vec<u64>,
    /// The paper's hand-optimized speedup, where it reports one.
    paper_spd_hand: Option<f64>,
}

/// `table3_repro`: what the `table3` binary computes, serially.
struct Table3 {
    seed: u64,
    rows: Vec<Table3Row>,
    tcc_cfg: CoreConfig,
    hand_cfg: CoreConfig,
    tcc_cpu: Processor,
    hand_cpu: Processor,
}

/// The paper's Table 3 `SpdHand` column (EXPERIMENTS.md E4), as
/// `name<TAB>value` lines; `-` where the paper reports none.
const PAPER_TABLE3: &str = include_str!("../paper_table3.tsv");

fn paper_spd_hand(name: &str) -> Option<f64> {
    PAPER_TABLE3
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| v.trim().parse().ok())
}

impl Table3 {
    fn new(seed: u64, rec: &mut Recorder) -> Table3 {
        let rows = suite::all()
            .iter()
            .map(|wl| Table3Row {
                compiled: build_oracle(wl, Quality::Compiled, rec),
                hand: build_oracle(wl, Quality::Hand, rec),
                risc: wl
                    .build_risc()
                    .unwrap_or_else(|e| panic!("{}: risc compile failed: {e}", wl.name)),
                cells: wl.ir(Variant::Hand).1,
                paper_spd_hand: paper_spd_hand(wl.name),
            })
            .collect();
        let tcc_cfg = CoreConfig::prototype();
        let hand_cfg = CoreConfig::prototype_critpath();
        let tcc_cpu = rec.scope("core.processor_new", |_| Processor::new(tcc_cfg.clone()));
        let hand_cpu = rec.scope("core.processor_new", |_| Processor::new(hand_cfg.clone()));
        Table3 { seed, rows, tcc_cfg, hand_cfg, tcc_cpu, hand_cpu }
    }
}

impl Bench for Table3 {
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut {
        let mut out = RepOut::default();
        let mut err_sum = 0.0;
        let mut err_n = 0u32;
        for i in shuffled(self.rows.len(), self.seed, rep) {
            let row = &self.rows[i];
            solo_run(3 * i, &mut self.tcc_cpu, &self.tcc_cfg, &row.compiled, rec, &mut out);
            let before = out.sim_cycles;
            solo_run(3 * i + 1, &mut self.hand_cpu, &self.hand_cfg, &row.hand, rec, &mut out);
            let hand_cycles = out.sim_cycles - before;

            let name = &row.hand.oracle.name;
            let mut alpha = AlphaCore::new(AlphaConfig::alpha21264(), &row.risc)
                .unwrap_or_else(|e| panic!("{name}: invalid baseline program: {e}"));
            let t0 = Instant::now();
            let res = alpha.run(MAX_CYCLES);
            let t1 = Instant::now();
            out.timed(3 * i + 2, t0, t1);
            rec.record("alpha.run", t0, t1);
            match res {
                Err(e) => out.failures.push(format!("{name} (alpha): {e}")),
                Ok(stats) => {
                    out.sim_cycles += stats.cycles;
                    out.insts += stats.insts_committed;
                    if rec.enabled() {
                        rec.add("alpha.sim_cycles", stats.cycles as f64);
                    }
                    let want = &row.hand.oracle.mem;
                    if let Some(c) =
                        row.cells.iter().find(|&&c| alpha.memory().read_u64(c) != want.read_u64(c))
                    {
                        out.failures.push(format!("{name} (alpha): cell {c:#x} disagrees"));
                    }
                    if let (Some(paper), true) = (row.paper_spd_hand, hand_cycles > 0) {
                        let ours = stats.cycles as f64 / hand_cycles as f64;
                        err_sum += (ours / paper).log2().abs();
                        err_n += 1;
                    }
                }
            }
        }
        if err_n > 0 {
            rec.add("model.paper_speedup_err", err_sum / f64::from(err_n));
        }
        out
    }

    fn built(&self) -> Vec<&Built> {
        self.rows.iter().flat_map(|r| [&r.compiled, &r.hand]).collect()
    }
}

/// Books a finished chip run against the per-layer counters.
fn count_chip(rec: &mut Recorder, chip: &Chip, stats: &ChipStats) {
    rec.add("core.chip_cycles", stats.cycles as f64);
    for (k, core) in stats.cores.iter().enumerate() {
        count_core(rec, chip.core(k), core);
    }
    let sys = chip.secondary();
    let (hits, misses) = sys.bank_stats().iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    count_secondary(rec, sys.ocn_stats(), sys.dram_accesses, (hits, misses));
    // Only a chip's cross-core arbiter stalls a bank; solo cores never do.
    rec.add("mem.bank_conflict_stalls", stats.total_conflict_stalls() as f64);
    if let Some(coh) = &stats.coherence {
        rec.add("mem.coh_gets", coh.gets as f64);
        rec.add("mem.coh_getms", coh.getms as f64);
        rec.add("mem.coh_invals_sent", coh.invals_sent as f64);
        rec.add("mem.coh_deferred_acks", coh.deferred_acks as f64);
        rec.max("mem.dir_highwater", coh.dir_highwater as f64);
    }
}

/// What must hold of a finished chip before its run counts as correct.
type ChipCheck<'a> = &'a dyn Fn(&Chip, &ChipStats) -> Result<(), String>;

/// One chip simulation on the serial schedule (`threaded:
/// Some(false)`), checked by `check`. Timed runs reuse `warm`; a
/// traced run constructs its own chip (for the construction span) and,
/// when `compare_default` is set, repeats the run on the default
/// schedule (`threaded: None` — one `parallel_map` per chip cycle on a
/// multi-core host) and requires bit-identical `ChipStats`.
#[allow(clippy::too_many_arguments)]
fn chip_run(
    slot: usize,
    label: &str,
    warm: &mut Chip,
    cfg: &ChipConfig,
    images: &[ProgramImage],
    check: ChipCheck,
    compare_default: bool,
    rec: &mut Recorder,
    out: &mut RepOut,
) {
    let mut fresh;
    let chip = if rec.enabled() {
        fresh = rec.scope("core.chip_new", |_| Chip::new(cfg.clone()));
        &mut fresh
    } else {
        warm
    };
    let t0 = Instant::now();
    let res = chip.run(images, MAX_CYCLES);
    let t1 = Instant::now();
    out.timed(slot, t0, t1);
    rec.record("core.chip_run", t0, t1);
    let stats = match res {
        Ok(stats) => stats,
        Err(e) => {
            out.failures.push(format!("{label}: {e}"));
            return;
        }
    };
    out.sim_cycles += stats.cores.iter().map(|c| c.cycles).sum::<u64>();
    out.insts += stats.cores.iter().map(|c| c.insts_committed).sum::<u64>();
    if let Err(e) = check(chip, &stats) {
        out.failures.push(format!("{label}: {e}"));
    }
    if !rec.enabled() {
        return;
    }
    count_chip(rec, chip, &stats);
    if compare_default {
        let mut dflt = Chip::new(ChipConfig { threaded: None, ..cfg.clone() });
        let d0 = Instant::now();
        let res = dflt.run(images, MAX_CYCLES);
        let d1 = Instant::now();
        rec.record("core.chip_run_default", d0, d1);
        rec.add("_chip.serial_twin_ns", elapsed_ns(t0, t1) as f64);
        match res {
            Ok(d) if d == stats => {}
            Ok(_) => out.failures.push(format!("{label}: default-threaded ChipStats differ")),
            Err(e) => out.failures.push(format!("{label}: default-threaded run: {e}")),
        }
    }
}

/// One multiprogrammed chip point: one program per core.
struct ChipPoint {
    label: String,
    cfg: ChipConfig,
    chip: Chip,
    /// Index into `ChipMultiprog::built`, per core.
    slots: Vec<usize>,
    images: Vec<ProgramImage>,
    compare_default: bool,
}

/// `chip_multiprog`: the memory-bound 4-core group and the 2-core
/// compute control, coherence off.
struct ChipMultiprog {
    seed: u64,
    built: Vec<Built>,
    points: Vec<ChipPoint>,
}

impl ChipMultiprog {
    fn new(seed: u64, rec: &mut Recorder) -> ChipMultiprog {
        let quad = suite::groups(4).remove(0);
        let control = named(&["dct8x8", "sha"]);
        let mut built: Vec<Built> = Vec::new();
        let mut points = Vec::new();
        for (group, compare_default) in [(quad, false), (control, true)] {
            let slots: Vec<usize> = group
                .iter()
                .map(|wl| {
                    built.iter().position(|b| b.oracle.name == wl.name).unwrap_or_else(|| {
                        built.push(build_oracle(wl, Quality::Hand, rec));
                        built.len() - 1
                    })
                })
                .collect();
            let cfg = ChipConfig { threaded: Some(false), ..ChipConfig::n_cores(group.len()) };
            points.push(ChipPoint {
                label: group.iter().map(|wl| wl.name).collect::<Vec<_>>().join("+"),
                chip: rec.scope("core.chip_new", |_| Chip::new(cfg.clone())),
                cfg,
                images: slots.iter().map(|&i| built[i].oracle.image.clone()).collect(),
                slots,
                compare_default,
            });
        }
        ChipMultiprog { seed, built, points }
    }
}

impl Bench for ChipMultiprog {
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut {
        let mut out = RepOut::default();
        for slot in shuffled(self.points.len(), self.seed, rep) {
            let p = &mut self.points[slot];
            let built = &self.built;
            let slots = &p.slots;
            let check = |chip: &Chip, stats: &ChipStats| {
                slots.iter().enumerate().try_for_each(|(k, &i)| {
                    fuzz::compare_arch_state(chip.core(k), &stats.cores[k], &built[i].oracle)
                        .map_err(|e| format!("core {k} ({}): {e}", built[i].oracle.name))
                })
            };
            let dflt = p.compare_default;
            chip_run(slot, &p.label, &mut p.chip, &p.cfg, &p.images, &check, dflt, rec, &mut out);
        }
        out
    }

    fn built(&self) -> Vec<&Built> {
        self.built.iter().collect()
    }
}

/// One coherent chip point: a shared-memory program at a core count.
struct SharedPoint {
    label: String,
    cfg: ChipConfig,
    chip: Chip,
    program: SharedProgram,
}

/// `chip_shared`: the shared-memory registry on coherent 2- and 4-core
/// chips.
struct ChipShared {
    seed: u64,
    points: Vec<SharedPoint>,
}

impl ChipShared {
    fn new(seed: u64, rec: &mut Recorder) -> ChipShared {
        let mut points = Vec::new();
        for wl in suite::shared_memory() {
            for n in [2, 4] {
                let cfg = ChipConfig {
                    threaded: Some(false),
                    shared_memory: true,
                    ..ChipConfig::n_cores(n)
                };
                points.push(SharedPoint {
                    label: format!("{}_n{n}", wl.name),
                    chip: rec.scope("core.chip_new", |_| Chip::new(cfg.clone())),
                    cfg,
                    program: rec.scope("workloads.ir", |_| (wl.gen)(n)),
                });
            }
        }
        ChipShared { seed, points }
    }
}

impl Bench for ChipShared {
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut {
        let mut out = RepOut::default();
        for slot in shuffled(self.points.len(), self.seed, rep) {
            let p = &mut self.points[slot];
            let expected = &p.program.expected;
            let check = |chip: &Chip, _: &ChipStats| {
                for &(addr, want) in expected {
                    for k in 0..chip.ncores() {
                        let got = chip.core(k).memory().read_u64(addr);
                        if got != want {
                            return Err(format!(
                                "core {k}'s replica at {addr:#x}: got {got:#x}, expected {want:#x}"
                            ));
                        }
                    }
                }
                Ok(())
            };
            let images = &p.program.images;
            chip_run(slot, &p.label, &mut p.chip, &p.cfg, images, &check, true, rec, &mut out);
        }
        out
    }

    fn built(&self) -> Vec<&Built> {
        Vec::new()
    }

    fn image_bytes(&self) -> usize {
        self.points.iter().flat_map(|p| &p.program.images).map(ProgramImage::size).sum()
    }
}

/// Plans per rep of `fuzz_faults`: `FaultPlan::random(0..24)`, the
/// head of the range `protofuzz --smoke` sweeps. The set is fixed —
/// the seed only orders it — because a benchmark needs the same work
/// in every run: plans drawn from the seed moved `sim_cycles` by ±3%
/// and plans/s by more from seed to seed, and any one of them might
/// be the plan that finds a protocol bug, which is `protofuzz`'s job.
pub const FUZZ_PLANS: usize = 24;

/// `fuzz_faults`: fault plans under invariant checking.
struct FuzzFaults {
    seed: u64,
    built: Vec<Built>,
    plans: Vec<FaultPlan>,
}

impl FuzzFaults {
    fn new(seed: u64, rec: &mut Recorder) -> FuzzFaults {
        let built = named(&["dct8x8", "matrix", "sha", "vadd"])
            .iter()
            .map(|wl| build_oracle(wl, Quality::Hand, rec))
            .collect();
        let plans = (0..FUZZ_PLANS as u64).map(FaultPlan::random).collect();
        FuzzFaults { seed, built, plans }
    }
}

impl Bench for FuzzFaults {
    fn rep(&mut self, rep: u64, rec: &mut Recorder) -> RepOut {
        let mut out = RepOut::default();
        for i in shuffled(FUZZ_PLANS, self.seed, rep) {
            let plan = &self.plans[i];
            let oracle = &self.built[i % 4].oracle;
            let nuca = i % 4 == 3;
            let backend = if nuca { MemBackend::nuca_prototype() } else { MemBackend::prototype() };
            let t0 = Instant::now();
            let res =
                fuzz::run_against_oracle_with(oracle, backend, Some(plan), true, FUZZ_MAX_CYCLES);
            let t1 = Instant::now();
            out.timed(i, t0, t1);
            rec.record("bench.fuzz_run", t0, t1);
            match res {
                Err(e) => out.failures.push(format!("{} plan {:#x}: {e}", oracle.name, plan.seed)),
                Ok(stats) => {
                    out.sim_cycles += stats.cycles;
                    out.insts += stats.insts_committed;
                    if rec.enabled() {
                        rec.add("bench.fuzz_nuca_plans", f64::from(u8::from(nuca)));
                        rec.add("bench.fuzz_forced_flushes", stats.protocol.forced_flushes as f64);
                    }
                }
            }
        }
        out
    }

    fn built(&self) -> Vec<&Built> {
        self.built.iter().collect()
    }
}

/// Sets workload `name` up from scratch: IR, images, oracles,
/// machines. Spans go to `rec` (stamped with its current rep id).
///
/// # Errors
///
/// Names the unknown workload.
pub fn build(name: &str, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "solo_compute" => Box::new(Solo::new(seed, suite::all(), CoreConfig::prototype(), rec)),
        "solo_nuca" => Box::new(Solo::new(
            seed,
            named(&["saxpy", "listwalk", "vadd", "conv"]),
            CoreConfig { mem_backend: MemBackend::nuca_prototype(), ..CoreConfig::prototype() },
            rec,
        )),
        "table3_repro" => Box::new(Table3::new(seed, rec)),
        "chip_multiprog" => Box::new(ChipMultiprog::new(seed, rec)),
        "chip_shared" => Box::new(ChipShared::new(seed, rec)),
        "fuzz_faults" => Box::new(FuzzFaults::new(seed, rec)),
        _ => {
            let known: Vec<&str> = crate::manifest::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; known: {}", known.join(", ")));
        }
    })
}
