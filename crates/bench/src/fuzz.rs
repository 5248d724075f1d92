//! The fault-injection fuzzing engine behind the `protofuzz` binary:
//! one input value, one pipeline.
//!
//! A [`Scenario`] says what runs, on what, under which [`FaultPlan`],
//! and prints and parses as one line:
//!
//! ```text
//! <solo|nuca|chip|shared:N> <workload,..> <hand|compiled> <geometry> <fast|reference> [plan]
//! chip matrix,vadd,dct8x8,matrix hand prototype fast seed=0xdd rotate ocn=3.0.eject:1/16*3 chain=1/8+3
//! ```
//!
//! Every stage is a function of that value: [`Scenario::from_seed`]
//! (the sweep's only seed → configuration mapping) →
//! [`Scenario::run`] (every protocol invariant checked each tick,
//! final state compared against the `blockinterp` oracle or the
//! workload's sequential oracle) → [`shrink`] →
//! [`Fuzzer::failure_artifact`] (JSON whose `"scenario"` string is the
//! reproducer: `tests/fault_injection.rs` re-runs it with
//! `assert_scenario("<line>")`). Fault plans perturb *timing only* —
//! never values, never per-link FIFO order — so any divergence,
//! invariant violation, hang, or leaked post-halt state is a protocol
//! bug by construction.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use trips_core::{
    Chip, ChipConfig, ChipStats, CoreConfig, CoreGeometry, CoreStats, FaultPlan, MemBackend,
    Processor, TickMode,
};
use trips_harness::json::Object;
use trips_harness::parallel_map;
use trips_isa::mem::SparseMem;
use trips_isa::{ArchReg, ProgramImage};
use trips_mem::{MemConfig, OcnGeometry, MAX_CORES};
use trips_tasm::{blockinterp, Quality};
use trips_workloads::shared::SharedProgram;
use trips_workloads::{suite, Workload};

/// The JSON string escape, at the path the perf ledger imports it from.
pub use trips_harness::json::escape as json_escape;

/// Cycle budget for one fuzzed run. Random plans slow a run down
/// (stall bursts, chain delays, flush storms) but never wedge it —
/// anything that exhausts this budget is a real hang, and the timeout
/// path attaches a [`trips_core::HangReport`].
pub const FUZZ_MAX_CYCLES: u64 = 50_000_000;

/// Block budget for the architectural oracle.
pub const ORACLE_MAX_BLOCKS: u64 = 10_000_000;

/// Architectural reference for one (workload, quality) pair: the
/// compiled image plus the block interpreter's final state.
pub struct Oracle {
    /// Workload name (for reports).
    pub name: String,
    /// Code quality the image was compiled at.
    pub quality: Quality,
    /// The compiled image every fuzzed run executes.
    pub image: ProgramImage,
    /// Final architectural registers per the block interpreter.
    pub regs: [u64; 128],
    /// Final memory per the block interpreter.
    pub mem: SparseMem,
    /// Blocks the interpreter committed.
    pub blocks: u64,
}

impl Oracle {
    /// Compiles `wl` at `quality` and runs the block interpreter to
    /// produce the reference state.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to compile or the interpreter
    /// fails — both mean the harness itself is broken, not the
    /// protocols under test.
    pub fn build(wl: &Workload, quality: Quality) -> Oracle {
        let image = wl
            .build_trips(quality)
            .unwrap_or_else(|e| panic!("{} ({quality:?}): compile failed: {e}", wl.name))
            .image;
        let r = blockinterp::run_image(&image, ORACLE_MAX_BLOCKS)
            .unwrap_or_else(|e| panic!("{} ({quality:?}): block interp failed: {e}", wl.name));
        Oracle {
            name: wl.name.to_string(),
            quality,
            image,
            regs: r.regs,
            mem: r.mem,
            blocks: r.blocks,
        }
    }
}

/// Oracles built so far, keyed by `(name, quality)`: a sweep compiles
/// and interprets each workload once, on first use, and a sweep that
/// runs no suite workload (`--coherence`) builds none.
#[derive(Default)]
pub struct Oracles(Mutex<Vec<Arc<Oracle>>>);

impl Oracles {
    /// The oracle for suite workload `name` at `quality`; an error if
    /// the suite has no such workload.
    pub fn get(&self, name: &str, quality: Quality) -> Result<Arc<Oracle>, String> {
        let mut built = self.0.lock().expect("an oracle build panicked");
        if let Some(o) = built.iter().find(|o| o.name == name && o.quality == quality) {
            return Ok(o.clone());
        }
        let wl = suite::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        built.push(Arc::new(Oracle::build(&wl, quality)));
        Ok(built[built.len() - 1].clone())
    }
}

/// The kind of machine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// One core behind the perfect L2.
    Solo,
    /// One core behind the NUCA preset: OCN faults stall fills and
    /// store acknowledgements.
    Nuca,
    /// A multiprogrammed chip: one suite workload per core on one
    /// shared NUCA, each core compared against its own oracle.
    Chip,
    /// A coherent chip of this many cores running one shared-registry
    /// workload: §5g invariants on, every replica compared against
    /// the workload's sequential oracle.
    Shared(usize),
}

/// One fuzz case, complete: everything [`Scenario::run`] needs besides
/// the cycle budget (module docs have the one-line grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// What it runs on.
    pub machine: Machine,
    /// One suite workload per core — or, on [`Machine::Shared`], the
    /// one shared-registry workload all cores run.
    pub workloads: Vec<String>,
    /// Code quality of the suite images (unused by shared workloads).
    pub quality: Quality,
    /// Tile-array geometry of every core, printed by name.
    pub geometry: CoreGeometry,
    /// Host tick schedule under test.
    pub tick_mode: TickMode,
    /// The timing-only fault plan, installed in every core.
    pub plan: Option<FaultPlan>,
}

/// What `protofuzz`'s flags fix for a whole sweep; the seed chooses
/// everything else ([`Scenario::from_seed`]).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// `--workloads`: what the solo and chip seeds draw from.
    pub workloads: Vec<String>,
    /// `--quality`.
    pub quality: Quality,
    /// `--gate on|off`: [`TickMode::Fast`] or [`TickMode::Reference`].
    pub tick_mode: TickMode,
    /// `--coherence`: every seed runs a coherent chip.
    pub coherence: bool,
}

/// Parses a `--quality` or scenario quality name; the error names an
/// unknown one.
pub fn parse_quality(s: &str) -> Result<Quality, String> {
    match s {
        "hand" => Ok(Quality::Hand),
        "compiled" => Ok(Quality::Compiled),
        q => Err(format!("unknown quality {q:?} (hand|compiled)")),
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.machine {
            Machine::Shared(cores) => write!(f, "shared:{cores}")?,
            m => write!(f, "{}", format!("{m:?}").to_lowercase())?,
        }
        let tick = format!("{:?}", self.tick_mode).to_lowercase();
        let (names, geom) = (self.workloads.join(","), self.geometry.name());
        write!(f, " {names} {} {geom} {tick}", self.quality)?;
        self.plan.iter().try_for_each(|plan| write!(f, " {plan}"))
    }
}

impl Scenario {
    /// The scenario seed `seed` runs in `sweep` — the harness's only
    /// seed → configuration mapping, a pure function, so a seed
    /// reproduces identically in the sweep, the shrinker and a pasted
    /// test. Each axis sits on its own residue class, so adding one
    /// never moved a historical seed (`from_seed_is_the_parents_mapping`
    /// pins them). With `n` workloads in `--workloads`:
    ///
    /// * the workload is number `seed mod n`;
    /// * `seed ≡ 3 (mod 4)`: the NUCA backend, not the perfect L2;
    /// * `seed ≡ 2 (mod 8)`: the [`CoreGeometry::mini`] die;
    /// * `seed ≡ 5 (mod 8)`: a multiprogrammed chip — four cores at
    ///   `13 (mod 16)`, else two — whose slot `s + 1` runs workload
    ///   `(seed / 8 + s) mod n`;
    /// * `seed ≡ 6 (mod 16)`: a coherent chip running shared workload
    ///   `seed / 16` — four cores at `22 (mod 32)`, else two; the mini
    ///   die when `seed / 16 ≡ 1 (mod 4)`. `--coherence` sends every
    ///   seed here, to shared workload `seed`, four cores when odd.
    ///
    /// The plan is [`FaultPlan::random_for`] the seed and geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sweep.workloads` is empty.
    pub fn from_seed(seed: u64, sweep: &Sweep) -> Scenario {
        let n = sweep.workloads.len() as u64;
        let pick = |i: u64| sweep.workloads[(i % n) as usize].clone();
        let (machine, workloads, mini) = if sweep.coherence || seed % 16 == 6 {
            let shared = suite::shared_memory();
            let (wl, quad) =
                if sweep.coherence { (seed, seed % 2 == 1) } else { (seed / 16, seed % 32 == 22) };
            let name = shared[(wl % shared.len() as u64) as usize].name.to_string();
            (Machine::Shared(if quad { 4 } else { 2 }), vec![name], seed / 16 % 4 == 1)
        } else if seed % 8 == 5 {
            let co_runners = if seed % 16 == 13 { 3 } else { 1 };
            let slots = std::iter::once(seed).chain((0..co_runners).map(|s| seed / 8 + s));
            (Machine::Chip, slots.map(pick).collect(), false)
        } else {
            let machine = if seed % 4 == 3 { Machine::Nuca } else { Machine::Solo };
            (machine, vec![pick(seed)], seed % 8 == 2)
        };
        let geometry = if mini { CoreGeometry::mini() } else { CoreGeometry::prototype() };
        let plan = Some(FaultPlan::random_for(seed, geometry));
        let (quality, tick_mode) = (sweep.quality, sweep.tick_mode);
        Scenario { machine, workloads, quality, geometry, tick_mode, plan }
    }

    /// Parses the one-line form [`fmt::Display`] writes and validates
    /// the result, so a parsed scenario always builds.
    ///
    /// # Errors
    ///
    /// Names the missing, unknown or out-of-range field.
    pub fn parse(s: &str) -> Result<Scenario, String> {
        let mut toks = s.split_whitespace();
        let mut next = |what| toks.next().ok_or(format!("scenario ends before its {what}"));
        let machine = match next("machine")? {
            "solo" => Machine::Solo,
            "nuca" => Machine::Nuca,
            "chip" => Machine::Chip,
            m => match m.strip_prefix("shared:").map(str::parse) {
                Some(Ok(cores)) => Machine::Shared(cores),
                Some(Err(_)) => return Err(format!("bad core count in {m:?}")),
                None => return Err(format!("unknown machine {m:?} (solo|nuca|chip|shared:N)")),
            },
        };
        let workloads = next("workloads")?.split(',').map(str::to_string).collect();
        let quality = parse_quality(next("quality")?)?;
        let geometry = CoreGeometry::parse(next("geometry")?)?;
        let tick_mode = match next("tick mode")? {
            "fast" => TickMode::Fast,
            "reference" => TickMode::Reference,
            t => return Err(format!("unknown tick mode {t:?} (fast|reference)")),
        };
        let plan: Vec<&str> = toks.collect();
        let plan = if plan.is_empty() { None } else { Some(FaultPlan::parse(&plan.join(" "))?) };
        let scenario = Scenario { machine, workloads, quality, geometry, tick_mode, plan };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cores on the die.
    fn cores(&self) -> usize {
        match self.machine {
            Machine::Solo | Machine::Nuca => 1,
            Machine::Chip => self.workloads.len(),
            Machine::Shared(cores) => cores,
        }
    }

    /// Checks that the scenario can be built: a valid geometry, one
    /// known workload per program the machine runs, a die that seats
    /// the cores ([`ChipConfig::validate`]), a plan that fits it
    /// ([`FaultPlan::validate`]).
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        let shared = matches!(self.machine, Machine::Shared(_));
        let (cores, names) = (self.cores(), self.workloads.len());
        if names != if self.machine == Machine::Chip { cores } else { 1 } {
            return Err(format!("{names} workloads on a {:?} machine", self.machine));
        }
        // Bounded before `chip_config` allocates one config per core.
        if !(1..=MAX_CORES).contains(&cores) {
            return Err(format!("a die seats 1..={MAX_CORES} cores, not {cores}"));
        }
        if shared {
            let name = &self.workloads[0];
            let wl = suite::shared_by_name(name)
                .ok_or_else(|| format!("unknown shared-memory workload {name:?}"))?;
            if cores < wl.min_cores {
                return Err(format!("{name} needs {} cores, not {cores}", wl.min_cores));
            }
        } else if let Some(name) = self.workloads.iter().find(|n| suite::by_name(n).is_none()) {
            return Err(format!("unknown workload {name:?}"));
        }
        if shared || self.machine == Machine::Chip {
            self.chip_config().validate()?;
        }
        let ocn = OcnGeometry::for_cores(cores);
        self.plan.iter().try_for_each(|plan| plan.validate(self.geometry, 1, ocn))
    }

    /// The chip every chip run builds: fuzz cores on the prototype
    /// NUCA, coherent for [`Machine::Shared`].
    fn chip_config(&self) -> ChipConfig {
        let core =
            fuzz_core(self.geometry, self.tick_mode, MemBackend::prototype(), self.plan.as_ref());
        let mut cfg = ChipConfig::with_cores(self.cores(), core, MemConfig::prototype());
        cfg.shared_memory = matches!(self.machine, Machine::Shared(_));
        cfg
    }

    /// Builds the machine, runs the scenario with invariants checked
    /// every tick and post-halt drainage enforced, then compares the
    /// final state against the oracle(s). Returns per-core statistics.
    ///
    /// # Errors
    ///
    /// What [`Scenario::validate`] rejects, else a description of the
    /// first failure: simulation error (timeout with hang report,
    /// invariant violation) or divergence from an oracle.
    pub fn run(&self, oracles: &Oracles, max_cycles: u64) -> Result<Vec<CoreStats>, String> {
        self.execute(oracles, max_cycles, false)?.0
    }

    /// [`Scenario::run`]; with `trace`, the flight recorders are on
    /// and the [`PostMortem`] comes back too.
    fn execute(&self, oracles: &Oracles, max_cycles: u64, trace: bool) -> Result<Ran, String> {
        self.validate()?;
        let oracle = |name: &String| oracles.get(name, self.quality);
        Ok(match self.machine {
            Machine::Solo | Machine::Nuca => {
                let backend = match self.machine {
                    Machine::Nuca => MemBackend::nuca_prototype(),
                    _ => MemBackend::prototype(),
                };
                let cfg = fuzz_core(self.geometry, self.tick_mode, backend, self.plan.as_ref());
                let (result, post) =
                    run_core(&*oracle(&self.workloads[0])?, cfg, max_cycles, trace);
                (result.map(|stats| vec![stats]), post)
            }
            Machine::Chip => {
                let os = self.workloads.iter().map(oracle).collect::<Result<Vec<_>, _>>()?;
                let images: Vec<ProgramImage> = os.iter().map(|o| o.image.clone()).collect();
                run_chip(self.chip_config(), &images, max_cycles, trace, |chip, stats| {
                    os.iter().enumerate().try_for_each(|(k, o)| {
                        compare_arch_state(chip.core(k), &stats.cores[k], o)
                            .map_err(|e| format!("core {k} ({}): {e}", o.name))
                    })
                })
            }
            Machine::Shared(cores) => {
                let wl = suite::shared_by_name(&self.workloads[0]).expect("validated above");
                let SharedProgram { images, expected } = (wl.gen)(cores);
                run_chip(self.chip_config(), &images, max_cycles, trace, |chip, _| {
                    compare_shared_state(chip, &expected)
                })
            }
        })
    }
}

/// What a traced run leaves for the failure artifact: every core's
/// hang report (after a chip's halt cycle and coherence counters),
/// and the Chrome trace.
type PostMortem = Option<(String, String)>;
/// A run's per-core statistics or failure, plus its post-mortem.
type Ran<T = Vec<CoreStats>> = (Result<T, String>, PostMortem);

/// The core every fuzz run uses: invariants on, the plan installed.
fn fuzz_core(
    geometry: CoreGeometry,
    tick_mode: TickMode,
    mem_backend: MemBackend,
    plan: Option<&FaultPlan>,
) -> CoreConfig {
    CoreConfig {
        tick_mode,
        mem_backend,
        faults: plan.cloned(),
        check_invariants: true,
        ..CoreConfig::with_geometry(geometry)
    }
}

/// The one place a fuzz run builds a [`Processor`]: runs the oracle's
/// image on `cfg` and compares the final state against the oracle.
fn run_core(oracle: &Oracle, cfg: CoreConfig, max_cycles: u64, trace: bool) -> Ran<CoreStats> {
    let mut cpu = match Processor::try_new(cfg) {
        Ok(cpu) => cpu,
        Err(e) => return (Err(e), None),
    };
    if trace {
        cpu.enable_tracing(1 << 15);
    }
    let result = cpu.run(&oracle.image, max_cycles).map_err(|e| e.to_string()).and_then(|stats| {
        compare_arch_state(&cpu, &stats, oracle)?;
        Ok(stats)
    });
    let post = trace.then(|| (cpu.diagnose().summary(), cpu.tracer().chrome_trace()));
    (result, post)
}

/// The one place a fuzz run builds a [`Chip`]: runs one image per
/// core, then applies `check` to the finished chip.
fn run_chip(
    cfg: ChipConfig,
    images: &[ProgramImage],
    max_cycles: u64,
    trace: bool,
    check: impl FnOnce(&Chip, &ChipStats) -> Result<(), String>,
) -> Ran {
    let mut chip = match Chip::try_new(cfg) {
        Ok(chip) => chip,
        Err(e) => return (Err(e), None),
    };
    if trace {
        chip.enable_tracing(1 << 14);
    }
    // What only the chip knows of a run that halted, for the post-mortem.
    let mut halt = String::new();
    let result = chip.run(images, max_cycles).map_err(|e| e.to_string()).and_then(|stats| {
        if trace {
            halt = format!("halted at chip cycle {}, {:?}; ", stats.cycles, stats.coherence);
        }
        check(&chip, &stats)?;
        Ok(stats.cores)
    });
    let hang = |k| format!("core {k}: {}", chip.core(k).diagnose().summary());
    let hangs = || halt + &(0..chip.ncores()).map(hang).collect::<Vec<_>>().join("; ");
    (result, trace.then(|| (hangs(), chip.chrome_trace())))
}

/// The [`Machine::Solo`] / [`Machine::Nuca`] run for a caller that
/// already holds the [`Oracle`] (the perf ledger's `fuzz_faults`): the
/// oracle's image on a prototype core behind `backend` under `plan`,
/// `gate` choosing [`TickMode::Fast`] over `Reference`. The oracle is
/// architectural, so it is valid for every backend.
///
/// # Errors
///
/// As [`Scenario::run`].
pub fn run_against_oracle_with(
    oracle: &Oracle,
    backend: MemBackend,
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<CoreStats, String> {
    let tick_mode = if gate { TickMode::Fast } else { TickMode::Reference };
    let cfg = fuzz_core(CoreGeometry::prototype(), tick_mode, backend, plan);
    run_core(oracle, cfg, max_cycles, false).0
}

/// Checks every replica of a finished coherent chip against the
/// workload's sequential oracle (`expected`: address, value), then
/// replica convergence — the value plane applies every drained store
/// to every replica in one global order, so a divergence is a
/// propagation bug.
///
/// # Errors
///
/// The first disagreeing replica cell, or diverging replica.
pub fn compare_shared_state(chip: &Chip, expected: &[(u64, u64)]) -> Result<(), String> {
    for &(addr, want) in expected {
        for k in 0..chip.ncores() {
            let got = chip.core(k).memory().read_u64(addr);
            if got != want {
                return Err(format!(
                    "core {k}'s replica at {addr:#x}: got {got:#x}, the sequential oracle says \
                     {want:#x}"
                ));
            }
        }
    }
    for k in 1..chip.ncores() {
        if chip.core(0).memory() != chip.core(k).memory() {
            return Err(format!("core {k}'s memory replica diverged from core 0's"));
        }
    }
    Ok(())
}

/// Compares a finished core against the oracle: every architectural
/// register, all of memory, and the committed block count.
///
/// # Errors
///
/// A description of every mismatching register plus any memory or
/// block-count divergence.
pub fn compare_arch_state(
    cpu: &Processor,
    stats: &CoreStats,
    oracle: &Oracle,
) -> Result<(), String> {
    if stats.blocks_committed != oracle.blocks {
        return Err(format!(
            "committed {} blocks, oracle committed {}",
            stats.blocks_committed, oracle.blocks
        ));
    }
    let mut diffs = Vec::new();
    for r in 0..128u8 {
        let got = cpu.arch_reg(ArchReg::new(r));
        let want = oracle.regs[r as usize];
        if got != want {
            diffs.push(format!("G{r}: core={got:#x} oracle={want:#x}"));
        }
    }
    if !diffs.is_empty() {
        return Err(format!("register divergence vs blockinterp oracle: {}", diffs.join(", ")));
    }
    let mem_diffs = cpu.memory().diff(&oracle.mem, 256);
    if !mem_diffs.is_empty() {
        let mut bases: Vec<u64> = mem_diffs.iter().map(|&a| a & !7).collect();
        bases.dedup();
        let cells: Vec<String> = bases
            .iter()
            .take(16)
            .map(|&base| {
                format!(
                    "{base:#x}: core={:#x} oracle={:#x}",
                    cpu.memory().read_u64(base),
                    oracle.mem.read_u64(base)
                )
            })
            .collect();
        return Err(format!(
            "memory divergence vs blockinterp oracle ({} cell(s)): {}",
            bases.len(),
            cells.join(", ")
        ));
    }
    Ok(())
}

/// Greedily minimizes a failing plan: repeatedly scans
/// [`FaultPlan::shrink_candidates`] and commits the first candidate
/// that still fails, until no candidate does. Returns the minimal
/// plan and the failure it still produces. Terminates because every
/// candidate strictly reduces a finite measure of the plan.
pub fn shrink<F>(mut plan: FaultPlan, mut why: String, fails: F) -> (FaultPlan, String)
where
    F: Fn(&FaultPlan) -> Option<String>,
{
    loop {
        let step = plan.shrink_candidates().into_iter().find_map(|cand| {
            let w = fails(&cand)?;
            Some((cand, w))
        });
        match step {
            Some((cand, w)) => {
                plan = cand;
                why = w;
            }
            None => return (plan, why),
        }
    }
}

/// A failing fuzz case, as collected by the sweep.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The failing scenario.
    pub scenario: Scenario,
    /// Failure description from [`Fuzzer::failure`].
    pub why: String,
}

/// What a sweep fixes for every run of the pipeline.
pub struct Fuzzer {
    /// Oracles built so far.
    pub oracles: Oracles,
    /// Cycle budget of every run ([`FUZZ_MAX_CYCLES`] in `protofuzz`).
    pub max_cycles: u64,
    /// `--demo-bug`: a run that merely *saw* a forced flush storm also
    /// counts as failing, to exercise the shrink-and-report tail
    /// without a real bug.
    pub demo_bug: bool,
}

impl Fuzzer {
    /// Why `scenario` fails, if it does — the one predicate the sweep
    /// and the shrinker share, so a shrunk plan fails for the same
    /// reason as the original.
    pub fn failure(&self, scenario: &Scenario) -> Option<String> {
        let cores = match scenario.run(&self.oracles, self.max_cycles) {
            Ok(cores) => cores,
            Err(why) => return Some(why),
        };
        let storms: u64 = cores.iter().map(|c| c.protocol.forced_flushes).sum();
        (self.demo_bug && storms > 0).then(|| {
            format!(
                "demo bug: {storms} forced flush storm(s) observed (synthetic failure predicate)"
            )
        })
    }

    /// Runs [`Scenario::from_seed`] for every seed on `threads` host
    /// threads and collects the failures, in seed order.
    pub fn sweep(&self, seeds: Range<u64>, sweep: &Sweep, threads: usize) -> Vec<FuzzFailure> {
        let found = parallel_map(seeds.collect(), threads, |seed| {
            let scenario = Scenario::from_seed(seed, sweep);
            self.failure(&scenario).map(|why| FuzzFailure { scenario, why })
        });
        found.into_iter().flatten().collect()
    }

    /// [`shrink`]s the failing scenario's plan under
    /// [`Fuzzer::failure`]; everything but the plan stays fixed.
    pub fn minimize(&self, fail: &FuzzFailure) -> FuzzFailure {
        let with =
            |plan: &FaultPlan| Scenario { plan: Some(plan.clone()), ..fail.scenario.clone() };
        let Some(plan) = fail.scenario.plan.clone() else { return fail.clone() };
        let (plan, why) = shrink(plan, fail.why.clone(), |p| self.failure(&with(p)));
        FuzzFailure { scenario: with(&plan), why }
    }

    /// Builds the machine-readable failure artifact the CI job
    /// uploads: the shrunk and original scenarios (each line feeds
    /// [`Scenario::parse`]), their failures, and — from a traced re-run
    /// of the shrunk scenario, where the flight recorder is most
    /// useful — every core's hang report and the Chrome trace (embedded
    /// raw; it is already JSON).
    pub fn failure_artifact(&self, fail: &FuzzFailure, shrunk: &FuzzFailure) -> String {
        let (rerun, post) = match shrunk.scenario.execute(&self.oracles, self.max_cycles, true) {
            Ok((Ok(cores), post)) => {
                let each = |f: fn(&CoreStats) -> u64| cores.iter().map(f).collect::<Vec<_>>();
                let (cycles, blocks) = (each(|c| c.cycles), each(|c| c.blocks_committed));
                (format!("ran to halt: {cycles:?} cycles, {blocks:?} blocks"), post)
            }
            Ok((Err(why), post)) => (why, post),
            Err(invalid) => (invalid, None),
        };
        let (hangs, trace) = post.unwrap_or_else(|| (String::new(), "null".into()));
        Object::default()
            .str("scenario", &shrunk.scenario.to_string())
            .str("shrunk_failure", &shrunk.why)
            .str("unshrunk_scenario", &fail.scenario.to_string())
            .str("failure", &fail.why)
            .str("rerun", &rerun)
            .str("hang_report", &hangs)
            .raw("chrome_trace", trace.trim_end())
            .document()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    fn sweep(workloads: &[&str], coherence: bool) -> Sweep {
        let workloads = workloads.iter().map(|w| w.to_string()).collect();
        Sweep { workloads, quality: Quality::Hand, tick_mode: TickMode::Fast, coherence }
    }

    const MICRO: [&str; 4] = ["dct8x8", "matrix", "sha", "vadd"];

    #[test]
    fn clean_runs_match_their_oracles() {
        let oracles = Oracles::default();
        for (line, nuca) in
            [("solo vadd hand prototype fast", false), ("nuca vadd hand prototype reference", true)]
        {
            let cores = Scenario::parse(line)
                .and_then(|sc| sc.run(&oracles, FUZZ_MAX_CYCLES))
                .unwrap_or_else(|why| panic!("{line}: {why}"));
            assert_eq!(cores[0].mem.is_some(), nuca, "only NUCA runs export secondary stats");
        }
        // The entry point the perf ledger times is the same run.
        let oracle = oracles.get("vadd", Quality::Hand).expect("registered");
        let stats = run_against_oracle_with(&oracle, MemBackend::prototype(), None, true, 1 << 24)
            .expect("clean run matches oracle");
        assert_eq!(stats.blocks_committed, oracle.blocks);
    }

    #[test]
    fn scenarios_round_trip_through_one_line() {
        for coherence in [false, true] {
            for seed in 0..512 {
                let sc = Scenario::from_seed(seed, &sweep(&MICRO, coherence));
                assert_eq!(Scenario::parse(&sc.to_string()), Ok(sc));
            }
        }
        let line = "chip vadd,sha compiled 2x4/8 reference";
        assert_eq!(Scenario::parse(line).expect("no plan is a clean run").to_string(), line);
    }

    /// Seed → scenario, recorded from the parent commit's `protofuzz`
    /// `main` (default `--workloads`): seed `i` is line `i`, the default
    /// mapping left of the bar and the `--coherence` mapping right.
    const PARENT_MAPPING: &str = "\
solo dct8x8 hand prototype fast | shared:2 pcring hand prototype fast
solo matrix hand prototype fast | shared:4 psum hand prototype fast
solo sha hand mini fast | shared:2 lockcount hand prototype fast
nuca vadd hand prototype fast | shared:4 pcring hand prototype fast
solo dct8x8 hand prototype fast | shared:2 psum hand prototype fast
chip matrix,dct8x8 hand prototype fast | shared:4 lockcount hand prototype fast
shared:2 pcring hand prototype fast | shared:2 pcring hand prototype fast
nuca vadd hand prototype fast | shared:4 psum hand prototype fast
solo dct8x8 hand prototype fast | shared:2 lockcount hand prototype fast
solo matrix hand prototype fast | shared:4 pcring hand prototype fast
solo sha hand mini fast | shared:2 psum hand prototype fast
nuca vadd hand prototype fast | shared:4 lockcount hand prototype fast
solo dct8x8 hand prototype fast | shared:2 pcring hand prototype fast
chip matrix,matrix,sha,vadd hand prototype fast | shared:4 psum hand prototype fast
solo sha hand prototype fast | shared:2 lockcount hand prototype fast
nuca vadd hand prototype fast | shared:4 pcring hand prototype fast
solo dct8x8 hand prototype fast | shared:2 psum hand mini fast
solo matrix hand prototype fast | shared:4 lockcount hand mini fast
solo sha hand mini fast | shared:2 pcring hand mini fast
nuca vadd hand prototype fast | shared:4 psum hand mini fast
solo dct8x8 hand prototype fast | shared:2 lockcount hand mini fast
chip matrix,sha hand prototype fast | shared:4 pcring hand mini fast
shared:4 psum hand mini fast | shared:2 psum hand mini fast
nuca vadd hand prototype fast | shared:4 lockcount hand mini fast
solo dct8x8 hand prototype fast | shared:2 pcring hand mini fast
solo matrix hand prototype fast | shared:4 psum hand mini fast
solo sha hand mini fast | shared:2 lockcount hand mini fast
nuca vadd hand prototype fast | shared:4 pcring hand mini fast
solo dct8x8 hand prototype fast | shared:2 psum hand mini fast
chip matrix,vadd,dct8x8,matrix hand prototype fast | shared:4 lockcount hand mini fast
solo sha hand prototype fast | shared:2 pcring hand mini fast
nuca vadd hand prototype fast | shared:4 psum hand mini fast
solo dct8x8 hand prototype fast | shared:2 lockcount hand prototype fast
solo matrix hand prototype fast | shared:4 pcring hand prototype fast
solo sha hand mini fast | shared:2 psum hand prototype fast
nuca vadd hand prototype fast | shared:4 lockcount hand prototype fast
solo dct8x8 hand prototype fast | shared:2 pcring hand prototype fast
chip matrix,dct8x8 hand prototype fast | shared:4 psum hand prototype fast
shared:2 lockcount hand prototype fast | shared:2 lockcount hand prototype fast
nuca vadd hand prototype fast | shared:4 pcring hand prototype fast
solo dct8x8 hand prototype fast | shared:2 psum hand prototype fast
solo matrix hand prototype fast | shared:4 lockcount hand prototype fast
solo sha hand mini fast | shared:2 pcring hand prototype fast
nuca vadd hand prototype fast | shared:4 psum hand prototype fast
solo dct8x8 hand prototype fast | shared:2 lockcount hand prototype fast
chip matrix,matrix,sha,vadd hand prototype fast | shared:4 pcring hand prototype fast
solo sha hand prototype fast | shared:2 psum hand prototype fast
nuca vadd hand prototype fast | shared:4 lockcount hand prototype fast
solo dct8x8 hand prototype fast | shared:2 pcring hand prototype fast
solo matrix hand prototype fast | shared:4 psum hand prototype fast
solo sha hand mini fast | shared:2 lockcount hand prototype fast
nuca vadd hand prototype fast | shared:4 pcring hand prototype fast
solo dct8x8 hand prototype fast | shared:2 psum hand prototype fast
chip matrix,sha hand prototype fast | shared:4 lockcount hand prototype fast
shared:4 pcring hand prototype fast | shared:2 pcring hand prototype fast
nuca vadd hand prototype fast | shared:4 psum hand prototype fast
solo dct8x8 hand prototype fast | shared:2 lockcount hand prototype fast
solo matrix hand prototype fast | shared:4 pcring hand prototype fast
solo sha hand mini fast | shared:2 psum hand prototype fast
nuca vadd hand prototype fast | shared:4 lockcount hand prototype fast
solo dct8x8 hand prototype fast | shared:2 pcring hand prototype fast
chip matrix,vadd,dct8x8,matrix hand prototype fast | shared:4 psum hand prototype fast
solo sha hand prototype fast | shared:2 lockcount hand prototype fast
nuca vadd hand prototype fast | shared:4 pcring hand prototype fast";

    #[test]
    fn from_seed_is_the_parents_mapping() {
        for (seed, row) in PARENT_MAPPING.lines().enumerate() {
            for (coherence, head) in [false, true].into_iter().zip(row.split(" | ")) {
                let sc = Scenario::from_seed(seed as u64, &sweep(&MICRO, coherence));
                let plan = FaultPlan::random_for(seed as u64, sc.geometry);
                assert_eq!(sc.to_string(), format!("{head} {plan}"), "seed {seed}");
            }
        }
        assert_eq!(PARENT_MAPPING.lines().count(), 64, "every residue mod 32, twice");
        // The quad-chip seed `protofuzz_repro_chip_matrix_vadd_dct8x8_matrix_dd` pins.
        assert_eq!(
            Scenario::from_seed(0xdd, &sweep(&MICRO, false)).to_string(),
            "chip matrix,vadd,dct8x8,matrix hand prototype fast seed=0xdd rotate \
             ocn=3.0.eject:1/16*7 ocn=1.0.eject:1/2*8 chain=1/8+3"
        );
    }

    #[test]
    fn the_door_names_what_it_rejects() {
        for (line, needle) in [
            ("solo vadd hand", "ends before its geometry"),
            ("duo vadd hand prototype fast", "unknown machine"),
            ("solo nope hand prototype fast", "unknown workload \"nope\""),
            ("chip vadd,nope hand prototype fast", "unknown workload \"nope\""),
            ("solo vadd,sha hand prototype fast", "2 workloads on a Solo machine"),
            ("shared:2 vadd hand prototype fast", "unknown shared-memory workload"),
            ("solo vadd best prototype fast", "unknown quality"),
            ("solo vadd hand huge fast", "geometry"),
            ("solo vadd hand 4294967296x4294967296/8 fast", "dims"),
            ("solo vadd hand prototype slow", "unknown tick mode"),
            ("shared:x psum hand prototype fast", "bad core count"),
            ("shared:17 psum hand prototype fast", "1..=16 cores, not 17"),
            ("shared:4000000000 psum hand prototype fast", "1..=16 cores"),
            ("shared:1 pcring hand prototype fast", "pcring needs 2 cores, not 1"),
            ("chip vadd,vadd hand fat fast", "OCN ports"),
            ("solo vadd hand mini fast seed=1 opn=0.4.4.west:1/2*1", "outside the mini die"),
            ("chip vadd,vadd hand prototype fast seed=1 ocn=10.0.west:1/2*1", "2-core die"),
            ("solo vadd hand prototype fast seed=1 storm=1/0", "the flush storm has chance 1/0"),
            ("solo vadd hand prototype fast rotate", "seed="),
        ] {
            let err = Scenario::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        // A four-core die has the OCN rows a dual die lacks.
        Scenario::parse("shared:4 psum hand prototype fast seed=1 ocn=19.3.west:1/2*1")
            .expect("fits");
        // `run` is a door too: a hand-built scenario errs, never panics.
        let mut sc = Scenario::parse("shared:2 psum hand prototype fast seed=1").expect("valid");
        sc.machine = Machine::Shared(99);
        assert!(sc.run(&Oracles::default(), 1).expect_err("no such die").contains("99"));
        sc = Scenario { machine: Machine::Shared(1), workloads: vec!["pcring".into()], ..sc };
        assert!(sc.run(&Oracles::default(), 1).expect_err("no consumer").contains("needs 2"));
    }

    #[test]
    fn parse_never_panics() {
        let mut rng = Rng::new(0x5ce7_a410);
        for _ in 0..20_000 {
            let bytes: Vec<u8> =
                (0..rng.range_usize(0, 96)).map(|_| rng.next_u32() as u8).collect();
            let _ = Scenario::parse(&String::from_utf8_lossy(&bytes));
        }
        for i in 0..256 {
            let valid = Scenario::from_seed(i / 2, &sweep(&MICRO, i & 1 == 1)).to_string();
            for _ in 0..64 {
                let mut chars: Vec<char> = valid.chars().collect();
                let at = rng.range_usize(0, chars.len());
                match rng.range_usize(0, 3) {
                    0 => chars[at] = char::from(rng.range_u8(0x20, 0x7f)),
                    1 => chars.insert(at, char::from(rng.range_u8(0x20, 0x7f))),
                    _ => drop(chars.remove(at)),
                }
                let _ = Scenario::parse(&chars.into_iter().collect::<String>());
            }
        }
    }

    /// The report tail, in-process, under the demo predicate: on each
    /// machine kind one storming seed goes sweep → shrink → artifact,
    /// and the artifact's scenario line is the whole reproducer.
    #[test]
    fn a_failure_on_every_axis_reaches_a_reproducer_line() {
        let fuzzer =
            Fuzzer { oracles: Oracles::default(), max_cycles: FUZZ_MAX_CYCLES, demo_bug: true };
        let axes = [
            (sweep(&["vadd"], false), Machine::Solo),
            (sweep(&["vadd"], false), Machine::Chip),
            (sweep(&["vadd"], true), Machine::Shared(2)),
        ];
        for (sweep, machine) in axes {
            let seed = (0..256)
                .find(|&s| {
                    let sc = Scenario::from_seed(s, &sweep);
                    sc.machine == machine && sc.plan.is_some_and(|p| p.flush_storm.is_some())
                })
                .expect("a storming seed on this axis");
            let failures = fuzzer.sweep(seed..seed + 1, &sweep, 1);
            let [fail] = failures.as_slice() else { panic!("seed {seed:#x} must storm") };
            let shrunk = fuzzer.minimize(fail);
            assert!(shrunk.why.starts_with("demo bug"), "the last failing candidate's reason");
            let plan = shrunk.scenario.plan.as_ref().expect("shrinking keeps a plan");
            let storm_only =
                FaultPlan { seed, flush_storm: plan.flush_storm, ..FaultPlan::default() };
            assert_eq!(*plan, storm_only, "the demo failure needs the storm and nothing else");

            let artifact = fuzzer.failure_artifact(fail, &shrunk);
            let line = artifact
                .lines()
                .find_map(|l| l.trim().strip_prefix("\"scenario\": \"")?.strip_suffix("\","))
                .expect("the artifact leads with its scenario line");
            let parsed = Scenario::parse(line).expect("the artifact's scenario parses");
            assert_eq!(parsed, shrunk.scenario);
            assert!(fuzzer.failure(&parsed).is_some(), "{line} must still fail");
            assert!(artifact.contains("\"chrome_trace\": {"), "traced re-run embedded");
            let coherent = matches!(machine, Machine::Shared(_));
            assert_eq!(artifact.contains("chip cycle") && artifact.contains("Some(Coh"), coherent);
        }
    }

    #[test]
    fn shrinker_reaches_a_fixed_point() {
        // Synthetic predicate: "fails" whenever the plan storms. The
        // minimum is a storm-only plan.
        let plan = FaultPlan::random(0x5eed_0007);
        let mut plan = plan;
        plan.flush_storm = Some(trips_core::Ratio { num: 1, den: 16 });
        let fails = |p: &FaultPlan| p.flush_storm.map(|_| "storm still present".to_string());
        let (min, why) = shrink(plan, "seed failure".into(), fails);
        assert!(min.flush_storm.is_some(), "shrinker must preserve the failure");
        assert!(min.links.is_empty() && min.chain_delay.is_none() && !min.rotate_arbitration);
        assert_eq!(why, "storm still present");
    }
}
