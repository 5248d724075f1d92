//! The fault-injection fuzzing engine behind the `protofuzz` binary.
//!
//! The loop: seed → [`FaultPlan::random`] → run the cycle-level core
//! under that plan with every protocol invariant checked each tick →
//! compare the final architectural state (all 128 registers, all of
//! memory, committed block count) against the `blockinterp` oracle.
//! Because fault plans perturb *timing only* — never values, never
//! per-link FIFO order — any divergence, invariant violation, hang, or
//! leaked post-halt state is a protocol bug by construction.
//!
//! Failures are minimized by a greedy pass over
//! [`FaultPlan::shrink_candidates`] and rendered as a `#[test]`
//! snippet (see [`repro_snippet`]) that pastes directly into
//! `tests/fault_injection.rs`.

use std::fmt::Write as _;

use trips_core::{
    Chip, ChipConfig, ChipStats, CoreConfig, CoreGeometry, CoreStats, FaultPlan, MemBackend,
    Processor, TickMode,
};
use trips_isa::mem::SparseMem;
use trips_isa::{ArchReg, ProgramImage};
use trips_mem::MemConfig;
use trips_tasm::{blockinterp, Quality};
use trips_workloads::shared::SharedProgram;
use trips_workloads::{suite, Workload};

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

/// The harness's `gate` switch names the tick schedule: on is
/// [`TickMode::Fast`], off is [`TickMode::Reference`].
fn tick_mode(gate: bool) -> TickMode {
    if gate {
        TickMode::Fast
    } else {
        TickMode::Reference
    }
}

/// Runs the oracle's image under `plan` with invariants checked every
/// tick and post-halt drainage enforced, then compares the final
/// architectural state against the oracle. `gate` selects the tick
/// schedule here and in every other entry point of this module
/// (`true`: `Fast`, `false`: `Reference`).
///
/// # Errors
///
/// A description of the first failure: simulation error (timeout with
/// hang report, invariant violation) or architectural divergence.
pub fn run_against_oracle(
    oracle: &Oracle,
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<CoreStats, String> {
    run_against_oracle_with(oracle, MemBackend::prototype(), plan, gate, max_cycles)
}

/// [`run_against_oracle`] with an explicit secondary-memory backend.
/// The oracle is architectural, so it is valid for every backend; a
/// divergence under [`MemBackend::Nuca`] that vanishes under the
/// perfect L2 is a bug in the fill/ack plumbing, not in the workload.
///
/// Always runs the prototype die: historical reproducer plans carry
/// prototype OPN coordinates, so this entry point must not follow
/// `TRIPS_GEOMETRY`. Geometry-axis fuzzing goes through
/// [`run_against_oracle_geom`].
///
/// # Errors
///
/// As [`run_against_oracle`].
pub fn run_against_oracle_with(
    oracle: &Oracle,
    backend: MemBackend,
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<CoreStats, String> {
    run_against_oracle_geom(oracle, backend, CoreGeometry::prototype(), plan, gate, max_cycles)
}

/// [`run_against_oracle_with`] on an explicit tile-array geometry —
/// the protocols must match the architectural oracle on every die,
/// not just the prototype. The plan's OPN coordinates must fit the
/// geometry's mesh (use [`FaultPlan::random_for`]).
///
/// # Errors
///
/// As [`run_against_oracle`].
pub fn run_against_oracle_geom(
    oracle: &Oracle,
    backend: MemBackend,
    geom: CoreGeometry,
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<CoreStats, String> {
    let cfg = CoreConfig {
        tick_mode: tick_mode(gate),
        mem_backend: backend,
        faults: plan.cloned(),
        check_invariants: true,
        ..CoreConfig::with_geometry(geom)
    };
    let mut cpu = Processor::new(cfg);
    let stats = cpu.run(&oracle.image, max_cycles).map_err(|e| e.to_string())?;
    compare_arch_state(&cpu, &stats, oracle)?;
    Ok(stats)
}

/// Runs one oracle's image per core of a shared-NUCA [`Chip`] under
/// `plan`, invariants (including the chip-level conservation audit)
/// checked every cycle, then compares every core against its own
/// oracle. The same plan is installed in every core — its OCN faults
/// land on the one shared network (taken from core 0, which is where
/// the chip reads them), so this is the "OCN faults with both cores
/// live" configuration the nightly sweep wants. Contention is
/// timing-only, so any per-core divergence is a protocol bug exactly
/// as in the solo harness.
///
/// # Errors
///
/// As [`run_against_oracle`], prefixed with the diverging core.
pub fn run_chip_against_oracles(
    oracles: &[&Oracle],
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<ChipStats, String> {
    let core_cfg = CoreConfig {
        tick_mode: tick_mode(gate),
        faults: plan.cloned(),
        check_invariants: true,
        ..CoreConfig::prototype_pinned()
    };
    let mut chip =
        Chip::new(ChipConfig::with_cores(oracles.len(), core_cfg, MemConfig::prototype()));
    let images: Vec<ProgramImage> = oracles.iter().map(|o| o.image.clone()).collect();
    let stats = chip.run(&images, max_cycles).map_err(|e| e.to_string())?;
    for (k, oracle) in oracles.iter().enumerate() {
        compare_arch_state(chip.core(k), &stats.cores[k], oracle)
            .map_err(|e| format!("core {k} ({}): {e}", oracle.name))?;
    }
    Ok(stats)
}

/// Runs shared-memory workload `name` on a **coherent** `ncores`-core
/// chip (die `geom`) under `plan` — invariants, including the §5g
/// coherence suite (SWMR, directory/cache agreement, message
/// conservation), checked every tick — then checks every core's
/// memory replica against the workload's sequential final-state
/// oracle and requires all replicas byte-identical. Fault plans still
/// perturb timing only, so under *any* plan the oracle must hold:
/// a miss here indicts the coherence protocol, not the workload.
///
/// # Errors
///
/// A description of the first failure: simulation error (hang,
/// invariant violation) or a replica that disagrees with the oracle.
///
/// # Panics
///
/// Panics if `name` is not in the shared registry — the harness's
/// fault, not the protocols'.
pub fn run_shared_against_oracle(
    name: &str,
    ncores: usize,
    geom: CoreGeometry,
    plan: Option<&FaultPlan>,
    gate: bool,
    max_cycles: u64,
) -> Result<ChipStats, String> {
    let wl = suite::shared_by_name(name)
        .unwrap_or_else(|| panic!("unknown shared-memory workload {name:?}"));
    let SharedProgram { images, expected } = (wl.gen)(ncores);
    let mut chip = Chip::new(shared_chip_config(ncores, geom, plan, gate));
    let stats = chip.run(&images, max_cycles).map_err(|e| e.to_string())?;
    compare_shared_state(&chip, &expected)?;
    Ok(stats)
}

/// The chip configuration every shared-memory fuzz case runs:
/// coherence on, invariants on, the plan in every core.
fn shared_chip_config(
    ncores: usize,
    geom: CoreGeometry,
    plan: Option<&FaultPlan>,
    gate: bool,
) -> ChipConfig {
    let core_cfg = CoreConfig {
        tick_mode: tick_mode(gate),
        faults: plan.cloned(),
        check_invariants: true,
        ..CoreConfig::with_geometry(geom)
    };
    let mut cfg = ChipConfig::with_cores(ncores, core_cfg, MemConfig::prototype());
    cfg.shared_memory = true;
    cfg
}

/// Checks every replica of a finished coherent chip against the
/// sequential oracle, then requires replica convergence (the value
/// plane applied every drained store to every replica in one global
/// order, so any divergence is a propagation bug).
fn compare_shared_state(chip: &Chip, expected: &[(u64, u64)]) -> Result<(), String> {
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

/// Renders a minimized failure as a `#[test]` function that pastes
/// directly into `tests/fault_injection.rs` (which provides the
/// `assert_plan_matches_oracle` helper).
pub fn repro_snippet(
    workload: &str,
    quality: Quality,
    nuca: bool,
    plan: &FaultPlan,
    why: &str,
) -> String {
    repro_snippet_geom(workload, quality, nuca, CoreGeometry::prototype(), plan, why)
}

/// [`repro_snippet`] carrying the tile-array geometry of the failing
/// run. Prototype failures keep the historical helper calls; any
/// other geometry pastes a call to `assert_plan_matches_oracle_geom`,
/// which re-runs the plan on that die by name.
pub fn repro_snippet_geom(
    workload: &str,
    quality: Quality,
    nuca: bool,
    geom: CoreGeometry,
    plan: &FaultPlan,
    why: &str,
) -> String {
    let mut s = String::new();
    let proto = geom == CoreGeometry::prototype();
    let gname = geom.name();
    let ident: String =
        format!("{workload}{}", if proto { String::new() } else { format!("_{gname}") })
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
    let _ = writeln!(s, "/// Minimized protofuzz reproducer (seed {:#x}).", plan.seed);
    if !proto {
        let _ = writeln!(s, "/// Found on the `{gname}` die.");
    }
    for line in why.lines().take(4) {
        let _ = writeln!(s, "/// Failure: {line}");
    }
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn protofuzz_repro_{ident}_{:x}() {{", plan.seed);
    let _ = writeln!(s, "    let plan = {};", indent_continuation(&plan.to_rust_literal(), 4));
    if proto {
        let helper =
            if nuca { "assert_plan_matches_oracle_nuca" } else { "assert_plan_matches_oracle" };
        let _ = writeln!(s, "    {helper}(\"{workload}\", Quality::{quality:?}, &plan);");
    } else {
        let _ = writeln!(
            s,
            "    assert_plan_matches_oracle_geom(\"{workload}\", Quality::{quality:?}, \
             \"{gname}\", &plan);"
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Indents every line after the first by `n` spaces (for embedding a
/// multi-line literal in generated code).
fn indent_continuation(text: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    let mut lines = text.lines();
    let mut out = lines.next().unwrap_or_default().to_string();
    for l in lines {
        out.push('\n');
        out.push_str(&pad);
        out.push_str(l);
    }
    out
}

/// A failing fuzz case, as collected by the sweep.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The plan's master seed.
    pub seed: u64,
    /// Workload the failure occurred on.
    pub workload: String,
    /// Code quality of the failing image.
    pub quality: Quality,
    /// Whether the run used the NUCA secondary backend.
    pub nuca: bool,
    /// For dual-core chip cases: the co-runner workload on core 1
    /// (the run then used the shared NUCA regardless of `nuca`).
    pub co_runner: Option<String>,
    /// For coherence-axis cases: the core count of the shared-memory
    /// chip (`workload` then names a shared-registry entry and the
    /// run compared every replica against its final-state oracle).
    pub shared_cores: Option<usize>,
    /// Tile-array geometry the failing run used (chip cases are
    /// always the prototype die).
    pub geom: CoreGeometry,
    /// The full (unshrunk) failing plan.
    pub plan: FaultPlan,
    /// Failure description from [`run_against_oracle`].
    pub why: String,
}

/// Builds the machine-readable failure artifact the CI job uploads:
/// the original and shrunk plans, the failure descriptions, the hang
/// report from a traced re-run of the shrunk plan, and the flight
/// recorder's Chrome trace (embedded raw — it is already JSON).
pub fn failure_artifact(
    oracle: &Oracle,
    fail: &FuzzFailure,
    shrunk: &FaultPlan,
    shrunk_why: &str,
    gate: bool,
    max_cycles: u64,
) -> String {
    // Traced re-run of the minimal reproducer: the flight recorder is
    // most useful on exactly the failing run.
    let backend = if fail.nuca { MemBackend::nuca_prototype() } else { MemBackend::prototype() };
    let cfg = CoreConfig {
        tick_mode: tick_mode(gate),
        mem_backend: backend,
        faults: Some(shrunk.clone()),
        check_invariants: true,
        ..CoreConfig::with_geometry(fail.geom)
    };
    let mut cpu = Processor::new(cfg);
    cpu.enable_tracing(1 << 15);
    let rerun = cpu.run(&oracle.image, max_cycles);
    let hang = cpu.diagnose();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", json_escape(&fail.workload));
    let _ = writeln!(s, "  \"quality\": \"{:?}\",", fail.quality);
    let _ = writeln!(s, "  \"geometry\": \"{}\",", fail.geom.name());
    let _ = writeln!(s, "  \"backend\": \"{}\",", if fail.nuca { "nuca" } else { "perfect-l2" });
    let _ = writeln!(s, "  \"seed\": {},", fail.seed);
    let _ = writeln!(s, "  \"failure\": \"{}\",", json_escape(&fail.why));
    let _ = writeln!(s, "  \"plan\": \"{}\",", json_escape(&fail.plan.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_plan\": \"{}\",", json_escape(&shrunk.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_failure\": \"{}\",", json_escape(shrunk_why));
    let _ = writeln!(
        s,
        "  \"rerun\": \"{}\",",
        json_escape(&match &rerun {
            Ok(st) => format!("ran to halt: {} cycles, {} blocks", st.cycles, st.blocks_committed),
            Err(e) => e.to_string(),
        })
    );
    let _ = writeln!(s, "  \"hang_report\": \"{}\",", json_escape(&hang.summary()));
    let _ = writeln!(s, "  \"chrome_trace\": {}", cpu.tracer().chrome_trace().trim_end());
    s.push('}');
    s.push('\n');
    s
}

/// [`failure_artifact`] for a chip case (one oracle per core):
/// re-runs the shrunk plan on the chip with every core's flight
/// recorder on and embeds the combined per-core Chrome trace plus
/// each core's hang report.
pub fn failure_artifact_chip(
    oracles: &[&Oracle],
    fail: &FuzzFailure,
    shrunk: &FaultPlan,
    shrunk_why: &str,
    gate: bool,
    max_cycles: u64,
) -> String {
    let core_cfg = CoreConfig {
        tick_mode: tick_mode(gate),
        faults: Some(shrunk.clone()),
        check_invariants: true,
        ..CoreConfig::prototype_pinned()
    };
    let mut chip =
        Chip::new(ChipConfig::with_cores(oracles.len(), core_cfg, MemConfig::prototype()));
    chip.enable_tracing(1 << 14);
    let images: Vec<ProgramImage> = oracles.iter().map(|o| o.image.clone()).collect();
    let rerun = chip.run(&images, max_cycles);
    let hangs: Vec<String> = (0..oracles.len())
        .map(|k| format!("core {k}: {}", chip.core(k).diagnose().summary()))
        .collect();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", json_escape(&fail.workload));
    let _ = writeln!(
        s,
        "  \"co_runner\": \"{}\",",
        json_escape(fail.co_runner.as_deref().unwrap_or(""))
    );
    let _ = writeln!(s, "  \"quality\": \"{:?}\",", fail.quality);
    let _ = writeln!(s, "  \"geometry\": \"{}\",", fail.geom.name());
    let _ = writeln!(s, "  \"backend\": \"chip\",");
    let _ = writeln!(s, "  \"seed\": {},", fail.seed);
    let _ = writeln!(s, "  \"failure\": \"{}\",", json_escape(&fail.why));
    let _ = writeln!(s, "  \"plan\": \"{}\",", json_escape(&fail.plan.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_plan\": \"{}\",", json_escape(&shrunk.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_failure\": \"{}\",", json_escape(shrunk_why));
    let _ = writeln!(
        s,
        "  \"rerun\": \"{}\",",
        json_escape(&match &rerun {
            Ok(st) => format!(
                "ran to halt: {} chip cycles, {:?} blocks",
                st.cycles,
                st.cores.iter().map(|c| c.blocks_committed).collect::<Vec<_>>()
            ),
            Err(e) => e.to_string(),
        })
    );
    let _ = writeln!(s, "  \"hang_report\": \"{}\",", json_escape(&hangs.join("; ")));
    let _ = writeln!(s, "  \"chrome_trace\": {}", chip.chrome_trace().trim_end());
    s.push('}');
    s.push('\n');
    s
}

/// [`failure_artifact`] for a coherence-axis case: re-runs the shrunk
/// plan on the shared-memory chip with every flight recorder on and
/// embeds the per-core hang reports, the final coherence snapshot,
/// and the combined Chrome trace.
pub fn failure_artifact_shared(
    fail: &FuzzFailure,
    shrunk: &FaultPlan,
    shrunk_why: &str,
    gate: bool,
    max_cycles: u64,
) -> String {
    let ncores = fail.shared_cores.expect("a shared-axis failure records its core count");
    let wl = suite::shared_by_name(&fail.workload).expect("shared workload registered");
    let SharedProgram { images, .. } = (wl.gen)(ncores);
    let mut chip = Chip::new(shared_chip_config(ncores, fail.geom, Some(shrunk), gate));
    chip.enable_tracing(1 << 14);
    let rerun = chip.run(&images, max_cycles);
    let hangs: Vec<String> =
        (0..ncores).map(|k| format!("core {k}: {}", chip.core(k).diagnose().summary())).collect();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", json_escape(&fail.workload));
    let _ = writeln!(s, "  \"quality\": \"{:?}\",", fail.quality);
    let _ = writeln!(s, "  \"geometry\": \"{}\",", fail.geom.name());
    let _ = writeln!(s, "  \"backend\": \"shared-chip\",");
    let _ = writeln!(s, "  \"cores\": {ncores},");
    let _ = writeln!(s, "  \"seed\": {},", fail.seed);
    let _ = writeln!(s, "  \"failure\": \"{}\",", json_escape(&fail.why));
    let _ = writeln!(s, "  \"plan\": \"{}\",", json_escape(&fail.plan.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_plan\": \"{}\",", json_escape(&shrunk.to_rust_literal()));
    let _ = writeln!(s, "  \"shrunk_failure\": \"{}\",", json_escape(shrunk_why));
    let _ = writeln!(
        s,
        "  \"rerun\": \"{}\",",
        json_escape(&match &rerun {
            Ok(st) => format!(
                "ran to halt: {} chip cycles, coherence {:?}",
                st.cycles,
                st.coherence.unwrap_or_default()
            ),
            Err(e) => e.to_string(),
        })
    );
    let _ = writeln!(s, "  \"hang_report\": \"{}\",", json_escape(&hangs.join("; ")));
    let _ = writeln!(s, "  \"chrome_trace\": {}", chip.chrome_trace().trim_end());
    s.push('}');
    s.push('\n');
    s
}

/// [`repro_snippet`] for a coherence-axis failure: pastes into
/// `tests/fault_injection.rs`, which provides
/// `assert_shared_plan_matches_oracle`.
pub fn repro_snippet_shared(
    workload: &str,
    ncores: usize,
    geom: CoreGeometry,
    plan: &FaultPlan,
    why: &str,
) -> String {
    let mut s = String::new();
    let gname = geom.name();
    let ident: String = format!("{workload}_{ncores}c_{gname}")
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let _ = writeln!(s, "/// Minimized protofuzz coherence reproducer (seed {:#x}).", plan.seed);
    for line in why.lines().take(4) {
        let _ = writeln!(s, "/// Failure: {line}");
    }
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn protofuzz_repro_shared_{ident}_{:x}() {{", plan.seed);
    let _ = writeln!(s, "    let plan = {};", indent_continuation(&plan.to_rust_literal(), 4));
    let _ = writeln!(
        s,
        "    assert_shared_plan_matches_oracle(\"{workload}\", {ncores}, \"{gname}\", &plan);"
    );
    let _ = writeln!(s, "}}");
    s
}

/// [`repro_snippet`] for a chip failure (`co_runner` is the
/// comma-joined workloads of slots 1..): pastes into
/// `tests/fault_injection.rs`, which provides
/// `assert_chip_plan_matches_oracles`.
pub fn repro_snippet_chip(
    workload: &str,
    co_runner: &str,
    quality: Quality,
    plan: &FaultPlan,
    why: &str,
) -> String {
    let mut s = String::new();
    let ident: String = format!("{workload}_{co_runner}")
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let _ = writeln!(s, "/// Minimized protofuzz chip reproducer (seed {:#x}).", plan.seed);
    for line in why.lines().take(4) {
        let _ = writeln!(s, "/// Failure: {line}");
    }
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn protofuzz_repro_chip_{ident}_{:x}() {{", plan.seed);
    let _ = writeln!(s, "    let plan = {};", indent_continuation(&plan.to_rust_literal(), 4));
    let _ = writeln!(
        s,
        "    assert_chip_plan_matches_oracles(\"{workload}\", \"{co_runner}\", \
         Quality::{quality:?}, &plan);"
    );
    let _ = writeln!(s, "}}");
    s
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_workloads::suite;

    #[test]
    fn clean_run_matches_oracle() {
        let wl = suite::by_name("vadd").expect("registered");
        let oracle = Oracle::build(&wl, Quality::Hand);
        let stats = run_against_oracle(&oracle, None, true, FUZZ_MAX_CYCLES)
            .expect("clean run matches oracle");
        assert_eq!(stats.blocks_committed, oracle.blocks);
    }

    #[test]
    fn clean_nuca_run_matches_oracle() {
        let wl = suite::by_name("vadd").expect("registered");
        let oracle = Oracle::build(&wl, Quality::Hand);
        let stats = run_against_oracle_with(
            &oracle,
            MemBackend::nuca_prototype(),
            None,
            true,
            FUZZ_MAX_CYCLES,
        )
        .expect("clean NUCA run matches oracle");
        assert_eq!(stats.blocks_committed, oracle.blocks);
        assert!(stats.mem.is_some(), "NUCA runs export secondary-system stats");
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

    #[test]
    fn snippet_is_pasteable_shape() {
        let plan = FaultPlan::random(42);
        let snip = repro_snippet("vadd", Quality::Hand, false, &plan, "something diverged");
        assert!(snip.contains("#[test]"));
        assert!(snip.contains("fn protofuzz_repro_vadd_2a()"));
        assert!(snip.contains("assert_plan_matches_oracle(\"vadd\", Quality::Hand, &plan);"));
        let nuca = repro_snippet("vadd", Quality::Hand, true, &plan, "diverged");
        assert!(nuca.contains("assert_plan_matches_oracle_nuca(\"vadd\", Quality::Hand, &plan);"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
