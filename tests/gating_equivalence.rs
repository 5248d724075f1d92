//! The two tick schedules must be indistinguishable: a
//! [`TickMode::Fast`] run (wake table, gated tiles, epoch skips,
//! dirty-frame walks, fused GT pass) and a [`TickMode::Reference`] run
//! (every tile, every frame, every cycle, the GT in §4 spec order) of
//! the same image must produce bit-identical statistics and
//! architectural state (DESIGN.md §5b). Every shortcut `Fast` takes is
//! a claim that the skipped work was a no-op; `Reference` takes none
//! of them, so one comparison covers them all — singly and combined.

use trips_core::{CoreConfig, CoreStats, MemBackend, Processor, TickMode};
use trips_harness::{num_threads, parallel_map};
use trips_isa::mem::SparseMem;
use trips_isa::{ArchReg, ProgramImage};
use trips_tasm::Quality;
use trips_workloads::{suite, Workload};

const MAX_CYCLES: u64 = 200_000_000;

/// The full observable outcome of a run: stats, all 128 architectural
/// registers, and memory.
type Outcome = (CoreStats, Vec<u64>, SparseMem);

/// Runs `image` under `cfg`, returning the outcome and the core (for
/// its host-side counters).
fn run(image: &ProgramImage, cfg: CoreConfig) -> (Outcome, Processor) {
    let mut cpu = Processor::new(cfg);
    let stats = cpu.run(image, MAX_CYCLES).unwrap_or_else(|e| panic!("simulation failed: {e}"));
    let regs = (0..128).map(|r| cpu.arch_reg(ArchReg::new(r))).collect();
    let mem = cpu.memory().clone();
    ((stats, regs, mem), cpu)
}

fn reference(cfg: CoreConfig) -> CoreConfig {
    CoreConfig { tick_mode: TickMode::Reference, ..cfg }
}

fn hand_image(name: &str) -> ProgramImage {
    suite::by_name(name).expect("registered").build_trips(Quality::Hand).expect("compiles").image
}

#[test]
fn fast_and_reference_are_bit_identical_across_the_suite() {
    // Any divergence means a wake time was computed too late (work
    // silently delayed), a skip jumped past a message-maturity point,
    // a work-list mask missed a mutation site (a dirty frame was
    // skipped), or the fused GT pass reordered an observable protocol
    // action.
    let items: Vec<(Workload, Quality)> = suite::all()
        .into_iter()
        .flat_map(|wl| [(wl, Quality::Hand), (wl, Quality::Compiled)])
        .collect();
    let failures: Vec<String> = parallel_map(items, num_threads(), |(wl, quality)| {
        let image = wl
            .build_trips(quality)
            .unwrap_or_else(|e| panic!("{} ({quality:?}): compile failed: {e}", wl.name))
            .image;
        let ((f_stats, f_regs, f_mem), _) = run(&image, CoreConfig::prototype());
        let ((r_stats, r_regs, r_mem), _) = run(&image, reference(CoreConfig::prototype()));
        let mut errs = Vec::new();
        if f_stats != r_stats {
            errs.push(format!(
                "{} ({quality:?}): CoreStats diverge\n  fast:      {f_stats:?}\n  reference: {r_stats:?}",
                wl.name
            ));
        }
        if f_regs != r_regs {
            let diffs: Vec<String> = f_regs
                .iter()
                .zip(&r_regs)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(r, (a, b))| format!("G{r}: fast={a:#x} reference={b:#x}"))
                .collect();
            errs.push(format!("{} ({quality:?}): registers diverge: {}", wl.name, diffs.join(", ")));
        }
        if f_mem != r_mem {
            errs.push(format!("{} ({quality:?}): memory diverges", wl.name));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "the Fast schedule changed observable behaviour:\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_wake_table_audit_holds_on_every_cycle_of_the_suite() {
    use trips_core::CoreGeometry;
    // `Fast`'s whole schedule is read off the wake table, and the table
    // is right only if every event source files with its consumer. With
    // `check_invariants` on, every cycle ends by recomputing each
    // tile's entry from scratch and comparing: a push site missed on
    // any path these programs take fails by name, on the cycle it
    // happens. Every Table-3 program behind the perfect L2 plus the
    // memory-bound four on the NUCA (fill events, epoch skips), on the
    // die `TRIPS_GEOMETRY` selects (the prototype by default, the fat
    // die in CI's `fat-overflow` lane) and on the mini die.
    let nuca =
        ["saxpy", "listwalk", "vadd", "conv"].map(|n| suite::by_name(n).expect("registered"));
    let programs: Vec<(Workload, bool)> =
        suite::all().into_iter().map(|wl| (wl, false)).chain(nuca.map(|wl| (wl, true))).collect();
    let mut dies = vec![CoreGeometry::from_env(), CoreGeometry::mini()];
    dies.dedup();
    let items: Vec<(Workload, bool, CoreGeometry)> = dies
        .into_iter()
        .flat_map(|g| programs.iter().map(move |&(wl, on_nuca)| (wl, on_nuca, g)))
        .collect();
    let failures: Vec<String> = parallel_map(items, num_threads(), |(wl, on_nuca, g)| {
        let image = wl.build_trips(Quality::Hand).expect("compiles").image;
        let mut cfg = CoreConfig { check_invariants: true, ..CoreConfig::with_geometry(g) };
        if on_nuca {
            cfg.mem_backend = MemBackend::nuca_prototype();
        }
        let run = Processor::new(cfg).run(&image, MAX_CYCLES);
        run.err().map(|e| format!("{} on {}: {e}", wl.name, g.name()))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_schedule_is_pinned_cycle_for_cycle() {
    use trips_core::GatingStats;
    // The gating counters are a fingerprint of the schedule: which
    // tiles ticked on which cycles, and every jump taken. Architectural
    // equivalence cannot see a mask that merely got looser or tighter;
    // these literals can — any change to what wakes a tile, or when,
    // shows up here as a diff to review.
    let perfect = CoreConfig::prototype_pinned();
    let nuca = CoreConfig { mem_backend: MemBackend::nuca_prototype(), ..perfect.clone() };
    let pinned = [
        ("vadd", &perfect, (7_862, 12_748, 7, 3)),
        ("matrix", &perfect, (148_604, 210_766, 7, 3)),
        ("listwalk", &nuca, (106_238, 4_980_472, 66_330, 4_980)),
    ];
    for (name, cfg, (ticks_run, ticks_gated, cycles_skipped, epochs_skipped)) in pinned {
        assert_eq!(
            run(&hand_image(name), cfg.clone()).1.gating_stats(),
            GatingStats { ticks_run, ticks_gated, cycles_skipped, epochs_skipped },
            "{name}"
        );
    }
}

#[test]
fn epoch_skipping_actually_skips_cycles() {
    // Sanity that the equivalence above is not vacuous. listwalk under
    // the NUCA backend is the stress case: a pointer chase whose misses
    // leave the whole core with nothing to do for the DRAM latency, so
    // the skip path must fast-forward a meaningful share of the run.
    let image = hand_image("listwalk");
    let nuca = CoreConfig { mem_backend: MemBackend::nuca_prototype(), ..CoreConfig::prototype() };
    let ((stats, ..), cpu) = run(&image, nuca.clone());
    let g = cpu.gating_stats();
    assert!(g.epochs_skipped > 0, "no epochs were skipped: {g:?}");
    let frac = g.cycles_skipped as f64 / stats.cycles as f64;
    assert!(
        frac > 0.10,
        "suspiciously little epoch skipping ({:.1}% of {} cycles): \
         wake-time folding may have regressed to always-now",
        100.0 * frac,
        stats.cycles
    );

    // Reference never gates a tile and never fast-forwards.
    let (_, oracle) = run(&image, reference(nuca));
    let r = oracle.gating_stats();
    assert_eq!(
        (r.ticks_gated, r.cycles_skipped, r.epochs_skipped),
        (0, 0, 0),
        "Reference must tick every tile of every cycle: {r:?}"
    );
}

#[test]
fn dirty_frame_walks_actually_skip_frames() {
    // Sanity that the work-list equivalence is not vacuous: on real
    // workloads the dirty-frame walks must examine strictly fewer
    // frames than the full scans do. `work_list_visits` counts frames
    // examined by the RT/DT advancement walks and the ET select walk;
    // it lives outside CoreStats so the bit-identity check above
    // never sees it.
    for name in ["matrix", "dct8x8"] {
        let image = hand_image(name);
        let dirty = run(&image, CoreConfig::prototype()).1.work_list_visits();
        let full = run(&image, reference(CoreConfig::prototype())).1.work_list_visits();
        assert!(
            dirty < full,
            "{name}: dirty-frame walks examined {dirty} frames but full scans examined \
             {full} — the work lists are vacuous"
        );
    }
}

#[test]
fn gating_actually_skips_ticks() {
    // Sanity that the equivalence above is not vacuous: on a real
    // workload the table must gate off a meaningful share of tile ticks
    // (drained tiles exist in any block-structured run).
    let (_, cpu) = run(&hand_image("matrix"), CoreConfig::prototype());
    let g = cpu.gating_stats();
    assert!(g.ticks_gated > 0, "no ticks were gated: {g:?}");
    assert!(
        g.gated_fraction() > 0.05,
        "suspiciously little gating ({:.1}%): the table may have regressed to always-due",
        100.0 * g.gated_fraction()
    );
}

#[test]
fn timed_out_runs_report_the_same_cycle_under_both_schedules() {
    use trips_core::SimError;
    // An epoch skip must not carry the clock past the caller's cycle
    // budget: a run that times out stops on the budget exactly, with
    // the same hang report, whichever schedule ran it. listwalk on
    // NUCA skips constantly, so most budgets land inside a skip.
    // (`chip_equivalence` runs the same sweep on a two-core chip.)
    let image = hand_image("listwalk");
    let nuca = CoreConfig { mem_backend: MemBackend::nuca_prototype(), ..CoreConfig::prototype() };
    let budgets: Vec<u64> = (1000..6000).step_by(37).collect();
    let failures: Vec<String> = parallel_map(budgets, num_threads(), |budget| {
        let fast = Processor::new(nuca.clone()).run(&image, budget);
        let oracle = Processor::new(reference(nuca.clone())).run(&image, budget);
        let mut errs = Vec::new();
        if !matches!(fast, Err(SimError::Timeout { cycles, .. }) if cycles == budget) {
            errs.push(format!("budget {budget}: expected a timeout on the budget: {fast:?}"));
        }
        if fast != oracle {
            errs.push(format!("budget {budget}: Fast and Reference timeouts differ"));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn fat_die_full_scan_handles_the_max_frames_mask() {
    use trips_core::{CoreGeometry, MAX_FRAMES};
    // The 16-frame fat die fills `FrameMask` exactly, so the full-scan
    // constant must be computed without a shift by the type width — a
    // debug-build panic (this test runs unoptimized) and an empty mask
    // in release, where `Reference`'s walks would silently visit no
    // frames. Run the boundary die as `Reference`, which iterates the
    // all-frames mask every advancement walk, and require bit-identity
    // with `Fast`.
    let fat = CoreGeometry::fat();
    assert_eq!(fat.frames, MAX_FRAMES, "fat must pin the FrameMask boundary");
    let image = hand_image("vadd");
    let cfg = CoreConfig::with_geometry(fat);
    assert_eq!(
        run(&image, reference(cfg.clone())).0,
        run(&image, cfg).0,
        "Reference and Fast walks diverge on the fat die"
    );
}

#[test]
fn prototype_geometry_is_bit_identical_to_the_fixed_constants() {
    use trips_core::{
        CoreGeometry, ET_COLS, ET_ROWS, NUM_DTS, NUM_FRAMES, NUM_ITS, NUM_RTS, RS_PER_FRAME,
    };
    // Structural gate: every quantity the tiles, networks, and tick
    // scheduler size themselves by must reduce, at the prototype
    // point, to exactly the constants the pre-geometry code baked in.
    let g = CoreGeometry::prototype();
    assert_eq!((g.et_rows, g.et_cols), (ET_ROWS, ET_COLS));
    assert_eq!(g.frames, NUM_FRAMES);
    assert_eq!(g.rs_per_frame, RS_PER_FRAME);
    assert_eq!(g.lsq_depth, 256);
    assert_eq!(g.num_its(), NUM_ITS);
    assert_eq!(g.num_rts(), NUM_RTS);
    assert_eq!(g.num_dts(), NUM_DTS);
    assert_eq!(g.num_ets(), 16);
    assert_eq!(g.beats(), 8, "one block dispatches in eight GDN beats");
    assert_eq!(g.tile_ticks(), 30, "1 GT + 5 ITs + 4 RTs + 16 ETs + 4 DTs");
    assert_eq!((g.mesh_rows(), g.mesh_cols()), (5, 5), "the OPN is the paper's 5x5 mesh");

    // Dynamic gate: a core built from the geometry seam must be
    // bit-identical — stats, registers, memory — to the pinned
    // prototype configuration on real runs.
    let items: Vec<(Workload, Quality)> = ["vadd", "matrix", "dct8x8"]
        .into_iter()
        .map(|n| (suite::by_name(n).expect("registered"), Quality::Hand))
        .collect();
    let failures: Vec<String> = parallel_map(items, num_threads(), |(wl, quality)| {
        let image = wl.build_trips(quality).expect("compiles").image;
        let run = |cfg: CoreConfig| {
            let mut cpu = Processor::new(cfg);
            let stats = cpu.run(&image, MAX_CYCLES).expect("halts");
            let regs: Vec<u64> = (0..128).map(|r| cpu.arch_reg(ArchReg::new(r))).collect();
            let mem = cpu.memory().clone();
            (stats, regs, mem)
        };
        let seam = run(CoreConfig::with_geometry(CoreGeometry::prototype()));
        let pinned = run(CoreConfig::prototype_pinned());
        let mut errs = Vec::new();
        if seam.0 != pinned.0 {
            errs.push(format!(
                "{}: CoreStats diverge\n  geometry seam: {:?}\n  pinned consts: {:?}",
                wl.name, seam.0, pinned.0
            ));
        }
        if seam.1 != pinned.1 || seam.2 != pinned.2 {
            errs.push(format!("{}: architectural state diverges", wl.name));
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "the geometry seam changed prototype behaviour:\n{}",
        failures.join("\n")
    );
}
