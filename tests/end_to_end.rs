//! Cross-crate integration tests: the toolchain, the cycle-level
//! core, the baseline, and the protocols' timing claims.

use trips::alpha::{AlphaConfig, AlphaCore};
use trips::core::{CoreConfig, Processor};
use trips::tasm::{blockinterp, compile, interp, Quality};
use trips::workloads::{suite, Variant};

/// A full four-way agreement run on a representative benchmark.
#[test]
fn four_way_agreement_on_cfar() {
    let wl = suite::by_name("cfar").expect("registered");
    let (prog, cells) = wl.ir(Variant::Hand);
    let reference = interp::run(&prog, 10_000_000).expect("ir interp");

    let compiled = compile(&prog, Quality::Hand).expect("compiles");
    let bi = blockinterp::run_image(&compiled.image, 1_000_000).expect("block interp");
    let mut cpu = Processor::new(CoreConfig::prototype());
    cpu.run(&compiled.image, 50_000_000).unwrap_or_else(|e| panic!("core: {e}"));

    let risc = wl.build_risc().expect("risc");
    let mut alpha = AlphaCore::new(AlphaConfig::alpha21264(), &risc).expect("valid");
    alpha.run(50_000_000).expect("alpha");

    for &c in &cells {
        let want = reference.mem.read_u64(c);
        assert_eq!(bi.mem.read_u64(c), want, "block interp at {c:#x}");
        assert_eq!(cpu.memory().read_u64(c), want, "core at {c:#x}");
        assert_eq!(alpha.memory().read_u64(c), want, "alpha at {c:#x}");
    }
}

/// The address space is a ring: an 8-byte store and load at
/// `0xFFFF_FFFF_FFFF_FFFC` straddle 2⁶⁴ and continue at address 0 — on
/// every engine, with the same value, and without tripping an overflow
/// check anywhere on the way (this test runs with them on: tier-1's
/// debug build and CI's `fat-overflow` lane).
#[test]
fn an_access_straddling_the_top_of_the_address_space_wraps_on_every_engine() {
    use trips::isa::Opcode;
    use trips::tasm::ProgramBuilder;
    const TOP: u64 = 0xFFFF_FFFF_FFFF_FFFC;
    const VAL: u64 = 0x1122_3344_5566_7788;
    const OUT: u64 = 0x10_0000;
    let mut p = ProgramBuilder::new();
    let mut f = p.func("main", 0);
    let top = f.iconst(TOP as i64);
    let val = f.iconst(VAL as i64);
    f.store(Opcode::Sd, top, 0, val);
    let back = f.load(Opcode::Ld, top, 0);
    let out = f.iconst(OUT as i64);
    f.store(Opcode::Sd, out, 0, back);
    f.halt();
    f.finish();
    let prog = p.finish();

    let reference = interp::run(&prog, 10_000).expect("ir interp");
    let compiled = compile(&prog, Quality::Hand).expect("compiles");
    let bi = blockinterp::run_image(&compiled.image, 10_000).expect("block interp");
    let mut cpu = Processor::new(CoreConfig::prototype());
    cpu.run(&compiled.image, 100_000).unwrap_or_else(|e| panic!("core: {e}"));
    let risc = trips::alpha::compile_risc(&prog).expect("risc");
    let mut alpha = AlphaCore::new(AlphaConfig::alpha21264(), &risc).expect("valid");
    alpha.run(100_000).expect("alpha");

    let mems = [
        ("ir", &reference.mem),
        ("blockinterp", &bi.mem),
        ("core", cpu.memory()),
        ("alpha", alpha.memory()),
    ];
    for (engine, mem) in mems {
        assert_eq!(mem.read_u64(OUT), VAL, "{engine}: the loaded value");
        assert_eq!(mem.read_uint(TOP, 4), VAL & 0xffff_ffff, "{engine}: low half below 2^64");
        assert_eq!(mem.read_uint(0, 4), VAL >> 32, "{engine}: high half wrapped to address 0");
    }
}

/// §4.1: back-to-back block fetches sustain one dispatch every eight
/// cycles, and a block's first instructions reach their tiles about
/// ten cycles after the fetch begins.
#[test]
fn fetch_protocol_cadence() {
    let wl = suite::by_name("vadd").expect("registered");
    let image = wl.build_trips(Quality::Compiled).expect("compiles").image;
    // The eight-cycle cadence is a property of the paper's 4x4 die
    // (beats = 128 insts / 16 ETs), so pin the geometry rather than
    // following TRIPS_GEOMETRY.
    let mut cpu = Processor::new(CoreConfig::prototype_pinned());
    let stats = cpu.run(&image, 10_000_000).unwrap_or_else(|e| panic!("{e}"));

    let tl = &stats.timeline;
    assert!(tl.len() >= 8, "need a stream of blocks, got {}", tl.len());
    // Dispatch commands never come closer than eight cycles apart.
    let mut deltas = Vec::new();
    for w in tl.windows(2) {
        let d = w[1].dispatch.saturating_sub(w[0].dispatch);
        assert!(d >= 8, "dispatch cadence violated: {d} cycles between blocks");
        deltas.push(d);
    }
    // In steady state the cadence reaches exactly eight.
    assert!(
        deltas.iter().filter(|&&d| d == 8).count() >= deltas.len() / 2,
        "steady-state cadence should be 8 cycles: {deltas:?}"
    );
    // The fetch pipeline in front of dispatch is five cycles
    // (2 tag + 3 predict) once caches are warm.
    let warm = &tl[4..];
    assert!(
        warm.iter().any(|t| t.dispatch - t.fetch <= 8),
        "warm fetch-to-dispatch should be a few cycles"
    );
}

/// §4.4: commits pipeline — a successor's fetch overlaps its
/// predecessor's commit round trip.
#[test]
fn commit_pipeline_overlaps() {
    let wl = suite::by_name("matrix").expect("registered");
    let image = wl.build_trips(Quality::Compiled).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    let stats = cpu.run(&image, 50_000_000).unwrap_or_else(|e| panic!("{e}"));
    let tl = &stats.timeline;
    let overlapping = tl.windows(2).filter(|w| w[1].fetch < w[0].ack).count();
    assert!(
        overlapping * 2 > tl.len(),
        "most block pairs should overlap fetch with predecessor commit"
    );
    for t in tl {
        assert!(t.fetch <= t.dispatch);
        assert!(t.dispatch < t.complete);
        assert!(t.complete <= t.commit);
        assert!(t.commit < t.ack);
    }
}

/// The §5.2 observation that the replicated LSQs are heavily
/// over-provisioned: peak occupancy stays a small fraction of the
/// 4 × 256 entries.
#[test]
fn lsq_occupancy_stays_low() {
    let wl = suite::by_name("vadd").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    let stats = cpu.run(&image, 10_000_000).unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.lsq_peak_occupancy > 0);
    assert!(
        stats.lsq_peak_occupancy <= 256 / 4 * 4,
        "peak LSQ occupancy {} should stay well under the 256-entry copies",
        stats.lsq_peak_occupancy
    );
}

/// Doubling operand-network bandwidth never hurts and usually helps
/// communication-bound kernels (the §7 extension).
#[test]
fn second_opn_does_not_hurt() {
    let wl = suite::by_name("conv").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut base = Processor::new(CoreConfig::prototype());
    let b = base.run(&image, 50_000_000).unwrap_or_else(|e| panic!("{e}"));
    let mut wide = Processor::new(CoreConfig { opn_networks: 2, ..CoreConfig::prototype() });
    let w = wide.run(&image, 50_000_000).unwrap_or_else(|e| panic!("{e}"));
    assert!(w.cycles <= b.cycles + b.cycles / 20, "2x OPN regressed: {} vs {}", w.cycles, b.cycles);
}

/// `Processor::run` fully resets per-run state: running the same
/// image twice on one processor gives identical results and stats.
#[test]
fn back_to_back_runs_reset_state() {
    let wl = suite::by_name("vadd").expect("registered");
    let (_, cells) = wl.ir(Variant::Hand);
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    let first = cpu.run(&image, 10_000_000).unwrap_or_else(|e| panic!("first: {e}"));
    let mem_first: Vec<u64> = cells.iter().map(|&c| cpu.memory().read_u64(c)).collect();
    let second = cpu.run(&image, 10_000_000).unwrap_or_else(|e| panic!("second: {e}"));
    let mem_second: Vec<u64> = cells.iter().map(|&c| cpu.memory().read_u64(c)).collect();
    assert_eq!(first.cycles, second.cycles, "stale state changed timing");
    assert_eq!(first.blocks_committed, second.blocks_committed);
    assert_eq!(mem_first, mem_second, "stale state changed results");
}

/// When the core quiesces, the flight recorder agrees: every operand
/// injected into the OPN was also ejected — and so does the
/// scheduler: "nothing left to do" (`quiesced`) and "nothing will ever
/// wake" (`next_wake() == None`) are the same statement.
#[test]
fn quiesced_core_has_balanced_opn_traffic() {
    let wl = suite::by_name("vadd").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    cpu.enable_tracing(1 << 14);
    assert!(!cpu.quiesced() && cpu.next_wake().is_some(), "a reset core is about to fetch");
    cpu.run(&image, 10_000_000).unwrap_or_else(|e| panic!("{e}"));
    assert!(cpu.drain(10_000), "halted core should drain:\n{}", cpu.diagnose());
    assert!(cpu.quiesced(), "drained core should be quiesced:\n{}", cpu.diagnose());
    assert_eq!(cpu.next_wake(), None, "a quiesced core has nothing left to wake for");
    let t = cpu.tracer();
    assert!(t.opn_injected > 0, "vadd must use the operand network");
    assert_eq!(
        t.opn_injected, t.opn_ejected,
        "quiesced core must have ejected every injected operand"
    );
    assert!(!t.is_empty(), "tracing was enabled, events expected");
}

/// A timeout carries the hang diagnosis: the report names the stuck
/// frames and where their work is held.
#[test]
fn timeout_reports_where_the_hang_is() {
    let wl = suite::by_name("matrix").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(CoreConfig::prototype());
    // Far too few cycles: the first blocks are still mid-flight.
    let err = cpu.run(&image, 30).expect_err("30 cycles cannot finish matrix");
    let text = format!("{err}");
    assert!(text.contains("timeout after 30 cycles"), "{text}");
    assert!(text.contains("frame "), "report should name a stuck frame:\n{text}");
    assert!(text.contains("waiting on"), "report should say what each frame waits on:\n{text}");
    // Something — a tile or a micronetwork — must be named as holding
    // undelivered work this early in the run.
    let names_holder = ["IT", "RT", "ET", "DT", "GDN", "OPN", "GSN", "GCN", "GRN", "DSN"]
        .iter()
        .any(|k| text.contains(k));
    assert!(names_holder, "report should name the tile/net holding work:\n{text}");
}

/// The compiled/hand quality axis behaves as the paper describes:
/// hand code has larger blocks and runs faster.
#[test]
fn hand_quality_beats_compiled() {
    for name in ["vadd", "cfar", "conv", "matrix"] {
        let wl = suite::by_name(name).expect("registered");
        let hand = wl.build_trips(Quality::Hand).expect("hand");
        let tcc = wl.build_trips(Quality::Compiled).expect("tcc");
        assert!(
            hand.stats.avg_block_size > tcc.stats.avg_block_size,
            "{name}: hand blocks should be larger"
        );
        let mut cpu = Processor::new(CoreConfig::prototype());
        let h = cpu.run(&hand.image, 100_000_000).unwrap_or_else(|e| panic!("hand run: {e}"));
        let t = cpu.run(&tcc.image, 100_000_000).unwrap_or_else(|e| panic!("tcc run: {e}"));
        assert!(h.cycles < t.cycles, "{name}: hand {} vs tcc {}", h.cycles, t.cycles);
    }
}
