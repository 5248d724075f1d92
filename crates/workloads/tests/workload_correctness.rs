//! Every benchmark must produce identical results on all four
//! execution paths: the IR interpreter, the EDGE block interpreter
//! (both variants), the cycle-level TRIPS core, and the baseline
//! Alpha-like core.

use trips_alpha::{AlphaConfig, AlphaCore};
use trips_core::{CoreConfig, CoreGeometry, Processor, TraceKind};
use trips_harness::Rng;
use trips_isa::{decode_body_chunk, ProgramImage, Target, CHUNK_BYTES, MAX_BLOCK_BYTES};
use trips_tasm::{blockinterp, compile, interp, CODE_BASE};
use trips_workloads::{suite, Variant, Workload};

const INTERP_BUDGET: u64 = 20_000_000;
const CORE_BUDGET: u64 = 20_000_000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// What `blockinterp` commits on each Table 3 program, as (blocks,
/// insts) for [Hand, Compiled], recorded before the interpreter became
/// event-driven (PR 21). A rewrite of the oracle must reproduce every
/// row; a toolchain change that moves one regenerates
/// `BENCH_ledger.json`'s `tasm.blockinterp_blocks` with it.
const GOLDEN: [(&str, [(u64, u64); 2]); 21] = [
    ("dct8x8", [(1678, 42475), (5262, 59371)]),
    ("matrix", [(1058, 34185), (4642, 49033)]),
    ("sha", [(410, 27953), (410, 27953)]),
    ("vadd", [(34, 1961), (258, 3081)]),
    ("cfar", [(258, 15627), (2562, 30987)]),
    ("conv", [(1026, 30473), (4610, 48393)]),
    ("ct", [(194, 5927), (1090, 9511)]),
    ("genalg", [(3086, 35499), (3342, 35499)]),
    ("pm", [(386, 14800), (2247, 23583)]),
    ("qr", [(399, 12301), (887, 13653)]),
    ("svd", [(445, 16054), (893, 16500)]),
    ("a2time01", [(865, 10016), (993, 10400)]),
    ("bezier02", [(138, 8823), (266, 9335)]),
    ("basefp01", [(18, 1667), (130, 1939)]),
    ("rspeed01", [(1075, 10774), (1587, 11926)]),
    ("tblook01", [(130, 14339), (2690, 14330)]),
    ("181.mcf", [(3080, 46117), (3080, 46117)]),
    ("197.parser", [(2292, 12318), (2292, 12318)]),
    ("256.bzip2", [(64442, 389203), (64442, 389203)]),
    ("300.twolf", [(258, 27082), (2622, 20982)]),
    ("172.mgrid", [(1794, 77557), (3166, 84417)]),
];

#[test]
fn the_golden_table_covers_table_3_and_sums_to_the_ledger() {
    let names: Vec<&str> = suite::all().iter().map(|w| w.name).collect();
    assert_eq!(names, GOLDEN.map(|(name, ..)| name));
    let sum = |v: usize| GOLDEN.iter().fold((0, 0), |a, (_, r)| (a.0 + r[v].0, a.1 + r[v].1));
    let (hand, compiled) = (sum(0), sum(1));
    // `solo_compute`'s tasm.blockinterp_blocks / core.insts_committed,
    // and `table3_repro`'s tasm.blockinterp_blocks.
    assert_eq!(hand, (83_066, 835_151));
    assert_eq!((hand.0 + compiled.0, hand.1 + compiled.1), (190_537, 1_753_682));
}

/// `run_image_trace` is the divergence-triage seam: its visit order
/// is the core's committed-block order.
#[test]
fn the_oracles_visit_order_is_the_cores_commit_order() {
    let image = suite::by_name("ct").expect("registered").build_trips(Variant::Hand.quality());
    let image = image.expect("compiles").image;
    let mut visited = Vec::new();
    let r = blockinterp::run_image_trace(&image, INTERP_BUDGET, |pc| visited.push(pc));
    assert_eq!(r.expect("runs").blocks, visited.len() as u64);
    let mut cpu = Processor::new(lane());
    cpu.enable_tracing(1 << 20);
    cpu.run(&image, CORE_BUDGET).expect("runs");
    assert_eq!(cpu.tracer().dropped(), 0, "the ring must hold the whole run");
    let committed: Vec<u64> = cpu
        .tracer()
        .events()
        .filter_map(|e| match e.kind {
            TraceKind::BlockAck { pc, .. } => Some(pc),
            _ => None,
        })
        .collect();
    assert!(visited.len() > 100 && visited.iter().any(|&pc| pc != visited[1]));
    assert_eq!(visited, committed);
}

/// `run_image` is a door: whatever bytes sit at the entry, it returns
/// `Ok` or `Err`. Single-byte mutations of every suite image's code,
/// then blocks of arbitrary bytes and of arbitrary *decodable* words.
#[test]
fn run_image_never_panics() {
    let mut rng = Rng::new(0xb10c_1e77);
    for wl in suite::all() {
        for variant in [Variant::Hand, Variant::Compiled] {
            let image = wl.build_trips(variant.quality()).expect("compiles").image;
            assert!(image.segments().any(|s| s.base == CODE_BASE), "{}: code segment", wl.name);
            for _ in 0..24 {
                let mut mutant = ProgramImage::new();
                mutant.entry = image.entry;
                for seg in image.segments() {
                    let mut data = seg.data;
                    if seg.base == CODE_BASE {
                        let at = rng.range_usize(0, data.len());
                        data[at] ^= 1 << rng.range_u8(0, 8);
                    }
                    mutant.add_segment(seg.base, data);
                }
                let _ = blockinterp::run_image(&mutant, 1_000);
            }
        }
    }
    let run = |bytes: Vec<u8>| {
        let mut image = ProgramImage::new();
        image.entry = CODE_BASE;
        image.add_segment(CODE_BASE, bytes);
        let r = blockinterp::run_image(&image, 1_000);
        !matches!(r, Err(blockinterp::BlockInterpError::Decode { .. }))
    };
    for _ in 0..2_000 {
        run((0..MAX_BLOCK_BYTES).map(|_| rng.next_u32() as u8).collect());
    }
    // Word by word, keep what decodes and blank what does not, so the
    // block reaches the interpreter instead of the decoder's errors.
    let mut executed = 0;
    for _ in 0..4_000 {
        let mut bytes = vec![0u8; MAX_BLOCK_BYTES];
        for (i, word) in bytes.chunks_exact_mut(4).enumerate() {
            let mut w = rng.next_u32();
            if i < 32 {
                let targets_decode =
                    [w, w >> 9].iter().all(|&t| Target::from_bits(t as u16).is_some());
                // Bits 31:30 of header words 20 and 21 hold the body
                // chunk count; 0b01 in word 20 makes it 1 or 5.
                w = match i {
                    20 => w & 0x3fff_ffff | 0x4000_0000,
                    21 => w & 0x3fff_ffff,
                    _ => w,
                };
                if !targets_decode {
                    w &= !(1 << 23);
                }
            } else {
                // Sparse bodies get further before a double delivery.
                let mut chunk = [0u8; CHUNK_BYTES];
                chunk[..4].copy_from_slice(&w.to_le_bytes());
                if rng.chance(1, 2) || decode_body_chunk(&chunk).is_err() {
                    w = 0;
                }
            }
            word.copy_from_slice(&w.to_le_bytes());
        }
        executed += usize::from(run(bytes));
    }
    assert!(executed > 3_000, "{executed}/4000 blocks got past the decoder");
}

fn reference_cells(wl: &Workload, variant: Variant) -> (Vec<u64>, Vec<u64>) {
    let (prog, cells) = wl.ir(variant);
    let r = interp::run(&prog, INTERP_BUDGET)
        .unwrap_or_else(|e| panic!("{}: IR interp failed: {e}", wl.name));
    let vals = cells.iter().map(|&c| r.mem.read_u64(c)).collect();
    (cells, vals)
}

fn check_trips(wl: &Workload, variant: Variant) {
    let (cells, expect) = reference_cells(wl, variant);
    let q = variant.quality();
    let compiled = {
        let (prog, _) = wl.ir(variant);
        compile(&prog, q).unwrap_or_else(|e| panic!("{}({q}): compile failed: {e}", wl.name))
    };
    // Architectural block interpreter.
    let bi = blockinterp::run_image(&compiled.image, INTERP_BUDGET)
        .unwrap_or_else(|e| panic!("{}({q}): blockinterp failed: {e}", wl.name));
    for (c, e) in cells.iter().zip(&expect) {
        assert_eq!(bi.mem.read_u64(*c), *e, "{}({q}): blockinterp cell {c:#x}", wl.name);
    }
    // The memory-bound extras are not Table 3 rows.
    if let Some((_, golden)) = GOLDEN.iter().find(|(name, _)| *name == wl.name) {
        let golden = golden[usize::from(variant == Variant::Compiled)];
        assert_eq!((bi.blocks, bi.insts), golden, "{}({q}): golden (blocks, insts)", wl.name);
    }
    // Cycle-level core.
    let mut cpu = Processor::new(lane());
    let stats = cpu
        .run(&compiled.image, CORE_BUDGET)
        .unwrap_or_else(|e| panic!("{}({q}): core failed: {e}", wl.name));
    for (c, e) in cells.iter().zip(&expect) {
        assert_eq!(cpu.memory().read_u64(*c), *e, "{}({q}): core cell {c:#x}", wl.name);
    }
    assert_eq!(stats.blocks_committed, bi.blocks, "{}({q}): block counts differ", wl.name);
    assert_eq!(stats.insts_committed, bi.insts, "{}({q}): instruction counts differ", wl.name);
}

fn check_alpha(wl: &Workload) {
    let (cells, expect) = reference_cells(wl, Variant::Hand);
    let prog = wl.build_risc().unwrap_or_else(|e| panic!("{}: risc failed: {e}", wl.name));
    let mut cpu = AlphaCore::new(AlphaConfig::alpha21264(), &prog).expect("valid program");
    cpu.run(CORE_BUDGET).unwrap_or_else(|e| panic!("{}: alpha failed: {e}", wl.name));
    for (c, e) in cells.iter().zip(&expect) {
        assert_eq!(cpu.memory().read_u64(*c), *e, "{}: alpha cell {c:#x}", wl.name);
    }
}

macro_rules! workload_tests {
    ($($test:ident => $name:expr;)+) => {
        $(
            mod $test {
                use super::*;

                fn wl() -> Workload {
                    suite::by_name($name).expect("registered")
                }

                #[test]
                fn trips_hand() {
                    check_trips(&wl(), Variant::Hand);
                }

                #[test]
                fn trips_compiled() {
                    check_trips(&wl(), Variant::Compiled);
                }

                #[test]
                fn alpha() {
                    check_alpha(&wl());
                }
            }
        )+
    };
}

workload_tests! {
    dct8x8 => "dct8x8";
    matrix => "matrix";
    sha => "sha";
    vadd => "vadd";
    cfar => "cfar";
    conv => "conv";
    ct => "ct";
    genalg => "genalg";
    pm => "pm";
    qr => "qr";
    svd => "svd";
    a2time01 => "a2time01";
    bezier02 => "bezier02";
    basefp01 => "basefp01";
    rspeed01 => "rspeed01";
    tblook01 => "tblook01";
    mcf => "181.mcf";
    parser => "197.parser";
    bzip2 => "256.bzip2";
    twolf => "300.twolf";
    mgrid => "172.mgrid";
    saxpy => "saxpy";
    listwalk => "listwalk";
}
