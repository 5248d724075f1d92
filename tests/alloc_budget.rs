//! Heap-allocation budgets for building the machine.
//!
//! Construction cost is part of every short run: a coherent chip
//! rebuilds its NUCA on every [`Chip::run`], and a harness that sweeps
//! many small runs pays for it each time. The counts are deterministic
//! for a given toolchain — the same build does the same allocations —
//! so they are gated exactly, like `sim_cycles`: each budget is the
//! count the code makes today, and a change that allocates more fails
//! here.
//!
//! A counting global allocator keeps one count per thread, so the test
//! harness's parallel threads never see each other's allocations. It
//! also keeps each thread's live heap bytes and their high-water mark,
//! which gate a run's peak heap the same way. The budgets are the
//! paper's die's; no test here follows a geometry lane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trips_core::{Chip, ChipConfig, CoreConfig, Processor};
use trips_mem::{MemConfig, SecondarySystem};
use trips_tasm::Quality;
use trips_workloads::{shared, suite};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Signed: a block freed on another thread than its allocator's
    // lowers that thread's count.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Books one allocation that changes this thread's live heap by
/// `bytes`. `try_with`: the slots are gone while a thread tears down,
/// and an allocation then is simply not counted.
fn count(allocations: u64, bytes: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// The most heap bytes `f` holds live at once on this thread, above
/// what was live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> u64 {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    drop(f());
    (PEAK_BYTES.with(Cell::get) - before) as u64
}

/// Fails unless `got` (counted in `unit`) is within `budget`.
fn within(what: &str, got: u64, budget: u64, unit: &str) {
    assert!(got <= budget, "{what}: {got} {unit}, budget {budget}");
    eprintln!("{what}: {got} {unit} (budget {budget})");
}

#[test]
fn a_four_core_coherent_nuca_builds_within_budget() {
    let n = allocations(|| SecondarySystem::for_cores_shared(MemConfig::prototype(), 4));
    within("SecondarySystem::for_cores_shared(prototype, 4)", n, 160, "allocations");
}

#[test]
fn a_prototype_core_builds_within_budget() {
    let n = allocations(|| Processor::new(CoreConfig::prototype()));
    within("Processor::new(prototype)", n, 373, "allocations");
}

#[test]
fn a_second_coherent_chip_run_stays_within_budget() {
    let program = shared::pcring(4);
    let cfg = ChipConfig { shared_memory: true, ..ChipConfig::n_cores(4) };
    let mut chip = Chip::new(cfg);
    chip.run(&program.images, 20_000_000).expect("pcring halts");
    let n = allocations(|| chip.run(&program.images, 20_000_000).expect("pcring halts again"));
    within("the second Chip::run of pcring on 4 coherent cores", n, 4_782, "allocations");
}

/// The peak heap of one critical-path recording run of `name`'s hand code.
fn recording_run_peak(name: &str) -> u64 {
    let wl = suite::by_name(name).expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    peak_bytes(|| {
        let mut cpu = Processor::new(CoreConfig::prototype_critpath());
        cpu.run(&image, 50_000_000).expect("halts")
    })
}

/// The critical-path recorder dominates a recording run's heap. It
/// appends to one open chunk of 64 Ki 8-byte records (512 KiB) and
/// seals each full chunk into 3-byte records: 192 KiB, a 4-byte base
/// per 64 records and 12 bytes per escape. The hand run of `dct8x8`
/// stores 199 139 events, three sealed chunks and the open one: 1.1 MiB
/// of the peak, where 8 bytes a record took 2 MiB.
#[test]
fn a_recording_run_of_dct8x8_peaks_within_budget() {
    within(
        "the dct8x8 recording run's peak heap",
        recording_run_peak("dct8x8"),
        1_435_536,
        "bytes",
    );
}

/// `256.bzip2`'s recording run sets the perf ledger's `table3_repro`
/// peak: 2 209 844 events, 33 sealed chunks (one escape, the root) and
/// the open one, 6.8 MiB where 8 bytes a record took 17 MiB.
#[test]
fn a_recording_run_of_bzip2_peaks_within_budget() {
    within(
        "the 256.bzip2 recording run's peak heap",
        recording_run_peak("256.bzip2"),
        7_430_064,
        "bytes",
    );
}
