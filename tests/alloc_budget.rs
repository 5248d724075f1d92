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
//! harness's parallel threads never see each other's allocations. The
//! dies are pinned to the prototype so the counts do not follow
//! `TRIPS_GEOMETRY`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trips_core::{Chip, ChipConfig, CoreConfig, Processor};
use trips_mem::{MemConfig, SecondarySystem};
use trips_workloads::shared;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down, and an
    // allocation then is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

fn within(what: &str, got: u64, budget: u64) {
    assert!(got <= budget, "{what}: {got} allocations, budget {budget}");
    eprintln!("{what}: {got} allocations (budget {budget})");
}

#[test]
fn a_four_core_coherent_nuca_builds_within_budget() {
    let n = allocations(|| SecondarySystem::for_cores_shared(MemConfig::prototype(), 4));
    within("SecondarySystem::for_cores_shared(prototype, 4)", n, 160);
}

#[test]
fn a_prototype_core_builds_within_budget() {
    let n = allocations(|| Processor::new(CoreConfig::prototype_pinned()));
    within("Processor::new(prototype)", n, 373);
}

#[test]
fn a_second_coherent_chip_run_stays_within_budget() {
    let program = shared::pcring(4);
    let core = CoreConfig::prototype_pinned();
    let cfg = ChipConfig {
        shared_memory: true,
        ..ChipConfig::with_cores(4, core, MemConfig::prototype())
    };
    let mut chip = Chip::new(cfg);
    chip.run(&program.images, 20_000_000).expect("pcring halts");
    let n = allocations(|| chip.run(&program.images, 20_000_000).expect("pcring halts again"));
    within("the second Chip::run of pcring on 4 coherent cores", n, 5_238);
}
