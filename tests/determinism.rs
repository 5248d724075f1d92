//! The simulator must be a pure function of (image, config): rerunning
//! the same image on a reused `Processor` and running it concurrently
//! on independent threads must yield identical statistics. This is
//! what makes the parallel sweep harness sound — shards cannot
//! interfere — and what the gating-equivalence suite builds on.

use trips_core::{CoreConfig, CoreGeometry, CoreStats, Processor};
use trips_tasm::Quality;
use trips_workloads::suite;

const MAX_CYCLES: u64 = 200_000_000;

/// The die under test: the paper's, or the one `TRIPS_GEOMETRY` names
/// (CI's mini and fat lanes).
fn lane() -> CoreConfig {
    CoreConfig::with_geometry(CoreGeometry::from_env().unwrap_or_else(|e| panic!("{e}")))
}

#[test]
fn rerunning_the_same_processor_is_deterministic() {
    let wl = suite::by_name("matrix").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let mut cpu = Processor::new(lane());
    let first = cpu.run(&image, MAX_CYCLES).expect("halts");
    let second = cpu.run(&image, MAX_CYCLES).expect("halts");
    assert_eq!(first, second, "a reused Processor must fully reset between runs");
}

#[test]
fn concurrent_runs_on_separate_threads_are_deterministic() {
    let wl = suite::by_name("conv").expect("registered");
    let image = wl.build_trips(Quality::Hand).expect("compiles").image;
    let results: Vec<CoreStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let image = &image;
                scope.spawn(move || {
                    let mut cpu = Processor::new(lane());
                    cpu.run(image, MAX_CYCLES).expect("halts")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    assert_eq!(results[0], results[1], "concurrent shards must not interfere");
}
