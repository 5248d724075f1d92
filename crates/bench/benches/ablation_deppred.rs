//! Ablation: the memory-side dependence predictor (§3.5).
//!
//! With the predictor disabled, every load issues aggressively and
//! every store-to-load conflict costs a full pipeline flush; with it
//! enabled, conflicting loads wait. The paper's design point (a
//! 1024-entry bit vector cleared every 10,000 blocks) sits between
//! never-stall and always-stall.

use trips_bench::run_trips;
use trips_core::CoreConfig;
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::suite;

fn main() {
    println!("\nAblation: dependence predictor (simulated cycles / violation flushes)");
    println!(
        "{:<12} {:>12} {:>8} {:>12} {:>8}",
        "bench", "on:cycles", "flush", "off:cycles", "flush"
    );
    let names = vec!["256.bzip2", "181.mcf", "sha", "300.twolf"];
    let rows = parallel_map(names, num_threads(), |name| {
        let wl = suite::by_name(name).expect("registered");
        let on = run_trips(&wl, Quality::Hand, CoreConfig::prototype());
        let off = run_trips(
            &wl,
            Quality::Hand,
            CoreConfig { deppred_disabled: true, ..CoreConfig::prototype() },
        );
        format!(
            "{:<12} {:>12} {:>8} {:>12} {:>8}",
            name, on.cycles, on.violation_flushes, off.cycles, off.violation_flushes
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!("(violations with the predictor on are first-touch training misses)");
}
