//! Ablation: the next-block predictor (§3.1).
//!
//! Compares the full tournament exit predictor + BTB/CTB/RAS/type
//! target predictor against a degenerate always-sequential predictor
//! on the control-heavy part of the suite, where every block boundary
//! is a prediction.

use trips_bench::run_trips;
use trips_core::{CoreConfig, PredictorConfig};
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::suite;

fn main() {
    println!("\nAblation: next-block predictor (hand quality)");
    println!("{:<12} {:>12} {:>9} {:>12} {:>9}", "bench", "full:cyc", "acc", "seq:cyc", "acc");
    let names = vec!["tblook01", "197.parser", "rspeed01", "a2time01", "matrix"];
    let rows = parallel_map(names, num_threads(), |name| {
        let wl = suite::by_name(name).expect("registered");
        let full = run_trips(&wl, Quality::Hand, CoreConfig::prototype());
        let seq = run_trips(
            &wl,
            Quality::Hand,
            CoreConfig { predictor: PredictorConfig::sequential_only(), ..CoreConfig::prototype() },
        );
        format!(
            "{:<12} {:>12} {:>8.1}% {:>12} {:>8.1}%",
            name,
            full.cycles,
            100.0 * full.prediction_accuracy(),
            seq.cycles,
            100.0 * seq.prediction_accuracy(),
        )
    });
    for row in rows {
        println!("{row}");
    }
}
