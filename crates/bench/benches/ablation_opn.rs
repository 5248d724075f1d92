//! Ablation: operand-network bandwidth.
//!
//! §7 names "more operand network bandwidth" as a likely architectural
//! extension because operand hop latency and contention dominate the
//! critical path (Table 3). This bench runs communication-heavy
//! kernels with one OPN (the prototype) and with two parallel OPNs
//! and prints the simulated-cycle series.

use trips_bench::run_trips;
use trips_core::CoreConfig;
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::suite;

fn main() {
    println!("\nAblation: OPN bandwidth (simulated cycles, hand quality)");
    println!("{:<10} {:>10} {:>10} {:>8}", "bench", "1xOPN", "2xOPN", "gain");
    let names = vec!["vadd", "conv", "dct8x8", "pm", "matrix"];
    let rows = parallel_map(names, num_threads(), |name| {
        let wl = suite::by_name(name).expect("registered");
        let base = run_trips(&wl, Quality::Hand, CoreConfig::prototype());
        let wide = run_trips(
            &wl,
            Quality::Hand,
            CoreConfig { opn_networks: 2, ..CoreConfig::prototype() },
        );
        format!(
            "{:<10} {:>10} {:>10} {:>7.1}%",
            name,
            base.cycles,
            wide.cycles,
            100.0 * (base.cycles as f64 - wide.cycles as f64) / base.cycles as f64
        )
    });
    for row in rows {
        println!("{row}");
    }
}
