//! Regenerates Table 3: distributed-network overheads as a percentage
//! of the program critical path, and preliminary performance of the
//! prototype versus the Alpha baseline.
//!
//! Takes no flags. Prints both halves for the whole suite and writes
//! `BENCH_table3.json` in the current directory: per program the hand
//! run's cycles, its critical-path cycles per category (they add up
//! to the final commit's cycle) and the events the recorder stored —
//! simulated quantities only, gated by `git diff`.

use trips_bench::{flags_or_exit, run_alpha, run_trips, speedup};
use trips_core::{CoreConfig, CATS};
use trips_harness::json::Object;
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::suite;

fn main() {
    let [] = flags_or_exit("table3", []);

    println!("Table 3. Network overheads and preliminary performance (model-regenerated).");
    println!("Methodology as in §5.4: perfect L2 on both machines; hand numbers use");
    println!("hand-quality source and backend, TCC numbers the compiled quality.");
    println!();

    let mut header = format!("{:<12}", "Benchmark");
    for c in CATS {
        header.push_str(&format!(" {:>9}", c.label().replace("Block ", "Blk")));
    }
    header.push_str(&format!(
        " {:>8} {:>8} {:>8} {:>8} {:>8}",
        "SpdTCC", "SpdHand", "IPCAlpha", "IPCTCC", "IPCHand"
    ));
    println!("{header}");

    // Rows are independent (workload, config) simulations; shard them
    // across host cores and print in suite order.
    let rows = parallel_map(suite::all(), num_threads(), |wl| {
        let mut row = format!("{:<12}", wl.name);
        let hand = run_trips(&wl, Quality::Hand, CoreConfig::prototype_critpath());
        let bd = hand.critpath.expect("critpath enabled");
        for c in CATS {
            row.push_str(&format!(" {:>8.2}%", 100.0 * bd.fraction(c)));
        }
        let alpha = run_alpha(&wl);
        let tcc = run_trips(&wl, Quality::Compiled, CoreConfig::prototype());
        row.push_str(&format!(
            " {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            speedup(&alpha, &tcc),
            speedup(&alpha, &hand),
            alpha.ipc(),
            tcc.ipc(),
            hand.ipc(),
        ));
        let cats =
            CATS.iter().fold(Object::default(), |o, &c| o.lit(c.label(), bd.cycles[c as usize]));
        let json = Object::default()
            .str("name", wl.name)
            .lit("cycles", hand.cycles)
            .raw("critpath", cats)
            .lit("events_stored", hand.critpath_events);
        (row, json)
    });
    let (rows, json): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    for row in rows {
        println!("{row}");
    }

    println!();
    println!("Overhead columns follow Fields et al. critical-path attribution on the");
    println!("hand-optimized runs; IFetch = instruction distribution, OPN Hops / OPN");
    println!("Cont. = operand network latency and contention, Fanout Ops = mov-tree");
    println!("execution, Blk Complete / Blk Commit = the distributed detection and");
    println!("commit protocols, Other = work a monolithic core also performs.");

    let doc = Object::default().rows("programs", json).document();
    std::fs::write("BENCH_table3.json", doc).expect("write BENCH_table3.json");
    println!("\nwrote BENCH_table3.json");
}
