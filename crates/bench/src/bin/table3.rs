//! Regenerates Table 3: distributed-network overheads as a percentage
//! of the program critical path, and preliminary performance of the
//! prototype versus the Alpha baseline.
//!
//! Flags:
//!   --overheads   only the critical-path breakdown
//!   --perf        only the speedup/IPC columns
//!   --quick       micro + kernel suites only
//!   (default: everything)

use trips_bench::{flags_or_exit, run_alpha, run_trips, speedup};
use trips_core::{CoreConfig, CATS};
use trips_harness::{num_threads, parallel_map};
use trips_tasm::Quality;
use trips_workloads::{suite, Class};

fn main() {
    let [want_over, want_perf, quick] =
        flags_or_exit("table3", ["--overheads", "--perf", "--quick"]);
    let overheads = want_over || !want_perf;
    let perf = want_perf || !want_over;

    println!("Table 3. Network overheads and preliminary performance (model-regenerated).");
    println!("Methodology as in §5.4: perfect L2 on both machines; hand numbers use");
    println!("hand-quality source and backend, TCC numbers the compiled quality.");
    println!();

    let mut header = format!("{:<12}", "Benchmark");
    if overheads {
        for c in CATS {
            header.push_str(&format!(" {:>9}", c.label().replace("Block ", "Blk")));
        }
    }
    if perf {
        header.push_str(&format!(
            " {:>8} {:>8} {:>8} {:>8} {:>8}",
            "SpdTCC", "SpdHand", "IPCAlpha", "IPCTCC", "IPCHand"
        ));
    }
    println!("{header}");

    // Rows are independent (workload, config) simulations; shard them
    // across host cores and print in suite order.
    let rows: Vec<_> = suite::all()
        .into_iter()
        .filter(|wl| !quick || matches!(wl.class, Class::Micro | Class::Kernel))
        .collect();
    let rows = parallel_map(rows, num_threads(), |wl| {
        let mut row = format!("{:<12}", wl.name);
        let hand = run_trips(&wl, Quality::Hand, CoreConfig::prototype_critpath());
        if overheads {
            let bd = hand.critpath.as_ref().expect("critpath enabled");
            for c in CATS {
                row.push_str(&format!(" {:>8.2}%", 100.0 * bd.fraction(c)));
            }
        }
        if perf {
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
        }
        row
    });
    for row in rows {
        println!("{row}");
    }

    println!();
    println!("Overhead columns follow Fields et al. critical-path attribution on the");
    println!("hand-optimized runs; IFetch = instruction distribution, OPN Hops / OPN");
    println!("Cont. = operand network latency and contention, Fanout Ops = mov-tree");
    println!("execution, Blk Complete / Blk Commit = the distributed detection and");
    println!("commit protocols, Other = work a monolithic core also performs.");
}
