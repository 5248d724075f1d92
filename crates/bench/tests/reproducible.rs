//! The checked-in `BENCH_*.json` are gated by `git diff --exit-code`,
//! which only works if the bytes a binary writes do not depend on the
//! host: this runs the real `chipsim` with one and with two worker
//! threads and compares the files byte for byte.

use std::path::Path;
use std::process::{Command, Output};

/// Runs the built `chipsim` in a fresh temp directory and hands the
/// finished process and the directory to `check`.
fn chipsim<T>(tag: &str, args: &[&str], threads: &str, check: impl Fn(Output, &Path) -> T) -> T {
    let dir = std::env::temp_dir().join(format!("trips-chipsim-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_chipsim"))
        .args(args)
        .env("TRIPS_THREADS", threads)
        // The baselines are the prototype die's (`update_baselines.sh`
        // refuses an ambient geometry), whatever lane this test runs in.
        .env_remove("TRIPS_GEOMETRY")
        .current_dir(&dir)
        .output()
        .expect("chipsim runs");
    let checked = check(out, &dir);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    checked
}

#[test]
fn chipsim_writes_the_same_bytes_on_one_thread_and_on_two() {
    let baseline = |threads| {
        chipsim(threads, &["--shared", "--smoke"], threads, |out, dir| {
            assert!(out.status.success(), "{threads} thread(s): {out:?}");
            std::fs::read_to_string(dir.join("BENCH_coherence.json")).expect("baseline written")
        })
    };
    let (one, two) = (baseline("1"), baseline("2"));
    assert_eq!(one, two, "BENCH_coherence.json depends on TRIPS_THREADS");
    assert!(one.contains("\"geometry\": ") && one.contains("\"getms\": "), "{one}");
    for host_key in ["secs", "threads"] {
        assert!(!one.contains(host_key), "a host quantity ({host_key}) in the baseline:\n{one}");
    }
}

#[test]
fn an_unknown_flag_is_a_usage_error_that_writes_nothing() {
    chipsim("usage", &["--smok"], "1", |out, dir| {
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: chipsim"));
        assert!(!dir.join("BENCH_chipsim.json").exists(), "a mistyped flag overwrote the baseline");
    });
    // The binaries that take no argument refuse any, before printing.
    for (bin, exe) in [
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
    ] {
        let out = Command::new(exe).arg("--help").output().expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(&format!("usage: {bin}")), "{out:?}");
        assert!(out.stdout.is_empty(), "{bin} printed its table for an argument it refused");
    }
}
