//! The checked-in `BENCH_*.json` are gated by `git diff --exit-code`,
//! which only works if the bytes a binary writes do not depend on the
//! host: this runs the real `chipsim` with one and with two worker
//! threads and compares the files byte for byte.

use std::path::Path;
use std::process::{Command, Output};

/// Runs the built `chipsim` in a fresh temp directory, on the paper's
/// die unless `env` names another, and hands the finished process and
/// the directory to `check`.
fn chipsim<T>(
    tag: &str,
    args: &[&str],
    env: &[(&str, &str)],
    check: impl Fn(Output, &Path) -> T,
) -> T {
    let dir = std::env::temp_dir().join(format!("trips-chipsim-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_chipsim"))
        .args(args)
        // The baselines are the prototype die's (`update_baselines.sh`
        // refuses an ambient geometry), whatever lane this test runs in.
        .env_remove("TRIPS_GEOMETRY")
        .envs(env.iter().copied())
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
        chipsim(threads, &["--shared", "--smoke"], &[("TRIPS_THREADS", threads)], |out, dir| {
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
    chipsim("usage", &["--smok"], &[], |out, dir| {
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
    // A flag value the program cannot honour is refused the same way.
    let out = Command::new(env!("CARGO_BIN_EXE_tracedump"))
        .args(["--workload", "vadd", "--capacity", "0"])
        .output()
        .expect("tracedump runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tracedump"), "{out:?}");
    assert!(out.stdout.is_empty(), "tracedump traced a run for a capacity it refused");
}

#[test]
fn a_geometry_that_does_not_parse_is_a_usage_error_that_writes_nothing() {
    chipsim("bogus", &["--shared", "--smoke"], &[("TRIPS_GEOMETRY", "bogus")], |out, dir| {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("TRIPS_GEOMETRY") && stderr.contains("bogus"), "{stderr}");
        let written: Vec<_> = std::fs::read_dir(dir).expect("temp dir").collect();
        assert!(written.is_empty(), "a bad geometry still wrote {written:?}");
    });
}
