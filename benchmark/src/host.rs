//! The host side of a measurement: guards that refuse to measure a
//! different machine than the one the ledger describes, and the
//! fingerprint recorded beside every result.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use trips_harness::black_box;

/// Environment variables the simulator crates read behind the
/// benchmark's back: `CoreConfig::prototype()` follows
/// `TRIPS_GEOMETRY` and `num_threads()` follows `TRIPS_THREADS`.
const FORBIDDEN_ENV: [&str; 2] = ["TRIPS_GEOMETRY", "TRIPS_THREADS"];

/// The `[profile.release]` keys that change generated code.
const PROFILE_KEYS: [&str; 4] = ["lto", "codegen-units", "opt-level", "debug"];

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built from).
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where span dumps and reports go (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// Refuses to run when a variable is set that would silently make the
/// simulator model a different die or use a different thread count.
///
/// # Errors
///
/// Names the offending variable.
pub fn check_env() -> Result<(), String> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: the simulator crates read it from the environment, so this run \
                 would measure a different machine than the ledger describes; unset it"
            ));
        }
    }
    Ok(())
}

/// The code-generation keys of a manifest's `[profile.release]` table,
/// in [`PROFILE_KEYS`] order (`None` = key absent, i.e. cargo's
/// default).
pub fn release_profile(manifest: &str) -> [Option<String>; 4] {
    let mut out = [None, None, None, None];
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[profile.release]";
        } else if in_table {
            if let Some((k, v)) = line.split_once('=') {
                if let Some(i) = PROFILE_KEYS.iter().position(|&p| p == k.trim()) {
                    out[i] = Some(v.trim().to_string());
                }
            }
        }
    }
    out
}

/// Fails unless `benchmark/Cargo.toml` and the root `Cargo.toml` agree
/// on every code-generation key of `[profile.release]`: the simulator
/// crates are compiled under the *benchmark's* profile, so a mismatch
/// would report the speed of a build nobody else runs.
///
/// # Errors
///
/// Names the first differing key, or the manifest that cannot be read.
pub fn check_profile() -> Result<(), String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let ours = release_profile(&read(benchmark_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(benchmark_dir().join("../Cargo.toml"))?);
    for (i, key) in PROFILE_KEYS.iter().enumerate() {
        if ours[i] != root[i] {
            return Err(format!(
                "[profile.release] {key} differs: benchmark/Cargo.toml has {:?}, the root \
                 Cargo.toml has {:?}",
                ours[i], root[i]
            ));
        }
    }
    Ok(())
}

/// Nanoseconds a fixed integer loop takes on this host, now: the
/// host-speed fingerprint. The loop is a 64-bit LCG with a
/// data-dependent branch, 50 million steps, the best of three passes.
pub fn calibration_ns() -> u64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut odd = 0u64;
            for _ in 0..50_000_000u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if x >> 63 == 1 {
                    odd += 1;
                }
            }
            black_box((x, odd));
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three passes")
}

/// `VmHWM` of this process in megabytes (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What ran the measurement.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` (the driver's
    /// checkout is not a git repository).
    pub git_head: String,
    /// Whether `git status --porcelain` listed anything.
    pub git_dirty: bool,
    /// [`calibration_ns`].
    pub calibration_ns: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(benchmark_dir()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Fingerprint {
    /// Collects the fingerprint (runs `rustc` and `git`, each to
    /// completion).
    pub fn collect() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_head: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            git_dirty: command_line("git", &["status", "--porcelain"])
                .is_some_and(|s| !s.is_empty()),
            calibration_ns: calibration_ns(),
        }
    }

    /// The fingerprint as the members of a JSON object (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\": {}, \"rustc\": \"{}\", \"git_head\": \"{}\", \"git_dirty\": {}, \
             \"calibration_ns\": {}",
            self.nproc,
            crate::json::escape(&self.rustc),
            crate::json::escape(&self.git_head),
            self.git_dirty,
            self.calibration_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let m = "[profile.dev]\nlto = false\n[profile.release] # tuned\nlto = \"thin\" # x\n\
                 codegen-units = 1\n[dependencies]\ndebug = { path = \"x\" }\n";
        assert_eq!(
            release_profile(m),
            [Some("\"thin\"".to_string()), Some("1".to_string()), None, None]
        );
        assert_eq!(release_profile("[package]\nname = \"x\"\n"), [None, None, None, None]);
    }

    #[test]
    fn this_package_and_the_root_agree() {
        check_profile().expect("profiles agree");
    }
}
