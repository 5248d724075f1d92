//! # trips-benchmark — the reproducible perf ledger
//!
//! A package of its own (see `benchmark/README.md`): it times the
//! simulator crates from outside, through public functions only. One
//! run measures one workload, either with tracing off (the end-to-end
//! metrics: host throughput, simulated time, set-up time, memory) or
//! on (the per-layer metrics: spans around every call into a layer,
//! the simulator's public `TickProfile`, exact in-situ counters, and
//! isolated seeded replays of `Mesh`, `Chain`, `SecondarySystem`,
//! `parallel_map` and the block codec).
//!
//! [`manifest`] is the single source of truth for what is measured;
//! `BENCHMARK.json` at the repository root is generated from it.

pub mod host;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
