//! # trips-harness — self-contained test and bench support
//!
//! The build environment for this repository has no access to
//! crates.io, so the usual `rand`/`rayon`/`serde` stack is
//! unavailable. This crate supplies the pieces the workspace actually
//! needs, with zero dependencies:
//!
//! * [`Rng`] — a small, fast, seeded PRNG (SplitMix64) for
//!   deterministic randomized tests;
//! * [`parallel_map`] — a scoped-thread worker pool (in place of
//!   `rayon`) that shards independent simulator runs across host
//!   cores while preserving input order in the results;
//! * [`json`] — the one writer behind every JSON file the harness
//!   binaries emit.
//!
//! It times nothing: host time is measured in one place, the perf
//! ledger (`benchmark/`).

pub mod json;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use std::hint::black_box;

/// A seeded SplitMix64 PRNG.
///
/// SplitMix64 passes BigCrush, needs two lines of state transition,
/// and is more than random enough for test-input generation. The same
/// seed always yields the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `u8` in `[lo, hi)`.
    pub fn range_u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u8
    }

    /// A uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add((self.next_u64() % lo.abs_diff(hi)) as i64)
    }

    /// A uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(i64::from(lo), i64::from(hi)) as i32
    }

    /// A coin flip with probability `num/den` of `true`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.range_u64(0, den) < num
    }
}

/// Worker threads to use for [`parallel_map`]: the `TRIPS_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// host's available parallelism (1 if that cannot be determined).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("TRIPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` scoped workers and
/// returns the results **in input order**.
///
/// This is the dependency-free stand-in for `rayon`'s `par_iter().map()`:
/// a shared atomic cursor hands out work items so long-running items
/// do not serialize behind a static partition. `threads == 1` (or a
/// single item) degrades to a plain serial map with no thread or lock
/// overhead, so callers can use one code path for both modes.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    // Hand items out through Options so workers can take ownership
    // without consuming the Vec across threads.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(slots.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    return;
                }
                let item = slots[i].lock().expect("slot poisoned").take().expect("item taken once");
                let r = f(item);
                results.lock().expect("results poisoned").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("results poisoned");
    out.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(out.len(), slots.len());
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            // Uneven per-item work so completion order differs from
            // input order when threads > 1.
            let out = parallel_map(items.clone(), threads, |v| {
                if v % 3 == 0 {
                    std::thread::yield_now();
                }
                v * 2
            });
            assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u64>::new(), 8, |v| v), Vec::<u64>::new());
        assert_eq!(parallel_map(vec![9u64], 8, |v| v + 1), vec![10]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn rng_covers_small_ranges() {
        let mut r = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
