//! The tile wake table: who has work, filed by whoever created it.
//!
//! TRIPS tiles have no central place to look (§3–§4): a tile acts when
//! a micronet message reaches it or one of its own timers expires. The
//! host scheduler mirrors that — instead of polling every tile's
//! inboxes every cycle, each event source *pushes* the cycle its
//! consumer must be awake into the consumer's [`WakeTable`] entry at
//! the moment it creates the event.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One due cycle per consumer: entry `i` is the earliest cycle
/// consumer `i` can act ([`WakeTable::ASLEEP`] = only a new event can
/// wake it).
///
/// A handle, cloned into every event source of one core. The entries
/// are atomics only to make the handle `Send` — a chip moves whole
/// cores, handles and all, between worker threads — and a core is
/// touched by one thread at a time with a join in between, so every
/// access is `Relaxed`.
#[derive(Debug, Clone)]
pub struct WakeTable(Arc<[AtomicU64]>);

impl WakeTable {
    /// Due since forever: the consumer can act at any cycle.
    pub const NOW: u64 = 0;
    /// No known reason to wake.
    pub const ASLEEP: u64 = u64::MAX;

    /// A table of `n` (≤ 128, the due mask's width) sleeping consumers.
    pub fn new(n: usize) -> WakeTable {
        assert!(n <= 128, "{n} consumers overflow the 128-bit due mask");
        WakeTable((0..n).map(|_| AtomicU64::new(WakeTable::ASLEEP)).collect())
    }

    /// Bit `i` set iff consumer `i` is due at `now`, and the earliest
    /// due cycle of all ([`WakeTable::ASLEEP`] if every one sleeps).
    /// Built a `u64` word per 64-entry chunk, walked from its last entry
    /// down: a compare and a one-bit shift per entry, never a variable
    /// shift of the 128-bit mask.
    pub fn due_mask(&self, now: u64) -> (u128, u64) {
        let (mut mask, mut earliest) = (0, WakeTable::ASLEEP);
        for (w, chunk) in self.0.chunks(64).enumerate() {
            let word = chunk.iter().rev().fold(0u64, |word, due| {
                let due = due.load(Relaxed);
                earliest = earliest.min(due);
                word << 1 | u64::from(due <= now)
            });
            mask |= u128::from(word) << (64 * w);
        }
        (mask, earliest)
    }

    /// Overwrites consumer `i`'s due cycle (the consumer re-filing
    /// itself from its own state).
    pub fn set(&self, i: usize, at: u64) {
        self.0[i].store(at, Relaxed);
    }

    /// Every consumer's due cycle, in index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|d| d.load(Relaxed))
    }
}

/// An event source's end of a [`WakeTable`]: which consumer sits at
/// each of the source's delivery positions (chain position, mesh
/// router, memory client).
#[derive(Debug, Clone)]
pub struct WakePort {
    table: WakeTable,
    consumer: Vec<u32>,
}

impl WakePort {
    /// A port onto `table` whose position `p` delivers to consumer
    /// `consumer[p]`.
    pub fn new(table: &WakeTable, consumer: Vec<u32>) -> WakePort {
        WakePort { table: table.clone(), consumer }
    }

    /// Announces an event deliverable at position `pos` from cycle
    /// `at`: lowers the consumer's due cycle to it.
    pub fn file(&self, pos: usize, at: u64) {
        let due = &self.table.0[self.consumer[pos] as usize];
        if at < due.load(Relaxed) {
            due.store(at, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    /// The per-entry fold `due_mask` replaced: one 128-bit shift by
    /// the entry's index per entry.
    fn per_entry(table: &WakeTable, now: u64) -> (u128, u64) {
        table.iter().enumerate().fold((0, WakeTable::ASLEEP), |(mask, earliest), (i, due)| {
            (mask | u128::from(due <= now) << i, earliest.min(due))
        })
    }

    #[test]
    fn the_due_mask_is_the_per_entry_fold_across_the_word_boundary() {
        let mut rng = Rng::new(0xd0e);
        // Every table size up to the mask's width; 12, 30 and 86 are
        // the mini, prototype and fat dies' tile counts (86 crosses
        // the word boundary).
        for n in 1..=128 {
            let table = WakeTable::new(n);
            let trials = if matches!(n, 12 | 30 | 86) { 500 } else { 50 };
            for _ in 0..trials {
                let now = match rng.range_u64(0, 4) {
                    0 => 1,
                    1 => u64::MAX - 1,
                    _ => rng.range_u64(1, u64::MAX - 1),
                };
                for i in 0..n {
                    let due = match rng.range_u64(0, 6) {
                        0 => WakeTable::NOW,
                        1 => WakeTable::ASLEEP,
                        2 => now - 1,
                        3 => now,
                        4 => now + 1,
                        _ => rng.next_u64(),
                    };
                    table.set(i, due);
                }
                assert_eq!(table.due_mask(now), per_entry(&table, now), "{n} entries at {now}");
            }
        }
    }
}
