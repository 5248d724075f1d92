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

    /// A table of `n` sleeping consumers.
    pub fn new(n: usize) -> WakeTable {
        WakeTable((0..n).map(|_| AtomicU64::new(WakeTable::ASLEEP)).collect())
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
