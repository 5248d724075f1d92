//! Memory tiles and network interface tiles.

use trips_micronet::Coord;

use crate::tags::TagStore;

/// Cache line size throughout the memory system.
pub const LINE: usize = 64;

/// Kilobytes per NUCA bank (§3.6).
pub const BANK_KB: usize = 64;
/// NUCA bank associativity.
pub const BANK_WAYS: usize = 4;
const _: () = assert!(BANK_WAYS >= 1 && BANK_WAYS <= 255, "the victim pointers are `u8`");
const _: () = assert!(BANK_KB * 1024 / LINE >= BANK_WAYS, "a bank holds a full set");
/// Bank access latency (tag + SRAM), in cycles.
pub const BANK_LAT: u64 = 3;

/// A 64 KB, 4-way memory tile bank with a single-entry MSHR (§3.6).
///
/// The bank holds tags only; line contents live in the backing store
/// (the standard simulator separation of timing and data). Each MT can
/// be configured as an L2 cache bank or as directly-addressed
/// scratchpad.
#[derive(Debug)]
pub struct MemTile {
    /// OCN coordinate of this bank's router.
    pub coord: Coord,
    /// True when the bank acts as scratchpad (no tags, no misses).
    pub scratchpad: bool,
    tags: TagStore,
    /// The single-entry MSHR: an outstanding miss (line id, ready).
    mshr: Option<(u64, u64)>,
    /// Accesses served.
    pub hits: u64,
    /// Misses taken to DRAM.
    pub misses: u64,
}

impl MemTile {
    /// A [`BANK_KB`] KB, [`BANK_WAYS`]-way bank at `coord`.
    pub fn new(coord: Coord) -> MemTile {
        MemTile {
            coord,
            scratchpad: false,
            tags: TagStore::new(BANK_KB * 1024 / LINE / BANK_WAYS, BANK_WAYS),
            mshr: None,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.tags.sets()
    }

    /// True when `line` is resident (scratchpad banks always hit).
    pub fn present(&self, line: u64) -> bool {
        if self.scratchpad {
            return true;
        }
        self.tags.contains(self.set_of(line), line)
    }

    /// Installs `line`, evicting its set's round-robin victim.
    pub fn install(&mut self, line: u64) {
        if !self.scratchpad {
            self.tags.install(self.set_of(line), line);
        }
    }

    /// True if the MSHR can accept a miss at `now`.
    pub fn mshr_free(&self, now: u64) -> bool {
        match self.mshr {
            None => true,
            Some((_, ready)) => ready <= now,
        }
    }

    /// Allocates the MSHR for `line`, filling at `ready`.
    pub fn mshr_alloc(&mut self, line: u64, ready: u64) {
        debug_assert!(self.mshr.is_none_or(|(_, r)| r <= ready));
        self.mshr = Some((line, ready));
    }

    /// Completes any fill due by `now`, returning the filled line.
    pub fn mshr_fill(&mut self, now: u64) -> Option<u64> {
        match self.mshr {
            Some((line, ready)) if ready <= now => {
                self.mshr = None;
                self.install(line);
                Some(line)
            }
            _ => None,
        }
    }
}

/// A network interface tile: a programmable routing table mapping an
/// address's home-bank index to an OCN coordinate (§3.6: "a
/// programmer can configure the memory system in a variety of ways").
#[derive(Debug, Clone)]
pub struct NetTile {
    /// OCN coordinate of the NT (edge of the mesh).
    pub coord: Coord,
    table: Vec<Coord>,
}

impl NetTile {
    /// An NT with a routing table over `banks` home slots.
    pub fn new(coord: Coord, table: Vec<Coord>) -> NetTile {
        NetTile { coord, table }
    }

    /// Destination router for a line address.
    pub fn route(&self, line: u64) -> Coord {
        self.table[(line as usize) % self.table.len()]
    }

    /// Reprograms the table (e.g. to split or fuse the L2).
    pub fn set_table(&mut self, table: Vec<Coord>) {
        assert!(!table.is_empty(), "routing table cannot be empty");
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_tags_and_lru() {
        let mut mt = MemTile::new(Coord { row: 1, col: 1 });
        assert!(!mt.present(5));
        mt.install(5);
        assert!(mt.present(5));
        // Fill a set beyond its ways: 64KB/64B/4 = 256 sets; lines
        // 5, 261, 517, 773, 1029 share set 5.
        for k in 1..=4u64 {
            mt.install(5 + k * 256);
        }
        assert!(!mt.present(5), "LRU evicted the first line");
    }

    #[test]
    fn scratchpad_always_hits() {
        let mut mt = MemTile::new(Coord { row: 1, col: 1 });
        mt.scratchpad = true;
        assert!(mt.present(0xdead));
    }

    #[test]
    fn single_entry_mshr() {
        let mut mt = MemTile::new(Coord { row: 1, col: 1 });
        assert!(mt.mshr_free(0));
        mt.mshr_alloc(9, 50);
        assert!(!mt.mshr_free(10));
        assert_eq!(mt.mshr_fill(49), None);
        assert_eq!(mt.mshr_fill(50), Some(9));
        assert!(mt.present(9));
        assert!(mt.mshr_free(51));
    }

    #[test]
    fn nt_routing_reprogrammable() {
        let a = Coord { row: 1, col: 1 };
        let b = Coord { row: 2, col: 2 };
        let mut nt = NetTile::new(Coord { row: 0, col: 0 }, vec![a, b]);
        assert_eq!(nt.route(0), a);
        assert_eq!(nt.route(1), b);
        nt.set_table(vec![b]);
        assert_eq!(nt.route(0), b);
    }
}
