//! The one set-associative tag array every cache in the model uses.

/// The empty-way marker. Every caller's tags are line indices shifted
/// right by at least six bits (NUCA line ids, DT `line / num_dts`, GT
/// `addr >> 13`), so none can reach it; [`TagStore::install`] asserts
/// as much.
const EMPTY: u64 = u64::MAX;

/// A `sets × ways` tag array with round-robin replacement, laid out as
/// the SRAM is: one dense set-major array of 8-byte tags, plus one
/// victim pointer per set.
///
/// The caller owns the hashing — it passes the set index and the tag
/// it stores — so each cache keeps its own set/tag split and this type
/// keeps only the replacement order: an install into a full set takes
/// the way under the set's pointer and advances it; a hit and a
/// [`remove`](TagStore::remove) leave the pointer where it is.
#[derive(Debug, Clone)]
pub struct TagStore {
    ways: usize,
    /// Set `s` is `tags[s * ways..][..ways]`.
    tags: Box<[u64]>,
    /// Per-set round-robin victim way (always `< ways`).
    next: Box<[u8]>,
}

impl TagStore {
    /// An empty array of `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `sets >= 1` and `ways` is in `1..=255` (the victim
    /// pointer is a `u8`).
    pub fn new(sets: usize, ways: usize) -> TagStore {
        assert!(sets >= 1, "a tag store needs at least one set");
        assert!((1..=255).contains(&ways), "ways {ways} outside 1..=255");
        TagStore { ways, tags: vec![EMPTY; sets * ways].into(), next: vec![0; sets].into() }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.next.len()
    }

    fn set(&self, set: usize) -> &[u64] {
        &self.tags[set * self.ways..][..self.ways]
    }

    /// True when `set` holds `tag`.
    pub fn contains(&self, set: usize, tag: u64) -> bool {
        self.set(set).contains(&tag)
    }

    /// Installs `tag` in `set` unless it is already there, evicting the
    /// way under the set's round-robin pointer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is the reserved empty marker `u64::MAX`.
    pub fn install(&mut self, set: usize, tag: u64) {
        assert_ne!(tag, EMPTY, "u64::MAX is the empty-way marker");
        if self.contains(set, tag) {
            return;
        }
        let way = usize::from(self.next[set]);
        self.tags[set * self.ways + way] = tag;
        self.next[set] = ((way + 1) % self.ways) as u8;
    }

    /// Empties the way holding `tag` in `set`, if any; the victim
    /// pointer does not move.
    pub fn remove(&mut self, set: usize, tag: u64) {
        if let Some(w) = self.set(set).iter().position(|&t| t == tag) {
            self.tags[set * self.ways + w] = EMPTY;
        }
    }

    /// Every held tag, set-major, then in way order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().copied().filter(|&t| t != EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    type Set = Vec<Option<u64>>;

    /// The nested-vector layout the banks, DTs and GT each carried
    /// inline before [`TagStore`]: one heap vector per set.
    struct Model {
        tags: Vec<Set>,
        lru: Vec<u8>,
    }

    impl Model {
        fn new(sets: usize, ways: usize) -> Model {
            Model { tags: vec![vec![None; ways]; sets], lru: vec![0; sets] }
        }

        fn contains(&self, set: usize, tag: u64) -> bool {
            self.tags[set].contains(&Some(tag))
        }

        fn install(&mut self, set: usize, tag: u64) {
            if self.contains(set, tag) {
                return;
            }
            let ways = self.tags[set].len();
            let way = self.lru[set] as usize % ways;
            self.tags[set][way] = Some(tag);
            self.lru[set] = (self.lru[set] + 1) % ways as u8;
        }

        fn remove(&mut self, set: usize, tag: u64) {
            if let Some(w) = self.tags[set].iter().position(|&t| t == Some(tag)) {
                self.tags[set][w] = None;
            }
        }

        fn iter(&self) -> Vec<u64> {
            self.tags.iter().flat_map(|ways| ways.iter().flatten().copied()).collect()
        }
    }

    #[test]
    fn matches_the_nested_vector_model_op_for_op() {
        for (seed, (sets, ways)) in [(1, 1), (64, 2), (256, 4), (3, 255)].into_iter().enumerate() {
            let mut rng = Rng::new(seed as u64);
            let (mut store, mut model) = (TagStore::new(sets, ways), Model::new(sets, ways));
            assert_eq!(store.sets(), sets);
            // Few enough distinct tags per set that hits, re-installs
            // and removes of held tags all happen often.
            let pool = 2 * ways as u64 + 2;
            for step in 0..20_000 {
                let set = rng.range_usize(0, sets);
                let tag = rng.range_u64(0, pool) * sets as u64 + set as u64;
                match rng.range_u64(0, 8) {
                    0..=3 => {
                        store.install(set, tag);
                        model.install(set, tag);
                    }
                    4 => {
                        store.remove(set, tag);
                        model.remove(set, tag);
                    }
                    5 => assert_eq!(store.iter().collect::<Vec<_>>(), model.iter(), "step {step}"),
                    _ => assert_eq!(store.contains(set, tag), model.contains(set, tag)),
                }
            }
            assert_eq!(store.iter().collect::<Vec<_>>(), model.iter(), "{sets}x{ways}");
        }
    }

    #[test]
    #[should_panic(expected = "empty-way marker")]
    fn the_empty_marker_cannot_be_installed() {
        TagStore::new(4, 2).install(0, u64::MAX);
    }
}
