//! A fixed-capacity set of router indices, one bit per router.
//!
//! A mesh keeps "which routers hold anything" as a set so a tick
//! costs what is in flight, not what the die could hold. The set is
//! as many 64-bit words as the mesh needs — the 5×5 OPN fits one, the
//! fat die's 9×9 OPN and every multi-block OCN do not — and no caller
//! ever shifts a `1` by a router index, so a mesh of any size is on
//! the same path.

/// A set of router indices `0..capacity`, iterated in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RouterSet {
    words: Vec<u64>,
}

impl RouterSet {
    /// The empty set over routers `0..n`.
    pub(crate) fn with_capacity(n: usize) -> RouterSet {
        RouterSet { words: vec![0; n.div_ceil(64)] }
    }

    pub(crate) fn insert(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
    }

    pub(crate) fn remove(&mut self, r: usize) {
        self.words[r / 64] &= !(1 << (r % 64));
    }

    pub(crate) fn contains(&self, r: usize) -> bool {
        self.words[r / 64] >> (r % 64) & 1 != 0
    }

    /// How many 64-router words the set spans.
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The members of word `w` of `self ∪ other`, ascending. The
    /// iterator owns a copy of the word and borrows nothing, so the
    /// set's owner can be used mutably inside the loop.
    pub(crate) fn word_union(
        &self,
        other: Option<&RouterSet>,
        w: usize,
    ) -> impl Iterator<Item = usize> {
        let mut bits = self.words[w] | other.map_or(0, |o| o.words[w]);
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let r = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_cross_word_boundaries_in_ascending_order() {
        let mut s = RouterSet::with_capacity(130);
        assert_eq!(s.num_words(), 3);
        for r in [129, 0, 64, 63, 65, 7] {
            s.insert(r);
        }
        let members: Vec<usize> = (0..3).flat_map(|w| s.word_union(None, w)).collect();
        assert_eq!(members, [0, 7, 63, 64, 65, 129]);
        s.remove(64);
        assert!(!s.contains(64) && s.contains(63) && s.contains(65));
        assert_eq!(s.word_union(None, 1).collect::<Vec<_>>(), [65]);
    }

    #[test]
    fn word_union_visits_either_sets_members_once() {
        let mut a = RouterSet::with_capacity(80);
        let mut b = RouterSet::with_capacity(80);
        a.insert(3);
        a.insert(70);
        b.insert(3);
        b.insert(5);
        b.insert(79);
        let union: Vec<usize> =
            (0..a.num_words()).flat_map(|w| a.word_union(Some(&b), w)).collect();
        assert_eq!(union, [3, 5, 70, 79]);
    }
}
