//! Dense bit-sets over computation ids.
//!
//! Satisfaction sets of formulas, isomorphism-class memberships and
//! reachability frontiers are all sets of [`CompId`](crate::CompId)s;
//! [`CompSet`] packs them into `u64` words so the evaluator's set algebra
//! is word-parallel.

use std::fmt;

/// A fixed-capacity set of computation indices.
///
/// # Example
///
/// ```
/// use hpl_core::CompSet;
/// let mut s = CompSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert!(s.contains(3));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CompSet {
    len: usize,
    words: Vec<u64>,
}

impl CompSet {
    /// Creates an empty set with capacity for indices `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        CompSet {
            len,
            words: vec![0; len.div_ceil(64).max(1)],
        }
    }

    /// Creates the full set `{0, …, len-1}`.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = CompSet::new(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * 64;
            if lo + 64 <= len {
                *w = u64::MAX;
            } else if lo < len {
                *w = (1u64 << (len - lo)) - 1;
            }
        }
        s
    }

    /// Creates the set `{i < len : member(i)}`, asking `member` once
    /// per index in ascending order and writing whole words.
    #[must_use]
    pub fn from_fn(len: usize, mut member: impl FnMut(usize) -> bool) -> Self {
        let mut s = CompSet::new(len);
        for (w, word) in s.words.iter_mut().enumerate() {
            let lo = w * 64;
            for i in lo..(lo + 64).min(len) {
                *word |= u64::from(member(i)) << (i - lo);
            }
        }
        s
    }

    /// The capacity (universe size) of this set.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts an index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of capacity {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes an index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of capacity {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of capacity {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no index is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &CompSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &CompSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self − other`).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &CompSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place symmetric difference (`self ⊕ other`), word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn xor_with(&mut self, other: &CompSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns `true` if every index of the capacity universe is set.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.count() == self.len
    }

    /// The backing words, least-significant index first — the word-level
    /// view batch algorithms operate on.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place complement against the capacity universe.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        // clear padding bits beyond len
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        if self.len == 0 {
            for w in &mut self.words {
                *w = 0;
            }
        }
    }

    /// Subset test `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    #[must_use]
    pub fn is_subset(&self, other: &CompSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share a member.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    #[must_use]
    pub fn intersects(&self, other: &CompSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over set members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

/// Iterator over the members of a [`CompSet`]. Produced by
/// [`CompSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a CompSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl fmt::Debug for CompSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompSet{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_full() {
        let e = CompSet::new(10);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = CompSet::full(10);
        assert_eq!(f.count(), 10);
        assert!(f.contains(9));
        let f64 = CompSet::full(64);
        assert_eq!(f64.count(), 64);
        let f65 = CompSet::full(65);
        assert_eq!(f65.count(), 65);
        assert!(f65.contains(64));
        assert_eq!(CompSet::full(0).count(), 0);
    }

    #[test]
    fn insert_remove() {
        let mut s = CompSet::new(70);
        s.insert(0);
        s.insert(69);
        assert!(s.contains(0) && s.contains(69));
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_panics() {
        let mut s = CompSet::new(4);
        s.insert(4);
    }

    #[test]
    fn set_algebra() {
        let mut a = CompSet::new(130);
        let mut b = CompSet::new(130);
        a.insert(1);
        a.insert(128);
        b.insert(128);
        b.insert(2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![128]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);

        assert!(i.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(!i.intersects(&d));
    }

    #[test]
    fn xor_and_fullness() {
        let mut a = CompSet::new(130);
        let mut b = CompSet::new(130);
        a.insert(1);
        a.insert(128);
        b.insert(128);
        b.insert(2);
        a.xor_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
        // x ⊕ x = ∅
        let mut c = CompSet::full(130);
        c.xor_with(&CompSet::full(130));
        assert!(c.is_empty());
        assert!(CompSet::full(65).is_full());
        assert!(!CompSet::new(65).is_full());
        assert!(
            CompSet::new(0).is_full(),
            "empty universe is trivially full"
        );
        assert_eq!(CompSet::new(130).words().len(), 3);
    }

    #[test]
    fn complement_respects_capacity() {
        let mut s = CompSet::new(67);
        s.insert(0);
        s.complement();
        assert_eq!(s.count(), 66);
        assert!(!s.contains(0));
        assert!(s.contains(66));
        // complement twice is identity
        s.complement();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn first_and_iter() {
        let mut s = CompSet::new(200);
        assert_eq!(s.first(), None);
        s.insert(150);
        s.insert(7);
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 150]);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut s = CompSet::new(5);
        s.insert(2);
        assert_eq!(format!("{s:?}"), "CompSet{2}");
    }

    proptest! {
        #[test]
        fn prop_count_matches_iter(indices in proptest::collection::vec(0usize..300, 0..50)) {
            let mut s = CompSet::new(300);
            for &i in &indices {
                s.insert(i);
            }
            prop_assert_eq!(s.count(), s.iter().count());
            for i in s.iter() {
                prop_assert!(indices.contains(&i));
            }
        }

        #[test]
        fn prop_union_intersection_duality(
            xs in proptest::collection::vec(0usize..128, 0..40),
            ys in proptest::collection::vec(0usize..128, 0..40),
        ) {
            let mut a = CompSet::new(128);
            let mut b = CompSet::new(128);
            for &i in &xs { a.insert(i); }
            for &i in &ys { b.insert(i); }
            // |A ∪ B| + |A ∩ B| = |A| + |B|
            let mut u = a.clone();
            u.union_with(&b);
            let mut i = a.clone();
            i.intersect_with(&b);
            prop_assert_eq!(u.count() + i.count(), a.count() + b.count());
        }
    }

    #[test]
    fn zero_capacity_set_is_coherent() {
        let mut s = CompSet::new(0);
        assert_eq!(s.capacity(), 0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().next(), None);
        assert_eq!(s.first(), None);
        // the empty universe's full set is still empty
        let f = CompSet::full(0);
        assert_eq!(f.count(), 0);
        assert!(s.is_subset(&f) && f.is_subset(&s));
        s.complement();
        assert!(s.is_empty(), "complement over an empty universe is empty");
    }

    #[test]
    fn full_universe_edges_at_word_boundaries() {
        for len in [1, 63, 64, 65, 127, 128, 129] {
            let f = CompSet::full(len);
            assert_eq!(f.count(), len, "full({len})");
            assert!(f.contains(len - 1));
            assert_eq!(f.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
            let mut c = f.clone();
            c.complement();
            assert!(c.is_empty(), "complement of full({len}) must be empty");
            c.complement();
            assert_eq!(c, f, "double complement is the identity at {len}");
        }
    }

    #[test]
    fn singleton_operations() {
        let mut s = CompSet::new(130);
        s.insert(129); // last index, straddling the final partial word
        assert_eq!(s.count(), 1);
        assert_eq!(s.first(), Some(129));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
        assert!(s.intersects(&CompSet::full(130)));
        assert!(!s.intersects(&CompSet::new(130)));
        assert!(s.is_subset(&CompSet::full(130)));
        assert!(!CompSet::full(130).is_subset(&s));
        // removing the only element restores the empty set exactly
        let mut t = s.clone();
        t.remove(129);
        assert_eq!(t, CompSet::new(130));
        // duplicate insert is idempotent
        s.insert(129);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn difference_and_intersection_with_disjoint_sets() {
        let mut evens = CompSet::new(64);
        let mut odds = CompSet::new(64);
        for i in 0..64 {
            if i % 2 == 0 {
                evens.insert(i);
            } else {
                odds.insert(i);
            }
        }
        assert!(!evens.intersects(&odds));
        let mut u = evens.clone();
        u.union_with(&odds);
        assert_eq!(u, CompSet::full(64));
        let mut d = u.clone();
        d.difference_with(&odds);
        assert_eq!(d, evens);
        let mut i = evens.clone();
        i.intersect_with(&odds);
        assert!(i.is_empty());
    }
}
