//! A generic set-associative cache array with true-LRU replacement.
//!
//! The array tracks *presence* (tags) only; coherence state lives in the
//! controllers. Victim selection accepts an evictability predicate so cache
//! locking (Atomic Queue) can pin lines, exactly as the paper's AQ annotates
//! set/way to block evictions of locked lines.

use row_common::config::CacheConfig;
use row_common::ids::LineAddr;
use row_common::persist::{decode_sparse, encode_sparse, Persist, PersistError, Reader, Writer};

/// Outcome of inserting a line into a [`CacheArray`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insert {
    /// The line was already present (now the most recently used).
    Hit,
    /// Inserted into an empty/invalid way.
    Placed,
    /// Inserted after evicting the returned victim.
    Evicted(LineAddr),
    /// Every candidate way is pinned; the line was *not* cached.
    NoVictim,
}

/// Set-associative tag array with true-LRU replacement.
///
/// Each set keeps its occupied ways in recency order: the most recently used
/// way first, the least recently used last, empty ways packed at the tail.
/// A hit or fill moves its way to the front, so the order itself is the LRU
/// state and no per-way stamp or clock is kept.
///
/// A set gets storage for its ways on its first fill; lookups and
/// invalidations of a set without storage miss without allocating. Resident
/// memory and snapshot size therefore grow with the sets a run fills, not
/// with the configured capacity.
///
/// # Example
/// ```
/// use row_common::config::CacheConfig;
/// use row_common::ids::LineAddr;
/// use row_mem::array::CacheArray;
///
/// let mut c = CacheArray::new(CacheConfig { size_bytes: 1024, ways: 2, hit_latency: 1 });
/// c.insert(LineAddr::new(1), |_| true);
/// assert!(c.contains(LineAddr::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    /// Per set: 0 while the set has no storage, else 1 + its block number.
    slot: Vec<u32>,
    /// One block of `ways` words per set with storage, most recently used
    /// first: `line + 1` per occupied way, then 0 for each empty way.
    tags: Vec<u64>,
}

/// The stored word for `line`. Line numbers are byte addresses shifted by
/// `LINE_SHIFT`, so `line + 1` never wraps to the empty word.
fn tag_of(line: LineAddr) -> u64 {
    line.raw() + 1
}

impl CacheArray {
    /// Builds an array from a geometry description. No set has storage yet.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        CacheArray {
            sets,
            ways: cfg.ways,
            slot: vec![0; sets],
            tags: Vec::new(),
        }
    }

    /// `line`'s set.
    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) % self.sets
    }

    /// Index in `tags` of the first way of `set`, if the set has storage.
    fn block(&self, set: usize) -> Option<usize> {
        match self.slot[set] {
            0 => None,
            s => Some((s as usize - 1) * self.ways),
        }
    }

    /// Index in `tags` of the first way of `set`, giving the set storage
    /// (all ways empty) if it has none.
    fn storage(&mut self, set: usize) -> usize {
        if let Some(base) = self.block(set) {
            return base;
        }
        let base = self.tags.len();
        self.tags.resize(base + self.ways, 0);
        self.slot[set] = u32::try_from(base / self.ways + 1).expect("set count fits u32");
        base
    }

    /// `(first way of its set, index in tags)` of `line`'s way if present.
    /// The scan stops at the first empty way: occupied ways are a prefix.
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let base = self.block(self.set_of(line))?;
        let tag = tag_of(line);
        self.tags[base..base + self.ways]
            .iter()
            .take_while(|&&t| t != 0)
            .position(|&t| t == tag)
            .map(|w| (base, base + w))
    }

    /// Shifts the ways `base..i` back by one, dropping way `i`, and stores
    /// `word` as the set's most recently used way.
    fn move_to_front(&mut self, base: usize, i: usize, word: u64) {
        self.tags.copy_within(base..i, base + 1);
        self.tags[base] = word;
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub const fn ways(&self) -> usize {
        self.ways
    }

    /// Whether `line` is present (does not update LRU).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Looks up `line`, making it the most recently used on hit.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some((base, i)) => {
                self.move_to_front(base, i, self.tags[i]);
                true
            }
            None => false,
        }
    }

    /// Inserts `line`, evicting the LRU way among those for which
    /// `evictable` returns `true`. Pinned (non-evictable) lines are never
    /// chosen as victims.
    pub fn insert(&mut self, line: LineAddr, evictable: impl Fn(LineAddr) -> bool) -> Insert {
        if let Some((base, i)) = self.find(line) {
            self.move_to_front(base, i, self.tags[i]);
            return Insert::Hit;
        }
        let base = self.storage(self.set_of(line));
        let ways = base..base + self.ways;
        let (i, result) = match self.tags[ways.clone()].iter().position(|&t| t == 0) {
            Some(w) => (base + w, Insert::Placed),
            // Every way is occupied: the least recent evictable one.
            None => match ways
                .rev()
                .find(|&i| evictable(LineAddr::new(self.tags[i] - 1)))
            {
                Some(i) => (i, Insert::Evicted(LineAddr::new(self.tags[i] - 1))),
                None => return Insert::NoVictim,
            },
        };
        self.move_to_front(base, i, tag_of(line));
        result
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some((base, i)) => {
                let end = base + self.ways;
                self.tags.copy_within(i + 1..end, i);
                self.tags[end - 1] = 0;
                true
            }
            None => false,
        }
    }

    /// Number of resident lines (O(sets with storage); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Number of sets that have storage (for tests/stats).
    pub fn sets_with_storage(&self) -> usize {
        self.tags.len() / self.ways
    }
}

impl Persist for CacheArray {
    // Geometry (sets/ways) is config-derived; only occupied ways are
    // written, as tag words numbered `set * ways + rank` (rank 0 = most
    // recently used) whatever order the sets got storage in, so equal
    // contents give equal bytes.
    fn persist(&self, w: &mut Writer) {
        let ways = self.ways;
        let live = (0..self.sets)
            .filter_map(|set| self.block(set).map(|base| (set, base)))
            .flat_map(|(set, base)| {
                self.tags[base..base + ways]
                    .iter()
                    .take_while(|&&t| t != 0)
                    .enumerate()
                    .map(move |(rank, &tag)| (set * ways + rank, tag))
            });
        encode_sparse(w, &0u64, live);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.slot.fill(0);
        self.tags.clear();
        // Index of the previous entry + 1: a rank past 0 must follow its
        // predecessor in the same set directly.
        let mut next = 0;
        decode_sparse(r, self.sets * self.ways, &0u64, |i, tag| {
            let (set, rank) = (i / self.ways, i % self.ways);
            if rank > 0 && next != i {
                return Err(PersistError::Corrupt(
                    "cache set with an empty way before an occupied one",
                ));
            }
            if ((tag - 1) as usize) % self.sets != set {
                return Err(PersistError::Corrupt("cache line outside its set"));
            }
            let base = self.storage(set);
            if self.tags[base..base + rank].contains(&tag) {
                return Err(PersistError::Corrupt("cache line in two ways of one set"));
            }
            self.tags[base + rank] = tag;
            next = i + 1;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, sets: usize) -> CacheArray {
        CacheArray::new(CacheConfig {
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 1,
        })
    }

    fn line_in_set(set: usize, k: u64, sets: usize) -> LineAddr {
        LineAddr::new(set as u64 + k * sets as u64)
    }

    #[test]
    fn insert_then_contains() {
        let mut c = tiny(2, 4);
        assert_eq!(c.insert(LineAddr::new(5), |_| true), Insert::Placed);
        assert!(c.contains(LineAddr::new(5)));
        assert!(!c.contains(LineAddr::new(6)));
    }

    #[test]
    fn reinsert_is_hit() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(5), |_| true);
        assert_eq!(c.insert(LineAddr::new(5), |_| true), Insert::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 4);
        let a = line_in_set(0, 0, 4);
        let b = line_in_set(0, 1, 4);
        let d = line_in_set(0, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        c.touch(a); // b is now LRU
        assert_eq!(c.insert(d, |_| true), Insert::Evicted(b));
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = tiny(2, 4);
        let a = line_in_set(1, 0, 4);
        let b = line_in_set(1, 1, 4);
        let d = line_in_set(1, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        // `a` is LRU but pinned: `b` must be evicted instead.
        assert_eq!(c.insert(d, |l| l != a), Insert::Evicted(b));
        assert!(c.contains(a));
    }

    #[test]
    fn all_pinned_yields_no_victim() {
        let mut c = tiny(2, 4);
        let a = line_in_set(2, 0, 4);
        let b = line_in_set(2, 1, 4);
        let d = line_in_set(2, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        assert_eq!(c.insert(d, |_| false), Insert::NoVictim);
        assert!(!c.contains(d));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(9), |_| true);
        assert!(c.invalidate(LineAddr::new(9)));
        assert!(!c.contains(LineAddr::new(9)));
        assert!(!c.invalidate(LineAddr::new(9)));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = tiny(2, 4);
        assert_eq!(c.occupancy(), 0);
        c.insert(LineAddr::new(1), |_| true);
        c.insert(LineAddr::new(2), |_| true);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny(1, 4);
        for k in 0..4u64 {
            assert_eq!(c.insert(LineAddr::new(k), |_| true), Insert::Placed);
        }
        assert_eq!(c.occupancy(), 4);
    }

    /// The tag words of `set`, most recently used first.
    fn order(c: &CacheArray, set: usize) -> &[u64] {
        let base = c.block(set).expect("set has storage");
        &c.tags[base..base + c.ways]
    }

    #[test]
    fn hits_and_fills_move_to_the_front_and_invalidate_closes_the_gap() {
        let mut c = tiny(4, 4);
        let [a, b, d, e] = [0, 1, 2, 3].map(|k| line_in_set(1, k, 4));
        let word = |l: LineAddr| l.raw() + 1;
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        c.insert(d, |_| true);
        assert_eq!(order(&c, 1), [word(d), word(b), word(a), 0]);
        assert!(c.touch(a));
        assert_eq!(order(&c, 1), [word(a), word(d), word(b), 0]);
        assert_eq!(c.insert(b, |_| true), Insert::Hit);
        assert_eq!(order(&c, 1), [word(b), word(a), word(d), 0]);
        assert!(c.invalidate(a));
        assert_eq!(order(&c, 1), [word(b), word(d), 0, 0]);
        c.insert(a, |_| true);
        c.insert(e, |_| true);
        assert_eq!(order(&c, 1), [word(e), word(a), word(b), word(d)]);
        // Full set: the victim is the last evictable way, here `b` because
        // `d` is pinned, and the rest keep their order.
        let f = line_in_set(1, 4, 4);
        assert_eq!(c.insert(f, |l| l != d), Insert::Evicted(b));
        assert_eq!(order(&c, 1), [word(f), word(e), word(a), word(d)]);
    }

    #[test]
    fn fresh_table_one_l3_bank_has_no_set_storage() {
        let c = CacheArray::new(row_common::config::MemoryConfig::alder_lake().l3_bank);
        assert!(c.sets() > 1000);
        assert_eq!(c.sets_with_storage(), 0);
        assert_eq!(c.tags.capacity(), 0);
    }

    #[test]
    fn a_full_table_i_l2_holds_one_tag_word_per_way_and_nothing_else() {
        let mut c = CacheArray::new(row_common::config::MemoryConfig::alder_lake().l2);
        let (sets, ways) = (c.sets(), c.ways());
        for k in 0..(sets * ways) as u64 {
            assert_eq!(c.insert(LineAddr::new(k), |_| true), Insert::Placed);
        }
        assert_eq!(c.occupancy(), sets * ways);
        assert_eq!(c.tags.len(), sets * ways);
        // Two geometry words and two vectors (set slots, tag words): no
        // second per-way array.
        assert_eq!(
            std::mem::size_of::<CacheArray>(),
            2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<Vec<u32>>()
                + std::mem::size_of::<Vec<u64>>()
        );
    }

    #[test]
    fn fills_in_distinct_sets_give_exactly_those_sets_storage() {
        let mut c = tiny(4, 64);
        for (k, set) in [9usize, 0, 63, 17, 5].into_iter().enumerate() {
            c.insert(line_in_set(set, 0, 64), |_| true);
            // A second line in the same set reuses that set's storage.
            c.insert(line_in_set(set, 1, 64), |_| true);
            assert_eq!(c.sets_with_storage(), k + 1);
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    fn misses_on_sets_without_storage_allocate_nothing() {
        let mut c = tiny(2, 4);
        assert!(!c.contains(LineAddr::new(3)));
        assert!(!c.touch(LineAddr::new(3)));
        assert!(!c.invalidate(LineAddr::new(3)));
        assert_eq!(c.sets_with_storage(), 0);
        // A missed touch in a set with storage leaves its order alone.
        c.insert(LineAddr::new(3), |_| true);
        c.insert(LineAddr::new(7), |_| true);
        assert!(!c.touch(LineAddr::new(11)));
        assert_eq!(order(&c, 3), [8, 4]);
    }

    #[test]
    fn restoring_an_empty_snapshot_gives_no_set_storage() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(1), |_| true);
        let empty = raw_snapshot(&[]);
        c.restore(&mut Reader::new(&empty)).unwrap();
        assert_eq!(c.sets_with_storage(), 0);
        assert_eq!(c.occupancy(), 0);
    }

    /// A hand-written snapshot of `tiny(2, 4)`: `(set * ways + rank, tag
    /// word)` entries.
    fn raw_snapshot(ways: &[(u64, u64)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(ways.len());
        for &(i, tag) in ways {
            w.put_u64(i);
            w.put_u64(tag);
        }
        w.into_bytes()
    }

    fn restore_from(bytes: &[u8]) -> Result<CacheArray, PersistError> {
        let mut c = tiny(2, 4);
        c.restore(&mut Reader::new(bytes))?;
        Ok(c)
    }

    #[test]
    fn snapshot_lists_only_occupied_ways_and_round_trips() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(0), |_| true);
        c.insert(LineAddr::new(4), |_| true);
        c.insert(LineAddr::new(6), |_| true);
        c.touch(LineAddr::new(0));
        let mut w = Writer::new();
        c.persist(&mut w);
        let bytes = w.into_bytes();
        // Set 0 holds line 0 (tag word 1, most recent) then line 4; line 6
        // is set 2's only way.
        assert_eq!(bytes, raw_snapshot(&[(0, 1), (1, 5), (4, 7)]));
        let mut back = restore_from(&bytes).unwrap();
        assert_eq!(back.occupancy(), 3);
        assert!(back.contains(LineAddr::new(0)) && back.contains(LineAddr::new(6)));
        // The restored order is live: line 4 is still the LRU way.
        assert_eq!(
            back.insert(LineAddr::new(8), |_| true),
            Insert::Evicted(LineAddr::new(4))
        );
    }

    #[test]
    fn malformed_snapshots_are_corrupt_not_panics() {
        for ways in [
            &[(8, 1)][..],     // index past the last way
            &[(2, 2), (2, 2)], // repeated index
            &[(3, 2), (1, 1)], // decreasing index
            &[(1, 0)],         // an explicitly encoded empty way
            &[(0, 2)],         // line 1 stored in set 0
            &[(1, 1)],         // rank 1 without rank 0
            &[(0, 1), (3, 2)], // a hole in set 1 after a full set 0
            &[(0, 1), (1, 1)], // line 0 in both ways of set 0
        ] {
            assert!(
                matches!(
                    restore_from(&raw_snapshot(ways)),
                    Err(PersistError::Corrupt(_))
                ),
                "{ways:?}"
            );
        }
    }

    #[test]
    fn truncated_snapshot_is_eof() {
        let bytes = raw_snapshot(&[(0, 1), (4, 7), (5, 3)]);
        assert!(restore_from(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert_eq!(
                restore_from(&bytes[..cut]).err(),
                Some(PersistError::UnexpectedEof),
                "cut at {cut}"
            );
        }
    }
}
