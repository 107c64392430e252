//! A generic set-associative cache array with true-LRU replacement.
//!
//! The array tracks *presence* (tags) only; coherence state lives in the
//! controllers. Victim selection accepts an evictability predicate so cache
//! locking (Atomic Queue) can pin lines, exactly as the paper's AQ annotates
//! set/way to block evictions of locked lines.

use row_common::config::CacheConfig;
use row_common::ids::LineAddr;
use row_common::persist::{
    decode_sparse, encode_sparse, Codec, Persist, PersistError, Reader, Writer,
};

/// Outcome of inserting a line into a [`CacheArray`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insert {
    /// The line was already present (refreshed LRU).
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
    /// One block of `ways` words per set with storage: `line + 1` per way,
    /// 0 for an empty way.
    tags: Vec<u64>,
    /// Per way, parallel to `tags`: larger = more recently used; 0 for an
    /// empty way.
    lru: Vec<u64>,
    tick: u64,
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
            lru: Vec::new(),
            tick: 0,
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
        self.lru.resize(base + self.ways, 0);
        self.slot[set] = u32::try_from(base / self.ways + 1).expect("set count fits u32");
        base
    }

    /// Index in `tags` of `line`'s way if present.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.block(self.set_of(line))?;
        let tag = tag_of(line);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
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

    /// Looks up `line`, refreshing LRU on hit.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                self.lru[i] = self.tick;
                true
            }
            None => false,
        }
    }

    /// Inserts `line`, evicting the LRU way among those for which
    /// `evictable` returns `true`. Pinned (non-evictable) lines are never
    /// chosen as victims.
    pub fn insert(&mut self, line: LineAddr, evictable: impl Fn(LineAddr) -> bool) -> Insert {
        self.tick += 1;
        if let Some(i) = self.find(line) {
            self.lru[i] = self.tick;
            return Insert::Hit;
        }
        let base = self.storage(self.set_of(line));
        let ways = base..base + self.ways;
        let (i, result) = match self.tags[ways.clone()].iter().position(|&t| t == 0) {
            Some(w) => (base + w, Insert::Placed),
            // Every way is occupied: LRU among the evictable ones.
            None => match ways
                .filter(|&i| evictable(LineAddr::new(self.tags[i] - 1)))
                .min_by_key(|&i| self.lru[i])
            {
                Some(i) => (i, Insert::Evicted(LineAddr::new(self.tags[i] - 1))),
                None => return Insert::NoVictim,
            },
        };
        self.tags[i] = tag_of(line);
        self.lru[i] = self.tick;
        result
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some(i) => {
                self.tags[i] = 0;
                self.lru[i] = 0;
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

/// One way in a snapshot: the stored tag word and its LRU stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Way {
    tag: u64,
    lru: u64,
}

const EMPTY_WAY: Way = Way { tag: 0, lru: 0 };

impl Codec for Way {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.tag);
        w.put_u64(self.lru);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let way = Way {
            tag: r.get_u64()?,
            lru: r.get_u64()?,
        };
        if way.tag == 0 {
            return Err(PersistError::Corrupt(
                "occupied cache way with an empty tag",
            ));
        }
        Ok(way)
    }
}

impl Persist for CacheArray {
    // Geometry (sets/ways) is config-derived; only occupied ways and the
    // LRU clock are written. Ways are numbered `set * ways + way` whatever
    // order the sets got storage in, so equal contents give equal bytes.
    fn persist(&self, w: &mut Writer) {
        let ways = self.ways;
        let live = (0..self.sets)
            .filter_map(|set| self.block(set).map(|base| (set, base)))
            .flat_map(|(set, base)| {
                (0..ways).filter_map(move |way| match self.tags[base + way] {
                    0 => None,
                    tag => Some((
                        set * ways + way,
                        Way {
                            tag,
                            lru: self.lru[base + way],
                        },
                    )),
                })
            });
        encode_sparse(w, &EMPTY_WAY, live);
        w.put_u64(self.tick);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.slot.fill(0);
        self.tags.clear();
        self.lru.clear();
        decode_sparse(r, self.sets * self.ways, &EMPTY_WAY, |i, way| {
            let set = i / self.ways;
            if ((way.tag - 1) as usize) % self.sets != set {
                return Err(PersistError::Corrupt("cache line outside its set"));
            }
            let at = self.storage(set) + i % self.ways;
            self.tags[at] = way.tag;
            self.lru[at] = way.lru;
            Ok(())
        })?;
        self.tick = r.get_u64()?;
        Ok(())
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

    #[test]
    fn fresh_table_one_l3_bank_has_no_set_storage() {
        let c = CacheArray::new(row_common::config::MemoryConfig::alder_lake().l3_bank);
        assert!(c.sets() > 1000);
        assert_eq!(c.sets_with_storage(), 0);
        assert!(c.tags.capacity() == 0 && c.lru.capacity() == 0);
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
        // The missed touch still advanced the clock.
        c.insert(LineAddr::new(3), |_| true);
        assert_eq!(c.lru[0], 2);
    }

    #[test]
    fn restoring_an_empty_snapshot_gives_no_set_storage() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(1), |_| true);
        let empty = raw_snapshot(&[], 7);
        c.restore(&mut Reader::new(&empty)).unwrap();
        assert_eq!(c.sets_with_storage(), 0);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.tick, 7);
    }

    /// A hand-written snapshot of `tiny(2, 4)`: `(index, tag word, lru)`
    /// entries, then the clock.
    fn raw_snapshot(ways: &[(u64, u64, u64)], tick: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(ways.len());
        for &(i, tag, lru) in ways {
            w.put_u64(i);
            w.put_u64(tag);
            w.put_u64(lru);
        }
        w.put_u64(tick);
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
        c.insert(LineAddr::new(6), |_| true);
        c.touch(LineAddr::new(0));
        let mut w = Writer::new();
        c.persist(&mut w);
        let bytes = w.into_bytes();
        // Line 0 sits in way 0 as tag word 1; line 6 in set 2's first way.
        assert_eq!(bytes, raw_snapshot(&[(0, 1, 3), (4, 7, 2)], 3));
        let back = restore_from(&bytes).unwrap();
        assert_eq!(back.occupancy(), 2);
        assert!(back.contains(LineAddr::new(0)) && back.contains(LineAddr::new(6)));
    }

    #[test]
    fn malformed_snapshots_are_corrupt_not_panics() {
        for ways in [
            &[(8, 1, 1)][..],        // index past the last way
            &[(2, 2, 1), (2, 2, 1)], // repeated index
            &[(3, 2, 1), (1, 1, 1)], // decreasing index
            &[(1, 0, 0)],            // an explicitly encoded empty way
            &[(1, 0, 5)],            // an empty tag with a live LRU stamp
            &[(0, 2, 1)],            // line 1 stored in set 0
        ] {
            assert!(
                matches!(
                    restore_from(&raw_snapshot(ways, 9)),
                    Err(PersistError::Corrupt(_))
                ),
                "{ways:?}"
            );
        }
    }

    #[test]
    fn truncated_snapshot_is_eof() {
        let bytes = raw_snapshot(&[(0, 1, 1), (5, 7, 2)], 2);
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
