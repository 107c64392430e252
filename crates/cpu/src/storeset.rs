//! StoreSet memory-dependence predictor (Chrysos & Emer, ISCA '98).
//!
//! Table I lists StoreSet as the memory-dependence predictor. Loads that have
//! historically conflicted with a store are steered to wait for that store;
//! everything else speculates past unresolved stores, and a mis-speculation
//! (detected when the store's address resolves) trains the tables.
//!
//! Structure: the SSIT maps a PC to a store-set id; the LFST maps a store-set
//! id to the most recently dispatched in-flight store of that set.

use row_common::ids::Pc;
use row_common::persist::{decode_sparse, encode_sparse, Persist, PersistError, Reader, Writer};

const SSIT_BITS: usize = 10; // 1024 entries
const MAX_SETS: usize = 256;

/// StoreSet predictor state.
///
/// # Example
/// ```
/// use row_common::ids::Pc;
/// use row_cpu::storeset::StoreSets;
///
/// let mut ss = StoreSets::new();
/// let (ld, st) = (Pc::new(0x10), Pc::new(0x20));
/// assert!(ss.dependence_for_load(ld).is_none()); // untrained: speculate
/// ss.train_violation(ld, st);
/// ss.store_dispatched(st, 7);
/// assert_eq!(ss.dependence_for_load(ld), Some(7)); // now waits for store 7
/// ```
#[derive(Clone, Debug)]
pub struct StoreSets {
    ssit: Vec<Option<u16>>,
    lfst: Vec<Option<u64>>,
    next_set: u16,
}

impl StoreSets {
    /// Creates cleared tables.
    pub fn new() -> Self {
        StoreSets {
            ssit: vec![None; 1 << SSIT_BITS],
            lfst: vec![None; MAX_SETS],
            next_set: 0,
        }
    }

    fn idx(pc: Pc) -> usize {
        ((pc.raw() >> 2) as usize ^ (pc.raw() >> (2 + SSIT_BITS as u64)) as usize)
            & ((1 << SSIT_BITS) - 1)
    }

    /// Records that the store at `pc` (instruction id `uid`) was dispatched;
    /// it becomes the last fetched store of its set, if it belongs to one.
    pub fn store_dispatched(&mut self, pc: Pc, uid: u64) {
        if let Some(set) = self.ssit[Self::idx(pc)] {
            self.lfst[set as usize] = Some(uid);
        }
    }

    /// The store `uid` a load at `pc` should wait for, if any.
    pub fn dependence_for_load(&self, pc: Pc) -> Option<u64> {
        let set = self.ssit[Self::idx(pc)]?;
        self.lfst[set as usize]
    }

    /// Clears the last-fetched-store entry when the store `uid` (at `pc`)
    /// completes or retires.
    pub fn store_completed(&mut self, pc: Pc, uid: u64) {
        if let Some(set) = self.ssit[Self::idx(pc)] {
            if self.lfst[set as usize] == Some(uid) {
                self.lfst[set as usize] = None;
            }
        }
    }

    /// Trains on a memory-order violation between the load at `load_pc` and
    /// the store at `store_pc`: both are placed in the same store set.
    pub fn train_violation(&mut self, load_pc: Pc, store_pc: Pc) {
        let li = Self::idx(load_pc);
        let si = Self::idx(store_pc);
        let set = match (self.ssit[li], self.ssit[si]) {
            (Some(a), Some(b)) => {
                // Merge: both adopt the smaller id (the paper's rule).
                let s = a.min(b);
                self.ssit[li] = Some(s);
                self.ssit[si] = Some(s);
                s
            }
            (Some(a), None) => {
                self.ssit[si] = Some(a);
                a
            }
            (None, Some(b)) => {
                self.ssit[li] = Some(b);
                b
            }
            (None, None) => {
                let s = self.next_set % MAX_SETS as u16;
                self.next_set = self.next_set.wrapping_add(1);
                self.ssit[li] = Some(s);
                self.ssit[si] = Some(s);
                s
            }
        };
        let _ = set;
    }
}

impl Default for StoreSets {
    fn default() -> Self {
        StoreSets::new()
    }
}

impl Persist for StoreSets {
    // Both tables are fixed-size; only assigned entries are written.
    fn persist(&self, w: &mut Writer) {
        let ssit = self.ssit.iter().copied().enumerate();
        encode_sparse(w, &None, ssit.filter(|(_, set)| set.is_some()));
        let lfst = self.lfst.iter().copied().enumerate();
        encode_sparse(w, &None, lfst.filter(|(_, uid)| uid.is_some()));
        w.put_u16(self.next_set);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let ssit = &mut self.ssit;
        ssit.fill(None);
        decode_sparse(r, ssit.len(), &None, |i, set: Option<u16>| {
            if set.is_some_and(|s| usize::from(s) >= MAX_SETS) {
                return Err(PersistError::Corrupt("store-set id out of range"));
            }
            ssit[i] = set;
            Ok(())
        })?;
        let lfst = &mut self.lfst;
        lfst.fill(None);
        decode_sparse(r, lfst.len(), &None, |i, uid| {
            lfst[i] = uid;
            Ok(())
        })?;
        self.next_set = r.get_u16()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::persist::Codec;

    #[test]
    fn untrained_loads_speculate() {
        let ss = StoreSets::new();
        assert!(ss.dependence_for_load(Pc::new(0x44)).is_none());
    }

    #[test]
    fn violation_creates_dependence() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 42);
        assert_eq!(ss.dependence_for_load(ld), Some(42));
    }

    #[test]
    fn completion_clears_dependence() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 42);
        ss.store_completed(st, 42);
        assert!(ss.dependence_for_load(ld).is_none());
    }

    #[test]
    fn newer_store_of_same_set_supersedes() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 1);
        ss.store_dispatched(st, 2);
        assert_eq!(ss.dependence_for_load(ld), Some(2));
        // Completing the *old* incarnation must not clear the new one.
        ss.store_completed(st, 1);
        assert_eq!(ss.dependence_for_load(ld), Some(2));
    }

    #[test]
    fn sets_merge_on_shared_violations() {
        let mut ss = StoreSets::new();
        let (ld1, st1) = (Pc::new(0x10), Pc::new(0x20));
        let (ld2, st2) = (Pc::new(0x30), Pc::new(0x40));
        ss.train_violation(ld1, st1);
        ss.train_violation(ld2, st2);
        // ld1 also violates st2: the sets merge.
        ss.train_violation(ld1, st2);
        ss.store_dispatched(st2, 9);
        assert_eq!(ss.dependence_for_load(ld1), Some(9));
    }

    #[test]
    fn unrelated_pcs_stay_independent() {
        let mut ss = StoreSets::new();
        ss.train_violation(Pc::new(0x10), Pc::new(0x20));
        ss.store_dispatched(Pc::new(0x20), 1);
        assert!(ss.dependence_for_load(Pc::new(0x5000)).is_none());
    }

    /// A hand-written snapshot: SSIT entries, LFST entries, `next_set`.
    fn raw_snapshot(ssit: &[(u64, Option<u16>)], lfst: &[(u64, Option<u64>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(ssit.len());
        for &(i, set) in ssit {
            w.put_u64(i);
            set.encode(&mut w);
        }
        w.put_len(lfst.len());
        for &(i, uid) in lfst {
            w.put_u64(i);
            uid.encode(&mut w);
        }
        w.put_u16(1);
        w.into_bytes()
    }

    fn restore_from(bytes: &[u8]) -> Result<StoreSets, PersistError> {
        let mut ss = StoreSets::new();
        ss.restore(&mut Reader::new(bytes))?;
        Ok(ss)
    }

    #[test]
    fn snapshot_round_trips_trained_sets() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 42);
        let mut w = Writer::new();
        ss.persist(&mut w);
        let bytes = w.into_bytes();
        // Two SSIT entries and one LFST entry, not 1280 slots.
        assert_eq!(bytes, {
            let (li, si) = (StoreSets::idx(ld) as u64, StoreSets::idx(st) as u64);
            let mut ssit = [(li, Some(0)), (si, Some(0))];
            ssit.sort();
            raw_snapshot(&ssit, &[(0, Some(42))])
        });
        assert_eq!(
            restore_from(&bytes).unwrap().dependence_for_load(ld),
            Some(42)
        );
    }

    #[test]
    fn malformed_snapshots_are_corrupt_not_panics() {
        for bytes in [
            raw_snapshot(&[(1 << SSIT_BITS, Some(0))], &[]),
            raw_snapshot(&[(4, Some(0)), (4, Some(0))], &[]),
            raw_snapshot(&[(4, Some(0)), (3, Some(0))], &[]),
            raw_snapshot(&[(4, None)], &[]),
            raw_snapshot(&[(4, Some(MAX_SETS as u16))], &[]),
            raw_snapshot(&[], &[(MAX_SETS as u64, Some(1))]),
            raw_snapshot(&[], &[(2, Some(1)), (1, Some(1))]),
            raw_snapshot(&[], &[(2, None)]),
        ] {
            assert!(matches!(
                restore_from(&bytes),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn truncated_snapshot_is_eof() {
        let bytes = raw_snapshot(&[(3, Some(1)), (9, Some(0))], &[(1, Some(77))]);
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
