//! A generic cycle-keyed event wheel.
//!
//! The cores, the memory system and the transport schedule completions,
//! message deliveries and retransmit timeouts at absolute cycles.
//! [`EventQueue`] is a deterministic timing wheel: events at the same cycle
//! pop in insertion order (FIFO), so simulation outcomes never depend on
//! tie-breaking.
//!
//! # Layout
//!
//! Every pending event lives in one slab of slots, each holding the item
//! and the index of the next slot in its cycle's FIFO; popped slots go on a
//! free list and are reused, so storage is bounded by the peak number of
//! pending events, never by per-cycle high-water marks.
//!
//! The near window is `WHEEL` ring buckets, one per cycle in
//! `[cur, cur + WHEEL)`; cycle `c` lives in bucket `c % WHEEL`, and each
//! bucket is a `(head, tail)` FIFO of slab indices, so a push or pop within
//! the window is O(1) with no per-event sequence numbers or heap
//! rebalancing. A 256-bit occupancy bitmap marks the non-empty buckets.
//! Events beyond the window overflow into a `BTreeMap` of FIFOs keyed by
//! absolute cycle, threaded through the same slab, and are promoted into
//! their ring bucket — two indices moved, no items copied — as the watermark
//! `cur` sweeps forward. `cur` never passes `now`, and a whole empty stretch
//! is skipped in one jump when the near window is empty, so draining a cycle
//! costs O(events) and an idle queue costs O(1) per probe.

use std::collections::BTreeMap;

use crate::clock::Cycle;
use crate::persist::{Codec, PersistError, Reader, Writer};

/// Near-window width in cycles. Covers every fixed latency in the system
/// (worst is `mem_latency` = 160, plus mesh hops); only transport
/// retransmit backoffs overflow into the far map. Power of two so the
/// bucket index is a mask.
const WHEEL: u64 = 256;

/// Words in the near window's occupancy bitmap.
const WORDS: usize = (WHEEL / 64) as usize;

/// The null slab index: end of a FIFO or of the free list.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending item (`None` while the slot is free) and the
/// next slot of its cycle's FIFO, or of the free list.
#[derive(Clone, Debug)]
struct Slot<T> {
    item: Option<T>,
    next: u32,
}

/// A FIFO of slab slots, linked through [`Slot::next`].
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// An event queue delivering items in (cycle, insertion-order) order.
///
/// # Example
/// ```
/// use row_common::{Cycle, sched::EventQueue};
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "b");
/// q.push(Cycle::new(5), "a");
/// q.push(Cycle::new(10), "c");
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("a"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("b"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("c"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// Storage of every pending event; free slots are chained from `free`.
    slab: Vec<Slot<T>>,
    free: u32,
    /// Ring of per-cycle FIFOs for cycles in `[cur, cur + WHEEL)`. Boxed so
    /// the 2 KiB ring stays out of the structs that own a queue (inline, it
    /// made `litmus` core steps ~4% slower on a 2-vCPU Xeon host).
    near: Box<[Fifo; WHEEL as usize]>,
    /// Bit `b` is set iff `near[b]` is non-empty.
    occupied: [u64; WORDS],
    /// Overflow FIFOs (never empty) for cycles `>= cur + WHEEL`, promoted
    /// as `cur` advances.
    far: BTreeMap<u64, Fifo>,
    /// Watermark: every event at a cycle `< cur` has been delivered.
    /// Invariant: `cur` never exceeds the largest `now` seen.
    cur: u64,
    len: usize,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            near: Box::new([Fifo::EMPTY; WHEEL as usize]),
            occupied: [0; WORDS],
            far: BTreeMap::new(),
            cur: 0,
            len: 0,
        }
    }

    #[inline]
    fn bucket(c: u64) -> usize {
        (c & (WHEEL - 1)) as usize
    }

    /// Stores `item` in a free slot (or a new one) and appends it to `fifo`.
    fn append(slab: &mut Vec<Slot<T>>, free: &mut u32, fifo: &mut Fifo, item: T) {
        let slot = Slot {
            item: Some(item),
            next: NIL,
        };
        let idx = if *free != NIL {
            let idx = *free;
            *free = slab[idx as usize].next;
            slab[idx as usize] = slot;
            idx
        } else {
            let idx = u32::try_from(slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            slab.push(slot);
            idx
        };
        if fifo.is_empty() {
            fifo.head = idx;
        } else {
            slab[fifo.tail as usize].next = idx;
        }
        fifo.tail = idx;
    }

    /// Installs a far FIFO in the (empty) near bucket for cycle `c`.
    fn install(&mut self, c: u64, fifo: Fifo) {
        let b = Self::bucket(c);
        debug_assert!(self.near[b].is_empty());
        self.near[b] = fifo;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Schedules `item` for delivery at cycle `at`. A cycle already behind
    /// the watermark (impossible for the simulator's `now + latency`
    /// schedules) is clamped to the watermark rather than lost.
    pub fn push(&mut self, at: Cycle, item: T) {
        let at = at.raw().max(self.cur);
        if at < self.cur + WHEEL {
            let b = Self::bucket(at);
            Self::append(&mut self.slab, &mut self.free, &mut self.near[b], item);
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            let fifo = self.far.entry(at).or_insert(Fifo::EMPTY);
            Self::append(&mut self.slab, &mut self.free, fifo, item);
        }
        self.len += 1;
    }

    /// Moves every far FIFO that now fits the near window into its ring
    /// slot. Only called when the target slots are empty: either the window
    /// advanced past them one cycle at a time, or the whole ring is empty.
    fn promote(&mut self) {
        while let Some((&k, _)) = self.far.first_key_value() {
            if k >= self.cur + WHEEL {
                break;
            }
            let fifo = self.far.remove(&k).expect("first key present");
            self.install(k, fifo);
        }
    }

    fn near_is_empty(&self) -> bool {
        self.occupied == [0; WORDS]
    }

    /// The items of `fifo`, front to back.
    fn items(&self, fifo: Fifo) -> impl Iterator<Item = &T> + '_ {
        let mut i = fifo.head;
        std::iter::from_fn(move || {
            (i != NIL).then(|| {
                let slot = &self.slab[i as usize];
                i = slot.next;
                slot.item.as_ref().expect("queued slot holds an item")
            })
        })
    }

    /// Pops the front of near bucket `b`, returning its slot to the free
    /// list.
    fn pop_front(&mut self, b: usize) -> Option<T> {
        let fifo = &mut self.near[b];
        if fifo.is_empty() {
            return None;
        }
        let idx = fifo.head;
        let slot = &mut self.slab[idx as usize];
        fifo.head = slot.next;
        if fifo.head == NIL {
            fifo.tail = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some(slot.item.take().expect("queued slot holds an item"))
    }

    /// Pops the next event whose cycle is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let now = now.raw();
        loop {
            if self.near_is_empty() {
                // Near window drained: skip the empty stretch in one jump —
                // to the first far bucket if it is due, else to `now` (never
                // past `now`, so a later same-cycle push still delivers
                // this cycle, exactly like the old heap).
                let Some((&k, _)) = self.far.first_key_value() else {
                    self.cur = self.cur.max(now);
                    return None;
                };
                if k > now {
                    if self.cur < now {
                        self.cur = now;
                        self.promote();
                    }
                    return None;
                }
                self.cur = self.cur.max(k);
                self.promote();
                continue;
            }
            if self.cur > now {
                return None;
            }
            if let Some(item) = self.pop_front(Self::bucket(self.cur)) {
                return Some(item);
            }
            if self.cur == now {
                return None;
            }
            self.cur += 1;
            // Cycle `cur + WHEEL - 1` just became representable in the slot
            // vacated above; pull it in from the far map if scheduled.
            let c = self.cur + WHEEL - 1;
            if let Some(fifo) = self.far.remove(&c) {
                self.install(c, fifo);
            }
        }
    }

    /// The first occupied near bucket at or after bucket `from`, before
    /// bucket `to`.
    fn first_occupied(&self, from: usize, to: usize) -> Option<usize> {
        let mut b = from;
        while b < to {
            let bits = self.occupied[b / 64] >> (b % 64);
            if bits != 0 {
                let hit = b + bits.trailing_zeros() as usize;
                return (hit < to).then_some(hit);
            }
            b = (b / 64 + 1) * 64;
        }
        None
    }

    /// The smallest offset `>= d` from `cur` whose near bucket is occupied.
    fn next_occupied(&self, d: u64) -> Option<u64> {
        let w = WHEEL as usize;
        let s = Self::bucket(self.cur);
        let from = s + d as usize;
        let hit = if from < w {
            self.first_occupied(from, w)
                .or_else(|| self.first_occupied(0, s).map(|b| b + w))
        } else {
            self.first_occupied(from - w, s).map(|b| b + w)
        };
        hit.map(|b| (b - s) as u64)
    }

    /// The cycle of the earliest pending event: a scan of the occupancy
    /// bitmap's 4 words, then the far map's first key. `Core::sleep_until`
    /// calls this each time an inert core goes to sleep, so it must stay
    /// cheap.
    pub fn next_cycle(&self) -> Option<Cycle> {
        match self.next_occupied(0) {
            Some(d) => Some(Cycle::new(self.cur + d)),
            None => self.far.first_key_value().map(|(&k, _)| Cycle::new(k)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots the slab holds, live or free.
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T: Codec> Codec for EventQueue<T> {
    fn encode(&self, w: &mut Writer) {
        // Encode in delivery order — ascending cycle, FIFO within a cycle —
        // the same wire format (and bytes) as the pre-wheel heap layout.
        w.put_len(self.len());
        let mut d = 0;
        while let Some(off) = self.next_occupied(d) {
            let c = Cycle::new(self.cur + off);
            for item in self.items(self.near[Self::bucket(self.cur + off)]) {
                c.encode(w);
                item.encode(w);
            }
            d = off + 1;
        }
        for (&k, &fifo) in &self.far {
            for item in self.items(fifo) {
                Cycle::new(k).encode(w);
                item.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut q = EventQueue::new();
        for _ in 0..n {
            let at = Cycle::decode(r)?;
            let item = T::decode(r)?;
            q.push(at, item);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_cycle_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(1));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(2));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(3));
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Cycle::new(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop_ready(Cycle::new(5)), Some(i));
        }
    }

    #[test]
    fn does_not_deliver_early() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), "x");
        assert_eq!(q.pop_ready(Cycle::new(9)), None);
        assert_eq!(q.next_cycle(), Some(Cycle::new(10)));
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("x"));
        assert!(q.is_empty());
    }

    #[test]
    fn codec_round_trip_preserves_delivery_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 1u64);
        q.push(Cycle::new(5), 2);
        q.push(Cycle::new(10), 3);
        q.push(Cycle::new(5), 4);
        let mut w = Writer::new();
        q.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored: EventQueue<u64> = Codec::decode(&mut Reader::new(&bytes)).unwrap();
        let mut orig = Vec::new();
        let mut rest = Vec::new();
        while let Some(v) = q.pop_ready(Cycle::new(100)) {
            orig.push(v);
        }
        while let Some(v) = restored.pop_ready(Cycle::new(100)) {
            rest.push(v);
        }
        assert_eq!(orig, rest);
        assert_eq!(orig, vec![2, 4, 1, 3]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle::new(1), ());
        q.push(Cycle::new(2), ());
        assert_eq!(q.len(), 2);
        q.pop_ready(Cycle::new(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_events_promote_across_the_window() {
        // Events far past the near window must surface in order, including
        // two far buckets and one near one.
        let mut q = EventQueue::new();
        q.push(Cycle::new(WHEEL * 3 + 7), "c");
        q.push(Cycle::new(5), "a");
        q.push(Cycle::new(WHEEL + 1), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_cycle(), Some(Cycle::new(5)));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL)), Some("a"));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL)), None);
        assert_eq!(q.next_cycle(), Some(Cycle::new(WHEEL + 1)));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL + 1)), Some("b"));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL * 4)), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_probe_then_same_cycle_push_still_delivers() {
        // The watermark must not pass `now` on an empty probe: a push at
        // the same cycle after a None must still deliver this cycle (the
        // heap behaved this way, and the mem tick loop relies on it).
        let mut q = EventQueue::new();
        assert_eq!(q.pop_ready(Cycle::new(50)), None);
        q.push(Cycle::new(50), 9);
        assert_eq!(q.pop_ready(Cycle::new(50)), Some(9));
    }

    #[test]
    fn big_now_jump_skips_empty_stretch() {
        // A restore-style jump: events decoded at large absolute cycles,
        // then probed at a large `now` — must not cost O(now) or strand
        // far buckets that fall inside the new near window.
        let mut q = EventQueue::new();
        q.push(Cycle::new(1_000_000), 1u32);
        q.push(Cycle::new(1_000_100), 2);
        q.push(Cycle::new(1_000_000 + 2 * WHEEL), 3);
        assert_eq!(q.pop_ready(Cycle::new(999_999)), None);
        assert_eq!(q.pop_ready(Cycle::new(1_000_000)), Some(1));
        assert_eq!(q.pop_ready(Cycle::new(1_000_099)), None);
        assert_eq!(q.pop_ready(Cycle::new(1_000_100)), Some(2));
        assert_eq!(q.pop_ready(Cycle::new(2_000_000)), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_near_and_far_pushes_keep_fifo_per_cycle() {
        let mut q = EventQueue::new();
        let c = WHEEL + 10;
        q.push(Cycle::new(c), 1u32); // far at push time
        let mut drained = Vec::new();
        for now in 0..=c {
            while let Some(v) = q.pop_ready(Cycle::new(now)) {
                drained.push((now, v));
            }
            if now == 20 {
                q.push(Cycle::new(c), 2); // near by then? still far-ish — same cycle, later
            }
        }
        assert_eq!(drained, vec![(c, 1), (c, 2)]);
    }

    #[test]
    fn burst_then_spread_keeps_slab_at_peak_pending() {
        // A 1000-event burst in one cycle, drained, then 4 events in each
        // of 256 consecutive cycles: the freed burst slots are reused, so
        // the slab never outgrows the peak pending count.
        let mut q = EventQueue::new();
        let mut peak = 0;
        for i in 0..1000u32 {
            q.push(Cycle::new(10), i);
            peak = peak.max(q.len());
        }
        for i in 0..1000 {
            assert_eq!(q.pop_ready(Cycle::new(10)), Some(i));
        }
        assert!(q.is_empty());
        for c in 11..11 + WHEEL {
            for i in 0..4 {
                q.push(Cycle::new(c), i);
                peak = peak.max(q.len());
            }
        }
        assert_eq!(peak, 1024);
        assert!(q.slab_len() <= peak, "slab {} > peak {peak}", q.slab_len());
        let mut n = 0;
        while q.pop_ready(Cycle::new(11 + WHEEL)).is_some() {
            n += 1;
        }
        assert_eq!(n, 1024);
        assert!(q.slab_len() <= peak);
    }

    #[test]
    fn steady_state_push_pop_does_not_grow_the_slab() {
        let mut q = EventQueue::new();
        let mut peak = 0;
        let mut round = |q: &mut EventQueue<u64>, i: u64| {
            q.push(Cycle::new(i + 1 + (i * 37) % 200), i);
            peak = peak.max(q.len());
            while q.pop_ready(Cycle::new(i)).is_some() {}
        };
        for i in 0..1000 {
            round(&mut q, i);
        }
        let warmed = q.slab_len();
        for i in 1000..11_000 {
            round(&mut q, i);
        }
        assert_eq!(q.slab_len(), warmed);
        assert!(warmed <= peak);
    }

    #[test]
    fn promoted_far_events_stay_ahead_of_later_near_pushes() {
        // Promotion by a jump (near window empty) and by the one-cycle step
        // (a near event keeps the window busy): either way the far FIFO
        // keeps its order and later pushes at the same cycle queue behind.
        for busy in [false, true] {
            let mut q = EventQueue::new();
            let c = 3 * WHEEL + 5;
            for i in 1..=3u32 {
                q.push(Cycle::new(c), i);
            }
            let mut out = Vec::new();
            for now in 0..=c {
                if busy {
                    q.push(Cycle::new(now + 1), 0);
                }
                if now == c - 10 {
                    q.push(Cycle::new(c), 4);
                    q.push(Cycle::new(c), 5);
                }
                while let Some(v) = q.pop_ready(Cycle::new(now)) {
                    if v != 0 {
                        out.push((now, v));
                    }
                }
            }
            let want: Vec<_> = (1..=5).map(|v| (c, v)).collect();
            assert_eq!(out, want, "busy={busy}");
        }
    }
}
