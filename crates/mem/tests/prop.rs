//! Randomized tests of the coherence protocol and cache arrays.
//!
//! The heavyweight one drives the full [`MemorySystem`] with random atomic
//! traffic from several cores (locking/unlocking through the public API) and
//! asserts linearizability of the increments plus the single-writer
//! invariant after the system drains.
//!
//! Randomness comes from the in-tree deterministic [`SplitMix64`] (the
//! original `proptest` dependency is unavailable offline); assertions are
//! unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use row_common::config::{CacheConfig, MemoryConfig, SystemConfig};
use row_common::ids::{Addr, CoreId, LineAddr};
use row_common::persist::{encode_sparse, Persist, Reader, Writer};
use row_common::rmw::RmwKind;
use row_common::rng::SplitMix64;
use row_common::Cycle;
use row_mem::array::{CacheArray, Insert};
use row_mem::directory::DirBank;
use row_mem::private::CacheAction;
use row_mem::{
    AccessKind, BlockedEntrySnapshot, BlockedPhase, DirState, Endpoint, MemEvent, MemorySystem,
    Msg, PrivState, ProtocolError, ReqMeta,
};

/// N cores perform random FAAs on a small line set, holding each lock a
/// random number of cycles. The final sum is exact and the directory /
/// private states satisfy single-writer–multiple-reader.
#[test]
fn random_rmw_traffic_is_linearizable() {
    let mut g = SplitMix64::new(0x3e3_0001);
    for _case in 0..16 {
        let cores = 2 + g.below(3) as usize;
        let lines = 1 + g.below(3);
        let ops_per_core = 5 + g.below(20);
        let hold = 1 + g.below(79);
        let seed = g.below(500);

        let mut mem = MemorySystem::new(&SystemConfig::small(cores));
        let mut rng = SplitMix64::new(seed);

        // Per-core driver state machine: Idle -> Requested -> Locked(until).
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Idle,
            Requested,
            Locked(u64),
        }
        let mut st = vec![St::Idle; cores];
        let mut done = vec![0u64; cores];
        let mut held = vec![LineAddr::new(0); cores];
        let mut req = 0u64;

        let line_of = |k: u64| LineAddr::new(0x9000 + k);
        let mut cycle = 0u64;
        while done.iter().any(|&d| d < ops_per_core) {
            assert!(cycle < 10_000_000, "driver did not converge");
            let now = Cycle::new(cycle);
            for ev in mem.tick(now) {
                if let MemEvent::Fill {
                    core,
                    kind: AccessKind::Rmw,
                    line,
                    ..
                } = ev
                {
                    let c = core.index();
                    assert!(st[c] == St::Requested);
                    // The fill auto-locked the line: do the functional RMW
                    // now and release after `hold` cycles.
                    let a = line.base_addr();
                    let v = mem.read_word(a);
                    mem.write_word(a, v + 1);
                    held[c] = line;
                    st[c] = St::Locked(cycle + 1 + rng.below(hold));
                }
            }
            for c in 0..cores {
                match st[c] {
                    St::Idle if done[c] < ops_per_core => {
                        let line = line_of(rng.below(lines));
                        req += 1;
                        mem.access(
                            CoreId::new(c as u16),
                            line,
                            ReqMeta {
                                req_id: req,
                                pc: None,
                                prefetch: false,
                                kind: AccessKind::Rmw,
                            },
                            now,
                        );
                        st[c] = St::Requested;
                    }
                    St::Locked(until) if cycle >= until => {
                        mem.unlock(CoreId::new(c as u16), held[c], now);
                        st[c] = St::Idle;
                        done[c] += 1;
                    }
                    _ => {}
                }
            }
            cycle += 1;
        }
        // Drain in-flight messages.
        for k in 0..5_000 {
            let _ = mem.tick(Cycle::new(cycle + k));
        }

        // Linearizability: every FAA applied exactly once.
        let total: u64 = (0..lines)
            .map(|k| mem.read_word(line_of(k).base_addr()))
            .sum();
        assert_eq!(total, cores as u64 * ops_per_core);

        // SWMR: one modified owner at most, never M alongside S.
        for k in 0..lines {
            let line = line_of(k);
            let owners: Vec<usize> = (0..cores)
                .filter(|&c| {
                    matches!(
                        mem.priv_state(CoreId::new(c as u16), line),
                        Some(PrivState::M) | Some(PrivState::E)
                    )
                })
                .collect();
            assert!(owners.len() <= 1, "multiple owners of {line}: {owners:?}");
            if owners.len() == 1 {
                for c in 0..cores {
                    if c != owners[0] {
                        let s = mem.priv_state(CoreId::new(c as u16), line);
                        assert!(
                            !matches!(s, Some(PrivState::S)),
                            "sharer alongside an owner at {line}"
                        );
                    }
                }
            }
            // The directory agrees there is at most one exclusive owner.
            if let DirState::Exclusive(o) = mem.dir_state(line) {
                assert!(owners.contains(&o.index()) || owners.is_empty());
            }
        }
    }
}

/// Cache arrays never exceed capacity, and inserted lines are present
/// unless every way was pinned.
#[test]
fn cache_array_capacity_and_presence() {
    let mut g = SplitMix64::new(0x3e3_0002);
    for _case in 0..64 {
        let ways = 1 + g.below(8) as usize;
        let sets = 1usize << g.below(5);
        let n = 1 + g.below(200) as usize;
        let mut c = CacheArray::new(CacheConfig {
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 1,
        });
        let mut pinned: std::collections::HashSet<LineAddr> = Default::default();
        for _ in 0..n {
            let raw = g.below(256);
            let pin = g.chance(0.5);
            let line = LineAddr::new(raw);
            if pin && pinned.len() < ways.saturating_sub(1) {
                pinned.insert(line);
            }
            let p = pinned.clone();
            let outcome = c.insert(line, |l| !p.contains(&l));
            match outcome {
                Insert::NoVictim => assert!(!c.contains(line)),
                _ => assert!(c.contains(line)),
            }
            assert!(c.occupancy() <= ways * sets);
        }
    }
}

/// The seed-era layout of a cache array, kept as a naive reference model:
/// one `Option<(line, lru)>` per way, true LRU over the evictable ways.
struct ModelArray {
    sets: usize,
    ways: usize,
    data: Vec<Option<(LineAddr, u64)>>,
    tick: u64,
}

impl ModelArray {
    fn new(sets: usize, ways: usize) -> Self {
        ModelArray {
            sets,
            ways,
            data: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set(&mut self, line: LineAddr) -> &mut [Option<(LineAddr, u64)>] {
        let s = (line.raw() % self.sets as u64) as usize;
        &mut self.data[s * self.ways..(s + 1) * self.ways]
    }

    fn contains(&mut self, line: LineAddr) -> bool {
        self.set(line)
            .iter()
            .any(|w| matches!(w, Some((l, _)) if *l == line))
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self
            .set(line)
            .iter_mut()
            .flatten()
            .find(|(l, _)| *l == line)
        {
            Some(w) => {
                w.1 = tick;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, line: LineAddr, evictable: impl Fn(LineAddr) -> bool) -> Insert {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set(line);
        if let Some(w) = set.iter_mut().flatten().find(|(l, _)| *l == line) {
            w.1 = tick;
            return Insert::Hit;
        }
        if let Some(w) = set.iter_mut().find(|w| w.is_none()) {
            *w = Some((line, tick));
            return Insert::Placed;
        }
        match set
            .iter_mut()
            .filter(|w| w.is_some_and(|(l, _)| evictable(l)))
            .min_by_key(|w| w.map(|(_, lru)| lru))
        {
            Some(w) => {
                let (old, _) = w.replace((line, tick)).expect("occupied");
                Insert::Evicted(old)
            }
            None => Insert::NoVictim,
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        match self
            .set(line)
            .iter_mut()
            .find(|w| matches!(w, Some((l, _)) if *l == line))
        {
            Some(w) => {
                *w = None;
                true
            }
            None => false,
        }
    }

    fn occupancy(&self) -> usize {
        self.data.iter().flatten().count()
    }
}

impl ModelArray {
    /// The model's snapshot: each set's occupied ways sorted by stamp,
    /// newest first, as `(set * ways + rank, line + 1)` through the sparse
    /// encoder — the bytes `CacheArray` must write for the same contents.
    fn snapshot(&self) -> Vec<u8> {
        let live = self
            .data
            .chunks(self.ways)
            .enumerate()
            .flat_map(|(set, ways)| {
                let mut occupied: Vec<(LineAddr, u64)> = ways.iter().flatten().copied().collect();
                occupied.sort_by_key(|&(_, lru)| std::cmp::Reverse(lru));
                occupied
                    .into_iter()
                    .enumerate()
                    .map(move |(rank, (l, _))| (set * self.ways + rank, l.raw() + 1))
            });
        let mut w = Writer::new();
        encode_sparse(&mut w, &0, live);
        w.into_bytes()
    }
}

fn snapshot(c: &CacheArray) -> Vec<u8> {
    let mut w = Writer::new();
    c.persist(&mut w);
    w.into_bytes()
}

/// `CacheArray` (zero-is-empty `line + 1` words in recency order, storage
/// given to a set on its first fill) matches the naive stamp-based true-LRU
/// model on seeded random insert / touch / invalidate traffic with random
/// pinning, including line 0 and line numbers near the top of the address
/// space. Sets first fill in a shuffled order, yet at random points the
/// snapshot equals the model's ways ranked by stamp and encoded sparsely; a
/// restore into a fresh array persists the same bytes and continues
/// identically; and misses never give a set storage.
#[test]
fn cache_array_matches_reference_model() {
    let mut g = SplitMix64::new(0x3e3_0004);
    for _case in 0..48 {
        let ways = 1 + g.below(6) as usize;
        let sets = 1usize << g.below(4);
        let cfg = CacheConfig {
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 1,
        };
        let mut c = CacheArray::new(cfg);
        let mut m = ModelArray::new(sets, ways);
        // A pool about twice the capacity, so hits, placements, evictions
        // and all-pinned sets all happen.
        let top = (1u64 << 58) - 1;
        let pool: Vec<LineAddr> = (0..(2 * ways * sets) as u64 + 2)
            .map(|k| match k % 3 {
                0 => LineAddr::new(k / 3),
                1 => LineAddr::new(top - k / 3),
                _ => LineAddr::new(u64::MAX - 1 - k / 3),
            })
            .collect();
        assert_eq!(pool[0], LineAddr::new(0));
        // Traffic starts by inserting the pool lines of half the sets, taken
        // in shuffled order, so sets get storage in an order unrelated to
        // their index.
        let mut order: Vec<usize> = (0..sets).collect();
        for i in (1..sets).rev() {
            order.swap(i, g.below(i as u64 + 1) as usize);
        }
        let warm: Vec<LineAddr> = order[..sets.div_ceil(2)]
            .iter()
            .flat_map(|&s| pool.iter().filter(move |l| l.raw() as usize % sets == s))
            .copied()
            .collect();
        for step in 0..400 {
            let (line, op) = match warm.get(step) {
                Some(&line) => (line, 0),
                None => (pool[g.below(pool.len() as u64) as usize], g.below(8)),
            };
            let storage = c.sets_with_storage();
            match op {
                0..=3 => {
                    // Pin a random subset of the pool for this insertion.
                    let mask = g.next_u64();
                    let pinned = |l: LineAddr| {
                        let i = pool.iter().position(|&p| p == l).expect("pool line");
                        (mask >> (i % 64)) & 3 == 0
                    };
                    let got = c.insert(line, |l| !pinned(l));
                    assert_eq!(got, m.insert(line, |l| !pinned(l)), "insert at {step}");
                    assert!(c.sets_with_storage() - storage <= 1, "insert at {step}");
                }
                4 | 5 => {
                    let hit = c.touch(line);
                    assert_eq!(hit, m.touch(line), "touch at {step}");
                    assert!(hit || c.sets_with_storage() == storage, "touch at {step}");
                }
                6 => {
                    let hit = c.invalidate(line);
                    assert_eq!(hit, m.invalidate(line), "invalidate at {step}");
                    assert!(
                        hit || c.sets_with_storage() == storage,
                        "invalidate at {step}"
                    );
                }
                _ => {
                    let bytes = snapshot(&c);
                    assert_eq!(bytes, m.snapshot(), "snapshot at {step}");
                    let mut fresh = CacheArray::new(cfg);
                    let mut r = Reader::new(&bytes);
                    fresh.restore(&mut r).expect("restore");
                    assert!(r.is_empty(), "restore consumes the snapshot");
                    assert_eq!(snapshot(&fresh), bytes, "restore -> persist at {step}");
                    // Only the sets the snapshot lists get storage.
                    let filled = (0..sets)
                        .filter(|s| m.data[s * ways..(s + 1) * ways].iter().any(Option::is_some))
                        .count();
                    assert_eq!(fresh.sets_with_storage(), filled, "restore at {step}");
                    c = fresh;
                }
            }
            let storage = c.sets_with_storage();
            assert_eq!(c.contains(line), m.contains(line), "contains at {step}");
            assert_eq!(c.sets_with_storage(), storage, "contains at {step}");
            assert_eq!(c.occupancy(), m.occupancy(), "occupancy at {step}");
        }
        for &line in &pool {
            assert_eq!(c.contains(line), m.contains(line));
        }
    }
}

/// A stable line state in [`RefDir`].
#[derive(Clone, Debug)]
enum RefStable {
    Shared(BTreeSet<CoreId>),
    Exclusive(CoreId),
}

/// `(requester, acks pending, far op)` of a transaction whose
/// invalidations are out.
type Acks = (CoreId, usize, Option<(RmwKind, u64)>);

/// A line's entry in [`RefDir`]: stable, or in a transaction that becomes
/// `next` on its `Unblock`.
#[derive(Clone, Debug)]
enum RefEntry {
    Stable(RefStable),
    Blocked {
        next: RefStable,
        acks: Option<Acks>,
        queue: VecDeque<Msg>,
    },
}

/// Reference model of one directory bank: the unblock-based MESI protocol
/// written as a single line → entry map and one match over (message,
/// state), with the same L3 slice in front of memory.
struct RefDir {
    l3: CacheArray,
    l3_lat: u64,
    mem_lat: u64,
    map: BTreeMap<LineAddr, RefEntry>,
}

impl RefDir {
    fn new(cfg: &MemoryConfig) -> Self {
        RefDir {
            l3: CacheArray::new(cfg.l3_bank),
            l3_lat: cfg.l3_bank.hit_latency,
            mem_lat: cfg.mem_latency,
            map: BTreeMap::new(),
        }
    }

    fn data_at(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        if self.l3.touch(line) {
            now + self.l3_lat
        } else {
            let _ = self.l3.insert(line, |_| true);
            now + self.l3_lat + self.mem_lat
        }
    }

    fn state(&self, line: LineAddr) -> DirState {
        match self.map.get(&line) {
            None => DirState::Uncached,
            Some(RefEntry::Stable(RefStable::Shared(s))) => DirState::Shared(s.clone()),
            Some(RefEntry::Stable(RefStable::Exclusive(o))) => DirState::Exclusive(*o),
            Some(RefEntry::Blocked { .. }) => DirState::Blocked,
        }
    }

    fn blocked_entries(&self) -> Vec<BlockedEntrySnapshot> {
        let blocked = self.map.iter().filter_map(|(&line, e)| match e {
            RefEntry::Stable(_) => None,
            RefEntry::Blocked { acks, queue, .. } => Some(BlockedEntrySnapshot {
                line,
                phase: match *acks {
                    None => BlockedPhase::AwaitUnblock,
                    Some((req, pending, far)) => BlockedPhase::CollectingAcks {
                        req,
                        pending,
                        far: far.is_some(),
                    },
                },
                queued: queue.iter().copied().collect(),
            }),
        });
        blocked.collect()
    }

    fn handle(
        &mut self,
        msg: Msg,
        now: Cycle,
        out: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let line = msg.line();
        let lookup = now + self.l3_lat;
        let send = |to: CoreId, msg: Msg| CacheAction::Send {
            to: Endpoint::Core(to),
            msg,
            at: lookup,
        };
        let data = |to: CoreId, excl: bool, at: Cycle| CacheAction::Send {
            to: Endpoint::Core(to),
            msg: Msg::Data {
                req: to,
                line,
                excl,
                from_private: false,
            },
            at,
        };
        let blocked = |next: RefStable, acks| {
            Some(RefEntry::Blocked {
                next,
                acks,
                queue: VecDeque::new(),
            })
        };
        let entry = self.map.remove(&line);
        let stable = match entry {
            Some(RefEntry::Blocked {
                next,
                acks,
                mut queue,
            }) => {
                return match (msg, acks) {
                    (Msg::Unblock { .. }, _) => {
                        self.map.insert(line, RefEntry::Stable(next));
                        self.replay(line, queue, now, out)
                    }
                    (Msg::InvAck { from, .. }, Some((_, 0, _))) => {
                        self.map
                            .insert(line, RefEntry::Blocked { next, acks, queue });
                        Err(ProtocolError::InvAckUnderflow {
                            tile: 0,
                            line,
                            from,
                        })
                    }
                    (Msg::InvAck { .. }, Some((req, 1, None))) => {
                        out.push(data(req, true, self.data_at(line, now)));
                        self.map.insert(
                            line,
                            RefEntry::Blocked {
                                next,
                                acks: None,
                                queue,
                            },
                        );
                        Ok(())
                    }
                    (Msg::InvAck { .. }, Some((req, 1, Some((rmw, req_id))))) => {
                        let at = self.data_at(line, now);
                        out.push(CacheAction::ApplyRmw {
                            req,
                            line,
                            rmw,
                            req_id,
                            at,
                        });
                        self.replay(line, queue, now, out)
                    }
                    (Msg::InvAck { .. }, Some((req, n, far))) => {
                        let acks = Some((req, n - 1, far));
                        self.map
                            .insert(line, RefEntry::Blocked { next, acks, queue });
                        Ok(())
                    }
                    (Msg::InvAck { .. }, None) => {
                        self.map
                            .insert(line, RefEntry::Blocked { next, acks, queue });
                        Ok(())
                    }
                    (other, acks) => {
                        queue.push_back(other);
                        self.map
                            .insert(line, RefEntry::Blocked { next, acks, queue });
                        Ok(())
                    }
                };
            }
            Some(RefEntry::Stable(s)) => Some(s),
            None => None,
        };
        let after = match (msg, stable) {
            (Msg::GetS { req, .. }, None) | (Msg::GetX { req, .. }, None) => {
                out.push(data(req, true, self.data_at(line, now)));
                blocked(RefStable::Exclusive(req), None)
            }
            (Msg::GetS { req, .. }, Some(RefStable::Shared(mut s))) => {
                out.push(data(req, false, self.data_at(line, now)));
                s.insert(req);
                blocked(RefStable::Shared(s), None)
            }
            (Msg::GetS { req, .. }, Some(RefStable::Exclusive(o))) => {
                out.push(send(o, Msg::FwdGetS { req, line }));
                blocked(RefStable::Shared(BTreeSet::from([o, req])), None)
            }
            (Msg::GetX { req, .. }, Some(RefStable::Shared(s))) => {
                let others: Vec<CoreId> = s.into_iter().filter(|&c| c != req).collect();
                if others.is_empty() {
                    out.push(data(req, true, self.data_at(line, now)));
                    blocked(RefStable::Exclusive(req), None)
                } else {
                    out.extend(others.iter().map(|&c| send(c, Msg::Inv { line })));
                    blocked(RefStable::Exclusive(req), Some((req, others.len(), None)))
                }
            }
            (Msg::GetX { req, .. }, Some(RefStable::Exclusive(o))) => {
                out.push(send(o, Msg::FwdGetX { req, line }));
                blocked(RefStable::Exclusive(req), None)
            }
            (Msg::PutM { from, .. }, Some(RefStable::Exclusive(o))) if o == from => {
                let _ = self.l3.insert(line, |_| true);
                out.push(send(from, Msg::WbAck { line }));
                None
            }
            (Msg::PutM { from, .. }, s) => {
                out.push(send(from, Msg::WbStale { line }));
                s.map(RefEntry::Stable)
            }
            (
                Msg::AtomicFar {
                    req, rmw, req_id, ..
                },
                None,
            ) => {
                let at = self.data_at(line, now);
                out.push(CacheAction::ApplyRmw {
                    req,
                    line,
                    rmw,
                    req_id,
                    at,
                });
                None
            }
            (
                Msg::AtomicFar {
                    req, rmw, req_id, ..
                },
                Some(s),
            ) => {
                let holders: Vec<CoreId> = match s {
                    RefStable::Shared(s) => s.into_iter().collect(),
                    RefStable::Exclusive(o) => vec![o],
                };
                out.extend(holders.iter().map(|&c| send(c, Msg::Inv { line })));
                let acks = Some((req, holders.len(), Some((rmw, req_id))));
                blocked(RefStable::Shared(BTreeSet::new()), acks)
            }
            // Stray unblocks and acks leave a stable line alone.
            (Msg::Unblock { .. } | Msg::InvAck { .. }, s) => s.map(RefEntry::Stable),
            (other, _) => unreachable!("not generated: {other:?}"),
        };
        if let Some(e) = after {
            self.map.insert(line, e);
        }
        Ok(())
    }

    /// Replays a finished transaction's queue one cycle later; whatever
    /// arrives while the line is blocked again joins the new queue.
    fn replay(
        &mut self,
        line: LineAddr,
        queue: VecDeque<Msg>,
        now: Cycle,
        out: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        for msg in queue {
            match self.map.get_mut(&line) {
                Some(RefEntry::Blocked { queue, .. }) => queue.push_back(msg),
                _ => self.handle(msg, now + 1, out)?,
            }
        }
        Ok(())
    }
}

/// Seeded random GetS / GetX / PutM / AtomicFar / Unblock / InvAck streams
/// from random cores over a few lines drive a [`DirBank`], the reference
/// model [`RefDir`], and a second `DirBank` that is checkpointed and
/// restored into a fresh bank at random steps. After every message the
/// three emit the same actions and results, and agree on every line's
/// `state` and on `blocked_entries()`; the two banks also agree on their
/// counters and checkpoint bytes.
#[test]
fn directory_bank_matches_reference_model() {
    let cfg = MemoryConfig::alder_lake();
    let fresh = || DirBank::new(0, cfg.l3_bank, cfg.mem_latency);
    let image = |d: &DirBank| {
        let mut w = Writer::new();
        d.persist(&mut w);
        w.into_bytes()
    };
    let mut g = SplitMix64::new(0x3e3_0005);
    let (mut restores, mut queued_restores, mut far_blocks) = (0, 0, 0);
    for _case in 0..64 {
        let cores = 2 + g.below(4) as u16;
        let lines: Vec<LineAddr> = (0..1 + g.below(4))
            .map(|k| LineAddr::new(4 + 4096 * k))
            .collect();
        let (mut a, mut b, mut m) = (fresh(), fresh(), RefDir::new(&cfg));
        let mut now = 0;
        for step in 0..300 {
            let line = lines[g.below(lines.len() as u64) as usize];
            let core = CoreId::new(g.below(cores as u64) as u16);
            let msg = match g.below(100) {
                0..=19 => Msg::GetS { req: core, line },
                20..=39 => Msg::GetX { req: core, line },
                40..=47 => Msg::PutM { from: core, line },
                48..=57 => Msg::AtomicFar {
                    req: core,
                    line,
                    rmw: RmwKind::Faa(step),
                    req_id: step,
                },
                58..=81 => Msg::Unblock { from: core, line },
                _ => Msg::InvAck { from: core, line },
            };
            now += g.below(20);
            let (mut out_a, mut out_b, mut out_m) = (Vec::new(), Vec::new(), Vec::new());
            let res_a = a.handle_msg(msg, Cycle::new(now), &mut out_a);
            let res_b = b.handle_msg(msg, Cycle::new(now), &mut out_b);
            let res_m = m.handle(msg, Cycle::new(now), &mut out_m);
            let at = format!("step {step}: {msg:?}");
            assert_eq!(res_a, res_m, "result at {at}");
            assert_eq!(out_a, out_m, "actions at {at}");
            assert_eq!(res_b, res_a, "restored result at {at}");
            assert_eq!(out_b, out_a, "restored actions at {at}");
            for &l in &lines {
                assert_eq!(a.state(l), m.state(l), "state of {l} at {at}");
                assert_eq!(b.state(l), a.state(l), "restored state of {l} at {at}");
            }
            let blocked = a.blocked_entries();
            assert_eq!(blocked, m.blocked_entries(), "blocked entries at {at}");
            assert_eq!(
                b.blocked_entries(),
                blocked,
                "restored blocked entries at {at}"
            );
            assert_eq!(b.stats(), a.stats(), "restored stats at {at}");
            far_blocks += blocked
                .iter()
                .filter(|s| matches!(s.phase, BlockedPhase::CollectingAcks { far: true, .. }))
                .count();
            if g.below(8) == 0 {
                let bytes = image(&b);
                assert_eq!(bytes, image(&a), "checkpoint bytes at {at}");
                b = fresh();
                b.restore(&mut Reader::new(&bytes)).expect("restore");
                assert_eq!(image(&b), bytes, "re-encoded checkpoint at {at}");
                restores += 1;
                queued_restores += blocked.iter().any(|s| !s.queued.is_empty()) as usize;
            }
        }
    }
    // The streams reach the states worth checking.
    assert!(
        restores > 1500 && queued_restores > 1000,
        "{restores} {queued_restores}"
    );
    assert!(far_blocks > 2000, "{far_blocks}");
}

/// Functional word store: last write wins per 8-byte word.
#[test]
fn word_store_last_write_wins() {
    let mut g = SplitMix64::new(0x3e3_0003);
    for _case in 0..64 {
        let n = 1 + g.below(100) as usize;
        let mut mem = MemorySystem::new(&SystemConfig::small(1));
        let mut model = std::collections::HashMap::new();
        for _ in 0..n {
            let w = g.below(128);
            let v = g.next_u64();
            let a = Addr::new(w * 8);
            mem.write_word(a, v);
            model.insert(w, v);
        }
        for (&w, &v) in &model {
            assert_eq!(mem.read_word(Addr::new(w * 8)), v);
        }
    }
}
