//! Randomized property tests for the shared foundations.
//!
//! These were originally written against `proptest`; they now drive the same
//! assertions from the crate's own deterministic [`SplitMix64`] so the suite
//! builds with no external dependencies (the build environment is offline).

use std::collections::BTreeMap;

use row_common::clock::{Cycle, TIMESTAMP_MODULUS};
use row_common::persist::{Codec, Reader, Writer};
use row_common::rng::SplitMix64;
use row_common::sched::EventQueue;

/// One model step's expectation: the queue pops exactly the model's
/// smallest `(cycle, seq)` entry whose cycle is `<= now`.
fn pop_both(
    q: &mut EventQueue<u64>,
    model: &mut BTreeMap<(u64, u64), u64>,
    now: u64,
) -> Option<u64> {
    let want = match model.first_entry() {
        Some(e) if e.key().0 <= now => Some(e.remove()),
        _ => None,
    };
    assert_eq!(q.pop_ready(Cycle::new(now)), want, "pop at {now}");
    want
}

/// The model's delivery-order encoding: the wire format `EventQueue`
/// promises (length, then `(cycle, item)` by cycle, FIFO within a cycle).
fn model_bytes(model: &BTreeMap<(u64, u64), u64>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_len(model.len());
    for (&(at, _), item) in model {
        Cycle::new(at).encode(&mut w);
        item.encode(&mut w);
    }
    w.into_bytes()
}

/// Seeded interleavings of pushes (near and far), pops at an advancing
/// `now` with jumps, same-cycle pushes after empty probes, and mid-run
/// codec round trips, checked step by step against a `BTreeMap` keyed by
/// `(cycle, insertion seq)`.
#[test]
fn event_queue_matches_a_reference_model() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _ in 0..48 {
        let mut q = EventQueue::new();
        let mut model = BTreeMap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for _ in 0..600 {
            match rng.below(8) {
                // Pushes at `now + 0..1000`: most land past the window.
                0..=2 => {
                    for _ in 0..1 + rng.below(4) {
                        let at = now + rng.below(1000);
                        let item = rng.next_u64();
                        q.push(Cycle::new(at), item);
                        model.insert((at, seq), item);
                        seq += 1;
                    }
                }
                // Drain what is due, then (sometimes) push at the probed
                // cycle: it must still deliver this cycle.
                3 | 4 => {
                    while pop_both(&mut q, &mut model, now).is_some() {}
                    if rng.below(2) == 0 {
                        let item = rng.next_u64();
                        q.push(Cycle::new(now), item);
                        model.insert((now, seq), item);
                        seq += 1;
                        assert_eq!(pop_both(&mut q, &mut model, now), Some(item));
                    }
                }
                // A single pop, so drains also stop part-way through a cycle.
                5 => {
                    pop_both(&mut q, &mut model, now);
                }
                // Advance `now`: usually a step, sometimes a jump.
                6 => {
                    now += if rng.below(4) == 0 {
                        rng.below(3000)
                    } else {
                        1 + rng.below(3)
                    };
                }
                // Checkpoint: encode, compare, decode and continue on the copy.
                _ => {
                    let mut w = Writer::new();
                    q.encode(&mut w);
                    let bytes = w.into_bytes();
                    assert_eq!(bytes, model_bytes(&model));
                    q = Codec::decode(&mut Reader::new(&bytes)).expect("round trip");
                }
            }
            assert_eq!(q.len(), model.len());
            let next = model.keys().next().map(|&(at, _)| Cycle::new(at));
            assert_eq!(q.next_cycle(), next);
        }
        now += 1000;
        while pop_both(&mut q, &mut model, now).is_some() {}
        assert!(q.is_empty() && model.is_empty());
    }
}

/// The 14-bit latency equals the true latency modulo 2^14 for any pair.
#[test]
fn timestamp14_latency_is_mod_2_14() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _ in 0..256 {
        let issue = rng.below(1u64 << 40);
        let delta = rng.below(1u64 << 20);
        let issued = Cycle::new(issue);
        let fill = Cycle::new(issue + delta);
        assert_eq!(
            fill.latency_since14(issued.timestamp14()),
            delta % TIMESTAMP_MODULUS
        );
    }
}

/// `below(n)` is always `< n`, for any seed.
#[test]
fn rng_below_is_bounded() {
    let mut seeder = SplitMix64::new(0x5eed_0004);
    for _ in 0..64 {
        let seed = seeder.next_u64();
        let bound = 1 + seeder.below(1_000_000);
        let mut r = SplitMix64::new(seed);
        for _ in 0..50 {
            assert!(r.below(bound) < bound);
        }
    }
}

/// Split streams never equal their parent's continuation.
#[test]
fn rng_split_diverges() {
    let mut seeder = SplitMix64::new(0x5eed_0005);
    for _ in 0..64 {
        let mut parent = SplitMix64::new(seeder.next_u64());
        let mut child = parent.split();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }
}
