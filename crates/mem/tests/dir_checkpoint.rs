//! Directory bank checkpoints: every kind of entry survives a round trip
//! byte for byte, and a damaged image is refused rather than restored.

use std::collections::BTreeSet;

use row_common::config::MemoryConfig;
use row_common::ids::{CoreId, LineAddr};
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::rmw::RmwKind;
use row_common::Cycle;
use row_mem::array::CacheArray;
use row_mem::directory::DirBank;
use row_mem::private::CacheAction;
use row_mem::{BlockedPhase, DirState, DirStats, Msg};

fn bank() -> DirBank {
    let cfg = MemoryConfig::alder_lake();
    DirBank::new(0, cfg.l3_bank, cfg.mem_latency)
}

fn c(i: u16) -> CoreId {
    CoreId::new(i)
}

fn l(i: u64) -> LineAddr {
    LineAddr::new(i)
}

fn gets(req: u16, line: u64) -> Msg {
    Msg::GetS {
        req: c(req),
        line: l(line),
    }
}

fn getx(req: u16, line: u64) -> Msg {
    Msg::GetX {
        req: c(req),
        line: l(line),
    }
}

fn unblock(from: u16, line: u64) -> Msg {
    Msg::Unblock {
        from: c(from),
        line: l(line),
    }
}

fn inv_ack(from: u16, line: u64) -> Msg {
    Msg::InvAck {
        from: c(from),
        line: l(line),
    }
}

fn send(d: &mut DirBank, msg: Msg, now: u64) -> Vec<CacheAction> {
    let mut a = Vec::new();
    d.handle_msg(msg, Cycle::new(now), &mut a).unwrap();
    a
}

fn encoded(v: &impl Codec) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_bytes()
}

fn image(d: &DirBank) -> Vec<u8> {
    let mut w = Writer::new();
    d.persist(&mut w);
    w.into_bytes()
}

fn restored(bytes: &[u8]) -> Result<DirBank, PersistError> {
    let mut d = bank();
    d.restore(&mut Reader::new(bytes))?;
    Ok(d)
}

/// A bank with one line in each kind of entry: Exclusive (1), Shared (2),
/// Blocked/AwaitUnblock with two queued requests (3) and
/// Blocked/CollectingAcks for a far atomic with one queued request (4).
fn every_kind() -> DirBank {
    let mut d = bank();
    let far = Msg::AtomicFar {
        req: c(2),
        line: l(4),
        rmw: RmwKind::Faa(3),
        req_id: 77,
    };
    let script = [getx(0, 1), unblock(0, 1)]
        .into_iter()
        .chain([2, 4].into_iter().flat_map(|line| {
            [
                gets(0, line),
                unblock(0, line),
                gets(1, line),
                unblock(1, line),
            ]
        }))
        .chain([getx(0, 3), getx(1, 3), gets(2, 3), far, getx(3, 4)]);
    for (now, msg) in script.enumerate() {
        send(&mut d, msg, 10 * now as u64);
    }
    d
}

#[test]
fn round_trip_keeps_every_entry_kind_and_the_bytes() {
    let mut d = every_kind();
    assert_eq!(d.state(l(1)), DirState::Exclusive(c(0)));
    let both = BTreeSet::from([c(0), c(1)]);
    assert_eq!(d.state(l(2)), DirState::Shared(both));
    let blocked = d.blocked_entries();
    assert_eq!(blocked.len(), 2);
    assert_eq!(blocked[0].phase, BlockedPhase::AwaitUnblock);
    assert_eq!(blocked[0].queued, [getx(1, 3), gets(2, 3)]);
    let far_acks = BlockedPhase::CollectingAcks {
        req: c(2),
        pending: 2,
        far: true,
    };
    assert_eq!(blocked[1].phase, far_acks);
    assert_eq!(blocked[1].queued, [getx(3, 4)]);

    let bytes = image(&d);
    let mut r = restored(&bytes).unwrap();
    assert_eq!(image(&r), bytes, "re-encoding gives the same bytes");
    assert_eq!(r.blocked_entries(), blocked);
    for line in (1..=4).map(l) {
        assert_eq!(r.state(line), d.state(line), "{line}");
    }
    // The restored transactions finish exactly as the originals do.
    let rest = [unblock(0, 3), inv_ack(0, 4), inv_ack(1, 4), unblock(1, 3)];
    for (now, msg) in (500..).zip(rest) {
        assert_eq!(send(&mut r, msg, now), send(&mut d, msg, now), "{msg:?}");
    }
    assert_eq!(image(&r), image(&d));
    assert_eq!(r.stats(), d.stats());
}

/// An image of `entries`, each `(line, tag, payload)`, framed by a fresh
/// bank's L3 array and counters.
fn raw_image(entries: &[(u64, u8, &[u8])]) -> Vec<u8> {
    let mut w = Writer::new();
    CacheArray::new(MemoryConfig::alder_lake().l3_bank).persist(&mut w);
    w.put_len(entries.len());
    for &(line, tag, payload) in entries {
        l(line).encode(&mut w);
        w.put_u8(tag);
        w.put_bytes(payload);
    }
    DirStats::default().encode(&mut w);
    w.into_bytes()
}

#[test]
fn restore_refuses_repeated_or_descending_lines_and_unknown_tags() {
    let owner = &encoded(&c(0))[..];
    let sharers = &encoded(&BTreeSet::from([c(1)]))[..];

    let ok = raw_image(&[(3, 1, owner), (5, 0, sharers)]);
    let d = restored(&ok).unwrap();
    assert_eq!(d.state(l(3)), DirState::Exclusive(c(0)));
    assert_eq!(image(&d), ok);

    // A repeated line would land in two tables (here as an owner and a
    // sharer set); lines must also come in ascending order.
    for bad in [
        raw_image(&[(5, 1, owner), (5, 0, sharers)]),
        raw_image(&[(7, 1, owner), (3, 1, owner)]),
    ] {
        assert!(matches!(restored(&bad), Err(PersistError::Corrupt(_))));
    }
    let unknown = raw_image(&[(5, 3, owner)]);
    assert!(matches!(
        restored(&unknown),
        Err(PersistError::BadTag { tag: 3, .. })
    ));
    // A Blocked entry whose next state is itself Blocked.
    let unknown_next = raw_image(&[(5, 2, &[2])]);
    assert!(matches!(
        restored(&unknown_next),
        Err(PersistError::BadTag { tag: 2, .. })
    ));
}
