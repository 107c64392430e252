//! Heap footprint of a directory bank's tracked lines.
//!
//! A counting global allocator measures the live heap a [`DirBank`] adds
//! while it tracks thousands of Exclusive lines, the state nearly every
//! line a paper-scale run touches ends in. This file holds one test so no
//! other test's allocations share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use row_common::config::MemoryConfig;
use row_common::ids::{CoreId, LineAddr};
use row_common::Cycle;
use row_mem::directory::DirBank;
use row_mem::{DirState, Msg};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is only
// bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// 4096 lines granted Exclusive and unblocked cost the bank at most 24
/// heap bytes each: the owner table's key, its 2-byte owner and its probe
/// slots. The lines all map to one L3 set, so the L3 slice holds the same
/// storage throughout and the growth is the directory's alone.
#[test]
fn exclusive_lines_cost_at_most_24_heap_bytes_each() {
    const LINES: u64 = 4096;
    let cfg = MemoryConfig::alder_lake();
    let sets = (cfg.l3_bank.size_bytes / 64 / cfg.l3_bank.ways) as u64;
    let line = |k: u64| LineAddr::new(k * sets);
    let mut d = DirBank::new(0, cfg.l3_bank, cfg.mem_latency);
    let mut actions = Vec::with_capacity(4);
    let mut grant = |d: &mut DirBank, k: u64| {
        let (req, line) = (CoreId::new((k % 32) as u16), line(k));
        let now = Cycle::new(10 * k);
        d.handle_msg(Msg::GetX { req, line }, now, &mut actions)
            .unwrap();
        d.handle_msg(Msg::Unblock { from: req, line }, now + 5, &mut actions)
            .unwrap();
        actions.clear();
    };
    let before = LIVE.load(Ordering::Relaxed);
    for k in 0..LINES {
        grant(&mut d, k);
    }
    // Besides the tables this counts the L3 set's storage and the
    // transaction table's capacity, a few hundred bytes in all.
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(
        d.state(line(LINES - 1)),
        DirState::Exclusive(CoreId::new(31))
    );
    assert_eq!(d.lines().count(), LINES as usize);
    let per_line = grown as f64 / LINES as f64;
    assert!(
        per_line <= 24.0,
        "{per_line:.1} heap bytes per Exclusive line ({grown} bytes for {LINES})"
    );
}
