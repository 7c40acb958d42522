//! Engine memory follows live traffic, not offered traffic.
//!
//! This file has its own counting global allocator and a single test, so no
//! other test thread allocates while it measures. It runs the benchmark's
//! `load` row (sr2201 on 8x8, heavy mixed uniform traffic) at two injection
//! windows and bounds each row's peak heap per offered packet.
//!
//! What a row must hold per offered packet, on a 64-bit host:
//!
//! * its schedule entry, an `InjectSpec` (64 B);
//! * the engine's record of it, a `PacketRt`: the `InjectSpec` plus
//!   `started`, `open`, `finished_at`, `deliveries`, `dropped`, `route` and
//!   `victim_logged`, 136 B, in a vector that grows by doubling, so up to
//!   twice that;
//! * its delivery list, one 16 B `(pe, cycle)` entry in a first allocation
//!   of four, 64 B for a unicast;
//! * its `PacketResult` (80 B) with an exact copy of the delivery list
//!   (16 B for a unicast), built while the `PacketRt`s are still held;
//! * its slot in the injection order, 4 B.
//!
//! That is the `InjectSpec` plus [`RECORDS`], 500 B. Broadcasts add 64
//! deliveries each, twice, but are about one packet in 25. The engine's
//! per-hop state (a visit per switch a packet crosses, each with its branch
//! list) is not a per-packet record: it must follow the visits alive at
//! once, which the injection rate and the network bound, not the window.
//! [`BOUND`] gives the records a margin of 1 KB for that state and the
//! row's fixed costs (network, scheme, port tables) at a 400-cycle window.
//! Measured: these rows peak at 0.95–1.08 KB per offered packet, while an
//! engine that keeps every visit of the run holds 2.9 KB on the first.

use mdx_campaign::{run_scenario, Scenario, Workload};
use mdx_sim::{InjectSpec, PacketResult};
use mdx_workloads::TrafficPattern;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes in use and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counting touches only
// atomics, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Per offered packet, besides its `InjectSpec`: a `PacketRt` twice over
/// (136 B in a doubling vector), a unicast's delivery list (64 B), its
/// `PacketResult` and the result's copy of the list (16 B), and its
/// injection-order slot (4 B).
const RECORDS: usize = 2 * 136 + 64 + std::mem::size_of::<PacketResult>() + 16 + 4;

/// Peak heap allowed per offered packet: the records plus 1 KB.
const BOUND: usize = std::mem::size_of::<InjectSpec>() + RECORDS + 1024;

/// The benchmark's `load` row with an injection window of `window` cycles.
fn load_row(window: u64, seed: u64) -> Scenario {
    let workload = Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        packet_flits: 12,
        window,
        broadcast_rate: 0.002,
    };
    Scenario::new(vec![8, 8], "sr2201", workload, seed)
}

/// Peak heap per offered packet of one row, above what was held before it.
fn peak_per_packet(scenario: &Scenario) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = run_scenario(scenario).expect("the load row runs");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(report.outcome, "completed", "{}", report.token);
    peak / report.offered
}

#[test]
fn peak_heap_per_offered_packet_stays_near_the_packet_records() {
    for (window, seed) in [(400, 11), (400, 12), (1600, 13)] {
        let per_packet = peak_per_packet(&load_row(window, seed));
        assert!(
            per_packet <= BOUND,
            "window {window}, seed {seed}: {per_packet} B of peak heap per offered packet, \
             over the {BOUND} B bound; the engine keeps per-hop state beyond live traffic"
        );
    }
}
