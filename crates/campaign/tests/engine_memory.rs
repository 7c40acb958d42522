//! Engine memory follows live traffic, not offered traffic.
//!
//! This file has its own counting global allocator and a single test, so no
//! other test thread allocates while it measures. It runs the benchmark's
//! `load` row (sr2201 on 8x8, heavy mixed uniform traffic) at two injection
//! windows and bounds each row's peak heap per offered packet.
//!
//! What a row must hold per offered packet, on a 64-bit host:
//!
//! * the engine's record of it, a `PacketRt` of 136 B: its `InjectSpec`
//!   plus `started`, `open`, `finished_at`, `deliveries`, `dropped`,
//!   `route` and `victim_logged`. The runner hands the engine its schedule
//!   by value, so the records are sized to it once and the schedule's own
//!   copy is gone before the run;
//! * its delivery list, for a unicast one 16 B `(pe, cycle)` entry in an
//!   allocation of one, which moves into the result rather than being
//!   copied;
//! * its slot in the injection order, 4 B, freed before the result is
//!   built;
//! * its `PacketResult`, 80 B, built after the engine has freed its
//!   per-hop state.
//!
//! That is [`RECORDS`], 236 B. Broadcasts add 63 more deliveries each but
//! are about one packet in 25. The per-hop state (a visit per switch a
//! packet crosses, with its branch list, and the port queues) is not a
//! per-packet record, but on these rows it grows with the window: the rate
//! overloads the network, so sources queue injection visits for as long as
//! traffic is offered. At its peak it holds about 0.4 KB per offered
//! packet, and the row's fixed costs (network, scheme, port tables) about
//! 50 B more at a 400-cycle window. [`PER_HOP`] allows both with a quarter
//! to spare, and [`BOUND`] adds it to the records. Measured in the test
//! profile: these rows peak at 0.58–0.70 KB per offered packet, while the
//! engine that copied the schedule, grew its records by doubling and
//! cloned every delivery list into the result held 0.95–1.08 KB, and one
//! that keeps every visit of the run 2.9 KB.

use mdx_campaign::{run_scenario, Scenario, Workload};
use mdx_sim::PacketResult;
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

/// Per offered packet: its `PacketRt` (136 B), a unicast's delivery list
/// (16 B), its injection-order slot (4 B) and its `PacketResult`.
const RECORDS: usize = 136 + 16 + 4 + std::mem::size_of::<PacketResult>();

/// Room per offered packet for the per-hop state at its peak and the row's
/// fixed costs: 0.45 KB and a quarter.
const PER_HOP: usize = 576;

/// Peak heap allowed per offered packet.
const BOUND: usize = RECORDS + PER_HOP;

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
             over the {BOUND} B bound; the row holds copies of packet records or per-hop \
             state beyond live traffic"
        );
    }
}
