//! Windowed (interval) telemetry for unbounded streaming runs.
//!
//! A batch experiment can afford per-packet tables; a resident server
//! feeding an open-loop [`mdx_sim::TrafficSource`] cannot — the run has no
//! natural end, so telemetry must be *windowed*: fixed-width intervals,
//! each reduced to a handful of counters, kept in a capped ring so memory
//! stays bounded no matter how long the run goes.
//!
//! [`WindowObserver`] accumulates, per window of `window` cycles: packets
//! injected, packets finished, mean end-to-end latency of the packets that
//! finished in the window, and the in-flight backlog at the window's
//! close. [`WindowObserver::report`] reduces the ring into a
//! [`WindowReport`] with run totals and open-loop steady-state accounting:
//! the delivered-rate vs offered-rate comparison that pins down the
//! saturation point — the first window of a sustained stretch where the
//! network delivers measurably less than is offered while the backlog
//! keeps growing.

use mdx_sim::{InjectSpec, PacketId, SimObserver};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Ring capacity: windows kept before the oldest are evicted.
pub const DEFAULT_MAX_WINDOWS: usize = 512;

/// Consecutive qualifying windows before the run counts as saturated.
pub const SATURATION_WINDOWS: usize = 3;

/// A window qualifies for saturation when it finishes less than this
/// fraction of what it injects (while the backlog rises).
pub const SATURATION_DELIVERY_FRACTION: f64 = 0.95;

/// One telemetry interval, reduced to counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// First cycle of the window.
    pub start: u64,
    /// Packets injected during the window.
    pub injected: u64,
    /// Packets that finished during the window.
    pub finished: u64,
    /// Sum of end-to-end latencies of the packets that finished here.
    pub latency_sum: u64,
    /// In-flight packets (injected, not yet finished) at the window close.
    pub backlog: u64,
}

impl WindowRow {
    /// Mean latency of the packets that finished in this window.
    pub fn mean_latency(&self) -> f64 {
        if self.finished == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.finished as f64
        }
    }

    /// Fraction of this window's injections that finished in it.
    ///
    /// An all-idle window (`injected == 0`) offers nothing, so it is
    /// trivially keeping up: the fraction is defined as 1.0, never a
    /// division by zero. A carryover window that finishes more than it
    /// injects (draining a prior backlog) reports a fraction above 1.0.
    pub fn delivery_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.finished as f64 / self.injected as f64
        }
    }

    /// Net packets this window added to the in-flight backlog
    /// (`injected - finished`), saturating at zero when deliveries outpace
    /// offers — a window draining carryover from earlier windows must not
    /// underflow into a huge positive delta.
    pub fn backlog_delta(&self) -> u64 {
        self.injected.saturating_sub(self.finished)
    }
}

/// Run-level totals, accumulated independently of the ring (evicting old
/// windows never loses them).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowTotals {
    /// Packets injected over the whole run.
    pub injected: u64,
    /// Packets finished over the whole run.
    pub finished: u64,
    /// Sum of all end-to-end latencies.
    pub latency_sum: u64,
    /// Largest end-to-end latency seen.
    pub latency_max: u64,
}

impl WindowTotals {
    /// Mean end-to-end latency over the run.
    pub fn mean_latency(&self) -> f64 {
        if self.finished == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.finished as f64
        }
    }
}

/// The reduced output of a windowed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window width in cycles.
    pub window: u64,
    /// The retained windows, oldest first (the ring's contents).
    pub windows: Vec<WindowRow>,
    /// Windows evicted from the ring (the run outlived the cap).
    pub dropped_windows: u64,
    /// Whole-run totals (eviction-proof).
    pub totals: WindowTotals,
    /// Start cycle of the first window of the first sustained saturated
    /// stretch ([`SATURATION_WINDOWS`] consecutive windows finishing less
    /// than [`SATURATION_DELIVERY_FRACTION`] of their injections with a
    /// rising backlog), if the retained windows show one.
    pub saturated_at: Option<u64>,
}

impl WindowReport {
    /// Delivered-rate / offered-rate over the whole run (1.0 = keeping up).
    pub fn delivery_ratio(&self) -> f64 {
        if self.totals.injected == 0 {
            1.0
        } else {
            self.totals.finished as f64 / self.totals.injected as f64
        }
    }

    /// Compact per-window table for terminals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "window   injected finished  backlog  mean-lat");
        for w in &self.windows {
            let _ = writeln!(
                out,
                "{:>7} {:>9} {:>8} {:>8} {:>9.1}",
                w.start,
                w.injected,
                w.finished,
                w.backlog,
                w.mean_latency()
            );
        }
        if self.dropped_windows > 0 {
            let _ = writeln!(out, "({} older windows evicted)", self.dropped_windows);
        }
        match self.saturated_at {
            Some(at) => {
                let _ = writeln!(out, "saturated from cycle {at}");
            }
            None => {
                let _ = writeln!(out, "no saturation detected");
            }
        }
        out
    }
}

/// The windowed instrument: implements [`SimObserver`]; build with
/// [`WindowObserver::new`], attach with
/// [`mdx_sim::Simulator::add_observer`] (alongside any other observers),
/// and reduce afterwards with [`WindowObserver::report`].
pub struct WindowObserver {
    window: u64,
    ring: VecDeque<WindowRow>,
    dropped: u64,
    totals: WindowTotals,
    /// The window being filled.
    current: WindowRow,
    /// Injection cycle of each in-flight packet (bounded by the network's
    /// in-flight capacity, not the horizon).
    in_flight: HashMap<PacketId, u64>,
}

impl WindowObserver {
    /// Creates the observer for windows of `window` cycles, keeping at
    /// most [`DEFAULT_MAX_WINDOWS`] of them.
    ///
    /// # Panics
    /// Panics on a zero window width.
    pub fn new(window: u64) -> WindowObserver {
        assert!(window > 0, "window width must be at least one cycle");
        WindowObserver {
            window,
            ring: VecDeque::new(),
            dropped: 0,
            totals: WindowTotals::default(),
            current: WindowRow {
                start: 0,
                injected: 0,
                finished: 0,
                latency_sum: 0,
                backlog: 0,
            },
            in_flight: HashMap::new(),
        }
    }

    /// Closes windows until `now` falls inside the current one.
    fn roll_to(&mut self, now: u64) {
        while now >= self.current.start + self.window {
            let backlog = self.in_flight.len() as u64;
            let mut closed = self.current;
            closed.backlog = backlog;
            if self.ring.len() == DEFAULT_MAX_WINDOWS {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back(closed);
            self.current = WindowRow {
                start: closed.start + self.window,
                injected: 0,
                finished: 0,
                latency_sum: 0,
                backlog: 0,
            };
        }
    }

    /// Reduces the accumulated windows into a report. `total_cycles` closes
    /// the in-progress window (pass the run's final cycle count).
    pub fn report(&self, total_cycles: u64) -> WindowReport {
        // Flush the partial last window if it saw anything.
        let backlog = self.in_flight.len() as u64;
        let mut windows: Vec<WindowRow> = self.ring.iter().copied().collect();
        if self.current.injected > 0
            || self.current.finished > 0
            || total_cycles > self.current.start
        {
            let mut last = self.current;
            last.backlog = backlog;
            windows.push(last);
        }
        WindowReport {
            window: self.window,
            dropped_windows: self.dropped,
            totals: self.totals,
            saturated_at: find_saturation(&windows),
            windows,
        }
    }
}

impl SimObserver for WindowObserver {
    fn on_inject(&mut self, id: PacketId, _spec: &InjectSpec, now: u64) {
        self.roll_to(now);
        self.current.injected += 1;
        self.totals.injected += 1;
        self.in_flight.insert(id, now);
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        self.roll_to(now);
        // Injection-gated victims can settle without ever injecting; only
        // packets we saw inject count toward latency.
        if let Some(injected_at) = self.in_flight.remove(&id) {
            let lat = now - injected_at;
            self.current.finished += 1;
            self.current.latency_sum += lat;
            self.totals.finished += 1;
            self.totals.latency_sum += lat;
            self.totals.latency_max = self.totals.latency_max.max(lat);
        }
    }
}

/// First window of the first [`SATURATION_WINDOWS`]-long stretch where
/// deliveries lag injections and the backlog rises monotonically.
fn find_saturation(windows: &[WindowRow]) -> Option<u64> {
    let mut run_start: Option<usize> = None;
    let mut run_len = 0usize;
    for (i, w) in windows.iter().enumerate() {
        // `delivery_fraction` is division-safe: an all-idle window reports
        // 1.0 (keeping up), so it can never qualify as lagging.
        let lagging = w.delivery_fraction() < SATURATION_DELIVERY_FRACTION;
        let rising = i > 0 && w.backlog > windows[i - 1].backlog;
        if lagging && rising && w.injected > 0 {
            if run_start.is_none() {
                run_start = Some(i);
            }
            run_len += 1;
            if run_len >= SATURATION_WINDOWS {
                return run_start.map(|s| windows[s].start);
            }
        } else {
            run_start = None;
            run_len = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::Header;
    use mdx_topology::Coord;

    fn spec() -> InjectSpec {
        InjectSpec {
            src_pe: 0,
            header: Header::unicast(Coord::ORIGIN, Coord::ORIGIN.with(0, 1)),
            flits: 4,
            inject_at: 0,
        }
    }

    #[test]
    fn windows_roll_and_accumulate() {
        let mut obs = WindowObserver::new(100);
        let s = spec();
        obs.on_inject(PacketId(0), &s, 5);
        obs.on_packet_finished(PacketId(0), 25);
        obs.on_inject(PacketId(1), &s, 150);
        obs.on_inject(PacketId(2), &s, 160);
        obs.on_packet_finished(PacketId(1), 260);
        let r = obs.report(300);
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].injected, 1);
        assert_eq!(r.windows[0].finished, 1);
        assert_eq!(r.windows[0].latency_sum, 20);
        assert_eq!(r.windows[1].injected, 2);
        assert_eq!(r.windows[1].backlog, 2);
        assert_eq!(r.windows[2].finished, 1);
        assert_eq!(r.windows[2].backlog, 1);
        assert_eq!(r.totals.injected, 3);
        assert_eq!(r.totals.finished, 2);
        assert_eq!(r.totals.latency_max, 110);
        assert!(r.saturated_at.is_none());
    }

    #[test]
    fn ring_cap_bounds_memory_but_not_totals() {
        let mut obs = WindowObserver::new(10);
        let s = spec();
        let n = DEFAULT_MAX_WINDOWS as u64 + 88;
        for i in 0..n {
            obs.on_inject(PacketId(i as u32), &s, i * 10);
            obs.on_packet_finished(PacketId(i as u32), i * 10 + 3);
        }
        let r = obs.report(n * 10);
        // The full ring plus the flushed partial window.
        assert_eq!(r.windows.len(), DEFAULT_MAX_WINDOWS + 1);
        assert_eq!(r.dropped_windows, 87);
        assert_eq!(r.totals.injected, n);
        assert_eq!(r.totals.finished, n);
    }

    #[test]
    fn sustained_lag_with_rising_backlog_is_saturation() {
        let mut obs = WindowObserver::new(10);
        let s = spec();
        let mut id = 0u32;
        // Window 0: healthy. Windows 1..=3: inject 4, finish 1 each.
        for w in 0..4u64 {
            let inject = if w == 0 { 2 } else { 4 };
            let finish = if w == 0 { 2 } else { 1 };
            let base = w * 10;
            for k in 0..inject {
                obs.on_inject(PacketId(id + k), &s, base + k as u64);
            }
            for k in 0..finish {
                obs.on_packet_finished(PacketId(id + k), base + 5 + k as u64);
            }
            id += inject;
        }
        let r = obs.report(40);
        assert_eq!(r.saturated_at, Some(10));
        assert!(r.delivery_ratio() < 1.0);
        assert!(r.render().contains("saturated from cycle 10"));
    }

    #[test]
    fn all_idle_windows_never_divide_by_zero_or_saturate() {
        let mut obs = WindowObserver::new(10);
        let s = spec();
        // One packet injected at cycle 0; then three fully idle windows
        // (offered == 0) while its backlog sits at 1. A finish event for a
        // packet we never saw inject rolls the clock without counting.
        obs.on_inject(PacketId(0), &s, 0);
        obs.on_packet_finished(PacketId(99), 35);
        let r = obs.report(40);
        assert_eq!(r.windows.len(), 4);
        for w in &r.windows[1..] {
            assert_eq!(w.injected, 0);
            assert!(
                w.delivery_fraction().is_finite(),
                "idle window produced a non-finite delivery fraction"
            );
            assert_eq!(w.delivery_fraction(), 1.0);
        }
        // Idle windows are trivially keeping up: no saturation verdict.
        assert!(r.saturated_at.is_none());
    }

    #[test]
    fn draining_windows_saturate_backlog_delta_at_zero() {
        let mut obs = WindowObserver::new(10);
        let s = spec();
        // Window 0 injects 3 and finishes none; window 1 injects 1 but
        // finishes all 4 — deliveries outpace offers across the boundary.
        for k in 0..3u32 {
            obs.on_inject(PacketId(k), &s, k as u64);
        }
        obs.on_inject(PacketId(3), &s, 11);
        for k in 0..4u32 {
            obs.on_packet_finished(PacketId(k), 12 + k as u64);
        }
        let r = obs.report(20);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].backlog_delta(), 3);
        // finished (4) > injected (1): must clamp to 0, not wrap.
        assert_eq!(r.windows[1].injected, 1);
        assert_eq!(r.windows[1].finished, 4);
        assert_eq!(r.windows[1].backlog_delta(), 0);
        // The drain window's fraction exceeds 1.0 but stays finite.
        assert!(r.windows[1].delivery_fraction() > 1.0);
        assert!(r.windows[1].delivery_fraction().is_finite());
        assert_eq!(r.windows[1].backlog, 0);
        assert!(r.saturated_at.is_none());
    }
}
