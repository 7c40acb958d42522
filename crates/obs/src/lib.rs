//! # mdx-obs — telemetry observers for the SR2201 simulator
//!
//! Composable instrumentation built on [`mdx_sim`]'s observer seam
//! ([`mdx_sim::SimObserver`]). Three observers cover the three questions an
//! interconnect experiment keeps asking:
//!
//! - [`MetricsObserver`] — *where does the traffic go?* Per-channel flit
//!   counts and peak occupancy, per-crossbar output utilization and port
//!   contention, S-XB gather-queue depth over time, detour rate, and a
//!   blocked-episode duration histogram. Renders a text heatmap and
//!   serializes to JSON.
//! - [`TraceRecorder`] — *what did each packet do, cycle by cycle?* Records
//!   hop and stall slices in the Chrome `trace_event` JSON format, openable
//!   in [Perfetto](https://ui.perfetto.dev) (or `chrome://tracing`): one
//!   track per packet, counter tracks for the S-XB queue and the hottest
//!   crossbars.
//! - [`StallProbe`] — *is the run heading for deadlock?* Periodically
//!   snapshots the engine's wait-for graph and reduces it with
//!   [`mdx_deadlock::analyze_waits`]: longest wait-chain length and maximum
//!   blocked duration are near-deadlock early warnings long before the
//!   watchdog fires.
//! - [`FlightRecorder`] — *what happened right before it died?* An
//!   always-on, fixed-capacity ring of hop-level events (zero allocation
//!   in steady state). When a run ends abnormally, the paired
//!   [`FlightHandle`] joins the ring with the engine's terminal wait
//!   snapshot and deadlock witness into a [`PostmortemReport`]: the cyclic
//!   wait with each packet's RC state, recent hops, S-XB gather depth, and
//!   a classification against the paper's Fig. 5 / Fig. 9 signatures.
//! - [`WindowObserver`] — *is the network keeping up?* Fixed-width
//!   telemetry intervals in a capped ring (bounded memory for unbounded
//!   streaming runs): per-window injected/finished counts, mean latency,
//!   in-flight backlog, and open-loop saturation detection
//!   (delivered-rate lagging offered-rate with a rising backlog).
//! - [`AttributionObserver`] — *why was each packet slow?* Decomposes every
//!   delivered packet's end-to-end latency into disjoint, conserving phases
//!   (injection queueing, S-XB serialization, blocked time split by holder
//!   class, epoch pauses, detour vs. base transfer) with the hard invariant
//!   `sum(phases) == latency`, plus per-channel/per-crossbar *blame
//!   profiles* and the run's *critical path* of wait-for edges
//!   ([`crate::critical`]).
//!
//! [`TraceDoc`] is the Chrome-trace JSON both Perfetto outputs write: one
//! [`TraceEvent`] type, one writer ([`TraceDoc::render`]), and a strict
//! parser (deny-unknown-fields, per-phase shape checks).
//!
//! The [`span`] module is a different kind of instrument: request-scoped
//! tracing for the serving stack — a dependency-light [`Span`] model with
//! a head-sampling [`SpanCollector`], a JSONL span log, and a Perfetto
//! exporter that writes through the same [`TraceDoc`]. It watches the
//! *service around* the engine (queue wait, cache tier, serialize) as
//! well as the engine itself (profile phases, reconfig epochs).
//!
//! Each observer follows the same *handle* pattern: the observer itself is
//! attached to the simulator (which takes ownership of the `Box<dyn
//! SimObserver>`), while a cheap [`std::rc::Rc`]-backed handle stays with
//! the caller and can read the accumulated state afterwards — no
//! downcasting required:
//!
//! ```
//! use std::sync::Arc;
//! use mdx_core::{Header, NaiveBroadcast};
//! use mdx_obs::MetricsObserver;
//! use mdx_sim::{InjectSpec, SimConfig, Simulator};
//! use mdx_topology::{MdCrossbar, Shape};
//!
//! let net = Arc::new(MdCrossbar::build(Shape::fig2()));
//! let shape = net.shape().clone();
//! let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
//! let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
//! let (obs, metrics) = MetricsObserver::new(net.graph().clone());
//! sim.set_observer(Box::new(obs));
//! sim.schedule(InjectSpec {
//!     src_pe: 0,
//!     header: Header::unicast(shape.coord_of(0), shape.coord_of(11)),
//!     flits: 4,
//!     inject_at: 0,
//! });
//! let result = sim.run();
//! let report = metrics.report(result.stats.cycles);
//! assert!(report.total_flits > 0);
//! ```
//!
//! To run several observers at once, wrap them in a [`FanoutObserver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
pub mod critical;
mod flight;
mod metrics;
mod postmortem;
mod schema;
pub mod span;
mod stall;
mod trace;
mod windows;

pub use attribution::{
    AttributionHandle, AttributionObserver, AttributionReport, ChannelBlame, PacketPhases,
    PhaseTotals, XbarBlame,
};
pub use critical::{critical_path, CriticalPath, CriticalStep, WaitEpisode, MAX_CRITICAL_STEPS};
pub use flight::{
    FlightEvent, FlightEventKind, FlightHandle, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_NO_PACKET,
};
pub use metrics::{
    ChannelMetrics, GatherSample, MetricsHandle, MetricsObserver, MetricsReport, XbarMetrics,
};
pub use postmortem::{CycleEdge, HopTrace, PacketForensics, PostmortemReport, LAST_HOPS};
pub use schema::{TraceArgs, TraceDoc, TraceEvent};
pub use span::{
    group_traces, parse_span_log, spans_to_perfetto, summarize_spans, Span, SpanCollector,
    SpanStats, SpanSummary, SpanUnit, TraceBuilder, DEFAULT_TRACE_CAPACITY,
};
pub use stall::{StallHandle, StallProbe, StallReport, StallSample};
pub use trace::{TraceHandle, TraceRecorder};
pub use windows::{
    WindowHandle, WindowObserver, WindowReport, WindowRow, WindowTotals, DEFAULT_MAX_WINDOWS,
    SATURATION_DELIVERY_FRACTION, SATURATION_WINDOWS,
};

use mdx_sim::{DeadlockInfo, InjectSpec, PacketId, SimObserver, WaitSnapshot};
use mdx_topology::{ChannelId, Node};

/// Broadcasts every hook to a list of child observers, letting several
/// independent instruments watch one run.
///
/// [`SimObserver::probe_interval`] resolves to the *minimum* interval any
/// child requests; every child receives every probe (a child that wanted a
/// coarser period simply sees extra snapshots, which the bundled observers
/// tolerate).
#[derive(Default)]
pub struct FanoutObserver {
    parts: Vec<Box<dyn SimObserver>>,
}

impl FanoutObserver {
    /// An empty fanout (a no-op observer until children are added).
    pub fn new() -> FanoutObserver {
        FanoutObserver { parts: Vec::new() }
    }

    /// Adds a child observer (builder style).
    pub fn with(mut self, part: Box<dyn SimObserver>) -> FanoutObserver {
        self.parts.push(part);
        self
    }

    /// Adds a child observer.
    pub fn push(&mut self, part: Box<dyn SimObserver>) {
        self.parts.push(part);
    }

    /// Number of child observers.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no children are attached.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl SimObserver for FanoutObserver {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, now: u64) {
        for p in &mut self.parts {
            p.on_inject(id, spec, now);
        }
    }

    fn on_hop(&mut self, id: PacketId, at: Node, in_channel: Option<ChannelId>, now: u64) {
        for p in &mut self.parts {
            p.on_hop(id, at, in_channel, now);
        }
    }

    fn on_rc_change(
        &mut self,
        id: PacketId,
        at: Node,
        from: mdx_core::RouteChange,
        to: mdx_core::RouteChange,
        now: u64,
    ) {
        for p in &mut self.parts {
            p.on_rc_change(id, at, from, to, now);
        }
    }

    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        now: u64,
    ) {
        for p in &mut self.parts {
            p.on_blocked(id, channel, vc, holder, now);
        }
    }

    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, waited: u64, now: u64) {
        for p in &mut self.parts {
            p.on_unblocked(id, channel, vc, waited, now);
        }
    }

    fn on_flit(&mut self, channel: ChannelId, vc: u8, occupancy: usize, now: u64) {
        for p in &mut self.parts {
            p.on_flit(channel, vc, occupancy, now);
        }
    }

    fn on_gather(&mut self, id: PacketId, depth: usize, now: u64) {
        for p in &mut self.parts {
            p.on_gather(id, depth, now);
        }
    }

    fn on_emission(&mut self, id: PacketId, depth: usize, now: u64) {
        for p in &mut self.parts {
            p.on_emission(id, depth, now);
        }
    }

    fn on_delivery(&mut self, id: PacketId, pe: usize, now: u64) {
        for p in &mut self.parts {
            p.on_delivery(id, pe, now);
        }
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        for p in &mut self.parts {
            p.on_packet_finished(id, now);
        }
    }

    fn probe_interval(&self) -> Option<u64> {
        self.parts.iter().filter_map(|p| p.probe_interval()).min()
    }

    fn on_probe(&mut self, now: u64, waits: &[WaitSnapshot]) {
        for p in &mut self.parts {
            p.on_probe(now, waits);
        }
    }

    fn on_final_waits(&mut self, now: u64, waits: &[WaitSnapshot]) {
        for p in &mut self.parts {
            p.on_final_waits(now, waits);
        }
    }

    fn on_deadlock(&mut self, info: &DeadlockInfo) {
        for p in &mut self.parts {
            p.on_deadlock(info);
        }
    }

    fn on_fault_activated(&mut self, now: u64, victims: &[PacketId]) {
        for p in &mut self.parts {
            p.on_fault_activated(now, victims);
        }
    }

    fn on_epoch_phase(&mut self, epoch: u32, phase: mdx_sim::EpochPhase, now: u64) {
        for p in &mut self.parts {
            p.on_epoch_phase(epoch, phase, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_sim::EventCounts;

    #[test]
    fn fanout_forwards_to_all_children() {
        // EventCounts children can't be read back through the box, so use the
        // fanout with metrics handles instead; here we only check interval
        // resolution and that pushing works.
        let f = FanoutObserver::new().with(Box::new(EventCounts::default()));
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
        assert_eq!(f.probe_interval(), None);
    }

    struct FixedInterval(u64);
    impl SimObserver for FixedInterval {
        fn probe_interval(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn fanout_probe_interval_is_min_of_children() {
        let f = FanoutObserver::new()
            .with(Box::new(FixedInterval(64)))
            .with(Box::new(EventCounts::default()))
            .with(Box::new(FixedInterval(16)));
        assert_eq!(f.probe_interval(), Some(16));
    }
}
