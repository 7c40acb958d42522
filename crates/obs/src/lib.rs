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
//!   [`mdx_sim::search_waits`]: longest wait-chain length and maximum
//!   blocked duration are near-deadlock early warnings long before the
//!   watchdog fires.
//! - [`FlightRecorder`] — *what happened right before it died?* An
//!   always-on, fixed-capacity ring of hop-level events (zero allocation
//!   in steady state). When a run ends abnormally,
//!   [`FlightRecorder::postmortem`] joins the ring with the engine's
//!   terminal wait snapshot into a [`PostmortemReport`]: the cyclic
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
//! Each instrument is a plain struct: [`mdx_sim::Simulator::add_observer`]
//! attaches it and hands it back, shared with the engine, so the caller
//! reads its report from the same value after the run — no handle and no
//! downcasting:
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
//! let metrics = sim.add_observer(MetricsObserver::new(net.graph().clone()));
//! sim.schedule(InjectSpec {
//!     src_pe: 0,
//!     header: Header::unicast(shape.coord_of(0), shape.coord_of(11)),
//!     flits: 4,
//!     inject_at: 0,
//! });
//! let result = sim.run();
//! let report = metrics.borrow().report(result.stats.cycles);
//! assert!(report.total_flits > 0);
//! ```
//!
//! To run several observers at once, attach each of them: the engine
//! fires every hook on each attached observer, in attach order.

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
    AttributionObserver, AttributionReport, ChannelBlame, PacketPhases, PhaseTotals, XbarBlame,
};
pub use critical::{critical_path, CriticalPath, CriticalStep, WaitEpisode, MAX_CRITICAL_STEPS};
pub use flight::{
    FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_NO_PACKET,
};
pub use metrics::{ChannelMetrics, GatherSample, MetricsObserver, MetricsReport, XbarMetrics};
pub use postmortem::{CycleEdge, HopTrace, PacketForensics, PostmortemReport, LAST_HOPS};
pub use schema::{TraceArgs, TraceDoc, TraceEvent};
pub use span::{
    group_traces, parse_span_log, spans_to_perfetto, summarize_spans, Span, SpanCollector,
    SpanStats, SpanSummary, SpanUnit, TraceBuilder, DEFAULT_TRACE_CAPACITY,
};
pub use stall::{StallProbe, StallReport, StallSample};
pub use trace::TraceRecorder;
pub use windows::{
    WindowObserver, WindowReport, WindowRow, WindowTotals, DEFAULT_MAX_WINDOWS,
    SATURATION_DELIVERY_FRACTION, SATURATION_WINDOWS,
};
