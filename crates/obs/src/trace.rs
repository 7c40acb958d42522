//! Chrome `trace_event` / Perfetto JSON export.
//!
//! [`TraceRecorder`] turns one simulation run into a trace openable in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`. One simulated
//! cycle maps to one microsecond of trace time. The trace carries four
//! process groups:
//!
//! - **pid 1 — packets**: one track per packet; a complete (`"X"`) slice
//!   per switch visit (hop-to-hop residency) with instant markers for RC
//!   rewrites, deliveries, and completion.
//! - **pid 2 — stalls**: one track per packet; a slice per blocked episode,
//!   named after the contended channel, with the holding packet in `args`.
//! - **pid 3 — queues**: a counter track for the S-XB serialization-queue
//!   depth.
//! - **pid 4 — crossbars**: one cumulative-flits counter track per crossbar
//!   switch, so the hot crossbar is visible at a glance.
//!
//! Each event is a [`TraceEvent`] serialized as it happens, so the
//! recorder holds one string per event and rendering the final document
//! is [`TraceDoc::render`]'s join.

use crate::schema::{TraceArgs, TraceDoc, TraceEvent};
use mdx_core::RouteChange;
use mdx_sim::{DeadlockInfo, InjectSpec, PacketId, SimObserver};
use mdx_topology::{ChannelId, NetworkGraph, Node};
use std::collections::HashMap;

const PID_PACKETS: u64 = 1;
const PID_STALLS: u64 = 2;
const PID_QUEUES: u64 = 3;
const PID_XBARS: u64 = 4;

/// A blocked episode's key: (packet, channel, vc lane).
type BlockKey = (u32, u32, u8);
/// A blocked episode's opening: (start cycle, holding packet).
type BlockOpen = (u64, Option<u32>);

/// The trace instrument: implements [`SimObserver`]; build with
/// [`TraceRecorder::new`], attach with
/// [`mdx_sim::Simulator::add_observer`], and render the collected events
/// afterwards with [`TraceRecorder::render`].
pub struct TraceRecorder {
    chan_desc: Vec<String>,
    chan_src_xbar: Vec<Option<u32>>,
    xbar_names: Vec<String>,
    events: Vec<String>,
    open_hops: HashMap<u32, (String, u64)>,
    open_blocks: HashMap<BlockKey, BlockOpen>,
    xbar_flits: Vec<u64>,
}

impl TraceRecorder {
    /// Creates the recorder for a run on `graph`.
    pub fn new(graph: &NetworkGraph) -> TraceRecorder {
        let chan_desc: Vec<String> = graph
            .channel_ids()
            .map(|c| graph.describe_channel(c))
            .collect();
        let mut xbar_names = Vec::new();
        let mut xbar_index: HashMap<Node, u32> = HashMap::new();
        for id in graph.node_ids() {
            let n = graph.node(id);
            if matches!(n, Node::Xbar(_)) {
                xbar_index.insert(n, xbar_names.len() as u32);
                xbar_names.push(n.to_string());
            }
        }
        let chan_src_xbar: Vec<Option<u32>> = graph
            .channel_ids()
            .map(|c| xbar_index.get(&graph.node(graph.channel(c).src)).copied())
            .collect();
        let xbar_count = xbar_names.len();
        let mut rec = TraceRecorder {
            chan_desc,
            chan_src_xbar,
            xbar_names,
            events: Vec::new(),
            open_hops: HashMap::new(),
            open_blocks: HashMap::new(),
            xbar_flits: vec![0; xbar_count],
        };
        for (pid, name) in [
            (PID_PACKETS, "packets"),
            (PID_STALLS, "stalls"),
            (PID_QUEUES, "queues"),
            (PID_XBARS, "crossbars"),
        ] {
            rec.push(TraceEvent::meta(pid, None, name));
        }
        rec
    }

    fn push(&mut self, event: TraceEvent) {
        self.events.push(event.to_json());
    }

    fn slice(tid: u32, name: &str, start: u64, end: u64) -> TraceEvent {
        TraceEvent::slice(PID_PACKETS, tid.into(), name, start, end)
    }

    /// A stall slice on `chan`, naming the holding packet when known.
    fn blocked(
        &self,
        tid: u32,
        chan: usize,
        start: u64,
        end: u64,
        holder: Option<u32>,
    ) -> TraceEvent {
        let name = format!("blocked: {}", self.chan_desc[chan]);
        let mut event = TraceEvent::slice(PID_STALLS, tid.into(), name, start, end);
        event.args = holder.map(|h| TraceArgs {
            holder: Some(format!("pkt{h}")),
            ..TraceArgs::default()
        });
        event
    }

    fn instant(&mut self, tid: u32, name: &str, ts: u64) {
        self.push(TraceEvent::instant(PID_PACKETS, tid.into(), name, ts));
    }

    fn depth(&mut self, depth: usize, ts: u64) {
        let args = TraceArgs {
            depth: Some(depth as u64),
            ..TraceArgs::default()
        };
        self.push(TraceEvent::counter(
            PID_QUEUES,
            "S-XB gather depth",
            ts,
            args,
        ));
    }
}

impl SimObserver for TraceRecorder {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, _now: u64) {
        let label = format!("pkt{} (from PE{})", id.0, spec.src_pe);
        for pid in [PID_PACKETS, PID_STALLS] {
            self.push(TraceEvent::meta(pid, Some(id.0.into()), label.as_str()));
        }
    }

    fn on_hop(&mut self, id: PacketId, at: Node, _in_channel: Option<ChannelId>, now: u64) {
        if let Some((name, start)) = self.open_hops.remove(&id.0) {
            self.push(TraceRecorder::slice(id.0, &name, start, now));
        }
        self.open_hops.insert(id.0, (at.to_string(), now));
    }

    fn on_rc_change(
        &mut self,
        id: PacketId,
        at: Node,
        from: RouteChange,
        to: RouteChange,
        now: u64,
    ) {
        self.instant(id.0, &format!("RC {from:?} -> {to:?} at {at}"), now);
    }

    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        now: u64,
    ) {
        self.open_blocks
            .insert((id.0, channel.0, vc), (now, holder.map(|h| h.0)));
    }

    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, _waited: u64, now: u64) {
        if let Some((start, holder)) = self.open_blocks.remove(&(id.0, channel.0, vc)) {
            self.push(self.blocked(id.0, channel.idx(), start, now, holder));
        }
    }

    fn on_flit(&mut self, channel: ChannelId, _vc: u8, _occupancy: usize, now: u64) {
        if let Some(x) = self.chan_src_xbar[channel.idx()] {
            self.xbar_flits[x as usize] += 1;
            let name = format!("{} flits", self.xbar_names[x as usize]);
            let args = TraceArgs {
                flits: Some(self.xbar_flits[x as usize]),
                ..TraceArgs::default()
            };
            self.push(TraceEvent::counter(PID_XBARS, name, now, args));
        }
    }

    fn on_gather(&mut self, _id: PacketId, depth: usize, now: u64) {
        self.depth(depth, now);
    }

    fn on_emission(&mut self, id: PacketId, depth: usize, now: u64) {
        self.depth(depth, now);
        self.instant(id.0, "S-XB emission", now);
    }

    fn on_delivery(&mut self, id: PacketId, pe: usize, now: u64) {
        self.instant(id.0, &format!("delivered to PE{pe}"), now);
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        if let Some((name, start)) = self.open_hops.remove(&id.0) {
            self.push(TraceRecorder::slice(id.0, &name, start, now));
        }
        self.instant(id.0, "finished", now);
    }

    fn on_deadlock(&mut self, info: &DeadlockInfo) {
        let packets: Vec<u32> = info.cycle.iter().map(|e| e.waiter.0).collect();
        self.instant(
            packets.first().copied().unwrap_or(0),
            &format!("DEADLOCK ({} packets in cycle)", packets.len()),
            info.detected_at,
        );
    }
}

impl TraceRecorder {
    /// Number of events recorded so far (open slices not yet counted).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the full trace document. `end` (usually
    /// [`mdx_sim::SimStats::cycles`]) closes any still-open hop and blocked
    /// slices — packets caught in a deadlock show as slices running to the
    /// end of the trace.
    pub fn render(&self, end: u64) -> String {
        // Closed in key order, so one run always renders one document.
        let mut open_hops: Vec<_> = self.open_hops.iter().collect();
        open_hops.sort_unstable_by_key(|&(&pkt, _)| pkt);
        let mut open_blocks: Vec<_> = self.open_blocks.iter().collect();
        open_blocks.sort_unstable_by_key(|&(&key, _)| key);
        let hops = open_hops
            .into_iter()
            .map(|(&pkt, (name, start))| TraceRecorder::slice(pkt, name, *start, end));
        let blocks = open_blocks
            .into_iter()
            .map(|(&(pkt, chan, _vc), &(start, holder))| {
                self.blocked(pkt, chan as usize, start, end, holder)
            });
        let closing: Vec<String> = hops.chain(blocks).map(|e| e.to_json()).collect();
        let events: Vec<&str> = self
            .events
            .iter()
            .chain(&closing)
            .map(String::as_str)
            .collect();
        TraceDoc::render(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::Header;
    use mdx_topology::graph::GraphBuilder;
    use mdx_topology::{Coord, XbarRef};

    fn tiny_graph() -> NetworkGraph {
        let mut b = GraphBuilder::new();
        let pe = b.add_node(Node::Pe(0), None);
        let r = b.add_node(Node::Router(0), None);
        let x = b.add_node(Node::Xbar(XbarRef { dim: 0, line: 0 }), None);
        b.add_link(pe, r);
        b.add_link(r, x);
        b.build()
    }

    #[test]
    fn records_slices_counters_and_closes_open_work() {
        let g = tiny_graph();
        let xbar_out = g
            .channel_ids()
            .find(|&c| matches!(g.node(g.channel(c).src), Node::Xbar(_)))
            .unwrap();
        let mut rec = TraceRecorder::new(&g);
        let spec = InjectSpec {
            src_pe: 0,
            header: Header::unicast(Coord::ORIGIN, Coord::ORIGIN),
            flits: 2,
            inject_at: 0,
        };
        rec.on_inject(PacketId(0), &spec, 0);
        rec.on_hop(PacketId(0), Node::Pe(0), None, 0);
        rec.on_hop(PacketId(0), Node::Router(0), None, 2);
        rec.on_blocked(PacketId(0), xbar_out, 0, Some(PacketId(1)), 2);
        rec.on_unblocked(PacketId(0), xbar_out, 0, 3, 5);
        rec.on_flit(xbar_out, 0, 1, 6);
        rec.on_gather(PacketId(0), 2, 6);
        // One hop left open on purpose: render() must close it.
        let doc = rec.render(10);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("blocked: X0-XB -> R0"));
        assert!(doc.contains("X0-XB flits"));
        assert!(doc.contains("S-XB gather depth"));
        assert!(doc.contains("\"holder\":\"pkt1\""));
        // The still-open Router(0) residency closed at end=10.
        assert!(doc.contains("\"name\":\"R0\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2,\"dur\":8"));
        // The strict schema accepts every emitted event: named fields only,
        // known phases only, per-phase required fields present.
        let parsed = crate::TraceDoc::parse(&doc).expect("trace passes the strict schema");
        assert_eq!(parsed.display_time_unit, "ms");
        let open_hop = parsed
            .events("X")
            .find(|e| e.name == "R0")
            .expect("closed-out hop slice present");
        assert_eq!((open_hop.ts, open_hop.dur), (Some(2), Some(8)));
        let blocked = parsed
            .events("X")
            .find(|e| e.name.starts_with("blocked"))
            .expect("blocked slice present");
        assert_eq!(
            blocked.args.as_ref().and_then(|a| a.holder.as_deref()),
            Some("pkt1")
        );
        assert!(parsed.events("C").all(|e| e
            .args
            .as_ref()
            .is_some_and(|a| a.flits.is_some() ^ a.depth.is_some())));
    }
}
