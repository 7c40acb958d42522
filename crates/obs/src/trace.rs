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
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

const PID_PACKETS: u64 = 1;
const PID_STALLS: u64 = 2;
const PID_QUEUES: u64 = 3;
const PID_XBARS: u64 = 4;

/// A blocked episode's key: (packet, channel, vc lane).
type BlockKey = (u32, u32, u8);
/// A blocked episode's opening: (start cycle, holding packet).
type BlockOpen = (u64, Option<u32>);

struct State {
    chan_desc: Vec<String>,
    chan_src_xbar: Vec<Option<u32>>,
    xbar_names: Vec<String>,
    events: Vec<String>,
    open_hops: HashMap<u32, (String, u64)>,
    open_blocks: HashMap<BlockKey, BlockOpen>,
    xbar_flits: Vec<u64>,
}

impl State {
    fn push(&mut self, event: TraceEvent) {
        self.events.push(event.to_json());
    }

    fn slice(&mut self, tid: u32, name: &str, start: u64, end: u64) {
        self.push(TraceEvent::slice(PID_PACKETS, tid.into(), name, start, end));
    }

    /// A stall slice on `chan`, naming the holding packet when known.
    fn blocked(&mut self, tid: u32, chan: usize, start: u64, end: u64, holder: Option<u32>) {
        let name = format!("blocked: {}", self.chan_desc[chan]);
        let mut event = TraceEvent::slice(PID_STALLS, tid.into(), name, start, end);
        event.args = holder.map(|h| TraceArgs {
            holder: Some(format!("pkt{h}")),
            ..TraceArgs::default()
        });
        self.push(event);
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

/// The attachable half of the trace instrument; pair with the
/// [`TraceHandle`] returned by [`TraceRecorder::new`].
pub struct TraceRecorder {
    state: Rc<RefCell<State>>,
}

/// The caller-retained half of the trace instrument; renders the collected
/// events to a Chrome `trace_event` JSON document after the run.
#[derive(Clone)]
pub struct TraceHandle {
    state: Rc<RefCell<State>>,
}

impl TraceRecorder {
    /// Creates the recorder/handle pair for a run on `graph`.
    pub fn new(graph: &NetworkGraph) -> (TraceRecorder, TraceHandle) {
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
        let mut state = State {
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
            state.push(TraceEvent::meta(pid, None, name));
        }
        let state = Rc::new(RefCell::new(state));
        (
            TraceRecorder {
                state: Rc::clone(&state),
            },
            TraceHandle { state },
        )
    }
}

impl SimObserver for TraceRecorder {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, _now: u64) {
        let mut s = self.state.borrow_mut();
        let label = format!("pkt{} (from PE{})", id.0, spec.src_pe);
        for pid in [PID_PACKETS, PID_STALLS] {
            s.push(TraceEvent::meta(pid, Some(id.0.into()), label.as_str()));
        }
    }

    fn on_hop(&mut self, id: PacketId, at: Node, _in_channel: Option<ChannelId>, now: u64) {
        let mut s = self.state.borrow_mut();
        if let Some((name, start)) = s.open_hops.remove(&id.0) {
            s.slice(id.0, &name, start, now);
        }
        s.open_hops.insert(id.0, (at.to_string(), now));
    }

    fn on_rc_change(
        &mut self,
        id: PacketId,
        at: Node,
        from: RouteChange,
        to: RouteChange,
        now: u64,
    ) {
        self.state
            .borrow_mut()
            .instant(id.0, &format!("RC {from:?} -> {to:?} at {at}"), now);
    }

    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        now: u64,
    ) {
        self.state
            .borrow_mut()
            .open_blocks
            .insert((id.0, channel.0, vc), (now, holder.map(|h| h.0)));
    }

    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, _waited: u64, now: u64) {
        let mut s = self.state.borrow_mut();
        if let Some((start, holder)) = s.open_blocks.remove(&(id.0, channel.0, vc)) {
            s.blocked(id.0, channel.idx(), start, now, holder);
        }
    }

    fn on_flit(&mut self, channel: ChannelId, _vc: u8, _occupancy: usize, now: u64) {
        let mut s = self.state.borrow_mut();
        if let Some(x) = s.chan_src_xbar[channel.idx()] {
            s.xbar_flits[x as usize] += 1;
            let name = format!("{} flits", s.xbar_names[x as usize]);
            let args = TraceArgs {
                flits: Some(s.xbar_flits[x as usize]),
                ..TraceArgs::default()
            };
            s.push(TraceEvent::counter(PID_XBARS, name, now, args));
        }
    }

    fn on_gather(&mut self, _id: PacketId, depth: usize, now: u64) {
        self.state.borrow_mut().depth(depth, now);
    }

    fn on_emission(&mut self, id: PacketId, depth: usize, now: u64) {
        let mut s = self.state.borrow_mut();
        s.depth(depth, now);
        s.instant(id.0, "S-XB emission", now);
    }

    fn on_delivery(&mut self, id: PacketId, pe: usize, now: u64) {
        self.state
            .borrow_mut()
            .instant(id.0, &format!("delivered to PE{pe}"), now);
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        let mut s = self.state.borrow_mut();
        if let Some((name, start)) = s.open_hops.remove(&id.0) {
            s.slice(id.0, &name, start, now);
        }
        s.instant(id.0, "finished", now);
    }

    fn on_deadlock(&mut self, info: &DeadlockInfo) {
        let mut s = self.state.borrow_mut();
        let packets: Vec<u32> = info.cycle.iter().map(|e| e.waiter.0).collect();
        s.instant(
            packets.first().copied().unwrap_or(0),
            &format!("DEADLOCK ({} packets in cycle)", packets.len()),
            info.detected_at,
        );
    }
}

impl TraceHandle {
    /// Number of events recorded so far (open slices not yet counted).
    pub fn len(&self) -> usize {
        self.state.borrow().events.len()
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
        let mut s = self.state.borrow_mut();
        // Closed in key order, so one run always renders one document.
        let mut open_hops: Vec<(u32, (String, u64))> = s.open_hops.drain().collect();
        open_hops.sort_unstable_by_key(|&(pkt, _)| pkt);
        for (pkt, (name, start)) in open_hops {
            s.slice(pkt, &name, start, end);
        }
        let mut open_blocks: Vec<(BlockKey, BlockOpen)> = s.open_blocks.drain().collect();
        open_blocks.sort_unstable_by_key(|&(key, _)| key);
        for ((pkt, chan, _vc), (start, holder)) in open_blocks {
            s.blocked(pkt, chan as usize, start, end, holder);
        }
        TraceDoc::render(&s.events)
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
        let (mut rec, handle) = TraceRecorder::new(&g);
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
        let doc = handle.render(10);
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
