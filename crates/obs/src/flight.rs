//! Always-on flight recorder: a fixed-capacity ring of packet lifecycle
//! events, drained into a forensic post-mortem when a run fails.
//!
//! [`FlightRecorder`] subscribes to the [`SimObserver`] hop-level hooks and
//! keeps the last [`DEFAULT_FLIGHT_CAPACITY`] events in a pre-allocated
//! ring — **zero allocation in steady state**, so it can stay attached to
//! every run the way a cockpit flight recorder stays powered. Per-flit
//! channel crossings are deliberately *not* recorded: they dominate event
//! volume a hundredfold and carry no forensic information beyond what the
//! hop, blocked, and gather events already pin down; skipping them keeps
//! the ring's history window long enough to cover the whole failure
//! build-up.
//!
//! Alongside the ring, the recorder maintains tiny per-packet state tables
//! (current RC field, injection cycle — grown only at injection, amortized)
//! plus the S-XB gather-queue depth, and captures the engine's terminal
//! wait snapshot ([`SimObserver::on_final_waits`]) when a run ends
//! abnormally. [`FlightRecorder::postmortem`] turns all of that into a
//! [`crate::PostmortemReport`][crate::postmortem::PostmortemReport] after
//! the run.

use mdx_core::RouteChange;
use mdx_sim::{EpochPhase, InjectSpec, PacketId, SimObserver, WaitSnapshot};
use mdx_topology::{ChannelId, NetworkGraph, Node};

/// Ring capacity: deep enough to hold the full build-up of every deadlock
/// the paper's scenarios produce, small enough to be always-on.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What one ring entry records. All variants are fixed-size (`Copy`) so the
/// ring never allocates after construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEventKind {
    /// The packet entered the network from `src_pe`.
    Inject {
        /// Source PE index.
        src_pe: u32,
    },
    /// The packet's header reached switch `at`.
    Hop {
        /// The switch reached.
        at: Node,
    },
    /// The routing decision rewrote the RC field at `at`.
    RcChange {
        /// The rewriting switch.
        at: Node,
        /// RC before.
        from: RouteChange,
        /// RC after.
        to: RouteChange,
    },
    /// A port request lost arbitration and began a blocked episode.
    Blocked {
        /// The contended channel.
        channel: ChannelId,
        /// The contended lane.
        vc: u8,
        /// The owning packet, if any.
        holder: Option<PacketId>,
    },
    /// A blocked port request was granted after `waited` cycles.
    Unblocked {
        /// The granted channel.
        channel: ChannelId,
        /// The granted lane.
        vc: u8,
        /// Blocked episode length in cycles.
        waited: u64,
    },
    /// The packet joined the S-XB serialization queue (depth after).
    Gather {
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// The S-XB began emitting the packet (depth after the dequeue).
    Emission {
        /// Queue depth after the dequeue.
        depth: u32,
    },
    /// The packet's tail reached destination PE `pe`.
    Delivery {
        /// Destination PE index.
        pe: u32,
    },
    /// The packet reached a terminal state.
    Finished,
    /// A mid-run fault event activated, wounding `victims` in-flight
    /// packets (recorded against the sentinel packet).
    FaultActivated {
        /// Number of packets wounded by the event.
        victims: u32,
    },
    /// The reconfiguration epoch protocol advanced a phase (recorded
    /// against the sentinel packet).
    Epoch {
        /// The epoch number the protocol is transitioning.
        epoch: u32,
        /// The phase reached.
        phase: EpochPhase,
    },
}

/// Sentinel packet id for ring entries that concern the whole network
/// (fault activations, epoch phases) rather than one packet.
pub const FLIGHT_NO_PACKET: PacketId = PacketId(u32::MAX);

/// One entry of the flight-recorder ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Simulation cycle of the event.
    pub now: u64,
    /// The packet concerned, or [`FLIGHT_NO_PACKET`] for network-wide
    /// entries (fault activations, epoch phases).
    pub packet: PacketId,
    /// What happened.
    pub kind: FlightEventKind,
}

/// The flight recorder: implements [`SimObserver`]; build with
/// [`FlightRecorder::new`], attach with
/// [`mdx_sim::Simulator::add_observer`], then inspect the ring after the
/// run, or build a [`PostmortemReport`](crate::postmortem::PostmortemReport)
/// with [`FlightRecorder::postmortem`] when it failed.
pub struct FlightRecorder {
    pub(crate) graph: NetworkGraph,
    /// Virtual-channel lanes per physical channel, for channel descriptions
    /// that match the engine's (`... (vcN)` suffix only when lanes > 1).
    pub(crate) vcs: usize,
    ring: Vec<FlightEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Total events offered to the ring (recorded + overwritten).
    recorded: u64,
    /// Last-known RC field per packet (paper Fig. 4 encoding), grown at
    /// injection.
    pub(crate) rc: Vec<RouteChange>,
    /// Injection cycle per packet, grown at injection.
    pub(crate) injected_at: Vec<u64>,
    /// Current S-XB gather-queue depth.
    pub(crate) gather_depth: u32,
    /// Peak S-XB gather-queue depth.
    pub(crate) gather_peak: u32,
    /// The engine's terminal wait snapshot, captured at abnormal run end.
    pub(crate) final_waits: Vec<WaitSnapshot>,
    /// Cycle at which the terminal snapshot was taken.
    pub(crate) final_at: Option<u64>,
}

impl FlightRecorder {
    /// Creates the recorder for a run on `graph`.
    ///
    /// `vcs` is the scheme's virtual-channel lane count
    /// ([`mdx_core::Scheme::max_vcs`], clamped to at least 1) so channel
    /// names in the post-mortem match the engine's deadlock witness. The
    /// ring of [`DEFAULT_FLIGHT_CAPACITY`] events is allocated once, here.
    pub fn new(graph: NetworkGraph, vcs: usize) -> FlightRecorder {
        FlightRecorder {
            graph,
            vcs: vcs.max(1),
            ring: Vec::with_capacity(DEFAULT_FLIGHT_CAPACITY),
            head: 0,
            recorded: 0,
            rc: Vec::new(),
            injected_at: Vec::new(),
            gather_depth: 0,
            gather_peak: 0,
            final_waits: Vec::new(),
            final_at: None,
        }
    }

    #[inline]
    fn push(&mut self, now: u64, packet: PacketId, kind: FlightEventKind) {
        let ev = FlightEvent { now, packet, kind };
        if self.ring.len() < DEFAULT_FLIGHT_CAPACITY {
            // Capacity was reserved up front: this push never reallocates.
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
        }
        self.head = (self.head + 1) % DEFAULT_FLIGHT_CAPACITY;
        self.recorded += 1;
    }

    /// Grows the per-packet tables to cover `id` (amortized; only at
    /// injection).
    fn ensure_packet(&mut self, id: PacketId) {
        if id.idx() >= self.rc.len() {
            self.rc.resize(id.idx() + 1, RouteChange::Normal);
            self.injected_at.resize(id.idx() + 1, 0);
        }
    }

    /// Snapshot of the ring, oldest event first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Total events offered to the ring (including overwritten ones).
    pub fn events_recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring wrapped.
    pub fn events_dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// Channel description matching the engine's port naming.
    pub(crate) fn describe(&self, channel: ChannelId, vc: u8) -> String {
        if self.vcs > 1 {
            format!("{} (vc{vc})", self.graph.describe_channel(channel))
        } else {
            self.graph.describe_channel(channel)
        }
    }
}

impl SimObserver for FlightRecorder {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, now: u64) {
        self.ensure_packet(id);
        self.rc[id.idx()] = spec.header.rc;
        self.injected_at[id.idx()] = now;
        self.push(
            now,
            id,
            FlightEventKind::Inject {
                src_pe: spec.src_pe as u32,
            },
        );
    }

    fn on_hop(&mut self, id: PacketId, at: Node, _in_channel: Option<ChannelId>, now: u64) {
        self.push(now, id, FlightEventKind::Hop { at });
    }

    fn on_rc_change(
        &mut self,
        id: PacketId,
        at: Node,
        from: RouteChange,
        to: RouteChange,
        now: u64,
    ) {
        self.ensure_packet(id);
        self.rc[id.idx()] = to;
        self.push(now, id, FlightEventKind::RcChange { at, from, to });
    }

    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        now: u64,
    ) {
        self.push(
            now,
            id,
            FlightEventKind::Blocked {
                channel,
                vc,
                holder,
            },
        );
    }

    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, waited: u64, now: u64) {
        self.push(
            now,
            id,
            FlightEventKind::Unblocked {
                channel,
                vc,
                waited,
            },
        );
    }

    fn on_gather(&mut self, id: PacketId, depth: usize, now: u64) {
        self.gather_depth = depth as u32;
        self.gather_peak = self.gather_peak.max(depth as u32);
        self.push(
            now,
            id,
            FlightEventKind::Gather {
                depth: depth as u32,
            },
        );
    }

    fn on_emission(&mut self, id: PacketId, depth: usize, now: u64) {
        self.gather_depth = depth as u32;
        self.push(
            now,
            id,
            FlightEventKind::Emission {
                depth: depth as u32,
            },
        );
    }

    fn on_delivery(&mut self, id: PacketId, pe: usize, now: u64) {
        self.push(now, id, FlightEventKind::Delivery { pe: pe as u32 });
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        self.push(now, id, FlightEventKind::Finished);
    }

    fn on_final_waits(&mut self, now: u64, waits: &[WaitSnapshot]) {
        self.final_at = Some(now);
        self.final_waits = waits.to_vec();
    }

    fn on_fault_activated(&mut self, now: u64, victims: &[PacketId]) {
        self.push(
            now,
            FLIGHT_NO_PACKET,
            FlightEventKind::FaultActivated {
                victims: victims.len() as u32,
            },
        );
    }

    fn on_epoch_phase(&mut self, epoch: u32, phase: EpochPhase, now: u64) {
        self.push(
            now,
            FLIGHT_NO_PACKET,
            FlightEventKind::Epoch { epoch, phase },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::Header;
    use mdx_topology::{Coord, MdCrossbar, Shape};

    fn graph() -> NetworkGraph {
        MdCrossbar::build(Shape::fig2()).graph().clone()
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut rec = FlightRecorder::new(graph(), 1);
        let total = DEFAULT_FLIGHT_CAPACITY as u64 + 6;
        for i in 0..total {
            rec.on_hop(PacketId(0), Node::Router(i as usize % 3), None, i);
        }
        assert_eq!(rec.events_recorded(), total);
        assert_eq!(rec.events_dropped(), 6);
        let evs = rec.events();
        assert_eq!(evs.len(), DEFAULT_FLIGHT_CAPACITY);
        // Oldest-first: the six oldest were overwritten.
        let cycles: Vec<u64> = evs.iter().map(|e| e.now).collect();
        assert_eq!(cycles, (6..total).collect::<Vec<u64>>());
    }

    #[test]
    fn tracks_rc_state_and_gather_depth() {
        let mut rec = FlightRecorder::new(graph(), 1);
        let spec = InjectSpec {
            src_pe: 0,
            header: Header::broadcast_request(Coord::ORIGIN),
            flits: 4,
            inject_at: 0,
        };
        rec.on_inject(PacketId(0), &spec, 0);
        rec.on_gather(PacketId(0), 2, 3);
        rec.on_rc_change(
            PacketId(0),
            Node::Pe(0),
            RouteChange::BroadcastRequest,
            RouteChange::Broadcast,
            5,
        );
        assert_eq!(rec.rc[0], RouteChange::Broadcast);
        assert_eq!(rec.injected_at[0], 0);
        assert_eq!(rec.gather_peak, 2);
    }
}
