//! Lightweight event hooks into the engine.
//!
//! A [`SimObserver`] lets instrumentation (campaign runners, trace
//! collectors, live dashboards) watch a run without the engine allocating
//! anything on their behalf: every method defaults to a no-op, every call
//! site in the engine is a loop over the attached observers (empty by
//! default), and nothing below the packet-lifecycle/hop granularity is
//! materialized unless an observer is attached.
//!
//! Any number of observers can watch one run: attach each with
//! [`crate::Simulator::add_observer`]. Every hook fires on each observer
//! in attach order before the engine moves on to the next hook, and
//! probes run at the smallest [`SimObserver::probe_interval`] any of them
//! asks for (an observer that wanted a coarser period simply sees extra
//! snapshots).
//!
//! ## Hook firing order
//!
//! Within one simulated cycle the engine fires hooks in this fixed order
//! (each bullet only when its event happens that cycle):
//!
//! 1. [`SimObserver::on_inject`] — a scheduled packet's injection cycle
//!    arrived; immediately followed by that packet's first
//!    [`SimObserver::on_hop`] at its source PE.
//! 2. [`SimObserver::on_hop`] — a header reached the front of a channel
//!    buffer and the downstream switch made its routing decision; fired
//!    *before* any of that hop's port requests are arbitrated. When the
//!    decision rewrites the RC field, [`SimObserver::on_rc_change`] fires
//!    directly after the hop. A paused visit re-decided after a reprogram
//!    (`reroute` recovery, [`crate::Simulator::redecide_paused`], between
//!    cycles) fires the same pair, like a first decision.
//! 3. [`SimObserver::on_emission`] — the S-XB dequeued a gathered
//!    broadcast request and began emitting it (one at a time, Fig. 6);
//!    followed by its `on_hop`/`on_rc_change` at the S-XB.
//! 4. [`SimObserver::on_blocked`] / [`SimObserver::on_unblocked`] — port
//!    arbitration ran: a request that could not be granted this cycle
//!    transitions to *blocked* (fired once per blocked episode, not per
//!    cycle); a granted request that had been blocked fires `on_unblocked`
//!    with the episode length.
//! 5. [`SimObserver::on_flit`] — one flit crossed one channel (at most one
//!    per lane per physical link per cycle).
//! 6. [`SimObserver::on_delivery`] — a packet's tail drained into a
//!    destination PE. [`SimObserver::on_gather`] fires here instead when
//!    the sink is the S-XB gather queue.
//! 7. [`SimObserver::on_packet_finished`] — the packet's last open element
//!    closed (all visits complete and all buffers drained).
//! 8. [`SimObserver::on_probe`] — end of cycle, only on multiples of
//!    [`SimObserver::probe_interval`]: a snapshot of every ungranted port
//!    want, for wait-chain analysis.
//!
//! Two hooks fire once, outside the cycle loop, when a run ends abnormally
//! (deadlock, stall, or the cycle limit): first
//! [`SimObserver::on_final_waits`] with the terminal wait snapshot — the
//! drain point for post-mortem instruments such as a flight recorder —
//! then, for deadlocks only, [`SimObserver::on_deadlock`] with the
//! extracted cyclic wait; `on_deadlock` is the last hook of such a run.
//!
//! ## Blocked/unblocked pairing contract
//!
//! Instruments that *integrate* blocked time (latency attribution, blame
//! profiles) rely on a stricter shape than "blocked happened":
//!
//! 1. **One open episode per key.** For a given `(packet, channel, vc)`
//!    key, [`SimObserver::on_blocked`] opens at most one episode at a
//!    time: it fires once when the port request loses arbitration, *not*
//!    once per blocked cycle. A broadcast packet may hold several episodes
//!    open simultaneously — one per branch — but always on distinct
//!    `(channel, vc)` keys.
//! 2. **Matched close, exact span.** Every episode that ends in a grant
//!    fires exactly one [`SimObserver::on_unblocked`] with the *same*
//!    `(packet, channel, vc)` key, at the grant cycle `now`, with
//!    `waited == now - blocked_now`. The blocked interval is therefore
//!    `[now - waited, now)`, half-open, and never overlaps the next
//!    episode on the same key.
//! 3. **Holder is pre-arbitration.** The `holder` passed to `on_blocked`
//!    is the packet owning the port *when the episode opened*; it may
//!    release the port (and a different packet may take it) before the
//!    waiter's grant. Classifiers should sample holder state at open time
//!    and treat it as the cause of the episode.
//! 4. **Abnormal ends leave episodes open.** Deadlocked, stalled, or
//!    cycle-limited runs end with episodes that never see `on_unblocked`
//!    (they surface in [`SimObserver::on_final_waits`] instead). A packet
//!    that reaches [`SimObserver::on_packet_finished`] has no open
//!    episodes: all of its grants happened before it finished.
//! 5. **Re-injection resets the key space.** When live reconfiguration
//!    reschedules a victim (`reinject`/`reroute` recovery), the packet's
//!    second [`SimObserver::on_inject`] starts a fresh lifecycle; episodes
//!    from its aborted first flight were already closed (or the packet was
//!    reset while *holding*, never waiting) and must not be carried over.
//!
//! The contract is checkable per run — this observer asserts it on a live
//! simulation:
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use mdx_core::{Header, NaiveBroadcast};
//! use mdx_sim::{InjectSpec, PacketId, SimConfig, SimObserver, Simulator};
//! use mdx_topology::{ChannelId, MdCrossbar, Shape};
//!
//! #[derive(Default)]
//! struct PairingCheck {
//!     open: HashMap<(PacketId, ChannelId, u8), u64>,
//!     episodes: usize,
//! }
//!
//! impl SimObserver for PairingCheck {
//!     fn on_blocked(
//!         &mut self,
//!         id: PacketId,
//!         channel: ChannelId,
//!         vc: u8,
//!         _holder: Option<PacketId>,
//!         now: u64,
//!     ) {
//!         // (1) at most one open episode per (packet, channel, vc) key.
//!         assert!(self.open.insert((id, channel, vc), now).is_none());
//!     }
//!     fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, waited: u64, now: u64) {
//!         // (2) every grant closes a matching open episode, exactly.
//!         let since = self.open.remove(&(id, channel, vc)).expect("episode was open");
//!         assert_eq!(waited, now - since);
//!         self.episodes += 1;
//!     }
//! }
//!
//! // Two simultaneous broadcasts contend hard enough to block.
//! let net = Arc::new(MdCrossbar::build(Shape::fig2()));
//! let shape = net.shape().clone();
//! let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
//! let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
//! sim.add_observer(PairingCheck::default());
//! for src in [0usize, 7] {
//!     sim.schedule(InjectSpec {
//!         src_pe: src,
//!         header: Header::broadcast_request(shape.coord_of(src)),
//!         flits: 8,
//!         inject_at: 0,
//!     });
//! }
//! let result = sim.run();
//! // (4) a completed run leaves nothing open — asserted inside the hooks
//! // above for every episode along the way.
//! assert!(matches!(result.outcome, mdx_sim::SimOutcome::Completed));
//! ```

use crate::result::{DeadlockInfo, InjectSpec, PacketId};
use mdx_core::RouteChange;
use mdx_topology::{ChannelId, Node};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// One ungranted port want, as seen by a periodic [`SimObserver::on_probe`]
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSnapshot {
    /// The blocked packet.
    pub waiter: PacketId,
    /// The packet currently owning the wanted port (`None` when the port is
    /// free but the grant has not happened yet this cycle).
    pub holder: Option<PacketId>,
    /// The wanted channel.
    pub channel: ChannelId,
    /// The wanted virtual-channel lane.
    pub vc: u8,
    /// Cycle at which this want became blocked.
    pub since: u64,
    /// Reconfiguration epoch of the routing decision that created this
    /// want (0 until the first reprogram). A wait whose `epoch` differs
    /// from its holder's was decided under a *different* routing function
    /// — the raw material of transition-deadlock analysis.
    pub epoch: u32,
    /// Epoch of the routing decision that put the holder on the port.
    pub holder_epoch: Option<u32>,
}

/// What a full [`search_waits`] found in one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitChains {
    /// Packets on the longest simple waiter→holder chain: 0 when nothing
    /// waits, 1 for a lone holder-less want, 2 for a packet waiting on one
    /// that is not itself blocked. A chain stops where it would re-enter
    /// itself, so a cycle counts its distinct packets.
    pub longest_chain: usize,
    /// Whether the snapshot holds a cyclic wait.
    pub has_cycle: bool,
}

/// Searches the wait-for graph of one snapshot depth first, calling
/// `on_cycle` with each cycle the walk closes and stopping when it
/// returns [`ControlFlow::Break`].
///
/// The graph has a node for every waiter and holder and an edge from each
/// want's waiter to its holder (holder-less wants add none), each waiter's
/// edges in snapshot order. The walk starts from each unvisited packet in
/// ascending id. An edge back onto the walk's path closes a cycle, which
/// `on_cycle` receives as indices into `waits` in cycle order: each edge's
/// holder is the next edge's waiter, and the last edge's holder the first
/// edge's waiter; the path that led there is not part of it. Each back
/// edge closes one cycle, so a cycle that closes only through a packet
/// already fully explored is not reported: the depth-first answer the
/// watchdog, the post-mortem and the transition checker share.
///
/// The returned chains are complete only when `on_cycle` never breaks.
pub fn search_waits(
    waits: &[WaitSnapshot],
    mut on_cycle: impl FnMut(&[usize]) -> ControlFlow<()>,
) -> WaitChains {
    let mut adj: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
    let mut roots = Vec::with_capacity(2 * waits.len());
    for (i, w) in waits.iter().enumerate() {
        roots.push(w.waiter.0);
        if let Some(h) = w.holder {
            roots.push(h.0);
            adj.entry(w.waiter.0).or_default().push((h.0, i));
        }
    }
    roots.sort_unstable();
    roots.dedup();

    /// A packet on the walk's path, or fully explored with the length of
    /// the longest chain that starts at it.
    enum Mark {
        OnPath,
        Done(usize),
    }
    /// A packet on the path: its next edge to try and the longest chain
    /// found below it so far.
    struct Frame {
        packet: u32,
        next: usize,
        below: usize,
    }
    let mut marks: HashMap<u32, Mark> = HashMap::new();
    let mut path: Vec<Frame> = Vec::new();
    // The want behind each step down the path: `wants[k]` leads from
    // `path[k]` to `path[k + 1]`.
    let mut wants: Vec<usize> = Vec::new();
    let mut found = WaitChains::default();
    for &root in &roots {
        if marks.contains_key(&root) {
            continue;
        }
        marks.insert(root, Mark::OnPath);
        path.push(Frame {
            packet: root,
            next: 0,
            below: 0,
        });
        while let Some(top) = path.last_mut() {
            let edges = adj.get(&top.packet).map_or(&[][..], Vec::as_slice);
            let Some(&(holder, want)) = edges.get(top.next) else {
                let chain = top.below + 1;
                marks.insert(top.packet, Mark::Done(chain));
                found.longest_chain = found.longest_chain.max(chain);
                path.pop();
                if let Some(parent) = path.last_mut() {
                    parent.below = parent.below.max(chain);
                    wants.pop();
                }
                continue;
            };
            top.next += 1;
            match marks.get(&holder) {
                Some(&Mark::Done(chain)) => top.below = top.below.max(chain),
                Some(Mark::OnPath) => {
                    found.has_cycle = true;
                    let from = path.iter().position(|f| f.packet == holder).unwrap_or(0);
                    wants.push(want);
                    let stop = on_cycle(&wants[from..]).is_break();
                    wants.pop();
                    if stop {
                        return found;
                    }
                }
                None => {
                    marks.insert(holder, Mark::OnPath);
                    wants.push(want);
                    path.push(Frame {
                        packet: holder,
                        next: 0,
                        below: 0,
                    });
                }
            }
        }
    }
    found
}

/// The first cyclic wait [`search_waits`] closes among `waits`, as indices
/// into it in cycle order; empty when the wants form no cycle. The
/// watchdog names a deadlock's witness this way from
/// [`crate::Simulator::wait_snapshot`], and a post-mortem that runs it on
/// the terminal snapshot ([`SimObserver::on_final_waits`]) finds the same
/// cycle.
pub fn first_wait_cycle(waits: &[WaitSnapshot]) -> Vec<usize> {
    let mut first = Vec::new();
    search_waits(waits, |cycle| {
        first = cycle.to_vec();
        ControlFlow::Break(())
    });
    first
}

/// Phases of one reconfiguration epoch, in protocol order. Mirrors the
/// SR2201 service processor's role: notice the fault, stop accepting new
/// traffic, let in-flight traffic drain or evacuate, rewrite the fault
/// registers and detour configuration, reopen the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EpochPhase {
    /// The controller noticed the fault event (after its detect latency).
    Detected,
    /// Injection closed; no new packets enter.
    Quiesced,
    /// In-flight traffic drained or was evacuated.
    Drained,
    /// Fault registers re-derived, the routing function replaced.
    Reprogrammed,
    /// Injection reopened; victims re-enter per the recovery policy.
    Resumed,
}

impl std::fmt::Display for EpochPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EpochPhase::Detected => "detected",
            EpochPhase::Quiesced => "quiesced",
            EpochPhase::Drained => "drained",
            EpochPhase::Reprogrammed => "reprogrammed",
            EpochPhase::Resumed => "resumed",
        };
        write!(f, "{s}")
    }
}

/// Callbacks fired by [`crate::Simulator`] as packets move through their
/// lifecycle and across individual channels. All methods have empty
/// defaults; implement only what you need. Attach with
/// [`crate::Simulator::add_observer`]. See the [module docs](self) for the
/// exact per-cycle firing order.
pub trait SimObserver {
    /// A packet entered the network (its header left the source NIA).
    fn on_inject(&mut self, _id: PacketId, _spec: &InjectSpec, _now: u64) {}

    /// A packet's header arrived at switch `at` and the routing decision
    /// for this hop was made, or re-made for a visit paused by a fault
    /// (`reroute` recovery). `in_channel` is the channel it arrived on
    /// (`None` for injection at the source PE and for S-XB emission, which
    /// read from local memory).
    fn on_hop(&mut self, _id: PacketId, _at: Node, _in_channel: Option<ChannelId>, _now: u64) {}

    /// The routing decision at `at` rewrote the header's RC field — a
    /// broadcast request entering the S-XB pipeline, the S-XB emission
    /// (RC=1 → RC=2), a detour initiation (RC=0 → RC=3), or the detour
    /// completion at the D-XB (RC=3 → RC=0). Fired right after the
    /// decision's [`SimObserver::on_hop`], for a re-decision under
    /// `reroute` as for a first decision.
    fn on_rc_change(
        &mut self,
        _id: PacketId,
        _at: Node,
        _from: RouteChange,
        _to: RouteChange,
        _now: u64,
    ) {
    }

    /// A packet's port request lost arbitration and transitioned to
    /// *blocked* (fired once per blocked episode). `holder` is the packet
    /// owning the port, if any.
    fn on_blocked(
        &mut self,
        _id: PacketId,
        _channel: ChannelId,
        _vc: u8,
        _holder: Option<PacketId>,
        _now: u64,
    ) {
    }

    /// A previously blocked port request was granted after `waited` cycles.
    fn on_unblocked(
        &mut self,
        _id: PacketId,
        _channel: ChannelId,
        _vc: u8,
        _waited: u64,
        _now: u64,
    ) {
    }

    /// One flit crossed `channel` on lane `vc`. `occupancy` is the number
    /// of flits in the channel's downstream buffer *after* this crossing.
    fn on_flit(&mut self, _channel: ChannelId, _vc: u8, _occupancy: usize, _now: u64) {}

    /// A gathered broadcast request joined the S-XB serialization queue;
    /// `depth` is the queue length after the enqueue.
    fn on_gather(&mut self, _id: PacketId, _depth: usize, _now: u64) {}

    /// The S-XB dequeued a gathered request and began its emission fan;
    /// `depth` is the queue length after the dequeue.
    fn on_emission(&mut self, _id: PacketId, _depth: usize, _now: u64) {}

    /// A packet's tail reached the destination PE `pe` (fires once per
    /// leaf for broadcasts).
    fn on_delivery(&mut self, _id: PacketId, _pe: usize, _now: u64) {}

    /// A packet reached a terminal state: every visit closed and all
    /// resources released.
    fn on_packet_finished(&mut self, _id: PacketId, _now: u64) {}

    /// Cycle period at which the engine should take [`WaitSnapshot`]s and
    /// call [`SimObserver::on_probe`]. `None` (the default) asks for no
    /// probes; when no attached observer asks, the engine never
    /// materializes snapshots.
    fn probe_interval(&self) -> Option<u64> {
        None
    }

    /// A periodic snapshot of every ungranted port want (see
    /// [`SimObserver::probe_interval`]). `waits` is unordered.
    fn on_probe(&mut self, _now: u64, _waits: &[WaitSnapshot]) {}

    /// The run is about to end abnormally (deadlock, stall, or cycle
    /// limit): `waits` is the terminal snapshot of every ungranted port
    /// want, in the engine's stable visit order — the same edges the
    /// watchdog's deadlock analysis walks. Fired once, after the cycle
    /// loop and before [`SimObserver::on_deadlock`]; never fired for
    /// completed runs. This is the drain point for post-mortem
    /// instruments.
    fn on_final_waits(&mut self, _now: u64, _waits: &[WaitSnapshot]) {}

    /// The watchdog extracted a cyclic wait; the run is about to end as
    /// [`crate::SimOutcome::Deadlock`].
    fn on_deadlock(&mut self, _info: &DeadlockInfo) {}

    /// A fault event took effect mid-run: components died (or were
    /// repaired) and `victims` are the in-flight packets wounded by the
    /// change. Fired by [`crate::Simulator::activate_faults`] at the event
    /// cycle, before the reconfiguration controller reacts.
    fn on_fault_activated(&mut self, _now: u64, _victims: &[PacketId]) {}

    /// The reconfiguration controller crossed an epoch-phase boundary
    /// (detect → quiesce → drain → reprogram → resume). `epoch` counts
    /// reprogramming events from 0 (the pre-fault routing function).
    fn on_epoch_phase(&mut self, _epoch: u32, _phase: EpochPhase, _now: u64) {}
}

/// An observer that counts lifecycle events — handy as a smoke-test of the
/// hook wiring and as a cheap progress probe.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventCounts {
    /// Packets injected.
    pub injected: usize,
    /// Header arrivals at switches (including injection and emission).
    pub hops: usize,
    /// RC-field rewrites observed.
    pub rc_changes: usize,
    /// Blocked episodes started.
    pub blocked: usize,
    /// Blocked episodes ended in a grant.
    pub unblocked: usize,
    /// Flit channel crossings.
    pub flits: u64,
    /// Requests gathered into the S-XB queue.
    pub gathered: usize,
    /// S-XB emissions started.
    pub emissions: usize,
    /// Deliveries (per-leaf for broadcasts).
    pub deliveries: usize,
    /// Packets that reached a terminal state.
    pub finished: usize,
    /// Deadlock reports (0 or 1 per run).
    pub deadlocks: usize,
    /// Mid-run fault activations.
    pub fault_activations: usize,
    /// In-flight packets victimized by fault activations.
    pub fault_victims: usize,
    /// Epoch-phase transitions observed.
    pub epoch_phases: usize,
}

impl SimObserver for EventCounts {
    fn on_inject(&mut self, _id: PacketId, _spec: &InjectSpec, _now: u64) {
        self.injected += 1;
    }

    fn on_hop(&mut self, _id: PacketId, _at: Node, _in_channel: Option<ChannelId>, _now: u64) {
        self.hops += 1;
    }

    fn on_rc_change(
        &mut self,
        _id: PacketId,
        _at: Node,
        _from: RouteChange,
        _to: RouteChange,
        _now: u64,
    ) {
        self.rc_changes += 1;
    }

    fn on_blocked(
        &mut self,
        _id: PacketId,
        _channel: ChannelId,
        _vc: u8,
        _holder: Option<PacketId>,
        _now: u64,
    ) {
        self.blocked += 1;
    }

    fn on_unblocked(
        &mut self,
        _id: PacketId,
        _channel: ChannelId,
        _vc: u8,
        _waited: u64,
        _now: u64,
    ) {
        self.unblocked += 1;
    }

    fn on_flit(&mut self, _channel: ChannelId, _vc: u8, _occupancy: usize, _now: u64) {
        self.flits += 1;
    }

    fn on_gather(&mut self, _id: PacketId, _depth: usize, _now: u64) {
        self.gathered += 1;
    }

    fn on_emission(&mut self, _id: PacketId, _depth: usize, _now: u64) {
        self.emissions += 1;
    }

    fn on_delivery(&mut self, _id: PacketId, _pe: usize, _now: u64) {
        self.deliveries += 1;
    }

    fn on_packet_finished(&mut self, _id: PacketId, _now: u64) {
        self.finished += 1;
    }

    fn on_deadlock(&mut self, _info: &DeadlockInfo) {
        self.deadlocks += 1;
    }

    fn on_fault_activated(&mut self, _now: u64, victims: &[PacketId]) {
        self.fault_activations += 1;
        self.fault_victims += victims.len();
    }

    fn on_epoch_phase(&mut self, _epoch: u32, _phase: EpochPhase, _now: u64) {
        self.epoch_phases += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One want per `(waiter, holder)` pair, each on a channel of its own.
    fn waits(edges: &[(u32, Option<u32>)]) -> Vec<WaitSnapshot> {
        let want = |(ch, &(waiter, holder)): (usize, &(u32, Option<u32>))| WaitSnapshot {
            waiter: PacketId(waiter),
            holder: holder.map(PacketId),
            channel: ChannelId(ch as u32),
            vc: 0,
            since: 0,
            epoch: 0,
            holder_epoch: holder.map(|_| 0),
        };
        edges.iter().enumerate().map(want).collect()
    }

    #[test]
    fn reconstructs_simple_two_cycle() {
        // pkt0 waits on pkt1, pkt1 waits on pkt0, plus a dangling want.
        let w = waits(&[(0, Some(1)), (1, Some(0)), (2, None)]);
        assert_eq!(first_wait_cycle(&w), vec![0, 1]);
    }

    #[test]
    fn a_self_wait_is_a_cycle() {
        // pkt4 wants a port that it holds itself.
        let w = waits(&[(3, Some(4)), (4, Some(4))]);
        assert_eq!(first_wait_cycle(&w), vec![1]);
    }

    #[test]
    fn the_tail_into_a_cycle_is_not_reported() {
        // pkt0 -> pkt1 -> pkt2 -> pkt1: the walk enters the cycle from pkt0.
        let w = waits(&[(0, Some(1)), (1, Some(2)), (2, Some(1))]);
        assert_eq!(first_wait_cycle(&w), vec![1, 2]);
    }

    #[test]
    fn holderless_wants_are_skipped() {
        let w = waits(&[(0, None), (1, None), (0, Some(1)), (1, Some(0))]);
        assert_eq!(first_wait_cycle(&w), vec![2, 3]);
        assert!(first_wait_cycle(&w[..2]).is_empty());
    }

    #[test]
    fn the_cycle_reached_from_the_lowest_waiter_wins() {
        // Two disjoint cycles: the snapshot lists pkt7 and pkt8's first,
        // but the walk starts at pkt2.
        let w = waits(&[(7, Some(8)), (8, Some(7)), (5, Some(2)), (2, Some(5))]);
        assert_eq!(first_wait_cycle(&w), vec![3, 2]);
    }

    #[test]
    fn every_cycle_reaches_the_hook_until_it_breaks() {
        let w = waits(&[(7, Some(8)), (8, Some(7)), (5, Some(2)), (2, Some(5))]);
        let mut seen = Vec::new();
        let all = search_waits(&w, |cycle| {
            seen.push(cycle.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(seen, vec![vec![3, 2], vec![0, 1]]);
        assert!(all.has_cycle);
        seen.clear();
        search_waits(&w, |cycle| {
            seen.push(cycle.to_vec());
            ControlFlow::Break(())
        });
        assert_eq!(seen, vec![vec![3, 2]]);
    }

    /// The chains of a full search.
    fn chains(edges: &[(u32, Option<u32>)]) -> WaitChains {
        search_waits(&waits(edges), |_| ControlFlow::Continue(()))
    }

    #[test]
    fn empty_snapshot_is_quiet() {
        assert_eq!(chains(&[]), WaitChains::default());
    }

    #[test]
    fn single_wait_is_a_two_chain() {
        let r = chains(&[(0, Some(1))]);
        assert_eq!(r.longest_chain, 2);
        assert!(!r.has_cycle);
    }

    #[test]
    fn holderless_wait_counts_alone() {
        let r = chains(&[(3, None)]);
        assert_eq!(r.longest_chain, 1);
        assert!(!r.has_cycle);
    }

    #[test]
    fn chains_extend_through_blocked_holders() {
        // 0 -> 1 -> 2 -> 3 plus an unrelated 7 -> 8.
        let r = chains(&[(0, Some(1)), (1, Some(2)), (2, Some(3)), (7, Some(8))]);
        assert_eq!(r.longest_chain, 4);
        assert!(!r.has_cycle);
    }

    #[test]
    fn branching_takes_the_deepest_arm() {
        // 0 waits on both 1 (chain of 2 more) and 9 (leaf).
        let r = chains(&[(0, Some(1)), (0, Some(9)), (1, Some(2))]);
        assert_eq!(r.longest_chain, 3);
    }

    #[test]
    fn cycle_is_flagged_and_bounded() {
        let r = chains(&[(0, Some(1)), (1, Some(2)), (2, Some(0))]);
        assert!(r.has_cycle);
        assert_eq!(r.longest_chain, 3);
    }

    #[test]
    fn tail_into_cycle_counts_the_tail() {
        // 5 -> 0 -> 1 -> 0 (two-cycle with a tail).
        let r = chains(&[(5, Some(0)), (0, Some(1)), (1, Some(0))]);
        assert!(r.has_cycle);
        assert_eq!(r.longest_chain, 3);
    }
}
