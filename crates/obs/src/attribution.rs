//! Cycle-exact latency attribution: disjoint, conserving per-packet phase
//! decomposition, blame profiles, and the run's critical path.
//!
//! [`AttributionObserver`] consumes the [`SimObserver`] stream and, for
//! every delivered packet, partitions the end-to-end latency window
//! `[injected_at, finished_at)` into **disjoint** phases whose durations
//! sum to the engine's own latency *exactly* — the profiler counterpart
//! of the paper's Figs. 9–10 argument about where cycles go:
//!
//! - `inject_wait` — source injection queueing: the scheduled injection
//!   cycle arrived but the header had not yet left the NIA (front-of-line
//!   blocking at the source, or the reconfiguration injection gate).
//! - `gather_wait` — S-XB serialization: the broadcast request sat in the
//!   S-XB gather queue between [`SimObserver::on_gather`] and its
//!   [`SimObserver::on_emission`] (the Fig. 6 one-at-a-time bottleneck).
//! - `blocked_normal` / `blocked_gather` / `blocked_detour` — port
//!   arbitration losses, split by *holder class* sampled when the episode
//!   opened: behind a normal (RC=0) packet or a free port, behind the
//!   S-XB pipeline (holder RC∈{1,2}), or behind a detoured (RC=3) packet.
//! - `epoch_pause` — cycles inside an mdx-reconfig epoch pause: any
//!   *waiting* cycle within `[quiesced, resumed)` and every cycle of the
//!   reprogram clock jump `[drained, reprogrammed)` (when nothing in the
//!   machine moves), counted exactly once.
//! - `detour_transfer` — cycles the packet spent in RC=3 flight (between
//!   the detour-initiating RC rewrite and the D-XB completing it), net of
//!   any overlapped wait above. Reported next to the fault-free
//!   dimension-order path length ([`InjectSpec::fault_free_channel_hops`])
//!   so the detour's *hop* overhead is visible too.
//! - `base_transfer` — the remainder: ordinary dimension-order movement.
//!
//! Overlaps resolve by a fixed priority (a broadcast can hold several
//! blocked branches open at once; a detoured packet can block mid-detour)
//! — every cycle lands in exactly one phase, so the hard invariant
//!
//! ```text
//! inject_wait + epoch_pause + gather_wait + blocked_* + detour_transfer
//!   + base_transfer == finished_at - injected_at
//! ```
//!
//! holds for every delivered packet by construction, and
//! [`AttributionHandle::report`] re-checks it against the engine's
//! [`PacketResult::latency`] anyway (`conserved` / `violations`).
//!
//! On top of the per-packet records the report computes **blame
//! profiles** — per-channel and per-crossbar blocked-cycles-caused over
//! every *closed* episode of the run (including packets that later
//! dropped; unfinished packets' open episodes never close and are
//! excluded) — and the **critical path**: the longest chain of wait-for
//! edges ending at the last delivery ([`crate::critical`]).
//!
//! Re-injection (live-reconfiguration `reinject`/`reroute` recovery)
//! resets a packet's per-packet record — the engine's latency measures
//! the final flight — while blame and the critical path keep the
//! wall-clock view of every closed episode.

use crate::critical::{critical_path, CriticalPath, WaitEpisode};
use mdx_core::RouteChange;
use mdx_sim::{EpochPhase, InjectSpec, PacketId, PacketOutcome, SimObserver, SimResult};
use mdx_topology::{ChannelId, NetworkGraph, Node, XbarRef};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Holder class of a blocked episode, sampled when the episode opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockClass {
    /// Behind a normal (RC=0) packet, or a free port losing arbitration.
    Normal,
    /// Behind the S-XB broadcast pipeline (holder RC=1 or RC=2).
    Gather,
    /// Behind a detoured (RC=3) packet.
    Detour,
}

/// One closed blocked episode plus its holder class.
#[derive(Debug, Clone, Copy)]
struct ClosedEpisode {
    ep: WaitEpisode,
    class: BlockClass,
}

/// A reconfiguration pause window under construction.
#[derive(Debug, Clone, Copy)]
struct PauseWin {
    start: u64,
    end: Option<u64>,
    /// Hard windows (the reprogram clock jump) pause *everything*; soft
    /// windows (quiesce → resume) re-label only waiting cycles.
    hard: bool,
}

/// Per-packet raw event record (the packet's *final* flight).
#[derive(Debug, Clone)]
struct Track {
    present: bool,
    injected_now: u64,
    rc: RouteChange,
    hops: u64,
    fault_free_hops: Option<u64>,
    detoured: bool,
    gather_open: Option<u64>,
    gather_spans: Vec<(u64, u64)>,
    detour_open: Option<u64>,
    detour_spans: Vec<(u64, u64)>,
    /// Open blocked episodes: each one's index in `State::closed` (which
    /// holds its channel and class) and its lane.
    open_blocks: Vec<(u32, u8)>,
    /// Closed episodes of this flight: `(channel, start, end, class)`.
    episodes: Vec<(u32, u64, u64, BlockClass)>,
}

impl Default for Track {
    fn default() -> Track {
        Track {
            present: false,
            injected_now: 0,
            rc: RouteChange::Normal,
            hops: 0,
            fault_free_hops: None,
            detoured: false,
            gather_open: None,
            gather_spans: Vec::new(),
            detour_open: None,
            detour_spans: Vec::new(),
            open_blocks: Vec::new(),
            episodes: Vec::new(),
        }
    }
}

struct State {
    graph: NetworkGraph,
    packets: Vec<Track>,
    pauses: Vec<PauseWin>,
    /// Every closed episode of the run, in close order (wall-clock view,
    /// surviving re-injection resets) — feeds blame and the critical path.
    closed: Vec<ClosedEpisode>,
}

impl State {
    fn track_mut(&mut self, id: PacketId) -> &mut Track {
        if self.packets.len() <= id.idx() {
            self.packets.resize_with(id.idx() + 1, Track::default);
        }
        &mut self.packets[id.idx()]
    }

    fn rc_of(&self, id: PacketId) -> RouteChange {
        self.packets
            .get(id.idx())
            .filter(|t| t.present)
            .map(|t| t.rc)
            .unwrap_or(RouteChange::Normal)
    }
}

/// The attachable half of the attribution instrument: implements
/// [`SimObserver`]; build with [`AttributionObserver::new`], attach with
/// [`mdx_sim::Simulator::add_observer`], and reduce afterwards through the
/// paired [`AttributionHandle`].
pub struct AttributionObserver {
    state: Rc<RefCell<State>>,
}

/// The caller-retained half of the attribution instrument; survives
/// handing the [`AttributionObserver`] to the simulator and produces the
/// [`AttributionReport`].
#[derive(Clone)]
pub struct AttributionHandle {
    state: Rc<RefCell<State>>,
}

impl AttributionObserver {
    /// Creates the observer/handle pair for a run on `graph` (the same
    /// graph handed to the simulator — channel ids must agree).
    pub fn new(graph: NetworkGraph) -> (AttributionObserver, AttributionHandle) {
        let state = Rc::new(RefCell::new(State {
            graph,
            packets: Vec::new(),
            pauses: Vec::new(),
            closed: Vec::new(),
        }));
        (
            AttributionObserver {
                state: Rc::clone(&state),
            },
            AttributionHandle { state },
        )
    }
}

impl SimObserver for AttributionObserver {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, now: u64) {
        let mut s = self.state.borrow_mut();
        let t = s.track_mut(id);
        // A repeat injection is a live-reconfiguration re-schedule: the
        // engine restarts the packet's lifecycle (and its latency window),
        // so the per-packet record restarts too.
        *t = Track {
            present: true,
            injected_now: now,
            rc: spec.header.rc,
            fault_free_hops: spec.fault_free_channel_hops(),
            ..Track::default()
        };
    }

    fn on_hop(&mut self, id: PacketId, _at: Node, _in_channel: Option<ChannelId>, _now: u64) {
        self.state.borrow_mut().track_mut(id).hops += 1;
    }

    fn on_rc_change(
        &mut self,
        id: PacketId,
        _at: Node,
        from: RouteChange,
        to: RouteChange,
        now: u64,
    ) {
        let mut s = self.state.borrow_mut();
        let t = s.track_mut(id);
        t.rc = to;
        if to == RouteChange::Detour {
            t.detoured = true;
            t.detour_open.get_or_insert(now);
        } else if from == RouteChange::Detour {
            if let Some(start) = t.detour_open.take() {
                t.detour_spans.push((start, now));
            }
        }
    }

    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        _now: u64,
    ) {
        let mut s = self.state.borrow_mut();
        let class = match holder.map(|h| s.rc_of(h)) {
            Some(RouteChange::BroadcastRequest) | Some(RouteChange::Broadcast) => {
                BlockClass::Gather
            }
            Some(RouteChange::Detour) => BlockClass::Detour,
            Some(RouteChange::Normal) | None => BlockClass::Normal,
        };
        let holder_id = holder.map(|h| h.0);
        let at = u32::try_from(s.closed.len()).expect("under 2^32 blocked episodes in one run");
        s.track_mut(id).open_blocks.push((at, vc));
        // Remember the holder alongside, for the wall-clock episode list.
        s.closed.push(ClosedEpisode {
            ep: WaitEpisode {
                waiter: id.0,
                holder: holder_id,
                channel: channel.0,
                start: u64::MAX, // patched on unblock; MAX marks "open"
                end: u64::MAX,
            },
            class,
        });
    }

    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, waited: u64, now: u64) {
        let mut s = self.state.borrow_mut();
        let start = now - waited;
        let State {
            packets, closed, ..
        } = &mut *s;
        let Some(t) = packets.get_mut(id.idx()) else {
            return;
        };
        // The pairing contract (see `mdx_sim::observer` module docs) keeps
        // at most one episode open per `(channel, vc)` key, so the key
        // finds it.
        let Some(pos) = t
            .open_blocks
            .iter()
            .position(|&(at, v)| v == vc && closed[at as usize].ep.channel == channel.0)
        else {
            return;
        };
        let (at, _) = t.open_blocks.swap_remove(pos);
        let c = &mut closed[at as usize];
        c.ep.start = start;
        c.ep.end = now;
        t.episodes.push((channel.0, start, now, c.class));
    }

    fn on_gather(&mut self, id: PacketId, _depth: usize, now: u64) {
        self.state
            .borrow_mut()
            .track_mut(id)
            .gather_open
            .get_or_insert(now);
    }

    fn on_emission(&mut self, id: PacketId, _depth: usize, now: u64) {
        let mut s = self.state.borrow_mut();
        let t = s.track_mut(id);
        if let Some(start) = t.gather_open.take() {
            t.gather_spans.push((start, now));
        }
    }

    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        let mut s = self.state.borrow_mut();
        let t = s.track_mut(id);
        if let Some(start) = t.detour_open.take() {
            t.detour_spans.push((start, now));
        }
        if let Some(start) = t.gather_open.take() {
            t.gather_spans.push((start, now));
        }
    }

    fn on_epoch_phase(&mut self, _epoch: u32, phase: EpochPhase, now: u64) {
        let mut s = self.state.borrow_mut();
        match phase {
            // Soft pause: injection closed, drain in progress — waiting
            // cycles in here are the protocol's fault, moving ones are not.
            EpochPhase::Quiesced => s.pauses.push(PauseWin {
                start: now,
                end: None,
                hard: false,
            }),
            // Hard pause: the reprogram clock jump — nothing moves at all.
            EpochPhase::Drained => s.pauses.push(PauseWin {
                start: now,
                end: None,
                hard: true,
            }),
            EpochPhase::Reprogrammed => {
                if let Some(w) = s
                    .pauses
                    .iter_mut()
                    .rev()
                    .find(|w| w.hard && w.end.is_none())
                {
                    w.end = Some(now);
                }
            }
            EpochPhase::Resumed => {
                if let Some(w) = s
                    .pauses
                    .iter_mut()
                    .rev()
                    .find(|w| !w.hard && w.end.is_none())
                {
                    w.end = Some(now);
                }
            }
            EpochPhase::Detected => {}
        }
    }
}

/// Sweep-time phase labels, in priority order (lower wins a contended
/// segment). `EpochPause` is applied as an overlay, not a priority slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    InjectWait,
    GatherWait,
    BlockedGather,
    BlockedDetour,
    BlockedNormal,
    DetourTransfer,
}

/// One delivered packet's phase decomposition. All phase fields are in
/// cycles and sum to `latency` exactly ([`PacketPhases::phase_sum`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketPhases {
    /// The packet (dense id within the run).
    pub id: u32,
    /// Engine end-to-end latency: `finished_at - injected_at`.
    pub latency: u64,
    /// Source injection queueing (scheduled but not yet in the network).
    pub inject_wait: u64,
    /// Cycles inside a reconfiguration epoch pause.
    pub epoch_pause: u64,
    /// S-XB gather-queue serialization wait.
    pub gather_wait: u64,
    /// Blocked behind normal traffic (or free-port arbitration losses).
    pub blocked_normal: u64,
    /// Blocked behind the S-XB broadcast pipeline (holder RC 1/2).
    pub blocked_gather: u64,
    /// Blocked behind a detoured packet (holder RC 3).
    pub blocked_detour: u64,
    /// In-flight cycles spent in RC=3 detour state.
    pub detour_transfer: u64,
    /// Ordinary dimension-order movement (the remainder).
    pub base_transfer: u64,
    /// Header hops (routing decisions) on the final flight.
    pub hops: u64,
    /// Fault-free dimension-order path length in channels, for unicasts.
    pub fault_free_hops: Option<u64>,
    /// Whether the packet ever entered RC=3.
    pub detoured: bool,
}

impl PacketPhases {
    /// Sum of the disjoint phases — equals [`PacketPhases::latency`] for a
    /// conserving decomposition.
    pub fn phase_sum(&self) -> u64 {
        self.inject_wait
            + self.epoch_pause
            + self.gather_wait
            + self.blocked_normal
            + self.blocked_gather
            + self.blocked_detour
            + self.detour_transfer
            + self.base_transfer
    }

    /// Detour hop overhead vs. the fault-free dimension-order path
    /// (`0` for non-detoured packets and broadcasts).
    pub fn detour_overhead_hops(&self) -> u64 {
        match (self.detoured, self.fault_free_hops) {
            (true, Some(ff)) => self.hops.saturating_sub(ff),
            _ => 0,
        }
    }
}

/// Phase totals over all delivered packets of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Total end-to-end latency (the denominator of every share).
    pub latency: u64,
    /// Total source injection queueing.
    pub inject_wait: u64,
    /// Total epoch-pause cycles.
    pub epoch_pause: u64,
    /// Total S-XB gather serialization wait.
    pub gather_wait: u64,
    /// Total blocked-behind-normal cycles.
    pub blocked_normal: u64,
    /// Total blocked-behind-S-XB cycles.
    pub blocked_gather: u64,
    /// Total blocked-behind-detour cycles.
    pub blocked_detour: u64,
    /// Total RC=3 in-flight cycles.
    pub detour_transfer: u64,
    /// Total ordinary transfer cycles.
    pub base_transfer: u64,
    /// Total detour hop overhead vs. fault-free dimension-order paths.
    pub detour_overhead_hops: u64,
}

impl PhaseTotals {
    /// `(name, cycles)` pairs of the cycle phases, in render order.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("inject_wait", self.inject_wait),
            ("epoch_pause", self.epoch_pause),
            ("gather_wait", self.gather_wait),
            ("blocked_normal", self.blocked_normal),
            ("blocked_gather", self.blocked_gather),
            ("blocked_detour", self.blocked_detour),
            ("detour_transfer", self.detour_transfer),
            ("base_transfer", self.base_transfer),
        ]
    }
}

/// One channel's blame row: blocked cycles *caused at* this channel's
/// port, over every closed episode of the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelBlame {
    /// Dense channel id (same numbering as the simulator's graph).
    pub channel: u32,
    /// Human-readable `src -> dst` description.
    pub desc: String,
    /// Closed blocked episodes on this channel's port.
    pub episodes: u64,
    /// Total blocked cycles those episodes cost their waiters.
    pub blocked_cycles: u64,
    /// Portion of `blocked_cycles` waited behind the S-XB pipeline.
    pub gather_cycles: u64,
    /// Portion waited behind detoured (RC=3) holders.
    pub detour_cycles: u64,
    /// Portion waited behind normal holders or free ports.
    pub normal_cycles: u64,
}

/// One crossbar's blame row: blocked cycles caused on its output ports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XbarBlame {
    /// Crossbar name in the paper's vocabulary (e.g. `X0-XB`).
    pub name: String,
    /// Dimension the crossbar routes along.
    pub dim: u8,
    /// Line index within that dimension.
    pub line: u32,
    /// Closed blocked episodes on the crossbar's output ports.
    pub episodes: u64,
    /// Total blocked cycles those episodes cost.
    pub blocked_cycles: u64,
}

/// The reduced, serializable attribution of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Delivered packets decomposed.
    pub delivered: usize,
    /// Whether `phase_sum == latency` held for every delivered packet.
    pub conserved: bool,
    /// Packet ids whose decomposition failed conservation (always empty
    /// unless the engine and observer disagree — a bug either way).
    pub violations: Vec<u32>,
    /// Phase totals over the delivered packets.
    pub totals: PhaseTotals,
    /// Per-packet decompositions, by packet id.
    pub packets: Vec<PacketPhases>,
    /// Per-channel blocked-cycles-caused, heaviest first.
    pub channel_blame: Vec<ChannelBlame>,
    /// Per-crossbar blocked-cycles-caused (output ports), heaviest first.
    pub xbar_blame: Vec<XbarBlame>,
    /// The longest wait-for chain ending at the last delivery.
    pub critical: CriticalPath,
}

impl AttributionHandle {
    /// Reduces the accumulated events against the engine's own accounting
    /// into an [`AttributionReport`]. `result` must come from the run the
    /// observer watched.
    pub fn report(&self, result: &SimResult) -> AttributionReport {
        let s = self.state.borrow();

        // Closed pause windows (an unclosed protocol leaves the window
        // open to the end of time; the per-packet clip bounds it).
        let pauses: Vec<(u64, u64, bool)> = s
            .pauses
            .iter()
            .map(|w| (w.start, w.end.unwrap_or(u64::MAX), w.hard))
            .collect();

        let mut packets = Vec::new();
        let mut totals = PhaseTotals::default();
        let mut violations = Vec::new();
        for p in &result.packets {
            if p.outcome != PacketOutcome::Delivered {
                continue;
            }
            let Some(finished) = p.finished_at else {
                continue;
            };
            let track = s.packets.get(p.id.idx()).filter(|t| t.present);
            let phases = decompose(p.id.0, p.injected_at, finished, track, &pauses);
            if phases.phase_sum() != phases.latency {
                violations.push(p.id.0);
            }
            totals.latency += phases.latency;
            totals.inject_wait += phases.inject_wait;
            totals.epoch_pause += phases.epoch_pause;
            totals.gather_wait += phases.gather_wait;
            totals.blocked_normal += phases.blocked_normal;
            totals.blocked_gather += phases.blocked_gather;
            totals.blocked_detour += phases.blocked_detour;
            totals.detour_transfer += phases.detour_transfer;
            totals.base_transfer += phases.base_transfer;
            totals.detour_overhead_hops += phases.detour_overhead_hops();
            packets.push(phases);
        }

        // Blame: every closed episode, aggregated per channel and per
        // owning crossbar.
        let n = s.graph.num_channels();
        let mut ep_count = vec![0u64; n];
        let mut cyc = vec![0u64; n];
        let mut cyc_gather = vec![0u64; n];
        let mut cyc_detour = vec![0u64; n];
        let mut cyc_normal = vec![0u64; n];
        for c in s.closed.iter().filter(|c| c.ep.end != u64::MAX) {
            let i = c.ep.channel as usize;
            let dur = c.ep.end - c.ep.start;
            ep_count[i] += 1;
            cyc[i] += dur;
            match c.class {
                BlockClass::Gather => cyc_gather[i] += dur,
                BlockClass::Detour => cyc_detour[i] += dur,
                BlockClass::Normal => cyc_normal[i] += dur,
            }
        }
        let mut channel_blame: Vec<ChannelBlame> = (0..n)
            .filter(|&i| ep_count[i] > 0)
            .map(|i| ChannelBlame {
                channel: i as u32,
                desc: s.graph.describe_channel(ChannelId(i as u32)),
                episodes: ep_count[i],
                blocked_cycles: cyc[i],
                gather_cycles: cyc_gather[i],
                detour_cycles: cyc_detour[i],
                normal_cycles: cyc_normal[i],
            })
            .collect();
        channel_blame.sort_by(|a, b| {
            b.blocked_cycles
                .cmp(&a.blocked_cycles)
                .then(a.channel.cmp(&b.channel))
        });

        let mut per_xbar: HashMap<XbarRef, XbarBlame> = HashMap::new();
        for id in s.graph.channel_ids() {
            if ep_count[id.idx()] == 0 {
                continue;
            }
            let src = s.graph.node(s.graph.channel(id).src);
            let Node::Xbar(x) = src else { continue };
            let row = per_xbar.entry(x).or_insert_with(|| XbarBlame {
                name: x.to_string(),
                dim: x.dim,
                line: x.line,
                episodes: 0,
                blocked_cycles: 0,
            });
            row.episodes += ep_count[id.idx()];
            row.blocked_cycles += cyc[id.idx()];
        }
        let mut xbar_blame: Vec<XbarBlame> = per_xbar.into_values().collect();
        xbar_blame.sort_by(|a, b| {
            b.blocked_cycles
                .cmp(&a.blocked_cycles)
                .then((a.dim, a.line).cmp(&(b.dim, b.line)))
        });

        // Critical path from the wall-clock episode list, ending at the
        // last delivery (ties toward the smaller id, deterministically).
        let critical = result
            .packets
            .iter()
            .filter(|p| p.outcome == PacketOutcome::Delivered)
            .filter_map(|p| p.finished_at.map(|f| (f, p.id.0)))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(finished, id)| {
                let eps: Vec<WaitEpisode> = s
                    .closed
                    .iter()
                    .filter(|c| c.ep.end != u64::MAX)
                    .map(|c| c.ep)
                    .collect();
                critical_path(&eps, id, finished, &s.graph)
            })
            .unwrap_or_else(CriticalPath::empty);

        AttributionReport {
            delivered: packets.len(),
            conserved: violations.is_empty(),
            violations,
            totals,
            packets,
            channel_blame,
            xbar_blame,
            critical,
        }
    }
}

/// Partitions one packet's latency window into disjoint phases by a
/// boundary sweep over its recorded intervals.
fn decompose(
    id: u32,
    injected_at: u64,
    finished_at: u64,
    track: Option<&Track>,
    pauses: &[(u64, u64, bool)],
) -> PacketPhases {
    let w0 = injected_at;
    let w1 = finished_at;
    let mut phases = PacketPhases {
        id,
        latency: w1 - w0,
        inject_wait: 0,
        epoch_pause: 0,
        gather_wait: 0,
        blocked_normal: 0,
        blocked_gather: 0,
        blocked_detour: 0,
        detour_transfer: 0,
        base_transfer: 0,
        hops: track.map_or(0, |t| t.hops),
        fault_free_hops: track.and_then(|t| t.fault_free_hops),
        detoured: track.is_some_and(|t| t.detoured),
    };
    if w1 == w0 {
        return phases;
    }

    // Labeled intervals, clipped to the window.
    let mut ivals: Vec<(u64, u64, Slot)> = Vec::new();
    let mut push = |a: u64, b: u64, slot: Slot| {
        let a = a.max(w0);
        let b = b.min(w1);
        if a < b {
            ivals.push((a, b, slot));
        }
    };
    if let Some(t) = track {
        push(w0, t.injected_now, Slot::InjectWait);
        for &(a, b) in &t.gather_spans {
            push(a, b, Slot::GatherWait);
        }
        for &(_, a, b, class) in &t.episodes {
            let slot = match class {
                BlockClass::Gather => Slot::BlockedGather,
                BlockClass::Detour => Slot::BlockedDetour,
                BlockClass::Normal => Slot::BlockedNormal,
            };
            push(a, b, slot);
        }
        for &(a, b) in &t.detour_spans {
            push(a, b, Slot::DetourTransfer);
        }
        if let Some(a) = t.detour_open {
            push(a, w1, Slot::DetourTransfer);
        }
    }

    // Elementary segments between all boundaries.
    let mut bounds: Vec<u64> = vec![w0, w1];
    for &(a, b, _) in &ivals {
        bounds.push(a);
        bounds.push(b);
    }
    for &(a, b, _) in pauses {
        if a > w0 && a < w1 {
            bounds.push(a);
        }
        if b > w0 && b < w1 {
            bounds.push(b);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let dur = b - a;
        let slot = ivals
            .iter()
            .filter(|&&(s, e, _)| s <= a && b <= e)
            .map(|&(_, _, slot)| slot)
            .min();
        let in_hard = pauses.iter().any(|&(s, e, hard)| hard && s <= a && b <= e);
        let in_soft = pauses.iter().any(|&(s, e, hard)| !hard && s <= a && b <= e);
        let is_wait = matches!(
            slot,
            Some(Slot::InjectWait)
                | Some(Slot::GatherWait)
                | Some(Slot::BlockedGather)
                | Some(Slot::BlockedDetour)
                | Some(Slot::BlockedNormal)
        );
        if in_hard || (in_soft && is_wait) {
            phases.epoch_pause += dur;
            continue;
        }
        match slot {
            Some(Slot::InjectWait) => phases.inject_wait += dur,
            Some(Slot::GatherWait) => phases.gather_wait += dur,
            Some(Slot::BlockedGather) => phases.blocked_gather += dur,
            Some(Slot::BlockedDetour) => phases.blocked_detour += dur,
            Some(Slot::BlockedNormal) => phases.blocked_normal += dur,
            Some(Slot::DetourTransfer) => phases.detour_transfer += dur,
            None => phases.base_transfer += dur,
        }
    }
    phases
}

impl AttributionReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("AttributionReport serializes")
    }

    /// Renders the deterministic terminal report: phase totals with
    /// shares, the blame tables, and the critical path.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "latency attribution: {} delivered packet(s), {} total latency cycle(s), \
             conservation {}\n",
            self.delivered,
            self.totals.latency,
            if self.conserved {
                "OK".to_string()
            } else {
                format!("VIOLATED ({} packet(s))", self.violations.len())
            }
        ));
        let denom = self.totals.latency.max(1) as f64;
        out.push_str("\nphase totals (cycles, share of latency):\n");
        for (name, cycles) in self.totals.named() {
            out.push_str(&format!(
                "  {:<16} {:>10}  {:>6.1}%\n",
                name,
                cycles,
                cycles as f64 * 100.0 / denom
            ));
        }
        if self.totals.detour_overhead_hops > 0 {
            out.push_str(&format!(
                "  detour overhead: {} extra channel hop(s) vs fault-free dimension-order paths\n",
                self.totals.detour_overhead_hops
            ));
        }

        if !self.channel_blame.is_empty() {
            out.push_str("\nblame: blocked-cycles-caused per channel (top 10):\n");
            for c in self.channel_blame.iter().take(10) {
                out.push_str(&format!(
                    "  {:<22} {:>8} cyc / {:>4} eps  (gather {}, detour {}, normal {})\n",
                    c.desc,
                    c.blocked_cycles,
                    c.episodes,
                    c.gather_cycles,
                    c.detour_cycles,
                    c.normal_cycles
                ));
            }
        }
        if !self.xbar_blame.is_empty() {
            out.push_str("\nblame: blocked-cycles-caused per crossbar (output ports):\n");
            for x in &self.xbar_blame {
                out.push_str(&format!(
                    "  {:<8} {:>8} cyc / {:>4} eps\n",
                    x.name, x.blocked_cycles, x.episodes
                ));
            }
        }
        out.push('\n');
        out.push_str(&self.critical.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::Header;
    use mdx_sim::{PacketResult, SimOutcome, SimStats};
    use mdx_topology::graph::GraphBuilder;
    use mdx_topology::Coord;

    fn tiny_graph() -> NetworkGraph {
        let mut b = GraphBuilder::new();
        let pe = b.add_node(Node::Pe(0), None);
        let r = b.add_node(Node::Router(0), None);
        let x = b.add_node(Node::Xbar(XbarRef { dim: 0, line: 0 }), None);
        b.add_link(pe, r);
        b.add_link(r, x);
        b.build()
    }

    fn spec(inject_at: u64) -> InjectSpec {
        InjectSpec {
            src_pe: 0,
            header: Header::unicast(Coord::new(&[0, 0]), Coord::new(&[2, 0])),
            flits: 4,
            inject_at,
        }
    }

    fn delivered(id: u32, injected_at: u64, finished_at: u64) -> PacketResult {
        PacketResult {
            id: PacketId(id),
            injected_at,
            finished_at: Some(finished_at),
            deliveries: vec![(1, finished_at)],
            outcome: PacketOutcome::Delivered,
            route: Vec::new(),
        }
    }

    fn result_of(packets: Vec<PacketResult>) -> SimResult {
        let delivered = packets.len();
        SimResult {
            outcome: SimOutcome::Completed,
            stats: SimStats {
                cycles: 100,
                flit_hops: 0,
                delivered,
                dropped: 0,
                unfinished: 0,
                latency_sum: 0,
                latency_max: 0,
            },
            packets,
            route_names: Vec::new(),
            diagnostics: Vec::new(),
            profile: None,
        }
    }

    #[test]
    fn phases_partition_and_conserve() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        // Scheduled at 0, actually injected at 4 (inject_wait 4).
        obs.on_inject(PacketId(0), &spec(0), 4);
        // Blocked on channel 1 for [10, 16) behind a free port.
        obs.on_blocked(PacketId(0), ChannelId(1), 0, None, 10);
        obs.on_unblocked(PacketId(0), ChannelId(1), 0, 6, 16);
        // Detour from 20 to 30.
        obs.on_rc_change(
            PacketId(0),
            Node::Router(0),
            RouteChange::Normal,
            RouteChange::Detour,
            20,
        );
        obs.on_rc_change(
            PacketId(0),
            Node::Router(0),
            RouteChange::Detour,
            RouteChange::Normal,
            30,
        );
        obs.on_packet_finished(PacketId(0), 40);

        let rep = handle.report(&result_of(vec![delivered(0, 0, 40)]));
        assert!(rep.conserved);
        let p = &rep.packets[0];
        assert_eq!(p.latency, 40);
        assert_eq!(p.inject_wait, 4);
        assert_eq!(p.blocked_normal, 6);
        assert_eq!(p.detour_transfer, 10);
        assert_eq!(p.base_transfer, 40 - 4 - 6 - 10);
        assert_eq!(p.phase_sum(), p.latency);
        assert!(p.detoured);
        assert_eq!(p.fault_free_hops, Some(4));
        assert!(rep.render().contains("conservation OK"));
    }

    #[test]
    fn overlapping_waits_count_once() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        obs.on_inject(PacketId(0), &spec(0), 0);
        // Two overlapping episodes (a broadcast's two branches): [5, 15)
        // behind a gather-class holder and [10, 20) behind normal traffic.
        obs.on_inject(PacketId(1), &spec(0), 0);
        obs.on_rc_change(
            PacketId(1),
            Node::Router(0),
            RouteChange::Normal,
            RouteChange::BroadcastRequest,
            1,
        );
        obs.on_blocked(PacketId(0), ChannelId(0), 0, Some(PacketId(1)), 5);
        obs.on_blocked(PacketId(0), ChannelId(1), 0, None, 10);
        obs.on_unblocked(PacketId(0), ChannelId(0), 0, 10, 15);
        obs.on_unblocked(PacketId(0), ChannelId(1), 0, 10, 20);
        obs.on_packet_finished(PacketId(0), 25);

        let rep = handle.report(&result_of(vec![delivered(0, 0, 25)]));
        assert!(rep.conserved);
        let p = &rep.packets[0];
        // [5, 15) is gather-class (higher priority), [15, 20) normal.
        assert_eq!(p.blocked_gather, 10);
        assert_eq!(p.blocked_normal, 5);
        assert_eq!(p.base_transfer, 25 - 15);
        assert_eq!(p.phase_sum(), 25);
    }

    #[test]
    fn epoch_pause_overlays_waits_and_hard_windows() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        obs.on_inject(PacketId(0), &spec(0), 0);
        // Blocked [10, 40); quiesce [20, 50) with a hard reprogram jump
        // [30, 35) inside it.
        obs.on_blocked(PacketId(0), ChannelId(0), 0, None, 10);
        obs.on_epoch_phase(1, EpochPhase::Quiesced, 20);
        obs.on_epoch_phase(1, EpochPhase::Drained, 30);
        obs.on_epoch_phase(1, EpochPhase::Reprogrammed, 35);
        obs.on_unblocked(PacketId(0), ChannelId(0), 0, 30, 40);
        obs.on_epoch_phase(1, EpochPhase::Resumed, 50);
        obs.on_packet_finished(PacketId(0), 60);

        let rep = handle.report(&result_of(vec![delivered(0, 0, 60)]));
        assert!(rep.conserved);
        let p = &rep.packets[0];
        // Blocked [10, 20) is normal; blocked [20, 40) is pause-overlaid;
        // moving [40, 50) inside the soft window stays base transfer.
        assert_eq!(p.blocked_normal, 10);
        assert_eq!(p.epoch_pause, 20);
        // Everything outside the waits and pause overlays is movement:
        // [0,10), [40,50) (moving inside the soft window), [50,60).
        assert_eq!(p.base_transfer, 30);
        assert_eq!(p.phase_sum(), 60);
        // The hard window inside the blocked span was not double-counted.
        let totals = &rep.totals;
        assert_eq!(totals.epoch_pause, 20);
    }

    #[test]
    fn hard_pause_overlays_transfer_too() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        obs.on_inject(PacketId(0), &spec(0), 0);
        // No waits at all; a hard jump [10, 18) pauses the whole machine.
        obs.on_epoch_phase(1, EpochPhase::Drained, 10);
        obs.on_epoch_phase(1, EpochPhase::Reprogrammed, 18);
        obs.on_packet_finished(PacketId(0), 30);
        let rep = handle.report(&result_of(vec![delivered(0, 0, 30)]));
        let p = &rep.packets[0];
        assert_eq!(p.epoch_pause, 8);
        assert_eq!(p.base_transfer, 22);
        assert_eq!(p.phase_sum(), 30);
    }

    #[test]
    fn reinjection_resets_the_final_flight() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        obs.on_inject(PacketId(0), &spec(0), 0);
        obs.on_blocked(PacketId(0), ChannelId(0), 0, None, 2);
        obs.on_unblocked(PacketId(0), ChannelId(0), 0, 3, 5);
        obs.on_hop(PacketId(0), Node::Router(0), None, 6);
        // Re-scheduled: the second flight starts at 50 (scheduled 48).
        obs.on_inject(PacketId(0), &spec(48), 50);
        obs.on_packet_finished(PacketId(0), 60);

        let rep = handle.report(&result_of(vec![delivered(0, 48, 60)]));
        assert!(rep.conserved);
        let p = &rep.packets[0];
        // First-flight wait and hops do not leak into the final flight.
        assert_eq!(p.blocked_normal, 0);
        assert_eq!(p.inject_wait, 2);
        assert_eq!(p.base_transfer, 10);
        assert_eq!(p.hops, 0);
        // ...but blame keeps the wall-clock view of the closed episode.
        assert_eq!(rep.channel_blame.len(), 1);
        assert_eq!(rep.channel_blame[0].blocked_cycles, 3);
    }

    #[test]
    fn blame_ranks_channels_and_crossbars() {
        let g = tiny_graph();
        let xbar_out = g
            .channel_ids()
            .find(|&c| matches!(g.node(g.channel(c).src), Node::Xbar(_)))
            .unwrap();
        let other = g.channel_ids().find(|&c| c != xbar_out).unwrap();
        let (mut obs, handle) = AttributionObserver::new(g);
        obs.on_inject(PacketId(0), &spec(0), 0);
        obs.on_inject(PacketId(1), &spec(0), 0);
        // pkt1's own wait ends before pkt0's wait began, so the critical
        // path can chain through it.
        obs.on_blocked(PacketId(1), other, 0, None, 1);
        obs.on_unblocked(PacketId(1), other, 0, 2, 3);
        obs.on_blocked(PacketId(0), xbar_out, 0, Some(PacketId(1)), 5);
        obs.on_unblocked(PacketId(0), xbar_out, 0, 20, 25);
        obs.on_packet_finished(PacketId(0), 30);
        obs.on_packet_finished(PacketId(1), 30);

        let rep = handle.report(&result_of(vec![delivered(0, 0, 30), delivered(1, 0, 30)]));
        assert_eq!(rep.channel_blame.len(), 2);
        assert_eq!(rep.channel_blame[0].channel, xbar_out.0);
        assert_eq!(rep.channel_blame[0].blocked_cycles, 20);
        assert_eq!(rep.xbar_blame.len(), 1);
        assert_eq!(rep.xbar_blame[0].name, "X0-XB");
        assert_eq!(rep.xbar_blame[0].blocked_cycles, 20);
        // Critical path ends at the last delivery (tie -> smaller id) and
        // chains through the holder.
        assert_eq!(rep.critical.last_delivery, Some(0));
        assert_eq!(rep.critical.steps.len(), 2);
        assert_eq!(rep.critical.waited_total, 22);
        // JSON round-trips.
        let back: AttributionReport = serde_json::from_str(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn gather_wait_is_the_sxb_serialization_phase() {
        let g = tiny_graph();
        let (mut obs, handle) = AttributionObserver::new(g);
        let mut bspec = spec(0);
        bspec.header = Header::broadcast_request(Coord::ORIGIN);
        obs.on_inject(PacketId(0), &bspec, 0);
        obs.on_gather(PacketId(0), 2, 10);
        obs.on_emission(PacketId(0), 1, 24);
        obs.on_packet_finished(PacketId(0), 30);
        let rep = handle.report(&result_of(vec![delivered(0, 0, 30)]));
        let p = &rep.packets[0];
        assert_eq!(p.gather_wait, 14);
        assert_eq!(p.fault_free_hops, None);
        assert_eq!(p.phase_sum(), 30);
    }
}
