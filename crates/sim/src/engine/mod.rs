//! The cycle-level simulation engine.
//!
//! ## Resource model
//!
//! Every directed channel is the *output port* of its source switch.
//!
//! * **Ownership** — a packet's header requests a port; FIFO arbitration
//!   grants a free port to the oldest requester. The owner streams flits and
//!   releases the port when its tail flit crosses (cut-through).
//! * **Buffers** — each channel's downstream input buffer holds
//!   `buffer_flits` flits, FIFO across packets: a later packet's flits queue
//!   behind an earlier packet's until the earlier one drains. The *resident
//!   run* queue tracks this; only the front run's header is visible to the
//!   downstream switch.
//! * **Multi-port forwards** (broadcast fan-out) acquire ports incrementally
//!   but stream only once all are held — the Fig. 5 acquisition pattern.
//! * **Serialization** — the scheme's S-XB gathers RC=1 requests into a
//!   FIFO; one packet at a time is re-emitted on all S-XB ports (Fig. 6).
//!
//! ## Layout
//!
//! This module holds the types, the public API and the run loop; `step`
//! one function per pass and the routing decision every visit takes;
//! `storage` the visit slots and pending injections; `epoch` live
//! reconfiguration; `audit` the debug builds' end-of-step recount;
//! `finish` the end of a run.

#[cfg(debug_assertions)]
mod audit;
mod epoch;
mod finish;
mod step;
mod storage;

use crate::observer::{first_wait_cycle, SimObserver, WaitSnapshot};
use crate::result::{
    DeadlockInfo, EngineDiagnostic, EngineProfile, InjectSpec, PacketId, SimResult, WaitEdge,
    OCCUPANCY_BUCKETS,
};
use crate::source::TrafficSource;
use mdx_core::{DropReason, Header, Scheme};
use mdx_topology::{ChannelId, NetworkGraph, Node, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles without any flit movement before a drain phase (injection closed,
/// [`Simulator::run_phase`] with `drain = true`) is declared settled. Small
/// and fixed: with injection gated, the engine's event gaps (grant →
/// first flit, gather → emission) span at most a few cycles, so a quiet
/// window this long means the network has reached a fixed point.
const DRAIN_QUIET: u64 = 16;

/// How a phase of [`Simulator::run_phase`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseEnd {
    /// Every scheduled packet reached a terminal state.
    Completed,
    /// The hard cycle limit was hit.
    CycleLimit,
    /// The watchdog extracted a cyclic wait.
    Deadlock(DeadlockInfo),
    /// The watchdog fired but no cycle was found.
    Stalled,
    /// The requested `stop_at` cycle was reached (work remains).
    ReachedCycle,
    /// Drain mode only: in-flight traffic settled — nothing moves and no
    /// wait cycle exists (remaining activity, if any, is paused victims
    /// and the traffic backed up behind them).
    Drained,
}

/// What the engine does to packets wounded by a mid-run fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimMode {
    /// Evacuate: flush the packet's flits everywhere, settle it as
    /// [`DropReason::FaultVictim`]. The recovery policy decides afterwards
    /// whether the settled packet is re-injected.
    #[default]
    Abort,
    /// Pause in place: a wounded visit that has not streamed any flit is
    /// frozen at its switch (holding its input buffer, releasing its output
    /// ports) to be re-decided under the post-reprogram routing function.
    /// Visits already streaming through the dead component fall back to
    /// [`VictimMode::Abort`].
    Pause,
}

/// What one engine step did, as the run loop's watchdog and fast-forward
/// see it. Ordered by how much happened, so a step reports the most any of
/// its passes did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepEffect {
    /// Nothing changed: every later step repeats this one until a
    /// clock-driven event (see [`Simulator::fixed_point_exit`]).
    Fixed,
    /// Nothing moved, but engine state changed (an injection, a new
    /// downstream visit, an S-XB emission, a grant or a first-blocked
    /// mark), so the next step may differ.
    Changed,
    /// A flit moved or a packet element settled: resets the watchdog.
    Progress,
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Flit capacity of each channel's downstream input buffer. Small values
    /// (the default, 2) give wormhole behavior — a blocked packet strings
    /// across switches holding every acquired port; values at least the
    /// packet length give virtual cut-through — a blocked packet is absorbed
    /// at the blocking switch and upstream ports free as its tail passes.
    pub buffer_flits: usize,
    /// Cycles without any flit movement (while work remains) before the
    /// watchdog declares a stall and runs deadlock analysis.
    pub watchdog: u64,
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Seed for same-cycle arbitration tie-breaking. Requests that arrive at
    /// a port on different cycles are served oldest-first; requests arriving
    /// on the *same* cycle are ordered by a seeded per-port hash, modeling
    /// the uncoordinated round-robin pointers of independent hardware port
    /// arbiters. (With a global deterministic order, two simultaneous
    /// broadcasts would always resolve in favor of the same packet at every
    /// crossbar and the Fig. 5 cyclic split could never form.)
    pub arb_seed: u64,
    /// Record each packet's per-switch route (switch name, header-arrival
    /// cycle) into [`PacketResult::route`](crate::PacketResult::route). Off by default — it allocates
    /// per hop and is meant for debugging and route inspection, not load
    /// sweeps.
    pub record_routes: bool,
    /// Store-and-forward mode: a switch starts forwarding only after the
    /// *whole* packet has arrived in its input buffer (which must therefore
    /// be at least the packet length). The contrast the paper's cut-through
    /// citations (Kermani/Kleinrock, Dally/Seitz) are about: per-hop
    /// latency becomes packet-serialization x hops instead of one pipeline
    /// pass.
    pub store_and_forward: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_flits: 2,
            watchdog: 1024,
            max_cycles: 1_000_000,
            arb_seed: 0x5EED_CAFE,
            record_routes: false,
            store_and_forward: false,
        }
    }
}

#[derive(Debug, Clone)]
struct BranchState {
    channel: ChannelId,
    vc: u8,
    header: Header,
    granted: bool,
    crossed: usize,
    /// Cycle this branch's port request entered a blocked episode.
    /// Maintained only while an observer is attached (it feeds the
    /// `on_blocked`/`on_unblocked`/`on_probe` hooks, not engine semantics).
    blocked_since: Option<u64>,
}

#[derive(Debug, Clone)]
enum SinkKind {
    Deliver(usize),
    Gather,
    Drop(DropReason),
}

#[derive(Debug, Clone)]
enum VKind {
    Forward {
        branches: Vec<BranchState>,
        streaming: bool,
    },
    Sink {
        consumed: usize,
        sink: SinkKind,
    },
}

impl VKind {
    /// A sink that has consumed nothing yet.
    fn sink(sink: SinkKind) -> VKind {
        VKind::Sink { consumed: 0, sink }
    }

    /// A sink that drops the packet for `reason`.
    fn dropped(reason: DropReason) -> VKind {
        VKind::sink(SinkKind::Drop(reason))
    }

    /// The empty fan of a visit paused in place.
    fn paused() -> VKind {
        VKind::Forward {
            branches: Vec::new(),
            streaming: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Visit {
    packet: u32,
    /// The switch this visit sits at.
    at: NodeId,
    /// Port (channel lane) whose buffer feeds this visit (`None` for
    /// injection and S-XB emission, which read from local memory).
    in_port: Option<u32>,
    /// The upstream (visit, branch) writing into `in_channel`. Its branch
    /// carries the header as it arrived at this switch (see
    /// [`Simulator::visit_header`]).
    up_run: Option<(u32, u32)>,
    total: usize,
    kind: VKind,
    complete: bool,
    /// Reconfiguration epoch of the routing decision behind this visit.
    epoch: u32,
    /// Frozen by a mid-run fault, awaiting [`Simulator::redecide_paused`].
    /// A paused visit holds its input buffer but requests no ports and
    /// never streams or completes.
    paused: bool,
    /// This visit's runs still resident in downstream buffers.
    runs: u32,
}

/// A due packet waiting at its source PE for its first port: the
/// injection-time decision (one branch, not yet granted) and the creation
/// sequence its visit takes at the grant (see the `storage` module).
#[derive(Debug, Clone)]
struct Pending {
    packet: u32,
    /// The source PE's switch.
    at: NodeId,
    seq: u64,
    /// Reconfiguration epoch of the injection decision.
    epoch: u32,
    branch: BranchState,
}

/// Port requests and `active` entries name a visit slot below this tag
/// and the pending injection `id - PENDING` at or above it.
const PENDING: u32 = 1 << 31;

/// The engine's always-on self-profiling counters (see [`EngineProfile`]).
///
/// The unconditional part is a handful of integer adds per executed step —
/// noise next to the step itself. The per-phase `Instant` reads are gated
/// behind `timing` ([`Simulator::set_phase_timing`]) because four clock
/// reads per executed step (two around the source pull, two around the
/// step) are measurable on short runs.
#[derive(Debug, Default)]
struct Profiler {
    /// Wall clock accumulated across `run_phase` calls.
    wall: Duration,
    /// Engine loop iterations executed.
    steps: u64,
    /// Executed steps that made no progress.
    idle_steps: u64,
    /// Cycles the loop did not step: open-loop idle jumps, fixed-point
    /// waits fast-forwarded toward the watchdog, and quiescent
    /// `advance_idle` dead time.
    jumped_cycles: u64,
    /// In-flight packet count per tick, bucketed by
    /// [`crate::result::OCCUPANCY_BOUNDS`]; jumped cycles count at the
    /// in-flight level frozen across the jump.
    occupancy: [u64; OCCUPANCY_BUCKETS],
    /// Phase timing enabled?
    timing: bool,
    source: Duration,
    step: Duration,
    probe: Duration,
}

#[derive(Debug, Clone)]
struct PacketRt {
    spec: InjectSpec,
    started: bool,
    /// Open elements: live visits plus a slot while queued at the S-XB.
    open: u32,
    finished_at: Option<u64>,
    deliveries: Vec<(usize, u64)>,
    dropped: Option<DropReason>,
    /// (graph node id, header-arrival cycle) per hop — interned into the
    /// run-level name table by `collect_result`.
    route: Vec<(u32, u64)>,
    /// Listed in `victim_log` since the last `take_new_victims`.
    victim_logged: bool,
}

/// A flit that may cross a branch's port this cycle: (visit, branch,
/// channel, lane).
type BranchMove = (u32, u32, ChannelId, u8);

/// Buffers one step reuses from the last, so a step allocates nothing.
#[derive(Debug, Default)]
struct StepScratch {
    branch_moves: Vec<BranchMove>,
    /// Lane winners when a link carries more than one lane.
    lane_winners: Vec<BranchMove>,
    sink_moves: Vec<u32>,
    /// Visits whose last flit moved this step, listed at that move.
    done: Vec<u32>,
    /// Input ports of the visits that completed this step.
    retire: Vec<u32>,
}

/// The simulator. Feed it a schedule with [`Simulator::schedule`] or
/// [`Simulator::schedule_all`], then call [`Simulator::run`].
pub struct Simulator {
    graph: NetworkGraph,
    scheme: Arc<dyn Scheme>,
    cfg: SimConfig,
    serial_node: Option<NodeId>,

    packets: Vec<PacketRt>,
    inject_order: Vec<u32>,
    next_inject: usize,
    /// Incremental packet source for open-loop (streaming) runs; pulled at
    /// the top of every [`Simulator::run_phase`] iteration.
    source: Option<Box<dyn TrafficSource>>,
    /// Cached [`TrafficSource::next_arrival`] so `work_remaining` (which
    /// takes `&self`) can see pending arrivals without consulting the
    /// source.
    source_next: Option<u64>,

    /// Visit slots, live and released (see the `storage` module).
    visits: Vec<Visit>,
    /// Creation sequence of each slot's visit: the engine's one visit order.
    seq: Vec<u64>,
    /// Sequence number of the next visit.
    next_seq: u64,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
    /// Cleared branch lists of overwritten forward slots, for the next
    /// forward decisions.
    spare_branches: Vec<Vec<BranchState>>,
    /// Injections waiting for their first port (`None`: a free entry).
    pending: Vec<Option<Pending>>,
    /// Free entries of `pending`, reused last-in first-out.
    pending_free: Vec<u32>,
    /// (id, creation sequence) of every live visit and pending injection,
    /// in creation order, plus dead entries not yet compacted away: their
    /// visit completed, or their slot or pending entry now holds another.
    /// Readers skip the dead entries ([`Simulator::live`]).
    active: Vec<(u32, u64)>,
    /// Dead entries in `active`. A step compacts `active` once they
    /// outnumber the live entries, so it stays within twice the live
    /// visits.
    active_done: usize,
    /// Virtual channel lanes per physical channel (from the scheme).
    vcs: usize,
    /// Current writer of each port (lane) — the owner until its tail
    /// crosses.
    chan_owner: Vec<Option<(u32, u32)>>,
    /// Port request queues: (visit, branch, request cycle).
    chan_requests: Vec<VecDeque<(u32, u32, u64)>>,
    /// Runs whose flits occupy the port's downstream buffer, oldest
    /// first. Only the front run's header is visible downstream.
    chan_resident: Vec<VecDeque<(u32, u32)>>,
    /// The downstream visit consuming the front resident run, if created.
    chan_downstream: Vec<Option<u32>>,
    /// Flits in each port's downstream buffer: one in per flit crossing,
    /// one out per flit the front consumer drains. Always equals
    /// [`Simulator::occupancy`].
    buffered: Vec<u32>,
    /// Ports to arbitrate next step: a request was queued on them or their
    /// owner left. Any other port with queued requests has an owner.
    arb_ports: Vec<u32>,
    /// Ports whose front run's header may have become visible: it crossed,
    /// or the run ahead of it retired.
    head_ports: Vec<u32>,
    /// Slots of the live, unpaused sinks and streaming forwards — the only
    /// visits that can move — in creation order.
    moving: Vec<u32>,
    scratch: StepScratch,
    /// Per physical channel: the lane served last cycle (round-robin share
    /// of the link's one-flit-per-cycle bandwidth).
    chan_last_vc: Vec<u8>,

    serial_queue: VecDeque<(u32, Header)>,
    /// The S-XB's current emission: its visit, and the gathered header it
    /// re-emits, which a re-decision reads if a fault pauses it.
    emission_active: Option<(u32, Header)>,

    now: u64,
    last_progress: u64,
    flit_hops: u64,
    /// Flits crossed per channel (utilization statistics).
    chan_flits: Vec<u64>,
    /// Flits crossed per port (channel x lane) — the per-VC split of
    /// `chan_flits`. Engine-side statistics only: deliberately not part of
    /// [`SimResult`], so replay digests of single-VC tokens are untouched.
    port_flits: Vec<u64>,
    finished_packets: usize,
    /// Packets injected so far (counter twin of the per-packet `started`
    /// flags): `started_packets - finished_packets` is the in-flight count
    /// the profiler buckets each tick.
    started_packets: usize,
    prof: Profiler,
    /// Attached observers; every hook fires on each, in attach order,
    /// inside one borrow of its cell.
    observers: Vec<Rc<RefCell<dyn SimObserver>>>,
    /// Invariant violations recorded instead of panicking (see
    /// [`EngineDiagnostic`]); copied into [`SimResult::diagnostics`].
    diagnostics: Vec<EngineDiagnostic>,

    // --- live-reconfiguration state (inert on a static run) ---
    /// Injection gate; closed during an epoch's quiesce/drain/reprogram.
    injection_open: bool,
    /// Per graph node: currently disabled by an activated fault.
    dead_nodes: Vec<bool>,
    /// Per physical channel: an endpoint is a dead node.
    dead_channels: Vec<bool>,
    /// Fast path: skip all dead checks while no fault is active.
    any_dead: bool,
    /// Bumped by [`Simulator::begin_epoch`] at each reprogram; stamps every
    /// routing decision (visit) made under the current routing function.
    current_epoch: u32,
    victim_mode: VictimMode,
    /// Packets wounded since the last [`Simulator::take_new_victims`] —
    /// activation-time victims plus drain-time victims (packets whose next
    /// hop entered the dead region after activation).
    victim_log: Vec<PacketId>,
}

impl Simulator {
    /// Creates a simulator over `graph` running `scheme`.
    pub fn new(graph: NetworkGraph, scheme: Arc<dyn Scheme>, cfg: SimConfig) -> Simulator {
        assert!(cfg.buffer_flits >= 1, "buffers hold at least one flit");
        let serial_node = scheme.serializing_node().and_then(|n| graph.id_of(n));
        let channels = graph.num_channels();
        let vcs = scheme.max_vcs().max(1) as usize;
        let ports = channels * vcs;
        Simulator {
            graph,
            scheme,
            cfg,
            serial_node,
            packets: Vec::new(),
            inject_order: Vec::new(),
            next_inject: 0,
            source: None,
            source_next: None,
            visits: Vec::new(),
            seq: Vec::new(),
            next_seq: 0,
            free: Vec::new(),
            spare_branches: Vec::new(),
            pending: Vec::new(),
            pending_free: Vec::new(),
            active: Vec::new(),
            active_done: 0,
            vcs,
            chan_owner: vec![None; ports],
            chan_requests: vec![VecDeque::new(); ports],
            chan_resident: vec![VecDeque::new(); ports],
            chan_downstream: vec![None; ports],
            buffered: vec![0; ports],
            arb_ports: Vec::new(),
            head_ports: Vec::new(),
            moving: Vec::new(),
            scratch: StepScratch::default(),
            chan_last_vc: vec![0; channels],
            serial_queue: VecDeque::new(),
            emission_active: None,
            now: 0,
            last_progress: 0,
            flit_hops: 0,
            chan_flits: vec![0; channels],
            port_flits: vec![0; ports],
            finished_packets: 0,
            started_packets: 0,
            prof: Profiler::default(),
            observers: Vec::new(),
            diagnostics: Vec::new(),
            injection_open: true,
            dead_nodes: Vec::new(),
            dead_channels: Vec::new(),
            any_dead: false,
            current_epoch: 0,
            victim_mode: VictimMode::default(),
            victim_log: Vec::new(),
        }
    }

    /// Attaches an event observer and returns it, shared with the engine,
    /// so the caller can read it after the run. The engine calls its hooks
    /// at packet-lifecycle transitions (see [`SimObserver`]); with several
    /// attached, each hook fires on every observer in attach order, and
    /// probes run at the smallest [`SimObserver::probe_interval`] any of
    /// them asks for. The engine borrows the observer's cell for each
    /// call, so a borrow the caller still holds when a hook fires panics.
    pub fn add_observer<T: SimObserver + 'static>(&mut self, observer: T) -> Rc<RefCell<T>> {
        let observer = Rc::new(RefCell::new(observer));
        self.observers.push(observer.clone());
        observer
    }

    /// Enables per-phase wall-clock timing in the self-profile
    /// ([`EngineProfile::phases`]). Off by default: the split needs four
    /// monotonic-clock reads per executed step, which is measurable on
    /// short runs (the aggregate counters are always on and cost a few
    /// integer adds). A runtime setter rather than a [`SimConfig`] field
    /// so replayable scenario tokens never encode it.
    pub fn set_phase_timing(&mut self, on: bool) {
        self.prof.timing = on;
    }

    /// Port (lane) index of a channel + virtual channel pair.
    #[inline]
    fn port(&self, ch: ChannelId, vc: u8) -> usize {
        ch.idx() * self.vcs + vc as usize
    }

    /// Human-readable port description (channel plus lane when VCs are in
    /// use).
    fn describe_port(&self, port: usize) -> String {
        let ch = ChannelId((port / self.vcs) as u32);
        let vc = port % self.vcs;
        if self.vcs > 1 {
            format!("{} (vc{vc})", self.graph.describe_channel(ch))
        } else {
            self.graph.describe_channel(ch)
        }
    }

    /// Adds a packet to the schedule. Must be called before [`Simulator::run`].
    ///
    /// # Panics
    /// Panics on zero-length packets.
    pub fn schedule(&mut self, spec: InjectSpec) -> PacketId {
        assert!(spec.flits >= 1, "packets carry at least the header flit");
        let id = PacketId(self.packets.len() as u32);
        self.packets.push(PacketRt {
            spec,
            started: false,
            open: 0,
            finished_at: None,
            deliveries: Vec::new(),
            dropped: None,
            route: Vec::new(),
            victim_logged: false,
        });
        id
    }

    /// Adds a whole schedule, in order, as [`Simulator::schedule`] would
    /// packet by packet, but sizes the packet records to it once instead of
    /// growing them by doubling. The schedule is taken by value, so the
    /// caller's copy is gone once the records hold it.
    ///
    /// # Panics
    /// Panics on zero-length packets.
    pub fn schedule_all(&mut self, specs: Vec<InjectSpec>) {
        self.packets.reserve_exact(specs.len());
        for spec in specs {
            self.schedule(spec);
        }
    }

    /// Attaches an incremental packet source for an open-loop (streaming)
    /// run, replacing any previous one. [`Simulator::run_phase`] pulls due
    /// packets from it each cycle and merges them into the same injection
    /// path an up-front schedule uses, so determinism and arbitration
    /// order are unaffected. A run keeps going (and fast-forwards across
    /// idle gaps) until both the schedule and the source are exhausted.
    pub fn set_traffic_source(&mut self, mut source: Box<dyn TrafficSource>) {
        self.source_next = source.next_arrival();
        self.source = Some(source);
    }

    /// Packets the attached traffic source has handed over so far
    /// (offered-load accounting); 0 without a source.
    pub fn source_offered(&self) -> usize {
        self.source.as_ref().map_or(0, |s| s.offered())
    }

    /// Moves due packets from the traffic source into the schedule and
    /// the pending injections.
    fn pull_source(&mut self) {
        match self.source_next {
            Some(t) if t <= self.now => {}
            _ => return,
        }
        let source = self.source.as_mut().expect("source_next implies a source");
        let specs = source.pull(self.now);
        self.source_next = source.next_arrival();
        debug_assert!(
            self.source_next.is_none_or(|t| t > self.now),
            "source must advance past the pulled cycle"
        );
        for spec in specs {
            let id = self.schedule(spec);
            self.enqueue_injection(id.0);
        }
    }

    /// Lists a packet among the pending injections, which stay sorted by
    /// `(inject_at, id)`: a packet pulled from the traffic source or
    /// rescheduled by [`Simulator::reschedule_packet`].
    fn enqueue_injection(&mut self, id: u32) {
        let packets = &self.packets;
        let key = (packets[id as usize].spec.inject_at, id);
        let pos = self.inject_order[self.next_inject..]
            .partition_point(|&i| (packets[i as usize].spec.inject_at, i) <= key);
        self.inject_order.insert(self.next_inject + pos, id);
    }

    /// If the network is empty and the only remaining work is a future
    /// source arrival, the cycle the clock can jump straight to (the
    /// arrival, clamped to this phase's stopping points). `None` while any
    /// packet is in flight or the injection gate is closed.
    fn idle_jump(&self, stop_at: Option<u64>) -> Option<u64> {
        if !self.injection_open || self.finished_packets < self.packets.len() {
            return None;
        }
        let mut target = self.source_next?;
        if let Some(t) = stop_at {
            target = target.min(t);
        }
        target = target.min(self.cfg.max_cycles);
        (target > self.now).then_some(target)
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Flits that crossed each channel (indexed by [`ChannelId`]).
    pub fn channel_flits(&self) -> &[u64] {
        &self.chan_flits
    }

    /// Virtual lanes per physical channel this run was sized for
    /// (`max(1, scheme.max_vcs())`).
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Flits that crossed each port, indexed `channel * vcs + lane` — the
    /// per-virtual-lane split of [`Simulator::channel_flits`]. Summing a
    /// channel's lane slots always reproduces its `channel_flits` entry
    /// (the link moves one flit per cycle regardless of lane count).
    pub fn lane_flits(&self) -> &[u64] {
        &self.port_flits
    }

    fn channel_of(&self, from: NodeId, to: Node) -> Option<ChannelId> {
        let to_id = self.graph.id_of(to)?;
        self.graph.channel_between(from, to_id)
    }

    fn branch(&self, run: (u32, u32)) -> &BranchState {
        match &self.visits[run.0 as usize].kind {
            VKind::Forward { branches, .. } => &branches[run.1 as usize],
            VKind::Sink { .. } => unreachable!("runs always come from forward visits"),
        }
    }

    /// Flits of the port's *front* resident run that have left the buffer.
    fn front_drained(&self, port: usize) -> usize {
        match self.chan_downstream[port] {
            Some(d) => match &self.visits[d as usize].kind {
                VKind::Forward { branches, .. } => {
                    branches.iter().map(|b| b.crossed).min().unwrap_or(0)
                }
                VKind::Sink { consumed, .. } => *consumed,
            },
            None => 0,
        }
    }

    /// Total flits currently in the port's downstream buffer, recounted
    /// from the resident runs: what `buffered` tracks incrementally.
    fn occupancy(&self, port: usize) -> usize {
        let total: usize = self.chan_resident[port]
            .iter()
            .map(|&run| self.branch(run).crossed)
            .sum();
        total - self.front_drained(port)
    }

    /// Flits available to visit `v` for pushing onward.
    fn avail(&self, v: &Visit) -> usize {
        match v.up_run {
            None => v.total, // injection or S-XB emission: all flits local
            Some(run) => {
                let crossed = self.branch(run).crossed;
                if self.cfg.store_and_forward && crossed < v.total {
                    // Store-and-forward: nothing leaves until the whole
                    // packet has arrived.
                    0
                } else {
                    crossed
                }
            }
        }
    }

    fn work_remaining(&self) -> bool {
        self.finished_packets < self.packets.len() || self.source_next.is_some()
    }

    /// The watchdog's deadlock analysis: the first cyclic wait among the
    /// ungranted port wants of [`Simulator::wait_snapshot`], found by
    /// [`first_wait_cycle`], with each wanted port named.
    fn analyze_deadlock(&self) -> Option<DeadlockInfo> {
        let waits = self.wait_snapshot();
        let cycle: Vec<WaitEdge> = first_wait_cycle(&waits)
            .into_iter()
            .map(|i| {
                let w = &waits[i];
                WaitEdge {
                    waiter: w.waiter,
                    holder: w.holder.expect("a cycle edge has a holder"),
                    channel: self.describe_port(self.port(w.channel, w.vc)),
                }
            })
            .collect();
        (!cycle.is_empty()).then_some(DeadlockInfo {
            detected_at: self.now,
            cycle,
        })
    }

    /// Snapshot of every ungranted port want — the same edges the
    /// watchdog's deadlock analysis walks, each tagged with the
    /// reconfiguration epochs of the waiting and holding routing
    /// decisions. Public so a reconfiguration controller can feed the
    /// transition-safety checker between phases; also delivered to
    /// [`SimObserver::on_probe`] / [`SimObserver::on_final_waits`].
    pub fn wait_snapshot(&self) -> Vec<WaitSnapshot> {
        let mut waits = Vec::new();
        for e in self.live_entries() {
            if e.paused() {
                continue; // paused visits request nothing
            }
            for b in e.branches() {
                if b.granted {
                    continue;
                }
                let port = self.port(b.channel, b.vc);
                let owner = self.chan_owner[port];
                waits.push(WaitSnapshot {
                    waiter: PacketId(e.packet()),
                    holder: owner.map(|(ovi, _)| PacketId(self.visits[ovi as usize].packet)),
                    channel: b.channel,
                    vc: b.vc,
                    since: b.blocked_since.unwrap_or(self.now),
                    epoch: e.epoch(),
                    holder_epoch: owner.map(|(ovi, _)| self.visits[ovi as usize].epoch),
                });
            }
        }
        waits
    }

    /// Sorts the schedule into injection order. Called by
    /// [`Simulator::run`]; a reconfiguration controller driving the engine
    /// through [`Simulator::run_phase`] must call it once before the first
    /// phase.
    pub fn prepare(&mut self) {
        let mut order: Vec<u32> = (0..self.packets.len() as u32).collect();
        order.sort_by_key(|&i| (self.packets[i as usize].spec.inject_at, i));
        self.inject_order = order;
        self.next_inject = 0;
    }

    /// Whether the network is empty of in-flight, non-paused work (packets
    /// may still be waiting behind a closed injection gate).
    pub fn idle(&self) -> bool {
        self.serial_queue.is_empty()
            && self.emission_active.is_none()
            && self.live_entries().all(|e| e.paused())
    }

    /// Advances the simulation until a stopping condition.
    ///
    /// * `stop_at` — pause (returning [`PhaseEnd::ReachedCycle`]) once
    ///   `now` reaches this cycle, so a controller can regain control at a
    ///   scheduled event.
    /// * `drain` — stop once in-flight traffic settles: immediately when
    ///   [`Simulator::idle`], or after `DRAIN_QUIET` (16) motionless cycles
    ///   with no wait cycle (paused victims and traffic backed up behind
    ///   them legitimately cannot drain). A motionless network *with* a
    ///   wait cycle ends the phase as [`PhaseEnd::Deadlock`].
    ///
    /// Completion, the cycle limit, and the watchdog end the phase
    /// regardless of the stopping parameters.
    ///
    /// Once a step changes no state, the loop jumps to the next cycle at
    /// which one can (see [`EngineProfile::jumped_cycles`]). The result,
    /// every observer hook and probe, and the profile's tick counts are
    /// those of a loop that steps every cycle.
    pub fn run_phase(&mut self, stop_at: Option<u64>, drain: bool) -> PhaseEnd {
        // The self-profiler's wall clock wraps the whole loop (one Instant
        // pair per phase, not per cycle); the per-cycle counters inside the
        // loop are integer adds. See [`EngineProfile`].
        let t0 = Instant::now();
        let end = self.run_phase_inner(stop_at, drain);
        self.prof.wall += t0.elapsed();
        end
    }

    fn run_phase_inner(&mut self, stop_at: Option<u64>, drain: bool) -> PhaseEnd {
        let probe_every = self
            .observers
            .iter()
            .filter_map(|o| o.borrow().probe_interval())
            .min()
            .filter(|&iv| iv > 0);
        let timing = self.prof.timing;

        loop {
            if timing {
                let t = Instant::now();
                self.pull_source();
                self.prof.source += t.elapsed();
            } else {
                self.pull_source();
            }
            if !self.work_remaining() {
                return PhaseEnd::Completed;
            }
            if self.now >= self.cfg.max_cycles {
                return PhaseEnd::CycleLimit;
            }
            if let Some(t) = stop_at {
                if self.now >= t {
                    return PhaseEnd::ReachedCycle;
                }
            }
            if drain && self.idle() {
                return PhaseEnd::Drained;
            }
            let effect = if timing {
                let t = Instant::now();
                let e = self.step();
                self.prof.step += t.elapsed();
                e
            } else {
                self.step()
            };
            let progress = effect == StepEffect::Progress;
            self.prof.steps += 1;
            if !progress {
                self.prof.idle_steps += 1;
            }
            self.prof.occupancy[self.in_flight_bucket()] += 1;
            if let Some(iv) = probe_every {
                if self.now.is_multiple_of(iv) {
                    let t = timing.then(Instant::now);
                    let waits = self.wait_snapshot();
                    for obs in &self.observers {
                        obs.borrow_mut().on_probe(self.now, &waits);
                    }
                    if let Some(t) = t {
                        self.prof.probe += t.elapsed();
                    }
                }
            }
            if progress {
                self.last_progress = self.now;
            } else if let Some(target) = self.idle_jump(stop_at) {
                // Open-loop fast-forward: the network is empty and the
                // next source arrival is known, so hop the clock straight
                // to it instead of idling cycle by cycle. The skipped span
                // still counts as idle ticks in the self-profile — the
                // cycle-driven loop only avoids burning it thanks to this
                // special case, and an event-driven core would get it for
                // free.
                self.book_skipped(target - self.now);
                self.now = target;
                self.last_progress = target;
                continue;
            } else if drain && self.now - self.last_progress >= DRAIN_QUIET {
                return self
                    .analyze_deadlock()
                    .map_or(PhaseEnd::Drained, PhaseEnd::Deadlock);
            } else if self.next_open_injection().is_none()
                && self.now - self.last_progress >= self.cfg.watchdog
            {
                return self
                    .analyze_deadlock()
                    .map_or(PhaseEnd::Stalled, PhaseEnd::Deadlock);
            }
            if effect == StepEffect::Fixed {
                // Every step before the exit cycle would repeat this one:
                // skip them, booked as the idle ticks they would have been,
                // and run the real step there (watchdog expiry included).
                let exit = self.fixed_point_exit(stop_at, drain, probe_every);
                self.book_skipped(exit - self.now - 1);
                self.now = exit;
            } else {
                self.now += 1;
            }
        }
    }

    /// The earliest cycle after a fixed-point step at `now` whose loop
    /// iteration can differ from it: the watchdog's (or, draining, the
    /// quiet window's) expiry, the next due injection or source arrival,
    /// the next stall probe, `stop_at`, or the cycle limit. Always past
    /// `now`: the checks that precede it in the loop did not fire.
    fn fixed_point_exit(&self, stop_at: Option<u64>, drain: bool, probe_every: Option<u64>) -> u64 {
        let deadline = self
            .next_open_injection()
            .unwrap_or_else(|| self.last_progress.saturating_add(self.cfg.watchdog));
        let quiet = drain.then(|| self.last_progress + DRAIN_QUIET);
        let probe = probe_every.map(|iv| (self.now / iv + 1) * iv);
        [quiet, self.source_next, probe, stop_at]
            .into_iter()
            .flatten()
            .fold(deadline.min(self.cfg.max_cycles), u64::min)
    }

    /// The cycle of the next scheduled injection while the gate is open.
    /// The watchdog is ineligible until it has happened.
    fn next_open_injection(&self) -> Option<u64> {
        let &pidx = self.inject_order.get(self.next_inject)?;
        self.injection_open
            .then(|| self.packets[pidx as usize].spec.inject_at)
    }

    /// The self-profile's occupancy bucket for the current in-flight count.
    fn in_flight_bucket(&self) -> usize {
        EngineProfile::occupancy_bucket(self.started_packets.saturating_sub(self.finished_packets))
    }

    /// Books `cycles` the loop did not step as idle ticks, at the
    /// in-flight level frozen across them.
    fn book_skipped(&mut self, cycles: u64) {
        self.prof.jumped_cycles += cycles;
        self.prof.occupancy[self.in_flight_bucket()] += cycles;
    }

    /// Runs to completion, deadlock, stall, or the cycle limit.
    pub fn run(&mut self) -> SimResult {
        self.prepare();
        let end = self.run_phase(None, false);
        self.finalize(end)
    }
}

#[cfg(test)]
mod tests {
    use super::step::arb_hash;
    use super::*;
    use crate::result::{PacketOutcome, SimOutcome};
    use mdx_core::Sr2201Routing;
    use mdx_fault::{FaultSet, FaultSite};
    use mdx_topology::{Coord, MdCrossbar, Shape};

    fn fig2() -> Arc<MdCrossbar> {
        Arc::new(MdCrossbar::build(Shape::fig2()))
    }

    fn sim_with(net: &Arc<MdCrossbar>, cfg: SimConfig) -> Simulator {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        Simulator::new(net.graph().clone(), scheme, cfg)
    }

    fn spec(net: &MdCrossbar, src: usize, dst: usize, flits: usize, at: u64) -> InjectSpec {
        let shape = net.shape();
        InjectSpec {
            src_pe: src,
            header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
            flits,
            inject_at: at,
        }
    }

    #[test]
    #[should_panic(expected = "at least the header flit")]
    fn zero_flit_packets_rejected() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        sim.schedule(spec(&net, 0, 1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_buffer_rejected() {
        let net = fig2();
        sim_with(
            &net,
            SimConfig {
                buffer_flits: 0,
                ..SimConfig::default()
            },
        );
    }

    #[test]
    fn empty_schedule_completes_immediately() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed);
        assert_eq!(r.stats.cycles, 0);
        assert!(r.packets.is_empty());
    }

    #[test]
    fn cycle_limit_reported() {
        let net = fig2();
        let mut sim = sim_with(
            &net,
            SimConfig {
                max_cycles: 3,
                ..SimConfig::default()
            },
        );
        sim.schedule(spec(&net, 0, 11, 20, 0));
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::CycleLimit);
        assert_eq!(r.packets[0].outcome, PacketOutcome::Unfinished);
    }

    #[test]
    fn channel_flits_account_every_hop() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        // (0,0)->(3,0): same row, 4 channels, 5 flits each.
        sim.schedule(spec(&net, 0, 3, 5, 0));
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed);
        assert_eq!(r.stats.flit_hops, 4 * 5);
        let crossed: u64 = sim.channel_flits().iter().sum();
        assert_eq!(crossed, 20);
        // Exactly 4 channels saw traffic, each 5 flits.
        let used: Vec<u64> = sim
            .channel_flits()
            .iter()
            .copied()
            .filter(|&f| f > 0)
            .collect();
        assert_eq!(used, vec![5, 5, 5, 5]);
    }

    #[test]
    fn fifo_buffer_keeps_packet_order_on_shared_path() {
        // Two same-route packets: the second is injected later and must
        // arrive later (FIFO channel buffers cannot reorder).
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        sim.schedule(spec(&net, 0, 3, 6, 0));
        sim.schedule(spec(&net, 0, 3, 6, 1));
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed);
        assert!(r.packets[0].finished_at.unwrap() < r.packets[1].finished_at.unwrap());
    }

    #[test]
    fn arbitration_is_fifo_across_cycles() {
        // A packet requesting a port one cycle earlier always wins it.
        let net = fig2();
        for seed in 0..8u64 {
            let mut sim = sim_with(
                &net,
                SimConfig {
                    arb_seed: seed,
                    ..SimConfig::default()
                },
            );
            // Both head for PE3's router exit of the row-0 crossbar.
            sim.schedule(spec(&net, 0, 3, 12, 0));
            sim.schedule(spec(&net, 1, 3, 12, 4));
            let r = sim.run();
            assert!(
                r.packets[0].finished_at.unwrap() < r.packets[1].finished_at.unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deep_buffers_reduce_blocking_latency() {
        // Virtual cut-through absorbs a blocked packet; with a long packet
        // hogging the shared exit, the follower's latency shrinks (or at
        // least never grows) as buffers deepen.
        let net = fig2();
        let mut latencies = Vec::new();
        for buffer in [1usize, 4, 32] {
            let mut sim = sim_with(
                &net,
                SimConfig {
                    buffer_flits: buffer,
                    ..SimConfig::default()
                },
            );
            sim.schedule(spec(&net, 0, 3, 24, 0)); // hog
            sim.schedule(spec(&net, 1, 7, 8, 2)); // crosses the hog's row exit? no:
                                                  // (1,0)->(3,1): X to column 3 on row 0 (contends with the hog's
                                                  // exit), then Y.
            sim.schedule(spec(&net, 1, 3, 8, 2));
            let r = sim.run();
            assert_eq!(r.outcome, SimOutcome::Completed);
            latencies.push(r.packets[2].latency().unwrap());
        }
        assert!(
            latencies[0] >= latencies[1] && latencies[1] >= latencies[2],
            "{latencies:?}"
        );
    }

    #[test]
    fn watchdog_cycle_report_names_real_channels() {
        use mdx_core::NaiveBroadcast;
        let net = fig2();
        let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig {
                watchdog: 64,
                arb_seed: 3,
                ..SimConfig::default()
            },
        );
        let shape = net.shape();
        for src in [0usize, 4] {
            let c = shape.coord_of(src);
            sim.schedule(InjectSpec {
                src_pe: src,
                header: Header {
                    rc: mdx_core::RouteChange::Broadcast,
                    dest: c,
                    src: c,
                },
                flits: 16,
                inject_at: 0,
            });
        }
        match sim.run().outcome {
            SimOutcome::Deadlock(info) => {
                assert!(!info.cycle.is_empty());
                for e in &info.cycle {
                    assert!(e.channel.contains("->"), "{}", e.channel);
                    assert_ne!(e.waiter, e.holder);
                }
                // The cycle is closed: each holder is the next waiter.
                for w in info.cycle.windows(2) {
                    assert_eq!(w[0].holder, w[1].waiter);
                }
                assert_eq!(
                    info.cycle.last().unwrap().holder,
                    info.cycle.first().unwrap().waiter
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn latency_includes_injection_delay() {
        let net = fig2();
        let mut a = sim_with(&net, SimConfig::default());
        a.schedule(spec(&net, 0, 3, 5, 0));
        let la = a.run().packets[0].latency().unwrap();
        let mut b = sim_with(&net, SimConfig::default());
        b.schedule(spec(&net, 0, 3, 5, 100));
        let rb = b.run();
        // Same latency relative to its own injection time.
        assert_eq!(rb.packets[0].latency().unwrap(), la);
        assert_eq!(rb.packets[0].injected_at, 100);
    }

    #[test]
    fn broadcast_finish_time_is_last_delivery() {
        let net = fig2();
        let shape = net.shape().clone();
        let mut sim = sim_with(&net, SimConfig::default());
        sim.schedule(InjectSpec {
            src_pe: 5,
            header: Header::broadcast_request(shape.coord_of(5)),
            flits: 6,
            inject_at: 0,
        });
        let r = sim.run();
        let p = &r.packets[0];
        assert_eq!(p.deliveries.len(), 12);
        let last_delivery = p.deliveries.iter().map(|&(_, t)| t).max().unwrap();
        // finished_at is when the last flit leaves the last buffer — at or
        // just after the last PE delivery.
        assert!(p.finished_at.unwrap() >= last_delivery);
    }

    #[test]
    fn self_send_latency_is_minimal() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        sim.schedule(spec(&net, 4, 4, 3, 0));
        let r = sim.run();
        // PE -> router -> PE: two channels plus sink drain.
        let lat = r.packets[0].latency().unwrap();
        assert!(lat <= 12, "self-send latency {lat}");
    }

    #[test]
    fn arb_hash_spreads_winners_across_ports() {
        // The per-port tie-break must not systematically favor one packet:
        // over many channels, both packets win some.
        let mut wins = [0usize; 2];
        for ch in 0..64u32 {
            let a = arb_hash(1, ch, 0);
            let b = arb_hash(1, ch, 1);
            wins[if a < b { 0 } else { 1 }] += 1;
        }
        assert!(wins[0] >= 16 && wins[1] >= 16, "{wins:?}");
    }

    #[test]
    fn recorded_route_matches_static_trace() {
        let net = fig2();
        let mut sim = sim_with(
            &net,
            SimConfig {
                record_routes: true,
                ..SimConfig::default()
            },
        );
        sim.schedule(spec(&net, 0, 11, 4, 0));
        let r = sim.run();
        let named = r.route_of(PacketId(0));
        let route: Vec<&str> = named.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            route,
            vec!["PE0", "R0", "X0-XB", "R3", "Y3-XB", "R11", "PE11"]
        );
        // The name table holds each switch once.
        assert_eq!(r.route_names.len(), 7);
        // Arrival cycles strictly increase along the path.
        let cycles: Vec<u64> = r.packets[0].route.iter().map(|&(_, c)| c).collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
        // Off by default: no allocation.
        let mut sim = sim_with(&net, SimConfig::default());
        sim.schedule(spec(&net, 0, 11, 4, 0));
        let r = sim.run();
        assert!(r.packets[0].route.is_empty());
    }

    #[test]
    fn store_and_forward_costs_hops_times_serialization() {
        let net = fig2();
        let run = |saf: bool| {
            let mut sim = sim_with(
                &net,
                SimConfig {
                    store_and_forward: saf,
                    buffer_flits: 64,
                    ..SimConfig::default()
                },
            );
            sim.schedule(spec(&net, 0, 11, 16, 0));
            let r = sim.run();
            assert_eq!(r.outcome, SimOutcome::Completed);
            r.packets[0].latency().unwrap()
        };
        let ct = run(false);
        let saf = run(true);
        // Cut-through pipelines (~hops + flits); SAF pays ~hops x flits.
        assert!(saf > 2 * ct, "saf {saf} !>> cut-through {ct}");
        assert!(saf >= 6 * 16, "saf {saf} below the serialization bound");
    }

    /// A forward that holds every port but has not crossed a flit is in
    /// `moving` already. When a fault then wounds it, pausing must take it
    /// out, found by creation sequence: after slot reuse, `moving` is not
    /// in slot order, so a search by slot number can miss it.
    #[test]
    fn pausing_a_granted_forward_takes_it_out_of_moving() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        // Every PE sends every cycle, so granted ports often face a full
        // downstream buffer.
        for t in 0..40 {
            for src in 0..12 {
                let dst = (src + 1 + (5 * t + 7 * src) % 11) % 12;
                sim.schedule(spec(&net, src, dst, 8, t as u64));
            }
        }
        sim.set_victim_mode(VictimMode::Pause);
        sim.prepare();
        let (vi, faults) = loop {
            let stop = sim.now() + 1;
            assert_eq!(sim.run_phase(Some(stop), false), PhaseEnd::ReachedCycle);
            let found = sim.moving.iter().find_map(|&vi| {
                let v = &sim.visits[vi as usize];
                let VKind::Forward { branches, .. } = &v.kind else {
                    return None;
                };
                // Wanted: no flit crossed yet, and a search of `moving` by
                // slot number would miss it.
                if branches.iter().any(|b| b.crossed > 0) || sim.moving.binary_search(&vi).is_ok() {
                    return None;
                }
                let next = sim.graph.node(sim.graph.channel(branches[0].channel).dst);
                let faults = FaultSet::single(match next {
                    Node::Pe(p) => FaultSite::Pe(p),
                    Node::Router(r) => FaultSite::Router(r),
                    Node::Xbar(x) => FaultSite::Xbar(x),
                });
                (!faults.disables(sim.graph.node(v.at))).then_some((vi, faults))
            });
            if let Some(found) = found {
                break found;
            }
        };
        assert!(sim.live((vi, sim.seq[vi as usize])).is_some());
        sim.activate_faults(&faults);
        assert!(
            sim.visits[vi as usize].paused,
            "the wounded forward was not paused"
        );
        assert!(
            !sim.moving.contains(&vi),
            "a paused visit is still in moving"
        );
        // Debug builds audit every list at the end of the next step.
        let stop = sim.now() + 1;
        sim.run_phase(Some(stop), false);
    }

    /// A live visit or pending injection as a scan of the slots and
    /// pending entries finds it.
    struct Scanned {
        seq: u64,
        packet: u32,
        at: NodeId,
        paused: bool,
        /// None while paused.
        branches: Vec<BranchState>,
    }

    /// Every live visit and pending injection, in creation order.
    fn live_by_scan(sim: &Simulator) -> Vec<Scanned> {
        let visits = sim.visits.iter().enumerate().filter(|(_, v)| !v.complete);
        let mut live: Vec<Scanned> = visits
            .map(|(vi, v)| Scanned {
                seq: sim.seq[vi],
                packet: v.packet,
                at: v.at,
                paused: v.paused,
                branches: v.kind.branches().to_vec(),
            })
            .chain(sim.pending.iter().flatten().map(|p| Scanned {
                seq: p.seq,
                packet: p.packet,
                at: p.at,
                paused: false,
                branches: vec![p.branch.clone()],
            }))
            .collect();
        live.sort_unstable_by_key(|l| l.seq);
        live
    }

    /// [`Simulator::idle`] by the scan.
    fn idle_by_scan(sim: &Simulator) -> bool {
        sim.serial_queue.is_empty()
            && sim.emission_active.is_none()
            && live_by_scan(sim).iter().all(|l| l.paused)
    }

    /// A slot is released once its visit completes and drains, so it can
    /// hold a later visit while `active` still lists the earlier one. The
    /// readers of `active` take each live visit and pending injection
    /// once, in creation order, and none of them reads the later visit
    /// through the earlier one's entry.
    #[test]
    fn readers_of_active_skip_entries_whose_slot_holds_a_later_visit() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        for t in 0..40 {
            for src in 0..12 {
                let dst = (src + 1 + (5 * t + 7 * src) % 11) % 12;
                sim.schedule(spec(&net, src, dst, 8, t as u64));
            }
        }
        sim.set_victim_mode(VictimMode::Pause);
        sim.prepare();
        // Step until a stale entry names a slot whose live visit waits for
        // a port.
        let vi = loop {
            let stop = sim.now() + 1;
            assert_eq!(
                sim.run_phase(Some(stop), false),
                PhaseEnd::ReachedCycle,
                "no slot was reused while active still listed its earlier visit"
            );
            let reused = sim.active.iter().find_map(|&(vi, seq)| {
                let v = sim.visits.get(vi as usize)?;
                let waits = !v.paused && v.kind.branches().iter().any(|b| !b.granted);
                (sim.seq[vi as usize] != seq && !v.complete && waits).then_some(vi)
            });
            if let Some(vi) = reused {
                break vi;
            }
        };
        let live = live_by_scan(&sim);
        let listed: Vec<(u64, u32)> = sim
            .active
            .iter()
            .filter_map(|&(id, seq)| sim.live((id, seq)).map(|e| (seq, e.packet())))
            .collect();
        let scanned: Vec<(u64, u32)> = live.iter().map(|l| (l.seq, l.packet)).collect();
        assert_eq!(listed, scanned, "active lists each live visit once");
        let waits: Vec<(PacketId, ChannelId, u8)> = sim
            .wait_snapshot()
            .iter()
            .map(|w| (w.waiter, w.channel, w.vc))
            .collect();
        let expected: Vec<(PacketId, ChannelId, u8)> = live
            .iter()
            .flat_map(|l| {
                l.branches
                    .iter()
                    .filter(|b| !b.granted)
                    .map(|b| (PacketId(l.packet), b.channel, b.vc))
            })
            .collect();
        assert_eq!(waits, expected, "wait snapshot");
        assert!(!sim.idle(), "live visits are in flight");

        // Fail the switch the reused slot's visit wants next (or, for a
        // sink, its own): the victims are the live packets that touch it.
        let v = &sim.visits[vi as usize];
        let node = match v.kind.branches().first() {
            Some(b) => sim.graph.channel(b.channel).dst,
            None => v.at,
        };
        let faults = FaultSet::single(match sim.graph.node(node) {
            Node::Pe(p) => FaultSite::Pe(p),
            Node::Router(r) => FaultSite::Router(r),
            Node::Xbar(x) => FaultSite::Xbar(x),
        });
        let dead = |n: NodeId| faults.disables(sim.graph.node(n));
        let mut victims: Vec<PacketId> = live
            .iter()
            .filter(|l| {
                dead(l.at)
                    || l.branches.iter().any(|b| {
                        let c = sim.graph.channel(b.channel);
                        dead(c.src) || dead(c.dst)
                    })
            })
            .map(|l| PacketId(l.packet))
            .collect();
        if sim.serial_node.is_some_and(dead) {
            victims.extend(sim.serial_queue.iter().map(|&(p, _)| PacketId(p)));
        }
        victims.sort_unstable();
        victims.dedup();
        let packet = sim.visits[vi as usize].packet;
        assert_eq!(sim.activate_faults(&faults), victims, "fault victims");
        assert!(sim.diagnostics.is_empty(), "{:?}", sim.diagnostics);
        assert_eq!(sim.idle(), idle_by_scan(&sim));

        // Evacuate the reused slot's packet if the fault spared it, and a
        // packet still waiting at its source.
        let waiting = sim.pending.iter().flatten().next().map(|p| p.packet);
        for packet in [Some(packet), waiting].into_iter().flatten() {
            if sim.packet_finished_at(PacketId(packet)).is_none() {
                sim.abort_packet(packet);
            }
            assert!(sim.diagnostics.is_empty(), "{:?}", sim.diagnostics);
            assert!(
                live_by_scan(&sim).iter().all(|l| l.packet != packet),
                "the aborted packet keeps a live visit"
            );
            let mut requests = sim.chan_requests.iter().flatten();
            assert!(
                requests.all(|&(id, _, _)| sim.packet_of(id) != packet),
                "the aborted packet still requests a port"
            );
        }
        // Fault activation recounts the buffer credits its aborts change;
        // the same faults again wound nothing new.
        assert!(sim.activate_faults(&faults).is_empty());
        // Debug builds audit every list and slot at the end of each step.
        let stop = sim.now() + 1;
        sim.run_phase(Some(stop), false);
    }

    /// A fault that wounds the S-XB's emission before any flit crossed
    /// pauses it. The re-decision must not ask the scheme to decide at the
    /// S-XB, which has no input channel: it evacuates the packet at once,
    /// so a policy can replay it from its source, and the S-XB is free for
    /// the next gathered broadcast.
    #[test]
    fn a_re_decided_emission_that_drops_frees_the_sxb() {
        let net = fig2();
        let mut sim = sim_with(&net, SimConfig::default());
        let shape = net.shape().clone();
        for t in 0..60 {
            for src in 0..12 {
                let c = shape.coord_of(src);
                let header = if (t + src) % 5 == 0 {
                    Header::broadcast_request(c)
                } else {
                    Header::unicast(c, shape.coord_of((src + 1 + 7 * t) % 12))
                };
                sim.schedule(InjectSpec {
                    src_pe: src,
                    header,
                    flits: 8,
                    inject_at: t as u64,
                });
            }
        }
        sim.set_victim_mode(VictimMode::Pause);
        sim.prepare();
        // Step until the emission waits for a port to a router.
        let (ea, faults) = loop {
            let stop = sim.now() + 1;
            assert_eq!(sim.run_phase(Some(stop), false), PhaseEnd::ReachedCycle);
            let Some((ea, _)) = sim.emission_active else {
                continue;
            };
            let branches = sim.visits[ea as usize].kind.branches();
            if branches.iter().any(|b| b.crossed > 0) {
                continue;
            }
            let waiting = branches.iter().find(|b| !b.granted).map(|b| b.channel);
            if let Some(Node::Router(r)) =
                waiting.map(|ch| sim.graph.node(sim.graph.channel(ch).dst))
            {
                break (ea, FaultSet::single(FaultSite::Router(r)));
            }
        };
        let packet = sim.visits[ea as usize].packet;
        sim.activate_faults(&faults);
        assert!(
            sim.visits[ea as usize].paused,
            "the emission was not paused"
        );
        sim.begin_epoch();
        let scheme = Sr2201Routing::new(net.clone(), &faults).expect("one router fault configures");
        sim.set_scheme(Arc::new(scheme));
        sim.redecide_paused();
        assert!(sim.emission_active.is_none());
        assert!(sim.packet_finished_at(PacketId(packet)).is_some());
        let p = &sim.packets[packet as usize];
        assert_eq!(p.dropped, Some(DropReason::FaultVictim));
        assert!(sim.take_new_victims().contains(&PacketId(packet)));
        assert_eq!(sim.run_phase(None, false), PhaseEnd::Completed);
        assert!(sim.emission_active.is_none() && sim.serial_queue.is_empty());
        assert!(sim.diagnostics.is_empty(), "{:?}", sim.diagnostics);
    }

    #[test]
    fn faulty_coord_placeholder() {
        // Keep Coord in scope for the helper imports above.
        let _ = Coord::ORIGIN;
    }
}
