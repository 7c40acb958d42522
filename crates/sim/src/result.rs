//! Injection specifications, per-packet outcomes and run-level statistics.

use mdx_core::{DropReason, Header, RouteChange};
use serde::{Deserialize, Serialize};

/// Dense id of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The id as a table index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// One packet to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectSpec {
    /// Source PE index.
    pub src_pe: usize,
    /// Initial header (RC=0 unicast, RC=1 broadcast request under the
    /// SR2201 scheme, RC=2 for the naive broadcast strawman).
    pub header: Header,
    /// Packet length in flits (>= 1; the header flit counts).
    pub flits: usize,
    /// Cycle at which the NIA presents the packet.
    pub inject_at: u64,
}

impl InjectSpec {
    /// Channels a fault-free dimension-order route would traverse for this
    /// packet, or `None` for broadcasts (whose cost is a tree, not a path).
    ///
    /// Dimension-order unicast on the multi-dimensional crossbar crosses
    /// `PE -> router` (1), then `router -> XB -> router` (2) per dimension
    /// in which source and destination differ, then `router -> PE` (1):
    /// `2 + 2 * hamming(src, dest)` channels in total. This is the
    /// yardstick the attribution layer measures RC=3 detour overhead
    /// against — a detoured packet's extra hops are
    /// `hops - fault_free_channel_hops`.
    pub fn fault_free_channel_hops(&self) -> Option<u64> {
        match self.header.rc {
            RouteChange::Normal => Some(2 + 2 * self.header.src.hamming(&self.header.dest) as u64),
            _ => None,
        }
    }
}

/// How a packet's life ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketOutcome {
    /// Fully delivered; for broadcasts, to every reachable PE.
    Delivered,
    /// Dropped by the routing scheme.
    Dropped(DropReason),
    /// Still in flight when the run ended (deadlock or cycle limit).
    Unfinished,
}

/// Per-packet accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketResult {
    /// The packet.
    pub id: PacketId,
    /// Injection cycle (as scheduled).
    pub injected_at: u64,
    /// Cycle the last flit reached its last sink, if the packet finished.
    pub finished_at: Option<u64>,
    /// Every (PE index, cycle the tail arrived) delivery.
    pub deliveries: Vec<(usize, u64)>,
    /// Outcome classification.
    pub outcome: PacketOutcome,
    /// Per-switch route as (name-table id, header-arrival cycle) pairs —
    /// populated only when [`crate::SimConfig::record_routes`] is set (BFS
    /// order for broadcast trees). The ids index
    /// [`SimResult::route_names`]; resolve them with
    /// [`PacketResult::named_route`] or [`SimResult::route_of`].
    pub route: Vec<(u32, u64)>,
}

impl PacketResult {
    /// End-to-end latency in cycles (injection to final sink), if finished.
    pub fn latency(&self) -> Option<u64> {
        self.finished_at.map(|f| f - self.injected_at)
    }

    /// Resolves [`PacketResult::route`] against a run's name table
    /// ([`SimResult::route_names`]) — the pre-interning `(name, cycle)`
    /// shape, allocated on demand instead of per hop during the run.
    pub fn named_route(&self, names: &[String]) -> Vec<(String, u64)> {
        self.route
            .iter()
            .map(|&(n, t)| (names[n as usize].clone(), t))
            .collect()
    }
}

/// A non-fatal engine bookkeeping anomaly, recorded instead of panicking
/// so an abnormal run still reaches its post-mortem intact.
///
/// The engine's internal invariants are checked at a few arbitration
/// points; a violation is a simulator bug, but aborting mid-run would cut
/// the forensic trail short. Diagnostics carry enough context — the sim
/// tick, the packet, the contended channel — to reconstruct what the
/// engine was doing when the invariant broke.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineDiagnostic {
    /// Simulation cycle at which the anomaly was observed.
    pub at: u64,
    /// The packet involved.
    pub packet: PacketId,
    /// Human-readable description of the channel (port) involved.
    pub channel: String,
    /// What went wrong.
    pub note: String,
}

impl std::fmt::Display for EngineDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {}: {} at {}: {}",
            self.at, self.packet, self.channel, self.note
        )
    }
}

/// One blocked-on relationship in a deadlock cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitEdge {
    /// The blocked packet.
    pub waiter: PacketId,
    /// The packet holding the port.
    pub holder: PacketId,
    /// Human-readable channel description (e.g. `R3 -> Y1-XB`).
    pub channel: String,
}

/// A detected deadlock: the cyclic wait, in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockInfo {
    /// Cycle at which the watchdog fired.
    pub detected_at: u64,
    /// The cyclic chain of waits (waiter of edge *i* is the holder of edge
    /// *i-1*, wrapping around).
    pub cycle: Vec<WaitEdge>,
}

impl std::fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "deadlock detected at cycle {}:", self.detected_at)?;
        for e in &self.cycle {
            writeln!(
                f,
                "  {} waits for {} held by {}",
                e.waiter, e.channel, e.holder
            )?;
        }
        Ok(())
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimOutcome {
    /// Every packet reached a terminal state (delivered or dropped).
    Completed,
    /// The watchdog found a cyclic wait.
    Deadlock(DeadlockInfo),
    /// The watchdog found no progress but also no ownership cycle (a
    /// scheme/livelock pathology — always a bug worth inspecting).
    Stalled,
    /// `max_cycles` elapsed with work remaining.
    CycleLimit,
}

impl SimOutcome {
    /// Whether the run ended with a detected deadlock.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, SimOutcome::Deadlock(_))
    }
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total flit-hops (one flit crossing one channel).
    pub flit_hops: u64,
    /// Packets fully delivered.
    pub delivered: usize,
    /// Packets dropped by the scheme.
    pub dropped: usize,
    /// Packets unfinished at the end.
    pub unfinished: usize,
    /// Sum and count of end-to-end latencies (finished packets).
    pub latency_sum: u64,
    /// Maximum end-to-end latency among finished packets.
    pub latency_max: u64,
}

impl SimStats {
    /// Mean end-to-end packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Delivered flit-hops per cycle — the throughput proxy used in the
    /// load sweeps.
    pub fn flit_hops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flit_hops as f64 / self.cycles as f64
        }
    }
}

/// Number of active-packet occupancy buckets in an [`EngineProfile`]
/// (the last bucket is the `> 128` overflow).
pub const OCCUPANCY_BUCKETS: usize = 10;

/// Upper bounds of the first `OCCUPANCY_BUCKETS - 1` occupancy buckets
/// (inclusive); counts above the last bound land in the overflow bucket.
pub const OCCUPANCY_BOUNDS: [u64; OCCUPANCY_BUCKETS - 1] = [0, 1, 2, 4, 8, 16, 32, 64, 128];

/// Wall-clock split of the engine loop by phase, in seconds. Populated
/// only when phase timing is enabled via
/// [`crate::Simulator::set_phase_timing`] — the per-section `Instant`
/// reads are cheap but not free, so they are off by default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseSplit {
    /// Pulling scheduled injections from the traffic source into the NIA.
    pub source_s: f64,
    /// The per-cycle packet step loop (arbitration, flit movement).
    pub step_s: f64,
    /// Watchdog / stall-probe / progress checks after each step.
    pub probe_s: f64,
}

impl PhaseSplit {
    /// The three phases as `(name, seconds)` pairs, in loop order — the
    /// iteration seam span exporters and metric feeders share, so a
    /// renamed or added phase shows up everywhere at once.
    pub fn named(&self) -> [(&'static str, f64); 3] {
        [
            ("source", self.source_s),
            ("step", self.step_s),
            ("probe", self.probe_s),
        ]
    }
}

/// The engine's self-profile of one run: where wall-clock time went and
/// how busy the simulated cycles actually were.
///
/// This is a **measurement, not a result**: it varies run-to-run with
/// machine load, so it is deliberately *excluded* from the canonical
/// [`SimResult`] serialization that campaign replay digests are computed
/// over (a replayed token must hash identically regardless of how fast
/// the replaying host is). Deserialized results therefore always carry
/// `profile: None`.
///
/// The tick counters describe the simulated run, not the loop's effort:
/// [`EngineProfile::ticks`], [`EngineProfile::idle_ticks`] and `occupancy`
/// come out the same whether the loop stepped a quiet cycle or jumped
/// over it. `steps` is the work the loop actually did.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Wall-clock seconds spent inside the engine's run loop (excludes
    /// result collection).
    pub wall_s: f64,
    /// Simulated cycles (same as `SimStats::cycles`, duplicated so the
    /// profile is self-contained for metric export).
    pub cycles: u64,
    /// Engine loop iterations actually executed. Each one works on what
    /// changed since the last: ports that gained a request or lost their
    /// owner, visits that can move, and buffers whose front changed.
    pub steps: u64,
    /// Executed steps that made no progress: no flit moved and no packet
    /// element (visit, buffered run) settled.
    pub idle_steps: u64,
    /// Cycles the loop did not step, each counted as an idle tick:
    /// - open-loop idle jumps across an empty network to the next source
    ///   arrival;
    /// - fixed-point waits: after a step that changed nothing, the loop
    ///   jumps to the next cycle that can differ (watchdog or drain
    ///   expiry, a due injection or arrival, a stall probe, a stop);
    /// - quiescent [`crate::Simulator::advance_idle`] dead time.
    ///
    /// A fixed-point wait books exactly the idle steps it skips, so
    /// `ticks`, `idle_ticks` and `occupancy` equal those of a loop that
    /// steps every cycle.
    pub jumped_cycles: u64,
    /// Discrete events processed: injections + flit-hops + deliveries +
    /// retirements.
    pub events: u64,
    /// Histogram of in-flight packet count per tick, bucketed by
    /// [`OCCUPANCY_BOUNDS`]. Jumped cycles count at the in-flight level
    /// frozen across the jump (bucket 0 for an open-loop idle jump, where
    /// nothing is in flight).
    pub occupancy: [u64; OCCUPANCY_BUCKETS],
    /// Optional per-phase wall-clock split (see
    /// [`crate::Simulator::set_phase_timing`]).
    pub phases: Option<PhaseSplit>,
}

impl EngineProfile {
    /// Total engine ticks: executed steps plus fast-forwarded cycles.
    pub fn ticks(&self) -> u64 {
        self.steps + self.jumped_cycles
    }

    /// Ticks in which nothing moved: idle executed steps plus
    /// fast-forwarded cycles.
    pub fn idle_ticks(&self) -> u64 {
        self.idle_steps + self.jumped_cycles
    }

    /// Fraction of ticks in which nothing moved. 0.0 for an empty run.
    pub fn idle_tick_fraction(&self) -> f64 {
        let t = self.ticks();
        if t == 0 {
            0.0
        } else {
            self.idle_ticks() as f64 / t as f64
        }
    }

    /// Simulated cycles per wall-clock second. 0.0 when no time elapsed.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Discrete events processed per simulated cycle.
    pub fn events_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.events as f64 / self.cycles as f64
        }
    }

    /// The occupancy bucket index a given in-flight packet count falls in.
    pub fn occupancy_bucket(active: usize) -> usize {
        OCCUPANCY_BOUNDS
            .iter()
            .position(|&b| active as u64 <= b)
            .unwrap_or(OCCUPANCY_BUCKETS - 1)
    }
}

/// The full result of one run.
///
/// Equality (like serialization) covers only the five deterministic
/// fields — two runs of the same token compare equal even though their
/// wall-clock [`SimResult::profile`]s differ. Campaign replay digests are
/// FNV hashes of this serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Terminal condition.
    pub outcome: SimOutcome,
    /// Aggregates.
    pub stats: SimStats,
    /// Per-packet details, indexed by [`PacketId`].
    pub packets: Vec<PacketResult>,
    /// Interned switch names for [`PacketResult::route`] entries (empty
    /// unless [`crate::SimConfig::record_routes`] was set).
    pub route_names: Vec<String>,
    /// Engine bookkeeping anomalies recorded during the run (empty on a
    /// healthy run — any entry is a simulator bug worth a report).
    pub diagnostics: Vec<EngineDiagnostic>,
    /// The engine's self-profile (wall-clock, idle ticks, occupancy).
    /// Always populated by [`crate::Simulator`] runs; **excluded from
    /// serialization** so replay digests stay machine-independent, hence
    /// `None` after a deserialization round-trip. See [`EngineProfile`].
    #[serde(skip)]
    pub profile: Option<EngineProfile>,
}

// Equality deliberately ignores the machine-dependent `profile`: it exists
// so determinism tests can assert two runs of the same scenario are
// bit-identical *as simulations* regardless of how fast each ran.
impl PartialEq for SimResult {
    fn eq(&self, other: &SimResult) -> bool {
        self.outcome == other.outcome
            && self.stats == other.stats
            && self.packets == other.packets
            && self.route_names == other.route_names
            && self.diagnostics == other.diagnostics
    }
}

/// Latencies of a run's delivered packets, collected and sorted **once** —
/// query as many percentiles as needed without re-sorting (see
/// [`SimResult::sorted_latencies`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedLatencies(Vec<u64>);

impl SortedLatencies {
    /// Builds the collection from an unsorted pool of latencies (sorted
    /// once here). Lets sweep-level reducers pool delivered latencies
    /// across many runs and take true pooled percentiles, instead of
    /// averaging tiny per-run percentiles (which collapses p95 into p50
    /// when individual runs deliver only a handful of packets).
    pub fn from_unsorted(mut latencies: Vec<u64>) -> SortedLatencies {
        latencies.sort_unstable();
        SortedLatencies(latencies)
    }

    /// The p-th percentile (p in 0..=100), `None` when nothing was
    /// delivered.
    pub fn percentile(&self, p: usize) -> Option<u64> {
        if self.0.is_empty() {
            return None;
        }
        let idx = (p.min(100) * (self.0.len() - 1)) / 100;
        Some(self.0[idx])
    }

    /// The sorted latencies, ascending.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl SimResult {
    /// Latencies of all delivered packets, sorted ascending. Collect once
    /// and reuse via [`SortedLatencies::percentile`] — the p50/p95/p99
    /// triple of a campaign row costs one sort, not three.
    pub fn sorted_latencies(&self) -> SortedLatencies {
        let mut v: Vec<u64> = self
            .packets
            .iter()
            .filter(|p| p.outcome == PacketOutcome::Delivered)
            .filter_map(|p| p.latency())
            .collect();
        v.sort_unstable();
        SortedLatencies(v)
    }

    /// The p-th latency percentile (p in 0..=100) of delivered packets.
    /// One-shot convenience; for several percentiles of the same run use
    /// [`SimResult::sorted_latencies`] once instead.
    pub fn latency_percentile(&self, p: usize) -> Option<u64> {
        self.sorted_latencies().percentile(p)
    }

    /// The resolved `(switch name, header-arrival cycle)` route of packet
    /// `id` — the compatibility accessor for the pre-interning
    /// [`PacketResult::route`] shape.
    pub fn route_of(&self, id: PacketId) -> Vec<(String, u64)> {
        self.packets[id.idx()].named_route(&self.route_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_topology::Coord;

    #[test]
    fn latency_accessors() {
        let r = PacketResult {
            id: PacketId(0),
            injected_at: 10,
            finished_at: Some(25),
            deliveries: vec![(3, 25)],
            outcome: PacketOutcome::Delivered,
            route: Vec::new(),
        };
        assert_eq!(r.latency(), Some(15));
    }

    #[test]
    fn stats_aggregates() {
        let s = SimStats {
            cycles: 100,
            flit_hops: 500,
            delivered: 2,
            dropped: 0,
            unfinished: 0,
            latency_sum: 30,
            latency_max: 20,
        };
        assert_eq!(s.mean_latency(), 15.0);
        assert_eq!(s.flit_hops_per_cycle(), 5.0);
    }

    #[test]
    fn deadlock_display_lists_cycle() {
        let d = DeadlockInfo {
            detected_at: 42,
            cycle: vec![WaitEdge {
                waiter: PacketId(0),
                holder: PacketId(1),
                channel: "R3 -> Y1-XB".into(),
            }],
        };
        let s = d.to_string();
        assert!(s.contains("cycle 42"));
        assert!(s.contains("pkt0 waits for R3 -> Y1-XB held by pkt1"));
    }

    #[test]
    fn percentiles() {
        let mk = |id: u32, lat: u64| PacketResult {
            id: PacketId(id),
            injected_at: 0,
            finished_at: Some(lat),
            deliveries: vec![],
            outcome: PacketOutcome::Delivered,
            route: Vec::new(),
        };
        let r = SimResult {
            outcome: SimOutcome::Completed,
            stats: SimStats {
                cycles: 0,
                flit_hops: 0,
                delivered: 3,
                dropped: 0,
                unfinished: 0,
                latency_sum: 0,
                latency_max: 0,
            },
            packets: vec![mk(0, 30), mk(1, 10), mk(2, 20)],
            route_names: Vec::new(),
            diagnostics: Vec::new(),
            profile: None,
        };
        assert_eq!(r.latency_percentile(0), Some(10));
        assert_eq!(r.latency_percentile(50), Some(20));
        assert_eq!(r.latency_percentile(100), Some(30));
        // One collection serves every percentile.
        let lats = r.sorted_latencies();
        assert_eq!(lats.as_slice(), &[10, 20, 30]);
        assert_eq!(lats.percentile(0), Some(10));
        assert_eq!(lats.percentile(95), Some(20));
        assert_eq!(lats.percentile(100), Some(30));
        let _ = Header::unicast(Coord::ORIGIN, Coord::ORIGIN); // keep import honest
    }

    #[test]
    fn from_unsorted_pools_and_sorts() {
        let lats = SortedLatencies::from_unsorted(vec![30, 10, 20, 10]);
        assert_eq!(lats.as_slice(), &[10, 10, 20, 30]);
        assert_eq!(lats.percentile(0), Some(10));
        assert_eq!(lats.percentile(100), Some(30));
        assert!(SortedLatencies::from_unsorted(Vec::new())
            .percentile(50)
            .is_none());
    }

    #[test]
    fn profile_is_excluded_from_canonical_serialization() {
        let mut r = SimResult {
            outcome: SimOutcome::Completed,
            stats: SimStats {
                cycles: 7,
                flit_hops: 3,
                delivered: 1,
                dropped: 0,
                unfinished: 0,
                latency_sum: 4,
                latency_max: 4,
            },
            packets: Vec::new(),
            route_names: Vec::new(),
            diagnostics: Vec::new(),
            profile: None,
        };
        let without = r.to_value();
        r.profile = Some(EngineProfile {
            wall_s: 1.25,
            cycles: 7,
            steps: 7,
            idle_steps: 2,
            jumped_cycles: 3,
            events: 5,
            occupancy: [0; OCCUPANCY_BUCKETS],
            phases: Some(PhaseSplit::default()),
        });
        // The machine-dependent profile must not perturb replay digests.
        assert_eq!(r.to_value(), without);
        let keys: Vec<&str> = without
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["outcome", "stats", "packets", "route_names", "diagnostics"]
        );
        // Round-trip: the profile does not survive, everything else does.
        let back = SimResult::from_value(&r.to_value()).unwrap();
        assert!(back.profile.is_none());
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.outcome, r.outcome);
    }

    #[test]
    fn engine_profile_derived_rates() {
        let p = EngineProfile {
            wall_s: 2.0,
            cycles: 1000,
            steps: 400,
            idle_steps: 100,
            jumped_cycles: 600,
            events: 1500,
            occupancy: [0; OCCUPANCY_BUCKETS],
            phases: None,
        };
        assert_eq!(p.ticks(), 1000);
        assert_eq!(p.idle_ticks(), 700);
        assert!((p.idle_tick_fraction() - 0.7).abs() < 1e-12);
        assert!((p.cycles_per_sec() - 500.0).abs() < 1e-9);
        assert!((p.events_per_cycle() - 1.5).abs() < 1e-12);
        assert_eq!(EngineProfile::occupancy_bucket(0), 0);
        assert_eq!(EngineProfile::occupancy_bucket(1), 1);
        assert_eq!(EngineProfile::occupancy_bucket(3), 3);
        assert_eq!(EngineProfile::occupancy_bucket(128), 8);
        assert_eq!(EngineProfile::occupancy_bucket(129), 9);
        let empty = EngineProfile {
            wall_s: 0.0,
            cycles: 0,
            steps: 0,
            idle_steps: 0,
            jumped_cycles: 0,
            events: 0,
            occupancy: [0; OCCUPANCY_BUCKETS],
            phases: None,
        };
        assert_eq!(empty.idle_tick_fraction(), 0.0);
        assert_eq!(empty.cycles_per_sec(), 0.0);
        assert_eq!(empty.events_per_cycle(), 0.0);
    }

    #[test]
    fn fault_free_channel_hops_counts_dimension_order_path() {
        let spec = |header| InjectSpec {
            src_pe: 0,
            header,
            flits: 4,
            inject_at: 0,
        };
        // Fig. 2's PE0 -> PE11: two differing dimensions, six channels
        // (PE0 -> R0 -> X0-XB -> R3 -> Y3-XB -> R11 -> PE11).
        let u = spec(Header::unicast(Coord::new(&[0, 0]), Coord::new(&[3, 2])));
        assert_eq!(u.fault_free_channel_hops(), Some(6));
        // One differing dimension: four channels.
        let u = spec(Header::unicast(Coord::new(&[0, 0]), Coord::new(&[2, 0])));
        assert_eq!(u.fault_free_channel_hops(), Some(4));
        // Self-send: PE -> router -> PE.
        let u = spec(Header::unicast(Coord::ORIGIN, Coord::ORIGIN));
        assert_eq!(u.fault_free_channel_hops(), Some(2));
        // Broadcasts have no single fault-free path length.
        let b = spec(Header::broadcast_request(Coord::ORIGIN));
        assert_eq!(b.fault_free_channel_hops(), None);
    }

    #[test]
    fn route_interning_roundtrip() {
        let r = SimResult {
            outcome: SimOutcome::Completed,
            stats: SimStats {
                cycles: 0,
                flit_hops: 0,
                delivered: 1,
                dropped: 0,
                unfinished: 0,
                latency_sum: 0,
                latency_max: 0,
            },
            packets: vec![PacketResult {
                id: PacketId(0),
                injected_at: 0,
                finished_at: Some(9),
                deliveries: vec![(1, 9)],
                outcome: PacketOutcome::Delivered,
                route: vec![(0, 0), (1, 2), (0, 4)],
            }],
            route_names: vec!["PE0".to_string(), "R0".to_string()],
            diagnostics: Vec::new(),
            profile: None,
        };
        assert_eq!(
            r.route_of(PacketId(0)),
            vec![
                ("PE0".to_string(), 0),
                ("R0".to_string(), 2),
                ("PE0".to_string(), 4)
            ]
        );
    }
}
