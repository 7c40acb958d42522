//! The [`Scenario`] type: one fully-specified simulation run.
//!
//! A scenario pins *everything* an experiment run depends on — topology
//! shape, routing scheme id, fault set, workload, seed, and the engine
//! parameters — so that any campaign row can be replayed bit-identically
//! from its printed token alone (see [`crate::token`]).

use crate::token::{self, TokenError};
use mdx_core::{Header, RouteChange};
use mdx_fault::{FaultEventKind, FaultSet, FaultSite};
use mdx_reconfig::ReconfigSpec;
use mdx_sim::{InjectSpec, SimConfig};
use mdx_topology::{Coord, Network, Shape, TopologyError, DEFAULT_TOPOLOGY, MAX_DIMS};
use mdx_workloads::{
    fault_storm_schedule, mixed_schedule, OpenLoop, StreamSource, StreamSpec, TrafficPattern,
};
use serde::{Deserialize, Serialize};

/// The traffic a scenario offers to the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Open-loop unicast traffic plus Bernoulli broadcast requests
    /// ([`mdx_workloads::mixed_schedule`], the Fig. 10 stress recipe). The
    /// generator seed is the scenario seed.
    Mixed {
        /// Destination-selection rule for the unicast fraction.
        pattern: TrafficPattern,
        /// Per-PE-per-cycle unicast injection probability.
        rate: f64,
        /// Packet length in flits.
        packet_flits: usize,
        /// Injection window in cycles.
        window: u64,
        /// Per-PE-per-cycle broadcast-request probability.
        broadcast_rate: f64,
    },
    /// Simultaneous broadcasts from the listed sources at cycle 0 — the
    /// Fig. 5 recipe that deadlocks unserialized broadcast.
    BroadcastStorm {
        /// Source PEs (unusable or out-of-range entries are skipped).
        sources: Vec<usize>,
        /// Packet length in flits.
        flits: usize,
    },
    /// One broadcast plus one unicast injected `offset` cycles later and
    /// routed so that, under a suitable fault, it takes the detour path —
    /// the Fig. 9 recipe that deadlocks the D-XB ≠ S-XB variant.
    DetourStress {
        /// Broadcast source PE.
        bc_src: usize,
        /// Unicast source PE.
        uni_src: usize,
        /// Unicast destination PE.
        uni_dst: usize,
        /// Packet length in flits (both packets).
        flits: usize,
        /// Unicast injection cycle.
        offset: u64,
    },
    /// A literal injection schedule. Produced by the shrinker; also the
    /// escape hatch for replaying hand-built cases.
    Explicit {
        /// The exact packets to inject.
        specs: Vec<InjectSpec>,
    },
    /// Open-loop uniform background traffic plus a synchronized unicast
    /// burst at every cycle the scenario's fault timeline fires
    /// ([`mdx_workloads::fault_storm_schedule`]) — the live-reconfiguration
    /// stress recipe. Without a timeline it degenerates to plain uniform
    /// traffic.
    FaultStorm {
        /// Per-PE-per-cycle background injection probability.
        rate: f64,
        /// Packet length in flits.
        packet_flits: usize,
        /// Background injection window in cycles.
        window: u64,
        /// Unicasts per burst (one burst per timeline event cycle).
        burst: usize,
    },
    /// An open-loop streaming workload compiled from a declarative
    /// [`StreamSpec`] (phases, bursts, fault storms). Unlike the batch
    /// workloads above it is *not* materialized into a schedule up front:
    /// the runner feeds the engine incrementally through
    /// [`mdx_sim::TrafficSource`]. Over a long horizon the engine's
    /// per-hop state follows the visits alive at once, not the offered
    /// traffic; the per-packet records (the engine's record of each packet
    /// and [`mdx_sim::SimResult::packets`]) still grow with every packet
    /// offered.
    Stream {
        /// The parsed workload specification.
        spec: StreamSpec,
    },
}

impl Workload {
    /// Short name for report rows.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Mixed { .. } => "mixed",
            Workload::BroadcastStorm { .. } => "storm",
            Workload::DetourStress { .. } => "detour",
            Workload::Explicit { .. } => "explicit",
            Workload::FaultStorm { .. } => "fault-storm",
            Workload::Stream { .. } => "stream",
        }
    }

    /// Checks the numbers the engine and the traffic generators assume:
    /// every packet carries at least one flit, and every injection
    /// probability is a finite number in `[0, 1]`. Tokens and specs are
    /// text, so these arrive unchecked; this turns what would be an engine
    /// or generator panic into [`ScenarioError::BadSpec`].
    pub fn check(&self) -> Result<(), ScenarioError> {
        let flits = |what: &str, n: usize| {
            if n >= 1 {
                Ok(())
            } else {
                Err(ScenarioError::BadSpec(format!("{what} must be at least 1")))
            }
        };
        // The range excludes NaN and the infinities too.
        let prob = |what: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(ScenarioError::BadSpec(format!(
                    "{what} must be a probability in [0, 1], got {p}"
                )))
            }
        };
        match self {
            Workload::Mixed {
                rate,
                packet_flits,
                broadcast_rate,
                ..
            } => {
                prob("rate", *rate)?;
                prob("broadcast_rate", *broadcast_rate)?;
                flits("packet_flits", *packet_flits)
            }
            Workload::BroadcastStorm { flits: n, .. } | Workload::DetourStress { flits: n, .. } => {
                flits("flits", *n)
            }
            Workload::Explicit { specs } => specs.iter().try_for_each(|s| flits("flits", s.flits)),
            Workload::FaultStorm {
                rate, packet_flits, ..
            } => {
                prob("rate", *rate)?;
                flits("packet_flits", *packet_flits)
            }
            Workload::Stream { spec } => spec.phases.iter().try_for_each(|p| {
                prob("rate", p.rate)?;
                flits("flits", p.flits)
            }),
        }
    }
}

/// Errors turning a scenario into a runnable simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The shape vector is not a valid [`Shape`].
    BadShape(String),
    /// A fault site references a component outside the shape.
    BadFault(String),
    /// A workload's numbers are out of range, or a streaming workload
    /// spec fails validation against the shape.
    BadSpec(String),
    /// The topology id is unknown or rejects the shape.
    BadTopology(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::BadShape(e) => write!(f, "bad shape: {e}"),
            ScenarioError::BadFault(e) => write!(f, "bad fault: {e}"),
            ScenarioError::BadSpec(e) => write!(f, "bad workload spec: {e}"),
            ScenarioError::BadTopology(e) => write!(f, "bad topology: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One fully-specified simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Topology extents (one per dimension).
    pub shape: Vec<u16>,
    /// Routing scheme id (see [`mdx_core::registry`]).
    pub scheme: String,
    /// Faulty components (from cycle 0).
    pub faults: Vec<FaultSite>,
    /// Offered traffic.
    pub workload: Workload,
    /// The run seed: used for workload generation *and* arbitration
    /// tie-breaking, so one number replays the run.
    pub seed: u64,
    /// Engine buffer depth per channel ([`SimConfig::buffer_flits`]).
    pub buffer_flits: usize,
    /// Engine hard cycle limit ([`SimConfig::max_cycles`]).
    pub max_cycles: u64,
    /// Topology id (see [`mdx_topology::TOPOLOGY_IDS`]); `"mdx"` — the
    /// paper's crossbar — unless the scenario says otherwise.
    // Omitted while default, so pre-zoo tokens re-encode byte for byte.
    #[serde(
        default = "default_topology",
        skip_serializing_if = "is_default_topology"
    )]
    pub topology: String,
    /// Live-reconfiguration script: a fault timeline plus recovery policy,
    /// run through the epoch protocol ([`mdx_reconfig`]). `None` replays as
    /// a plain static run.
    // Omitted when absent, so pre-reconfig tokens re-encode byte for byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub reconfig: Option<ReconfigSpec>,
}

fn default_topology() -> String {
    DEFAULT_TOPOLOGY.to_string()
}

fn is_default_topology(topology: &str) -> bool {
    topology == DEFAULT_TOPOLOGY
}

impl Scenario {
    /// A scenario with the default engine parameters (wormhole buffers,
    /// campaign-sized cycle limit).
    pub fn new(shape: Vec<u16>, scheme: &str, workload: Workload, seed: u64) -> Scenario {
        Scenario {
            shape,
            topology: default_topology(),
            scheme: scheme.to_string(),
            faults: Vec::new(),
            workload,
            seed,
            buffer_flits: SimConfig::default().buffer_flits,
            max_cycles: 50_000,
            reconfig: None,
        }
    }

    /// Sets the topology id (builder style).
    #[must_use]
    pub fn with_topology(mut self, topology: &str) -> Scenario {
        self.topology = topology.to_string();
        self
    }

    /// Adds fault sites (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: impl IntoIterator<Item = FaultSite>) -> Scenario {
        self.faults.extend(faults);
        self.faults.sort_unstable();
        self.faults.dedup();
        self
    }

    /// Attaches a live-reconfiguration script (builder style).
    #[must_use]
    pub fn with_reconfig(mut self, spec: ReconfigSpec) -> Scenario {
        self.reconfig = Some(spec);
        self
    }

    /// [`Workload::check`], plus the engine's buffer depth: at least one
    /// flit.
    pub fn check(&self) -> Result<(), ScenarioError> {
        if self.buffer_flits == 0 {
            return Err(ScenarioError::BadSpec(
                "buffer_flits must be at least 1".to_string(),
            ));
        }
        self.workload.check()
    }

    /// The validated [`Shape`].
    pub fn shape_obj(&self) -> Result<Shape, ScenarioError> {
        if self.shape.len() > MAX_DIMS {
            return Err(ScenarioError::BadShape(format!(
                "{} dimensions exceed MAX_DIMS = {MAX_DIMS}",
                self.shape.len()
            )));
        }
        Shape::new(&self.shape).map_err(|e: TopologyError| ScenarioError::BadShape(e.to_string()))
    }

    /// The network this scenario runs on, built from the topology id and
    /// shape.
    pub fn network(&self) -> Result<Network, ScenarioError> {
        let shape = self.shape_obj()?;
        Network::build(&self.topology, shape)
            .map_err(|e: TopologyError| ScenarioError::BadTopology(e.to_string()))
    }

    /// The fault set, validated against the shape (and the topology:
    /// crossbar fault sites only exist on `mdx`).
    pub fn fault_set(&self) -> Result<FaultSet, ScenarioError> {
        let shape = self.shape_obj()?;
        let n = shape.num_pes();
        for &site in &self.faults {
            let ok = match site {
                FaultSite::Router(i) | FaultSite::Pe(i) => i < n,
                FaultSite::Xbar(x) => {
                    self.topology == DEFAULT_TOPOLOGY
                        && (x.dim as usize) < shape.d()
                        && (x.line as usize) < n / shape.extent(x.dim as usize) as usize
                }
            };
            if !ok {
                return Err(ScenarioError::BadFault(format!(
                    "{site} does not exist in shape {:?}",
                    self.shape
                )));
            }
        }
        Ok(self.faults.iter().copied().collect())
    }

    /// The engine configuration this scenario runs under.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            buffer_flits: self.buffer_flits,
            max_cycles: self.max_cycles,
            arb_seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// Materializes the workload into an injection schedule.
    ///
    /// Broadcast requests (RC=1) are rewritten to plain broadcasts (RC=2)
    /// for the `naive-broadcast` scheme — it has no S-XB to serialize
    /// requests, which is exactly the property under test — and dropped
    /// entirely for the unicast-only comparators (`o1turn` and the
    /// non-crossbar zoo schemes), which speak no broadcast at all.
    ///
    /// When the scenario carries a fault timeline, generated workloads
    /// avoid sourcing or sinking traffic at components *scheduled* to die:
    /// an application told its node enters a maintenance window does not
    /// start transfers there, while traffic merely transiting the doomed
    /// region still gets wounded and replayed. [`Workload::Explicit`]
    /// schedules are exempt — they say exactly what to inject.
    pub fn specs(&self, shape: &Shape, faults: &FaultSet) -> Vec<InjectSpec> {
        let n = shape.num_pes();
        let mut wl_faults = faults.clone();
        if let Some(rc) = &self.reconfig {
            for e in rc.timeline.events() {
                if e.kind == FaultEventKind::Inject {
                    wl_faults.insert(e.site);
                }
            }
        }
        let faults = &wl_faults;
        let usable = |pe: usize| pe < n && faults.pe_usable(pe);
        let drops_broadcasts = matches!(
            self.scheme.as_str(),
            "o1turn" | "hyperx-ft" | "fullmesh-vcfree" | "hypercube-avoid"
        );
        let mut specs = match &self.workload {
            Workload::Mixed {
                pattern,
                rate,
                packet_flits,
                window,
                broadcast_rate,
            } => mixed_schedule(
                shape,
                *pattern,
                OpenLoop {
                    rate: *rate,
                    packet_flits: *packet_flits,
                    window: *window,
                    seed: self.seed,
                },
                // A scheme that drops broadcasts gets none drawn: they
                // have a stream of their own, so this moves no other draw.
                if drops_broadcasts {
                    0.0
                } else {
                    *broadcast_rate
                },
                faults,
            ),
            Workload::BroadcastStorm { sources, flits } => sources
                .iter()
                .filter(|&&s| usable(s))
                .map(|&s| InjectSpec {
                    src_pe: s,
                    header: Header::broadcast_request(shape.coord_of(s)),
                    flits: *flits,
                    inject_at: 0,
                })
                .collect(),
            Workload::DetourStress {
                bc_src,
                uni_src,
                uni_dst,
                flits,
                offset,
            } => {
                let mut v = Vec::new();
                if usable(*bc_src) {
                    v.push(InjectSpec {
                        src_pe: *bc_src,
                        header: Header::broadcast_request(shape.coord_of(*bc_src)),
                        flits: *flits,
                        inject_at: 0,
                    });
                }
                if usable(*uni_src) && usable(*uni_dst) && uni_src != uni_dst {
                    v.push(InjectSpec {
                        src_pe: *uni_src,
                        header: Header::unicast(shape.coord_of(*uni_src), shape.coord_of(*uni_dst)),
                        flits: *flits,
                        inject_at: *offset,
                    });
                }
                v
            }
            Workload::Explicit { specs } => {
                specs.iter().filter(|s| s.src_pe < n).copied().collect()
            }
            Workload::FaultStorm {
                rate,
                packet_flits,
                window,
                burst,
            } => {
                let burst_at: Vec<u64> = self
                    .reconfig
                    .as_ref()
                    .map(|rc| {
                        let mut ats: Vec<u64> = rc.timeline.events().iter().map(|e| e.at).collect();
                        ats.dedup();
                        ats
                    })
                    .unwrap_or_default();
                fault_storm_schedule(
                    shape,
                    OpenLoop {
                        rate: *rate,
                        packet_flits: *packet_flits,
                        window: *window,
                        seed: self.seed,
                    },
                    &burst_at,
                    *burst,
                    faults,
                )
            }
            // Streaming workloads are never materialized up front; the
            // runner attaches them through `stream_source`.
            Workload::Stream { .. } => Vec::new(),
        };
        match self.scheme.as_str() {
            "naive-broadcast" => {
                for s in &mut specs {
                    if s.header.rc == RouteChange::BroadcastRequest {
                        s.header = Header {
                            rc: RouteChange::Broadcast,
                            dest: s.header.src,
                            src: s.header.src,
                        };
                    }
                }
            }
            _ if drops_broadcasts => specs.retain(|s| s.header.rc == RouteChange::Normal),
            _ => {}
        }
        specs
    }

    /// The streaming workload spec, when this scenario carries one.
    pub fn stream_spec(&self) -> Option<&StreamSpec> {
        match &self.workload {
            Workload::Stream { spec } => Some(spec),
            _ => None,
        }
    }

    /// Compiles a [`Workload::Stream`] scenario into its incremental
    /// traffic source, seeded so that the scenario seed alone replays the
    /// run. Returns `Ok(None)` for batch workloads.
    ///
    /// Like [`Scenario::specs`], the generator avoids sourcing or sinking
    /// traffic at components scheduled to die — both the spec's own storm
    /// sites and any explicit reconfig timeline.
    pub fn stream_source(
        &self,
        shape: &Shape,
        faults: &FaultSet,
    ) -> Result<Option<StreamSource>, ScenarioError> {
        let Some(spec) = self.stream_spec() else {
            return Ok(None);
        };
        let mut wl_faults = faults.clone();
        for storm in &spec.storms {
            if !storm.repair {
                for &site in &storm.sites {
                    wl_faults.insert(site);
                }
            }
        }
        if let Some(rc) = &self.reconfig {
            for e in rc.timeline.events() {
                if e.kind == FaultEventKind::Inject {
                    wl_faults.insert(e.site);
                }
            }
        }
        spec.source(shape, &wl_faults, self.seed)
            .map(Some)
            .map_err(|e| ScenarioError::BadSpec(e.to_string()))
    }

    /// The reconfiguration script this scenario actually runs under: the
    /// explicit `reconfig` segment when present, otherwise one derived
    /// from the stream spec's storm lines (default recovery policy). The
    /// spec is the single source of truth for mid-stream fault storms, so
    /// a plain `campaign stream` run exercises the epoch protocol without
    /// a hand-built timeline.
    pub fn effective_reconfig(&self) -> Option<ReconfigSpec> {
        if self.reconfig.is_some() {
            return self.reconfig.clone();
        }
        match &self.workload {
            Workload::Stream { spec } if !spec.storms.is_empty() => {
                Some(ReconfigSpec::new(spec.timeline()))
            }
            _ => None,
        }
    }

    /// Encodes the scenario as a printable `MDX1.` token.
    pub fn token(&self) -> String {
        let json = serde_json::to_string(self).expect("scenario serializes");
        token::wrap(&json)
    }

    /// Decodes a scenario from its token.
    pub fn from_token(t: &str) -> Result<Scenario, TokenError> {
        let json = token::unwrap(t)?;
        serde_json::from_str(&json).map_err(|e| TokenError::BadScenario(e.to_string()))
    }
}

/// A compact one-line description for logs and tables.
impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = self
            .shape
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let faults = if self.faults.is_empty() {
            "none".to_string()
        } else {
            self.faults
                .iter()
                .map(|s| s.node().to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        write!(f, "{shape}")?;
        if self.topology != DEFAULT_TOPOLOGY {
            write!(f, "/{}", self.topology)?;
        }
        write!(
            f,
            " {} {} faults={faults} seed={}",
            self.scheme,
            self.workload.kind(),
            self.seed
        )?;
        if let Some(rc) = &self.reconfig {
            write!(f, " timeline={}ev/{}", rc.timeline.len(), rc.policy)?;
        }
        Ok(())
    }
}

/// Fig. 9's detour-stress placement generalized to any shape with at least
/// two dimensions of extent >= 2: broadcast from the far corner of the
/// first line, unicast from the origin across the `(1, 0)` router — the
/// pair whose broadcast turn and detour turn can close a cyclic wait when
/// D-XB ≠ S-XB.
pub fn detour_stress_for(shape: &Shape, flits: usize, offset: u64) -> Workload {
    let bc = Coord::ORIGIN
        .with(0, 1.min(shape.extent(0) - 1))
        .with(shape.d() - 1, shape.extent(shape.d() - 1) - 1);
    let uni_dst = {
        let mut c = Coord::ORIGIN;
        for dim in 0..shape.d().min(2) {
            c = c.with(dim, 1.min(shape.extent(dim) - 1));
        }
        c
    };
    Workload::DetourStress {
        bc_src: shape.index_of(bc),
        uni_src: 0,
        uni_dst: shape.index_of(uni_dst),
        flits,
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_topology::XbarRef;

    fn fig2_scenario() -> Scenario {
        Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::Mixed {
                pattern: TrafficPattern::UniformRandom,
                rate: 0.02,
                packet_flits: 12,
                window: 200,
                broadcast_rate: 0.002,
            },
            7,
        )
        .with_faults([FaultSite::Router(5)])
    }

    #[test]
    fn token_roundtrip_is_identity() {
        let s = fig2_scenario();
        let t = s.token();
        assert!(t.starts_with("MDX1."));
        assert_eq!(Scenario::from_token(&t).unwrap(), s);
    }

    #[test]
    fn token_roundtrip_all_workloads() {
        let shape = Shape::fig2();
        for w in [
            Workload::BroadcastStorm {
                sources: vec![0, 4, 8],
                flits: 16,
            },
            detour_stress_for(&shape, 24, 13),
            Workload::Explicit {
                specs: vec![InjectSpec {
                    src_pe: 0,
                    header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
                    flits: 24,
                    inject_at: 10,
                }],
            },
        ] {
            let s = Scenario::new(vec![4, 3], "separate-dxb", w, 3);
            assert_eq!(Scenario::from_token(&s.token()).unwrap(), s);
        }
    }

    #[test]
    fn stream_token_roundtrip_and_derived_reconfig() {
        let spec = StreamSpec::parse(
            "seed 9\nphase 0..200 uniform rate=0.05\nstorm 100 router:5\nhorizon 400\n",
        )
        .unwrap();
        let s = Scenario::new(vec![4, 3], "sr2201", Workload::Stream { spec }, 11);
        assert_eq!(s.workload.kind(), "stream");
        assert_eq!(Scenario::from_token(&s.token()).unwrap(), s);

        // specs() materializes nothing; the storm line alone yields a
        // reconfig script.
        let shape = Shape::fig2();
        assert!(s.specs(&shape, &FaultSet::none()).is_empty());
        let rc = s.effective_reconfig().expect("storm implies reconfig");
        assert_eq!(rc.timeline.len(), 1);

        // The generator treats the doomed router as unusable: PE5 never
        // sources or sinks traffic.
        let src = s
            .stream_source(&shape, &FaultSet::none())
            .unwrap()
            .expect("stream workload has a source");
        for p in src.into_schedule() {
            assert_ne!(p.src_pe, 5);
            assert_ne!(shape.index_of(p.header.dest), 5);
        }
    }

    #[test]
    fn stream_spec_validation_surfaces_as_bad_spec() {
        let spec = StreamSpec::parse("phase 0..10 hotspot:99 rate=0.5").unwrap();
        let s = Scenario::new(vec![4, 3], "sr2201", Workload::Stream { spec }, 0);
        let err = s
            .stream_source(&Shape::fig2(), &FaultSet::none())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadSpec(_)), "{err}");
    }

    #[test]
    fn detour_stress_matches_fig9_on_fig2() {
        // On the 4x3 network the generalized placement reproduces the
        // paper's Fig. 9 actors: broadcast from PE9 = (1,2), unicast
        // (0,0) -> (1,1).
        let shape = Shape::fig2();
        match detour_stress_for(&shape, 24, 10) {
            Workload::DetourStress {
                bc_src,
                uni_src,
                uni_dst,
                ..
            } => {
                assert_eq!(bc_src, shape.index_of(Coord::new(&[1, 2])));
                assert_eq!(uni_src, 0);
                assert_eq!(uni_dst, shape.index_of(Coord::new(&[1, 1])));
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn materialize_filters_unusable_pes() {
        let shape = Shape::fig2();
        let mut s = fig2_scenario();
        s.workload = Workload::BroadcastStorm {
            sources: vec![0, 5, 99],
            flits: 8,
        };
        let faults = s.fault_set().unwrap();
        // PE5's router is faulty and 99 is out of range: only PE0 remains.
        let specs = s.specs(&shape, &faults);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].src_pe, 0);
    }

    #[test]
    fn naive_rewrite_turns_requests_into_broadcasts() {
        let shape = Shape::fig2();
        let s = Scenario::new(
            vec![4, 3],
            "naive-broadcast",
            Workload::BroadcastStorm {
                sources: vec![0, 4],
                flits: 16,
            },
            0,
        );
        for spec in s.specs(&shape, &FaultSet::none()) {
            assert_eq!(spec.header.rc, RouteChange::Broadcast);
            assert_eq!(spec.header.dest, spec.header.src);
        }
    }

    #[test]
    fn topology_roundtrips_and_default_is_omitted() {
        // A non-default topology survives the token round trip...
        let s = Scenario::new(
            vec![3, 3],
            "hyperx-ft",
            Workload::Mixed {
                pattern: TrafficPattern::UniformRandom,
                rate: 0.02,
                packet_flits: 8,
                window: 100,
                broadcast_rate: 0.0,
            },
            5,
        )
        .with_topology("hyperx");
        let back = Scenario::from_token(&s.token()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.topology, "hyperx");
        assert!(s.to_string().contains("3x3/hyperx"), "{s}");

        // ...while the default never appears on the wire: the serialized
        // form of an mdx scenario has no `topology` key, so pre-zoo tokens
        // re-encode byte-identically.
        let d = fig2_scenario();
        assert_eq!(d.topology, DEFAULT_TOPOLOGY);
        let json = serde_json::to_string(&d).unwrap();
        assert!(!json.contains("topology"), "{json}");
        assert!(!d.to_string().contains("mdx"), "{d}");
    }

    #[test]
    fn network_builder_follows_topology_id() {
        let s = fig2_scenario();
        assert!(s.network().unwrap().as_mdx().is_some());
        let h = Scenario::new(vec![2, 2, 2], "hypercube-avoid", s.workload.clone(), 0)
            .with_topology("hypercube");
        assert!(h.network().unwrap().as_mdx().is_none());
        let bad = s.clone().with_topology("donut");
        assert!(matches!(
            bad.network().unwrap_err(),
            ScenarioError::BadTopology(_)
        ));
    }

    #[test]
    fn xbar_faults_only_exist_on_mdx() {
        let mut s = fig2_scenario().with_topology("hyperx");
        s.faults = vec![FaultSite::Xbar(XbarRef { dim: 1, line: 0 })];
        assert!(matches!(
            s.fault_set().unwrap_err(),
            ScenarioError::BadFault(_)
        ));
        // Router/PE faults remain valid off-mdx.
        s.faults = vec![FaultSite::Router(5)];
        assert!(s.fault_set().is_ok());
    }

    #[test]
    fn zoo_schemes_drop_broadcast_traffic() {
        let shape = Shape::new(&[3, 3]).unwrap();
        for id in ["hyperx-ft", "fullmesh-vcfree", "hypercube-avoid"] {
            let s = Scenario::new(
                vec![3, 3],
                id,
                Workload::BroadcastStorm {
                    sources: vec![0, 4],
                    flits: 8,
                },
                0,
            );
            assert!(s.specs(&shape, &FaultSet::none()).is_empty(), "{id}");
        }
    }

    #[test]
    fn fault_validation() {
        let mut s = fig2_scenario();
        s.faults = vec![FaultSite::Pe(12)];
        assert!(s.fault_set().is_err());
        s.faults = vec![FaultSite::Xbar(XbarRef { dim: 2, line: 0 })];
        assert!(s.fault_set().is_err());
        // On 4x3 dimension 1 has 12/3 = 4 lines (one per X column).
        s.faults = vec![FaultSite::Xbar(XbarRef { dim: 1, line: 4 })];
        assert!(s.fault_set().is_err());
        s.faults = vec![FaultSite::Xbar(XbarRef { dim: 1, line: 3 })];
        assert!(s.fault_set().is_ok());
    }
}
