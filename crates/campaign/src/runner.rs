//! Campaign enumeration, parallel execution, and aggregation.
//!
//! A *campaign* is a grid of [`Scenario`]s — schemes × fault sets ×
//! workloads × seeds — executed in parallel on [`mdx_sim::Simulator`].
//! Every row carries its scenario token, so any interesting outcome can be
//! replayed or shrunk later from the report alone.

use crate::meter::{CampaignMeter, RowProfile};
use crate::scenario::{detour_stress_for, Scenario, ScenarioError, Workload};
use mdx_core::registry::{build_scheme_for, RegistryError};
use mdx_fault::{enumerate_single_faults, sample_fault_sets, FaultSet, FaultTimeline};
use mdx_obs::{
    AttributionObserver, AttributionReport, FlightRecorder, MetricsObserver, MetricsReport,
    PostmortemReport, StallProbe, StallReport, TraceRecorder, WindowObserver, WindowReport,
};
use mdx_reconfig::{drive_reconfig, ReconfigError, ReconfigReport, ReconfigSpec, RecoveryPolicy};
use mdx_sim::{DeadlockInfo, SimConfig, SimOutcome, SimResult, SimStats, Simulator};
use mdx_topology::{ChannelId, MdCrossbar, Network, NetworkGraph, Shape};
use mdx_workloads::TrafficPattern;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// The scheme ids a default campaign sweeps: the paper's deadlock-free
/// scheme and its two broken foils.
pub const CAMPAIGN_SCHEMES: &[&str] = &["sr2201", "separate-dxb", "naive-broadcast"];

/// Which workload families to enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Fig. 10 mixed open-loop traffic.
    Mixed,
    /// Fig. 5 broadcast storm.
    Storm,
    /// Fig. 9 broadcast-plus-detoured-unicast race.
    Detour,
    /// Live-reconfiguration stress: background traffic plus a burst at
    /// every fault-timeline event (meaningful with
    /// [`CampaignConfig::timeline_at`]; degenerates to uniform traffic
    /// without one).
    FaultStorm,
}

impl WorkloadKind {
    /// All families, in enumeration order. `FaultStorm` is opt-in — it
    /// only pulls its weight on a timeline campaign.
    pub fn all() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::Mixed,
            WorkloadKind::Storm,
            WorkloadKind::Detour,
        ]
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "mixed" => Some(WorkloadKind::Mixed),
            "storm" => Some(WorkloadKind::Storm),
            "detour" => Some(WorkloadKind::Detour),
            "fault-storm" => Some(WorkloadKind::FaultStorm),
            _ => None,
        }
    }
}

/// Grid parameters for [`enumerate_scenarios`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Topology extents.
    pub shape: Vec<u16>,
    /// Scheme ids to sweep.
    pub schemes: Vec<String>,
    /// Largest fault-set size. `0` runs fault-free only; `1` adds every
    /// single fault exhaustively; higher k adds [`sample_fault_sets`]
    /// samples per size.
    pub max_faults: usize,
    /// Sampled fault sets per size for k >= 2.
    pub fault_samples: usize,
    /// Seeds per (scheme, fault set, workload) cell.
    pub seeds: u64,
    /// Workload families to enumerate.
    pub workloads: Vec<WorkloadKind>,
    /// Engine buffer depth (wormhole at the default 2).
    pub buffer_flits: usize,
    /// Engine cycle limit per scenario.
    pub max_cycles: u64,
    /// When set, the fault dimension goes *live*: every enumerated
    /// scenario starts fault-free and injects its fault set at this cycle
    /// through the epoch protocol instead of wearing it from cycle 0
    /// (fault-free cells keep an empty timeline — a static-equivalence
    /// check). `None` keeps the classic static grid.
    pub timeline_at: Option<u64>,
    /// Recovery policy for live rows (used only with `timeline_at`).
    pub timeline_policy: RecoveryPolicy,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            shape: vec![4, 3],
            schemes: CAMPAIGN_SCHEMES.iter().map(|s| s.to_string()).collect(),
            max_faults: 1,
            fault_samples: 8,
            seeds: 8,
            workloads: WorkloadKind::all(),
            buffer_flits: SimConfig::default().buffer_flits,
            max_cycles: 50_000,
            timeline_at: None,
            timeline_policy: RecoveryPolicy::Reinject,
        }
    }
}

/// The fault sets a config sweeps: fault-free, then every single fault,
/// then sampled k-fault sets up to `max_faults`.
pub fn enumerate_fault_sets(net: &MdCrossbar, cfg: &CampaignConfig) -> Vec<FaultSet> {
    let mut sets = vec![FaultSet::none()];
    if cfg.max_faults >= 1 {
        sets.extend(
            enumerate_single_faults(net)
                .into_iter()
                .map(FaultSet::single),
        );
    }
    for k in 2..=cfg.max_faults {
        sets.extend(sample_fault_sets(
            net,
            k,
            cfg.fault_samples,
            0xFA17 + k as u64,
        ));
    }
    sets
}

/// Expands the grid into concrete scenarios.
pub fn enumerate_scenarios(cfg: &CampaignConfig) -> Result<Vec<Scenario>, ScenarioError> {
    let shape = Shape::new(&cfg.shape).map_err(|e| ScenarioError::BadShape(e.to_string()))?;
    let net = MdCrossbar::build(shape.clone());
    let fault_sets = enumerate_fault_sets(&net, cfg);

    // Fig. 5-style storm sources: PEs spread across the machine.
    let n = shape.num_pes();
    let storm_sources: Vec<usize> = (0..4.min(n)).map(|i| i * n / 4.min(n)).collect();

    let mut scenarios = Vec::new();
    for scheme in &cfg.schemes {
        for faults in &fault_sets {
            for &wk in &cfg.workloads {
                for seed in 0..cfg.seeds {
                    let workload = match wk {
                        WorkloadKind::Mixed => Workload::Mixed {
                            pattern: TrafficPattern::UniformRandom,
                            rate: 0.02,
                            packet_flits: 12,
                            window: 200,
                            broadcast_rate: 0.002,
                        },
                        WorkloadKind::Storm => Workload::BroadcastStorm {
                            sources: storm_sources.clone(),
                            flits: 16,
                        },
                        // Sweep the injection offset with the seed: the
                        // Fig. 9 race is offset-sensitive.
                        WorkloadKind::Detour => detour_stress_for(&shape, 24, 10 + seed % 28),
                        WorkloadKind::FaultStorm => Workload::FaultStorm {
                            rate: 0.01,
                            packet_flits: 12,
                            window: cfg.timeline_at.map_or(200, |at| at + 100),
                            burst: 8,
                        },
                    };
                    let mut s = Scenario::new(cfg.shape.clone(), scheme, workload, seed);
                    s.buffer_flits = cfg.buffer_flits;
                    s.max_cycles = cfg.max_cycles;
                    let s = match cfg.timeline_at {
                        // Live grid: the fault set becomes a mid-run
                        // injection script on a fault-free machine.
                        Some(at) => {
                            let mut tl = FaultTimeline::new();
                            for site in faults.sites() {
                                tl = tl.inject(site, at);
                            }
                            s.with_reconfig(ReconfigSpec::new(tl).with_policy(cfg.timeline_policy))
                        }
                        None => s.with_faults(faults.sites()),
                    };
                    scenarios.push(s);
                }
            }
        }
    }
    Ok(scenarios)
}

/// Why a scenario could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The scenario itself is malformed.
    Scenario(ScenarioError),
    /// The scheme cannot be configured for this shape/fault combination
    /// (e.g. conflicting crossbar faults) — a *skip*, not a failure.
    Registry(RegistryError),
    /// A live-reconfiguration row could not run its epoch protocol (bad
    /// timeline, or a mid-run fault set the scheme cannot be reprogrammed
    /// for) — also a *skip*.
    Reconfig(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Scenario(e) => write!(f, "{e}"),
            CampaignError::Registry(e) => write!(f, "{e}"),
            CampaignError::Reconfig(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> CampaignError {
        CampaignError::Scenario(e)
    }
}

impl From<RegistryError> for CampaignError {
    fn from(e: RegistryError) -> CampaignError {
        CampaignError::Registry(e)
    }
}

impl From<ReconfigError> for CampaignError {
    fn from(e: ReconfigError) -> CampaignError {
        CampaignError::Reconfig(e.to_string())
    }
}

/// 64-bit FNV-1a as a [`std::fmt::Write`] sink: the digest that compares
/// replays bit for bit. A row's digest is the hash of its result's compact
/// JSON, streamed in as the JSON writer emits it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes (the FNV-1a offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over bytes.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// The row digest: FNV-1a of `result`'s compact JSON, as 16 hex digits.
fn digest_of(result: &SimResult) -> String {
    let mut h = Fnv1a::new();
    let mut json = serde_json::Serializer::new(&mut h);
    result.serialize(&mut json);
    json.into_inner().expect("hashing never fails");
    format!("{:016x}", h.finish())
}

/// The busiest channels of a run as `(description, flits crossed)`: by
/// flits descending, then description, at most [`HOT_CHANNELS`] of them.
/// Only channels whose count reaches the fifth-largest nonzero count are
/// candidates. On a graph whose channel name order is built (a network
/// [`run_rows`] shares builds it once), that order breaks the ties and only
/// the kept channels are named; a lone row's own graph names its
/// candidates instead, which costs less than ordering every channel.
fn hot_channels(graph: &NetworkGraph, flits: &[u64]) -> Vec<(String, u64)> {
    let mut counts: Vec<u64> = flits.iter().copied().filter(|&f| f > 0).collect();
    let floor = if counts.len() > HOT_CHANNELS {
        *counts
            .select_nth_unstable_by(HOT_CHANNELS - 1, |a, b| b.cmp(a))
            .1
    } else {
        1
    };
    let candidates = (0..).zip(flits).filter(|&(_, &f)| f >= floor);
    let name = |c: u32| graph.describe_channel(ChannelId(c));
    let Some(rank) = graph.built_channel_name_rank() else {
        let mut hot: Vec<(String, u64)> = candidates.map(|(c, &f)| (name(c), f)).collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hot.truncate(HOT_CHANNELS);
        return hot;
    };
    let mut hot: Vec<(u32, u64)> = candidates.map(|(c, &f)| (c, f)).collect();
    hot.sort_unstable_by_key(|&(c, f)| (std::cmp::Reverse(f), rank[c as usize]));
    hot.truncate(HOT_CHANNELS);
    hot.into_iter().map(|(c, f)| (name(c), f)).collect()
}

/// Channels listed in [`ScenarioReport::hot_channels`].
const HOT_CHANNELS: usize = 5;

/// Which telemetry instruments to attach when running a scenario (see
/// [`run_scenario_instrumented`]). The default attaches none — the
/// zero-cost path [`run_scenario`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Attach a [`MetricsObserver`] (channel/crossbar utilization, gather
    /// queue, detour rate).
    pub metrics: bool,
    /// Attach a [`StallProbe`] sampling the wait graph every N cycles.
    pub stall_probe: Option<u64>,
    /// Attach a [`TraceRecorder`] (Chrome `trace_event` JSON for Perfetto).
    pub trace: bool,
    /// Attach a [`FlightRecorder`] with a ring of
    /// [`mdx_obs::DEFAULT_FLIGHT_CAPACITY`] events. Failed runs then carry a
    /// [`PostmortemReport`] in their row and telemetry.
    pub flight: bool,
    /// Attach an [`AttributionObserver`] (per-packet latency phase
    /// decomposition, blame profiles, critical path). The row gains a
    /// [`RowAttribution`] summary and the conservation invariant
    /// `sum(phases) == latency` is asserted for every delivered packet.
    pub attribution: bool,
    /// Embed the raw delivered-latency pool in the row
    /// ([`ScenarioReport::latencies`]), so sweep-level reducers can take
    /// true pooled percentiles instead of averaging per-run ones.
    pub latencies: bool,
    /// Attach a [`WindowObserver`] with this window width in cycles:
    /// fixed-width telemetry intervals in a bounded ring, plus open-loop
    /// saturation detection. The row gains a [`RowStream`] summary; the
    /// full per-window table stays in [`Telemetry::windows`].
    pub windows: Option<u64>,
    /// Enable the engine's per-phase wall-clock split
    /// ([`mdx_sim::Simulator::set_phase_timing`]), so the row's
    /// [`RowProfile::phases`] is populated — the source of the
    /// source/step/probe child spans under an engine-run span.
    pub profile_phases: bool,
}

impl ObsOptions {
    /// True when no *observer* instrument is requested. Phase timing is
    /// deliberately not counted: it is engine self-measurement, never
    /// serialized onto the row, so a phase-timed row is still cacheable
    /// and byte-identical to an untimed one.
    pub fn is_none(&self) -> bool {
        !self.metrics
            && self.stall_probe.is_none()
            && !self.trace
            && !self.flight
            && !self.attribution
            && self.windows.is_none()
    }
}

/// The compact telemetry summary embedded in a [`ScenarioReport`] row when
/// the scenario ran with [`ObsOptions::metrics`] (and, for the wait-chain
/// fields, a stall probe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowTelemetry {
    /// Mean output-port utilization of the scheme's S-XB, if it has one.
    pub sxb_util: Option<f64>,
    /// Mean output-port utilization of the scheme's D-XB, if it has one.
    pub dxb_util: Option<f64>,
    /// Highest mean output-port utilization among all *other* crossbars.
    pub max_other_xbar_util: Option<f64>,
    /// Peak S-XB serialization-queue depth.
    pub gather_peak: usize,
    /// Detour initiations observed.
    pub detours: u64,
    /// Longest wait chain any stall probe saw (0 without a probe).
    pub peak_wait_chain: usize,
    /// Longest blocked duration any stall probe saw, in cycles.
    pub peak_blocked_wait: u64,
}

/// The compact latency-attribution summary embedded in a
/// [`ScenarioReport`] row when the scenario ran with
/// [`ObsOptions::attribution`]: the run's phase totals, the heaviest
/// blame rows, and the critical-path shape. The full per-packet records
/// stay in [`Telemetry::attribution`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowAttribution {
    /// Delivered packets decomposed.
    pub delivered: usize,
    /// Whether `sum(phases) == latency` held for every delivered packet.
    // Absent from older rows, which read as conserved.
    #[serde(default = "conserved_by_default")]
    pub conserved: bool,
    /// Total end-to-end latency over delivered packets (cycles).
    pub latency_total: u64,
    /// Total source injection queueing.
    pub inject_wait: u64,
    /// Total reconfiguration epoch-pause cycles.
    pub epoch_pause: u64,
    /// Total S-XB gather serialization wait.
    pub gather_wait: u64,
    /// Total blocked-behind-normal cycles.
    pub blocked_normal: u64,
    /// Total blocked-behind-S-XB (holder RC 1/2) cycles.
    pub blocked_gather: u64,
    /// Total blocked-behind-detour (holder RC 3) cycles.
    pub blocked_detour: u64,
    /// Total RC=3 in-flight cycles.
    pub detour_transfer: u64,
    /// Total ordinary transfer cycles.
    pub base_transfer: u64,
    /// Total detour hop overhead vs. fault-free dimension-order paths.
    pub detour_overhead_hops: u64,
    /// Heaviest blame rows as `(channel description, blocked cycles)`.
    // This and the critical-path columns are absent from older rows.
    #[serde(default)]
    pub top_blame: Vec<(String, u64)>,
    /// Wait-for chain length of the critical path.
    #[serde(default)]
    pub critical_len: usize,
    /// Total cycles across the critical path's waits.
    #[serde(default)]
    pub critical_wait: u64,
}

fn conserved_by_default() -> bool {
    true
}

impl RowAttribution {
    /// Reduces a full [`AttributionReport`] to the row summary.
    pub fn from_report(rep: &AttributionReport) -> RowAttribution {
        RowAttribution {
            delivered: rep.delivered,
            conserved: rep.conserved,
            latency_total: rep.totals.latency,
            inject_wait: rep.totals.inject_wait,
            epoch_pause: rep.totals.epoch_pause,
            gather_wait: rep.totals.gather_wait,
            blocked_normal: rep.totals.blocked_normal,
            blocked_gather: rep.totals.blocked_gather,
            blocked_detour: rep.totals.blocked_detour,
            detour_transfer: rep.totals.detour_transfer,
            base_transfer: rep.totals.base_transfer,
            detour_overhead_hops: rep.totals.detour_overhead_hops,
            top_blame: rep
                .channel_blame
                .iter()
                .take(3)
                .map(|c| (c.desc.clone(), c.blocked_cycles))
                .collect(),
            critical_len: rep.critical.steps.len(),
            critical_wait: rep.critical.waited_total,
        }
    }

    /// `(name, cycles)` pairs of the cycle phases, in render order — the
    /// schema [`crate::diff`] compares run-to-run.
    pub fn phases(&self) -> [(&'static str, u64); 8] {
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

/// The compact open-loop summary embedded in a [`ScenarioReport`] row
/// when the scenario ran with [`ObsOptions::windows`]: whole-run
/// delivered-vs-offered accounting plus the saturation verdict. The full
/// per-window table stays in [`Telemetry::windows`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowStream {
    /// Window width in cycles.
    pub window: u64,
    /// Windows retained in the ring.
    pub windows: usize,
    /// Windows evicted from the ring (the run outlived the cap).
    pub dropped_windows: u64,
    /// Delivered-rate / offered-rate over the whole run (1.0 = keeping up).
    pub delivery_ratio: f64,
    /// Start cycle of the first sustained saturated stretch, if any.
    pub saturated_at: Option<u64>,
    /// Largest end-of-window in-flight backlog among retained windows.
    pub peak_backlog: u64,
    /// Mean delivered latency over the whole run, in cycles (0 when
    /// nothing finished).
    pub mean_latency: f64,
}

impl RowStream {
    /// Reduces a full [`WindowReport`] to the row summary.
    pub fn from_report(rep: &WindowReport) -> RowStream {
        let mean = rep.totals.mean_latency();
        RowStream {
            window: rep.window,
            windows: rep.windows.len(),
            dropped_windows: rep.dropped_windows,
            delivery_ratio: rep.delivery_ratio(),
            saturated_at: rep.saturated_at,
            peak_backlog: rep.windows.iter().map(|w| w.backlog).max().unwrap_or(0),
            mean_latency: if mean.is_nan() { 0.0 } else { mean },
        }
    }
}

/// The full (non-embedded) telemetry of one instrumented run.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Metrics report, when [`ObsOptions::metrics`] was set.
    pub metrics: Option<MetricsReport>,
    /// Stall history, when [`ObsOptions::stall_probe`] was set.
    pub stall: Option<StallReport>,
    /// Rendered Chrome `trace_event` document, when [`ObsOptions::trace`]
    /// was set.
    pub trace: Option<String>,
    /// Deadlock post-mortem, when [`ObsOptions::flight`] was set and the
    /// run failed.
    pub postmortem: Option<PostmortemReport>,
    /// Full latency attribution (per-packet phases, blame profiles,
    /// critical path), when [`ObsOptions::attribution`] was set.
    pub attribution: Option<AttributionReport>,
    /// Per-window open-loop telemetry, when [`ObsOptions::windows`] was
    /// set.
    pub windows: Option<WindowReport>,
    /// S-XB name under the scenario's scheme (e.g. `X0-XB`), for labeling.
    pub sxb_name: Option<String>,
    /// D-XB name under the scenario's scheme.
    pub dxb_name: Option<String>,
}

/// One campaign row: a scenario plus everything observed running it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The replay token (also recoverable from `scenario`).
    pub token: String,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Terminal condition, as a stable string: `completed`, `deadlock`,
    /// `stalled`, or `cycle-limit`.
    pub outcome: String,
    /// Packets offered by the workload.
    pub offered: usize,
    /// Run aggregates.
    pub stats: SimStats,
    /// Latency percentiles (p50, p95, p99) over delivered packets.
    pub latency_p50: Option<u64>,
    /// 95th percentile latency.
    pub latency_p95: Option<u64>,
    /// 99th percentile latency.
    pub latency_p99: Option<u64>,
    /// The busiest channels as `(description, flits crossed)`, descending.
    pub hot_channels: Vec<(String, u64)>,
    /// The cyclic wait, when the run deadlocked.
    pub deadlock: Option<DeadlockInfo>,
    /// FNV-1a digest (hex) of the full serialized [`mdx_sim::SimResult`] —
    /// two runs match bit-for-bit iff their digests match.
    pub digest: String,
    /// Telemetry summary, when the row ran instrumented (see
    /// [`run_scenario_instrumented`]); `None` on plain runs. Excluded from
    /// the digest, which hashes only the engine's result.
    pub telemetry: Option<RowTelemetry>,
    /// Flight-recorder post-mortem, when the row ran with
    /// [`ObsOptions::flight`] and ended abnormally. Like telemetry,
    /// excluded from the digest.
    pub postmortem: Option<PostmortemReport>,
    /// Epoch-protocol evidence (phase timings, victim accounting,
    /// transition safety), when the scenario carried a fault timeline.
    /// Deterministic per token, but excluded from the digest, which hashes
    /// only the engine's result.
    pub reconfig: Option<ReconfigReport>,
    /// Latency-attribution summary, when the row ran with
    /// [`ObsOptions::attribution`]. Deterministic per token; excluded
    /// from the digest, which hashes only the engine's result.
    pub attribution: Option<RowAttribution>,
    /// Raw delivered-latency pool (sorted), when the row ran with
    /// [`ObsOptions::latencies`] — feeds sweep-level pooled percentiles.
    pub latencies: Option<Vec<u64>>,
    /// Open-loop streaming summary, when the row ran with
    /// [`ObsOptions::windows`]. Like telemetry, excluded from the digest.
    pub stream: Option<RowStream>,
    /// Engine self-profile (wall-clock, idle-tick fraction, occupancy).
    /// Always populated on fresh runs; its wall-clock fields are
    /// machine-dependent, so — like telemetry — it is excluded from the
    /// digest, which hashes only the engine's canonical result.
    pub profile: Option<RowProfile>,
}

impl ScenarioReport {
    /// Whether this row ended in a detected deadlock.
    pub fn is_deadlock(&self) -> bool {
        self.outcome == "deadlock"
    }
}

/// Stable outcome label for report rows.
fn outcome_label(o: &SimOutcome) -> &'static str {
    match o {
        SimOutcome::Completed => "completed",
        SimOutcome::Deadlock(_) => "deadlock",
        SimOutcome::Stalled => "stalled",
        SimOutcome::CycleLimit => "cycle-limit",
    }
}

/// Runs one scenario to completion and aggregates its outcome. No
/// telemetry instruments are attached — the engine takes its zero-cost
/// uninstrumented path. See [`run_scenario_instrumented`] to attach them.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, CampaignError> {
    run_scenario_instrumented(scenario, &ObsOptions::default()).map(|(report, _)| report)
}

/// Runs one scenario with the telemetry instruments selected by `opts`
/// attached, returning the campaign row (with its [`RowTelemetry`] summary
/// when metrics ran) plus the full [`Telemetry`].
///
/// The replay digest is unaffected by instrumentation: observers only read
/// engine state, and the digest hashes the engine's [`mdx_sim::SimResult`].
pub fn run_scenario_instrumented(
    scenario: &Scenario,
    opts: &ObsOptions,
) -> Result<(ScenarioReport, Telemetry), CampaignError> {
    let (shape, faults) = validate(scenario)?;
    run_on(scenario.clone(), &scenario.network()?, shape, faults, opts)
}

/// The checks a scenario passes before its network is needed, in the order
/// their errors take precedence: the workload, the shape, then the faults.
fn validate(scenario: &Scenario) -> Result<(Shape, FaultSet), ScenarioError> {
    scenario.check()?;
    let shape = scenario.shape_obj()?;
    let faults = scenario.fault_set()?;
    Ok((shape, faults))
}

/// Runs a [`validate`]d scenario on `net`, the network its topology and
/// shape name. The scenario moves into its report.
fn run_on(
    scenario: Scenario,
    net: &Network,
    shape: Shape,
    faults: FaultSet,
    opts: &ObsOptions,
) -> Result<(ScenarioReport, Telemetry), CampaignError> {
    let scheme = build_scheme_for(&scenario.scheme, net, &faults)?;
    let sxb_name = scheme.serializing_node().map(|n| n.to_string());
    let dxb_name = scheme.detour_node().map(|n| n.to_string());
    // Lane count, so the flight recorder's channel names match the
    // engine's deadlock witness.
    let vcs = scheme.max_vcs().max(1) as usize;
    let specs = scenario.specs(&shape, &faults);
    let stream_source = scenario.stream_source(&shape, &faults)?;

    let mut sim = Simulator::new(net.graph().clone(), scheme, scenario.sim_config());
    if opts.profile_phases {
        sim.set_phase_timing(true);
    }

    let graph = net.graph();
    let metrics = opts
        .metrics
        .then(|| sim.add_observer(MetricsObserver::new(graph.clone())));
    let stall = opts
        .stall_probe
        .map(|every| sim.add_observer(StallProbe::new(every)));
    let trace = opts
        .trace
        .then(|| sim.add_observer(TraceRecorder::new(graph)));
    let flight = opts
        .flight
        .then(|| sim.add_observer(FlightRecorder::new(graph.clone(), vcs)));
    let attribution = opts
        .attribution
        .then(|| sim.add_observer(AttributionObserver::new(graph.clone())));
    let windows = opts
        .windows
        .map(|width| sim.add_observer(WindowObserver::new(width)));

    let scheduled = specs.len();
    sim.schedule_all(specs);
    let streaming = stream_source.is_some();
    if let Some(source) = stream_source {
        sim.set_traffic_source(Box::new(source));
    }
    // Streaming scenarios with storm lines run the epoch protocol even
    // without an explicit reconfig segment — the spec is the timeline.
    let effective_reconfig = scenario.effective_reconfig();
    let (result, reconfig) = match &effective_reconfig {
        Some(rspec) => {
            // The epoch protocol reprograms crossbar switches; on the
            // non-crossbar topologies a timeline is a skip, not a run.
            let mdx = net.as_mdx().ok_or_else(|| {
                CampaignError::Reconfig(format!(
                    "live reconfiguration requires the mdx topology, not '{}'",
                    scenario.topology
                ))
            })?;
            let out = drive_reconfig(&mut sim, mdx, &scenario.scheme, &faults, rspec)?;
            (out.result, Some(out.report))
        }
        None => (sim.run(), None),
    };
    let offered = if streaming {
        sim.source_offered()
    } else {
        scheduled
    };

    let hot = hot_channels(net.graph(), sim.channel_flits());
    let digest = digest_of(&result);
    let deadlock = match &result.outcome {
        SimOutcome::Deadlock(info) => Some(info.clone()),
        _ => None,
    };

    let attribution_report = attribution.map(|a| a.borrow().report(&result));
    if let Some(rep) = &attribution_report {
        // The hard invariant behind `--attribution`: the phase
        // decomposition must conserve every delivered packet's latency
        // against the engine's own accounting. A violation is a bug in
        // either the observer stream or the sweep — never row data.
        assert!(
            rep.conserved,
            "attribution conservation violated for packet(s) {:?} (token {})",
            rep.violations,
            scenario.token()
        );
    }

    let telemetry = Telemetry {
        metrics: metrics.map(|m| m.borrow().report(result.stats.cycles)),
        stall: stall.map(|s| s.borrow().report()),
        trace: trace.map(|t| t.borrow().render(result.stats.cycles)),
        postmortem: flight
            .and_then(|f| f.borrow().postmortem(&result.outcome, &result.diagnostics)),
        attribution: attribution_report,
        windows: windows.map(|w| w.borrow().report(result.stats.cycles)),
        sxb_name: sxb_name.clone(),
        dxb_name: dxb_name.clone(),
    };
    let row_telemetry = telemetry.metrics.as_ref().map(|m| {
        let util_of = |name: &Option<String>| {
            name.as_deref()
                .and_then(|n| m.xbar(n))
                .map(|x| x.utilization)
        };
        let special: Vec<&str> = [sxb_name.as_deref(), dxb_name.as_deref()]
            .into_iter()
            .flatten()
            .collect();
        RowTelemetry {
            sxb_util: util_of(&sxb_name),
            dxb_util: util_of(&dxb_name),
            max_other_xbar_util: m
                .crossbars
                .iter()
                .filter(|x| !special.contains(&x.name.as_str()))
                .map(|x| x.utilization)
                .fold(None, |acc: Option<f64>, u| {
                    Some(acc.map_or(u, |a| a.max(u)))
                }),
            gather_peak: m.gather_peak,
            detours: m.detours,
            peak_wait_chain: telemetry.stall.as_ref().map_or(0, |s| s.peak_chain()),
            peak_blocked_wait: telemetry.stall.as_ref().map_or(0, |s| s.peak_wait()),
        }
    });

    // One sort serves all three percentile columns.
    let lats = result.sorted_latencies();
    let report = ScenarioReport {
        token: scenario.token(),
        scenario,
        outcome: outcome_label(&result.outcome).to_string(),
        offered,
        stats: result.stats.clone(),
        latency_p50: lats.percentile(50),
        latency_p95: lats.percentile(95),
        latency_p99: lats.percentile(99),
        hot_channels: hot,
        deadlock,
        digest,
        telemetry: row_telemetry,
        postmortem: telemetry.postmortem.clone(),
        reconfig,
        attribution: telemetry
            .attribution
            .as_ref()
            .map(RowAttribution::from_report),
        latencies: opts.latencies.then(|| lats.as_slice().to_vec()),
        stream: telemetry.windows.as_ref().map(RowStream::from_report),
        profile: result.profile.as_ref().map(RowProfile::from_engine),
    };
    Ok((report, telemetry))
}

/// A finished campaign: rows for every runnable scenario, plus the
/// scenarios skipped because their scheme/fault combination admits no
/// routing configuration.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One row per executed scenario, in enumeration order.
    pub reports: Vec<ScenarioReport>,
    /// `(scenario, reason)` for combinations that cannot be configured.
    pub skipped: Vec<(Scenario, String)>,
}

impl CampaignResult {
    /// Rows that deadlocked.
    pub fn deadlocks(&self) -> impl Iterator<Item = &ScenarioReport> {
        self.reports.iter().filter(|r| r.is_deadlock())
    }

    /// Deadlock count per scheme id, in first-seen order.
    pub fn deadlocks_by_scheme(&self) -> Vec<(String, usize, usize)> {
        let mut rows: Vec<(String, usize, usize)> = Vec::new();
        for r in &self.reports {
            let scheme = &r.scenario.scheme;
            let entry = match rows.iter_mut().find(|(s, _, _)| s == scheme) {
                Some(e) => e,
                None => {
                    rows.push((scheme.clone(), 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            entry.1 += 1;
            if r.is_deadlock() {
                entry.2 += 1;
            }
        }
        rows
    }

    /// Serializes every row as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&serde_json::to_string(r).expect("report serializes"));
            out.push('\n');
        }
        out
    }

    /// A human-readable per-scheme summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>9} {:>10} {:>8} {:>11} {:>10} {:>10}\n",
            "scheme", "scenarios", "completed", "deadlock", "cycle-limit", "delivered", "p95 lat"
        ));
        for (scheme, _, _) in self.deadlocks_by_scheme() {
            let rows: Vec<&ScenarioReport> = self
                .reports
                .iter()
                .filter(|r| r.scenario.scheme == scheme)
                .collect();
            let completed = rows.iter().filter(|r| r.outcome == "completed").count();
            let deadlock = rows.iter().filter(|r| r.outcome == "deadlock").count();
            let limit = rows
                .iter()
                .filter(|r| r.outcome == "cycle-limit" || r.outcome == "stalled")
                .count();
            let delivered: usize = rows.iter().map(|r| r.stats.delivered).sum();
            let mut p95s: Vec<u64> = rows.iter().filter_map(|r| r.latency_p95).collect();
            p95s.sort_unstable();
            let p95 = p95s
                .get(p95s.len().saturating_sub(1) / 2)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{scheme:<16} {:>9} {completed:>10} {deadlock:>8} {limit:>11} {delivered:>10} {p95:>10}\n",
                rows.len()
            ));
        }
        if !self.skipped.is_empty() {
            out.push_str(&format!(
                "({} scenario(s) skipped: unconfigurable scheme/fault combinations)\n",
                self.skipped.len()
            ));
        }
        out
    }
}

/// Runs every scenario in parallel (rayon) and collects the rows in
/// enumeration order.
pub fn run_campaign(scenarios: Vec<Scenario>) -> CampaignResult {
    run_campaign_with(scenarios, &ObsOptions::default())
}

/// [`run_campaign`] with telemetry instruments attached to every row. The
/// per-row [`RowTelemetry`] summaries land in the reports; the full
/// [`Telemetry`] payloads (trace documents, raw series) are dropped — use
/// [`run_scenario_instrumented`] for a single run when those are needed.
pub fn run_campaign_with(scenarios: Vec<Scenario>, opts: &ObsOptions) -> CampaignResult {
    run_campaign_traced(scenarios, opts, None, None)
}

/// Nests the engine-side children under a finished `run` span in `t`:
///
/// - With a phase-timed profile ([`RowProfile::phases`]), wall-µs
///   source/step/probe children laid end to end from the run span's start
///   (clamped to its end — the split excludes result collection, so the
///   phases cover a prefix of the run).
/// - With a [`ReconfigReport`] (the scenario carried a
///   [`mdx_fault::FaultTimeline`]), a cycle-domain subtree: an `engine`
///   span covering `[0, cycles]`, one `epoch N` span per reconfiguration
///   epoch, and its five controller phases (detect/quiesce/drain/
///   reprogram/resume) tiling the epoch from
///   [`mdx_reconfig::EpochReport::phase_windows`].
///
/// Shared by the serve layer's per-request traces and the campaign
/// runner's per-row traces so both emit identical engine subtrees.
pub fn push_engine_spans(
    t: &mut mdx_obs::TraceBuilder,
    run_span: u64,
    run_start_us: u64,
    run_end_us: u64,
    phases: Option<&mdx_sim::PhaseSplit>,
    cycles: u64,
    reconfig: Option<&ReconfigReport>,
) {
    use mdx_obs::SpanUnit;
    if let Some(split) = phases {
        let mut at = run_start_us;
        for (name, secs) in split.named() {
            let end = (at + (secs * 1e6) as u64).min(run_end_us);
            t.add(Some(run_span), name, at, end, SpanUnit::Micros);
            at = end;
        }
    }
    if let Some(rc) = reconfig {
        let engine = t.add(Some(run_span), "engine", 0, cycles, SpanUnit::Cycles);
        for e in &rc.epochs {
            let windows = e.phase_windows();
            let epoch_end = windows[windows.len() - 1].2;
            let epoch_span = t.add(
                Some(engine),
                &format!("epoch {}", e.epoch),
                e.event_at,
                epoch_end,
                SpanUnit::Cycles,
            );
            for (name, start, end) in windows {
                t.add(Some(epoch_span), name, start, end, SpanUnit::Cycles);
            }
        }
    }
}

/// [`run_campaign_with`] with sweep-level instruments: [`run_rows`] over
/// `scenarios`, its rows collected in enumeration order.
///
/// With a [`CampaignMeter`], sweep-level telemetry lands in it (see
/// [`run_rows`]) and so does the rows/s of the sweep. With a
/// [`mdx_obs::SpanCollector`], every row is offered as a trace. With
/// neither, this is byte-identical to [`run_campaign_with`] — the disabled
/// path costs one branch per row.
pub fn run_campaign_traced(
    scenarios: Vec<Scenario>,
    opts: &ObsOptions,
    meter: Option<&CampaignMeter>,
    spans: Option<&mdx_obs::SpanCollector>,
) -> CampaignResult {
    let sweep_start = std::time::Instant::now();
    let outcomes = run_rows(
        scenarios.len(),
        |i| scenarios[i].clone(),
        opts,
        meter,
        spans,
        |_, row| row,
    );
    let mut reports = Vec::new();
    let mut skipped = Vec::new();
    for (scenario, outcome) in scenarios.into_iter().zip(outcomes) {
        match outcome {
            Ok(report) => reports.push(report),
            Err(e) => skipped.push((scenario, e.to_string())),
        }
    }
    if let Some(m) = meter {
        let elapsed = sweep_start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            m.rows_per_sec.set(reports.len() as f64 / elapsed);
        }
    }
    CampaignResult { reports, skipped }
}

/// The one row loop: runs `rows` scenarios on the worker pool and hands
/// each finished row, with its index, to `on_row` on the worker that ran
/// it. Returns what `on_row` returned, in row order.
///
/// Workers claim rows one at a time, and `scenario(i)` makes row `i`'s
/// scenario when its row is claimed, so a caller whose rows differ only
/// by seed never holds them all. Every row runs on a network shared per
/// (topology, shape): the first row on it that passes validation builds
/// it, and every later row takes a reference-counted handle. A row that
/// fails validation builds nothing, so each row reports the error a lone
/// run of it would.
///
/// With a [`CampaignMeter`], per-row run and serialize latency
/// histograms, a busy-worker gauge sampled at each row start (pool
/// saturation), and every row's engine self-profile folded into the
/// `mdx_engine_*` lifetime instruments land in it.
///
/// With a [`mdx_obs::SpanCollector`], every row is offered as a trace — a
/// `row` root span tagged with the scenario's `MDX1.` token, replay
/// digest, and outcome (so a slow span replays deterministically from the
/// log alone), `run` and `serialize` children tiling the root, and the
/// engine subtree from [`push_engine_spans`]. Head sampling is the
/// collector's; abnormal outcomes (deadlock, cycle-limit, stalled) are
/// always kept.
pub fn run_rows<R: Send>(
    rows: usize,
    scenario: impl Fn(usize) -> Scenario + Sync,
    opts: &ObsOptions,
    meter: Option<&CampaignMeter>,
    spans: Option<&mdx_obs::SpanCollector>,
    on_row: impl Fn(usize, Result<ScenarioReport, CampaignError>) -> R + Sync,
) -> Vec<R> {
    let sweep_start = std::time::Instant::now();
    let nets = SharedNetworks::default();
    let run_row = |s: Scenario| -> Result<ScenarioReport, CampaignError> {
        let (shape, faults) = validate(&s)?;
        let net = nets.get(&s)?;
        run_on(s, &net, shape, faults, opts).map(|(report, _)| report)
    };
    (0..rows)
        .into_par_iter()
        .map(|i| {
            let s = scenario(i);
            // Head-sample at row start; the keep decision is revisited at
            // the end only to force-keep abnormal outcomes.
            let tracing = spans.map(|c| (c, c.head_sample()));
            if let Some(m) = meter {
                m.workers_busy.inc();
                m.worker_saturation.observe(m.workers_busy.get());
            }
            let row_start = std::time::Instant::now();
            let row_start_us = sweep_start.elapsed().as_micros() as u64;
            let r = run_row(s);
            let run_end_us = sweep_start.elapsed().as_micros() as u64;
            if let Some(m) = meter {
                m.row_run_seconds.observe_duration(row_start.elapsed());
                m.workers_busy.dec();
            }
            match &r {
                Ok(report) => {
                    if meter.is_some() || tracing.is_some() {
                        let ser_start = std::time::Instant::now();
                        let _ = serde_json::to_string(report).expect("report serializes");
                        if let Some(m) = meter {
                            m.row_serialize_seconds
                                .observe_duration(ser_start.elapsed());
                        }
                    }
                    if let Some(m) = meter {
                        m.rows.inc();
                        if let Some(p) = &report.profile {
                            m.engine.observe(p);
                        }
                    }
                    if let Some((c, sampled)) = tracing {
                        if sampled || report.outcome != "completed" {
                            let end_us = sweep_start.elapsed().as_micros() as u64;
                            let mut t = mdx_obs::TraceBuilder::new(c.next_trace_id());
                            let root =
                                t.add(None, "row", row_start_us, end_us, mdx_obs::SpanUnit::Micros);
                            t.attr(root, "token", report.token.clone());
                            t.attr(root, "digest", report.digest.clone());
                            t.attr(root, "outcome", report.outcome.clone());
                            let run_span = t.add(
                                Some(root),
                                "run",
                                row_start_us,
                                run_end_us,
                                mdx_obs::SpanUnit::Micros,
                            );
                            t.add(
                                Some(root),
                                "serialize",
                                run_end_us,
                                end_us,
                                mdx_obs::SpanUnit::Micros,
                            );
                            push_engine_spans(
                                &mut t,
                                run_span,
                                row_start_us,
                                run_end_us,
                                report.profile.as_ref().and_then(|p| p.phases.as_ref()),
                                report.stats.cycles,
                                report.reconfig.as_ref(),
                            );
                            c.offer(t.finish());
                        } else {
                            c.drop_unsampled();
                        }
                    }
                }
                Err(_) => {
                    if let Some(m) = meter {
                        m.rows_failed.inc();
                    }
                }
            }
            on_row(i, r)
        })
        .collect()
}

/// The networks of one [`run_rows`] pass, one per (topology, shape),
/// built by the first validated row on each. A network is immutable, and
/// handing its graph to a simulator or an observer is a reference-count
/// bump; a pass touches a handful of networks, so a list is the map.
#[derive(Default)]
struct SharedNetworks(Mutex<Vec<SharedNetwork>>);

/// One entry of [`SharedNetworks`]: a (topology, shape) and its build.
struct SharedNetwork {
    topology: String,
    shape: Vec<u16>,
    net: Result<Network, ScenarioError>,
}

impl SharedNetworks {
    /// The network `s` runs on, built on first use.
    fn get(&self, s: &Scenario) -> Result<Network, ScenarioError> {
        let mut nets = self
            .0
            .lock()
            .expect("no worker panics holding the networks");
        if let Some(n) = nets
            .iter()
            .find(|n| n.topology == s.topology && n.shape == s.shape)
        {
            return n.net.clone();
        }
        let net = s.network();
        if let Ok(n) = &net {
            // Every row on it breaks hot-channel ties by this order.
            n.graph().channel_name_rank();
        }
        nets.push(SharedNetwork {
            topology: s.topology.clone(),
            shape: s.shape.clone(),
            net: net.clone(),
        });
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_fault::FaultSite;
    use mdx_topology::Coord;

    #[test]
    fn campaign_schemes_are_a_subset_of_the_registry() {
        // The default sweep is a *curated* subset of the zoo (the paper's
        // scheme and its two mdx baselines), but every id in it must stay
        // buildable through the registry — a rename there must fail here,
        // not at campaign runtime.
        for id in CAMPAIGN_SCHEMES {
            assert!(
                mdx_core::registry::SCHEME_IDS.contains(id),
                "CAMPAIGN_SCHEMES entry `{id}` is not a registered scheme"
            );
        }
    }

    #[test]
    fn enumerate_counts_multiply() {
        let cfg = CampaignConfig {
            schemes: vec!["sr2201".to_string()],
            max_faults: 0,
            seeds: 3,
            workloads: vec![WorkloadKind::Mixed, WorkloadKind::Storm],
            ..CampaignConfig::default()
        };
        let scenarios = enumerate_scenarios(&cfg).unwrap();
        // 1 scheme x 1 fault set (none) x 2 workloads x 3 seeds.
        assert_eq!(scenarios.len(), 6);
    }

    #[test]
    fn single_fault_universe_is_exhaustive() {
        let cfg = CampaignConfig::default();
        let net = MdCrossbar::build(Shape::fig2());
        // Fig. 2: 7 crossbars + 12 routers + 12 PEs, plus fault-free.
        assert_eq!(enumerate_fault_sets(&net, &cfg).len(), 1 + 31);
    }

    #[test]
    fn run_scenario_completes_and_digests() {
        let s = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::BroadcastStorm {
                sources: vec![0, 4, 8],
                flits: 16,
            },
            1,
        );
        let r = run_scenario(&s).unwrap();
        assert_eq!(r.outcome, "completed");
        assert_eq!(r.offered, 3);
        assert_eq!(r.stats.delivered, 3);
        assert!(!r.hot_channels.is_empty());
        // The digest is a replay invariant.
        assert_eq!(run_scenario(&s).unwrap().digest, r.digest);
    }

    #[test]
    fn detour_scenario_deadlocks_separate_dxb_only() {
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 0]));
        let mk = |scheme: &str, seed: u64, offset: u64| {
            Scenario::new(
                vec![4, 3],
                scheme,
                detour_stress_for(&shape, 24, offset),
                seed,
            )
            .with_faults([FaultSite::Router(faulty)])
        };
        let mut bad_deadlocks = 0;
        for seed in 0..8 {
            for offset in 10..38 {
                let bad = run_scenario(&mk("separate-dxb", seed, offset)).unwrap();
                if bad.is_deadlock() {
                    bad_deadlocks += 1;
                    assert!(bad.deadlock.is_some());
                }
                let good = run_scenario(&mk("sr2201", seed, offset)).unwrap();
                assert_ne!(good.outcome, "deadlock");
            }
        }
        assert!(bad_deadlocks > 0, "fig9 variant never deadlocked");
    }

    /// One batch over several networks, with rows that fail before, at and
    /// after the network build: every row must match a lone run of it byte
    /// for byte, and `skipped` must carry the same reasons in batch order.
    #[test]
    fn batch_rows_match_lone_runs_across_networks_and_errors() {
        let storm = |sources: Vec<usize>| Workload::BroadcastStorm { sources, flits: 12 };
        let mixed = Workload::Mixed {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_flits: 6,
            window: 60,
            broadcast_rate: 0.01,
        };
        let mdx_43 =
            |scheme: &str, seed: u64| Scenario::new(vec![4, 3], scheme, mixed.clone(), seed);
        let batch = vec![
            mdx_43("sr2201", 1),
            Scenario::new(vec![3, 3, 2], "sr2201", storm(vec![0, 9, 17]), 2),
            Scenario::new(vec![4, 4], "hyperx-ft", mixed.clone(), 3).with_topology("hyperx"),
            mdx_43("naive-broadcast", 4).with_faults([FaultSite::Router(5)]),
            // The hypercube needs every extent to be 2: the build fails.
            Scenario::new(vec![3, 2, 2], "hypercube-avoid", mixed.clone(), 5)
                .with_topology("hypercube"),
            Scenario::new(vec![2, 2, 2, 2], "hypercube-avoid", mixed.clone(), 6)
                .with_topology("hypercube"),
            // Out of range: the fault error precedes the network's.
            Scenario::new(vec![3, 2, 2], "hypercube-avoid", mixed.clone(), 7)
                .with_topology("hypercube")
                .with_faults([FaultSite::Router(99)]),
            mdx_43("separate-dxb", 8).with_faults([FaultSite::Router(12)]),
            // A scheme pinned to another topology.
            Scenario::new(vec![4, 4], "sr2201", mixed.clone(), 9).with_topology("hyperx"),
            Scenario::new(vec![3, 3, 2], "separate-dxb", mixed.clone(), 10)
                .with_faults([FaultSite::Xbar(mdx_topology::XbarRef { dim: 2, line: 3 })]),
            mdx_43("separate-dxb", 11).with_faults([FaultSite::Pe(7)]),
            Scenario::new(vec![4, 4], "hyperx-ft", storm(vec![0, 5]), 12).with_topology("hyperx"),
        ];
        let batched = run_campaign(batch.clone());
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for s in &batch {
            match run_scenario(s) {
                Ok(r) => rows.push(serde_json::to_string(&r).unwrap()),
                Err(e) => skipped.push((s.clone(), e.to_string())),
            }
        }
        let batched_rows: Vec<String> = batched
            .reports
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(batched_rows, rows);
        assert_eq!(batched.skipped, skipped);
        let reasons: Vec<&str> = skipped.iter().map(|(_, e)| e.as_str()).collect();
        assert_eq!(reasons.len(), 4, "{reasons:?}");
        assert!(reasons[0].contains("topology"), "{}", reasons[0]);
        assert!(reasons[1].contains("does not exist"), "{}", reasons[1]);
        assert!(reasons[2].contains("does not exist"), "{}", reasons[2]);
        assert!(reasons[3].contains("hyperx"), "{}", reasons[3]);
        assert_eq!(batched.reports.len(), batch.len() - 4);
    }

    /// Describe every busy channel, sort, keep five: the reference the
    /// thresholded [`hot_channels`] must reproduce.
    fn hot_channels_reference(graph: &NetworkGraph, flits: &[u64]) -> Vec<(String, u64)> {
        let mut hot: Vec<(String, u64)> = flits
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, &f)| (graph.describe_channel(ChannelId(i as u32)), f))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hot.truncate(5);
        hot
    }

    #[test]
    fn hot_channels_break_ties_at_the_fifth_count_by_name() {
        let net = MdCrossbar::build(Shape::fig2());
        let g = net.graph();
        let n = g.num_channels();
        // Three clear leaders, then nine channels tied at the fifth-largest
        // count, scattered so that channel order differs from name order.
        let mut flits = vec![0u64; n];
        flits[3] = 90;
        flits[40] = 80;
        flits[11] = 80;
        for i in [70, 2, 55, 17, 33, 64, 8, 49, 26] {
            flits[i] = 20;
        }
        flits[5] = 7;
        flits[60] = 1;
        // Fewer busy channels than slots, and none at all.
        let mut sparse = vec![0u64; n];
        sparse[9] = 4;
        sparse[1] = 4;
        sparse[30] = 2;
        // Every count distinct.
        let ramp: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
        // A lone row's graph names its candidates; a shared one has its
        // channel name order built.
        for built in [false, true] {
            assert_eq!(g.built_channel_name_rank().is_some(), built);
            let hot = hot_channels(g, &flits);
            assert_eq!(hot.len(), 5);
            assert_eq!(hot, hot_channels_reference(g, &flits));
            assert_eq!(hot_channels(g, &sparse), hot_channels_reference(g, &sparse));
            assert_eq!(hot_channels(g, &sparse).len(), 3);
            assert!(hot_channels(g, &vec![0; n]).is_empty());
            assert_eq!(hot_channels(g, &ramp), hot_channels_reference(g, &ramp));
            g.channel_name_rank();
        }
    }

    #[test]
    fn fnv_sink_matches_the_byte_hash() {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        let seed = 42;
        write!(h, "MDX1-{seed}").unwrap();
        assert_eq!(h.finish(), fnv1a64(b"MDX1-42"));
        // The published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn skips_unconfigurable_combinations() {
        let s = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::BroadcastStorm {
                sources: vec![0],
                flits: 8,
            },
            0,
        )
        .with_faults([
            FaultSite::Xbar(mdx_topology::XbarRef { dim: 0, line: 0 }),
            FaultSite::Xbar(mdx_topology::XbarRef { dim: 1, line: 1 }),
        ]);
        let out = run_campaign(vec![s]);
        assert!(out.reports.is_empty());
        assert_eq!(out.skipped.len(), 1);
    }
}
