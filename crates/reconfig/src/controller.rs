//! The epoch controller: drives [`mdx_sim::Simulator`] through the
//! detect → quiesce → drain → reprogram → resume protocol for every event
//! group on the fault timeline, sampling the wait graph for transition
//! hazards along the way.

use crate::report::{EpochReport, ReconfigReport};
use crate::spec::{ReconfigSpec, RecoveryPolicy};
use crate::transition::TransitionChecker;
use mdx_core::registry::build_scheme;
use mdx_core::RouteChange;
use mdx_fault::connectivity::{pair_connected, reachable_pairs};
use mdx_fault::{FaultEvent, FaultEventKind, FaultSet, TimelineError};
use mdx_sim::{
    EpochPhase, InjectSpec, PacketId, PacketOutcome, PhaseEnd, SimConfig, SimResult, Simulator,
    VictimMode,
};
use mdx_topology::MdCrossbar;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Why a reconfiguration run could not start or complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigError {
    /// The timeline is inconsistent with the initial fault set.
    BadTimeline(TimelineError),
    /// The initial scheme/fault combination cannot be configured.
    BuildScheme(String),
    /// A mid-run event produced a fault set the scheme cannot be
    /// reconfigured for (e.g. conflicting crossbar faults). The machine
    /// would stay down; the run is aborted at the reprogram step.
    Unconfigurable {
        /// Cycle of the failed reprogram.
        at: u64,
        /// The registry's refusal.
        reason: String,
    },
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::BadTimeline(e) => write!(f, "bad timeline: {e}"),
            ReconfigError::BuildScheme(e) => write!(f, "cannot build initial scheme: {e}"),
            ReconfigError::Unconfigurable { at, reason } => {
                write!(f, "reprogram at cycle {at} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The engine result plus the reconfiguration evidence.
#[derive(Debug, Clone)]
pub struct ReconfigOutcome {
    /// The engine's terminal result, exactly as a static run would report
    /// it (victim drops appear as [`mdx_core::DropReason::FaultVictim`]).
    pub result: SimResult,
    /// Phase timings, victim accounting, and transition-safety evidence.
    pub report: ReconfigReport,
}

/// Whether replaying `spec` under `faults` can possibly succeed: live
/// source, and (for unicast) a live, graph-reachable destination.
fn replay_viable(net: &MdCrossbar, faults: &FaultSet, spec: &InjectSpec) -> bool {
    if !faults.pe_usable(spec.src_pe) {
        return false;
    }
    match spec.header.rc {
        RouteChange::Normal => {
            let dst = net.shape().index_of(spec.header.dest);
            faults.pe_usable(dst) && pair_connected(net, faults, spec.src_pe, dst)
        }
        // Broadcasts deliver to whatever remains reachable; a live source
        // is enough to be worth replaying.
        _ => true,
    }
}

/// Runs `specs` on `net` under `scheme_id`, activating the fault timeline
/// in `spec` mid-run via the epoch protocol. To watch the run, build the
/// engine, attach observers and call [`drive_reconfig`]: they see the
/// usual packet hooks plus [`mdx_sim::SimObserver::on_fault_activated`]
/// and [`mdx_sim::SimObserver::on_epoch_phase`].
pub fn run_reconfig(
    net: Arc<MdCrossbar>,
    scheme_id: &str,
    initial_faults: &FaultSet,
    specs: &[InjectSpec],
    cfg: SimConfig,
    spec: &ReconfigSpec,
) -> Result<ReconfigOutcome, ReconfigError> {
    let scheme = build_scheme(scheme_id, net.clone(), initial_faults)
        .map_err(|e| ReconfigError::BuildScheme(e.to_string()))?;
    let mut sim = Simulator::new(net.graph().clone(), scheme, cfg);
    for &s in specs {
        sim.schedule(s);
    }
    drive_reconfig(&mut sim, &net, scheme_id, initial_faults, spec)
}

/// [`run_reconfig`] on a caller-built engine: `sim` must already carry the
/// routing function for `initial_faults` and its injection schedule. The
/// engine is left in its terminal state, so callers can read post-run
/// channel statistics off it.
pub fn drive_reconfig(
    sim: &mut Simulator,
    net: &Arc<MdCrossbar>,
    scheme_id: &str,
    initial_faults: &FaultSet,
    spec: &ReconfigSpec,
) -> Result<ReconfigOutcome, ReconfigError> {
    spec.timeline
        .validate(initial_faults)
        .map_err(ReconfigError::BadTimeline)?;
    sim.set_victim_mode(match spec.policy {
        RecoveryPolicy::Reroute => VictimMode::Pause,
        _ => VictimMode::Abort,
    });
    sim.prepare();

    // Group same-cycle events: one epoch per activation instant.
    let mut groups: Vec<(u64, Vec<FaultEvent>)> = Vec::new();
    for &e in spec.timeline.events() {
        match groups.last_mut() {
            Some((at, g)) if *at == e.at => g.push(e),
            _ => groups.push((e.at, vec![e])),
        }
    }

    let mut checker = TransitionChecker::new();
    let mut epochs: Vec<EpochReport> = Vec::new();
    let mut all_victims: BTreeSet<PacketId> = BTreeSet::new();
    let mut attempts: HashMap<u32, u32> = HashMap::new();
    let mut reinjected_total = 0usize;
    let mut current = initial_faults.clone();
    let mut end: Option<PhaseEnd> = None;

    'events: for gi in 0..groups.len() {
        let (at, events) = &groups[gi];
        let next_event = groups.get(gi + 1).map(|g| g.0);

        match sim.run_phase(Some(*at), false) {
            PhaseEnd::ReachedCycle | PhaseEnd::Completed => {}
            other => {
                end = Some(other);
                break 'events;
            }
        }
        // Traffic may finish before the event's cycle; the machine then
        // sits idle until the component actually fails (or comes back).
        if sim.now() < *at {
            sim.advance_idle(*at - sim.now());
        }

        for e in events {
            match e.kind {
                FaultEventKind::Inject => {
                    current.insert(e.site);
                }
                FaultEventKind::Repair => {
                    current.remove(e.site);
                }
            }
        }
        let epoch = sim.current_epoch() + 1;
        let event_at = sim.now();
        let at_activation = sim.activate_faults(&current);
        all_victims.extend(at_activation.iter().copied());

        // Detect: the service processor notices after its latency, during
        // which traffic keeps running against the stale configuration.
        match sim.run_phase(Some(event_at + spec.detect_latency), false) {
            PhaseEnd::ReachedCycle | PhaseEnd::Completed => {}
            other => {
                end = Some(other);
                break 'events;
            }
        }
        sim.notify_epoch_phase(epoch, EpochPhase::Detected);
        let detect_cycles = sim.now() - event_at;

        // Quiesce: close the injection gate.
        sim.set_injection_open(false);
        sim.notify_epoch_phase(epoch, EpochPhase::Quiesced);
        let quiesced_at = sim.now();

        // Drain: let in-flight traffic settle.
        match sim.run_phase(None, true) {
            PhaseEnd::Drained | PhaseEnd::Completed => {}
            other => {
                end = Some(other);
                break 'events;
            }
        }
        checker.observe(sim.now(), &sim.wait_snapshot());
        sim.notify_epoch_phase(epoch, EpochPhase::Drained);
        let drain_cycles = sim.now() - quiesced_at;

        // Reprogram: pay the service-processor cost, re-derive the
        // configuration, validate connectivity, swap the routing function.
        let reprogram_at = sim.now();
        sim.advance_idle(spec.reprogram_cost);
        let new_scheme = build_scheme(scheme_id, net.clone(), &current).map_err(|e| {
            ReconfigError::Unconfigurable {
                at: sim.now(),
                reason: e.to_string(),
            }
        })?;
        let connectivity = reachable_pairs(net, &current);
        sim.begin_epoch();
        sim.set_scheme(new_scheme);
        sim.notify_epoch_phase(epoch, EpochPhase::Reprogrammed);
        let reprogram_cycles = sim.now() - reprogram_at;

        // Resume: revive paused victims under the new function, reopen the
        // gate, replay evacuated victims per the policy. The wounded list
        // covers the whole epoch: packets hit at activation plus packets
        // the stale function steered into the dead region during the
        // detect window (and any failed re-decisions just above).
        let rerouted = if spec.policy == RecoveryPolicy::Reroute {
            sim.redecide_paused()
        } else {
            0
        };
        sim.set_injection_open(true);
        let wounded = sim.take_new_victims();
        all_victims.extend(wounded.iter().copied());
        let mut reinjected = 0usize;
        let mut abandoned = 0usize;
        let mut stagger = 0u64;
        for id in &wounded {
            if sim.packet_finished_at(*id).is_none() {
                continue; // paused and revived in place: recovering already
            }
            if spec.policy == RecoveryPolicy::Drop {
                abandoned += 1;
                continue;
            }
            let tries = attempts.entry(id.0).or_insert(0);
            if *tries >= spec.max_reinjects || !replay_viable(net, &current, sim.packet_spec(*id)) {
                abandoned += 1;
                continue;
            }
            *tries += 1;
            sim.reschedule_packet(*id, sim.now() + 1 + stagger);
            stagger += 1;
            reinjected += 1;
        }
        reinjected_total += reinjected;
        sim.notify_epoch_phase(epoch, EpochPhase::Resumed);
        let resumed_at = sim.now();

        epochs.push(EpochReport {
            epoch,
            event_at,
            events: events.iter().map(|e| e.to_string()).collect(),
            victims: wounded.len(),
            rerouted,
            reinjected,
            abandoned,
            detect_cycles,
            drain_cycles,
            reprogram_cycles,
            resumed_at,
            disconnected_pairs: connectivity.disconnected_pairs,
        });

        // Watch window: sample the wait graph while old-epoch holds drain
        // out alongside new-epoch traffic — where a transition deadlock
        // would show up. The window ends at the next event, or at once
        // after one sample when this epoch's drain and reprogram ran past
        // it; the next epoch then starts at the current cycle.
        let watch_until = resumed_at + spec.watch_window;
        while sim.now() < watch_until {
            let stop = (sim.now() + spec.sample_every.max(1))
                .min(watch_until)
                .min(next_event.unwrap_or(u64::MAX));
            match sim.run_phase(Some(stop), false) {
                PhaseEnd::ReachedCycle => {
                    checker.observe(sim.now(), &sim.wait_snapshot());
                    if next_event.is_some_and(|at| at <= sim.now()) {
                        break;
                    }
                }
                PhaseEnd::Completed => break,
                other => {
                    end = Some(other);
                    break 'events;
                }
            }
        }
    }

    let end = match end {
        Some(e) => e,
        None => sim.run_phase(None, false),
    };
    // Late wounds (after the last epoch's resume) never get a replay
    // opportunity, but they must still be counted as victims.
    all_victims.extend(sim.take_new_victims());
    let result = sim.finalize(end);

    let mut recovered = 0usize;
    let mut lost = 0usize;
    for id in &all_victims {
        match result.packets[id.0 as usize].outcome {
            PacketOutcome::Delivered => recovered += 1,
            PacketOutcome::Dropped(_) | PacketOutcome::Unfinished => lost += 1,
        }
    }

    Ok(ReconfigOutcome {
        result,
        report: ReconfigReport {
            policy: spec.policy.name().to_string(),
            epochs,
            transition: checker.into_report(),
            victims_total: all_victims.len(),
            reinjected_total,
            recovered,
            lost,
        },
    })
}
