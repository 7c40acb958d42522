//! Property tests over campaign scenarios (schemes × workloads × faults ×
//! seeds): observer totals are consistent with the engine's own
//! accounting, and the engine's fixed-point fast-forward is invisible.
//!
//! The telemetry layer ([`mdx_obs`]) trusts the [`SimObserver`] hooks to
//! fire exactly once per lifecycle event. The first test pins that
//! contract by attaching the stock [`EventCounts`] observer and checking
//! its counters against [`SimResult`]'s independently-derived statistics.

use mdx_campaign::{
    detour_stress_for, run_scenario_instrumented, ObsOptions, Scenario, Workload, CAMPAIGN_SCHEMES,
};
use mdx_core::registry::build_scheme;
use mdx_fault::{enumerate_single_faults, FaultTimeline};
use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
use mdx_sim::{EventCounts, PhaseEnd, SimObserver, SimResult, Simulator, WaitSnapshot};
use mdx_topology::MdCrossbar;
use mdx_workloads::TrafficPattern;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Asks for a stall probe every `every` cycles and records each one: its
/// cycle and snapshot.
struct ProbeLog {
    every: u64,
    seen: Vec<(u64, Vec<WaitSnapshot>)>,
}

impl SimObserver for ProbeLog {
    fn probe_interval(&self) -> Option<u64> {
        Some(self.every)
    }
    fn on_probe(&mut self, now: u64, waits: &[WaitSnapshot]) {
        self.seen.push((now, waits.to_vec()));
    }
}

/// Builds one random campaign-style scenario from the raw picks: every
/// scheme the campaign sweeps, every workload family, fault-free and
/// single-fault, assorted seeds.
fn make_scenario(
    shape_pick: usize,
    scheme_pick: usize,
    wl_pick: u8,
    fault_pick: u64,
    seed: u64,
) -> Scenario {
    const SHAPES: [&[u16]; 3] = [&[4, 3], &[3, 3], &[2, 2, 2]];
    let scheme = CAMPAIGN_SCHEMES[scheme_pick % CAMPAIGN_SCHEMES.len()];
    // `separate-dxb` needs an extent of 3 in a non-first dimension to place
    // its distinct fault-clear D-XB line, so it skips the 2x2x2 shape.
    let shape_pick = if scheme == "separate-dxb" {
        shape_pick % 2
    } else {
        shape_pick % SHAPES.len()
    };
    let shape_v: Vec<u16> = SHAPES[shape_pick].to_vec();
    let shape = mdx_topology::Shape::new(&shape_v).unwrap();
    let n = shape.num_pes();
    let workload = match wl_pick {
        0 => Workload::Mixed {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.02,
            packet_flits: 8,
            window: 120,
            broadcast_rate: 0.005,
        },
        1 => Workload::BroadcastStorm {
            sources: vec![
                seed as usize % n,
                (seed / 7) as usize % n,
                (seed / 31) as usize % n,
            ],
            flits: 8,
        },
        _ => detour_stress_for(&shape, 8, seed % 16),
    };
    let scenario = Scenario::new(shape_v, scheme, workload, seed);
    // Half the cases run fault-free, half under one random fault.
    if fault_pick.is_multiple_of(2) {
        scenario
    } else {
        let net = MdCrossbar::build(shape);
        let sites = enumerate_single_faults(&net);
        let site = sites[(fault_pick as usize / 2) % sites.len()];
        scenario.with_faults([site])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn observer_totals_match_engine_accounting(
        shape_pick in 0usize..3, scheme_pick in 0usize..3, wl_pick in 0u8..3,
        fault_pick in any::<u64>(), seed in any::<u64>(),
    ) {
        let scenario = make_scenario(shape_pick, scheme_pick, wl_pick, fault_pick, seed);
        let shape = scenario.shape_obj().unwrap();
        let faults = scenario.fault_set().unwrap();
        let net = Arc::new(MdCrossbar::build(shape.clone()));
        let scheme = match build_scheme(&scenario.scheme, net.clone(), &faults) {
            Ok(s) => s,
            // Some scheme/fault combinations are legitimately unbuildable.
            Err(_) => return Ok(()),
        };
        let specs = scenario.specs(&shape, &faults);
        prop_assume!(!specs.is_empty());

        let mut sim = Simulator::new(net.graph().clone(), scheme, scenario.sim_config());
        let counts = sim.add_observer(EventCounts::default());
        for &spec in &specs {
            sim.schedule(spec);
        }
        let result = sim.run();
        let c = counts.borrow();
        let stats = &result.stats;

        // Every scheduled packet was injected and ended in exactly one of
        // the three terminal states the stats partition into.
        prop_assert_eq!(c.injected, specs.len());
        prop_assert_eq!(c.injected, stats.delivered + stats.dropped + stats.unfinished);

        // Finish fires exactly once per packet that reached a terminal
        // state, dropped or delivered.
        prop_assert_eq!(c.finished, stats.delivered + stats.dropped);

        // Each delivered packet produced at least one delivery hook (one
        // per leaf for broadcasts), and with no drops the per-leaf count
        // dominates the per-packet one.
        prop_assert!(c.deliveries >= stats.delivered);
        if stats.dropped == 0 {
            prop_assert!(c.deliveries >= c.finished);
        }

        // The flit hook fired once per flit-hop the engine counted.
        prop_assert_eq!(c.flits, stats.flit_hops);

        // Blocked episodes open before they close; a run that ends with
        // packets still waiting simply leaves episodes unclosed.
        prop_assert!(c.blocked >= c.unblocked);

        // The S-XB serialization queue never emits more than it gathered.
        prop_assert!(c.gathered >= c.emissions);

        // The watchdog reports a deadlock to the observer iff the run's
        // outcome is a deadlock.
        prop_assert_eq!(c.deadlocks, usize::from(result.outcome.is_deadlock()));
    }

    /// Attribution conservation vs. the engine's accounting, randomized
    /// over the same scenario space — and, for `policy_pick > 0`, over
    /// *live* fault timelines (quiesce/drain/reprogram/resume under each
    /// of the three recovery policies). Phase sums must equal the
    /// engine's per-packet latency exactly; in particular epoch-pause
    /// cycles are counted exactly once even when a pause window overlaps
    /// blocked episodes, and never appear without a timeline.
    #[test]
    fn attribution_conserves_with_and_without_fault_timelines(
        shape_pick in 0usize..3, scheme_pick in 0usize..3, wl_pick in 0u8..3,
        fault_pick in any::<u64>(), seed in any::<u64>(), policy_pick in 0u8..4,
    ) {
        let mut scenario = make_scenario(shape_pick, scheme_pick, wl_pick, fault_pick, seed);
        let live = policy_pick > 0;
        if live {
            // Turn the static fault set (possibly empty) into a mid-run
            // injection script through the epoch protocol.
            let policy = [
                RecoveryPolicy::Drop,
                RecoveryPolicy::Reinject,
                RecoveryPolicy::Reroute,
            ][(policy_pick - 1) as usize];
            let mut tl = FaultTimeline::new();
            for site in std::mem::take(&mut scenario.faults) {
                tl = tl.inject(site, 40);
            }
            scenario = scenario.with_reconfig(ReconfigSpec::new(tl).with_policy(policy));
        }

        let opts = ObsOptions { attribution: true, ..ObsOptions::default() };
        let (report, telemetry) = match run_scenario_instrumented(&scenario, &opts) {
            Ok(out) => out,
            // Unbuildable scheme/fault combinations and unreprogrammable
            // timelines are legitimate skips, not failures.
            Err(_) => return Ok(()),
        };

        let att = telemetry.attribution.expect("attribution report");
        prop_assert!(att.conserved, "violations: {:?}", att.violations);
        for p in &att.packets {
            prop_assert_eq!(p.phase_sum(), p.latency);
        }
        prop_assert_eq!(att.delivered, report.stats.delivered);

        // Pause cycles only exist on live rows that actually paused.
        if !live {
            prop_assert_eq!(att.totals.epoch_pause, 0);
        }
        // The row summary is a faithful reduction of the full report.
        let row = report.attribution.expect("row attribution");
        prop_assert_eq!(row.latency_total, att.totals.latency);
        prop_assert_eq!(row.epoch_pause, att.totals.epoch_pause);
        prop_assert_eq!(
            row.phases().iter().map(|(_, c)| c).sum::<u64>(),
            row.latency_total
        );
    }
}

/// The scenario's engine with its schedule loaded and, given an interval,
/// a [`ProbeLog`] attached. `None` when the scheme/fault pair is
/// unbuildable or the workload schedules nothing.
fn loaded_sim(
    scenario: &Scenario,
    probe_every: Option<u64>,
) -> Option<(Simulator, Option<Rc<RefCell<ProbeLog>>>)> {
    let shape = scenario.shape_obj().ok()?;
    let faults = scenario.fault_set().ok()?;
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let scheme = build_scheme(&scenario.scheme, net.clone(), &faults).ok()?;
    let specs = scenario.specs(&shape, &faults);
    if specs.is_empty() {
        return None;
    }
    let mut sim = Simulator::new(net.graph().clone(), scheme, scenario.sim_config());
    let probes = probe_every.map(|every| {
        sim.add_observer(ProbeLog {
            every,
            seen: Vec::new(),
        })
    });
    for spec in specs {
        sim.schedule(spec);
    }
    Some((sim, probes))
}

/// Runs `sim` one cycle per [`Simulator::run_phase`] call: stopping at
/// `now + 1` bounds every fast-forward to a single cycle, which is the
/// plain cycle-by-cycle loop the fast-forward must reproduce.
fn run_stepped(sim: &mut Simulator) -> SimResult {
    sim.prepare();
    loop {
        let next = sim.now() + 1;
        match sim.run_phase(Some(next), false) {
            PhaseEnd::ReachedCycle => {}
            end => return sim.finalize(end),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fixed-point fast-forward changes nothing but the engine's step
    /// count. `run()` equals the same closed-loop run stepped cycle by
    /// cycle — outcome, deadlock cycle and `detected_at` included — with
    /// identical self-profile tick accounting and, when a stall probe is
    /// attached, identical probe cycles and snapshots. On a deadlocked
    /// run most of the watchdog wait is skipped rather than stepped, and
    /// the paper's scheme never deadlocks.
    #[test]
    fn fast_forward_matches_cycle_by_cycle_stepping(
        shape_pick in 0usize..3, scheme_pick in 0usize..3, wl_pick in 0u8..3,
        fault_pick in any::<u64>(), seed in any::<u64>(), probe_pick in 0usize..3,
    ) {
        let scenario = make_scenario(shape_pick, scheme_pick, wl_pick, fault_pick, seed);
        let probe_every = [None, Some(16), Some(97)][probe_pick];
        let Some((mut fast, fast_probes)) = loaded_sim(&scenario, probe_every) else {
            return Ok(());
        };
        let (mut stepped, stepped_probes) = loaded_sim(&scenario, probe_every).unwrap();
        let result = fast.run();
        let expected = run_stepped(&mut stepped);

        prop_assert_eq!(&result, &expected);
        let got = result.profile.as_ref().unwrap();
        let want = expected.profile.as_ref().unwrap();
        // The reference never skipped a cycle.
        prop_assert_eq!(want.steps, want.ticks());
        prop_assert_eq!(got.ticks(), want.ticks());
        prop_assert_eq!(got.idle_ticks(), want.idle_ticks());
        prop_assert_eq!(got.occupancy, want.occupancy);
        prop_assert_eq!(got.events, want.events);
        let seen = |log: Option<Rc<RefCell<ProbeLog>>>| log.map(|l| l.borrow().seen.clone());
        let fast_seen = seen(fast_probes);
        prop_assert_eq!(&fast_seen, &seen(stepped_probes));
        if probe_every.is_some() {
            prop_assert!(!fast_seen.unwrap_or_default().is_empty());
        }

        if result.outcome.is_deadlock() {
            let watchdog = scenario.sim_config().watchdog;
            prop_assert!(
                got.ticks() - got.steps >= watchdog / 2,
                "stepped {} of {} ticks through a {}-cycle watchdog",
                got.steps, got.ticks(), watchdog
            );
        }
        if scenario.scheme == "sr2201" {
            prop_assert!(!result.outcome.is_deadlock(), "sr2201 deadlocked: {}", scenario.token());
        }
    }
}
