//! Acceptance sweep for live reconfiguration: every single-fault timeline
//! on a 4×4×4 machine, activated mid-run under the `reinject` policy, must
//! complete with no transition-safety violations and no lost packets, and
//! each row's epoch evidence must replay byte-identically from its token.
//! A timeline whose next event falls inside an epoch's drain must still
//! return, and a wait cycle through a hold from before a reprogram is a
//! transition violation.

use mdx_campaign::{
    enumerate_scenarios, run_campaign, run_scenario, CampaignConfig, Scenario, Workload,
    WorkloadKind,
};
use mdx_fault::{FaultSite, FaultTimeline};
use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
use mdx_topology::XbarRef;
use mdx_workloads::TrafficPattern;

fn acceptance_config() -> CampaignConfig {
    CampaignConfig {
        shape: vec![4, 4, 4],
        schemes: vec!["sr2201".to_string()],
        max_faults: 1,
        seeds: 1,
        workloads: vec![WorkloadKind::FaultStorm],
        timeline_at: Some(40),
        timeline_policy: RecoveryPolicy::Reinject,
        max_cycles: 50_000,
        ..CampaignConfig::default()
    }
}

#[test]
fn single_fault_timelines_on_4x4x4_recover_without_loss() {
    let cfg = acceptance_config();
    let scenarios = enumerate_scenarios(&cfg).expect("grid enumerates");
    // Fault-free + 64 routers + 64 PEs + 3×16 crossbars = 177 cells.
    assert!(
        scenarios.len() >= 100,
        "expected at least 100 timeline scenarios, got {}",
        scenarios.len()
    );
    assert!(
        scenarios.iter().all(|s| s.reconfig.is_some()),
        "every cell of a timeline campaign carries a reconfig spec"
    );

    let result = run_campaign(scenarios);
    assert!(
        result.skipped.is_empty(),
        "no single-fault timeline should be unconfigurable under sr2201: {:?}",
        result
            .skipped
            .iter()
            .map(|(s, why)| format!("{s}: {why}"))
            .collect::<Vec<_>>()
    );

    let mut live_rows = 0usize;
    for row in &result.reports {
        assert_eq!(
            row.outcome, "completed",
            "timeline row must complete: {} -> {}",
            row.token, row.outcome
        );
        let report = row
            .reconfig
            .as_ref()
            .expect("timeline rows carry a reconfig report");
        assert!(
            report.transition_safe(),
            "mixed-epoch wait cycle in {}: {:?}",
            row.token,
            report.transition
        );
        assert_eq!(
            report.lost, 0,
            "reinject must lose no packets in {} (victims={}, recovered={})",
            row.token, report.victims_total, report.recovered
        );
        assert_eq!(
            report.victims_total, report.recovered,
            "every wounded packet must be recovered in {}",
            row.token
        );
        if !report.epochs.is_empty() {
            live_rows += 1;
        }
    }
    assert!(
        live_rows > 100,
        "the sweep should exercise a live epoch on (almost) every faulted cell, got {live_rows}"
    );
}

#[test]
fn timeline_rows_replay_byte_identically() {
    let cfg = acceptance_config();
    let scenarios = enumerate_scenarios(&cfg).expect("grid enumerates");
    // A spread of cells: fault-free, and a stride through the fault grid.
    for s in scenarios.iter().step_by(41) {
        let token = s.token();
        let a = run_scenario(s).expect("row runs");
        let b =
            run_scenario(&Scenario::from_token(&token).unwrap()).expect("row replays from token");
        assert_eq!(a.digest, b.digest, "engine result must replay: {token}");
        let ra = serde_json::to_string(&a.reconfig).unwrap();
        let rb = serde_json::to_string(&b.reconfig).unwrap();
        assert_eq!(
            ra, rb,
            "reconfig report must replay byte-identically: {token}"
        );
    }
}

/// An epoch whose drain and reprogram end after the next timeline event:
/// the `load` row on 8x8 with X2-XB injected at 150 and repaired at 420
/// under `reroute`. Epoch 1 drains for hundreds of cycles and resumes past
/// 420, so the watch window must end at once and the repair apply late
/// instead of waiting for a cycle that has already gone by.
#[test]
fn an_event_inside_the_previous_epoch_applies_late() {
    let site = FaultSite::Xbar(XbarRef { dim: 0, line: 2 });
    let timeline = FaultTimeline::new().inject(site, 150).repair(site, 420);
    let workload = Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        packet_flits: 12,
        window: 400,
        broadcast_rate: 0.002,
    };
    let s = Scenario::new(vec![8, 8], "sr2201", workload, 12)
        .with_reconfig(ReconfigSpec::new(timeline).with_policy(RecoveryPolicy::Reroute));
    let row = run_scenario(&s).expect("row runs");
    assert_eq!(row.outcome, "completed", "{}", row.token);
    let report = row.reconfig.as_ref().expect("timeline rows report");
    assert_eq!(
        report.epochs.len(),
        2,
        "the inject and the repair each run an epoch"
    );
    assert!(
        report.epochs[0].resumed_at > 420,
        "the first epoch must end past the repair for this row to test anything: {:?}",
        report.epochs[0]
    );
    assert_eq!(report.epochs[1].event_at, report.epochs[0].resumed_at);
    let replay = run_scenario(&Scenario::from_token(&row.token).unwrap()).expect("row replays");
    assert_eq!(row.digest, replay.digest, "{}", row.token);
}

/// A wait cycle that closes through a hold decided before the reprogram:
/// the `load` row on 8x8 with Y5-XB injected at 150 under `reroute`. Every
/// wait on the cycle was decided after the reprogram, but packet 447 holds
/// X0-XB -> R0 through a visit decided before it, so the cycle spans two
/// epochs and is a transition violation, not a single-epoch deadlock.
#[test]
fn a_cycle_through_an_old_epoch_hold_is_a_violation() {
    let site = FaultSite::Xbar(XbarRef { dim: 1, line: 5 });
    let workload = Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        packet_flits: 12,
        window: 400,
        broadcast_rate: 0.002,
    };
    let s = Scenario::new(vec![8, 8], "sr2201", workload, 12).with_reconfig(
        ReconfigSpec::new(FaultTimeline::new().inject(site, 150))
            .with_policy(RecoveryPolicy::Reroute),
    );
    let row = run_scenario(&s).expect("row runs");
    assert_eq!(row.outcome, "deadlock", "{}", row.token);
    let transition = &row
        .reconfig
        .as_ref()
        .expect("timeline rows report")
        .transition;
    assert_eq!(transition.single_epoch_cycles, 0, "{}", row.token);
    let first = transition.violations.first().expect("the cycle is flagged");
    assert_eq!(first.cycle.epochs, vec![0, 1]);
    assert!(first.cycle.packets.contains(&447), "{first:?}");
}
