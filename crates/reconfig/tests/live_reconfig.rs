//! End-to-end tests of the epoch protocol: mid-run fault activation,
//! drain/reprogram/resume, recovery policies, and transition safety.

use mdx_core::registry::build_scheme;
use mdx_core::{DropReason, Header, RouteChange};
use mdx_fault::{FaultSet, FaultSite, FaultTimeline};
use mdx_reconfig::{run_reconfig, ReconfigSpec, RecoveryPolicy};
use mdx_sim::{InjectSpec, PacketOutcome, SimConfig, SimOutcome, Simulator};
use mdx_topology::{MdCrossbar, Shape, XbarRef};
use mdx_workloads::{mixed_schedule, OpenLoop, TrafficPattern};
use std::sync::Arc;

fn fig2() -> Arc<MdCrossbar> {
    Arc::new(MdCrossbar::build(Shape::fig2()))
}

/// Staggered all-to-somewhere unicast traffic: PE i sends to PE (i+5)%n,
/// injected at cycle 4*i, so several packets are mid-flight at any cycle
/// in the first ~100.
fn rolling_unicasts(net: &MdCrossbar, flits: usize) -> Vec<InjectSpec> {
    let shape = net.shape();
    let n = shape.num_pes();
    (0..n)
        .map(|i| InjectSpec {
            src_pe: i,
            header: Header::unicast(shape.coord_of(i), shape.coord_of((i + 5) % n)),
            flits,
            inject_at: 4 * i as u64,
        })
        .collect()
}

fn cfg() -> SimConfig {
    SimConfig {
        max_cycles: 50_000,
        ..SimConfig::default()
    }
}

#[test]
fn empty_timeline_matches_static_run() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    let spec = ReconfigSpec::default();
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    let scheme = build_scheme("sr2201", net.clone(), &FaultSet::none()).unwrap();
    let mut sim = Simulator::new(net.graph().clone(), scheme, cfg());
    for &s in &specs {
        sim.schedule(s);
    }
    let plain = sim.run();

    assert_eq!(
        serde_json::to_string(&out.result).unwrap(),
        serde_json::to_string(&plain).unwrap(),
        "an event-free reconfig run must be byte-identical to a static run"
    );
    assert!(out.report.epochs.is_empty());
    assert_eq!(out.report.victims_total, 0);
    assert!(out.report.transition_safe());
}

#[test]
fn xbar_fault_under_reinject_recovers_every_victim() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    // A Y-crossbar dies while the staggered traffic is in full flight.
    let spec = ReconfigSpec::new(
        FaultTimeline::new().inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 20),
    );
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    assert_eq!(out.result.outcome, SimOutcome::Completed);
    assert_eq!(out.report.epochs.len(), 1);
    let e = &out.report.epochs[0];
    assert_eq!(e.event_at, 20);
    assert!(
        e.victims > 0,
        "no packet was in flight through the dead xbar"
    );
    assert_eq!(e.disconnected_pairs, 0);
    assert!(e.drain_cycles > 0);
    assert_eq!(e.reprogram_cycles, spec.reprogram_cost);
    // A crossbar fault kills no PE: every victim is replayable and must
    // arrive under the fault-adapted function.
    assert_eq!(out.report.lost, 0, "{}", out.report.render());
    assert_eq!(out.report.recovered, out.report.victims_total);
    assert!(out.report.reinjected_total > 0);
    assert!(out.report.transition_safe());
    // Every packet delivered in the end.
    for p in &out.result.packets {
        assert_eq!(p.outcome, PacketOutcome::Delivered, "packet {:?}", p.id);
    }
}

#[test]
fn drop_policy_loses_exactly_the_victims() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    let spec = ReconfigSpec::new(
        FaultTimeline::new().inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 20),
    )
    .with_policy(RecoveryPolicy::Drop);
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    assert!(out.report.victims_total > 0);
    assert_eq!(out.report.lost, out.report.victims_total);
    assert_eq!(out.report.reinjected_total, 0);
    assert_eq!(out.report.epochs[0].abandoned, out.report.victims_total);
    // Non-victims still complete under the new function.
    let delivered = out
        .result
        .packets
        .iter()
        .filter(|p| p.outcome == PacketOutcome::Delivered)
        .count();
    assert_eq!(delivered, specs.len() - out.report.victims_total);
}

#[test]
fn reroute_policy_recovers_without_loss() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    let spec = ReconfigSpec::new(
        FaultTimeline::new().inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 20),
    )
    .with_policy(RecoveryPolicy::Reroute);
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    assert_eq!(out.result.outcome, SimOutcome::Completed);
    assert!(out.report.victims_total > 0);
    assert_eq!(out.report.lost, 0, "{}", out.report.render());
    assert!(out.report.transition_safe());
}

/// Router 0 fails at cycle 25 while the S-XB (X0-XB) waits to emit
/// broadcast 70 to it. The reprogrammed function serializes on another
/// line, so the paused emission is evacuated at the resume and replayed
/// from its source. Re-deciding it at the S-XB, which has no input
/// channel, dropped it as a protocol violation.
#[test]
fn reroute_replays_a_paused_emission_whose_sxb_moved() {
    let net = fig2();
    let traffic = OpenLoop {
        rate: 0.05,
        packet_flits: 8,
        window: 120,
        seed: 1,
    };
    let specs = mixed_schedule(
        net.shape(),
        TrafficPattern::UniformRandom,
        traffic,
        0.03,
        &FaultSet::none(),
    );
    assert_eq!(specs[70].header.rc, RouteChange::BroadcastRequest);
    let spec = ReconfigSpec::new(FaultTimeline::new().inject(FaultSite::Router(0), 25))
        .with_policy(RecoveryPolicy::Reroute);
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    assert_eq!(out.result.packets[70].outcome, PacketOutcome::Delivered);
    let violation = PacketOutcome::Dropped(DropReason::ProtocolViolation);
    assert!(out.result.packets.iter().all(|p| p.outcome != violation));
}

#[test]
fn router_fault_abandons_unreachable_destinations() {
    let net = fig2();
    let shape = net.shape().clone();
    // Two packets: one crossing router 5's row, one destined *to* PE 5.
    // The router dies while both are pending/in flight.
    let specs = vec![
        InjectSpec {
            src_pe: 0,
            header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
            flits: 12,
            inject_at: 30,
        },
        InjectSpec {
            src_pe: 4,
            header: Header::unicast(shape.coord_of(4), shape.coord_of(7)),
            flits: 12,
            inject_at: 0,
        },
    ];
    let spec = ReconfigSpec::new(FaultTimeline::new().inject(FaultSite::Router(5), 10));
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();

    // The packet to PE5 can never be replayed usefully: its destination
    // died. Whether it was wounded or scheme-dropped, it must not be
    // delivered; and it must not be endlessly reinjected.
    assert!(matches!(
        out.result.packets[0].outcome,
        PacketOutcome::Dropped(_)
    ));
    assert!(out.report.reinjected_total <= spec.max_reinjects as usize * specs.len());
}

#[test]
fn repair_event_restores_service() {
    let net = fig2();
    let shape = net.shape().clone();
    // Router 5 is faulty from the start; it is repaired at cycle 500.
    // A packet to PE5 injected after the repair must be delivered.
    let initial = FaultSet::single(FaultSite::Router(5));
    let specs = vec![InjectSpec {
        src_pe: 0,
        header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
        flits: 12,
        inject_at: 1000,
    }];
    let spec = ReconfigSpec::new(FaultTimeline::new().repair(FaultSite::Router(5), 500));
    let out = run_reconfig(net.clone(), "sr2201", &initial, &specs, cfg(), &spec).unwrap();

    assert_eq!(out.result.outcome, SimOutcome::Completed);
    assert_eq!(out.result.packets[0].outcome, PacketOutcome::Delivered);
    assert_eq!(out.report.epochs.len(), 1);
    assert_eq!(out.report.victims_total, 0);
}

#[test]
fn inject_then_repair_roundtrip_timeline() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    let site = FaultSite::Xbar(XbarRef { dim: 1, line: 2 });
    let spec = ReconfigSpec::new(FaultTimeline::new().inject(site, 20).repair(site, 1200));
    let out = run_reconfig(
        net.clone(),
        "sr2201",
        &FaultSet::none(),
        &specs,
        cfg(),
        &spec,
    )
    .unwrap();
    assert_eq!(out.report.epochs.len(), 2);
    assert!(out.report.transition_safe());
    assert_eq!(out.report.lost, 0, "{}", out.report.render());
}

#[test]
fn reconfig_runs_are_deterministic() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    let spec = ReconfigSpec::new(
        FaultTimeline::new().inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 20),
    );
    let run = || {
        run_reconfig(
            net.clone(),
            "sr2201",
            &FaultSet::none(),
            &specs,
            cfg(),
            &spec,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        serde_json::to_string(&a.result).unwrap(),
        serde_json::to_string(&b.result).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap()
    );
}

#[test]
fn conflicting_xbar_faults_report_unconfigurable() {
    let net = fig2();
    let specs = rolling_unicasts(&net, 12);
    // sr2201 cannot be configured with crossbar faults in two dimensions.
    let spec = ReconfigSpec::new(
        FaultTimeline::new().inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 20),
    );
    let initial = FaultSet::single(FaultSite::Xbar(XbarRef { dim: 0, line: 0 }));
    let err = run_reconfig(net.clone(), "sr2201", &initial, &specs, cfg(), &spec)
        .expect_err("two-dimension crossbar faults must be unconfigurable");
    match err {
        mdx_reconfig::ReconfigError::Unconfigurable { at, .. } => assert!(at >= 20),
        other => panic!("unexpected error {other}"),
    }
}
