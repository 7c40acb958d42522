//! Cross-crate integration tests asserting the paper's headline results
//! end-to-end: topology claims, broadcast serialization, fault-tolerant
//! delivery, and the deadlock dichotomy of Figs. 9/10.

use sr2201::deadlock::verify_scheme;
use sr2201::deadlock::waitgraph::TrafficFamily;
use sr2201::prelude::*;
use sr2201::routing::{trace_broadcast, trace_unicast};
use sr2201::topology::metrics;
use std::sync::Arc;

#[test]
fn headline_port_count_claim() {
    // Sec. 3.1: d+1 router ports vs log2(n)+1 for a hypercube at 2048 PEs.
    assert_eq!(metrics::md_crossbar_router_ports(&Shape::sr2201_full()), 4);
    assert_eq!(metrics::hypercube_router_ports(2048), 12);
}

#[test]
fn headline_two_hop_diameter() {
    // "Any two PEs on a d-dimensional crossbar network can communicate with
    // a maximum of d hops on d crossbars."
    let net = Arc::new(MdCrossbar::build(Shape::new(&[8, 8]).unwrap()));
    let scheme = Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap();
    let shape = net.shape();
    for (src, dst) in [(0usize, 63usize), (7, 56), (12, 51)] {
        let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
        let t = trace_unicast(&scheme, net.graph(), h, src).unwrap();
        assert!(t.xbar_hops() <= 2);
    }
}

#[test]
fn headline_broadcast_serializes_and_covers() {
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    for src in [0usize, 5, 10] {
        sim.schedule(InjectSpec {
            src_pe: src,
            header: Header::broadcast_request(shape.coord_of(src)),
            flits: 16,
            inject_at: 0,
        });
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    // Strict serialization: completion times are strictly ordered and
    // separated by at least the packet length.
    let mut finishes: Vec<u64> = r.packets.iter().map(|p| p.finished_at.unwrap()).collect();
    finishes.sort_unstable();
    for w in finishes.windows(2) {
        assert!(w[1] >= w[0] + 16, "{finishes:?}");
    }
    for p in &r.packets {
        assert_eq!(p.deliveries.len(), 12);
    }
}

#[test]
fn headline_single_fault_full_delivery_8x8() {
    // Sampled single faults on 8x8: every usable pair delivered, broadcasts
    // cover all survivors (the fig8 experiment does the exhaustive sweep).
    let net = Arc::new(MdCrossbar::build(Shape::new(&[8, 8]).unwrap()));
    let shape = net.shape().clone();
    let n = shape.num_pes();
    let sites = [
        FaultSite::Router(27),
        FaultSite::Xbar(XbarRef { dim: 0, line: 3 }),
        FaultSite::Xbar(XbarRef { dim: 1, line: 6 }),
        FaultSite::Pe(0),
    ];
    for site in sites {
        let faults = FaultSet::single(site);
        let s = Sr2201Routing::new(net.clone(), &faults).unwrap();
        for src in (0..n).step_by(5) {
            if !faults.pe_usable(src) {
                continue;
            }
            let bt = trace_broadcast(&s, net.graph(), src, shape.coord_of(src)).unwrap();
            assert_eq!(
                bt.delivered.len(),
                (0..n).filter(|&p| faults.pe_usable(p)).count(),
                "{site}"
            );
            for dst in 0..n {
                if src == dst || !faults.pe_usable(dst) {
                    continue;
                }
                let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                let t = trace_unicast(&s, net.graph(), h, src)
                    .unwrap_or_else(|e| panic!("{site}: {src}->{dst}: {e}"));
                assert_eq!(t.steps.last().unwrap().node, Node::Pe(dst));
            }
        }
    }
}

#[test]
fn headline_fig9_fig10_dichotomy() {
    // The paper's central claim, checked both statically and dynamically.
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();
    let faults = FaultSet::single(FaultSite::Router(shape.index_of(Coord::new(&[1, 0]))));

    // Static: D-XB = S-XB acyclic; D-XB != S-XB cyclic.
    let good = Sr2201Routing::new(net.clone(), &faults).unwrap();
    assert!(good.config().deadlock_free());
    let verdict = verify_scheme(&net, &good, &faults, TrafficFamily::all());
    assert!(verdict.report.deadlock_free());

    let bad_cfg = RoutingConfig::for_faults(&shape, &faults)
        .unwrap()
        .with_separate_dxb(&faults)
        .unwrap();
    let bad = Sr2201Routing::with_config(net.clone(), bad_cfg.clone(), &faults);
    let verdict = verify_scheme(&net, &bad, &faults, TrafficFamily::all());
    assert!(!verdict.report.deadlock_free());

    // Dynamic: sweep injection offsets; the bad variant deadlocks somewhere,
    // the good one never does.
    let mut bad_deadlocked = false;
    for offset in 10..38u64 {
        for (separate, cfg) in [
            (true, bad_cfg.clone()),
            (false, RoutingConfig::for_faults(&shape, &faults).unwrap()),
        ] {
            let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
            let mut sim = Simulator::new(
                net.graph().clone(),
                scheme,
                SimConfig {
                    arb_seed: 1,
                    ..SimConfig::default()
                },
            );
            sim.schedule(InjectSpec {
                src_pe: 9,
                header: Header::broadcast_request(shape.coord_of(9)),
                flits: 24,
                inject_at: 0,
            });
            sim.schedule(InjectSpec {
                src_pe: 0,
                header: Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1])),
                flits: 24,
                inject_at: offset,
            });
            match sim.run().outcome {
                SimOutcome::Deadlock(_) => {
                    assert!(separate, "paper scheme deadlocked at offset {offset}");
                    bad_deadlocked = true;
                }
                SimOutcome::Completed => {}
                other => panic!("{other:?}"),
            }
        }
    }
    assert!(bad_deadlocked, "fig9 variant never deadlocked");
}

#[test]
fn headline_uniform_latency_beats_mesh() {
    // Sec. 3.1's performance claim at a moderate load.
    use sr2201::baselines::DirectDor;
    use sr2201::topology::mesh::{DirectNetwork, Wrap};
    use sr2201::workloads::{unicast_schedule, OpenLoop, TrafficPattern};
    let shape = Shape::new(&[8, 8]).unwrap();
    let specs = unicast_schedule(
        &shape,
        TrafficPattern::UniformRandom,
        OpenLoop {
            rate: 0.03,
            packet_flits: 8,
            window: 200,
            seed: 7,
        },
        &FaultSet::none(),
    );
    let run = |graph: &sr2201::topology::NetworkGraph, scheme: Arc<dyn sr2201::routing::Scheme>| {
        let mut sim = Simulator::new(graph.clone(), scheme, SimConfig::default());
        for &s in &specs {
            sim.schedule(s);
        }
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed);
        r.stats.mean_latency()
    };
    let mdx = Arc::new(MdCrossbar::build(shape.clone()));
    let mdx_lat = run(
        mdx.graph(),
        Arc::new(Sr2201Routing::new(mdx.clone(), &FaultSet::none()).unwrap()),
    );
    let mesh = Arc::new(DirectNetwork::build(shape, Wrap::Mesh));
    let mesh_lat = run(mesh.graph(), Arc::new(DirectDor::new(mesh.clone())));
    assert!(
        mdx_lat < mesh_lat,
        "md-crossbar {mdx_lat} !< mesh {mesh_lat}"
    );
}

#[test]
fn headline_full_scale_machine() {
    // Sec. 2: 2048 PEs with broadcast, unicast and a fault, deadlock-free.
    let net = Arc::new(MdCrossbar::build(Shape::sr2201_full()));
    let shape = net.shape().clone();
    let faults = FaultSet::single(FaultSite::Router(1000));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    for src in (0..2048usize).step_by(17) {
        let dst = (src * 31 + 5) % 2048;
        if src != dst && faults.pe_usable(src) && faults.pe_usable(dst) {
            sim.schedule(InjectSpec {
                src_pe: src,
                header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
                flits: 8,
                inject_at: (src % 7) as u64,
            });
        }
    }
    sim.schedule(InjectSpec {
        src_pe: 3,
        header: Header::broadcast_request(shape.coord_of(3)),
        flits: 8,
        inject_at: 2,
    });
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    let bc = r.packets.last().unwrap();
    assert_eq!(bc.deliveries.len(), 2047); // everyone but the dead PE
}

#[test]
fn extension_o1turn_relieves_transpose_under_contention() {
    // The O1TURN extension (two orders, one lane each) must beat plain
    // dimension order on a transpose burst and still deliver everything.
    use sr2201::routing::O1TurnRouting;
    use sr2201::workloads::{permutation_schedule, TrafficPattern};
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    // Four back-to-back transpose waves.
    let mut specs = Vec::new();
    for wave in 0..4u64 {
        specs.extend(permutation_schedule(
            &shape,
            TrafficPattern::Transpose,
            8,
            wave * 4,
            1,
            &FaultSet::none(),
        ));
    }
    let run = |scheme: Arc<dyn sr2201::routing::Scheme>| {
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        for &s in &specs {
            sim.schedule(s);
        }
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed);
        assert_eq!(r.stats.delivered, specs.len());
        r.stats.mean_latency()
    };
    let dor = run(Arc::new(
        Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap(),
    ));
    let o1 = run(Arc::new(O1TurnRouting::new(net.clone(), 7)));
    assert!(o1 < dor, "o1turn {o1} !< dimension-order {dor}");
}

#[test]
fn extension_vc_torus_baseline_is_deadlock_free_on_tornado() {
    // Tornado traffic maximizes wrap usage; the dateline discipline keeps
    // the torus baseline live where plain DOR wedges.
    use sr2201::baselines::DirectDor;
    use sr2201::topology::mesh::{DirectNetwork, Wrap};
    use sr2201::workloads::{permutation_schedule, TrafficPattern};
    let shape = Shape::new(&[8, 8]).unwrap();
    let torus = Arc::new(DirectNetwork::build(shape.clone(), Wrap::Torus));
    let mut specs = Vec::new();
    for wave in 0..3u64 {
        specs.extend(permutation_schedule(
            &shape,
            TrafficPattern::Tornado,
            12,
            wave * 2,
            1,
            &FaultSet::none(),
        ));
    }
    let s = Arc::new(DirectDor::with_dateline_vcs(torus.clone()));
    let mut sim = Simulator::new(torus.graph().clone(), s, SimConfig::default());
    for &sp in &specs {
        sim.schedule(sp);
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.stats.delivered, specs.len());
}

#[test]
fn static_traces_match_simulated_routes() {
    // Two independent machineries compute routes: the contention-free
    // walker (used by the analyses) and the cycle-level engine (with
    // record_routes). For uncontended packets they must agree switch for
    // switch, under faults included.
    let net = Arc::new(MdCrossbar::build(Shape::new(&[5, 4]).unwrap()));
    let shape = net.shape().clone();
    let n = shape.num_pes();
    for faults in [
        FaultSet::none(),
        FaultSet::single(FaultSite::Router(7)),
        FaultSet::single(FaultSite::Xbar(XbarRef { dim: 1, line: 2 })),
    ] {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
        for src in 0..n {
            for dst in 0..n {
                if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                    continue;
                }
                let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                let expected: Vec<String> = trace_unicast(&*scheme, net.graph(), h, src)
                    .unwrap()
                    .nodes()
                    .map(|nd| nd.to_string())
                    .collect();
                let mut sim = Simulator::new(
                    net.graph().clone(),
                    scheme.clone(),
                    SimConfig {
                        record_routes: true,
                        ..SimConfig::default()
                    },
                );
                sim.schedule(InjectSpec {
                    src_pe: src,
                    header: h,
                    flits: 3,
                    inject_at: 0,
                });
                let r = sim.run();
                assert_eq!(r.outcome, SimOutcome::Completed);
                let simulated: Vec<String> = r
                    .route_of(PacketId(0))
                    .into_iter()
                    .map(|(nd, _)| nd)
                    .collect();
                assert_eq!(simulated, expected, "{src}->{dst} under {faults:?}");
            }
        }
    }
}

#[test]
fn flit_hops_equal_sum_of_path_lengths() {
    // Conservation: with uncontended unicasts, total flit-hops equals
    // sum over packets of (channels on path) x flits.
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme.clone(), SimConfig::default());
    let mut expected = 0u64;
    let flits = 4u64;
    for (i, (src, dst)) in [(0usize, 11usize), (5, 2), (7, 7), (3, 8)]
        .iter()
        .enumerate()
    {
        let h = Header::unicast(shape.coord_of(*src), shape.coord_of(*dst));
        let t = trace_unicast(&*scheme, net.graph(), h, *src).unwrap();
        expected += (t.steps.len() as u64 - 1) * flits;
        sim.schedule(InjectSpec {
            src_pe: *src,
            header: h,
            flits: flits as usize,
            inject_at: (i * 40) as u64, // spaced out: zero contention
        });
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.stats.flit_hops, expected);
}
