//! Cycle-level reproductions of the paper's deadlock scenarios (Figs. 5, 6,
//! 9, 10) plus engine sanity checks.

use mdx_core::{Header, NaiveBroadcast, RouteChange, RoutingConfig, Sr2201Routing};
use mdx_fault::{FaultSet, FaultSite};
use mdx_sim::{InjectSpec, PacketOutcome, SimConfig, SimOutcome, Simulator};
use mdx_topology::{Coord, MdCrossbar, Shape};
use std::sync::Arc;

fn fig2_net() -> Arc<MdCrossbar> {
    Arc::new(MdCrossbar::build(Shape::fig2()))
}

fn unicast(net: &MdCrossbar, src: usize, dst: usize, flits: usize, at: u64) -> InjectSpec {
    let shape = net.shape();
    InjectSpec {
        src_pe: src,
        header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
        flits,
        inject_at: at,
    }
}

fn bc_request(net: &MdCrossbar, src: usize, flits: usize, at: u64) -> InjectSpec {
    InjectSpec {
        src_pe: src,
        header: Header::broadcast_request(net.shape().coord_of(src)),
        flits,
        inject_at: at,
    }
}

fn naive_bc(net: &MdCrossbar, src: usize, flits: usize, at: u64) -> InjectSpec {
    let c = net.shape().coord_of(src);
    InjectSpec {
        src_pe: src,
        header: Header {
            rc: RouteChange::Broadcast,
            dest: c,
            src: c,
        },
        flits,
        inject_at: at,
    }
}

#[test]
fn single_unicast_delivers_with_pipeline_latency() {
    let net = fig2_net();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    sim.schedule(unicast(&net, 0, 11, 5, 0));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.packets[0].outcome, PacketOutcome::Delivered);
    assert_eq!(
        r.packets[0].deliveries,
        vec![(11, r.packets[0].finished_at.unwrap())]
    );
    // 6 channels, 5 flits, per-hop decision delay: strictly more than the
    // flit count, well under a store-and-forward bound.
    let lat = r.packets[0].latency().unwrap();
    assert!((10..60).contains(&lat), "latency {lat}");
}

#[test]
fn longer_packets_take_longer() {
    let net = fig2_net();
    let mut last = 0;
    for flits in [1usize, 4, 16] {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        sim.schedule(unicast(&net, 0, 11, flits, 0));
        let r = sim.run();
        let lat = r.packets[0].latency().unwrap();
        assert!(lat > last, "flits {flits}: {lat} !> {last}");
        last = lat;
    }
}

#[test]
fn contending_packets_serialize_on_shared_port() {
    // Two packets crossing the same row crossbar exit port.
    let net = fig2_net();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    sim.schedule(unicast(&net, 0, 3, 8, 0));
    sim.schedule(unicast(&net, 1, 3, 8, 0));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    let l0 = r.packets[0].latency().unwrap();
    let l1 = r.packets[1].latency().unwrap();
    // One of them must have waited roughly a packet's worth of cycles.
    assert!((l0 as i64 - l1 as i64).unsigned_abs() >= 4, "{l0} vs {l1}");
}

#[test]
fn deterministic_across_runs() {
    let net = fig2_net();
    let mk = || {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        for i in 0..8 {
            sim.schedule(unicast(&net, i, 11 - i, 4, (i % 3) as u64));
        }
        sim.schedule(bc_request(&net, 5, 4, 1));
        sim.run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.stats, b.stats);
    for (pa, pb) in a.packets.iter().zip(&b.packets) {
        assert_eq!(pa, pb);
    }
}

#[test]
fn self_send_delivers_locally() {
    let net = fig2_net();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    sim.schedule(unicast(&net, 4, 4, 3, 0));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.packets[0].deliveries.len(), 1);
    assert_eq!(r.packets[0].deliveries[0].0, 4);
}

/// Fig. 6: concurrent broadcasts under the S-XB scheme all complete,
/// delivered to every PE, strictly serialized.
#[test]
fn fig6_concurrent_sxb_broadcasts_complete() {
    let net = fig2_net();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    for src in [3usize, 4, 8, 11] {
        sim.schedule(bc_request(&net, src, 4, 0));
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed, "{:?}", r.outcome);
    for p in &r.packets {
        assert_eq!(p.outcome, PacketOutcome::Delivered);
        assert_eq!(p.deliveries.len(), 12, "broadcast must reach all 12 PEs");
    }
}

/// Fig. 5: simultaneous naive broadcasts deadlock, each holding some
/// Y-dimension crossbar ports while waiting for the rest.
///
/// Two ingredients matter: (a) per-port arbitration splits the contested
/// Y-XB ports between the packets, and (b) the packets are longer than the
/// buffer slack on the blocked paths, so backpressure reaches the fan-out
/// point, the winning columns can never finish streaming, and the held
/// ports are never released — cut-through channel holding, exactly the
/// paper's argument.
#[test]
fn fig5_naive_broadcasts_deadlock() {
    let net = fig2_net();
    let mut deadlocks = 0;
    for seed in 0..16u64 {
        let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig {
                arb_seed: seed,
                ..SimConfig::default()
            },
        );
        sim.schedule(naive_bc(&net, 0, 16, 0)); // row 0
        sim.schedule(naive_bc(&net, 4, 16, 0)); // row 1
        let r = sim.run();
        match &r.outcome {
            SimOutcome::Deadlock(info) => {
                deadlocks += 1;
                assert!(!info.cycle.is_empty());
                // The cyclic wait is over Y-dimension crossbar ports, as in
                // the paper's figure.
                assert!(info.cycle.iter().any(|e| e.channel.contains("Y")), "{info}");
            }
            SimOutcome::Completed => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(deadlocks >= 8, "only {deadlocks}/16 seeds deadlocked");
}

/// A single naive broadcast is fine — the pathology needs concurrency.
#[test]
fn single_naive_broadcast_completes() {
    let net = fig2_net();
    let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    sim.schedule(naive_bc(&net, 5, 4, 0));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.packets[0].deliveries.len(), 12);
}

/// Fig. 9 vs Fig. 10: broadcast and a detoured point-to-point packet under
/// a single router fault.
///
/// The paper's Fig. 9 scenario: the detoured unicast holds a Y-crossbar
/// port on its way to the D-XB while the broadcast emission holds the
/// destination's PE port; the emission waits for the unicast's Y port, the
/// unicast waits for the emission's PE port — cyclic wait. The cycle only
/// forms in a timing window (the packets must overlap just so), so the test
/// sweeps the unicast's injection offset. With the paper's D-XB = S-XB
/// configuration (Fig. 10) the identical sweep never deadlocks, because the
/// detour serializes behind the broadcast at the S-XB instead of meeting it
/// downstream.
#[test]
fn fig9_vs_fig10_injection_sweep() {
    let net = fig2_net();
    let shape = net.shape().clone();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let faults = FaultSet::single(FaultSite::Router(faulty));

    let run = |separate_dxb: bool, offset: u64, seed: u64| {
        let mut cfg = RoutingConfig::for_faults(&shape, &faults).unwrap();
        if separate_dxb {
            cfg = cfg.with_separate_dxb(&faults).unwrap();
        }
        let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig {
                arb_seed: seed,
                ..SimConfig::default()
            },
        );
        // Broadcast from PE9 = (1, 2); unicast (0,0) -> (1,1) must detour
        // around the faulty router (1,0).
        sim.schedule(bc_request(&net, 9, 24, 0));
        sim.schedule(unicast(&net, 0, 5, 24, offset));
        sim.run().outcome
    };

    let mut fig9_deadlocks = 0;
    for offset in 10..38u64 {
        for seed in 0..4u64 {
            match run(true, offset, seed) {
                SimOutcome::Deadlock(info) => {
                    fig9_deadlocks += 1;
                    // The cycle involves exactly the two packets.
                    assert!(!info.cycle.is_empty());
                }
                SimOutcome::Completed => {}
                other => panic!("offset {offset} seed {seed}: {other:?}"),
            }
            // Fig. 10: the paper's scheme never deadlocks on the same sweep.
            assert_eq!(
                run(false, offset, seed),
                SimOutcome::Completed,
                "paper scheme deadlocked at offset {offset} seed {seed}"
            );
        }
    }
    assert!(
        fig9_deadlocks >= 10,
        "only {fig9_deadlocks} deadlocks across the fig9 sweep"
    );
}

/// Dense composite workload (many broadcasts + many detouring unicasts)
/// under the paper's scheme: always completes, everything delivered.
#[test]
fn fig10_composite_workload_completes() {
    let net = fig2_net();
    let shape = net.shape().clone();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let faults = FaultSet::single(FaultSite::Router(faulty));
    let cfg = RoutingConfig::for_faults(&shape, &faults).unwrap();
    assert!(cfg.deadlock_free());
    let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    let mut t = 0;
    for round in 0..6u64 {
        for src in [8usize, 9, 10, 11, 5] {
            sim.schedule(bc_request(&net, src, 24, t + round));
        }
        for (s, d) in [(0usize, 5usize), (2, 9), (3, 5), (0, 9)] {
            sim.schedule(unicast(&net, s, d, 24, t + round * 2));
        }
        t += 5;
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed, "{:?}", r.outcome);
    for p in &r.packets {
        assert_eq!(p.outcome, PacketOutcome::Delivered);
    }
}

/// Fig. 10 stress: the paper's scheme never deadlocks across seeds, faults
/// and mixed workloads.
#[test]
fn fig10_stress_never_deadlocks() {
    let net = fig2_net();
    let shape = net.shape().clone();
    for fault_pe in [1usize, 5, 10] {
        let faults = FaultSet::single(FaultSite::Router(fault_pe));
        for seed in 0..4u64 {
            let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
            let mut sim = Simulator::new(
                net.graph().clone(),
                scheme,
                SimConfig {
                    arb_seed: seed,
                    ..SimConfig::default()
                },
            );
            let mut k = 0u64;
            for src in 0..12usize {
                if !faults.pe_usable(src) {
                    continue;
                }
                sim.schedule(bc_request(&net, src, 5, k % 7));
                for dst in 0..12usize {
                    if dst != src
                        && faults.pe_usable(dst)
                        && (src + 2 * dst + seed as usize).is_multiple_of(5)
                    {
                        sim.schedule(unicast(&net, src, dst, 5, k % 11));
                    }
                }
                k += 3;
            }
            let r = sim.run();
            assert_eq!(
                r.outcome,
                SimOutcome::Completed,
                "fault R{fault_pe}, seed {seed}: {:?}",
                r.outcome
            );
            let _ = shape.d();
        }
    }
}

/// Detoured packets still arrive under cycle-level contention.
#[test]
fn detour_delivery_under_contention() {
    let net = fig2_net();
    let shape = net.shape().clone();
    let faulty = shape.index_of(Coord::new(&[2, 1]));
    let faults = FaultSet::single(FaultSite::Router(faulty));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    let mut expected = Vec::new();
    for src in 0..12usize {
        for dst in 0..12usize {
            if src != dst && faults.pe_usable(src) && faults.pe_usable(dst) {
                sim.schedule(unicast(&net, src, dst, 3, (src * 12 + dst) as u64 % 17));
                expected.push((src, dst));
            }
        }
    }
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    for (i, p) in r.packets.iter().enumerate() {
        assert_eq!(
            p.outcome,
            PacketOutcome::Delivered,
            "packet {i} {:?}",
            expected[i]
        );
        assert_eq!(p.deliveries[0].0, expected[i].1);
    }
}

/// Unicast to a dead PE is dropped, not wedged.
#[test]
fn drop_terminates_cleanly() {
    let net = fig2_net();
    let faults = FaultSet::single(FaultSite::Pe(7));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    sim.schedule(unicast(&net, 0, 7, 4, 0));
    sim.schedule(unicast(&net, 0, 6, 4, 1));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert!(matches!(r.packets[0].outcome, PacketOutcome::Dropped(_)));
    assert_eq!(r.packets[1].outcome, PacketOutcome::Delivered);
}

/// Buffer-depth ablation: with buffers at least a packet long (virtual
/// cut-through), a blocked broadcast is fully absorbed, its tail crosses,
/// ports release, and the Fig. 5 deadlock is *masked* — but it returns the
/// moment packets outgrow the buffers. Deep buffers change when the
/// pathology bites; only the S-XB serialization removes it.
#[test]
fn vct_masks_fig5_deadlock_until_packets_outgrow_buffers() {
    let net = fig2_net();
    let run = |flits: usize, buffer: usize, seed: u64| {
        let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig {
                buffer_flits: buffer,
                arb_seed: seed,
                ..SimConfig::default()
            },
        );
        sim.schedule(naive_bc(&net, 0, flits, 0));
        sim.schedule(naive_bc(&net, 4, flits, 0));
        sim.run().outcome
    };
    // Short packets, deep buffers: always absorbed, never deadlocks.
    for seed in 0..8 {
        assert_eq!(run(16, 64, seed), SimOutcome::Completed, "seed {seed}");
    }
    // Long packets, same buffers: the cycle comes back for most seeds.
    let deadlocks = (0..8).filter(|&s| run(256, 64, s).is_deadlock()).count();
    assert!(deadlocks >= 4, "only {deadlocks}/8 seeds deadlocked");
}

/// Broadcasts and heavy unicast background traffic on the full-size SR2201
/// shape complete deadlock-free (scaled-down cycle budget).
#[test]
fn three_dim_network_mixed_traffic() {
    let net = Arc::new(MdCrossbar::build(Shape::new(&[4, 4, 2]).unwrap()));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    let n = net.shape().num_pes();
    for src in 0..n {
        sim.schedule(unicast(&net, src, (src * 7 + 3) % n, 4, (src % 5) as u64));
    }
    sim.schedule(bc_request(&net, 0, 4, 2));
    sim.schedule(bc_request(&net, 17, 4, 2));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    let bc = &r.packets[n];
    assert_eq!(bc.deliveries.len(), n);
}

/// Store-and-forward interoperates with the full scheme: broadcasts and
/// detours still complete (slower), and the Fig. 5 deadlock still occurs —
/// switching technique changes latency, not the port-holding hazard.
#[test]
fn store_and_forward_full_scheme() {
    let net = fig2_net();
    let shape = net.shape().clone();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let faults = FaultSet::single(FaultSite::Router(faulty));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let cfg = SimConfig {
        store_and_forward: true,
        buffer_flits: 64,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(net.graph().clone(), scheme, cfg);
    sim.schedule(bc_request(&net, 9, 8, 0));
    sim.schedule(unicast(&net, 0, 5, 8, 1)); // detours around (1,0)
    sim.schedule(unicast(&net, 3, 8, 8, 2));
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    for p in &r.packets {
        assert_eq!(p.outcome, PacketOutcome::Delivered);
    }
    assert_eq!(r.packets[0].deliveries.len(), 11); // all but the dead PE
}

/// Virtual channels carry independent traffic without interference bugs:
/// packets restricted to lane 1 deliver exactly like lane 0 packets.
#[test]
fn vc_lanes_operate_independently() {
    use mdx_core::{Action, Branch, Scheme};
    use mdx_topology::Node;

    /// Wraps the SR2201 scheme, moving all traffic to a fixed lane.
    struct OnLane(Sr2201Routing, u8);
    impl Scheme for OnLane {
        fn name(&self) -> String {
            format!("lane {}", self.1)
        }
        fn max_vcs(&self) -> u8 {
            2
        }
        fn decide(&self, at: Node, came: Option<Node>, h: &Header) -> Action {
            match self.0.decide(at, came, h) {
                Action::Forward(b) => Action::Forward(
                    b.into_iter()
                        .map(|br| Branch::on_vc(br.to, br.header, self.1))
                        .collect(),
                ),
                other => other,
            }
        }
    }

    let net = fig2_net();
    for lane in [0u8, 1] {
        let inner = Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap();
        let scheme = Arc::new(OnLane(inner, lane));
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        for src in 0..12usize {
            sim.schedule(unicast(&net, src, (src + 5) % 12, 6, (src % 3) as u64));
        }
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed, "lane {lane}");
        assert_eq!(r.stats.delivered, 12);
    }
}

/// Two flows pinned to different lanes of the same congested physical link
/// share its bandwidth: each gets roughly half.
#[test]
fn vc_lanes_share_physical_bandwidth() {
    use mdx_core::{Action, Branch, Scheme};
    use mdx_topology::Node;

    struct LaneByPacket(Sr2201Routing);
    impl Scheme for LaneByPacket {
        fn name(&self) -> String {
            "lane-by-src".into()
        }
        fn max_vcs(&self) -> u8 {
            2
        }
        fn decide(&self, at: Node, came: Option<Node>, h: &Header) -> Action {
            // Lane = parity of the source row: the two flows below differ.
            let lane = (h.src.get(1) % 2) as u8;
            match self.0.decide(at, came, h) {
                Action::Forward(b) => Action::Forward(
                    b.into_iter()
                        .map(|br| Branch::on_vc(br.to, br.header, lane))
                        .collect(),
                ),
                other => other,
            }
        }
    }

    let net = fig2_net();
    let inner = Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap();
    let scheme = Arc::new(LaneByPacket(inner));
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    // Both flows end at PE (3,2): they share the Y3-XB -> R11 link on
    // different lanes. Long packets so the sharing window is wide.
    sim.schedule(unicast(&net, 3, 11, 40, 0)); // src row 0 -> lane 0
    sim.schedule(unicast(&net, 7, 11, 40, 0)); // src row 1 -> lane 1
    let r = sim.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    let l0 = r.packets[0].latency().unwrap();
    let l1 = r.packets[1].latency().unwrap();
    // With bandwidth sharing both take roughly 2x a solo run (~50+), and
    // neither is starved; without sharing one would finish in ~50 and the
    // other in ~100.
    assert!(l0 > 70 && l1 > 70, "sharing missing: {l0} {l1}");
    assert!((l0 as i64 - l1 as i64).abs() < 20, "starved: {l0} {l1}");
}

/// Exhaustive cycle-level counterpart of the static all-pairs sweep: under
/// EVERY single fault, all usable pairs delivered simultaneously with
/// contention, plus one broadcast — no deadlock anywhere.
#[test]
fn every_single_fault_all_pairs_cycle_level() {
    use mdx_fault::enumerate_single_faults;
    let net = fig2_net();
    let shape = net.shape().clone();
    let n = shape.num_pes();
    for site in enumerate_single_faults(&net) {
        let faults = FaultSet::single(site);
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        let mut expected_unicasts = 0;
        for src in 0..n {
            for dst in 0..n {
                if src != dst && faults.pe_usable(src) && faults.pe_usable(dst) {
                    sim.schedule(unicast(&net, src, dst, 4, ((src * n + dst) % 23) as u64));
                    expected_unicasts += 1;
                }
            }
        }
        let bc_src = (0..n).find(|&p| faults.pe_usable(p)).unwrap();
        sim.schedule(bc_request(&net, bc_src, 4, 5));
        let r = sim.run();
        assert_eq!(r.outcome, SimOutcome::Completed, "{site}");
        assert_eq!(r.stats.delivered, expected_unicasts + 1, "{site}");
        let bc = r.packets.last().unwrap();
        assert_eq!(
            bc.deliveries.len(),
            (0..n).filter(|&p| faults.pe_usable(p)).count(),
            "{site}"
        );
    }
}
