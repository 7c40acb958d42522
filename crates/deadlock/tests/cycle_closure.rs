//! Property: every wait-for-graph cycle the simulator reports is a real
//! cycle — non-empty, and *closed*: each edge's holding packet is the next
//! edge's waiting packet (wrapping around).
//!
//! The generators are the paper's two deadlock recipes: simultaneous naive
//! broadcasts (Fig. 5) and the broadcast + detoured unicast race on the
//! D-XB != S-XB variant (Fig. 9), randomized over sources, seeds, offsets,
//! and packet lengths.

use mdx_core::{Header, NaiveBroadcast, RouteChange, RoutingConfig, Sr2201Routing};
use mdx_fault::{FaultSet, FaultSite};
use mdx_sim::{DeadlockInfo, InjectSpec, SimConfig, SimOutcome, Simulator};
use mdx_topology::{Coord, MdCrossbar, Shape};
use proptest::prelude::*;
use std::sync::Arc;

/// The closure property itself.
fn assert_cycle_closed(info: &DeadlockInfo) -> Result<(), TestCaseError> {
    prop_assert!(!info.cycle.is_empty(), "reported cycle is empty");
    for (i, edge) in info.cycle.iter().enumerate() {
        let next = &info.cycle[(i + 1) % info.cycle.len()];
        prop_assert!(
            edge.holder == next.waiter,
            "cycle not closed at edge {}: {} holds {} but next waiter is {}",
            i,
            edge.holder,
            edge.channel,
            next.waiter
        );
    }
    Ok(())
}

fn naive_bc(shape: &Shape, src: usize, flits: usize) -> InjectSpec {
    let c = shape.coord_of(src);
    InjectSpec {
        src_pe: src,
        header: Header {
            rc: RouteChange::Broadcast,
            dest: c,
            src: c,
        },
        flits,
        inject_at: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fig. 5: simultaneous unserialized broadcasts. Whenever the run
    /// deadlocks, the reported cycle is closed.
    #[test]
    fn naive_broadcast_cycles_are_closed(
        picks in proptest::collection::vec(any::<u64>(), 2..=6),
        flits in 4usize..24,
        seed in any::<u64>(),
    ) {
        let net = Arc::new(MdCrossbar::build(Shape::fig2()));
        let shape = net.shape().clone();
        let n = shape.num_pes();
        let mut sources: Vec<usize> = picks.iter().map(|&p| (p as usize) % n).collect();
        sources.sort_unstable();
        sources.dedup();
        prop_assume!(sources.len() >= 2);

        let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig { arb_seed: seed, ..SimConfig::default() },
        );
        for &src in &sources {
            sim.schedule(naive_bc(&shape, src, flits));
        }
        if let SimOutcome::Deadlock(info) = sim.run().outcome {
            assert_cycle_closed(&info)?;
        }
    }

    /// Fig. 9: broadcast + detoured unicast on the D-XB != S-XB variant
    /// with a faulty router at (1,0). Whenever the run deadlocks, the
    /// reported cycle is closed.
    #[test]
    fn separate_dxb_cycles_are_closed(
        offset in 0u64..48,
        flits in 8usize..32,
        seed in any::<u64>(),
    ) {
        let net = Arc::new(MdCrossbar::build(Shape::fig2()));
        let shape = net.shape().clone();
        let faults = FaultSet::single(FaultSite::Router(
            shape.index_of(Coord::new(&[1, 0])),
        ));
        let cfg = RoutingConfig::for_faults(&shape, &faults)
            .unwrap()
            .with_separate_dxb(&faults).unwrap();
        let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));

        let mut sim = Simulator::new(
            net.graph().clone(),
            scheme,
            SimConfig { arb_seed: seed, ..SimConfig::default() },
        );
        sim.schedule(InjectSpec {
            src_pe: 9,
            header: Header::broadcast_request(shape.coord_of(9)),
            flits,
            inject_at: 0,
        });
        sim.schedule(InjectSpec {
            src_pe: 0,
            header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
            flits,
            inject_at: offset,
        });
        if let SimOutcome::Deadlock(info) = sim.run().outcome {
            assert_cycle_closed(&info)?;
        }
    }
}

/// The property holds vacuously if a generator never deadlocks; this pins
/// that both recipes really do produce cycles to check.
#[test]
fn both_recipes_produce_deadlocks() {
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();

    let naive = Arc::new(NaiveBroadcast::new(net.clone()));
    let mut sim = Simulator::new(net.graph().clone(), naive, SimConfig::default());
    for &src in &[0usize, 4, 8, 3, 7, 11] {
        sim.schedule(naive_bc(&shape, src, 16));
    }
    assert!(
        sim.run().outcome.is_deadlock(),
        "fig5 recipe lost its deadlock"
    );

    let faults = FaultSet::single(FaultSite::Router(shape.index_of(Coord::new(&[1, 0]))));
    let cfg = RoutingConfig::for_faults(&shape, &faults)
        .unwrap()
        .with_separate_dxb(&faults)
        .unwrap();
    let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
    let mut deadlocked = false;
    'outer: for offset in 10..38u64 {
        for seed in 0..8u64 {
            let mut sim = Simulator::new(
                net.graph().clone(),
                scheme.clone(),
                SimConfig {
                    arb_seed: seed,
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
                header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
                flits: 24,
                inject_at: offset,
            });
            if sim.run().outcome.is_deadlock() {
                deadlocked = true;
                break 'outer;
            }
        }
    }
    assert!(deadlocked, "fig9 recipe lost its deadlock");
}
