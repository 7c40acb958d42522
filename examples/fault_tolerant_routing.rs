//! The paper's core result, end to end: a faulty router, the hardware
//! detour facility, and why the D-XB must be the S-XB (Figs. 7-10).
//!
//! ```text
//! cargo run --release --example fault_tolerant_routing
//! ```

use sr2201::prelude::*;
use sr2201::routing::trace_unicast;
use std::sync::Arc;

fn main() {
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();

    // Break the router of PE (1,0) — the paper's Fig. 8 scenario.
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let faults = FaultSet::single(FaultSite::Router(faulty));
    println!("fault: router of PE{faulty} at (1,0)");

    // The service processor selects the configuration: note the S-XB moves
    // off the faulty row and the D-XB equals it (the deadlock-free choice).
    let scheme = Sr2201Routing::new(net.clone(), &faults).unwrap();
    let cfg = scheme.config();
    println!(
        "configuration: dimension order {:?}, S-XB = {}, D-XB = {} (deadlock-free: {})",
        cfg.order(),
        cfg.sxb(),
        cfg.dxb(),
        cfg.deadlock_free()
    );

    // The Fig. 8 detour route.
    let header = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
    let trace = trace_unicast(&scheme, net.graph(), header, 0).unwrap();
    println!("\ndetour route (0,0) -> (1,1):\n  {}", trace.pretty());

    // Every usable pair is still delivered.
    let mut delivered = 0;
    let mut detoured = 0;
    let mut pairs = 0;
    for src in 0..shape.num_pes() {
        for dst in 0..shape.num_pes() {
            if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                continue;
            }
            pairs += 1;
            let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
            if let Ok(t) = trace_unicast(&scheme, net.graph(), h, src) {
                delivered += 1;
                if t.used_detour() {
                    detoured += 1;
                }
            }
        }
    }
    println!("\nall-pairs: {delivered}/{pairs} delivered, {detoured} via detour");

    // Figs. 9 vs 10 in the cycle-level simulator: the same broadcast +
    // detoured unicast, with the D-XB separated (deadlock) and unified
    // (completion).
    for separate in [true, false] {
        let mut cfg = RoutingConfig::for_faults(&shape, &faults).unwrap();
        if separate {
            cfg = cfg
                .with_separate_dxb(&faults)
                .expect("the machine has a line for a separate D-XB");
        }
        let label = if separate {
            "fig9 (D-XB != S-XB)"
        } else {
            "fig10 (D-XB = S-XB)"
        };
        let mut outcome = None;
        // The cyclic wait needs the two packets to overlap just so; sweep
        // the unicast's injection offset until something interesting shows.
        for offset in 10..38u64 {
            let scheme = Arc::new(Sr2201Routing::with_config(
                net.clone(),
                cfg.clone(),
                &faults,
            ));
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
            let r = sim.run();
            if let SimOutcome::Deadlock(info) = &r.outcome {
                outcome = Some(format!("DEADLOCK at offset {offset}:\n{info}"));
                break;
            }
        }
        println!(
            "\n{label}: {}",
            outcome.unwrap_or("all offsets completed deadlock-free".to_string())
        );
    }
}
