//! Latency attribution walkthrough: where do the cycles of a detoured
//! packet actually go?
//!
//! 1. The fig9 detour race on the paper's 4x3 shape with router (1,0)
//!    faulty, run once with an [`AttributionObserver`] attached — prints
//!    the full report: per-phase totals (injection queueing, S-XB
//!    serialization, blocked time split by holder class, RC=3 detour
//!    transfer vs. base transfer), the blame tables ranking channels and
//!    crossbars by blocked cycles caused, and the critical wait-for chain
//!    ending at the last delivery. Every packet's phases sum to its
//!    engine-reported latency exactly.
//! 2. The same sweep fault-free vs. faulty through the campaign runner,
//!    compared with [`diff_attribution`] — the machine-checkable version
//!    of "the fault's latency went into detours and blocking".
//!
//! ```text
//! cargo run --release --example attribution_report
//! ```

use sr2201::campaign::{
    detour_stress_for, diff_attribution, run_campaign_with, ObsOptions, Scenario,
    DEFAULT_DIFF_THRESHOLD,
};
use sr2201::obs::AttributionObserver;
use sr2201::prelude::*;
use std::sync::Arc;

fn main() {
    let shape = Shape::fig2();
    let faulty_router = FaultSite::Router(shape.index_of(Coord::new(&[1, 0])));

    // --- Part 1: one instrumented run, full attribution report ----------
    println!("=== fig9 detour race on 4x3, router (1,0) faulty: full attribution ===\n");
    let scenario = Scenario::new(vec![4, 3], "sr2201", detour_stress_for(&shape, 24, 10), 0)
        .with_faults([faulty_router]);
    let faults = scenario.fault_set().unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());

    let mut sim = Simulator::new(net.graph().clone(), scheme, scenario.sim_config());
    let attribution = sim.add_observer(AttributionObserver::new(net.graph().clone()));
    for &spec in &scenario.specs(&shape, &faults) {
        sim.schedule(spec);
    }
    let result = sim.run();
    let report = attribution.borrow().report(&result);
    assert!(report.conserved, "phases must sum to latency exactly");
    print!("{}", report.render());

    // --- Part 2: fault-free vs. faulty, attributed and diffed -----------
    println!("\n=== campaign diff: the same sweep without vs. with the fault ===\n");
    let sweep = |faulty: bool| {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|seed| {
                let s = Scenario::new(
                    vec![4, 3],
                    "sr2201",
                    detour_stress_for(&shape, 24, 10 + seed * 7),
                    seed,
                );
                if faulty {
                    s.with_faults([faulty_router])
                } else {
                    s
                }
            })
            .collect();
        run_campaign_with(
            scenarios,
            &ObsOptions {
                attribution: true,
                ..ObsOptions::default()
            },
        )
    };
    let clean = sweep(false);
    let broken = sweep(true);
    let diff = diff_attribution(
        &clean.to_jsonl(),
        &broken.to_jsonl(),
        DEFAULT_DIFF_THRESHOLD,
    )
    .unwrap();
    print!("{}", diff.render());
    println!(
        "\nflagged phase shifts: {} (expect detour/blocked shares up, base transfer down)",
        diff.flagged
    );
}
