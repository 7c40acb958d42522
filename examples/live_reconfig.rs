//! Live reconfiguration, end to end: a crossbar dies *while packets fly*,
//! the service processor drains the machine, reprograms the fault
//! registers, and traffic resumes under the new routing function — with
//! the transition itself checked for mixed-epoch deadlock.
//!
//! The same fault timeline (inject `X1-XB` line 2 at cycle 40, repair it
//! at cycle 400) runs under all three recovery policies so their victim
//! accounting can be compared side by side.
//!
//! ```text
//! cargo run --release --example live_reconfig
//! ```

use sr2201::prelude::*;
use sr2201::reconfig::run_reconfig;
use std::sync::Arc;

fn main() {
    let net = Arc::new(MdCrossbar::build(Shape::new(&[4, 4]).unwrap()));
    let shape = net.shape().clone();
    let n = shape.num_pes();

    // A rolling all-to-some workload: PE i sends 16 flits to PE (i+5)%n at
    // cycle 4i, so plenty of packets are mid-flight when the fault lands.
    let specs: Vec<InjectSpec> = (0..n)
        .map(|i| InjectSpec {
            src_pe: i,
            header: Header::unicast(shape.coord_of(i), shape.coord_of((i + 5) % n)),
            flits: 16,
            inject_at: 4 * i as u64,
        })
        .collect();

    // The timeline: the dim-1 crossbar on line 2 dies at cycle 40 and is
    // repaired (hot-swapped) at cycle 400. Each event triggers one full
    // quiesce/drain/reprogram/resume epoch.
    let site = FaultSite::Xbar(XbarRef { dim: 1, line: 2 });
    let timeline = FaultTimeline::new().inject(site, 40).repair(site, 400);

    for policy in [
        RecoveryPolicy::Drop,
        RecoveryPolicy::Reinject,
        RecoveryPolicy::Reroute,
    ] {
        let spec = ReconfigSpec::new(timeline.clone()).with_policy(policy);
        let outcome = run_reconfig(
            net.clone(),
            "sr2201",
            &FaultSet::none(),
            &specs,
            SimConfig::default(),
            &spec,
        )
        .expect("the sr2201 scheme reconfigures around a single crossbar fault");

        println!("=== policy: {policy} ===");
        println!(
            "outcome {:?} after {} cycles, {}/{} packets delivered",
            outcome.result.outcome, outcome.result.stats.cycles, outcome.result.stats.delivered, n
        );
        print!("{}", outcome.report.render());
        assert!(
            outcome.report.transition_safe(),
            "a mixed-epoch wait cycle would be a transition deadlock"
        );
        println!();
    }

    println!("all three policies crossed both epochs with no mixed-epoch wait cycle");
}
