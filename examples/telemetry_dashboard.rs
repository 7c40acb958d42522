//! Telemetry dashboard: every observer in `mdx-obs` on two paper scenarios.
//!
//! 1. Fig. 10 mixed traffic (unicasts + serialized broadcasts) under the
//!    paper's scheme, with the metrics observer, the stall probe, and the
//!    Chrome/Perfetto trace recorder all attached to one run — prints the
//!    channel/crossbar heatmap showing the S-XB as the hottest X crossbar.
//! 2. The Fig. 5 naive broadcast storm with the stall probe attached —
//!    prints the wait-chain timeline *growing* probe over probe until the
//!    watchdog confirms the deadlock.
//!
//! ```text
//! cargo run --release --example telemetry_dashboard [trace-out.json]
//! ```
//!
//! With a path argument the Fig. 10 run's trace is written there; open it
//! at <https://ui.perfetto.dev> (or chrome://tracing) to see per-packet
//! switch-residency slices, blocked episodes, and the S-XB gather queue.

use sr2201::obs::{MetricsObserver, StallProbe, TraceRecorder};
use sr2201::prelude::*;
use sr2201::workloads::{mixed_schedule, OpenLoop, TrafficPattern};
use std::sync::Arc;

fn main() {
    let trace_out = std::env::args().nth(1);
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();

    // --- Part 1: instrumented Fig. 10 mixed traffic ---------------------
    println!("=== Fig. 10 mixed traffic on 4x3, fully instrumented ===\n");
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let sxb = scheme.config().sxb().to_string();
    let dxb = scheme.config().dxb().to_string();

    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    let metrics = sim.add_observer(MetricsObserver::new(net.graph().clone()));
    let trace = sim.add_observer(TraceRecorder::new(net.graph()));
    let probe = sim.add_observer(StallProbe::new(32));

    let specs = mixed_schedule(
        &shape,
        TrafficPattern::UniformRandom,
        OpenLoop {
            rate: 0.02,
            packet_flits: 12,
            window: 200,
            seed: 7,
        },
        0.004,
        &FaultSet::none(),
    );
    for &spec in &specs {
        sim.schedule(spec);
    }
    let result = sim.run();
    println!(
        "{} packets, outcome {:?}, {} cycles, {} flit-hops\n",
        specs.len(),
        result.outcome,
        result.stats.cycles,
        result.stats.flit_hops
    );

    let report = metrics.borrow().report(result.stats.cycles);
    print!("{}", report.heatmap(Some(&sxb), Some(&dxb)));
    let stall = probe.borrow().report();
    println!(
        "\nstall probe: {} samples, peak wait chain {}, peak blocked wait {} cycles",
        stall.samples.len(),
        stall.peak_chain(),
        stall.peak_wait()
    );

    let trace = trace.borrow();
    if let Some(path) = trace_out {
        let doc = trace.render(result.stats.cycles);
        match std::fs::write(&path, &doc) {
            Ok(()) => println!(
                "wrote {} trace events to {path} (open at https://ui.perfetto.dev)",
                trace.len()
            ),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    } else {
        println!(
            "trace recorder captured {} events (pass a path to write the Perfetto JSON)",
            trace.len()
        );
    }

    // --- Part 2: the stall probe watching a broadcast storm deadlock ----
    println!("\n=== Fig. 5 naive broadcast storm: the stall probe's early warning ===\n");
    let sources = [0usize, 4, 8];
    for seed in 0..64u64 {
        let naive = Arc::new(NaiveBroadcast::new(net.clone()));
        let mut sim = Simulator::new(
            net.graph().clone(),
            naive,
            SimConfig {
                arb_seed: seed,
                ..SimConfig::default()
            },
        );
        let probe = sim.add_observer(StallProbe::new(64));
        for &src in &sources {
            let c = shape.coord_of(src);
            sim.schedule(InjectSpec {
                src_pe: src,
                header: Header {
                    rc: RouteChange::Broadcast,
                    dest: c,
                    src: c,
                },
                flits: 16,
                inject_at: 0,
            });
        }
        if !sim.run().outcome.is_deadlock() {
            continue;
        }
        let report = probe.borrow().report();
        println!("broadcasts from PEs {sources:?} with arbitration seed {seed}:");
        if let Some(w) = report.warning() {
            println!("early warning: {w}");
        }
        print!("{}", report.timeline());
        return;
    }
    println!("no arbitration seed in 0..64 deadlocked the storm (unexpected)");
}
