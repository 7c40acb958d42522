//! Criterion benches for the extension experiments: O1TURN routing,
//! multi-fault configuration, and fault diagnosis.

use criterion::{criterion_group, criterion_main, Criterion};
use mdx_bench::run_schedule;
use mdx_core::{O1TurnRouting, Sr2201Routing};
use mdx_fault::diagnosis::diagnose_all_pairs;
use mdx_fault::{FaultSet, FaultSite};
use mdx_sim::SimConfig;
use mdx_topology::{MdCrossbar, Shape};
use mdx_workloads::{unicast_schedule, OpenLoop, TrafficPattern};
use std::sync::Arc;

fn bench_extensions(c: &mut Criterion) {
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let specs = unicast_schedule(
        &shape,
        TrafficPattern::Transpose,
        OpenLoop {
            rate: 0.03,
            packet_flits: 8,
            window: 200,
            seed: 7,
        },
        &FaultSet::none(),
    );

    c.bench_function("ext_transpose_dimension_order", |b| {
        b.iter(|| {
            let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
            run_schedule(net.graph(), scheme, &specs, SimConfig::default())
        })
    });

    c.bench_function("ext_transpose_o1turn", |b| {
        b.iter(|| {
            let scheme = Arc::new(O1TurnRouting::new(net.clone(), 7));
            run_schedule(net.graph(), scheme, &specs, SimConfig::default())
        })
    });

    c.bench_function("ext_diagnose_all_pairs_8x8", |b| {
        let faults = FaultSet::single(FaultSite::Router(27));
        b.iter(|| diagnose_all_pairs(&net, &faults))
    });

    c.bench_function("ext_multi_fault_configuration", |b| {
        let mut faults = FaultSet::single(FaultSite::Router(27));
        faults.insert(FaultSite::Pe(3));
        faults.insert(FaultSite::Xbar(mdx_topology::XbarRef { dim: 0, line: 5 }));
        b.iter(|| Sr2201Routing::new(net.clone(), &faults).unwrap())
    });

    // The full epoch protocol: fault at cycle 60 mid-workload, drain,
    // reprogram, reinject the victims, watch the transition window.
    c.bench_function("ext_reconfig_reinject_8x8", |b| {
        use mdx_fault::FaultTimeline;
        use mdx_reconfig::{run_reconfig, ReconfigSpec, RecoveryPolicy};

        let site = FaultSite::Xbar(mdx_topology::XbarRef { dim: 1, line: 2 });
        let specs = unicast_schedule(
            &shape,
            TrafficPattern::UniformRandom,
            OpenLoop {
                rate: 0.02,
                packet_flits: 12,
                window: 200,
                seed: 11,
            },
            &FaultSet::single(site),
        );
        let spec = ReconfigSpec::new(FaultTimeline::new().inject(site, 60))
            .with_policy(RecoveryPolicy::Reinject);
        b.iter(|| {
            run_reconfig(
                net.clone(),
                "sr2201",
                &FaultSet::none(),
                &specs,
                SimConfig::default(),
                &spec,
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_extensions
}
criterion_main!(benches);
