//! Criterion benches for the combined-traffic scenarios (Figs. 9-10): cost
//! of a deadlocking run (detection latency) vs the deadlock-free scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use mdx_bench::run_schedule;
use mdx_core::{Header, RoutingConfig, Sr2201Routing};
use mdx_fault::{FaultSet, FaultSite};
use mdx_sim::{InjectSpec, SimConfig};
use mdx_topology::{Coord, MdCrossbar, Shape};
use std::sync::Arc;

fn specs(shape: &Shape, offset: u64) -> Vec<InjectSpec> {
    vec![
        InjectSpec {
            src_pe: 9,
            header: Header::broadcast_request(shape.coord_of(9)),
            flits: 24,
            inject_at: 0,
        },
        InjectSpec {
            src_pe: 0,
            header: Header::unicast(shape.coord_of(0), shape.coord_of(5)),
            flits: 24,
            inject_at: offset,
        },
    ]
}

fn bench_fig9_fig10(c: &mut Criterion) {
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let faults = FaultSet::single(FaultSite::Router(faulty));

    c.bench_function("fig9_deadlocking_run", |b| {
        b.iter(|| {
            let cfg = RoutingConfig::for_faults(&shape, &faults)
                .unwrap()
                .with_separate_dxb(&faults)
                .unwrap();
            let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
            run_schedule(
                net.graph(),
                scheme,
                &specs(&shape, 22),
                SimConfig {
                    watchdog: 128,
                    arb_seed: 1,
                    ..SimConfig::default()
                },
            )
        })
    });

    c.bench_function("fig10_same_run_deadlock_free", |b| {
        b.iter(|| {
            let cfg = RoutingConfig::for_faults(&shape, &faults).unwrap();
            let scheme = Arc::new(Sr2201Routing::with_config(net.clone(), cfg, &faults));
            run_schedule(
                net.graph(),
                scheme,
                &specs(&shape, 22),
                SimConfig {
                    watchdog: 128,
                    arb_seed: 1,
                    ..SimConfig::default()
                },
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fig9_fig10
}
criterion_main!(benches);
