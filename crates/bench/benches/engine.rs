//! Criterion benches for the simulator engine itself (supports
//! claim-scale-2048 and abl-buffer-depth): cycles/second on dense traffic
//! and scaling with network size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mdx_bench::run_schedule;
use mdx_core::Sr2201Routing;
use mdx_fault::FaultSet;
use mdx_obs::{AttributionObserver, FlightRecorder, MetricsObserver};
use mdx_sim::{EventCounts, SimConfig, Simulator};
use mdx_topology::{MdCrossbar, Shape};
use mdx_workloads::{unicast_schedule, OpenLoop, TrafficPattern};
use std::sync::Arc;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_uniform_traffic");
    for dims in [&[4u16, 4][..], &[8, 8], &[16, 16]] {
        let shape = Shape::new(dims).unwrap();
        let net = Arc::new(MdCrossbar::build(shape.clone()));
        let cfg = OpenLoop {
            rate: 0.02,
            packet_flits: 8,
            window: 100,
            seed: 1,
        };
        let specs = unicast_schedule(
            &shape,
            TrafficPattern::UniformRandom,
            cfg,
            &FaultSet::none(),
        );
        g.throughput(Throughput::Elements(specs.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}x{}", dims[0], dims[1])),
            &specs,
            |b, specs| {
                b.iter(|| {
                    let scheme =
                        Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
                    run_schedule(net.graph(), scheme, specs, SimConfig::default())
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("engine_buffer_depth");
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let specs = unicast_schedule(
        &shape,
        TrafficPattern::UniformRandom,
        OpenLoop {
            rate: 0.03,
            packet_flits: 8,
            window: 100,
            seed: 1,
        },
        &FaultSet::none(),
    );
    for buffer in [1usize, 2, 8, 32] {
        g.bench_with_input(
            BenchmarkId::from_parameter(buffer),
            &buffer,
            |b, &buffer| {
                b.iter(|| {
                    let scheme =
                        Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
                    run_schedule(
                        net.graph(),
                        scheme,
                        &specs,
                        SimConfig {
                            buffer_flits: buffer,
                            ..SimConfig::default()
                        },
                    )
                })
            },
        );
    }
    g.finish();

    // Observer-seam overhead: the `none` row is the zero-cost claim — with
    // no observer attached the hook call sites reduce to one `is_some`
    // branch each, so it must track the uninstrumented engine rows above.
    let mut g = c.benchmark_group("engine_observer_overhead");
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let specs = unicast_schedule(
        &shape,
        TrafficPattern::UniformRandom,
        OpenLoop {
            rate: 0.03,
            packet_flits: 8,
            window: 100,
            seed: 1,
        },
        &FaultSet::none(),
    );
    let loaded = || {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
        for &spec in &specs {
            sim.schedule(spec);
        }
        sim
    };
    let run_with = || loaded().run();
    g.bench_function("none", |b| b.iter(run_with));
    g.bench_function("event_counts", |b| {
        b.iter(|| {
            let mut sim = loaded();
            let counts = sim.add_observer(EventCounts::default());
            let cycles = sim.run().stats.cycles;
            let flits = counts.borrow().flits;
            (cycles, flits)
        })
    });
    // The detached-registry contract: the engine self-profiles on every
    // run, but with no `EngineMeter` attached the profile is dropped on
    // the floor — this row must stay flat against `none`.
    g.bench_function("metrics", |b| {
        let meter: Option<mdx_campaign::EngineMeter> = None;
        b.iter(|| {
            let r = run_with();
            if let (Some(m), Some(p)) = (&meter, &r.profile) {
                m.observe(&mdx_campaign::RowProfile::from_engine(p));
            }
            r.stats.cycles
        })
    });
    // ...and what folding the profile into live registry atomics costs.
    g.bench_function("metrics_attached", |b| {
        let reg = mdx_metrics::Registry::new();
        let meter = mdx_campaign::EngineMeter::register(&reg);
        b.iter(|| {
            let r = run_with();
            if let Some(p) = &r.profile {
                meter.observe(&mdx_campaign::RowProfile::from_engine(p));
            }
            r.stats.cycles
        })
    });
    // The span pipeline's detached contract, mirroring `metrics`: with no
    // collector attached a run builds no spans at all — the trace-id
    // sampling decision, the builder, and the offer are skipped wholesale
    // — so this row must stay flat against `none`.
    g.bench_function("spans_detached", |b| {
        let spans: Option<std::sync::Arc<mdx_obs::SpanCollector>> = None;
        b.iter(|| {
            let tracing = spans.as_ref().map(|c| (c, c.head_sample()));
            let r = run_with();
            if let Some((c, sampled)) = tracing {
                let mut t = mdx_obs::TraceBuilder::new(c.next_trace_id());
                let root = t.add(None, "row", 0, r.stats.cycles, mdx_obs::SpanUnit::Cycles);
                t.attr(root, "outcome", "completed");
                if sampled {
                    c.offer(t.finish());
                } else {
                    c.drop_unsampled();
                }
            }
            r.stats.cycles
        })
    });
    // Per-phase wall-clock splitting adds two `Instant::now()` pairs per
    // step; it's opt-in, and this row pins its price.
    g.bench_function("profile", |b| {
        b.iter(|| {
            let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
            let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
            sim.set_phase_timing(true);
            for &spec in &specs {
                sim.schedule(spec);
            }
            let r = sim.run();
            r.stats.cycles
        })
    });
    g.bench_function("metrics_observer", |b| {
        b.iter(|| {
            let mut sim = loaded();
            let metrics = sim.add_observer(MetricsObserver::new(net.graph().clone()));
            let r = sim.run();
            let total_flits = metrics.borrow().report(r.stats.cycles).total_flits;
            (r.stats.cycles, total_flits)
        })
    });
    // Full latency attribution: per-packet phase tracking during the run
    // plus the decomposition sweep + blame/critical-path reduction after.
    // The detached (`none`) row above is the zero-cost contract; this row
    // pins what opting in actually costs.
    g.bench_function("attribution", |b| {
        b.iter(|| {
            let mut sim = loaded();
            let attribution = sim.add_observer(AttributionObserver::new(net.graph().clone()));
            let r = sim.run();
            let att = attribution.borrow().report(&r);
            (r.stats.cycles, att.conserved, att.totals.latency)
        })
    });
    // The always-on flight recorder must stay close to `none`: it skips
    // per-flit events and the ring writes are fixed-size stores.
    g.bench_function("flight", |b| {
        b.iter(|| {
            let mut sim = loaded();
            let flight = sim.add_observer(FlightRecorder::new(net.graph().clone(), 1));
            let r = sim.run();
            let recorded = flight.borrow().events_recorded();
            (r.stats.cycles, recorded)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine
}
criterion_main!(benches);
