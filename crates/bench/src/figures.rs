//! Reproductions of the paper's figures (Figs. 2-10).

use crate::report::{f3, pct, Table};
use crate::run_schedule;
use mdx_campaign::{
    detour_stress_for, run_campaign_with, ObsOptions, Scenario, ScenarioReport, Workload,
};
use mdx_core::{
    trace_broadcast, trace_unicast, Header, NaiveBroadcast, Packet, RouteChange, RoutingConfig,
    Sr2201Routing,
};
use mdx_deadlock::verify_scheme;
use mdx_deadlock::waitgraph::TrafficFamily;
use mdx_fault::{enumerate_single_faults, FaultSet, FaultSite};
use mdx_sim::{InjectSpec, PacketOutcome, SimConfig, SimOutcome, SortedLatencies};
use mdx_topology::{
    embed, mesh::DirectNetwork, mesh::Wrap, metrics, Coord, MdCrossbar, Node, Shape,
};
use rayon::prelude::*;
use std::sync::Arc;

fn fig2_net() -> Arc<MdCrossbar> {
    Arc::new(MdCrossbar::build(Shape::fig2()))
}

/// Mean of one per-row telemetry field over instrumented campaign rows;
/// `-` when no row carried telemetry.
fn mean_util<'a>(
    rows: impl Iterator<Item = &'a ScenarioReport>,
    field: impl Fn(&mdx_campaign::RowTelemetry) -> Option<f64>,
) -> String {
    let vals: Vec<f64> = rows
        .filter_map(|r| r.telemetry.as_ref())
        .filter_map(&field)
        .collect();
    if vals.is_empty() {
        "-".to_string()
    } else {
        f3(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Share of total delivered latency spent in the phases `cycles` selects,
/// pooled over instrumented campaign rows; `-` when no row carried an
/// attribution section or nothing was delivered.
fn phase_share<'a>(
    rows: impl Iterator<Item = &'a ScenarioReport>,
    cycles: impl Fn(&mdx_campaign::RowAttribution) -> u64,
) -> String {
    let (mut num, mut den) = (0u64, 0u64);
    for att in rows.filter_map(|r| r.attribution.as_ref()) {
        num += cycles(att);
        den += att.latency_total;
    }
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// The wait-class cycles of one attribution row: every phase where the
/// packet held resources without moving (queueing, S-XB serialization,
/// blocked behind any holder class, epoch pauses).
fn blocked_cycles(att: &mdx_campaign::RowAttribution) -> u64 {
    att.inject_wait
        + att.epoch_pause
        + att.gather_wait
        + att.blocked_normal
        + att.blocked_gather
        + att.blocked_detour
}

fn bc_request(shape: &Shape, src: usize, flits: usize, at: u64) -> InjectSpec {
    InjectSpec {
        src_pe: src,
        header: Header::broadcast_request(shape.coord_of(src)),
        flits,
        inject_at: at,
    }
}

fn naive_bc(shape: &Shape, src: usize, flits: usize, at: u64) -> InjectSpec {
    let c = shape.coord_of(src);
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

/// Fig. 2 + Sec. 3.1: structure and structural claims of the MD crossbar.
pub fn fig2_topology() -> Vec<Table> {
    let mut t = Table::new(
        "fig2-topology",
        "multi-dimensional crossbar structure vs mesh/torus/hypercube",
        &[
            "topology",
            "PEs",
            "router ports",
            "switches",
            "channels",
            "diameter (xbar hops)",
            "diameter (channel hops)",
            "bisection channels",
        ],
    );
    let mut push = |m: metrics::TopologyMetrics| {
        t.row(vec![
            m.name.clone(),
            m.num_pes.to_string(),
            m.router_ports.to_string(),
            m.num_switches.to_string(),
            m.num_channels.to_string(),
            m.diameter_xbar_hops.to_string(),
            m.diameter_channel_hops.to_string(),
            m.bisection_channels.to_string(),
        ]);
    };
    for dims in [&[4u16, 3][..], &[8, 8], &[16, 16, 8]] {
        push(metrics::md_crossbar_metrics(&MdCrossbar::build(
            Shape::new(dims).unwrap(),
        )));
    }
    for dims in [&[4u16, 3][..], &[8, 8]] {
        let shape = Shape::new(dims).unwrap();
        push(metrics::direct_network_metrics(&DirectNetwork::build(
            shape.clone(),
            Wrap::Mesh,
        )));
        push(metrics::direct_network_metrics(&DirectNetwork::build(
            shape,
            Wrap::Torus,
        )));
    }
    push(metrics::direct_network_metrics(
        &DirectNetwork::hypercube(64).unwrap(),
    ));
    t.note(format!(
        "2048-PE port-count claim: md-crossbar 16x16x8 needs {} router ports; a hypercube needs {}",
        metrics::md_crossbar_router_ports(&Shape::sr2201_full()),
        metrics::hypercube_router_ports(2048),
    ));

    // Conflict-free remapping claims.
    let mut r = Table::new(
        "fig2-remap",
        "conflict-free remapping of workload topologies (Sec. 3.1)",
        &[
            "schedule",
            "phases",
            "conflicts on md-crossbar",
            "conflicts on mesh",
        ],
    );
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = MdCrossbar::build(shape.clone());
    let mesh = DirectNetwork::build(shape.clone(), Wrap::Mesh);
    let schedules: Vec<(&str, Vec<embed::Phase>)> = vec![
        ("ring shifts", embed::ring_phases(64)),
        ("mesh neighbor exchange", embed::mesh_phases(&shape)),
        ("hypercube exchange", embed::hypercube_phases(&shape)),
        ("binary tree (levels)", embed::tree_phases(6)),
    ];
    for (name, phases) in schedules {
        let on_mdx: usize = phases
            .iter()
            .map(|p| embed::phase_conflicts_mdx(&net, p))
            .sum();
        let on_mesh: usize = phases
            .iter()
            .map(|p| embed::phase_conflicts_direct(&mesh, p))
            .sum();
        r.row(vec![
            name.to_string(),
            phases.len().to_string(),
            on_mdx.to_string(),
            on_mesh.to_string(),
        ]);
    }
    vec![t, r]
}

/// Figs. 3 and 4: packet format and RC-bit meanings.
pub fn fig3_packet() -> Vec<Table> {
    let mut t = Table::new(
        "fig3-packet",
        "packet format and RC encoding round-trip",
        &["RC bits", "meaning", "example wire bytes (header, 2D)"],
    );
    let shape = Shape::fig2();
    for bits in 0..=3u8 {
        let rc = RouteChange::from_bits(bits).unwrap();
        let h = Header {
            rc,
            dest: Coord::new(&[3, 2]),
            src: Coord::new(&[1, 0]),
        };
        let wire = Packet::new(h, vec![0u8; 0]).encode(&shape);
        t.row(vec![
            format!("{bits:02b}"),
            rc.to_string(),
            wire.iter()
                .take(9)
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    t.note("receiving address effective only when RC=0 (paper Fig. 4)");
    vec![t]
}

/// Fig. 5: concurrent unserialized broadcasts deadlock.
pub fn fig5_bc_deadlock() -> Vec<Table> {
    let mut t = Table::new(
        "fig5-bc-deadlock",
        "naive broadcast: deadlock rate vs concurrent broadcasts (4x3, 16-flit packets, 32 seeds)",
        &["concurrent broadcasts", "deadlocks", "rate"],
    );
    let net = fig2_net();
    let shape = net.shape().clone();
    let sources = [0usize, 4, 8, 3, 7, 11];
    for k in 1..=5usize {
        let deadlocks: usize = (0..32u64)
            .into_par_iter()
            .filter(|&seed| {
                let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
                let specs: Vec<InjectSpec> = sources[..k]
                    .iter()
                    .map(|&s| naive_bc(&shape, s, 16, 0))
                    .collect();
                run_schedule(
                    net.graph(),
                    scheme,
                    &specs,
                    SimConfig {
                        arb_seed: seed,
                        ..SimConfig::default()
                    },
                )
                .outcome
                .is_deadlock()
            })
            .count();
        t.row(vec![
            k.to_string(),
            deadlocks.to_string(),
            pct(deadlocks, 32),
        ]);
    }
    // Exhibit one concrete cycle, like the figure.
    let scheme = Arc::new(NaiveBroadcast::new(net.clone()));
    let specs = vec![naive_bc(&shape, 0, 16, 0), naive_bc(&shape, 4, 16, 0)];
    for seed in 0..32 {
        let r = run_schedule(
            net.graph(),
            scheme.clone(),
            &specs,
            SimConfig {
                arb_seed: seed,
                ..SimConfig::default()
            },
        );
        if let SimOutcome::Deadlock(info) = r.outcome {
            t.note(format!("example cyclic wait (seed {seed}):"));
            for e in &info.cycle {
                t.note(format!(
                    "  {} waits for {} held by {}",
                    e.waiter, e.channel, e.holder
                ));
            }
            break;
        }
    }
    vec![t]
}

/// Fig. 6: the S-XB serialized broadcast completes for any concurrency.
pub fn fig6_sxb_broadcast() -> Vec<Table> {
    let mut t = Table::new(
        "fig6-sxb-broadcast",
        "S-XB serialized broadcast: completion and latency vs concurrent broadcasts (4x3)",
        &[
            "concurrent broadcasts",
            "completed",
            "deliveries/bc",
            "mean latency",
            "max latency",
        ],
    );
    let net = fig2_net();
    let shape = net.shape().clone();
    let sources = [0usize, 4, 8, 3, 7, 11];
    for k in 1..=6usize {
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let specs: Vec<InjectSpec> = sources[..k]
            .iter()
            .map(|&s| bc_request(&shape, s, 16, 0))
            .collect();
        let r = run_schedule(net.graph(), scheme, &specs, SimConfig::default());
        assert_eq!(r.outcome, SimOutcome::Completed);
        let delivered = r
            .packets
            .iter()
            .filter(|p| p.outcome == PacketOutcome::Delivered)
            .count();
        let deliveries = r.packets[0].deliveries.len();
        t.row(vec![
            k.to_string(),
            format!("{delivered}/{k}"),
            deliveries.to_string(),
            f3(r.stats.mean_latency()),
            r.stats.latency_max.to_string(),
        ]);
    }
    t.note("latency grows ~linearly with concurrency: broadcasts serialize at the S-XB in arrival order (Fig. 6 step 2)");

    // The four-step route trace of Fig. 6.
    let mut steps = Table::new(
        "fig6-trace",
        "broadcast fan-out edges from PE3 (paper Fig. 6 steps)",
        &["stage", "edges"],
    );
    let scheme = Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap();
    let trace = trace_broadcast(&scheme, net.graph(), 3, shape.coord_of(3)).unwrap();
    let sxb = Node::Xbar(scheme.config().sxb());
    let mut stage1 = Vec::new();
    let mut stage2 = Vec::new();
    let mut rest = Vec::new();
    for (a, b) in &trace.edges {
        if *b == sxb {
            stage1.push(format!("{a}->{b}"));
        } else if *a == sxb {
            stage2.push(format!("{a}->{b}"));
        } else {
            rest.push(format!("{a}->{b}"));
        }
    }
    steps.row(vec!["1: request to S-XB".into(), stage1.join(", ")]);
    steps.row(vec!["2: S-XB emission".into(), stage2.join(", ")]);
    steps.row(vec![
        "3-4: fan-out and delivery".into(),
        format!(
            "{} edges, {} PEs delivered",
            rest.len(),
            trace.delivered.len()
        ),
    ]);
    vec![t, steps]
}

/// Figs. 7-8: single-fault detour delivery and overhead.
pub fn fig8_detour() -> Vec<Table> {
    let mut t = Table::new(
        "fig8-detour",
        "hardware detour: delivery and hop overhead under every single fault (8x8)",
        &[
            "fault class",
            "faults",
            "usable pairs",
            "delivered",
            "detoured pairs",
            "mean extra xbar hops (detoured)",
        ],
    );
    let net = Arc::new(MdCrossbar::build(Shape::new(&[8, 8]).unwrap()));
    let shape = net.shape().clone();
    let n = shape.num_pes();
    let mut classes: Vec<(&str, Vec<FaultSite>)> = vec![
        ("router", Vec::new()),
        ("x-crossbar", Vec::new()),
        ("y-crossbar", Vec::new()),
        ("pe", Vec::new()),
    ];
    for site in enumerate_single_faults(&net) {
        let idx = match site {
            FaultSite::Router(_) => 0,
            FaultSite::Xbar(x) if x.dim == 0 => 1,
            FaultSite::Xbar(_) => 2,
            FaultSite::Pe(_) => 3,
        };
        classes[idx].1.push(site);
    }
    for (name, sites) in &classes {
        let results: Vec<(usize, usize, usize, usize)> = sites
            .par_iter()
            .map(|&site| {
                let faults = FaultSet::single(site);
                let s = Sr2201Routing::new(net.clone(), &faults).unwrap();
                let mut pairs = 0;
                let mut delivered = 0;
                let mut detoured = 0;
                let mut extra = 0usize;
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                            continue;
                        }
                        pairs += 1;
                        let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                        if let Ok(tr) = trace_unicast(&s, net.graph(), h, src) {
                            delivered += 1;
                            if tr.used_detour() {
                                detoured += 1;
                                let base =
                                    shape.xbar_hops(shape.coord_of(src), shape.coord_of(dst));
                                extra += tr.xbar_hops() - base;
                            }
                        }
                    }
                }
                (pairs, delivered, detoured, extra)
            })
            .collect();
        let pairs: usize = results.iter().map(|r| r.0).sum();
        let delivered: usize = results.iter().map(|r| r.1).sum();
        let detoured: usize = results.iter().map(|r| r.2).sum();
        let extra: usize = results.iter().map(|r| r.3).sum();
        t.row(vec![
            name.to_string(),
            sites.len().to_string(),
            pairs.to_string(),
            pct(delivered, pairs),
            pct(detoured, pairs),
            if detoured == 0 {
                "-".to_string()
            } else {
                f3(extra as f64 / detoured as f64)
            },
        ]);
    }

    // The exact Fig. 8 step trace.
    let mut steps = Table::new(
        "fig8-trace",
        "the paper's Fig. 8 route: (0,0)->(1,1) with faulty router (1,0) on 4x3",
        &["route"],
    );
    let small = fig2_net();
    let fshape = small.shape().clone();
    let faults = FaultSet::single(FaultSite::Router(fshape.index_of(Coord::new(&[1, 0]))));
    let s = Sr2201Routing::new(small.clone(), &faults).unwrap();
    let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
    let tr = trace_unicast(&s, small.graph(), h, 0).unwrap();
    steps.row(vec![tr.pretty()]);
    steps.note(format!(
        "S-XB = D-XB = {} (the deadlock-free choice); RC resets to normal at the D-XB",
        s.config().dxb()
    ));
    vec![t, steps]
}

/// Fig. 9: D-XB != S-XB deadlocks under combined broadcast + detour traffic.
///
/// The offsets x seeds stress loop runs on the campaign engine, so every
/// deadlock found here comes with a replayable scenario token.
pub fn fig9_combined_deadlock() -> Vec<Table> {
    let mut t = Table::new(
        "fig9-combined-deadlock",
        "broadcast + detoured unicast, faulty router (1,0) on 4x3: deadlock rate over injection offsets x 8 seeds",
        &[
            "configuration",
            "runs",
            "deadlocks",
            "rate",
            "S-XB util",
            "D-XB util",
            "blocked %",
            "detour %",
        ],
    );
    let mut delivery = Table::new(
        "fig9-delivery",
        "the same runs: delivered packets, delivered per kilocycle and latency pooled over every delivered packet",
        &[
            "configuration",
            "runs",
            "delivered",
            "delivered/kcycle",
            "mean latency",
            "p95 latency",
        ],
    );
    let shape = Shape::fig2();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    for (label, scheme) in [
        ("D-XB != S-XB (fig9)", "separate-dxb"),
        ("D-XB = S-XB (fig10)", "sr2201"),
    ] {
        let scenarios: Vec<Scenario> = (10..38u64)
            .flat_map(|offset| {
                let shape = &shape;
                (0..8u64).map(move |seed| {
                    Scenario::new(
                        vec![4, 3],
                        scheme,
                        detour_stress_for(shape, 24, offset),
                        seed,
                    )
                    .with_faults([FaultSite::Router(faulty)])
                })
            })
            .collect();
        let result = run_campaign_with(
            scenarios,
            &ObsOptions {
                metrics: true,
                attribution: true,
                latencies: true,
                ..ObsOptions::default()
            },
        );
        let runs = result.reports.len();
        let deadlocks = result.deadlocks().count();
        t.row(vec![
            label.to_string(),
            runs.to_string(),
            deadlocks.to_string(),
            pct(deadlocks, runs),
            mean_util(result.reports.iter(), |t| t.sxb_util),
            mean_util(result.reports.iter(), |t| t.dxb_util),
            phase_share(result.reports.iter(), blocked_cycles),
            phase_share(result.reports.iter(), |a| a.detour_transfer),
        ]);
        delivery.row(delivery_row(label, &result.reports));
        // Exhibit one cycle, with its replay token.
        let witness = result.deadlocks().next();
        if let Some(r) = witness {
            t.note(format!("example cycle ({}):", r.scenario));
            if let Some(info) = &r.deadlock {
                for e in &info.cycle {
                    t.note(format!(
                        "  {} waits for {} held by {}",
                        e.waiter, e.channel, e.holder
                    ));
                }
            }
            t.note(format!("replay: campaign replay {}", r.token));
        }
    }
    t.note(
        "blocked % / detour % = attributed share of delivered-packet latency \
         (wait phases incl. S-XB serialization / RC=3 detour transfer)",
    );
    delivery.note(
        "delivered/kcycle = delivered packets x 1000 / cycles, both summed over every run, \
         deadlocked runs included",
    );
    vec![t, delivery]
}

/// One `fig9-delivery` row: delivered packets, delivered per kilocycle and
/// the mean and p95 of every delivered latency pooled over `rows` (not
/// averaged per run: a run delivers a handful of packets, so its own p95
/// is nearly its median).
fn delivery_row(label: &str, rows: &[ScenarioReport]) -> Vec<String> {
    let delivered: usize = rows.iter().map(|r| r.stats.delivered).sum();
    let cycles: u64 = rows.iter().map(|r| r.stats.cycles).sum();
    let pooled: Vec<u64> = rows
        .iter()
        .filter_map(|r| r.latencies.as_deref())
        .flatten()
        .copied()
        .collect();
    let mean = pooled.iter().sum::<u64>() as f64 / pooled.len() as f64;
    let p95 = SortedLatencies::from_unsorted(pooled).percentile(95);
    vec![
        label.to_string(),
        rows.len().to_string(),
        delivered.to_string(),
        f3(delivered as f64 * 1000.0 / cycles as f64),
        f3(mean),
        p95.map_or_else(|| "-".to_string(), |v| v.to_string()),
    ]
}

/// Fig. 10: the paper's scheme — randomized stress and static certification.
pub fn fig10_deadlock_free() -> Vec<Table> {
    let mut t = Table::new(
        "fig10-stress",
        "paper scheme (D-XB = S-XB): randomized mixed traffic under faults, 4x3",
        &[
            "fault",
            "runs",
            "deadlocks",
            "undelivered packets",
            "S-XB util",
            "D-XB util",
            "blocked %",
            "detour %",
        ],
    );
    let net = fig2_net();
    let shape = net.shape().clone();
    let mut sites: Vec<Option<FaultSite>> = vec![None];
    sites.extend(enumerate_single_faults(&net).into_iter().map(Some));
    // One campaign over every (fault site, seed) cell; rows regroup by site.
    let scenarios: Vec<Scenario> = sites
        .iter()
        .flat_map(|site| {
            (0..16u64).map(move |seed| {
                Scenario::new(
                    vec![4, 3],
                    "sr2201",
                    Workload::Mixed {
                        pattern: mdx_workloads::TrafficPattern::UniformRandom,
                        rate: 0.02,
                        packet_flits: 12,
                        window: 200,
                        broadcast_rate: 0.002,
                    },
                    seed,
                )
                .with_faults(*site)
            })
        })
        .collect();
    let result = run_campaign_with(
        scenarios,
        &ObsOptions {
            metrics: true,
            attribution: true,
            ..ObsOptions::default()
        },
    );
    for site in &sites {
        let site_faults: Vec<FaultSite> = site.iter().copied().collect();
        let rows: Vec<_> = result
            .reports
            .iter()
            .filter(|r| r.scenario.faults == site_faults)
            .collect();
        let deadlocks = rows.iter().filter(|r| r.is_deadlock()).count();
        let undelivered: usize = rows.iter().map(|r| r.stats.unfinished).sum();
        t.row(vec![
            site.map(|s| s.to_string()).unwrap_or("none".to_string()),
            rows.len().to_string(),
            deadlocks.to_string(),
            undelivered.to_string(),
            mean_util(rows.iter().copied(), |t| t.sxb_util),
            mean_util(rows.iter().copied(), |t| t.dxb_util),
            phase_share(rows.iter().copied(), blocked_cycles),
            phase_share(rows.iter().copied(), |a| a.detour_transfer),
        ]);
    }
    t.note("expected: zero deadlocks and zero undelivered everywhere");
    t.note("S-XB util = mean busy fraction of the serializing crossbar's output ports (D-XB = S-XB under this scheme)");
    t.note(
        "blocked % / detour % = attributed share of delivered-packet latency; \
         detour % is non-zero only on rows whose fault forces RC=3 detours",
    );

    let mut v = Table::new(
        "fig10-static",
        "static wait-graph certification (unicast + broadcast, every single fault)",
        &["scheme", "fault", "instances", "verdict"],
    );
    for site in &sites {
        let faults = site.map(FaultSet::single).unwrap_or_default();
        let s = Sr2201Routing::new(net.clone(), &faults).unwrap();
        let verdict = verify_scheme(&net, &s, &faults, TrafficFamily::all());
        v.row(vec![
            "D-XB = S-XB".to_string(),
            site.map(|s| s.to_string()).unwrap_or("none".to_string()),
            verdict.instances.to_string(),
            if verdict.report.deadlock_free() {
                "acyclic (deadlock-free)".to_string()
            } else {
                "CYCLE".to_string()
            },
        ]);
    }
    // The two broken variants, for contrast.
    let faults = FaultSet::single(FaultSite::Router(shape.index_of(Coord::new(&[1, 0]))));
    let cfg = RoutingConfig::for_faults(&shape, &faults)
        .unwrap()
        .with_separate_dxb(&faults)
        .expect("4x3 has a line for a separate D-XB");
    let bad = Sr2201Routing::with_config(net.clone(), cfg, &faults);
    let verdict = verify_scheme(&net, &bad, &faults, TrafficFamily::all());
    v.row(vec![
        "D-XB != S-XB".to_string(),
        "faulty R1".to_string(),
        verdict.instances.to_string(),
        if verdict.report.deadlock_free() {
            "acyclic".to_string()
        } else {
            "CYCLE (fig9 confirmed)".to_string()
        },
    ]);
    let naive = NaiveBroadcast::new(net.clone());
    let verdict = verify_scheme(
        &net,
        &naive,
        &FaultSet::none(),
        TrafficFamily {
            unicast: false,
            broadcast: true,
        },
    );
    v.row(vec![
        "naive broadcast".to_string(),
        "none".to_string(),
        verdict.instances.to_string(),
        if verdict.report.deadlock_free() {
            "acyclic".to_string()
        } else {
            "CYCLE (fig5 confirmed)".to_string()
        },
    ]);
    vec![t, v]
}
