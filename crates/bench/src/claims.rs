//! The quantified comparison claims of Secs. 1-3: MD crossbar vs mesh and
//! torus, hardware detour vs table/software fault handling, hardware vs
//! software broadcast, and the full-scale 2048-PE configuration.

use crate::report::{f3, Table};
use crate::run_schedule;
use mdx_baselines::software::{
    software_tree_broadcast, sp2_software_schedule, DEFAULT_SOFTWARE_OVERHEAD,
};
use mdx_baselines::{DirectDor, TableRouting};
use mdx_core::{Header, Scheme, Sr2201Routing};
use mdx_fault::{FaultSet, FaultSite};
use mdx_sim::{InjectSpec, PacketOutcome, SimConfig, SimOutcome, SimResult};
use mdx_topology::{mesh::DirectNetwork, mesh::Wrap, Coord, MdCrossbar, NetworkGraph, Shape};
use mdx_workloads::{mixed_schedule, unicast_schedule, OpenLoop, TrafficPattern};
use rayon::prelude::*;
use std::sync::Arc;

const PACKET_FLITS: usize = 8;
const WINDOW: u64 = 400;

fn summarize(r: &SimResult) -> (String, String, String, String) {
    let deadlocked = matches!(r.outcome, SimOutcome::Deadlock(_));
    (
        f3(r.stats.mean_latency()),
        r.latency_percentile(99)
            .map(|v| v.to_string())
            .unwrap_or("-".to_string()),
        f3(r.stats.flit_hops_per_cycle()),
        if deadlocked {
            "DEADLOCK".to_string()
        } else {
            format!("{}/{}", r.stats.delivered, r.packets.len())
        },
    )
}

/// Sec. 3.1: load-latency sweep, MD crossbar vs mesh vs torus, 8x8.
pub fn mdx_vs_mesh() -> Vec<Table> {
    let shape = Shape::new(&[8, 8]).unwrap();
    let mdx = Arc::new(MdCrossbar::build(shape.clone()));
    let mesh = Arc::new(DirectNetwork::build(shape.clone(), Wrap::Mesh));
    let torus = Arc::new(DirectNetwork::build(shape.clone(), Wrap::Torus));
    let patterns = [TrafficPattern::UniformRandom, TrafficPattern::Transpose];
    let loads = [0.01f64, 0.02, 0.03, 0.04, 0.06, 0.08];
    let mut tables = Vec::new();
    for pattern in patterns {
        let mut t = Table::new(
            "claim-mdx-vs-mesh",
            &format!(
                "{} traffic, 8x8, {PACKET_FLITS}-flit packets: mean latency (cycles) and delivery",
                pattern.name()
            ),
            &[
                "offered rate (pkts/PE/cyc)",
                "md-crossbar lat",
                "md-crossbar done",
                "mesh lat",
                "mesh done",
                "torus lat",
                "torus done",
                "torus+VC lat",
                "torus+VC done",
            ],
        );
        let rows: Vec<Vec<String>> = loads
            .par_iter()
            .map(|&rate| {
                let cfg = OpenLoop {
                    rate,
                    packet_flits: PACKET_FLITS,
                    window: WINDOW,
                    seed: 7,
                };
                let specs = unicast_schedule(&shape, pattern, cfg, &FaultSet::none());
                let runs: Vec<(NetworkGraph, Arc<dyn Scheme>)> = vec![
                    (
                        mdx.graph().clone(),
                        Arc::new(Sr2201Routing::new(mdx.clone(), &FaultSet::none()).unwrap()),
                    ),
                    (mesh.graph().clone(), Arc::new(DirectDor::new(mesh.clone()))),
                    (
                        torus.graph().clone(),
                        Arc::new(DirectDor::new(torus.clone())),
                    ),
                    (
                        torus.graph().clone(),
                        Arc::new(DirectDor::with_dateline_vcs(torus.clone())),
                    ),
                ];
                let mut row = vec![f3(rate)];
                for (graph, scheme) in runs {
                    let r = run_schedule(&graph, scheme, &specs, SimConfig::default());
                    let (lat, _p99, _thr, done) = summarize(&r);
                    row.push(lat);
                    row.push(done);
                }
                row
            })
            .collect();
        for row in rows {
            t.row(row);
        }
        t.note("same injected schedule on every topology; the plain torus has no virtual channels, so DEADLOCK rows are expected at high load; torus+VC is the classic two-lane dateline fix the T3D class of machines needs — the MD crossbar needs neither");
        tables.push(t);
    }
    tables
}

/// Secs. 1 & 4: cost of fault handling — hardware detour vs T3D-style table
/// rewrite vs SP2-style software transmission.
pub fn fault_overhead() -> Vec<Table> {
    let shape = Shape::new(&[8, 8]).unwrap();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let faulty = shape.index_of(Coord::new(&[3, 2]));
    let faults = FaultSet::single(FaultSite::Router(faulty));
    let rate = 0.02;
    let cfg = OpenLoop {
        rate,
        packet_flits: PACKET_FLITS,
        window: WINDOW,
        seed: 11,
    };
    let specs = unicast_schedule(&shape, TrafficPattern::UniformRandom, cfg, &faults);

    let mut t = Table::new(
        "claim-fault-overhead",
        "uniform traffic, 8x8, one faulty router: fault-handling strategies",
        &[
            "strategy",
            "mean latency",
            "p99",
            "throughput (flit-hops/cyc)",
            "delivered",
            "state cost",
        ],
    );

    // Fault-free reference (same schedule, no fault).
    let reference = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let r = run_schedule(net.graph(), reference, &specs, SimConfig::default());
    let (lat, p99, thr, done) = summarize(&r);
    t.row(vec![
        "no fault (reference)".into(),
        lat,
        p99,
        thr,
        done,
        "-".into(),
    ]);

    // SR2201 hardware detour.
    let sr = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let r = run_schedule(net.graph(), sr, &specs, SimConfig::default());
    let (lat, p99, thr, done) = summarize(&r);
    let regs = mdx_fault::FaultRegisters::derive(&net, &faults);
    t.row(vec![
        "sr2201 hardware detour".into(),
        lat,
        p99,
        thr,
        done,
        format!("{} register bits", regs.total_register_bits()),
    ]);

    // T3D-style table rewrite.
    let table = Arc::new(TableRouting::new(net.clone(), &faults));
    let entries = table.table_entries();
    let r = run_schedule(net.graph(), table, &specs, SimConfig::default());
    let (lat, p99, thr, done) = summarize(&r);
    t.row(vec![
        "t3d-style table rewrite".into(),
        lat,
        p99,
        thr,
        done,
        format!("{entries} table entries"),
    ]);

    // SP2-style software transmission: the hardware still detours, but every
    // packet pays the software path.
    let sw_specs = sp2_software_schedule(&specs, DEFAULT_SOFTWARE_OVERHEAD);
    let sr = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
    let r = run_schedule(net.graph(), sr, &sw_specs, SimConfig::default());
    let mut lat_sum = 0u64;
    let mut lat_max = 0u64;
    let mut done_n = 0usize;
    // Software latency counts from the ORIGINAL request time, including the
    // protocol-stack delay.
    for (orig, p) in specs.iter().zip(&r.packets) {
        if p.outcome == PacketOutcome::Delivered {
            let l = p.finished_at.unwrap() - orig.inject_at;
            lat_sum += l;
            lat_max = lat_max.max(l);
            done_n += 1;
        }
    }
    t.row(vec![
        format!("sp2-style software ({}cyc/pkt)", DEFAULT_SOFTWARE_OVERHEAD),
        f3(lat_sum as f64 / done_n.max(1) as f64),
        lat_max.to_string(),
        f3(r.stats.flit_hops_per_cycle()),
        format!("{done_n}/{}", specs.len()),
        "host CPU per packet".into(),
    ]);
    t.note("shape to reproduce: hardware detour within a few percent of fault-free; table rewrite similar latency but O(switches x PEs) state and no deadlock guarantee; software path an order of magnitude slower");
    vec![t]
}

/// Secs. 1 & 4: broadcast latency scaling — hardware S-XB vs software tree.
pub fn bc_scaling() -> Vec<Table> {
    let mut t = Table::new(
        "claim-bc-scaling",
        "single broadcast completion latency (cycles), hardware S-XB vs software binomial tree",
        &[
            "network",
            "PEs",
            "hw S-XB",
            "sw tree",
            "sw rounds",
            "hw speedup",
        ],
    );
    for dims in [&[4u16, 3][..], &[4, 4], &[8, 8], &[16, 16], &[8, 8, 4]] {
        let shape = Shape::new(dims).unwrap();
        let net = Arc::new(MdCrossbar::build(shape.clone()));
        let scheme: Arc<dyn Scheme> =
            Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let specs = vec![InjectSpec {
            src_pe: 0,
            header: Header::broadcast_request(shape.coord_of(0)),
            flits: PACKET_FLITS,
            inject_at: 0,
        }];
        let r = run_schedule(net.graph(), scheme.clone(), &specs, SimConfig::default());
        assert_eq!(r.outcome, SimOutcome::Completed);
        let hw = r.packets[0].finished_at.unwrap();
        let sw = software_tree_broadcast(
            net.graph(),
            scheme,
            &shape,
            0,
            PACKET_FLITS,
            DEFAULT_SOFTWARE_OVERHEAD,
            SimConfig::default(),
        );
        let extents: Vec<String> = dims.iter().map(|e| e.to_string()).collect();
        t.row(vec![
            format!("md-crossbar {}", extents.join("x")),
            shape.num_pes().to_string(),
            hw.to_string(),
            sw.completion.to_string(),
            sw.rounds.to_string(),
            f3(sw.completion as f64 / hw as f64),
        ]);
    }
    t.note("software tree pays log2(n) sequential rounds x software overhead; the S-XB pipeline cost is one serialized pass");
    vec![t]
}

/// Sec. 2: the full-scale SR2201 (2048 PEs, 16x16x8) exercising routing,
/// broadcast and detour together.
pub fn scale_2048() -> Vec<Table> {
    let shape = Shape::sr2201_full();
    let net = Arc::new(MdCrossbar::build(shape.clone()));
    let mut t = Table::new(
        "claim-scale-2048",
        "full-scale SR2201 (16x16x8 = 2048 PEs): mixed traffic, fault-free and one faulty router",
        &[
            "scenario",
            "packets",
            "outcome",
            "mean latency",
            "p99",
            "sim cycles",
        ],
    );
    for (label, site) in [
        ("fault-free", None),
        ("faulty router (7,9,3)", Some(Coord::new(&[7, 9, 3]))),
    ] {
        let faults = site
            .map(|c| FaultSet::single(FaultSite::Router(shape.index_of(c))))
            .unwrap_or_default();
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &faults).unwrap());
        let mut specs = mixed_schedule(
            &shape,
            TrafficPattern::UniformRandom,
            OpenLoop {
                rate: 0.001,
                packet_flits: PACKET_FLITS,
                window: 300,
                seed: 3,
            },
            0.0,
            &faults,
        );
        // A couple of broadcasts riding on top.
        specs.push(InjectSpec {
            src_pe: 77,
            header: Header::broadcast_request(shape.coord_of(77)),
            flits: PACKET_FLITS,
            inject_at: 50,
        });
        specs.push(InjectSpec {
            src_pe: 1999,
            header: Header::broadcast_request(shape.coord_of(1999)),
            flits: PACKET_FLITS,
            inject_at: 150,
        });
        let r = run_schedule(net.graph(), scheme, &specs, SimConfig::default());
        let (lat, p99, _thr, done) = summarize(&r);
        t.row(vec![
            label.to_string(),
            specs.len().to_string(),
            done,
            lat,
            p99,
            r.stats.cycles.to_string(),
        ]);
    }
    t.note("broadcasts deliver to all 2048 PEs (2047 under the router fault)");
    vec![t]
}
