//! Golden engine rows: a fixed corpus of runs whose complete output is
//! compared byte for byte against `tests/golden/engine_rows.jsonl`.
//!
//! Each golden line is one run: its campaign row JSON (self-profile
//! included) plus the number of engine steps it executed, which the row
//! does not carry. The corpus covers the paths a change to
//! `Simulator::step` can disturb:
//!
//! * every registered scheme on its home topology, so `hyperx-ft` and
//!   `o1turn` cover two VC lanes;
//! * the mixed, storm, detour and explicit workloads, fault-free and with
//!   one fault, at wormhole (2-flit) and cut-through (16-flit) buffers;
//! * a live fault timeline under each recovery policy: drop and reinject
//!   abort their victims, reroute pauses them;
//! * a streaming spec with a storm and its repair;
//! * the Fig. 9 cycle: `separate-dxb` deadlocks on a detoured row with a
//!   `fig9-detour-cross` post-mortem, and `sr2201` completes the same row;
//! * mixed and storm rows with every observer attached (metrics,
//!   attribution, flight recorder, a 16-cycle stall probe and windows),
//!   whose full reports pin the order of the observer hooks;
//! * store-and-forward and recorded routes, which tokens do not carry, as
//!   the engine's own `SimResult` JSON.
//!
//! A second corpus, `tests/golden/engine_rows_8x8.jsonl`, runs the
//! benchmark's `load` row scale, where a step holds hundreds of live
//! visits and several complete at once:
//!
//! * the `load` row (sr2201 on 8x8 under heavy mixed traffic), fault-free
//!   and under a router fault and a crossbar fault;
//! * a live 8x8 crossbar fault under `reroute`, so paused visits sit among
//!   the live ones while others finish;
//! * `hyperx-ft` on 4x4 at the same load, whose two lanes apply the moves
//!   of visits that complete together out of creation order;
//! * one 8x8 row with every observer attached, which pins hook order.
//!
//! The goldens are never regenerated. On a mismatch the actual bytes are
//! written to the test's scratch directory for inspection, and the engine
//! has to be fixed instead.

use mdx_campaign::{
    detour_stress_for, run_scenario_instrumented, ObsOptions, Scenario, ScenarioReport, Telemetry,
    Workload, CAMPAIGN_SCHEMES,
};
use mdx_core::registry::{build_scheme_for, required_topology, SCHEME_IDS};
use mdx_core::Header;
use mdx_fault::{FaultSet, FaultSite, FaultTimeline};
use mdx_reconfig::{drive_reconfig, ReconfigSpec, RecoveryPolicy};
use mdx_sim::{InjectSpec, SimConfig, SimObserver, Simulator};
use mdx_topology::{MdCrossbar, Network, Shape, XbarRef};
use mdx_workloads::{StreamSpec, TrafficPattern};
use std::path::Path;
use std::sync::Arc;

/// Stands in for the runner's observer fan-out when counting steps: any
/// attached observer makes the engine mark blocked requests (which can
/// end a fixed point early), and a stall probe bounds every fast-forward.
struct StepProbe(Option<u64>);

impl SimObserver for StepProbe {
    fn probe_interval(&self) -> Option<u64> {
        self.0
    }
}

/// Steps the engine executes on `scenario`, driven the way the campaign
/// runner drives it: the same schedule, stream source and reconfiguration
/// protocol, with a stand-in observer when `opts` attaches any.
fn executed_steps(scenario: &Scenario, opts: &ObsOptions) -> u64 {
    let shape = scenario.shape_obj().unwrap();
    let faults = scenario.fault_set().unwrap();
    let net = scenario.network().unwrap();
    let scheme = build_scheme_for(&scenario.scheme, &net, &faults).unwrap();
    let mut sim = Simulator::new(net.graph().clone(), scheme, scenario.sim_config());
    if !opts.is_none() {
        sim.add_observer(StepProbe(opts.stall_probe));
    }
    for spec in scenario.specs(&shape, &faults) {
        sim.schedule(spec);
    }
    if let Some(source) = scenario.stream_source(&shape, &faults).unwrap() {
        sim.set_traffic_source(Box::new(source));
    }
    let result = match scenario.effective_reconfig() {
        Some(rspec) => {
            let mdx = net.as_mdx().expect("timelines run on the crossbar");
            drive_reconfig(&mut sim, mdx, &scenario.scheme, &faults, &rspec)
                .unwrap()
                .result
        }
        None => sim.run(),
    };
    result.profile.expect("fresh runs carry a profile").steps
}

/// Accumulates golden lines.
#[derive(Default)]
struct Corpus {
    lines: Vec<String>,
}

impl Corpus {
    /// Runs `scenario` with `opts` attached and appends its line: the row,
    /// the executed step count and, for instrumented runs, the full
    /// observer reports. Returns the row and telemetry for extra checks.
    fn row(
        &mut self,
        name: &str,
        scenario: &Scenario,
        opts: &ObsOptions,
    ) -> (ScenarioReport, Telemetry) {
        let (report, telemetry) =
            run_scenario_instrumented(scenario, opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let steps = executed_steps(scenario, opts);
        let row = serde_json::to_string(&report).unwrap();
        let reports = if opts.is_none() {
            String::new()
        } else {
            format!(
                ",\"metrics\":{},\"stall\":{},\"attribution\":{},\"windows\":{}",
                serde_json::to_string(&telemetry.metrics).unwrap(),
                serde_json::to_string(&telemetry.stall).unwrap(),
                serde_json::to_string(&telemetry.attribution).unwrap(),
                serde_json::to_string(&telemetry.windows).unwrap(),
            )
        };
        self.lines.push(format!(
            "{{\"name\":\"{name}\",\"steps\":{steps},\"row\":{row}{reports}}}"
        ));
        (report, telemetry)
    }

    /// Runs `specs` through a bare engine with `cfg` and appends the
    /// `SimResult` JSON with the executed step count.
    fn sim(&mut self, name: &str, cfg: SimConfig, specs: &[InjectSpec]) {
        let net = Network::Mdx(Arc::new(MdCrossbar::build(Shape::fig2())));
        let scheme = build_scheme_for("sr2201", &net, &FaultSet::none()).unwrap();
        let mut sim = Simulator::new(net.graph().clone(), scheme, cfg);
        for &spec in specs {
            sim.schedule(spec);
        }
        let result = sim.run();
        let steps = result.profile.as_ref().unwrap().steps;
        let json = serde_json::to_string(&result).unwrap();
        self.lines.push(format!(
            "{{\"name\":\"{name}\",\"steps\":{steps},\"result\":{json}}}"
        ));
    }

    fn text(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

/// The campaign's default mixed traffic on 4x3.
fn mixed() -> Workload {
    Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.02,
        packet_flits: 12,
        window: 200,
        broadcast_rate: 0.002,
    }
}

/// Unicasts and broadcasts at hand-picked cycles on 4x3, two of them
/// contending for the same row crossbar exit.
fn explicit(shape: &Shape) -> Workload {
    let uni = |src: usize, dst: usize, flits: usize, at: u64| InjectSpec {
        src_pe: src,
        header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
        flits,
        inject_at: at,
    };
    let bc = |src: usize, flits: usize, at: u64| InjectSpec {
        src_pe: src,
        header: Header::broadcast_request(shape.coord_of(src)),
        flits,
        inject_at: at,
    };
    Workload::Explicit {
        specs: vec![
            uni(0, 11, 10, 0),
            uni(4, 3, 6, 0),
            bc(7, 8, 2),
            uni(8, 3, 12, 3),
            bc(2, 5, 9),
            uni(10, 5, 4, 14),
            uni(3, 8, 20, 15),
        ],
    }
}

fn build_corpus() -> Corpus {
    let mut corpus = Corpus::default();
    let plain = ObsOptions::default();
    let shape = Shape::new(&[4, 3]).unwrap();

    // Every scheme on its home topology.
    for &id in SCHEME_IDS {
        let topology = required_topology(id).unwrap();
        let extents = match topology {
            "hyperx" => vec![3, 3],
            "fullmesh" => vec![6],
            "hypercube" => vec![2, 2, 2],
            _ => vec![4, 3],
        };
        let workload = Workload::Mixed {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.04,
            packet_flits: 8,
            window: 150,
            broadcast_rate: 0.002,
        };
        let s = Scenario::new(extents, id, workload, 3).with_topology(topology);
        corpus.row(&format!("zoo/{id}"), &s, &plain);
        let faulted = s.with_faults([FaultSite::Router(4)]);
        corpus.row(&format!("zoo/{id}/router4"), &faulted, &plain);
    }

    // The batch workloads on the campaign schemes: fault-free and with
    // the router the detour recipe routes around, wormhole and
    // cut-through buffers.
    let workloads = [
        ("mixed", mixed()),
        (
            "storm",
            Workload::BroadcastStorm {
                sources: vec![0, 3, 6, 9],
                flits: 16,
            },
        ),
        ("detour", detour_stress_for(&shape, 24, 20)),
        ("explicit", explicit(&shape)),
    ];
    for &scheme in CAMPAIGN_SCHEMES {
        for (wl, workload) in &workloads {
            for faults in [vec![], vec![FaultSite::Router(1)]] {
                for buffer in [2, 16] {
                    let mut s = Scenario::new(vec![4, 3], scheme, workload.clone(), 5)
                        .with_faults(faults.clone());
                    s.buffer_flits = buffer;
                    let name = format!("{scheme}/{wl}/faults{}/buf{buffer}", faults.len());
                    corpus.row(&name, &s, &plain);
                }
            }
        }
    }

    // A live crossbar fault under each recovery policy.
    let site = FaultSite::Xbar(XbarRef { dim: 0, line: 1 });
    for policy in [
        RecoveryPolicy::Drop,
        RecoveryPolicy::Reinject,
        RecoveryPolicy::Reroute,
    ] {
        let timeline = FaultTimeline::new().inject(site, 40).repair(site, 260);
        let s = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::FaultStorm {
                rate: 0.03,
                packet_flits: 8,
                window: 200,
                burst: 6,
            },
            2,
        )
        .with_reconfig(ReconfigSpec::new(timeline).with_policy(policy));
        let (row, _) = corpus.row(&format!("live/{}", policy.name()), &s, &plain);
        let epoch = &row.reconfig.expect("timelines report").epochs[0];
        assert!(
            epoch.victims > 0,
            "{policy:?}: the fault must wound traffic"
        );
        // Drop and reinject abort every victim; reroute pauses some in place.
        assert_eq!(epoch.rerouted > 0, policy == RecoveryPolicy::Reroute);
    }

    // A streaming spec with a storm and its repair.
    let spec = StreamSpec::parse(
        "seed 17\nflits 6\nphase 0..600 uniform rate=0.04\n\
         storm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200\n",
    )
    .unwrap();
    let mut s = Scenario::new(vec![4, 4], "sr2201", Workload::Stream { spec }, 23);
    s.max_cycles = 1200;
    corpus.row("stream/storm-repair", &s, &plain);

    // The Fig. 9 cycle: separate D-XB deadlocks where the paper's scheme
    // completes.
    let flight = ObsOptions {
        flight: true,
        ..ObsOptions::default()
    };
    let fig9 = |scheme: &str| {
        Scenario::new(vec![4, 3], scheme, mixed(), 0).with_faults([FaultSite::Router(6)])
    };
    let (_, telemetry) = corpus.row("fig9/separate-dxb", &fig9("separate-dxb"), &flight);
    let pm = telemetry.postmortem.expect("separate-dxb must fail");
    assert_eq!(pm.outcome, "deadlock");
    assert_eq!(pm.classification, "fig9-detour-cross");
    let (row, _) = corpus.row("fig9/sr2201", &fig9("sr2201"), &flight);
    assert_eq!(row.outcome, "completed");

    // Every observer at once, on a completing and a deadlocking row.
    let all = ObsOptions {
        metrics: true,
        stall_probe: Some(16),
        flight: true,
        attribution: true,
        windows: Some(50),
        ..ObsOptions::default()
    };
    let s = Scenario::new(vec![4, 3], "sr2201", mixed(), 7).with_faults([FaultSite::Router(5)]);
    corpus.row("instrumented/sr2201/mixed", &s, &all);
    let storm = Workload::BroadcastStorm {
        sources: vec![0, 4, 8, 3],
        flits: 16,
    };
    for scheme in ["sr2201", "naive-broadcast"] {
        let s = Scenario::new(vec![4, 3], scheme, storm.clone(), 1);
        corpus.row(&format!("instrumented/{scheme}/storm"), &s, &all);
    }

    // Engine knobs that tokens do not carry.
    let fig2 = Shape::fig2();
    let Workload::Explicit { specs } = explicit(&fig2) else {
        unreachable!()
    };
    corpus.sim(
        "sim/store-and-forward",
        SimConfig {
            store_and_forward: true,
            buffer_flits: 32,
            ..SimConfig::default()
        },
        &specs,
    );
    corpus.sim(
        "sim/record-routes",
        SimConfig {
            record_routes: true,
            ..SimConfig::default()
        },
        &specs,
    );
    corpus
}

/// The benchmark's `load` traffic, heavy mixed uniform traffic, injected
/// for `window` cycles (400 in the benchmark).
fn load(window: u64) -> Workload {
    Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        packet_flits: 12,
        window,
        broadcast_rate: 0.002,
    }
}

fn build_corpus_8x8() -> Corpus {
    let mut corpus = Corpus::default();
    let plain = ObsOptions::default();
    let row = |faults: Vec<FaultSite>| {
        Scenario::new(vec![8, 8], "sr2201", load(400), 11).with_faults(faults)
    };
    let xbar = FaultSite::Xbar(XbarRef { dim: 1, line: 5 });
    corpus.row("load/faults0", &row(vec![]), &plain);
    corpus.row("load/router27", &row(vec![FaultSite::Router(27)]), &plain);
    corpus.row("load/xbar1:5", &row(vec![xbar]), &plain);

    let live = FaultSite::Xbar(XbarRef { dim: 0, line: 2 });
    let timeline = FaultTimeline::new().inject(live, 150).repair(live, 900);
    let s = Scenario::new(vec![8, 8], "sr2201", load(400), 12)
        .with_reconfig(ReconfigSpec::new(timeline).with_policy(RecoveryPolicy::Reroute));
    let (row, _) = corpus.row("live/reroute", &s, &plain);
    let epoch = &row.reconfig.expect("timelines report").epochs[0];
    assert!(epoch.rerouted > 0, "the fault must pause traffic in place");

    let s = Scenario::new(vec![4, 4], "hyperx-ft", load(400), 13).with_topology("hyperx");
    corpus.row("zoo/hyperx-ft", &s, &plain);

    let all = ObsOptions {
        metrics: true,
        stall_probe: Some(16),
        flight: true,
        attribution: true,
        windows: Some(50),
        ..ObsOptions::default()
    };
    // A shorter window keeps the per-packet reports small.
    let s = Scenario::new(vec![8, 8], "sr2201", load(100), 14).with_faults([FaultSite::Router(9)]);
    corpus.row("instrumented/load/router9", &s, &all);
    corpus
}

/// Compares `corpus` with the golden file `golden`, writing the actual
/// bytes to the test's scratch directory on a mismatch.
fn assert_golden(corpus: &Corpus, golden: &str) {
    let actual = corpus.text();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden);
        std::fs::write(&out, &actual).expect("write actual output");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || "a missing or extra line".to_string(),
                |i| {
                    let name = corpus.lines[i].split('"').nth(3).unwrap_or("?");
                    format!("line {} ({name})", i + 1)
                },
            );
        panic!(
            "{golden} differs at {first}; actual output written to {}",
            out.display()
        );
    }
}

#[test]
fn engine_rows_match_golden() {
    assert_golden(&build_corpus(), "engine_rows.jsonl");
}

#[test]
fn engine_rows_8x8_match_golden() {
    assert_golden(&build_corpus_8x8(), "engine_rows_8x8.jsonl");
}
