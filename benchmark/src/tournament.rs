//! The cross-scheme tournament: the whole scheme zoo on four 16-to-64-PE
//! machines (mdx 8x8, hyperx 4x4, fullmesh 16, hypercube 2^6) under
//! none/router/xbar faults with mixed and storm traffic — 168 cells, 36 of
//! which can run. It uses the engine differently from the campaign
//! workloads: the attribution observer is attached to every run,
//! hyperx-ft arbitrates two VC lanes, the shrinker re-runs the engine for
//! every deadlocked cell, and cells run one after another in small rayon
//! batches.
//!
//! `--seed` nudges the mixed rate by up to 1% either way. That moves the
//! generator's Bernoulli thresholds, so every cell draws different
//! traffic, while the offered load, and so the work, stays put. Mixed
//! traffic here carries no broadcasts, so no mixed cell deadlocks and the
//! seed never changes which witnesses the shrinker minimizes; the
//! broadcast deadlocks come from the storm cells. (When the seed changed
//! the witnesses, the window or the packet length, a tournament's wall
//! time moved by a fifth from seed to seed.)

use crate::pace::{stopwatch, Pacer};
use crate::report::{Gate, Outcome};
use crate::rows::{self, EngineTime, SimCounts};
use crate::stats::{self, fnv1a64, median_by};
use crate::{alloc, check_expected_digest, RunArgs, SetupTimes};
use mdx_campaign::{run_campaign_with, run_scenario, shrink, ObsOptions, Scenario, ScenarioReport};
use mdx_core::registry::required_topology;
use mdx_fault::FaultSite;
use mdx_topology::{Shape, XbarRef};
use mdx_tournament::{
    run_tournament, FaultClass, TournamentResult, TournamentSpec, WorkloadTemplate,
};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seeds per cell.
const SEEDS: u64 = 16;

fn spec_text(seed: u64) -> String {
    let nudge: f64 = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7a11).gen_range(-0.01..0.01);
    format!(
        "scheme all\n\
         topology mdx:8x8 hyperx:4x4 fullmesh:16 hypercube:2x2x2x2x2x2\n\
         faults none router xbar\n\
         workload mixed rate={:.6} flits=12 window=200 bc=0\n\
         workload storm flits=16\n\
         seeds {SEEDS}\n",
        0.02 * (1.0 + nudge),
    )
}

/// The scenarios `run_tournament` runs for each cell, in its enumeration
/// order (`None` for a cell it skips). The benchmark rebuilds them to time
/// the cells' layers from outside; `check_cells` holds this copy to the
/// tournament's own table.
fn cell_scenarios(spec: &TournamentSpec) -> Vec<Option<Vec<Scenario>>> {
    let mut cells = Vec::new();
    for scheme in &spec.schemes {
        for (topology, extents) in &spec.topologies {
            for &class in &spec.faults {
                for template in &spec.workloads {
                    cells.push(cell(spec, scheme, topology, extents, class, template));
                }
            }
        }
    }
    cells
}

/// One cell's scenarios, or `None` when the tournament skips it.
fn cell(
    spec: &TournamentSpec,
    scheme: &str,
    topology: &str,
    extents: &[u16],
    class: FaultClass,
    template: &WorkloadTemplate,
) -> Option<Vec<Scenario>> {
    if required_topology(scheme).is_some_and(|t| t != topology) {
        return None;
    }
    let shape = Shape::new(extents).ok()?;
    let sites = match class {
        FaultClass::None => vec![],
        FaultClass::Router => vec![FaultSite::Router(shape.num_pes() / 2)],
        FaultClass::Xbar if topology == "mdx" => vec![FaultSite::Xbar(XbarRef { dim: 0, line: 0 })],
        FaultClass::Xbar => return None,
    };
    let scenarios: Vec<Scenario> = (0..spec.seeds)
        .map(|seed| {
            let workload = template.workload(shape.num_pes());
            let mut s = Scenario::new(extents.to_vec(), scheme, workload, seed)
                .with_topology(topology)
                .with_faults(sites.iter().copied());
            s.max_cycles = spec.max_cycles;
            s.buffer_flits = spec.buffer_flits;
            s
        })
        .collect();
    scenarios[0].network().ok()?;
    Some(scenarios)
}

/// The inputs of one run.
struct Plan {
    spec: TournamentSpec,
    cells: Vec<Option<Vec<Scenario>>>,
}

fn plan(seed: u64) -> Plan {
    let spec = TournamentSpec::parse(&spec_text(seed)).expect("the benchmark grid parses");
    let cells = cell_scenarios(&spec);
    Plan { spec, cells }
}

/// Per rebuilt cell (`None` for a skip), its rows and the seconds they
/// took.
type Rebuilt = Vec<Option<(Vec<ScenarioReport>, f64)>>;

/// Runs every rebuilt cell with `opts`.
fn run_cells(plan: &Plan, opts: &ObsOptions) -> Rebuilt {
    plan.cells
        .iter()
        .map(|c| {
            let scenarios = c.clone()?;
            let t0 = Instant::now();
            let res = run_campaign_with(scenarios, opts);
            Some((res.reports, t0.elapsed().as_secs_f64()))
        })
        .collect()
}

/// Holds the rebuilt cells' rows to the tournament's table.
fn check_cells(out: &mut Outcome, table: &TournamentResult, rebuilt: &Rebuilt) {
    out.gate.check(table.cells.len() == rebuilt.len(), || {
        format!(
            "tournament has {} cells, rebuilt {}",
            table.cells.len(),
            rebuilt.len()
        )
    });
    for (cell, rows) in table.cells.iter().zip(rebuilt) {
        let name = format!(
            "{} {} {} {}",
            cell.scheme, cell.topology, cell.faults, cell.workload
        );
        let Some((rows, _)) = rows else {
            out.gate.check(cell.status == "skip", || {
                format!("{name}: ran, rebuilt as a skip")
            });
            continue;
        };
        let same = cell.status == "ok"
            && cell.runs == rows.len()
            && cell.deadlocks == rows.iter().filter(|r| r.is_deadlock()).count()
            && cell.delivered == rows.iter().map(|r| r.stats.delivered).sum::<usize>()
            && cell.offered == rows.iter().map(|r| r.offered).sum::<usize>()
            && cell.cycles == rows.iter().map(|r| r.stats.cycles).sum::<u64>();
        out.gate.check(same, || {
            format!("{name}: rebuilt rows disagree with the table")
        });
    }
}

fn all_rows(rebuilt: &Rebuilt) -> impl Iterator<Item = &ScenarioReport> {
    rebuilt.iter().flatten().flat_map(|(rows, _)| rows)
}

/// Per-layer numbers of one traced iteration.
struct LayerIter {
    engine: EngineTime,
    attribution_share: f64,
    shrink_s: f64,
    overhead: f64,
    /// The tournament's own wall time, the base of every share.
    secs: f64,
}

/// Times the tournament's layers from outside: every rebuilt cell through
/// `run_campaign_with` with default options and again with attribution
/// and latency pools on, as `run_tournament` runs them (both with phase
/// timing), then `shrink` on every witness's source token. Checks that
/// attribution changes no row and that each shrink gives the table's
/// witness. Returns the split and the plain rows.
fn traced_iteration(
    gate: &mut Gate,
    plan: &Plan,
    table: &TournamentResult,
    secs: f64,
) -> (LayerIter, Rebuilt) {
    let phases = ObsOptions {
        profile_phases: true,
        ..ObsOptions::default()
    };
    let plain = run_cells(plan, &phases);
    let attributed = run_cells(
        plan,
        &ObsOptions {
            attribution: true,
            latencies: true,
            ..phases
        },
    );
    let digests = |cells: &Rebuilt| stats::digest_of(all_rows(cells).map(|r| r.digest.as_str()));
    let (dp, da) = (digests(&plain), digests(&attributed));
    gate.check(dp == da, || {
        format!("tournament: attributed rows {da} differ from plain rows {dp}")
    });
    let cell_time = |cells: &Rebuilt| cells.iter().flatten().map(|(_, t)| t).sum::<f64>();
    let attributed_s = cell_time(&attributed);
    let mut shrink_s = 0.0;
    for w in table.cells.iter().filter_map(|c| c.witness.as_ref()) {
        let t0 = Instant::now();
        let shrunk = Scenario::from_token(&w.from_token).map(|s| shrink(&s));
        shrink_s += t0.elapsed().as_secs_f64();
        gate.check(matches!(&shrunk, Ok(Ok(r)) if r.token == w.token), || {
            format!(
                "tournament: shrinking {} did not give its witness",
                w.from_token
            )
        });
    }
    let layer = LayerIter {
        engine: EngineTime::of(all_rows(&plain)),
        attribution_share: (attributed_s - cell_time(&plain)) / secs,
        shrink_s,
        overhead: (attributed_s + shrink_s) / secs,
        secs,
    };
    (layer, plain)
}

/// Runs the tournament workload.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let plan = plan(args.seed);
    let mut setups = SetupTimes::default();

    let mut times = Vec::new();
    let mut heap_mb = Vec::new();
    let mut first: Option<(TournamentResult, String)> = None;
    let mut layers = Vec::new();
    let mut rebuilt_first = None;
    // The first tournament warms caches and the allocator; it is checked
    // but not timed, and the clock starts after it.
    let mut pacer = Pacer::new();
    let mut start = Instant::now();
    let mut i = 0;
    while i < 2 || start.elapsed() < args.budget() {
        let warm_up = i == 0;
        i += 1;
        let paced = pacer.time(|| {
            let rebuilt = stopwatch(|| self::plan(args.seed));
            alloc::reset_peak();
            let (table, secs) = stopwatch(|| run_tournament(&plan.spec));
            (table, secs, alloc::peak_mb(), rebuilt)
        });
        let (table, secs, heap, (_, setup_secs)) = paced.value;
        if !warm_up {
            setups.push(setup_secs, paced.scale);
            times.push(secs * paced.scale);
            heap_mb.push(heap);
        }
        out.gate.ok(table.ok_cells().map(|c| c.runs as u64).sum());
        let digest = format!("{:016x}", fnv1a64(table.to_jsonl().as_bytes()));
        match &first {
            None => {
                check_expected_digest(&mut out.gate, "tournament", args.seed, &digest);
                first = Some((table, digest));
            }
            Some((_, d)) => out.gate.check(*d == digest, || {
                format!("tournament gave {digest} on a rerun, {d} before")
            }),
        }
        if args.trace {
            let (table, _) = first.as_ref().expect("set above");
            let (layer, plain) = traced_iteration(&mut out.gate, &plan, table, secs);
            if !warm_up {
                layers.push(layer);
            }
            rebuilt_first.get_or_insert(plain);
        }
        if warm_up {
            start = Instant::now();
        }
    }
    let (table, _) = first.expect("at least one tournament ran");
    let rebuilt = rebuilt_first.unwrap_or_else(|| run_cells(&plan, &ObsOptions::default()));
    check_cells(&mut out, &table, &rebuilt);

    for c in table.ok_cells().filter(|c| c.scheme == "sr2201") {
        out.gate.check(c.deadlocks == 0, || {
            format!(
                "sr2201 deadlocked on {} {} {}",
                c.topology, c.faults, c.workload
            )
        });
    }
    let witnesses: Vec<_> = table
        .cells
        .iter()
        .filter_map(|c| c.witness.as_ref())
        .collect();
    for w in &witnesses {
        let outcome = Scenario::from_token(&w.token)
            .map_err(|e| e.to_string())
            .and_then(|s| run_scenario(&s).map_err(|e| e.to_string()))
            .map(|r| r.outcome);
        out.gate.check(outcome.as_deref() == Ok("deadlock"), || {
            format!("witness {} replayed to {outcome:?}", w.token)
        });
    }
    let cells_ok = table.ok_cells().count();
    out.gate
        .check(cells_ok == plan.cells.iter().flatten().count(), || {
            format!("{cells_ok} cells ran")
        });
    let pool: Vec<(String, String)> = all_rows(&rebuilt)
        .map(|r| (r.token.clone(), r.digest.clone()))
        .collect();
    rows::replay_sample(&mut out, &pool, args.seed);

    let runs: usize = table.ok_cells().map(|c| c.runs).sum();
    let hops: u64 = all_rows(&rebuilt).map(|r| r.stats.flit_hops).sum();
    setups.report(&mut out);
    out.set("rows_per_s", median_by(&times, |t| runs as f64 / t));
    out.set("flit_hops_per_s", median_by(&times, |t| hops as f64 / t));
    out.set("latency_ms", median_by(&times, |t| t * 1e3));
    out.set("peak_heap_mb", stats::median(&heap_mb));
    out.set("host.slowdown", pacer.slowdown());
    out.set("tournament.cells_ok", cells_ok as f64);
    out.set("tournament.witnesses", witnesses.len() as f64);
    eprintln!(
        "tournament: {} timed tournaments of {} cells ({cells_ok} ran), {} deadlocks, {} witnesses",
        times.len(),
        table.cells.len(),
        table.ok_cells().map(|c| c.deadlocks).sum::<usize>(),
        witnesses.len()
    );

    if args.trace {
        rows::set_sim_counts(&mut out, all_rows(&rebuilt).map(SimCounts::of).sum());
        let engine: Vec<EngineTime> = layers.iter().map(|l| l.engine).collect();
        rows::set_engine_time(&mut out, &engine);
        out.set(
            "obs.attribution_share",
            median_by(&layers, |l| l.attribution_share),
        );
        out.set("campaign.shrink_s", median_by(&layers, |l| l.shrink_s));
        out.set(
            "campaign.shrink_share",
            median_by(&layers, |l| l.shrink_s / l.secs),
        );
        out.set("trace_overhead", median_by(&layers, |l| l.overhead));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_has_168_cells_of_which_36_run() {
        let p = plan(1);
        assert_eq!(p.spec.num_cells(), 168);
        assert_eq!(p.cells.len(), 168);
        assert_eq!(p.cells.iter().flatten().count(), 36);
    }

    #[test]
    fn the_seed_changes_the_traffic_not_the_load() {
        assert_eq!(spec_text(4), spec_text(4));
        let mixed = |seed| {
            let spec = plan(seed).spec;
            let WorkloadTemplate::Mixed { rate, .. } = spec.workloads[0] else {
                panic!("mixed comes first");
            };
            assert!((0.0198..=0.0202).contains(&rate), "{rate}");
            let s = Scenario::new(vec![8, 8], "sr2201", spec.workloads[0].workload(64), 0);
            s.specs(&s.shape_obj().unwrap(), &s.fault_set().unwrap())
        };
        let (a, b) = (mixed(4), mixed(5));
        assert_ne!(a, b, "two seeds drew the same packets");
        let ratio = a.len() as f64 / b.len() as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "{} vs {} packets",
            a.len(),
            b.len()
        );
    }
}
