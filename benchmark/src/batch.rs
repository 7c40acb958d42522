//! The two campaign workloads, run through `run_campaign` in units that
//! repeat until the time budget is spent.
//!
//! - `sweep` is the paper's Fig. 9/10 grid on the 4x3 machine: three
//!   schemes × (fault-free + every single fault) × mixed/storm/detour.
//!   Rows are tiny and about a fifth deadlock and idle through the
//!   watchdog, so it stresses the watchdog idle path, per-row runner
//!   overhead and the rayon shim's scheduling of uneven rows.
//! - `load` is sr2201 alone on 8x8 under heavier mixed traffic: every row
//!   completes with no idle ticks, so `step()` arbitration and flit
//!   movement dominate and rows cost the same. It is the control for any
//!   watchdog or scheduling change.

use crate::pace::{stopwatch, Pacer};
use crate::report::Outcome;
use crate::rows::{self, EngineTime, SimCounts};
use crate::stats::{self, digest_of, median_by};
use crate::{alloc, check_expected_digest, RunArgs, SetupTimes};
use mdx_campaign::{
    enumerate_fault_sets, enumerate_scenarios, run_campaign, run_campaign_traced, CampaignConfig,
    CampaignResult, ObsOptions, Scenario, Workload,
};
use mdx_obs::SpanCollector;
use mdx_topology::{MdCrossbar, Shape};
use mdx_workloads::TrafficPattern;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 9/10 grid on 4x3.
    Sweep,
    /// sr2201 on 8x8 under steady mixed traffic.
    Load,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Load => "load",
        }
    }
}

/// Sweep units; unit k holds the grid's enumeration seeds congruent to k.
/// Units are short (about 0.2 s on two cores) so that the pace slices
/// either side of one see the host as it ran.
const SWEEP_UNITS: u64 = 16;
/// Enumeration seeds per sweep unit (576 rows each).
const SWEEP_SEEDS_PER_UNIT: u64 = 2;
/// Load units; the 435-row grid is dealt round-robin into them, 15 rows
/// (about 0.35 s on two cores) each.
const LOAD_UNITS: usize = 29;
/// Rows per fault set in the load grid.
const LOAD_SEEDS: u64 = 3;

/// The units of one run: every scenario the run may execute, built from
/// `seed` alone. Each row gets a scenario seed of its own, so no two rows
/// share a traffic draw and a run's cost does not hang on a few draws.
fn plan(kind: Kind, seed: u64) -> Vec<Vec<Scenario>> {
    match kind {
        Kind::Sweep => {
            let seeds = SWEEP_UNITS * SWEEP_SEEDS_PER_UNIT;
            let cfg = CampaignConfig {
                seeds,
                ..CampaignConfig::default()
            };
            let grid = enumerate_scenarios(&cfg).expect("the default grid enumerates");
            let n = grid.len() as u64;
            let mut units = vec![Vec::new(); SWEEP_UNITS as usize];
            for (i, mut s) in (0..).zip(grid) {
                units[(s.seed % SWEEP_UNITS) as usize].push({
                    s.seed = n * seed + i;
                    s
                });
            }
            units
        }
        Kind::Load => {
            let shape = vec![8, 8];
            let cfg = CampaignConfig {
                shape: shape.clone(),
                ..CampaignConfig::default()
            };
            let net = MdCrossbar::build(Shape::new(&shape).expect("8x8 is a shape"));
            let fault_sets = enumerate_fault_sets(&net, &cfg);
            let n = LOAD_SEEDS * fault_sets.len() as u64;
            let mut units = vec![Vec::new(); LOAD_UNITS];
            let mut i = 0;
            for _ in 0..LOAD_SEEDS {
                for faults in &fault_sets {
                    let workload = Workload::Mixed {
                        pattern: TrafficPattern::UniformRandom,
                        rate: 0.05,
                        packet_flits: 12,
                        window: 400,
                        broadcast_rate: 0.002,
                    };
                    let s = Scenario::new(shape.clone(), "sr2201", workload, n * seed + i)
                        .with_faults(faults.sites());
                    units[i as usize % LOAD_UNITS].push(s);
                    i += 1;
                }
            }
            units
        }
    }
}

/// One timed unit.
struct UnitTime {
    rows: usize,
    flit_hops: u64,
    /// Wall time at reference pace.
    secs: f64,
    /// Peak heap in use while the unit ran.
    heap_mb: f64,
}

/// Per-layer numbers of one traced unit.
struct LayerUnit {
    engine: EngineTime,
    worker_util: f64,
    collect_s: f64,
    overhead: f64,
}

fn rows_digest(res: &CampaignResult) -> String {
    digest_of(res.reports.iter().map(|r| r.digest.as_str()))
}

/// Runs `unit` again through `run_campaign_traced` with phase timing on
/// and every row traced, and reads the layers from its spans and rows.
/// Returns the rows, the unit's split, and each row's run time in ms.
///
/// With a collector attached the runner also serializes every row once
/// (the plain `run_campaign` never does); that cost lands in each row's
/// root span and in `trace_overhead`, and no metric reports it on its own.
fn traced_unit(unit: &[Scenario], plain_secs: f64) -> (CampaignResult, LayerUnit, Vec<f64>) {
    let collector = SpanCollector::new(1.0).with_capacity(unit.len().max(1));
    let opts = ObsOptions {
        profile_phases: true,
        ..ObsOptions::default()
    };
    let t0 = Instant::now();
    let traced = run_campaign_traced(unit.to_vec(), &opts, None, Some(&collector));
    let secs = t0.elapsed().as_secs_f64();
    let mut row_ms = Vec::with_capacity(unit.len());
    let mut busy_s = 0.0;
    for span in collector.kept_traces().iter().flatten() {
        match span.name.as_str() {
            "run" => row_ms.push(span.duration() as f64 / 1e3),
            "row" => busy_s += span.duration() as f64 / 1e6,
            _ => {}
        }
    }
    let run_s = row_ms.iter().sum::<f64>() / 1e3;
    let engine = EngineTime::of(&traced.reports);
    // The rayon shim runs one thread per core, or one per row if fewer.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(unit.len())
        .max(1);
    let layer = LayerUnit {
        engine,
        // A worker is busy from a row's start to its end, tracing
        // included; the rest of the unit's wall time it waits.
        worker_util: busy_s / (secs * workers as f64),
        collect_s: run_s - engine.busy_s,
        overhead: secs / plain_secs,
    };
    (traced, layer, row_ms)
}

/// Runs a campaign workload for the time budget.
pub fn run(kind: Kind, args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let units = plan(kind, args.seed);
    let mut setups = SetupTimes::default();
    let mut timed = Vec::new();
    let mut layers = Vec::new();
    let mut row_ms = Vec::new();
    let mut first_digest: Vec<Option<String>> = vec![None; units.len()];
    let mut deadlocks: BTreeMap<String, usize> = BTreeMap::new();
    let mut replay_pool: Vec<(String, String)> = Vec::new();
    let mut counted: Option<CampaignResult> = None;

    // The first unit warms caches and the allocator; it is checked but
    // not timed, and the clock starts after it.
    let mut pacer = Pacer::new();
    let mut start = Instant::now();
    let mut i = 0;
    while i < 2 || start.elapsed() < args.budget() {
        let warm_up = i == 0;
        let u = i % units.len();
        let input = units[u].clone();
        let paced = pacer.time(|| {
            let rebuilt = stopwatch(|| plan(kind, args.seed));
            alloc::reset_peak();
            let (res, secs) = stopwatch(|| run_campaign(input));
            (res, secs, alloc::peak_mb(), rebuilt)
        });
        let (res, secs, heap_mb, (_, setup_secs)) = paced.value;
        if !warm_up {
            setups.push(setup_secs, paced.scale);
            timed.push(UnitTime {
                rows: res.reports.len(),
                flit_hops: res.reports.iter().map(|r| r.stats.flit_hops).sum(),
                secs: secs * paced.scale,
                heap_mb,
            });
        }

        out.gate.ok(res.reports.len() as u64);
        for (s, reason) in &res.skipped {
            out.gate
                .fail(format!("{}: unexpected skip of {s}: {reason}", kind.name()));
        }
        for r in res.reports.iter().filter(|r| r.is_deadlock()) {
            *deadlocks.entry(r.scenario.scheme.clone()).or_default() += 1;
            if r.scenario.scheme == "sr2201" {
                out.gate.fail(format!("sr2201 deadlocked: {}", r.token));
            }
        }
        let digest = rows_digest(&res);
        match &first_digest[u] {
            None => {
                if u == 0 {
                    check_expected_digest(&mut out.gate, kind.name(), args.seed, &digest);
                    replay_pool = res
                        .reports
                        .iter()
                        .map(|r| (r.token.clone(), r.digest.clone()))
                        .collect();
                }
                first_digest[u] = Some(digest.clone());
            }
            Some(first) => out.gate.check(*first == digest, || {
                format!(
                    "{}: unit {u} gave {digest} on a rerun, {first} before",
                    kind.name()
                )
            }),
        }

        if args.trace {
            let (traced, layer, ms) = traced_unit(&units[u], secs);
            let traced_digest = rows_digest(&traced);
            out.gate.check(traced_digest == digest, || {
                format!(
                    "{}: traced unit {u} gave {traced_digest}, untraced {digest}",
                    kind.name()
                )
            });
            if !warm_up {
                layers.push(layer);
                row_ms.extend(ms);
            }
            counted.get_or_insert(traced);
        }
        if warm_up {
            start = Instant::now();
        }
        i += 1;
    }

    if kind == Kind::Sweep {
        for scheme in ["separate-dxb", "naive-broadcast"] {
            let n = deadlocks.get(scheme).copied().unwrap_or(0);
            out.gate
                .check(n > 0, || format!("{scheme} never deadlocked on sweep"));
        }
    }
    rows::replay_sample(&mut out, &replay_pool, args.seed);

    setups.report(&mut out);
    out.set("rows_per_s", median_by(&timed, |t| t.rows as f64 / t.secs));
    out.set(
        "flit_hops_per_s",
        median_by(&timed, |t| t.flit_hops as f64 / t.secs),
    );
    out.set("latency_ms", median_by(&timed, |t| t.secs * 1e3));
    out.set("peak_heap_mb", median_by(&timed, |t| t.heap_mb));
    out.set("host.slowdown", pacer.slowdown());
    eprintln!(
        "{}: {} timed units of {} rows; deadlocks by scheme {deadlocks:?}",
        kind.name(),
        timed.len(),
        units[0].len()
    );

    if let Some(first) = &counted {
        rows::set_sim_counts(&mut out, first.reports.iter().map(SimCounts::of).sum());
        let engine: Vec<EngineTime> = layers.iter().map(|l| l.engine).collect();
        rows::set_engine_time(&mut out, &engine);
        out.set(
            "campaign.worker_util",
            median_by(&layers, |l| l.worker_util),
        );
        out.set("campaign.collect_s", median_by(&layers, |l| l.collect_s));
        out.set("trace_overhead", median_by(&layers, |l| l.overhead));
        let sorted = stats::sorted(&row_ms);
        out.set(
            "campaign.row_ms_p50",
            stats::nearest_rank(&sorted, 500).unwrap_or(0.0),
        );
        let tail = stats::tail(&sorted);
        out.set("campaign.row_ms_tail", tail.map_or(0.0, |t| t.1));
        eprintln!(
            "{}: row run time p50 over {} rows; tail is p{}",
            kind.name(),
            sorted.len(),
            tail.map_or(0.0, |t| t.0)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_depend_on_the_seed_only() {
        for kind in [Kind::Sweep, Kind::Load] {
            let a = plan(kind, 1);
            assert_eq!(a, plan(kind, 1));
            assert_ne!(a, plan(kind, 2));
        }
        let sweep = plan(Kind::Sweep, 1);
        assert!(sweep.iter().all(|u| u.len() == 576));
        assert!(plan(Kind::Load, 1).iter().all(|u| u.len() == 15));
    }
}
