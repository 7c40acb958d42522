//! Cross-run bench trajectory: append-only metric snapshots with
//! regression diffs.
//!
//! A *trajectory file* (`BENCH_fig9.json`, `BENCH_fig10.json`) accumulates
//! one [`TrajectoryEntry`] per invocation of the `experiments trajectory`
//! subcommand: throughput, latency, deadlock rate, and S-XB utilization of
//! a scaled-down Fig. 9 / Fig. 10 sweep. [`append_snapshot`] appends the
//! new entry and diffs it against the previous one, flagging any metric
//! that moved in its bad direction by more than a threshold — so a perf or
//! correctness regression shows up as a trajectory kink in CI, not as a
//! silent drift discovered figures later.
//!
//! Wall-clock timestamps are recorded for humans but excluded from the
//! diff: two snapshots of the same commit compare clean.

use mdx_campaign::{run_campaign_with, CampaignResult, ObsOptions, Scenario, Workload};
use mdx_fault::{enumerate_single_faults, FaultSite};
use mdx_sim::SortedLatencies;
use mdx_topology::{Coord, MdCrossbar, Shape};
use mdx_workloads::TrafficPattern;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default regression threshold: a metric moving more than this fraction
/// in its bad direction flags the diff.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// One metric snapshot of a figure-level sweep.
///
/// Columns added after the first release are `#[serde(default)]`, so the
/// committed `BENCH_*.json` history written without them still parses,
/// zero-filled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Which sweep this snapshot measures (`fig9`, `fig10`, `serve`,
    /// `tournament`).
    pub figure: String,
    /// Wall-clock seconds since the epoch when the snapshot ran. For
    /// humans reading the file; **never** compared by the diff.
    pub recorded_at_epoch_s: u64,
    /// Wall-clock seconds the sweep itself took. Timing is machine- and
    /// load-dependent, so like the timestamp it is recorded for humans and
    /// excluded from both the regression diff and duplicate detection —
    /// back-to-back runs of one commit must still compare clean.
    #[serde(default)]
    pub wall_clock_s: f64,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Fraction of runs that deadlocked.
    pub deadlock_rate: f64,
    /// Fraction of runs that completed.
    pub completed_rate: f64,
    /// Delivered packets per kilocycle, summed over the sweep.
    pub throughput: f64,
    /// Mean delivered-packet latency pooled over the whole sweep, in
    /// cycles (falls back to the mean of per-run medians when rows carry
    /// no latency pool).
    pub mean_latency: f64,
    /// True pooled 95th-percentile latency over every delivered packet of
    /// the sweep, in cycles. Pooling matters: fig9-style runs deliver ~2
    /// packets each, so *averaging per-run percentiles* collapses p95
    /// into p50 (both hit index 0 of a 2-element list) and the file
    /// records `p95 == mean` forever.
    pub p95_latency: f64,
    /// Mean S-XB output utilization over instrumented rows.
    pub sxb_util: f64,
    /// Sweep-wide engine idle-tick fraction (idle ticks / ticks, summed
    /// over every row's self-profile). Deterministic per token set, so it
    /// participates in duplicate detection — but it has no inherent bad
    /// direction, so it is tracked, not regression-diffed.
    #[serde(default)]
    pub idle_tick_fraction: f64,
    /// Simulated cycles per wall-clock second across the sweep (total
    /// cycles / total engine run-loop seconds). Machine-dependent: like
    /// `wall_clock_s`, recorded for humans and excluded from both the
    /// regression diff and duplicate detection.
    #[serde(default)]
    pub cycles_per_sec: f64,
    /// 99th-percentile `queue` span duration over the serve session's
    /// kept traces, in seconds. Span-derived wall-clock timing is
    /// machine- and load-dependent, so like `wall_clock_s` it is recorded
    /// for humans and excluded from both the regression diff and
    /// duplicate detection. Zero for non-serve figures.
    #[serde(default)]
    pub p99_queue_wait_s: f64,
    /// 99th-percentile `run` span duration (engine execution, wall clock)
    /// over the serve session's kept traces, in seconds. Machine-
    /// dependent like `p99_queue_wait_s`; zero for non-serve figures.
    #[serde(default)]
    pub p99_engine_run_s: f64,
}

/// A trajectory file: every snapshot ever appended for one figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryFile {
    /// The figure this file tracks.
    pub figure: String,
    /// Snapshots, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

/// One metric's movement between the two most recent snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDelta {
    /// Metric name (field name of [`TrajectoryEntry`]).
    pub metric: String,
    /// Previous snapshot's value.
    pub previous: f64,
    /// New snapshot's value.
    pub current: f64,
    /// Signed relative change (`(current - previous) / |previous|`; a full
    /// `1.0` when rising from exactly zero).
    pub delta: f64,
    /// Whether the movement exceeds the threshold *in the metric's bad
    /// direction* (throughput/completion falling; latency/deadlocks
    /// rising).
    pub regression: bool,
}

/// The result of appending a snapshot: the diff against the previous one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryDiff {
    /// The figure diffed.
    pub figure: String,
    /// True when this was the file's first entry (nothing to diff).
    pub first: bool,
    /// Per-metric movements (empty on the first entry).
    pub deltas: Vec<MetricDelta>,
    /// Number of flagged regressions.
    pub regressions: usize,
    /// True when the new snapshot was measurement-identical to the file's
    /// last entry (timestamp excluded) and the append was skipped — the
    /// file never accumulates byte-duplicate consecutive entries.
    pub duplicate: bool,
}

impl TrajectoryDiff {
    /// Renders the diff as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.first {
            out.push_str(&format!(
                "{}: first snapshot recorded (no previous entry to diff)\n",
                self.figure
            ));
            return out;
        }
        if self.duplicate {
            out.push_str(&format!(
                "{}: snapshot identical to the previous entry; append skipped\n",
                self.figure
            ));
            return out;
        }
        out.push_str(&format!(
            "{} trajectory diff (vs previous entry):\n",
            self.figure
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "  {:<16} {:>10.4} -> {:>10.4}  ({:+.1}%){}\n",
                d.metric,
                d.previous,
                d.current,
                d.delta * 100.0,
                if d.regression { "  << REGRESSION" } else { "" }
            ));
        }
        if self.regressions > 0 {
            out.push_str(&format!("  {} regression(s) flagged\n", self.regressions));
        }
        out
    }
}

/// Bad direction of each diffed metric: `true` = higher is worse. The
/// sentinel (`crate::sentinel`) scans the same metric set with the same
/// direction convention.
pub(crate) const METRICS: &[(&str, bool)] = &[
    ("deadlock_rate", true),
    ("completed_rate", false),
    ("throughput", false),
    ("mean_latency", true),
    ("p95_latency", true),
];

pub(crate) fn metric_value(e: &TrajectoryEntry, name: &str) -> f64 {
    match name {
        "deadlock_rate" => e.deadlock_rate,
        "completed_rate" => e.completed_rate,
        "throughput" => e.throughput,
        "mean_latency" => e.mean_latency,
        "p95_latency" => e.p95_latency,
        "sxb_util" => e.sxb_util,
        _ => unreachable!("unknown trajectory metric {name}"),
    }
}

fn diff_entries(prev: &TrajectoryEntry, cur: &TrajectoryEntry, threshold: f64) -> Vec<MetricDelta> {
    METRICS
        .iter()
        .map(|&(name, higher_is_worse)| {
            let previous = metric_value(prev, name);
            let current = metric_value(cur, name);
            let delta = if previous.abs() > f64::EPSILON {
                (current - previous) / previous.abs()
            } else if current.abs() > f64::EPSILON {
                1.0
            } else {
                0.0
            };
            let bad_move = if higher_is_worse { delta } else { -delta };
            MetricDelta {
                metric: name.to_string(),
                previous,
                current,
                delta,
                regression: bad_move > threshold,
            }
        })
        .collect()
}

/// Reduces a campaign sweep into a trajectory entry.
fn summarize(figure: &str, result: &CampaignResult) -> TrajectoryEntry {
    let n = result.reports.len().max(1);
    let deadlocks = result.deadlocks().count();
    let completed = result
        .reports
        .iter()
        .filter(|r| r.outcome == "completed")
        .count();
    let delivered: usize = result.reports.iter().map(|r| r.stats.delivered).sum();
    let cycles: u64 = result.reports.iter().map(|r| r.stats.cycles).sum();
    let mean_of = |vals: Vec<f64>| {
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    // Pool every delivered latency of the sweep and take true pooled
    // statistics. Averaging per-run percentiles is wrong for small runs:
    // with ~2 delivered packets per run, `percentile(50)` and
    // `percentile(95)` land on the same index, and the trajectory file
    // records p95 == mean forever.
    let pooled: Vec<u64> = result
        .reports
        .iter()
        .filter_map(|r| r.latencies.as_ref())
        .flatten()
        .copied()
        .collect();
    let (mean_latency, p95_latency) = if pooled.is_empty() {
        // Legacy fallback for sweeps run without the latency pool.
        (
            mean_of(
                result
                    .reports
                    .iter()
                    .filter_map(|r| r.latency_p50.map(|v| v as f64))
                    .collect(),
            ),
            mean_of(
                result
                    .reports
                    .iter()
                    .filter_map(|r| r.latency_p95.map(|v| v as f64))
                    .collect(),
            ),
        )
    } else {
        let mean = pooled.iter().sum::<u64>() as f64 / pooled.len() as f64;
        let sorted = SortedLatencies::from_unsorted(pooled);
        (mean, sorted.percentile(95).map_or(0.0, |v| v as f64))
    };
    // Engine self-profiles: the deterministic idle-tick fraction, plus the
    // machine-dependent simulation speed (fresh rows carry run-loop wall
    // clocks; replayed/cached rows deserialize them as 0 and drop out of
    // the speed denominator).
    let (mut ticks, mut idle_ticks, mut prof_cycles) = (0u64, 0u64, 0u64);
    let mut prof_wall = 0.0f64;
    for p in result.reports.iter().filter_map(|r| r.profile.as_ref()) {
        ticks += p.ticks;
        idle_ticks += p.idle_ticks;
        if p.wall_s > 0.0 {
            prof_cycles += p.cycles;
            prof_wall += p.wall_s;
        }
    }
    TrajectoryEntry {
        figure: figure.to_string(),
        recorded_at_epoch_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        // Stamped by the snapshot functions, which own the sweep timer.
        wall_clock_s: 0.0,
        scenarios: result.reports.len(),
        deadlock_rate: deadlocks as f64 / n as f64,
        completed_rate: completed as f64 / n as f64,
        throughput: if cycles == 0 {
            0.0
        } else {
            delivered as f64 * 1000.0 / cycles as f64
        },
        mean_latency,
        p95_latency,
        sxb_util: mean_of(
            result
                .reports
                .iter()
                .filter_map(|r| r.telemetry.as_ref().and_then(|t| t.sxb_util))
                .collect(),
        ),
        idle_tick_fraction: if ticks == 0 {
            0.0
        } else {
            idle_ticks as f64 / ticks as f64
        },
        cycles_per_sec: if prof_wall > 0.0 {
            prof_cycles as f64 / prof_wall
        } else {
            0.0
        },
        // Stamped by `snapshot_serve`, which owns the span collector.
        p99_queue_wait_s: 0.0,
        p99_engine_run_s: 0.0,
    }
}

fn metrics_opts() -> ObsOptions {
    ObsOptions {
        metrics: true,
        // Rows carry their delivered-latency pool so `summarize` can take
        // true sweep-wide percentiles.
        latencies: true,
        ..ObsOptions::default()
    }
}

/// A scaled-down Fig. 9 sweep (broadcast + detoured unicast around a
/// faulty router, both D-XB placements): the figure's full offset range
/// at half the seeds, so the separate-D-XB deadlock rate stays non-zero
/// and trackable.
pub fn snapshot_fig9() -> TrajectoryEntry {
    let shape = Shape::fig2();
    let faulty = shape.index_of(Coord::new(&[1, 0]));
    let scenarios: Vec<Scenario> = ["separate-dxb", "sr2201"]
        .iter()
        .flat_map(|scheme| {
            let shape = &shape;
            (10..38u64).flat_map(move |offset| {
                (0..4u64).map(move |seed| {
                    Scenario::new(
                        vec![4, 3],
                        scheme,
                        mdx_campaign::detour_stress_for(shape, 24, offset),
                        seed,
                    )
                    .with_faults([FaultSite::Router(faulty)])
                })
            })
        })
        .collect();
    let start = Instant::now();
    let mut e = summarize("fig9", &run_campaign_with(scenarios, &metrics_opts()));
    e.wall_clock_s = start.elapsed().as_secs_f64();
    e
}

/// A scaled-down Fig. 10 sweep (the paper's scheme under every single
/// fault, mixed traffic): (fault-free + every single fault) x 2 seeds.
pub fn snapshot_fig10() -> TrajectoryEntry {
    let net = MdCrossbar::build(Shape::fig2());
    let mut sites: Vec<Option<FaultSite>> = vec![None];
    sites.extend(enumerate_single_faults(&net).into_iter().map(Some));
    let scenarios: Vec<Scenario> = sites
        .iter()
        .flat_map(|site| {
            (0..2u64).map(move |seed| {
                Scenario::new(
                    vec![4, 3],
                    "sr2201",
                    Workload::Mixed {
                        pattern: TrafficPattern::UniformRandom,
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
    let start = Instant::now();
    let mut e = summarize("fig10", &run_campaign_with(scenarios, &metrics_opts()));
    e.wall_clock_s = start.elapsed().as_secs_f64();
    e
}

/// 99th-percentile of a set of span durations (nearest-rank on the
/// sorted set, matching [`SortedLatencies`]' index convention).
fn p99_of(mut vals: Vec<f64>) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite span durations"));
    vals[(vals.len() - 1) * 99 / 100]
}

/// A serve-mode sweep: the fig10-style token set pushed through one
/// resident [`mdx_serve::Service`] — every token cold, then every token
/// again as a duplicate that must come back from the result cache. The
/// diffed metrics are row metrics (deterministic per token set); the
/// session's timing lands in `wall_clock_s`, and the session runs fully
/// traced (sample rate 1.0) so the span-derived tail columns
/// `p99_queue_wait_s` / `p99_engine_run_s` come from real request spans.
///
/// # Panics
/// Panics when a request errors or a duplicate misses the cache — either
/// means the service layer itself regressed, which is exactly what this
/// snapshot exists to catch.
pub fn snapshot_serve() -> TrajectoryEntry {
    use mdx_serve::{Request, Response, ServeConfig, Service};
    let net = MdCrossbar::build(Shape::fig2());
    let mut sites: Vec<Option<FaultSite>> = vec![None];
    sites.extend(enumerate_single_faults(&net).into_iter().map(Some));
    let tokens: Vec<String> = sites
        .iter()
        .map(|site| {
            Scenario::new(
                vec![4, 3],
                "sr2201",
                Workload::Mixed {
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.02,
                    packet_flits: 12,
                    window: 200,
                    broadcast_rate: 0.002,
                },
                1,
            )
            .with_faults(*site)
            .token()
        })
        .collect();

    let start = Instant::now();
    let service = Service::new(&ServeConfig {
        span_sample: Some(1.0),
        ..ServeConfig::default()
    });
    // Drive the full line protocol (not `handle` directly) so each request
    // opens a root span with the queue/cache/run/serialize children the
    // tail columns are computed from.
    let run_line = |token: &str, trace: String| -> Response {
        let line = serde_json::to_string(&Request::run(token).with_trace(trace)).expect("request");
        let body = service.process_line(&line, Instant::now());
        serde_json::from_str(&body).expect("response parses")
    };
    let reports: Vec<_> = tokens
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let resp = run_line(t, format!("traj-cold-{i}"));
            assert!(!resp.is_error(), "serve snapshot: {:?}", resp.error);
            resp.row.expect("row body")
        })
        .collect();
    for (i, t) in tokens.iter().enumerate() {
        let resp = run_line(t, format!("traj-dup-{i}"));
        assert_eq!(resp.cached, Some(true), "duplicate token missed the cache");
    }
    // Tail timings over every kept trace (rate 1.0 keeps them all): the
    // `queue` child is scheduler wait, the `run` child is wall-clock
    // engine execution. Durations are in microseconds.
    let (mut queue_s, mut run_s) = (Vec::new(), Vec::new());
    for trace in service.spans().expect("span collector").kept_traces() {
        for s in &trace {
            if s.unit == mdx_obs::SpanUnit::Micros {
                let secs = s.duration() as f64 / 1e6;
                match s.name.as_str() {
                    "queue" => queue_s.push(secs),
                    "run" => run_s.push(secs),
                    _ => {}
                }
            }
        }
    }
    let mut e = summarize(
        "serve",
        &CampaignResult {
            reports,
            skipped: Vec::new(),
        },
    );
    e.wall_clock_s = start.elapsed().as_secs_f64();
    e.p99_queue_wait_s = p99_of(queue_s);
    e.p99_engine_run_s = p99_of(run_s);
    e
}

/// A cross-scheme tournament sweep: the default zoo grid (every
/// registered scheme on every topology, clean and router-faulted, mixed
/// traffic) reduced to one entry. Unlike the figure snapshots,
/// `completed_rate` here is *grid coverage* — executed cells over total
/// cells — so a scheme falling off its home topology (or a registry
/// change that breaks cell compatibility) kinks the trajectory even when
/// every surviving cell stays healthy. The latency columns are
/// delivered-weighted means of the cells' pooled p50/p95 (cells keep
/// percentiles, not raw pools, so a true cross-grid pool is not
/// reconstructible); columns that do not exist for a tournament
/// (`sxb_util`, the engine profile, the span tails) stay zero.
pub fn snapshot_tournament() -> TrajectoryEntry {
    use mdx_tournament::{run_tournament, TournamentCell, TournamentSpec};
    let spec = TournamentSpec::parse("").expect("the default grid parses");
    let start = Instant::now();
    let table = run_tournament(&spec);
    let ok: Vec<&TournamentCell> = table.ok_cells().collect();
    let runs: usize = ok.iter().map(|c| c.runs).sum();
    let deadlocks: usize = ok.iter().map(|c| c.deadlocks).sum();
    let delivered: usize = ok.iter().map(|c| c.delivered).sum();
    let cycles: u64 = ok.iter().map(|c| c.cycles).sum();
    let weighted = |pick: fn(&TournamentCell) -> Option<u64>| {
        let (mut sum, mut weight) = (0.0f64, 0usize);
        for c in &ok {
            if let Some(v) = pick(c) {
                sum += v as f64 * c.delivered as f64;
                weight += c.delivered;
            }
        }
        if weight == 0 {
            0.0
        } else {
            sum / weight as f64
        }
    };
    TrajectoryEntry {
        figure: "tournament".to_string(),
        recorded_at_epoch_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        wall_clock_s: start.elapsed().as_secs_f64(),
        scenarios: runs,
        deadlock_rate: if runs == 0 {
            0.0
        } else {
            deadlocks as f64 / runs as f64
        },
        completed_rate: if table.cells.is_empty() {
            0.0
        } else {
            ok.len() as f64 / table.cells.len() as f64
        },
        throughput: if cycles == 0 {
            0.0
        } else {
            delivered as f64 * 1000.0 / cycles as f64
        },
        mean_latency: weighted(|c| c.p50),
        p95_latency: weighted(|c| c.p95),
        sxb_util: 0.0,
        idle_tick_fraction: 0.0,
        cycles_per_sec: 0.0,
        p99_queue_wait_s: 0.0,
        p99_engine_run_s: 0.0,
    }
}

/// True when two entries record the same measurement — every field except
/// the wall-clock timestamp, the sweep's wall-clock duration, and the
/// (machine-dependent) simulation speed and span-derived tail timings
/// matches.
fn same_measurement(a: &TrajectoryEntry, b: &TrajectoryEntry) -> bool {
    a.figure == b.figure
        && a.scenarios == b.scenarios
        && a.deadlock_rate == b.deadlock_rate
        && a.completed_rate == b.completed_rate
        && a.throughput == b.throughput
        && a.mean_latency == b.mean_latency
        && a.p95_latency == b.p95_latency
        && a.sxb_util == b.sxb_util
        && a.idle_tick_fraction == b.idle_tick_fraction
}

/// Appends `entry` to the trajectory file at `path` (creating it when
/// absent), writes the file back, and returns the diff against the
/// previously last entry.
///
/// An entry that is measurement-identical to the file's last one (only
/// the timestamp differing) is **not** appended — deterministic sweeps
/// re-run on the same commit would otherwise pile up byte-duplicate
/// consecutive entries. The returned diff has
/// [`TrajectoryDiff::duplicate`] set and zero regressions.
pub fn append_snapshot(
    path: &Path,
    entry: TrajectoryEntry,
    threshold: f64,
) -> io::Result<TrajectoryDiff> {
    let mut file = match std::fs::read_to_string(path) {
        Ok(body) => serde_json::from_str::<TrajectoryFile>(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => TrajectoryFile {
            figure: entry.figure.clone(),
            entries: Vec::new(),
        },
        Err(e) => return Err(e),
    };
    let diff = match file.entries.last() {
        Some(prev) if same_measurement(prev, &entry) => {
            return Ok(TrajectoryDiff {
                figure: entry.figure.clone(),
                first: false,
                deltas: Vec::new(),
                regressions: 0,
                duplicate: true,
            });
        }
        Some(prev) => {
            let deltas = diff_entries(prev, &entry, threshold);
            let regressions = deltas.iter().filter(|d| d.regression).count();
            TrajectoryDiff {
                figure: entry.figure.clone(),
                first: false,
                deltas,
                regressions,
                duplicate: false,
            }
        }
        None => TrajectoryDiff {
            figure: entry.figure.clone(),
            first: true,
            deltas: Vec::new(),
            regressions: 0,
            duplicate: false,
        },
    };
    file.entries.push(entry);
    let body = serde_json::to_string_pretty(&file)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, body)?;
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_campaign::ScenarioReport;
    use mdx_sim::SimStats;

    /// A minimal completed row carrying the given delivered-latency pool
    /// (and the per-run percentiles the legacy reduction would read).
    fn row_with_latencies(latencies: Vec<u64>) -> ScenarioReport {
        let scenario = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::BroadcastStorm {
                sources: vec![0],
                flits: 8,
            },
            0,
        );
        let sorted = SortedLatencies::from_unsorted(latencies.clone());
        ScenarioReport {
            token: scenario.token(),
            scenario,
            outcome: "completed".to_string(),
            offered: latencies.len(),
            stats: SimStats {
                cycles: 1000,
                flit_hops: 0,
                delivered: latencies.len(),
                dropped: 0,
                unfinished: 0,
                latency_sum: latencies.iter().sum(),
                latency_max: latencies.iter().copied().max().unwrap_or(0),
            },
            latency_p50: sorted.percentile(50),
            latency_p95: sorted.percentile(95),
            latency_p99: sorted.percentile(99),
            hot_channels: Vec::new(),
            deadlock: None,
            digest: String::new(),
            telemetry: None,
            postmortem: None,
            reconfig: None,
            attribution: None,
            latencies: Some(latencies),
            stream: None,
            profile: None,
        }
    }

    #[test]
    fn p95_pools_across_runs_instead_of_averaging_per_run_percentiles() {
        // Two tiny runs with a skewed pool: [10, 500] and [10, 1000]. The
        // old reduction averaged per-run percentiles — with 2 delivered
        // packets, p50 and p95 hit the same index (0), so it reported
        // mean == p95 == 10 (exactly the `BENCH_fig9.json` 41.8/41.8
        // artifact). The pooled reduction separates them.
        let result = CampaignResult {
            reports: vec![
                row_with_latencies(vec![10, 500]),
                row_with_latencies(vec![10, 1000]),
            ],
            skipped: Vec::new(),
        };
        let e = summarize("fig9", &result);
        assert_eq!(e.mean_latency, 380.0); // (10+500+10+1000)/4
        assert_eq!(e.p95_latency, 500.0); // pooled [10,10,500,1000] p95
        assert_ne!(e.mean_latency, e.p95_latency);
    }

    #[test]
    fn summarize_falls_back_without_latency_pools() {
        let mut a = row_with_latencies(vec![10, 10]);
        let mut b = row_with_latencies(vec![10, 1000]);
        a.latencies = None;
        b.latencies = None;
        let result = CampaignResult {
            reports: vec![a, b],
            skipped: Vec::new(),
        };
        // Legacy behavior (and its collapse) preserved for pool-less rows.
        let e = summarize("fig9", &result);
        assert_eq!(e.mean_latency, e.p95_latency);
    }

    fn entry(figure: &str, throughput: f64, deadlock_rate: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            figure: figure.to_string(),
            recorded_at_epoch_s: 0,
            wall_clock_s: 0.0,
            scenarios: 10,
            deadlock_rate,
            completed_rate: 1.0 - deadlock_rate,
            throughput,
            mean_latency: 40.0,
            p95_latency: 90.0,
            sxb_util: 0.2,
            idle_tick_fraction: 0.3,
            cycles_per_sec: 0.0,
            p99_queue_wait_s: 0.0,
            p99_engine_run_s: 0.0,
        }
    }

    #[test]
    fn append_creates_then_diffs_and_flags_direction() {
        let path = std::env::temp_dir().join(format!(
            "mdx-trajectory-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let d1 = append_snapshot(&path, entry("fig9", 2.0, 0.5), 0.10).unwrap();
        assert!(d1.first);
        assert_eq!(d1.regressions, 0);

        // Throughput collapses, deadlocks rise, and (derived) completion
        // falls: all three flagged.
        let d2 = append_snapshot(&path, entry("fig9", 1.0, 0.8), 0.10).unwrap();
        assert!(!d2.first);
        assert_eq!(d2.regressions, 3);
        let by_name = |n: &str| d2.deltas.iter().find(|d| d.metric == n).unwrap().clone();
        assert!(by_name("throughput").regression);
        assert!(by_name("deadlock_rate").regression);
        assert!(by_name("completed_rate").regression);
        assert!(!by_name("mean_latency").regression);
        assert!(d2.render().contains("REGRESSION"));

        // Throughput *rising* and deadlocks *falling* is improvement, not
        // regression.
        let d3 = append_snapshot(&path, entry("fig9", 3.0, 0.1), 0.10).unwrap();
        assert_eq!(d3.regressions, 0);

        // The file accumulated all three entries and round-trips.
        let file: TrajectoryFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.entries.len(), 3);
        assert_eq!(file.figure, "fig9");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_consecutive_snapshot_is_skipped() {
        let path = std::env::temp_dir().join(format!(
            "mdx-trajectory-dup-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let first = append_snapshot(&path, entry("fig9", 2.0, 0.5), 0.10).unwrap();
        assert!(first.first && !first.duplicate);

        // Same measurement, different wall clock: skipped, not appended.
        let mut again = entry("fig9", 2.0, 0.5);
        again.recorded_at_epoch_s = 12345;
        let dup = append_snapshot(&path, again, 0.10).unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.regressions, 0);
        assert!(dup.deltas.is_empty());
        assert!(dup.render().contains("append skipped"));

        let file: TrajectoryFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.entries.len(), 1);

        // A genuinely new measurement still appends and diffs.
        let moved = append_snapshot(&path, entry("fig9", 3.0, 0.5), 0.10).unwrap();
        assert!(!moved.duplicate && !moved.first);
        let file: TrajectoryFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.entries.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wall_clock_is_lenient_on_parse_and_excluded_from_duplicates() {
        // Entries written before `wall_clock_s` existed still parse.
        let legacy = r#"{"figure":"fig9","recorded_at_epoch_s":5,"scenarios":10,
            "deadlock_rate":0.5,"completed_rate":0.5,"throughput":2.0,
            "mean_latency":40.0,"p95_latency":90.0,"sxb_util":0.2}"#;
        let e: TrajectoryEntry = serde_json::from_str(legacy).unwrap();
        assert_eq!(e.wall_clock_s, 0.0);
        assert_eq!(e.scenarios, 10);

        // The new field round-trips...
        let mut stamped = entry("fig9", 2.0, 0.5);
        stamped.wall_clock_s = 3.25;
        let back: TrajectoryEntry =
            serde_json::from_str(&serde_json::to_string(&stamped).unwrap()).unwrap();
        assert_eq!(back.wall_clock_s, 3.25);

        // ...but, like the timestamp, never blocks duplicate detection:
        // the same measurement at a different speed is still a duplicate.
        let mut slower = stamped.clone();
        slower.wall_clock_s = 9.75;
        assert!(same_measurement(&stamped, &slower));
        // And it is not a diffed metric: no delta mentions it.
        let deltas = diff_entries(&stamped, &slower, 0.10);
        assert!(deltas.iter().all(|d| d.metric != "wall_clock_s"));

        // The span-derived tail columns behave the same way: lenient on
        // legacy files (parsed as 0.0 above), excluded from duplicate
        // detection, and never diffed.
        assert_eq!(e.p99_queue_wait_s, 0.0);
        assert_eq!(e.p99_engine_run_s, 0.0);
        let mut tails = stamped.clone();
        tails.p99_queue_wait_s = 0.125;
        tails.p99_engine_run_s = 0.5;
        assert!(same_measurement(&stamped, &tails));
        let back: TrajectoryEntry =
            serde_json::from_str(&serde_json::to_string(&tails).unwrap()).unwrap();
        assert_eq!(back.p99_queue_wait_s, 0.125);
        assert_eq!(back.p99_engine_run_s, 0.5);
        let deltas = diff_entries(&stamped, &tails, 0.10);
        assert!(deltas
            .iter()
            .all(|d| d.metric != "p99_queue_wait_s" && d.metric != "p99_engine_run_s"));
    }

    #[test]
    fn profile_columns_aggregate_and_respect_machine_dependence() {
        use mdx_campaign::RowProfile;
        let profile = |wall_s: f64, cycles: u64, ticks: u64, idle_ticks: u64| RowProfile {
            wall_s,
            cycles,
            cycles_per_sec: 0.0,
            ticks,
            idle_ticks,
            idle_tick_fraction: idle_ticks as f64 / ticks as f64,
            events_per_cycle: 1.0,
            occupancy: vec![0; 10],
            phases: None,
        };
        let mut a = row_with_latencies(vec![10, 20]);
        let mut b = row_with_latencies(vec![30, 40]);
        a.profile = Some(profile(0.5, 1000, 1000, 600));
        // A replayed/cached row: deterministic ticks, zeroed wall clock —
        // it contributes to the idle fraction but not the speed.
        b.profile = Some(profile(0.0, 500, 500, 150));
        let e = summarize(
            "fig9",
            &CampaignResult {
                reports: vec![a, b],
                skipped: Vec::new(),
            },
        );
        assert_eq!(e.idle_tick_fraction, 750.0 / 1500.0);
        assert_eq!(e.cycles_per_sec, 1000.0 / 0.5);

        // Simulation speed is machine-dependent: two snapshots differing
        // only there are still duplicates...
        let mut x = entry("fig9", 2.0, 0.5);
        x.cycles_per_sec = 1.0e6;
        let mut y = x.clone();
        y.cycles_per_sec = 9.0e6;
        assert!(same_measurement(&x, &y));
        let deltas = diff_entries(&x, &y, 0.10);
        assert!(deltas.iter().all(|d| d.metric != "cycles_per_sec"));
        // ...while the idle-tick fraction is a real measurement.
        let mut z = x.clone();
        z.idle_tick_fraction = 0.9;
        assert!(!same_measurement(&x, &z));

        // Entries from before the profile columns existed still parse.
        let legacy = r#"{"figure":"fig9","recorded_at_epoch_s":5,"scenarios":10,
            "deadlock_rate":0.5,"completed_rate":0.5,"throughput":2.0,
            "mean_latency":40.0,"p95_latency":90.0,"sxb_util":0.2}"#;
        let e: TrajectoryEntry = serde_json::from_str(legacy).unwrap();
        assert_eq!(e.idle_tick_fraction, 0.0);
        assert_eq!(e.cycles_per_sec, 0.0);
    }

    #[test]
    fn zero_baseline_rise_counts_as_full_move() {
        let prev = entry("fig10", 1.0, 0.0);
        let cur = entry("fig10", 1.0, 0.25);
        let deltas = diff_entries(&prev, &cur, 0.10);
        let dl = deltas.iter().find(|d| d.metric == "deadlock_rate").unwrap();
        assert_eq!(dl.delta, 1.0);
        assert!(dl.regression);
    }
}
