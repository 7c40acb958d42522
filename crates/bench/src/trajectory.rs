//! Cross-run bench trajectory: append-only metric snapshots, judged by the
//! regression sentinel.
//!
//! A *trajectory file* (`BENCH_fig9.json`, `BENCH_fig10.json`,
//! `BENCH_tournament.json`) accumulates one [`TrajectoryEntry`] per
//! invocation of the `experiments trajectory` subcommand: throughput,
//! latency, deadlock rate, and S-XB utilization of a scaled-down sweep.
//! [`append_snapshot`] appends the new entry and judges the grown file
//! with the sentinel ([`crate::sentinel::scan_file`]), so a perf or
//! correctness regression shows up as a trajectory kink in CI, not as a
//! silent drift discovered figures later.
//!
//! Wall-clock timestamps and timings are recorded for humans but never
//! judged: two snapshots of the same commit are one measurement, and the
//! second is not appended.

use crate::sentinel::{scan_file, SentinelReport};
use mdx_campaign::{run_campaign_with, CampaignResult, ObsOptions, Scenario, Workload};
use mdx_fault::{enumerate_single_faults, FaultSite};
use mdx_sim::SortedLatencies;
use mdx_topology::{Coord, MdCrossbar, Shape};
use mdx_workloads::TrafficPattern;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One metric snapshot of a figure-level sweep.
///
/// Columns added after the first release are `#[serde(default)]`, so the
/// committed `BENCH_*.json` history written without them still parses,
/// zero-filled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Which sweep this snapshot measures (`fig9`, `fig10`,
    /// `tournament`).
    pub figure: String,
    /// Wall-clock seconds since the epoch when the snapshot ran. For
    /// humans reading the file; **never** judged.
    pub recorded_at_epoch_s: u64,
    /// Wall-clock seconds the sweep itself took. Timing is machine- and
    /// load-dependent, so like the timestamp it is recorded for humans and
    /// excluded from both the sentinel and duplicate detection —
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
    /// direction, so it is tracked, not judged.
    #[serde(default)]
    pub idle_tick_fraction: f64,
    /// Simulated cycles per wall-clock second across the sweep (total
    /// cycles / total engine run-loop seconds). Machine-dependent: like
    /// `wall_clock_s`, recorded for humans and excluded from both the
    /// sentinel and duplicate detection.
    #[serde(default)]
    pub cycles_per_sec: f64,
    /// 99th-percentile `queue` span duration of a serve session, in
    /// seconds. No snapshot records a serve session (the repo benchmark's
    /// `serve` workload times the service), so this is always zero; the
    /// column stays so every committed series keeps one shape. Never
    /// judged, and excluded from duplicate detection.
    #[serde(default)]
    pub p99_queue_wait_s: f64,
    /// 99th-percentile `run` span duration of a serve session, in seconds;
    /// always zero, like `p99_queue_wait_s`.
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

/// Reads and parses a trajectory file.
pub(crate) fn read_file(path: &Path) -> io::Result<TrajectoryFile> {
    let body = std::fs::read_to_string(path)?;
    serde_json::from_str(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))
}

/// Appends `entry` to the trajectory file at `path` (creating it when
/// absent), writes the file back, and returns the sentinel's report on
/// the grown file.
///
/// An entry that is measurement-identical to the file's last one (only
/// the timestamp differing) is **not** appended — deterministic sweeps
/// re-run on the same commit would otherwise pile up byte-duplicate
/// consecutive entries — and `None` is returned.
pub fn append_snapshot(path: &Path, entry: TrajectoryEntry) -> io::Result<Option<SentinelReport>> {
    let mut file = match read_file(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => TrajectoryFile {
            figure: entry.figure.clone(),
            entries: Vec::new(),
        },
        Err(e) => return Err(e),
    };
    if file
        .entries
        .last()
        .is_some_and(|prev| same_measurement(prev, &entry))
    {
        return Ok(None);
    }
    file.entries.push(entry);
    let body = serde_json::to_string_pretty(&file)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, body)?;
    Ok(Some(scan_file(&file)))
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

    /// Whether the sentinel judges `metric`.
    fn judged(metric: &str) -> bool {
        crate::sentinel::METRICS.iter().any(|&(m, _)| m == metric)
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
    fn duplicate_consecutive_snapshot_is_skipped() {
        let path = std::env::temp_dir().join(format!(
            "mdx-trajectory-dup-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let first = append_snapshot(&path, entry("fig9", 2.0, 0.5)).unwrap();
        assert!(first.is_some_and(|r| r.skipped && r.entries == 1));

        // Same measurement, different wall clock: skipped, not appended.
        let mut again = entry("fig9", 2.0, 0.5);
        again.recorded_at_epoch_s = 12345;
        assert_eq!(append_snapshot(&path, again).unwrap(), None);

        let file: TrajectoryFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.entries.len(), 1);

        // A genuinely new measurement still appends and is judged.
        let moved = append_snapshot(&path, entry("fig9", 3.0, 0.5)).unwrap();
        assert!(moved.is_some_and(|r| r.entries == 2));
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
        // And the sentinel never judges it.
        assert!(!judged("wall_clock_s"));

        // The span-derived tail columns behave the same way: lenient on
        // legacy files (parsed as 0.0 above), excluded from duplicate
        // detection, and never judged.
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
        assert!(!judged("p99_queue_wait_s") && !judged("p99_engine_run_s"));
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
        assert!(!judged("cycles_per_sec"));
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
}
