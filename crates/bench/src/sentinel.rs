//! Bench-trajectory regression sentinel: median/MAD changepoint detection
//! over `BENCH_*.json` files — the one detector that judges them.
//!
//! `experiments sentinel` runs it over the committed files, and
//! [`crate::append_snapshot`] runs it on every file it grows. For each
//! judged metric it takes the **median** and **MAD** (median absolute
//! deviation) of every entry but the last, then asks whether the latest
//! entry deviates from that robust baseline by more than [`MAD_K`]
//! floored MADs *in the metric's bad direction* (throughput falling,
//! deadlocks rising — see [`METRICS`]). Looking at the whole series
//! catches a slow drift, or a regression that lands together with a noisy
//! baseline entry, which a two-point comparison would miss.
//!
//! Median/MAD (rather than mean/stddev) keeps one historical outlier from
//! inflating the tolerance band; the floors keep a perfectly flat history
//! (MAD = 0, common for deterministic sweeps) from flagging floating-point
//! dust:
//!
//! - the MAD is floored at [`REL_FLOOR`] `* |median|` — a deviation also
//!   has to be *relatively* large to count;
//! - and at a tiny absolute epsilon, so an all-zero series (deadlock rate
//!   in a healthy file) only flags when deadlocks genuinely appear.
//!
//! Files shorter than [`MIN_POINTS`] entries are skipped, not failed — a
//! fresh trajectory has no baseline to regress against.

use crate::trajectory::{read_file, TrajectoryEntry, TrajectoryFile};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Entries a series needs before its latest one is judged.
pub const MIN_POINTS: usize = 4;
/// Tolerance band, in floored MADs (~2.7 sigma for normal noise).
pub const MAD_K: f64 = 4.0;
/// Relative MAD floor, as a fraction of the baseline median.
pub const REL_FLOOR: f64 = 0.05;

/// Absolute MAD floor: deviations below this never flag, no matter how
/// flat the baseline.
const ABS_FLOOR: f64 = 1e-9;

/// The judged metrics and their bad direction: `true` = higher is worse.
pub const METRICS: &[(&str, bool)] = &[
    ("deadlock_rate", true),
    ("completed_rate", false),
    ("throughput", false),
    ("mean_latency", true),
    ("p95_latency", true),
];

fn metric_value(e: &TrajectoryEntry, name: &str) -> f64 {
    match name {
        "deadlock_rate" => e.deadlock_rate,
        "completed_rate" => e.completed_rate,
        "throughput" => e.throughput,
        "mean_latency" => e.mean_latency,
        "p95_latency" => e.p95_latency,
        _ => unreachable!("unknown trajectory metric {name}"),
    }
}

/// One metric's verdict over one trajectory file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricVerdict {
    /// Metric name (a [`crate::TrajectoryEntry`] field).
    pub metric: String,
    /// Baseline median (every entry but the last).
    pub baseline_median: f64,
    /// Baseline MAD before flooring.
    pub mad: f64,
    /// The latest entry's value.
    pub latest: f64,
    /// Signed deviation of the latest value from the baseline median.
    pub deviation: f64,
    /// Deviation in floored MADs, counted only in the bad direction
    /// (0 when the latest value moved the healthy way).
    pub score: f64,
    /// `score > MAD_K`: a confirmed regression.
    pub regression: bool,
}

/// The sentinel's verdict over one trajectory file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentinelReport {
    /// The figure scanned.
    pub figure: String,
    /// Entries in the file.
    pub entries: usize,
    /// True when the series was shorter than [`MIN_POINTS`] and judgment
    /// was skipped.
    pub skipped: bool,
    /// Per-metric verdicts (empty when skipped).
    pub verdicts: Vec<MetricVerdict>,
    /// Confirmed regressions.
    pub regressions: usize,
}

impl SentinelReport {
    /// Renders the report as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.skipped {
            out.push_str(&format!(
                "{}: {} entr{} — too short to judge (need more history)\n",
                self.figure,
                self.entries,
                if self.entries == 1 { "y" } else { "ies" }
            ));
            return out;
        }
        out.push_str(&format!(
            "{} sentinel ({} entries, latest vs median/MAD baseline):\n",
            self.figure, self.entries
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "  {:<16} median {:>10.4}  mad {:>8.4}  latest {:>10.4}  score {:>6.1}{}\n",
                v.metric,
                v.baseline_median,
                v.mad,
                v.latest,
                v.score,
                if v.regression { "  << REGRESSION" } else { "" }
            ));
        }
        if self.regressions > 0 {
            out.push_str(&format!("  {} confirmed regression(s)\n", self.regressions));
        }
        out
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
fn median(vals: &mut [f64]) -> f64 {
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        (vals[n / 2 - 1] + vals[n / 2]) / 2.0
    }
}

/// Scans one in-memory trajectory file.
pub fn scan_file(file: &TrajectoryFile) -> SentinelReport {
    let n = file.entries.len();
    if n < MIN_POINTS {
        return SentinelReport {
            figure: file.figure.clone(),
            entries: n,
            skipped: true,
            verdicts: Vec::new(),
            regressions: 0,
        };
    }
    let mut verdicts = Vec::new();
    for &(name, higher_is_worse) in METRICS {
        let series: Vec<f64> = file.entries.iter().map(|e| metric_value(e, name)).collect();
        let (baseline, latest) = series.split_at(n - 1);
        let latest = latest[0];
        let mut vals = baseline.to_vec();
        let med = median(&mut vals);
        let mut devs: Vec<f64> = baseline.iter().map(|v| (v - med).abs()).collect();
        let mad = median(&mut devs);
        let floor = mad.max(REL_FLOOR * med.abs()).max(ABS_FLOOR);
        let deviation = latest - med;
        let bad_dev = if higher_is_worse {
            deviation
        } else {
            -deviation
        };
        let score = if bad_dev > 0.0 { bad_dev / floor } else { 0.0 };
        verdicts.push(MetricVerdict {
            metric: name.to_string(),
            baseline_median: med,
            mad,
            latest,
            deviation,
            score,
            regression: score > MAD_K,
        });
    }
    let regressions = verdicts.iter().filter(|v| v.regression).count();
    SentinelReport {
        figure: file.figure.clone(),
        entries: n,
        skipped: false,
        verdicts,
        regressions,
    }
}

/// Reads and scans a trajectory file on disk.
pub fn scan_path(path: &Path) -> io::Result<SentinelReport> {
    read_file(path).map(|file| scan_file(&file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(throughput: f64, deadlock_rate: f64, mean_latency: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            figure: "fig9".to_string(),
            recorded_at_epoch_s: 0,
            wall_clock_s: 0.0,
            scenarios: 10,
            deadlock_rate,
            completed_rate: 1.0 - deadlock_rate,
            throughput,
            mean_latency,
            p95_latency: mean_latency * 2.0,
            sxb_util: 0.2,
            idle_tick_fraction: 0.3,
            cycles_per_sec: 0.0,
            p99_queue_wait_s: 0.0,
            p99_engine_run_s: 0.0,
        }
    }

    fn file(entries: Vec<TrajectoryEntry>) -> TrajectoryFile {
        TrajectoryFile {
            figure: "fig9".to_string(),
            entries,
        }
    }

    #[test]
    fn short_series_is_skipped_not_failed() {
        let f = file(vec![entry(2.0, 0.0, 40.0)]);
        let r = scan_file(&f);
        assert!(r.skipped);
        assert_eq!(r.regressions, 0);
        assert!(r.render().contains("too short"));
    }

    #[test]
    fn synthetic_regression_is_confirmed_and_direction_aware() {
        // Six stable snapshots with mild jitter, then throughput collapses
        // and deadlocks appear in the same entry.
        let mut entries: Vec<TrajectoryEntry> = [2.00, 2.02, 1.98, 2.01, 1.99, 2.00]
            .iter()
            .map(|&t| entry(t, 0.0, 40.0))
            .collect();
        entries.push(entry(1.0, 0.25, 41.0));
        let r = scan_file(&file(entries));
        assert!(!r.skipped);
        let by_name = |n: &str| r.verdicts.iter().find(|v| v.metric == n).unwrap();
        assert!(by_name("throughput").regression, "{r:?}");
        assert!(by_name("deadlock_rate").regression, "{r:?}");
        assert!(by_name("completed_rate").regression, "{r:?}");
        // Latency (and the p95 tracking it) moved 2.5% against a 5%
        // relative floor: inside the band.
        assert!(!by_name("mean_latency").regression, "{r:?}");
        assert_eq!(r.regressions, 3);
        assert!(r.render().contains("REGRESSION"));
    }

    #[test]
    fn improvement_and_flat_history_stay_clean() {
        // Throughput *rising* and a flat series must not flag: the bad
        // direction gate and the MAD floors both hold.
        let mut entries: Vec<TrajectoryEntry> = (0..6).map(|_| entry(2.0, 0.0, 40.0)).collect();
        entries.push(entry(3.0, 0.0, 40.0));
        let r = scan_file(&file(entries));
        assert_eq!(r.regressions, 0, "{r:?}");
        assert!(r.verdicts.iter().all(|v| v.score == 0.0 || !v.regression));
    }

    #[test]
    fn one_historical_outlier_does_not_widen_the_band() {
        // A single bad baseline entry would inflate a stddev-based band;
        // the median/MAD baseline shrugs it off and still catches the
        // regression in the latest entry.
        let mut entries: Vec<TrajectoryEntry> = [2.0, 2.0, 0.5, 2.0, 2.0, 2.0]
            .iter()
            .map(|&t| entry(t, 0.0, 40.0))
            .collect();
        entries.push(entry(1.0, 0.0, 40.0));
        let r = scan_file(&file(entries));
        let tp = r
            .verdicts
            .iter()
            .find(|v| v.metric == "throughput")
            .unwrap();
        assert_eq!(tp.baseline_median, 2.0);
        assert!(tp.regression, "{r:?}");
    }

    #[test]
    fn scan_path_round_trips_disk_files() {
        let path = std::env::temp_dir().join(format!(
            "mdx-sentinel-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let entries: Vec<TrajectoryEntry> = (0..5)
            .map(|i| entry(2.0 + 0.01 * i as f64, 0.0, 40.0))
            .collect();
        std::fs::write(&path, serde_json::to_string_pretty(&file(entries)).unwrap()).unwrap();
        let r = scan_path(&path).unwrap();
        assert!(!r.skipped);
        assert_eq!(r.regressions, 0);
        let _ = std::fs::remove_file(&path);
    }
}
