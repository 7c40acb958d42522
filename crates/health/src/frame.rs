//! Signal frames: the flat `name -> value` view the engine evaluates.
//!
//! A [`SignalFrame`] is one evaluation tick's worth of telemetry, reduced
//! to a sorted map of finite `f64` signals. Frames come from two places:
//!
//! - [`SignalFrame::from_snapshot`] flattens an `mdx-metrics`
//!   [`Snapshot`] (the resident server's registry): counters sum across
//!   series, gauges take the series value, histograms expand into
//!   `_p50`/`_p95`/`_p99`/`_count`/`_sum`/`_mean` estimates; labeled
//!   series additionally appear under Prometheus-selector keys
//!   (`name{verb="run"}`).
//! - [`SignalFrame::set`] fills a frame by hand, as the `campaign` CLI
//!   does with one row's or one tournament cell's statistics.
//!
//! Frames are ordered (BTreeMap) and reject non-finite values, so the
//! same inputs always produce the same frame — the determinism the
//! replayable health reports lean on.

use mdx_metrics::{SampleValue, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One evaluation tick's worth of telemetry, flattened.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SignalFrame {
    /// Logical evaluation tick (monotonic; wall-clock-free).
    pub tick: u64,
    /// Signal values, sorted by name. Only finite values are stored.
    pub signals: BTreeMap<String, f64>,
}

/// Estimates quantile `q` from cumulative-ready histogram buckets: the
/// upper bound of the bucket the quantile falls in (the overflow bucket
/// reports the largest finite bound — a floor, not an invention).
pub fn histogram_quantile(bounds: &[f64], buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= rank {
            return match bounds.get(i) {
                Some(bound) => Some(*bound),
                None => bounds.last().copied(), // overflow bucket
            };
        }
    }
    bounds.last().copied()
}

impl SignalFrame {
    /// An empty frame at the given tick.
    pub fn new(tick: u64) -> SignalFrame {
        SignalFrame {
            tick,
            signals: BTreeMap::new(),
        }
    }

    /// Sets a signal; non-finite values are dropped (a missing signal is
    /// explicit "no observation", NaN smuggled into JSON is not).
    pub fn set(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        if value.is_finite() {
            self.signals.insert(name.into(), value);
        }
        self
    }

    /// Looks a signal up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.signals.get(name).copied()
    }

    /// Flattens a metrics registry snapshot (see module docs for the
    /// naming scheme).
    pub fn from_snapshot(tick: u64, snap: &Snapshot) -> SignalFrame {
        let mut f = SignalFrame::new(tick);
        for fam in &snap.families {
            let mut counter_sum = 0u64;
            let mut saw_counter = false;
            // Family-level histogram aggregate: series with matching
            // bounds sum elementwise, so a labeled latency family still
            // yields one bare `name_p99` signal.
            let mut agg: Option<(Vec<f64>, Vec<u64>, u64, f64)> = None;
            for s in &fam.series {
                let sel = selector(&fam.name, &s.labels);
                match &s.value {
                    SampleValue::Counter(v) => {
                        saw_counter = true;
                        counter_sum += v;
                        f.set(sel, *v as f64);
                    }
                    SampleValue::Gauge(v) => {
                        f.set(sel, *v);
                        // Unlabeled gauge: `sel` already is the bare name.
                        if !s.labels.is_empty() {
                            f.set(fam.name.clone(), *v);
                        }
                    }
                    SampleValue::Histogram {
                        bounds,
                        buckets,
                        count,
                        sum,
                        ..
                    } => {
                        for (suffix, q) in [("_p50", 0.50), ("_p95", 0.95), ("_p99", 0.99)] {
                            if let Some(v) = histogram_quantile(bounds, buckets, q) {
                                f.set(format!("{sel}{suffix}"), v);
                            }
                        }
                        f.set(format!("{sel}_count"), *count as f64);
                        f.set(format!("{sel}_sum"), *sum);
                        if *count > 0 {
                            f.set(format!("{sel}_mean"), *sum / *count as f64);
                        }
                        match &mut agg {
                            None => {
                                agg = Some((bounds.clone(), buckets.clone(), *count, *sum));
                            }
                            Some((ab, abk, ac, asum)) if *ab == *bounds => {
                                for (t, b) in abk.iter_mut().zip(buckets) {
                                    *t += b;
                                }
                                *ac += count;
                                *asum += sum;
                            }
                            Some(_) => {} // mismatched bounds: skip
                        }
                    }
                }
            }
            if saw_counter {
                f.set(fam.name.clone(), counter_sum as f64);
            }
            if let Some((bounds, buckets, count, sum)) = agg {
                let labeled = fam
                    .series
                    .first()
                    .map(|s| !s.labels.is_empty())
                    .unwrap_or(false);
                // Unlabeled single-series histograms already wrote these
                // keys; only labeled families need the aggregate view.
                if labeled {
                    for (suffix, q) in [("_p50", 0.50), ("_p95", 0.95), ("_p99", 0.99)] {
                        if let Some(v) = histogram_quantile(&bounds, &buckets, q) {
                            f.set(format!("{}{suffix}", fam.name), v);
                        }
                    }
                    f.set(format!("{}_count", fam.name), count as f64);
                    f.set(format!("{}_sum", fam.name), sum);
                    if count > 0 {
                        f.set(format!("{}_mean", fam.name), sum / count as f64);
                    }
                }
            }
        }
        f
    }
}

fn selector(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_metrics::Registry;

    #[test]
    fn quantile_estimator_picks_bucket_upper_bounds() {
        let bounds = [1.0, 10.0, 100.0];
        let buckets = [5, 3, 1, 1]; // +overflow
        assert_eq!(histogram_quantile(&bounds, &buckets, 0.5), Some(1.0));
        assert_eq!(histogram_quantile(&bounds, &buckets, 0.8), Some(10.0));
        assert_eq!(histogram_quantile(&bounds, &buckets, 0.9), Some(100.0));
        // Overflow bucket floors at the largest finite bound.
        assert_eq!(histogram_quantile(&bounds, &buckets, 1.0), Some(100.0));
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0, 0], 0.5), None);
    }

    #[test]
    fn snapshot_flattens_counters_gauges_and_histograms() {
        let reg = Registry::new();
        reg.counter_with("mdx_req_total", "reqs", &[("verb", "run")])
            .add(3);
        reg.counter_with("mdx_req_total", "reqs", &[("verb", "stats")])
            .inc();
        reg.gauge("mdx_idle", "idle").set(0.25);
        let h = reg.histogram("mdx_lat", "lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(5.0);
        h.observe(50.0);
        let f = SignalFrame::from_snapshot(7, &reg.snapshot());
        assert_eq!(f.tick, 7);
        assert_eq!(f.get("mdx_req_total"), Some(4.0));
        assert_eq!(f.get("mdx_req_total{verb=\"run\"}"), Some(3.0));
        assert_eq!(f.get("mdx_idle"), Some(0.25));
        assert_eq!(f.get("mdx_lat_p50"), Some(10.0));
        assert_eq!(f.get("mdx_lat_p99"), Some(10.0)); // overflow floors
        assert_eq!(f.get("mdx_lat_count"), Some(4.0));
    }

    #[test]
    fn labeled_histogram_family_aggregates_across_series() {
        let reg = Registry::new();
        let run = reg.histogram_with("mdx_req_s", "lat", &[1.0, 10.0], &[("verb", "run")]);
        let stats = reg.histogram_with("mdx_req_s", "lat", &[1.0, 10.0], &[("verb", "stats")]);
        for _ in 0..9 {
            run.observe(0.5);
        }
        stats.observe(5.0);
        let f = SignalFrame::from_snapshot(0, &reg.snapshot());
        // Per-series quantiles and the family-level aggregate both exist.
        assert_eq!(f.get("mdx_req_s{verb=\"run\"}_p99"), Some(1.0));
        assert_eq!(f.get("mdx_req_s_count"), Some(10.0));
        assert_eq!(f.get("mdx_req_s_p50"), Some(1.0));
        assert_eq!(f.get("mdx_req_s_p99"), Some(10.0));
    }

    #[test]
    fn frames_are_deterministic_and_ordered() {
        let mut a = SignalFrame::new(0);
        a.set("z", 1.0).set("a", 2.0).set("bad", f64::NAN);
        let mut b = SignalFrame::new(0);
        b.set("a", 2.0).set("z", 1.0);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.get("bad"), None);
    }
}
