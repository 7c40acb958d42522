//! # mdx-metrics — lock-free metrics registry with Prometheus exposition
//!
//! A dependency-light metrics substrate for the SR2201 serving stack:
//! monotonic [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s whose
//! hot paths are plain atomic adds — no locks, no allocation after
//! registration. A [`Registry`] owns the metric families; handles returned
//! at registration are cheap `Arc` clones that writers keep and hammer.
//!
//! Reading is pull-based: [`Registry::snapshot`] materializes a consistent
//! point-in-time [`Snapshot`] which renders either as Prometheus text
//! exposition format ([`Snapshot::render_prometheus`]) or as a JSON-ready
//! [`serde::value::Value`] tree ([`Snapshot::to_value`]) for the serve
//! protocol's `metrics` verb.
//!
//! Design rules, in order:
//! 1. **Writers never block.** Every mutation is a relaxed atomic RMW.
//! 2. **Zero allocation after registration.** Handles are `Arc`s around
//!    fixed-size atomic cells; `observe` on a histogram is a bound scan
//!    plus three `fetch_add`s.
//! 3. **Detached costs nothing.** Components take `Option<Handle>`s; the
//!    `None` path is a branch on a constant (pinned by the `metrics` row of
//!    the `engine_observer_overhead` bench).
//!
//! ```
//! use mdx_metrics::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("mdx_cache_hits_total", "Cache hits");
//! hits.inc();
//! let lat = reg.histogram(
//!     "mdx_request_seconds",
//!     "Request latency",
//!     mdx_metrics::DEFAULT_LATENCY_BUCKETS_S,
//! );
//! lat.observe(0.002);
//! let text = reg.snapshot().render_prometheus();
//! assert!(text.contains("mdx_cache_hits_total 1"));
//! assert!(text.contains("mdx_request_seconds_count 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::value::Value;

/// Default latency bucket upper bounds, in seconds.
///
/// Spans 10µs (cache hits answer in ~5µs) through 30s (worst-case cold
/// deadlock sweeps), roughly logarithmic. Shared by the serve request and
/// queue-wait histograms and by the campaign per-row timers.
pub const DEFAULT_LATENCY_BUCKETS_S: &[f64] = &[
    10e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 10e-3, 50e-3, 0.1, 0.5, 1.0, 5.0, 30.0,
];

/// Default size bucket upper bounds for "how many things" histograms
/// (active packets per cycle, queue depths, batch sizes).
pub const DEFAULT_SIZE_BUCKETS: &[f64] = &[
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
];

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Instantaneous `f64`, may go up or down.
    Gauge,
    /// Fixed-bucket distribution of `f64` observations.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle. Cheap to clone; all clones share the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: an `f64` stored as bits in an `AtomicU64`.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` (may be negative) with a CAS loop.
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .cell
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Upper bounds, strictly increasing; an implicit `+Inf` bucket follows.
    bounds: Box<[f64]>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries, the last being the overflow (`+Inf`) bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of observed values, `f64` bits, CAS-accumulated.
    sum: AtomicU64,
    /// Exemplar floor, `f64` bits: observations below it never take the
    /// exemplar slot.
    exemplar_min: AtomicU64,
    /// Worst exemplar value seen so far, `f64` bits (`-Inf` until one is
    /// recorded).
    exemplar_value: AtomicU64,
    /// Label of the worst exemplar (a trace id). Mutex is fine: the lock
    /// is only taken when a new worst is being recorded, never on the
    /// plain observe path.
    exemplar_label: Mutex<Option<String>>,
}

/// A fixed-bucket histogram handle.
///
/// `observe` is a linear scan over the bucket bounds (a dozen compares)
/// plus three relaxed atomic adds — no locks, no allocation.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Record `n` identical observations in one shot (bulk import, e.g.
    /// folding a per-run occupancy profile into a service-lifetime
    /// histogram).
    pub fn observe_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let cell = &*self.cell;
        let mut idx = cell.bounds.len();
        for (i, b) in cell.bounds.iter().enumerate() {
            if v <= *b {
                idx = i;
                break;
            }
        }
        cell.buckets[idx].fetch_add(n, Ordering::Relaxed);
        cell.count.fetch_add(n, Ordering::Relaxed);
        let add = v * n as f64;
        let mut cur = cell.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match cell
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a duration, in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Record one observation and offer it as the series' exemplar — the
    /// caller's `label` (typically a trace id) is kept when `v` is at or
    /// above the exemplar threshold *and* beats the current worst.
    ///
    /// Cost above [`Histogram::observe`]: one relaxed load (the threshold
    /// compare) on the common path; the label `Mutex` is only taken for a
    /// new worst. Plain `observe` never touches the exemplar slot, so
    /// series that record no exemplars pay nothing.
    pub fn observe_exemplar(&self, v: f64, label: &str) {
        self.observe(v);
        let cell = &*self.cell;
        if v < f64::from_bits(cell.exemplar_min.load(Ordering::Relaxed)) {
            return;
        }
        if v > f64::from_bits(cell.exemplar_value.load(Ordering::Relaxed)) {
            // Label and value race benignly under concurrent writers: each
            // field ends up from *some* recent worst observation, and the
            // exemplar is diagnostic, not an accounting value.
            *cell.exemplar_label.lock().expect("exemplar label lock") = Some(label.to_string());
            cell.exemplar_value.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets the exemplar floor: observations below `min` never take the
    /// exemplar slot (default `0.0` — any non-negative observation may).
    pub fn set_exemplar_threshold(&self, min: f64) {
        self.cell
            .exemplar_min
            .store(min.to_bits(), Ordering::Relaxed);
    }

    /// The current exemplar, when one has been recorded.
    pub fn exemplar(&self) -> Option<Exemplar> {
        let label = self
            .cell
            .exemplar_label
            .lock()
            .expect("exemplar label lock")
            .clone()?;
        Some(Exemplar {
            label,
            value: f64::from_bits(self.cell.exemplar_value.load(Ordering::Relaxed)),
        })
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[inline]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.cell.sum.load(Ordering::Relaxed))
    }
}

enum CellRef {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

struct Series {
    labels: Vec<(String, String)>,
    cell: CellRef,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// The metric registry: owns families, hands out write handles.
///
/// Cloning a `Registry` is an `Arc` clone; all clones see the same metrics.
/// Registration takes a `Mutex` (cold path); handle mutation never does.
#[derive(Clone)]
pub struct Registry {
    families: Arc<Mutex<Vec<Family>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|g| g.len()).unwrap_or(0);
        write!(f, "Registry({n} families)")
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry {
            families: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> CellRef,
    ) -> CellRef {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut fams = self.families.lock().expect("metrics registry poisoned");
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name:?} registered twice with different kinds ({:?} vs {:?})",
                    f.kind,
                    kind
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = fam
            .series
            .iter()
            .find(|s| s.labels.len() == labels.len() && labels_eq(&s.labels, labels))
        {
            return clone_cell(&s.cell);
        }
        let cell = make();
        fam.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell: clone_cell(&cell),
        });
        cell
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            CellRef::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            CellRef::Counter(cell) => Counter { cell },
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels, || {
            CellRef::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            CellRef::Gauge(cell) => Gauge { cell },
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) an unlabeled histogram with the given bucket
    /// upper bounds (strictly increasing; a `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Register (or look up) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly increasing"
        );
        // A caller-supplied trailing `+Inf` would duplicate the implicit
        // overflow bucket and double-emit `le="+Inf"` in the exposition, so
        // normalize it away: the implicit bucket is the only `+Inf`.
        let bounds = match bounds.split_last() {
            Some((last, rest)) if *last == f64::INFINITY => rest,
            _ => bounds,
        };
        match self.register(name, help, Kind::Histogram, labels, || {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            CellRef::Histogram(Arc::new(HistogramCell {
                bounds: bounds.to_vec().into_boxed_slice(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0f64.to_bits()),
                exemplar_min: AtomicU64::new(0f64.to_bits()),
                exemplar_value: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
                exemplar_label: Mutex::new(None),
            }))
        }) {
            CellRef::Histogram(cell) => Histogram { cell },
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Materialize a point-in-time snapshot of every registered series.
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.lock().expect("metrics registry poisoned");
        Snapshot {
            families: fams
                .iter()
                .map(|f| FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series: f
                        .series
                        .iter()
                        .map(|s| SeriesSnapshot {
                            labels: s.labels.clone(),
                            value: match &s.cell {
                                CellRef::Counter(c) => {
                                    SampleValue::Counter(c.load(Ordering::Relaxed))
                                }
                                CellRef::Gauge(g) => {
                                    SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                                }
                                CellRef::Histogram(h) => SampleValue::Histogram {
                                    bounds: h.bounds.to_vec(),
                                    buckets: h
                                        .buckets
                                        .iter()
                                        .map(|b| b.load(Ordering::Relaxed))
                                        .collect(),
                                    count: h.count.load(Ordering::Relaxed),
                                    sum: f64::from_bits(h.sum.load(Ordering::Relaxed)),
                                    exemplar: h
                                        .exemplar_label
                                        .lock()
                                        .expect("exemplar label lock")
                                        .clone()
                                        .map(|label| Exemplar {
                                            label,
                                            value: f64::from_bits(
                                                h.exemplar_value.load(Ordering::Relaxed),
                                            ),
                                        }),
                                },
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn labels_eq(stored: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    stored
        .iter()
        .zip(wanted)
        .all(|((sk, sv), (wk, wv))| sk == wk && sv == wv)
}

fn clone_cell(cell: &CellRef) -> CellRef {
    match cell {
        CellRef::Counter(c) => CellRef::Counter(c.clone()),
        CellRef::Gauge(g) => CellRef::Gauge(g.clone()),
        CellRef::Histogram(h) => CellRef::Histogram(h.clone()),
    }
}

/// A histogram series' exemplar: the label (a trace id) attached to the
/// worst qualifying observation so far. Links an aggregate latency series
/// back to one concrete, replayable request.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Caller-supplied label — by convention a trace id.
    pub label: String,
    /// The exemplar observation's value.
    pub value: f64,
}

/// One sampled value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: per-bucket (non-cumulative) counts aligned with
    /// `bounds`, plus one trailing overflow bucket, total count, and sum.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts (`bounds.len() + 1` entries).
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Worst-qualifying-observation exemplar, when one was recorded
        /// via [`Histogram::observe_exemplar`].
        exemplar: Option<Exemplar>,
    },
}

/// One series (label set) in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Label key/value pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// One metric family in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name (e.g. `mdx_serve_request_seconds`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Family kind.
    pub kind: Kind,
    /// All registered series of this family.
    pub series: Vec<SeriesSnapshot>,
}

/// A consistent point-in-time read of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All families, in registration order.
    pub families: Vec<FamilySnapshot>,
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Render the snapshot in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP`/`# TYPE` headers, one sample
    /// line per series, histograms expanded into cumulative `_bucket{le=}`
    /// samples plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                fam.name,
                escape_help(&fam.help),
                fam.name,
                fam.kind.as_str()
            ));
            for s in &fam.series {
                match &s.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            label_block(&s.labels, None),
                            v
                        ));
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            label_block(&s.labels, None),
                            fmt_f64(*v)
                        ));
                    }
                    SampleValue::Histogram {
                        bounds,
                        buckets,
                        count,
                        sum,
                        exemplar,
                    } => {
                        let mut cum = 0u64;
                        for (i, b) in buckets.iter().enumerate() {
                            cum += b;
                            let le = bounds.get(i).copied().unwrap_or(f64::INFINITY);
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                fam.name,
                                label_block(&s.labels, Some(("le", fmt_f64(le)))),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            fam.name,
                            label_block(&s.labels, None),
                            fmt_f64(*sum)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            fam.name,
                            label_block(&s.labels, None),
                            count
                        ));
                        // The classic text format has no exemplar syntax
                        // (that's OpenMetrics), so render it as a comment a
                        // human or a lenient scraper can still read.
                        if let Some(ex) = exemplar {
                            out.push_str(&format!(
                                "# exemplar {}{} trace_id=\"{}\" value={}\n",
                                fam.name,
                                label_block(&s.labels, None),
                                escape_label(&ex.label),
                                fmt_f64(ex.value)
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Render the snapshot as a JSON-ready [`Value`] tree for the serve
    /// protocol's `metrics` verb:
    /// `{"families": [{"name", "kind", "help", "series": [{"labels": {..},
    /// "value" | "buckets"/"bounds"/"count"/"sum"}]}]}`.
    pub fn to_value(&self) -> Value {
        let fams = self
            .families
            .iter()
            .map(|fam| {
                let series = fam
                    .series
                    .iter()
                    .map(|s| {
                        let labels = Value::Map(
                            s.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                .collect(),
                        );
                        let mut m = vec![("labels".to_string(), labels)];
                        match &s.value {
                            SampleValue::Counter(v) => {
                                m.push(("value".to_string(), Value::U64(*v)));
                            }
                            SampleValue::Gauge(v) => {
                                m.push(("value".to_string(), Value::F64(*v)));
                            }
                            SampleValue::Histogram {
                                bounds,
                                buckets,
                                count,
                                sum,
                                exemplar,
                            } => {
                                m.push((
                                    "bounds".to_string(),
                                    Value::Seq(bounds.iter().map(|b| Value::F64(*b)).collect()),
                                ));
                                m.push((
                                    "buckets".to_string(),
                                    Value::Seq(buckets.iter().map(|b| Value::U64(*b)).collect()),
                                ));
                                m.push(("count".to_string(), Value::U64(*count)));
                                m.push(("sum".to_string(), Value::F64(*sum)));
                                if let Some(ex) = exemplar {
                                    m.push((
                                        "exemplar".to_string(),
                                        Value::Map(vec![
                                            ("label".to_string(), Value::Str(ex.label.clone())),
                                            ("value".to_string(), Value::F64(ex.value)),
                                        ]),
                                    ));
                                }
                            }
                        }
                        Value::Map(m)
                    })
                    .collect();
                Value::Map(vec![
                    ("name".to_string(), Value::Str(fam.name.clone())),
                    (
                        "kind".to_string(),
                        Value::Str(fam.kind.as_str().to_string()),
                    ),
                    ("help".to_string(), Value::Str(fam.help.clone())),
                    ("series".to_string(), Value::Seq(series)),
                ])
            })
            .collect();
        Value::Map(vec![("families".to_string(), Value::Seq(fams))])
    }

    /// Look up a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Convenience: the value of an unlabeled (or first) counter series.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.family(name)?
            .series
            .iter()
            .find_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// The sum of every counter series in family `name`, across all label
    /// values (0 when the family is absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name).map_or(0, |f| {
            f.series
                .iter()
                .map(|s| match s.value {
                    SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        })
    }

    /// Convenience: the value of an unlabeled (or first) gauge series.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.family(name)?
            .series
            .iter()
            .find_map(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_cloned_handles() {
        let reg = Registry::new();
        let a = reg.counter("mdx_test_total", "help");
        let b = a.clone();
        a.inc();
        b.add(2);
        // Re-registration returns the same cell.
        let c = reg.counter("mdx_test_total", "help");
        c.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter_value("mdx_test_total"), Some(4));
    }

    #[test]
    fn labeled_series_are_distinct_within_one_family() {
        let reg = Registry::new();
        let run = reg.counter_with("mdx_req_total", "reqs", &[("verb", "run")]);
        let stats = reg.counter_with("mdx_req_total", "reqs", &[("verb", "stats")]);
        run.add(3);
        stats.inc();
        let snap = reg.snapshot();
        let fam = snap.family("mdx_req_total").unwrap();
        assert_eq!(fam.series.len(), 2);
        assert_eq!(snap.counter_total("mdx_req_total"), 4);
        assert_eq!(snap.counter_total("mdx_absent_total"), 0);
        let text = snap.render_prometheus();
        assert!(text.contains("mdx_req_total{verb=\"run\"} 3"));
        assert!(text.contains("mdx_req_total{verb=\"stats\"} 1"));
        // One family header, not two.
        assert_eq!(text.matches("# TYPE mdx_req_total counter").count(), 1);
    }

    #[test]
    fn gauge_set_add_and_negative_values() {
        let reg = Registry::new();
        let g = reg.gauge("mdx_inflight", "in flight");
        g.set(5.0);
        g.dec();
        g.add(-1.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("mdx_inflight 2.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = Registry::new();
        let h = reg.histogram("mdx_lat_seconds", "latency", &[0.001, 0.01, 0.1]);
        h.observe(0.0005); // bucket 0
        h.observe(0.005); // bucket 1
        h.observe(0.005); // bucket 1
        h.observe(99.0); // overflow
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 99.0105).abs() < 1e-9);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("mdx_lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("mdx_lat_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("mdx_lat_seconds_bucket{le=\"0.1\"} 3"));
        assert!(text.contains("mdx_lat_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mdx_lat_seconds_count 4"));
    }

    #[test]
    fn observe_n_bulk_imports_match_repeated_observe() {
        let reg = Registry::new();
        let a = reg.histogram("mdx_a", "a", DEFAULT_SIZE_BUCKETS);
        let b = reg.histogram("mdx_b", "b", DEFAULT_SIZE_BUCKETS);
        for _ in 0..7 {
            a.observe(3.0);
        }
        b.observe_n(3.0, 7);
        assert_eq!(a.count(), b.count());
        assert!((a.sum() - b.sum()).abs() < 1e-9);
    }

    #[test]
    fn snapshot_value_tree_serializes_to_json() {
        let reg = Registry::new();
        reg.counter("mdx_hits_total", "hits").add(2);
        reg.histogram("mdx_h", "h", &[1.0]).observe(0.5);
        let v = reg.snapshot().to_value();
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("\"mdx_hits_total\""));
        assert!(json.contains("\"families\""));
        assert!(json.contains("\"buckets\""));
        // Round-trips through the shim parser.
        let back: Value = serde_json::from_str(&json).unwrap();
        let m = back.as_map().unwrap();
        assert_eq!(m[0].0, "families");
    }

    #[test]
    fn concurrent_writers_do_not_lose_increments() {
        let reg = Registry::new();
        let c = reg.counter("mdx_conc_total", "c");
        let h = reg.histogram("mdx_conc_h", "h", &[10.0]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe((i % 20) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn exemplar_keeps_worst_qualifying_observation() {
        let reg = Registry::new();
        let h = reg.histogram("mdx_ex_seconds", "latency", &[0.01, 0.1]);
        assert!(h.exemplar().is_none());
        h.observe(5.0); // plain observe never records an exemplar
        assert!(h.exemplar().is_none());
        h.observe_exemplar(0.02, "trace-a");
        h.observe_exemplar(0.08, "trace-b"); // new worst
        h.observe_exemplar(0.03, "trace-c"); // not worst — ignored
        let ex = h.exemplar().expect("exemplar recorded");
        assert_eq!(ex.label, "trace-b");
        assert!((ex.value - 0.08).abs() < 1e-12);
        // Below the floor: never takes the slot.
        h.set_exemplar_threshold(0.5);
        h.observe_exemplar(0.4, "trace-d");
        assert_eq!(h.exemplar().unwrap().label, "trace-b");
        assert_eq!(h.count(), 5);

        let snap = reg.snapshot();
        let text = snap.render_prometheus();
        assert!(
            text.contains("# exemplar mdx_ex_seconds trace_id=\"trace-b\" value=0.08"),
            "{text}"
        );
        // The comment must not break sample-line parsers: the _count line
        // is still present and uncommented.
        assert!(text.contains("mdx_ex_seconds_count 5"));
        let json = serde_json::to_string(&snap.to_value()).unwrap();
        assert!(json.contains("\"exemplar\""), "{json}");
        assert!(json.contains("\"trace-b\""), "{json}");
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_panics_at_registration() {
        let reg = Registry::new();
        reg.counter("mdx_x", "x");
        reg.gauge("mdx_x", "x");
    }

    #[test]
    fn explicit_inf_bound_emits_single_inf_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("mdx_inf_seconds", "latency", &[0.5, f64::INFINITY]);
        h.observe(0.1);
        h.observe(7.0);
        let text = reg.snapshot().render_prometheus();
        assert_eq!(
            text.matches("mdx_inf_seconds_bucket{le=\"+Inf\"}").count(),
            1,
            "{text}"
        );
        assert!(text.contains("mdx_inf_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("mdx_inf_seconds_bucket{le=\"+Inf\"} 2"));
        // The normalized registration and a finite-bounds registration of
        // the same family agree on the stored bounds, so re-registering
        // without the trailing +Inf resolves to the same cell.
        let again = reg.histogram("mdx_inf_seconds", "latency", &[0.5]);
        again.observe(0.2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn help_text_and_label_values_are_escaped_per_spec() {
        let reg = Registry::new();
        reg.counter_with(
            "mdx_esc_total",
            "line one\nback\\slash \"quoted\"",
            &[("path", "a\\b\n\"c\"")],
        )
        .inc();
        let text = reg.snapshot().render_prometheus();
        // HELP: escape `\` and `\n`; a raw quote is legal and left alone.
        assert!(
            text.contains("# HELP mdx_esc_total line one\\nback\\\\slash \"quoted\"\n"),
            "{text}"
        );
        // Label values: escape `\`, `\n`, and `"`.
        assert!(
            text.contains("mdx_esc_total{path=\"a\\\\b\\n\\\"c\\\"\"} 1\n"),
            "{text}"
        );
        // No raw newline may survive inside any sample or header line.
        assert!(text.lines().all(|l| !l.is_empty()), "{text}");
    }
}
