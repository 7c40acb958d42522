//! Request-scoped distributed-style tracing: a dependency-light span
//! model, an in-process collector with head sampling, and two exporters
//! (Perfetto `trace_event` JSON written through [`crate::TraceDoc`], and a
//! JSONL span log).
//!
//! A [`Span`] is one timed region: trace id, span id, optional parent,
//! name, `[start, end]` in one of two time domains ([`SpanUnit::Micros`]
//! for wall-clock regions, [`SpanUnit::Cycles`] for simulation-time
//! regions), and free-form key/value attributes. Spans for one request
//! accumulate in a request-local [`TraceBuilder`] — the hot path touches
//! no shared state — and the finished trace is offered to a process-wide
//! [`SpanCollector`] in a single short critical section.
//!
//! Two design rules keep this honest in a serving hot path:
//!
//! - **The disabled path costs nothing.** A service without a collector
//!   never builds a span; the `spans_detached` row in the
//!   `engine_observer_overhead` bench pins this against the bare engine.
//! - **Head sampling decides early, abnormal outcomes always keep.** The
//!   keep/drop decision for a trace is taken when the request *starts*
//!   (deterministic 1-in-N counter, no RNG), but a trace whose outcome is
//!   abnormal (error, deadlock, cycle-limit) is kept regardless — tail
//!   forensics must not depend on the sampling dice.
//!
//! Timestamps are offsets from the collector owner's epoch (service
//! start), so spans from concurrent requests share one timeline. The two
//! units never mix inside one nesting check: wall-µs spans tile the
//! request timeline, cycle spans form their own subtree under the engine
//! run (pid 2 in the Perfetto export).

use crate::schema::{TraceArgs, TraceDoc, TraceEvent};
use serde::de::{field, Deserialize, Error};
use serde::ser::{Serialize, Serializer};
use serde::value::Value;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The time domain a span's `[start, end]` offsets live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanUnit {
    /// Wall-clock microseconds since the collector owner's epoch.
    Micros,
    /// Simulation cycles since the engine run's cycle 0.
    Cycles,
}

impl SpanUnit {
    /// Wire name (`us` / `cycles`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanUnit::Micros => "us",
            SpanUnit::Cycles => "cycles",
        }
    }

    /// Parses a wire name back into a unit.
    pub fn parse(s: &str) -> Option<SpanUnit> {
        match s {
            "us" => Some(SpanUnit::Micros),
            "cycles" => Some(SpanUnit::Cycles),
            _ => None,
        }
    }
}

/// One timed region of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace id — shared by every span of one request.
    pub trace: String,
    /// Span id, unique within the trace.
    pub id: u64,
    /// Parent span id; `None` marks a root.
    pub parent: Option<u64>,
    /// Region name (`request`, `queue`, `run`, `epoch 1`, ...).
    pub name: String,
    /// Region start, in `unit` offsets.
    pub start: u64,
    /// Region end, in `unit` offsets (`end >= start`).
    pub end: u64,
    /// Time domain of `start`/`end`.
    pub unit: SpanUnit,
    /// Free-form key/value attributes (`token`, `digest`, `tier`, ...).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Region length in `unit` ticks.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The value of attribute `key`, when present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl Serialize for Span {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_map();
        s.key("trace");
        s.str(&self.trace);
        s.key("span");
        s.u64(self.id);
        if let Some(p) = self.parent {
            s.key("parent");
            s.u64(p);
        }
        s.key("name");
        s.str(&self.name);
        s.key("start");
        s.u64(self.start);
        s.key("end");
        s.u64(self.end);
        s.key("unit");
        s.str(self.unit.as_str());
        if !self.attrs.is_empty() {
            s.key("attrs");
            s.begin_map();
            for (k, v) in &self.attrs {
                s.key(k);
                s.str(v);
            }
            s.end_map();
        }
        s.end_map();
    }
}

impl Deserialize for Span {
    fn from_value(v: &Value) -> Result<Span, Error> {
        let entries = v.as_map().ok_or_else(|| Error::expected("span map"))?;
        let unit_name = String::from_value(field(entries, "unit")?)?;
        let unit = SpanUnit::parse(&unit_name)
            .ok_or_else(|| Error::custom(format!("unknown span unit `{unit_name}`")))?;
        let parent = match entries.iter().find(|(k, _)| k == "parent") {
            Some((_, pv)) => Some(u64::from_value(pv)?),
            None => None,
        };
        let attrs = match entries.iter().find(|(k, _)| k == "attrs") {
            Some((_, av)) => av
                .as_map()
                .ok_or_else(|| Error::expected("attrs map"))?
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| Error::expected("string attr value"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let span = Span {
            trace: String::from_value(field(entries, "trace")?)?,
            id: u64::from_value(field(entries, "span")?)?,
            parent,
            name: String::from_value(field(entries, "name")?)?,
            start: u64::from_value(field(entries, "start")?)?,
            end: u64::from_value(field(entries, "end")?)?,
            unit,
            attrs,
        };
        if span.end < span.start {
            return Err(Error::custom(format!(
                "span `{}` ends before it starts",
                span.name
            )));
        }
        Ok(span)
    }
}

/// Request-local span accumulator. One builder per in-flight request; no
/// locks, no shared state — the finished `Vec<Span>` is handed to the
/// [`SpanCollector`] in one call.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: String,
    next_id: u64,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// A builder for trace `trace` (client-supplied or collector-minted).
    pub fn new(trace: impl Into<String>) -> TraceBuilder {
        TraceBuilder {
            trace: trace.into(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// The trace id every span of this builder carries.
    pub fn trace_id(&self) -> &str {
        &self.trace
    }

    /// Appends a span and returns its id (usable as a later `parent`).
    /// `end < start` is clamped to a zero-length span at `start`.
    pub fn add(
        &mut self,
        parent: Option<u64>,
        name: &str,
        start: u64,
        end: u64,
        unit: SpanUnit,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            trace: self.trace.clone(),
            id,
            parent,
            name: name.to_string(),
            start,
            end: end.max(start),
            unit,
            attrs: Vec::new(),
        });
        id
    }

    /// Attaches `key=value` to span `id` (no-op for an unknown id).
    pub fn attr(&mut self, id: u64, key: &str, value: impl Into<String>) {
        if let Some(s) = self.spans.iter_mut().find(|s| s.id == id) {
            s.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Moves span `id`'s end (clamped to its start; no-op for unknown id).
    pub fn set_end(&mut self, id: u64, end: u64) {
        if let Some(s) = self.spans.iter_mut().find(|s| s.id == id) {
            s.end = end.max(s.start);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Finishes the trace, yielding its spans in creation order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Default bound on resident kept traces (FIFO eviction past this).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Collector counters: one snapshot of the offer/keep/drop ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Traces finished while the collector was attached (kept + sampled out).
    pub offered: u64,
    /// Traces kept (head-sampled in, or abnormal-outcome override).
    pub kept: u64,
    /// Traces dropped by head sampling.
    pub sampled_out: u64,
    /// Kept traces later evicted from the resident ring (still in the log).
    pub evicted: u64,
}

/// Process-wide sink for finished traces: head-sampling decisions, a
/// bounded resident ring (for the `spans` protocol verb and the Perfetto
/// export), and an optional append-only JSONL log.
///
/// Writers never contend beyond one short `Mutex` append per *finished
/// trace* — span recording itself happens in the request-local
/// [`TraceBuilder`]. All counters are relaxed atomics.
#[derive(Debug)]
pub struct SpanCollector {
    /// Keep 1 trace in `keep_per` (0 = head-sample everything out).
    keep_per: u64,
    sample_seq: AtomicU64,
    id_seq: AtomicU64,
    salt: u64,
    offered: AtomicU64,
    kept: AtomicU64,
    sampled_out: AtomicU64,
    evicted: AtomicU64,
    capacity: usize,
    traces: Mutex<VecDeque<Vec<Span>>>,
    log: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
}

impl SpanCollector {
    /// A collector keeping `rate` of head-sampled traces (clamped to
    /// `[0, 1]`; `1.0` keeps everything, `0.0` keeps only abnormal
    /// outcomes). The resident ring holds [`DEFAULT_TRACE_CAPACITY`]
    /// traces.
    pub fn new(rate: f64) -> SpanCollector {
        let keep_per = if rate >= 1.0 {
            1
        } else if rate <= 0.0 {
            0
        } else {
            (1.0 / rate).round().max(1.0) as u64
        };
        SpanCollector {
            keep_per,
            sample_seq: AtomicU64::new(0),
            id_seq: AtomicU64::new(0),
            // Distinguishes trace ids across collector instances (e.g.
            // server restarts feeding one log) without any RNG dependency.
            salt: std::process::id() as u64,
            offered: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            capacity: DEFAULT_TRACE_CAPACITY,
            traces: Mutex::new(VecDeque::new()),
            log: None,
        }
    }

    /// Caps the resident ring at `capacity` traces (builder style).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> SpanCollector {
        self.capacity = capacity.max(1);
        self
    }

    /// Adds an append-only JSONL span log at `path` (one span per line;
    /// kept traces only).
    pub fn with_log(mut self, path: &std::path::Path) -> std::io::Result<SpanCollector> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::File::create(path)?;
        self.log = Some(Mutex::new(std::io::BufWriter::new(file)));
        Ok(self)
    }

    /// Mints a fresh trace id for a request that didn't supply one.
    /// Deterministic per collector (sequence FNV-mixed with a per-process
    /// salt), formatted as 16 hex digits.
    pub fn next_trace_id(&self) -> String {
        let seq = self.id_seq.fetch_add(1, Ordering::Relaxed);
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.salt;
        for b in seq.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// The head-sampling decision for a new trace: deterministic 1-in-N
    /// on a shared counter (no RNG, so a replayed session samples the
    /// same requests). Call once per request, at its start.
    pub fn head_sample(&self) -> bool {
        if self.keep_per == 0 {
            return false;
        }
        self.sample_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.keep_per)
    }

    /// Keeps a finished trace: appended to the JSONL log (when one is
    /// attached) and to the resident ring (FIFO eviction past capacity).
    /// The caller has already combined [`Self::head_sample`] with its
    /// always-keep-on-abnormal-outcome override.
    pub fn offer(&self, spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        self.offered.fetch_add(1, Ordering::Relaxed);
        self.kept.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = &self.log {
            let mut w = log.lock().expect("span log lock");
            for s in &spans {
                // Log failures degrade silently: tracing must never take
                // the service down.
                let _ = writeln!(w, "{}", serde_json::to_string(s).expect("span serializes"));
            }
            let _ = w.flush();
        }
        let mut ring = self.traces.lock().expect("span ring lock");
        ring.push_back(spans);
        while ring.len() > self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished trace that head sampling dropped (ledger only).
    pub fn drop_unsampled(&self) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        self.sampled_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the offer/keep/drop ledger.
    pub fn stats(&self) -> SpanStats {
        SpanStats {
            offered: self.offered.load(Ordering::Relaxed),
            kept: self.kept.load(Ordering::Relaxed),
            sampled_out: self.sampled_out.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Clones the resident kept traces, oldest first.
    pub fn kept_traces(&self) -> Vec<Vec<Span>> {
        self.traces
            .lock()
            .expect("span ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The ledger plus one summary line per resident trace — the payload
    /// of the `spans` protocol verb.
    pub fn to_value(&self) -> Value {
        let stats = self.stats();
        let traces = self.kept_traces();
        let rows: Vec<Value> = traces
            .iter()
            .filter_map(|t| {
                let root = t.iter().find(|s| s.parent.is_none())?;
                let mut m: Vec<(String, Value)> = vec![
                    ("trace".into(), Value::Str(root.trace.clone())),
                    ("name".into(), Value::Str(root.name.clone())),
                    ("duration_us".into(), Value::U64(root.duration())),
                    ("spans".into(), Value::U64(t.len() as u64)),
                ];
                if let Some(tok) = t.iter().find_map(|s| s.attr("token")) {
                    m.push(("token".into(), Value::Str(tok.to_string())));
                }
                Some(Value::Map(m))
            })
            .collect();
        Value::Map(vec![
            ("offered".into(), Value::U64(stats.offered)),
            ("kept".into(), Value::U64(stats.kept)),
            ("sampled_out".into(), Value::U64(stats.sampled_out)),
            ("evicted".into(), Value::U64(stats.evicted)),
            ("resident".into(), Value::U64(traces.len() as u64)),
            ("traces".into(), Value::Seq(rows)),
        ])
    }
}

/// Parses a JSONL span log (one span per line; blank lines skipped).
pub fn parse_span_log(text: &str) -> Result<Vec<Span>, Error> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| serde_json::from_str::<Span>(l).map_err(|e| Error::custom(e.to_string())))
        .collect()
}

/// Groups a flat span list back into whole traces, preserving first-seen
/// trace order and per-trace span order.
pub fn group_traces(spans: Vec<Span>) -> Vec<Vec<Span>> {
    let mut order: Vec<String> = Vec::new();
    let mut by_trace: Vec<Vec<Span>> = Vec::new();
    for s in spans {
        match order.iter().position(|t| *t == s.trace) {
            Some(i) => by_trace[i].push(s),
            None => {
                order.push(s.trace.clone());
                by_trace.push(vec![s]);
            }
        }
    }
    by_trace
}

/// Renders traces as Perfetto `trace_event` JSON: every span an `X`
/// slice, wall-µs spans on pid 1 and cycle spans on pid 2 (the two time
/// domains must not share a track), one tid per trace with `thread_name`
/// metadata naming the trace id. Root spans carry their trace id (and
/// `token` attribute, when tagged) in `args`. The output parses under the
/// strict [`crate::TraceDoc`] schema.
pub fn spans_to_perfetto(traces: &[Vec<Span>]) -> String {
    const PID_WALL: u64 = 1;
    const PID_CYCLES: u64 = 2;
    let pid_of = |unit: SpanUnit| match unit {
        SpanUnit::Micros => PID_WALL,
        SpanUnit::Cycles => PID_CYCLES,
    };
    let has = |trace: &[Span], unit: SpanUnit| trace.iter().any(|s| s.unit == unit);
    let mut events: Vec<String> = Vec::new();
    for (unit, name) in [
        (SpanUnit::Micros, "requests (us)"),
        (SpanUnit::Cycles, "engine (cycles)"),
    ] {
        if traces.iter().any(|t| has(t, unit)) {
            events.push(TraceEvent::meta(pid_of(unit), None, name).to_json());
        }
    }
    for (i, trace) in traces.iter().enumerate() {
        let tid = i as u64 + 1;
        let Some(first) = trace.first() else { continue };
        for unit in [SpanUnit::Micros, SpanUnit::Cycles] {
            if has(trace, unit) {
                events.push(TraceEvent::meta(pid_of(unit), Some(tid), &first.trace).to_json());
            }
        }
        for s in trace {
            let mut event = TraceEvent::slice(pid_of(s.unit), tid, &s.name, s.start, s.end);
            let args = TraceArgs {
                trace: s.parent.is_none().then(|| s.trace.clone()),
                token: s.attr("token").map(str::to_string),
                ..TraceArgs::default()
            };
            if args != TraceArgs::default() {
                event.args = Some(args);
            }
            events.push(event.to_json());
        }
    }
    TraceDoc::render(&events)
}

/// Per-name aggregate in a span-log summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStat {
    /// Span name.
    pub name: String,
    /// Time domain the spans of this name live in.
    pub unit: SpanUnit,
    /// Number of spans.
    pub count: usize,
    /// Summed duration.
    pub total: u64,
    /// Longest single span.
    pub max: u64,
}

/// One of the top-k slowest root requests in a span-log summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowTrace {
    /// Trace id.
    pub trace: String,
    /// Root span name.
    pub name: String,
    /// Root duration (wall µs).
    pub duration: u64,
    /// Scenario token tagged anywhere in the trace, when present.
    pub token: Option<String>,
    /// Direct wall-µs children of the root, in timeline order:
    /// `(name, duration)` — the request's critical-path breakdown.
    pub breakdown: Vec<(String, u64)>,
}

/// Aggregated view of a span log: per-name critical-path totals plus the
/// top-k slowest exemplar traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Whole traces in the log.
    pub traces: usize,
    /// Total spans in the log.
    pub spans: usize,
    /// Per-name aggregates, wall-µs names first, by total descending.
    pub by_name: Vec<NameStat>,
    /// The slowest root requests, slowest first.
    pub slowest: Vec<SlowTrace>,
}

/// Summarizes a flat span list (as parsed from a JSONL log): per-name
/// totals and the `top_k` slowest wall-clock roots with their child
/// breakdowns.
pub fn summarize_spans(spans: &[Span], top_k: usize) -> SpanSummary {
    let mut by_name: Vec<NameStat> = Vec::new();
    for s in spans {
        match by_name
            .iter_mut()
            .find(|n| n.name == s.name && n.unit == s.unit)
        {
            Some(n) => {
                n.count += 1;
                n.total += s.duration();
                n.max = n.max.max(s.duration());
            }
            None => by_name.push(NameStat {
                name: s.name.clone(),
                unit: s.unit,
                count: 1,
                total: s.duration(),
                max: s.duration(),
            }),
        }
    }
    by_name.sort_by(|a, b| {
        (a.unit == SpanUnit::Cycles)
            .cmp(&(b.unit == SpanUnit::Cycles))
            .then(b.total.cmp(&a.total))
    });

    let traces = group_traces(spans.to_vec());
    let mut slowest: Vec<SlowTrace> = traces
        .iter()
        .filter_map(|t| {
            let root = t
                .iter()
                .find(|s| s.parent.is_none() && s.unit == SpanUnit::Micros)?;
            let breakdown: Vec<(String, u64)> = t
                .iter()
                .filter(|s| s.parent == Some(root.id) && s.unit == SpanUnit::Micros)
                .map(|s| (s.name.clone(), s.duration()))
                .collect();
            Some(SlowTrace {
                trace: root.trace.clone(),
                name: root.name.clone(),
                duration: root.duration(),
                token: t.iter().find_map(|s| s.attr("token").map(String::from)),
                breakdown,
            })
        })
        .collect();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.duration));
    slowest.truncate(top_k);

    SpanSummary {
        traces: traces.len(),
        spans: spans.len(),
        by_name,
        slowest,
    }
}

impl SpanSummary {
    /// Renders the summary as the `campaign spans` table: per-name
    /// breakdown with share-of-root for wall-µs names, then the top-k
    /// slowest exemplar traces with their child decomposition.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "span log: {} trace(s), {} span(s)\n\n",
            self.traces, self.spans
        ));
        let root_total = self.wall_root_total();
        out.push_str(&format!(
            "{:<24} {:>8} {:>7} {:>14} {:>12} {:>7}\n",
            "name", "unit", "count", "total", "max", "share"
        ));
        for n in &self.by_name {
            let share = if n.unit == SpanUnit::Micros && root_total > 0 {
                format!("{:.1}%", 100.0 * n.total as f64 / root_total as f64)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<24} {:>8} {:>7} {:>14} {:>12} {:>7}\n",
                n.name,
                n.unit.as_str(),
                n.count,
                n.total,
                n.max,
                share
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str(&format!("\nslowest {} trace(s):\n", self.slowest.len()));
            for (i, t) in self.slowest.iter().enumerate() {
                out.push_str(&format!(
                    "{:>3}. {}  {} = {} us",
                    i + 1,
                    t.trace,
                    t.name,
                    t.duration
                ));
                if let Some(tok) = &t.token {
                    out.push_str(&format!("  token={tok}"));
                }
                out.push('\n');
                if !t.breakdown.is_empty() {
                    let parts: Vec<String> = t
                        .breakdown
                        .iter()
                        .map(|(n, d)| format!("{n}={d}us"))
                        .collect();
                    out.push_str(&format!("     {}\n", parts.join(" ")));
                }
            }
        }
        out
    }

    /// Summed duration of all wall-µs root spans (the share denominator).
    fn wall_root_total(&self) -> u64 {
        // Root names are whatever the emitters used (`request`, `row`);
        // the summary recovers the denominator from the slowest list when
        // available, else from the largest wall total — conservative
        // either way.
        self.by_name
            .iter()
            .filter(|n| n.unit == SpanUnit::Micros)
            .filter(|n| n.name == "request" || n.name == "row")
            .map(|n| n.total)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDoc;

    fn sample_trace(trace: &str, with_cycles: bool) -> Vec<Span> {
        let mut t = TraceBuilder::new(trace);
        let root = t.add(None, "request", 100, 200, SpanUnit::Micros);
        t.add(Some(root), "queue", 100, 110, SpanUnit::Micros);
        t.add(Some(root), "cache", 110, 120, SpanUnit::Micros);
        let run = t.add(Some(root), "run", 120, 190, SpanUnit::Micros);
        t.add(Some(root), "serialize", 190, 200, SpanUnit::Micros);
        t.attr(run, "token", "MDX1.fake");
        if with_cycles {
            let engine = t.add(Some(run), "engine", 0, 500, SpanUnit::Cycles);
            let epoch = t.add(Some(engine), "epoch 1", 40, 90, SpanUnit::Cycles);
            t.add(Some(epoch), "detect", 40, 50, SpanUnit::Cycles);
            t.add(Some(epoch), "drain", 50, 70, SpanUnit::Cycles);
        }
        t.finish()
    }

    #[test]
    fn builder_assigns_ids_and_attrs() {
        let spans = sample_trace("t1", false);
        assert_eq!(spans.len(), 5);
        let root = &spans[0];
        assert_eq!(root.parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(root.id)));
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(run.attr("token"), Some("MDX1.fake"));
        assert_eq!(run.duration(), 70);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = sample_trace("t1", true);
        let log: String = spans
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect();
        let back = parse_span_log(&log).expect("log parses");
        assert_eq!(back, spans);
    }

    #[test]
    fn jsonl_rejects_bad_unit_and_reversed_span() {
        assert!(parse_span_log(
            r#"{"trace":"t","span":1,"name":"x","start":0,"end":1,"unit":"days"}"#
        )
        .is_err());
        assert!(parse_span_log(
            r#"{"trace":"t","span":1,"name":"x","start":5,"end":1,"unit":"us"}"#
        )
        .is_err());
    }

    #[test]
    fn head_sampling_is_deterministic_one_in_n() {
        let c = SpanCollector::new(0.25);
        let kept: Vec<bool> = (0..8).map(|_| c.head_sample()).collect();
        assert_eq!(
            kept,
            vec![true, false, false, false, true, false, false, false]
        );
        assert!(SpanCollector::new(1.0).head_sample());
        assert!(!SpanCollector::new(0.0).head_sample());
    }

    #[test]
    fn collector_ring_caps_and_counts() {
        let c = SpanCollector::new(1.0).with_capacity(2);
        for i in 0..3 {
            c.offer(sample_trace(&format!("t{i}"), false));
        }
        c.drop_unsampled();
        let stats = c.stats();
        assert_eq!(stats.offered, 4);
        assert_eq!(stats.kept, 3);
        assert_eq!(stats.sampled_out, 1);
        assert_eq!(stats.evicted, 1);
        let resident = c.kept_traces();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident[0][0].trace, "t1");
        assert_eq!(resident[1][0].trace, "t2");
    }

    #[test]
    fn minted_trace_ids_are_unique_hex() {
        let c = SpanCollector::new(1.0);
        let a = c.next_trace_id();
        let b = c.next_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|ch| ch.is_ascii_hexdigit()));
    }

    #[test]
    fn perfetto_export_passes_the_strict_schema() {
        let traces = vec![sample_trace("t1", true), sample_trace("t2", false)];
        let json = spans_to_perfetto(&traces);
        let doc = TraceDoc::parse(&json).expect("perfetto export validates");
        // Both process tracks named, both traces' threads named.
        assert_eq!(doc.events("M").count(), 2 + 2 + 1);
        // Every span is an X slice.
        let slices: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(doc.events("X").count(), slices);
        // Wall and cycle spans land on separate pids.
        assert!(doc.events("X").any(|e| e.pid == 1));
        assert!(doc.events("X").any(|e| e.pid == 2));
        // Roots carry their trace id in args.
        assert!(doc
            .events("X")
            .filter(|e| e.name == "request")
            .all(|e| e.args.as_ref().is_some_and(|a| a.trace.is_some())));
    }

    #[test]
    fn collector_log_appends_kept_traces() {
        let dir = std::env::temp_dir().join(format!(
            "mdx-span-log-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("spans.jsonl");
        let c = SpanCollector::new(1.0).with_log(&path).expect("log opens");
        c.offer(sample_trace("t1", true));
        c.offer(sample_trace("t2", false));
        let text = std::fs::read_to_string(&path).expect("log readable");
        let spans = parse_span_log(&text).expect("log parses");
        assert_eq!(group_traces(spans).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_breaks_down_critical_path() {
        let mut all = sample_trace("t1", true);
        all.extend(sample_trace("t2", false));
        let summary = summarize_spans(&all, 1);
        assert_eq!(summary.traces, 2);
        let req = summary
            .by_name
            .iter()
            .find(|n| n.name == "request")
            .unwrap();
        assert_eq!(req.count, 2);
        assert_eq!(req.total, 200);
        // Cycle-domain names sort after wall names.
        let first_cycle = summary
            .by_name
            .iter()
            .position(|n| n.unit == SpanUnit::Cycles)
            .unwrap();
        assert!(summary.by_name[..first_cycle]
            .iter()
            .all(|n| n.unit == SpanUnit::Micros));
        assert_eq!(summary.slowest.len(), 1);
        let slow = &summary.slowest[0];
        assert_eq!(slow.duration, 100);
        assert_eq!(slow.token.as_deref(), Some("MDX1.fake"));
        assert_eq!(
            slow.breakdown,
            vec![
                ("queue".to_string(), 10),
                ("cache".to_string(), 10),
                ("run".to_string(), 70),
                ("serialize".to_string(), 10),
            ]
        );
        let rendered = summary.render();
        assert!(rendered.contains("request"));
        assert!(rendered.contains("token=MDX1.fake"));
    }
}
