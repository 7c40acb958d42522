//! The resident campaign service: request dispatch, worker pool, and the
//! stdio / TCP serving loops behind `campaign serve`.
//!
//! [`Service`] is the protocol brain — stateless per request apart from
//! the result cache and the post-mortem store, so it is shared freely
//! across worker threads. [`Server`] owns a fixed pool of OS threads
//! feeding off one queue: each request line is simulated (or answered
//! from cache) on a worker and its response line is written, under a
//! per-connection lock, as soon as it is ready — a client pipelining N
//! tokens gets rows streamed back as they finish, not batched at the end.
//!
//! Memory stays bounded for arbitrarily long sessions: the row cache is
//! capped (FIFO), post-mortems are capped, and streaming rows feed the
//! engine incrementally through its `TrafficSource` seam (a
//! [`mdx_workloads::StreamSource`]) plus windowed telemetry rather than
//! materialized schedules.
//!
//! With span collection on (`--span-log` / `--span-sample`), every request
//! gets a trace: a `request` root span tiled exactly by its `queue`,
//! `cache`, `run` (with the engine's phase and reconfig-epoch children),
//! and `serialize` phases, offered to a [`mdx_obs::SpanCollector`] and
//! echoed on the response via its `trace` id.

use crate::cache::{row_key, ResultCache, DEFAULT_CACHE_CAPACITY};
use crate::metrics::{spawn_metrics_listener, spawn_snapshot_writer, ServeMetrics};
use crate::protocol::{Request, Response, ServeStats};
use mdx_campaign::{push_engine_spans, run_scenario_instrumented, ObsOptions, Scenario, Workload};
use mdx_health::{HealthEngine, HealthReport, SignalFrame, SloSpec};
use mdx_metrics::Registry;
use mdx_obs::{PostmortemReport, SpanCollector, SpanUnit, TraceBuilder};
use mdx_tournament::{run_tournament, TournamentResult, TournamentSpec};
use mdx_workloads::StreamSpec;
use serde::value::Value;
use serde::Serialize as _;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Post-mortems retained for `postmortem` requests (FIFO eviction).
pub const MAX_POSTMORTEMS: usize = 64;

/// Finished tournament tables retained for repeat `tournament` requests
/// (FIFO eviction). Tables are small but each one took a whole grid of
/// simulations to produce, so a resident server keeps the recent ones.
pub const MAX_TOURNAMENTS: usize = 16;

/// Default interval, in seconds, between `--metrics-file` snapshots.
pub const DEFAULT_METRICS_EVERY_SECS: u64 = 10;

/// Default interval, in seconds, between periodic SLO evaluations.
pub const DEFAULT_SLO_EVERY_SECS: u64 = 2;

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads simulating requests concurrently.
    pub workers: usize,
    /// Default window width (cycles) for per-row open-loop telemetry;
    /// requests may override per row. `None` disables window telemetry.
    pub windows: Option<u64>,
    /// Disk tier for the result cache (shared with `campaign replay`).
    pub cache_dir: Option<PathBuf>,
    /// In-memory result-cache capacity, in rows.
    pub cache_capacity: usize,
    /// Bind address for the Prometheus text endpoint (`--metrics-addr`);
    /// `None` disables the HTTP exporter.
    pub metrics_addr: Option<String>,
    /// Path for periodic Prometheus-text snapshots (`--metrics-file`);
    /// `None` disables the file writer.
    pub metrics_file: Option<PathBuf>,
    /// Seconds between `metrics_file` snapshots.
    pub metrics_every_secs: u64,
    /// JSONL span log path (`--span-log`). Setting this (or `span_sample`)
    /// turns span collection on.
    pub span_log: Option<PathBuf>,
    /// Head-sampling rate in `[0, 1]` (`--span-sample`); traces with
    /// abnormal outcomes are kept regardless. Setting this (or `span_log`)
    /// turns span collection on; the default rate is 1.0 (keep all).
    pub span_sample: Option<f64>,
    /// Parsed SLO spec (`--slo FILE`); `None` disables health evaluation,
    /// the `health` verb, and verdict stamping entirely — response lines
    /// stay byte-identical to a pre-SLO server.
    pub slo: Option<SloSpec>,
    /// JSONL alert-log path (`--alert-log`): every SLO status transition
    /// appends one [`mdx_health::Alert`] line.
    pub alert_log: Option<PathBuf>,
    /// Seconds between periodic SLO evaluations.
    pub slo_every_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            windows: None,
            cache_dir: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            metrics_addr: None,
            metrics_file: None,
            metrics_every_secs: DEFAULT_METRICS_EVERY_SECS,
            span_log: None,
            span_sample: None,
            slo: None,
            alert_log: None,
            slo_every_secs: DEFAULT_SLO_EVERY_SECS,
        }
    }
}

/// The SLO evaluator a `--slo` service carries: the burn-rate engine, the
/// latest overall verdict (lock-free, for stamping every response line),
/// and the alert log sink.
struct HealthState {
    engine: Mutex<HealthEngine>,
    /// Latest overall status in its gauge encoding (0 pass, 1 warn,
    /// 2 breach).
    last: AtomicUsize,
    alert_log: Option<Mutex<std::fs::File>>,
}

/// The request dispatcher: runs scenarios (through the cache) and answers
/// protocol verbs. Shared across workers via `Arc`.
pub struct Service {
    windows: Option<u64>,
    workers: usize,
    cache: ResultCache,
    postmortems: Mutex<(HashMap<String, PostmortemReport>, Vec<String>)>,
    tournaments: Mutex<(HashMap<String, TournamentResult>, Vec<String>)>,
    /// The service's only counter store: every exporter view and
    /// [`Service::stats`] read it.
    registry: Registry,
    metrics: ServeMetrics,
    spans: Option<Arc<SpanCollector>>,
    health: Option<HealthState>,
    /// Wall-clock zero for span timestamps: every span offset is
    /// microseconds since the service was built, so spans from different
    /// workers share one timeline.
    epoch: Instant,
}

impl Service {
    /// Builds a service from its configuration.
    pub fn new(cfg: &ServeConfig) -> Service {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let mut cache = ResultCache::new(cfg.cache_capacity, &registry);
        if let Some(dir) = &cfg.cache_dir {
            cache = cache.with_dir(dir);
        }
        let spans = if cfg.span_log.is_some() || cfg.span_sample.is_some() {
            let rate = cfg.span_sample.unwrap_or(1.0);
            let collector = match &cfg.span_log {
                Some(path) => match SpanCollector::new(rate).with_log(path) {
                    Ok(c) => c,
                    Err(e) => {
                        // A broken log path degrades to in-memory
                        // collection — observability must not take the
                        // service down.
                        eprintln!("campaign serve: span log {} disabled: {e}", path.display());
                        SpanCollector::new(rate)
                    }
                },
                None => SpanCollector::new(rate),
            };
            Some(Arc::new(collector))
        } else {
            None
        };
        let health = cfg.slo.as_ref().map(|spec| {
            let alert_log = cfg.alert_log.as_ref().and_then(|path| {
                match std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    Ok(f) => Some(Mutex::new(f)),
                    Err(e) => {
                        // Same degradation policy as the span log: a broken
                        // sink must not take the service down.
                        eprintln!("campaign serve: alert log {} disabled: {e}", path.display());
                        None
                    }
                }
            });
            HealthState {
                engine: Mutex::new(HealthEngine::new(spec.clone())),
                last: AtomicUsize::new(0),
                alert_log,
            }
        });
        Service {
            // A zero width would panic the window observer; treat it as
            // "no window telemetry" rather than arming a trap.
            windows: cfg.windows.filter(|&w| w > 0),
            workers: cfg.workers,
            cache,
            postmortems: Mutex::new((HashMap::new(), Vec::new())),
            tournaments: Mutex::new((HashMap::new(), Vec::new())),
            registry,
            metrics,
            spans,
            health,
            epoch: Instant::now(),
        }
    }

    /// Whether this service evaluates SLOs (`--slo`).
    pub fn has_slo(&self) -> bool {
        self.health.is_some()
    }

    /// The latest overall SLO verdict (`pass` / `warn` / `breach`), or
    /// `None` when no SLO spec is loaded. Lock-free — cheap enough to
    /// stamp on every response line.
    pub fn verdict(&self) -> Option<String> {
        self.health.as_ref().map(|h| {
            match h.last.load(Ordering::Relaxed) {
                2 => "breach",
                1 => "warn",
                _ => "pass",
            }
            .to_string()
        })
    }

    /// Builds the SLO evaluation frame: the flattened registry snapshot
    /// plus derived service-level rates (`error_rate`, `cache_hit_rate`,
    /// `deadlock_rate`, `completed_rate`) and short aliases for the
    /// request-latency percentiles, so spec files can say `latency_p99`
    /// instead of the full family selector.
    fn health_frame(&self) -> SignalFrame {
        let snap = self.registry.snapshot();
        let mut f = SignalFrame::from_snapshot(0, &snap);
        let rows = f.get("mdx_serve_rows_total").unwrap_or(0.0);
        if rows > 0.0 {
            let deadlocks = f
                .get("mdx_serve_rows_total{outcome=\"deadlock\"}")
                .unwrap_or(0.0);
            let completed = f
                .get("mdx_serve_rows_total{outcome=\"completed\"}")
                .unwrap_or(0.0);
            f.set("deadlock_rate", deadlocks / rows);
            f.set("completed_rate", completed / rows);
        }
        let requests = f.get("mdx_serve_requests_total").unwrap_or(0.0);
        if requests > 0.0 {
            let errors = f.get("mdx_serve_errors_total").unwrap_or(0.0);
            f.set("error_rate", errors / requests);
        }
        let hits = f.get("mdx_serve_cache_hits_total").unwrap_or(0.0);
        let lookups = hits + f.get("mdx_serve_cache_misses_total").unwrap_or(0.0);
        if lookups > 0.0 {
            f.set("cache_hit_rate", hits / lookups);
        }
        for (alias, src) in [
            ("latency_p50", "mdx_serve_request_seconds_p50"),
            ("latency_p95", "mdx_serve_request_seconds_p95"),
            ("latency_p99", "mdx_serve_request_seconds_p99"),
            ("queue_wait_p99", "mdx_serve_queue_wait_seconds_p99"),
            ("idle_tick_fraction", "mdx_engine_idle_tick_fraction"),
        ] {
            if let Some(v) = f.get(src) {
                f.set(alias, v);
            }
        }
        f
    }

    /// Runs one SLO evaluation tick: builds the frame, advances the
    /// burn-rate engine, refreshes the `mdx_health_status` /
    /// `mdx_slo_burn_rate` / `mdx_slo_budget_remaining` gauges, and
    /// appends any fired alerts to the alert log. Returns `None` when no
    /// SLO spec is loaded. Both the periodic evaluator and the `health`
    /// verb land here, so a pull is never staler than one request.
    pub fn evaluate_health(&self) -> Option<HealthReport> {
        let hs = self.health.as_ref()?;
        let frame = self.health_frame();
        let report = hs
            .engine
            .lock()
            .expect("health engine lock")
            .observe(&frame);
        hs.last
            .store(report.status.gauge_value() as usize, Ordering::Relaxed);
        self.registry
            .gauge(
                "mdx_health_status",
                "Overall SLO status: 0 pass, 1 warn, 2 breach",
            )
            .set(report.status.gauge_value());
        for o in &report.objectives {
            self.registry
                .gauge_with(
                    "mdx_slo_burn_rate",
                    "Error-budget burn rate, per objective and window",
                    &[("objective", o.id.as_str()), ("window", "fast")],
                )
                .set(o.fast_burn);
            self.registry
                .gauge_with(
                    "mdx_slo_burn_rate",
                    "Error-budget burn rate, per objective and window",
                    &[("objective", o.id.as_str()), ("window", "slow")],
                )
                .set(o.slow_burn);
            self.registry
                .gauge_with(
                    "mdx_slo_budget_remaining",
                    "Unspent slow-window error budget, per objective",
                    &[("objective", o.id.as_str())],
                )
                .set(o.budget_remaining);
        }
        if !report.alerts.is_empty() {
            if let Some(log) = &hs.alert_log {
                let mut w = log.lock().unwrap_or_else(|e| e.into_inner());
                for a in &report.alerts {
                    let line = serde_json::to_string(a).expect("alert serializes");
                    let _ = writeln!(w, "{line}");
                }
                let _ = w.flush();
            }
        }
        Some(report)
    }

    /// Counts one served row under `mdx_serve_rows_total{outcome=...}` —
    /// the counter family `deadlock_rate` / `completed_rate` SLO signals
    /// are derived from.
    fn count_row_outcome(&self, outcome: &str) {
        self.registry
            .counter_with(
                "mdx_serve_rows_total",
                "Rows served, by scenario outcome",
                &[("outcome", outcome)],
            )
            .inc();
    }

    /// The metric registry every exporter view (the `metrics` verb, the
    /// Prometheus endpoint, the snapshot file) reads from.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The serve-layer instruments (shared with the worker pool).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The span collector, when span collection is on.
    pub fn spans(&self) -> Option<&Arc<SpanCollector>> {
        self.spans.as_ref()
    }

    /// Microseconds since the service epoch, for span timestamps.
    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn now_us(&self) -> u64 {
        self.us(Instant::now())
    }

    /// Dispatches one parsed request, untraced (spans need the serialize
    /// boundary, so only [`Service::process_line`] emits them). The
    /// client's `trace` tag is still echoed.
    pub fn handle(&self, req: &Request) -> Response {
        let resp = self.handle_inner(req, None).with_trace(req.trace.clone());
        let verdict = self.verdict();
        resp.with_verdict(verdict)
    }

    /// Processes one request line end to end — parse, dispatch, serialize
    /// — and returns the response *line*. This is the span-instrumented
    /// path the worker pool uses: the serialize child span can only be
    /// closed after the response is encoded, so the trace finishes here.
    /// `queued_at` anchors the root's `queue` child.
    pub fn process_line(&self, line: &str, queued_at: Instant) -> String {
        let (resp, tr) = match serde_json::from_str::<Request>(line) {
            Ok(req) => {
                let mut tr = self.begin_trace(&req, queued_at);
                let resp = self.handle_inner(&req, tr.as_mut());
                // Echo the *effective* trace id: the client's tag, or the
                // server-minted id a traced-but-untagged request got.
                let trace = match &tr {
                    Some(tr) => Some(tr.t.trace_id().to_string()),
                    None => req.trace.clone(),
                };
                (resp.with_trace(trace), tr)
            }
            Err(e) => {
                self.metrics.error("parse");
                let resp = Response::error(None, format!("bad request: {e}"))
                    .with_trace(trace_of_line(line));
                (resp, None)
            }
        };
        // Verdict stamping covers every path — rows, verbs, unknown
        // verbs, even parse-error salvage — and happens after dispatch so
        // a `health` request's own evaluation is already reflected.
        let resp = resp.with_verdict(self.verdict());
        let body = serde_json::to_string(&resp).expect("response serializes");
        if let Some(mut tr) = tr {
            let collector = self.spans.as_ref().expect("trace implies a collector");
            let s1 = self.now_us();
            tr.t.add(Some(tr.root), "serialize", tr.last, s1, SpanUnit::Micros);
            tr.t.set_end(tr.root, s1);
            let root = tr.root;
            tr.t.attr(root, "outcome", &tr.outcome);
            // Head-sampled traces are kept; abnormal outcomes (errors,
            // deadlocks, cycle limits) are kept regardless of the sampler.
            if tr.sampled || tr.outcome != "completed" {
                collector.offer(tr.t.finish());
            } else {
                collector.drop_unsampled();
            }
        }
        body
    }

    /// Opens the root span of a traced request: a `request` root anchored
    /// at `queued_at` with a `queue` child up to now. Returns `None` when
    /// span collection is off.
    fn begin_trace(&self, req: &Request, queued_at: Instant) -> Option<RequestTrace> {
        let collector = self.spans.as_ref()?;
        let sampled = collector.head_sample();
        let trace_id = match &req.trace {
            Some(t) => t.clone(),
            None => collector.next_trace_id(),
        };
        let q0 = self.us(queued_at);
        let h0 = self.now_us();
        let mut t = TraceBuilder::new(trace_id);
        let root = t.add(None, "request", q0, h0, SpanUnit::Micros);
        t.attr(root, "verb", &req.cmd);
        t.add(Some(root), "queue", q0, h0, SpanUnit::Micros);
        Some(RequestTrace {
            t,
            root,
            last: h0,
            sampled,
            outcome: String::from("completed"),
        })
    }

    fn handle_inner(&self, req: &Request, mut tr: Option<&mut RequestTrace>) -> Response {
        let verb = self.metrics.verb(&req.cmd);
        verb.requests.inc();
        self.metrics.inflight.inc();
        let spans_before = tr.as_ref().map(|tr| tr.t.len());
        let t0 = Instant::now();
        let resp = match req.cmd.as_str() {
            "run" => self.cmd_run(req, tr.as_deref_mut()),
            "spec" => self.cmd_spec(req, tr.as_deref_mut()),
            "postmortem" => self.cmd_postmortem(req),
            "tournament" => self.cmd_tournament(req),
            "stats" => Response::stats(req.id, self.stats()),
            "metrics" => Response::metrics(req.id, self.registry.snapshot().to_value()),
            "spans" => self.cmd_spans(req),
            "health" => self.cmd_health(req),
            "shutdown" => Response::ok(req.id),
            other => Response::error(req.id, format!("unknown cmd `{other}`")),
        };
        let secs = t0.elapsed().as_secs_f64();
        if let Some(tr) = tr.as_deref_mut() {
            // The trace id rides along as the histogram's exemplar, so the
            // worst request per verb is replayable from /metrics alone.
            verb.latency.observe_exemplar(secs, tr.t.trace_id());
            if Some(tr.t.len()) == spans_before {
                // Verbs that opened no children of their own (stats,
                // errors, shutdown) still tile the root: one `handle`
                // span from the last boundary to now.
                let e = self.now_us();
                tr.t.add(Some(tr.root), "handle", tr.last, e, SpanUnit::Micros);
                tr.last = e;
            }
        } else {
            verb.latency.observe(secs);
        }
        self.metrics.inflight.dec();
        if resp.is_error() {
            let class = match req.cmd.as_str() {
                "run" | "spec" | "postmortem" | "tournament" | "stats" | "metrics" | "spans"
                | "health" | "shutdown" => "request",
                _ => "unknown_verb",
            };
            self.metrics.error(class);
            if let Some(tr) = tr {
                tr.outcome = String::from("error");
            }
        }
        resp
    }

    fn cmd_spans(&self, req: &Request) -> Response {
        match &self.spans {
            Some(c) => Response::spans(req.id, c.to_value()),
            None => Response::error(
                req.id,
                "span collection disabled; start with --span-log or --span-sample",
            ),
        }
    }

    fn cmd_health(&self, req: &Request) -> Response {
        match self.evaluate_health() {
            Some(report) => Response::health(req.id, report.to_value()),
            None => Response::error(req.id, "slo evaluation disabled; start with --slo FILE"),
        }
    }

    fn cmd_run(&self, req: &Request, tr: Option<&mut RequestTrace>) -> Response {
        let Some(token) = &req.token else {
            return Response::error(req.id, "run needs a `token`");
        };
        let scenario = match Scenario::from_token(token) {
            Ok(s) => s,
            Err(e) => return Response::error(req.id, e.to_string()),
        };
        self.run_row(req, token, &scenario, tr)
    }

    fn cmd_spec(&self, req: &Request, tr: Option<&mut RequestTrace>) -> Response {
        let Some(text) = &req.spec else {
            return Response::error(req.id, "spec needs a `spec` body");
        };
        let spec = match StreamSpec::parse(text) {
            Ok(s) => s,
            Err(e) => return Response::error(req.id, e.to_string()),
        };
        let shape = req.shape.clone().unwrap_or_else(|| vec![4, 4]);
        let scheme = req.scheme.as_deref().unwrap_or("sr2201");
        let horizon = spec.horizon;
        let mut scenario = Scenario::new(
            shape,
            scheme,
            Workload::Stream { spec },
            req.seed.unwrap_or(0),
        );
        // The horizon is the stream's cycle budget: a saturated run ends
        // there as `cycle-limit` instead of draining without bound.
        scenario.max_cycles = horizon;
        let token = scenario.token();
        self.run_row(req, &token, &scenario, tr)
    }

    /// Runs (or fetches) one row. The cache key covers the token and the
    /// effective window width, so the same token with different telemetry
    /// shapes is two distinct rows.
    fn run_row(
        &self,
        req: &Request,
        token: &str,
        scenario: &Scenario,
        mut tr: Option<&mut RequestTrace>,
    ) -> Response {
        // `windows: 0` is valid JSON but would assert inside the window
        // observer; reject it here so no request can panic a worker.
        if req.windows == Some(0) {
            return Response::error(req.id, "`windows` must be at least 1 cycle");
        }
        let windows = req.windows.or(self.windows);
        let key = row_key(token, windows);
        if !req.force {
            let hit = self.cache.get_tiered(key);
            if let Some(tr) = tr.as_deref_mut() {
                let c1 = self.now_us();
                let cache =
                    tr.t.add(Some(tr.root), "cache", tr.last, c1, SpanUnit::Micros);
                let tier = hit.as_ref().map(|(_, t)| t.as_str()).unwrap_or("miss");
                tr.t.attr(cache, "tier", tier);
                tr.last = c1;
            }
            if let Some((row, _)) = hit {
                self.count_row_outcome(&row.outcome);
                return Response::row(req.id, true, row);
            }
        }
        let opts = ObsOptions {
            windows,
            // Always-on forensics: abnormal rows carry a post-mortem and
            // the artifact stays fetchable by digest.
            flight: true,
            // Phase timing feeds the run span's source/step/probe children
            // and is engine self-measurement — never serialized, so the
            // row itself stays byte-identical to an untraced run.
            profile_phases: tr.is_some(),
            ..ObsOptions::default()
        };
        match run_scenario_instrumented(scenario, &opts) {
            Ok((row, telemetry)) => {
                if let Some(pm) = telemetry.postmortem {
                    self.remember_postmortem(&row.digest, pm);
                }
                if let Some(profile) = &row.profile {
                    self.metrics.engine.observe(profile);
                }
                if let Some(tr) = tr {
                    let r1 = self.now_us();
                    let run =
                        tr.t.add(Some(tr.root), "run", tr.last, r1, SpanUnit::Micros);
                    tr.t.attr(run, "token", &row.token);
                    tr.t.attr(run, "digest", &row.digest);
                    push_engine_spans(
                        &mut tr.t,
                        run,
                        tr.last,
                        r1,
                        row.profile.as_ref().and_then(|p| p.phases.as_ref()),
                        row.stats.cycles,
                        row.reconfig.as_ref(),
                    );
                    tr.outcome = row.outcome.clone();
                    tr.last = r1;
                }
                self.cache.put(key, &row);
                self.count_row_outcome(&row.outcome);
                Response::row(req.id, false, row)
            }
            Err(e) => Response::error(req.id, e.to_string()),
        }
    }

    fn remember_postmortem(&self, digest: &str, pm: PostmortemReport) {
        let mut store = self.postmortems.lock().expect("postmortem lock");
        let (map, order) = &mut *store;
        if map.insert(digest.to_string(), pm).is_none() {
            order.push(digest.to_string());
        }
        while order.len() > MAX_POSTMORTEMS {
            let old = order.remove(0);
            map.remove(&old);
        }
    }

    fn cmd_postmortem(&self, req: &Request) -> Response {
        let Some(digest) = &req.digest else {
            return Response::error(req.id, "postmortem needs a `digest`");
        };
        let store = self.postmortems.lock().expect("postmortem lock");
        match store.0.get(digest) {
            Some(pm) => Response::postmortem(req.id, pm.clone()),
            None => Response::error(req.id, format!("no post-mortem for digest {digest}")),
        }
    }

    /// Runs (or fetches) a cross-scheme tournament. The cache key is the
    /// *parsed* grid, so comment and whitespace variants of the same spec
    /// share one entry; `force` re-runs and refreshes it. Tournaments are
    /// deterministic, so a cached table is byte-identical to a re-run.
    fn cmd_tournament(&self, req: &Request) -> Response {
        let Some(text) = &req.spec else {
            return Response::error(req.id, "tournament needs a `spec` body");
        };
        let spec = match TournamentSpec::parse(text) {
            Ok(s) => s,
            Err(e) => return Response::error(req.id, e.to_string()),
        };
        let key = serde_json::to_string(&spec).expect("spec serializes");
        if !req.force {
            let store = self.tournaments.lock().expect("tournament lock");
            if let Some(table) = store.0.get(&key) {
                return Response::tournament(req.id, true, table.clone());
            }
        }
        let table = run_tournament(&spec);
        let mut store = self.tournaments.lock().expect("tournament lock");
        let (map, order) = &mut *store;
        if map.insert(key.clone(), table.clone()).is_none() {
            order.push(key);
        }
        while order.len() > MAX_TOURNAMENTS {
            let old = order.remove(0);
            map.remove(&old);
        }
        Response::tournament(req.id, false, table)
    }

    /// Current service counters, each read from the registry series that
    /// counts the event.
    pub fn stats(&self) -> ServeStats {
        let snap = self.registry.snapshot();
        let total = |name| snap.counter_total(name) as usize;
        ServeStats {
            served: total("mdx_serve_rows_total"),
            cache_hits: total("mdx_serve_cache_hits_total"),
            cache_misses: total("mdx_serve_cache_misses_total"),
            cache_evictions: total("mdx_serve_cache_evictions_total"),
            errors: total("mdx_serve_errors_total"),
            cached_rows: self.cache.len(),
            postmortems: self.postmortems.lock().expect("postmortem lock").1.len(),
            workers: self.workers,
        }
    }
}

/// The span scaffolding of one in-flight traced request: the builder, its
/// root span, and the running boundary where the next child begins. Every
/// child starts at `last` and advances it, so the root is tiled exactly —
/// no gaps, no overlap — by construction.
struct RequestTrace {
    t: TraceBuilder,
    root: u64,
    last: u64,
    sampled: bool,
    outcome: String,
}

/// Salvages the client's `trace` tag from a line that failed to parse as
/// a [`Request`] (or panicked its handler): a lenient `Value` parse is
/// enough to echo the tag on the error response.
fn trace_of_line(line: &str) -> Option<String> {
    let v: Value = serde_json::from_str(line).ok()?;
    match v.as_map()?.iter().find(|(k, _)| k == "trace")? {
        (_, Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// A writer a worker can stream a response line to (one lock per
/// connection keeps lines atomic under concurrency).
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

type Job = (String, SharedWriter, Instant);

/// Releases one pending slot (and wakes [`Server::drain`]) on drop, so a
/// request that panics its worker can never leave the counter stuck and
/// wedge `drain()`/`shutdown()`.
struct PendingGuard<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let (count, cv) = self.0;
        let mut n = count.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        drop(n);
        cv.notify_all();
    }
}

/// A fixed pool of worker threads draining request lines from one queue.
pub struct Server {
    service: Arc<Service>,
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    pending: Arc<(Mutex<usize>, Condvar)>,
}

impl Server {
    /// Spawns `workers` threads over a shared service.
    pub fn new(service: Arc<Service>, workers: usize) -> Server {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let pending = Arc::new((Mutex::new(0usize), Condvar::new()));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let service = service.clone();
                let pending = pending.clone();
                std::thread::spawn(move || loop {
                    let job = rx.lock().expect("job queue lock").recv();
                    let Ok((line, out, queued_at)) = job else {
                        break;
                    };
                    // Released on every exit path, including a panic below.
                    let _guard = PendingGuard(&pending);
                    let metrics = service.metrics();
                    metrics
                        .queue_wait
                        .observe(queued_at.elapsed().as_secs_f64());
                    metrics.workers_busy.inc();
                    // A handler panic must not kill the worker or drop the
                    // response: the client still gets an error line with
                    // its correlation id (and trace tag), and the pool
                    // keeps its size.
                    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        service.process_line(&line, queued_at)
                    }))
                    .unwrap_or_else(|_| {
                        metrics.error("panic");
                        let id = serde_json::from_str::<Request>(&line)
                            .ok()
                            .and_then(|r| r.id);
                        let resp = Response::error(id, "internal error: request handler panicked")
                            .with_trace(trace_of_line(&line));
                        serde_json::to_string(&resp).expect("response serializes")
                    });
                    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
                    let _ = writeln!(w, "{body}");
                    let _ = w.flush();
                    drop(w);
                    metrics.workers_busy.dec();
                })
            })
            .collect();
        Server {
            service,
            tx: Some(tx),
            workers,
            pending,
        }
    }

    /// The shared service (for inline verbs like shutdown).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Queues one request line; its response will be written to `out` by
    /// whichever worker picks it up.
    pub fn submit(&self, line: String, out: SharedWriter) {
        let (count, _) = &*self.pending;
        *count.lock().expect("pending lock") += 1;
        self.tx
            .as_ref()
            .expect("server accepting")
            .send((line, out, Instant::now()))
            .expect("workers alive");
    }

    /// Blocks until every queued request has been answered.
    pub fn drain(&self) {
        let (count, cv) = &*self.pending;
        let mut n = count.lock().expect("pending lock");
        while *n > 0 {
            n = cv.wait(n).expect("pending lock");
        }
    }

    /// Drains, then joins the pool.
    pub fn shutdown(mut self) {
        self.drain();
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The optional metrics exporters a serving loop runs alongside itself:
/// the Prometheus HTTP endpoint and/or the periodic snapshot file, both
/// stopped (with a final file snapshot) when the loop ends.
struct MetricsExporter {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// Starts whichever exporters `cfg` asks for, reading from `registry`.
    /// The bound endpoint address is announced on stderr so an operator
    /// (or a smoke script) using port 0 learns the real port.
    fn start(cfg: &ServeConfig, registry: &Registry) -> std::io::Result<MetricsExporter> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        if let Some(addr) = &cfg.metrics_addr {
            let listener = TcpListener::bind(addr)?;
            let (bound, handle) = spawn_metrics_listener(registry.clone(), listener, stop.clone())?;
            eprintln!("campaign serve: metrics on {bound}");
            threads.push(handle);
        }
        if let Some(path) = &cfg.metrics_file {
            threads.push(spawn_snapshot_writer(
                registry.clone(),
                path.clone(),
                Duration::from_secs(cfg.metrics_every_secs.max(1)),
                stop.clone(),
            ));
        }
        Ok(MetricsExporter { stop, threads })
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The periodic SLO evaluator a `--slo` serving loop runs alongside
/// itself: one thread ticking [`Service::evaluate_health`] every
/// `slo_every_secs`, so the burn-rate windows advance, the health gauges
/// stay fresh for scrapers, and alerts land in the log even when no
/// client is asking. Stopped (with a final evaluation) when the loop
/// ends.
struct HealthEvaluator {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl HealthEvaluator {
    /// Starts the evaluator when the service has an SLO spec loaded.
    fn start(service: &Arc<Service>, every: Duration) -> Option<HealthEvaluator> {
        if !service.has_slo() {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let svc = service.clone();
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            // Prime the gauges immediately: a scraper arriving before the
            // first interval still sees `mdx_health_status`.
            let _ = svc.evaluate_health();
            let mut last = Instant::now();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                if last.elapsed() >= every {
                    let _ = svc.evaluate_health();
                    last = Instant::now();
                }
            }
            // Final tick so shutdown flushes the closing verdict.
            let _ = svc.evaluate_health();
        });
        Some(HealthEvaluator { stop, thread })
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// True when the line is a `shutdown` request (handled inline so the
/// serving loop can stop accepting).
fn is_shutdown(line: &str) -> bool {
    serde_json::from_str::<Request>(line)
        .map(|r| r.cmd == "shutdown")
        .unwrap_or(false)
}

/// Serves one request stream to completion: lines are dispatched to the
/// pool and responses stream to `out` as they finish. Returns on EOF or
/// after acknowledging a `shutdown` request; either way every submitted
/// request has been answered when this returns.
pub fn serve_stream<R: BufRead>(server: &Server, input: R, out: SharedWriter) -> usize {
    let mut submitted = 0usize;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        if is_shutdown(&line) {
            server.drain();
            let body = server.service().process_line(&line, Instant::now());
            let mut w = out.lock().expect("writer lock");
            let _ = writeln!(w, "{body}");
            let _ = w.flush();
            break;
        }
        server.submit(line, out.clone());
        submitted += 1;
    }
    server.drain();
    submitted
}

/// Serves stdin to stdout until EOF or `shutdown`. A metrics exporter
/// that fails to bind degrades to serving without one (announced on
/// stderr) — observability must not take the service down.
pub fn serve_stdio(cfg: &ServeConfig) -> usize {
    let service = Arc::new(Service::new(cfg));
    let exporter = match MetricsExporter::start(cfg, service.registry()) {
        Ok(e) => Some(e),
        Err(e) => {
            eprintln!("campaign serve: metrics exporter disabled: {e}");
            None
        }
    };
    let server = Server::new(service, cfg.workers);
    let health = HealthEvaluator::start(
        server.service(),
        Duration::from_secs(cfg.slo_every_secs.max(1)),
    );
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let n = serve_stream(&server, std::io::stdin().lock(), out);
    if let Some(health) = health {
        health.stop();
    }
    server.shutdown();
    if let Some(exporter) = exporter {
        exporter.stop();
    }
    n
}

/// Binds `addr` and serves TCP connections (one reader thread each; all
/// connections share the worker pool) until some connection sends
/// `shutdown`. Returns the number of connections served.
pub fn serve_tcp(cfg: &ServeConfig, addr: impl ToSocketAddrs) -> std::io::Result<usize> {
    let listener = TcpListener::bind(addr)?;
    serve_on(cfg, listener, |_| {})
}

/// [`serve_tcp`] with a hook observing the bound address before the
/// accept loop starts — lets a test (or an operator script) learn an
/// ephemeral port.
pub fn serve_on(
    cfg: &ServeConfig,
    listener: TcpListener,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<usize> {
    listener.set_nonblocking(true)?;
    on_ready(listener.local_addr()?);
    let service = Arc::new(Service::new(cfg));
    let exporter = MetricsExporter::start(cfg, service.registry())?;
    let server = Arc::new(Server::new(service, cfg.workers));
    let health = HealthEvaluator::start(
        server.service(),
        Duration::from_secs(cfg.slo_every_secs.max(1)),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns = 0usize;
    let mut readers = Vec::new();
    // Live connections' sockets, so the stop path can unblock readers
    // parked in `lines()` on connections that stay open but idle. Each
    // reader prunes its own entry on exit — a departed client doesn't
    // leak a descriptor for the server's lifetime.
    let socks: Arc<Mutex<HashMap<usize, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _)) => {
                let conn_id = conns;
                conns += 1;
                sock.set_nonblocking(false)?;
                let reader = std::io::BufReader::new(sock.try_clone()?);
                socks
                    .lock()
                    .expect("socket table")
                    .insert(conn_id, sock.try_clone()?);
                let out: SharedWriter = Arc::new(Mutex::new(Box::new(sock)));
                let server = server.clone();
                let stop = stop.clone();
                let socks = socks.clone();
                readers.push(std::thread::spawn(move || {
                    let mut shutdown_line = None;
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        if line.trim().is_empty() {
                            continue;
                        }
                        if is_shutdown(&line) {
                            shutdown_line = Some(line);
                            break;
                        }
                        server.submit(line, out.clone());
                    }
                    socks.lock().expect("socket table").remove(&conn_id);
                    server.drain();
                    if let Some(line) = shutdown_line {
                        // Acknowledge through the service so the client's
                        // correlation id is echoed, as the stdio path does.
                        let body = server.service().process_line(&line, Instant::now());
                        let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
                        let _ = writeln!(w, "{body}");
                        let _ = w.flush();
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    // Close only the read halves: blocked readers see EOF and exit, while
    // responses still in flight can finish writing.
    for s in socks.lock().expect("socket table").values() {
        let _ = s.shutdown(Shutdown::Read);
    }
    for r in readers {
        let _ = r.join();
    }
    if let Some(health) = health {
        health.stop();
    }
    if let Ok(s) = Arc::try_unwrap(server) {
        s.shutdown();
    }
    exporter.stop();
    Ok(conns)
}
