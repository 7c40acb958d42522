//! The line-oriented JSON protocol a resident `campaign serve` process
//! speaks, over stdio or TCP.
//!
//! One request per line, one response per line. Every request may carry a
//! client-chosen `id`, echoed verbatim on its response so a client
//! pipelining requests across the worker pool can match answers arriving
//! out of order.
//!
//! Requests (`cmd` selects the verb; unused fields are omitted):
//!
//! ```text
//! {"cmd":"run","token":"MDX1...","id":1}            run or fetch a scenario
//! {"cmd":"run","token":"MDX1...","force":true}      bypass the result cache
//! {"cmd":"spec","spec":"phase 0..100 ...","shape":[4,4],"scheme":"sr2201","seed":7}
//! {"cmd":"postmortem","digest":"<row digest>"}      fetch forensics
//! {"cmd":"tournament","spec":"scheme all\nseeds 1"} run a scheme tournament
//! {"cmd":"stats"}                                   service counters
//! {"cmd":"metrics"}                                 full registry snapshot
//! {"cmd":"spans"}                                   span-collector ledger
//! {"cmd":"health"}                                  SLO verdict + firing alerts
//! {"cmd":"shutdown"}                                stop the server
//! ```
//!
//! Responses carry `kind`: `row` (with the full campaign row JSON and a
//! `cached` flag), `error` (with a message), `stats`, `metrics` (a JSON
//! rendering of the server's metric registry — the same data the
//! `--metrics-addr` Prometheus endpoint exposes as text), `spans` (the
//! span collector's ledger and resident-trace summaries), `postmortem`,
//! `tournament` (the finished cross-scheme table, with a `cached` flag —
//! resident servers answer repeat tournaments from a spec-keyed cache),
//! `health` (the SLO engine's current [`mdx_health::HealthReport`] as
//! JSON, for servers started with `--slo`), or `ok` (shutdown
//! acknowledgment).
//!
//! When the server is evaluating SLOs, *every* response line — rows,
//! stats, even parse-error salvage — additionally carries a compact
//! `verdict` field (`pass` / `warn` / `breach`), the overall status as of
//! the latest evaluation, so a client never has to issue a second request
//! to learn whether the service it is talking to is healthy.
//!
//! Every request may also carry a client-chosen `trace` string. It is
//! echoed on the response line — *including* error responses, so span
//! logs join to client logs even for requests that failed to parse — and,
//! when span collection is on, becomes the request's trace id. A traced
//! request without a client `trace` gets a server-minted id, also echoed,
//! so the client can fetch the trace later.
//!
//! Absent optional fields are *omitted* rather than `null`-padded: request
//! lines stay human-writable and response lines stay schema-stable as
//! fields are added.

use mdx_campaign::ScenarioReport;
use mdx_obs::PostmortemReport;
use mdx_tournament::TournamentResult;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// One protocol request line.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Request {
    /// The verb: `run`, `spec`, `postmortem`, `tournament`, `stats`,
    /// `metrics`, `spans`, `health`, or `shutdown`.
    pub cmd: String,
    /// Client correlation tag, echoed on the response.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// `MDX1.` scenario token (`run`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub token: Option<String>,
    /// Spec text: a workload stream for `spec` requests (see
    /// [`mdx_workloads::StreamSpec`]) or a tournament grid for
    /// `tournament` requests (see [`mdx_tournament::TournamentSpec`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spec: Option<String>,
    /// Topology extents for `spec` requests (default `[4, 4]`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shape: Option<Vec<u16>>,
    /// Routing scheme id for `spec` requests (default `sr2201`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scheme: Option<String>,
    /// Scenario seed for `spec` requests (default 0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Window width in cycles for this row's open-loop telemetry,
    /// overriding the server default.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub windows: Option<u64>,
    /// Skip the cache lookup and re-simulate (the fresh row still
    /// refreshes the cache).
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub force: bool,
    /// Row digest (`postmortem`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub digest: Option<String>,
    /// Client-chosen trace id, echoed on the response and adopted as the
    /// request's span trace id when collection is on.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
}

impl Request {
    /// A `run` request for one token.
    pub fn run(token: &str) -> Request {
        Request {
            cmd: "run".to_string(),
            token: Some(token.to_string()),
            ..Request::default()
        }
    }

    /// Tags the request with a client correlation id (builder style).
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Request {
        self.id = Some(id);
        self
    }

    /// Tags the request with a client trace id (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: impl Into<String>) -> Request {
        self.trace = Some(trace.into());
        self
    }
}

/// Service counters, returned by the `stats` verb. The counts are read
/// from the metric registry's `mdx_serve_*` series, so they always agree
/// with a Prometheus scrape.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Rows served (cache hits included): `mdx_serve_rows_total`.
    pub served: usize,
    /// Rows answered straight from the result cache:
    /// `mdx_serve_cache_hits_total`.
    pub cache_hits: usize,
    /// Cache lookups that missed and fell through to simulation:
    /// `mdx_serve_cache_misses_total`.
    pub cache_misses: usize,
    /// Rows evicted from the in-memory cache tier (FIFO cap):
    /// `mdx_serve_cache_evictions_total`.
    pub cache_evictions: usize,
    /// Error responses of every class — parse errors, unknown verbs,
    /// failed requests and handler panics: `mdx_serve_errors_total`.
    pub errors: usize,
    /// Rows currently resident in the in-memory cache.
    pub cached_rows: usize,
    /// Post-mortem artifacts held for `postmortem` requests.
    pub postmortems: usize,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// One protocol response line.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Response {
    /// The response kind: `row`, `error`, `stats`, `metrics`, `spans`,
    /// `postmortem`, `tournament`, or `ok`.
    pub kind: String,
    /// The request's correlation id, echoed back.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// Whether a `row` (or `tournament`) came from its cache.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cached: Option<bool>,
    /// The campaign row (`row`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub row: Option<ScenarioReport>,
    /// What went wrong (`error`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Service counters (`stats`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<ServeStats>,
    /// Metric-registry snapshot as JSON (`metrics`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<Value>,
    /// Span-collector ledger as JSON (`spans`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spans: Option<Value>,
    /// Forensic report (`postmortem`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub postmortem: Option<PostmortemReport>,
    /// The finished cross-scheme table (`tournament`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tournament: Option<TournamentResult>,
    /// The SLO engine's full report as JSON (`health`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub health: Option<Value>,
    /// Overall SLO status (`pass` / `warn` / `breach`), stamped on every
    /// response line when the server evaluates SLOs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub verdict: Option<String>,
    /// The request's trace id: the client's `trace` echoed back, or the
    /// server-minted id when span collection traced an untagged request.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
}

impl Response {
    /// A `row` response.
    pub fn row(id: Option<u64>, cached: bool, row: ScenarioReport) -> Response {
        Response {
            kind: "row".to_string(),
            id,
            cached: Some(cached),
            row: Some(row),
            ..Response::default()
        }
    }

    /// An `error` response.
    pub fn error(id: Option<u64>, msg: impl Into<String>) -> Response {
        Response {
            kind: "error".to_string(),
            id,
            error: Some(msg.into()),
            ..Response::default()
        }
    }

    /// A `stats` response.
    pub fn stats(id: Option<u64>, stats: ServeStats) -> Response {
        Response {
            kind: "stats".to_string(),
            id,
            stats: Some(stats),
            ..Response::default()
        }
    }

    /// A `metrics` response carrying a registry snapshot as JSON.
    pub fn metrics(id: Option<u64>, snapshot: Value) -> Response {
        Response {
            kind: "metrics".to_string(),
            id,
            metrics: Some(snapshot),
            ..Response::default()
        }
    }

    /// A `spans` response carrying the collector's ledger as JSON.
    pub fn spans(id: Option<u64>, ledger: Value) -> Response {
        Response {
            kind: "spans".to_string(),
            id,
            spans: Some(ledger),
            ..Response::default()
        }
    }

    /// A `postmortem` response.
    pub fn postmortem(id: Option<u64>, pm: PostmortemReport) -> Response {
        Response {
            kind: "postmortem".to_string(),
            id,
            postmortem: Some(pm),
            ..Response::default()
        }
    }

    /// A `tournament` response carrying the finished comparison table.
    pub fn tournament(id: Option<u64>, cached: bool, table: TournamentResult) -> Response {
        Response {
            kind: "tournament".to_string(),
            id,
            cached: Some(cached),
            tournament: Some(table),
            ..Response::default()
        }
    }

    /// A `health` response carrying the SLO engine's report as JSON.
    pub fn health(id: Option<u64>, report: Value) -> Response {
        Response {
            kind: "health".to_string(),
            id,
            health: Some(report),
            ..Response::default()
        }
    }

    /// An `ok` acknowledgment (shutdown).
    pub fn ok(id: Option<u64>) -> Response {
        Response {
            kind: "ok".to_string(),
            id,
            ..Response::default()
        }
    }

    /// Tags the response with the request's trace id (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<String>) -> Response {
        self.trace = trace;
        self
    }

    /// Stamps the overall SLO verdict (builder style).
    #[must_use]
    pub fn with_verdict(mut self, verdict: Option<String>) -> Response {
        self.verdict = verdict;
        self
    }

    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        self.kind == "error"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_omits_absent_fields() {
        let req = Request::run("MDX1.abc").with_id(7);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"cmd\":\"run\""));
        assert!(!json.contains("spec"), "{json}");
        assert!(!json.contains("force"), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn hand_written_requests_parse_with_defaults() {
        let req: Request = serde_json::from_str(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(req.cmd, "stats");
        assert_eq!(req.id, None);
        assert!(!req.force);
        // `null` reads as absent for optional fields, but `force` is a bool.
        let req: Request = serde_json::from_str(r#"{"cmd":"stats","id":null}"#).unwrap();
        assert_eq!(req.id, None);
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"run","force":null}"#).is_err());
    }

    #[test]
    fn error_response_roundtrip() {
        let resp = Response::error(Some(3), "bad token");
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(back.is_error());
        assert_eq!(back.id, Some(3));
        assert_eq!(back.error.as_deref(), Some("bad token"));
    }

    #[test]
    fn tournament_response_roundtrips() {
        let spec = mdx_tournament::TournamentSpec::parse(
            "scheme sr2201\ntopology mdx:3x3\nfaults none\nseeds 1\n",
        )
        .unwrap();
        let table = mdx_tournament::run_tournament(&spec);
        let resp = Response::tournament(Some(9), false, table.clone());
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"kind\":\"tournament\""));
        assert!(json.contains("\"cached\":false"));
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, Some(9));
        assert_eq!(back.tournament.as_ref(), Some(&table));

        // Non-tournament lines stay free of the field.
        let json = serde_json::to_string(&Response::ok(None)).unwrap();
        assert!(!json.contains("tournament"), "{json}");
    }

    #[test]
    fn trace_field_roundtrips_and_is_omitted_when_absent() {
        let req = Request::run("MDX1.abc").with_trace("cli-42");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"trace\":\"cli-42\""));
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace.as_deref(), Some("cli-42"));

        let resp = Response::ok(None).with_trace(Some("cli-42".to_string()));
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"trace\":\"cli-42\""));
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace.as_deref(), Some("cli-42"));

        // Untraced lines stay trace-free rather than null-padded.
        let json = serde_json::to_string(&Response::ok(None)).unwrap();
        assert!(!json.contains("trace"), "{json}");
    }

    #[test]
    fn health_and_verdict_roundtrip_and_are_omitted_when_absent() {
        let report = Value::Map(vec![(
            "status".to_string(),
            Value::Str("breach".to_string()),
        )]);
        let resp = Response::health(Some(4), report).with_verdict(Some("breach".to_string()));
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"kind\":\"health\""), "{json}");
        assert!(json.contains("\"verdict\":\"breach\""), "{json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, Some(4));
        assert_eq!(back.verdict.as_deref(), Some("breach"));
        assert!(back.health.is_some());

        // A verdict can ride on any kind, error lines included.
        let err = Response::error(None, "bad line").with_verdict(Some("pass".to_string()));
        let json = serde_json::to_string(&err).unwrap();
        assert!(json.contains("\"kind\":\"error\""), "{json}");
        assert!(json.contains("\"verdict\":\"pass\""), "{json}");

        // Servers without --slo emit byte-identical, verdict-free lines.
        let json = serde_json::to_string(&Response::ok(None)).unwrap();
        assert!(!json.contains("health"), "{json}");
        assert!(!json.contains("verdict"), "{json}");
    }
}
