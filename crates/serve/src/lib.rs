//! # mdx-serve — the resident campaign service and `campaign` CLI
//!
//! Continuous-service mode for the SR2201 experiment stack: a
//! long-running process that accepts `MDX1.` scenario tokens and
//! streaming workload specs over a line-oriented JSON protocol
//! ([`protocol`]), simulates them on a worker pool ([`server`]), streams
//! result rows back as JSON lines, and answers repeat tokens from a
//! digest-keyed result cache ([`cache`]) — replays are free because every
//! row is deterministic per token.
//!
//! The protocol runs over stdio (`campaign serve`) or TCP
//! (`campaign serve --tcp ADDR`). Abnormal rows keep their
//! flight-recorder post-mortems fetchable by digest; `stats` exposes the
//! service counters; `metrics` returns the full registry snapshot as
//! JSON; `spans` returns the span collector's ledger; `shutdown` stops
//! the server after draining. With `--metrics-addr` the same registry is
//! scrapeable as Prometheus text over HTTP ([`metrics`]): per-verb
//! request latency, queue wait, cache hit/miss/eviction counters, and
//! the engine's self-profile (idle-tick fraction, cycles/sec, occupancy).
//! With `--span-log`/`--span-sample` every request is traced end to end
//! — queue wait, cache tier, engine run (with per-phase and
//! reconfig-epoch children), serialize — and the trace id is echoed on
//! the response line.
//!
//! With `--slo FILE` the server judges itself (`mdx-health`): a periodic
//! burn-rate evaluator scores declarative objectives against the live
//! registry, the `health` verb returns the full report, every response
//! carries the current `verdict`, status transitions append to a JSONL
//! alert log (`--alert-log`), and `campaign watch ADDR` renders a live
//! one-screen view ([`watch`]).
//!
//! The `tournament` verb runs a whole cross-scheme comparison grid
//! (`mdx-tournament`) in one request; finished tables are cached keyed by
//! the parsed spec, so a resident server answers repeat tournaments
//! without re-simulating — deterministic tables make the cached answer
//! byte-identical to a re-run.
//!
//! The crate also owns the `campaign` binary (run / replay / shrink /
//! diff / stream / tournament / serve / watch / spans), which sits above
//! `mdx-campaign`, `mdx-tournament`, and this service layer.
//!
//! ```
//! use mdx_serve::{Request, Response, ServeConfig, Service};
//! use mdx_campaign::{Scenario, Workload};
//!
//! let service = Service::new(&ServeConfig::default());
//! let scenario = Scenario::new(
//!     vec![4, 3],
//!     "sr2201",
//!     Workload::BroadcastStorm { sources: vec![0], flits: 4 },
//!     1,
//! );
//! let first = service.handle(&Request::run(&scenario.token()).with_id(1));
//! let again = service.handle(&Request::run(&scenario.token()).with_id(2));
//! assert_eq!(first.cached, Some(false));
//! assert_eq!(again.cached, Some(true));
//! assert_eq!(
//!     first.row.unwrap().digest,
//!     again.row.unwrap().digest,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod watch;

pub use cache::{fnv1a64, row_key, CacheMetrics, CacheTier, ResultCache, DEFAULT_CACHE_CAPACITY};
pub use metrics::{spawn_metrics_listener, spawn_snapshot_writer, ServeMetrics, VerbMeter};
pub use protocol::{Request, Response, ServeStats};
pub use server::{
    serve_on, serve_stdio, serve_stream, serve_tcp, ServeConfig, Server, Service, SharedWriter,
    DEFAULT_METRICS_EVERY_SECS, DEFAULT_SLO_EVERY_SECS, MAX_POSTMORTEMS, MAX_TOURNAMENTS,
};
pub use watch::{render_watch, WatchFrame};
