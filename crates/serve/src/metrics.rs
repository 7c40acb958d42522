//! Serve-layer telemetry: per-verb request instruments, queue/pool
//! gauges, and the Prometheus exposition endpoint (`--metrics-addr`)
//! plus the periodic snapshot-to-file writer (`--metrics-file`).
//!
//! Everything here reads from the one [`Registry`] the [`crate::Service`]
//! owns — the `metrics` protocol verb, the HTTP endpoint, and the file
//! writer are three views of the same atomics, so a scrape mid-session
//! agrees with the JSON snapshot a pipelined client requests.

use mdx_campaign::EngineMeter;
use mdx_metrics::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_S};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol verbs with pre-registered per-verb series; unknown verbs land
/// on the `other` series so a typo can't mint unbounded label values.
const VERBS: [&str; 10] = [
    "run",
    "spec",
    "postmortem",
    "tournament",
    "stats",
    "metrics",
    "spans",
    "health",
    "shutdown",
    "other",
];

/// Error classes for `mdx_serve_errors_total{class=...}`, pre-registered
/// for the same cardinality reason as [`VERBS`].
const ERROR_CLASSES: [&str; 4] = ["parse", "unknown_verb", "request", "panic"];

/// The per-verb instrument pair: a request counter and a service-latency
/// histogram (time inside the handler, queue wait excluded).
#[derive(Debug, Clone)]
pub struct VerbMeter {
    /// Requests dispatched with this verb.
    pub requests: Counter,
    /// Wall-clock seconds spent inside the handler.
    pub latency: Histogram,
}

/// Registry instruments for the resident server (`mdx_serve_*`), plus the
/// engine self-profile family fed from each simulated row.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    verbs: Vec<(&'static str, VerbMeter)>,
    errors: Vec<(&'static str, Counter)>,
    /// Seconds a request line waited in the queue before a worker took it.
    pub queue_wait: Histogram,
    /// Requests currently inside a handler.
    pub inflight: Gauge,
    /// Worker threads currently executing a job.
    pub workers_busy: Gauge,
    /// Engine self-profile instruments, fed per simulated (non-cached) row.
    pub engine: EngineMeter,
}

impl ServeMetrics {
    /// Registers the serve metric family on `reg`.
    pub fn register(reg: &Registry) -> ServeMetrics {
        ServeMetrics {
            verbs: VERBS
                .iter()
                .map(|&v| {
                    (
                        v,
                        VerbMeter {
                            requests: reg.counter_with(
                                "mdx_serve_requests_total",
                                "Requests dispatched, by protocol verb",
                                &[("verb", v)],
                            ),
                            latency: reg.histogram_with(
                                "mdx_serve_request_seconds",
                                "Request service time (handler only, queue wait excluded)",
                                DEFAULT_LATENCY_BUCKETS_S,
                                &[("verb", v)],
                            ),
                        },
                    )
                })
                .collect(),
            errors: ERROR_CLASSES
                .iter()
                .map(|&c| {
                    (
                        c,
                        reg.counter_with(
                            "mdx_serve_errors_total",
                            "Error responses, by failure class",
                            &[("class", c)],
                        ),
                    )
                })
                .collect(),
            queue_wait: reg.histogram(
                "mdx_serve_queue_wait_seconds",
                "Seconds a request waited in the worker queue",
                DEFAULT_LATENCY_BUCKETS_S,
            ),
            inflight: reg.gauge(
                "mdx_serve_inflight_requests",
                "Requests currently inside a handler",
            ),
            workers_busy: reg.gauge(
                "mdx_serve_workers_busy",
                "Worker threads currently executing a job",
            ),
            engine: EngineMeter::register(reg),
        }
    }

    /// The instrument pair for `cmd`, falling back to the `other` series.
    pub fn verb(&self, cmd: &str) -> &VerbMeter {
        self.verbs
            .iter()
            .find(|(v, _)| *v == cmd)
            .or_else(|| self.verbs.iter().find(|(v, _)| *v == "other"))
            .map(|(_, m)| m)
            .expect("`other` verb series is always registered")
    }

    /// Counts one error of `class`, falling back to `request` for an
    /// unregistered class.
    pub fn error(&self, class: &str) {
        self.errors
            .iter()
            .find(|(c, _)| *c == class)
            .or_else(|| self.errors.iter().find(|(c, _)| *c == "request"))
            .map(|(_, counter)| counter.inc())
            .expect("`request` error series is always registered");
    }
}

/// Serves Prometheus text exposition over HTTP on `listener` until `stop`
/// flips: any `GET` gets a `200 text/plain; version=0.0.4` body rendered
/// from a fresh registry snapshot. One request per connection
/// (`Connection: close`) — a scraper's steady 5–15 s cadence doesn't
/// justify keep-alive plumbing. Returns the bound address and the
/// listener thread's handle.
pub fn spawn_metrics_listener(
    registry: Registry,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut sock, _)) => {
                    let _ = sock.set_nonblocking(false);
                    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
                    // Drain the request head; the path is irrelevant —
                    // every GET is a scrape.
                    let mut head = [0u8; 1024];
                    let _ = sock.read(&mut head);
                    let body = registry.snapshot().render_prometheus();
                    let _ = write!(
                        sock,
                        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len(),
                    );
                    let _ = sock.flush();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => break,
            }
        }
    });
    Ok((addr, handle))
}

/// Writes a Prometheus-text snapshot of `registry` to `path` every
/// `every`, plus a final snapshot when `stop` flips — so a crashed or
/// long-gone scraper still leaves the operator a recent on-disk view.
pub fn spawn_snapshot_writer(
    registry: Registry,
    path: PathBuf,
    every: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let write_snapshot = |registry: &Registry| {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(&path, registry.snapshot().render_prometheus());
        };
        let mut last = Instant::now();
        write_snapshot(&registry);
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            if last.elapsed() >= every {
                write_snapshot(&registry);
                last = Instant::now();
            }
        }
        write_snapshot(&registry);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_lookup_falls_back_to_other() {
        let reg = Registry::new();
        let m = ServeMetrics::register(&reg);
        m.verb("run").requests.inc();
        m.verb("no-such-verb").requests.inc();
        m.error("parse");
        m.error("no-such-class");
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("mdx_serve_requests_total{verb=\"run\"} 1"));
        assert!(text.contains("mdx_serve_requests_total{verb=\"other\"} 1"));
        assert!(text.contains("mdx_serve_errors_total{class=\"parse\"} 1"));
        assert!(text.contains("mdx_serve_errors_total{class=\"request\"} 1"));
    }

    #[test]
    fn listener_answers_http_get_with_exposition() {
        let reg = Registry::new();
        reg.counter("mdx_test_hits_total", "test counter").add(3);
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (addr, handle) = spawn_metrics_listener(reg.clone(), listener, stop.clone()).unwrap();

        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        write!(sock, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        sock.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.contains("mdx_test_hits_total 3"), "{resp}");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn snapshot_writer_leaves_a_final_file() {
        let reg = Registry::new();
        reg.gauge("mdx_test_level", "test gauge").set(2.5);
        let dir = std::env::temp_dir().join(format!(
            "mdx-serve-metrics-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.prom");
        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_snapshot_writer(
            reg.clone(),
            path.clone(),
            Duration::from_secs(3600),
            stop.clone(),
        );
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("mdx_test_level 2.5"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
