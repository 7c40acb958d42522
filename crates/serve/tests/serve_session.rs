//! End-to-end service sessions: a long pipelined run over the worker pool,
//! duplicate-token cache hits, a mid-stream fault storm submitted as a
//! workload spec, and a full TCP round-trip with shutdown.

use mdx_campaign::{Scenario, Workload};
use mdx_serve::{Request, Response, ServeConfig, Server, Service, SharedWriter};
use std::io::{BufRead, BufReader, Write};
use std::sync::{mpsc, Arc, Mutex};

/// A writer whose bytes stay readable after the workers are done with it.
#[derive(Clone, Default)]
struct CaptureWriter(Arc<Mutex<Vec<u8>>>);

impl Write for CaptureWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl CaptureWriter {
    fn shared(&self) -> SharedWriter {
        Arc::new(Mutex::new(Box::new(self.clone())))
    }

    fn responses(&self) -> Vec<Response> {
        let bytes = self.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("utf8 output")
            .lines()
            .map(|l| serde_json::from_str(l).expect("response line parses"))
            .collect()
    }
}

fn storm_token(seed: u64) -> String {
    Scenario::new(
        vec![4, 3],
        "sr2201",
        Workload::BroadcastStorm {
            sources: vec![(seed as usize) % 12],
            flits: 4,
        },
        seed,
    )
    .token()
}

#[test]
fn a_hundred_tokens_stream_through_one_bounded_process() {
    const TOKENS: u64 = 110;
    const CACHE_CAP: usize = 32;
    let cfg = ServeConfig {
        workers: 4,
        cache_capacity: CACHE_CAP,
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::new(&cfg));
    let server = Server::new(service.clone(), cfg.workers);
    let out = CaptureWriter::default();
    // One writer per session, as `serve_stream` and the TCP reader use:
    // its lock keeps each response line whole across workers.
    let writer = out.shared();

    for seed in 0..TOKENS {
        let req = Request::run(&storm_token(seed)).with_id(seed);
        server.submit(serde_json::to_string(&req).unwrap(), writer.clone());
    }
    server.drain();

    let responses = out.responses();
    assert_eq!(responses.len(), TOKENS as usize);
    let mut ids: Vec<u64> = Vec::new();
    for resp in &responses {
        assert_eq!(resp.kind, "row", "error: {:?}", resp.error);
        let row = resp.row.as_ref().expect("row body");
        assert_eq!(row.outcome, "completed");
        ids.push(resp.id.expect("echoed id"));
    }
    // Out-of-order completion is fine; every id must be answered once.
    ids.sort_unstable();
    assert_eq!(ids, (0..TOKENS).collect::<Vec<_>>());

    // Memory stays bounded: the in-memory cache never exceeds its cap even
    // though 110 distinct rows flowed through.
    let stats = service.stats();
    assert_eq!(stats.served, TOKENS as usize);
    assert!(
        stats.cached_rows <= CACHE_CAP,
        "cache grew to {}",
        stats.cached_rows
    );
    server.shutdown();
}

#[test]
fn duplicate_tokens_short_circuit_through_the_cache() {
    let service = Service::new(&ServeConfig::default());
    let token = storm_token(7);

    let first = service.handle(&Request::run(&token).with_id(1));
    assert_eq!(first.cached, Some(false));
    let second = service.handle(&Request::run(&token).with_id(2));
    assert_eq!(second.cached, Some(true));
    // The cached row is the identical row, not a re-simulation.
    assert_eq!(
        serde_json::to_string(&first.row.unwrap()).unwrap(),
        serde_json::to_string(&second.row.unwrap()).unwrap()
    );

    // `force` bypasses the lookup but still refreshes the cache.
    let mut forced = Request::run(&token).with_id(3);
    forced.force = true;
    assert_eq!(service.handle(&forced).cached, Some(false));

    let stats = service.stats();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn a_spec_with_a_mid_stream_storm_reports_the_epoch_protocol() {
    let spec = "\
        seed 5\n\
        flits 2\n\
        phase 0..600 uniform rate=0.04\n\
        storm 200 xbar:0:1\n\
        storm 420 repair xbar:0:1\n\
        horizon 1200\n";
    let service = Service::new(&ServeConfig {
        windows: Some(100),
        ..ServeConfig::default()
    });
    let req = Request {
        cmd: "spec".to_string(),
        spec: Some(spec.to_string()),
        shape: Some(vec![4, 4]),
        seed: Some(3),
        ..Request::default()
    };

    let resp = service.handle(&req);
    assert_eq!(resp.kind, "row", "error: {:?}", resp.error);
    let row = resp.row.expect("row body");
    assert_eq!(row.outcome, "completed");

    // The storm lines drive the live epoch protocol: one epoch per fault
    // event, transition-safe, nothing lost.
    let rc = row.reconfig.expect("storm spec implies a reconfig report");
    assert_eq!(rc.epochs.len(), 2);
    assert!(rc.transition_safe());
    assert_eq!(rc.lost, 0);
    assert_eq!(rc.victims_total, rc.recovered);

    // Windowed telemetry rode along under the service's default width.
    let stream = row.stream.expect("windowed stream summary");
    assert_eq!(stream.window, 100);
    assert!(stream.windows > 0);

    // The spec's row replays byte-identically from its token.
    let again = service.handle(&Request::run(&row.token));
    assert_eq!(again.cached, Some(true));
    assert_eq!(again.row.unwrap().digest, row.digest);

    // Malformed specs surface the line-numbered parse error.
    let bad = service.handle(&Request {
        cmd: "spec".to_string(),
        spec: Some("phase 0..10 uniform rate=nope".to_string()),
        ..Request::default()
    });
    assert!(bad.is_error());
    assert!(bad.error.unwrap().contains("line 1"));
}

/// `"windows":0` is valid JSON but an invalid width; it must come back as
/// an error response — not panic a worker and wedge `drain()` forever.
#[test]
fn zero_window_width_errors_instead_of_wedging_the_pool() {
    let cfg = ServeConfig {
        workers: 1,
        // A zero server default is normalized away rather than trapping
        // every windowless request.
        windows: Some(0),
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::new(&cfg));
    let server = Server::new(service.clone(), cfg.workers);
    let out = CaptureWriter::default();
    let writer = out.shared();

    let mut bad = Request::run(&storm_token(21)).with_id(1);
    bad.windows = Some(0);
    server.submit(serde_json::to_string(&bad).unwrap(), writer.clone());
    // The same (sole) worker must survive to serve the next request.
    let good = Request::run(&storm_token(22)).with_id(2);
    server.submit(serde_json::to_string(&good).unwrap(), writer);
    server.drain();

    let responses = out.responses();
    assert_eq!(responses.len(), 2);
    let by_id = |id: u64| responses.iter().find(|r| r.id == Some(id)).unwrap();
    assert!(by_id(1).is_error());
    assert!(by_id(1).error.as_ref().unwrap().contains("windows"));
    assert_eq!(by_id(2).kind, "row");
    server.shutdown();
}

/// The cache's full counter story through the `stats` verb: misses on
/// first sight, hits on duplicates, FIFO eviction at the cap (an evicted
/// token re-simulates as a miss), and `--force` bypassing the lookup
/// entirely (neither hit nor miss).
#[test]
fn stats_verb_tracks_cache_hits_misses_and_evictions() {
    let cfg = ServeConfig {
        workers: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    };
    let service = Service::new(&cfg);

    // Three distinct tokens through a 2-row cache: three misses, and the
    // third insert evicts the first token.
    for seed in 0..3 {
        let resp = service.handle(&Request::run(&storm_token(seed)));
        assert_eq!(resp.kind, "row", "error: {:?}", resp.error);
        assert_eq!(resp.cached, Some(false));
    }
    // The newest token is resident: a hit.
    assert_eq!(
        service.handle(&Request::run(&storm_token(2))).cached,
        Some(true)
    );
    // The evicted token is gone: a miss, a re-simulation, and a second
    // eviction as it reenters the full cache.
    assert_eq!(
        service.handle(&Request::run(&storm_token(0))).cached,
        Some(false)
    );
    // `force` skips the lookup: no hit, no miss, and re-inserting a
    // resident key evicts nothing.
    let mut forced = Request::run(&storm_token(2));
    forced.force = true;
    assert_eq!(service.handle(&forced).cached, Some(false));

    let stats = service.stats();
    assert_eq!(stats.served, 6);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(stats.cached_rows, 2);
    assert_eq!(stats.errors, 0);

    // The stats verb itself round-trips the same numbers over the wire.
    let resp = service.handle(&Request {
        cmd: "stats".to_string(),
        id: Some(40),
        ..Request::default()
    });
    assert_eq!(resp.kind, "stats");
    let wire = resp.stats.expect("stats body");
    assert_eq!(wire.cache_misses, 4);
    assert_eq!(wire.cache_evictions, 2);

    // `errors` is read off `mdx_serve_errors_total`, so the worker pool's
    // handler-panic class counts too.
    service.metrics().error("panic");
    assert_eq!(service.stats().errors, 1);
}

/// The `metrics` verb returns the registry snapshot as JSON, and the same
/// registry renders Prometheus text with the per-verb and cache series
/// the scrape gate requires.
#[test]
fn metrics_verb_snapshots_the_registry() {
    let service = Service::new(&ServeConfig::default());
    let token = storm_token(31);
    assert_eq!(service.handle(&Request::run(&token)).kind, "row");
    assert_eq!(service.handle(&Request::run(&token)).cached, Some(true));
    assert!(service
        .handle(&Request {
            cmd: "no-such-verb".to_string(),
            ..Request::default()
        })
        .is_error());

    let resp = service.handle(&Request {
        cmd: "metrics".to_string(),
        id: Some(50),
        ..Request::default()
    });
    assert_eq!(resp.kind, "metrics");
    assert_eq!(resp.id, Some(50));
    let snapshot = resp.metrics.expect("metrics body");
    let json = serde_json::to_string(&snapshot).unwrap();
    for family in [
        "mdx_serve_requests_total",
        "mdx_serve_request_seconds",
        "mdx_serve_cache_hits_total",
        "mdx_serve_errors_total",
        "mdx_engine_idle_tick_fraction",
    ] {
        assert!(json.contains(family), "missing {family} in {json}");
    }

    // The Prometheus rendering of the same registry carries the counts
    // the protocol verbs just produced.
    let text = service.registry().snapshot().render_prometheus();
    assert!(
        text.contains("mdx_serve_requests_total{verb=\"run\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("mdx_serve_requests_total{verb=\"other\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("mdx_serve_errors_total{class=\"unknown_verb\"} 1"),
        "{text}"
    );
    assert!(text.contains("mdx_serve_cache_hits_total 1"), "{text}");
    assert!(text.contains("mdx_serve_cache_misses_total 1"), "{text}");
    // One simulated row fed the engine family.
    assert!(text.contains("mdx_engine_cycles_total"), "{text}");
    assert!(text.contains("mdx_engine_active_packets_bucket"), "{text}");
}

/// `tournament` and `health` are metered under their own verb series,
/// not lumped into `other` with mistyped verbs.
#[test]
fn tournament_and_health_requests_are_metered_under_their_own_verbs() {
    use mdx_health::SloSpec;
    use std::time::Instant;

    let cfg = ServeConfig {
        slo: Some(SloSpec::parse("objective no-deadlock deadlock_rate ceiling 0\n").unwrap()),
        ..ServeConfig::default()
    };
    let service = Service::new(&cfg);
    let tournament = serde_json::to_string(&Request {
        cmd: "tournament".to_string(),
        spec: Some("scheme sr2201\ntopology mdx:3x3\nworkload storm flits=4\nseeds 1\n".into()),
        ..Request::default()
    })
    .unwrap();
    for line in [tournament.as_str(), r#"{"cmd":"health"}"#] {
        let resp: Response =
            serde_json::from_str(&service.process_line(line, Instant::now())).unwrap();
        assert!(!resp.is_error(), "{line}: {:?}", resp.error);
    }

    let text = service.registry().snapshot().render_prometheus();
    for series in [
        "mdx_serve_requests_total{verb=\"tournament\"} 1",
        "mdx_serve_requests_total{verb=\"health\"} 1",
        "mdx_serve_requests_total{verb=\"other\"} 0",
        "mdx_serve_request_seconds_count{verb=\"tournament\"} 1",
        "mdx_serve_request_seconds_count{verb=\"health\"} 1",
        "mdx_serve_request_seconds_count{verb=\"other\"} 0",
    ] {
        assert!(text.contains(series), "missing `{series}` in {text}");
    }
}

/// End-to-end scrape: a service's registry served over the HTTP endpoint
/// is the same live registry the verbs feed — a second scrape after more
/// traffic moves.
#[test]
fn http_endpoint_scrapes_the_live_service_registry() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let service = Service::new(&ServeConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let (addr, handle) =
        mdx_serve::spawn_metrics_listener(service.registry().clone(), listener, stop.clone())
            .expect("listener");

    let scrape = || {
        let mut sock = std::net::TcpStream::connect(addr).expect("connect");
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("request");
        let mut body = String::new();
        use std::io::Read;
        sock.read_to_string(&mut body).expect("response");
        body
    };

    assert!(scrape().contains("mdx_serve_requests_total{verb=\"run\"} 0"));
    assert_eq!(service.handle(&Request::run(&storm_token(33))).kind, "row");
    let after = scrape();
    assert!(
        after.contains("mdx_serve_requests_total{verb=\"run\"} 1"),
        "{after}"
    );
    assert!(after.contains("mdx_engine_idle_tick_fraction"), "{after}");

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("listener thread");
}

/// The span pipeline end to end: client trace ids are echoed on every
/// response shape (rows, unknown verbs, *parse failures*), untagged
/// traced requests get a server-minted id, the `spans` verb returns the
/// ledger, and the worst run's trace id lands as the latency histogram's
/// exemplar.
#[test]
fn traced_sessions_echo_trace_ids_and_answer_the_spans_verb() {
    use std::time::Instant;

    let cfg = ServeConfig {
        span_sample: Some(1.0),
        ..ServeConfig::default()
    };
    let service = Service::new(&cfg);
    let process = |line: &str| -> Response {
        serde_json::from_str(&service.process_line(line, Instant::now())).expect("response parses")
    };

    // A client-tagged run echoes the client's trace id.
    let line = serde_json::to_string(
        &Request::run(&storm_token(41))
            .with_id(1)
            .with_trace("cli-1"),
    )
    .unwrap();
    let resp = process(&line);
    assert_eq!(resp.kind, "row", "error: {:?}", resp.error);
    assert_eq!(resp.trace.as_deref(), Some("cli-1"));

    // An untagged request gets a server-minted id, echoed so the client
    // can find its trace later.
    let line = serde_json::to_string(&Request::run(&storm_token(41)).with_id(2)).unwrap();
    let minted = process(&line).trace.expect("server-minted trace id");
    assert!(!minted.is_empty() && minted != "cli-1");

    // Error paths echo too: an unknown verb, and a line that parses as
    // JSON but not as a request (the trace tag is salvaged leniently).
    let resp = process(r#"{"cmd":"no-such-verb","trace":"t-unknown"}"#);
    assert!(resp.is_error());
    assert_eq!(resp.trace.as_deref(), Some("t-unknown"));
    let resp = process(r#"{"cmd":7,"trace":"t-parse"}"#);
    assert!(resp.is_error());
    assert_eq!(resp.trace.as_deref(), Some("t-parse"));

    // The spans verb returns the collector's ledger: every request above
    // was traced (rate 1.0), parse failures produce no trace.
    let resp = process(r#"{"cmd":"spans","id":9}"#);
    assert_eq!(resp.kind, "spans");
    let ledger = serde_json::to_string(&resp.spans.expect("spans body")).unwrap();
    assert!(ledger.contains("\"kept\":3"), "{ledger}");
    assert!(ledger.contains("cli-1"), "{ledger}");

    // The run histogram carries the worst request's trace id as an
    // exemplar comment in the Prometheus exposition.
    let text = service.registry().snapshot().render_prometheus();
    assert!(
        text.contains("# exemplar mdx_serve_request_seconds{verb=\"run\"} trace_id=\""),
        "{text}"
    );

    // Without span collection, the verb reports itself disabled — and the
    // client's trace tag still comes back.
    let bare = Service::new(&ServeConfig::default());
    let resp: Response = serde_json::from_str(
        &bare.process_line(r#"{"cmd":"spans","trace":"t-off"}"#, Instant::now()),
    )
    .expect("response parses");
    assert!(resp.is_error());
    assert_eq!(resp.trace.as_deref(), Some("t-off"));
}

/// A slow span replays deterministically: the `run` span's `token` attr
/// re-simulates to the byte-identical row, and its `digest` attr matches.
#[test]
fn an_exemplar_spans_token_replays_byte_identically() {
    use mdx_campaign::{run_scenario_instrumented, ObsOptions, Scenario};
    use std::time::Instant;

    let cfg = ServeConfig {
        span_sample: Some(1.0),
        ..ServeConfig::default()
    };
    let service = Service::new(&cfg);
    let line = serde_json::to_string(&Request::run(&storm_token(51)).with_id(1)).unwrap();
    let resp: Response =
        serde_json::from_str(&service.process_line(&line, Instant::now())).expect("response");
    let row = resp.row.expect("row body");

    let traces = service.spans().expect("collector").kept_traces();
    assert_eq!(traces.len(), 1);
    let run = traces[0]
        .iter()
        .find(|s| s.name == "run")
        .expect("run child span");
    let token = run.attr("token").expect("token attr").to_string();
    let digest = run.attr("digest").expect("digest attr").to_string();
    assert_eq!(digest, row.digest);

    // Replay from the span's token alone, under the service's options.
    let scenario = Scenario::from_token(&token).expect("span token decodes");
    let opts = ObsOptions {
        flight: true,
        ..ObsOptions::default()
    };
    let (replayed, _) = run_scenario_instrumented(&scenario, &opts).expect("replay runs");
    assert_eq!(replayed.digest, digest);
    assert_eq!(
        serde_json::to_string(&replayed).unwrap(),
        serde_json::to_string(&row).unwrap(),
        "replayed row must be byte-identical"
    );
}

/// The `tournament` verb: one request runs a whole cross-scheme grid, a
/// repeat of the same grid — even a comment/whitespace variant — is
/// answered from the spec-keyed cache byte-identically, `force` re-runs,
/// and malformed specs surface the line-numbered parse error.
#[test]
fn tournament_verb_runs_grids_and_caches_by_parsed_spec() {
    let service = Service::new(&ServeConfig::default());
    let spec = "scheme sr2201 naive-broadcast\n\
                topology mdx:3x3\n\
                faults none\n\
                workload storm flits=16\n\
                seeds 1\n\
                max-cycles 4000\n";
    let req = |text: &str, id: u64| Request {
        cmd: "tournament".to_string(),
        spec: Some(text.to_string()),
        id: Some(id),
        ..Request::default()
    };

    let first = service.handle(&req(spec, 1));
    assert_eq!(first.kind, "tournament", "error: {:?}", first.error);
    assert_eq!(first.cached, Some(false));
    assert_eq!(first.id, Some(1));
    let table = first.tournament.expect("tournament body");
    assert_eq!(table.cells.len(), 2);
    assert!(table.cells.iter().any(|c| c.deadlocks > 0));

    // The cache key is the parsed grid, not the text: a comment and
    // trailing-whitespace variant of the same spec hits.
    let variant = format!("# same grid, different bytes\n{spec}\n");
    let second = service.handle(&req(&variant, 2));
    assert_eq!(second.cached, Some(true));
    assert_eq!(
        second.tournament.as_ref().unwrap().to_jsonl(),
        table.to_jsonl(),
        "cached table must be byte-identical"
    );

    // `force` bypasses the cache; determinism makes the bytes equal anyway.
    let mut forced = req(spec, 3);
    forced.force = true;
    let third = service.handle(&forced);
    assert_eq!(third.cached, Some(false));
    assert_eq!(third.tournament.unwrap().to_jsonl(), table.to_jsonl());

    // Parse errors carry their line number; a missing body errors too.
    let bad = service.handle(&req("scheme not-a-scheme\n", 4));
    assert!(bad.is_error());
    let msg = bad.error.unwrap();
    assert!(msg.contains("line 1"), "{msg}");
    assert!(msg.contains("not-a-scheme"), "{msg}");
    let empty = service.handle(&Request {
        cmd: "tournament".to_string(),
        ..Request::default()
    });
    assert!(empty.is_error());
}

#[test]
fn tcp_round_trip_serves_pipelined_clients_and_honors_shutdown() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        mdx_serve::serve_on(&cfg, listener, move |addr| {
            addr_tx.send(addr).expect("report addr");
        })
        .expect("serve loop")
    });
    let addr = addr_rx.recv().expect("bound addr");

    // A second connection that goes idle after one request: shutdown from
    // the other connection must still unblock its reader and let the
    // server exit instead of hanging until this client disconnects.
    let idle = std::net::TcpStream::connect(addr).expect("connect idle");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone idle"));
    (&idle)
        .write_all(b"{\"cmd\":\"stats\",\"id\":99}\n")
        .expect("idle request");
    let mut idle_line = String::new();
    idle_reader.read_line(&mut idle_line).expect("idle stats");

    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(sock.try_clone().expect("clone sock"));
    let token = storm_token(11);

    // First request alone, and wait for its row, so the duplicate below is
    // deterministically a cache hit rather than a concurrent re-simulation.
    let first = serde_json::to_string(&Request::run(&token).with_id(1)).unwrap();
    sock.write_all((first + "\n").as_bytes()).expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("first row");
    let mut responses: Vec<Response> = vec![serde_json::from_str(&line).expect("response parses")];

    // Then a pipelined burst: a fresh token, the duplicate, stats, shutdown.
    let lines = [
        serde_json::to_string(&Request::run(&storm_token(12)).with_id(2)).unwrap(),
        serde_json::to_string(&Request::run(&token).with_id(3)).unwrap(),
        r#"{"cmd":"stats","id":4}"#.to_string(),
        r#"{"cmd":"shutdown","id":5}"#.to_string(),
    ];
    sock.write_all((lines.join("\n") + "\n").as_bytes())
        .expect("send requests");

    for line in reader.lines() {
        let line = line.expect("read response");
        responses.push(serde_json::from_str(&line).expect("response parses"));
    }
    // 4 answers plus the shutdown ack, then the server closes the socket.
    assert_eq!(responses.len(), 5);
    let by_id = |id: u64| {
        responses
            .iter()
            .find(|r| r.id == Some(id))
            .unwrap_or_else(|| panic!("response {id}"))
    };
    assert_eq!(by_id(1).kind, "row");
    assert_eq!(by_id(2).kind, "row");
    assert_eq!(by_id(3).cached, Some(true));
    assert_eq!(
        by_id(1).row.as_ref().unwrap().digest,
        by_id(3).row.as_ref().unwrap().digest
    );
    let stats = by_id(4).stats.as_ref().expect("stats body");
    assert_eq!(stats.workers, 2);
    // The shutdown ack echoes its correlation id like every other verb.
    assert_eq!(by_id(5).kind, "ok");

    // The idle connection's reader was unblocked (EOF), not left hanging.
    let mut eof = String::new();
    assert_eq!(idle_reader.read_line(&mut eof).expect("idle eof"), 0);
    assert_eq!(handle.join().expect("server thread"), 2);
}

/// One traced `--slo` session exercises the health, spans, and metrics
/// verbs together: every response path — ok rows, the health report
/// itself, unknown verbs, even parse-error salvage — carries the SLO
/// verdict and echoes its trace id, and a deadlock row flips the verdict
/// from pass to breach for everything answered after it.
#[test]
fn health_spans_and_metrics_verbs_share_one_traced_slo_session() {
    use mdx_health::SloSpec;
    use std::time::Instant;

    let spec = SloSpec::parse(
        "window fast=1 slow=1\nburn fast=1.0 slow=1.0\n\
         objective deadlock_budget deadlock_rate ceiling 0.0 budget=0.5\n",
    )
    .expect("spec parses");
    let cfg = ServeConfig {
        span_sample: Some(1.0),
        slo: Some(spec),
        ..ServeConfig::default()
    };
    let service = Service::new(&cfg);
    let process = |line: &str| -> Response {
        serde_json::from_str(&service.process_line(line, Instant::now())).expect("response parses")
    };

    // A healthy row: verdict pass, trace echoed.
    let line = serde_json::to_string(
        &Request::run(&storm_token(61))
            .with_id(1)
            .with_trace("h-row"),
    )
    .unwrap();
    let resp = process(&line);
    assert_eq!(resp.kind, "row", "error: {:?}", resp.error);
    assert_eq!(resp.verdict.as_deref(), Some("pass"));
    assert_eq!(resp.trace.as_deref(), Some("h-row"));

    // The health verb: a full report, itself stamped and traced.
    let resp = process(r#"{"cmd":"health","id":2,"trace":"h-verb"}"#);
    assert_eq!(resp.kind, "health", "error: {:?}", resp.error);
    assert_eq!(resp.verdict.as_deref(), Some("pass"));
    assert_eq!(resp.trace.as_deref(), Some("h-verb"));
    let body = serde_json::to_string(&resp.health.expect("health body")).unwrap();
    assert!(body.contains("\"status\":\"pass\""), "{body}");
    assert!(body.contains("deadlock_budget"), "{body}");

    // Error paths are stamped too: an unknown verb, and a line that
    // parses as JSON but not as a request (trace salvaged leniently).
    let resp = process(r#"{"cmd":"no-such-verb","trace":"h-unknown"}"#);
    assert!(resp.is_error());
    assert_eq!(resp.verdict.as_deref(), Some("pass"));
    assert_eq!(resp.trace.as_deref(), Some("h-unknown"));
    let resp = process(r#"{"cmd":7,"trace":"h-parse"}"#);
    assert!(resp.is_error());
    assert_eq!(resp.verdict.as_deref(), Some("pass"));
    assert_eq!(resp.trace.as_deref(), Some("h-parse"));

    // A deadlocking row (the paper's naive broadcast wedges a 4x3 storm)
    // drives deadlock_rate over its zero ceiling...
    let naive = Scenario::new(
        vec![4, 3],
        "naive-broadcast",
        Workload::BroadcastStorm {
            sources: vec![0, 2, 4, 6],
            flits: 16,
        },
        0,
    )
    .token();
    let line = serde_json::to_string(&Request::run(&naive).with_id(3).with_trace("h-dl")).unwrap();
    let resp = process(&line);
    assert_eq!(resp.row.expect("row body").outcome, "deadlock");

    // ...so the next health evaluation breaches, and every later response
    // carries the degraded verdict.
    let resp = process(r#"{"cmd":"health","id":4}"#);
    assert_eq!(resp.kind, "health");
    assert_eq!(resp.verdict.as_deref(), Some("breach"));
    let body = serde_json::to_string(&resp.health.expect("health body")).unwrap();
    assert!(body.contains("\"status\":\"breach\""), "{body}");
    assert!(body.contains("\"to\":\"breach\""), "alert missing: {body}");
    let resp = process(r#"{"cmd":"stats","id":5}"#);
    assert_eq!(resp.kind, "stats");
    assert_eq!(resp.verdict.as_deref(), Some("breach"));

    // The metrics verb sees the health gauges the evaluation published.
    let resp = process(r#"{"cmd":"metrics","id":6,"trace":"h-metrics"}"#);
    assert_eq!(resp.kind, "metrics");
    assert_eq!(resp.verdict.as_deref(), Some("breach"));
    assert_eq!(resp.trace.as_deref(), Some("h-metrics"));
    let snap = serde_json::to_string(&resp.metrics.expect("metrics body")).unwrap();
    assert!(snap.contains("mdx_health_status"), "{snap}");
    assert!(snap.contains("mdx_slo_burn_rate"), "{snap}");
    assert!(snap.contains("mdx_slo_budget_remaining"), "{snap}");
    let text = service.registry().snapshot().render_prometheus();
    assert!(text.contains("mdx_health_status 2"), "{text}");

    // The spans verb still answers under --slo, and the session's tagged
    // traces are all in the ledger.
    let resp = process(r#"{"cmd":"spans","id":7}"#);
    assert_eq!(resp.kind, "spans");
    assert_eq!(resp.verdict.as_deref(), Some("breach"));
    let ledger = serde_json::to_string(&resp.spans.expect("spans body")).unwrap();
    for trace in ["h-row", "h-verb", "h-dl"] {
        assert!(ledger.contains(trace), "{trace} missing from {ledger}");
    }
}

/// Without `--slo`, response lines are byte-identical to the pre-health
/// protocol: no `health` key, no `verdict` key, on any response path.
#[test]
fn responses_without_slo_carry_no_health_or_verdict_bytes() {
    use std::time::Instant;

    let service = Service::new(&ServeConfig::default());
    let lines = [
        serde_json::to_string(&Request::run(&storm_token(62)).with_id(1)).unwrap(),
        r#"{"cmd":"stats","id":2}"#.to_string(),
        r#"{"cmd":"no-such-verb","id":3}"#.to_string(),
        r#"{"cmd":7}"#.to_string(),
        r#"{"cmd":"health","id":4}"#.to_string(),
    ];
    for line in &lines {
        let raw = service.process_line(line, Instant::now());
        assert!(
            !raw.contains("\"verdict\"") && !raw.contains("\"health\""),
            "un-slo'd response leaked health bytes: {raw}"
        );
    }
    // And the health verb itself reports the feature off.
    let resp: Response =
        serde_json::from_str(&service.process_line(&lines[4], Instant::now())).unwrap();
    assert!(resp.is_error());
    assert!(resp.error.unwrap().contains("--slo"));
}

#[test]
fn a_zero_flit_token_gets_an_ordinary_error_line() {
    // Once a handler panic, answered "internal error: request handler
    // panicked"; now the runner's workload check names the bad number.
    let token = Scenario::new(
        vec![4, 3],
        "sr2201",
        Workload::BroadcastStorm {
            sources: vec![0],
            flits: 0,
        },
        1,
    )
    .token();
    let service = Service::new(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let line = serde_json::to_string(&Request::run(&token).with_id(3).with_trace("t-0")).unwrap();
    let out = service.process_line(&line, std::time::Instant::now());
    let resp: Response = serde_json::from_str(&out).expect("one response line");
    assert!(resp.is_error(), "{out}");
    assert_eq!(resp.id, Some(3));
    assert_eq!(resp.trace.as_deref(), Some("t-0"));
    let error = resp.error.expect("error text");
    assert!(error.contains("flits must be at least 1"), "{error}");
}

#[test]
fn a_lone_high_surrogate_gets_an_ordinary_error_line() {
    // A high surrogate once paired with whatever `\u` escape followed it:
    // `\ud800\u0041` overflowed a subtraction (a panic in debug builds)
    // and `\ud800\ud800` decoded to a bogus scalar.
    let service = Service::new(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let template = serde_json::to_string(&Request::run("TOKEN").with_id(5)).unwrap();
    for escape in [r"\ud800\u0041", r"\ud800\ud800"] {
        let line = template.replace("TOKEN", escape);
        let out = service.process_line(&line, std::time::Instant::now());
        let resp: Response = serde_json::from_str(&out).expect("one response line");
        assert!(resp.is_error(), "{out}");
        let error = resp.error.expect("error text");
        assert!(error.contains("unpaired surrogate"), "{error}");
    }
}
