//! The `campaign` CLI: run, replay, and shrink routing experiments.
//!
//! ```text
//! campaign run [--scheme all|id,..] [--shape 4x3] [--max-faults N]
//!              [--fault-samples N] [--seeds N]
//!              [--workloads mixed,storm,detour,fault-storm]
//!              [--timeline CYCLE] [--recovery drop|reinject|reroute]
//!              [--max-cycles N] [--jsonl PATH] [--quiet] [--metrics]
//!              [--fail-on-deadlock] [--fail-on-loss]
//!              [--flight-recorder] [--postmortem-dir DIR] [--prom PATH]
//! campaign replay <token> [--metrics] [--trace-out PATH] [--stall-probe N]
//!                 [--flight-recorder] [--postmortem-dir DIR] [--attribution]
//!                 [--cache-dir DIR] [--no-cache] [--force]
//! campaign shrink <token>
//! campaign diff <a.jsonl> <b.jsonl> [--threshold PP] [--fail-on-shift] [--json]
//! campaign stream <spec-file> [--shape 4x4] [--scheme ID] [--seed N]
//!                 [--windows W] [--max-cycles N] [--jsonl PATH] [--quiet]
//! campaign serve [--tcp ADDR] [--workers N] [--windows W]
//!                [--cache-dir DIR] [--cache-cap N]
//!                [--metrics-addr ADDR] [--metrics-file PATH]
//!                [--metrics-every SECS]
//!                [--span-log PATH] [--span-sample RATE]
//!                [--slo FILE] [--alert-log PATH] [--slo-every SECS]
//! campaign watch <ADDR> [--interval SECS] [--count N] [--once] [--no-clear]
//! campaign spans <spans.jsonl> [--top N] [--perfetto PATH]
//! ```
//!
//! `--timeline CYCLE` turns the fault dimension *live*: instead of wearing
//! its fault set from cycle 0, every scenario starts fault-free and injects
//! the faults at the given cycle through the SR2201-style epoch protocol
//! (quiesce, drain, reprogram, resume — see `mdx-reconfig`). `--recovery`
//! picks what happens to packets wounded by the activation (default
//! `reinject`). Live rows carry a `reconfig` report with per-phase cycle
//! counts and the transition-safety verdict; `--fail-on-loss` exits
//! nonzero unless every live row recovered every victim and crossed the
//! transition with no mixed-epoch wait cycle.
//!
//! Every row a campaign emits carries an `MDX1.` token; `replay` reruns one
//! bit-identically and `shrink` minimizes a deadlocking one. `--metrics`
//! attaches the telemetry observers (`mdx-obs`): under `run` it adds
//! per-row S-XB/D-XB utilization summaries to the JSONL rows, under
//! `replay` it prints the channel/crossbar heatmap. `--trace-out` writes a
//! Chrome `trace_event` JSON file (open at <https://ui.perfetto.dev>), and
//! `--stall-probe N` samples the wait graph every N cycles and prints the
//! stall timeline.
//!
//! `--flight-recorder` attaches the always-on flight recorder: every run
//! that ends abnormally (deadlock, stall, cycle limit) gets a forensic
//! post-mortem — the cyclic wait annotated with each packet's RC state,
//! recent hops, and a Fig. 5/Fig. 9 signature classification. Under `run`,
//! each failed scenario auto-dumps `postmortem-<digest>.json` and `.txt`
//! into `--postmortem-dir` (default `.`); under `replay`, the report is
//! printed (and dumped too when `--postmortem-dir` is given). `shrink`
//! always attaches the recorder to the minimized witness and prints its
//! report.
//!
//! `--attribution` attaches the cycle-exact latency profiler (`mdx-obs`
//! `AttributionObserver`): every delivered packet's latency is decomposed
//! into disjoint conserving phases, and each JSONL row gains an
//! `attribution` section (phase totals, top blame channels, critical-path
//! shape). Under `replay` the full report — phase table, blame profile,
//! critical path — is printed. `campaign diff` then compares two such
//! JSONL files phase-by-phase as shares of total latency, flagging shifts
//! beyond `--threshold` percentage points (default 1.0); `--fail-on-shift`
//! exits nonzero when anything is flagged, `--json` prints the machine
//! form instead of the table.
//!
//! `campaign stream` runs a declarative open-loop workload spec (phases,
//! bursts, mid-stream fault storms — see `mdx-workloads`' spec grammar)
//! once, with windowed telemetry, and prints the row plus the per-window
//! table and saturation verdict. `campaign serve` turns the process into
//! a resident service speaking the line-oriented JSON protocol
//! (`mdx-serve`) over stdio or TCP: tokens and specs in, JSONL rows out,
//! with a digest-keyed result cache answering repeat tokens without
//! re-simulating; the `serve` workload of the repo benchmark
//! (`benchmark/`) times it. Plain `campaign replay` consults the same
//! disk cache (default `.mdx-cache`; `--force` re-simulates, `--no-cache`
//! opts out entirely).
//!
//! Production telemetry: `campaign serve --metrics-addr ADDR` exposes the
//! server's metric registry as Prometheus text over HTTP (per-verb
//! request latency, queue wait, cache hit/miss/eviction counters, and the
//! engine self-profile — idle-tick fraction, cycles/sec, occupancy);
//! `--metrics-file PATH` additionally snapshots the same exposition to a
//! file every `--metrics-every SECS` (default 10) and once at shutdown.
//! The `metrics` protocol verb returns the snapshot as JSON in-band.
//! `campaign run --prom PATH` writes a one-shot exposition of the sweep's
//! campaign/engine instruments (rows/sec, per-row run and serialize
//! latency, worker saturation) when the sweep completes.
//!
//! Request tracing: `campaign serve --span-log PATH` appends every kept
//! trace's spans to a JSONL log (and `--span-sample RATE` head-samples at
//! `RATE` in `[0,1]` — error/deadlock/cycle-limit traces are kept
//! regardless). Each request's root span is tiled by `queue`, `cache`
//! (hit/miss/disk tier), `run` (with the engine's source/step/probe phase
//! children and, on fault-timeline rows, one span per reconfig epoch
//! phase on the cycle timeline), and `serialize`; responses echo the
//! trace id, and the `spans` verb returns the collector's ledger in-band.
//! `campaign spans FILE` summarizes such a log — per-name critical-path
//! breakdown plus the top-k slowest traces with their replay tokens — and
//! `--perfetto PATH` re-exports it as Chrome `trace_event` JSON.
//!
//! Health & SLOs (`mdx-health`): `campaign serve --slo FILE` loads a
//! declarative objective spec and evaluates it periodically against the
//! live metric registry with multi-window burn rates; the `health` verb
//! returns the current report, every response line is stamped with a
//! `verdict` (pass/warn/breach), `--alert-log PATH` appends status
//! transitions as JSONL, and the Prometheus exposition gains
//! `mdx_health_status` / `mdx_slo_burn_rate` / `mdx_slo_budget_remaining`
//! gauges. `campaign run --slo FILE` and `campaign tournament --slo FILE`
//! evaluate the same objectives instantaneously per row/cell and append a
//! `health` section to each JSONL line (output without the flag is
//! byte-identical to earlier releases). `campaign watch ADDR` polls a
//! serving endpoint's `health` + `stats` verbs and renders a one-screen
//! live view.

use mdx_campaign::{
    diff_attribution, enumerate_scenarios, run_campaign_metered, run_scenario_instrumented, shrink,
    CampaignConfig, CampaignMeter, ObsOptions, Scenario, ScenarioReport, Workload, WorkloadKind,
    CAMPAIGN_SCHEMES, DEFAULT_DIFF_THRESHOLD,
};
use mdx_health::{evaluate_frame, verdict_value, SignalFrame, SloSpec, Status};
use mdx_obs::{PostmortemReport, DEFAULT_FLIGHT_CAPACITY};
use mdx_serve::{
    render_watch, row_key, serve_on, serve_stdio, Request, Response, ResultCache, ServeConfig,
    WatchFrame,
};
use mdx_tournament::{run_tournament, TournamentCell, TournamentSpec};
use mdx_workloads::StreamSpec;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         campaign run [--scheme all|id,..] [--shape WxH[xD..]] [--max-faults N]\n    \
         [--fault-samples N] [--seeds N] [--workloads mixed,storm,detour,fault-storm]\n    \
         [--timeline CYCLE] [--recovery drop|reinject|reroute]\n    \
         [--max-cycles N] [--jsonl PATH] [--quiet] [--fail-on-deadlock] [--fail-on-loss]\n    \
         [--metrics] [--attribution] [--slo FILE]\n    \
         [--flight-recorder] [--postmortem-dir DIR] [--prom PATH]\n  \
         campaign replay <token> [--metrics] [--trace-out PATH] [--stall-probe N]\n    \
         [--flight-recorder] [--postmortem-dir DIR] [--attribution]\n    \
         [--cache-dir DIR] [--no-cache] [--force]\n  \
         campaign shrink <token>\n  \
         campaign diff <a.jsonl> <b.jsonl> [--threshold PP] [--fail-on-shift] [--json]\n  \
         campaign stream <spec-file> [--shape WxH[xD..]] [--scheme ID] [--seed N]\n    \
         [--windows W] [--max-cycles N] [--jsonl PATH] [--quiet]\n  \
         campaign tournament <spec-file|-> [--jsonl PATH] [--quiet] [--slo FILE]\n  \
         campaign serve [--tcp ADDR] [--workers N] [--windows W]\n    \
         [--cache-dir DIR] [--cache-cap N]\n    \
         [--metrics-addr ADDR] [--metrics-file PATH] [--metrics-every SECS]\n    \
         [--span-log PATH] [--span-sample RATE]\n    \
         [--slo FILE] [--alert-log PATH] [--slo-every SECS]\n  \
         campaign watch <ADDR> [--interval SECS] [--count N] [--once] [--no-clear]\n  \
         campaign spans <spans.jsonl> [--top N] [--perfetto PATH]"
    );
    std::process::exit(2);
}

/// Writes `postmortem-<digest>.json` and `.txt` into `dir`; returns the
/// JSON path for logging.
fn dump_postmortem(dir: &str, digest: &str, pm: &PostmortemReport) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let json_path = Path::new(dir).join(format!("postmortem-{digest}.json"));
    let txt_path = Path::new(dir).join(format!("postmortem-{digest}.txt"));
    std::fs::write(&json_path, pm.to_json())?;
    std::fs::write(&txt_path, pm.render())?;
    Ok(json_path.display().to_string())
}

fn parse_shape(s: &str) -> Vec<u16> {
    let dims: Option<Vec<u16>> = s.split('x').map(|p| p.parse().ok()).collect();
    match dims {
        Some(d) if !d.is_empty() => d,
        _ => {
            eprintln!("error: bad --shape `{s}` (expected e.g. 4x3)");
            std::process::exit(2);
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("error: {flag} needs a numeric argument");
            std::process::exit(2);
        }
    }
}

/// Loads and validates an SLO spec file; parse errors are usage errors.
fn load_slo(path: &str) -> SloSpec {
    match SloSpec::load(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Flattens one campaign row into the instantaneous signal frame the
/// per-row SLO verdict evaluates (same signal names the serve loop uses).
fn report_frame(r: &ScenarioReport) -> SignalFrame {
    let mut f = SignalFrame::new(0);
    f.set(
        "deadlock_rate",
        if r.outcome == "deadlock" { 1.0 } else { 0.0 },
    );
    f.set(
        "completed_rate",
        if r.outcome == "completed" { 1.0 } else { 0.0 },
    );
    let delivery = if r.offered == 0 {
        1.0
    } else {
        r.stats.delivered as f64 / r.offered as f64
    };
    f.set("delivery_ratio", delivery);
    f.set("mean_latency", r.stats.mean_latency()); // NaN dropped
    f.set("latency_max", r.stats.latency_max as f64);
    f.set("cycles", r.stats.cycles as f64);
    for (name, v) in [
        ("latency_p50", r.latency_p50),
        ("latency_p95", r.latency_p95),
        ("latency_p99", r.latency_p99),
    ] {
        if let Some(v) = v {
            f.set(name, v as f64);
        }
    }
    if let Some(s) = &r.stream {
        f.set(
            "saturated",
            if s.saturated_at.is_some() { 1.0 } else { 0.0 },
        );
        f.set("peak_backlog", s.peak_backlog as f64);
    }
    f
}

/// Flattens one tournament cell the same way.
fn cell_frame(c: &TournamentCell) -> SignalFrame {
    let mut f = SignalFrame::new(0);
    f.set("deadlock_rate", c.deadlock_rate);
    let delivery = if c.offered == 0 {
        1.0
    } else {
        c.delivered as f64 / c.offered as f64
    };
    f.set("delivery_ratio", delivery);
    f.set("throughput", c.throughput);
    f.set("cycles", c.cycles as f64);
    f.set("runs", c.runs as f64);
    for (name, v) in [
        ("latency_p50", c.p50),
        ("latency_p95", c.p95),
        ("latency_p99", c.p99),
    ] {
        if let Some(v) = v {
            f.set(name, v as f64);
        }
    }
    f
}

/// Appends a `health` verdict section to one serialized JSONL row.
/// Injection happens at the output layer — the row structs themselves
/// never change, so `--slo`-free output stays byte-identical.
fn stamp_health(line: &str, spec: &SloSpec, frame: &SignalFrame) -> String {
    let mut v: Value = serde_json::from_str(line).expect("row round-trips");
    if let Value::Map(entries) = &mut v {
        entries.push(("health".to_string(), verdict_value(spec, frame)));
    }
    serde_json::to_string(&v).expect("row serializes")
}

/// Counts pass/warn/breach over a set of frames and renders the one-line
/// summary (breached objective ids included, deduplicated).
fn health_summary(spec: &SloSpec, frames: impl Iterator<Item = SignalFrame>) -> (String, usize) {
    let (mut pass, mut warn, mut breach) = (0usize, 0usize, 0usize);
    let mut violated: Vec<String> = Vec::new();
    for frame in frames {
        let (status, objectives) = evaluate_frame(spec, &frame);
        match status {
            Status::Pass => pass += 1,
            Status::Warn => warn += 1,
            Status::Breach => breach += 1,
        }
        for o in objectives.iter().filter(|o| o.status == Status::Breach) {
            if !violated.contains(&o.id) {
                violated.push(o.id.clone());
            }
        }
    }
    let mut line = format!("health: {pass} pass, {warn} warn, {breach} breach");
    if !violated.is_empty() {
        line.push_str(&format!(" (violated: {})", violated.join(", ")));
    }
    line.push('\n');
    (line, breach)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut cfg = CampaignConfig {
        seeds: 8,
        ..CampaignConfig::default()
    };
    let mut jsonl: Option<String> = None;
    let mut quiet = false;
    let mut fail_on_deadlock = false;
    let mut fail_on_loss = false;
    let mut obs = ObsOptions::default();
    let mut postmortem_dir = ".".to_string();
    let mut prom: Option<String> = None;
    let mut slo: Option<SloSpec> = None;

    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.schemes = if v == "all" {
                    CAMPAIGN_SCHEMES.iter().map(|s| s.to_string()).collect()
                } else {
                    v.split(',')
                        .map(|s| {
                            if !mdx_core::registry::SCHEME_IDS.contains(&s) {
                                eprintln!(
                                    "error: unknown scheme `{s}` (known: {})",
                                    mdx_core::registry::SCHEME_IDS.join(", ")
                                );
                                std::process::exit(2);
                            }
                            s.to_string()
                        })
                        .collect()
                };
            }
            "--shape" => cfg.shape = parse_shape(&it.next().unwrap_or_else(|| usage())),
            "--max-faults" => cfg.max_faults = parse_num("--max-faults", it.next()),
            "--fault-samples" => cfg.fault_samples = parse_num("--fault-samples", it.next()),
            "--seeds" => cfg.seeds = parse_num("--seeds", it.next()),
            "--max-cycles" => cfg.max_cycles = parse_num("--max-cycles", it.next()),
            "--timeline" => cfg.timeline_at = Some(parse_num("--timeline", it.next())),
            "--recovery" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.timeline_policy =
                    mdx_reconfig::RecoveryPolicy::parse(&v).unwrap_or_else(|| {
                        eprintln!(
                            "error: unknown recovery policy `{v}` (known: drop, reinject, reroute)"
                        );
                        std::process::exit(2);
                    });
            }
            "--workloads" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.workloads = v
                    .split(',')
                    .map(|w| {
                        WorkloadKind::parse(w).unwrap_or_else(|| {
                            eprintln!("error: unknown workload `{w}`");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--jsonl" => jsonl = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            "--fail-on-deadlock" => fail_on_deadlock = true,
            "--fail-on-loss" => fail_on_loss = true,
            "--metrics" => obs.metrics = true,
            "--attribution" => obs.attribution = true,
            "--flight-recorder" => obs.flight = Some(DEFAULT_FLIGHT_CAPACITY),
            "--postmortem-dir" => postmortem_dir = it.next().unwrap_or_else(|| usage()),
            "--prom" => prom = Some(it.next().unwrap_or_else(|| usage())),
            "--slo" => slo = Some(load_slo(&it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    let scenarios = match enumerate_scenarios(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        println!(
            "running {} scenarios ({} scheme(s), shape {:?}, max {} fault(s), {} seed(s))...",
            scenarios.len(),
            cfg.schemes.len(),
            cfg.shape,
            cfg.max_faults,
            cfg.seeds
        );
    }
    // With `--prom` the sweep runs metered: rows/sec, per-row run and
    // serialize latency, and worker saturation land in a registry whose
    // exposition is written once at the end.
    let registry = prom.as_ref().map(|_| mdx_metrics::Registry::new());
    let meter = registry.as_ref().map(CampaignMeter::register);
    let result = run_campaign_metered(scenarios, &obs, meter.as_ref());

    if let (Some(path), Some(registry)) = (&prom, &registry) {
        if let Err(e) = std::fs::write(path, registry.snapshot().render_prometheus()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        if !quiet {
            println!("wrote campaign metrics to {path}");
        }
    }

    if let Some(path) = jsonl {
        // With `--slo` every row line gains a `health` verdict section;
        // without it the payload is exactly `to_jsonl()`, byte for byte.
        let payload = match &slo {
            None => result.to_jsonl(),
            Some(spec) => {
                let mut out = String::new();
                for r in &result.reports {
                    let line = serde_json::to_string(r).expect("report serializes");
                    out.push_str(&stamp_health(&line, spec, &report_frame(r)));
                    out.push('\n');
                }
                out
            }
        };
        if let Err(e) = std::fs::write(&path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        if !quiet {
            println!("wrote {} rows to {path}", result.reports.len());
        }
    }

    print!("{}", result.summary());
    if let Some(spec) = &slo {
        let (line, _) = health_summary(spec, result.reports.iter().map(report_frame));
        print!("{line}");
    }

    // With the flight recorder attached, every failed row auto-dumps its
    // forensic report.
    if obs.flight.is_some() {
        let mut dumped = 0usize;
        for r in result.reports.iter().filter(|r| r.outcome != "completed") {
            let Some(pm) = &r.postmortem else { continue };
            match dump_postmortem(&postmortem_dir, &r.digest, pm) {
                Ok(path) => {
                    dumped += 1;
                    if !quiet {
                        println!("post-mortem [{}]: {path}", pm.classification);
                    }
                }
                Err(e) => {
                    eprintln!("error: cannot write post-mortem for {}: {e}", r.token);
                    return ExitCode::from(1);
                }
            }
        }
        if !quiet && dumped > 0 {
            println!("{dumped} post-mortem(s) written to {postmortem_dir}");
        }
    }

    let deadlocks: Vec<_> = result.deadlocks().collect();
    if !deadlocks.is_empty() && !quiet {
        println!("\ndeadlock witnesses (up to 5, shrink with `campaign shrink <token>`):");
        for r in deadlocks.iter().take(5) {
            println!("  {}  {}", r.scenario, r.token);
        }
    }
    if fail_on_deadlock && !deadlocks.is_empty() {
        eprintln!("error: {} deadlock(s) found", deadlocks.len());
        return ExitCode::from(1);
    }

    // Timeline campaigns: aggregate the epoch-protocol evidence.
    if cfg.timeline_at.is_some() {
        let live: Vec<_> = result
            .reports
            .iter()
            .filter_map(|r| r.reconfig.as_ref())
            .collect();
        let victims: usize = live.iter().map(|rc| rc.victims_total).sum();
        let recovered: usize = live.iter().map(|rc| rc.recovered).sum();
        let lost: usize = live.iter().map(|rc| rc.lost).sum();
        let violations = live.iter().filter(|rc| !rc.transition_safe()).count();
        if !quiet {
            println!(
                "reconfig: {} live row(s), victims {victims} (recovered {recovered}, \
                 lost {lost}), {violations} transition violation(s)",
                live.len()
            );
        }
        if fail_on_loss && (live.is_empty() || lost > 0 || violations > 0) {
            eprintln!(
                "error: reconfig gate failed ({} live rows, {lost} lost, {violations} violations)",
                live.len()
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn decode(token: &str) -> Scenario {
    match Scenario::from_token(token) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_replay(token: &str, args: &[String]) -> ExitCode {
    let scenario = decode(token);
    let mut obs = ObsOptions::default();
    let mut trace_out: Option<String> = None;
    let mut postmortem_dir: Option<String> = None;
    let mut cache_dir = ".mdx-cache".to_string();
    let mut no_cache = false;
    let mut force = false;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => obs.metrics = true,
            "--attribution" => obs.attribution = true,
            "--stall-probe" => obs.stall_probe = Some(parse_num("--stall-probe", it.next())),
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| usage()));
                obs.trace = true;
            }
            "--flight-recorder" => obs.flight = Some(DEFAULT_FLIGHT_CAPACITY),
            "--postmortem-dir" => {
                postmortem_dir = Some(it.next().unwrap_or_else(|| usage()));
                obs.flight.get_or_insert(DEFAULT_FLIGHT_CAPACITY);
            }
            "--cache-dir" => cache_dir = it.next().unwrap_or_else(|| usage()),
            "--no-cache" => no_cache = true,
            "--force" => force = true,
            _ => usage(),
        }
    }
    // Plain replays go through the disk result cache: rows are
    // deterministic per token, so a hit is byte-identical to a re-run.
    // Instrumented replays (any observer flag) always re-simulate — the
    // cache stores only the row, not the full telemetry.
    let cache = (obs.is_none() && !no_cache).then(|| ResultCache::new(1).with_dir(&cache_dir));
    let key = row_key(token, None);
    if let (Some(cache), false) = (&cache, force) {
        if let Some(row) = cache.get(key) {
            let json = serde_json::to_string_pretty(&row).expect("row serializes");
            println!("{json}");
            eprintln!("(cached row from {cache_dir}; --force re-simulates)");
            return ExitCode::SUCCESS;
        }
    }
    match run_scenario_instrumented(&scenario, &obs) {
        Ok((report, telemetry)) => {
            if let Some(cache) = &cache {
                cache.put(key, &report);
            }
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            println!("{json}");
            if let Some(m) = &telemetry.metrics {
                println!();
                print!(
                    "{}",
                    m.heatmap(telemetry.sxb_name.as_deref(), telemetry.dxb_name.as_deref())
                );
            }
            if let Some(s) = &telemetry.stall {
                println!();
                print!("{}", s.timeline());
            }
            if let Some(att) = &telemetry.attribution {
                println!();
                print!("{}", att.render());
            }
            if let Some(pm) = &telemetry.postmortem {
                println!();
                print!("{}", pm.render());
                if let Some(dir) = &postmortem_dir {
                    match dump_postmortem(dir, &report.digest, pm) {
                        Ok(path) => println!("wrote post-mortem to {path}"),
                        Err(e) => {
                            eprintln!("error: cannot write post-mortem: {e}");
                            return ExitCode::from(1);
                        }
                    }
                }
            } else if obs.flight.is_some() {
                println!("\n(run completed; no post-mortem to report)");
            }
            if let (Some(path), Some(doc)) = (trace_out, &telemetry.trace) {
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::from(1);
                }
                println!("\nwrote trace to {path} (open at https://ui.perfetto.dev)");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_shrink(token: &str) -> ExitCode {
    let scenario = decode(token);
    match shrink(&scenario) {
        Ok(report) => {
            println!("scenario: {}", report.minimized);
            println!(
                "packets {} -> {}, flits {} -> {}, faults {} -> {}, PEs {} -> {} ({} runs)",
                report.packets.0,
                report.packets.1,
                report.flits.0,
                report.flits.1,
                report.faults.0,
                report.faults.1,
                report.pes.0,
                report.pes.1,
                report.runs
            );
            for step in &report.steps {
                println!("  - {step}");
            }
            println!("cyclic wait at cycle {}:", report.deadlock.detected_at);
            for edge in &report.deadlock.cycle {
                println!(
                    "  {} waits for {} held by {}",
                    edge.waiter, edge.channel, edge.holder
                );
            }
            if let Some(pm) = &report.postmortem {
                println!();
                print!("{}", pm.render());
            }
            println!("minimized token:\n{}", report.token);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_DIFF_THRESHOLD;
    let mut fail_on_shift = false;
    let mut json = false;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                // The flag speaks percentage points (like the table).
                let pp: f64 = parse_num("--threshold", it.next());
                threshold = pp / 100.0;
            }
            "--fail-on-shift" => fail_on_shift = true,
            "--json" => json = true,
            _ if !arg.starts_with("--") => paths.push(arg),
            _ => usage(),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let (a, b) = (read(&paths[0]), read(&paths[1]));
    match diff_attribution(&a, &b, threshold) {
        Ok(d) => {
            if json {
                println!("{}", d.to_json());
            } else {
                print!("{}", d.render());
            }
            if fail_on_shift && !d.is_clean() {
                eprintln!("error: {} phase shift(s) beyond threshold", d.flagged);
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_stream(path: &str, args: &[String]) -> ExitCode {
    let mut shape = vec![4u16, 4];
    let mut scheme = "sr2201".to_string();
    let mut seed = 0u64;
    let mut windows = 100u64;
    let mut max_cycles: Option<u64> = None;
    let mut jsonl: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shape" => shape = parse_shape(&it.next().unwrap_or_else(|| usage())),
            "--scheme" => scheme = it.next().unwrap_or_else(|| usage()),
            "--seed" => seed = parse_num("--seed", it.next()),
            "--windows" => windows = parse_num("--windows", it.next()),
            "--max-cycles" => max_cycles = Some(parse_num("--max-cycles", it.next())),
            "--jsonl" => jsonl = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    if !mdx_core::registry::SCHEME_IDS.contains(&scheme.as_str()) {
        eprintln!(
            "error: unknown scheme `{scheme}` (known: {})",
            mdx_core::registry::SCHEME_IDS.join(", ")
        );
        return ExitCode::from(2);
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let spec = match StreamSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let horizon = spec.horizon;
    let mut scenario = Scenario::new(shape, &scheme, Workload::Stream { spec }, seed);
    // The horizon is the stream's cycle budget: a saturated run ends there
    // as `cycle-limit` instead of draining without bound.
    scenario.max_cycles = max_cycles.unwrap_or(horizon);
    let obs = ObsOptions {
        windows: Some(windows.max(1)),
        ..ObsOptions::default()
    };
    match run_scenario_instrumented(&scenario, &obs) {
        Ok((report, telemetry)) => {
            if let Some(p) = &jsonl {
                let line = serde_json::to_string(&report).expect("report serializes");
                if let Err(e) = std::fs::write(p, format!("{line}\n")) {
                    eprintln!("error: cannot write {p}: {e}");
                    return ExitCode::from(1);
                }
            }
            if quiet {
                println!("{}", report.token);
                return ExitCode::SUCCESS;
            }
            println!("token: {}", report.token);
            println!(
                "outcome: {} ({} offered, {} delivered, {} cycles, mean latency {:.1})",
                report.outcome,
                report.offered,
                report.stats.delivered,
                report.stats.cycles,
                report.stats.mean_latency()
            );
            if let Some(rc) = &report.reconfig {
                println!(
                    "reconfig: {} epoch(s), victims {} (recovered {}, lost {}), transition {}",
                    rc.epochs.len(),
                    rc.victims_total,
                    rc.recovered,
                    rc.lost,
                    if rc.transition_safe() {
                        "safe"
                    } else {
                        "VIOLATED"
                    }
                );
            }
            if let Some(w) = &telemetry.windows {
                println!();
                print!("{}", w.render());
            }
            if let Some(s) = &report.stream {
                match s.saturated_at {
                    Some(at) => println!(
                        "saturation: onset at cycle {at} (delivery ratio {:.3}, peak backlog {})",
                        s.delivery_ratio, s.peak_backlog
                    ),
                    None => println!("saturation: none (delivery ratio {:.3})", s.delivery_ratio),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_tournament(path: &str, args: &[String]) -> ExitCode {
    let mut jsonl: Option<String> = None;
    let mut quiet = false;
    let mut slo: Option<SloSpec> = None;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jsonl" => jsonl = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            "--slo" => slo = Some(load_slo(&it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    // `-` reads the spec from stdin; an empty spec is the default grid.
    let text = if path == "-" {
        use std::io::Read;
        let mut t = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut t) {
            eprintln!("error: cannot read stdin: {e}");
            return ExitCode::from(1);
        }
        t
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let spec = match TournamentSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let table = run_tournament(&spec);
    if let Some(p) = &jsonl {
        // Executed cells gain a `health` verdict section under `--slo`;
        // skipped cells never ran, so they carry none. Without the flag
        // the payload is exactly `to_jsonl()`.
        let payload = match &slo {
            None => table.to_jsonl(),
            Some(spec) => {
                let mut out = String::new();
                for c in &table.cells {
                    let line = serde_json::to_string(c).expect("cell serializes");
                    if c.status == "ok" {
                        out.push_str(&stamp_health(&line, spec, &cell_frame(c)));
                    } else {
                        out.push_str(&line);
                    }
                    out.push('\n');
                }
                out
            }
        };
        if let Err(e) = std::fs::write(p, payload) {
            eprintln!("error: cannot write {p}: {e}");
            return ExitCode::from(1);
        }
    }
    if quiet {
        let skips = table.cells.iter().filter(|c| c.status != "ok").count();
        println!(
            "{} cells ({} run, {} skipped)",
            table.cells.len(),
            table.cells.len() - skips,
            skips
        );
    } else {
        print!("{}", table.render());
    }
    if let Some(spec) = &slo {
        let (line, _) = health_summary(
            spec,
            table
                .cells
                .iter()
                .filter(|c| c.status == "ok")
                .map(cell_frame),
        );
        print!("{line}");
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut tcp: Option<String> = None;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => tcp = Some(it.next().unwrap_or_else(|| usage())),
            "--workers" => cfg.workers = parse_num("--workers", it.next()),
            "--windows" => cfg.windows = Some(parse_num("--windows", it.next())),
            "--cache-dir" => {
                cfg.cache_dir = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--cache-cap" => cfg.cache_capacity = parse_num("--cache-cap", it.next()),
            "--metrics-addr" => {
                cfg.metrics_addr = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--metrics-file" => {
                cfg.metrics_file = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--metrics-every" => {
                cfg.metrics_every_secs = parse_num("--metrics-every", it.next());
            }
            "--span-log" => {
                cfg.span_log = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--span-sample" => {
                cfg.span_sample = Some(parse_num("--span-sample", it.next()));
            }
            "--slo" => {
                cfg.slo = Some(load_slo(&it.next().unwrap_or_else(|| usage())));
            }
            "--alert-log" => {
                cfg.alert_log = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--slo-every" => {
                cfg.slo_every_secs = parse_num("--slo-every", it.next());
            }
            _ => usage(),
        }
    }
    if cfg.alert_log.is_some() && cfg.slo.is_none() {
        eprintln!("error: --alert-log needs --slo FILE");
        return ExitCode::from(2);
    }
    match tcp {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::from(1);
                }
            };
            let workers = cfg.workers;
            match serve_on(&cfg, listener, |a| {
                eprintln!("campaign serve: listening on {a} ({workers} workers)");
            }) {
                Ok(conns) => {
                    eprintln!("campaign serve: stopped after {conns} connection(s)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            }
        }
        None => {
            eprintln!("campaign serve: reading stdin ({} workers)", cfg.workers);
            let n = serve_stdio(&cfg);
            eprintln!("campaign serve: answered {n} request(s)");
            ExitCode::SUCCESS
        }
    }
}

/// One watch poll: connect, issue `health` + `stats`, decode both lines.
fn poll_watch(addr: &str) -> std::io::Result<WatchFrame> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    for cmd in ["health", "stats"] {
        let req = Request {
            cmd: cmd.to_string(),
            id: Some(if cmd == "health" { 1 } else { 2 }),
            ..Request::default()
        };
        writeln!(
            writer,
            "{}",
            serde_json::to_string(&req).expect("request serializes")
        )?;
    }
    writer.flush()?;
    let mut frame = WatchFrame::default();
    for _ in 0..2 {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let Ok(resp) = serde_json::from_str::<Response>(line.trim()) else {
            continue;
        };
        match resp.id {
            Some(1) => match resp.health {
                // The report travels as JSON; round-trip it back into the
                // typed form the renderer takes.
                Some(h) => {
                    let text = serde_json::to_string(&h).expect("health serializes");
                    frame.health = serde_json::from_str(&text).ok();
                }
                None => frame.health_error = resp.error,
            },
            Some(2) => frame.stats = resp.stats,
            _ => {}
        }
    }
    Ok(frame)
}

fn cmd_watch(addr: &str, args: &[String]) -> ExitCode {
    let mut interval = 2.0f64;
    let mut count: Option<u64> = None;
    let mut once = false;
    let mut clear = true;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => interval = parse_num("--interval", it.next()),
            "--count" => count = Some(parse_num("--count", it.next())),
            "--once" => once = true,
            "--no-clear" => clear = false,
            _ => usage(),
        }
    }
    if once {
        count = Some(1);
    }
    let mut polled = 0u64;
    loop {
        match poll_watch(addr) {
            Ok(frame) => {
                if clear && count != Some(1) {
                    // Home + clear-to-end keeps a flicker-free live view.
                    print!("\x1b[H\x1b[2J");
                }
                print!("{}", render_watch(&frame));
                use std::io::Write;
                std::io::stdout().flush().ok();
            }
            Err(e) => {
                eprintln!("error: cannot poll {addr}: {e}");
                return ExitCode::from(1);
            }
        }
        polled += 1;
        if let Some(c) = count {
            if polled >= c {
                return ExitCode::SUCCESS;
            }
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.1)));
    }
}

fn cmd_spans(path: &str, args: &[String]) -> ExitCode {
    let mut top = 5usize;
    let mut perfetto: Option<String> = None;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => top = parse_num("--top", it.next()),
            "--perfetto" => perfetto = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let spans = match mdx_obs::parse_span_log(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(1);
        }
    };
    if spans.is_empty() {
        println!("no spans in {path}");
        return ExitCode::SUCCESS;
    }
    print!("{}", mdx_obs::summarize_spans(&spans, top).render());
    if let Some(out) = perfetto {
        let traces = mdx_obs::group_traces(spans);
        let doc = mdx_obs::spans_to_perfetto(&traces);
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote Perfetto trace to {out} (open at https://ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => match args.get(1) {
            Some(t) => cmd_replay(t, &args[2..]),
            None => usage(),
        },
        Some("shrink") => match args.get(1) {
            Some(t) => cmd_shrink(t),
            None => usage(),
        },
        Some("diff") => cmd_diff(&args[1..]),
        Some("stream") => match args.get(1) {
            Some(p) if !p.starts_with("--") => cmd_stream(p, &args[2..]),
            _ => usage(),
        },
        Some("tournament") => match args.get(1) {
            Some(p) if !p.starts_with("--") => cmd_tournament(p, &args[2..]),
            _ => usage(),
        },
        Some("serve") => cmd_serve(&args[1..]),
        Some("watch") => match args.get(1) {
            Some(a) if !a.starts_with("--") => cmd_watch(a, &args[2..]),
            _ => usage(),
        },
        Some("spans") => match args.get(1) {
            Some(p) if !p.starts_with("--") => cmd_spans(p, &args[2..]),
            _ => usage(),
        },
        _ => usage(),
    }
}
