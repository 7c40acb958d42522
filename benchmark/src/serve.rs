//! The resident server, in two phases.
//!
//! **Open loop** (70% of the budget). One generator thread submits request
//! lines to an in-process [`mdx_serve::Server`] (one worker per core) on a
//! fixed schedule, whether or not earlier requests have been answered, the
//! way independent users arrive. Requests travel as protocol lines through
//! `Server::submit`, not over a socket, so no loopback time is measured.
//! Every latency counts from the moment a request was due, so a stall
//! charges the wait it imposes on the requests behind it. The schedule is
//! played in stretches of [`SEGMENT_S`] seconds with a pace slice between
//! them (see [`crate::pace`]). This phase gives the cache-miss latency and
//! the peak heap.
//!
//! **Capacity** (the rest). Units of 40 fresh requests are submitted at
//! once to a new server, and the clock runs until `Server::drain` returns,
//! the way `campaign bench-serve` times its cold pass. This phase gives the
//! rows and flit-hops the server turns out per second when it is never
//! idle, which an open loop below saturation cannot show: there, answers
//! per second equal the offered rate by construction.
//!
//! The traffic. Fresh `run` requests carry the mixed workload of the
//! trajectory's serve snapshot (`snapshot_serve`: uniform, rate 0.02,
//! 12-flit packets, window 200, broadcast rate 0.002) on the 64-PE 4x4x4
//! machine; fresh `spec` requests carry the streaming example of
//! EXPERIMENTS.md (a 4x4 stream with a crossbar storm and its repair, so
//! reconfiguration epochs run). That snapshot, like `bench-serve`, asks for
//! every token twice, so half the open loop's requests repeat an earlier
//! one. The rest of the mix is synthetic, with no measured traffic behind
//! it: 100 requests/s, 4 runs to every spec, repeats of a request 50 to
//! 114 requests older (inside the 256-row cache), all dealt in blocks of
//! 20 so every run has exactly these shares.

use crate::pace::{stopwatch, Pacer};
use crate::report::{Gate, Outcome};
use crate::rows::{self, EngineTime, SimCounts};
use crate::stats::{self, digest_of, fnv1a64, median_by};
use crate::{alloc, check_expected_digest, RunArgs, SetupTimes, REPLAY_SAMPLE};
use mdx_campaign::{Scenario, ScenarioReport, Workload};
use mdx_serve::{Request, ServeConfig, Server, Service, SharedWriter};
use mdx_workloads::TrafficPattern;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::value::Value;
use serde::Deserialize as _;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
const RATE: f64 = 100.0;
/// A repeat reuses a request at least this many requests older (half a
/// second at [`RATE`]), so the original has been answered and cached.
const REPEAT_GAP: usize = 50;
/// ... and at most this many fresh requests further back, well inside the
/// 256-row cache.
const REPEAT_WINDOW: usize = 64;
/// The latency objective `serve.slo_met_frac` counts against.
const SLO_MS: f64 = 50.0;
/// Responses, in request order, that `rows_digest` covers.
const DIGEST_PREFIX: usize = 200;
/// Share of an untraced run's budget the open loop takes; the capacity
/// phase takes the rest.
const OPEN_SHARE: f64 = 0.7;
/// Fresh requests per capacity unit, 4 runs to every spec like the open
/// loop's fresh requests.
const CAPACITY_UNIT: usize = 40;
/// Distinct capacity units; the phase cycles through them, each time on a
/// new server, so a rerun does the same work and is never a cache hit.
const CAPACITY_UNITS: usize = 8;
/// The generator reads responses while it waits only when the next
/// request is due at least this far ahead.
const READ_MARGIN: Duration = Duration::from_millis(2);
/// The open loop plays its schedule in stretches of this many seconds.
/// After each one the server is drained and a pace slice runs on the idle
/// machine; the latencies of a stretch are read at reference pace by the
/// slices either side of it. At the offered rate the server idles most of
/// the time, so draining it seldom delays a request.
const SEGMENT_S: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Run,
    Spec,
    Repeat,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
struct Planned {
    /// When it is due, from the start of the pass.
    due: Duration,
    /// The protocol line.
    line: String,
    /// For a repeat, the request it repeats.
    repeat_of: Option<usize>,
}

/// A fresh `run` or `spec` request.
fn fresh_request(rng: &mut ChaCha8Rng, kind: Kind) -> Request {
    if kind == Kind::Spec {
        let s: u64 = rng.gen_range(0..1_000_000_000);
        let dim: u32 = rng.gen_range(0..2);
        let line: u32 = rng.gen_range(0..4);
        let site = format!("xbar:{dim}:{line}");
        return Request {
            cmd: "spec".into(),
            spec: Some(format!(
                "seed {s}\nflits 2\nphase 0..600 uniform rate=0.04\n\
                 storm 200 {site}\nstorm 420 repair {site}\nhorizon 1200\n"
            )),
            shape: Some(vec![4, 4]),
            scheme: Some("sr2201".into()),
            seed: Some(s),
            ..Request::default()
        };
    }
    let workload = Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.02,
        packet_flits: 12,
        window: 200,
        broadcast_rate: 0.002,
    };
    let s = Scenario::new(
        vec![4, 4, 4],
        "sr2201",
        workload,
        rng.gen_range(0..1_000_000_000),
    );
    Request::run(&s.token())
}

fn is_spec(p: &Planned) -> bool {
    p.line.contains("\"cmd\":\"spec\"")
}

fn line_of(req: Request, id: usize) -> String {
    serde_json::to_string(&req.with_id(id as u64)).expect("request serializes")
}

/// The open-loop schedule for `seconds` of traffic. Request content
/// depends on the seed and the request's index only, so a shorter run is a
/// prefix of a longer one; due times are the order statistics of uniform
/// draws, a Poisson process conditioned on exactly `RATE * seconds`
/// arrivals.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let n = ((RATE * seconds).round() as usize).max(1);
    let mut timing = ChaCha8Rng::seed_from_u64(seed ^ 0x0a11_0ca7);
    let mut due: Vec<f64> = (0..n).map(|_| timing.gen_range(0.0..seconds)).collect();
    due.sort_by(f64::total_cmp);
    due[0] = 0.0;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut block = Vec::new();
    let mut out: Vec<Planned> = Vec::with_capacity(n);
    let mut fresh: Vec<usize> = Vec::new();
    for i in 0..n {
        if i % 20 == 0 {
            block = [
                [Kind::Run; 8].as_slice(),
                &[Kind::Spec; 2],
                &[Kind::Repeat; 10],
            ]
            .concat();
            block.shuffle(&mut rng);
        }
        let kind = block[i % 20];
        let recent: Vec<usize> = fresh
            .iter()
            .copied()
            .filter(|&j| j + REPEAT_GAP <= i && j + REPEAT_GAP + REPEAT_WINDOW > i)
            .collect();
        let due = Duration::from_secs_f64(due[i]);
        if kind == Kind::Repeat && !recent.is_empty() {
            let j = recent[rng.gen_range(0..recent.len())];
            let req: Request = serde_json::from_str(&out[j].line).expect("own line parses");
            out.push(Planned {
                due,
                line: line_of(req, i),
                repeat_of: Some(j),
            });
            continue;
        }
        // Fresh runs, and repeats with nothing old enough to repeat.
        fresh.push(i);
        out.push(Planned {
            due,
            line: line_of(fresh_request(&mut rng, kind), i),
            repeat_of: None,
        });
    }
    out
}

/// The capacity phase's units: fresh requests only, all due at once.
fn capacity_plan(seed: u64) -> Vec<Vec<Planned>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xca9a_c17e);
    (0..CAPACITY_UNITS)
        .map(|_| {
            let specs = CAPACITY_UNIT / 5;
            let mut kinds = [
                vec![Kind::Run; CAPACITY_UNIT - specs],
                vec![Kind::Spec; specs],
            ]
            .concat();
            kinds.shuffle(&mut rng);
            kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Planned {
                    due: Duration::ZERO,
                    line: line_of(fresh_request(&mut rng, kind), i),
                    repeat_of: None,
                })
                .collect()
        })
        .collect()
}

/// Response lines not yet read, each stamped when its worker finished
/// writing it.
type Inbox = Arc<Mutex<VecDeque<(Instant, String)>>>;

fn pop(inbox: &Inbox) -> Option<(Instant, String)> {
    inbox.lock().expect("inbox lock").pop_front()
}

/// Splits the server's output into lines and stamps each one.
struct Recorder {
    partial: Vec<u8>,
    inbox: Inbox,
}

impl Write for Recorder {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let at = Instant::now();
                let line = String::from_utf8_lossy(&std::mem::take(&mut self.partial)).into_owned();
                self.inbox.lock().expect("inbox lock").push_back((at, line));
            } else {
                self.partial.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn recorder() -> (SharedWriter, Inbox) {
    let inbox = Inbox::default();
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(Recorder {
        partial: Vec::new(),
        inbox: inbox.clone(),
    })));
    (writer, inbox)
}

/// What the checks and metrics need of one answered row. It has a fixed
/// size, so keeping one per request does not grow the heap while the
/// server runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    /// FNV-1a of the row's JSON: two rows with the same hash are taken to
    /// be byte-identical.
    json_hash: u64,
    /// The row's replay digest.
    digest: u64,
    deadlock: bool,
    counts: SimCounts,
    /// Reconfiguration epochs the row ran.
    epochs: usize,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    latency_ms: f64,
    cached: bool,
    row: Option<Row>,
}

/// Reads response lines into [`Answer`]s, one slot per planned request.
struct Collector<'a> {
    /// When each submitted request was due.
    due_at: Vec<Option<Instant>>,
    answers: Vec<Option<Answer>>,
    /// Requests whose token and digest the replay check keeps.
    sampled: &'a [usize],
    replay: Vec<(String, String)>,
}

impl<'a> Collector<'a> {
    /// Sizes every buffer up front.
    fn new(plan: &'a [Planned], sampled: &'a [usize]) -> Collector<'a> {
        Collector {
            due_at: vec![None; plan.len()],
            answers: vec![None; plan.len()],
            sampled,
            replay: Vec::with_capacity(sampled.len()),
        }
    }

    fn take(&mut self, at: Instant, line: &str) {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            return;
        };
        let map = v.as_map().unwrap_or(&[]);
        let get = |k: &str| map.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(id) = get("id").and_then(Value::as_u64).map(|i| i as usize) else {
            return;
        };
        let Some(due) = self.due_at.get(id).copied().flatten() else {
            return;
        };
        let row = get("row").and_then(|r| {
            let report = ScenarioReport::from_value(r).ok()?;
            let json = serde_json::to_string(r).expect("value serializes");
            if self.sampled.contains(&id) {
                self.replay
                    .push((report.token.clone(), report.digest.clone()));
            }
            Some(Row {
                json_hash: fnv1a64(json.as_bytes()),
                digest: u64::from_str_radix(&report.digest, 16).ok()?,
                deadlock: report.is_deadlock(),
                counts: SimCounts::of(&report),
                epochs: report.reconfig.as_ref().map_or(0, |rc| rc.epochs.len()),
            })
        });
        self.answers[id] = Some(Answer {
            latency_ms: at.saturating_duration_since(due).as_secs_f64() * 1e3,
            cached: get("cached").and_then(Value::as_bool).unwrap_or(false),
            row,
        });
    }

    fn read_all(&mut self, inbox: &Inbox) {
        while let Some((at, line)) = pop(inbox) {
            self.take(at, &line);
        }
    }
}

/// An open-loop session with its server, joined when dropped.
struct Session {
    plan: Vec<Planned>,
    /// Fresh requests the replay check samples, picked by the seed.
    sampled: Vec<usize>,
    server: Option<Server>,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn span_log_path(seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("serve-spans-{seed}-{}.jsonl", std::process::id()))
}

fn server(span_log: Option<&std::path::Path>) -> Server {
    let cfg = ServeConfig {
        span_log: span_log.map(|p| p.to_path_buf()),
        span_sample: span_log.map(|_| 1.0),
        ..ServeConfig::default()
    };
    Server::new(Arc::new(Service::new(&cfg)), cfg.workers)
}

fn setup(seed: u64, seconds: f64, span_log: Option<&std::path::Path>) -> Session {
    let plan = plan(seed, seconds);
    let fresh: Vec<usize> = (0..plan.len())
        .filter(|&i| plan[i].repeat_of.is_none())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e1f_c4ec);
    let mut sampled: Vec<usize> = fresh
        .choose_multiple(&mut rng, REPLAY_SAMPLE)
        .copied()
        .collect();
    sampled.sort_unstable();
    Session {
        plan,
        sampled,
        server: Some(server(span_log)),
    }
}

/// What one open-loop pass measured.
struct Pass {
    answers: Vec<Option<Answer>>,
    /// Per request, the pace scale of its stretch of the schedule.
    scale: Vec<f64>,
    late_ms: Vec<f64>,
    /// Peak heap while the server ran, above what the pass started with.
    heap_mb: f64,
    /// Token and digest of every sampled request.
    replay: Vec<(String, String)>,
}

impl Pass {
    /// Latencies of the answered hits or misses, sorted, each times
    /// `scale` of its request.
    fn scaled_latencies(&self, cached: bool, scale: impl Fn(usize) -> f64) -> Vec<f64> {
        stats::sorted(
            &self
                .answers
                .iter()
                .enumerate()
                .filter_map(|(i, a)| Some((i, a.as_ref()?)))
                .filter(|(_, a)| a.cached == cached && a.row.is_some())
                .map(|(i, a)| a.latency_ms * scale(i))
                .collect::<Vec<_>>(),
        )
    }

    /// Wall-clock latencies, as the clients saw them.
    fn latencies(&self, cached: bool) -> Vec<f64> {
        self.scaled_latencies(cached, |_| 1.0)
    }

    /// Latencies at reference pace.
    fn paced_latencies(&self, cached: bool) -> Vec<f64> {
        self.scaled_latencies(cached, |i| self.scale[i])
    }

    /// Rows the server simulated rather than took from its cache.
    fn cold_rows(&self) -> impl Iterator<Item = &Row> {
        self.answers
            .iter()
            .flatten()
            .filter(|a| !a.cached)
            .filter_map(|a| a.row.as_ref())
    }

    fn digests(&self) -> Vec<Option<u64>> {
        self.answers
            .iter()
            .map(|a| a.as_ref()?.row.map(|r| r.digest))
            .collect()
    }
}

/// Plays the schedule against the session's server, [`SEGMENT_S`] seconds
/// at a time between pace slices, and collects the answers. Between
/// submissions the generator reads the responses already written, so only
/// fixed-size records pile up while the server runs. The server is drained
/// and joined before this returns.
fn play(mut session: Session, pacer: &mut Pacer) -> Pass {
    let (writer, inbox) = recorder();
    let server = session.server.take().expect("a fresh session");
    let plan = &session.plan;
    let mut late_ms = Vec::with_capacity(plan.len());
    let mut scale = vec![1.0; plan.len()];
    let mut c = Collector::new(plan, &session.sampled);
    let segment = Duration::from_secs(SEGMENT_S.into());
    alloc::reset_peak();
    let mut next = 0;
    while next < plan.len() {
        let first = next;
        let base = segment * (plan[first].due.as_secs() as u32 / SEGMENT_S);
        let paced = pacer.time(|| {
            let start = Instant::now();
            while let Some(p) = plan.get(next).filter(|p| p.due < base + segment) {
                let due = start + (p.due - base);
                c.due_at[next] = Some(due);
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    if due - now > READ_MARGIN {
                        if let Some((at, line)) = pop(&inbox) {
                            c.take(at, &line);
                            continue;
                        }
                    }
                    std::thread::sleep(due - now);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                server.submit(p.line.clone(), writer.clone());
                next += 1;
            }
            server.drain();
            c.read_all(&inbox);
        });
        scale[first..next].fill(paced.scale);
    }
    server.shutdown();
    c.read_all(&inbox);
    Pass {
        heap_mb: alloc::peak_mb(),
        answers: c.answers,
        scale,
        late_ms,
        replay: c.replay,
    }
}

/// Checks every answer of a pass: present, a row, sr2201 never
/// deadlocked, repeats identical to the row they repeat.
fn check_answers(gate: &mut Gate, plan: &[Planned], answers: &[Option<Answer>]) {
    for (i, (p, a)) in plan.iter().zip(answers).enumerate() {
        let Some(a) = a else {
            gate.fail(format!("request {i} got no response"));
            continue;
        };
        let Some(row) = &a.row else {
            gate.fail(format!("request {i} was not answered with a row"));
            continue;
        };
        gate.check(!row.deadlock, || {
            format!("sr2201 deadlocked serving {}", p.line)
        });
        if let Some(j) = p.repeat_of {
            let original = answers[j].as_ref().and_then(|o| o.row);
            gate.check(
                original.is_some_and(|o| o.json_hash == row.json_hash),
                || {
                    format!(
                        "request {i} repeats {j} but its row differs (cached: {})",
                        a.cached
                    )
                },
            );
        }
    }
}

fn rows_digest(pass: &Pass) -> Option<String> {
    let digests: Option<Vec<String>> = pass
        .answers
        .iter()
        .take(DIGEST_PREFIX)
        .map(|a| a.as_ref()?.row.map(|r| format!("{:016x}", r.digest)))
        .collect();
    digests
        .filter(|d| d.len() == DIGEST_PREFIX)
        .map(|d| digest_of(d.iter().map(String::as_str)))
}

fn p50(sorted: &[f64]) -> f64 {
    stats::nearest_rank(sorted, 500).unwrap_or(0.0)
}

fn tail(sorted: &[f64], what: &str) -> f64 {
    let t = stats::tail(sorted);
    eprintln!(
        "serve: {what}: p50 {:.3} ms over {} samples; tail is p{} = {:.3} ms",
        p50(sorted),
        sorted.len(),
        t.map_or(0.0, |t| t.0),
        t.map_or(0.0, |t| t.1)
    );
    t.map_or(0.0, |t| t.1)
}

/// One timed capacity unit.
struct UnitTime {
    rows: usize,
    flit_hops: u64,
    /// Wall time at reference pace.
    secs: f64,
}

/// Submits every request of `unit` at once to a new server and times it
/// until the server has answered them all.
fn capacity_unit(unit: &[Planned]) -> (f64, Vec<Option<Answer>>) {
    let server = server(None);
    let (writer, inbox) = recorder();
    let lines: Vec<String> = unit.iter().map(|p| p.line.clone()).collect();
    let t0 = Instant::now();
    for line in lines {
        server.submit(line, writer.clone());
    }
    server.drain();
    let secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    let mut c = Collector::new(unit, &[]);
    c.due_at.fill(Some(t0));
    c.read_all(&inbox);
    (secs, c.answers)
}

/// Runs capacity units for `budget` after one untimed warm-up unit, each
/// between pace slices and after a `rebuild` of the run's inputs, checks
/// every answer, and sets `setup_s`, `rows_per_s` and `flit_hops_per_s`
/// from the median unit at reference pace.
fn capacity_phase<R>(
    out: &mut Outcome,
    units: &[Vec<Planned>],
    budget: Duration,
    pacer: &mut Pacer,
    rebuild: impl Fn() -> R,
) {
    let mut setups = SetupTimes::default();
    let mut timed = Vec::new();
    let mut first: Vec<Option<Vec<Option<u64>>>> = vec![None; units.len()];
    let mut start = Instant::now();
    let mut i = 0;
    while i < 2 || start.elapsed() < budget {
        let u = i % units.len();
        let paced = pacer.time(|| (stopwatch(&rebuild), capacity_unit(&units[u])));
        let ((_, setup_secs), (secs, answers)) = paced.value;
        let secs = secs * paced.scale;
        out.gate.ok(units[u].len() as u64);
        check_answers(&mut out.gate, &units[u], &answers);
        out.gate
            .check(answers.iter().flatten().all(|a| !a.cached), || {
                format!("capacity unit {u}: a fresh request was a cache hit")
            });
        let hashes: Vec<Option<u64>> = answers
            .iter()
            .map(|a| a.as_ref()?.row.map(|r| r.json_hash))
            .collect();
        match &first[u] {
            None => first[u] = Some(hashes),
            Some(f) => out.gate.check(*f == hashes, || {
                format!("capacity unit {u}: rows differ on a rerun")
            }),
        }
        if i == 0 {
            start = Instant::now();
        } else {
            setups.push(setup_secs, paced.scale);
            let rows: Vec<&Row> = answers
                .iter()
                .flatten()
                .filter_map(|a| a.row.as_ref())
                .collect();
            timed.push(UnitTime {
                rows: rows.len(),
                flit_hops: rows.iter().map(|r| r.counts.flit_hops).sum(),
                secs,
            });
        }
        i += 1;
    }
    setups.report(out);
    out.set("rows_per_s", median_by(&timed, |t| t.rows as f64 / t.secs));
    out.set(
        "flit_hops_per_s",
        median_by(&timed, |t| t.flit_hops as f64 / t.secs),
    );
    eprintln!(
        "serve: {} timed capacity units of {CAPACITY_UNIT} fresh requests",
        timed.len()
    );
}

/// Runs the serve workload.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    // A traced run plays the open loop twice, untraced and traced.
    let open_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds * OPEN_SHARE
    };
    let inputs = || (setup(args.seed, open_s, None), capacity_plan(args.seed));
    let (session, capacity) = inputs();
    let plan = session.plan.clone();
    let mut pacer = Pacer::new();
    let pass = play(session, &mut pacer);
    out.set("peak_heap_mb", pass.heap_mb);

    out.gate.ok(plan.len() as u64);
    check_answers(&mut out.gate, &plan, &pass.answers);
    match rows_digest(&pass) {
        Some(d) => check_expected_digest(&mut out.gate, "serve", args.seed, &d),
        None if plan.len() >= DIGEST_PREFIX => out.gate.fail("serve: no rows_digest"),
        None => {}
    }
    rows::replay_sample(&mut out, &pass.replay, args.seed);

    let misses = pass.latencies(false);
    let hits = pass.latencies(true);
    let paced_misses = pass.paced_latencies(false);
    out.set("latency_ms", p50(&paced_misses));
    out.set("serve.miss_tail_ms", tail(&misses, "misses"));
    out.set("serve.hit_p50_ms", p50(&hits));
    out.set("serve.hit_tail_ms", tail(&hits, "hits"));
    out.set("serve.hit_ratio", hits.len() as f64 / plan.len() as f64);
    let spec_misses = plan
        .iter()
        .zip(&pass.answers)
        .filter(|(p, a)| is_spec(p) && a.as_ref().is_some_and(|a| !a.cached && a.row.is_some()))
        .count();
    eprintln!(
        "serve: open loop of {} requests: {} hits, {} misses of which {spec_misses} specs",
        plan.len(),
        hits.len(),
        misses.len(),
    );
    let met = pass
        .answers
        .iter()
        .flatten()
        .filter(|a| a.row.is_some() && a.latency_ms <= SLO_MS)
        .count();
    out.set("serve.slo_met_frac", met as f64 / plan.len() as f64);
    let late = stats::sorted(&pass.late_ms);
    out.set("loadgen.late_tail_ms", tail(&late, "generator lateness"));

    // The fresh requests are the open loop's distinct work.
    let fresh = || {
        plan.iter()
            .zip(&pass.answers)
            .filter(|(p, _)| p.repeat_of.is_none())
            .filter_map(|(_, a)| a.as_ref()?.row)
    };
    rows::set_sim_counts(&mut out, fresh().map(|r| r.counts).sum());
    out.set(
        "reconfig.epochs",
        fresh().map(|r| r.epochs).sum::<usize>() as f64,
    );

    if args.trace {
        traced_pass(&mut out, args.seed, open_s, &plan, &pass, &mut pacer);
    } else {
        capacity_phase(
            &mut out,
            &capacity,
            args.budget().mul_f64(1.0 - OPEN_SHARE),
            &mut pacer,
            inputs,
        );
    }
    out.set("host.slowdown", pacer.slowdown());
    out
}

/// Replays the same schedule against a fresh server with every request
/// traced, checks it answered with the same rows, and reads the per-layer
/// split from its span log.
fn traced_pass(
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    plan: &[Planned],
    plain: &Pass,
    pacer: &mut Pacer,
) {
    let log = span_log_path(seed);
    let traced = play(setup(seed, seconds, Some(&log)), pacer);
    out.gate.ok(plan.len() as u64);
    check_answers(&mut out.gate, plan, &traced.answers);
    out.gate.check(plain.digests() == traced.digests(), || {
        "serve: traced rows differ from untraced".to_string()
    });
    out.set(
        "trace_overhead",
        p50(&traced.paced_latencies(false)) / p50(&plain.paced_latencies(false)).max(1e-9),
    );

    let text = std::fs::read_to_string(&log).unwrap_or_default();
    let _ = std::fs::remove_file(&log);
    if let Some(dir) = log.parent() {
        // Only succeeds once no other run's log is left in it.
        let _ = std::fs::remove_dir(dir);
    }
    let spans = match mdx_obs::parse_span_log(&text) {
        Ok(s) => s,
        Err(e) => {
            return out
                .gate
                .fail(format!("serve: span log does not parse: {e}"))
        }
    };
    let requests = spans.iter().filter(|s| s.name == "request").count();
    out.gate.check(requests == plan.len(), || {
        format!(
            "serve: {requests} request spans for {} requests",
            plan.len()
        )
    });
    let durations = |name: &str, scale: f64| {
        stats::sorted(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration() as f64 / scale)
                .collect::<Vec<_>>(),
        )
    };
    let queue = durations("queue", 1e3);
    let run = durations("run", 1e3);
    out.set("serve.queue_ms_p50", p50(&queue));
    out.set("serve.queue_ms_tail", tail(&queue, "queue wait"));
    out.set("serve.run_ms_p50", p50(&run));
    out.set("serve.run_ms_tail", tail(&run, "run"));
    out.set("serve.cache_us_p50", p50(&durations("cache", 1.0)));
    out.set("serve.serialize_us_p50", p50(&durations("serialize", 1.0)));
    let total = |name: &str| durations(name, 1e6).iter().sum::<f64>();
    // The run span's engine children are its source and step phases; the
    // third phase, probe, only runs with a stall probe attached, which the
    // server never attaches.
    let (source_s, step_s) = (total("source"), total("step"));
    let engine = EngineTime {
        busy_s: source_s + step_s,
        source_s,
        step_s,
        ticks: traced.cold_rows().map(|r| r.counts.ticks).sum(),
    };
    rows::set_engine_time(out, &[engine]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = plan(7, 3.0);
        assert_eq!(a, plan(7, 3.0));
        assert_ne!(a, plan(8, 3.0));
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.last().unwrap().due < Duration::from_secs(3));
    }

    #[test]
    fn a_shorter_schedule_asks_for_a_prefix_of_a_longer_one() {
        let short = plan(7, 2.0);
        let long = plan(7, 4.0);
        for (s, l) in short.iter().zip(&long) {
            assert_eq!((&s.line, s.repeat_of), (&l.line, l.repeat_of));
        }
    }

    #[test]
    fn the_mix_has_its_declared_shares() {
        let p = plan(3, 10.0);
        let repeats = p.iter().filter(|r| r.repeat_of.is_some()).count();
        let specs = p
            .iter()
            .filter(|r| r.repeat_of.is_none() && is_spec(r))
            .count();
        // Half the blocks' slots are repeats; those among the first
        // REPEAT_GAP requests (at most 10 of each of three blocks) have
        // nothing old enough to repeat and run fresh instead.
        assert!((470..=500).contains(&repeats), "{repeats}");
        assert_eq!(specs, 100);
        for (i, r) in p.iter().enumerate() {
            if let Some(j) = r.repeat_of {
                assert!(j + REPEAT_GAP <= i && p[j].repeat_of.is_none());
            }
        }
    }

    #[test]
    fn capacity_units_are_fresh_distinct_and_seeded() {
        let units = capacity_plan(5);
        assert_eq!(units, capacity_plan(5));
        assert_ne!(units, capacity_plan(6));
        assert_eq!(units.len(), CAPACITY_UNITS);
        let mut lines = std::collections::BTreeSet::new();
        for u in &units {
            assert_eq!(u.len(), CAPACITY_UNIT);
            let specs = u.iter().filter(|p| is_spec(p)).count();
            assert_eq!(specs, CAPACITY_UNIT / 5);
            for p in u {
                assert!(lines.insert(p.line.clone()), "a repeated request");
            }
        }
    }

    #[test]
    fn the_replay_sample_is_fresh_requests_picked_by_the_seed() {
        let a = setup(3, 2.0, None);
        assert_eq!(a.sampled.len(), REPLAY_SAMPLE);
        assert!(a.sampled.iter().all(|&i| a.plan[i].repeat_of.is_none()));
        assert_ne!(a.sampled, setup(4, 2.0, None).sampled);
    }
}
