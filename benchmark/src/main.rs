//! The repository benchmark.
//!
//! One workload per process:
//!
//! ```text
//! mdx-benchmark --workload sweep --seed 1 --seconds 25 --trace 0
//! ```
//!
//! prints a human-readable table on stderr and, as the last line of
//! stdout, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! Three subcommands drive it for people:
//!
//! - `run [--seed N]` runs every workload, each in its own child process,
//!   and prints the end-to-end numbers;
//! - `trace [--seed N]` does the same with `--trace 1`;
//! - `spread [--runs K] [--seed N]` runs `run` K times on seeds N..N+K and
//!   reports each end-to-end metric's median, quartiles and spread.

mod alloc;
mod batch;
mod pace;
mod report;
mod rows;
mod serve;
mod stats;
mod tournament;

use report::{Gate, Metric, Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sweep", "load", "serve", "tournament"];

/// Seconds one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Rows replayed from their tokens by the correctness gate.
pub const REPLAY_SAMPLE: usize = 64;

/// A run that has not finished by then is stuck; it exits without a
/// result instead of hanging its caller.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Expected `rows_digest` per workload for `--seed 1`.
const EXPECTED_SEED_1: &str = include_str!("../expected/seed-1.json");

/// One workload run's parameters, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed: the program only sees what it generates.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl RunArgs {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A run's set-up times at reference pace.
///
/// Each workload builds its inputs once before it measures, and then again
/// from scratch before every measured unit, inside that unit's pair of pace
/// slices; `setup_s` is the median of those rebuilds. On a shared host a
/// set-up's time moves between levels about 40% apart every few seconds,
/// out of step with the pace kernel, so a burst of set-ups at the start of
/// a run samples one level, while rebuilds spread over the whole run sample
/// the mix of them. Every rebuild builds everything from scratch, so
/// `setup_s` shows work moved into set-up.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Records one rebuild that took `secs` in a stretch paced by `scale`.
    pub fn push(&mut self, secs: f64, scale: f64) {
        self.0.push(secs * scale);
    }

    /// Sets `setup_s` to the median rebuild.
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", stats::median(&self.0));
    }
}

/// Checks `digest` against the committed expectation for `--seed 1`
/// (other seeds have none; their runs still check determinism).
pub fn check_expected_digest(gate: &mut Gate, workload: &str, seed: u64, digest: &str) {
    check_digest_against(gate, EXPECTED_SEED_1, workload, seed, digest);
}

fn check_digest_against(gate: &mut Gate, expected: &str, workload: &str, seed: u64, digest: &str) {
    if seed != 1 {
        return;
    }
    let doc: serde::value::Value = match serde_json::from_str(expected) {
        Ok(v) => v,
        Err(e) => return gate.fail(format!("expected/seed-1.json does not parse: {e}")),
    };
    let want = doc
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == workload))
        .and_then(|(_, v)| v.as_str());
    gate.check(want == Some(digest), || {
        format!("{workload}: rows_digest {digest}, expected {want:?} for seed 1")
    });
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: RunArgs) -> ExitCode {
    // Detached on purpose: it either ends the process or ends with it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("mdx-benchmark: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let mut out = match workload {
        "sweep" => batch::run(batch::Kind::Sweep, args),
        "load" => batch::run(batch::Kind::Load, args),
        "serve" => serve::run(args),
        "tournament" => tournament::run(args),
        other => {
            eprintln!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    if out.gate.attempted() == 0 {
        out.gate.fail(format!("{workload}: nothing ran"));
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(slowdown) = out.values.get("host.slowdown") {
        eprintln!("{workload}: pace slices took {slowdown:.3}x their reference time");
    }
    eprintln!("{}", render_table(workload, &out, table));
    for f in out.gate.failures() {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.json_line(table));
    if out.gate.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_table(workload: &str, out: &Outcome, table: &[Metric]) -> String {
    let mut s = format!(
        "{workload}: attempted {}, failed {}, error_rate {}\n",
        out.gate.attempted(),
        out.gate.failed(),
        out.gate.error_rate()
    );
    for m in table {
        let v = out.values.get(m.name).copied().unwrap_or(0.0);
        s.push_str(&format!("  {:<26} {:>16.6} {}\n", m.name, v, m.unit));
    }
    s
}

/// A child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    let v: serde::value::Value = serde_json::from_str(line).ok()?;
    let map = v.as_map()?;
    let get = |k: &str| map.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let metrics = get("metrics")?
        .as_map()?
        .iter()
        .map(|(name, m)| {
            let value = m.as_map()?.iter().find(|(k, _)| k == "value")?.1.as_f64()?;
            Some((name.clone(), value))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        correct: get("correct")?.as_bool()?,
        attempted: get("attempted")?.as_u64()?,
        failed: get("failed")?.as_u64()?,
        metrics,
    })
}

/// Runs one workload for [`RUN_SECONDS`] in a child process (so heap
/// peaks and warm caches stay per workload) and parses its result line.
fn run_child(workload: &str, seed: u64, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn a benchmark child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    if parsed.is_none() {
        eprintln!(
            "{workload}: child exited with {} and no result line",
            output.status
        );
    }
    parsed
}

/// Options of the `run`, `trace` and `spread` subcommands. Each runs every
/// workload for [`RUN_SECONDS`].
struct Driver {
    seed: u64,
    /// Runs per workload (`spread` only).
    runs: usize,
}

fn parse_driver(args: &[String], takes_runs: bool) -> Result<Driver, String> {
    let mut d = Driver { seed: 1, runs: 5 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => d.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" if takes_runs => {
                d.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(d)
}

/// `run` / `trace`: every workload once, in its own child, whose table
/// goes to stderr; then one status line per workload.
fn drive_once(d: &Driver, trace: bool) -> ExitCode {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for w in WORKLOADS {
        let Some(r) = run_child(w, d.seed, trace) else {
            ok = false;
            continue;
        };
        let missing: Vec<&str> = table
            .iter()
            .filter(|m| !r.metrics.iter().any(|(n, _)| n == m.name))
            .map(|m| m.name)
            .collect();
        ok &= r.correct && missing.is_empty();
        println!(
            "{w}: seed {} trace {} attempted {} failed {} error_rate {}{}",
            d.seed,
            u8::from(trace),
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            if missing.is_empty() {
                String::new()
            } else {
                format!(" MISSING {missing:?}")
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `spread`: K runs per workload on seeds seed..seed+K; median, quartiles
/// and spread of each end-to-end metric. A spread above the metric's
/// bound (setup time excepted: its runs are not steady by design) is
/// flagged and fails the command.
fn drive_spread(d: &Driver) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let results: Vec<ChildResult> = (0..d.runs as u64)
            .filter_map(|i| run_child(w, d.seed + i, false))
            .collect();
        ok &= results.len() == d.runs && results.iter().all(|r| r.correct);
        println!("{w}: {} runs", results.len());
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let med = stats::median(&values);
            let Some((q1, q3)) = stats::quartiles(&values) else {
                println!("  {:<18} too few runs", m.name);
                continue;
            };
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            let bound = m.bound.unwrap_or(0.0);
            let flagged = m.name != "setup_s" && spread > bound;
            ok &= !flagged;
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6.2}{}",
                m.name,
                med,
                q1,
                q3,
                spread,
                bound,
                if flagged { "  SPREAD ABOVE BOUND" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage:
  mdx-benchmark --workload NAME --seed N --seconds S --trace 0|1
  mdx-benchmark run    [--seed N]
  mdx-benchmark trace  [--seed N]
  mdx-benchmark spread [--runs K] [--seed N]";

fn parse_one(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map(String::as_str);
    let result = match sub {
        Some("run") | Some("trace") | Some("spread") => {
            parse_driver(&args[1..], sub == Some("spread")).map(|d| match sub {
                Some("run") => drive_once(&d, false),
                Some("trace") => drive_once(&d, true),
                _ => drive_spread(&d),
            })
        }
        _ => parse_one(&args).map(|(w, run)| run_one(&w, run)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: serde::value::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let secs = v
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "run_seconds")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(secs, Some(RUN_SECONDS));
    }

    #[test]
    fn a_forced_digest_mismatch_raises_the_error_rate() {
        let expected = r#"{"sweep": "00000000deadbeef"}"#;
        let mut g = Gate::default();
        check_digest_against(&mut g, expected, "sweep", 1, "00000000deadbeef");
        assert_eq!((g.attempted(), g.failed()), (1, 0));
        check_digest_against(&mut g, expected, "sweep", 1, "0123456789abcdef");
        assert_eq!(g.failed(), 1);
        assert!(g.error_rate() > 0.0);
        // Other seeds have no expectation to miss.
        check_digest_against(&mut g, expected, "sweep", 2, "0123456789abcdef");
        assert_eq!(g.attempted(), 2);
    }

    #[test]
    fn every_workload_has_an_expected_digest() {
        let v: serde::value::Value = serde_json::from_str(EXPECTED_SEED_1).unwrap();
        for w in WORKLOADS {
            let d = v.as_map().unwrap().iter().find(|(k, _)| k == w);
            assert!(
                d.and_then(|(_, v)| v.as_str())
                    .is_some_and(|d| d.len() == 16),
                "{w}"
            );
        }
    }

    #[test]
    fn result_lines_round_trip_through_the_parser() {
        let mut out = Outcome::default();
        out.gate.ok(3);
        out.set("rows_per_s", 1234.5);
        let r = parse_result_line(&out.json_line(END_TO_END)).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (3, 0));
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert!(r.metrics.contains(&("rows_per_s".to_string(), 1234.5)));
    }
}
