//! Golden wire formats: protocol response lines, campaign rows and health
//! reports compared byte for byte against outputs committed under
//! `tests/golden/`.
//!
//! The goldens pin what every client, cache file and JSONL consumer reads,
//! so any change to a wire shape — a field renamed, reordered, omitted or
//! `null`-padded — fails here. They are never regenerated: on a mismatch
//! the actual output is written next to the test binary's scratch space
//! for inspection, and the change has to be made compatible instead.
//! Verbs whose answers carry wall-clock values (`stats`, `metrics`,
//! `spans`) are left out.

use mdx_campaign::{run_scenario_instrumented, ObsOptions, Scenario, Workload};
use mdx_fault::{FaultSite, FaultTimeline};
use mdx_health::{HealthEngine, SignalFrame, SloSpec};
use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
use mdx_serve::{ServeConfig, Service};
use mdx_topology::XbarRef;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// sr2201 on 4x3 with Router(5) faulty, mixed uniform-random traffic.
const PLAIN_TOKEN: &str = "MDX1.eyJzaGFwZSI6WzQsM10sInNjaGVtZSI6InNyMjIwMSIsImZhdWx0cyI6W3siUm91dGVyIjo1fV0sIndvcmtsb2FkIjp7Ik1peGVkIjp7InBhdHRlcm4iOiJVbmlmb3JtUmFuZG9tIiwicmF0ZSI6MC4wMiwicGFja2V0X2ZsaXRzIjoxMiwid2luZG93IjoyMDAsImJyb2FkY2FzdF9yYXRlIjowLjAwMn19LCJzZWVkIjo3LCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwfQ";

/// hyperx-ft on a 3x3 HyperX with Router(6) faulty: a non-default topology.
const HYPERX_TOKEN: &str = "MDX1.eyJzaGFwZSI6WzMsM10sInNjaGVtZSI6Imh5cGVyeC1mdCIsImZhdWx0cyI6W3siUm91dGVyIjo2fV0sIndvcmtsb2FkIjp7Ik1peGVkIjp7InBhdHRlcm4iOiJVbmlmb3JtUmFuZG9tIiwicmF0ZSI6MC4wNSwicGFja2V0X2ZsaXRzIjo4LCJ3aW5kb3ciOjEwMCwiYnJvYWRjYXN0X3JhdGUiOjAuMH19LCJzZWVkIjo5LCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwLCJ0b3BvbG9neSI6Imh5cGVyeCJ9";

/// Unserialized broadcast on 2x2x2: three simultaneous broadcasts, the
/// Fig. 5 recipe that deadlocks.
fn deadlock_scenario() -> Scenario {
    Scenario::new(
        vec![2, 2, 2],
        "naive-broadcast",
        Workload::BroadcastStorm {
            sources: vec![0, 3, 5],
            flits: 16,
        },
        1,
    )
}

/// sr2201 on 4x4x4 with a live crossbar fault at cycle 40, repaired at 400.
fn reconfig_scenario() -> Scenario {
    let site = FaultSite::Xbar(XbarRef { dim: 1, line: 2 });
    let timeline = FaultTimeline::new().inject(site, 40).repair(site, 400);
    Scenario::new(
        vec![4, 4, 4],
        "sr2201",
        Workload::FaultStorm {
            rate: 0.01,
            packet_flits: 4,
            window: 300,
            burst: 8,
        },
        3,
    )
    .with_reconfig(ReconfigSpec::new(timeline).with_policy(RecoveryPolicy::Reinject))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` with the committed golden `name`, byte for byte. On
/// a mismatch the actual bytes land in the test's scratch directory.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).expect("write actual output");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || "a missing or extra line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "{name} differs from {} at {first}; actual output written to {}",
            path.display(),
            out.display()
        );
    }
}

fn lines(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().map(|l| l + "\n").collect()
}

#[test]
fn protocol_session_matches_golden() {
    let service = Service::new(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let deadlock = deadlock_scenario();
    let deadlock_digest = mdx_campaign::run_scenario(&deadlock)
        .expect("deadlock scenario runs")
        .digest;
    let spec = "seed 5\\nflits 2\\nphase 0..600 uniform rate=0.04\\n\
                storm 200 xbar:0:1\\nstorm 420 repair xbar:0:1\\nhorizon 1200\\n";
    let requests = [
        format!(r#"{{"cmd":"run","id":1,"trace":"g-1","token":"{PLAIN_TOKEN}"}}"#),
        format!(r#"{{"cmd":"run","id":2,"trace":"g-2","token":"{HYPERX_TOKEN}"}}"#),
        format!(
            r#"{{"cmd":"spec","id":3,"trace":"g-3","spec":"{spec}","shape":[4,4],"scheme":"sr2201","seed":5,"windows":100}}"#
        ),
        format!(
            r#"{{"cmd":"run","id":4,"trace":"g-4","token":"{}"}}"#,
            deadlock.token()
        ),
        format!(r#"{{"cmd":"postmortem","id":5,"trace":"g-5","digest":"{deadlock_digest}"}}"#),
        format!(r#"{{"cmd":"run","id":6,"trace":"g-6","token":"{PLAIN_TOKEN}"}}"#),
        r#"{"cmd":"tournament","id":7,"trace":"g-7","spec":"scheme sr2201 separate-dxb\ntopology mdx:3x3\nfaults none\nseeds 1\n"}"#.to_string(),
        r#"{"cmd":"frobnicate","id":8,"trace":"g-8"}"#.to_string(),
    ];
    let session = lines(
        requests
            .iter()
            .map(|line| service.process_line(line, Instant::now())),
    );
    assert_golden("session.jsonl", &session);
}

#[test]
fn instrumented_rows_match_golden() {
    let opts = ObsOptions {
        metrics: true,
        stall_probe: Some(16),
        flight: true,
        attribution: true,
        latencies: true,
        windows: Some(50),
        ..ObsOptions::default()
    };
    let rows = [deadlock_scenario(), reconfig_scenario()].map(|s| {
        let (row, _) = run_scenario_instrumented(&s, &opts).expect("scenario runs");
        assert!(row.profile.is_some(), "fresh rows carry a profile");
        serde_json::to_string(&row).expect("row serializes")
    });
    assert_golden("rows.jsonl", &lines(rows));
}

#[test]
fn health_reports_match_golden() {
    let spec = SloSpec::parse(
        "window fast=2 slow=4\n\
         objective lat latency_p99 ceiling 500 budget=0.25 warn=400\n\
         objective dl deadlock_rate ceiling 0.01\n\
         objective delivery delivery_ratio floor 0.95\n",
    )
    .expect("spec parses");
    let mut engine = HealthEngine::new(spec);
    let frames = [
        [Some(100.0), Some(0.0), Some(1.0)],
        [Some(450.0), Some(0.0), Some(0.99)],
        [Some(900.0), Some(0.5), None],
        [Some(900.0), Some(0.5), Some(0.5)],
        [Some(100.0), Some(0.0), Some(1.0)],
    ];
    let reports = frames.iter().enumerate().map(|(tick, values)| {
        let mut frame = SignalFrame::new(tick as u64);
        for (name, v) in ["latency_p99", "deadlock_rate", "delivery_ratio"]
            .iter()
            .zip(values)
        {
            if let Some(v) = v {
                frame.set(*name, *v);
            }
        }
        serde_json::to_string(&engine.observe(&frame)).expect("report serializes")
    });
    assert_golden("health.jsonl", &lines(reports));
}
