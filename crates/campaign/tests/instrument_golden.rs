//! Golden instrument output: the full output of every `mdx-obs`
//! instrument on three 4x3 rows, compared byte for byte against
//! `tests/golden/instruments.jsonl`.
//!
//! A campaign row carries only summaries of its instruments
//! (`RowTelemetry`, `RowAttribution`, `RowStream`), so this golden pins
//! the rest. Each row runs with every instrument attached (metrics, a
//! 16-cycle stall probe, the Perfetto trace, the flight recorder,
//! attribution and 50-cycle windows), and its line holds an FNV-1a digest
//! of every report's JSON and of every text render: the heatmap, the
//! stall timeline, the Perfetto document, the post-mortem, the
//! attribution report and the window table. The rows:
//!
//! * `sr2201` under mixed traffic with router 5 down: completes, with
//!   detours;
//! * a naive-broadcast storm from four sources: deadlocks, so the
//!   post-mortem is pinned too;
//! * `sr2201` under mixed traffic with X1-XB failing at cycle 40 under
//!   `reroute`: the epoch phases reach attribution and the flight ring.
//!
//! The golden is never regenerated. On a mismatch the actual bytes are
//! written to the test's scratch directory for inspection.

use mdx_campaign::{fnv1a64, run_scenario_instrumented, ObsOptions, Scenario, Workload};
use mdx_fault::{FaultSite, FaultTimeline};
use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
use mdx_topology::XbarRef;
use mdx_workloads::TrafficPattern;
use std::path::Path;

fn mixed() -> Workload {
    Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.03,
        packet_flits: 8,
        window: 200,
        broadcast_rate: 0.01,
    }
}

/// `"key":"<digest of text>"`, or `"key":null` when the instrument had
/// nothing to say.
fn field(key: &str, text: Option<String>) -> String {
    match text {
        Some(t) => format!("\"{key}\":\"{:016x}\"", fnv1a64(t.as_bytes())),
        None => format!("\"{key}\":null"),
    }
}

#[test]
fn instrument_output_matches_golden() {
    let all = ObsOptions {
        metrics: true,
        stall_probe: Some(16),
        trace: true,
        flight: true,
        attribution: true,
        windows: Some(50),
        ..ObsOptions::default()
    };
    let xbar = FaultSite::Xbar(XbarRef { dim: 0, line: 1 });
    let rows = [
        (
            "sr2201/mixed/router5",
            Scenario::new(vec![4, 3], "sr2201", mixed(), 7).with_faults([FaultSite::Router(5)]),
        ),
        (
            "naive-broadcast/storm",
            Scenario::new(
                vec![4, 3],
                "naive-broadcast",
                Workload::BroadcastStorm {
                    sources: vec![0, 4, 8, 3],
                    flits: 16,
                },
                1,
            ),
        ),
        (
            "sr2201/mixed/live-xbar-reroute",
            Scenario::new(vec![4, 3], "sr2201", mixed(), 5).with_reconfig(
                ReconfigSpec::new(FaultTimeline::new().inject(xbar, 40))
                    .with_policy(RecoveryPolicy::Reroute),
            ),
        ),
    ];

    let (mut names, mut lines) = (Vec::new(), Vec::new());
    let (mut detoured, mut deadlocked, mut rerouted) = (false, false, false);
    for (name, s) in rows {
        let (row, t) =
            run_scenario_instrumented(&s, &all).unwrap_or_else(|e| panic!("{name}: {e}"));
        let metrics = t.metrics.as_ref().expect("metrics ran");
        detoured |= row.outcome == "completed" && metrics.detours > 0;
        deadlocked |= row.outcome == "deadlock" && t.postmortem.is_some();
        rerouted |= row
            .reconfig
            .as_ref()
            .is_some_and(|r| r.epochs.iter().any(|e| e.rerouted > 0));
        let (stall, pm) = (t.stall.as_ref(), t.postmortem.as_ref());
        let (att, win) = (t.attribution.as_ref(), t.windows.as_ref());
        let fields = [
            format!("\"name\":\"{name}\""),
            format!("\"outcome\":\"{}\"", row.outcome),
            field("metrics", Some(metrics.to_json())),
            field(
                "heatmap",
                Some(metrics.heatmap(t.sxb_name.as_deref(), t.dxb_name.as_deref())),
            ),
            field("stall", stall.map(|r| serde_json::to_string(r).unwrap())),
            field("timeline", stall.map(|r| r.timeline())),
            field("trace", t.trace.clone()),
            field("postmortem", pm.map(|p| p.to_json())),
            field("postmortem_render", pm.map(|p| p.render())),
            field("attribution", att.map(|a| a.to_json())),
            field("attribution_render", att.map(|a| a.render())),
            field("windows", win.map(|w| serde_json::to_string(w).unwrap())),
            field("window_table", win.map(|w| w.render())),
        ];
        lines.push(format!("{{{}}}", fields.join(",")));
        names.push(name);
    }
    // The corpus must keep covering every output it exists to pin.
    assert!(detoured && deadlocked && rerouted, "corpus coverage");

    let mut actual = lines.join("\n");
    actual.push('\n');
    let golden = "instruments.jsonl";
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden);
        std::fs::write(&out, &actual).expect("write actual output");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or("a missing or extra line".to_string(), |i| {
                format!("line {} ({})", i + 1, names[i])
            });
        panic!(
            "{golden} differs at {first}; actual output written to {}",
            out.display()
        );
    }
}
