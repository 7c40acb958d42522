//! Golden wait-search rows: live `reroute` runs whose every wait-graph
//! reading is compared byte for byte against
//! `tests/golden/wait_rows.jsonl`.
//!
//! Three readers search the engine's wait snapshots for cycles and
//! chains, and each row here exercises all three:
//!
//! * the watchdog names a deadlock's cycle (the row's `deadlock`), and the
//!   flight recorder's post-mortem finds the same cycle on the terminal
//!   snapshot (the row's `postmortem`);
//! * the transition checker tags every cycle of each snapshot it samples
//!   around a reprogram with the epochs of its waits and holds (the row's
//!   `reconfig.transition`: violations and single-epoch cycles);
//! * the stall probe reduces every 50-cycle snapshot to its longest
//!   wait chain and whether it holds a cycle (`stall`, and the row's
//!   `telemetry.peak_wait_chain`).
//!
//! The rows are the benchmark's `load` row scale on 8x8 (mixed uniform
//! traffic at rate 0.05, 12 flits, window 400, broadcast rate 0.002) with
//! one crossbar failing at cycle 150 under `reroute`:
//!
//! * `sr2201`, seed 11, X1-XB: completes with no transition violation;
//! * `sr2201`, seed 11, Y3-XB: deadlocks through a re-decided detour (the
//!   `fig9-detour-cross` post-mortem), with mixed-epoch cycles;
//! * `naive-broadcast`, seed 13, Y1-XB: deadlocks with both mixed-epoch
//!   and single-epoch cycles;
//! * `naive-broadcast`, seed 11, Y3-XB: stalls, the watchdog finding no
//!   cycle to name.
//!
//! The golden is never regenerated. On a mismatch the actual bytes are
//! written to the test's scratch directory for inspection.

use mdx_campaign::{run_scenario_instrumented, ObsOptions, Scenario, Workload};
use mdx_fault::{FaultSite, FaultTimeline};
use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
use mdx_topology::XbarRef;
use mdx_workloads::TrafficPattern;
use std::path::Path;

/// The `load` row on 8x8 under `scheme` with `xbar` failing at cycle 150
/// under `reroute`.
fn load_row_losing(scheme: &str, xbar: XbarRef, seed: u64) -> Scenario {
    let workload = Workload::Mixed {
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        packet_flits: 12,
        window: 400,
        broadcast_rate: 0.002,
    };
    Scenario::new(vec![8, 8], scheme, workload, seed).with_reconfig(
        ReconfigSpec::new(FaultTimeline::new().inject(FaultSite::Xbar(xbar), 150))
            .with_policy(RecoveryPolicy::Reroute),
    )
}

#[test]
fn wait_rows_match_golden() {
    let opts = ObsOptions {
        metrics: true,
        stall_probe: Some(50),
        flight: true,
        ..ObsOptions::default()
    };
    let rows = [
        ("sr2201", 11, 0, 1),
        ("sr2201", 11, 1, 3),
        ("naive-broadcast", 13, 1, 1),
        ("naive-broadcast", 11, 1, 3),
    ];
    let (mut names, mut lines) = (Vec::new(), Vec::new());
    let (mut clean, mut violated, mut deadlocked, mut single, mut stalled) = (0, 0, 0, 0, 0);
    for (scheme, seed, dim, line) in rows {
        let s = load_row_losing(scheme, XbarRef { dim, line }, seed);
        let name = format!("{scheme}/seed{seed}/{dim}:{line}");
        let (row, telemetry) =
            run_scenario_instrumented(&s, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let transition = &row
            .reconfig
            .as_ref()
            .expect("timeline rows report")
            .transition;
        clean += usize::from(row.outcome == "completed" && transition.transition_safe());
        violated += usize::from(!transition.transition_safe());
        deadlocked += usize::from(row.outcome == "deadlock");
        single += usize::from(transition.single_epoch_cycles > 0);
        stalled += usize::from(row.outcome == "stalled");
        lines.push(format!(
            "{{\"name\":\"{name}\",\"row\":{},\"stall\":{}}}",
            serde_json::to_string(&row).unwrap(),
            serde_json::to_string(&telemetry.stall).unwrap(),
        ));
        names.push(name);
    }
    // The corpus must keep covering every reading it exists to pin.
    assert!(
        clean > 0 && violated > 0 && deadlocked > 0,
        "corpus coverage"
    );
    assert!(single > 0 && stalled > 0, "corpus coverage");

    let mut actual = lines.join("\n");
    actual.push('\n');
    let golden = "wait_rows.jsonl";
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
