//! Satellite guarantee: post-mortems are a replay artifact, not a
//! wall-clock artifact. Running the same `MDX1.` token twice with the
//! flight recorder attached must produce byte-identical post-mortem JSON
//! and byte-identical rendered reports.

use mdx_campaign::{run_scenario_instrumented, ObsOptions, Scenario, Workload};

/// The Fig. 5 storm from the crate docs: deadlocks under naive broadcast
/// at seed 0.
fn storm_token() -> String {
    Scenario::new(
        vec![4, 3],
        "naive-broadcast",
        Workload::BroadcastStorm {
            sources: vec![0, 4, 8, 3, 7, 11],
            flits: 16,
        },
        0,
    )
    .token()
}

#[test]
fn same_token_twice_gives_byte_identical_postmortems() {
    let token = storm_token();
    let opts = ObsOptions {
        flight: true,
        ..ObsOptions::default()
    };
    let run = || {
        let s = Scenario::from_token(&token).expect("token decodes");
        run_scenario_instrumented(&s, &opts).expect("scenario runs")
    };
    let (r1, t1) = run();
    let (r2, t2) = run();

    assert_eq!(r1.outcome, "deadlock", "the storm must deadlock");
    assert_eq!(r1.digest, r2.digest, "engine replay is bit-identical");

    let p1 = t1.postmortem.expect("failed run yields a post-mortem");
    let p2 = t2.postmortem.expect("failed run yields a post-mortem");
    assert_eq!(p1.to_json(), p2.to_json(), "post-mortem JSON diverged");
    assert_eq!(p1.render(), p2.render(), "rendered report diverged");

    // The row embeds the same report the telemetry carries.
    assert_eq!(r1.postmortem.as_ref(), Some(&p1));
    assert_eq!(r2.postmortem.as_ref(), Some(&p2));

    // And the report is substantive: a classified cycle with RC states.
    assert!(!p1.cycle.is_empty());
    assert_eq!(p1.classification, "fig5-naive-broadcast");
    assert!(p1.events_recorded > 0);
}

#[test]
fn completed_runs_carry_no_postmortem() {
    let s = Scenario::new(
        vec![4, 3],
        "sr2201",
        Workload::BroadcastStorm {
            sources: vec![0, 4, 8],
            flits: 16,
        },
        1,
    );
    let opts = ObsOptions {
        flight: true,
        ..ObsOptions::default()
    };
    let (report, telemetry) = run_scenario_instrumented(&s, &opts).expect("scenario runs");
    assert_eq!(report.outcome, "completed");
    assert!(report.postmortem.is_none());
    assert!(telemetry.postmortem.is_none());

    // The recorder rode along anyway (always-on), without perturbing the
    // replay digest.
    let bare = run_scenario_instrumented(&s, &ObsOptions::default())
        .expect("scenario runs")
        .0;
    assert_eq!(report.digest, bare.digest);
}
