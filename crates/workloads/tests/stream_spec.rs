//! Workload-spec parsing and compilation: malformed specs name the line
//! and field at fault, and compilation is deterministic — the same spec
//! and seed always produce the same schedule, no matter how the source is
//! pulled.

use mdx_fault::{FaultEventKind, FaultSet};
use mdx_sim::TrafficSource;
use mdx_topology::Shape;
use mdx_workloads::{StreamSpec, TrafficPattern};
use proptest::prelude::*;

const GOOD: &str = "\
# two-phase run with a burst and a storm
seed 42
flits 8
phase 0..200 uniform rate=0.05
phase 200..500 hotspot:5 rate=0.10 flits=4
burst 250..260 incast:5:8 rate=0.5
storm 300 xbar:0:1
storm 400 repair xbar:0:1
horizon 800
";

fn shape() -> Shape {
    Shape::new(&[4, 4]).unwrap()
}

#[test]
fn good_spec_parses() {
    let spec = StreamSpec::parse(GOOD).unwrap();
    assert_eq!(spec.seed, 42);
    assert_eq!(spec.default_flits, 8);
    assert_eq!(spec.phases.len(), 3);
    assert_eq!(spec.phases[1].flits, 4);
    assert!(spec.phases[2].burst);
    assert_eq!(
        spec.phases[2].pattern,
        TrafficPattern::Incast { sink: 5, fan: 8 }
    );
    assert_eq!(spec.horizon, 800);
    assert_eq!(spec.storms.len(), 2);
    assert!(spec.storms[1].repair);
    let tl = spec.timeline();
    assert_eq!(tl.events().len(), 2);
    assert_eq!(tl.events()[0].kind, FaultEventKind::Inject);
    assert_eq!(tl.events()[1].at, 400);
    spec.validate(&shape()).unwrap();
}

/// Every malformed line is reported with its 1-based line number and the
/// field at fault.
#[test]
fn malformed_specs_name_line_and_field() {
    let cases: &[(&str, usize, &str)] = &[
        ("phase 0..100 uniform", 1, "rate"),
        ("seed 1\nphase 100..0 uniform rate=0.1", 2, "window"),
        ("phase 0..abc uniform rate=0.1", 1, "window end"),
        ("phase 0..100 vortex rate=0.1", 1, "pattern"),
        ("phase 0..100 hotspot rate=0.1", 1, "pattern"),
        ("phase 0..100 uniform rate=1.5", 1, "rate"),
        ("phase 0..100 uniform rate=0.1 flits=0", 1, "flits"),
        ("phase 0..100 uniform rate=0.1 bogus=3", 1, "bogus"),
        ("widget 5", 1, "widget"),
        ("phase 0..100 uniform rate=0.1\nstorm 50", 2, "storm"),
        ("phase 0..100 uniform rate=0.1\nstorm 50 disk:3", 2, "site"),
        (
            "phase 0..100 uniform rate=0.1\nstorm 50 xbar:0:zz",
            2,
            "xbar line",
        ),
        ("flits 0", 1, "flits"),
    ];
    for (text, line, field) in cases {
        let err = StreamSpec::parse(text).expect_err(text);
        assert_eq!(err.line, *line, "line for {text:?}: {err}");
        assert_eq!(err.field, *field, "field for {text:?}: {err}");
    }
}

#[test]
fn whole_spec_errors_use_line_zero() {
    let err = StreamSpec::parse("seed 3\n").unwrap_err();
    assert_eq!(err.line, 0);
    let err = StreamSpec::parse("phase 0..100 uniform rate=0.1\nhorizon 50").unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (0, "horizon"));
    let err = StreamSpec::parse("phase 0..100 uniform rate=0.1\nstorm 100 pe:1\nhorizon 100")
        .map(|s| s.validate(&shape()).map(|_| s))
        .unwrap_err();
    // Storm at the horizon is rejected at parse time with its own line.
    assert_eq!(err.line, 2);
}

/// Omitting `horizon` must leave drain headroom past the last phase end,
/// or every implicit-horizon run with packets still in flight ends as
/// `cycle-limit` instead of completing.
#[test]
fn omitted_horizon_gets_drain_headroom() {
    let spec = StreamSpec::parse("phase 0..100 uniform rate=0.1").unwrap();
    assert_eq!(spec.traffic_end(), 100);
    assert_eq!(spec.horizon, mdx_workloads::default_horizon(100));
    assert!(
        spec.horizon >= 100 + mdx_workloads::DEFAULT_DRAIN_SLACK,
        "horizon {} leaves no drain window",
        spec.horizon
    );
    // An explicit horizon is taken verbatim, even with zero headroom.
    let spec = StreamSpec::parse("phase 0..100 uniform rate=0.1\nhorizon 100").unwrap();
    assert_eq!(spec.horizon, 100);
}

#[test]
fn validation_catches_out_of_range_patterns() {
    let spec = StreamSpec::parse("phase 0..10 hotspot:99 rate=0.5").unwrap();
    let err = spec.validate(&shape()).unwrap_err();
    assert_eq!((err.line, err.field.as_str()), (1, "hotspot PE"));

    let spec = StreamSpec::parse("phase 0..10 bitrev rate=0.5").unwrap();
    let err = spec.validate(&Shape::new(&[3, 4]).unwrap()).unwrap_err();
    assert_eq!(err.field, "pattern");
}

/// A spec built or decoded without `parse` can carry any rate: compiling
/// it refuses one that is not a probability, naming the phase's line.
#[test]
fn compiling_refuses_a_rate_outside_0_1() {
    let mut spec = StreamSpec::parse("seed 1\nphase 0..10 uniform rate=0.5").unwrap();
    for rate in [1.5, -0.1, f64::NAN] {
        spec.phases[0].rate = rate;
        let err = spec.source(&shape(), &FaultSet::none(), 0).unwrap_err();
        assert_eq!((err.line, err.field.as_str()), (2, "rate"), "{err}");
    }
}

#[test]
fn spec_error_display_is_actionable() {
    let err = StreamSpec::parse("phase 0..100 uniform rate=2.0").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 1"), "{msg}");
    assert!(msg.contains("rate"), "{msg}");
    assert!(msg.contains("(0, 1]"), "{msg}");
}

#[test]
fn pull_batching_does_not_change_the_schedule() {
    let spec = StreamSpec::parse(GOOD).unwrap();
    let s = shape();
    let all = spec
        .source(&s, &FaultSet::none(), 7)
        .unwrap()
        .into_schedule();
    assert!(!all.is_empty());

    // Pull in awkward clumps; the union must be the identical schedule.
    let mut src = spec.source(&s, &FaultSet::none(), 7).unwrap();
    let mut clumped = Vec::new();
    let mut now = 0u64;
    while let Some(next) = src.next_arrival() {
        now = now.max(next) + 13; // skip ahead unevenly
        clumped.extend(src.pull(now));
    }
    assert_eq!(all, clumped);
    assert_eq!(src.offered(), all.len());
}

proptest! {
    /// spec -> compiled schedule -> re-derived summary: for any seed, the
    /// compile is reproducible and the schedule agrees with what the spec
    /// text declares (windows, lengths, destinations).
    #[test]
    fn prop_spec_roundtrip_pins_determinism(seed in 0u64..500, mix in 0u64..50) {
        let text = format!(
            "seed {seed}\nflits 6\nphase 0..120 uniform rate=0.08\n\
             burst 40..60 hotspot:3 rate=0.3 flits=2\nhorizon 200\n"
        );
        let spec = StreamSpec::parse(&text).unwrap();
        let s = shape();
        let a = spec.source(&s, &FaultSet::none(), mix).unwrap().into_schedule();
        let b = spec.source(&s, &FaultSet::none(), mix).unwrap().into_schedule();
        prop_assert_eq!(&a, &b);

        // Re-derive a summary from the compiled schedule and check it
        // against the parsed spec.
        for p in &a {
            prop_assert!(p.inject_at < spec.traffic_end());
            let in_phase = p.inject_at < 120 && p.flits == 6;
            let in_burst = (40..60).contains(&p.inject_at) && p.flits == 2;
            prop_assert!(in_phase || in_burst, "stray packet {p:?}");
            if in_burst && p.flits == 2 {
                prop_assert_eq!(s.index_of(p.header.dest), 3);
            }
        }
        // Offered volume tracks the declared Bernoulli means (loose bound).
        let expected = spec.expected_offered(16);
        let got = a.len() as f64;
        prop_assert!(
            (got - expected).abs() < expected.mul_add(0.5, 30.0),
            "offered {got} vs expected {expected}"
        );
    }

    /// Different seed mixes genuinely decorrelate the traffic.
    #[test]
    fn prop_seed_mix_changes_schedule(mix in 1u64..1000) {
        let spec = StreamSpec::parse(
            "phase 0..100 uniform rate=0.2\nhorizon 150\n"
        ).unwrap();
        let s = shape();
        let base = spec.source(&s, &FaultSet::none(), 0).unwrap().into_schedule();
        let mixed = spec.source(&s, &FaultSet::none(), mix).unwrap().into_schedule();
        prop_assert_ne!(base, mixed);
    }
}

#[test]
fn serde_roundtrip_preserves_spec() {
    let spec = StreamSpec::parse(GOOD).unwrap();
    let json = serde_json::to_string(&spec).unwrap();
    let back: StreamSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}
