//! Backward compatibility for pre-reconfig and pre-zoo `MDX1.` tokens.
//!
//! The optional `reconfig` and `topology` scenario fields must not disturb
//! tokens minted before they existed: every frozen token below was
//! generated by the earlier scenario encoder (no `reconfig` or `topology`
//! key in the JSON). They must still parse, re-encode byte-identically,
//! and replay deterministically.

use mdx_campaign::{run_scenario, CampaignError, Scenario, ScenarioError, Workload};

/// Tokens minted before the `reconfig` field existed, frozen verbatim.
/// One per scheme/workload family the campaign grid exercises.
const FROZEN_TOKENS: &[&str] = &[
    // sr2201, 4x3, Router(5), mixed uniform-random traffic.
    "MDX1.eyJzaGFwZSI6WzQsM10sInNjaGVtZSI6InNyMjIwMSIsImZhdWx0cyI6W3siUm91dGVyIjo1fV0sIndvcmtsb2FkIjp7Ik1peGVkIjp7InBhdHRlcm4iOiJVbmlmb3JtUmFuZG9tIiwicmF0ZSI6MC4wMiwicGFja2V0X2ZsaXRzIjoxMiwid2luZG93IjoyMDAsImJyb2FkY2FzdF9yYXRlIjowLjAwMn19LCJzZWVkIjo3LCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwfQ",
    // separate-dxb, 4x3, Xbar(dim 1, line 2), broadcast storm.
    "MDX1.eyJzaGFwZSI6WzQsM10sInNjaGVtZSI6InNlcGFyYXRlLWR4YiIsImZhdWx0cyI6W3siWGJhciI6eyJkaW0iOjEsImxpbmUiOjJ9fV0sIndvcmtsb2FkIjp7IkJyb2FkY2FzdFN0b3JtIjp7InNvdXJjZXMiOlswLDQsOF0sImZsaXRzIjoxNn19LCJzZWVkIjozLCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwfQ",
    // sr2201, 4x3, fault-free, detour-stress race.
    "MDX1.eyJzaGFwZSI6WzQsM10sInNjaGVtZSI6InNyMjIwMSIsImZhdWx0cyI6W10sIndvcmtsb2FkIjp7IkRldG91clN0cmVzcyI6eyJiY19zcmMiOjksInVuaV9zcmMiOjAsInVuaV9kc3QiOjUsImZsaXRzIjoyNCwib2Zmc2V0IjoxM319LCJzZWVkIjo1LCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwfQ",
    // naive-broadcast, 2x2x2, explicit single packet.
    "MDX1.eyJzaGFwZSI6WzIsMiwyXSwic2NoZW1lIjoibmFpdmUtYnJvYWRjYXN0IiwiZmF1bHRzIjpbXSwid29ya2xvYWQiOnsiRXhwbGljaXQiOnsic3BlY3MiOlt7InNyY19wZSI6MCwiaGVhZGVyIjp7InJjIjoiTm9ybWFsIiwiZGVzdCI6eyJjIjpbMSwwLDEsMCwwLDAsMCwwXX0sInNyYyI6eyJjIjpbMCwwLDAsMCwwLDAsMCwwXX19LCJmbGl0cyI6MjQsImluamVjdF9hdCI6MTB9XX19LCJzZWVkIjowLCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwfQ",
    // o1turn, 4x4, Pe(3), transpose traffic.
    "MDX1.eyJzaGFwZSI6WzQsNF0sInNjaGVtZSI6Im8xdHVybiIsImZhdWx0cyI6W3siUGUiOjN9XSwid29ya2xvYWQiOnsiTWl4ZWQiOnsicGF0dGVybiI6IlRyYW5zcG9zZSIsInJhdGUiOjAuMDUsInBhY2tldF9mbGl0cyI6OCwid2luZG93IjoxMDAsImJyb2FkY2FzdF9yYXRlIjowLjB9fSwic2VlZCI6NDIsImJ1ZmZlcl9mbGl0cyI6MiwibWF4X2N5Y2xlcyI6NTAwMDB9",
];

#[test]
fn frozen_tokens_reencode_byte_identically() {
    for token in FROZEN_TOKENS {
        let s = Scenario::from_token(token).expect("pre-reconfig token must still parse");
        assert!(
            s.reconfig.is_none(),
            "pre-reconfig token must decode with no timeline: {token}"
        );
        assert_eq!(
            s.topology, "mdx",
            "pre-zoo token must decode onto the crossbar: {token}"
        );
        assert_eq!(
            &s.token(),
            token,
            "re-encoding must reproduce the frozen token byte-for-byte"
        );
    }
}

#[test]
fn frozen_tokens_replay_deterministically() {
    for token in FROZEN_TOKENS {
        let s = Scenario::from_token(token).expect("token parses");
        let a = run_scenario(&s).expect("frozen scenario runs");
        let b = run_scenario(&s).expect("frozen scenario runs again");
        assert_eq!(a.digest, b.digest, "replay digest must be stable: {token}");
        assert!(a.reconfig.is_none(), "static rows carry no reconfig report");
    }
}

#[test]
fn reconfig_tokens_round_trip_with_timeline() {
    use mdx_fault::{FaultSite, FaultTimeline};
    use mdx_reconfig::{ReconfigSpec, RecoveryPolicy};
    use mdx_topology::XbarRef;

    let tl = FaultTimeline::new()
        .inject(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 40)
        .repair(FaultSite::Xbar(XbarRef { dim: 1, line: 2 }), 400);
    let base = Scenario::from_token(FROZEN_TOKENS[0]).unwrap();
    let live = base
        .clone()
        .with_reconfig(ReconfigSpec::new(tl).with_policy(RecoveryPolicy::Reroute));

    let token = live.token();
    assert_ne!(token, base.token(), "timeline must be part of the token");
    let back = Scenario::from_token(&token).expect("live token parses");
    assert_eq!(back, live, "timeline round-trips through the token");
    assert_eq!(back.token(), token, "re-encoding is stable");
}

/// Tokens for the scheme-zoo comparators, frozen at the encoder that
/// introduced the `topology` field. One per new scheme.
const ZOO_TOKENS: &[&str] = &[
    // hyperx-ft, 3x3 HyperX, Router(6), mixed uniform-random traffic.
    "MDX1.eyJzaGFwZSI6WzMsM10sInNjaGVtZSI6Imh5cGVyeC1mdCIsImZhdWx0cyI6W3siUm91dGVyIjo2fV0sIndvcmtsb2FkIjp7Ik1peGVkIjp7InBhdHRlcm4iOiJVbmlmb3JtUmFuZG9tIiwicmF0ZSI6MC4wNSwicGFja2V0X2ZsaXRzIjo4LCJ3aW5kb3ciOjEwMCwiYnJvYWRjYXN0X3JhdGUiOjAuMH19LCJzZWVkIjo5LCJidWZmZXJfZmxpdHMiOjIsIm1heF9jeWNsZXMiOjUwMDAwLCJ0b3BvbG9neSI6Imh5cGVyeCJ9",
    // fullmesh-vcfree, 8-router full mesh, fault-free, uniform traffic.
    "MDX1.eyJzaGFwZSI6WzhdLCJzY2hlbWUiOiJmdWxsbWVzaC12Y2ZyZWUiLCJmYXVsdHMiOltdLCJ3b3JrbG9hZCI6eyJNaXhlZCI6eyJwYXR0ZXJuIjoiVW5pZm9ybVJhbmRvbSIsInJhdGUiOjAuMDUsInBhY2tldF9mbGl0cyI6OCwid2luZG93IjoxMDAsImJyb2FkY2FzdF9yYXRlIjowLjB9fSwic2VlZCI6MTEsImJ1ZmZlcl9mbGl0cyI6MiwibWF4X2N5Y2xlcyI6NTAwMDAsInRvcG9sb2d5IjoiZnVsbG1lc2gifQ",
    // hypercube-avoid, 2x2x2 hypercube, Router(2), transpose traffic.
    "MDX1.eyJzaGFwZSI6WzIsMiwyXSwic2NoZW1lIjoiaHlwZXJjdWJlLWF2b2lkIiwiZmF1bHRzIjpbeyJSb3V0ZXIiOjJ9XSwid29ya2xvYWQiOnsiTWl4ZWQiOnsicGF0dGVybiI6IlRyYW5zcG9zZSIsInJhdGUiOjAuMDUsInBhY2tldF9mbGl0cyI6OCwid2luZG93IjoxMDAsImJyb2FkY2FzdF9yYXRlIjowLjB9fSwic2VlZCI6NDIsImJ1ZmZlcl9mbGl0cyI6MiwibWF4X2N5Y2xlcyI6NTAwMDAsInRvcG9sb2d5IjoiaHlwZXJjdWJlIn0",
];

#[test]
fn zoo_tokens_reencode_and_replay() {
    for token in ZOO_TOKENS {
        let s = Scenario::from_token(token).expect("zoo token parses");
        assert_ne!(s.topology, "mdx", "zoo tokens carry their topology");
        assert_eq!(
            &s.token(),
            token,
            "re-encoding must reproduce the frozen zoo token byte-for-byte"
        );
        let a = run_scenario(&s).expect("zoo scenario runs");
        let b = run_scenario(&s).expect("zoo scenario runs again");
        assert_eq!(a.digest, b.digest, "replay digest must be stable: {token}");
    }
}

#[test]
fn out_of_range_tokens_replay_to_bad_spec_errors() {
    // Tokens that decode but carry numbers the engine or the generators
    // cannot run: each once panicked `campaign replay`.
    let mixed = |packet_flits: usize| Workload::Mixed {
        pattern: mdx_workloads::TrafficPattern::UniformRandom,
        rate: 0.02,
        packet_flits,
        window: 200,
        broadcast_rate: 0.002,
    };
    let zero_flits = Scenario::new(vec![4, 3], "sr2201", mixed(0), 1);
    let mut zero_buffer = Scenario::new(vec![4, 3], "sr2201", mixed(12), 1);
    zero_buffer.buffer_flits = 0;
    let storm = Workload::FaultStorm {
        rate: 1.5,
        packet_flits: 4,
        window: 100,
        burst: 2,
    };
    let certain_storm = Scenario::new(vec![4, 3], "sr2201", storm, 1);
    for (scenario, what) in [
        (zero_flits, "packet_flits must be at least 1"),
        (zero_buffer, "buffer_flits must be at least 1"),
        (certain_storm, "rate must be a probability"),
    ] {
        let replayed = Scenario::from_token(&scenario.token()).expect("token decodes");
        match run_scenario(&replayed) {
            Err(CampaignError::Scenario(ScenarioError::BadSpec(e))) => {
                assert!(e.contains(what), "{e}")
            }
            other => panic!("expected a bad-spec error for {what}, got {other:?}"),
        }
    }
}
