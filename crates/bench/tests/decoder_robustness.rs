//! Decoder robustness: char-level mutations and truncations of valid wire
//! inputs must decode to `Ok` or a typed `Err`, never panic.
//!
//! Covered decoders: `Scenario::from_token` (on the pinned `token_compat`
//! tokens, mutated both as token text and as decoded JSON payload), the
//! serve `Request` line, campaign `ScenarioReport` rows,
//! `TraceDoc::parse`, the JSONL span log (`parse_span_log`, whose spans
//! must also never end before they start), and the three line grammars:
//! `StreamSpec::parse`, `TournamentSpec::parse` and `SloSpec::parse`. A
//! mutated request line that does not parse must still get exactly one
//! `error` response line from `Service::process_line`, echoing the line's
//! `trace` tag when a lenient parse finds one and omitting it otherwise.
//! Specs that parse must also pass the runner's workload check, so a
//! parsed spec can never panic the engine. Every case only parses —
//! nothing simulates — so the run time stays bounded.

use mdx_campaign::{token, Scenario, ScenarioReport, Workload};
use mdx_health::SloSpec;
use mdx_obs::{parse_span_log, TraceDoc};
use mdx_serve::{Request, Response, ServeConfig, Service};
use mdx_topology::Shape;
use mdx_tournament::TournamentSpec;
use mdx_workloads::StreamSpec;
use proptest::prelude::*;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Characters the mutator inserts: JSON structure, escapes, number and
/// literal fragments, base64url letters, spec-grammar punctuation,
/// whitespace, and multi-byte text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ',', ':', '\\', '0', '9', '-', '.', 'e', 'E', 'a', 'n', 't', 'u', 'l',
    '_', 'A', 'z', ' ', '\n', '\u{0}', 'é', '🦀', '=', 'x', '#', 'i', 'f', '1',
];

/// Applies one mutation per op: delete, insert, replace, truncate, or
/// duplicate a short slice, at a position drawn from the op's bits.
fn mutate(src: &str, ops: &[u64]) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for &op in ops {
        let pos = (op >> 16) as usize % (chars.len() + 1);
        let c = ALPHABET[(op >> 8) as usize % ALPHABET.len()];
        match op % 5 {
            0 if pos < chars.len() => {
                chars.remove(pos);
            }
            1 => chars.insert(pos, c),
            2 if pos < chars.len() => chars[pos] = c,
            3 => chars.truncate(pos),
            4 => {
                let end = (pos + 1 + (op >> 48) as usize % 16).min(chars.len());
                let slice: Vec<char> = chars[pos.min(end)..end].to_vec();
                chars.splice(end..end, slice);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// Numbers at and beyond the edges of the workload ranges.
const EDGE_NUMBERS: &[&str] = &[
    "0", "1", "-1", "0.5", "1.5", "5", "NaN", "inf", "-0", "1e-9",
];

/// Sets the value of one `key=value` token (the `pick`-th, cyclically) to
/// an edge number, so mutations also probe the numeric ranges.
fn set_value(text: &str, pick: usize) -> String {
    let starts: Vec<usize> = text.match_indices('=').map(|(i, _)| i + 1).collect();
    let start = starts[pick % starts.len()];
    let end = text[start..]
        .find(char::is_whitespace)
        .map_or(text.len(), |n| start + n);
    let value = EDGE_NUMBERS[(pick / starts.len()) % EDGE_NUMBERS.len()];
    format!("{}{value}{}", &text[..start], &text[end..])
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The frozen tokens pinned by `token_compat`, read from that test's
/// source so both tests share one list.
fn pinned_tokens() -> Vec<String> {
    let src = read("crates/campaign/tests/token_compat.rs");
    let tokens: Vec<String> = src
        .split('"')
        .filter(|s| s.starts_with(token::TOKEN_PREFIX))
        .map(str::to_string)
        .collect();
    assert!(
        tokens.len() >= 8,
        "token_compat pins {} tokens",
        tokens.len()
    );
    tokens
}

const REQUESTS: &[&str] = &[
    r#"{"cmd":"run","id":1,"trace":"t-1","token":"MDX1.eyJzaGFwZSI6WzQsM119"}"#,
    r#"{"cmd":"run","token":"MDX1.abc","force":true}"#,
    r#"{"cmd":"spec","id":2,"spec":"seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600","shape":[4,3],"scheme":"sr2201","seed":1,"windows":100}"#,
    r#"{"cmd":"postmortem","id":3,"digest":"00ff00ff00ff00ff"}"#,
    r#"{"cmd":"tournament","id":4,"spec":"scheme sr2201\ntopology mdx:3x3\nseeds 1\n"}"#,
    r#"{"cmd":"stats"}"#,
];

/// JSON lines that are not requests, with and without a usable `trace`
/// tag: the inputs the salvage exists for.
const NOT_REQUESTS: &[&str] = &[
    r#"{"cmd":"run","id":-1,"trace":"t-2","token":"MDX1.x"}"#,
    r#"{"trace":"t-3","token":"MDX1.x"}"#,
    r#"{"cmd":7,"id":3,"trace":"t-4"}"#,
    r#"{"cmd":"run","trace":5}"#,
];

/// Stream specs using every directive, pattern family and site kind.
const STREAM_SPECS: &[&str] = &[
    "seed 5\nflits 2\nphase 0..600 uniform rate=0.04\nstorm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200",
    "seed 42 # base\nflits 8\nphase 0..2000 uniform rate=0.05\nphase 2000..5000 hotspot:5 rate=0.10 flits=4\n\
     burst 2500..2600 incast:5:8 rate=0.5\nstorm 3000 xbar:0:1 router:2 pe:7\nhorizon 6000",
];

/// Tournament specs using every directive and workload key.
const TOURNAMENT_SPECS: &[&str] = &[
    "# the default grid\nscheme all\ntopology mdx:4x3 hyperx:3x3 fullmesh:6 hypercube:2x2x2\n\
     faults none router\nworkload mixed rate=0.02 flits=12 window=200 bc=0.002\nseeds 2\nmax-cycles 20000",
    "scheme sr2201 hyperx-ft\ntopology mdx:4x3\nfaults none router xbar\nworkload storm flits=24\n\
     workload mixed rate=1 bc=0\nseeds 3\nbuffer-flits 4",
];

/// SLO specs using every directive and objective option.
const SLO_SPECS: &[&str] = &[
    "# serve SLOs\nwindow fast=5 slow=20\nburn fast=2.0 slow=1.0\n\
     objective lat-p99 latency_p99 ceiling 500 budget=0.05 warn=400\n\
     objective no-deadlock deadlock_rate ceiling 0.01 budget=0.01\nobjective delivery delivery_ratio floor 0.95",
];

/// A trace document in every phase shape the renderers emit.
const TRACE: &str = r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"packets"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"pkt3"}},
{"name":"R0 -> X0-XB","ph":"X","pid":1,"tid":0,"ts":2,"dur":5},
{"name":"blocked","ph":"X","pid":1,"tid":0,"ts":2,"dur":5,"args":{"holder":"pkt1"}},
{"name":"request","ph":"X","pid":2,"tid":1,"ts":0,"dur":9,"args":{"trace":"t-1","token":"MDX1.x"}},
{"name":"rc 1 -> 2","ph":"i","pid":1,"tid":0,"ts":4,"s":"t"},
{"name":"gather depth","ph":"C","pid":9,"tid":0,"ts":4,"args":{"depth":2}},
{"name":"flits","ph":"C","pid":9,"tid":1,"ts":4,"args":{"flits":7}}
],"displayTimeUnit":"ms"}"#;

/// A span log in both time domains, with a root, children (`parent`) and
/// `attrs`. The `queue` span is short, so a digit inserted into its
/// `start` pushes it past its `end`.
const SPAN_LOG: &str = r#"{"trace":"t-1","span":1,"name":"request","start":10,"end":90,"unit":"us","attrs":{"verb":"run","token":"MDX1.x"}}
{"trace":"t-1","span":2,"parent":1,"name":"queue","start":12,"end":19,"unit":"us"}
{"trace":"t-1","span":3,"parent":1,"name":"engine","start":0,"end":640,"unit":"cycles","attrs":{"digest":"00ff"}}
"#;

/// Runs `decode` on `input`, failing the case (with the input) if it
/// panics. `decode` returns `Result`, so not panicking means `Ok` or a
/// typed `Err`.
fn no_panic<T, E>(
    input: &str,
    decode: impl FnOnce(&str) -> Result<T, E>,
) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(input).is_ok()));
    prop_assert!(outcome.is_ok(), "decoder panicked on {input:?}");
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 1..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_tokens_decode_or_error(pick in any::<usize>(), ops in ops()) {
        let tokens = pinned_tokens();
        let tok = &tokens[pick % tokens.len()];
        no_panic(&mutate(tok, &ops), mdx_campaign::Scenario::from_token)?;
        // Mutating the decoded payload reaches the scenario decoder itself.
        let json = token::unwrap(tok).expect("pinned token unwraps");
        no_panic(&token::wrap(&mutate(&json, &ops)), mdx_campaign::Scenario::from_token)?;
    }

    #[test]
    fn mutated_request_lines_parse_or_get_one_error_line(pick in any::<usize>(), ops in ops()) {
        let line = mutate(REQUESTS[pick % REQUESTS.len()], &ops);
        no_panic(&line, serde_json::from_str::<Request>)?;
        if serde_json::from_str::<Request>(&line).is_err() {
            let service = Service::new(&ServeConfig { workers: 1, ..ServeConfig::default() });
            let out = service.process_line(&line, Instant::now());
            prop_assert!(!out.contains('\n'), "multi-line answer to {line:?}: {out}");
            let v: serde_json::Value = serde_json::from_str(&out).expect("answer is JSON");
            let kind = v.as_map().and_then(|m| m.iter().find(|(k, _)| k == "kind"));
            let kind = kind.and_then(|(_, k)| k.as_str());
            prop_assert!(kind == Some("error"), "non-error answer to {line:?}: {out}");
        }
    }

    #[test]
    fn mutated_rows_decode_or_error(pick in any::<usize>(), ops in ops()) {
        let rows = read("crates/serve/tests/golden/rows.jsonl");
        let rows: Vec<&str> = rows.lines().collect();
        no_panic(&mutate(rows[pick % rows.len()], &ops), serde_json::from_str::<ScenarioReport>)?;
    }

    #[test]
    fn mutated_traces_parse_or_error(ops in ops()) {
        no_panic(&mutate(TRACE, &ops), TraceDoc::parse)?;
    }

    #[test]
    fn mutated_span_logs_parse_or_error(ops in ops()) {
        let text = mutate(SPAN_LOG, &ops);
        no_panic(&text, parse_span_log)?;
        if let Ok(spans) = parse_span_log(&text) {
            for s in &spans {
                prop_assert!(s.end >= s.start, "{text:?} parsed {s:?}, which ends before it starts");
            }
        }
    }

    #[test]
    fn mutated_stream_specs_parse_to_checked_workloads_or_error(pick in any::<usize>(), ops in ops()) {
        let text = mutate(&set_value(STREAM_SPECS[pick % STREAM_SPECS.len()], pick), &ops);
        no_panic(&text, StreamSpec::parse)?;
        if let Ok(spec) = StreamSpec::parse(&text) {
            let check = Workload::Stream { spec }.check();
            prop_assert!(check.is_ok(), "{text:?} parsed but fails the check: {check:?}");
        }
    }

    #[test]
    fn mutated_tournament_specs_parse_to_checked_cells_or_error(pick in any::<usize>(), ops in ops()) {
        let text = mutate(&set_value(TOURNAMENT_SPECS[pick % TOURNAMENT_SPECS.len()], pick), &ops);
        no_panic(&text, TournamentSpec::parse)?;
        if let Ok(spec) = TournamentSpec::parse(&text) {
            // Every cell the runner would execute, as the runner builds it
            // (the seed never changes the check).
            for scheme in &spec.schemes {
                for (topology, extents) in &spec.topologies {
                    let Ok(shape) = Shape::new(extents) else { continue };
                    for template in &spec.workloads {
                        let mut s = Scenario::new(extents.clone(), scheme, template.workload(shape.num_pes()), 0)
                            .with_topology(topology);
                        s.max_cycles = spec.max_cycles;
                        s.buffer_flits = spec.buffer_flits;
                        let check = s.check();
                        prop_assert!(check.is_ok(), "{text:?} parsed but a cell fails the check: {check:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mutated_slo_specs_parse_or_error(pick in any::<usize>(), ops in ops()) {
        no_panic(&mutate(SLO_SPECS[pick % SLO_SPECS.len()], &ops), SloSpec::parse)?;
    }

    #[test]
    fn unparsable_lines_echo_their_trace_tag_or_omit_it(pick in any::<usize>(), ops in ops()) {
        let seeds: Vec<&str> = REQUESTS.iter().chain(NOT_REQUESTS).copied().collect();
        let line = mutate(seeds[pick % seeds.len()], &ops);
        if serde_json::from_str::<Request>(&line).is_ok() {
            return Ok(());
        }
        // The tag a lenient parse of the line finds, if any.
        let tag = serde_json::from_str::<Value>(&line).ok().and_then(|v| {
            let (_, t) = v.as_map()?.iter().find(|(k, _)| k == "trace")?.clone();
            t.as_str().map(str::to_string)
        });
        let service = Service::new(&ServeConfig { workers: 1, ..ServeConfig::default() });
        let out = catch_unwind(AssertUnwindSafe(|| service.process_line(&line, Instant::now())));
        prop_assert!(out.is_ok(), "salvage panicked on {line:?}");
        let resp: Response = serde_json::from_str(&out.unwrap()).expect("answer parses");
        prop_assert!(resp.is_error(), "non-error answer to {line:?}");
        prop_assert!(resp.trace == tag, "salvaged {:?}, want {tag:?}, from {line:?}", resp.trace);
    }
}

#[test]
fn the_unmutated_inputs_decode() {
    for tok in pinned_tokens() {
        mdx_campaign::Scenario::from_token(&tok).expect("pinned token decodes");
    }
    for line in REQUESTS {
        serde_json::from_str::<Request>(line).expect("request parses");
    }
    for line in NOT_REQUESTS {
        assert!(serde_json::from_str::<Request>(line).is_err(), "{line}");
    }
    for row in read("crates/serve/tests/golden/rows.jsonl").lines() {
        serde_json::from_str::<ScenarioReport>(row).expect("row decodes");
    }
    TraceDoc::parse(TRACE).expect("trace parses");
    assert_eq!(parse_span_log(SPAN_LOG).expect("span log parses").len(), 3);
    let backwards = SPAN_LOG.replace(r#""end":19"#, r#""end":11"#);
    assert!(
        parse_span_log(&backwards).is_err(),
        "a span ending before it starts parsed"
    );
    for spec in STREAM_SPECS {
        StreamSpec::parse(spec).expect("stream spec parses");
    }
    for spec in TOURNAMENT_SPECS {
        TournamentSpec::parse(spec).expect("tournament spec parses");
    }
    for spec in SLO_SPECS {
        SloSpec::parse(spec).expect("SLO spec parses");
    }
}
