//! Decoder robustness: char-level mutations and truncations of valid wire
//! inputs must decode to `Ok` or a typed `Err`, never panic.
//!
//! Covered decoders: `Scenario::from_token` (on the pinned `token_compat`
//! tokens, mutated both as token text and as decoded JSON payload), the
//! serve `Request` line, campaign `ScenarioReport` rows, `TrajectoryFile`
//! documents, and `TraceDoc::parse`. A mutated request line that does not
//! parse must still get exactly one `error` response line from
//! `Service::process_line`. Every case only parses — nothing simulates —
//! so the run time stays bounded.

use mdx_bench::TrajectoryFile;
use mdx_campaign::{token, ScenarioReport};
use mdx_obs::TraceDoc;
use mdx_serve::{Request, ServeConfig, Service};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Characters the mutator inserts: JSON structure, escapes, number and
/// literal fragments, base64url letters, whitespace, and multi-byte text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ',', ':', '\\', '0', '9', '-', '.', 'e', 'E', 'a', 'n', 't', 'u', 'l',
    '_', 'A', 'z', ' ', '\n', '\u{0}', 'é', '🦀',
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
    fn mutated_trajectory_files_decode_or_error(ops in ops()) {
        let doc = read("BENCH_fig9.json");
        no_panic(&mutate(&doc, &ops), serde_json::from_str::<TrajectoryFile>)?;
    }

    #[test]
    fn mutated_traces_parse_or_error(ops in ops()) {
        no_panic(&mutate(TRACE, &ops), TraceDoc::parse)?;
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
    for row in read("crates/serve/tests/golden/rows.jsonl").lines() {
        serde_json::from_str::<ScenarioReport>(row).expect("row decodes");
    }
    serde_json::from_str::<TrajectoryFile>(&read("BENCH_fig9.json")).expect("fig9 decodes");
    TraceDoc::parse(TRACE).expect("trace parses");
}
