//! The `#[serde(...)]` attributes the derive shim honours, one case each,
//! checked through JSON text so the wire shape is what is asserted.

use serde::{Deserialize, Serialize};

fn seven() -> u32 {
    7
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Defaults {
    id: u32,
    #[serde(default)]
    tags: Vec<String>,
    #[serde(default = "seven")]
    retries: u32,
}

#[test]
fn absent_default_fields_read_as_default_or_the_path() {
    let d: Defaults = serde_json::from_str(r#"{"id":1}"#).unwrap();
    assert_eq!(
        d,
        Defaults {
            id: 1,
            tags: Vec::new(),
            retries: 7
        }
    );
    // Present values win over both kinds of default.
    let d: Defaults = serde_json::from_str(r#"{"id":1,"tags":["a"],"retries":2}"#).unwrap();
    assert_eq!(d.tags, vec!["a".to_string()]);
    assert_eq!(d.retries, 2);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Skipped {
    kept: u32,
    #[serde(skip)]
    scratch: f64,
}

#[test]
fn skip_fields_are_never_written_and_read_back_as_default() {
    let json = serde_json::to_string(&Skipped {
        kept: 3,
        scratch: 1.5,
    })
    .unwrap();
    assert_eq!(json, r#"{"kept":3}"#);
    // Even a present key is ignored on the way in.
    let back: Skipped = serde_json::from_str(r#"{"kept":3,"scratch":9.0}"#).unwrap();
    assert_eq!(
        back,
        Skipped {
            kept: 3,
            scratch: 0.0
        }
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sparse {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    force: bool,
    last: u8,
}

#[test]
fn skip_serializing_if_omits_exactly_when_the_predicate_holds() {
    let bare = Sparse {
        note: None,
        force: false,
        last: 1,
    };
    assert_eq!(serde_json::to_string(&bare).unwrap(), r#"{"last":1}"#);
    let full = Sparse {
        note: Some("n".to_string()),
        force: true,
        last: 1,
    };
    let json = serde_json::to_string(&full).unwrap();
    assert_eq!(json, r#"{"note":"n","force":true,"last":1}"#);
    let back: Sparse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, full);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Renamed {
    #[serde(rename = "traceEvents")]
    trace_events: Vec<u8>,
    level: Level,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Level {
    #[serde(rename = "low")]
    Low,
    #[serde(rename = "custom")]
    Custom(u8),
}

#[test]
fn field_and_variant_renames_round_trip() {
    let v = Renamed {
        trace_events: vec![1],
        level: Level::Low,
    };
    let json = serde_json::to_string(&v).unwrap();
    assert_eq!(json, r#"{"traceEvents":[1],"level":"low"}"#);
    assert_eq!(serde_json::from_str::<Renamed>(&json).unwrap(), v);

    let json = serde_json::to_string(&Level::Custom(4)).unwrap();
    assert_eq!(json, r#"{"custom":4}"#);
    assert_eq!(
        serde_json::from_str::<Level>(&json).unwrap(),
        Level::Custom(4)
    );
    // The Rust names are no longer on the wire.
    assert!(serde_json::from_str::<Level>(r#""Low""#).is_err());
    assert!(serde_json::from_str::<Renamed>(r#"{"trace_events":[1],"level":"low"}"#).is_err());
}

#[derive(Debug, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u8,
}

#[derive(Debug, PartialEq, Deserialize)]
struct Loose {
    a: u8,
}

#[test]
fn deny_unknown_fields_rejects_an_extra_key_a_plain_derive_ignores_it() {
    let err = serde_json::from_str::<Strict>(r#"{"a":1,"b":2}"#).unwrap_err();
    assert!(err.to_string().contains("unknown field `b`"), "{err}");
    assert_eq!(
        serde_json::from_str::<Strict>(r#"{"a":1}"#).unwrap(),
        Strict { a: 1 }
    );
    assert_eq!(
        serde_json::from_str::<Loose>(r#"{"a":1,"b":2}"#).unwrap(),
        Loose { a: 1 }
    );
}

#[test]
fn a_missing_field_without_default_still_fails() {
    let err = serde_json::from_str::<Defaults>(r#"{"tags":[]}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `id`"), "{err}");
    let err = serde_json::from_str::<Sparse>("{}").unwrap_err();
    assert!(err.to_string().contains("missing field `last`"), "{err}");
}
