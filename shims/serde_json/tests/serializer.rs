//! The JSON writer against pinned bytes: every derive shape, every
//! `#[serde]` key, integer and float edge cases, and string escapes. Each
//! case is rendered four ways (compact and pretty, straight from the value
//! and through `to_value`'s tree), and all four must match the literals.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

fn check<T: Serialize + ?Sized>(v: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(v).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(v).unwrap(), pretty);
    let tree = serde_json::to_value(v).unwrap();
    assert_eq!(
        serde_json::to_string(&tree).unwrap(),
        compact,
        "via to_value"
    );
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        pretty,
        "via to_value"
    );
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(i64, String);

fn is_zero(v: &u64) -> bool {
    *v == 0
}

fn seven() -> u8 {
    7
}

#[derive(Serialize, Deserialize)]
struct Named {
    plain: u8,
    #[serde(rename = "renamed")]
    original: bool,
    #[serde(skip)]
    hidden: u32,
    #[serde(skip_serializing_if = "is_zero")]
    maybe: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    opt: Option<String>,
    #[serde(default)]
    defaulted: Vec<u16>,
    #[serde(default = "seven")]
    path_default: u8,
}

#[derive(Serialize)]
struct AllSkipped {
    #[serde(skip)]
    _a: u8,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    b: Vec<u8>,
}

#[derive(Serialize)]
enum Variants {
    Unit,
    #[serde(rename = "renamed-unit")]
    Renamed,
    Newtype(f64),
    Tuple(u8, i8),
    Struct {
        a: u16,
        #[serde(skip_serializing_if = "Vec::is_empty")]
        b: Vec<u32>,
        #[serde(rename = "c!")]
        c: Option<Unit>,
    },
}

#[derive(Serialize)]
struct Outer {
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    named: Vec<Named>,
    variants: Vec<Variants>,
    empty_seq: Vec<u8>,
    empty_map: AllSkipped,
    nested: Vec<Vec<u8>>,
}

fn named_full() -> Named {
    Named {
        plain: 1,
        original: true,
        hidden: 9,
        maybe: 5,
        opt: Some("o".into()),
        defaulted: vec![1, 2],
        path_default: 3,
    }
}

fn named_skip() -> Named {
    Named {
        plain: 0,
        original: false,
        hidden: 9,
        maybe: 0,
        opt: None,
        defaulted: vec![],
        path_default: 7,
    }
}

fn variants() -> Vec<Variants> {
    vec![
        Variants::Unit,
        Variants::Renamed,
        Variants::Newtype(-0.5),
        Variants::Tuple(255, -128),
        Variants::Struct {
            a: 1,
            b: vec![],
            c: None,
        },
        Variants::Struct {
            a: 2,
            b: vec![3, 4],
            c: Some(Unit),
        },
    ]
}

#[test]
fn integers() {
    check(&i64::MIN, "-9223372036854775808", "-9223372036854775808");
    check(&i64::MAX, "9223372036854775807", "9223372036854775807");
    check(&u64::MAX, "18446744073709551615", "18446744073709551615");
    check(
        &(0u8, -1i8, 65535u16, -32768i16),
        "[0,-1,65535,-32768]",
        "[\n  0,\n  -1,\n  65535,\n  -32768\n]",
    );
    check(
        &(u32::MAX, i32::MIN, usize::MAX, isize::MIN),
        "[4294967295,-2147483648,18446744073709551615,-9223372036854775808]",
        "[\n  4294967295,\n  -2147483648,\n  18446744073709551615,\n  -9223372036854775808\n]",
    );
}

#[test]
fn floats() {
    check(&-0.0f64, "-0.0", "-0.0");
    check(&1e15f64, "1000000000000000", "1000000000000000");
    check(&-1e15f64, "-1000000000000000", "-1000000000000000");
    check(
        &999_999_999_999_999.0f64,
        "999999999999999.0",
        "999999999999999.0",
    );
    check(&1e-7f64, "0.0000001", "0.0000001");
    check(&f64::NAN, "null", "null");
    check(
        &(f64::INFINITY, f64::NEG_INFINITY),
        "[null,null]",
        "[\n  null,\n  null\n]",
    );
    check(
        &vec![0.1f64, 1.5, 2.0, -3.25, 1e300, 5e-324, 123456.789],
        "[0.1,1.5,2.0,-3.25,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,123456.789]",
        "[\n  0.1,\n  1.5,\n  2.0,\n  -3.25,\n  1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n  0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,\n  123456.789\n]",
    );
    check(
        &(0.1f32, 2.5f32, f32::MAX),
        "[0.10000000149011612,2.5,340282346638528860000000000000000000000]",
        "[\n  0.10000000149011612,\n  2.5,\n  340282346638528860000000000000000000000\n]",
    );
}

#[test]
fn strings() {
    check(
        &vec![
            "plain".to_string(),
            "quote \" backslash \\ slash /".to_string(),
            "nl \n cr \r tab \t bs \u{8} ff \u{c}".to_string(),
            "ctrl \u{1} \u{1f} del \u{7f} nul \u{0}".to_string(),
            "unicode é 😀 \u{2028}".to_string(),
            String::new(),
        ],
        "[\"plain\",\"quote \\\" backslash \\\\ slash /\",\"nl \\n cr \\r tab \\t bs \\b ff \\f\",\"ctrl \\u0001 \\u001f del \u{7f} nul \\u0000\",\"unicode é 😀 \u{2028}\",\"\"]",
        "[\n  \"plain\",\n  \"quote \\\" backslash \\\\ slash /\",\n  \"nl \\n cr \\r tab \\t bs \\b ff \\f\",\n  \"ctrl \\u0001 \\u001f del \u{7f} nul \\u0000\",\n  \"unicode é 😀 \u{2028}\",\n  \"\"\n]",
    );
    check(
        &('a', '"', '\n'),
        "[\"a\",\"\\\"\",\"\\n\"]",
        "[\n  \"a\",\n  \"\\\"\",\n  \"\\n\"\n]",
    );
}

#[test]
fn scalars_and_options() {
    check(
        &(true, false, ()),
        "[true,false,null]",
        "[\n  true,\n  false,\n  null\n]",
    );
    check(
        &(Some(3u8), None::<u8>, Some(None::<u8>)),
        "[3,null,null]",
        "[\n  3,\n  null,\n  null\n]",
    );
}

#[test]
fn struct_shapes() {
    check(&Unit, "null", "null");
    check(&Newtype(42), "42", "42");
    check(
        &Pair(-5, "x\"y".into()),
        "[-5,\"x\\\"y\"]",
        "[\n  -5,\n  \"x\\\"y\"\n]",
    );
    check(
        &named_full(),
        "{\"plain\":1,\"renamed\":true,\"maybe\":5,\"opt\":\"o\",\"defaulted\":[1,2],\"path_default\":3}",
        "{\n  \"plain\": 1,\n  \"renamed\": true,\n  \"maybe\": 5,\n  \"opt\": \"o\",\n  \"defaulted\": [\n    1,\n    2\n  ],\n  \"path_default\": 3\n}",
    );
    check(
        &named_skip(),
        "{\"plain\":0,\"renamed\":false,\"defaulted\":[],\"path_default\":7}",
        "{\n  \"plain\": 0,\n  \"renamed\": false,\n  \"defaulted\": [],\n  \"path_default\": 7\n}",
    );
    check(&AllSkipped { _a: 1, b: vec![] }, "{}", "{}");
    check(
        &AllSkipped { _a: 1, b: vec![4] },
        "{\"b\":[4]}",
        "{\n  \"b\": [\n    4\n  ]\n}",
    );
}

#[test]
fn enum_shapes() {
    check(
        &variants(),
        "[\"Unit\",\"renamed-unit\",{\"Newtype\":-0.5},{\"Tuple\":[255,-128]},{\"Struct\":{\"a\":1,\"c!\":null}},{\"Struct\":{\"a\":2,\"b\":[3,4],\"c!\":null}}]",
        "[\n  \"Unit\",\n  \"renamed-unit\",\n  {\n    \"Newtype\": -0.5\n  },\n  {\n    \"Tuple\": [\n      255,\n      -128\n    ]\n  },\n  {\n    \"Struct\": {\n      \"a\": 1,\n      \"c!\": null\n    }\n  },\n  {\n    \"Struct\": {\n      \"a\": 2,\n      \"b\": [\n        3,\n        4\n      ],\n      \"c!\": null\n    }\n  }\n]",
    );
}

#[test]
fn nesting() {
    check(
        &Outer {
            unit: Unit,
            newtype: Newtype(0),
            pair: Pair(i64::MIN, String::new()),
            named: vec![named_full(), named_skip()],
            variants: variants(),
            empty_seq: vec![],
            empty_map: AllSkipped { _a: 0, b: vec![] },
            nested: vec![vec![], vec![1], vec![2, 3]],
        },
        "{\"unit\":null,\"newtype\":0,\"pair\":[-9223372036854775808,\"\"],\"named\":[{\"plain\":1,\"renamed\":true,\"maybe\":5,\"opt\":\"o\",\"defaulted\":[1,2],\"path_default\":3},{\"plain\":0,\"renamed\":false,\"defaulted\":[],\"path_default\":7}],\"variants\":[\"Unit\",\"renamed-unit\",{\"Newtype\":-0.5},{\"Tuple\":[255,-128]},{\"Struct\":{\"a\":1,\"c!\":null}},{\"Struct\":{\"a\":2,\"b\":[3,4],\"c!\":null}}],\"empty_seq\":[],\"empty_map\":{},\"nested\":[[],[1],[2,3]]}",
        "{\n  \"unit\": null,\n  \"newtype\": 0,\n  \"pair\": [\n    -9223372036854775808,\n    \"\"\n  ],\n  \"named\": [\n    {\n      \"plain\": 1,\n      \"renamed\": true,\n      \"maybe\": 5,\n      \"opt\": \"o\",\n      \"defaulted\": [\n        1,\n        2\n      ],\n      \"path_default\": 3\n    },\n    {\n      \"plain\": 0,\n      \"renamed\": false,\n      \"defaulted\": [],\n      \"path_default\": 7\n    }\n  ],\n  \"variants\": [\n    \"Unit\",\n    \"renamed-unit\",\n    {\n      \"Newtype\": -0.5\n    },\n    {\n      \"Tuple\": [\n        255,\n        -128\n      ]\n    },\n    {\n      \"Struct\": {\n        \"a\": 1,\n        \"c!\": null\n      }\n    },\n    {\n      \"Struct\": {\n        \"a\": 2,\n        \"b\": [\n          3,\n          4\n        ],\n        \"c!\": null\n      }\n    }\n  ],\n  \"empty_seq\": [],\n  \"empty_map\": {},\n  \"nested\": [\n    [],\n    [\n      1\n    ],\n    [\n      2,\n      3\n    ]\n  ]\n}",
    );
}

#[test]
fn std_containers() {
    let mut bm = BTreeMap::new();
    bm.insert("b".to_string(), vec![1u8]);
    bm.insert("a".to_string(), vec![]);
    check(
        &bm,
        "[[\"a\",[]],[\"b\",[1]]]",
        "[\n  [\n    \"a\",\n    []\n  ],\n  [\n    \"b\",\n    [\n      1\n    ]\n  ]\n]",
    );
    check(
        &[3u8, 1, 2].into_iter().collect::<BTreeSet<u8>>(),
        "[1,2,3]",
        "[\n  1,\n  2,\n  3\n]",
    );
    let hm: HashMap<String, i32> = [("z", 1), ("a", -1), ("m", 0)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    check(
        &hm,
        "[[\"a\",-1],[\"m\",0],[\"z\",1]]",
        "[\n  [\n    \"a\",\n    -1\n  ],\n  [\n    \"m\",\n    0\n  ],\n  [\n    \"z\",\n    1\n  ]\n]",
    );
    check(
        &[10u64, u64::MAX, 0, 7]
            .into_iter()
            .collect::<HashSet<u64>>(),
        "[0,7,10,18446744073709551615]",
        "[\n  0,\n  7,\n  10,\n  18446744073709551615\n]",
    );
    check(
        &[1u8, 2].into_iter().collect::<VecDeque<u8>>(),
        "[1,2]",
        "[\n  1,\n  2\n]",
    );
    check(
        &[[1u8, 2], [3, 4]],
        "[[1,2],[3,4]]",
        "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    4\n  ]\n]",
    );
    check(&[Some(1i64), None][..], "[1,null]", "[\n  1,\n  null\n]");
    check(&Box::new(Newtype(1)), "1", "1");
}

#[test]
fn value_trees() {
    check(
        &serde_json::Value::Map(vec![
            ("k".into(), serde_json::Value::Seq(vec![])),
            ("u".into(), serde_json::Value::U64(u64::MAX)),
            ("f".into(), serde_json::Value::F64(3.0)),
        ]),
        "{\"k\":[],\"u\":18446744073709551615,\"f\":3.0}",
        "{\n  \"k\": [],\n  \"u\": 18446744073709551615,\n  \"f\": 3.0\n}",
    );
}

#[test]
fn defaults_fill_missing_fields() {
    let n: Named =
        serde_json::from_str(r#"{"plain":1,"renamed":true,"maybe":0,"opt":null}"#).unwrap();
    assert_eq!(n.hidden, 0);
    assert_eq!(n.opt, None);
    assert!(n.defaulted.is_empty());
    assert_eq!(n.path_default, 7);
}
