//! Offline shim for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! proc macros implemented directly over `proc_macro::TokenStream` (the
//! environment has no `syn`/`quote`).
//!
//! Supported input shapes — exactly what this workspace uses:
//! structs with named fields, tuple structs, unit structs, and enums with
//! unit / tuple / struct variants (explicit discriminants are skipped).
//! Not supported: generics, lifetimes.
//!
//! Supported `#[serde(...)]` attributes, with real serde's meaning:
//!
//! - container: `deny_unknown_fields` (structs only);
//! - named field: `default`, `default = "path"`, `skip`,
//!   `skip_serializing_if = "path"`, `rename = "name"`;
//! - variant: `rename = "name"`.
//!
//! Any other key is a compile-time panic naming it, so no attribute is
//! silently ignored.
//!
//! Generated code targets the `serde` shim's traits: `Serialize::serialize`
//! feeds the value to a `Serializer` as events (the one method a derived
//! `Serialize` defines), and `Deserialize::from_value` reads it back out of
//! a `Value` tree.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// One `#[serde(...)]` entry: a key and its string value, if any.
type Attr = (String, Option<String>);

/// A named field and its `#[serde(...)]` options.
#[derive(Debug)]
struct Field {
    name: String,
    /// The key on the wire (`rename`, else the field name).
    key: String,
    /// `None`: required; `Some(None)`: `Default::default()`;
    /// `Some(Some(path))`: `path()`.
    default: Option<Option<String>>,
    skip: bool,
    skip_serializing_if: Option<String>,
}

#[derive(Debug)]
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// The tag on the wire (`rename`, else the variant name).
    tag: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        deny_unknown_fields: bool,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// The text inside a plain string literal token.
fn string_lit(tok: Option<TokenTree>, key: &str) -> String {
    let lit = match tok {
        Some(TokenTree::Literal(l)) => l.to_string(),
        other => panic!("serde derive shim: `{key}` needs a string value, found {other:?}"),
    };
    match lit.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        Some(s) => s.to_string(),
        None => panic!("serde derive shim: `{key}` needs a plain string literal, found {lit}"),
    }
}

/// Parses the inside of `serde(...)`: `key` or `key = "value"`, comma
/// separated.
fn parse_serde_args(ts: TokenStream, out: &mut Vec<Attr>) {
    let mut it = ts.into_iter().peekable();
    while let Some(tok) = it.next() {
        let key = match tok {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde derive shim: expected an attribute key, found {other}"),
        };
        let value = match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                it.next();
                Some(string_lit(it.next(), &key))
            }
            _ => None,
        };
        match it.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => panic!("serde derive shim: expected `,` after `{key}`, found {other}"),
        }
        out.push((key, value));
    }
}

/// Consumes the outer attributes in front of an item, field, or variant,
/// returning the `#[serde(...)]` entries and skipping every other
/// attribute (doc comments, lints, other derives' helpers).
fn parse_attributes(it: &mut Tokens) -> Vec<Attr> {
    let mut attrs = Vec::new();
    while let Some(TokenTree::Punct(p)) = it.peek() {
        if p.as_char() != '#' {
            break;
        }
        it.next();
        let body = match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g.stream(),
            other => panic!("serde derive shim: malformed attribute near {other:?}"),
        };
        let mut inner = body.into_iter();
        if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) =
            (inner.next(), inner.next())
        {
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis {
                parse_serde_args(g.stream(), &mut attrs);
            }
        }
    }
    attrs
}

/// Panics on the first attribute key outside `allowed`, naming it.
fn check_keys(attrs: &[Attr], allowed: &[&str], on: &str) {
    for (key, _) in attrs {
        if !allowed.contains(&key.as_str()) {
            panic!("serde derive shim: unsupported attribute `#[serde({key})]` on {on}");
        }
    }
}

/// The value of a key that requires one (`rename = "..."`).
fn value_of(attrs: &[Attr], key: &str) -> Option<String> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
        Some(v) => v.clone(),
        None => panic!("serde derive shim: `{key}` needs a string value"),
    })
}

fn skip_visibility(it: &mut Tokens) {
    if let Some(TokenTree::Ident(id)) = it.peek() {
        if id.to_string() == "pub" {
            it.next();
            if let Some(TokenTree::Group(g)) = it.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    it.next();
                }
            }
        }
    }
}

fn expect_ident(it: &mut Tokens, what: &str) -> String {
    match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive shim: expected {what}, found {other:?}"),
    }
}

/// Consumes tokens up to (and including) the next comma at angle-bracket
/// depth zero. Returns `false` when the stream ended instead.
fn skip_to_toplevel_comma(it: &mut Tokens) -> bool {
    let mut depth = 0usize;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
    }
    false
}

fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        let attrs = parse_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        skip_visibility(&mut it);
        let name = expect_ident(&mut it, "field name");
        check_keys(
            &attrs,
            &["default", "skip", "skip_serializing_if", "rename"],
            &format!("field `{name}`"),
        );
        fields.push(Field {
            key: value_of(&attrs, "rename").unwrap_or_else(|| name.clone()),
            default: attrs
                .iter()
                .find(|(k, _)| k == "default")
                .map(|(_, v)| v.clone()),
            skip: attrs.iter().any(|(k, _)| k == "skip"),
            skip_serializing_if: value_of(&attrs, "skip_serializing_if"),
            name,
        });
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde derive shim: expected `:` after field, found {other:?}"),
        }
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    fields
}

fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut it = ts.into_iter().peekable();
    let mut count = 0usize;
    loop {
        let attrs = parse_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        check_keys(&attrs, &[], "a tuple field");
        count += 1;
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        let attrs = parse_attributes(&mut it);
        if it.peek().is_none() {
            break;
        }
        let name = expect_ident(&mut it, "variant name");
        check_keys(&attrs, &["rename"], &format!("variant `{name}`"));
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                it.next();
                Fields::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                it.next();
                Fields::Named(parse_named_fields(g))
            }
            _ => Fields::Unit,
        };
        variants.push(Variant {
            tag: value_of(&attrs, "rename").unwrap_or_else(|| name.clone()),
            name,
            fields,
        });
        // Skips any `= discriminant` and the trailing comma.
        if !skip_to_toplevel_comma(&mut it) {
            break;
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let mut attrs = Vec::new();
    loop {
        attrs.extend(parse_attributes(&mut it));
        skip_visibility(&mut it);
        match it.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(&mut it, "struct name");
                check_keys(
                    &attrs,
                    &["deny_unknown_fields"],
                    &format!("struct `{name}`"),
                );
                let deny_unknown_fields = attrs.iter().any(|(k, _)| k == "deny_unknown_fields");
                let fields = match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Fields::Named(parse_named_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Fields::Tuple(count_tuple_fields(g.stream()))
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                    other => panic!(
                        "serde derive shim: unsupported struct body for `{name}` \
                         (generics are not supported): {other:?}"
                    ),
                };
                return Item::Struct {
                    name,
                    deny_unknown_fields,
                    fields,
                };
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(&mut it, "enum name");
                check_keys(&attrs, &[], &format!("enum `{name}`"));
                return match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                        name,
                        variants: parse_variants(g.stream()),
                    },
                    other => panic!(
                        "serde derive shim: unsupported enum body for `{name}` \
                         (generics are not supported): {other:?}"
                    ),
                };
            }
            Some(TokenTree::Ident(_)) => continue, // e.g. `union` would fall through below
            other => panic!("serde derive shim: expected struct or enum, found {other:?}"),
        }
    }
}

fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(s); // identifiers and attribute literals are already escaped
    out.push('"');
}

/// `::serde::ser::Serializer::{method}(__s{args})`.
fn call(method: &str, args: &str) -> String {
    format!("::serde::ser::Serializer::{method}(__s{args});")
}

/// `::serde::Serialize::serialize({val}, __s);`
fn ser(val: &str) -> String {
    format!("::serde::Serialize::serialize({val}, __s);")
}

/// The map key `k`.
fn key(k: &str) -> String {
    let mut lit = String::new();
    push_str_lit(&mut lit, k);
    call("key", &format!(", {lit}"))
}

/// A map of the written fields. `access(f)` is an expression of type
/// `&FieldType` for field `f`.
fn gen_named_map(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut b = call("begin_map", "");
    for f in fields.iter().filter(|f| !f.skip) {
        let val = access(&f.name);
        let entry = format!("{}{}", key(&f.key), ser(&val));
        match &f.skip_serializing_if {
            Some(pred) => b.push_str(&format!("if !{pred}({val}) {{ {entry} }}")),
            None => b.push_str(&entry),
        }
    }
    b.push_str(&call("end_map", ""));
    b
}

/// A sequence of the given element expressions.
fn gen_seq(vals: &[String]) -> String {
    let mut b = call("begin_seq", "");
    for v in vals {
        b.push_str(&ser(v));
    }
    b.push_str(&call("end_seq", ""));
    b
}

/// An externally tagged variant: a one-entry map from `tag` to `inner`.
fn gen_tagged(tag: &str, inner: &str) -> String {
    format!(
        "{}{}{inner}{}",
        call("begin_map", ""),
        key(tag),
        call("end_map", "")
    )
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields, .. } => {
            let body = match fields {
                Fields::Unit => call("null", ""),
                Fields::Tuple(1) => ser("&self.0"),
                Fields::Tuple(n) => {
                    gen_seq(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
                }
                Fields::Named(fields) => gen_named_map(fields, |f| format!("&self.{f}")),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut b = String::from("match self {");
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        let mut tag = String::new();
                        push_str_lit(&mut tag, &v.tag);
                        b.push_str(&format!(
                            "{name}::{vn} => {{ {} }}",
                            call("str", &format!(", {tag}"))
                        ));
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let inner = if *n == 1 {
                            ser("__f0")
                        } else {
                            gen_seq(&binds)
                        };
                        b.push_str(&format!(
                            "{name}::{vn}({}) => {{ {} }}",
                            binds.join(","),
                            gen_tagged(&v.tag, &inner)
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let inner = gen_named_map(fields, str::to_string);
                        b.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{ {} }}",
                            binds.join(","),
                            gen_tagged(&v.tag, &inner)
                        ));
                    }
                }
            }
            b.push('}');
            (name, b)
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl ::serde::Serialize for {name} {{ \
           fn serialize<__S: ::serde::ser::Serializer>(&self, __s: &mut __S) {{ {body} }} \
         }}"
    )
}

fn gen_tuple_from_seq(path: &str, n: usize, seq_expr: &str) -> String {
    let mut b = format!(
        "{{ let __s = {seq_expr}.as_seq().ok_or_else(|| \
           ::serde::de::Error::expected(\"sequence for {path}\"))?; \
         if __s.len() != {n} {{ \
           return ::core::result::Result::Err(::serde::de::Error::custom(format!( \
             \"expected {n} elements for {path}, got {{}}\", __s.len()))); }} \
         ::core::result::Result::Ok({path}("
    );
    for i in 0..n {
        b.push_str(&format!("::serde::Deserialize::from_value(&__s[{i}])?,"));
    }
    b.push_str(")) }");
    b
}

fn gen_named_from_map(path: &str, fields: &[Field], deny_unknown: bool, map_expr: &str) -> String {
    let mut b = format!(
        "{{ let __m = {map_expr}.as_map().ok_or_else(|| \
           ::serde::de::Error::expected(\"map for {path}\"))?;"
    );
    if deny_unknown {
        b.push_str(&format!(
            "::serde::de::deny_unknown_fields(__m, \"{path}\", &["
        ));
        for f in fields.iter().filter(|f| !f.skip) {
            push_str_lit(&mut b, &f.key);
            b.push(',');
        }
        b.push_str("])?;");
    }
    b.push_str(&format!("::core::result::Result::Ok({path} {{"));
    for f in fields {
        let name = &f.name;
        let fallback = match &f.default {
            Some(Some(func)) => format!("{func}()"),
            _ => "::core::default::Default::default()".to_string(),
        };
        if f.skip {
            b.push_str(&format!("{name}: {fallback},"));
            continue;
        }
        let mut key = String::new();
        push_str_lit(&mut key, &f.key);
        if f.default.is_some() {
            b.push_str(&format!(
                "{name}: match ::serde::de::lookup(__m, {key}) {{ \
                   ::core::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?, \
                   ::core::option::Option::None => {fallback} }},"
            ));
        } else {
            b.push_str(&format!(
                "{name}: ::serde::Deserialize::from_value(::serde::de::field(__m, {key})?)?,"
            ));
        }
    }
    b.push_str("}) }");
    b
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct {
            name,
            deny_unknown_fields,
            fields,
        } => {
            let body = match fields {
                Fields::Unit => format!("::core::result::Result::Ok({name})"),
                Fields::Tuple(1) => format!(
                    "::core::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                ),
                Fields::Tuple(n) => gen_tuple_from_seq(name, *n, "__v"),
                Fields::Named(fields) => {
                    gen_named_from_map(name, fields, *deny_unknown_fields, "__v")
                }
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut b = String::from(
                "if let ::core::option::Option::Some(__s) = __v.as_str() { return match __s {",
            );
            for v in variants {
                if matches!(v.fields, Fields::Unit) {
                    push_str_lit(&mut b, &v.tag);
                    b.push_str(&format!(
                        " => ::core::result::Result::Ok({name}::{}),",
                        v.name
                    ));
                }
            }
            b.push_str(&format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::custom(format!( \
                   \"unknown variant `{{}}` of {name}\", __s))), }}; }}"
            ));
            b.push_str(
                "if let ::core::option::Option::Some((__tag, __inner)) = __v.as_tagged() { \
                 return match __tag {",
            );
            for v in variants {
                let path = format!("{name}::{}", v.name);
                match &v.fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => {
                        push_str_lit(&mut b, &v.tag);
                        b.push_str(&format!(
                            " => ::core::result::Result::Ok({path}( \
                               ::serde::Deserialize::from_value(__inner)?)),"
                        ));
                    }
                    Fields::Tuple(n) => {
                        push_str_lit(&mut b, &v.tag);
                        b.push_str(" => ");
                        b.push_str(&gen_tuple_from_seq(&path, *n, "__inner"));
                        b.push(',');
                    }
                    Fields::Named(fields) => {
                        push_str_lit(&mut b, &v.tag);
                        b.push_str(" => ");
                        b.push_str(&gen_named_from_map(&path, fields, false, "__inner"));
                        b.push(',');
                    }
                }
            }
            b.push_str(&format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::custom(format!( \
                   \"unknown variant `{{}}` of {name}\", __tag))), }}; }}"
            ));
            b.push_str(&format!(
                "::core::result::Result::Err(::serde::de::Error::expected(\"enum {name}\"))"
            ));
            (name, b)
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused, clippy::all)] \
         impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: &::serde::value::Value) \
             -> ::core::result::Result<Self, ::serde::de::Error> {{ {body} }} \
         }}"
    )
}

/// Derives the shim's `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde derive shim: generated Serialize impl failed to parse")
}

/// Derives the shim's `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde derive shim: generated Deserialize impl failed to parse")
}
