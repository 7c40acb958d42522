//! Offline shim for the `serde_json` crate. Serialization writes JSON
//! straight from the `serde` shim's event stream into any [`fmt::Write`]
//! ([`Serializer`]); no [`Value`] tree is built unless [`to_value`] asks for
//! one. Parsing reads text into a [`Value`], which `Deserialize` then takes
//! apart. See `shims/README.md`.
//!
//! Encoding notes (self-consistent, shared with the real crate where it
//! matters): maps keep insertion order, non-finite floats render as `null`,
//! integral floats below 1e15 render with a trailing `.0` so they parse back
//! as floats.

use serde::{Deserialize, Serialize};
use std::fmt;

pub use serde::value::Value;

/// JSON serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Renders any serializable value into the data model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut ser = Serializer::new(String::new());
    value.serialize(&mut ser);
    ser.into_inner()
}

/// Serializes to human-readable JSON (two-space indentation).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut ser = Serializer::pretty(String::new());
    value.serialize(&mut ser);
    ser.into_inner()
}

/// Deserializes any value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v).map_err(|e| Error::new(e.to_string()))
}

/// Spaces for pretty indentation, written a slice at a time.
const SPACES: &str = "                                ";

/// The JSON backend of [`serde::Serializer`]: writes compact or pretty JSON
/// into any [`fmt::Write`] as the events arrive.
///
/// ```
/// use serde::Serialize;
/// let mut ser = serde_json::Serializer::new(String::new());
/// vec![1u8, 2].serialize(&mut ser);
/// assert_eq!(ser.into_inner().unwrap(), "[1,2]");
/// ```
#[derive(Debug)]
pub struct Serializer<W> {
    out: W,
    pretty: bool,
    /// Containers open around the next value.
    depth: usize,
    /// No value has been written in the innermost container yet.
    first: bool,
    /// The next value belongs to the map key just written.
    after_key: bool,
    /// The first write error, if any; later writes are skipped.
    result: fmt::Result,
}

impl<W: fmt::Write> Serializer<W> {
    /// A compact-JSON writer into `out`.
    pub fn new(out: W) -> Serializer<W> {
        Serializer {
            out,
            pretty: false,
            depth: 0,
            first: true,
            after_key: false,
            result: Ok(()),
        }
    }

    /// A pretty-JSON writer (two-space indentation) into `out`.
    pub fn pretty(out: W) -> Serializer<W> {
        Serializer {
            pretty: true,
            ..Serializer::new(out)
        }
    }

    /// The writer, or the error that a write into it returned.
    pub fn into_inner(self) -> Result<W, Error> {
        self.result
            .map(|()| self.out)
            .map_err(|_| Error::new("writing JSON failed"))
    }

    fn put(&mut self, s: &str) {
        if self.result.is_ok() {
            self.result = self.out.write_str(s);
        }
    }

    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.result.is_ok() {
            self.result = self.out.write_fmt(args);
        }
    }

    /// A line break and indentation to `level`, in pretty mode only.
    fn newline(&mut self, level: usize) {
        if self.pretty {
            self.put("\n");
            let mut left = 2 * level;
            while left > 0 {
                let n = left.min(SPACES.len());
                self.put(&SPACES[..n]);
                left -= n;
            }
        }
    }

    /// Writes what precedes a value: nothing after a map key or at the top
    /// level, else the separator and indentation of a sequence element.
    fn value_start(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.put(",");
            }
            self.first = false;
            self.newline(self.depth);
        }
    }

    fn open(&mut self, bracket: &str) {
        self.value_start();
        self.put(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: &str) {
        self.depth -= 1;
        if !self.first {
            self.newline(self.depth);
        }
        self.put(bracket);
        self.first = false;
    }

    /// Decimal digits of `v`, with a leading `-` when `negative`.
    fn put_integer(&mut self, mut v: u64, negative: bool) {
        let mut buf = [0u8; 21];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if negative {
            at -= 1;
            buf[at] = b'-';
        }
        self.put(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }

    fn put_escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.put("\"");
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0C => "\\f",
                0..=0x1F => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `run..i` ends on a char
            // boundary.
            self.put(&s[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let hex = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 0xF) as usize],
                ];
                self.put(std::str::from_utf8(&hex).expect("ASCII escape"));
            } else {
                self.put(escape);
            }
        }
        self.put(&s[run..]);
        self.put("\"");
    }
}

impl<W: fmt::Write> serde::Serializer for Serializer<W> {
    fn null(&mut self) {
        self.value_start();
        self.put("null");
    }

    fn bool(&mut self, v: bool) {
        self.value_start();
        self.put(if v { "true" } else { "false" });
    }

    fn i64(&mut self, v: i64) {
        self.value_start();
        self.put_integer(v.unsigned_abs(), v < 0);
    }

    fn u64(&mut self, v: u64) {
        self.value_start();
        self.put_integer(v, false);
    }

    fn f64(&mut self, v: f64) {
        self.value_start();
        if !v.is_finite() {
            self.put("null");
        } else if v == v.trunc() && v.abs() < 1e15 {
            self.put_fmt(format_args!("{v:.1}"));
        } else {
            self.put_fmt(format_args!("{v}"));
        }
    }

    fn str(&mut self, v: &str) {
        self.value_start();
        self.put_escaped(v);
    }

    fn begin_seq(&mut self) {
        self.open("[");
    }

    fn end_seq(&mut self) {
        self.close("]");
    }

    fn begin_map(&mut self) {
        self.open("{");
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.put(",");
        }
        self.first = false;
        self.newline(self.depth);
        self.put_escaped(k);
        self.put(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    fn end_map(&mut self) {
        self.close("}");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{08}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{0C}');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Only a low surrogate completes the pair.
                                let lo = if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    self.hex4()?
                                } else {
                                    0
                                };
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00)
                            } else {
                                hi as u32
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        let v: f64 = from_str("2.0").unwrap();
        assert_eq!(v, 2.0);
        let n: i64 = from_str("-99").unwrap();
        assert_eq!(n, -99);
    }

    #[test]
    fn roundtrip_containers() {
        let xs = vec![(1usize, 2u64), (3, 4)];
        let json = to_string(&xs).unwrap();
        assert_eq!(json, "[[1,2],[3,4]]");
        let back: Vec<(usize, u64)> = from_str(&json).unwrap();
        assert_eq!(back, xs);
        let opt: Option<u32> = from_str("null").unwrap();
        assert_eq!(opt, None);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::I64(1)),
            ("b".to_string(), Value::Seq(vec![Value::Bool(false)])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": [\n    false\n  ]\n}");
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_escapes() {
        let s: String = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn high_surrogate_needs_a_low_one() {
        for text in [
            "\"\\ud800\\u0041\"",
            "\"\\ud800\\ud800\"",
            "\"\\udbff\\ue000\"",
            "\"\\ud800x\"",
            "\"\\ud800\\n\"",
            "\"\\ud800\"",
        ] {
            let err = from_str::<String>(text).unwrap_err();
            assert_eq!(err.to_string(), "unpaired surrogate", "{text}");
        }
        let s: String = from_str("\"\\udbff\\udfff\"").unwrap();
        assert_eq!(s, "\u{10FFFF}");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }
}
