//! The `Serialize` trait, the `Serializer` it drives, and impls for std
//! types.
//!
//! A `Serialize` impl feeds its value to a [`Serializer`] as a stream of
//! data-model events: scalars, and sequences and maps opened and closed
//! around their contents. Two backends consume the stream: `serde_json`'s
//! JSON writer, and the builder behind [`Serialize::to_value`], which
//! assembles a [`Value`] tree.

use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A consumer of the data model's events.
///
/// A sequence is `begin_seq`, one value per element, `end_seq`. A map is
/// `begin_map`, then `key` followed by one value per entry, then `end_map`.
/// A value is one scalar event or one whole sequence or map.
pub trait Serializer {
    /// JSON `null`: unit, `None`, and non-finite floats.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A float.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens a sequence.
    fn begin_seq(&mut self);
    /// Closes the innermost sequence.
    fn end_seq(&mut self);
    /// Opens a map.
    fn begin_map(&mut self);
    /// The key of the next map entry; its value follows.
    fn key(&mut self, k: &str);
    /// Closes the innermost map.
    fn end_map(&mut self);
}

/// Types renderable through the shim's data model.
pub trait Serialize {
    /// Feeds `self` to `s` as data-model events.
    fn serialize<S: Serializer>(&self, s: &mut S);

    /// Renders `self` as a [`Value`] tree.
    fn to_value(&self) -> Value {
        let mut b = ValueBuilder::default();
        self.serialize(&mut b);
        b.finish()
    }
}

/// The [`Serializer`] behind [`Serialize::to_value`]: assembles the events
/// into a [`Value`] tree.
#[derive(Debug, Default)]
struct ValueBuilder {
    /// Open containers, innermost last, each with the key its next value
    /// goes under when it is a map.
    open: Vec<(Value, Option<String>)>,
    done: Option<Value>,
}

impl ValueBuilder {
    /// The finished value (`Null` when no value was fed).
    fn finish(self) -> Value {
        self.done.unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            Some((Value::Seq(items), _)) => items.push(v),
            Some((Value::Map(entries), key)) => {
                entries.push((key.take().expect("a map value follows its key"), v));
            }
            _ => self.done = Some(v),
        }
    }

    fn close(&mut self) {
        let (v, _) = self.open.pop().expect("a container is open");
        self.put(v);
    }
}

impl Serializer for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }

    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }

    fn i64(&mut self, v: i64) {
        self.put(Value::I64(v));
    }

    /// `I64` when the value fits one, else `U64`.
    fn u64(&mut self, v: u64) {
        self.put(match i64::try_from(v) {
            Ok(i) => Value::I64(i),
            Err(_) => Value::U64(v),
        });
    }

    fn f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }

    fn str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }

    fn begin_seq(&mut self) {
        self.open.push((Value::Seq(Vec::new()), None));
    }

    fn end_seq(&mut self) {
        self.close();
    }

    fn begin_map(&mut self) {
        self.open.push((Value::Map(Vec::new()), None));
    }

    fn key(&mut self, k: &str) {
        let (_, key) = self.open.last_mut().expect("a map is open");
        *key = Some(k.to_string());
    }

    fn end_map(&mut self) {
        self.close();
    }
}

/// Serializes `items` as a sequence.
fn seq<'a, S: Serializer, T: Serialize + 'a>(s: &mut S, items: impl IntoIterator<Item = &'a T>) {
    s.begin_seq();
    for item in items {
        item.serialize(s);
    }
    s.end_seq();
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.bool(*self);
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.i64(*self as i64);
            }
        }
    )*};
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.u64(*self as u64);
            }
        }
    )*};
}

ser_signed!(i8, i16, i32, i64, isize);
ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self as f64);
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self);
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::I64(v) => s.i64(*v),
            Value::U64(v) => s.u64(*v),
            Value::F64(v) => s.f64(*v),
            Value::Str(v) => s.str(v),
            Value::Seq(items) => seq(s, items),
            Value::Map(entries) => {
                s.begin_map();
                for (k, v) in entries {
                    s.key(k);
                    v.serialize(s);
                }
                s.end_map();
            }
        }
    }

    /// A copy: a value already is its own tree.
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        seq(s, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        seq(s, self);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        seq(s, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        seq(s, self);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        seq(s, self);
    }
}

/// Unordered containers serialize in [`Value::canonical_cmp`] order of
/// their rendered items, so their output does not depend on hashing.
fn canonical_seq<S: Serializer>(s: &mut S, mut items: Vec<Value>) {
    items.sort_by(|a, b| a.canonical_cmp(b));
    seq(s, &items);
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        canonical_seq(s, self.iter().map(Serialize::to_value).collect());
    }
}

/// Maps serialize as a sequence of `[key, value]` pairs.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for (k, v) in self {
            s.begin_seq();
            k.serialize(s);
            v.serialize(s);
            s.end_seq();
        }
        s.end_seq();
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        canonical_seq(
            s,
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        );
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.begin_seq();
                $(self.$n.serialize(s);)+
                s.end_seq();
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.null();
    }
}
