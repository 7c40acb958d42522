//! The in-memory data model: the tree every `Deserialize` impl reads, and
//! what `Serialize::to_value` builds (the shim's analogue of
//! `serde_json::Value`).

use std::cmp::Ordering;

/// A self-describing value: the serialization data model.
///
/// Maps preserve insertion order (struct field order), which is what makes
/// serialized output canonical and replay tokens stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also unit and the non-finite float encoding).
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value does not fit an `i64`).
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered key-value map.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, coercing in-range unsigned values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, coercing non-negative signed values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The sequence, if this is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// A single-entry map viewed as an externally tagged enum variant.
    pub fn as_tagged(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Map(m) if m.len() == 1 => Some((&m[0].0, &m[0].1)),
            _ => None,
        }
    }

    /// Total order over values, used to canonicalize the serialization of
    /// unordered containers (`HashMap`, `HashSet`).
    pub fn canonical_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::I64(_) => 2,
                Value::U64(_) => 3,
                Value::F64(_) => 4,
                Value::Str(_) => 5,
                Value::Seq(_) => 6,
                Value::Map(_) => 7,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::I64(a), Value::I64(b)) => a.cmp(b),
            (Value::U64(a), Value::U64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Seq(a), Value::Seq(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.canonical_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Map(a), Value::Map(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let o = ka.cmp(kb).then_with(|| va.canonical_cmp(vb));
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}
