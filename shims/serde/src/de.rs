//! The `Deserialize` trait, its error type, its impls for std types, and
//! the helpers the derive macro's generated code calls.

use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An arbitrary-message error.
    pub fn custom(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }

    /// "Expected X" error.
    pub fn expected(what: &str) -> Error {
        Error {
            msg: format!("expected {what}"),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Looks up a struct field in deserialized map entries (derive helper
/// for `#[serde(default)]` fields).
pub fn lookup<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Looks up a required struct field in deserialized map entries (derive
/// helper).
pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    lookup(entries, name).ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

/// Errors on the first key outside `known` (derive helper for
/// `#[serde(deny_unknown_fields)]`).
pub fn deny_unknown_fields(
    entries: &[(String, Value)],
    what: &str,
    known: &[&str],
) -> Result<(), Error> {
    match entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(Error::custom(format!("unknown field `{k}` of {what}"))),
        None => Ok(()),
    }
}

/// Types reconstructible from the shim's data model.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        v.as_bool().ok_or_else(|| Error::expected("bool"))
    }
}

macro_rules! de_int {
    ($($t:ty: $via:ident),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let raw = v.$via().ok_or_else(|| Error::expected(stringify!($t)))?;
                <$t>::try_from(raw).map_err(|_| Error::custom(format!(
                    "{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

de_int!(
    i8: as_i64,
    i16: as_i64,
    i32: as_i64,
    i64: as_i64,
    isize: as_i64,
    u8: as_u64,
    u16: as_u64,
    u32: as_u64,
    u64: as_u64,
    usize: as_u64
);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, Error> {
        match v {
            // Non-finite floats serialize as null (JSON has no NaN/inf).
            Value::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| Error::expected("f64")),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<f32, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<char, Error> {
        let s = v.as_str().ok_or_else(|| Error::expected("char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::expected("single-character string")),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string"))
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<(), Error> {
        match v {
            Value::Null => Ok(()),
            _ => Err(Error::expected("null")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            _ => T::from_value(v).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, Error> {
        T::from_value(v).map(Box::new)
    }
}

fn seq_of<T: Deserialize>(v: &Value, what: &str) -> Result<Vec<T>, Error> {
    v.as_seq()
        .ok_or_else(|| Error::expected(what))?
        .iter()
        .map(T::from_value)
        .collect()
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        seq_of(v, "sequence")
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<VecDeque<T>, Error> {
        seq_of(v, "sequence")
            .map(Vec::into_iter)
            .map(VecDeque::from_iter)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], Error> {
        let items: Vec<T> = seq_of(v, "array")?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected {N} elements, got {n}")))
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<BTreeSet<T>, Error> {
        seq_of(v, "set")
            .map(Vec::into_iter)
            .map(BTreeSet::from_iter)
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<HashSet<T>, Error> {
        seq_of(v, "set").map(Vec::into_iter).map(HashSet::from_iter)
    }
}

fn pairs_of<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    v.as_seq()
        .ok_or_else(|| Error::expected("map (as a sequence of pairs)"))?
        .iter()
        .map(|entry| {
            let pair = entry
                .as_seq()
                .ok_or_else(|| Error::expected("map entry pair"))?;
            if pair.len() != 2 {
                return Err(Error::expected("two-element map entry"));
            }
            Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
        })
        .collect()
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<BTreeMap<K, V>, Error> {
        pairs_of(v).map(Vec::into_iter).map(BTreeMap::from_iter)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<HashMap<K, V>, Error> {
        pairs_of(v).map(Vec::into_iter).map(HashMap::from_iter)
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<($($t,)+), Error> {
                let s = v.as_seq().ok_or_else(|| Error::expected("tuple sequence"))?;
                if s.len() != $len {
                    return Err(Error::custom(format!(
                        "expected tuple of {}, got {}", $len, s.len())));
                }
                Ok(($($t::from_value(&s[$n])?,)+))
            }
        }
    )*};
}

de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
}
