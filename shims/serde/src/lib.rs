//! Offline shim for the `serde` crate.
//!
//! Serialization streams: a [`Serialize`] impl feeds its value to a
//! [`Serializer`] as data-model events (scalars, sequences, maps). The
//! `serde_json` shim's JSON writer is one backend and writes text
//! directly; the other builds an in-memory [`value::Value`] tree, only
//! when [`Serialize::to_value`] asks for one.
//! Deserialization reads a `Value` back: `serde_json` parses text into the
//! tree and [`Deserialize`] takes it apart. The derive macros
//! (`serde_derive` shim, re-exported under the `derive` feature) generate
//! both traits for the struct/enum shapes used in this workspace. See
//! `shims/README.md`.

pub mod de;
pub mod ser;
pub mod value;

pub use de::Deserialize;
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
