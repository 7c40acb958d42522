//! A strict schema for the Chrome-trace JSON the
//! [`TraceRecorder`](crate::trace::TraceRecorder) emits.
//!
//! The trace renderer builds its JSON by string formatting (one
//! pre-serialized event per line, zero intermediate allocation), so
//! nothing in the type system keeps its output well-formed. This module is
//! the counterweight: typed mirror structs that deny unknown fields —
//! every map key must be a known field, every `ph` must be a known phase,
//! and each phase's required fields must be present. Tests parse rendered
//! traces through [`TraceDoc::parse`] instead of spot-checking a loose
//! [`serde::value::Value`], so a renamed, retyped, or accidentally added
//! key fails loudly.

use serde::de::Error;
use serde::Deserialize;

/// The `args` object of a trace event. Exactly the keys the two renderers
/// (the hop-level [`crate::TraceRecorder`] and the span exporter
/// [`crate::spans_to_perfetto`]) ever write; anything else is a schema
/// break.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceArgs {
    /// Metadata name (`process_name` / `thread_name` events).
    #[serde(default)]
    pub name: Option<String>,
    /// Holder label on blocked-slice events (e.g. `pkt3`).
    #[serde(default)]
    pub holder: Option<String>,
    /// Flit counter value.
    #[serde(default)]
    pub flits: Option<u64>,
    /// Gather-queue depth counter value.
    #[serde(default)]
    pub depth: Option<u64>,
    /// Trace id on root request/row span slices.
    #[serde(default)]
    pub trace: Option<String>,
    /// `MDX1.` scenario token on engine-run span slices.
    #[serde(default)]
    pub token: Option<String>,
}

/// One Chrome-trace event, restricted to the four phases the renderer
/// emits: complete slices (`X`), instants (`i`), counters (`C`), and
/// name metadata (`M`).
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Phase code (`X`, `i`, `C`, or `M`).
    pub ph: String,
    /// Process id (track group).
    pub pid: u64,
    /// Thread id (track) — absent only on `process_name` metadata.
    #[serde(default)]
    pub tid: Option<u64>,
    /// Timestamp (µs in trace units; simulation cycles here).
    #[serde(default)]
    pub ts: Option<u64>,
    /// Slice duration (`X` only).
    #[serde(default)]
    pub dur: Option<u64>,
    /// Instant scope (`i` only; the renderer always writes `t`).
    #[serde(default)]
    pub s: Option<String>,
    /// Event arguments.
    #[serde(default)]
    pub args: Option<TraceArgs>,
}

impl TraceEvent {
    /// Phase-specific field requirements: each `ph` has a fixed shape and
    /// anything looser is a renderer regression.
    fn validate(&self) -> Result<(), Error> {
        let need = |cond: bool, what: &str| {
            if cond {
                Ok(())
            } else {
                Err(Error::custom(format!(
                    "`{}` event `{}` {what}",
                    self.ph, self.name
                )))
            }
        };
        match self.ph.as_str() {
            "X" => {
                need(self.tid.is_some(), "missing tid")?;
                need(self.ts.is_some(), "missing ts")?;
                need(self.dur.is_some(), "missing dur")?;
                need(self.s.is_none(), "carries an instant scope")
            }
            "i" => {
                need(self.tid.is_some(), "missing tid")?;
                need(self.ts.is_some(), "missing ts")?;
                need(self.s.as_deref() == Some("t"), "missing thread scope `t`")?;
                need(self.dur.is_none(), "carries a duration")
            }
            "C" => {
                need(self.tid.is_some(), "missing tid")?;
                need(self.ts.is_some(), "missing ts")?;
                let counters = self
                    .args
                    .as_ref()
                    .map(|a| usize::from(a.flits.is_some()) + usize::from(a.depth.is_some()))
                    .unwrap_or(0);
                need(counters == 1, "needs exactly one counter value")
            }
            "M" => {
                need(self.ts.is_none(), "carries a timestamp")?;
                need(
                    self.args.as_ref().is_some_and(|a| a.name.is_some()),
                    "missing args.name",
                )
            }
            other => Err(Error::custom(format!("unknown phase `{other}`"))),
        }
    }
}

/// The whole trace document: `traceEvents` plus `displayTimeUnit`, nothing
/// else.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceDoc {
    /// All events, in emission order.
    #[serde(rename = "traceEvents")]
    pub trace_events: Vec<TraceEvent>,
    /// Viewer display unit (the renderer writes `ms`).
    #[serde(rename = "displayTimeUnit")]
    pub display_time_unit: String,
}

impl TraceDoc {
    /// Parses and validates rendered trace JSON: the schema, then every
    /// event's phase-specific shape.
    pub fn parse(json: &str) -> Result<TraceDoc, Error> {
        let doc: TraceDoc = serde_json::from_str(json).map_err(|e| Error::custom(e.to_string()))?;
        for ev in &doc.trace_events {
            ev.validate()?;
        }
        Ok(doc)
    }

    /// Events with phase `ph`.
    pub fn events<'a>(&'a self, ph: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.trace_events.iter().filter(move |e| e.ph == ph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_renderer_shapes() {
        let doc = TraceDoc::parse(
            r#"{"traceEvents":[
                {"name":"process_name","ph":"M","pid":1,"args":{"name":"packets"}},
                {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"pkt3"}},
                {"name":"R0 -> X0-XB","ph":"X","pid":1,"tid":0,"ts":2,"dur":5},
                {"name":"blocked","ph":"X","pid":1,"tid":0,"ts":2,"dur":5,"args":{"holder":"pkt1"}},
                {"name":"rc 1 -> 2","ph":"i","pid":1,"tid":0,"ts":4,"s":"t"},
                {"name":"gather depth","ph":"C","pid":9,"tid":0,"ts":4,"args":{"depth":2}}
            ],"displayTimeUnit":"ms"}"#,
        )
        .expect("well-formed trace parses");
        assert_eq!(doc.trace_events.len(), 6);
        assert_eq!(doc.display_time_unit, "ms");
        assert_eq!(doc.events("M").count(), 2);
        assert_eq!(doc.events("X").count(), 2);
    }

    #[test]
    fn rejects_unknown_keys_and_malformed_phases() {
        // Unknown top-level key.
        assert!(TraceDoc::parse(r#"{"traceEvents":[],"displayTimeUnit":"ms","extra":1}"#).is_err());
        // Unknown event key.
        assert!(TraceDoc::parse(
            r#"{"traceEvents":[{"name":"x","ph":"M","pid":1,"bogus":1,"args":{"name":"y"}}],"displayTimeUnit":"ms"}"#
        )
        .is_err());
        // Unknown args key.
        assert!(TraceDoc::parse(
            r#"{"traceEvents":[{"name":"x","ph":"M","pid":1,"args":{"names":"y"}}],"displayTimeUnit":"ms"}"#
        )
        .is_err());
        // Slice without duration.
        assert!(TraceDoc::parse(
            r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":1}],"displayTimeUnit":"ms"}"#
        )
        .is_err());
        // Unknown phase.
        assert!(TraceDoc::parse(
            r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":1}],"displayTimeUnit":"ms"}"#
        )
        .is_err());
        // Counter with no counter value.
        assert!(TraceDoc::parse(
            r#"{"traceEvents":[{"name":"x","ph":"C","pid":1,"tid":0,"ts":1,"args":{}}],"displayTimeUnit":"ms"}"#
        )
        .is_err());
        // Missing displayTimeUnit.
        assert!(TraceDoc::parse(r#"{"traceEvents":[]}"#).is_err());
    }
}
