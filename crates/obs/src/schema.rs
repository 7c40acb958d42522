//! The Chrome-trace JSON this crate writes: one schema, one writer.
//!
//! Both Perfetto outputs — the hop-level
//! [`TraceRecorder`](crate::trace::TraceRecorder) and the span exporter
//! [`crate::spans_to_perfetto`] — build [`TraceEvent`]s, serialize each
//! with the derived serializer ([`TraceEvent::to_json`]: keys in field
//! order, absent fields omitted), and join them with [`TraceDoc::render`].
//! Reading is just as strict: the same structs deny unknown fields —
//! every map key must be a known field, every `ph` must be a known phase,
//! and each phase's required fields must be present. Tests parse rendered
//! traces through [`TraceDoc::parse`] instead of spot-checking a loose
//! [`serde::value::Value`], so a renamed, retyped, or accidentally added
//! key fails loudly.

use serde::de::Error;
use serde::{Deserialize, Serialize};

/// The `args` object of a trace event. Exactly the keys the two Perfetto
/// outputs (the hop-level [`crate::TraceRecorder`] and the span exporter
/// [`crate::spans_to_perfetto`]) ever write; anything else is a schema
/// break.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceArgs {
    /// Metadata name (`process_name` / `thread_name` events).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    /// Holder label on blocked-slice events (e.g. `pkt3`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub holder: Option<String>,
    /// Flit counter value.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub flits: Option<u64>,
    /// Gather-queue depth counter value.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub depth: Option<u64>,
    /// Trace id on root request/row span slices.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
    /// `MDX1.` scenario token on engine-run span slices.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub token: Option<String>,
}

/// One Chrome-trace event, restricted to the four phases the writers
/// emit: complete slices (`X`), instants (`i`), counters (`C`), and
/// name metadata (`M`). Build one with the phase constructors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Phase code (`X`, `i`, `C`, or `M`).
    pub ph: String,
    /// Process id (track group).
    pub pid: u64,
    /// Thread id (track) — absent only on `process_name` metadata.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tid: Option<u64>,
    /// Timestamp (µs in trace units; simulation cycles here).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ts: Option<u64>,
    /// Slice duration (`X` only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    /// Instant scope (`i` only; always `t`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    /// Event arguments.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub args: Option<TraceArgs>,
}

impl TraceEvent {
    fn new(ph: &str, pid: u64, tid: Option<u64>, name: impl Into<String>) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ph: ph.to_string(),
            pid,
            tid,
            ts: None,
            dur: None,
            s: None,
            args: None,
        }
    }

    /// A complete slice over `[start, end)` on track `(pid, tid)`, at
    /// least one tick long (Perfetto hides zero-length slices).
    pub fn slice(pid: u64, tid: u64, name: impl Into<String>, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            ts: Some(start),
            dur: Some(end.saturating_sub(start).max(1)),
            ..TraceEvent::new("X", pid, Some(tid), name)
        }
    }

    /// A thread-scoped instant marker on track `(pid, tid)`.
    pub fn instant(pid: u64, tid: u64, name: impl Into<String>, ts: u64) -> TraceEvent {
        TraceEvent {
            ts: Some(ts),
            s: Some("t".to_string()),
            ..TraceEvent::new("i", pid, Some(tid), name)
        }
    }

    /// A counter sample on track `(pid, 0)`; `args` carries its one value
    /// (`flits` or `depth`).
    pub fn counter(pid: u64, name: impl Into<String>, ts: u64, args: TraceArgs) -> TraceEvent {
        TraceEvent {
            ts: Some(ts),
            args: Some(args),
            ..TraceEvent::new("C", pid, Some(0), name)
        }
    }

    /// Names process `pid` (`tid: None`) or thread `tid` of it.
    pub fn meta(pid: u64, tid: Option<u64>, name: impl Into<String>) -> TraceEvent {
        let kind = if tid.is_some() {
            "thread_name"
        } else {
            "process_name"
        };
        TraceEvent {
            args: Some(TraceArgs {
                name: Some(name.into()),
                ..TraceArgs::default()
            }),
            ..TraceEvent::new("M", pid, tid, kind)
        }
    }

    /// The event as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace events serialize")
    }

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Writes a trace document around events already serialized with
    /// [`TraceEvent::to_json`], one event per line — the one writer
    /// behind both Perfetto outputs.
    pub fn render<S: AsRef<str>>(events: &[S]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e.as_ref());
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

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
        // The derived serializer and the one writer reproduce the document.
        let lines: Vec<String> = doc.trace_events.iter().map(TraceEvent::to_json).collect();
        assert_eq!(TraceDoc::parse(&TraceDoc::render(&lines)).unwrap(), doc);
        assert_eq!(
            TraceDoc::parse(&serde_json::to_string(&doc).unwrap()).unwrap(),
            doc
        );
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
