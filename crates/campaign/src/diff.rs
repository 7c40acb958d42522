//! Run-to-run attribution diffs: `campaign diff <a.jsonl> <b.jsonl>`.
//!
//! A changed row digest or results table says *that* a sweep moved; this
//! module answers *where the cycles moved*. Two campaign JSONL files
//! (written with `--attribution`) are reduced to sweep-wide phase totals
//! and compared phase-by-phase as **shares of total latency** — a shift
//! of more than the threshold (default 1 percentage point) is flagged. On
//! a fault-free vs. 1-fault pair, the latency delta shows up as share
//! moving into `detour_transfer` and the blocked phases; on two runs of
//! the same tokens, every shift is exactly zero and the rendering is
//! byte-identical.
//!
//! Rows are parsed as generic [`serde::value::Value`] maps, so files from
//! older schema revisions (or with extra fields) still diff — only the
//! `token`, `outcome`, and `attribution` keys are read. Rows without an
//! `attribution` section are counted but contribute nothing.

use crate::runner::RowAttribution;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Default share-shift threshold: one percentage point.
pub const DEFAULT_DIFF_THRESHOLD: f64 = 0.01;

/// Why a diff could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// A line failed to parse as a JSON object.
    BadRow {
        /// Which input (`"a"` or `"b"`).
        side: &'static str,
        /// 1-based line number.
        line: usize,
        /// Parser message.
        reason: String,
    },
    /// A file had no rows at all.
    Empty(&'static str),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::BadRow { side, line, reason } => {
                write!(f, "input {side}, line {line}: {reason}")
            }
            DiffError::Empty(side) => write!(f, "input {side} has no rows"),
        }
    }
}

impl std::error::Error for DiffError {}

/// One side's sweep-wide reduction.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DiffSide {
    /// Rows in the file.
    pub rows: usize,
    /// Rows carrying an `attribution` section.
    pub attributed: usize,
    /// Scenario tokens, in file order (the pairing check).
    pub tokens: Vec<String>,
    /// Outcome counts as `(outcome, rows)`, in first-seen order.
    pub outcomes: Vec<(String, usize)>,
    /// Delivered packets decomposed, summed.
    pub delivered: usize,
    /// Total end-to-end latency (cycles) across attributed rows.
    pub latency_total: u64,
    /// Phase totals, in [`RowAttribution::phases`] order.
    pub phase_cycles: Vec<u64>,
    /// Total detour hop overhead.
    pub detour_overhead_hops: u64,
}

/// One phase's comparison between the two runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseShift {
    /// Phase name (e.g. `gather_wait`).
    pub phase: String,
    /// Cycles in run A.
    pub cycles_a: u64,
    /// Cycles in run B.
    pub cycles_b: u64,
    /// Share of run A's total latency (0..1).
    pub share_a: f64,
    /// Share of run B's total latency (0..1).
    pub share_b: f64,
    /// `share_b - share_a` (positive = the phase grew in B).
    pub shift: f64,
    /// Whether `|shift|` exceeded the threshold.
    pub flagged: bool,
}

/// The full comparison of two attribution-bearing campaign files.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttributionDiff {
    /// Share-shift threshold the comparison used.
    pub threshold: f64,
    /// Whether both files hold the same scenario tokens in the same order.
    pub same_tokens: bool,
    /// Run A's reduction.
    pub a: DiffSide,
    /// Run B's reduction.
    pub b: DiffSide,
    /// Per-phase comparison, in schema order.
    pub shifts: Vec<PhaseShift>,
    /// Phases whose share moved beyond the threshold.
    pub flagged: usize,
}

/// The phase names, fixed in schema order (mirrors
/// [`RowAttribution::phases`]).
const PHASE_NAMES: [&str; 8] = [
    "inject_wait",
    "epoch_pause",
    "gather_wait",
    "blocked_normal",
    "blocked_gather",
    "blocked_detour",
    "detour_transfer",
    "base_transfer",
];

/// Map-entry lookup on a generic JSON object.
fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

/// Reduces one JSONL document to a [`DiffSide`].
fn reduce_side(side: &'static str, jsonl: &str) -> Result<DiffSide, DiffError> {
    let mut out = DiffSide {
        phase_cycles: vec![0; PHASE_NAMES.len()],
        ..DiffSide::default()
    };
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).map_err(|e| DiffError::BadRow {
            side,
            line: i + 1,
            reason: e.to_string(),
        })?;
        let row = v.as_map().ok_or_else(|| DiffError::BadRow {
            side,
            line: i + 1,
            reason: "row is not a JSON object".to_string(),
        })?;
        out.rows += 1;
        if let Some(tok) = field(row, "token").and_then(|v| v.as_str()) {
            out.tokens.push(tok.to_string());
        }
        if let Some(oc) = field(row, "outcome").and_then(|v| v.as_str()) {
            match out.outcomes.iter_mut().find(|(o, _)| o == oc) {
                Some(e) => e.1 += 1,
                None => out.outcomes.push((oc.to_string(), 1)),
            }
        }
        let Some(att) = field(row, "attribution") else {
            continue;
        };
        let att = RowAttribution::from_value(att).map_err(|e| DiffError::BadRow {
            side,
            line: i + 1,
            reason: format!("bad attribution section: {e}"),
        })?;
        out.attributed += 1;
        out.delivered += att.delivered;
        out.latency_total += att.latency_total;
        out.detour_overhead_hops += att.detour_overhead_hops;
        for (slot, (_, cycles)) in out.phase_cycles.iter_mut().zip(att.phases()) {
            *slot += cycles;
        }
    }
    if out.rows == 0 {
        return Err(DiffError::Empty(side));
    }
    Ok(out)
}

/// Compares two campaign JSONL documents (file *contents*, not paths)
/// phase-by-phase. `threshold` is the share shift (0..1) beyond which a
/// phase is flagged; [`DEFAULT_DIFF_THRESHOLD`] is the usual choice.
pub fn diff_attribution(a: &str, b: &str, threshold: f64) -> Result<AttributionDiff, DiffError> {
    let a = reduce_side("a", a)?;
    let b = reduce_side("b", b)?;
    let share = |cycles: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            cycles as f64 / total as f64
        }
    };
    let mut shifts = Vec::new();
    let mut flagged = 0;
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        let ca = a.phase_cycles[i];
        let cb = b.phase_cycles[i];
        let sa = share(ca, a.latency_total);
        let sb = share(cb, b.latency_total);
        let shift = sb - sa;
        let is_flagged = shift.abs() > threshold;
        flagged += usize::from(is_flagged);
        shifts.push(PhaseShift {
            phase: name.to_string(),
            cycles_a: ca,
            cycles_b: cb,
            share_a: sa,
            share_b: sb,
            shift,
            flagged: is_flagged,
        });
    }
    Ok(AttributionDiff {
        threshold,
        same_tokens: a.tokens == b.tokens,
        a,
        b,
        shifts,
        flagged,
    })
}

impl AttributionDiff {
    /// True when no phase moved beyond the threshold.
    pub fn is_clean(&self) -> bool {
        self.flagged == 0
    }

    /// Serializes the diff as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("AttributionDiff serializes")
    }

    /// Renders the deterministic comparison table. Identical inputs render
    /// byte-identically (shares are printed with fixed precision and the
    /// phase order is fixed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "attribution diff (threshold {:.1} pp): {} flagged shift(s)\n",
            self.threshold * 100.0,
            self.flagged
        ));
        out.push_str(&format!(
            "  a: {} row(s), {} attributed, {} delivered, {} latency cycle(s)\n",
            self.a.rows, self.a.attributed, self.a.delivered, self.a.latency_total
        ));
        out.push_str(&format!(
            "  b: {} row(s), {} attributed, {} delivered, {} latency cycle(s)\n",
            self.b.rows, self.b.attributed, self.b.delivered, self.b.latency_total
        ));
        out.push_str(&format!(
            "  tokens: {}\n",
            if self.same_tokens {
                "identical"
            } else {
                "DIFFERENT (comparing different scenario grids)"
            }
        ));
        let fmt_outcomes = |oc: &[(String, usize)]| {
            oc.iter()
                .map(|(o, n)| format!("{o} x{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if self.a.outcomes != self.b.outcomes {
            out.push_str(&format!(
                "  outcomes: a = {}; b = {}\n",
                fmt_outcomes(&self.a.outcomes),
                fmt_outcomes(&self.b.outcomes)
            ));
        }
        out.push_str(&format!(
            "\n  {:<16} {:>12} {:>12} {:>8} {:>8} {:>9}\n",
            "phase", "cycles a", "cycles b", "share a", "share b", "shift"
        ));
        for s in &self.shifts {
            out.push_str(&format!(
                "  {:<16} {:>12} {:>12} {:>7.2}% {:>7.2}% {:>+8.2}pp{}\n",
                s.phase,
                s.cycles_a,
                s.cycles_b,
                s.share_a * 100.0,
                s.share_b * 100.0,
                s.shift * 100.0,
                if s.flagged { "  <-- FLAGGED" } else { "" }
            ));
        }
        if self.a.detour_overhead_hops != self.b.detour_overhead_hops {
            out.push_str(&format!(
                "\n  detour overhead: {} hop(s) in a, {} hop(s) in b\n",
                self.a.detour_overhead_hops, self.b.detour_overhead_hops
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(token: &str, outcome: &str, phases: [u64; 8], total: u64) -> String {
        format!(
            concat!(
                r#"{{"token":"{}","outcome":"{}","attribution":{{"#,
                r#""delivered":2,"conserved":true,"latency_total":{},"#,
                r#""inject_wait":{},"epoch_pause":{},"gather_wait":{},"#,
                r#""blocked_normal":{},"blocked_gather":{},"blocked_detour":{},"#,
                r#""detour_transfer":{},"base_transfer":{},"#,
                r#""detour_overhead_hops":4,"top_blame":[["R0 -> X0-XB",7]],"#,
                r#""critical_len":1,"critical_wait":7}}}}"#
            ),
            token,
            outcome,
            total,
            phases[0],
            phases[1],
            phases[2],
            phases[3],
            phases[4],
            phases[5],
            phases[6],
            phases[7]
        )
    }

    #[test]
    fn identical_inputs_diff_clean_and_byte_identical() {
        let doc = format!(
            "{}\n{}\n",
            row("t1", "completed", [1, 0, 2, 3, 0, 0, 4, 10], 20),
            row("t2", "completed", [0, 0, 0, 5, 0, 0, 0, 15], 20)
        );
        let d1 = diff_attribution(&doc, &doc, DEFAULT_DIFF_THRESHOLD).unwrap();
        let d2 = diff_attribution(&doc, &doc, DEFAULT_DIFF_THRESHOLD).unwrap();
        assert!(d1.is_clean());
        assert!(d1.same_tokens);
        assert_eq!(d1.render(), d2.render());
        assert!(d1.shifts.iter().all(|s| s.shift == 0.0));
        assert_eq!(d1.a.latency_total, 40);
        assert_eq!(d1.a.delivered, 4);
    }

    #[test]
    fn share_shift_beyond_threshold_is_flagged() {
        let a = row("t1", "completed", [0, 0, 0, 0, 0, 0, 0, 100], 100);
        let b = row("t1", "completed", [0, 0, 0, 10, 0, 0, 20, 70], 100);
        let d = diff_attribution(&a, &b, DEFAULT_DIFF_THRESHOLD).unwrap();
        assert_eq!(d.flagged, 3); // blocked_normal, detour_transfer, base_transfer
        let detour = d
            .shifts
            .iter()
            .find(|s| s.phase == "detour_transfer")
            .unwrap();
        assert!(detour.flagged && detour.shift > 0.19);
        assert!(d.render().contains("FLAGGED"));
    }

    #[test]
    fn rows_without_attribution_still_count() {
        let a = format!(
            "{}\n{}\n",
            r#"{"token":"t0","outcome":"deadlock"}"#,
            row("t1", "completed", [0, 0, 0, 0, 0, 0, 0, 10], 10)
        );
        let d = diff_attribution(&a, &a, DEFAULT_DIFF_THRESHOLD).unwrap();
        assert_eq!(d.a.rows, 2);
        assert_eq!(d.a.attributed, 1);
        assert_eq!(
            d.a.outcomes,
            vec![("deadlock".to_string(), 1), ("completed".to_string(), 1)]
        );
    }

    #[test]
    fn token_mismatch_is_reported() {
        let a = row("t1", "completed", [0, 0, 0, 0, 0, 0, 0, 10], 10);
        let b = row("t2", "completed", [0, 0, 0, 0, 0, 0, 0, 10], 10);
        let d = diff_attribution(&a, &b, DEFAULT_DIFF_THRESHOLD).unwrap();
        assert!(!d.same_tokens);
        assert!(d.render().contains("DIFFERENT"));
    }

    #[test]
    fn empty_and_malformed_inputs_error() {
        assert_eq!(
            diff_attribution("", "", DEFAULT_DIFF_THRESHOLD),
            Err(DiffError::Empty("a"))
        );
        let good = row("t1", "completed", [0, 0, 0, 0, 0, 0, 0, 10], 10);
        let err = diff_attribution("not json\n", &good, DEFAULT_DIFF_THRESHOLD).unwrap_err();
        assert!(matches!(
            err,
            DiffError::BadRow {
                side: "a",
                line: 1,
                ..
            }
        ));
        // Older rows without the optional columns still diff, but a
        // present column of the wrong shape is an error, not a default.
        let legacy = good.replace(r#""conserved":true,"#, "").replace(
            r#","top_blame":[["R0 -> X0-XB",7]],"critical_len":1,"critical_wait":7"#,
            "",
        );
        assert!(!legacy.contains("conserved") && !legacy.contains("critical"));
        assert!(diff_attribution(&legacy, &good, DEFAULT_DIFF_THRESHOLD).is_ok());
        for bad in [
            good.replace(r#""conserved":true"#, r#""conserved":1"#),
            good.replace(r#"["R0 -> X0-XB",7]"#, r#"["R0 -> X0-XB"]"#),
        ] {
            let err = diff_attribution(&good, &bad, DEFAULT_DIFF_THRESHOLD).unwrap_err();
            assert!(matches!(err, DiffError::BadRow { side: "b", .. }), "{err}");
        }
    }
}
