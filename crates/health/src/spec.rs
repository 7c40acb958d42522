//! Declarative SLO specifications.
//!
//! A spec is a line-oriented text file, one directive per line, `#`
//! comments and blank lines ignored:
//!
//! ```text
//! # Serve-mode SLOs for the storm demo.
//! window fast=5 slow=20
//! burn fast=2.0 slow=1.0
//! objective lat-p99    latency_p99    ceiling 500   budget=0.05 warn=400
//! objective no-deadlock deadlock_rate ceiling 0.01  budget=0.01
//! objective delivery   delivery_ratio floor  0.95
//! ```
//!
//! Every `objective` names a signal (a key looked up in the
//! [`crate::SignalFrame`] under evaluation), a direction (`ceiling` means
//! the signal must stay at or below the threshold, `floor` at or above),
//! the threshold itself, and optionally an error budget (`budget=F`, the
//! tolerated violating fraction of evaluation ticks; default
//! [`DEFAULT_BUDGET`]) and an instantaneous warning threshold (`warn=V`).
//! Parsing is strict: unknown directives, malformed numbers, and duplicate
//! objective ids are errors carrying the 1-based line number.

use serde::{Deserialize, Serialize};

/// Default error budget: tolerated violating fraction of ticks.
pub const DEFAULT_BUDGET: f64 = 0.05;

/// Default fast (short) burn-rate window, in evaluation ticks.
pub const DEFAULT_FAST_WINDOW: usize = 5;

/// Default slow (long) burn-rate window, in evaluation ticks.
pub const DEFAULT_SLOW_WINDOW: usize = 20;

/// Default fast-window burn-rate threshold.
pub const DEFAULT_FAST_BURN: f64 = 2.0;

/// Default slow-window burn-rate threshold.
pub const DEFAULT_SLOW_BURN: f64 = 1.0;

/// Which side of the threshold is healthy. Serialized as the lowercase
/// word spec files use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// The signal must stay at or below the threshold.
    #[serde(rename = "ceiling")]
    Ceiling,
    /// The signal must stay at or above the threshold.
    #[serde(rename = "floor")]
    Floor,
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Stable identifier (named in alerts and verdicts).
    pub id: String,
    /// Signal key looked up in the evaluated [`crate::SignalFrame`].
    pub signal: String,
    /// Healthy side of the threshold.
    pub direction: Direction,
    /// The threshold itself.
    pub threshold: f64,
    /// Error budget: tolerated violating fraction of evaluation ticks.
    pub budget: f64,
    /// Optional instantaneous warning threshold (same direction).
    pub warn: Option<f64>,
}

impl Objective {
    /// Whether `value` violates the objective's threshold.
    pub fn violates(&self, value: f64) -> bool {
        match self.direction {
            Direction::Ceiling => value > self.threshold,
            Direction::Floor => value < self.threshold,
        }
    }

    /// Whether `value` crosses the instantaneous warning threshold.
    pub fn warns(&self, value: f64) -> bool {
        match (self.warn, self.direction) {
            (Some(w), Direction::Ceiling) => value > w,
            (Some(w), Direction::Floor) => value < w,
            (None, _) => false,
        }
    }
}

/// A parsed SLO specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// The objectives, in file order (evaluation and alert order).
    pub objectives: Vec<Objective>,
    /// Fast burn-rate window, in evaluation ticks.
    pub fast_window: usize,
    /// Slow burn-rate window, in evaluation ticks.
    pub slow_window: usize,
    /// Fast-window burn threshold (breach requires both).
    pub fast_burn: f64,
    /// Slow-window burn threshold (breach requires both).
    pub slow_burn: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            objectives: Vec::new(),
            fast_window: DEFAULT_FAST_WINDOW,
            slow_window: DEFAULT_SLOW_WINDOW,
            fast_burn: DEFAULT_FAST_BURN,
            slow_burn: DEFAULT_SLOW_BURN,
        }
    }
}

/// A parse failure, carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slo spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

fn parse_num(line: usize, what: &str, tok: &str) -> Result<f64, SpecError> {
    tok.parse::<f64>()
        .map_err(|_| err(line, format!("{what} is not a number: {tok:?}")))
        .and_then(|v| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(err(line, format!("{what} must be finite: {tok:?}")))
            }
        })
}

impl SloSpec {
    /// Parses the line-oriented spec format described in the module docs.
    pub fn parse(text: &str) -> Result<SloSpec, SpecError> {
        let mut spec = SloSpec::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let toks: Vec<&str> = body.split_whitespace().collect();
            match toks[0] {
                "window" => {
                    for t in &toks[1..] {
                        if let Some(v) = t.strip_prefix("fast=") {
                            let n = parse_num(line, "fast window", v)?;
                            if n < 1.0 || n.fract() != 0.0 {
                                return Err(err(line, "fast window must be a positive integer"));
                            }
                            spec.fast_window = n as usize;
                        } else if let Some(v) = t.strip_prefix("slow=") {
                            let n = parse_num(line, "slow window", v)?;
                            if n < 1.0 || n.fract() != 0.0 {
                                return Err(err(line, "slow window must be a positive integer"));
                            }
                            spec.slow_window = n as usize;
                        } else {
                            return Err(err(line, format!("unknown window option {t:?}")));
                        }
                    }
                }
                "burn" => {
                    for t in &toks[1..] {
                        if let Some(v) = t.strip_prefix("fast=") {
                            spec.fast_burn = parse_num(line, "fast burn", v)?;
                        } else if let Some(v) = t.strip_prefix("slow=") {
                            spec.slow_burn = parse_num(line, "slow burn", v)?;
                        } else {
                            return Err(err(line, format!("unknown burn option {t:?}")));
                        }
                    }
                }
                "objective" => {
                    if toks.len() < 5 {
                        return Err(err(
                            line,
                            "objective needs: objective <id> <signal> ceiling|floor <threshold>",
                        ));
                    }
                    let id = toks[1].to_string();
                    if spec.objectives.iter().any(|o| o.id == id) {
                        return Err(err(line, format!("duplicate objective id {id:?}")));
                    }
                    let signal = toks[2].to_string();
                    let direction = match toks[3] {
                        "ceiling" => Direction::Ceiling,
                        "floor" => Direction::Floor,
                        other => {
                            return Err(err(
                                line,
                                format!("direction must be ceiling or floor, got {other:?}"),
                            ))
                        }
                    };
                    let threshold = parse_num(line, "threshold", toks[4])?;
                    let mut budget = DEFAULT_BUDGET;
                    let mut warn = None;
                    for t in &toks[5..] {
                        if let Some(v) = t.strip_prefix("budget=") {
                            budget = parse_num(line, "budget", v)?;
                            if !(budget > 0.0 && budget <= 1.0) {
                                return Err(err(line, "budget must be in (0, 1]"));
                            }
                        } else if let Some(v) = t.strip_prefix("warn=") {
                            warn = Some(parse_num(line, "warn threshold", v)?);
                        } else {
                            return Err(err(line, format!("unknown objective option {t:?}")));
                        }
                    }
                    spec.objectives.push(Objective {
                        id,
                        signal,
                        direction,
                        threshold,
                        budget,
                        warn,
                    });
                }
                other => return Err(err(line, format!("unknown directive {other:?}"))),
            }
        }
        if spec.fast_window > spec.slow_window {
            return Err(err(
                text.lines().count(),
                "fast window must not exceed slow window",
            ));
        }
        if spec.objectives.is_empty() {
            return Err(err(text.lines().count().max(1), "spec has no objectives"));
        }
        Ok(spec)
    }

    /// Reads and parses a spec file.
    pub fn load(path: &std::path::Path) -> Result<SloSpec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        SloSpec::parse(&text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_with_comments_and_options() {
        let spec = SloSpec::parse(
            "# serve SLOs\n\
             window fast=3 slow=12   # ticks\n\
             burn fast=1.5 slow=0.9\n\
             objective lat-p99 latency_p99 ceiling 500 budget=0.1 warn=400\n\
             \n\
             objective delivery delivery_ratio floor 0.95\n",
        )
        .unwrap();
        assert_eq!(spec.fast_window, 3);
        assert_eq!(spec.slow_window, 12);
        assert_eq!(spec.fast_burn, 1.5);
        assert_eq!(spec.slow_burn, 0.9);
        assert_eq!(spec.objectives.len(), 2);
        let o = &spec.objectives[0];
        assert_eq!(o.id, "lat-p99");
        assert_eq!(o.direction, Direction::Ceiling);
        assert_eq!(o.budget, 0.1);
        assert_eq!(o.warn, Some(400.0));
        assert!(o.violates(501.0));
        assert!(!o.violates(500.0));
        assert!(o.warns(450.0));
        assert!(!o.warns(399.0));
        let d = &spec.objectives[1];
        assert_eq!(d.budget, DEFAULT_BUDGET);
        assert!(d.violates(0.94));
        assert!(!d.violates(0.95));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = SloSpec::parse("window fast=3\nobjective a b sideways 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("ceiling or floor"), "{e}");
        let e = SloSpec::parse("objective a sig ceiling nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = SloSpec::parse("frobnicate\n").unwrap_err();
        assert!(e.to_string().contains("unknown directive"), "{e}");
    }

    #[test]
    fn rejects_duplicates_empty_and_inverted_windows() {
        let dup = "objective a s ceiling 1\nobjective a s ceiling 2\n";
        assert!(SloSpec::parse(dup)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        assert!(SloSpec::parse("# nothing\n")
            .unwrap_err()
            .to_string()
            .contains("no objectives"));
        let inv = "window fast=30 slow=10\nobjective a s ceiling 1\n";
        assert!(SloSpec::parse(inv)
            .unwrap_err()
            .to_string()
            .contains("must not exceed"));
        let bad_budget = "objective a s ceiling 1 budget=0\n";
        assert!(SloSpec::parse(bad_budget)
            .unwrap_err()
            .to_string()
            .contains("budget"));
    }
}
