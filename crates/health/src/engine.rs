//! The burn-rate evaluator.
//!
//! [`HealthEngine`] holds one ring of violation samples per objective and
//! reduces each [`SignalFrame`](crate::SignalFrame) it observes into a
//! [`HealthReport`]. The evaluation is the SRE multi-window burn-rate
//! scheme, on logical ticks instead of wall clock so replays are
//! byte-identical:
//!
//! - every tick, each objective's signal is compared against its
//!   threshold; the boolean lands in a ring capped at the spec's slow
//!   window;
//! - `burn = violating fraction over the window / error budget` — burn
//!   1.0 means the budget is being consumed exactly at the tolerated
//!   rate, burn 20 means twenty times too fast;
//! - **breach** requires the fast *and* slow windows to both exceed their
//!   thresholds (fast alone is noise, slow alone is stale history);
//!   exactly one of them — or an instantaneous `warn=` crossing — is a
//!   **warn**; otherwise **pass**.
//!
//! Status *transitions* emit [`Alert`]s, which serialize one-per-line
//! into the JSONL alert log. A tick with a missing signal records no
//! sample for that objective (explicitly "no observation", never a free
//! pass that ages violations out).

use crate::frame::SignalFrame;
use crate::spec::{Direction, SloSpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Overall or per-objective verdict, ordered by severity. Serialized as
/// the same lowercase word the verdict stamp and alert log use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Status {
    /// Within budget.
    #[serde(rename = "pass")]
    Pass,
    /// One burn window over threshold, or an instantaneous warn crossing.
    #[serde(rename = "warn")]
    Warn,
    /// Both burn windows over threshold.
    #[serde(rename = "breach")]
    Breach,
}

impl Status {
    /// Lowercase name, as rendered in verdicts and alerts.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Warn => "warn",
            Status::Breach => "breach",
        }
    }

    /// The `health_status` gauge encoding: pass=0, warn=1, breach=2.
    pub fn gauge_value(&self) -> f64 {
        match self {
            Status::Pass => 0.0,
            Status::Warn => 1.0,
            Status::Breach => 2.0,
        }
    }
}

/// One objective's slice of a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveReport {
    /// The objective's id (from the spec).
    pub id: String,
    /// The signal it watches.
    pub signal: String,
    /// The signal's value this tick (absent if the frame lacked it).
    pub value: Option<f64>,
    /// Whether this tick's value violated the threshold.
    pub violating: bool,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Fraction of the slow-window error budget still unspent, in [0, 1].
    pub budget_remaining: f64,
    /// The objective's verdict.
    pub status: Status,
}

/// A status transition, one JSONL line in the alert log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Logical tick the transition happened on.
    pub tick: u64,
    /// The objective that transitioned.
    pub objective: String,
    /// Status before.
    pub from: Status,
    /// Status after.
    pub to: Status,
    /// The signal value that tipped it (absent if the signal was missing).
    pub value: Option<f64>,
    /// Fast-window burn at the transition.
    pub fast_burn: f64,
    /// Slow-window burn at the transition.
    pub slow_burn: f64,
}

/// One tick's full verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Logical tick this report evaluates.
    pub tick: u64,
    /// Worst per-objective status.
    pub status: Status,
    /// Per-objective detail, in spec order.
    pub objectives: Vec<ObjectiveReport>,
    /// Status transitions fired by this tick, in spec order.
    pub alerts: Vec<Alert>,
}

struct ObjectiveState {
    history: VecDeque<bool>,
    status: Status,
}

/// The stateful evaluator; one per SLO spec.
pub struct HealthEngine {
    spec: SloSpec,
    states: Vec<ObjectiveState>,
    tick: u64,
}

fn burn_over(history: &VecDeque<bool>, window: usize, budget: f64) -> f64 {
    let n = history.len().min(window);
    if n == 0 {
        return 0.0;
    }
    let violations = history.iter().rev().take(n).filter(|v| **v).count();
    (violations as f64 / n as f64) / budget
}

impl HealthEngine {
    /// A fresh engine for `spec` (all objectives passing, tick 0 next).
    pub fn new(spec: SloSpec) -> HealthEngine {
        let states = spec
            .objectives
            .iter()
            .map(|_| ObjectiveState {
                history: VecDeque::new(),
                status: Status::Pass,
            })
            .collect();
        HealthEngine {
            spec,
            states,
            tick: 0,
        }
    }

    /// The spec this engine evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Evaluates one frame, advancing the logical tick. The frame's own
    /// `tick` is ignored; the engine's monotonic counter is authoritative
    /// (what makes replays deterministic regardless of caller clocks).
    pub fn observe(&mut self, frame: &SignalFrame) -> HealthReport {
        let tick = self.tick;
        self.tick += 1;
        let mut objectives = Vec::with_capacity(self.spec.objectives.len());
        let mut alerts = Vec::new();
        for (o, st) in self.spec.objectives.iter().zip(self.states.iter_mut()) {
            let value = frame.get(&o.signal);
            let mut violating = false;
            let mut warn_instant = false;
            if let Some(v) = value {
                violating = o.violates(v);
                warn_instant = o.warns(v);
                if st.history.len() == self.spec.slow_window {
                    st.history.pop_front();
                }
                st.history.push_back(violating);
            }
            let fast_burn = burn_over(&st.history, self.spec.fast_window, o.budget);
            let slow_burn = burn_over(&st.history, self.spec.slow_window, o.budget);
            let slow_n = st.history.len().min(self.spec.slow_window);
            let spent = st.history.iter().rev().take(slow_n).filter(|v| **v).count() as f64
                / (o.budget * self.spec.slow_window as f64);
            let budget_remaining = (1.0 - spent).clamp(0.0, 1.0);
            let fast_hot = fast_burn >= self.spec.fast_burn;
            let slow_hot = slow_burn >= self.spec.slow_burn;
            let status = if fast_hot && slow_hot {
                Status::Breach
            } else if fast_hot || slow_hot || warn_instant {
                Status::Warn
            } else {
                Status::Pass
            };
            if status != st.status {
                alerts.push(Alert {
                    tick,
                    objective: o.id.clone(),
                    from: st.status,
                    to: status,
                    value,
                    fast_burn,
                    slow_burn,
                });
                st.status = status;
            }
            objectives.push(ObjectiveReport {
                id: o.id.clone(),
                signal: o.signal.clone(),
                value,
                violating,
                fast_burn,
                slow_burn,
                budget_remaining,
                status,
            });
        }
        let status = objectives
            .iter()
            .map(|o| o.status)
            .max()
            .unwrap_or(Status::Pass);
        HealthReport {
            tick,
            status,
            objectives,
            alerts,
        }
    }
}

/// One objective a [`Verdict`] flags: violated (`severity` breach) or
/// across its `warn=` threshold (`severity` warn).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The objective's id (from the spec).
    pub objective: String,
    /// The signal it watches.
    pub signal: String,
    /// The signal's value in the judged frame.
    pub value: f64,
    /// The objective's threshold.
    pub threshold: f64,
    /// Healthy side of the threshold.
    pub direction: Direction,
    /// `breach` for a violation, `warn` for a warn crossing.
    pub severity: Status,
}

/// An instantaneous (single-sample) verdict for one row or cell, as
/// embedded in `campaign run --slo` / `campaign tournament --slo` output
/// rows under `health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Worst severity over all objectives (`pass` when none is flagged).
    pub status: Status,
    /// The violated or warning objectives, in spec order.
    pub violations: Vec<Violation>,
}

/// Judges one frame instantaneously: breach on violation, warn on a
/// `warn=` crossing, pass otherwise — no burn windows involved. A signal
/// missing from the frame flags nothing.
pub fn evaluate_frame(spec: &SloSpec, frame: &SignalFrame) -> Verdict {
    let mut status = Status::Pass;
    let mut violations = Vec::new();
    for o in &spec.objectives {
        let Some(value) = frame.get(&o.signal) else {
            continue;
        };
        let severity = if o.violates(value) {
            Status::Breach
        } else if o.warns(value) {
            Status::Warn
        } else {
            continue;
        };
        status = status.max(severity);
        violations.push(Violation {
            objective: o.id.clone(),
            signal: o.signal.clone(),
            value,
            threshold: o.threshold,
            direction: o.direction,
            severity,
        });
    }
    Verdict { status, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> SloSpec {
        SloSpec::parse(text).unwrap()
    }

    fn frame(pairs: &[(&str, f64)]) -> SignalFrame {
        let mut f = SignalFrame::new(0);
        for (k, v) in pairs {
            f.set(*k, *v);
        }
        f
    }

    #[test]
    fn sustained_violation_walks_pass_warn_breach() {
        let s = spec(
            "window fast=2 slow=4\nburn fast=2.0 slow=1.0\n\
             objective lat latency ceiling 100 budget=0.5\n",
        );
        let mut e = HealthEngine::new(s);
        let ok = frame(&[("latency", 50.0)]);
        let hot = frame(&[("latency", 500.0)]);
        let r = e.observe(&ok);
        assert_eq!(r.status, Status::Pass);
        assert!(r.alerts.is_empty());
        // One violation: fast burn = (1/2)/0.5 = 1.0 (< 2.0, cool), slow
        // burn = (1/2)/0.5 = 1.0 over the 2 samples seen (hot) -> exactly
        // one window hot is a warn.
        let r = e.observe(&hot);
        assert_eq!(r.objectives[0].fast_burn, 1.0);
        assert_eq!(r.objectives[0].slow_burn, 1.0);
        assert_eq!(r.status, Status::Warn);
        assert_eq!(r.alerts.len(), 1);
        assert_eq!(r.alerts[0].from, Status::Pass);
        assert_eq!(r.alerts[0].to, Status::Warn);
        // A second violation heats the fast window too: breach.
        let r = e.observe(&hot);
        assert_eq!(r.objectives[0].fast_burn, 2.0);
        assert!(r.objectives[0].slow_burn >= 1.0);
        assert_eq!(r.status, Status::Breach);
        assert_eq!(r.alerts[0].to, Status::Breach);
        // Recovery: clean ticks cool the fast window first, then the slow
        // window ages the violations out entirely.
        let r = e.observe(&ok);
        assert!(r.status < Status::Breach);
        for _ in 0..4 {
            e.observe(&ok);
        }
        assert_eq!(e.observe(&ok).status, Status::Pass);
    }

    #[test]
    fn breach_requires_both_windows() {
        let s = spec(
            "window fast=1 slow=10\nburn fast=1.0 slow=1.0\n\
             objective lat latency ceiling 100 budget=0.2\n",
        );
        let mut e = HealthEngine::new(s);
        for _ in 0..9 {
            assert_eq!(e.observe(&frame(&[("latency", 10.0)])).status, Status::Pass);
        }
        // First violation: fast window (1 tick) is fully hot, the slow
        // window has 1/10 violating = budget exactly -> slow is hot too at
        // burn 0.5? no: (1/10)/0.2 = 0.5 < 1.0 -> warn only.
        let r = e.observe(&frame(&[("latency", 900.0)]));
        assert_eq!(r.objectives[0].fast_burn, 5.0);
        assert_eq!(r.objectives[0].slow_burn, 0.5);
        assert_eq!(r.status, Status::Warn);
    }

    #[test]
    fn missing_signal_records_no_sample() {
        let s = spec("window fast=2 slow=4\nobjective lat latency ceiling 100\n");
        let mut e = HealthEngine::new(s);
        e.observe(&frame(&[("latency", 500.0)]));
        // Three frames without the signal: history must not grow, the old
        // violation must not age out.
        for _ in 0..3 {
            let r = e.observe(&frame(&[]));
            assert_eq!(r.objectives[0].value, None);
            assert!(r.objectives[0].fast_burn > 0.0);
        }
    }

    #[test]
    fn warn_threshold_fires_instantly() {
        let s = spec("objective lat latency ceiling 100 warn=80\n");
        let mut e = HealthEngine::new(s);
        let r = e.observe(&frame(&[("latency", 90.0)]));
        assert_eq!(r.status, Status::Warn);
        assert!(!r.objectives[0].violating);
        let v = evaluate_frame(e.spec(), &frame(&[("latency", 90.0)]));
        assert_eq!(v.status, Status::Warn);
        assert_eq!(v.violations.len(), 1);
    }

    #[test]
    fn reports_and_alerts_replay_byte_identically() {
        let text = "window fast=2 slow=6\n\
                    objective lat latency ceiling 100 budget=0.2\n\
                    objective del delivery floor 0.9\n";
        let run = || {
            let mut e = HealthEngine::new(spec(text));
            let mut reports = String::new();
            let mut alerts = String::new();
            for i in 0..12u64 {
                let lat = if i % 3 == 0 { 400.0 } else { 40.0 };
                let del = if i > 8 { 0.5 } else { 0.99 };
                let r = e.observe(&frame(&[("latency", lat), ("delivery", del)]));
                reports.push_str(&serde_json::to_string(&r).unwrap());
                reports.push('\n');
                for a in &r.alerts {
                    alerts.push_str(&serde_json::to_string(a).unwrap());
                    alerts.push('\n');
                }
            }
            (reports, alerts)
        };
        let (r1, a1) = run();
        let (r2, a2) = run();
        assert_eq!(r1, r2);
        assert_eq!(a1, a2);
        assert!(!a1.is_empty());
        // Alert lines round-trip through the shim parser.
        let first: Alert = serde_json::from_str(a1.lines().next().unwrap()).unwrap();
        assert_eq!(first.objective, "lat");
    }

    #[test]
    fn budget_remaining_drains_and_clamps() {
        let s = spec("window fast=2 slow=4\nobjective lat latency ceiling 100 budget=0.25\n");
        let mut e = HealthEngine::new(s);
        let r = e.observe(&frame(&[("latency", 900.0)]));
        // 1 violation / (0.25 * 4) = full budget spent.
        assert_eq!(r.objectives[0].budget_remaining, 0.0);
        let mut e2 = HealthEngine::new(spec(
            "window fast=2 slow=4\nobjective lat latency ceiling 100 budget=0.5\n",
        ));
        let r = e2.observe(&frame(&[("latency", 10.0)]));
        assert_eq!(r.objectives[0].budget_remaining, 1.0);
    }

    #[test]
    fn instantaneous_verdict_names_the_violated_objective() {
        let s =
            spec("objective no-deadlock deadlock ceiling 0\nobjective del delivery floor 0.9\n");
        let v = evaluate_frame(&s, &frame(&[("deadlock", 1.0), ("delivery", 0.99)]));
        assert_eq!(v.status, Status::Breach);
        let flagged: Vec<&str> = v.violations.iter().map(|n| n.objective.as_str()).collect();
        assert_eq!(flagged, ["no-deadlock"]);
        let v = evaluate_frame(&s, &frame(&[("deadlock", 0.0), ("delivery", 0.99)]));
        assert_eq!(v.status, Status::Pass);
        assert!(v.violations.is_empty());
    }

    /// The `health` section's wire bytes: status, then each flagged
    /// objective's id, signal, value, threshold, direction and severity.
    /// A missing signal flags nothing.
    #[test]
    fn verdict_serializes_to_the_health_section_bytes() {
        let s = spec(
            "objective no-deadlock deadlock_rate ceiling 0\n\
             objective delivery delivery_ratio floor 0.9 warn=0.95\n\
             objective latency latency_p99 ceiling 100\n",
        );
        let v = evaluate_frame(
            &s,
            &frame(&[("deadlock_rate", 1.0), ("delivery_ratio", 0.93)]),
        );
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            "{\"status\":\"breach\",\"violations\":[\
             {\"objective\":\"no-deadlock\",\"signal\":\"deadlock_rate\",\"value\":1.0,\
             \"threshold\":0.0,\"direction\":\"ceiling\",\"severity\":\"breach\"},\
             {\"objective\":\"delivery\",\"signal\":\"delivery_ratio\",\"value\":0.93,\
             \"threshold\":0.9,\"direction\":\"floor\",\"severity\":\"warn\"}]}"
        );
    }
}
