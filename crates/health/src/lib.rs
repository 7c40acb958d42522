//! # mdx-health — the SLO engine
//!
//! PRs 2–8 gave the SR2201 stack its raw signals: a metrics registry
//! with Prometheus exposition, request spans, windowed stream telemetry,
//! latency attribution. This crate is the layer that *consumes* them and
//! renders a verdict, the way the paper's operators judged the real
//! machine: is the network still serving its users within budget?
//!
//! Three pieces:
//!
//! - [`SloSpec`] ([`spec`]) — declarative objectives parsed from a
//!   line-oriented file: latency percentile ceilings, deadlock budgets,
//!   delivery-ratio floors, backlog and saturation limits — anything
//!   expressible as `signal (ceiling|floor) threshold` with an error
//!   budget.
//! - [`SignalFrame`] ([`frame`]) — one evaluation tick of telemetry,
//!   flattened from `mdx-metrics` snapshots or hand-set row statistics
//!   into a sorted finite `name -> f64` map.
//! - [`HealthEngine`] ([`engine`]) — SRE-style multi-window burn-rate
//!   evaluation over logical ticks, producing deterministic
//!   [`HealthReport`]s and transition [`Alert`]s (the JSONL alert log);
//!   [`evaluate_frame`] judges one frame on its own into the [`Verdict`]
//!   that `campaign run|tournament --slo` writes under each row's `health`
//!   key.
//!
//! Determinism is the design constraint throughout: no wall clock, no
//! randomness, ordered maps, spec-ordered evaluation — the same token or
//! stream spec evaluated twice under the same SLO file produces
//! byte-identical verdicts and alert logs, so health reports are
//! replayable evidence, not ephemeral monitoring state.
//!
//! ```
//! use mdx_health::{HealthEngine, SignalFrame, SloSpec, Status};
//!
//! let spec = SloSpec::parse(
//!     "window fast=2 slow=6\n\
//!      objective no-deadlock deadlock_rate ceiling 0.01 budget=0.05\n",
//! )
//! .unwrap();
//! let mut engine = HealthEngine::new(spec);
//! let mut calm = SignalFrame::new(0);
//! calm.set("deadlock_rate", 0.0);
//! assert_eq!(engine.observe(&calm).status, Status::Pass);
//! let mut storm = SignalFrame::new(1);
//! storm.set("deadlock_rate", 1.0);
//! let report = engine.observe(&storm);
//! assert_eq!(report.status, Status::Breach);
//! assert_eq!(report.alerts[0].objective, "no-deadlock");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frame;
pub mod spec;

pub use engine::{
    evaluate_frame, Alert, HealthEngine, HealthReport, ObjectiveReport, Status, Verdict, Violation,
};
pub use frame::{histogram_quantile, SignalFrame};
pub use spec::{
    Direction, Objective, SloSpec, SpecError, DEFAULT_BUDGET, DEFAULT_FAST_BURN,
    DEFAULT_FAST_WINDOW, DEFAULT_SLOW_BURN, DEFAULT_SLOW_WINDOW,
};
