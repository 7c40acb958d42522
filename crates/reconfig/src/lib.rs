//! # mdx-reconfig — live reconfiguration for the SR2201 simulator
//!
//! The paper's fault model is static: the service processor derives the
//! fault registers *before* the machine boots, and the routing function
//! never changes while packets fly. The real SR2201 could not afford that —
//! a crossbar fails mid-job and the service processor must reprogram the
//! machine *around* live traffic. This crate models that lifecycle:
//!
//! 1. **Fault event** — a [`mdx_fault::FaultTimeline`] entry activates
//!    (`inject site @ cycle`, or `repair site @ cycle`). Packets touching
//!    the dead component are *wounded*; the engine handles them per the
//!    [`RecoveryPolicy`].
//! 2. **Detect** — the service processor notices after a modeled latency.
//! 3. **Quiesce** — the injection gate closes; no new packets enter.
//! 4. **Drain** — in-flight traffic runs until the network settles (empty,
//!    or motionless apart from paused victims).
//! 5. **Reprogram** — the clock advances by the modeled service-processor
//!    cost, the fault registers are re-derived, graph connectivity is
//!    re-validated, and the routing function is rebuilt for the new fault
//!    set. Routing decisions from here on carry a new **epoch** number.
//! 6. **Resume** — the gate reopens; victims re-enter per the policy
//!    (re-routed in place, reinjected at the source, or abandoned).
//!
//! Every phase boundary is timestamped into a [`ReconfigReport`], and the
//! [`TransitionChecker`] samples the wait graph across the transition
//! window into a [`TransitionReport`]: each routing function is
//! deadlock-free on its own, but a wait cycle mixing old-epoch and
//! new-epoch decisions would be a *transition* deadlock — the hazard the
//! drain phase exists to prevent, and the property this crate checks
//! rather than assumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod report;
mod spec;
mod transition;

pub use controller::{drive_reconfig, run_reconfig, ReconfigError, ReconfigOutcome};
pub use report::{EpochReport, ReconfigReport};
pub use spec::{ReconfigSpec, RecoveryPolicy};
pub use transition::{TransitionChecker, TransitionCycle, TransitionReport, TransitionViolation};
