//! # mdx-campaign
//!
//! Replayable experiment campaigns over the SR2201 routing reproduction.
//!
//! The crate turns the repo's one-off figure experiments into a general
//! instrument with three pieces:
//!
//! * [`Scenario`] — one fully-specified run (shape, scheme, faults,
//!   workload, seed, engine knobs) with a stable printed encoding, the
//!   `MDX1.` **token** ([`token`]). Any row of any campaign can be
//!   replayed bit-identically from its token alone.
//! * [`runner`] — grid enumeration (schemes × fault sets × workloads ×
//!   seeds), rayon-parallel execution on [`mdx_sim`], and aggregation into
//!   JSONL rows plus a per-scheme summary table.
//! * [`shrink`](mod@shrink) — a delta-debugging minimizer that reduces a
//!   deadlocking scenario (fewer packets, shorter packets, fewer faults,
//!   smaller shape) while preserving the deadlock, yielding a minimal
//!   witness with its wait-for-graph cycle.
//!
//! ```
//! use mdx_campaign::{run_scenario, Scenario, Workload};
//!
//! // Fig. 5 in one expression: simultaneous unserialized broadcasts.
//! let s = Scenario::new(
//!     vec![4, 3],
//!     "naive-broadcast",
//!     Workload::BroadcastStorm { sources: vec![0, 4, 8, 3, 7, 11], flits: 16 },
//!     0,
//! );
//! let report = run_scenario(&s).unwrap();
//! assert_eq!(report.outcome, "deadlock");
//! // `report.token` replays this exact run anywhere.
//! let again = run_scenario(&Scenario::from_token(&report.token).unwrap()).unwrap();
//! assert_eq!(again.digest, report.digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod meter;
pub mod runner;
pub mod scenario;
pub mod shrink;
pub mod token;

pub use diff::{
    diff_attribution, AttributionDiff, DiffError, DiffSide, PhaseShift, DEFAULT_DIFF_THRESHOLD,
};
pub use meter::{CampaignMeter, EngineMeter, RowProfile};
pub use runner::{
    enumerate_fault_sets, enumerate_scenarios, fnv1a64, push_engine_spans, run_campaign,
    run_campaign_traced, run_campaign_with, run_rows, run_scenario, run_scenario_instrumented,
    CampaignConfig, CampaignError, CampaignResult, Fnv1a, ObsOptions, RowAttribution, RowStream,
    RowTelemetry, ScenarioReport, Telemetry, WorkloadKind, CAMPAIGN_SCHEMES,
};
pub use scenario::{detour_stress_for, Scenario, ScenarioError, Workload};
pub use shrink::{shrink, ShrinkError, ShrinkReport};
pub use token::{TokenError, TOKEN_PREFIX};
