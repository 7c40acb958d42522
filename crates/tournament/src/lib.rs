//! # mdx-tournament
//!
//! Cross-scheme tournaments over the routing-scheme zoo.
//!
//! The campaign crate answers "how does *this* scheme behave over a fault
//! grid?"; this crate answers "how do the schemes compare?" — including
//! schemes that live on different topologies. A [`TournamentSpec`] (a
//! small line grammar, [`TournamentSpec::parse`]) names the axes:
//!
//! * **schemes** — any subset of [`mdx_core::registry::SCHEME_IDS`];
//! * **topologies** — `(kind, shape)` pairs over
//!   [`mdx_topology::TOPOLOGY_IDS`];
//! * **fault classes** — canonical representative fault sets
//!   ([`FaultClass`]), not exhaustive site enumeration, so cells stay
//!   comparable across machines;
//! * **workloads** — shape-independent templates
//!   ([`WorkloadTemplate`]) materialized per topology.
//!
//! [`run_tournament`] expands the full cross product and pre-skips
//! impossible combinations (a scheme on the wrong topology, crossbar
//! faults off the crossbar machine) with explicit reasons. It then runs
//! every surviving cell's seeds, cell-major, through one
//! [`mdx_campaign::run_rows`] pass with latency pools and attribution
//! attached, so the workers stay busy across cell boundaries. The worker
//! that finishes a cell's last row reduces the cell to one
//! [`TournamentCell`] row while the others run on: deadlock rate,
//! throughput, pooled p50/p95/p99, blocked/detour latency shares, and —
//! for any cell that deadlocked — a shrunken replayable witness of its
//! lowest deadlocked seed from the existing minimizer. The whole table is
//! deterministic, whatever order rows finish in: same spec, same bytes.
//!
//! ```
//! use mdx_tournament::{run_tournament, TournamentSpec};
//!
//! let spec = TournamentSpec::parse(
//!     "scheme sr2201 naive-broadcast\n\
//!      topology mdx:3x3\n\
//!      faults none\n\
//!      workload storm flits=16\n\
//!      seeds 1\n\
//!      max-cycles 4000\n",
//! )
//! .unwrap();
//! let table = run_tournament(&spec);
//! assert_eq!(table.cells.len(), 2);
//! // The paper's scheme survives the storm; the unserialized one
//! // deadlocks and ships a minimized witness.
//! assert!(table.cells.iter().any(|c| c.deadlocks > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod run;
pub mod spec;

pub use run::{run_tournament, CellWitness, TournamentCell, TournamentResult};
pub use spec::{FaultClass, SpecError, TournamentSpec, WorkloadTemplate};
