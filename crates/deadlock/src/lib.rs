//! # mdx-deadlock
//!
//! Static deadlock analysis for routing schemes on the multi-dimensional
//! crossbar, in the tradition of Dally & Seitz's channel-dependency-graph
//! criterion, extended for the *AND-acquisition* of hardware multicast
//! (cf. Boppana, Chalasani & Ni, *Resource Deadlocks and Performance of
//! Wormhole Multicast Routing Algorithms*, IEEE TPDS 1998 — the theory the
//! paper's reference list draws on).
//!
//! ## Model
//!
//! Every *communication instance* (one unicast, one broadcast-request leg,
//! one broadcast emission fan) claims a rooted **tree of channels**: the
//! channels a cut-through packet acquires, holding each from grant to tail
//! passage. From each tree we derive the possible **hold → wait** pairs:
//!
//! * a channel `a` can be held while waiting for channel `b` unless `b` is
//!   one of `a`'s *prerequisites* — an ancestor of `a`, or a sibling of an
//!   ancestor (those are all fully acquired before `a` can be granted,
//!   because a multi-port fan streams only after acquiring every port);
//! * `a`'s own siblings are **not** prerequisites: ports of one fan are
//!   acquired incrementally, which is exactly the Fig. 5 mechanism.
//!
//! The union of these hold→wait relations over every instance a workload
//! can create is the **wait graph**. If it is acyclic, no cyclic hold-wait
//! can form and the scheme is deadlock-free for that workload family
//! (conservative in the safe direction). A cycle is a *potential* deadlock,
//! which the experiments then confirm or refute in the cycle-level
//! simulator.
//!
//! The S-XB's serialization queue decouples the request leg from the
//! emission fan: a gathered request releases all its channels before the
//! emission claims any, so they are independent instances.
//!
//! The claim trees are read from [`mdx_core::trace::walk`], the one walk of
//! a scheme's decisions that the route tracers read too: a unicast is the
//! walk's chain of hops, a serialized broadcast splits at the gather into
//! the request leg and the emission (re-rooted at the S-XB's ports). This
//! crate is the static half of the deadlock story only; the engine's live
//! wait snapshots are searched by `mdx_sim::search_waits`.

//! ```
//! use mdx_core::Sr2201Routing;
//! use mdx_deadlock::{verify_scheme, waitgraph::TrafficFamily};
//! use mdx_fault::FaultSet;
//! use mdx_topology::{MdCrossbar, Shape};
//! use std::sync::Arc;
//!
//! let net = Arc::new(MdCrossbar::build(Shape::fig2()));
//! let scheme = Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap();
//! let verdict = verify_scheme(&net, &scheme, &FaultSet::none(), TrafficFamily::all());
//! assert!(verdict.report.deadlock_free());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod waitgraph;

pub use claims::{broadcast_claims, unicast_claims, ClaimTree};
pub use waitgraph::{analyze_trees, verify_scheme, CdgReport, SchemeVerdict};
