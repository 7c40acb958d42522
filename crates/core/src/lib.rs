//! # mdx-core
//!
//! The routing schemes of the Hitachi SR2201 multi-dimensional crossbar
//! network — the primary contribution of *"Deadlock-free Fault-tolerant
//! Routing in the Multi-dimensional Crossbar Network and Its Implementation
//! for the Hitachi SR2201"* (Yasuda et al., IPPS 1997).
//!
//! ## The protocol
//!
//! Every packet header carries a receiving address (one coordinate per
//! dimension) and a 2-bit **route change (RC)** field (paper Figs. 3, 4):
//!
//! | RC | meaning |
//! |----|---------------------------|
//! | 0  | normal routing            |
//! | 1  | broadcast request routing |
//! | 2  | broadcast routing         |
//! | 3  | detour routing            |
//!
//! Point-to-point packets travel in dimension order (X then Y). Broadcasts
//! are serialized through a designated crossbar, the **S-XB**: an RC=1
//! request is routed to the S-XB, queued there, and re-emitted with RC=2 to
//! every attached router, which fan it out across the remaining dimensions
//! (Y-X-Y routing, Fig. 6). When a switch is faulty, its neighbors' fault
//! registers steer affected packets with RC=3 to a designated **detour
//! crossbar (D-XB)** where RC is reset to 0 and dimension-order routing
//! resumes (Figs. 7, 8).
//!
//! The paper's deadlock-freedom result: broadcast (Y-X-Y) and detour
//! (X-Y-X-Y) each introduce one non-dimension-order turn; if the D-XB and
//! the S-XB are *different* crossbars the two turns can close a cyclic wait
//! (Fig. 9); making **D-XB = S-XB** serializes every non-dimension-order
//! turn at a single crossbar and eliminates deadlock (Fig. 10).
//!
//! ```
//! use mdx_core::{trace_unicast, Header, Sr2201Routing};
//! use mdx_fault::{FaultSet, FaultSite};
//! use mdx_topology::{Coord, MdCrossbar, Shape};
//! use std::sync::Arc;
//!
//! // Fig. 8: faulty router at (1,0); the packet detours via the D-XB.
//! let net = Arc::new(MdCrossbar::build(Shape::fig2()));
//! let faulty = net.shape().index_of(Coord::new(&[1, 0]));
//! let scheme = Sr2201Routing::new(net.clone(), &FaultSet::single(FaultSite::Router(faulty))).unwrap();
//! assert!(scheme.config().deadlock_free()); // D-XB = S-XB
//!
//! let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
//! let route = trace_unicast(&scheme, net.graph(), h, 0).unwrap();
//! assert!(route.used_detour());
//! ```
//!
//! ## Crate layout
//!
//! * [`packet`] — header and RC-bit encoding (Figs. 3, 4);
//! * [`scheme`] — the per-switch decision interface all schemes implement;
//! * [`config`] — S-XB / D-XB / dimension-order selection per fault set;
//! * [`sr2201`] — the full deadlock-free fault-tolerant scheme (and the
//!   Fig. 9 deadlock-prone D-XB ≠ S-XB variant, for the reproduction);
//! * [`naive`] — the unserialized broadcast that deadlocks (Fig. 5);
//! * [`trace`] — contention-free route walkers used by tests and analyses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conformance;
pub mod fullmesh;
pub mod hypercube_avoid;
pub mod hyperx_ft;
pub mod naive;
pub mod o1turn;
pub mod packet;
pub mod registry;
pub mod scheme;
pub mod sr2201;
pub mod trace;

pub use config::RoutingConfig;
pub use conformance::{check_scheme, ConformanceFamily, ConformanceReport};
pub use fullmesh::FullMeshVcFree;
pub use hypercube_avoid::HypercubeAvoid;
pub use hyperx_ft::HyperXFtRouting;
pub use naive::NaiveBroadcast;
pub use o1turn::O1TurnRouting;
pub use packet::{Header, Packet, RouteChange};
pub use registry::{build_scheme, build_scheme_for, required_topology, RegistryError, SCHEME_IDS};
pub use scheme::{Action, Branch, DropReason, Scheme};
pub use sr2201::Sr2201Routing;
pub use trace::{
    broadcast_walk, trace_broadcast, trace_unicast, walk, BroadcastTrace, Fanout, Hop, TraceError,
    UnicastTrace, Walk,
};
