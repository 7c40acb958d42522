//! # mdx-sim
//!
//! A deterministic, cycle-level flit simulator for cut-through routing on
//! the SR2201 multi-dimensional crossbar (and on any other topology that
//! speaks the `mdx-core` [`Scheme`](mdx_core::Scheme) interface).
//!
//! ## Model
//!
//! * Time advances in cycles; a flit crosses at most one channel per cycle.
//! * Every directed channel doubles as the *output port* of its source
//!   switch. A packet's header requests its output ports; ports are granted
//!   one packet at a time (FIFO arbitration) and held until the packet's
//!   tail flit has crossed **and** the downstream buffer has drained — the
//!   cut-through channel holding that all three deadlock scenarios of the
//!   paper rest on.
//! * Each channel's downstream input buffer holds `buffer_flits` flits.
//!   Small values give wormhole behavior (a blocked packet strings across
//!   switches, holding every acquired port); values at least the packet
//!   length give virtual cut-through (blocked packets are absorbed).
//! * A multi-branch forward (broadcast fan-out) acquires its output ports
//!   *incrementally* as they free, but streams flits only when **all** are
//!   held — the acquisition pattern that produces the Fig. 5 broadcast
//!   deadlock.
//! * The scheme's serializing crossbar (the S-XB) *gathers* broadcast
//!   requests into a FIFO and re-emits them strictly one at a time (Fig. 6).
//! * A progress watchdog detects global stalls and extracts the cyclic wait
//!   from the packet wait-for graph, so experiments can *observe* the
//!   deadlocks of Figs. 5 and 9 and certify their absence under the paper's
//!   scheme (Fig. 10).
//!
//! Everything is deterministic: identical (schedule, config) inputs produce
//! identical traces; arbitration is FIFO with seeded same-cycle
//! tie-breaking and no other randomness lives inside the engine.
//!
//! ```
//! use mdx_core::{Header, Sr2201Routing};
//! use mdx_fault::FaultSet;
//! use mdx_sim::{InjectSpec, SimConfig, SimOutcome, Simulator};
//! use mdx_topology::{MdCrossbar, Shape};
//! use std::sync::Arc;
//!
//! let net = Arc::new(MdCrossbar::build(Shape::fig2()));
//! let shape = net.shape().clone();
//! let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
//! let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
//! sim.schedule(InjectSpec {
//!     src_pe: 0,
//!     header: Header::unicast(shape.coord_of(0), shape.coord_of(11)),
//!     flits: 8,
//!     inject_at: 0,
//! });
//! let result = sim.run();
//! assert_eq!(result.outcome, SimOutcome::Completed);
//! assert_eq!(result.packets[0].deliveries[0].0, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod engine;
pub mod observer;
pub mod result;
pub mod source;

pub use engine::{PhaseEnd, SimConfig, Simulator, VictimMode};
pub use observer::{
    first_wait_cycle, search_waits, EpochPhase, EventCounts, SimObserver, WaitChains, WaitSnapshot,
};
pub use result::{
    DeadlockInfo, EngineDiagnostic, EngineProfile, InjectSpec, PacketId, PacketOutcome,
    PacketResult, PhaseSplit, SimOutcome, SimResult, SimStats, SortedLatencies, WaitEdge,
    OCCUPANCY_BOUNDS, OCCUPANCY_BUCKETS,
};
pub use source::{ScheduleSource, TrafficSource};
