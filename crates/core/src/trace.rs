//! The contention-free walk of a scheme's decisions.
//!
//! [`walk`] executes a scheme's per-switch decisions over the network graph
//! without modeling time or channel occupancy — it answers *where a packet
//! goes*, not *when*. Every hop is validated against the channel graph, so a
//! scheme that tries to forward between non-adjacent switches is caught
//! immediately. The route tracers here read their results from it, and so
//! do the claim trees of the static deadlock analysis (`mdx-deadlock`). The
//! cycle-level behavior (blocking, deadlock) lives in `mdx-sim`.

use crate::packet::{Header, RouteChange};
use crate::scheme::{Action, DropReason, Scheme};
use mdx_topology::{ChannelId, Coord, NetworkGraph, Node};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// One hop of a traced route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The switch the packet arrived at.
    pub node: Node,
    /// The RC field of the header as it arrived there.
    pub rc: RouteChange,
}

/// Why a trace could not complete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceError {
    /// The scheme dropped the packet.
    Dropped(DropReason),
    /// A branch pointed at a switch that is not a graph neighbor (scheme
    /// bug).
    NotAdjacent {
        /// Switch the decision was made at.
        from: String,
        /// Requested (non-adjacent) target.
        to: String,
    },
    /// A unicast decision produced zero or several branches.
    NotUnicast(usize),
    /// The walk exceeded the hop budget — a routing livelock.
    Livelock,
    /// A `Gather` occurred somewhere other than the scheme's serializing
    /// node, or during a unicast trace.
    UnexpectedGather,
    /// `Deliver` fired away from a PE node.
    BadDeliver,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Dropped(r) => write!(f, "dropped: {r}"),
            TraceError::NotAdjacent { from, to } => {
                write!(f, "scheme forwarded from {from} to non-neighbor {to}")
            }
            TraceError::NotUnicast(n) => write!(f, "unicast produced {n} branches"),
            TraceError::Livelock => write!(f, "hop budget exceeded (livelock)"),
            TraceError::UnexpectedGather => write!(f, "unexpected gather"),
            TraceError::BadDeliver => write!(f, "deliver away from a PE"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A completed point-to-point route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnicastTrace {
    /// Every switch visited, source PE first, destination PE last.
    pub steps: Vec<TraceStep>,
}

impl UnicastTrace {
    /// Number of shared-crossbar traversals (the paper counts distance in
    /// crossbar hops).
    pub fn xbar_hops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.node, Node::Xbar(_)))
            .count()
    }

    /// Whether the route ever entered detour mode.
    pub fn used_detour(&self) -> bool {
        self.steps.iter().any(|s| s.rc == RouteChange::Detour)
    }

    /// The visited nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.steps.iter().map(|s| s.node)
    }

    /// Renders the route like the paper's step lists
    /// (`PE1 -> R1 -> X0-XB -> ...`).
    pub fn pretty(&self) -> String {
        self.steps
            .iter()
            .map(|s| match s.rc {
                RouteChange::Normal => s.node.to_string(),
                rc => format!("{}[{}]", s.node, rc),
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// How a walk treats each decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// A point-to-point packet: every decision forwards on exactly one
    /// branch until a PE takes delivery, and any drop or gather is an
    /// error.
    Unicast,
    /// A broadcast: decisions may fan out, a leaf at a faulty PE is a
    /// silent non-delivery, and the scheme's serializing node gathers the
    /// request once and re-emits it ([`Scheme::emission`]).
    Broadcast,
}

/// One channel a walk crossed: a branch of the decision made at `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The switch the decision was made at.
    pub from: Node,
    /// The switch the branch leads to.
    pub to: Node,
    /// The channel from `from` to `to`.
    pub channel: ChannelId,
    /// The virtual lane the branch takes on `channel`.
    pub vc: u8,
    /// The header as the branch carries it (after `from`'s rewrite).
    pub header: Header,
    /// The hop that carried the packet to `from`: `None` for the
    /// injection and for the ports of the S-XB emission, which the
    /// serialization queue feeds.
    pub parent: Option<usize>,
    /// The decision this hop is a branch of: hops that share it are the
    /// ports of one multi-port forward.
    pub fan: usize,
}

/// Everything one walk covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// Every channel crossed, in breadth-first order.
    pub hops: Vec<Hop>,
    /// PEs that took delivery, in visit order; a PE delivered twice is
    /// listed twice.
    pub delivered: Vec<usize>,
    /// When the walk gathered at the serializing node: the index of the
    /// emission's first port in `hops`. The hops before it are the request
    /// leg; the emission is every hop from it on.
    pub gather: Option<usize>,
}

/// Walks a packet injected at `src_pe` with `header`, breadth first,
/// following `scheme`'s decisions over `g`: the one walk behind the route
/// tracers here and the claim trees of the static deadlock analysis.
///
/// Every branch is checked against the channel graph. The walk stops with
/// [`TraceError::Livelock`] after `8 * channels + 64` decisions, more than
/// any legal route or fan-out takes.
pub fn walk(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    src_pe: usize,
    header: Header,
    fanout: Fanout,
) -> Result<Walk, TraceError> {
    // Room for a dimension-order route on up to three dimensions without
    // regrowth; longer walks grow as usual.
    let mut walk = Walk {
        hops: Vec::with_capacity(8),
        ..Walk::default()
    };
    let mut fans = 0usize;
    // The decisions still to make: the injection (`None`), then the far
    // end of each hop in the order the hops were crossed.
    let mut queue: VecDeque<Option<usize>> = VecDeque::from([None]);
    let budget = 8 * g.num_channels() + 64;
    let mut decisions = 0usize;
    while let Some(parent) = queue.pop_front() {
        decisions += 1;
        if decisions > budget {
            return Err(TraceError::Livelock);
        }
        let (at, came_from, h) = match parent {
            None => (Node::Pe(src_pe), None, header),
            Some(i) => {
                let hop = &walk.hops[i];
                (hop.to, Some(hop.from), hop.header)
            }
        };
        let (branches, parent) = match scheme.decide(at, came_from, &h) {
            Action::Deliver => {
                let Node::Pe(p) = at else {
                    return Err(TraceError::BadDeliver);
                };
                walk.delivered.push(p);
                continue;
            }
            Action::Forward(branches) => {
                if fanout == Fanout::Unicast && branches.len() != 1 {
                    return Err(TraceError::NotUnicast(branches.len()));
                }
                (branches, parent)
            }
            Action::Gather => {
                if fanout == Fanout::Unicast
                    || walk.gather.is_some()
                    || Some(at) != scheme.serializing_node()
                {
                    return Err(TraceError::UnexpectedGather);
                }
                walk.gather = Some(walk.hops.len());
                (scheme.emission(&h), None)
            }
            Action::Drop(DropReason::DestinationFaulty) if fanout == Fanout::Broadcast => continue,
            Action::Drop(r) => return Err(TraceError::Dropped(r)),
        };
        let fan = fans;
        fans += 1;
        for b in branches {
            let channel = g
                .id_of(at)
                .zip(g.id_of(b.to))
                .and_then(|(a, z)| g.channel_between(a, z))
                .ok_or_else(|| TraceError::NotAdjacent {
                    from: at.to_string(),
                    to: b.to.to_string(),
                })?;
            queue.push_back(Some(walk.hops.len()));
            walk.hops.push(Hop {
                from: at,
                to: b.to,
                channel,
                vc: b.vc,
                header: b.header,
                parent,
                fan,
            });
        }
    }
    Ok(walk)
}

/// Walks a broadcast from `src_pe`: an RC=1 request for schemes with a
/// serializing node (which gathers it and emits the fan-out), or an RC=2
/// packet for direct schemes like [`crate::NaiveBroadcast`].
pub fn broadcast_walk(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    src_pe: usize,
    src_coord: Coord,
) -> Result<Walk, TraceError> {
    let header = if scheme.serializing_node().is_some() {
        Header::broadcast_request(src_coord)
    } else {
        Header {
            rc: RouteChange::Broadcast,
            dest: src_coord,
            src: src_coord,
        }
    };
    walk(scheme, g, src_pe, header, Fanout::Broadcast)
}

/// Walks a point-to-point packet from `src_pe` under `scheme`.
pub fn trace_unicast(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    header: Header,
    src_pe: usize,
) -> Result<UnicastTrace, TraceError> {
    let walk = walk(scheme, g, src_pe, header, Fanout::Unicast)?;
    let first = TraceStep {
        node: Node::Pe(src_pe),
        rc: header.rc,
    };
    let steps = std::iter::once(first)
        .chain(walk.hops.iter().map(|h| TraceStep {
            node: h.to,
            rc: h.header.rc,
        }))
        .collect();
    Ok(UnicastTrace { steps })
}

/// A completed broadcast fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastTrace {
    /// PEs that received the packet, in visit order.
    pub delivered: Vec<usize>,
    /// Every (from, to) switch edge the broadcast crossed.
    pub edges: Vec<(Node, Node)>,
    /// Whether the packet passed through the serializing crossbar.
    pub gathered: bool,
    /// PEs delivered more than once (always empty for a correct scheme).
    pub duplicates: Vec<usize>,
}

/// Walks a broadcast from `src_pe` (see [`broadcast_walk`]).
pub fn trace_broadcast(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    src_pe: usize,
    src_coord: Coord,
) -> Result<BroadcastTrace, TraceError> {
    let walk = broadcast_walk(scheme, g, src_pe, src_coord)?;
    let mut seen = HashSet::new();
    let (delivered, duplicates) = walk.delivered.into_iter().partition(|&p| seen.insert(p));
    Ok(BroadcastTrace {
        delivered,
        edges: walk.hops.iter().map(|h| (h.from, h.to)).collect(),
        gathered: walk.gather.is_some(),
        duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NaiveBroadcast, Sr2201Routing};
    use mdx_fault::{enumerate_single_faults, FaultSet, FaultSite};
    use mdx_topology::{Coord, MdCrossbar, Shape};
    use std::sync::Arc;

    fn net() -> Arc<MdCrossbar> {
        Arc::new(MdCrossbar::build(Shape::fig2()))
    }

    fn sr2201(faults: &FaultSet) -> Sr2201Routing {
        Sr2201Routing::new(net(), faults).unwrap()
    }

    #[test]
    fn fault_free_unicast_all_pairs() {
        let s = sr2201(&FaultSet::none());
        let shape = Shape::fig2();
        for src in 0..12 {
            for dst in 0..12 {
                let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                let t = trace_unicast(&s, s.network().graph(), h, src).unwrap();
                assert_eq!(t.steps.last().unwrap().node, Node::Pe(dst));
                assert_eq!(
                    t.xbar_hops(),
                    shape.xbar_hops(shape.coord_of(src), shape.coord_of(dst))
                );
                assert!(!t.used_detour());
            }
        }
    }

    #[test]
    fn fig8_detour_route_matches_paper() {
        // Fig. 8 (0-indexed): source (0,0), destination (1,1), faulty router
        // (1,0). Steps: source row crossbar detects the faulty exit, detours
        // to (2,0), crosses its Y crossbar to the D-row, passes the D-XB
        // (which resets RC), then X-Y routes to the destination.
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 0]));
        let s = sr2201(&FaultSet::single(FaultSite::Router(faulty)));
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
        let t = trace_unicast(&s, s.network().graph(), h, 0).unwrap();
        assert!(t.used_detour(), "route: {}", t.pretty());
        assert_eq!(
            t.steps.last().unwrap().node,
            Node::Pe(shape.index_of(Coord::new(&[1, 1])))
        );
        // The D-XB (= S-XB) must appear on the route.
        let dxb = Node::Xbar(s.config().dxb());
        assert!(t.nodes().any(|n| n == dxb), "route: {}", t.pretty());
        // After the D-XB the RC field is back to normal.
        let pos = t.steps.iter().position(|st| st.node == dxb).unwrap();
        assert_eq!(t.steps[pos].rc, RouteChange::Detour);
        for st in &t.steps[pos + 1..] {
            assert_eq!(st.rc, RouteChange::Normal, "route: {}", t.pretty());
        }
    }

    #[test]
    fn all_single_faults_all_pairs_delivered() {
        // The facility's core guarantee: under any single fault, every
        // usable pair is still delivered (matching graph reachability).
        let network = net();
        let shape = network.shape().clone();
        for site in enumerate_single_faults(&network) {
            let faults = FaultSet::single(site);
            let s = Sr2201Routing::new(network.clone(), &faults).unwrap();
            for src in 0..12 {
                for dst in 0..12 {
                    if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                        continue;
                    }
                    let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    let t = trace_unicast(&s, network.graph(), h, src)
                        .unwrap_or_else(|e| panic!("{site}: {src}->{dst}: {e}"));
                    assert_eq!(t.steps.last().unwrap().node, Node::Pe(dst));
                }
            }
        }
    }

    #[test]
    fn detour_routes_pass_the_dxb() {
        // Whenever a route detours, it must pass the D-XB — the serialization
        // property the deadlock-freedom argument rests on.
        let network = net();
        let shape = network.shape().clone();
        for site in enumerate_single_faults(&network) {
            let faults = FaultSet::single(site);
            let s = Sr2201Routing::new(network.clone(), &faults).unwrap();
            let dxb = Node::Xbar(s.config().dxb());
            for src in 0..12 {
                for dst in 0..12 {
                    if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                        continue;
                    }
                    let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    let t = trace_unicast(&s, network.graph(), h, src).unwrap();
                    if t.used_detour() {
                        assert!(t.nodes().any(|n| n == dxb), "{site}: {}", t.pretty());
                    }
                }
            }
        }
    }

    #[test]
    fn sxb_broadcast_delivers_everywhere_once() {
        let s = sr2201(&FaultSet::none());
        let shape = Shape::fig2();
        for src in 0..12 {
            let t = trace_broadcast(&s, s.network().graph(), src, shape.coord_of(src)).unwrap();
            assert!(t.gathered);
            assert_eq!(t.delivered.len(), 12, "src {src}");
            assert!(t.duplicates.is_empty(), "src {src}: {:?}", t.duplicates);
        }
    }

    #[test]
    fn naive_broadcast_delivers_everywhere_once() {
        // Contention-free, the naive fan-out also covers everyone — its
        // problem is deadlock under concurrency, not coverage.
        let n = NaiveBroadcast::new(net());
        let shape = Shape::fig2();
        for src in 0..12 {
            let t = trace_broadcast(&n, n.network().graph(), src, shape.coord_of(src)).unwrap();
            assert!(!t.gathered);
            assert_eq!(t.delivered.len(), 12);
            assert!(t.duplicates.is_empty());
        }
    }

    #[test]
    fn broadcast_under_any_single_fault_covers_survivors() {
        let network = net();
        let shape = network.shape().clone();
        for site in enumerate_single_faults(&network) {
            let faults = FaultSet::single(site);
            let s = Sr2201Routing::new(network.clone(), &faults).unwrap();
            for src in 0..12 {
                if !faults.pe_usable(src) {
                    continue;
                }
                let t = trace_broadcast(&s, network.graph(), src, shape.coord_of(src))
                    .unwrap_or_else(|e| panic!("{site}, src {src}: {e}"));
                let expect: Vec<usize> = (0..12).filter(|&p| faults.pe_usable(p)).collect();
                let mut got = t.delivered.clone();
                got.sort_unstable();
                assert_eq!(got, expect, "{site}, src {src}");
                assert!(t.duplicates.is_empty(), "{site}, src {src}");
            }
        }
    }

    #[test]
    fn broadcast_request_is_y_then_x_fanout() {
        // The paper's Y-X-Y shape: a request from (2,2) must not use any
        // X-dimension crossbar other than the S-XB.
        let s = sr2201(&FaultSet::none());
        let shape = Shape::fig2();
        let src = shape.index_of(Coord::new(&[2, 2]));
        let t = trace_broadcast(&s, s.network().graph(), src, Coord::new(&[2, 2])).unwrap();
        let sxb = s.config().sxb();
        for (a, b) in &t.edges {
            for n in [a, b] {
                if let Node::Xbar(x) = n {
                    if x.dim == 0 {
                        assert_eq!(*x, sxb, "unexpected X crossbar {x} in broadcast");
                    }
                }
            }
        }
    }

    #[test]
    fn three_dimensional_broadcast_and_unicast() {
        let network = Arc::new(MdCrossbar::build(Shape::new(&[4, 3, 2]).unwrap()));
        let shape = network.shape().clone();
        let s = Sr2201Routing::new(network.clone(), &FaultSet::none()).unwrap();
        // Unicast across all three dimensions.
        let h = Header::unicast(shape.coord_of(0), shape.coord_of(23));
        let t = trace_unicast(&s, network.graph(), h, 0).unwrap();
        assert_eq!(t.xbar_hops(), 3);
        // Broadcast covers all 24 PEs exactly once.
        let t = trace_broadcast(&s, network.graph(), 5, shape.coord_of(5)).unwrap();
        assert_eq!(t.delivered.len(), 24);
        assert!(t.duplicates.is_empty());
    }

    #[test]
    fn three_dimensional_single_faults_delivered() {
        let network = Arc::new(MdCrossbar::build(Shape::new(&[3, 3, 2]).unwrap()));
        let shape = network.shape().clone();
        let n = shape.num_pes();
        for site in enumerate_single_faults(&network) {
            let faults = FaultSet::single(site);
            let s = Sr2201Routing::new(network.clone(), &faults).unwrap();
            for src in 0..n {
                if !faults.pe_usable(src) {
                    continue;
                }
                // Broadcast coverage.
                let t = trace_broadcast(&s, network.graph(), src, shape.coord_of(src))
                    .unwrap_or_else(|e| panic!("{site}, bc src {src}: {e}"));
                assert_eq!(
                    t.delivered.len(),
                    (0..n).filter(|&p| faults.pe_usable(p)).count(),
                    "{site}, src {src}"
                );
                // Unicast delivery.
                for dst in 0..n {
                    if src == dst || !faults.pe_usable(dst) {
                        continue;
                    }
                    let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    let t = trace_unicast(&s, network.graph(), h, src)
                        .unwrap_or_else(|e| panic!("{site}: {src}->{dst}: {e}"));
                    assert_eq!(t.steps.last().unwrap().node, Node::Pe(dst));
                }
            }
        }
    }

    #[test]
    fn four_and_five_dimensional_networks_route_and_broadcast() {
        // The schemes are d-generic; exercise d=4 and d=5 (hypercube-like
        // extents) end to end.
        for dims in [&[2u16, 2, 2, 2][..], &[2, 2, 2, 2, 2]] {
            let network = Arc::new(MdCrossbar::build(Shape::new(dims).unwrap()));
            let shape = network.shape().clone();
            let n = shape.num_pes();
            let s = Sr2201Routing::new(network.clone(), &FaultSet::none()).unwrap();
            // Farthest pair crosses every dimension.
            let h = Header::unicast(shape.coord_of(0), shape.coord_of(n - 1));
            let t = trace_unicast(&s, network.graph(), h, 0).unwrap();
            assert_eq!(t.xbar_hops(), dims.len());
            // Broadcast covers all PEs once.
            let bt = trace_broadcast(&s, network.graph(), 1, shape.coord_of(1)).unwrap();
            assert_eq!(bt.delivered.len(), n);
            assert!(bt.duplicates.is_empty());
            // Fault tolerance still holds with a mid-lattice router fault.
            let faults = FaultSet::single(FaultSite::Router(n / 2));
            let s = Sr2201Routing::new(network.clone(), &faults).unwrap();
            for src in 0..n {
                if !faults.pe_usable(src) {
                    continue;
                }
                for dst in 0..n {
                    if src == dst || !faults.pe_usable(dst) {
                        continue;
                    }
                    let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    let t = trace_unicast(&s, network.graph(), h, src)
                        .unwrap_or_else(|e| panic!("{dims:?} {src}->{dst}: {e}"));
                    assert_eq!(t.steps.last().unwrap().node, Node::Pe(dst));
                }
            }
        }
    }

    #[test]
    fn the_walk_roots_the_emission_at_the_gather() {
        // A request from (3,2) climbs PE->R, R->Y3, Y3->R(3,0), R->S-XB,
        // then the S-XB emits one fan of 4 ports with no parent.
        let s = sr2201(&FaultSet::none());
        let shape = Shape::fig2();
        let w = broadcast_walk(&s, s.network().graph(), 11, shape.coord_of(11)).unwrap();
        let at = w.gather.expect("the request gathers");
        assert_eq!(at, 4);
        for (i, h) in w.hops[..at].iter().enumerate() {
            assert_eq!((h.parent, h.fan), (i.checked_sub(1), i));
            assert_eq!(h.header.rc, RouteChange::BroadcastRequest);
        }
        let ports = &w.hops[at..at + 4];
        assert!(ports
            .iter()
            .all(|h| h.parent.is_none() && h.fan == at && h.from == Node::Xbar(s.config().sxb())));
        assert!(w.hops[at + 4..].iter().all(|h| h.parent >= Some(at)));
        assert_eq!(w.delivered.len(), 12);
    }

    #[test]
    fn a_unicast_walk_refuses_a_fan_out() {
        let n = NaiveBroadcast::new(net());
        let h = Header {
            rc: RouteChange::Broadcast,
            ..Header::unicast(Coord::new(&[0, 0]), Coord::new(&[0, 0]))
        };
        assert!(matches!(
            walk(&n, n.network().graph(), 0, h, Fanout::Unicast),
            Err(TraceError::NotUnicast(_))
        ));
    }

    #[test]
    fn dropped_packets_report_reason() {
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 1]));
        let s = sr2201(&FaultSet::single(FaultSite::Router(faulty)));
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
        match trace_unicast(&s, s.network().graph(), h, 0) {
            Err(TraceError::Dropped(DropReason::DestinationFaulty)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
