//! The SR2201's deadlock-free fault-tolerant routing scheme (paper Secs. 3-5).
//!
//! One [`Sr2201Routing`] value implements all four RC-bit behaviors as
//! distributed per-switch decisions:
//!
//! * **RC=0 normal** — dimension-order routing. A router entering a faulty
//!   crossbar's dimension, or a crossbar whose required exit router is
//!   faulty, rewrites RC to 3 and steers the packet off its dimension-order
//!   path (detour initiation, Fig. 8 step 2).
//! * **RC=1 broadcast request** — routed across the non-first dimensions to
//!   the S-XB's line, then into the S-XB, which *gathers* it (Fig. 6
//!   step 1).
//! * **RC=2 broadcast** — emitted by the S-XB to all its routers; each
//!   router delivers locally and fans out to every dimension *later* in the
//!   dimension order than the one it received from (Fig. 6 steps 2-4;
//!   binomial fan-out generalizes the paper's 2D X-then-Y description).
//! * **RC=3 detour** — routed across the non-first dimensions to the D-XB's
//!   line, then into the D-XB, which rewrites RC back to 0; dimension-order
//!   routing resumes (Fig. 8 steps 3-5). *"The packet leaves no trace of the
//!   detour routing behind."*
//!
//! The scheme consults only per-switch fault registers ([`FaultRegisters`])
//! plus the global [`RoutingConfig`] — exactly the information the paper
//! allows the hardware.
//!
//! With `cfg.deadlock_free()` (D-XB = S-XB) this is the paper's proposed
//! scheme (Fig. 10); with [`RoutingConfig::with_separate_dxb`] it is the
//! deadlock-prone strawman of Fig. 9.

use crate::config::{ConfigError, RoutingConfig};
use crate::packet::{Header, RouteChange};
use crate::scheme::{Action, Branch, DropReason, Scheme};
use mdx_fault::{FaultRegisters, FaultSet};
use mdx_topology::{Coord, MdCrossbar, Node, XbarRef};
use std::sync::Arc;

/// The full SR2201 routing scheme.
#[derive(Debug, Clone)]
pub struct Sr2201Routing {
    net: Arc<MdCrossbar>,
    cfg: RoutingConfig,
    regs: FaultRegisters,
}

impl Sr2201Routing {
    /// Builds the scheme for a fault set, selecting the routing
    /// configuration with [`RoutingConfig::for_faults`].
    pub fn new(net: Arc<MdCrossbar>, faults: &FaultSet) -> Result<Sr2201Routing, ConfigError> {
        let cfg = RoutingConfig::for_faults(net.shape(), faults)?;
        Ok(Sr2201Routing::with_config(net, cfg, faults))
    }

    /// Builds the scheme with an explicit configuration (used by the
    /// experiments to force the Fig. 9 D-XB ≠ S-XB variant or a particular
    /// S-XB placement).
    pub fn with_config(
        net: Arc<MdCrossbar>,
        cfg: RoutingConfig,
        faults: &FaultSet,
    ) -> Sr2201Routing {
        let regs = FaultRegisters::derive(&net, faults);
        Sr2201Routing { net, cfg, regs }
    }

    /// The active routing configuration.
    pub fn config(&self) -> &RoutingConfig {
        &self.cfg
    }

    /// The network this scheme routes on.
    pub fn network(&self) -> &MdCrossbar {
        &self.net
    }

    fn coord_of(&self, pe: usize) -> Coord {
        self.net.shape().coord_of(pe)
    }

    fn router_node(&self, c: Coord) -> Node {
        Node::Router(self.net.shape().index_of(c))
    }

    fn xbar_through(&self, c: Coord, dim: usize) -> Node {
        Node::Xbar(self.net.xbar_through(c, dim))
    }

    /// The first dimension, in config order, where `c` differs from `dest`.
    fn first_mismatch(&self, c: Coord, dest: Coord) -> Option<usize> {
        self.cfg
            .order()
            .iter()
            .copied()
            .find(|&d| c.get(d) != dest.get(d))
    }

    /// Router decision for an RC=0 packet at coordinate `c`.
    fn router_normal(&self, r: usize, c: Coord, header: &Header) -> Action {
        match self.first_mismatch(c, header.dest) {
            None => {
                if self.regs.router_sees_pe_fault(r) {
                    Action::Drop(DropReason::DestinationFaulty)
                } else {
                    Action::Forward(vec![Branch {
                        to: Node::Pe(r),
                        header: *header,
                        vc: 0,
                    }])
                }
            }
            Some(dim) => {
                if self.regs.router_sees_xbar_fault(r, dim) {
                    // Detour initiation: the crossbar this packet needs is
                    // faulty. Head for the D-XB across the other dimensions.
                    self.router_detour_step(r, c, &header.with_rc(RouteChange::Detour), None)
                } else {
                    Action::Forward(vec![Branch {
                        to: self.xbar_through(c, dim),
                        header: *header,
                        vc: 0,
                    }])
                }
            }
        }
    }

    /// Router decision for an RC=3 packet: progress toward the D-XB line,
    /// avoiding an immediate bounce back into the dimension we arrived from
    /// (which would re-encounter the same faulty exit forever).
    fn router_detour_step(
        &self,
        r: usize,
        c: Coord,
        header: &Header,
        arrived_dim: Option<usize>,
    ) -> Action {
        let detour = self.cfg.detour_line();
        let mismatches: Vec<usize> = self.cfg.order()[1..]
            .iter()
            .copied()
            .filter(|&d| c.get(d) != detour.get(d))
            .collect();
        // Prefer a mismatching dimension other than the arrival one whose
        // crossbar is locally known-good.
        let candidate = mismatches
            .iter()
            .copied()
            .find(|&d| Some(d) != arrived_dim && !self.regs.router_sees_xbar_fault(r, d))
            .or_else(|| {
                mismatches
                    .iter()
                    .copied()
                    .find(|&d| !self.regs.router_sees_xbar_fault(r, d))
            });
        match candidate {
            Some(dim) => Action::Forward(vec![Branch {
                to: self.xbar_through(c, dim),
                header: *header,
                vc: 0,
            }]),
            None if mismatches.is_empty() => {
                // On the D-XB line: enter the D-XB itself.
                let first = self.cfg.order()[0];
                if self.regs.router_sees_xbar_fault(r, first) {
                    Action::Drop(DropReason::NoUsablePath)
                } else {
                    Action::Forward(vec![Branch {
                        to: self.xbar_through(c, first),
                        header: *header,
                        vc: 0,
                    }])
                }
            }
            None => Action::Drop(DropReason::NoUsablePath),
        }
    }

    /// Router decision for an RC=1 packet: progress toward the S-XB line,
    /// then into the S-XB.
    fn router_request(&self, r: usize, c: Coord, header: &Header) -> Action {
        let special = self.cfg.special_line();
        let next = self.cfg.order()[1..]
            .iter()
            .copied()
            .find(|&d| c.get(d) != special.get(d));
        let dim = match next {
            Some(d) => d,
            None => self.cfg.order()[0], // on the S-line: enter the S-XB
        };
        if self.regs.router_sees_xbar_fault(r, dim) {
            // A broadcast request has no detour protocol; configuration
            // guarantees this never happens under a single fault.
            return Action::Drop(DropReason::NoUsablePath);
        }
        Action::Forward(vec![Branch {
            to: self.xbar_through(c, dim),
            header: *header,
            vc: 0,
        }])
    }

    /// Router decision for an RC=2 packet arriving from the crossbar of
    /// `arrived_dim`: deliver locally and fan out to every later dimension.
    fn router_broadcast(&self, r: usize, c: Coord, header: &Header, arrived_dim: usize) -> Action {
        let ord = self.cfg.order();
        let k = ord
            .iter()
            .position(|&d| d == arrived_dim)
            .expect("arrival dimension is in the order");
        let mut branches = Vec::new();
        if !self.regs.router_sees_pe_fault(r) {
            branches.push(Branch {
                to: Node::Pe(r),
                header: *header,
                vc: 0,
            });
        }
        for &dim in &ord[k + 1..] {
            if !self.regs.router_sees_xbar_fault(r, dim) {
                branches.push(Branch {
                    to: self.xbar_through(c, dim),
                    header: *header,
                    vc: 0,
                });
            }
        }
        if branches.is_empty() {
            // Nothing to do (lone faulty PE leaf): drop silently.
            Action::Drop(DropReason::DestinationFaulty)
        } else {
            Action::Forward(branches)
        }
    }

    /// Crossbar decision for an RC=0 packet entering from the router at line
    /// position `in_pos`.
    fn xbar_normal(&self, xb: XbarRef, in_coord: Coord, header: &Header) -> Action {
        let dim = xb.dim as usize;
        let p = header.dest.get(dim);
        let exit = in_coord.with(dim, p);
        if !self.regs.xbar_sees_router_fault(xb, p) {
            return Action::Forward(vec![Branch {
                to: self.router_node(exit),
                header: *header,
                vc: 0,
            }]);
        }
        if exit == header.dest {
            return Action::Drop(DropReason::DestinationFaulty);
        }
        // Detour initiation at the crossbar (Fig. 8 step 2): exit at a
        // deterministic non-faulty detour router instead.
        match self.pick_detour_exit(xb, in_coord.get(dim), p) {
            Some(q) => Action::Forward(vec![Branch {
                to: self.router_node(in_coord.with(dim, q)),
                header: header.with_rc(RouteChange::Detour),
                vc: 0,
            }]),
            None => Action::Drop(DropReason::NoUsablePath),
        }
    }

    /// The deterministic detour exit: the first non-faulty position after
    /// the blocked one (cyclically), preferring not to bounce straight back
    /// to the entry router.
    fn pick_detour_exit(&self, xb: XbarRef, entry: u16, blocked: u16) -> Option<u16> {
        let extent = self.net.shape().extent(xb.dim as usize);
        let mut fallback = None;
        for step in 1..extent {
            let q = (blocked + step) % extent;
            if self.regs.xbar_sees_router_fault(xb, q) {
                continue;
            }
            if q == entry {
                fallback.get_or_insert(q);
                continue;
            }
            return Some(q);
        }
        fallback
    }

    /// Crossbar decision for an RC=1 packet.
    fn xbar_request(&self, xb: XbarRef, in_coord: Coord, header: &Header) -> Action {
        if xb == self.cfg.sxb() {
            return Action::Gather;
        }
        // En route to the S-line: exit toward the special-line coordinate.
        let dim = xb.dim as usize;
        let p = self.cfg.special_line().get(dim);
        if self.regs.xbar_sees_router_fault(xb, p) {
            return Action::Drop(DropReason::NoUsablePath);
        }
        Action::Forward(vec![Branch {
            to: self.router_node(in_coord.with(dim, p)),
            header: *header,
            vc: 0,
        }])
    }

    /// Crossbar decision for an RC=2 packet entering from position `entry`:
    /// fan out to every other attached router (skipping faulty ones — the
    /// hardware *"stops transmission of packets to the faulty PE"*).
    fn xbar_broadcast(&self, xb: XbarRef, in_coord: Coord, header: &Header) -> Action {
        let dim = xb.dim as usize;
        let entry = in_coord.get(dim);
        let extent = self.net.shape().extent(dim);
        let mut branches = Vec::new();
        for p in 0..extent {
            if p == entry || self.regs.xbar_sees_router_fault(xb, p) {
                continue;
            }
            branches.push(Branch {
                to: self.router_node(in_coord.with(dim, p)),
                header: *header,
                vc: 0,
            });
        }
        if branches.is_empty() {
            // Every other router on this line is out of service; nothing
            // left to fan to (silent non-delivery, like a faulty leaf PE).
            Action::Drop(DropReason::DestinationFaulty)
        } else {
            Action::Forward(branches)
        }
    }

    /// Crossbar decision for an RC=3 packet.
    fn xbar_detour(&self, xb: XbarRef, in_coord: Coord, header: &Header) -> Action {
        let dim = xb.dim as usize;
        if xb == self.cfg.dxb() {
            // The D-XB: rewrite RC back to normal and resume dimension-order
            // routing (Fig. 8 step 5). The exit is the destination's
            // coordinate in this (first) dimension — possibly a U-turn back
            // to the entry router when that coordinate already matches.
            let p = header.dest.get(dim);
            let exit = in_coord.with(dim, p);
            let restored = header.with_rc(RouteChange::Normal);
            if !self.regs.xbar_sees_router_fault(xb, p) {
                return Action::Forward(vec![Branch {
                    to: self.router_node(exit),
                    header: restored,
                    vc: 0,
                }]);
            }
            if exit == header.dest {
                return Action::Drop(DropReason::DestinationFaulty);
            }
            return match self.pick_detour_exit(xb, in_coord.get(dim), p) {
                Some(q) => Action::Forward(vec![Branch {
                    to: self.router_node(in_coord.with(dim, q)),
                    header: *header,
                    vc: 0,
                }]),
                None => Action::Drop(DropReason::NoUsablePath),
            };
        }
        // En route to the D-line: exit toward the detour-line coordinate,
        // skipping a faulty exit router if one is in the way.
        let p = self.cfg.detour_line().get(dim);
        if !self.regs.xbar_sees_router_fault(xb, p) {
            return Action::Forward(vec![Branch {
                to: self.router_node(in_coord.with(dim, p)),
                header: *header,
                vc: 0,
            }]);
        }
        match self.pick_detour_exit(xb, in_coord.get(dim), p) {
            Some(q) => Action::Forward(vec![Branch {
                to: self.router_node(in_coord.with(dim, q)),
                header: *header,
                vc: 0,
            }]),
            None => Action::Drop(DropReason::NoUsablePath),
        }
    }
}

impl Scheme for Sr2201Routing {
    fn name(&self) -> String {
        if self.cfg.deadlock_free() {
            format!("sr2201 (S-XB = D-XB = {})", self.cfg.sxb())
        } else {
            format!(
                "sr2201 fig9-variant (S-XB = {}, D-XB = {})",
                self.cfg.sxb(),
                self.cfg.dxb()
            )
        }
    }

    fn decide(&self, at: Node, came_from: Option<Node>, header: &Header) -> Action {
        match at {
            Node::Pe(p) => match came_from {
                // Injection: hand to the local router.
                None => Action::Forward(vec![Branch {
                    to: Node::Router(p),
                    header: *header,
                    vc: 0,
                }]),
                // Arrival: sink.
                Some(Node::Router(_)) => Action::Deliver,
                Some(_) => Action::Drop(DropReason::ProtocolViolation),
            },
            Node::Router(r) => {
                let c = self.coord_of(r);
                match header.rc {
                    RouteChange::Normal => self.router_normal(r, c, header),
                    RouteChange::BroadcastRequest => self.router_request(r, c, header),
                    RouteChange::Broadcast => match came_from {
                        Some(Node::Xbar(xb)) => {
                            self.router_broadcast(r, c, header, xb.dim as usize)
                        }
                        _ => Action::Drop(DropReason::ProtocolViolation),
                    },
                    RouteChange::Detour => {
                        let arrived = match came_from {
                            Some(Node::Xbar(xb)) => Some(xb.dim as usize),
                            _ => None,
                        };
                        self.router_detour_step(r, c, header, arrived)
                    }
                }
            }
            Node::Xbar(xb) => {
                let in_coord = match came_from {
                    Some(Node::Router(rin)) => self.coord_of(rin),
                    _ => return Action::Drop(DropReason::ProtocolViolation),
                };
                match header.rc {
                    RouteChange::Normal => self.xbar_normal(xb, in_coord, header),
                    RouteChange::BroadcastRequest => self.xbar_request(xb, in_coord, header),
                    RouteChange::Broadcast => self.xbar_broadcast(xb, in_coord, header),
                    RouteChange::Detour => self.xbar_detour(xb, in_coord, header),
                }
            }
        }
    }

    fn serializing_node(&self) -> Option<Node> {
        Some(Node::Xbar(self.cfg.sxb()))
    }

    fn detour_node(&self) -> Option<Node> {
        Some(Node::Xbar(self.cfg.dxb()))
    }

    fn emission(&self, header: &Header) -> Vec<Branch> {
        // Fig. 6 step 2: RC 'broadcast request' -> 'broadcast', transmitted
        // to every PE (router) connected to the S-XB.
        let sxb = self.cfg.sxb();
        let dim = sxb.dim as usize;
        let base = self.cfg.special_line();
        let emitted = header.with_rc(RouteChange::Broadcast);
        let shape = self.net.shape();
        let mut branches = Vec::new();
        for p in 0..shape.extent(dim) {
            if self.regs.xbar_sees_router_fault(sxb, p) {
                continue;
            }
            branches.push(Branch {
                to: self.router_node(base.with(dim, p)),
                header: emitted,
                vc: 0,
            });
        }
        branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_fault::FaultSite;
    use mdx_topology::Shape;

    fn scheme(faults: &FaultSet) -> Sr2201Routing {
        let net = Arc::new(MdCrossbar::build(Shape::fig2()));
        Sr2201Routing::new(net, faults).unwrap()
    }

    #[test]
    fn injection_goes_to_router() {
        let s = scheme(&FaultSet::none());
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[3, 2]));
        match s.decide(Node::Pe(0), None, &h) {
            Action::Forward(b) => {
                assert_eq!(b.len(), 1);
                assert_eq!(b[0].to, Node::Router(0));
                assert_eq!(b[0].header, h);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn normal_routing_is_dimension_order() {
        let s = scheme(&FaultSet::none());
        let src = Coord::new(&[0, 0]);
        let dst = Coord::new(&[3, 2]);
        let h = Header::unicast(src, dst);
        // Source router sends into its X crossbar first.
        match s.decide(Node::Router(0), Some(Node::Pe(0)), &h) {
            Action::Forward(b) => {
                assert_eq!(b[0].to, Node::Xbar(XbarRef { dim: 0, line: 0 }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The X crossbar exits at the destination column.
        match s.decide(
            Node::Xbar(XbarRef { dim: 0, line: 0 }),
            Some(Node::Router(0)),
            &h,
        ) {
            Action::Forward(b) => assert_eq!(b[0].to, Node::Router(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delivery_at_destination() {
        let s = scheme(&FaultSet::none());
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 0]));
        // At the destination router: forward to the PE.
        match s.decide(
            Node::Router(1),
            Some(Node::Xbar(XbarRef { dim: 0, line: 0 })),
            &h,
        ) {
            Action::Forward(b) => assert_eq!(b[0].to, Node::Pe(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            s.decide(Node::Pe(1), Some(Node::Router(1)), &h),
            Action::Deliver
        );
    }

    #[test]
    fn faulty_dest_pe_dropped_at_its_router() {
        let s = scheme(&FaultSet::single(FaultSite::Pe(1)));
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 0]));
        assert_eq!(
            s.decide(
                Node::Router(1),
                Some(Node::Xbar(XbarRef { dim: 0, line: 0 })),
                &h
            ),
            Action::Drop(DropReason::DestinationFaulty)
        );
    }

    #[test]
    fn xbar_detects_faulty_exit_and_sets_detour() {
        // Fig. 8: fault at router (1,0); packet (0,0) -> (1,1) must turn at
        // (1,0); the X crossbar rewrites RC to detour and exits elsewhere.
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 0]));
        let s = scheme(&FaultSet::single(FaultSite::Router(faulty)));
        let h = Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1]));
        match s.decide(
            Node::Xbar(XbarRef { dim: 0, line: 0 }),
            Some(Node::Router(0)),
            &h,
        ) {
            Action::Forward(b) => {
                assert_eq!(b.len(), 1);
                assert_eq!(b[0].header.rc, RouteChange::Detour);
                // Deterministic: the first non-faulty position after the
                // blocked one is x=2 (router index 2).
                assert_eq!(b[0].to, Node::Router(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dxb_resets_rc_to_normal() {
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 0]));
        let s = scheme(&FaultSet::single(FaultSite::Router(faulty)));
        let dxb = s.config().dxb();
        let detour_line = s.config().detour_line();
        let h =
            Header::unicast(Coord::new(&[0, 0]), Coord::new(&[1, 1])).with_rc(RouteChange::Detour);
        // Enter the D-XB from some router on its line.
        let entry = detour_line.with(0, 2);
        match s.decide(
            Node::Xbar(dxb),
            Some(Node::Router(shape.index_of(entry))),
            &h,
        ) {
            Action::Forward(b) => {
                assert_eq!(b[0].header.rc, RouteChange::Normal);
                let exit = detour_line.with(0, 1);
                assert_eq!(b[0].to, Node::Router(shape.index_of(exit)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn destination_router_fault_is_undeliverable() {
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 1]));
        let s = scheme(&FaultSet::single(FaultSite::Router(faulty)));
        // Packet whose destination IS the faulty router's PE: dropped at the
        // last crossbar.
        let h = Header::unicast(Coord::new(&[1, 0]), Coord::new(&[1, 1]));
        let yxb = XbarRef { dim: 1, line: 1 };
        assert_eq!(
            s.decide(Node::Xbar(yxb), Some(Node::Router(1)), &h),
            Action::Drop(DropReason::DestinationFaulty)
        );
    }

    #[test]
    fn broadcast_request_routes_to_sxb() {
        let s = scheme(&FaultSet::none());
        // S-XB is X0-XB (row 0). A request from (2, 2) first crosses its
        // Y crossbar toward row 0.
        let shape = Shape::fig2();
        let src = Coord::new(&[2, 2]);
        let r = shape.index_of(src);
        let h = Header::broadcast_request(src);
        match s.decide(Node::Router(r), Some(Node::Pe(r)), &h) {
            Action::Forward(b) => {
                assert_eq!(b[0].to, Node::Xbar(XbarRef { dim: 1, line: 2 }));
                assert_eq!(b[0].header.rc, RouteChange::BroadcastRequest);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The Y crossbar exits at row 0.
        match s.decide(
            Node::Xbar(XbarRef { dim: 1, line: 2 }),
            Some(Node::Router(r)),
            &h,
        ) {
            Action::Forward(b) => assert_eq!(b[0].to, Node::Router(2)),
            other => panic!("unexpected {other:?}"),
        }
        // The row-0 router pushes into the S-XB, which gathers.
        match s.decide(
            Node::Router(2),
            Some(Node::Xbar(XbarRef { dim: 1, line: 2 })),
            &h,
        ) {
            Action::Forward(b) => {
                assert_eq!(b[0].to, Node::Xbar(s.config().sxb()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            s.decide(Node::Xbar(s.config().sxb()), Some(Node::Router(2)), &h),
            Action::Gather
        );
    }

    #[test]
    fn emission_reaches_all_sxb_routers() {
        let s = scheme(&FaultSet::none());
        let h = Header::broadcast_request(Coord::new(&[2, 2]));
        let branches = s.emission(&h);
        assert_eq!(branches.len(), 4); // X0-XB row has 4 routers
        for b in &branches {
            assert_eq!(b.header.rc, RouteChange::Broadcast);
            assert!(matches!(b.to, Node::Router(r) if r < 4));
        }
    }

    #[test]
    fn broadcast_fanout_covers_later_dims_and_delivers() {
        let s = scheme(&FaultSet::none());
        let h = Header::broadcast_request(Coord::new(&[2, 2])).with_rc(RouteChange::Broadcast);
        // Router 1 = (1, 0) receives from the S-XB (dim 0): deliver + fan to
        // its Y crossbar.
        match s.decide(Node::Router(1), Some(Node::Xbar(s.config().sxb())), &h) {
            Action::Forward(b) => {
                assert_eq!(b.len(), 2);
                assert_eq!(b[0].to, Node::Pe(1));
                assert_eq!(b[1].to, Node::Xbar(XbarRef { dim: 1, line: 1 }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Leaf router (1, 2) receives from its Y crossbar (dim 1): deliver
        // only.
        let shape = Shape::fig2();
        let leaf = shape.index_of(Coord::new(&[1, 2]));
        match s.decide(
            Node::Router(leaf),
            Some(Node::Xbar(XbarRef { dim: 1, line: 1 })),
            &h,
        ) {
            Action::Forward(b) => {
                assert_eq!(b.len(), 1);
                assert_eq!(b[0].to, Node::Pe(leaf));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_skips_faulty_leaf_pe() {
        let shape = Shape::fig2();
        let leaf = shape.index_of(Coord::new(&[1, 2]));
        let s = scheme(&FaultSet::single(FaultSite::Pe(leaf)));
        let h = Header::broadcast_request(Coord::new(&[0, 0])).with_rc(RouteChange::Broadcast);
        assert_eq!(
            s.decide(
                Node::Router(leaf),
                Some(Node::Xbar(XbarRef { dim: 1, line: 1 })),
                &h
            ),
            Action::Drop(DropReason::DestinationFaulty)
        );
    }

    #[test]
    fn pick_detour_exit_prefers_not_bouncing_back() {
        let shape = Shape::fig2();
        let faulty = shape.index_of(Coord::new(&[1, 0]));
        let s = scheme(&FaultSet::single(FaultSite::Router(faulty)));
        let xb = XbarRef { dim: 0, line: 0 };
        // Entry x=0, blocked x=1: picks x=2 (not back to 0).
        assert_eq!(s.pick_detour_exit(xb, 0, 1), Some(2));
        // Entry x=2, blocked x=1: picks x=3? No - first after blocked is 2
        // (the entry), so it prefers 3.
        assert_eq!(s.pick_detour_exit(xb, 2, 1), Some(3));
    }

    #[test]
    fn name_distinguishes_variants() {
        let s = scheme(&FaultSet::none());
        assert!(s.name().contains("S-XB = D-XB"));
        let net = Arc::new(MdCrossbar::build(Shape::fig2()));
        let cfg = RoutingConfig::fault_free(Shape::fig2())
            .with_separate_dxb(&FaultSet::none())
            .unwrap();
        let v = Sr2201Routing::with_config(net, cfg, &FaultSet::none());
        assert!(v.name().contains("fig9"));
    }
}
