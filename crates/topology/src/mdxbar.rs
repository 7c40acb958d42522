//! Construction of the SR2201 multi-dimensional crossbar network.

use crate::coord::{Coord, Shape};
use crate::graph::{ChannelId, GraphBuilder, NetworkGraph, Node, NodeId, XbarRef};

/// The multi-dimensional crossbar network of the SR2201 (paper Sec. 3.1).
///
/// For a shape `n1 x n2 x ... x nd`:
///
/// * each PE owns a router (relay switch), wired PE <-> router;
/// * each of the `d` dimensions contributes `n / n_i` crossbars, one per
///   lattice line, and each router is wired to the `d` crossbars of the lines
///   through its coordinate;
/// * a crossbar of dimension `i` therefore has `n_i` bidirectional ports, one
///   per router on its line, and routers have `d + 1` ports (the paper's
///   `(d+1) x (d+1)` relay switch: `d` crossbars plus the PE itself).
#[derive(Debug, Clone)]
pub struct MdCrossbar {
    shape: Shape,
    graph: NetworkGraph,
}

impl MdCrossbar {
    /// Builds the network for `shape`.
    pub fn build(shape: Shape) -> MdCrossbar {
        let mut b = GraphBuilder::new();
        // PEs and routers first, in PE-index order so that NodeId arithmetic
        // is never needed — lookups go through the node index.
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            b.add_node(Node::Pe(i), Some(c));
            b.add_node(Node::Router(i), Some(c));
        }
        for dim in 0..shape.d() {
            for line in 0..shape.lines_in_dim(dim) {
                b.add_node(
                    Node::Xbar(XbarRef {
                        dim: dim as u8,
                        line: line as u32,
                    }),
                    None,
                );
            }
        }
        // PE <-> router links.
        for i in 0..shape.num_pes() {
            let pe = Node::Pe(i);
            let r = Node::Router(i);
            let (pe_id, r_id) = (
                b.add_node(pe, Some(shape.coord_of(i))),
                b.add_node(r, Some(shape.coord_of(i))),
            );
            b.add_link(pe_id, r_id);
        }
        // Router <-> crossbar links.
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            let r_id = b.add_node(Node::Router(i), Some(c));
            for dim in 0..shape.d() {
                let xb = Node::Xbar(XbarRef {
                    dim: dim as u8,
                    line: shape.line_of(c, dim) as u32,
                });
                let xb_id = b.add_node(xb, None);
                b.add_link(r_id, xb_id);
            }
        }
        MdCrossbar {
            shape,
            graph: b.build(),
        }
    }

    /// The lattice shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The underlying channel graph.
    #[inline]
    pub fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    /// Node id of PE `i`.
    pub fn pe(&self, i: usize) -> NodeId {
        self.graph.expect_id(Node::Pe(i))
    }

    /// Node id of the PE at coordinate `c`.
    pub fn pe_at(&self, c: Coord) -> NodeId {
        self.pe(self.shape.index_of(c))
    }

    /// Node id of router `i`.
    pub fn router(&self, i: usize) -> NodeId {
        self.graph.expect_id(Node::Router(i))
    }

    /// Node id of the router at coordinate `c`.
    pub fn router_at(&self, c: Coord) -> NodeId {
        self.router(self.shape.index_of(c))
    }

    /// Node id of a crossbar.
    pub fn xbar(&self, xb: XbarRef) -> NodeId {
        self.graph.expect_id(Node::Xbar(xb))
    }

    /// The crossbar of dimension `dim` whose line passes through `c`.
    pub fn xbar_through(&self, c: Coord, dim: usize) -> XbarRef {
        XbarRef {
            dim: dim as u8,
            line: self.shape.line_of(c, dim) as u32,
        }
    }

    /// All crossbars, ordered by dimension then line.
    pub fn xbars(&self) -> Vec<XbarRef> {
        let mut v = Vec::new();
        for dim in 0..self.shape.d() {
            for line in 0..self.shape.lines_in_dim(dim) {
                v.push(XbarRef {
                    dim: dim as u8,
                    line: line as u32,
                });
            }
        }
        v
    }

    /// Total number of crossbars across all dimensions.
    pub fn num_xbars(&self) -> usize {
        (0..self.shape.d())
            .map(|d| self.shape.lines_in_dim(d))
            .sum()
    }

    /// The routers attached to a crossbar, in line-position order.
    pub fn routers_on_xbar(&self, xb: XbarRef) -> Vec<NodeId> {
        self.shape
            .line_coords(xb.dim as usize, xb.line as usize)
            .map(|c| self.router_at(c))
            .collect()
    }

    /// The channel from router at `c` into the dimension-`dim` crossbar.
    pub fn router_to_xbar(&self, c: Coord, dim: usize) -> ChannelId {
        let r = self.router_at(c);
        let x = self.xbar(self.xbar_through(c, dim));
        self.graph
            .channel_between(r, x)
            .expect("router is wired to its crossbars")
    }

    /// The channel from the dimension-`dim` crossbar down to the router at `c`.
    pub fn xbar_to_router(&self, c: Coord, dim: usize) -> ChannelId {
        let r = self.router_at(c);
        let x = self.xbar(self.xbar_through(c, dim));
        self.graph
            .channel_between(x, r)
            .expect("router is wired to its crossbars")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_network_counts() {
        // Fig. 2: 4x3 2D crossbar — 12 PEs, 12 routers, 3 X-XBs (4 ports
        // each) and 4 Y-XBs (3 ports each).
        let net = MdCrossbar::build(Shape::fig2());
        assert_eq!(net.num_xbars(), 7);
        assert_eq!(net.graph().num_nodes(), 12 + 12 + 7);
        // Channels: 12 PE links + 12*2 router-XB links, each full duplex.
        assert_eq!(net.graph().num_channels(), 2 * (12 + 24));
    }

    #[test]
    fn router_degree_is_d_plus_one() {
        // Sec. 3.1: "The number of ports needed by a router of an MD crossbar
        // is equal to one plus the number of dimensions."
        for dims in [&[4u16, 3][..], &[2, 2, 2], &[5]] {
            let net = MdCrossbar::build(Shape::new(dims).unwrap());
            let d = dims.len();
            for i in 0..net.shape().num_pes() {
                let r = net.router(i);
                assert_eq!(net.graph().outgoing(r).len(), d + 1);
                assert_eq!(net.graph().incoming(r).len(), d + 1);
            }
        }
    }

    #[test]
    fn xbar_degree_is_line_extent() {
        let net = MdCrossbar::build(Shape::fig2());
        for xb in net.xbars() {
            let id = net.xbar(xb);
            let expect = net.shape().extent(xb.dim as usize) as usize;
            assert_eq!(net.graph().outgoing(id).len(), expect);
            assert_eq!(net.graph().incoming(id).len(), expect);
        }
    }

    #[test]
    fn one_dim_crossbar_is_a_single_switch() {
        // Sec. 3.1: "For the case of d=1, the MD crossbar network is
        // equivalent to a conventional crossbar network."
        let net = MdCrossbar::build(Shape::new(&[8]).unwrap());
        assert_eq!(net.num_xbars(), 1);
        let xb = net.xbar(XbarRef { dim: 0, line: 0 });
        assert_eq!(net.graph().outgoing(xb).len(), 8);
    }

    #[test]
    fn hypercube_limit_case() {
        // Sec. 3.1: when d = log2(n) every extent is 2 and the router count
        // per crossbar is 2 — the hypercube limit.
        let net = MdCrossbar::build(Shape::new(&[2, 2, 2]).unwrap());
        assert_eq!(net.num_xbars(), 3 * 4);
        for xb in net.xbars() {
            assert_eq!(net.routers_on_xbar(xb).len(), 2);
        }
    }

    #[test]
    fn routers_on_xbar_share_the_line() {
        let net = MdCrossbar::build(Shape::new(&[4, 3, 2]).unwrap());
        for xb in net.xbars() {
            let routers = net.routers_on_xbar(xb);
            assert_eq!(routers.len(), net.shape().extent(xb.dim as usize) as usize);
            // All routers on the crossbar agree on every non-dim coordinate.
            let c0 = net.graph().coord(routers[0]).unwrap();
            for &r in &routers[1..] {
                let c = net.graph().coord(r).unwrap();
                for d in 0..net.shape().d() {
                    if d != xb.dim as usize {
                        assert_eq!(c.get(d), c0.get(d));
                    }
                }
            }
        }
    }

    #[test]
    fn channel_helpers_agree_with_graph() {
        let net = MdCrossbar::build(Shape::fig2());
        let c = Coord::new(&[2, 1]);
        let up = net.router_to_xbar(c, 0);
        let info = net.graph().channel(up);
        assert_eq!(info.src, net.router_at(c));
        assert_eq!(info.dst, net.xbar(net.xbar_through(c, 0)));
        let down = net.xbar_to_router(c, 0);
        let info = net.graph().channel(down);
        assert_eq!(info.dst, net.router_at(c));
    }

    #[test]
    fn full_scale_sr2201_builds() {
        let net = MdCrossbar::build(Shape::sr2201_full());
        assert_eq!(net.shape().num_pes(), 2048);
        // 3D 16x16x8: 128 X-XBs + 128 Y-XBs + 256 Z-XBs.
        assert_eq!(net.num_xbars(), 128 + 128 + 256);
        // Every node reachable: routers have 4 ports, PEs 1.
        let g = net.graph();
        assert_eq!(g.num_channels(), 2 * (2048 + 3 * 2048));
    }
}
