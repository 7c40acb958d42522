//! Direct (router-to-router) comparison topologies: k-ary d-dimensional mesh
//! and torus, and the hypercube.
//!
//! The paper's Sec. 3.1 compares the MD crossbar against mesh-connected and
//! torus networks (CRAY T3D style) and against the hypercube; these builders
//! provide those baselines over the same [`NetworkGraph`] vocabulary so the
//! same simulator runs all of them.

use crate::coord::{Coord, Shape};
use crate::graph::{GraphBuilder, NetworkGraph, Node, NodeId};
use crate::TopologyError;
use serde::{Deserialize, Serialize};

/// Whether a direct network wraps around at the edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wrap {
    /// Mesh: no wrap-around links.
    Mesh,
    /// Torus: wrap-around links in every dimension.
    Torus,
}

/// A k-ary d-dimensional direct network: each PE's router connects to the
/// routers of the lattice neighbors (plus wrap-around links for a torus).
#[derive(Debug, Clone)]
pub struct DirectNetwork {
    shape: Shape,
    wrap: Wrap,
    graph: NetworkGraph,
}

impl DirectNetwork {
    /// Builds a mesh or torus over `shape`.
    pub fn build(shape: Shape, wrap: Wrap) -> DirectNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            let pe = b.add_node(Node::Pe(i), Some(c));
            let r = b.add_node(Node::Router(i), Some(c));
            b.add_link(pe, r);
        }
        // Wire +1 neighbors in every dimension (each undirected link once).
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            let r = b.add_node(Node::Router(i), Some(c));
            for dim in 0..shape.d() {
                let e = shape.extent(dim);
                if e == 1 {
                    continue;
                }
                let next = match (c.get(dim) + 1 < e, wrap) {
                    (true, _) => Some(c.with(dim, c.get(dim) + 1)),
                    (false, Wrap::Torus) if e > 2 => Some(c.with(dim, 0)),
                    // e == 2 wrap would duplicate the +1 link.
                    (false, _) => None,
                };
                if let Some(nc) = next {
                    let nr = b.add_node(Node::Router(shape.index_of(nc)), Some(nc));
                    b.add_link(r, nr);
                }
            }
        }
        DirectNetwork {
            shape,
            wrap,
            graph: b.build(),
        }
    }

    /// Builds a hypercube on `n = 2^k` nodes (a k-dimensional 2-ary mesh).
    pub fn hypercube(n: usize) -> Result<DirectNetwork, TopologyError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(TopologyError::BadSize(n));
        }
        let k = n.trailing_zeros() as usize;
        if k == 0 {
            return Err(TopologyError::BadSize(n));
        }
        let dims = vec![2u16; k];
        Ok(DirectNetwork::build(Shape::new(&dims)?, Wrap::Mesh))
    }

    /// The lattice shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Mesh or torus.
    #[inline]
    pub fn wrap(&self) -> Wrap {
        self.wrap
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

    /// Node id of router `i`.
    pub fn router(&self, i: usize) -> NodeId {
        self.graph.expect_id(Node::Router(i))
    }

    /// Node id of the router at `c`.
    pub fn router_at(&self, c: Coord) -> NodeId {
        self.router(self.shape.index_of(c))
    }

    /// The neighbor coordinate one step along `dim` in direction `positive`,
    /// respecting wrap-around; `None` at a mesh edge.
    pub fn neighbor(&self, c: Coord, dim: usize, positive: bool) -> Option<Coord> {
        let e = self.shape.extent(dim);
        let cur = c.get(dim);
        match (positive, self.wrap) {
            (true, _) if cur + 1 < e => Some(c.with(dim, cur + 1)),
            (true, Wrap::Torus) if e > 1 => Some(c.with(dim, 0)),
            (false, _) if cur > 0 => Some(c.with(dim, cur - 1)),
            (false, Wrap::Torus) if e > 1 => Some(c.with(dim, e - 1)),
            _ => None,
        }
    }

    /// Shortest hop distance between two coordinates under this wrap rule.
    pub fn distance(&self, a: Coord, b: Coord) -> usize {
        (0..self.shape.d())
            .map(|d| {
                let e = self.shape.extent(d) as isize;
                let diff = (a.get(d) as isize - b.get(d) as isize).abs();
                match self.wrap {
                    Wrap::Mesh => diff as usize,
                    Wrap::Torus => diff.min(e - diff) as usize,
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_link_counts() {
        // 4x3 mesh: horizontal links 3*3=9, vertical 4*2=8, PE links 12.
        let net = DirectNetwork::build(Shape::new(&[4, 3]).unwrap(), Wrap::Mesh);
        assert_eq!(net.graph().num_channels(), 2 * (12 + 9 + 8));
    }

    #[test]
    fn torus_link_counts() {
        // 4x3 torus: every node has a +1 link in both dims: 12+12, plus PEs.
        let net = DirectNetwork::build(Shape::new(&[4, 3]).unwrap(), Wrap::Torus);
        assert_eq!(net.graph().num_channels(), 2 * (12 + 12 + 12));
    }

    #[test]
    fn width_two_torus_does_not_duplicate_links() {
        let net = DirectNetwork::build(Shape::new(&[2, 2]).unwrap(), Wrap::Torus);
        // 2x2 torus degenerates to a 2x2 mesh: 4 PE links + 4 router links.
        assert_eq!(net.graph().num_channels(), 2 * (4 + 4));
    }

    #[test]
    fn hypercube_degree_is_log2n() {
        let net = DirectNetwork::hypercube(16).unwrap();
        for i in 0..16 {
            let r = net.router(i);
            // log2(16)=4 router-router links + 1 PE link.
            assert_eq!(net.graph().outgoing(r).len(), 5);
        }
        assert!(DirectNetwork::hypercube(12).is_err());
        assert!(DirectNetwork::hypercube(0).is_err());
        assert!(DirectNetwork::hypercube(1).is_err());
    }

    #[test]
    fn neighbor_and_distance_agree() {
        let mesh = DirectNetwork::build(Shape::new(&[4, 3]).unwrap(), Wrap::Mesh);
        let torus = DirectNetwork::build(Shape::new(&[4, 3]).unwrap(), Wrap::Torus);
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[3, 0]);
        assert_eq!(mesh.distance(a, b), 3);
        assert_eq!(torus.distance(a, b), 1);
        assert_eq!(mesh.neighbor(a, 0, false), None);
        assert_eq!(torus.neighbor(a, 0, false), Some(b));
        assert_eq!(mesh.neighbor(a, 0, true), Some(Coord::new(&[1, 0])));
    }

    #[test]
    fn torus_neighbors_exist_in_graph() {
        let net = DirectNetwork::build(Shape::new(&[4, 3]).unwrap(), Wrap::Torus);
        for i in 0..net.shape().num_pes() {
            let c = net.shape().coord_of(i);
            for dim in 0..2 {
                for dirn in [true, false] {
                    let nc = net.neighbor(c, dim, dirn).unwrap();
                    let ch = net
                        .graph()
                        .channel_between(net.router_at(c), net.router_at(nc));
                    assert!(ch.is_some(), "missing {c}->{nc} link");
                }
            }
        }
    }
}
