//! HyperX and full-mesh direct networks (comparison topologies).
//!
//! A **HyperX** (Ahn et al., SC'09; fault-tolerant routing per arXiv
//! 2404.04315) places one router per lattice point and fully connects every
//! axis-aligned line: two routers are adjacent iff their coordinates differ
//! in exactly one dimension. Each dimension therefore contributes a clique
//! over every line, giving a diameter of `d` hops with one hop per
//! dimension — the same "one crossbar traversal per differing dimension"
//! path structure as the MD crossbar, but with the crossbar switch replaced
//! by direct point-to-point links (router degree grows as
//! `sum(n_i - 1) + 1` instead of the constant `d + 1`).
//!
//! The **full mesh** is the degenerate single-clique case: every pair of
//! routers is adjacent regardless of shape. It is the substrate for the
//! VC-free shortest-path routing comparison (arXiv 2510.14730), where
//! deadlock freedom comes from an acyclic ordering of the direct links
//! rather than from virtual channels or central serialization.

use crate::coord::{Coord, Shape};
use crate::graph::{GraphBuilder, NetworkGraph, Node, NodeId};

/// A HyperX (per-dimension cliques) or full-mesh (one global clique) direct
/// network: one router per PE, PE <-> router links, and direct router <->
/// router links per the clique rule.
#[derive(Debug, Clone)]
pub struct HyperX {
    shape: Shape,
    /// Global clique (full mesh) instead of per-dimension cliques.
    full: bool,
    graph: NetworkGraph,
}

impl HyperX {
    /// Builds the HyperX for `shape`: routers `a` and `b` are linked iff
    /// their coordinates differ in exactly one dimension.
    pub fn build(shape: Shape) -> HyperX {
        HyperX::construct(shape, false)
    }

    /// Builds the full mesh over `shape`: every pair of routers is linked.
    pub fn full_mesh(shape: Shape) -> HyperX {
        HyperX::construct(shape, true)
    }

    fn construct(shape: Shape, full: bool) -> HyperX {
        let mut b = GraphBuilder::new();
        // PEs and routers in PE-index order, then the PE <-> router links —
        // the same ordering discipline as `MdCrossbar::build`.
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            b.add_node(Node::Pe(i), Some(c));
            b.add_node(Node::Router(i), Some(c));
        }
        for i in 0..shape.num_pes() {
            let c = shape.coord_of(i);
            let pe = b.add_node(Node::Pe(i), Some(c));
            let r = b.add_node(Node::Router(i), Some(c));
            b.add_link(pe, r);
        }
        // Router cliques. Each undirected pair is wired exactly once
        // (`add_link` emits both directed channels; the builder panics on
        // duplicates), hence the `i < j` guard.
        for i in 0..shape.num_pes() {
            let ci = shape.coord_of(i);
            let ri = b.add_node(Node::Router(i), Some(ci));
            for j in (i + 1)..shape.num_pes() {
                let cj = shape.coord_of(j);
                if full || ci.hamming(&cj) == 1 {
                    let rj = b.add_node(Node::Router(j), Some(cj));
                    b.add_link(ri, rj);
                }
            }
        }
        HyperX {
            shape,
            full,
            graph: b.build(),
        }
    }

    /// The lattice shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Whether this is the full-mesh (single global clique) variant.
    #[inline]
    pub fn is_full_mesh(&self) -> bool {
        self.full
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

    /// Node id of the router at coordinate `c`.
    pub fn router_at(&self, c: Coord) -> NodeId {
        self.router(self.shape.index_of(c))
    }

    /// Whether routers `a` and `b` are directly linked.
    pub fn adjacent(&self, a: Coord, b: Coord) -> bool {
        if a == b {
            return false;
        }
        self.full || a.hamming(&b) == 1
    }

    /// Minimal router-hop distance between two PEs: the number of differing
    /// dimensions for a HyperX, at most one direct hop for the full mesh.
    pub fn distance(&self, a: Coord, b: Coord) -> usize {
        if self.full {
            usize::from(a != b)
        } else {
            a.hamming(&b)
        }
    }

    /// Number of undirected router <-> router links.
    pub fn num_router_links(&self) -> usize {
        // Every channel is one direction of a duplex link; subtract the PE
        // attachment links.
        self.graph.num_channels() / 2 - self.shape.num_pes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperx_links_per_dimension_cliques() {
        // 3x4 HyperX: rows of 3 contribute 4 * C(3,2) = 12 links, columns
        // of 4 contribute 3 * C(4,2) = 18 links.
        let net = HyperX::build(Shape::new(&[3, 4]).unwrap());
        assert_eq!(net.num_router_links(), 12 + 18);
        assert_eq!(net.graph().num_nodes(), 2 * 12);
    }

    #[test]
    fn hyperx_router_degree() {
        // Degree = sum over dims of (n_i - 1), plus the PE port.
        let net = HyperX::build(Shape::new(&[3, 4]).unwrap());
        for i in 0..net.shape().num_pes() {
            let r = net.router(i);
            assert_eq!(net.graph().outgoing(r).len(), (3 - 1) + (4 - 1) + 1);
        }
    }

    #[test]
    fn hyperx_adjacency_is_one_differing_dim() {
        let net = HyperX::build(Shape::new(&[3, 3]).unwrap());
        let a = Coord::new(&[0, 0]);
        assert!(net.adjacent(a, Coord::new(&[2, 0])));
        assert!(net.adjacent(a, Coord::new(&[0, 1])));
        assert!(!net.adjacent(a, Coord::new(&[1, 1])));
        assert!(!net.adjacent(a, a));
        assert_eq!(net.distance(a, Coord::new(&[1, 2])), 2);
    }

    #[test]
    fn full_mesh_links_all_pairs() {
        let net = HyperX::full_mesh(Shape::new(&[6]).unwrap());
        assert!(net.is_full_mesh());
        assert_eq!(net.num_router_links(), 6 * 5 / 2);
        for i in 0..6 {
            assert_eq!(net.graph().outgoing(net.router(i)).len(), 5 + 1);
        }
    }

    #[test]
    fn full_mesh_ignores_lattice_structure() {
        // Any shape with the same PE count gives the same clique.
        let net = HyperX::full_mesh(Shape::new(&[2, 3]).unwrap());
        assert_eq!(net.num_router_links(), 6 * 5 / 2);
        assert_eq!(net.distance(Coord::new(&[0, 0]), Coord::new(&[1, 2])), 1);
    }

    #[test]
    fn one_dim_hyperx_is_a_full_mesh() {
        let hx = HyperX::build(Shape::new(&[5]).unwrap());
        let fm = HyperX::full_mesh(Shape::new(&[5]).unwrap());
        assert_eq!(hx.num_router_links(), fm.num_router_links());
    }
}
