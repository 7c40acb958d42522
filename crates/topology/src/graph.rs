//! The switch-level network graph: nodes (PEs, routers, crossbars) and
//! directed channels between them.
//!
//! Both the SR2201 multi-dimensional crossbar and the comparison topologies
//! (mesh, torus, hypercube) are instances of [`NetworkGraph`]; routing crates
//! see only this vocabulary.

use crate::coord::Coord;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Reference to one crossbar switch: the `line`-th crossbar of dimension
/// `dim`.
///
/// In the paper's Fig. 2 vocabulary, `XbarRef { dim: 0, line: y }` is the
/// X-dimension crossbar serving row `y`, and `XbarRef { dim: 1, line: x }` is
/// the Y-dimension crossbar serving column `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct XbarRef {
    /// Dimension this crossbar routes along.
    pub dim: u8,
    /// Which line of that dimension (flattened remaining coordinates).
    pub line: u32,
}

impl std::fmt::Display for XbarRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dim_name = match self.dim {
            0 => "X".to_string(),
            1 => "Y".to_string(),
            2 => "Z".to_string(),
            d => format!("D{d}"),
        };
        write!(f, "{}{}-XB", dim_name, self.line)
    }
}

/// A switch-level network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Node {
    /// A processing element (its network interface adapter endpoint).
    Pe(usize),
    /// The relay switch (router) private to PE `usize`; a `(d+1) x (d+1)`
    /// crossbar in the SR2201.
    Router(usize),
    /// A shared crossbar switch of one lattice line.
    Xbar(XbarRef),
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Pe(p) => write!(f, "PE{p}"),
            Node::Router(p) => write!(f, "R{p}"),
            Node::Xbar(x) => write!(f, "{x}"),
        }
    }
}

/// Dense index of a node within one [`NetworkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Dense index of a directed channel within one [`NetworkGraph`].
///
/// A channel is a one-way physical link between two switches. In the
/// simulator each channel doubles as the *output port* of its source switch:
/// cut-through packets own channels from header grant until tail passage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The channel index as a usize (for indexing per-channel state tables).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Metadata of one directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelInfo {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
}

/// A directed graph of switches and channels.
///
/// Construction is append-only (via [`GraphBuilder`]). The graph is an
/// immutable body behind an [`Arc`], so `clone` is a reference-count bump:
/// the simulator and every observer of a run share one body, and so do
/// all the rows a campaign runs on one network.
///
/// Lookups are dense: [`NetworkGraph::id_of`] indexes per-kind tables (PE
/// and router ids by PE index, crossbar ids by dimension and line), and
/// [`NetworkGraph::channel_between`] scans the source's outgoing channels
/// (a switch has at most a few dozen). Node payloads ([`Node`]) and the
/// optional lattice coordinate of PE/router nodes are stored densely too.
#[derive(Debug, Clone)]
pub struct NetworkGraph(Arc<GraphBody>);

#[derive(Debug)]
struct GraphBody {
    nodes: Vec<Node>,
    coords: Vec<Option<Coord>>,
    channels: Vec<ChannelInfo>,
    out: Vec<Vec<ChannelId>>,
    inp: Vec<Vec<ChannelId>>,
    ids: NodeTables,
    /// Each channel's place in name order, built on first use.
    name_rank: OnceLock<Vec<u32>>,
}

/// Marks an index with no node in a [`NodeTables`] column.
const ABSENT: u32 = u32::MAX;

/// Dense node-id tables, one column per node kind: PE and router ids by PE
/// index, crossbar ids by dimension and then line.
#[derive(Debug, Default)]
struct NodeTables {
    pe: Vec<u32>,
    router: Vec<u32>,
    xbar: Vec<Vec<u32>>,
}

impl NodeTables {
    fn get(&self, node: Node) -> Option<NodeId> {
        let slot = match node {
            Node::Pe(p) => self.pe.get(p),
            Node::Router(p) => self.router.get(p),
            Node::Xbar(x) => self
                .xbar
                .get(x.dim as usize)
                .and_then(|lines| lines.get(x.line as usize)),
        };
        slot.copied().filter(|&id| id != ABSENT).map(NodeId)
    }

    fn insert(&mut self, node: Node, id: NodeId) {
        let (column, at) = match node {
            Node::Pe(p) => (&mut self.pe, p),
            Node::Router(p) => (&mut self.router, p),
            Node::Xbar(x) => {
                let dim = x.dim as usize;
                if self.xbar.len() <= dim {
                    self.xbar.resize_with(dim + 1, Vec::new);
                }
                (&mut self.xbar[dim], x.line as usize)
            }
        };
        if column.len() <= at {
            column.resize(at + 1, ABSENT);
        }
        column[at] = id.0;
    }
}

impl NetworkGraph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.0.nodes.len()
    }

    /// Number of directed channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.0.channels.len()
    }

    /// Node payload of `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.0.nodes[id.0 as usize]
    }

    /// Lattice coordinate of a PE or router node, if it has one.
    #[inline]
    pub fn coord(&self, id: NodeId) -> Option<Coord> {
        self.0.coords[id.0 as usize]
    }

    /// Dense id of a node payload.
    #[inline]
    pub fn id_of(&self, node: Node) -> Option<NodeId> {
        self.0.ids.get(node)
    }

    /// Dense id of a node payload, panicking if absent.
    ///
    /// # Panics
    /// Panics when the node does not exist in this graph; use only for nodes
    /// the caller constructed from the same shape.
    pub fn expect_id(&self, node: Node) -> NodeId {
        self.id_of(node)
            .unwrap_or_else(|| panic!("node {node} not present in graph"))
    }

    /// Channel metadata.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> ChannelInfo {
        self.0.channels[id.0 as usize]
    }

    /// The unique channel from `src` to `dst`, if the switches are adjacent.
    #[inline]
    pub fn channel_between(&self, src: NodeId, dst: NodeId) -> Option<ChannelId> {
        self.outgoing(src)
            .iter()
            .copied()
            .find(|&c| self.0.channels[c.idx()].dst == dst)
    }

    /// Outgoing channels of a node.
    #[inline]
    pub fn outgoing(&self, id: NodeId) -> &[ChannelId] {
        &self.0.out[id.0 as usize]
    }

    /// Incoming channels of a node.
    #[inline]
    pub fn incoming(&self, id: NodeId) -> &[ChannelId] {
        &self.0.inp[id.0 as usize]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.0.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.0.channels.len() as u32).map(ChannelId)
    }

    /// All PE node ids, in PE-index order.
    pub fn pe_ids(&self) -> Vec<NodeId> {
        self.0
            .ids
            .pe
            .iter()
            .filter(|&&id| id != ABSENT)
            .map(|&id| NodeId(id))
            .collect()
    }

    /// Human-readable description of a channel (e.g. `R3 -> Y1-XB`).
    pub fn describe_channel(&self, id: ChannelId) -> String {
        let info = self.channel(id);
        format!("{} -> {}", self.node(info.src), self.node(info.dst))
    }

    /// Each channel's place (indexed by [`ChannelId`]) in the order of
    /// the channels' descriptions ([`NetworkGraph::describe_channel`]), so
    /// callers can order channels by name without formatting any. The
    /// first call builds it, once per graph: every clone shares it.
    pub fn channel_name_rank(&self) -> &[u32] {
        self.0.name_rank.get_or_init(|| {
            let names: Vec<String> = self
                .channel_ids()
                .map(|c| self.describe_channel(c))
                .collect();
            let mut order: Vec<u32> = (0..names.len() as u32).collect();
            order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
            let mut rank = vec![0; order.len()];
            for (r, &c) in (0..).zip(&order) {
                rank[c as usize] = r;
            }
            rank
        })
    }

    /// [`NetworkGraph::channel_name_rank`], if a call has built it.
    pub fn built_channel_name_rank(&self) -> Option<&[u32]> {
        self.0.name_rank.get().map(Vec::as_slice)
    }
}

/// Incremental builder for [`NetworkGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    coords: Vec<Option<Coord>>,
    channels: Vec<ChannelInfo>,
    ids: NodeTables,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node (idempotent: re-adding returns the existing id).
    pub fn add_node(&mut self, node: Node, coord: Option<Coord>) -> NodeId {
        if let Some(id) = self.ids.get(node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.coords.push(coord);
        self.ids.insert(node, id);
        id
    }

    /// Adds a directed channel. Duplicate channels between the same pair are
    /// rejected to keep `channel_between` unambiguous.
    ///
    /// # Panics
    /// Panics on duplicate (src, dst) pairs — topology builders are expected
    /// to wire each physical link exactly once.
    pub fn add_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(ChannelInfo { src, dst });
        id
    }

    /// Adds a pair of opposite channels (full-duplex link).
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> (ChannelId, ChannelId) {
        (self.add_channel(a, b), self.add_channel(b, a))
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    /// Panics if two channels connect the same ordered pair of nodes.
    pub fn build(self) -> NetworkGraph {
        let mut out = vec![Vec::new(); self.nodes.len()];
        let mut inp = vec![Vec::new(); self.nodes.len()];
        for (i, info) in self.channels.iter().enumerate() {
            let id = ChannelId(i as u32);
            out[info.src.0 as usize].push(id);
            inp[info.dst.0 as usize].push(id);
        }
        // `linked_from[dst]` is the last source seen wiring to `dst`; a
        // repeat while scanning one source's channels is a duplicate.
        let mut linked_from = vec![ABSENT; self.nodes.len()];
        for (src, chans) in out.iter().enumerate() {
            for c in chans {
                let dst = self.channels[c.idx()].dst.0 as usize;
                assert!(
                    linked_from[dst] != src as u32,
                    "duplicate channel between {:?} and {:?}",
                    self.nodes[src],
                    self.nodes[dst]
                );
                linked_from[dst] = src as u32;
            }
        }
        NetworkGraph(Arc::new(GraphBody {
            nodes: self.nodes,
            coords: self.coords,
            channels: self.channels,
            out,
            inp,
            ids: self.ids,
            name_rank: OnceLock::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new();
        let pe = b.add_node(Node::Pe(0), Some(Coord::ORIGIN));
        let r = b.add_node(Node::Router(0), Some(Coord::ORIGIN));
        let (up, down) = b.add_link(pe, r);
        let g = b.build();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_channels(), 2);
        assert_eq!(g.channel(up).src, pe);
        assert_eq!(g.channel(down).dst, pe);
        assert_eq!(g.channel_between(pe, r), Some(up));
        assert_eq!(g.channel_between(r, pe), Some(down));
        assert_eq!(g.outgoing(pe), &[up]);
        assert_eq!(g.incoming(pe), &[down]);
        assert_eq!(g.id_of(Node::Pe(0)), Some(pe));
        assert_eq!(g.id_of(Node::Pe(1)), None);
    }

    #[test]
    fn clone_shares_one_body() {
        let g = crate::MdCrossbar::build(crate::Shape::fig2())
            .graph()
            .clone();
        let h = g.clone();
        assert!(Arc::ptr_eq(&g.0, &h.0));
    }

    #[test]
    fn dense_lookups_cover_every_node_and_channel() {
        let shape = crate::Shape::new(&[4, 3, 2]).unwrap();
        let g = crate::MdCrossbar::build(shape).graph().clone();
        for id in g.node_ids() {
            assert_eq!(g.id_of(g.node(id)), Some(id));
        }
        for c in g.channel_ids() {
            let info = g.channel(c);
            assert_eq!(g.channel_between(info.src, info.dst), Some(c));
        }
        assert_eq!(g.id_of(Node::Pe(24)), None);
        assert_eq!(g.id_of(Node::Xbar(XbarRef { dim: 3, line: 0 })), None);
        assert_eq!(g.id_of(Node::Xbar(XbarRef { dim: 0, line: 6 })), None);
        let (pe0, pe1) = (g.expect_id(Node::Pe(0)), g.expect_id(Node::Pe(1)));
        assert_eq!(g.channel_between(pe0, pe1), None);
        assert_eq!(g.pe_ids().len(), 24);
    }

    #[test]
    fn add_node_is_idempotent() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Node::Pe(3), None);
        let a2 = b.add_node(Node::Pe(3), None);
        assert_eq!(a, a2);
        assert_eq!(b.build().num_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate channel")]
    fn duplicate_channel_panics() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Node::Pe(0), None);
        let c = b.add_node(Node::Pe(1), None);
        b.add_channel(a, c);
        b.add_channel(a, c);
        b.build();
    }

    #[test]
    fn xbar_ref_display_uses_paper_names() {
        assert_eq!(XbarRef { dim: 0, line: 1 }.to_string(), "X1-XB");
        assert_eq!(XbarRef { dim: 1, line: 2 }.to_string(), "Y2-XB");
        assert_eq!(XbarRef { dim: 2, line: 0 }.to_string(), "Z0-XB");
    }

    #[test]
    fn describe_channel_is_readable() {
        let mut b = GraphBuilder::new();
        let r = b.add_node(Node::Router(3), None);
        let x = b.add_node(Node::Xbar(XbarRef { dim: 1, line: 1 }), None);
        let (c, _) = b.add_link(r, x);
        let g = b.build();
        assert_eq!(g.describe_channel(c), "R3 -> Y1-XB");
    }

    #[test]
    fn channel_name_rank_orders_channels_by_description() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = [Node::Pe(12), Node::Router(12), Node::Pe(2), Node::Router(2)]
            .into_iter()
            .map(|n| b.add_node(n, None))
            .collect();
        b.add_link(nodes[0], nodes[1]);
        b.add_link(nodes[2], nodes[3]);
        b.add_link(nodes[1], nodes[3]);
        let g = b.build();
        assert!(g.built_channel_name_rank().is_none());
        let shared = g.clone();
        let rank = g.channel_name_rank().to_vec();
        assert_eq!(shared.built_channel_name_rank(), Some(rank.as_slice()));
        let mut by_rank: Vec<ChannelId> = g.channel_ids().collect();
        by_rank.sort_by_key(|c| rank[c.idx()]);
        let names: Vec<String> = by_rank.iter().map(|&c| g.describe_channel(c)).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    }
}
