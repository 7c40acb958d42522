//! Extraction of the channel claim trees of communication instances, read
//! from the one walk of a scheme's decisions ([`mdx_core::trace::walk`]).

use mdx_core::trace::{broadcast_walk, walk, Fanout, Hop, TraceError};
use mdx_core::{Header, Scheme};
use mdx_topology::{ChannelId, Coord, NetworkGraph};

/// Lane multiplier for packing (channel, vc) resource keys.
pub const MAX_VCS_KEY: u32 = 8;

/// The rooted tree of channels one communication instance acquires.
///
/// `parent[i]` is the index (into `channels`) of the channel whose buffer
/// feeds channel `i`'s source switch, or `None` for root channels (fed by
/// the source PE's memory, or by the S-XB's serialization queue for an
/// emission). `fan[i]` groups channels granted by the same switch visit:
/// channels with equal `fan` values are siblings of one multi-port forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimTree {
    /// Claimed channels, in acquisition-BFS order.
    pub channels: Vec<ChannelId>,
    /// Virtual lane per claimed channel (a lane is its own resource: the
    /// O1TURN extension and the torus dateline baseline are acyclic only
    /// at lane granularity).
    pub vcs: Vec<u8>,
    /// Parent channel index per channel.
    pub parent: Vec<Option<usize>>,
    /// Fan (visit) id per channel; siblings share it.
    pub fan: Vec<usize>,
}

impl ClaimTree {
    /// The claims of `hops`, a run of one walk: `base` is the walk index of
    /// `hops[0]`, so parents re-root onto this slice, and fan ids count
    /// from the slice's first decision.
    fn from_hops(hops: &[Hop], base: usize) -> ClaimTree {
        let first_fan = hops.first().map_or(0, |h| h.fan);
        ClaimTree {
            channels: hops.iter().map(|h| h.channel).collect(),
            vcs: hops.iter().map(|h| h.vc).collect(),
            parent: hops.iter().map(|h| h.parent.map(|p| p - base)).collect(),
            fan: hops.iter().map(|h| h.fan - first_fan).collect(),
        }
    }

    /// Number of claimed channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the instance claims no channels (never happens for legal
    /// traffic, present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Resource key of claim `i`: lane-granular (channel, vc) packed into
    /// one integer.
    pub fn resource(&self, i: usize) -> u32 {
        self.channels[i].0 * MAX_VCS_KEY + self.vcs[i] as u32
    }

    /// The prerequisite set of channel `i`: every channel that is fully
    /// acquired before `i` can be granted — `i`'s ancestors and all their
    /// siblings (each fan on the root path streams, and therefore holds all
    /// its ports, before the next level's header can exist).
    pub fn prerequisites(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parent[i];
        while let Some(p) = cur {
            let fan = self.fan[p];
            for (j, &f) in self.fan.iter().enumerate() {
                if f == fan {
                    out.push(j);
                }
            }
            cur = self.parent[p];
        }
        out
    }
}

/// Claims of one point-to-point packet (a degenerate single-branch tree).
///
/// Follows the scheme from injection to delivery; RC rewrites (detour) are
/// followed transparently, so the claims include any detour legs.
pub fn unicast_claims(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    header: Header,
    src_pe: usize,
) -> Result<ClaimTree, TraceError> {
    let walk = walk(scheme, g, src_pe, header, Fanout::Unicast)?;
    Ok(ClaimTree::from_hops(&walk.hops, 0))
}

/// Claims of one broadcast from `src_pe`.
///
/// For a serialized scheme this returns **two** instances: the RC=1 request
/// leg (the walk up to the S-XB, where the queue decouples it) and the
/// emission fan (the walk after it, rooted at the S-XB's ports). For a
/// direct scheme (naive broadcast) it returns the single source-rooted
/// tree.
pub fn broadcast_claims(
    scheme: &dyn Scheme,
    g: &NetworkGraph,
    src_pe: usize,
    src_coord: Coord,
) -> Result<Vec<ClaimTree>, TraceError> {
    let walk = broadcast_walk(scheme, g, src_pe, src_coord)?;
    Ok(match walk.gather {
        Some(at) => vec![
            ClaimTree::from_hops(&walk.hops[..at], 0),
            ClaimTree::from_hops(&walk.hops[at..], at),
        ],
        None => vec![ClaimTree::from_hops(&walk.hops, 0)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::{NaiveBroadcast, Sr2201Routing};
    use mdx_fault::FaultSet;
    use mdx_topology::{MdCrossbar, Node, Shape};
    use std::sync::Arc;

    fn net() -> Arc<MdCrossbar> {
        Arc::new(MdCrossbar::build(Shape::fig2()))
    }

    #[test]
    fn unicast_claims_are_a_chain() {
        let n = net();
        let s = Sr2201Routing::new(n.clone(), &FaultSet::none()).unwrap();
        let shape = n.shape();
        let h = Header::unicast(shape.coord_of(0), shape.coord_of(11));
        let t = unicast_claims(&s, n.graph(), h, 0).unwrap();
        // PE->R, R->X, X->R, R->Y, Y->R, R->PE.
        assert_eq!(t.len(), 6);
        for i in 1..t.len() {
            assert_eq!(t.parent[i], Some(i - 1));
        }
        // Prerequisites of the last channel: everything before it.
        assert_eq!(t.prerequisites(5).len(), 5);
        assert_eq!(t.prerequisites(0).len(), 0);
    }

    #[test]
    fn sxb_broadcast_claims_split_in_two() {
        let n = net();
        let s = Sr2201Routing::new(n.clone(), &FaultSet::none()).unwrap();
        let trees = broadcast_claims(&s, n.graph(), 11, n.shape().coord_of(11)).unwrap();
        assert_eq!(trees.len(), 2);
        let (request, emission) = (&trees[0], &trees[1]);
        // Request from (3,2): PE->R, R->Y3, Y3->R(3,0), R->S-XB: 4 channels.
        assert_eq!(request.len(), 4);
        // Emission: 4 root ports + per-column router fans (PE + Y-XB) and
        // leaf deliveries. Root fan shares fan id and has no parent.
        assert_eq!(emission.parent.iter().filter(|p| p.is_none()).count(), 4);
        let root_fan = emission.fan[0];
        assert_eq!(emission.fan.iter().filter(|&&f| f == root_fan).count(), 4);
        // Every PE link is claimed exactly once: 12 deliveries.
        let pe_links = emission
            .channels
            .iter()
            .filter(|&&c| {
                let info = n.graph().channel(c);
                matches!(n.graph().node(info.dst), Node::Pe(_))
            })
            .count();
        assert_eq!(pe_links, 12);
    }

    #[test]
    fn naive_broadcast_single_tree() {
        let n = net();
        let s = NaiveBroadcast::new(n.clone());
        let trees = broadcast_claims(&s, n.graph(), 0, n.shape().coord_of(0)).unwrap();
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        // Covers all 12 PE delivery links.
        let pe_links = t
            .channels
            .iter()
            .filter(|&&c| {
                let info = n.graph().channel(c);
                matches!(n.graph().node(info.dst), Node::Pe(_))
            })
            .count();
        assert_eq!(pe_links, 12);
    }

    #[test]
    fn prerequisites_include_ancestor_siblings() {
        let n = net();
        let s = Sr2201Routing::new(n.clone(), &FaultSet::none()).unwrap();
        let trees = broadcast_claims(&s, n.graph(), 0, n.shape().coord_of(0)).unwrap();
        let emission = &trees[1];
        // Take any leaf (a PE delivery in a column): its prerequisites must
        // include all 4 root ports of the S-XB.
        let leaf = emission.len() - 1;
        let prereqs = emission.prerequisites(leaf);
        let root_fan = emission.fan[0];
        let roots: Vec<usize> = (0..emission.len())
            .filter(|&i| emission.fan[i] == root_fan)
            .collect();
        for r in roots {
            assert!(prereqs.contains(&r), "root port {r} missing from prereqs");
        }
    }
}
