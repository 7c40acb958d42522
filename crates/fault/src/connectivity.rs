//! Graph-level reachability under faults.
//!
//! Gives the *upper bound* any routing scheme can achieve: if two PEs are
//! disconnected at the graph level, no detour facility can help. The
//! experiments use this to check the paper's facility delivers everything
//! that is physically deliverable under a single fault.

use crate::FaultSet;
use mdx_topology::{MdCrossbar, NetworkGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Result of a reachability sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityReport {
    /// PEs that can still source/sink traffic (not themselves disabled).
    pub usable_pes: Vec<usize>,
    /// Ordered (src, dst) pairs of usable PEs that remain graph-connected
    /// when faulty switches are removed.
    pub connected_pairs: usize,
    /// Ordered usable pairs that are graph-disconnected.
    pub disconnected_pairs: usize,
}

impl ConnectivityReport {
    /// Whether every usable pair remains connected.
    pub fn fully_connected(&self) -> bool {
        self.disconnected_pairs == 0
    }
}

/// BFS over the channel graph skipping disabled nodes.
fn reachable_from(g: &NetworkGraph, faults: &FaultSet, src: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.num_nodes()];
    if faults.disables(g.node(src)) {
        return seen;
    }
    let mut q = VecDeque::new();
    seen[src.0 as usize] = true;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &ch in g.outgoing(u) {
            let v = g.channel(ch).dst;
            if !seen[v.0 as usize] && !faults.disables(g.node(v)) {
                seen[v.0 as usize] = true;
                q.push_back(v);
            }
        }
    }
    seen
}

/// Sweeps all ordered PE pairs of `net` under `faults`.
pub fn reachable_pairs(net: &MdCrossbar, faults: &FaultSet) -> ConnectivityReport {
    let g = net.graph();
    let n = net.shape().num_pes();
    let usable: Vec<usize> = (0..n).filter(|&p| faults.pe_usable(p)).collect();
    let mut connected = 0usize;
    let mut disconnected = 0usize;
    for &src in &usable {
        let seen = reachable_from(g, faults, net.pe(src));
        for &dst in &usable {
            if dst == src {
                continue;
            }
            if seen[net.pe(dst).0 as usize] {
                connected += 1;
            } else {
                disconnected += 1;
            }
        }
    }
    ConnectivityReport {
        usable_pes: usable,
        connected_pairs: connected,
        disconnected_pairs: disconnected,
    }
}

/// Whether one specific pair stays connected under `faults`.
pub fn pair_connected(net: &MdCrossbar, faults: &FaultSet, src: usize, dst: usize) -> bool {
    if !faults.pe_usable(src) || !faults.pe_usable(dst) {
        return false;
    }
    let seen = reachable_from(net.graph(), faults, net.pe(src));
    seen[net.pe(dst).0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_single_faults, FaultSite};
    use mdx_topology::{Shape, XbarRef};

    fn fig2() -> MdCrossbar {
        MdCrossbar::build(Shape::fig2())
    }

    #[test]
    fn fault_free_network_is_fully_connected() {
        let net = fig2();
        let rep = reachable_pairs(&net, &FaultSet::none());
        assert_eq!(rep.usable_pes.len(), 12);
        assert_eq!(rep.connected_pairs, 12 * 11);
        assert!(rep.fully_connected());
    }

    #[test]
    fn every_single_fault_leaves_survivors_connected() {
        // The premise of the paper's facility: with d >= 2 one faulty switch
        // never partitions the surviving PEs (there are d disjoint crossbar
        // families).
        let net = fig2();
        for site in enumerate_single_faults(&net) {
            let rep = reachable_pairs(&net, &FaultSet::single(site));
            assert!(rep.fully_connected(), "{site} partitioned the network");
        }
    }

    #[test]
    fn one_dimensional_crossbar_fault_partitions() {
        // With d = 1 the sole crossbar is a single point of failure — this is
        // why the facility needs d >= 2 to be useful.
        let net = MdCrossbar::build(Shape::new(&[4]).unwrap());
        let rep = reachable_pairs(
            &net,
            &FaultSet::single(FaultSite::Xbar(XbarRef { dim: 0, line: 0 })),
        );
        assert!(!rep.fully_connected());
        assert_eq!(rep.connected_pairs, 0);
    }

    #[test]
    fn router_fault_removes_its_pe_from_usable() {
        let net = fig2();
        let rep = reachable_pairs(&net, &FaultSet::single(FaultSite::Router(2)));
        assert_eq!(rep.usable_pes.len(), 11);
        assert!(!rep.usable_pes.contains(&2));
        assert!(rep.fully_connected());
    }

    #[test]
    fn pair_connected_handles_faulty_endpoints() {
        let net = fig2();
        let f = FaultSet::single(FaultSite::Router(2));
        assert!(!pair_connected(&net, &f, 2, 5));
        assert!(!pair_connected(&net, &f, 5, 2));
        assert!(pair_connected(&net, &f, 1, 5));
    }

    #[test]
    fn double_fault_can_partition() {
        // Both crossbars of PE (0,0)'s router faulty: PE0 is isolated even
        // though its router works.
        let net = fig2();
        let mut f = FaultSet::none();
        f.insert(FaultSite::Xbar(XbarRef { dim: 0, line: 0 }));
        f.insert(FaultSite::Xbar(XbarRef { dim: 1, line: 0 }));
        let rep = reachable_pairs(&net, &f);
        assert!(!rep.fully_connected());
    }
}
