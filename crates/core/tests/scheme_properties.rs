//! Property tests over the whole scheme zoo: for any fixed (header,
//! switch, fault set), a scheme's decision is deterministic — across
//! repeated calls *and* across independently built instances — and every
//! forwarded branch stays below the scheme's declared lane count.
//!
//! These are the two contracts the campaign machinery leans on without
//! checking per call: replay determinism (tokens re-run bit-for-bit) and
//! the engine's `ports = channels x max_vcs` sizing.

use mdx_core::registry::{build_scheme_for, required_topology, SCHEME_IDS};
use mdx_core::{Action, Header, RouteChange};
use mdx_fault::{FaultSet, FaultSite};
use mdx_topology::{Network, NodeId, Shape};
use proptest::prelude::*;

/// The shape each pinned topology uses in this suite (small enough that
/// proptest sweeps cover a meaningful fraction of all cases).
fn shape_for(topology: &str) -> Shape {
    match topology {
        "hypercube" => Shape::new(&[2, 2, 2]).unwrap(),
        "fullmesh" => Shape::new(&[6]).unwrap(),
        _ => Shape::new(&[3, 3]).unwrap(),
    }
}

/// The fault set a case index selects: none, or one router fault.
fn faults_for(shape: &Shape, pick: usize) -> FaultSet {
    match pick % (shape.num_pes() + 1) {
        0 => FaultSet::none(),
        r => FaultSet::single(FaultSite::Router(r - 1)),
    }
}

proptest! {
    #[test]
    fn decisions_are_deterministic_and_lanes_in_range(
        scheme_pick in 0usize..SCHEME_IDS.len(),
        fault_pick in 0usize..64,
        src in 0usize..64,
        dst in 0usize..64,
        rc_bits in 0u8..4,
        node_pick in 0usize..256,
        from_pick in 0usize..8,
    ) {
        let id = SCHEME_IDS[scheme_pick];
        let topology = required_topology(id).unwrap();
        let shape = shape_for(topology);
        let net = Network::build(topology, shape.clone()).unwrap();
        let faults = faults_for(&shape, fault_pick);
        // Schemes needing a valid config can reject a fault set; that is a
        // registry outcome, not a decision, so just skip those cases.
        let Ok(scheme) = build_scheme_for(id, &net, &faults) else {
            return Ok(());
        };
        let twin = build_scheme_for(id, &net, &faults).expect("same inputs build again");

        let n = shape.num_pes();
        let header = Header {
            rc: RouteChange::from_bits(rc_bits).unwrap(),
            src: shape.coord_of(src % n),
            dest: shape.coord_of(dst % n),
        };
        let g = net.graph();
        let at_id = NodeId((node_pick % g.num_nodes()) as u32);
        let at = g.node(at_id);
        // `came_from`: injection (None) or any upstream graph neighbor.
        let incoming = g.incoming(at_id);
        let came_from = if from_pick == 0 || incoming.is_empty() {
            None
        } else {
            let ch = incoming[from_pick % incoming.len()];
            Some(g.node(g.channel(ch).src))
        };

        let a = scheme.decide(at, came_from, &header);
        // Determinism: repeated calls and an independently built twin.
        prop_assert_eq!(&a, &scheme.decide(at, came_from, &header));
        prop_assert_eq!(&a, &twin.decide(at, came_from, &header));

        // Lane bound: every branch of every forward fits the engine's
        // `channels x max_vcs` port array.
        let max_vcs = scheme.max_vcs().max(1);
        if let Action::Forward(branches) = &a {
            for b in branches {
                prop_assert!(
                    b.vc < max_vcs,
                    "{id}: lane {} >= max_vcs {max_vcs}",
                    b.vc
                );
            }
        }
    }
}
