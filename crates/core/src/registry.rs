//! Routing schemes by name.
//!
//! The experiment campaigns identify schemes by stable string ids so a
//! whole run can be replayed from a printed token. This module is the
//! single place those ids are defined:
//!
//! | id | scheme | topology |
//! |----|--------|----------|
//! | `sr2201` | the paper's deadlock-free scheme (D-XB = S-XB) | `mdx` |
//! | `separate-dxb` | the Fig. 9 deadlock-prone variant (D-XB ≠ S-XB) | `mdx` |
//! | `naive-broadcast` | the unserialized Fig. 5 broadcast strawman | `mdx` |
//! | `o1turn` | the O1TURN baseline (no fault tolerance, no broadcast) | `mdx` |
//! | `hyperx-ft` | DF-DIM-style fault-tolerant HyperX routing, 2 lanes | `hyperx` |
//! | `fullmesh-vcfree` | VC-free up*/down* full-mesh routing | `fullmesh` |
//! | `hypercube-avoid` | fault-avoiding bit-fixing, no lanes | `hypercube` |
//!
//! Every scheme is pinned to the topology its deadlock argument is stated
//! over ([`required_topology`]); [`build_scheme_for`] enforces the pairing
//! so a tournament sweep can skip incompatible cells instead of silently
//! routing a clique scheme on a crossbar.

use crate::config::{ConfigError, RoutingConfig};
use crate::fullmesh::FullMeshVcFree;
use crate::hypercube_avoid::HypercubeAvoid;
use crate::hyperx_ft::HyperXFtRouting;
use crate::naive::NaiveBroadcast;
use crate::o1turn::O1TurnRouting;
use crate::scheme::Scheme;
use crate::sr2201::Sr2201Routing;
use mdx_fault::FaultSet;
use mdx_topology::{MdCrossbar, Network};
use std::sync::Arc;

/// The registered scheme ids, in presentation order.
pub const SCHEME_IDS: &[&str] = &[
    "sr2201",
    "separate-dxb",
    "naive-broadcast",
    "o1turn",
    "hyperx-ft",
    "fullmesh-vcfree",
    "hypercube-avoid",
];

/// The topology id a scheme's routing function (and its deadlock-freedom
/// argument) is defined over. `None` for unregistered ids.
pub fn required_topology(id: &str) -> Option<&'static str> {
    match id {
        "sr2201" | "separate-dxb" | "naive-broadcast" | "o1turn" => Some("mdx"),
        "hyperx-ft" => Some("hyperx"),
        "fullmesh-vcfree" => Some("fullmesh"),
        "hypercube-avoid" => Some("hypercube"),
        _ => None,
    }
}

/// Why a scheme could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The id is not in [`SCHEME_IDS`].
    UnknownScheme(String),
    /// The shape/fault combination admits no routing configuration.
    Config(ConfigError),
    /// The scheme is pinned to a different topology than the one supplied.
    TopologyMismatch {
        /// The requested scheme id.
        scheme: String,
        /// The topology the scheme requires.
        requires: &'static str,
        /// The topology that was supplied.
        got: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownScheme(id) => {
                write!(
                    f,
                    "unknown scheme `{id}` (known: {})",
                    SCHEME_IDS.join(", ")
                )
            }
            RegistryError::Config(e) => write!(f, "cannot configure scheme: {e}"),
            RegistryError::TopologyMismatch {
                scheme,
                requires,
                got,
            } => write!(
                f,
                "scheme `{scheme}` requires topology `{requires}`, got `{got}`"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ConfigError> for RegistryError {
    fn from(e: ConfigError) -> RegistryError {
        RegistryError::Config(e)
    }
}

/// Builds the scheme registered under `id` for the MD crossbar `net` under
/// `faults`. Kept for the crossbar-only callers; ids pinned to other
/// topologies report a [`RegistryError::TopologyMismatch`].
pub fn build_scheme(
    id: &str,
    net: Arc<MdCrossbar>,
    faults: &FaultSet,
) -> Result<Arc<dyn Scheme>, RegistryError> {
    build_scheme_for(id, &Network::Mdx(net), faults)
}

/// Builds the scheme registered under `id` over any [`Network`], enforcing
/// the scheme <-> topology pairing from [`required_topology`].
pub fn build_scheme_for(
    id: &str,
    net: &Network,
    faults: &FaultSet,
) -> Result<Arc<dyn Scheme>, RegistryError> {
    let requires =
        required_topology(id).ok_or_else(|| RegistryError::UnknownScheme(id.to_string()))?;
    if requires != net.kind() {
        return Err(RegistryError::TopologyMismatch {
            scheme: id.to_string(),
            requires,
            got: net.kind().to_string(),
        });
    }
    match (id, net) {
        ("sr2201", Network::Mdx(n)) => Ok(Arc::new(Sr2201Routing::new(n.clone(), faults)?)),
        ("separate-dxb", Network::Mdx(n)) => {
            let cfg = RoutingConfig::for_faults(n.shape(), faults)?.with_separate_dxb(faults)?;
            Ok(Arc::new(Sr2201Routing::with_config(n.clone(), cfg, faults)))
        }
        ("naive-broadcast", Network::Mdx(n)) => Ok(Arc::new(NaiveBroadcast::new(n.clone()))),
        ("o1turn", Network::Mdx(n)) => Ok(Arc::new(O1TurnRouting::new(n.clone(), 0))),
        ("hyperx-ft", Network::HyperX(n)) => Ok(Arc::new(HyperXFtRouting::new(n.clone(), faults))),
        ("fullmesh-vcfree", Network::HyperX(n)) => {
            Ok(Arc::new(FullMeshVcFree::new(n.clone(), faults, 0)))
        }
        ("hypercube-avoid", Network::Direct(n)) => {
            Ok(Arc::new(HypercubeAvoid::new(n.clone(), faults)))
        }
        // `required_topology` + the kind check above make this unreachable,
        // but a registry should fail closed rather than panic.
        (other, _) => Err(RegistryError::UnknownScheme(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_fault::FaultSite;
    use mdx_topology::Shape;

    fn fig2() -> Arc<MdCrossbar> {
        Arc::new(MdCrossbar::build(Shape::fig2()))
    }

    /// The shape each scheme's pinned topology accepts in these tests.
    fn shape_for(topology: &str) -> Shape {
        if topology == "hypercube" {
            Shape::new(&[2, 2, 2]).unwrap()
        } else {
            Shape::fig2()
        }
    }

    #[test]
    fn every_registered_id_builds_fault_free() {
        for &id in SCHEME_IDS {
            let topology = required_topology(id).unwrap();
            let net = Network::build(topology, shape_for(topology)).unwrap();
            let s = build_scheme_for(id, &net, &FaultSet::none()).unwrap();
            assert!(!s.name().is_empty());
            assert!(s.max_vcs() >= 1);
        }
    }

    #[test]
    fn scheme_ids_have_no_duplicates_and_all_have_topologies() {
        for (i, &id) in SCHEME_IDS.iter().enumerate() {
            assert!(!SCHEME_IDS[i + 1..].contains(&id), "duplicate id {id}");
            assert!(required_topology(id).is_some(), "{id} has no topology");
        }
        assert_eq!(required_topology("nope"), None);
    }

    #[test]
    fn separate_dxb_differs_from_paper_scheme_under_fault() {
        let net = fig2();
        let faults = FaultSet::single(FaultSite::Router(
            net.shape().index_of(mdx_topology::Coord::new(&[1, 0])),
        ));
        let cfg = RoutingConfig::for_faults(net.shape(), &faults)
            .unwrap()
            .with_separate_dxb(&faults)
            .unwrap();
        assert!(!cfg.deadlock_free());
        assert!(build_scheme("separate-dxb", net, &faults).is_ok());
    }

    #[test]
    fn separate_dxb_without_a_second_line_is_an_error() {
        // Each of these once panicked: a 1-D machine has no second
        // dimension for the D-XB line, and on 2x2 and 2x2x2 the S-XB's
        // line and the faulty router's take every coordinate left.
        for (extents, faults) in [
            (&[4][..], FaultSet::none()),
            (&[2, 2][..], FaultSet::single(FaultSite::Router(2))),
            (&[3, 2][..], FaultSet::single(FaultSite::Router(3))),
            (&[2, 2, 2][..], FaultSet::single(FaultSite::Router(4))),
        ] {
            let net = Arc::new(MdCrossbar::build(Shape::new(extents).unwrap()));
            let err = build_scheme("separate-dxb", net.clone(), &faults)
                .err()
                .unwrap();
            assert_eq!(
                err,
                RegistryError::Config(ConfigError::NoSeparateDxbLine),
                "{extents:?}"
            );
            assert!(err.to_string().contains("D-XB"), "{err}");
            assert!(build_scheme("sr2201", net, &faults).is_ok(), "{extents:?}");
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let err = build_scheme("nope", fig2(), &FaultSet::none())
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::UnknownScheme(_)));
        assert!(err.to_string().contains("sr2201"));
        assert!(err.to_string().contains("hyperx-ft"));
    }

    #[test]
    fn topology_mismatch_is_an_error() {
        // A clique scheme on the crossbar...
        let err = build_scheme("hyperx-ft", fig2(), &FaultSet::none())
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::TopologyMismatch { .. }));
        assert!(err.to_string().contains("hyperx"));
        // ...and the paper scheme off it.
        let hx = Network::build("hyperx", Shape::fig2()).unwrap();
        let err = build_scheme_for("sr2201", &hx, &FaultSet::none())
            .err()
            .unwrap();
        assert!(matches!(err, RegistryError::TopologyMismatch { .. }));
    }

    #[test]
    fn config_errors_propagate() {
        // Faulty crossbars in two different dimensions admit no dimension
        // order that clears both.
        let net = fig2();
        let faults: FaultSet = [
            FaultSite::Xbar(mdx_topology::XbarRef { dim: 0, line: 0 }),
            FaultSite::Xbar(mdx_topology::XbarRef { dim: 1, line: 1 }),
        ]
        .into_iter()
        .collect();
        let err = build_scheme("sr2201", net, &faults).err().unwrap();
        assert!(matches!(err, RegistryError::Config(_)));
    }
}
