//! # mdx-bench
//!
//! The experiment harness: every figure-level result of the paper, plus the
//! quantified claims of Secs. 2-3 and the ablations listed in DESIGN.md, as
//! library functions returning [`report::Table`]s. The `experiments` binary
//! dispatches on experiment ids and prints the tables (optionally dumping
//! JSON); the Criterion benches time scaled-down versions of each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod claims;
pub mod extensions;
pub mod figures;
pub mod report;
pub mod sentinel;
pub mod trajectory;

use mdx_core::Scheme;
use mdx_sim::{InjectSpec, SimConfig, SimResult, Simulator};
use mdx_topology::NetworkGraph;
use std::sync::Arc;

pub use report::Table;
pub use sentinel::{scan_file, scan_path, MetricVerdict, SentinelReport};
pub use trajectory::{
    append_snapshot, snapshot_fig10, snapshot_fig9, snapshot_tournament, TrajectoryEntry,
    TrajectoryFile,
};

/// Runs one schedule to completion and returns the result.
pub fn run_schedule(
    graph: &NetworkGraph,
    scheme: Arc<dyn Scheme>,
    specs: &[InjectSpec],
    cfg: SimConfig,
) -> SimResult {
    let mut sim = Simulator::new(graph.clone(), scheme, cfg);
    for &s in specs {
        sim.schedule(s);
    }
    sim.run()
}

/// All experiment ids, in presentation order.
pub fn experiment_ids() -> Vec<&'static str> {
    vec![
        "fig2-topology",
        "fig3-packet",
        "fig5-bc-deadlock",
        "fig6-sxb-broadcast",
        "fig8-detour",
        "fig9-combined-deadlock",
        "fig10-deadlock-free",
        "claim-mdx-vs-mesh",
        "claim-fault-overhead",
        "claim-bc-scaling",
        "claim-scale-2048",
        "claim-saturation",
        "abl-buffer-depth",
        "abl-sxb-placement",
        "ext-multi-fault",
        "ext-adaptive-order",
        "ext-hotspots",
        "ext-switching",
        "ext-diagnosis",
        "ext-reconfig",
    ]
}

/// Runs one experiment by id.
///
/// # Panics
/// Panics on an unknown id (the binary validates first).
pub fn run_experiment(id: &str) -> Vec<Table> {
    match id {
        "fig2-topology" => figures::fig2_topology(),
        "fig3-packet" => figures::fig3_packet(),
        "fig5-bc-deadlock" => figures::fig5_bc_deadlock(),
        "fig6-sxb-broadcast" => figures::fig6_sxb_broadcast(),
        "fig8-detour" => figures::fig8_detour(),
        "fig9-combined-deadlock" => figures::fig9_combined_deadlock(),
        "fig10-deadlock-free" => figures::fig10_deadlock_free(),
        "claim-mdx-vs-mesh" => claims::mdx_vs_mesh(),
        "claim-fault-overhead" => claims::fault_overhead(),
        "claim-bc-scaling" => claims::bc_scaling(),
        "claim-scale-2048" => claims::scale_2048(),
        "claim-saturation" => extensions::saturation(),
        "abl-buffer-depth" => ablations::buffer_depth(),
        "abl-sxb-placement" => ablations::sxb_placement(),
        "ext-multi-fault" => extensions::multi_fault(),
        "ext-adaptive-order" => extensions::adaptive_order(),
        "ext-hotspots" => extensions::hotspots(),
        "ext-switching" => extensions::switching(),
        "ext-diagnosis" => extensions::diagnosis(),
        "ext-reconfig" => extensions::reconfig_policies(),
        other => panic!("unknown experiment id {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_dispatchable_cheaply() {
        let ids = experiment_ids();
        let set: std::collections::HashSet<&&str> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        // The cheap experiments run end-to-end in tests (the heavier ones
        // are covered by the release-mode `experiments` binary runs).
        for id in ["fig3-packet", "fig2-topology", "ext-hotspots"] {
            let tables = run_experiment(id);
            assert!(!tables.is_empty(), "{id}");
            for t in &tables {
                assert!(!t.columns.is_empty());
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.id);
                let rendered = t.render();
                assert!(rendered.contains(&t.id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_experiment("no-such-thing");
    }

    #[test]
    fn run_schedule_smoke() {
        use mdx_core::{Header, Sr2201Routing};
        use mdx_fault::FaultSet;
        use mdx_topology::{MdCrossbar, Shape};
        let net = Arc::new(MdCrossbar::build(Shape::fig2()));
        let shape = net.shape().clone();
        let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
        let specs = vec![InjectSpec {
            src_pe: 0,
            header: Header::unicast(shape.coord_of(0), shape.coord_of(7)),
            flits: 4,
            inject_at: 0,
        }];
        let r = run_schedule(net.graph(), scheme, &specs, SimConfig::default());
        assert_eq!(r.stats.delivered, 1);
    }
}
