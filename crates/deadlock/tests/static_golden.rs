//! Golden static walks: every walk of a scheme's decisions that the static
//! analysis and the route tracers make, compared byte for byte against
//! `tests/golden/static_walks.jsonl`.
//!
//! Three kinds of line:
//!
//! * a `verdict` line holds the whole [`mdx_deadlock::SchemeVerdict`]
//!   (instances, channels used, hold→wait edges and the reported cycle)
//!   of `sr2201`, `separate-dxb` and `o1turn` on 4x3 and 3x3x2,
//!   fault-free and under every single fault: unicast and broadcast
//!   traffic, unicast only for `o1turn` (it has no broadcast). A
//!   combination the registry cannot configure is a `skip` line with its
//!   reason, and one whose claim extraction fails (`verify_scheme` panics,
//!   as `separate-dxb` does when a crossbar fault leaves a pair no usable
//!   path) a `panic` line with the message;
//! * a `claims` line holds, for those three schemes and `naive-broadcast`
//!   on the same shapes and faults, the FNV-1a digest of every claim tree
//!   `verify_scheme` extracts (each usable pair's unicast, each usable
//!   source's broadcast), errors included. `naive-broadcast` has no
//!   verdict line: its many concurrent broadcast trees send the analysis
//!   into the multi-tree cycle search, which iterates a hash set, so the
//!   cycle it reports (and its running time: 2 ms in one process, over
//!   5 s in another, on fault-free 4x3) changes from run to run;
//! * a `traces` line holds, for one registered scheme on its home topology
//!   among the tournament zoo's (`mdx:3x3 hyperx:3x3 fullmesh:6
//!   hypercube:2x2x2`) under one fault set, the FNV-1a digests of every
//!   `trace_unicast` route (its `pretty()` rendering) and of every
//!   `trace_broadcast` result (delivered order, edges, `gathered`,
//!   duplicates), errors included, with the count of each that failed.
//!
//! The golden is never regenerated. On a mismatch the actual bytes are
//! written to the test's scratch directory for inspection.

use mdx_core::registry::{build_scheme, build_scheme_for, required_topology, SCHEME_IDS};
use mdx_core::{trace_broadcast, trace_unicast, Header};
use mdx_deadlock::waitgraph::TrafficFamily;
use mdx_deadlock::{broadcast_claims, unicast_claims, verify_scheme, ClaimTree};
use mdx_fault::{enumerate_single_faults, FaultSet, FaultSite};
use mdx_topology::{MdCrossbar, Network, Shape};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit, continued from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn shape_name(extents: &[u16]) -> String {
    extents
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn fault_name(site: Option<FaultSite>) -> String {
    site.map_or("none".to_string(), |s| s.node().to_string())
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap()
}

fn tree_text(t: &ClaimTree) -> String {
    let channels: Vec<u32> = t.channels.iter().map(|c| c.0).collect();
    format!(
        "channels {channels:?} vcs {:?} parent {:?} fan {:?}",
        t.vcs, t.parent, t.fan
    )
}

/// Every claim tree `verify_scheme` extracts under `id`, digested.
fn claims_digest(net: &Arc<MdCrossbar>, id: &str, faults: &FaultSet) -> String {
    let scheme = build_scheme(id, net.clone(), faults).unwrap();
    let (g, shape) = (net.graph(), net.shape());
    let n = shape.num_pes();
    let mut hash = FNV_OFFSET;
    for src in (0..n).filter(|&p| faults.pe_usable(p)) {
        for dst in (0..n).filter(|&p| p != src && faults.pe_usable(p)) {
            let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
            let text = match unicast_claims(&*scheme, g, h, src) {
                Ok(t) => tree_text(&t),
                Err(e) => format!("error {e}"),
            };
            hash = fnv1a(format!("{src}->{dst}: {text}\n").as_bytes(), hash);
        }
        let text = match broadcast_claims(&*scheme, g, src, shape.coord_of(src)) {
            Ok(ts) => ts.iter().map(tree_text).collect::<Vec<_>>().join(" | "),
            Err(e) => format!("error {e}"),
        };
        hash = fnv1a(format!("{src}: {text}\n").as_bytes(), hash);
    }
    format!("{hash:016x}")
}

fn verdict_lines(lines: &mut Vec<String>) {
    let unicast = TrafficFamily {
        unicast: true,
        broadcast: false,
    };
    let runs = [
        ("sr2201", Some(TrafficFamily::all())),
        ("separate-dxb", Some(TrafficFamily::all())),
        ("naive-broadcast", None),
        ("o1turn", Some(unicast)),
    ];
    for extents in [&[4u16, 3][..], &[3, 3, 2]] {
        let net = Arc::new(MdCrossbar::build(Shape::new(extents).unwrap()));
        let sites =
            std::iter::once(None).chain(enumerate_single_faults(&net).into_iter().map(Some));
        for site in sites {
            let faults = site.map(FaultSet::single).unwrap_or_default();
            for (id, family) in runs {
                let head = format!(
                    "\"shape\":\"{}\",\"scheme\":\"{id}\",\"fault\":\"{}\"",
                    shape_name(extents),
                    fault_name(site)
                );
                let scheme = match build_scheme(id, net.clone(), &faults) {
                    Ok(s) => s,
                    Err(e) => {
                        lines.push(format!(
                            "{{\"verdict\":{{{head}}},\"skip\":{}}}",
                            json_string(&e.to_string())
                        ));
                        continue;
                    }
                };
                if let Some(family) = family {
                    let verdict = catch_unwind(AssertUnwindSafe(|| {
                        verify_scheme(&net, &*scheme, &faults, family)
                    }));
                    lines.push(match verdict {
                        Ok(v) => format!(
                            "{{\"verdict\":{{{head}}},\"result\":{}}}",
                            serde_json::to_string(&v).unwrap()
                        ),
                        Err(panic) => format!(
                            "{{\"verdict\":{{{head}}},\"panic\":{}}}",
                            json_string(panic.downcast_ref::<String>().unwrap())
                        ),
                    });
                }
                lines.push(format!(
                    "{{\"claims\":{{{head}}},\"digest\":\"{}\"}}",
                    claims_digest(&net, id, &faults)
                ));
            }
        }
    }
}

fn trace_lines(lines: &mut Vec<String>) {
    let zoo = [
        ("mdx", &[3u16, 3][..]),
        ("hyperx", &[3, 3]),
        ("fullmesh", &[6]),
        ("hypercube", &[2, 2, 2]),
    ];
    for &id in SCHEME_IDS {
        let kind = required_topology(id).unwrap();
        let (_, extents) = zoo.iter().find(|(k, _)| *k == kind).unwrap();
        let shape = Shape::new(extents).unwrap();
        let net = Network::build(kind, shape.clone()).unwrap();
        let n = shape.num_pes();
        let mut sites: Vec<Option<FaultSite>> = vec![None];
        match net.as_mdx() {
            Some(mdx) => sites.extend(enumerate_single_faults(mdx).into_iter().map(Some)),
            None => sites.extend((0..n).map(|r| Some(FaultSite::Router(r)))),
        }
        for site in sites {
            let faults = site.map(FaultSet::single).unwrap_or_default();
            let head = format!(
                "\"topology\":\"{kind}:{}\",\"scheme\":\"{id}\",\"fault\":\"{}\"",
                shape_name(extents),
                fault_name(site)
            );
            let scheme = match build_scheme_for(id, &net, &faults) {
                Ok(s) => s,
                Err(e) => {
                    lines.push(format!(
                        "{{\"traces\":{{{head}}},\"skip\":{}}}",
                        json_string(&e.to_string())
                    ));
                    continue;
                }
            };
            let g = net.graph();
            let (mut unicast, mut unicast_errors) = (FNV_OFFSET, 0);
            for src in 0..n {
                for dst in (0..n).filter(|&d| d != src) {
                    let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    let text = match trace_unicast(&*scheme, g, h, src) {
                        Ok(t) => t.pretty(),
                        Err(e) => {
                            unicast_errors += 1;
                            format!("error {e:?}")
                        }
                    };
                    unicast = fnv1a(format!("{src}->{dst}: {text}\n").as_bytes(), unicast);
                }
            }
            let (mut broadcast, mut broadcast_errors) = (FNV_OFFSET, 0);
            for src in 0..n {
                let text = match trace_broadcast(&*scheme, g, src, shape.coord_of(src)) {
                    Ok(t) => {
                        let edges: Vec<String> =
                            t.edges.iter().map(|(a, b)| format!("{a}>{b}")).collect();
                        format!(
                            "delivered {:?} edges {} gathered {} duplicates {:?}",
                            t.delivered,
                            edges.join(","),
                            t.gathered,
                            t.duplicates
                        )
                    }
                    Err(e) => {
                        broadcast_errors += 1;
                        format!("error {e:?}")
                    }
                };
                broadcast = fnv1a(format!("{src}: {text}\n").as_bytes(), broadcast);
            }
            lines.push(format!(
                "{{\"traces\":{{{head}}},\"unicast\":\"{unicast:016x}\",\
                 \"unicast_errors\":{unicast_errors},\"broadcast\":\"{broadcast:016x}\",\
                 \"broadcast_errors\":{broadcast_errors}}}"
            ));
        }
    }
}

#[test]
fn static_walks_match_golden() {
    let mut lines = Vec::new();
    // The expected `verify_scheme` panics are recorded, not printed.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    verdict_lines(&mut lines);
    std::panic::set_hook(hook);
    trace_lines(&mut lines);
    let mut actual = lines.join("\n");
    actual.push('\n');

    let golden = "static_walks.jsonl";
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden);
        std::fs::write(&out, &actual).expect("write actual output");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or("a missing or extra line".to_string(), |i| {
                format!("line {}: {}", i + 1, &lines[i][..lines[i].len().min(160)])
            });
        panic!(
            "{golden} differs at {first}; actual output written to {}",
            out.display()
        );
    }
}
