//! The union hold→wait graph and the acyclicity criterion.

use crate::claims::{broadcast_claims, unicast_claims, ClaimTree};
use mdx_core::{Header, Scheme};
use mdx_fault::FaultSet;
use mdx_topology::{ChannelId, MdCrossbar, NetworkGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Result of a wait-graph analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdgReport {
    /// Channels that appear in at least one claim.
    pub channels_used: usize,
    /// Distinct hold→wait edges in the union graph.
    pub edges: usize,
    /// A cyclic hold-wait, as human-readable channel descriptions, if one
    /// exists; `None` certifies deadlock freedom for the analyzed workload
    /// family.
    pub cycle: Option<Vec<String>>,
}

impl CdgReport {
    /// Whether the analyzed scheme is certified deadlock-free.
    pub fn deadlock_free(&self) -> bool {
        self.cycle.is_none()
    }
}

/// Analyzes the claim trees for a realizable cyclic hold-wait.
///
/// **Reduction.** Any deadlocked configuration contains a cycle of
/// *distinct* instances `I_1 -> I_2 -> ... -> I_m -> I_1`, where each `I_k`
/// holds a channel `h_k` (which its predecessor waits for) and waits for
/// `h_{k+1}`. A single (hold `h`, wait `w`) pair of one instance is
/// feasible iff `w` is not a prerequisite of `h` (and not `h` itself);
/// a cycle of such single pairs over distinct instances is always jointly
/// feasible. Cycles that reuse an instance reduce to shorter ones, so
/// searching distinct-instance cycles is sound *and* complete at the
/// instance level.
///
/// **Algorithm.** Chain instances (unicasts, broadcast-request legs) have
/// totally ordered claims, so chain-only cycles appear as cycles in the
/// classical channel dependency graph (consecutive-claim edges), and chain
/// *segments* between tree instances appear as CDG reachability. Tree
/// instances (broadcast fans) are searched explicitly as states
/// `(tree, held channel)` with distinct trees along the cycle, up to
/// [`MAX_TREES_IN_CYCLE`] trees. With at most one concurrent tree instance
/// (the serialized S-XB emission) the analysis is exact; with many
/// concurrent trees (the naive broadcast) patterns beyond the bound would
/// be missed, but the minimal Fig. 5 pattern needs only two.
///
/// Mutual exclusion is the caller's responsibility: pass only instances
/// that can be in flight concurrently (one S-XB emission, in particular).
pub fn analyze_trees(g: &NetworkGraph, trees: &[ClaimTree]) -> CdgReport {
    let mut used: HashSet<u32> = HashSet::new();
    for t in trees {
        for i in 0..t.len() {
            used.insert(t.resource(i));
        }
    }
    // Split instances: chains (every fan has exactly one branch) vs trees.
    let is_chain = |t: &ClaimTree| {
        let mut fan_sizes: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for &f in &t.fan {
            *fan_sizes.entry(f).or_insert(0) += 1;
        }
        fan_sizes.values().all(|&n| n == 1)
    };
    let (chains, fans): (Vec<&ClaimTree>, Vec<&ClaimTree>) =
        trees.iter().partition(|t| is_chain(t));

    // Chain CDG over lane-granular resources: consecutive-claim edges.
    let mut cdg: Vec<HashSet<u32>> =
        vec![HashSet::new(); g.num_channels() * crate::claims::MAX_VCS_KEY as usize];
    let mut edges = 0usize;
    for c in &chains {
        for i in 1..c.len() {
            if cdg[c.resource(i - 1) as usize].insert(c.resource(i)) {
                edges += 1;
            }
        }
    }
    let describe = |res: u32| {
        let ch = ChannelId(res / crate::claims::MAX_VCS_KEY);
        let vc = res % crate::claims::MAX_VCS_KEY;
        if vc == 0 {
            g.describe_channel(ch)
        } else {
            format!("{} (vc{vc})", g.describe_channel(ch))
        }
    };
    if let Some(cyc) = cdg_cycle(&cdg) {
        return CdgReport {
            channels_used: used.len(),
            edges,
            cycle: Some(
                cyc.into_iter()
                    .map(|c| format!("[chain] {}", describe(c)))
                    .collect(),
            ),
        };
    }

    // Reachability over the chain CDG, cached per source channel.
    let mut reach_cache: std::collections::HashMap<u32, HashSet<u32>> =
        std::collections::HashMap::new();
    let mut reach = |from: u32| -> HashSet<u32> {
        if let Some(r) = reach_cache.get(&from) {
            return r.clone();
        }
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for &v in &cdg[u as usize] {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        reach_cache.insert(from, seen.clone());
        seen
    };

    // Per-fan-instance feasible (hold, wait) pairs.
    let pairs: Vec<Vec<(u32, u32)>> = fans
        .iter()
        .map(|t| {
            let mut out = Vec::new();
            for i in 0..t.len() {
                let mut prereq: HashSet<usize> = t.prerequisites(i).into_iter().collect();
                prereq.insert(i);
                for j in 0..t.len() {
                    if !prereq.contains(&j) && t.resource(i) != t.resource(j) {
                        out.push((t.resource(i), t.resource(j)));
                    }
                }
            }
            out
        })
        .collect();

    // Single-tree cycles: the tree holds h and waits w, and chains carry the
    // dependency from w back to h.
    for (ti, ps) in pairs.iter().enumerate() {
        for &(h, w) in ps {
            if reach(w).contains(&h) {
                return CdgReport {
                    channels_used: used.len(),
                    edges,
                    cycle: Some(vec![
                        format!("[fan {ti}] holds {} waits {}", describe(h), describe(w)),
                        format!("[chains] {} ->* {}", describe(w), describe(h)),
                    ]),
                };
            }
        }
    }

    // Multi-tree cycles up to MAX_TREES_IN_CYCLE distinct trees. Edge
    // (T, h) -> (T', h') iff T has a pair (h, w) with w == h' or w ->* h'
    // through chains, and T' != T claims h'.
    if fans.len() >= 2 {
        // claimants of each channel among fans
        let mut fan_claims: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for (ti, t) in fans.iter().enumerate() {
            for i in 0..t.len() {
                fan_claims.entry(t.resource(i)).or_default().push(ti);
            }
        }
        // DFS over (tree, hold) with distinct trees, bounded depth.
        let mut found: Option<Vec<String>> = None;
        'search: for (t0, ps0) in pairs.iter().enumerate() {
            let holds0: HashSet<u32> = ps0.iter().map(|&(h, _)| h).collect();
            for &start_h in &holds0 {
                let mut path: Vec<(usize, u32)> = vec![(t0, start_h)];
                let mut on_path: HashSet<usize> = [t0].into_iter().collect();
                if dfs_trees(
                    &pairs,
                    &fan_claims,
                    &mut reach,
                    &mut path,
                    &mut on_path,
                    (t0, start_h),
                ) {
                    found = Some(
                        path.iter()
                            .map(|&(ti, h)| format!("[fan {ti}] holds {}", describe(h)))
                            .collect(),
                    );
                    break 'search;
                }
            }
        }
        if let Some(cycle) = found {
            return CdgReport {
                channels_used: used.len(),
                edges,
                cycle: Some(cycle),
            };
        }
    }

    CdgReport {
        channels_used: used.len(),
        edges,
        cycle: None,
    }
}

/// Bound on distinct tree (multicast) instances searched per cycle.
pub const MAX_TREES_IN_CYCLE: usize = 4;

/// DFS helper: extend `path` (last element is the current (tree, hold)
/// state) looking for a way back to `path[0]`.
fn dfs_trees(
    pairs: &[Vec<(u32, u32)>],
    fan_claims: &std::collections::HashMap<u32, Vec<usize>>,
    reach: &mut dyn FnMut(u32) -> HashSet<u32>,
    path: &mut Vec<(usize, u32)>,
    on_path: &mut HashSet<usize>,
    start: (usize, u32),
) -> bool {
    let (cur_t, cur_h) = *path.last().expect("path non-empty");
    // Waits of the current tree from hold cur_h.
    let waits: Vec<u32> = pairs[cur_t]
        .iter()
        .filter(|&&(h, _)| h == cur_h)
        .map(|&(_, w)| w)
        .collect();
    for w in waits {
        let mut targets: Vec<u32> = reach(w).into_iter().collect();
        targets.push(w);
        targets.sort_unstable();
        targets.dedup();
        // Close the cycle back to the start state?
        if path.len() >= 2 && targets.binary_search(&start.1).is_ok() {
            // The start tree must be waited on via its held channel.
            return true;
        }
        if path.len() >= MAX_TREES_IN_CYCLE {
            continue;
        }
        for &h2 in &targets {
            if let Some(claimants) = fan_claims.get(&h2) {
                for &t2 in claimants {
                    if on_path.contains(&t2) {
                        continue;
                    }
                    path.push((t2, h2));
                    on_path.insert(t2);
                    if dfs_trees(pairs, fan_claims, reach, path, on_path, start) {
                        return true;
                    }
                    on_path.remove(&t2);
                    path.pop();
                }
            }
        }
    }
    false
}

/// Cycle search on the chain CDG; returns one cycle's channels.
fn cdg_cycle(adj: &[HashSet<u32>]) -> Option<Vec<u32>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = adj.len();
    let mut color = vec![WHITE; n];
    for start in 0..n {
        if color[start] != WHITE || adj[start].is_empty() {
            continue;
        }
        let mut sorted: Vec<u32> = adj[start].iter().copied().collect();
        sorted.sort_unstable();
        color[start] = GRAY;
        let mut stack: Vec<(u32, Vec<u32>, usize)> = vec![(start as u32, sorted, 0)];
        while let Some((u, neigh, pos)) = stack.last_mut() {
            if *pos >= neigh.len() {
                color[*u as usize] = BLACK;
                stack.pop();
                continue;
            }
            let v = neigh[*pos];
            *pos += 1;
            match color[v as usize] {
                WHITE => {
                    color[v as usize] = GRAY;
                    let mut s: Vec<u32> = adj[v as usize].iter().copied().collect();
                    s.sort_unstable();
                    stack.push((v, s, 0));
                }
                GRAY => {
                    let at = stack.iter().position(|&(w, _, _)| w == v).unwrap_or(0);
                    return Some(stack[at..].iter().map(|&(w, _, _)| w).collect());
                }
                _ => {}
            }
        }
    }
    None
}

/// What traffic to include when verifying a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficFamily {
    /// Include every (src, dst) unicast pair.
    pub unicast: bool,
    /// Include a broadcast from every source.
    pub broadcast: bool,
}

impl TrafficFamily {
    /// Everything the SR2201 hardware can generate.
    pub fn all() -> Self {
        TrafficFamily {
            unicast: true,
            broadcast: true,
        }
    }
}

/// Verdict of [`verify_scheme`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeVerdict {
    /// Scheme name.
    pub scheme: String,
    /// Number of claim trees analyzed.
    pub instances: usize,
    /// The wait-graph report.
    pub report: CdgReport,
}

/// Enumerates every unicast pair and every broadcast source that is usable
/// under `faults`, extracts their claims under `scheme`, and analyzes the
/// union wait graph.
///
/// # Panics
/// Panics if claim extraction fails for a pair the fault set says is usable
/// (that is a scheme bug the analysis must not paper over).
pub fn verify_scheme(
    net: &MdCrossbar,
    scheme: &dyn Scheme,
    faults: &FaultSet,
    family: TrafficFamily,
) -> SchemeVerdict {
    let g = net.graph();
    let shape = net.shape();
    let n = shape.num_pes();
    let mut trees = Vec::new();
    if family.unicast {
        for src in 0..n {
            for dst in 0..n {
                if src == dst || !faults.pe_usable(src) || !faults.pe_usable(dst) {
                    continue;
                }
                let h = Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                let t = unicast_claims(scheme, g, h, src)
                    .unwrap_or_else(|e| panic!("unicast {src}->{dst}: {e}"));
                trees.push(t);
            }
        }
    }
    if family.broadcast {
        let serialized = scheme.serializing_node().is_some();
        let mut emission_included = false;
        for src in 0..n {
            if !faults.pe_usable(src) {
                continue;
            }
            let mut ts = broadcast_claims(scheme, g, src, shape.coord_of(src))
                .unwrap_or_else(|e| panic!("broadcast from {src}: {e}"));
            if serialized {
                // Emissions are strictly serialized (one in flight), and
                // their claim tree is source-independent: include a single
                // emission instance; requests are concurrent and all stay.
                if emission_included {
                    ts.truncate(1);
                } else {
                    emission_included = true;
                }
            }
            trees.extend(ts);
        }
    }
    let instances = trees.len();
    SchemeVerdict {
        scheme: scheme.name(),
        instances,
        report: analyze_trees(g, &trees),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_core::{NaiveBroadcast, RoutingConfig, Sr2201Routing};
    use mdx_fault::{enumerate_single_faults, FaultSet, FaultSite};
    use mdx_topology::Shape;
    use std::sync::Arc;

    fn net() -> Arc<MdCrossbar> {
        Arc::new(MdCrossbar::build(Shape::fig2()))
    }

    #[test]
    fn pure_dimension_order_unicast_is_acyclic() {
        let n = net();
        let s = Sr2201Routing::new(n.clone(), &FaultSet::none()).unwrap();
        let v = verify_scheme(
            &n,
            &s,
            &FaultSet::none(),
            TrafficFamily {
                unicast: true,
                broadcast: false,
            },
        );
        assert!(v.report.deadlock_free(), "{:?}", v.report.cycle);
        assert_eq!(v.instances, 12 * 11);
    }

    #[test]
    fn sxb_broadcast_plus_unicast_is_acyclic() {
        // The fault-free SR2201: serialized broadcast coexists with
        // dimension-order unicast without any cyclic hold-wait.
        let n = net();
        let s = Sr2201Routing::new(n.clone(), &FaultSet::none()).unwrap();
        let v = verify_scheme(&n, &s, &FaultSet::none(), TrafficFamily::all());
        assert!(v.report.deadlock_free(), "{:?}", v.report.cycle);
    }

    #[test]
    fn naive_broadcast_is_cyclic() {
        // Fig. 5 statically: two unserialized broadcasts can close a cyclic
        // hold-wait over the Y-dimension crossbar ports.
        let n = net();
        let s = NaiveBroadcast::new(n.clone());
        let v = verify_scheme(
            &n,
            &s,
            &FaultSet::none(),
            TrafficFamily {
                unicast: false,
                broadcast: true,
            },
        );
        let cycle = v.report.cycle.expect("naive broadcast must be cyclic");
        // The minimal pattern found can sit on either crossbar family: two
        // same-row broadcasts split the row crossbar's ports, two
        // different-row broadcasts split the Y crossbars' (the paper's
        // picture). Either way it is a crossbar-port cycle.
        assert!(cycle.iter().any(|c| c.contains("-XB")), "{cycle:?}");
    }

    #[test]
    fn paper_scheme_acyclic_under_every_single_fault() {
        // Fig. 10 statically: D-XB = S-XB keeps the wait graph acyclic for
        // every single fault, with full unicast + broadcast traffic.
        let n = net();
        for site in enumerate_single_faults(&n) {
            let faults = FaultSet::single(site);
            let s = Sr2201Routing::new(n.clone(), &faults).unwrap();
            let v = verify_scheme(&n, &s, &faults, TrafficFamily::all());
            assert!(
                v.report.deadlock_free(),
                "{site}: cycle {:?}",
                v.report.cycle
            );
        }
    }

    #[test]
    fn separate_dxb_is_cyclic_under_a_router_fault() {
        // Fig. 9 statically: moving the D-XB away from the S-XB creates a
        // cyclic hold-wait between detoured unicasts and broadcasts.
        let n = net();
        let shape = n.shape().clone();
        let faulty = shape.index_of(mdx_topology::Coord::new(&[1, 0]));
        let faults = FaultSet::single(FaultSite::Router(faulty));
        let cfg = RoutingConfig::for_faults(&shape, &faults)
            .unwrap()
            .with_separate_dxb(&faults)
            .unwrap();
        let s = Sr2201Routing::with_config(n.clone(), cfg, &faults);
        let v = verify_scheme(&n, &s, &faults, TrafficFamily::all());
        assert!(!v.report.deadlock_free(), "fig9 variant must be cyclic");
    }

    #[test]
    fn o1turn_extension_is_acyclic_at_lane_granularity() {
        // The two-order extension: each order's sub-network is
        // dimension-ordered on its own lane, so the union is acyclic —
        // but only when resources are (channel, lane) pairs.
        let n = Arc::new(MdCrossbar::build(Shape::new(&[4, 4]).unwrap()));
        let s = mdx_core::O1TurnRouting::new(n.clone(), 7);
        let v = verify_scheme(
            &n,
            &s,
            &FaultSet::none(),
            TrafficFamily {
                unicast: true,
                broadcast: false,
            },
        );
        assert!(v.report.deadlock_free(), "{:?}", v.report.cycle);
    }

    #[test]
    fn torus_dateline_vcs_certified_by_chain_cdg() {
        // The dateline torus baseline: plain shortest-way DOR has ring
        // cycles; splitting at the dateline onto lane 1 breaks them.
        use mdx_baselines_shim::*;
        let shape = Shape::new(&[5, 5]).unwrap();
        let torus = Arc::new(mdx_topology::mesh::DirectNetwork::build(
            shape.clone(),
            mdx_topology::mesh::Wrap::Torus,
        ));
        let analyze = |scheme: &dyn mdx_core::Scheme| {
            let mut trees = Vec::new();
            for src in 0..shape.num_pes() {
                for dst in 0..shape.num_pes() {
                    if src == dst {
                        continue;
                    }
                    let h = mdx_core::Header::unicast(shape.coord_of(src), shape.coord_of(dst));
                    trees.push(
                        crate::claims::unicast_claims(scheme, torus.graph(), h, src).unwrap(),
                    );
                }
            }
            analyze_trees(torus.graph(), &trees)
        };
        let plain = analyze(&dor_plain(torus.clone()));
        assert!(!plain.deadlock_free(), "plain torus DOR must have a cycle");
        let dateline = analyze(&dor_dateline(torus.clone()));
        assert!(
            dateline.deadlock_free(),
            "dateline torus cycle: {:?}",
            dateline.cycle
        );
    }

    /// Tiny local reimplementation of the baseline torus schemes so this
    /// crate does not depend on `mdx-baselines` (which depends on the
    /// simulator). Mirrors `mdx_baselines::DirectDor` exactly.
    mod mdx_baselines_shim {
        use mdx_core::{Action, Branch, DropReason, Header, RouteChange, Scheme};
        use mdx_topology::mesh::{DirectNetwork, Wrap};
        use mdx_topology::{Coord, Node};
        use std::sync::Arc;

        pub struct TorusDor {
            net: Arc<DirectNetwork>,
            dateline: bool,
        }

        pub fn dor_plain(net: Arc<DirectNetwork>) -> TorusDor {
            TorusDor {
                net,
                dateline: false,
            }
        }

        pub fn dor_dateline(net: Arc<DirectNetwork>) -> TorusDor {
            TorusDor {
                net,
                dateline: true,
            }
        }

        impl TorusDor {
            fn next_hop(&self, c: Coord, src: Coord, dest: Coord) -> Option<(Coord, u8)> {
                let shape = self.net.shape();
                for dim in 0..shape.d() {
                    if c.get(dim) == dest.get(dim) {
                        continue;
                    }
                    let e = shape.extent(dim) as i32;
                    let fwd = (dest.get(dim) as i32 - c.get(dim) as i32).rem_euclid(e);
                    let positive = match self.net.wrap() {
                        Wrap::Mesh => dest.get(dim) > c.get(dim),
                        Wrap::Torus => fwd <= e - fwd,
                    };
                    let next = self.net.neighbor(c, dim, positive)?;
                    let vc = if !self.dateline {
                        0
                    } else {
                        let entry = src.get(dim);
                        let p = c.get(dim);
                        let crossed = if positive {
                            p < entry || next.get(dim) < p
                        } else {
                            p > entry || next.get(dim) > p
                        };
                        u8::from(crossed)
                    };
                    return Some((next, vc));
                }
                None
            }
        }

        impl Scheme for TorusDor {
            fn name(&self) -> String {
                "torus shim".into()
            }
            fn max_vcs(&self) -> u8 {
                if self.dateline {
                    2
                } else {
                    1
                }
            }
            fn decide(&self, at: Node, came_from: Option<Node>, header: &Header) -> Action {
                if header.rc != RouteChange::Normal {
                    return Action::Drop(DropReason::ProtocolViolation);
                }
                match at {
                    Node::Pe(p) => match came_from {
                        None => Action::Forward(vec![Branch::new(Node::Router(p), *header)]),
                        Some(Node::Router(_)) => Action::Deliver,
                        Some(_) => Action::Drop(DropReason::ProtocolViolation),
                    },
                    Node::Router(r) => {
                        let c = self.net.shape().coord_of(r);
                        match self.next_hop(c, header.src, header.dest) {
                            None => Action::Forward(vec![Branch::new(Node::Pe(r), *header)]),
                            Some((nc, vc)) => Action::Forward(vec![Branch::on_vc(
                                Node::Router(self.net.shape().index_of(nc)),
                                *header,
                                vc,
                            )]),
                        }
                    }
                    Node::Xbar(_) => Action::Drop(DropReason::ProtocolViolation),
                }
            }
        }
    }

    #[test]
    fn three_dimensional_scheme_acyclic() {
        let n = Arc::new(MdCrossbar::build(Shape::new(&[3, 3, 2]).unwrap()));
        for site in [
            None,
            Some(FaultSite::Router(4)),
            Some(FaultSite::Xbar(mdx_topology::XbarRef { dim: 1, line: 1 })),
        ] {
            let faults = site.map(FaultSet::single).unwrap_or_default();
            let s = Sr2201Routing::new(n.clone(), &faults).unwrap();
            let v = verify_scheme(&n, &s, &faults, TrafficFamily::all());
            assert!(
                v.report.deadlock_free(),
                "{site:?}: cycle {:?}",
                v.report.cycle
            );
        }
    }
}
