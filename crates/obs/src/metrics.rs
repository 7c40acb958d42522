//! Channel- and crossbar-level traffic metrics.
//!
//! [`MetricsObserver`] accumulates, per directed channel: flit counts, peak
//! downstream-buffer occupancy, blocked episodes and blocked cycles; plus
//! run-level series (S-XB gather-queue depth over time), detour counts, and
//! a log₂ histogram of blocked-episode durations. [`MetricsObserver::report`]
//! reduces the raw tables into a [`MetricsReport`]: per-channel rows,
//! per-crossbar output utilization (the quantity Fig. 6's serialization
//! argument is about — the S-XB's output fan is the broadcast bottleneck),
//! and a text heatmap for terminals.

use mdx_core::RouteChange;
use mdx_sim::{InjectSpec, PacketId, SimObserver};
use mdx_topology::{ChannelId, NetworkGraph, Node, XbarRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Glyph ramp shared by the text heatmaps (same ramp as the bench reports).
const RAMP: &[u8] = b" .:-=+*#%@";

/// Number of log₂ buckets in the blocked-episode duration histogram
/// (bucket *i* counts episodes lasting `[2^i, 2^(i+1))` cycles; the last
/// bucket is open-ended).
pub const BLOCKED_BUCKETS: usize = 16;

/// One S-XB serialization-queue depth change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatherSample {
    /// Cycle of the enqueue/dequeue.
    pub now: u64,
    /// Queue depth immediately after it.
    pub depth: usize,
}

/// The metrics instrument: implements [`SimObserver`]; build with
/// [`MetricsObserver::new`], attach with
/// [`mdx_sim::Simulator::add_observer`], and read the results afterwards
/// with [`MetricsObserver::report`].
pub struct MetricsObserver {
    graph: NetworkGraph,
    flits: Vec<u64>,
    peak_occupancy: Vec<usize>,
    blocked_events: Vec<u64>,
    blocked_cycles: Vec<u64>,
    blocked_hist: [u64; BLOCKED_BUCKETS],
    gather_series: Vec<GatherSample>,
    gather_peak: usize,
    injected: u64,
    hops: u64,
    detours: u64,
}

impl MetricsObserver {
    /// Creates the observer for a run on `graph` (the same graph handed to
    /// the simulator — channel ids must agree).
    pub fn new(graph: NetworkGraph) -> MetricsObserver {
        let n = graph.num_channels();
        MetricsObserver {
            graph,
            flits: vec![0; n],
            peak_occupancy: vec![0; n],
            blocked_events: vec![0; n],
            blocked_cycles: vec![0; n],
            blocked_hist: [0; BLOCKED_BUCKETS],
            gather_series: Vec::new(),
            gather_peak: 0,
            injected: 0,
            hops: 0,
            detours: 0,
        }
    }
}

impl SimObserver for MetricsObserver {
    fn on_inject(&mut self, _id: PacketId, _spec: &InjectSpec, _now: u64) {
        self.injected += 1;
    }

    fn on_hop(&mut self, _id: PacketId, _at: Node, _in_channel: Option<ChannelId>, _now: u64) {
        self.hops += 1;
    }

    fn on_rc_change(
        &mut self,
        _id: PacketId,
        _at: Node,
        _from: RouteChange,
        to: RouteChange,
        _now: u64,
    ) {
        if to == RouteChange::Detour {
            self.detours += 1;
        }
    }

    fn on_blocked(
        &mut self,
        _id: PacketId,
        channel: ChannelId,
        _vc: u8,
        _holder: Option<PacketId>,
        _now: u64,
    ) {
        self.blocked_events[channel.idx()] += 1;
    }

    fn on_unblocked(&mut self, _id: PacketId, channel: ChannelId, _vc: u8, waited: u64, _now: u64) {
        self.blocked_cycles[channel.idx()] += waited;
        let bucket = if waited <= 1 {
            0
        } else {
            ((63 - waited.leading_zeros()) as usize).min(BLOCKED_BUCKETS - 1)
        };
        self.blocked_hist[bucket] += 1;
    }

    fn on_flit(&mut self, channel: ChannelId, _vc: u8, occupancy: usize, _now: u64) {
        self.flits[channel.idx()] += 1;
        let peak = &mut self.peak_occupancy[channel.idx()];
        *peak = (*peak).max(occupancy);
    }

    fn on_gather(&mut self, _id: PacketId, depth: usize, now: u64) {
        self.gather_series.push(GatherSample { now, depth });
        self.gather_peak = self.gather_peak.max(depth);
    }

    fn on_emission(&mut self, _id: PacketId, depth: usize, now: u64) {
        self.gather_series.push(GatherSample { now, depth });
    }
}

/// One directed channel's accumulated traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelMetrics {
    /// Dense channel id (same numbering as the simulator's graph).
    pub channel: u32,
    /// Human-readable `src -> dst` description.
    pub desc: String,
    /// Flits that crossed the channel.
    pub flits: u64,
    /// `flits / cycles` — fraction of cycles the channel carried a flit.
    pub utilization: f64,
    /// Peak downstream-buffer occupancy (flits).
    pub peak_occupancy: usize,
    /// Blocked episodes that started on this channel's port.
    pub blocked_events: u64,
    /// Total cycles port requests spent blocked on this channel.
    pub blocked_cycles: u64,
}

/// One crossbar's accumulated *output* traffic (summed over its outgoing
/// channels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XbarMetrics {
    /// Crossbar name in the paper's vocabulary (e.g. `X0-XB`).
    pub name: String,
    /// Dimension the crossbar routes along.
    pub dim: u8,
    /// Line index within that dimension.
    pub line: u32,
    /// Number of outgoing channels.
    pub out_ports: usize,
    /// Flits emitted across all outgoing channels.
    pub out_flits: u64,
    /// Mean per-port output utilization: `out_flits / (cycles * out_ports)`.
    pub utilization: f64,
    /// Blocked episodes on the crossbar's output ports.
    pub blocked_events: u64,
    /// Cycles spent blocked on the crossbar's output ports.
    pub blocked_cycles: u64,
}

/// The reduced, serializable metrics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Cycles the run simulated (denominator of every utilization).
    pub cycles: u64,
    /// Total flit channel-crossings.
    pub total_flits: u64,
    /// Packets injected.
    pub injected: u64,
    /// Header hops (routing decisions made).
    pub hops: u64,
    /// Detour initiations (RC rewrites to `Detour`).
    pub detours: u64,
    /// `detours / injected` (0 when nothing was injected).
    pub detour_rate: f64,
    /// Active channels (flits or blocked events > 0), hottest first.
    pub channels: Vec<ChannelMetrics>,
    /// Per-crossbar output rows, highest utilization first.
    pub crossbars: Vec<XbarMetrics>,
    /// Peak S-XB serialization-queue depth.
    pub gather_peak: usize,
    /// Queue-depth time series (one sample per enqueue/dequeue).
    pub gather_series: Vec<GatherSample>,
    /// Blocked-episode durations, log₂-bucketed: entry *i* counts episodes
    /// of `[2^i, 2^(i+1))` cycles.
    pub blocked_histogram: Vec<u64>,
}

impl MetricsObserver {
    /// Reduces the accumulated tables into a [`MetricsReport`]. `cycles` is
    /// the run length ([`mdx_sim::SimStats::cycles`]); it only scales the
    /// utilization columns.
    pub fn report(&self, cycles: u64) -> MetricsReport {
        let denom = cycles.max(1) as f64;
        let mut channels: Vec<ChannelMetrics> = (0..self.graph.num_channels())
            .filter(|&i| self.flits[i] > 0 || self.blocked_events[i] > 0)
            .map(|i| ChannelMetrics {
                channel: i as u32,
                desc: self.graph.describe_channel(ChannelId(i as u32)),
                flits: self.flits[i],
                utilization: self.flits[i] as f64 / denom,
                peak_occupancy: self.peak_occupancy[i],
                blocked_events: self.blocked_events[i],
                blocked_cycles: self.blocked_cycles[i],
            })
            .collect();
        channels.sort_by(|a, b| b.flits.cmp(&a.flits).then(a.channel.cmp(&b.channel)));

        let mut per_xbar: HashMap<XbarRef, XbarMetrics> = HashMap::new();
        for id in self.graph.channel_ids() {
            let src = self.graph.node(self.graph.channel(id).src);
            let Node::Xbar(x) = src else { continue };
            let row = per_xbar.entry(x).or_insert_with(|| XbarMetrics {
                name: x.to_string(),
                dim: x.dim,
                line: x.line,
                out_ports: 0,
                out_flits: 0,
                utilization: 0.0,
                blocked_events: 0,
                blocked_cycles: 0,
            });
            row.out_ports += 1;
            row.out_flits += self.flits[id.idx()];
            row.blocked_events += self.blocked_events[id.idx()];
            row.blocked_cycles += self.blocked_cycles[id.idx()];
        }
        let mut crossbars: Vec<XbarMetrics> = per_xbar
            .into_values()
            .map(|mut x| {
                x.utilization = x.out_flits as f64 / (denom * x.out_ports.max(1) as f64);
                x
            })
            .collect();
        crossbars.sort_by(|a, b| {
            b.utilization
                .partial_cmp(&a.utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.dim, a.line).cmp(&(b.dim, b.line)))
        });

        let total_flits: u64 = self.flits.iter().sum();
        MetricsReport {
            cycles,
            total_flits,
            injected: self.injected,
            hops: self.hops,
            detours: self.detours,
            detour_rate: if self.injected == 0 {
                0.0
            } else {
                self.detours as f64 / self.injected as f64
            },
            channels,
            crossbars,
            gather_peak: self.gather_peak,
            gather_series: self.gather_series.clone(),
            blocked_histogram: self.blocked_hist.to_vec(),
        }
    }
}

impl MetricsReport {
    /// The row for crossbar `name` (e.g. `"X0-XB"`), if it moved any
    /// traffic or exists in the graph.
    pub fn xbar(&self, name: &str) -> Option<&XbarMetrics> {
        self.crossbars.iter().find(|x| x.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("MetricsReport serializes")
    }

    /// Renders the terminal heatmap: per-crossbar output utilization bars,
    /// the hottest channels, the gather-queue peak, and the blocked-episode
    /// histogram. `sxb`/`dxb` (e.g. from
    /// [`mdx_core::Scheme::serializing_node`] /
    /// [`mdx_core::Scheme::detour_node`]) annotate the matching crossbar
    /// rows.
    pub fn heatmap(&self, sxb: Option<&str>, dxb: Option<&str>) -> String {
        let mut out = String::new();
        let glyph = |frac: f64| -> char {
            let i = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[i] as char
        };
        let bar = |frac: f64| -> String {
            const W: usize = 24;
            let full = (frac.clamp(0.0, 1.0) * W as f64).round() as usize;
            let mut b = String::new();
            for i in 0..W {
                b.push(if i < full { '#' } else { '.' });
            }
            b
        };

        out.push_str(&format!(
            "run: {} cycles, {} flits, {} packets, detour rate {:.3}\n",
            self.cycles, self.total_flits, self.injected, self.detour_rate
        ));
        out.push_str("\nper-crossbar output utilization (mean over output ports):\n");
        let max_util = self
            .crossbars
            .iter()
            .map(|x| x.utilization)
            .fold(0.0_f64, f64::max)
            .max(1e-12);
        for x in &self.crossbars {
            let tag = if Some(x.name.as_str()) == sxb && Some(x.name.as_str()) == dxb {
                " [S-XB=D-XB]"
            } else if Some(x.name.as_str()) == sxb {
                " [S-XB]"
            } else if Some(x.name.as_str()) == dxb {
                " [D-XB]"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<8} {} {:.3}  ({} flits / {} ports, blocked {} eps, {} cyc){}\n",
                x.name,
                bar(x.utilization / max_util),
                x.utilization,
                x.out_flits,
                x.out_ports,
                x.blocked_events,
                x.blocked_cycles,
                tag,
            ));
        }

        out.push_str("\nhottest channels:\n");
        for c in self.channels.iter().take(12) {
            out.push_str(&format!(
                "  {} {:<22} {:>6} flits  util {:.3}  peak buf {}  blocked {} eps / {} cyc\n",
                glyph(c.utilization),
                c.desc,
                c.flits,
                c.utilization,
                c.peak_occupancy,
                c.blocked_events,
                c.blocked_cycles,
            ));
        }

        if self.gather_peak > 0 {
            out.push_str(&format!(
                "\nS-XB gather queue: peak depth {} over {} enqueue/dequeue events\n",
                self.gather_peak,
                self.gather_series.len()
            ));
        }

        let episodes: u64 = self.blocked_histogram.iter().sum();
        if episodes > 0 {
            out.push_str("\nblocked-episode durations (log2 buckets):\n");
            let max = *self.blocked_histogram.iter().max().unwrap_or(&1) as f64;
            for (i, &n) in self.blocked_histogram.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  [{:>5}..{:<5}) {} {}\n",
                    1u64 << i,
                    if i + 1 >= BLOCKED_BUCKETS {
                        "inf".to_string()
                    } else {
                        (1u64 << (i + 1)).to_string()
                    },
                    bar(n as f64 / max),
                    n
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_topology::graph::GraphBuilder;

    fn tiny_graph() -> NetworkGraph {
        let mut b = GraphBuilder::new();
        let pe = b.add_node(Node::Pe(0), None);
        let r = b.add_node(Node::Router(0), None);
        let x = b.add_node(Node::Xbar(XbarRef { dim: 0, line: 0 }), None);
        b.add_link(pe, r);
        b.add_link(r, x);
        b.build()
    }

    #[test]
    fn accumulates_and_reduces() {
        let g = tiny_graph();
        let xbar_out = g
            .channel_ids()
            .find(|&c| matches!(g.node(g.channel(c).src), Node::Xbar(_)))
            .unwrap();
        let mut obs = MetricsObserver::new(g);
        obs.on_inject(PacketId(0), &dummy_spec(), 0);
        for t in 0..10 {
            obs.on_flit(xbar_out, 0, 1, t);
        }
        obs.on_blocked(PacketId(1), xbar_out, 0, Some(PacketId(0)), 3);
        obs.on_unblocked(PacketId(1), xbar_out, 0, 5, 8);
        obs.on_gather(PacketId(0), 1, 2);
        obs.on_emission(PacketId(0), 0, 4);

        let rep = obs.report(20);
        assert_eq!(rep.total_flits, 10);
        assert_eq!(rep.injected, 1);
        assert_eq!(rep.channels.len(), 1);
        assert_eq!(rep.channels[0].flits, 10);
        assert!((rep.channels[0].utilization - 0.5).abs() < 1e-9);
        assert_eq!(rep.channels[0].blocked_events, 1);
        assert_eq!(rep.channels[0].blocked_cycles, 5);
        assert_eq!(rep.crossbars.len(), 1);
        assert_eq!(rep.crossbars[0].name, "X0-XB");
        assert_eq!(rep.crossbars[0].out_ports, 1);
        assert_eq!(rep.crossbars[0].out_flits, 10);
        assert_eq!(rep.gather_peak, 1);
        assert_eq!(rep.gather_series.len(), 2);
        // waited=5 lands in the [4, 8) bucket.
        assert_eq!(rep.blocked_histogram[2], 1);
        assert!(rep.xbar("X0-XB").is_some());
        assert!(rep.xbar("Y9-XB").is_none());
    }

    #[test]
    fn heatmap_and_json_render() {
        let g = tiny_graph();
        let ch = ChannelId(0);
        let mut obs = MetricsObserver::new(g);
        obs.on_flit(ch, 0, 2, 1);
        let rep = obs.report(10);
        let text = rep.heatmap(Some("X0-XB"), Some("X0-XB"));
        assert!(text.contains("per-crossbar output utilization"));
        assert!(text.contains("hottest channels"));
        let json = rep.to_json();
        assert!(json.contains("\"total_flits\""));
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }

    fn dummy_spec() -> InjectSpec {
        use mdx_core::Header;
        use mdx_topology::Coord;
        InjectSpec {
            src_pe: 0,
            header: Header::unicast(Coord::ORIGIN, Coord::ORIGIN),
            flits: 1,
            inject_at: 0,
        }
    }
}
