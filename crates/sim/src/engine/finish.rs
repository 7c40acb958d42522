//! The end of a run: end-of-run hooks, freeing the per-hop state, and the
//! result.

use super::{PhaseEnd, Simulator, StepScratch};
use crate::result::{
    EngineProfile, PacketId, PacketOutcome, PacketResult, PhaseSplit, SimOutcome, SimResult,
    SimStats,
};
use mdx_topology::NodeId;
use std::collections::{HashMap, VecDeque};

impl Simulator {
    /// Fires the end-of-run observer hooks and collects the result.
    /// [`PhaseEnd::ReachedCycle`] / [`PhaseEnd::Drained`] are not terminal
    /// states; a controller finalizing on one (e.g. bailing out mid-epoch)
    /// maps to [`SimOutcome::CycleLimit`] / [`SimOutcome::Stalled`].
    ///
    /// The engine is finished after this call. It frees its per-hop state
    /// (visit slots and their branch lists, pending injections, the live
    /// and moving lists, request and resident queues, the S-XB queue, the
    /// injection order) before it builds the result, and it moves each
    /// packet's delivery list into [`SimResult::packets`]. The run-level
    /// readings stay: [`Simulator::now`], [`Simulator::channel_flits`],
    /// [`Simulator::lane_flits`] and [`Simulator::source_offered`]. Running
    /// or finalizing it again, or asking it about a packet, is a logic
    /// error.
    pub fn finalize(&mut self, end: PhaseEnd) -> SimResult {
        let outcome = match end {
            PhaseEnd::Completed => SimOutcome::Completed,
            PhaseEnd::CycleLimit | PhaseEnd::ReachedCycle => SimOutcome::CycleLimit,
            PhaseEnd::Deadlock(info) => SimOutcome::Deadlock(info),
            PhaseEnd::Stalled | PhaseEnd::Drained => SimOutcome::Stalled,
        };
        // Abnormal endings drain the terminal wait graph to the observers
        // (the flight-recorder/post-mortem hook), then — for deadlocks —
        // hand over the extracted cycle. See the firing-order contract in
        // [`crate::observer`].
        if !self.observers.is_empty() && !matches!(outcome, SimOutcome::Completed) {
            let waits = self.wait_snapshot();
            for obs in &self.observers {
                obs.borrow_mut().on_final_waits(self.now, &waits);
            }
        }
        if let SimOutcome::Deadlock(info) = &outcome {
            for obs in &self.observers {
                obs.borrow_mut().on_deadlock(info);
            }
        }
        self.free_hop_state();
        self.collect_result(outcome)
    }

    /// Frees the per-hop state of a finished run, so the result is built
    /// in the room it leaves. The per-port tables keep their size (they are
    /// fixed costs of the network), with their queues emptied.
    fn free_hop_state(&mut self) {
        self.visits = Vec::new();
        self.seq = Vec::new();
        self.free = Vec::new();
        self.spare_branches = Vec::new();
        self.pending = Vec::new();
        self.pending_free = Vec::new();
        self.active = Vec::new();
        self.active_done = 0;
        self.moving = Vec::new();
        self.emission_active = None;
        self.serial_queue = VecDeque::new();
        for queue in &mut self.chan_requests {
            *queue = VecDeque::new();
        }
        for queue in &mut self.chan_resident {
            *queue = VecDeque::new();
        }
        self.arb_ports = Vec::new();
        self.head_ports = Vec::new();
        self.scratch = StepScratch::default();
        self.inject_order = Vec::new();
        self.next_inject = 0;
    }

    /// Builds the result, moving each packet's delivery list and route into
    /// it rather than copying them.
    fn collect_result(&mut self, outcome: SimOutcome) -> SimResult {
        // Intern route node names: one table entry per distinct switch, one
        // u32 per hop — `record_routes` no longer allocates per hop.
        let mut name_of: HashMap<u32, u32> = HashMap::new();
        let mut route_names: Vec<String> = Vec::new();
        let mut intern = |node: u32| -> u32 {
            *name_of.entry(node).or_insert_with(|| {
                let idx = route_names.len() as u32;
                route_names.push(self.graph.node(NodeId(node)).to_string());
                idx
            })
        };
        let mut packets = Vec::with_capacity(self.packets.len());
        let mut stats = SimStats {
            cycles: self.now,
            flit_hops: self.flit_hops,
            delivered: 0,
            dropped: 0,
            unfinished: 0,
            latency_sum: 0,
            latency_max: 0,
        };
        let mut deliveries: u64 = 0;
        for (i, p) in self.packets.iter_mut().enumerate() {
            deliveries += p.deliveries.len() as u64;
            // A broadcast that skipped a faulty leaf records a drop but
            // still counts as delivered when anyone received it.
            let outcome_p = match (p.finished_at, &p.dropped) {
                (Some(_), None) => PacketOutcome::Delivered,
                (Some(_), Some(_)) if !p.deliveries.is_empty() => PacketOutcome::Delivered,
                (Some(_), Some(r)) => PacketOutcome::Dropped(*r),
                (None, _) => PacketOutcome::Unfinished,
            };
            match &outcome_p {
                PacketOutcome::Delivered => {
                    stats.delivered += 1;
                    let lat = p.finished_at.unwrap() - p.spec.inject_at;
                    stats.latency_sum += lat;
                    stats.latency_max = stats.latency_max.max(lat);
                }
                PacketOutcome::Dropped(_) => stats.dropped += 1,
                PacketOutcome::Unfinished => stats.unfinished += 1,
            }
            packets.push(PacketResult {
                id: PacketId(i as u32),
                injected_at: p.spec.inject_at,
                finished_at: p.finished_at,
                deliveries: std::mem::take(&mut p.deliveries),
                outcome: outcome_p,
                route: std::mem::take(&mut p.route)
                    .into_iter()
                    .map(|(n, t)| (intern(n), t))
                    .collect(),
            });
        }
        let retired = (stats.delivered + stats.dropped) as u64;
        let profile = EngineProfile {
            wall_s: self.prof.wall.as_secs_f64(),
            cycles: self.now,
            steps: self.prof.steps,
            idle_steps: self.prof.idle_steps,
            jumped_cycles: self.prof.jumped_cycles,
            events: self.flit_hops + self.started_packets as u64 + deliveries + retired,
            occupancy: self.prof.occupancy,
            phases: self.prof.timing.then_some(PhaseSplit {
                source_s: self.prof.source.as_secs_f64(),
                step_s: self.prof.step.as_secs_f64(),
                probe_s: self.prof.probe.as_secs_f64(),
            }),
        };
        SimResult {
            outcome,
            stats,
            packets,
            route_names,
            diagnostics: self.diagnostics.clone(),
            profile: Some(profile),
        }
    }
}
