//! One engine step, pass by pass.
//!
//! A step does work where something changed, not everywhere something
//! exists. The lists and counters below are kept up to date at the events
//! that change them, and each list is walked in creation order (see the
//! `storage` module), the order a full scan would visit:
//!
//! * **Arbitration** — a port is arbitrated only after a request is queued
//!   on it or its owner leaves; every other port with queued requests is
//!   still held. A due packet's first request comes from its pending
//!   injection, which becomes a visit at the grant.
//! * **Moving visits** — only live, unpaused sinks and streaming forwards
//!   can move. A forward joins at the grant that completes its port set.
//!   Collecting moves is the one pass over this list.
//! * **Completions** — a visit completes at the move of its last flit: the
//!   sink's last consumed flit, or the tail of the fan's last branch. That
//!   move lists it, so no pass re-checks the visits that moved.
//! * **Heads** — a buffer's front header can become visible only when it
//!   crosses or when the run ahead of it retires. Retirement looks only at
//!   the input ports of the visits that just completed.
//! * **Buffer credits** — each port counts the flits in its downstream
//!   buffer: one in per flit crossing, one out per flit its front consumer
//!   drains.
//! * **Live visits** — the list the deadlock analysis, wait snapshots,
//!   fault activation and [`Simulator::idle`] walk holds every live visit
//!   and pending injection. It keeps dead entries (a completed visit's, or
//!   one whose slot now holds a later visit) until they outnumber the live
//!   ones, then drops them in one pass; its readers skip them, and no slot
//!   waits for that pass. A step with completions does not scan every live
//!   visit.
//!
//! Each pass below names the invariant it leaves for the next, which debug
//! builds check against a full recount at the end of every step (the
//! `audit` module).

use super::{
    BranchState, Simulator, SinkKind, StepEffect, StepScratch, VKind, VictimMode, PENDING,
};
use crate::result::{EngineDiagnostic, PacketId};
use mdx_core::{Action, Branch, DropReason, Header, RouteChange};
use mdx_topology::{ChannelId, Node, NodeId};

/// Mixes (seed, channel, packet) into an arbitration priority — a cheap
/// splitmix-style hash, deterministic but uncorrelated across ports.
pub(super) fn arb_hash(seed: u64, channel: u32, packet: u32) -> u64 {
    let mut x = seed ^ ((channel as u64) << 32) ^ (packet as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Simulator {
    /// Runs the eight passes of one cycle in order and reports the most
    /// any of them did.
    pub(super) fn step(&mut self) -> StepEffect {
        let mut s = std::mem::take(&mut self.scratch);
        let mut effect = self.inject();
        effect = effect.max(self.create_downstream_visits());
        effect = effect.max(self.emit_broadcast());
        effect = effect.max(self.arbitrate());
        self.collect_moves(&mut s);
        effect = effect.max(self.apply_moves(&mut s));
        self.complete(&mut s);
        self.retire(&mut s);
        self.scratch = s;
        #[cfg(debug_assertions)]
        self.check_worklists();
        effect
    }

    /// Pass 1: injects the packets due this cycle while the gate is open; a
    /// packet whose source PE died settles as a fault victim. Leaves each
    /// injection decision listed: a fan of one branch as a pending
    /// injection that requests its port, any other as a visit.
    fn inject(&mut self) -> StepEffect {
        let mut effect = StepEffect::Fixed;
        while self.injection_open && self.next_inject < self.inject_order.len() {
            let pidx = self.inject_order[self.next_inject];
            let spec = self.packets[pidx as usize].spec;
            if spec.inject_at > self.now {
                break;
            }
            self.next_inject += 1;
            let at = self.graph.expect_id(Node::Pe(spec.src_pe));
            if self.any_dead && self.dead_nodes[at.0 as usize] {
                // The source PE died before this packet could enter: it can
                // never be injected. Settle it as a fault victim.
                let p = &mut self.packets[pidx as usize];
                p.started = true;
                p.dropped = Some(DropReason::FaultVictim);
                self.started_packets += 1;
                self.log_victim(pidx);
                self.finish_packet(pidx);
                effect = StepEffect::Progress;
                continue;
            }
            self.packets[pidx as usize].started = true;
            self.started_packets += 1;
            for obs in &self.observers {
                obs.borrow_mut().on_inject(PacketId(pidx), &spec, self.now);
            }
            self.create_visit(pidx, at, None, None, &spec.header);
            effect = effect.max(StepEffect::Changed);
        }
        effect
    }

    /// Pass 2: creates the downstream visit of each port in `head_ports`,
    /// the ports whose front header crossed or whose front run retired.
    /// Leaves each buffer with a crossed front header consumed or listed.
    fn create_downstream_visits(&mut self) -> StepEffect {
        let mut effect = StepEffect::Fixed;
        let mut heads = std::mem::take(&mut self.head_ports);
        heads.sort_unstable();
        heads.dedup();
        for &port in &heads {
            let pu = port as usize;
            if self.chan_downstream[pu].is_some() {
                continue;
            }
            let Some(&run) = self.chan_resident[pu].front() else {
                continue;
            };
            let branch = self.branch(run);
            if branch.crossed == 0 {
                continue; // header still crossing
            }
            let header = branch.header;
            let packet = self.visits[run.0 as usize].packet;
            let at = self.graph.channel(ChannelId((pu / self.vcs) as u32)).dst;
            self.create_visit(packet, at, Some(port), Some(run), &header);
            effect = StepEffect::Changed;
        }
        heads.clear();
        debug_assert!(self.head_ports.is_empty());
        self.head_ports = heads;
        effect
    }

    /// Pass 3: the S-XB starts emitting its oldest gathered broadcast once
    /// the last emission drained, one at a time in order of arrival (paper
    /// Fig. 6 step 2). Leaves the emission visit listed like every visit.
    fn emit_broadcast(&mut self) -> StepEffect {
        if self.emission_active.is_some() {
            return StepEffect::Fixed;
        }
        let (Some(serial), Some(&(pidx, header))) = (self.serial_node, self.serial_queue.front())
        else {
            return StepEffect::Fixed;
        };
        self.serial_queue.pop_front();
        let branches = self.scheme.emission(&header);
        let depth = self.serial_queue.len();
        for obs in &self.observers {
            obs.borrow_mut()
                .on_emission(PacketId(pidx), depth, self.now);
        }
        let at = self.graph.node(serial);
        self.report_decision(pidx, at, None, header.rc, &branches);
        let mut kind = self.forward_kind(serial, &branches, DropReason::NoUsablePath);
        // An emission fan touching a dead component cannot be paused
        // (re-emission is the S-XB's job, not a switch re-decision): flush
        // it and let the policy replay it.
        if self.any_dead && self.hits_dead_channel(kind.branches()) {
            self.log_victim(pidx);
            kind = VKind::dropped(DropReason::FaultVictim);
        }
        let is_forward = matches!(kind, VKind::Forward { .. });
        let vi = self.install_visit(pidx, serial, None, None, kind, false);
        if is_forward {
            self.emission_active = Some((vi, header));
        }
        // The queue slot is closed either way.
        self.packets[pidx as usize].open -= 1;
        StepEffect::Changed
    }

    /// Pass 4: grants the free ports in `arb_ports` to their oldest request,
    /// breaking same-cycle ties with the seeded per-port hash; every other
    /// port with queued requests is held, its requests marked blocked.
    /// Leaves each port with requests owned, and `moving` exactly the live,
    /// unpaused sinks and streaming forwards.
    fn arbitrate(&mut self) -> StepEffect {
        let mut effect = StepEffect::Fixed;
        let mut ports = std::mem::take(&mut self.arb_ports);
        ports.sort_unstable();
        ports.dedup();
        for &port in &ports {
            let pu = port as usize;
            if self.chan_owner[pu].is_none() {
                let seed = self.cfg.arb_seed;
                let winner = self.chan_requests[pu]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &(id, _, cycle))| {
                        (cycle, arb_hash(seed, port, self.packet_of(id)))
                    })
                    .map(|(i, &(id, _, _))| (i, self.packet_of(id)));
                if let Some((i, winner_packet)) = winner {
                    effect = StepEffect::Changed;
                    let Some((id, bidx, _)) = self.chan_requests[pu].remove(i) else {
                        // Unreachable by construction — the winner index came
                        // from enumerating this very queue — but a panic here
                        // would cut an abnormal run's post-mortem short, so
                        // record the anomaly and skip the grant this cycle.
                        self.diagnostics.push(EngineDiagnostic {
                            at: self.now,
                            packet: PacketId(winner_packet),
                            channel: self.describe_port(pu),
                            note: "arbitration winner vanished from the request queue".to_string(),
                        });
                        continue;
                    };
                    self.grant(pu, id, bidx);
                }
            }
            if !self.observers.is_empty() && self.mark_blocked(pu) {
                effect = StepEffect::Changed;
            }
        }
        ports.clear();
        debug_assert!(self.arb_ports.is_empty());
        self.arb_ports = ports;
        effect
    }

    /// Gives port `pu` to branch `bidx` of request `id`, a forward or a
    /// pending injection, which becomes its visit here. The run it starts
    /// holds the packet open and the slot in use until it drains downstream
    /// (pass 8), so a packet never looks finished while its flits queue
    /// behind another packet's run. A fan streams once it holds every port.
    fn grant(&mut self, pu: usize, id: u32, bidx: u32) {
        let vidx = if id >= PENDING {
            self.admit_pending(id, false)
        } else {
            id
        };
        self.chan_owner[pu] = Some((vidx, bidx));
        self.chan_resident[pu].push_back((vidx, bidx));
        let v = &mut self.visits[vidx as usize];
        v.runs += 1;
        let packet = v.packet;
        let VKind::Forward {
            branches,
            streaming,
        } = &mut v.kind
        else {
            unreachable!("only forwards request ports")
        };
        let b = &mut branches[bidx as usize];
        b.granted = true;
        let was_blocked = b.blocked_since.take();
        let flipped = branches.iter().all(|b| b.granted);
        if flipped {
            *streaming = true;
        }
        self.packets[packet as usize].open += 1;
        if flipped {
            self.join_moving(vidx);
        }
        if let Some(since) = was_blocked {
            let ch = ChannelId((pu / self.vcs) as u32);
            let vc = (pu % self.vcs) as u8;
            for obs in &self.observers {
                obs.borrow_mut()
                    .on_unblocked(PacketId(packet), ch, vc, self.now - since, self.now);
            }
        }
    }

    /// Marks the requests still queued on port `pu` *blocked*, once per
    /// episode, for the observers; returns whether any was newly marked.
    fn mark_blocked(&mut self, pu: usize) -> bool {
        let holder = self.chan_owner[pu].map(|(ovi, _)| PacketId(self.visits[ovi as usize].packet));
        let now = self.now;
        let mut newly_any = false;
        for i in 0..self.chan_requests[pu].len() {
            let (id, bidx, _) = self.chan_requests[pu][i];
            let Some((packet, b)) = self.requested_branch(id, bidx) else {
                continue;
            };
            if b.blocked_since.is_some() {
                continue;
            }
            b.blocked_since = Some(now);
            newly_any = true;
            let ch = ChannelId((pu / self.vcs) as u32);
            let vc = (pu % self.vcs) as u8;
            for obs in &self.observers {
                obs.borrow_mut()
                    .on_blocked(PacketId(packet), ch, vc, holder, now);
            }
        }
        newly_any
    }

    /// Pass 5: collects the moves of the visits in `moving` against the
    /// start-of-cycle state. Leaves `moving` in creation order, with no
    /// visit that has moved its last flit.
    fn collect_moves(&self, s: &mut StepScratch) {
        for &vi in &self.moving {
            let v = &self.visits[vi as usize];
            let avail = self.avail(v);
            match &v.kind {
                VKind::Forward { branches, .. } => {
                    // A source visit (injection or S-XB emission) reads the
                    // packet from local memory once and copies each flit to
                    // all its ports in lockstep — one stalled port
                    // backpressures the others, just like a fan fed from a
                    // channel buffer.
                    let lockstep = if v.in_port.is_none() {
                        branches.iter().map(|b| b.crossed).min().unwrap_or(0) + 1
                    } else {
                        usize::MAX
                    };
                    for (bi, b) in branches.iter().enumerate() {
                        if b.crossed >= v.total || b.crossed >= avail || b.crossed >= lockstep {
                            continue;
                        }
                        let port = self.port(b.channel, b.vc);
                        if (self.buffered[port] as usize) < self.cfg.buffer_flits {
                            s.branch_moves.push((vi, bi as u32, b.channel, b.vc));
                        }
                    }
                }
                VKind::Sink { consumed, .. } => {
                    if *consumed < v.total && *consumed < avail {
                        s.sink_moves.push(vi);
                    }
                }
            }
        }
    }

    /// Pass 6: applies the moves; a link carries one flit per cycle, shared
    /// round-robin among its lanes, and a port frees when its tail crosses.
    /// A visit whose last flit moves is listed in `done`. Leaves each port's
    /// credit equal to its buffered flits, crossed headers in `head_ports`
    /// and freed ports in `arb_ports`.
    fn apply_moves(&mut self, s: &mut StepScratch) -> StepEffect {
        let effect = if s.branch_moves.is_empty() && s.sink_moves.is_empty() {
            StepEffect::Fixed
        } else {
            StepEffect::Progress
        };
        if self.vcs > 1 {
            // Only a port's owner streams across it, so each (channel,
            // lane) has at most one move: the sort order is total, and
            // sorting in place allocates nothing.
            s.branch_moves.sort_unstable_by_key(|m| (m.2, m.3));
            let vcs = self.vcs as u8;
            for cands in s.branch_moves.chunk_by(|a, b| a.2 == b.2) {
                debug_assert!(cands.windows(2).all(|w| w[0].3 < w[1].3));
                let ch = cands[0].2.idx();
                let last = self.chan_last_vc[ch];
                let win = *cands
                    .iter()
                    .min_by_key(|&&(_, _, _, vc)| (vc + vcs - last - 1) % vcs)
                    .expect("chunks are non-empty");
                self.chan_last_vc[ch] = win.3;
                s.lane_winners.push(win);
            }
            std::mem::swap(&mut s.branch_moves, &mut s.lane_winners);
        }
        for &(vi, bi, ch, vc) in &s.branch_moves {
            let port = self.port(ch, vc);
            let v = &mut self.visits[vi as usize];
            let (total, in_port) = (v.total, v.in_port);
            let VKind::Forward { branches, .. } = &mut v.kind else {
                unreachable!("branch moves come from forward visits")
            };
            let old = branches[bi as usize].crossed;
            // The fan drains a flit from its input buffer when its slowest
            // branch advances.
            let drained = in_port.filter(|_| {
                branches
                    .iter()
                    .enumerate()
                    .all(|(j, b)| j == bi as usize || b.crossed > old)
            });
            branches[bi as usize].crossed = old + 1;
            if old == 0 {
                // The header crossed: the next switch may see it next step.
                self.head_ports.push(port as u32);
            }
            if old + 1 == total {
                // Tail crossed: the output port frees (cut-through), and
                // the fan completes if this was its last branch.
                if branches.iter().all(|b| b.crossed == total) {
                    s.done.push(vi);
                }
                debug_assert_eq!(self.chan_owner[port], Some((vi, bi)));
                self.chan_owner[port] = None;
                self.arb_ports.push(port as u32);
            }
            if let Some(q) = drained {
                self.buffered[q as usize] -= 1;
            }
            self.buffered[port] += 1;
            self.chan_flits[ch.idx()] += 1;
            self.port_flits[port] += 1;
            self.flit_hops += 1;
            for obs in &self.observers {
                obs.borrow_mut()
                    .on_flit(ch, vc, self.buffered[port] as usize, self.now);
            }
        }
        for &vi in &s.sink_moves {
            let v = &mut self.visits[vi as usize];
            if let VKind::Sink { consumed, .. } = &mut v.kind {
                *consumed += 1;
                if *consumed == v.total {
                    s.done.push(vi);
                }
            }
            if let Some(q) = v.in_port {
                self.buffered[q as usize] -= 1;
            }
        }
        s.branch_moves.clear();
        s.lane_winners.clear();
        s.sink_moves.clear();
        effect
    }

    /// Pass 7: settles the visits in `done` in creation order (pass 6 lists
    /// forwards first and, with lanes, by channel): deliveries, gathers,
    /// drops and the end of an emission; a completed sink's slot is free at
    /// once. Leaves `moving` free of completed visits and `active_done`
    /// counting the dead entries of `active`.
    fn complete(&mut self, s: &mut StepScratch) {
        let seq = &self.seq;
        s.done.sort_unstable_by_key(|&vi| seq[vi as usize]);
        for &vi in &s.done {
            let v = &self.visits[vi as usize];
            let in_port = v.in_port;
            if let VKind::Sink { sink, .. } = &v.kind {
                let packet = v.packet;
                match sink.clone() {
                    SinkKind::Deliver(pe) => {
                        let deliveries = &mut self.packets[packet as usize].deliveries;
                        // A unicast delivers once: room for one entry, not
                        // the four a first push reserves.
                        if deliveries.capacity() == 0 {
                            deliveries.reserve_exact(1);
                        }
                        deliveries.push((pe, self.now));
                        for obs in &self.observers {
                            obs.borrow_mut().on_delivery(PacketId(packet), pe, self.now);
                        }
                    }
                    SinkKind::Gather => {
                        // Queue slot stays open until emission starts.
                        self.packets[packet as usize].open += 1;
                        let header = self.visit_header(vi);
                        self.serial_queue.push_back((packet, header));
                        let depth = self.serial_queue.len();
                        for obs in &self.observers {
                            obs.borrow_mut()
                                .on_gather(PacketId(packet), depth, self.now);
                        }
                    }
                    SinkKind::Drop(r) => {
                        let p = &mut self.packets[packet as usize];
                        if p.dropped.is_none() {
                            p.dropped = Some(r);
                        }
                    }
                }
            }
            // The S-XB frees when its emission completes, as a fan or, once
            // a fault paused it and the re-decision dropped it, as a sink.
            if self.emission_active.is_some_and(|(ea, _)| ea == vi) {
                self.emission_active = None;
            }
            self.complete_visit(vi);
            s.retire.extend(in_port);
        }
        if !s.done.is_empty() {
            let visits = &self.visits;
            self.moving.retain(|&vi| !visits[vi as usize].complete);
        }
        s.done.clear();
    }

    /// Pass 8: retires the front runs the completed visits drained, so the
    /// next resident packet's header becomes visible, and compacts `active`
    /// once its dead entries outnumber the live ones, so a compaction scans
    /// fewer than two entries per completion it drops. Leaves `active` with
    /// every live visit and pending injection and at most as many dead
    /// entries, and each slot free exactly when its visit meets the release
    /// rule.
    fn retire(&mut self, s: &mut StepScratch) {
        s.retire.sort_unstable();
        for &port in &s.retire {
            let pu = port as usize;
            let run = self.chan_resident[pu]
                .pop_front()
                .expect("front run exists while its visit is live");
            debug_assert_eq!(
                self.chan_downstream[pu].map(|d| self.visits[d as usize].packet),
                Some(self.visits[run.0 as usize].packet)
            );
            self.chan_downstream[pu] = None;
            if !self.chan_resident[pu].is_empty() {
                self.head_ports.push(port);
            }
            self.dec_open(self.visits[run.0 as usize].packet);
            self.drop_run(run.0);
        }
        s.retire.clear();
        if 2 * self.active_done > self.active.len() {
            self.compact_active();
        }
    }

    /// Creates the visit of a header arriving at `at` through `in_port`
    /// from run `up_run` (both `None` at injection), as decided there. An
    /// injection decided to one branch waits as a pending injection.
    fn create_visit(
        &mut self,
        packet: u32,
        at: NodeId,
        in_port: Option<u32>,
        up_run: Option<(u32, u32)>,
        header: &Header,
    ) {
        let (kind, paused) = if self.any_dead && self.dead_nodes[at.0 as usize] {
            // Headers arriving at a dead switch cannot be routed: the
            // switch's decision logic is gone. The flits are flushed
            // (evacuated) and the packet becomes a fault victim for the
            // recovery policy to replay.
            self.log_victim(packet);
            (VKind::dropped(DropReason::FaultVictim), false)
        } else {
            if self.cfg.record_routes {
                self.packets[packet as usize].route.push((at.0, self.now));
            }
            let kind = self.decide(packet, at, in_port, header);
            if self.any_dead && self.hits_dead_channel(kind.branches()) {
                // The (pre-reprogram) scheme routed into a dead component:
                // the packet's next hop is gone. Pause it at this live
                // switch for a post-reprogram re-decision, or evacuate it,
                // per the victim mode.
                self.log_victim(packet);
                match self.victim_mode {
                    VictimMode::Abort => (VKind::dropped(DropReason::FaultVictim), false),
                    VictimMode::Pause => (VKind::paused(), true),
                }
            } else {
                (kind, false)
            }
        };
        match kind {
            VKind::Forward { mut branches, .. } if in_port.is_none() && branches.len() == 1 => {
                let branch = branches.pop().expect("the fan has one branch");
                self.spare(branches);
                self.install_pending(packet, at, branch);
            }
            kind => {
                self.install_visit(packet, at, in_port, up_run, kind, paused);
            }
        }
    }

    /// The routing decision at `at` for a header that arrived through
    /// `in_port`: asked of the scheme, reported to the observers, and made a
    /// visit kind (a protocol-violation drop if the switch cannot carry it
    /// out). First decisions and re-decisions both take this path.
    pub(super) fn decide(
        &mut self,
        packet: u32,
        at: NodeId,
        in_port: Option<u32>,
        header: &Header,
    ) -> VKind {
        let at_node = self.graph.node(at);
        let in_channel = in_port.map(|p| ChannelId(p / self.vcs as u32));
        let came_from = in_channel.map(|ch| self.graph.node(self.graph.channel(ch).src));
        let action = self.scheme.decide(at_node, came_from, header);
        let branches: &[Branch] = match &action {
            Action::Forward(branches) => branches,
            _ => &[],
        };
        self.report_decision(packet, at_node, in_channel, header.rc, branches);
        let bad = DropReason::ProtocolViolation;
        match action {
            Action::Deliver => match at_node {
                Node::Pe(p) => VKind::sink(SinkKind::Deliver(p)),
                // Delivering away from a PE is a scheme bug; surface it as a
                // protocol-violation drop rather than corrupting state.
                _ => VKind::dropped(bad),
            },
            Action::Gather if Some(at) == self.serial_node => VKind::sink(SinkKind::Gather),
            Action::Gather => VKind::dropped(bad),
            Action::Drop(r) => VKind::dropped(r),
            Action::Forward(branches) => self.forward_kind(at, &branches, bad),
        }
    }

    /// Fires `on_hop` for a routing decision at `at`, then `on_rc_change`
    /// when one of its branches rewrites the header's RC field `rc`.
    fn report_decision(
        &mut self,
        packet: u32,
        at: Node,
        in_channel: Option<ChannelId>,
        rc: RouteChange,
        branches: &[Branch],
    ) {
        if self.observers.is_empty() {
            return;
        }
        let (id, now) = (PacketId(packet), self.now);
        for obs in &self.observers {
            obs.borrow_mut().on_hop(id, at, in_channel, now);
        }
        if let Some(to) = branches.iter().map(|b| b.header.rc).find(|&to| to != rc) {
            for obs in &self.observers {
                obs.borrow_mut().on_rc_change(id, at, rc, to, now);
            }
        }
    }

    /// The fan of a decision or an S-XB emission from `at`, or a drop for
    /// `bad` when it has no branch or names a lane or channel `at` lacks.
    fn forward_kind(&mut self, at: NodeId, branches: &[Branch], bad: DropReason) -> VKind {
        if branches.is_empty() {
            return VKind::dropped(bad);
        }
        let mut states = self.branch_list(branches.len());
        for b in branches {
            let channel = match self.channel_of(at, b.to) {
                Some(ch) if (b.vc as usize) < self.vcs => ch,
                _ => return VKind::dropped(bad),
            };
            states.push(BranchState {
                channel,
                vc: b.vc,
                header: b.header,
                granted: false,
                crossed: 0,
                blocked_since: None,
            });
        }
        VKind::Forward {
            branches: states,
            streaming: false,
        }
    }
}
