//! Live reconfiguration: mid-run fault activation, victim handling, and
//! reprogramming. Driven by the `mdx-reconfig` epoch controller; inert
//! (zero-cost fast paths) on a static run.

use super::{BranchState, Simulator, VKind, VictimMode, PENDING};
use crate::observer::EpochPhase;
use crate::result::{EngineDiagnostic, InjectSpec, PacketId};
use mdx_core::{DropReason, Scheme};
use mdx_fault::FaultSet;
use std::collections::BTreeSet;
use std::sync::Arc;

impl Simulator {
    /// Advances the clock by `cycles` without stepping the network — the
    /// modeled cost of service-processor work (register rewrites) while
    /// the machine sits quiescent. The network need not be fully idle: a
    /// drain can go *quiet* rather than empty when wounded (paused)
    /// packets hold buffer space that healthy traffic is queued behind;
    /// nothing moves during the dead time either way. Resets the
    /// watchdog so the gap is not mistaken for a stall.
    pub fn advance_idle(&mut self, cycles: u64) {
        self.now += cycles;
        self.last_progress = self.now;
        // Dead time is idle time: nothing moves while the service
        // processor rewrites registers. A quiet — not empty — drain can
        // hold wounded packets in place, hence the frozen in-flight level.
        self.book_skipped(cycles);
    }

    /// Opens or closes the injection gate. While closed, due injections
    /// wait (the quiesce step of the epoch protocol) and the watchdog
    /// treats pending injections as ineligible.
    pub fn set_injection_open(&mut self, open: bool) {
        self.injection_open = open;
    }

    /// How wounded packets are handled; see [`VictimMode`].
    pub fn set_victim_mode(&mut self, mode: VictimMode) {
        self.victim_mode = mode;
    }

    /// Starts a new reconfiguration epoch: routing decisions made from now
    /// on are stamped with the returned epoch number.
    pub fn begin_epoch(&mut self) -> u32 {
        self.current_epoch += 1;
        self.current_epoch
    }

    /// The current reconfiguration epoch (0 before any reprogram).
    pub fn current_epoch(&self) -> u32 {
        self.current_epoch
    }

    /// Drains the log of packets wounded since the last call —
    /// activation-time victims plus packets victimized afterwards (their
    /// next hop entered the dead region while draining).
    pub fn take_new_victims(&mut self) -> Vec<PacketId> {
        let log = std::mem::take(&mut self.victim_log);
        for id in &log {
            self.packets[id.0 as usize].victim_logged = false;
        }
        log
    }

    /// The packet's schedule entry.
    pub fn packet_spec(&self, id: PacketId) -> &InjectSpec {
        &self.packets[id.0 as usize].spec
    }

    /// When the packet settled (finished or was evacuated), if it has.
    pub fn packet_finished_at(&self, id: PacketId) -> Option<u64> {
        self.packets[id.0 as usize].finished_at
    }

    /// Forwards an epoch-phase transition to the attached observers (the
    /// controller owns the protocol but the engine owns the observers).
    pub fn notify_epoch_phase(&mut self, epoch: u32, phase: EpochPhase) {
        let now = self.now;
        for obs in &self.observers {
            obs.borrow_mut().on_epoch_phase(epoch, phase, now);
        }
    }

    pub(super) fn log_victim(&mut self, packet: u32) {
        let p = &mut self.packets[packet as usize];
        if !p.victim_logged {
            p.victim_logged = true;
            self.victim_log.push(PacketId(packet));
        }
    }

    /// Whether a fan routes into a currently-dead channel.
    pub(super) fn hits_dead_channel(&self, branches: &[BranchState]) -> bool {
        branches.iter().any(|b| self.dead_channels[b.channel.idx()])
    }

    /// Applies a fault set mid-run: recomputes the dead node/channel maps
    /// (a repair event shrinks them) and victimizes in-flight packets
    /// touching newly-dead components per the current [`VictimMode`].
    /// Returns the wounded packets; fires
    /// [`SimObserver::on_fault_activated`](crate::SimObserver::on_fault_activated).
    pub fn activate_faults(&mut self, faults: &FaultSet) -> Vec<PacketId> {
        let mut dead_nodes = vec![false; self.graph.num_nodes()];
        for id in self.graph.node_ids() {
            dead_nodes[id.0 as usize] = faults.disables(self.graph.node(id));
        }
        let mut dead_channels = vec![false; self.graph.num_channels()];
        for ch in self.graph.channel_ids() {
            let info = self.graph.channel(ch);
            dead_channels[ch.idx()] =
                dead_nodes[info.src.0 as usize] || dead_nodes[info.dst.0 as usize];
        }
        self.any_dead = dead_nodes.iter().any(|&d| d);
        self.dead_nodes = dead_nodes;
        self.dead_channels = dead_channels;

        // Wounded packets: a visit at a dead switch, a forward branch into
        // a dead channel, or a slot in a dead S-XB's serialization queue.
        let mut victims: BTreeSet<u32> = BTreeSet::new();
        // Packets that cannot be paused (flits already inside the dead
        // region, or wounded somewhere pause semantics cannot reach).
        let mut must_abort: BTreeSet<u32> = BTreeSet::new();
        let mut pausable_visits: Vec<u32> = Vec::new();
        for e in self.live_entries() {
            let packet = e.packet();
            if self.dead_nodes[e.at().0 as usize] {
                victims.insert(packet);
                must_abort.insert(packet);
                continue;
            }
            if e.paused() {
                continue; // still parked at a live switch; redecide later
            }
            let branches = e.branches();
            if !self.hits_dead_channel(branches) {
                continue;
            }
            victims.insert(packet);
            if branches.iter().any(|b| b.crossed > 0) {
                must_abort.insert(packet);
            } else {
                pausable_visits.push(e.id());
            }
        }
        if let Some(sn) = self.serial_node {
            if self.dead_nodes[sn.0 as usize] {
                for &(p, _) in &self.serial_queue {
                    victims.insert(p);
                    must_abort.insert(p);
                }
            }
        }

        match self.victim_mode {
            VictimMode::Abort => {
                for &p in &victims {
                    self.abort_packet(p);
                }
            }
            VictimMode::Pause => {
                for id in pausable_visits {
                    if !must_abort.contains(&self.packet_of(id)) {
                        self.pause_visit(id);
                    }
                }
                for &p in &must_abort {
                    self.abort_packet(p);
                }
            }
        }

        // Evacuation rewrote buffers: recount the credits, and let every
        // buffer show its (possibly new) front header to the next step.
        for port in 0..self.buffered.len() {
            self.buffered[port] = self.occupancy(port) as u32;
            if !self.chan_resident[port].is_empty() {
                self.head_ports.push(port as u32);
            }
        }

        let out: Vec<PacketId> = victims.iter().map(|&p| PacketId(p)).collect();
        for &p in &out {
            self.log_victim(p.0);
        }
        let now = self.now;
        for obs in &self.observers {
            obs.borrow_mut().on_fault_activated(now, &out);
        }
        out
    }

    /// Takes a wounded visit off its output ports: withdraws its requests,
    /// frees the ports it owns for arbitration, and flushes the runs it
    /// left resident behind them. Returns how many runs it flushed.
    fn withdraw_ports(&mut self, vi: u32) -> u32 {
        let VKind::Forward { branches, .. } = &self.visits[vi as usize].kind else {
            return 0;
        };
        let mut flushed = 0;
        for (bi, b) in branches.iter().enumerate() {
            let port = self.port(b.channel, b.vc);
            let run = (vi, bi as u32);
            self.chan_requests[port].retain(|&(v, b, _)| (v, b) != run);
            if self.chan_owner[port] == Some(run) {
                self.chan_owner[port] = None;
                self.arb_ports.push(port as u32);
            }
            let resident = &mut self.chan_resident[port];
            let before = resident.len();
            resident.retain(|&r| r != run);
            flushed += (before - resident.len()) as u32;
        }
        self.visits[vi as usize].runs -= flushed;
        flushed
    }

    /// Freezes a wounded forward visit in place: releases its output-port
    /// claims (nothing has streamed, so no flits move) while it keeps its
    /// input buffer — the transient old-epoch hold the transition-safety
    /// checker watches. [`Simulator::redecide_paused`] revives it. The visit
    /// stays live, so its slot stays in use; a pending injection takes one
    /// here.
    fn pause_visit(&mut self, id: u32) {
        if id >= PENDING {
            self.withdraw_pending(id);
            self.admit_pending(id, true);
            return;
        }
        let vi = id;
        let released_runs = self.withdraw_ports(vi);
        let packet = self.visits[vi as usize].packet;
        self.packets[packet as usize].open -= released_runs;
        let seq = &self.seq;
        if let Ok(pos) = self
            .moving
            .binary_search_by_key(&seq[vi as usize], |&m| seq[m as usize])
        {
            self.moving.remove(pos);
        }
        let v = &mut self.visits[vi as usize];
        v.kind = VKind::paused();
        v.paused = true;
    }

    /// Withdraws pending injection `id`'s request from its port.
    fn withdraw_pending(&mut self, id: u32) {
        let p = self.pending[(id - PENDING) as usize]
            .as_ref()
            .expect("a withdrawn pending injection is live");
        let port = self.port(p.branch.channel, p.branch.vc);
        self.chan_requests[port].retain(|&(v, _, _)| v != id);
    }

    /// Evacuates a wounded packet: flushes its flits from every buffer,
    /// releases every port it holds or wants, and settles it as
    /// [`DropReason::FaultVictim`]. The recovery policy may later replay
    /// it via [`Simulator::reschedule_packet`].
    pub(super) fn abort_packet(&mut self, pid: u32) {
        if self.packets[pid as usize].finished_at.is_some() {
            return;
        }
        let before = self.serial_queue.len();
        self.serial_queue.retain(|&(p, _)| p != pid);
        // The packet's open elements this releases: queue slots, live
        // visits and resident runs.
        let mut released = (before - self.serial_queue.len()) as u32;
        if let Some((ea, _)) = self.emission_active {
            if self.visits[ea as usize].packet == pid {
                self.emission_active = None;
            }
        }
        // `active` holds every live visit and pending injection, in
        // creation order; skip the rest.
        for i in 0..self.active.len() {
            let Some(e) = self.live(self.active[i]) else {
                continue;
            };
            if e.packet() != pid {
                continue;
            }
            let id = e.id();
            released += 1;
            if id >= PENDING {
                self.withdraw_pending(id);
                self.take_pending(id);
                continue;
            }
            let vi = id;
            if let Some(p) = self.visits[vi as usize].in_port {
                if self.chan_downstream[p as usize] == Some(vi) {
                    self.chan_downstream[p as usize] = None;
                }
            }
            released += self.withdraw_ports(vi);
            let v = &mut self.visits[vi as usize];
            v.complete = true;
            v.paused = false;
            if v.releasable() {
                self.free.push(vi);
            }
        }
        // Flush the runs of the packet's completed visits from every
        // buffer, releasing each slot as its last run goes.
        let (visits, free) = (&mut self.visits, &mut self.free);
        for runs in &mut self.chan_resident {
            let before = runs.len();
            runs.retain(|&(vi, _)| {
                let v = &mut visits[vi as usize];
                if v.packet != pid {
                    return true;
                }
                v.runs -= 1;
                if v.releasable() {
                    free.push(vi);
                }
                false
            });
            released += (before - runs.len()) as u32;
        }
        if self.packets[pid as usize].open != released {
            let found = self.packets[pid as usize].open;
            self.diagnostics.push(EngineDiagnostic {
                at: self.now,
                packet: PacketId(pid),
                channel: String::new(),
                note: format!("abort accounting mismatch: open {found}, released {released}"),
            });
        }
        let p = &mut self.packets[pid as usize];
        p.open = 0;
        if p.dropped.is_none() {
            p.dropped = Some(DropReason::FaultVictim);
        }
        if p.started && p.finished_at.is_none() {
            self.finish_packet(pid);
        }
        self.compact_active();
        let visits = &self.visits;
        self.moving.retain(|&vi| !visits[vi as usize].complete);
    }

    /// Replaces the routing function (the reprogram step). The new scheme
    /// must keep the virtual-channel layout (ports are sized at
    /// construction).
    pub fn set_scheme(&mut self, scheme: Arc<dyn Scheme>) {
        assert_eq!(
            scheme.max_vcs().max(1) as usize,
            self.vcs,
            "reprogram must preserve the virtual-channel layout"
        );
        // A drain that went quiet (rather than empty) can leave queued or
        // even mid-emission broadcasts behind a wounded packet. Only an
        // emission already under way keeps its old-function fan. Gathered
        // requests still queued are emitted from the new `serial_node`
        // with the new scheme's `emission` fan, although they gathered at
        // the old S-XB and never travel to the new one (ROADMAP item 2).
        // The transition checker watches this mixed-epoch overlap.
        self.serial_node = scheme.serializing_node().and_then(|n| self.graph.id_of(n));
        self.scheme = scheme;
    }

    /// Re-decides every paused visit under the current routing function
    /// (stamping it with the current epoch) and re-enters port
    /// arbitration. A paused S-XB emission has no input channel to
    /// re-decide from, so it is evacuated for the recovery policy to
    /// replay. Returns how many visits were revived.
    pub fn redecide_paused(&mut self) -> usize {
        let paused: Vec<u32> = self
            .live_entries()
            .filter(|e| e.paused())
            .map(|e| e.id())
            .collect();
        let mut evacuated = 0;
        for &vi in &paused {
            let header = self.visit_header(vi);
            let (packet, at, in_port) = {
                let v = &self.visits[vi as usize];
                (v.packet, v.at, v.in_port)
            };
            if self.emission_active.is_some_and(|(ea, _)| ea == vi) {
                // Evacuate it here, not as a drop visit that would settle
                // only at the next step, so the policy that runs next
                // replays it.
                self.log_victim(packet);
                self.abort_packet(packet);
                evacuated += 1;
                continue;
            }
            let kind = if self.any_dead && self.dead_nodes[at.0 as usize] {
                // The switch itself died while the visit was parked there:
                // nothing to re-decide, evacuate.
                self.log_victim(packet);
                VKind::dropped(DropReason::FaultVictim)
            } else {
                let kind = self.decide(packet, at, in_port, &header);
                if self.any_dead && self.hits_dead_channel(kind.branches()) {
                    // Still routed into the dead region under the new
                    // function — the detour cannot help; evacuate.
                    self.log_victim(packet);
                    VKind::dropped(DropReason::FaultVictim)
                } else {
                    kind
                }
            };
            let epoch = self.current_epoch;
            let v = &mut self.visits[vi as usize];
            v.kind = kind;
            v.paused = false;
            v.epoch = epoch;
            self.request_ports(vi);
        }
        paused.len() - evacuated
    }

    /// Re-enters a settled (evacuated) packet into the schedule at cycle
    /// `at` — the reinject recovery policy. The replay starts from
    /// scratch: prior partial deliveries and the drop mark are cleared.
    ///
    /// # Panics
    /// Panics if the packet has not settled or `at` is in the past.
    pub fn reschedule_packet(&mut self, id: PacketId, at: u64) {
        assert!(at >= self.now, "cannot reschedule into the past");
        let p = &mut self.packets[id.0 as usize];
        assert!(
            p.finished_at.is_some(),
            "only settled packets can be rescheduled"
        );
        p.started = false;
        p.open = 0;
        p.finished_at = None;
        p.dropped = None;
        p.deliveries.clear();
        p.spec.inject_at = at;
        self.finished_packets -= 1;
        self.started_packets -= 1;
        self.enqueue_injection(id.0);
    }
}
