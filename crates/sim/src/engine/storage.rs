//! Visit storage: slots, their creation sequence and release rule, and the
//! spare branch lists.
//!
//! Per-hop state follows live traffic, as a cut-through switch holds a
//! packet's state only while its flits pass: a visit lives in a slot that
//! is released once three things hold — the visit is complete, none of its
//! runs is still resident in a downstream buffer (runs are counted at the
//! grant and dropped at the last retire, pause or abort flush), and the
//! live-visit list no longer lists it. The next visit reuses the slot, and
//! forward decisions reuse the branch lists of overwritten forward slots,
//! so a warmed-up engine allocates no per-hop storage.
//!
//! Slot numbers therefore say nothing about age. Every order the engine
//! exposes — the live and moving lists, a step's completions, and through
//! them deliveries, S-XB gather order, hook order, wait snapshots and
//! deadlock witnesses — follows each visit's creation sequence, kept in a
//! dense array beside the slots. A FIFO window over creation order would
//! not do: one slow packet pins the window's front, so the window grows
//! with the traffic offered behind it.
//!
//! Per-packet records exist once each. [`Simulator::schedule_all`] sizes
//! them to a schedule handed over by value, a packet's first delivery
//! takes room for the one entry a unicast needs, and
//! [`Simulator::finalize`] frees the per-hop state before it builds the
//! result, into which it moves each delivery list instead of copying it.
//! A run's peak heap is then its per-hop high-water plus one copy of each
//! record: about 0.6–0.7 KB per offered packet on the 8x8 `load` rows of
//! `crates/campaign/tests/engine_memory.rs`, of which the records (the
//! engine's 136 B, a unicast's 16 B delivery, a 4 B injection-order slot,
//! the result's 80 B) are 0.24 KB.

use super::{BranchState, Simulator, VKind, Visit};
use crate::result::PacketId;
use mdx_core::Header;
use mdx_topology::NodeId;

impl Visit {
    /// The release rule: the slot is free once the visit is complete, none
    /// of its runs is resident in a downstream buffer, and `active` no
    /// longer lists it.
    pub(super) fn releasable(&self) -> bool {
        self.complete && self.runs == 0 && !self.listed
    }
}

impl Simulator {
    /// Installs a visit in the last released slot, or a new one, with the
    /// next creation sequence number and the current epoch, and returns
    /// its slot. The visit is listed in `active` and as its input buffer's
    /// consumer and, unless it is paused, where it can act next (see
    /// [`Simulator::request_ports`]).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn install_visit(
        &mut self,
        packet: u32,
        at: NodeId,
        in_port: Option<u32>,
        up_run: Option<(u32, u32)>,
        header: Header,
        kind: VKind,
        paused: bool,
    ) -> u32 {
        let total = self.packets[packet as usize].spec.flits;
        let idx = self.free.pop().unwrap_or(self.visits.len() as u32);
        let visit = Visit {
            packet,
            at,
            in_port,
            up_run,
            header,
            total,
            kind,
            complete: false,
            epoch: self.current_epoch,
            paused,
            runs: 0,
            listed: true,
        };
        match self.visits.get_mut(idx as usize) {
            Some(slot) => {
                let old = std::mem::replace(slot, visit);
                self.seq[idx as usize] = self.next_seq;
                // An overwritten forward's branch list serves a later
                // forward decision.
                if let VKind::Forward { mut branches, .. } = old.kind {
                    if branches.capacity() > 0 {
                        branches.clear();
                        self.spare_branches.push(branches);
                    }
                }
            }
            None => {
                self.visits.push(visit);
                self.seq.push(self.next_seq);
            }
        }
        self.next_seq += 1;
        self.active.push(idx);
        if let Some(port) = in_port {
            debug_assert!(self.chan_downstream[port as usize].is_none());
            self.chan_downstream[port as usize] = Some(idx);
        }
        self.packets[packet as usize].open += 1;
        if !paused {
            self.request_ports(idx);
        }
        idx
    }

    /// Lists a newly decided visit where it can act next: each branch of a
    /// forward queues a request on its port, which joins `arb_ports`, and a
    /// sink joins `moving`.
    pub(super) fn request_ports(&mut self, vi: u32) {
        match &self.visits[vi as usize].kind {
            VKind::Forward { branches, .. } => {
                for (bi, b) in branches.iter().enumerate() {
                    let port = self.port(b.channel, b.vc);
                    self.chan_requests[port].push_back((vi, bi as u32, self.now));
                    self.arb_ports.push(port as u32);
                }
            }
            VKind::Sink { .. } => self.join_moving(vi),
        }
    }

    /// An empty branch list with room for `n` branches, reusing spare
    /// storage when there is some.
    pub(super) fn branch_list(&mut self, n: usize) -> Vec<BranchState> {
        let mut list = self.spare_branches.pop().unwrap_or_default();
        list.reserve_exact(n);
        list
    }

    /// Adds a visit that can now move to `moving`, keeping creation order.
    pub(super) fn join_moving(&mut self, vi: u32) {
        let seq = &self.seq;
        let pos = self
            .moving
            .partition_point(|&m| seq[m as usize] < seq[vi as usize]);
        self.moving.insert(pos, vi);
    }

    pub(super) fn complete_visit(&mut self, vi: u32) {
        let v = &mut self.visits[vi as usize];
        if v.complete {
            return;
        }
        v.complete = true;
        let packet = v.packet;
        self.active_done += 1;
        self.dec_open(packet);
    }

    /// Drops the completed entries from `active`, releasing the slots that
    /// hold no resident run.
    pub(super) fn compact_active(&mut self) {
        let (visits, free) = (&mut self.visits, &mut self.free);
        self.active.retain(|&vi| {
            let v = &mut visits[vi as usize];
            if !v.complete {
                return true;
            }
            v.listed = false;
            if v.releasable() {
                free.push(vi);
            }
            false
        });
        self.active_done = 0;
    }

    /// Drops one of the visit's resident runs, releasing its slot if that
    /// was the last and `active` no longer lists the completed visit.
    pub(super) fn drop_run(&mut self, vi: u32) {
        let v = &mut self.visits[vi as usize];
        v.runs -= 1;
        if v.releasable() {
            self.free.push(vi);
        }
    }

    /// Closes one of the packet's open elements; the packet finishes when
    /// its last one closes.
    pub(super) fn dec_open(&mut self, packet: u32) {
        let p = &mut self.packets[packet as usize];
        p.open -= 1;
        if p.open == 0 && p.started && p.finished_at.is_none() {
            self.finish_packet(packet);
        }
    }

    /// Settles a started packet now, delivered or evacuated.
    pub(super) fn finish_packet(&mut self, packet: u32) {
        self.packets[packet as usize].finished_at = Some(self.now);
        self.finished_packets += 1;
        for obs in &mut self.observers {
            obs.on_packet_finished(PacketId(packet), self.now);
        }
    }
}
