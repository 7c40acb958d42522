//! Visit storage: slots, their creation sequence and release rule, pending
//! injections, and the spare branch lists.
//!
//! Per-hop state follows live traffic, as a cut-through switch holds a
//! packet's state only while its flits pass: a visit lives in a slot that
//! is released once its visit is complete and none of its runs is still
//! resident in a downstream buffer (runs are counted at the grant and
//! dropped at the last retire, pause or abort flush). The next visit
//! reuses the slot, and forward decisions reuse the branch lists of
//! overwritten forward slots, so a warmed-up engine allocates no per-hop
//! storage.
//!
//! A due packet takes no slot until it holds its first port, as a packet
//! that cannot enter the network waits in its PE's NIA. Its injection
//! decision, a fan of one branch, waits as a pending entry: the branch, the
//! decision's epoch and the creation sequence its visit will have. The
//! entry requests the branch's port as a visit's branch would, and at the
//! grant it becomes the visit ([`Simulator::admit_pending`]). A fault that
//! pauses it makes it a paused visit at once.
//!
//! Slot numbers therefore say nothing about age. Every order the engine
//! exposes — the live and moving lists, a step's completions, and through
//! them deliveries, S-XB gather order, hook order, wait snapshots and
//! deadlock witnesses — follows each visit's creation sequence, kept in a
//! dense array beside the slots and in each pending entry. The live list
//! `active` pairs each id with that sequence, so an entry whose slot now
//! holds a later visit is told apart from the later visit's own entry:
//! readers take the live entries only ([`Simulator::live`]), and a slot
//! need not wait for the list's lazy compaction. A FIFO window over
//! creation order would not do: one slow packet pins the window's front,
//! so the window grows with the traffic offered behind it.
//!
//! Per-packet records exist once each. [`Simulator::schedule_all`] sizes
//! them to a schedule handed over by value, a packet's first delivery
//! takes room for the one entry a unicast needs, and
//! [`Simulator::finalize`] frees the per-hop state before it builds the
//! result, into which it moves each delivery list instead of copying it.
//! A run's peak heap is then its per-hop high-water plus one copy of each
//! record: 0.37–0.52 KB per offered packet on the 8x8 `load` rows of
//! `crates/campaign/tests/engine_memory.rs`, of which the records (the
//! engine's 136 B, a unicast's 16 B delivery, a 4 B injection-order slot,
//! the result's 80 B) are 0.24 KB.

use super::{BranchState, Pending, Simulator, VKind, Visit, PENDING};
use crate::result::PacketId;
use mdx_core::Header;
use mdx_topology::NodeId;

/// A live entry of `active`: a visit in its slot, or an injection waiting
/// for its first port.
#[derive(Debug, Clone, Copy)]
pub(super) enum Live<'a> {
    Visit(u32, &'a Visit),
    Pending(u32, &'a Pending),
}

impl<'a> Live<'a> {
    /// The id port requests and `active` know it by.
    pub(super) fn id(self) -> u32 {
        match self {
            Live::Visit(vi, _) => vi,
            Live::Pending(i, _) => PENDING + i,
        }
    }

    pub(super) fn packet(self) -> u32 {
        match self {
            Live::Visit(_, v) => v.packet,
            Live::Pending(_, p) => p.packet,
        }
    }

    /// The switch it sits at.
    pub(super) fn at(self) -> NodeId {
        match self {
            Live::Visit(_, v) => v.at,
            Live::Pending(_, p) => p.at,
        }
    }

    /// Reconfiguration epoch of its routing decision.
    pub(super) fn epoch(self) -> u32 {
        match self {
            Live::Visit(_, v) => v.epoch,
            Live::Pending(_, p) => p.epoch,
        }
    }

    /// Whether a fault froze it; a pending injection never is.
    pub(super) fn paused(self) -> bool {
        matches!(self, Live::Visit(_, v) if v.paused)
    }

    /// Its fan: a pending injection's one branch, none for a sink.
    pub(super) fn branches(self) -> &'a [BranchState] {
        match self {
            Live::Visit(_, v) => v.kind.branches(),
            Live::Pending(_, p) => std::slice::from_ref(&p.branch),
        }
    }
}

impl VKind {
    /// A forward's branches; none for a sink.
    pub(super) fn branches(&self) -> &[BranchState] {
        match self {
            VKind::Forward { branches, .. } => branches,
            VKind::Sink { .. } => &[],
        }
    }
}

impl Visit {
    /// The release rule: the slot is free once the visit is complete and
    /// none of its runs is resident in a downstream buffer.
    pub(super) fn releasable(&self) -> bool {
        self.complete && self.runs == 0
    }
}

impl Simulator {
    /// The live visit or pending injection an `active` entry names; `None`
    /// once its visit has completed or its slot or pending entry holds
    /// another.
    pub(super) fn live(&self, (id, seq): (u32, u64)) -> Option<Live<'_>> {
        match id.checked_sub(PENDING) {
            Some(i) => self.pending[i as usize]
                .as_ref()
                .filter(|p| p.seq == seq)
                .map(|p| Live::Pending(i, p)),
            None => {
                let v = &self.visits[id as usize];
                (!v.complete && self.seq[id as usize] == seq).then_some(Live::Visit(id, v))
            }
        }
    }

    /// Every live visit and pending injection, in creation order.
    pub(super) fn live_entries(&self) -> impl Iterator<Item = Live<'_>> {
        self.active.iter().filter_map(|&entry| self.live(entry))
    }

    /// Puts `visit`, with creation sequence `seq`, in the last released
    /// slot or a new one, and returns the slot. An overwritten forward's
    /// branch list serves a later forward decision.
    fn place(&mut self, visit: Visit, seq: u64) -> u32 {
        let idx = self.free.pop().unwrap_or(self.visits.len() as u32);
        debug_assert!(idx < PENDING, "visit slots stay below the pending tag");
        match self.visits.get_mut(idx as usize) {
            Some(slot) => {
                let old = std::mem::replace(slot, visit);
                self.seq[idx as usize] = seq;
                if let VKind::Forward { branches, .. } = old.kind {
                    self.spare(branches);
                }
            }
            None => {
                self.visits.push(visit);
                self.seq.push(seq);
            }
        }
        idx
    }

    /// Keeps an emptied branch list with room in it for a later forward.
    pub(super) fn spare(&mut self, mut branches: Vec<BranchState>) {
        if branches.capacity() > 0 {
            branches.clear();
            self.spare_branches.push(branches);
        }
    }

    /// Installs a visit with the next creation sequence number and the
    /// current epoch, and returns its slot. The visit is listed in
    /// `active` and as its input buffer's consumer and, unless it is
    /// paused, where it can act next (see [`Simulator::request_ports`]).
    pub(super) fn install_visit(
        &mut self,
        packet: u32,
        at: NodeId,
        in_port: Option<u32>,
        up_run: Option<(u32, u32)>,
        kind: VKind,
        paused: bool,
    ) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let visit = Visit {
            packet,
            at,
            in_port,
            up_run,
            total: self.packets[packet as usize].spec.flits,
            kind,
            complete: false,
            epoch: self.current_epoch,
            paused,
            runs: 0,
        };
        let idx = self.place(visit, seq);
        self.active.push((idx, seq));
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

    /// Lists a due packet's injection decision, a fan of one `branch` from
    /// its source switch `at`, as a pending injection with the next
    /// creation sequence number and the current epoch. It holds the packet
    /// open and requests the branch's port as a visit would.
    pub(super) fn install_pending(&mut self, packet: u32, at: NodeId, branch: BranchState) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let port = self.port(branch.channel, branch.vc);
        let entry = Some(Pending {
            packet,
            at,
            seq,
            epoch: self.current_epoch,
            branch,
        });
        let i = match self.pending_free.pop() {
            Some(i) => {
                self.pending[i as usize] = entry;
                i
            }
            None => {
                self.pending.push(entry);
                self.pending.len() as u32 - 1
            }
        };
        let id = PENDING + i;
        self.active.push((id, seq));
        self.packets[packet as usize].open += 1;
        self.chan_requests[port].push_back((id, 0, self.now));
        self.arb_ports.push(port as u32);
    }

    /// Turns pending injection `id` into its visit, with the creation
    /// sequence it was listed under, and returns the visit's slot: a
    /// forward over its branch, or, `paused`, a frozen one with none. Its
    /// `active` entry names the slot from now on. The caller has taken
    /// care of its port request.
    pub(super) fn admit_pending(&mut self, id: u32, paused: bool) -> u32 {
        let p = self.take_pending(id);
        let kind = if paused {
            VKind::paused()
        } else {
            let mut branches = self.branch_list(1);
            branches.push(p.branch);
            VKind::Forward {
                branches,
                streaming: false,
            }
        };
        let visit = Visit {
            packet: p.packet,
            at: p.at,
            in_port: None,
            up_run: None,
            total: self.packets[p.packet as usize].spec.flits,
            kind,
            complete: false,
            epoch: p.epoch,
            paused,
            runs: 0,
        };
        let vi = self.place(visit, p.seq);
        let pos = self.active.partition_point(|&(_, s)| s < p.seq);
        debug_assert_eq!(self.active.get(pos), Some(&(id, p.seq)));
        self.active[pos].0 = vi;
        vi
    }

    /// Takes live pending injection `id` out of its entry, which is free
    /// from now on.
    pub(super) fn take_pending(&mut self, id: u32) -> Pending {
        let i = id - PENDING;
        let p = self.pending[i as usize]
            .take()
            .expect("a pending injection still named is live");
        self.pending_free.push(i);
        p
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

    /// The packet of `id`, a visit slot or a live pending injection.
    pub(super) fn packet_of(&self, id: u32) -> u32 {
        match id.checked_sub(PENDING) {
            Some(i) => {
                self.pending[i as usize]
                    .as_ref()
                    .expect("a pending injection still named is live")
                    .packet
            }
            None => self.visits[id as usize].packet,
        }
    }

    /// The packet and branch `bi` behind port request `id`; `None` if the
    /// visit is not a forward.
    pub(super) fn requested_branch(&mut self, id: u32, bi: u32) -> Option<(u32, &mut BranchState)> {
        match id.checked_sub(PENDING) {
            Some(i) => self.pending[i as usize]
                .as_mut()
                .map(|p| (p.packet, &mut p.branch)),
            None => {
                let v = &mut self.visits[id as usize];
                match &mut v.kind {
                    VKind::Forward { branches, .. } => Some((v.packet, &mut branches[bi as usize])),
                    VKind::Sink { .. } => None,
                }
            }
        }
    }

    /// The header as it arrived at visit `vi`'s switch: on the upstream
    /// run the visit still holds, else the S-XB's gathered header for its
    /// emission or the packet's own for an injection.
    pub(super) fn visit_header(&self, vi: u32) -> Header {
        let v = &self.visits[vi as usize];
        match (v.up_run, self.emission_active) {
            (Some(run), _) => self.branch(run).header,
            (None, Some((ea, header))) if ea == vi => header,
            (None, _) => self.packets[v.packet as usize].spec.header,
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

    /// Completes a visit, releasing its slot if it holds no resident run.
    pub(super) fn complete_visit(&mut self, vi: u32) {
        let v = &mut self.visits[vi as usize];
        if v.complete {
            return;
        }
        v.complete = true;
        let packet = v.packet;
        if v.releasable() {
            self.free.push(vi);
        }
        self.active_done += 1;
        self.dec_open(packet);
    }

    /// Drops the dead entries from `active`.
    pub(super) fn compact_active(&mut self) {
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&entry| self.live(entry).is_some());
        self.active = active;
        self.active_done = 0;
    }

    /// Drops one of the visit's resident runs, releasing its slot if that
    /// was the last and the visit is complete.
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
        for obs in &self.observers {
            obs.borrow_mut()
                .on_packet_finished(PacketId(packet), self.now);
        }
    }
}
