//! Debug builds only: the end-of-step audit. It recounts in full what the
//! passes of `step` keep up to date incrementally and checks each pass's
//! invariant against it.

use super::storage::Live;
use super::{Simulator, VKind, PENDING};

impl Simulator {
    /// Checks the incremental step state against a full recount at the end
    /// of every step.
    pub(super) fn check_worklists(&self) {
        for port in 0..self.buffered.len() {
            assert_eq!(
                self.buffered[port] as usize,
                self.occupancy(port),
                "buffer credits of {} drifted",
                self.describe_port(port)
            );
            let requests = &self.chan_requests[port];
            assert!(
                requests.is_empty()
                    || self.chan_owner[port].is_some()
                    || self.arb_ports.contains(&(port as u32)),
                "{} has requests but neither an owner nor an arbitration slot",
                self.describe_port(port)
            );
            assert!(
                requests
                    .iter()
                    .all(|&(id, _, _)| id >= PENDING || !self.visits[id as usize].complete),
                "a complete visit still requests {}",
                self.describe_port(port)
            );
            let visible = self.chan_resident[port]
                .front()
                .is_some_and(|&run| self.branch(run).crossed > 0);
            assert!(
                !visible
                    || self.chan_downstream[port].is_some()
                    || self.head_ports.contains(&(port as u32)),
                "{} hides a visible header",
                self.describe_port(port)
            );
        }
        let seq = |vi: &u32| self.seq[*vi as usize];
        assert!(
            self.moving.windows(2).all(|w| seq(&w[0]) < seq(&w[1])),
            "moving visits out of creation order"
        );
        assert!(
            self.active.windows(2).all(|w| w[0].1 < w[1].1),
            "active entries out of creation order"
        );
        self.check_slots();
        self.check_pending();
        let listed = self.live_entries().count();
        let done = self.active.len() - listed;
        let live = self.visits.iter().filter(|v| !v.complete).count()
            + self.pending.iter().flatten().count();
        assert_eq!(listed, live, "active misses a live visit");
        assert_eq!(self.active_done, done, "dead-entry count drifted");
        assert!(
            2 * done <= self.active.len(),
            "active was not compacted: {done} of {} entries dead",
            self.active.len()
        );
        for &vi in &self.moving {
            let v = &self.visits[vi as usize];
            let finished = match &v.kind {
                VKind::Forward { branches, .. } => branches.iter().all(|b| b.crossed == v.total),
                VKind::Sink { consumed, .. } => *consumed == v.total,
            };
            assert!(
                v.complete || !finished,
                "visit {vi} moved its last flit but did not complete"
            );
        }
        let movers = self.live_entries().filter_map(|e| match e {
            Live::Visit(vi, v)
                if !v.paused
                    && match &v.kind {
                        VKind::Forward { streaming, .. } => *streaming,
                        VKind::Sink { .. } => true,
                    } =>
            {
                Some(vi)
            }
            _ => None,
        });
        assert!(
            movers.eq(self.moving.iter().copied()),
            "moving visits differ from the live streaming ones"
        );
    }

    /// Checks slot lifetimes. A slot is free exactly when its visit is
    /// complete and holds no resident run, and no live list entry, owner,
    /// request, resident run, buffer consumer or live visit's input run
    /// reaches a free slot.
    fn check_slots(&self) {
        let mut free = vec![false; self.visits.len()];
        for &vi in &self.free {
            assert!(
                !std::mem::replace(&mut free[vi as usize], true),
                "slot {vi} released twice"
            );
        }
        let in_use = |vi: u32, what: &str| {
            assert!(!free[vi as usize], "{what} reaches released slot {vi}");
        };
        let mut runs = vec![0u32; self.visits.len()];
        for port in 0..self.chan_owner.len() {
            if let Some((vi, _)) = self.chan_owner[port] {
                in_use(vi, "a port owner");
            }
            for &(id, _, _) in &self.chan_requests[port] {
                if id < PENDING {
                    in_use(id, "a port request");
                }
            }
            for &(vi, _) in &self.chan_resident[port] {
                in_use(vi, "a resident run");
                runs[vi as usize] += 1;
            }
            if let Some(vi) = self.chan_downstream[port] {
                in_use(vi, "a buffer's consumer");
            }
        }
        for e in self.live_entries() {
            if let Live::Visit(vi, _) = e {
                in_use(vi, "a live entry of active");
            }
        }
        let emission = self.emission_active.map(|(vi, _)| vi);
        for &vi in self.moving.iter().chain(&emission) {
            in_use(vi, "a visit list");
        }
        for (vi, v) in self.visits.iter().enumerate() {
            if !v.complete {
                if let Some((up, _)) = v.up_run {
                    in_use(up, "a live visit's input run");
                }
            }
            assert_eq!(v.runs, runs[vi], "resident runs of visit {vi} drifted");
            assert_eq!(
                free[vi],
                v.releasable(),
                "slot {vi} is {} but its visit is complete: {}, holds {} run(s)",
                if free[vi] { "released" } else { "in use" },
                v.complete,
                v.runs
            );
        }
    }

    /// Checks the pending injections: an entry is free exactly when it is
    /// listed free, and each live one requests its branch's port once, in
    /// the name port requests know it by.
    fn check_pending(&self) {
        let mut listed_free = vec![false; self.pending.len()];
        for &i in &self.pending_free {
            assert!(
                !std::mem::replace(&mut listed_free[i as usize], true),
                "pending entry {i} freed twice"
            );
        }
        for (i, p) in self.pending.iter().enumerate() {
            assert_eq!(
                listed_free[i],
                p.is_none(),
                "pending entry {i} is listed free: {}, but holds an injection: {}",
                listed_free[i],
                p.is_some()
            );
        }
        let mut requests = vec![0u32; self.pending.len()];
        for (port, queue) in self.chan_requests.iter().enumerate() {
            for &(id, bi, _) in queue {
                let Some(i) = id.checked_sub(PENDING) else {
                    continue;
                };
                let p = self.pending[i as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("a port request reaches free pending entry {i}"));
                assert_eq!(
                    (port, bi),
                    (self.port(p.branch.channel, p.branch.vc), 0),
                    "pending entry {i} requests another port"
                );
                assert!(!p.branch.granted, "pending entry {i} holds a grant");
                requests[i as usize] += 1;
            }
        }
        for (i, p) in self.pending.iter().enumerate() {
            if p.is_some() {
                assert_eq!(requests[i], 1, "pending entry {i} requests its port once");
            }
        }
    }
}
