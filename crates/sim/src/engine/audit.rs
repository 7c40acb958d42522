//! Debug builds only: the end-of-step audit. It recounts in full what the
//! passes of `step` keep up to date incrementally and checks each pass's
//! invariant against it.

use super::{Simulator, VKind};

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
                    .all(|&(vi, _, _)| !self.visits[vi as usize].complete),
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
            self.active.windows(2).all(|w| seq(&w[0]) < seq(&w[1])),
            "active visits out of creation order"
        );
        self.check_slots();
        let done = self
            .active
            .iter()
            .filter(|&&vi| self.visits[vi as usize].complete)
            .count();
        let live = self.visits.iter().filter(|v| !v.complete).count();
        assert_eq!(self.active.len() - done, live, "active misses a live visit");
        assert_eq!(self.active_done, done, "completed-entry count drifted");
        assert!(
            2 * done <= self.active.len(),
            "active was not compacted: {done} of {} entries completed",
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
        let movers = self.active.iter().copied().filter(|&vi| {
            let v = &self.visits[vi as usize];
            !v.complete
                && !v.paused
                && match &v.kind {
                    VKind::Forward { streaming, .. } => *streaming,
                    VKind::Sink { .. } => true,
                }
        });
        assert!(
            movers.eq(self.moving.iter().copied()),
            "moving visits differ from the live streaming ones"
        );
    }

    /// Checks slot lifetimes. A slot is free exactly when its visit meets
    /// the release rule, and nothing the engine still reads reaches a free
    /// slot.
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
            for &(vi, _, _) in &self.chan_requests[port] {
                in_use(vi, "a port request");
            }
            for &(vi, _) in &self.chan_resident[port] {
                in_use(vi, "a resident run");
                runs[vi as usize] += 1;
            }
            if let Some(vi) = self.chan_downstream[port] {
                in_use(vi, "a buffer's consumer");
            }
        }
        for &vi in self
            .active
            .iter()
            .chain(&self.moving)
            .chain(&self.emission_active)
        {
            in_use(vi, "a visit list");
        }
        let mut listed = 0;
        for (vi, v) in self.visits.iter().enumerate() {
            if !v.complete {
                if let Some((up, _)) = v.up_run {
                    in_use(up, "a live visit's input run");
                }
            }
            assert_eq!(v.runs, runs[vi], "resident runs of visit {vi} drifted");
            listed += usize::from(v.listed);
            assert_eq!(
                free[vi],
                v.releasable(),
                "slot {vi} is {} but its visit is complete: {}, holds {} run(s), listed: {}",
                if free[vi] { "released" } else { "in use" },
                v.complete,
                v.runs,
                v.listed
            );
        }
        assert!(
            listed == self.active.len()
                && self
                    .active
                    .iter()
                    .all(|&vi| self.visits[vi as usize].listed),
            "listed flags differ from active"
        );
    }
}
