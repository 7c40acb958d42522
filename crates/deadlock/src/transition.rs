//! Transition safety: deadlock analysis *across* a live reprogram.
//!
//! The static criterion in [`crate::waitgraph`] certifies one routing
//! function at a time. During live reconfiguration two functions coexist:
//! packets decided under the old epoch still hold channels while packets
//! decided under the new epoch (re-routed pauses, reinjected victims,
//! post-resume traffic) acquire theirs. Each function may be deadlock-free
//! on its own, yet a wait cycle can close through the *mixture* — e.g. the
//! fault-adapted function legally reverses the dimension order
//! (a Y-crossbar fault makes the scheme route Y-first), so an old-epoch
//! X-then-Y packet and a new-epoch Y-then-X packet can each hold what the
//! other wants, the classic reconfiguration hazard the SR2201 service
//! processor avoids by draining before it reprograms.
//!
//! The checker consumes runtime wait-graph snapshots whose edges carry the
//! routing **epoch** of the waiter's decision and of the holder's (see
//! `mdx_sim::WaitSnapshot::epoch` and `holder_epoch`) and flags any cycle
//! whose waits and holds span more than one epoch.
//!
//! The check is deliberately **per-snapshot**, not a union over time: since
//! dimension order may flip between epochs, a temporal union contains
//! hold→wait pairs that never coexist and would report false cycles. Only
//! simultaneously-held resources can deadlock.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One epoch-tagged blocked-on edge of a runtime wait snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWait {
    /// The blocked packet (dense run-local id).
    pub waiter: u32,
    /// The packet holding the wanted channel, if any (a holderless edge is
    /// mere contention and cannot be part of a cycle).
    pub holder: Option<u32>,
    /// Routing epoch of the decision that created the waiter's request.
    pub epoch: u32,
    /// Routing epoch of the holder's decision, when there is a holder.
    pub holder_epoch: Option<u32>,
}

/// A wait cycle found in one snapshot, with the routing epochs of the
/// decisions that close it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionCycle {
    /// The packets on the cycle, in wait order.
    pub packets: Vec<u32>,
    /// Distinct routing epochs among the cycle's waits and holds,
    /// ascending. More than one epoch means the cycle crosses a reprogram
    /// boundary.
    pub epochs: Vec<u32>,
}

impl TransitionCycle {
    /// Whether the cycle's waits and holds span more than one routing
    /// epoch.
    pub fn is_mixed(&self) -> bool {
        self.epochs.len() > 1
    }
}

/// A mixed-epoch wait cycle: old-function and new-function packets close a
/// hold-wait loop together. This is the condition the epoch protocol's
/// drain phase exists to prevent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionViolation {
    /// Cycle at which the snapshot was taken.
    pub at: u64,
    /// The offending cycle.
    pub cycle: TransitionCycle,
}

/// Accumulated transition-safety evidence over a run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TransitionReport {
    /// Wait-graph snapshots examined.
    pub snapshots: u64,
    /// Edges whose waiter and holder were decided in different epochs —
    /// transient old/new holds. Nonzero is normal while packets paused
    /// across a reprogram drain out; only *cycles* are violations.
    pub mixed_edges: u64,
    /// Largest number of distinct routing epochs seen coexisting in one
    /// snapshot.
    pub max_epochs_coexisting: usize,
    /// Cycles confined to a single epoch (an ordinary deadlock forming;
    /// the engine watchdog owns those, they are not transition hazards).
    pub single_epoch_cycles: u64,
    /// Mixed-epoch cycles — transition-safety violations.
    pub violations: Vec<TransitionViolation>,
}

impl TransitionReport {
    /// True when no mixed-epoch cycle was ever observed.
    pub fn transition_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One wait edge as the cycle search stores it: a packet at one of its
/// ends (the holder in the adjacency lists, the waiter on the DFS path),
/// the epoch of the waiting decision and that of the holding decision.
type Edge = (u32, u32, Option<u32>);

/// Finds every wait cycle in one snapshot, tagged with the epochs of every
/// decision on it: each wait and each hold. A packet on a cycle can hold
/// through a visit decided before a reprogram while it waits through one
/// decided after, so the waits alone can look single-epoch. Deterministic:
/// DFS roots in ascending packet order, adjacency in edge order.
pub fn find_cycles(waits: &[EpochWait]) -> Vec<TransitionCycle> {
    // waiter -> [(holder, epochs)]
    let mut adj: HashMap<u32, Vec<Edge>> = HashMap::new();
    let mut nodes: Vec<u32> = Vec::new();
    for e in waits {
        nodes.push(e.waiter);
        if let Some(h) = e.holder {
            nodes.push(h);
            adj.entry(e.waiter)
                .or_default()
                .push((h, e.epoch, e.holder_epoch));
        }
    }
    nodes.sort_unstable();
    nodes.dedup();

    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color: HashMap<u32, u8> = HashMap::new();
    // (waiter, epochs) of each edge on the DFS path.
    let mut path: Vec<Edge> = Vec::new();
    let mut cycles: Vec<TransitionCycle> = Vec::new();
    for &start in &nodes {
        if color.get(&start).copied().unwrap_or(WHITE) == WHITE {
            dfs(start, &adj, &mut color, &mut path, &mut cycles);
        }
    }
    return cycles;

    fn dfs(
        u: u32,
        adj: &HashMap<u32, Vec<Edge>>,
        color: &mut HashMap<u32, u8>,
        path: &mut Vec<Edge>,
        cycles: &mut Vec<TransitionCycle>,
    ) {
        color.insert(u, GRAY);
        if let Some(ns) = adj.get(&u) {
            for &(h, ep, hep) in ns {
                match color.get(&h).copied().unwrap_or(WHITE) {
                    GRAY => {
                        // Back edge: the cycle is the path suffix from h,
                        // plus u and the closing edge u -> h.
                        let start = path.iter().position(|&(n, _, _)| n == h);
                        let suffix = match start {
                            Some(s) => &path[s..],
                            None => &[], // h == u: a self-wait
                        };
                        let closing = (u, ep, hep);
                        let edges = || suffix.iter().chain(std::iter::once(&closing));
                        let packets: Vec<u32> = edges().map(|&(n, _, _)| n).collect();
                        let mut epochs: Vec<u32> = edges()
                            .flat_map(|&(_, e, he)| std::iter::once(e).chain(he))
                            .collect();
                        epochs.sort_unstable();
                        epochs.dedup();
                        cycles.push(TransitionCycle { packets, epochs });
                    }
                    WHITE => {
                        path.push((u, ep, hep));
                        dfs(h, adj, color, path, cycles);
                        path.pop();
                    }
                    _ => {} // BLACK: fully explored, no new cycle this way
                }
            }
        }
        color.insert(u, BLACK);
    }
}

/// Streaming transition-safety checker: feed it every wait snapshot taken
/// around a reconfiguration and read the verdict afterwards.
#[derive(Debug, Default)]
pub struct TransitionChecker {
    report: TransitionReport,
}

impl TransitionChecker {
    /// A fresh checker.
    pub fn new() -> TransitionChecker {
        TransitionChecker::default()
    }

    /// Examines one snapshot taken at cycle `now`.
    pub fn observe(&mut self, now: u64, waits: &[EpochWait]) {
        self.report.snapshots += 1;
        let mut epochs: Vec<u32> = Vec::new();
        for e in waits {
            epochs.push(e.epoch);
            if let Some(he) = e.holder_epoch {
                epochs.push(he);
                if he != e.epoch {
                    self.report.mixed_edges += 1;
                }
            }
        }
        epochs.sort_unstable();
        epochs.dedup();
        self.report.max_epochs_coexisting = self.report.max_epochs_coexisting.max(epochs.len());
        for cycle in find_cycles(waits) {
            if cycle.is_mixed() {
                self.report
                    .violations
                    .push(TransitionViolation { at: now, cycle });
            } else {
                self.report.single_epoch_cycles += 1;
            }
        }
    }

    /// The evidence accumulated so far.
    pub fn report(&self) -> &TransitionReport {
        &self.report
    }

    /// Consumes the checker, yielding the final report.
    pub fn into_report(self) -> TransitionReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(waiter: u32, holder: u32, epoch: u32, holder_epoch: u32) -> EpochWait {
        EpochWait {
            waiter,
            holder: Some(holder),
            epoch,
            holder_epoch: Some(holder_epoch),
        }
    }

    #[test]
    fn no_cycle_no_violation() {
        let mut c = TransitionChecker::new();
        c.observe(10, &[w(0, 1, 0, 1), w(1, 2, 1, 1)]);
        let r = c.into_report();
        assert!(r.transition_safe());
        assert_eq!(r.mixed_edges, 1);
        assert_eq!(r.max_epochs_coexisting, 2);
        assert_eq!(r.snapshots, 1);
    }

    #[test]
    fn single_epoch_cycle_is_not_a_transition_violation() {
        let mut c = TransitionChecker::new();
        c.observe(5, &[w(0, 1, 0, 0), w(1, 0, 0, 0)]);
        let r = c.into_report();
        assert!(r.transition_safe());
        assert_eq!(r.single_epoch_cycles, 1);
    }

    #[test]
    fn mixed_epoch_cycle_is_flagged() {
        let mut c = TransitionChecker::new();
        c.observe(42, &[w(0, 1, 0, 1), w(1, 0, 1, 0)]);
        let r = c.into_report();
        assert!(!r.transition_safe());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.at, 42);
        assert!(v.cycle.is_mixed());
        assert_eq!(v.cycle.epochs, vec![0, 1]);
        let mut ps = v.cycle.packets.clone();
        ps.sort_unstable();
        assert_eq!(ps, vec![0, 1]);
    }

    #[test]
    fn a_hold_from_before_the_reprogram_makes_the_cycle_mixed() {
        // Every wait on the cycle was decided in epoch 1, but packet 1
        // holds what packet 0 wants through a visit decided in epoch 0.
        let mut c = TransitionChecker::new();
        c.observe(432, &[w(0, 1, 1, 0), w(1, 0, 1, 1)]);
        let r = c.into_report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.single_epoch_cycles, 0);
        assert_eq!(r.violations[0].cycle.epochs, vec![0, 1]);
    }

    #[test]
    fn cycles_that_never_coexist_are_not_reported() {
        // The union of these two snapshots contains the cycle 0 -> 1 -> 0,
        // but no single snapshot does: per-snapshot checking stays quiet.
        let mut c = TransitionChecker::new();
        c.observe(1, &[w(0, 1, 0, 0)]);
        c.observe(2, &[w(1, 0, 1, 1)]);
        let r = c.into_report();
        assert!(r.transition_safe());
        assert_eq!(r.single_epoch_cycles, 0);
    }

    #[test]
    fn finds_cycle_with_tail_and_reports_members() {
        // 5 -> 0 -> 1 -> 2 -> 0: cycle is {0, 1, 2}, tail 5 excluded.
        let cycles = find_cycles(&[w(5, 0, 0, 0), w(0, 1, 0, 1), w(1, 2, 1, 2), w(2, 0, 2, 0)]);
        assert_eq!(cycles.len(), 1);
        let mut ps = cycles[0].packets.clone();
        ps.sort_unstable();
        assert_eq!(ps, vec![0, 1, 2]);
        assert_eq!(cycles[0].epochs, vec![0, 1, 2]);
    }

    #[test]
    fn self_wait_is_a_one_cycle() {
        let cycles = find_cycles(&[w(3, 3, 1, 1)]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].packets, vec![3]);
        assert!(!cycles[0].is_mixed());
    }

    #[test]
    fn holderless_edges_cannot_cycle() {
        let cycles = find_cycles(&[EpochWait {
            waiter: 0,
            holder: None,
            epoch: 0,
            holder_epoch: None,
        }]);
        assert!(cycles.is_empty());
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut c = TransitionChecker::new();
        c.observe(42, &[w(0, 1, 0, 1), w(1, 0, 1, 0)]);
        let r = c.into_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: TransitionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
