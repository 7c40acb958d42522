//! Transition safety: deadlock analysis *across* a live reprogram.
//!
//! The static criterion of `mdx-deadlock` certifies one routing function
//! at a time. During live reconfiguration two functions coexist:
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
//! The checker consumes the engine's wait snapshots, whose wants carry the
//! routing **epoch** of the waiter's decision and of the holder's
//! ([`WaitSnapshot::epoch`] and [`WaitSnapshot::holder_epoch`]), searches
//! each with [`mdx_sim::search_waits`] and flags any cycle whose waits and
//! holds span more than one epoch.
//!
//! The check is deliberately **per-snapshot**, not a union over time: since
//! dimension order may flip between epochs, a temporal union contains
//! hold→wait pairs that never coexist and would report false cycles. Only
//! simultaneously-held resources can deadlock.

use mdx_sim::{search_waits, WaitSnapshot};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

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

    /// Examines one snapshot taken at cycle `now`: every cycle the wait
    /// search closes, tagged with the epochs of every decision on it, each
    /// wait and each hold. A packet on a cycle can hold through a visit
    /// decided before a reprogram while it waits through one decided
    /// after, so the waits alone can look single-epoch.
    pub fn observe(&mut self, now: u64, waits: &[WaitSnapshot]) {
        self.report.snapshots += 1;
        let mut epochs: Vec<u32> = Vec::new();
        for w in waits {
            epochs.push(w.epoch);
            if let Some(he) = w.holder_epoch {
                epochs.push(he);
                if he != w.epoch {
                    self.report.mixed_edges += 1;
                }
            }
        }
        epochs.sort_unstable();
        epochs.dedup();
        self.report.max_epochs_coexisting = self.report.max_epochs_coexisting.max(epochs.len());
        search_waits(waits, |edges| {
            let packets = edges.iter().map(|&i| waits[i].waiter.0).collect();
            let mut epochs: Vec<u32> = edges
                .iter()
                .flat_map(|&i| std::iter::once(waits[i].epoch).chain(waits[i].holder_epoch))
                .collect();
            epochs.sort_unstable();
            epochs.dedup();
            let cycle = TransitionCycle { packets, epochs };
            if cycle.is_mixed() {
                self.report
                    .violations
                    .push(TransitionViolation { at: now, cycle });
            } else {
                self.report.single_epoch_cycles += 1;
            }
            ControlFlow::Continue(())
        });
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
    use mdx_sim::PacketId;
    use mdx_topology::ChannelId;

    fn w(waiter: u32, holder: u32, epoch: u32, holder_epoch: u32) -> WaitSnapshot {
        WaitSnapshot {
            waiter: PacketId(waiter),
            holder: Some(PacketId(holder)),
            channel: ChannelId(waiter),
            vc: 0,
            since: 0,
            epoch,
            holder_epoch: Some(holder_epoch),
        }
    }

    /// Every cycle one snapshot holds, as the checker tags them.
    fn find_cycles(waits: &[WaitSnapshot]) -> Vec<TransitionCycle> {
        let mut c = TransitionChecker::new();
        c.observe(0, waits);
        let r = c.into_report();
        assert_eq!(r.single_epoch_cycles, 0, "use distinct epochs");
        r.violations.into_iter().map(|v| v.cycle).collect()
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
        let mut c = TransitionChecker::new();
        c.observe(7, &[w(3, 3, 1, 1)]);
        let r = c.into_report();
        assert_eq!(r.single_epoch_cycles, 1);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn holderless_edges_cannot_cycle() {
        let mut c = TransitionChecker::new();
        c.observe(
            1,
            &[WaitSnapshot {
                holder: None,
                holder_epoch: None,
                ..w(0, 0, 0, 0)
            }],
        );
        let r = c.into_report();
        assert_eq!(r.single_epoch_cycles, 0);
        assert!(r.violations.is_empty());
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
