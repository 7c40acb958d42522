//! Reports: per-epoch phase timings and the whole-run reconfiguration
//! verdict.

use crate::transition::TransitionReport;
use serde::{Deserialize, Serialize};

/// Phase accounting for one reconfiguration epoch (one fault-event group).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochReport {
    /// The epoch number routing decisions carry after this reprogram.
    pub epoch: u32,
    /// Cycle the fault event group activated.
    pub event_at: u64,
    /// The events, rendered (`inject X1-XB @ 400`).
    pub events: Vec<String>,
    /// Packets wounded at activation (plus any wounded during the detect
    /// window by running into the dead region).
    pub victims: usize,
    /// Victim visits revived in place under the new routing function
    /// (reroute policy only).
    pub rerouted: usize,
    /// Victims replayed from their source PE at resume.
    pub reinjected: usize,
    /// Victims left dropped: policy said so, the reinject budget ran out,
    /// or the new configuration cannot deliver them (dead source or
    /// destination, disconnected pair).
    pub abandoned: usize,
    /// Cycles from activation to detection (the modeled latency).
    pub detect_cycles: u64,
    /// Cycles from quiesce to the network settling.
    pub drain_cycles: u64,
    /// Idle cycles the reprogram step cost.
    pub reprogram_cycles: u64,
    /// Cycle the injection gate reopened.
    pub resumed_at: u64,
    /// Usable PE pairs the *graph* can no longer connect under the new
    /// fault set (0 for every single-fault set on a multi-dimensional
    /// crossbar — the paper's reachability claim).
    pub disconnected_pairs: usize,
}

impl EpochReport {
    /// The epoch's five controller phases as contiguous cycle windows
    /// `(name, start, end)`: detect → quiesce → drain → reprogram →
    /// resume, laid end to end from `event_at`. Quiesce is the injection-
    /// gate close — modeled as instantaneous, so its window is empty —
    /// and resume stretches to `resumed_at` (covering any settling slack
    /// the controller waited out beyond the three counted phases). The
    /// windows tile `[event_at, resume end]` exactly; span exporters lean
    /// on that tiling.
    pub fn phase_windows(&self) -> [(&'static str, u64, u64); 5] {
        let detect_end = self.event_at + self.detect_cycles;
        let drain_end = detect_end + self.drain_cycles;
        let reprogram_end = drain_end + self.reprogram_cycles;
        let resume_end = self.resumed_at.max(reprogram_end);
        [
            ("detect", self.event_at, detect_end),
            ("quiesce", detect_end, detect_end),
            ("drain", detect_end, drain_end),
            ("reprogram", drain_end, reprogram_end),
            ("resume", reprogram_end, resume_end),
        ]
    }
}

/// Everything observed across a live-reconfiguration run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// The recovery policy that ran ([`crate::RecoveryPolicy::name`]).
    pub policy: String,
    /// One entry per fault-event group, in activation order.
    pub epochs: Vec<EpochReport>,
    /// Wait-graph evidence across the transition windows.
    pub transition: TransitionReport,
    /// Distinct packets wounded over the whole run.
    pub victims_total: usize,
    /// Source reinjections performed over the whole run.
    pub reinjected_total: usize,
    /// Wounded packets that nevertheless finished delivered.
    pub recovered: usize,
    /// Wounded packets dropped or unfinished at the end of the run.
    pub lost: usize,
}

impl ReconfigReport {
    /// True when no mixed-epoch wait cycle was observed anywhere.
    pub fn transition_safe(&self) -> bool {
        self.transition.transition_safe()
    }

    /// A human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "reconfiguration: {} epoch(s), policy {}, victims {} (recovered {}, lost {})\n",
            self.epochs.len(),
            self.policy,
            self.victims_total,
            self.recovered,
            self.lost
        ));
        for e in &self.epochs {
            out.push_str(&format!(
                "  epoch {} @ {}: [{}] victims={} rerouted={} reinjected={} abandoned={} \
                 detect={} drain={} reprogram={} resumed@{} disconnected_pairs={}\n",
                e.epoch,
                e.event_at,
                e.events.join(", "),
                e.victims,
                e.rerouted,
                e.reinjected,
                e.abandoned,
                e.detect_cycles,
                e.drain_cycles,
                e.reprogram_cycles,
                e.resumed_at,
                e.disconnected_pairs
            ));
        }
        out.push_str(&format!(
            "  transition: {} snapshot(s), {} mixed edge(s), max {} epoch(s) coexisting, {}\n",
            self.transition.snapshots,
            self.transition.mixed_edges,
            self.transition.max_epochs_coexisting,
            if self.transition_safe() {
                "no mixed-epoch cycle".to_string()
            } else {
                format!("{} VIOLATION(S)", self.transition.violations.len())
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serde_roundtrip_and_render() {
        let r = ReconfigReport {
            policy: "reinject".to_string(),
            epochs: vec![EpochReport {
                epoch: 1,
                event_at: 400,
                events: vec!["inject R5 @ 400".to_string()],
                victims: 2,
                rerouted: 0,
                reinjected: 2,
                abandoned: 0,
                detect_cycles: 8,
                drain_cycles: 57,
                reprogram_cycles: 32,
                resumed_at: 497,
                disconnected_pairs: 0,
            }],
            transition: TransitionReport::default(),
            victims_total: 2,
            reinjected_total: 2,
            recovered: 2,
            lost: 0,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ReconfigReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let text = r.render();
        assert!(text.contains("epoch 1 @ 400"));
        assert!(text.contains("no mixed-epoch cycle"));
    }

    #[test]
    fn phase_windows_tile_the_epoch() {
        let e = EpochReport {
            epoch: 1,
            event_at: 400,
            events: vec![],
            victims: 0,
            rerouted: 0,
            reinjected: 0,
            abandoned: 0,
            detect_cycles: 8,
            drain_cycles: 57,
            reprogram_cycles: 32,
            resumed_at: 510,
            disconnected_pairs: 0,
        };
        let w = e.phase_windows();
        assert_eq!(w[0], ("detect", 400, 408));
        assert_eq!(w[1], ("quiesce", 408, 408));
        assert_eq!(w[2], ("drain", 408, 465));
        assert_eq!(w[3], ("reprogram", 465, 497));
        assert_eq!(w[4], ("resume", 497, 510));
        // Contiguous tiling from event_at to the resume end.
        assert_eq!(w[0].1, e.event_at);
        for pair in w.windows(2) {
            assert_eq!(pair[0].2, pair[1].1);
        }
        // resumed_at earlier than the counted phases clamps resume empty.
        let early = EpochReport {
            resumed_at: 450,
            ..e
        };
        assert_eq!(early.phase_windows()[4], ("resume", 497, 497));
    }
}
