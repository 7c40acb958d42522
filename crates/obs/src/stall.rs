//! Near-deadlock early warning via periodic wait-graph probes.
//!
//! [`StallProbe`] asks the engine for a [`mdx_sim::WaitSnapshot`] every
//! `interval` cycles (see [`mdx_sim::SimObserver::probe_interval`]) and
//! reduces each snapshot with [`mdx_sim::search_waits`], the wait search
//! the watchdog uses too: the longest wait-*chain* length, whether a cycle
//! has closed, and the maximum blocked duration. Chain and duration grow
//! monotonically in the cycles leading up to a deadlock — a wait chain that
//! lengthens probe after probe (and eventually closes into a cycle) is the
//! observable prelude to the watchdog firing, which is exactly what the
//! paper's Fig. 5 broadcast deadlock looks like from inside the network.

use mdx_sim::{search_waits, DeadlockInfo, SimObserver, WaitSnapshot};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// One reduced probe snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSample {
    /// Probe cycle.
    pub now: u64,
    /// Ungranted port wants at that cycle.
    pub waiting: usize,
    /// Longest wait-for chain (packets), counting the holder at the end;
    /// `0` when nothing waits.
    pub longest_chain: usize,
    /// Whether the wait-for graph contained a cycle (a deadlock the
    /// watchdog has not yet confirmed).
    pub has_cycle: bool,
    /// Longest time any current want has been blocked, in cycles.
    pub max_wait: u64,
}

/// The stall instrument: implements [`SimObserver`]; build with
/// [`StallProbe::new`], attach with [`mdx_sim::Simulator::add_observer`],
/// and read the samples afterwards with [`StallProbe::report`].
pub struct StallProbe {
    interval: u64,
    samples: Vec<StallSample>,
    deadlock_at: Option<u64>,
}

impl StallProbe {
    /// Creates the probe sampling every `interval` cycles (clamped to at
    /// least 1).
    pub fn new(interval: u64) -> StallProbe {
        StallProbe {
            interval: interval.max(1),
            samples: Vec::new(),
            deadlock_at: None,
        }
    }

    /// Snapshots the collected samples into a [`StallReport`].
    pub fn report(&self) -> StallReport {
        StallReport {
            interval: self.interval,
            samples: self.samples.clone(),
            deadlock_at: self.deadlock_at,
        }
    }
}

impl SimObserver for StallProbe {
    fn probe_interval(&self) -> Option<u64> {
        Some(self.interval)
    }

    fn on_probe(&mut self, now: u64, waits: &[WaitSnapshot]) {
        let chain = search_waits(waits, |_| ControlFlow::Continue(()));
        let max_wait = waits.iter().map(|w| now.saturating_sub(w.since)).max();
        self.samples.push(StallSample {
            now,
            waiting: waits.len(),
            longest_chain: chain.longest_chain,
            has_cycle: chain.has_cycle,
            max_wait: max_wait.unwrap_or(0),
        });
    }

    fn on_deadlock(&mut self, info: &DeadlockInfo) {
        self.deadlock_at = Some(info.detected_at);
    }
}

/// The reduced, serializable stall history of one run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallReport {
    /// Probe period in cycles.
    pub interval: u64,
    /// One sample per probe, in time order.
    pub samples: Vec<StallSample>,
    /// Cycle the watchdog confirmed a deadlock, if it did.
    pub deadlock_at: Option<u64>,
}

impl StallReport {
    /// Longest wait chain seen across all probes.
    pub fn peak_chain(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.longest_chain)
            .max()
            .unwrap_or(0)
    }

    /// Longest blocked duration seen across all probes, in cycles.
    pub fn peak_wait(&self) -> u64 {
        self.samples.iter().map(|s| s.max_wait).max().unwrap_or(0)
    }

    /// Whether any probe saw a cyclic wait.
    pub fn saw_cycle(&self) -> bool {
        self.samples.iter().any(|s| s.has_cycle)
    }

    /// The per-probe chain lengths, in time order — the "is it growing?"
    /// series.
    pub fn chain_series(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.longest_chain).collect()
    }

    /// A near-deadlock warning when the evidence supports one: a cyclic
    /// wait observed, or the wait chain still growing at the last probe.
    pub fn warning(&self) -> Option<String> {
        if let Some(s) = self.samples.iter().find(|s| s.has_cycle) {
            return Some(format!(
                "cyclic wait observed at cycle {} (chain length {})",
                s.now, s.longest_chain
            ));
        }
        let n = self.samples.len();
        if n >= 2 {
            let last = &self.samples[n - 1];
            let prev = &self.samples[n - 2];
            if last.longest_chain > prev.longest_chain && last.longest_chain >= 3 {
                return Some(format!(
                    "wait chain growing: {} -> {} packets by cycle {}",
                    prev.longest_chain, last.longest_chain, last.now
                ));
            }
        }
        None
    }

    /// Renders the stall timeline for terminals: one line per probe with a
    /// chain-length bar, plus the deadlock marker when the watchdog fired.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stall probe (every {} cycles, {} samples):\n",
            self.interval,
            self.samples.len()
        ));
        let peak = self.peak_chain().max(1);
        for s in &self.samples {
            let width = (s.longest_chain * 32) / peak;
            let mut bar = String::new();
            for _ in 0..width {
                bar.push('#');
            }
            out.push_str(&format!(
                "  cycle {:>7}  waiting {:>3}  chain {:>3} {}{}{}\n",
                s.now,
                s.waiting,
                s.longest_chain,
                bar,
                if s.has_cycle { "  << CYCLE" } else { "" },
                if s.max_wait > 0 {
                    format!("  (max wait {} cyc)", s.max_wait)
                } else {
                    String::new()
                },
            ));
        }
        match self.deadlock_at {
            Some(at) => out.push_str(&format!("  watchdog: DEADLOCK confirmed at cycle {at}\n")),
            None => {
                if let Some(w) = self.warning() {
                    out.push_str(&format!("  warning: {w}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_sim::{PacketId, WaitEdge};
    use mdx_topology::ChannelId;

    fn want(waiter: u32, holder: Option<u32>, since: u64) -> WaitSnapshot {
        WaitSnapshot {
            waiter: PacketId(waiter),
            holder: holder.map(PacketId),
            channel: ChannelId(0),
            vc: 0,
            since,
            epoch: 0,
            holder_epoch: holder.map(|_| 0),
        }
    }

    #[test]
    fn samples_reduce_chain_and_wait() {
        let mut probe = StallProbe::new(8);
        assert_eq!(probe.probe_interval(), Some(8));
        probe.on_probe(8, &[want(0, Some(1), 2)]);
        probe.on_probe(16, &[want(0, Some(1), 2), want(1, Some(2), 10)]);
        let rep = probe.report();
        assert_eq!(rep.samples.len(), 2);
        assert_eq!(rep.samples[0].longest_chain, 2);
        assert_eq!(rep.samples[1].longest_chain, 3);
        assert_eq!(rep.samples[1].max_wait, 14);
        assert_eq!(rep.peak_chain(), 3);
        assert_eq!(rep.peak_wait(), 14);
        assert!(!rep.saw_cycle());
        assert_eq!(rep.chain_series(), vec![2, 3]);
        assert!(rep.warning().unwrap().contains("growing"));
    }

    #[test]
    fn cycle_and_deadlock_show_in_timeline() {
        let mut probe = StallProbe::new(4);
        probe.on_probe(4, &[want(0, Some(1), 0), want(1, Some(0), 0)]);
        probe.on_deadlock(&DeadlockInfo {
            detected_at: 40,
            cycle: vec![WaitEdge {
                waiter: PacketId(0),
                holder: PacketId(1),
                channel: "R0 -> X0-XB".into(),
            }],
        });
        let rep = probe.report();
        assert!(rep.saw_cycle());
        assert_eq!(rep.deadlock_at, Some(40));
        assert!(rep.warning().unwrap().contains("cyclic wait"));
        let tl = rep.timeline();
        assert!(tl.contains("<< CYCLE"));
        assert!(tl.contains("DEADLOCK confirmed at cycle 40"));
    }

    #[test]
    fn quiet_run_has_no_warning() {
        let mut probe = StallProbe::new(4);
        probe.on_probe(4, &[]);
        probe.on_probe(8, &[]);
        let rep = probe.report();
        assert_eq!(rep.peak_chain(), 0);
        assert!(rep.warning().is_none());
    }
}
