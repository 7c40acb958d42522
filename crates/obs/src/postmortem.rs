//! Deadlock post-mortems: join the flight-recorder ring with the engine's
//! terminal wait snapshot and deadlock witness into a forensic report.
//!
//! [`FlightRecorder::postmortem`] reconstructs the cyclic wait from the
//! terminal snapshot with the *same* function the engine's watchdog uses
//! ([`mdx_sim::first_wait_cycle`]), so the reported cycle names exactly
//! the channels of the [`DeadlockInfo`](mdx_sim::DeadlockInfo) witness.
//! Each edge is annotated with both packets' RC state (the paper's Fig. 4
//! encoding: 0 normal, 1 broadcast request, 2 broadcast, 3 detour), which
//! drives the classification:
//!
//! * every cycle packet mid-broadcast → the **Fig. 5 naive-broadcast
//!   signature** (concurrent unserialized fans acquiring ports
//!   incrementally);
//! * a detoured packet in the cycle → the **Fig. 9 signature** (detour and
//!   broadcast turns crossing on a shared crossbar);
//! * all-normal → a plain unicast ownership cycle.
//!
//! The rendered report is fully deterministic — it contains cycle numbers
//! but no wall-clock timestamps — so identical scenario tokens produce
//! byte-identical post-mortems.

use crate::flight::FlightRecorder;
use crate::{FlightEventKind, DEFAULT_FLIGHT_CAPACITY};
use mdx_core::RouteChange;
use mdx_sim::{first_wait_cycle, EngineDiagnostic, PacketId, SimOutcome};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Hops of per-packet history shown in a report.
pub const LAST_HOPS: usize = 8;

/// One switch arrival in a packet's recent history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopTrace {
    /// The switch reached (engine naming: `PE3`, `R4`, `X0-XB`, ...).
    pub at: String,
    /// Simulation cycle of the arrival.
    pub cycle: u64,
}

/// Forensics for one packet involved in the failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketForensics {
    /// The packet.
    pub packet: PacketId,
    /// Its RC field at the end of the run (paper Fig. 4 encoding).
    pub rc: u8,
    /// The RC state spelled out (`normal`, `broadcast request`,
    /// `broadcast`, `detour`).
    pub rc_name: String,
    /// Cycle it entered the network.
    pub injected_at: u64,
    /// Its last [`LAST_HOPS`] switch arrivals surviving in the ring,
    /// oldest first.
    pub last_hops: Vec<HopTrace>,
    /// The ports it was still waiting for at the end, with their holders.
    pub waiting_on: Vec<String>,
}

/// One edge of the reconstructed cyclic wait.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleEdge {
    /// The blocked packet.
    pub waiter: PacketId,
    /// The packet owning the wanted port.
    pub holder: PacketId,
    /// The wanted channel, in the engine's naming (matches the
    /// [`mdx_sim::WaitEdge::channel`] strings of the deadlock witness).
    pub channel: String,
    /// The waiter's terminal RC state.
    pub waiter_rc: u8,
    /// The holder's terminal RC state.
    pub holder_rc: u8,
    /// Cycle at which the waiter's want became blocked.
    pub blocked_since: u64,
}

/// The full post-mortem of one failed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostmortemReport {
    /// How the run ended: `deadlock`, `stalled`, or `cycle-limit`.
    pub outcome: String,
    /// Cycle at which the run was declared dead.
    pub failed_at: u64,
    /// Failure-signature slug (`fig5-naive-broadcast`,
    /// `fig9-detour-cross`, `unicast-ownership-cycle`, `mixed-rc-cycle`,
    /// `no-cyclic-wait`).
    pub classification: String,
    /// One-sentence reading of the classification.
    pub summary: String,
    /// The cyclic wait, in the watchdog's edge order (empty when the run
    /// ended without one).
    pub cycle: Vec<CycleEdge>,
    /// Forensics for every packet still waiting or holding at the end.
    pub packets: Vec<PacketForensics>,
    /// S-XB gather-queue depth at the moment of failure.
    pub gather_depth: u32,
    /// Peak S-XB gather-queue depth over the run.
    pub gather_peak: u32,
    /// Ungranted port wants in the terminal snapshot.
    pub wait_edges: usize,
    /// Flight-ring capacity.
    pub ring_capacity: usize,
    /// Events offered to the ring over the run.
    pub events_recorded: u64,
    /// Events the ring overwrote (history older than the window).
    pub events_dropped: u64,
    /// Engine bookkeeping anomalies ([`mdx_sim::SimResult::diagnostics`]),
    /// rendered; empty on a healthy engine.
    pub engine_diagnostics: Vec<String>,
}

fn rc_label(bits: u8) -> &'static str {
    match bits {
        0 => "normal",
        1 => "broadcast request",
        2 => "broadcast",
        3 => "detour",
        _ => "unknown",
    }
}

fn classify(cycle: &[CycleEdge]) -> (&'static str, &'static str) {
    if cycle.is_empty() {
        return (
            "no-cyclic-wait",
            "no cyclic wait was present at the end of the run; the failure \
             is starvation or an exhausted cycle budget rather than a \
             Fig. 5/9 ownership deadlock",
        );
    }
    let rcs: Vec<u8> = cycle.iter().map(|e| e.waiter_rc).collect();
    let broadcast =
        |r: u8| r == RouteChange::Broadcast.bits() || r == RouteChange::BroadcastRequest.bits();
    if rcs.iter().all(|&r| broadcast(r)) && rcs.iter().any(|&r| r == RouteChange::Broadcast.bits())
    {
        (
            "fig5-naive-broadcast",
            "every packet in the cyclic wait is mid-broadcast: concurrent \
             unserialized broadcast fans acquired their output ports \
             incrementally and closed a cycle — the Fig. 5 naive-broadcast \
             deadlock signature",
        )
    } else if rcs.iter().any(|&r| r == RouteChange::Detour.bits()) {
        (
            "fig9-detour-cross",
            "the cyclic wait involves a detoured packet (RC=3) crossing \
             other traffic — the Fig. 9 signature of detour and broadcast \
             turns sharing crossbar ports (D-XB chosen apart from the S-XB \
             constraint)",
        )
    } else if rcs.iter().all(|&r| r == RouteChange::Normal.bits()) {
        (
            "unicast-ownership-cycle",
            "every packet in the cyclic wait routes normally (RC=0): a \
             plain ownership cycle in the base routing order, not a \
             broadcast or detour artifact",
        )
    } else {
        (
            "mixed-rc-cycle",
            "the cyclic wait mixes RC states without matching a single \
             paper signature; see the per-packet forensics",
        )
    }
}

impl FlightRecorder {
    /// Builds the post-mortem for a failed run, or `None` when the run
    /// completed. `diagnostics` is [`mdx_sim::SimResult::diagnostics`]
    /// (engine bookkeeping anomalies, normally empty).
    pub fn postmortem(
        &self,
        outcome: &SimOutcome,
        diagnostics: &[EngineDiagnostic],
    ) -> Option<PostmortemReport> {
        let outcome_name = match outcome {
            SimOutcome::Completed => return None,
            SimOutcome::Deadlock(_) => "deadlock",
            SimOutcome::Stalled => "stalled",
            SimOutcome::CycleLimit => "cycle-limit",
        };
        let failed_at = self.final_at.unwrap_or(match outcome {
            SimOutcome::Deadlock(info) => info.detected_at,
            _ => 0,
        });
        let waits = &self.final_waits;
        let rc_of = |p: u32| {
            self.rc
                .get(p as usize)
                .copied()
                .unwrap_or(RouteChange::Normal)
                .bits()
        };

        let cycle: Vec<CycleEdge> = first_wait_cycle(waits)
            .into_iter()
            .map(|i| {
                let w = &waits[i];
                let holder = w.holder.expect("a cycle edge has a holder");
                CycleEdge {
                    waiter: w.waiter,
                    holder,
                    channel: self.describe(w.channel, w.vc),
                    waiter_rc: rc_of(w.waiter.0),
                    holder_rc: rc_of(holder.0),
                    blocked_since: w.since,
                }
            })
            .collect();

        // Everyone still waiting or holding at the end gets a dossier.
        let mut ids: Vec<u32> = waits
            .iter()
            .flat_map(|w| std::iter::once(w.waiter.0).chain(w.holder.map(|h| h.0)))
            .collect();
        ids.sort_unstable();
        ids.dedup();

        // One pass over the ring collects each packet's recent arrivals.
        let mut hops: HashMap<u32, Vec<HopTrace>> = HashMap::new();
        for ev in self.events() {
            let at = match ev.kind {
                FlightEventKind::Inject { src_pe } => format!("PE{src_pe}"),
                FlightEventKind::Hop { at } => at.to_string(),
                _ => continue,
            };
            let h = hops.entry(ev.packet.0).or_default();
            h.push(HopTrace { at, cycle: ev.now });
            if h.len() > LAST_HOPS {
                h.remove(0);
            }
        }

        let packets: Vec<PacketForensics> = ids
            .iter()
            .map(|&p| {
                let rc = rc_of(p);
                PacketForensics {
                    packet: PacketId(p),
                    rc,
                    rc_name: rc_label(rc).to_string(),
                    injected_at: self.injected_at.get(p as usize).copied().unwrap_or(0),
                    last_hops: hops.remove(&p).unwrap_or_default(),
                    waiting_on: waits
                        .iter()
                        .filter(|w| w.waiter.0 == p)
                        .map(|w| match w.holder {
                            Some(h) => {
                                format!("{} (held by {})", self.describe(w.channel, w.vc), h)
                            }
                            None => format!("{} (free)", self.describe(w.channel, w.vc)),
                        })
                        .collect(),
                }
            })
            .collect();

        let (classification, summary) = classify(&cycle);
        Some(PostmortemReport {
            outcome: outcome_name.to_string(),
            failed_at,
            classification: classification.to_string(),
            summary: summary.to_string(),
            cycle,
            packets,
            gather_depth: self.gather_depth,
            gather_peak: self.gather_peak,
            wait_edges: waits.len(),
            ring_capacity: DEFAULT_FLIGHT_CAPACITY,
            events_recorded: self.events_recorded(),
            events_dropped: self.events_dropped(),
            engine_diagnostics: diagnostics.iter().map(|d| d.to_string()).collect(),
        })
    }
}

impl PostmortemReport {
    /// Serializes the report as pretty-printed JSON (deterministic: field
    /// order is fixed, no wall-clock content).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PostmortemReport serializes")
    }

    /// Renders the human-readable report. Deterministic for identical
    /// runs: every number is a simulation cycle, never a wall-clock time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== post-mortem: {} at cycle {} ==",
            self.outcome, self.failed_at
        );
        let _ = writeln!(out, "classification: {}", self.classification);
        let _ = writeln!(out, "  {}", self.summary);

        if !self.cycle.is_empty() {
            let _ = writeln!(out, "\ncyclic wait ({} edges):", self.cycle.len());
            for e in &self.cycle {
                let _ = writeln!(
                    out,
                    "  {} [RC={} {}] waits for {} held by {} [RC={} {}], blocked since cycle {}",
                    e.waiter,
                    e.waiter_rc,
                    rc_label(e.waiter_rc),
                    e.channel,
                    e.holder,
                    e.holder_rc,
                    rc_label(e.holder_rc),
                    e.blocked_since,
                );
            }
        }

        if !self.packets.is_empty() {
            let _ = writeln!(out, "\npacket forensics:");
            for p in &self.packets {
                let _ = writeln!(
                    out,
                    "  {}: RC={} ({}), injected at cycle {}",
                    p.packet, p.rc, p.rc_name, p.injected_at
                );
                for w in &p.waiting_on {
                    let _ = writeln!(out, "    waiting on: {w}");
                }
                if !p.last_hops.is_empty() {
                    let trail: Vec<String> = p
                        .last_hops
                        .iter()
                        .map(|h| format!("{} @{}", h.at, h.cycle))
                        .collect();
                    let _ = writeln!(out, "    last hops: {}", trail.join(" -> "));
                }
            }
        }

        let _ = writeln!(
            out,
            "\nS-XB gather queue: depth {} at failure (peak {})",
            self.gather_depth, self.gather_peak
        );
        let _ = writeln!(out, "terminal wait edges: {}", self.wait_edges);
        let _ = writeln!(
            out,
            "flight ring: {} events recorded, {} overwritten (capacity {})",
            self.events_recorded, self.events_dropped, self.ring_capacity
        );
        if self.engine_diagnostics.is_empty() {
            let _ = writeln!(out, "engine diagnostics: none");
        } else {
            let _ = writeln!(out, "engine diagnostics:");
            for d in &self.engine_diagnostics {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_paper_signatures() {
        let edge = |rc: u8| CycleEdge {
            waiter: PacketId(0),
            holder: PacketId(1),
            channel: "R0 -> X0-XB".into(),
            waiter_rc: rc,
            holder_rc: rc,
            blocked_since: 0,
        };
        assert_eq!(classify(&[]).0, "no-cyclic-wait");
        assert_eq!(classify(&[edge(2), edge(2)]).0, "fig5-naive-broadcast");
        assert_eq!(classify(&[edge(2), edge(3)]).0, "fig9-detour-cross");
        assert_eq!(classify(&[edge(0)]).0, "unicast-ownership-cycle");
        assert_eq!(classify(&[edge(0), edge(2)]).0, "mixed-rc-cycle");
    }
}
