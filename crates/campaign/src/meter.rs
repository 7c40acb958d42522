//! Campaign-level metric export: the serializable per-row engine profile
//! and the [`mdx_metrics`] instruments the runner and the serve layer feed.
//!
//! The engine's [`mdx_sim::EngineProfile`] is a measurement (excluded from
//! canonical result serialization and replay digests); [`RowProfile`] is
//! its campaign-row summary — serialized onto JSONL rows for trend
//! tracking, and folded into registry counters by [`EngineMeter`] so a
//! resident server exposes fleet-wide idle-tick/occupancy numbers over
//! Prometheus.

use mdx_metrics::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_S};
use mdx_sim::{EngineProfile, PhaseSplit, OCCUPANCY_BOUNDS};
use serde::{Deserialize, Serialize};

/// The engine self-profile of one campaign row, in serializable form.
///
/// Wall-clock derived fields (`wall_s`, `cycles_per_sec`, `phases`) vary
/// with machine load; the tick/occupancy fields are deterministic per
/// token. Carried on [`crate::runner::ScenarioReport`] rows *outside* the
/// replay digest (which hashes only the engine's canonical result).
/// Serialization covers only the deterministic fields — a replayed row's
/// JSONL stays byte-identical regardless of host speed, and the
/// wall-clock fields come back as `0.0` / `None` after a round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowProfile {
    /// Wall-clock seconds inside the engine's run loop. Not serialized.
    #[serde(skip)]
    pub wall_s: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second. Not serialized.
    #[serde(skip)]
    pub cycles_per_sec: f64,
    /// Engine ticks (executed steps + fast-forwarded cycles).
    pub ticks: u64,
    /// Ticks in which nothing moved.
    pub idle_ticks: u64,
    /// `idle_ticks / ticks` — the event-queue headroom instrument.
    pub idle_tick_fraction: f64,
    /// Discrete events processed per simulated cycle.
    pub events_per_cycle: f64,
    /// In-flight packets per tick, bucketed by
    /// [`mdx_sim::OCCUPANCY_BOUNDS`] (last entry = overflow).
    pub occupancy: Vec<u64>,
    /// Per-phase wall-clock split, when the run had phase timing enabled
    /// ([`crate::ObsOptions::profile_phases`]). Machine-dependent like
    /// `wall_s` — not serialized, lost on a round-trip.
    #[serde(skip)]
    pub phases: Option<PhaseSplit>,
}

impl RowProfile {
    /// Summarizes an engine profile into row form.
    pub fn from_engine(p: &EngineProfile) -> RowProfile {
        RowProfile {
            wall_s: p.wall_s,
            cycles: p.cycles,
            cycles_per_sec: p.cycles_per_sec(),
            ticks: p.ticks(),
            idle_ticks: p.idle_ticks(),
            idle_tick_fraction: p.idle_tick_fraction(),
            events_per_cycle: p.events_per_cycle(),
            occupancy: p.occupancy.to_vec(),
            phases: p.phases,
        }
    }
}

/// Registry instruments for engine self-profiles: lifetime counters of
/// cycles/ticks/idle ticks, the running idle-tick fraction, and the
/// active-packet occupancy histogram. Shared by the campaign runner and
/// the serve layer (every `run` row feeds it).
#[derive(Debug, Clone)]
pub struct EngineMeter {
    cycles: Counter,
    ticks: Counter,
    idle_ticks: Counter,
    idle_fraction: Gauge,
    cycles_per_sec: Gauge,
    active_packets: Histogram,
}

impl EngineMeter {
    /// Registers the engine metric family (`mdx_engine_*`) on `reg`.
    pub fn register(reg: &Registry) -> EngineMeter {
        let bounds: Vec<f64> = OCCUPANCY_BOUNDS.iter().map(|&b| b as f64).collect();
        EngineMeter {
            cycles: reg.counter(
                "mdx_engine_cycles_total",
                "Simulated cycles across all runs",
            ),
            ticks: reg.counter(
                "mdx_engine_ticks_total",
                "Engine ticks (executed steps + fast-forwarded cycles) across all runs",
            ),
            idle_ticks: reg.counter(
                "mdx_engine_idle_ticks_total",
                "Engine ticks in which nothing moved — the event-driven refactor's headroom",
            ),
            idle_fraction: reg.gauge(
                "mdx_engine_idle_tick_fraction",
                "Lifetime idle-tick fraction (idle_ticks_total / ticks_total)",
            ),
            cycles_per_sec: reg.gauge(
                "mdx_engine_cycles_per_sec",
                "Simulated cycles per wall-clock second, last completed run",
            ),
            active_packets: reg.histogram(
                "mdx_engine_active_packets",
                "In-flight packets per engine tick",
                &bounds,
            ),
        }
    }

    /// Folds one row's profile into the lifetime instruments.
    pub fn observe(&self, p: &RowProfile) {
        self.cycles.add(p.cycles);
        self.ticks.add(p.ticks);
        self.idle_ticks.add(p.idle_ticks);
        if self.ticks.get() > 0 {
            self.idle_fraction
                .set(self.idle_ticks.get() as f64 / self.ticks.get() as f64);
        }
        if p.cycles_per_sec > 0.0 {
            self.cycles_per_sec.set(p.cycles_per_sec);
        }
        for (i, &n) in p.occupancy.iter().enumerate() {
            // Feed each bucket at a representative value: its upper bound,
            // or just past the last bound for the overflow bucket.
            let v = OCCUPANCY_BOUNDS
                .get(i)
                .map(|&b| b as f64)
                .unwrap_or(OCCUPANCY_BOUNDS[OCCUPANCY_BOUNDS.len() - 1] as f64 + 1.0);
            self.active_packets.observe_n(v, n);
        }
    }
}

/// Registry instruments for the campaign runner: per-row run/serialize
/// latency, rayon worker saturation, and sweep throughput.
#[derive(Debug, Clone)]
pub struct CampaignMeter {
    pub(crate) rows: Counter,
    pub(crate) rows_failed: Counter,
    pub(crate) row_run_seconds: Histogram,
    pub(crate) row_serialize_seconds: Histogram,
    pub(crate) workers_busy: Gauge,
    pub(crate) worker_saturation: Histogram,
    pub(crate) rows_per_sec: Gauge,
    /// Engine self-profile instruments, fed per successful row.
    pub engine: EngineMeter,
}

impl CampaignMeter {
    /// Registers the campaign metric family (`mdx_campaign_*`) plus the
    /// engine family on `reg`.
    pub fn register(reg: &Registry) -> CampaignMeter {
        CampaignMeter {
            rows: reg.counter("mdx_campaign_rows_total", "Campaign rows executed"),
            rows_failed: reg.counter(
                "mdx_campaign_rows_failed_total",
                "Campaign rows skipped as unconfigurable",
            ),
            row_run_seconds: reg.histogram(
                "mdx_campaign_row_run_seconds",
                "Wall-clock per campaign row (simulate + instrument)",
                DEFAULT_LATENCY_BUCKETS_S,
            ),
            row_serialize_seconds: reg.histogram(
                "mdx_campaign_row_serialize_seconds",
                "Wall-clock to serialize one row to JSONL",
                DEFAULT_LATENCY_BUCKETS_S,
            ),
            workers_busy: reg.gauge(
                "mdx_campaign_workers_busy",
                "Rayon workers currently inside a row",
            ),
            worker_saturation: reg.histogram(
                "mdx_campaign_worker_saturation",
                "Busy-worker count sampled at each row start",
                mdx_metrics::DEFAULT_SIZE_BUCKETS,
            ),
            rows_per_sec: reg.gauge(
                "mdx_campaign_rows_per_sec",
                "Rows per second of the last completed sweep",
            ),
            engine: EngineMeter::register(reg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_sim::OCCUPANCY_BUCKETS;

    fn profile() -> RowProfile {
        RowProfile::from_engine(&EngineProfile {
            wall_s: 0.5,
            cycles: 1000,
            steps: 400,
            idle_steps: 100,
            jumped_cycles: 600,
            events: 2000,
            occupancy: {
                let mut occ = [0u64; OCCUPANCY_BUCKETS];
                occ[0] = 600;
                occ[3] = 400;
                occ
            },
            phases: None,
        })
    }

    #[test]
    fn row_profile_summarizes_engine_profile() {
        let p = profile();
        assert_eq!(p.ticks, 1000);
        assert_eq!(p.idle_ticks, 700);
        assert!((p.idle_tick_fraction - 0.7).abs() < 1e-12);
        assert!((p.cycles_per_sec - 2000.0).abs() < 1e-9);
        assert_eq!(p.occupancy.len(), OCCUPANCY_BUCKETS);
        // The deterministic fields round-trip through the row serde; the
        // machine-dependent wall-clock fields stay off the wire and come
        // back zeroed.
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("wall_s") && !json.contains("cycles_per_sec"));
        let back: RowProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ticks, p.ticks);
        assert_eq!(back.idle_ticks, p.idle_ticks);
        assert_eq!(back.occupancy, p.occupancy);
        assert_eq!(back.wall_s, 0.0);
        assert_eq!(back.cycles_per_sec, 0.0);
        // Two runs of the same token serialize identically even though
        // their wall clocks differ.
        let mut other = p.clone();
        other.wall_s = 99.0;
        other.cycles_per_sec = 1.0;
        assert_eq!(json, serde_json::to_string(&other).unwrap());
    }

    #[test]
    fn engine_meter_accumulates_across_rows() {
        let reg = Registry::new();
        let meter = EngineMeter::register(&reg);
        let p = profile();
        meter.observe(&p);
        meter.observe(&p);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("mdx_engine_cycles_total"), Some(2000));
        assert_eq!(
            snap.counter_value("mdx_engine_idle_ticks_total"),
            Some(1400)
        );
        let frac = snap.gauge_value("mdx_engine_idle_tick_fraction").unwrap();
        assert!((frac - 0.7).abs() < 1e-12);
        let text = snap.render_prometheus();
        assert!(text.contains("mdx_engine_active_packets_bucket"));
        assert!(text.contains("mdx_engine_active_packets_count 2000"));
    }
}
