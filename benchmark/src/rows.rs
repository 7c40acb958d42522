//! What a run's campaign rows say, whichever layer produced them: the
//! engine's deterministic counters, its wall time, and the replay check.

use crate::report::Outcome;
use crate::stats;
use crate::REPLAY_SAMPLE;
use mdx_campaign::{run_scenario, Scenario, ScenarioReport};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// The engine's deterministic counters over some rows. For one seed they
/// repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Engine ticks run.
    pub ticks: u64,
    /// Of which moved nothing.
    pub idle_ticks: u64,
    /// Ticks spent in rows that deadlocked.
    pub deadlock_ticks: u64,
    /// Flit-hops simulated.
    pub flit_hops: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

impl SimCounts {
    /// One row's counters.
    pub fn of(r: &ScenarioReport) -> SimCounts {
        let (ticks, idle_ticks) = r
            .profile
            .as_ref()
            .map_or((0, 0), |p| (p.ticks, p.idle_ticks));
        SimCounts {
            ticks,
            idle_ticks,
            deadlock_ticks: if r.is_deadlock() { ticks } else { 0 },
            flit_hops: r.stats.flit_hops,
            cycles: r.stats.cycles,
        }
    }
}

impl std::iter::Sum for SimCounts {
    fn sum<I: Iterator<Item = SimCounts>>(iter: I) -> SimCounts {
        iter.fold(SimCounts::default(), |a, b| SimCounts {
            ticks: a.ticks + b.ticks,
            idle_ticks: a.idle_ticks + b.idle_ticks,
            deadlock_ticks: a.deadlock_ticks + b.deadlock_ticks,
            flit_hops: a.flit_hops + b.flit_hops,
            cycles: a.cycles + b.cycles,
        })
    }
}

/// Sets the `sim.` counters: ticks, idle ticks, the share of ticks spent
/// in rows that deadlocked, flit-hops and cycles.
pub fn set_sim_counts(out: &mut Outcome, c: SimCounts) {
    out.set("sim.ticks", c.ticks as f64);
    out.set("sim.idle_ticks", c.idle_ticks as f64);
    out.set(
        "sim.deadlock_tick_share",
        c.deadlock_ticks as f64 / c.ticks.max(1) as f64,
    );
    out.set("sim.flit_hops", c.flit_hops as f64);
    out.set("sim.cycles", c.cycles as f64);
}

/// Engine wall time over rows run in this process, from their profiles
/// (the source/step split needs `ObsOptions::profile_phases`).
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTime {
    /// Seconds inside the engine's run loop.
    pub busy_s: f64,
    /// Of which pulling injections from the traffic source.
    pub source_s: f64,
    /// Of which the per-cycle step (arbitration and flit movement).
    pub step_s: f64,
    /// Engine ticks run.
    pub ticks: u64,
}

impl EngineTime {
    /// Sums the profiles of `rows`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a ScenarioReport>) -> EngineTime {
        let mut t = EngineTime::default();
        for p in rows.into_iter().filter_map(|r| r.profile.as_ref()) {
            t.busy_s += p.wall_s;
            t.ticks += p.ticks;
            if let Some(ph) = &p.phases {
                t.source_s += ph.source_s;
                t.step_s += ph.step_s;
            }
        }
        t
    }

    /// Nanoseconds of engine time per tick.
    pub fn ns_per_tick(&self) -> f64 {
        self.busy_s * 1e9 / self.ticks.max(1) as f64
    }
}

/// Sets the `sim.` time metrics to their medians over `times`, one per
/// traced unit.
pub fn set_engine_time(out: &mut Outcome, times: &[EngineTime]) {
    out.set("sim.busy_s", stats::median_by(times, |t| t.busy_s));
    out.set("sim.source_s", stats::median_by(times, |t| t.source_s));
    out.set("sim.step_s", stats::median_by(times, |t| t.step_s));
    out.set(
        "sim.ns_per_tick",
        stats::median_by(times, EngineTime::ns_per_tick),
    );
}

/// Replays [`REPLAY_SAMPLE`] rows, picked by `seed`, through
/// `run_scenario(Scenario::from_token(..))` and checks each digest; sets
/// the median decode and encode times of their tokens.
pub fn replay_sample(out: &mut Outcome, rows: &[(String, String)], seed: u64) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5e1f_c4ec);
    let mut decode_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut scenarios = Vec::new();
    for (token, digest) in rows.choose_multiple(&mut rng, REPLAY_SAMPLE) {
        let t0 = Instant::now();
        let decoded = Scenario::from_token(token);
        decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match decoded {
            Ok(s) => {
                let t0 = Instant::now();
                let again = s.token();
                encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                out.gate.check(again == *token, || {
                    format!("token of {s} re-encodes differently")
                });
                scenarios.push((s, digest.clone()));
            }
            Err(e) => out.gate.fail(format!("token does not decode: {e}")),
        }
    }
    out.set("scenario.decode_us_p50", stats::median(&decode_us));
    out.set("scenario.encode_us_p50", stats::median(&encode_us));
    let replays: Vec<_> = scenarios
        .into_par_iter()
        .map(|(s, want)| (run_scenario(&s).map(|r| r.digest), want, s))
        .collect();
    for (got, want, s) in replays {
        match got {
            Ok(d) => out
                .gate
                .check(d == want, || format!("replay of {s} gave {d}, not {want}")),
            Err(e) => out.gate.fail(format!("replay of {s} failed: {e}")),
        }
    }
}
