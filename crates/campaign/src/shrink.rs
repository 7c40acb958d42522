//! Delta-debugging minimizer for deadlocking scenarios.
//!
//! Given a scenario whose run deadlocks, [`shrink`] searches for a smaller
//! scenario that *still* deadlocks: fewer packets (ddmin over the injection
//! schedule), shorter packets, fewer fault sites, and smaller topology
//! extents. The result is a minimal witness — typically the two or three
//! packets whose turns close the cyclic wait — together with the wait-for
//! cycle the engine reported for it.

use crate::runner::{run_scenario, run_scenario_instrumented, CampaignError, ObsOptions};
use crate::scenario::{Scenario, Workload};
use mdx_obs::PostmortemReport;
use mdx_sim::{DeadlockInfo, InjectSpec};
use mdx_topology::Shape;
use serde::{Deserialize, Serialize};

/// Why shrinking could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum ShrinkError {
    /// The starting scenario does not deadlock, so there is nothing to
    /// minimize.
    NotADeadlock(String),
    /// The starting scenario cannot run at all.
    Run(CampaignError),
}

impl std::fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShrinkError::NotADeadlock(outcome) => {
                write!(f, "scenario does not deadlock (outcome: {outcome})")
            }
            ShrinkError::Run(e) => write!(f, "scenario cannot run: {e}"),
        }
    }
}

impl std::error::Error for ShrinkError {}

/// The outcome of a [`shrink`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkReport {
    /// Token of the scenario shrinking started from.
    pub original_token: String,
    /// The minimized scenario (workload converted to [`Workload::Explicit`]).
    pub minimized: Scenario,
    /// Token of the minimized scenario.
    pub token: String,
    /// Packets offered before / after.
    pub packets: (usize, usize),
    /// Total flits offered before / after.
    pub flits: (usize, usize),
    /// Fault sites before / after.
    pub faults: (usize, usize),
    /// PE count of the shape before / after.
    pub pes: (usize, usize),
    /// Simulations executed while searching.
    pub runs: usize,
    /// Human-readable log of the accepted reduction steps.
    pub steps: Vec<String>,
    /// The cyclic wait of the minimized scenario.
    pub deadlock: DeadlockInfo,
    /// Flight-recorder forensics of the minimized scenario: the shrunk
    /// witness ships with its own post-mortem (one extra instrumented
    /// run).
    pub postmortem: Option<PostmortemReport>,
}

impl ShrinkReport {
    /// Whether the minimized scenario is strictly smaller than the
    /// original in at least one measure and larger in none.
    pub fn strictly_smaller(&self) -> bool {
        let no_growth = self.packets.1 <= self.packets.0
            && self.flits.1 <= self.flits.0
            && self.faults.1 <= self.faults.0
            && self.pes.1 <= self.pes.0;
        let some_shrink = self.packets.1 < self.packets.0
            || self.flits.1 < self.flits.0
            || self.faults.1 < self.faults.0
            || self.pes.1 < self.pes.0;
        no_growth && some_shrink
    }
}

/// Runs a candidate; `true` iff it still deadlocks. Candidates that fail to
/// run at all (e.g. a fault set the scheme cannot configure after a shape
/// change) simply don't preserve the property.
fn still_deadlocks(candidate: &Scenario, runs: &mut usize) -> Option<DeadlockInfo> {
    *runs += 1;
    match run_scenario(candidate) {
        Ok(report) => report.deadlock,
        Err(_) => None,
    }
}

fn explicit(scenario: &Scenario, specs: Vec<InjectSpec>) -> Scenario {
    let mut s = scenario.clone();
    s.workload = Workload::Explicit { specs };
    s
}

/// ddmin over the injection schedule: tries removing chunks of specs at
/// halving granularity until no single spec can be removed.
fn ddmin_specs(base: &Scenario, specs: Vec<InjectSpec>, runs: &mut usize) -> Vec<InjectSpec> {
    let mut current = specs;
    let mut chunk = current.len().div_ceil(2).max(1);
    while !current.is_empty() {
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if candidate.is_empty() {
                start = end;
                continue;
            }
            if still_deadlocks(&explicit(base, candidate.clone()), runs).is_some() {
                current = candidate;
                reduced = true;
                // Re-scan from the front at the same granularity.
                start = 0;
            } else {
                start = end;
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    current
}

/// Binary-searches the minimal flit count of each packet that keeps the
/// deadlock alive.
fn shrink_flits(base: &Scenario, specs: &mut [InjectSpec], runs: &mut usize) -> bool {
    let mut changed = false;
    for i in 0..specs.len() {
        let (mut lo, mut hi) = (1usize, specs[i].flits);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let mut candidate = specs.to_vec();
            candidate[i].flits = mid;
            if still_deadlocks(&explicit(base, candidate), runs).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if hi < specs[i].flits {
            specs[i].flits = hi;
            changed = true;
        }
    }
    changed
}

/// Tries dropping each fault site in turn.
fn shrink_faults(scenario: &mut Scenario, runs: &mut usize) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < scenario.faults.len() {
        let mut candidate = scenario.clone();
        candidate.faults.remove(i);
        if still_deadlocks(&candidate, runs).is_some() {
            *scenario = candidate;
            changed = true;
        } else {
            i += 1;
        }
    }
    changed
}

/// Remaps an explicit scenario onto a smaller shape, if every packet
/// endpoint and fault site fits. Crossbar faults block shape changes (their
/// line index is shape-relative in a non-local way).
fn remap_to_shape(scenario: &Scenario, new_dims: &[u16]) -> Option<Scenario> {
    let old_shape = scenario.shape_obj().ok()?;
    let new_shape = Shape::new(new_dims).ok()?;
    let fits = |c: &mdx_topology::Coord| (0..old_shape.d()).all(|d| c.get(d) < new_shape.extent(d));
    let specs = match &scenario.workload {
        Workload::Explicit { specs } => specs,
        _ => return None,
    };
    let mut remapped = Vec::with_capacity(specs.len());
    for spec in specs {
        let src_coord = old_shape.coord_of(spec.src_pe);
        if !fits(&src_coord) || !fits(&spec.header.src) || !fits(&spec.header.dest) {
            return None;
        }
        let mut s = *spec;
        s.src_pe = new_shape.index_of(src_coord);
        remapped.push(s);
    }
    let mut faults = Vec::with_capacity(scenario.faults.len());
    for &site in &scenario.faults {
        use mdx_fault::FaultSite;
        match site {
            FaultSite::Router(i) => {
                let c = old_shape.coord_of(i);
                if !fits(&c) {
                    return None;
                }
                faults.push(FaultSite::Router(new_shape.index_of(c)));
            }
            FaultSite::Pe(i) => {
                let c = old_shape.coord_of(i);
                if !fits(&c) {
                    return None;
                }
                faults.push(FaultSite::Pe(new_shape.index_of(c)));
            }
            FaultSite::Xbar(_) => return None,
        }
    }
    let mut out = scenario.clone();
    out.shape = new_dims.to_vec();
    out.workload = Workload::Explicit { specs: remapped };
    out.faults = faults;
    out.faults.sort_unstable();
    out.faults.dedup();
    Some(out)
}

/// Tries reducing each dimension's extent by one, repeatedly.
fn shrink_shape(scenario: &mut Scenario, runs: &mut usize) -> bool {
    let mut changed = false;
    loop {
        let mut improved = false;
        for d in 0..scenario.shape.len() {
            if scenario.shape[d] <= 1 {
                continue;
            }
            let mut dims = scenario.shape.clone();
            dims[d] -= 1;
            if let Some(candidate) = remap_to_shape(scenario, &dims) {
                if still_deadlocks(&candidate, runs).is_some() {
                    *scenario = candidate;
                    improved = true;
                    changed = true;
                }
            }
        }
        if !improved {
            return changed;
        }
    }
}

fn spec_sizes(specs: &[InjectSpec]) -> (usize, usize) {
    (specs.len(), specs.iter().map(|s| s.flits).sum())
}

/// Minimizes a deadlocking scenario while preserving the deadlock.
///
/// The workload is first materialized into an explicit injection schedule
/// (so individual packets can be removed), then the reduction passes run to
/// a fixpoint: ddmin over packets, per-packet flit reduction, fault-site
/// removal, and extent reduction.
pub fn shrink(scenario: &Scenario) -> Result<ShrinkReport, ShrinkError> {
    let original = run_scenario(scenario).map_err(ShrinkError::Run)?;
    if !original.is_deadlock() {
        return Err(ShrinkError::NotADeadlock(original.outcome));
    }

    let shape = scenario
        .shape_obj()
        .map_err(|e| ShrinkError::Run(e.into()))?;
    let faults = scenario
        .fault_set()
        .map_err(|e| ShrinkError::Run(e.into()))?;
    let initial_specs = scenario.specs(&shape, &faults);
    let before_sizes = spec_sizes(&initial_specs);
    let before_faults = scenario.faults.len();
    let before_pes = shape.num_pes();

    let mut runs = 0usize;
    let mut steps = Vec::new();
    let mut current = explicit(scenario, initial_specs);

    // The explicit form must still deadlock (it does by construction —
    // `specs` is exactly what the original run injected — but guard anyway).
    if still_deadlocks(&current, &mut runs).is_none() {
        return Err(ShrinkError::NotADeadlock(
            "explicit form diverged".to_string(),
        ));
    }

    loop {
        let mut progressed = false;

        let specs = match &current.workload {
            Workload::Explicit { specs } => specs.clone(),
            _ => unreachable!("shrinker operates on explicit workloads"),
        };
        let n_before = specs.len();
        let mut specs = ddmin_specs(&current, specs, &mut runs);
        if specs.len() < n_before {
            steps.push(format!("ddmin packets: {n_before} -> {}", specs.len()));
            progressed = true;
        }
        if shrink_flits(&current, &mut specs, &mut runs) {
            steps.push(format!(
                "shrink flits: total {}",
                specs.iter().map(|s| s.flits).sum::<usize>()
            ));
            progressed = true;
        }
        current = explicit(&current, specs);

        let f_before = current.faults.len();
        if shrink_faults(&mut current, &mut runs) {
            steps.push(format!(
                "drop faults: {f_before} -> {}",
                current.faults.len()
            ));
            progressed = true;
        }

        let dims_before = current.shape.clone();
        if shrink_shape(&mut current, &mut runs) {
            steps.push(format!(
                "shrink shape: {dims_before:?} -> {:?}",
                current.shape
            ));
            progressed = true;
        }

        if !progressed {
            break;
        }
    }

    let deadlock = still_deadlocks(&current, &mut runs).expect("fixpoint scenario still deadlocks");
    // One final instrumented run: the minimal witness ships with its
    // forensic report.
    runs += 1;
    let postmortem = run_scenario_instrumented(
        &current,
        &ObsOptions {
            flight: true,
            ..ObsOptions::default()
        },
    )
    .ok()
    .and_then(|(report, _)| report.postmortem);
    let after_sizes = match &current.workload {
        Workload::Explicit { specs } => spec_sizes(specs),
        _ => unreachable!(),
    };
    let after_pes = current
        .shape_obj()
        .map(|s| s.num_pes())
        .unwrap_or(before_pes);
    let after_faults = current.faults.len();
    Ok(ShrinkReport {
        original_token: scenario.token(),
        token: current.token(),
        minimized: current,
        packets: (before_sizes.0, after_sizes.0),
        flits: (before_sizes.1, after_sizes.1),
        faults: (before_faults, after_faults),
        pes: (before_pes, after_pes),
        runs,
        steps,
        deadlock,
        postmortem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn refuses_non_deadlocking_scenarios() {
        let s = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::BroadcastStorm {
                sources: vec![0, 4, 8],
                flits: 16,
            },
            0,
        );
        assert!(matches!(shrink(&s), Err(ShrinkError::NotADeadlock(_))));
    }

    #[test]
    fn shrinks_naive_broadcast_storm() {
        // Six simultaneous naive broadcasts deadlock; the minimal witness
        // needs far fewer packets and flits.
        let s = Scenario::new(
            vec![4, 3],
            "naive-broadcast",
            Workload::BroadcastStorm {
                sources: vec![0, 4, 8, 3, 7, 11],
                flits: 16,
            },
            0,
        );
        let report = shrink(&s).unwrap();
        assert!(report.strictly_smaller(), "no reduction: {report:?}");
        assert!(
            report.packets.1 >= 2,
            "a deadlock needs at least two packets"
        );
        assert!(!report.deadlock.cycle.is_empty());
        // The shrunk witness ships with its forensic report, and the
        // reconstructed cycle names the same channels as the witness.
        let pm = report
            .postmortem
            .as_ref()
            .expect("shrunk witness carries a post-mortem");
        assert_eq!(pm.classification, "fig5-naive-broadcast");
        assert_eq!(pm.cycle.len(), report.deadlock.cycle.len());
        // The minimized scenario replays from its token and still deadlocks.
        let replayed = Scenario::from_token(&report.token).unwrap();
        let rerun = run_scenario(&replayed).unwrap();
        assert!(rerun.is_deadlock());
    }
}
