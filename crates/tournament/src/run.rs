//! Grid expansion, execution, and reduction to the tournament table.
//!
//! [`run_tournament`] works in three steps:
//!
//! 1. **Plan.** Every combination of the grid's axes becomes a cell in
//!    table order. A combination that cannot exist is a skip with its
//!    reason; every other cell contributes one row per seed.
//! 2. **Run.** All rows, cell-major, go through one
//!    [`mdx_campaign::run_rows`] pass, so the workers never wait at a cell
//!    boundary. Each row is made from its cell's seed-0 scenario when a
//!    worker claims it, and runs on a network shared per (topology,
//!    shape).
//! 3. **Reduce.** The worker that finishes a row folds it into its cell's
//!    accumulator. The worker that folds a cell's last row reduces the
//!    cell and shrinks its witness while the others run the next cells'
//!    rows. An accumulator exists only while its cell is in flight, and it
//!    keeps only what the reduction reads: sums, the latency pool, the
//!    lowest deadlocked seed's scenario and the lowest failed seed's
//!    error. So the table does not depend on the order rows finish in.

use crate::spec::{FaultClass, TournamentSpec, WorkloadTemplate};
use mdx_campaign::{run_rows, shrink, CampaignError, ObsOptions, Scenario, ScenarioReport};
use mdx_core::registry::required_topology;
use mdx_fault::FaultSite;
use mdx_sim::SortedLatencies;
use mdx_topology::{Shape, XbarRef};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A shrunken deadlock witness attached to a deadlocking cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellWitness {
    /// Token of the run the witness was shrunk from.
    pub from_token: String,
    /// Replay token of the minimized deadlock.
    pub token: String,
    /// Packets in the minimized scenario.
    pub packets: usize,
    /// Fault sites in the minimized scenario.
    pub faults: usize,
    /// Length of the minimized cyclic wait.
    pub cycle_len: usize,
}

/// One cell of the tournament table: a (scheme, topology, fault class,
/// workload) combination reduced over its seed pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentCell {
    /// Scheme id.
    pub scheme: String,
    /// Topology id.
    pub topology: String,
    /// Shape extents.
    pub shape: Vec<u16>,
    /// Fault class label.
    pub faults: String,
    /// Workload label.
    pub workload: String,
    /// `ok` for executed cells, `skip` for incompatible combinations.
    pub status: String,
    /// Why a `skip` cell did not run.
    pub skip_reason: Option<String>,
    /// Runs executed (seeds).
    pub runs: usize,
    /// Runs that deadlocked.
    pub deadlocks: usize,
    /// `deadlocks / runs` (0 for skipped cells).
    pub deadlock_rate: f64,
    /// Packets delivered across all runs.
    pub delivered: usize,
    /// Packets offered across all runs.
    pub offered: usize,
    /// Simulated cycles summed over all runs — the throughput denominator.
    pub cycles: u64,
    /// Delivered packets per 1000 simulated cycles, pooled over runs.
    pub throughput: f64,
    /// Pooled delivered-latency percentiles (cycles).
    pub p50: Option<u64>,
    /// Pooled 95th percentile.
    pub p95: Option<u64>,
    /// Pooled 99th percentile.
    pub p99: Option<u64>,
    /// Share of total delivered latency spent blocked behind other
    /// traffic (`blocked_* phases / latency_total`).
    pub blocked_share: f64,
    /// Share of total delivered latency spent in detour transfer.
    pub detour_share: f64,
    /// Shrunken witness of the lowest deadlocked seed, when the cell
    /// deadlocked.
    pub witness: Option<CellWitness>,
}

/// The finished tournament: one cell per grid combination, in
/// deterministic enumeration order (scheme-major, then topology, fault
/// class, workload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentResult {
    /// The grid that ran.
    pub spec: TournamentSpec,
    /// All cells, including skips.
    pub cells: Vec<TournamentCell>,
}

impl TournamentResult {
    /// Executed (non-skip) cells.
    pub fn ok_cells(&self) -> impl Iterator<Item = &TournamentCell> {
        self.cells.iter().filter(|c| c.status == "ok")
    }

    /// Serializes every cell as JSON Lines — the artifact format; two
    /// tournaments over the same spec produce byte-identical documents.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&serde_json::to_string(c).expect("cell serializes"));
            out.push('\n');
        }
        out
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<13} {:<7} {:<6} {:>5} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7}\n",
            "scheme",
            "topology",
            "faults",
            "load",
            "runs",
            "deadlock",
            "thruput",
            "p50",
            "p95",
            "p99",
            "blkd%",
            "detr%"
        ));
        for c in &self.cells {
            let topo = format!(
                "{}:{}",
                c.topology,
                c.shape
                    .iter()
                    .map(u16::to_string)
                    .collect::<Vec<_>>()
                    .join("x")
            );
            if c.status != "ok" {
                out.push_str(&format!(
                    "{:<16} {:<13} {:<7} {:<6} {:>5} -- skip: {}\n",
                    c.scheme,
                    topo,
                    c.faults,
                    c.workload,
                    "-",
                    c.skip_reason.as_deref().unwrap_or("?")
                ));
                continue;
            }
            let pct = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "{:<16} {:<13} {:<7} {:<6} {:>5} {:>8} {:>8.2} {:>6} {:>6} {:>6} {:>6.1}% {:>6.1}%\n",
                c.scheme,
                topo,
                c.faults,
                c.workload,
                c.runs,
                format!("{}/{}", c.deadlocks, c.runs),
                c.throughput,
                pct(c.p50),
                pct(c.p95),
                pct(c.p99),
                c.blocked_share * 100.0,
                c.detour_share * 100.0,
            ));
            if let Some(w) = &c.witness {
                out.push_str(&format!(
                    "    witness: {} packets, {} faults, cycle len {}  {}\n",
                    w.packets, w.faults, w.cycle_len, w.token
                ));
            }
        }
        let skips = self.cells.iter().filter(|c| c.status != "ok").count();
        out.push_str(&format!(
            "{} cells ({} run, {} skipped)\n",
            self.cells.len(),
            self.cells.len() - skips,
            skips
        ));
        out
    }
}

/// The canonical fault sites of a class on a machine, or a skip reason.
fn class_sites(class: FaultClass, topology: &str, shape: &Shape) -> Result<Vec<FaultSite>, String> {
    match class {
        FaultClass::None => Ok(Vec::new()),
        FaultClass::Router => Ok(vec![FaultSite::Router(shape.num_pes() / 2)]),
        FaultClass::Xbar if topology == "mdx" => {
            Ok(vec![FaultSite::Xbar(XbarRef { dim: 0, line: 0 })])
        }
        FaultClass::Xbar => Err(format!("crossbar faults do not exist on '{topology}'")),
    }
}

/// Runs the full grid and reduces it to the tournament table.
///
/// Cells whose combination cannot exist — a scheme on the wrong topology,
/// crossbar faults off the crossbar machine, a topology that rejects its
/// shape — are *skip* rows with their reason, so the table always has
/// `spec.num_cells()` rows and replays deterministically. Each executed
/// cell runs `seeds` scenarios through the campaign runner with latency
/// pools and attribution attached; a cell none of whose seeds could run
/// is a skip naming the lowest seed's error, and a deadlocking cell
/// carries a shrunken witness minimized from its lowest deadlocked seed.
pub fn run_tournament(spec: &TournamentSpec) -> TournamentResult {
    let (cells, rows) = plan(spec);
    let cells = Mutex::new(cells);
    let in_flight: Mutex<BTreeMap<usize, CellAcc>> = Mutex::default();
    run_rows(
        rows.len(),
        |row| rows.scenario(row),
        &obs_options(),
        None,
        None,
        |row, report| {
            let run = row / rows.seeds;
            let finished = {
                let mut in_flight = in_flight.lock().expect("no worker panics folding");
                let acc = in_flight.entry(run).or_default();
                rows.fold(acc, row, report);
                if acc.folded == rows.seeds {
                    in_flight.remove(&run)
                } else {
                    None
                }
            };
            if let Some(acc) = finished {
                let cell = &rows.cells[run];
                let reduced = acc.reduce(&cell.axes);
                cells.lock().expect("no worker panics placing a cell")[cell.at] = Some(reduced);
            }
        },
    );
    let cells = cells.into_inner().expect("every worker has stopped");
    TournamentResult {
        spec: spec.clone(),
        cells: cells
            .into_iter()
            .map(|c| c.expect("every cell is a skip or was reduced"))
            .collect(),
    }
}

/// The instruments every tournament row runs with: the latency pool and
/// attribution feed the cell's percentiles and shares.
fn obs_options() -> ObsOptions {
    ObsOptions {
        attribution: true,
        latencies: true,
        ..ObsOptions::default()
    }
}

/// One combination of the grid's axes: the labels of its cell.
#[derive(Clone, Copy)]
struct Axes<'a> {
    scheme: &'a str,
    topology: &'a str,
    extents: &'a [u16],
    class: FaultClass,
    template: &'a WorkloadTemplate,
}

impl Axes<'_> {
    /// This combination's cell, with nothing measured.
    fn cell(&self, status: &str, skip_reason: Option<String>) -> TournamentCell {
        TournamentCell {
            scheme: self.scheme.to_string(),
            topology: self.topology.to_string(),
            shape: self.extents.to_vec(),
            faults: self.class.label().to_string(),
            workload: self.template.label().to_string(),
            status: status.to_string(),
            skip_reason,
            runs: 0,
            deadlocks: 0,
            deadlock_rate: 0.0,
            delivered: 0,
            offered: 0,
            cycles: 0,
            throughput: 0.0,
            p50: None,
            p95: None,
            p99: None,
            blocked_share: 0.0,
            detour_share: 0.0,
            witness: None,
        }
    }

    /// The scenario of this cell's seed 0, or why the cell is a skip: a
    /// scheme on the wrong topology, a bad shape, a fault class the
    /// machine lacks, or a topology that rejects the shape, checked in
    /// that order. `built` caches the network check of the cell's
    /// topology entry.
    fn seed0(
        &self,
        spec: &TournamentSpec,
        built: &mut Option<Result<(), String>>,
    ) -> Result<Scenario, String> {
        if let Some(req) = required_topology(self.scheme) {
            if req != self.topology {
                return Err(format!("'{}' requires the '{req}' topology", self.scheme));
            }
        }
        let shape = Shape::new(self.extents).map_err(|e| format!("bad shape: {e}"))?;
        let sites = class_sites(self.class, self.topology, &shape)?;
        let mut s = Scenario::new(
            self.extents.to_vec(),
            self.scheme,
            self.template.workload(shape.num_pes()),
            0,
        )
        .with_topology(self.topology)
        .with_faults(sites);
        s.max_cycles = spec.max_cycles;
        s.buffer_flits = spec.buffer_flits;
        // A topology that rejects the shape (e.g. hypercube extents != 2)
        // fails every row alike; report it as the cell's skip.
        built
            .get_or_insert_with(|| s.network().map(drop).map_err(|e| e.to_string()))
            .clone()?;
        Ok(s)
    }
}

/// A cell that runs: its place in the table, its axes, and the scenario
/// of its seed 0, from which every seed's row is made.
struct RunCell<'a> {
    at: usize,
    axes: Axes<'a>,
    seed0: Scenario,
}

/// The rows of a tournament's one pass: cell-major, `seeds` per running
/// cell.
struct Rows<'a> {
    cells: Vec<RunCell<'a>>,
    seeds: usize,
}

impl Rows<'_> {
    fn len(&self) -> usize {
        self.cells.len() * self.seeds
    }

    /// The scenario of row `row`.
    fn scenario(&self, row: usize) -> Scenario {
        Scenario {
            seed: (row % self.seeds) as u64,
            ..self.cells[row / self.seeds].seed0.clone()
        }
    }

    /// Folds finished row `row` into its cell's accumulator; a row that
    /// could not run is kept as its error, naming its scenario.
    fn fold(&self, acc: &mut CellAcc, row: usize, report: Result<ScenarioReport, CampaignError>) {
        let report = report.map_err(|e| format!("{e} ({})", self.scenario(row)));
        acc.fold((row % self.seeds) as u64, report);
    }
}

/// Expands the grid scheme-major, then topology, fault class and
/// workload: every cell in table order, with the skips resolved and a
/// `None` for each cell that runs, and the rows of the cells that run.
fn plan(spec: &TournamentSpec) -> (Vec<Option<TournamentCell>>, Rows<'_>) {
    let mut cells = Vec::with_capacity(spec.num_cells());
    let mut runs = Vec::new();
    // Whether each topology entry builds at its shape, checked once.
    let mut builds = vec![None; spec.topologies.len()];
    for scheme in &spec.schemes {
        for ((topology, extents), built) in spec.topologies.iter().zip(&mut builds) {
            for &class in &spec.faults {
                for template in &spec.workloads {
                    let axes = Axes {
                        scheme,
                        topology,
                        extents,
                        class,
                        template,
                    };
                    match axes.seed0(spec, built) {
                        Ok(seed0) => {
                            runs.push(RunCell {
                                at: cells.len(),
                                axes,
                                seed0,
                            });
                            cells.push(None);
                        }
                        Err(reason) => cells.push(Some(axes.cell("skip", Some(reason)))),
                    }
                }
            }
        }
    }
    let rows = Rows {
        cells: runs,
        seeds: spec.seeds as usize,
    };
    (cells, rows)
}

/// What the reduction reads of one cell's finished rows. Every field is a
/// sum, a pool sorted when the cell is reduced, or the row of the lowest
/// seed, so the cell comes out the same whatever order its rows finish
/// in.
#[derive(Default)]
struct CellAcc {
    /// Rows folded, run or failed.
    folded: usize,
    runs: usize,
    deadlocks: usize,
    delivered: usize,
    offered: usize,
    cycles: u64,
    /// Delivered latencies of every run, unsorted.
    latencies: Vec<u64>,
    latency_total: u64,
    blocked: u64,
    detour: u64,
    /// The lowest deadlocked seed's scenario and token.
    deadlock: Option<(Scenario, String)>,
    /// The lowest failed seed and its error.
    failed: Option<(u64, String)>,
}

impl CellAcc {
    /// Folds seed `seed`'s row: its report, or why it could not run.
    fn fold(&mut self, seed: u64, row: Result<ScenarioReport, String>) {
        self.folded += 1;
        let r = match row {
            Ok(r) => r,
            Err(reason) => {
                if self.failed.as_ref().is_none_or(|(s, _)| seed < *s) {
                    self.failed = Some((seed, reason));
                }
                return;
            }
        };
        self.runs += 1;
        self.delivered += r.stats.delivered;
        self.offered += r.offered;
        self.cycles += r.stats.cycles;
        self.latencies.extend(r.latencies.iter().flatten());
        if let Some(a) = &r.attribution {
            self.latency_total += a.latency_total;
            self.blocked += a.blocked_normal + a.blocked_gather + a.blocked_detour;
            self.detour += a.detour_transfer;
        }
        if r.is_deadlock() {
            self.deadlocks += 1;
            if self.deadlock.as_ref().is_none_or(|(s, _)| seed < s.seed) {
                self.deadlock = Some((r.scenario, r.token));
            }
        }
    }

    /// The cell's row. With no run, a skip naming the lowest failed
    /// seed's error; otherwise the pooled reduction, with the lowest
    /// deadlocked seed shrunk into the witness.
    fn reduce(self, axes: &Axes) -> TournamentCell {
        if self.runs == 0 {
            let (_, reason) = self.failed.expect("a cell that ran no row failed one");
            return axes.cell("skip", Some(reason));
        }
        let pool = SortedLatencies::from_unsorted(self.latencies);
        let share = |part: u64| {
            if self.latency_total == 0 {
                0.0
            } else {
                part as f64 / self.latency_total as f64
            }
        };
        // Shrinking re-runs the engine, so failures (a deadlock that
        // evaporates under reduction never does by construction, but be
        // safe) just leave the cell witness-less rather than failing the
        // tournament.
        let witness = self.deadlock.and_then(|(scenario, from_token)| {
            shrink(&scenario).ok().map(|rep| CellWitness {
                from_token,
                token: rep.token,
                packets: rep.packets.1,
                faults: rep.faults.1,
                cycle_len: rep.deadlock.cycle.len(),
            })
        });
        TournamentCell {
            runs: self.runs,
            deadlocks: self.deadlocks,
            deadlock_rate: self.deadlocks as f64 / self.runs as f64,
            delivered: self.delivered,
            offered: self.offered,
            cycles: self.cycles,
            throughput: if self.cycles == 0 {
                0.0
            } else {
                self.delivered as f64 * 1000.0 / self.cycles as f64
            },
            p50: pool.percentile(50),
            p95: pool.percentile(95),
            p99: pool.percentile(99),
            blocked_share: share(self.blocked),
            detour_share: share(self.detour),
            witness,
            ..axes.cell("ok", None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_campaign::run_scenario_instrumented;

    /// Plans `spec`, whose grid must have one cell that runs, and runs
    /// each of its rows alone.
    fn one_cell(spec: &TournamentSpec) -> (Rows<'_>, Vec<Result<ScenarioReport, CampaignError>>) {
        let (_, rows) = plan(spec);
        assert_eq!(rows.cells.len(), 1, "the grid runs one cell");
        let reports = (0..rows.len())
            .map(|row| run_scenario_instrumented(&rows.scenario(row), &obs_options()).map(|r| r.0))
            .collect();
        (rows, reports)
    }

    /// Folds the cell's rows in `order` into a fresh accumulator and
    /// reduces it.
    fn reduce_in(
        rows: &Rows,
        reports: &[Result<ScenarioReport, CampaignError>],
        order: impl Iterator<Item = usize>,
    ) -> TournamentCell {
        let mut acc = CellAcc::default();
        for row in order {
            rows.fold(&mut acc, row, reports[row].clone());
        }
        assert_eq!(acc.folded, rows.seeds);
        acc.reduce(&rows.cells[0].axes)
    }

    #[test]
    fn the_reduction_ignores_completion_order() {
        // Unserialized broadcasts beside a faulty router: some seeds
        // deadlock, but not seed 0, so the lowest deadlocked seed is
        // neither the first row folded in seed order nor in reverse.
        let spec = TournamentSpec::parse(
            "scheme naive-broadcast\n\
             topology mdx:3x3\n\
             faults router\n\
             workload mixed rate=0.05 flits=8 window=100 bc=0.004\n\
             seeds 6\n\
             max-cycles 6000\n",
        )
        .unwrap();
        let (rows, reports) = one_cell(&spec);
        let reports_ok: Vec<&ScenarioReport> = reports.iter().flatten().collect();
        assert_eq!(reports_ok.len(), 6);
        let deadlocked: Vec<&ScenarioReport> = reports_ok
            .iter()
            .copied()
            .filter(|r| r.is_deadlock())
            .collect();
        assert!(deadlocked.len() >= 2, "{} deadlocked", deadlocked.len());
        assert!(!reports_ok[0].is_deadlock(), "seed 0 deadlocked");

        let forward = reduce_in(&rows, &reports, 0..6);
        let backward = reduce_in(&rows, &reports, (0..6).rev());
        let shuffled = reduce_in(&rows, &reports, [3, 0, 5, 1, 4, 2].into_iter());
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);

        let witness = forward.witness.as_ref().expect("the cell deadlocked");
        assert_eq!(
            witness.from_token, deadlocked[0].token,
            "lowest deadlocked seed"
        );
        let pooled = SortedLatencies::from_unsorted(
            reports_ok
                .iter()
                .flat_map(|r| r.latencies.iter().flatten().copied())
                .collect(),
        );
        assert!(!pooled.as_slice().is_empty());
        assert_eq!(
            (forward.p50, forward.p95, forward.p99),
            (
                pooled.percentile(50),
                pooled.percentile(95),
                pooled.percentile(99)
            )
        );
        assert_eq!(forward.deadlocks, deadlocked.len());
        assert_eq!(forward.runs, 6);
    }

    #[test]
    fn a_cell_whose_every_seed_fails_names_the_lowest_seed() {
        // A 3x1 machine has no second line to clear a router fault on.
        let spec = TournamentSpec::parse(
            "scheme sr2201\ntopology mdx:3x1\nfaults router\nworkload storm flits=8\nseeds 4\n",
        )
        .unwrap();
        let (rows, reports) = one_cell(&spec);
        let errors: Vec<String> = reports
            .iter()
            .map(|r| r.as_ref().expect_err("no seed configures").to_string())
            .collect();
        let forward = reduce_in(&rows, &reports, 0..4);
        let backward = reduce_in(&rows, &reports, (0..4).rev());
        assert_eq!(forward, backward);
        assert_eq!(forward.status, "skip");
        assert_eq!(
            forward.skip_reason,
            Some(format!("{} ({})", errors[0], rows.scenario(0)))
        );
        assert!(
            forward.skip_reason.as_deref().unwrap().ends_with("seed=0)"),
            "{:?}",
            forward.skip_reason
        );
    }
}
