//! The tournament specification: a small line grammar describing a
//! scheme × topology × fault-class × workload grid.
//!
//! Like [`mdx_workloads::StreamSpec`], a spec is plain text — one
//! directive per line, `#` comments — so tournaments live in files,
//! shell heredocs, and serve-protocol requests without an extra schema:
//!
//! ```text
//! # the default grid, spelled out
//! scheme all
//! topology mdx:4x3 hyperx:3x3 fullmesh:6 hypercube:2x2x2
//! faults none router
//! workload mixed rate=0.02 flits=12 window=200 bc=0.002
//! seeds 2
//! max-cycles 20000
//! ```
//!
//! Every directive is optional; [`TournamentSpec::parse`] fills the
//! defaults above (plus the engine's default buffer depth) so the empty
//! string is already a runnable tournament.

use mdx_campaign::Workload;
use mdx_core::registry::SCHEME_IDS;
use mdx_sim::SimConfig;
use mdx_topology::TOPOLOGY_IDS;
use mdx_workloads::TrafficPattern;
use serde::{Deserialize, Serialize};

/// A fault class: one canonical representative fault set per topology,
/// so cells stay comparable across schemes without enumerating every
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Fault-free.
    None,
    /// One router down (the machine's middle router).
    Router,
    /// One crossbar down (dimension 0, line 0) — only exists on `mdx`.
    Xbar,
}

impl FaultClass {
    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Router => "router",
            FaultClass::Xbar => "xbar",
        }
    }

    fn parse(s: &str) -> Option<FaultClass> {
        match s {
            "none" => Some(FaultClass::None),
            "router" => Some(FaultClass::Router),
            "xbar" => Some(FaultClass::Xbar),
            _ => None,
        }
    }
}

/// A workload template: shape-independent parameters, materialized into a
/// concrete [`Workload`] per topology cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadTemplate {
    /// Open-loop mixed traffic (Fig. 10 recipe).
    Mixed {
        /// Per-PE-per-cycle unicast injection probability.
        rate: f64,
        /// Packet length in flits.
        flits: usize,
        /// Injection window in cycles.
        window: u64,
        /// Per-PE-per-cycle broadcast-request probability.
        bc: f64,
    },
    /// Simultaneous broadcast storm (Fig. 5 recipe) from four PEs spread
    /// across the machine.
    Storm {
        /// Packet length in flits.
        flits: usize,
    },
}

impl WorkloadTemplate {
    /// Stable table label ([`Workload::kind`] of the materialized form).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadTemplate::Mixed { .. } => "mixed",
            WorkloadTemplate::Storm { .. } => "storm",
        }
    }

    /// Materializes the template for a machine with `num_pes` PEs.
    pub fn workload(&self, num_pes: usize) -> Workload {
        match *self {
            WorkloadTemplate::Mixed {
                rate,
                flits,
                window,
                bc,
            } => Workload::Mixed {
                pattern: TrafficPattern::UniformRandom,
                rate,
                packet_flits: flits,
                window,
                broadcast_rate: bc,
            },
            WorkloadTemplate::Storm { flits } => {
                let k = 4.min(num_pes);
                Workload::BroadcastStorm {
                    sources: (0..k).map(|i| i * num_pes / k).collect(),
                    flits,
                }
            }
        }
    }
}

/// A parse failure, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(line: usize, message: impl Into<String>) -> SpecError {
        SpecError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// The full grid description: every combination of the listed axes is one
/// tournament cell (compatibility permitting — see
/// [`crate::run_tournament`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentSpec {
    /// Scheme ids to pit against each other.
    pub schemes: Vec<String>,
    /// `(topology id, shape extents)` pairs.
    pub topologies: Vec<(String, Vec<u16>)>,
    /// Fault classes to sweep.
    pub faults: Vec<FaultClass>,
    /// Workload templates to sweep.
    pub workloads: Vec<WorkloadTemplate>,
    /// Seeds per cell (scenarios with seeds `0..seeds`).
    pub seeds: u64,
    /// Engine cycle limit per run.
    pub max_cycles: u64,
    /// Engine buffer depth per lane.
    pub buffer_flits: usize,
}

impl Default for TournamentSpec {
    fn default() -> TournamentSpec {
        TournamentSpec {
            schemes: SCHEME_IDS.iter().map(|s| s.to_string()).collect(),
            topologies: vec![
                ("mdx".to_string(), vec![4, 3]),
                ("hyperx".to_string(), vec![3, 3]),
                ("fullmesh".to_string(), vec![6]),
                ("hypercube".to_string(), vec![2, 2, 2]),
            ],
            faults: vec![FaultClass::None, FaultClass::Router],
            workloads: vec![WorkloadTemplate::Mixed {
                rate: 0.02,
                flits: 12,
                window: 200,
                bc: 0.002,
            }],
            seeds: 2,
            max_cycles: 20_000,
            buffer_flits: SimConfig::default().buffer_flits,
        }
    }
}

fn parse_shape(tok: &str) -> Option<Vec<u16>> {
    let extents: Option<Vec<u16>> = tok.split('x').map(|p| p.parse().ok()).collect();
    extents.filter(|e| !e.is_empty() && e.iter().all(|&x| x >= 1))
}

fn kv<'a>(tok: &'a str, key: &str) -> Option<&'a str> {
    tok.strip_prefix(key)?.strip_prefix('=')
}

impl TournamentSpec {
    /// Parses the line grammar; unknown directives, scheme ids, topology
    /// ids, or malformed values are errors with their line number.
    pub fn parse(text: &str) -> Result<TournamentSpec, SpecError> {
        let mut spec = TournamentSpec::default();
        let mut workloads: Vec<WorkloadTemplate> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "scheme" => {
                    if toks.len() < 2 {
                        return Err(SpecError::new(ln, "expected: scheme all | scheme ID..."));
                    }
                    if toks[1..] == ["all"] {
                        spec.schemes = SCHEME_IDS.iter().map(|s| s.to_string()).collect();
                    } else {
                        for &id in &toks[1..] {
                            if !SCHEME_IDS.contains(&id) {
                                return Err(SpecError::new(
                                    ln,
                                    format!(
                                        "unknown scheme '{id}' (known: {})",
                                        SCHEME_IDS.join(", ")
                                    ),
                                ));
                            }
                        }
                        spec.schemes = toks[1..].iter().map(|s| s.to_string()).collect();
                    }
                }
                "topology" => {
                    if toks.len() < 2 {
                        return Err(SpecError::new(ln, "expected: topology KIND:AxBxC..."));
                    }
                    let mut tps = Vec::new();
                    for &tok in &toks[1..] {
                        let Some((kind, shape)) = tok.split_once(':') else {
                            return Err(SpecError::new(
                                ln,
                                format!("'{tok}' is not KIND:SHAPE (e.g. mdx:4x3)"),
                            ));
                        };
                        if !TOPOLOGY_IDS.contains(&kind) {
                            return Err(SpecError::new(
                                ln,
                                format!(
                                    "unknown topology '{kind}' (known: {})",
                                    TOPOLOGY_IDS.join(", ")
                                ),
                            ));
                        }
                        let Some(extents) = parse_shape(shape) else {
                            return Err(SpecError::new(
                                ln,
                                format!("'{shape}' is not a shape (e.g. 4x3)"),
                            ));
                        };
                        tps.push((kind.to_string(), extents));
                    }
                    spec.topologies = tps;
                }
                "faults" => {
                    if toks.len() < 2 {
                        return Err(SpecError::new(ln, "expected: faults CLASS..."));
                    }
                    let mut classes = Vec::new();
                    for &tok in &toks[1..] {
                        let Some(c) = FaultClass::parse(tok) else {
                            return Err(SpecError::new(
                                ln,
                                format!("unknown fault class '{tok}' (none, router, xbar)"),
                            ));
                        };
                        classes.push(c);
                    }
                    spec.faults = classes;
                }
                "workload" => {
                    if toks.len() < 2 {
                        return Err(SpecError::new(
                            ln,
                            "expected: workload mixed|storm [k=v...]",
                        ));
                    }
                    let mut w = match toks[1] {
                        "mixed" => WorkloadTemplate::Mixed {
                            rate: 0.02,
                            flits: 12,
                            window: 200,
                            bc: 0.002,
                        },
                        "storm" => WorkloadTemplate::Storm { flits: 16 },
                        other => {
                            return Err(SpecError::new(
                                ln,
                                format!("unknown workload '{other}' (mixed, storm)"),
                            ))
                        }
                    };
                    for &tok in &toks[2..] {
                        let applied = match &mut w {
                            WorkloadTemplate::Mixed {
                                rate,
                                flits,
                                window,
                                bc,
                            } => {
                                if let Some(v) = kv(tok, "rate") {
                                    v.parse().map(|x| *rate = x).is_ok()
                                } else if let Some(v) = kv(tok, "flits") {
                                    v.parse().map(|x| *flits = x).is_ok()
                                } else if let Some(v) = kv(tok, "window") {
                                    v.parse().map(|x| *window = x).is_ok()
                                } else if let Some(v) = kv(tok, "bc") {
                                    v.parse().map(|x| *bc = x).is_ok()
                                } else {
                                    false
                                }
                            }
                            WorkloadTemplate::Storm { flits } => {
                                if let Some(v) = kv(tok, "flits") {
                                    v.parse().map(|x| *flits = x).is_ok()
                                } else {
                                    false
                                }
                            }
                        };
                        if !applied {
                            return Err(SpecError::new(
                                ln,
                                format!("bad workload parameter '{tok}'"),
                            ));
                        }
                    }
                    // The runner's own check, so an out-of-range number
                    // fails here with its line instead of in a cell.
                    w.workload(1)
                        .check()
                        .map_err(|e| SpecError::new(ln, e.to_string()))?;
                    workloads.push(w);
                }
                "seeds" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "expected: seeds N"));
                    };
                    spec.seeds =
                        v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            SpecError::new(ln, "seeds must be a positive integer")
                        })?;
                }
                "max-cycles" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "expected: max-cycles N"));
                    };
                    spec.max_cycles = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| SpecError::new(ln, "max-cycles must be positive"))?;
                }
                "buffer-flits" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "expected: buffer-flits N"));
                    };
                    spec.buffer_flits = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| SpecError::new(ln, "buffer-flits must be positive"))?;
                }
                other => {
                    return Err(SpecError::new(
                        ln,
                        format!(
                            "unknown directive '{other}' (scheme, topology, faults, workload, \
                             seeds, max-cycles, buffer-flits)"
                        ),
                    ));
                }
            }
        }
        if !workloads.is_empty() {
            spec.workloads = workloads;
        }
        Ok(spec)
    }

    /// Cells the grid expands to (before compatibility skips).
    pub fn num_cells(&self) -> usize {
        self.schemes.len() * self.topologies.len() * self.faults.len() * self.workloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_default_grid() {
        let spec = TournamentSpec::parse("").unwrap();
        assert_eq!(spec, TournamentSpec::default());
        assert_eq!(spec.schemes.len(), SCHEME_IDS.len());
        assert_eq!(spec.num_cells(), SCHEME_IDS.len() * 4 * 2);
    }

    #[test]
    fn full_spec_parses() {
        let spec = TournamentSpec::parse(
            "# a small grid\n\
             scheme sr2201 hyperx-ft\n\
             topology mdx:4x3 hyperx:3x3\n\
             faults none router xbar\n\
             workload mixed rate=0.05 flits=8 window=100 bc=0.0\n\
             workload storm flits=24\n\
             seeds 3\n\
             max-cycles 5000\n\
             buffer-flits 4\n",
        )
        .unwrap();
        assert_eq!(spec.schemes, vec!["sr2201", "hyperx-ft"]);
        assert_eq!(spec.topologies[1], ("hyperx".to_string(), vec![3, 3]));
        assert_eq!(spec.faults.len(), 3);
        assert_eq!(
            spec.workloads[0],
            WorkloadTemplate::Mixed {
                rate: 0.05,
                flits: 8,
                window: 100,
                bc: 0.0
            }
        );
        assert_eq!(spec.workloads[1], WorkloadTemplate::Storm { flits: 24 });
        assert_eq!(spec.seeds, 3);
        assert_eq!(spec.max_cycles, 5000);
        assert_eq!(spec.buffer_flits, 4);
        assert_eq!(spec.num_cells(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn scheme_errors_list_the_registry() {
        let err = TournamentSpec::parse("scheme donut").unwrap_err();
        assert_eq!(err.line, 1);
        for id in SCHEME_IDS {
            assert!(err.message.contains(id), "{err}");
        }
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        for (text, line) in [
            ("topology torus:4x3", 1),
            ("topology mdx-4x3", 1),
            ("faults cosmic-ray", 1),
            ("seeds 0", 1),
            ("workload mixed rate=sideways", 1),
            ("scheme all\nwat 3", 2),
        ] {
            let err = TournamentSpec::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text}: {err}");
        }
    }

    #[test]
    fn storm_materializes_spread_sources() {
        let w = WorkloadTemplate::Storm { flits: 16 }.workload(12);
        match w {
            Workload::BroadcastStorm { sources, flits } => {
                assert_eq!(sources, vec![0, 3, 6, 9]);
                assert_eq!(flits, 16);
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        let spec = TournamentSpec::parse("faults none router xbar\nseeds 5").unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: TournamentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
