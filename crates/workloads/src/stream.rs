//! Declarative streaming workload specs: offered load over time, compiled
//! into an incremental, seeded packet source.
//!
//! A *workload spec* is a small line-oriented text file describing an
//! open-loop run — phases of Bernoulli injection under a spatial pattern,
//! burst overlays, fault storms, and a cycle horizon — in the spirit of a
//! timetable compiled into traffic. Parsing is strict and every error
//! carries the line (and field) it came from.
//!
//! ## Grammar
//!
//! One directive per line; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! seed 42                                  # base RNG seed (default 0)
//! flits 8                                  # default packet length
//! phase 0..2000 uniform rate=0.05          # open-loop window [0, 2000)
//! phase 2000..5000 hotspot:5 rate=0.10
//! burst 2500..2600 incast:5:8 rate=0.5     # overlay on top of phases
//! storm 3000 xbar:0:1 router:2             # faults fire at cycle 3000
//! storm 4000 repair xbar:0:1               # ... and heal at 4000
//! horizon 6000                             # run/drain out to this cycle
//! ```
//!
//! When the `horizon` line is omitted it defaults to the last phase end
//! plus drain headroom ([`default_horizon`]) so in-flight packets can
//! still finish; declare it explicitly to cap a saturated run.
//!
//! Patterns: `uniform`, `transpose`, `bitrev`, `bitcomp`, `shuffle`,
//! `neighbor`, `tornado`, `hotspot:PE`, `incast:SINK[:FAN]` (FAN defaults
//! to 4). Fault sites: `xbar:DIM:LINE`, `router:IDX`, `pe:IDX`.
//!
//! `phase` and `burst` are the same machinery — independent injection
//! processes that superpose — split into two keywords so a spec reads as
//! "sustained load" plus "transients". Windows are half-open `[start, end)`
//! and may overlap freely.
//!
//! Compilation ([`StreamSpec::source`]) yields a [`StreamSource`]: a
//! [`TrafficSource`] that generates packets lazily, cycle by cycle, with
//! one independent [`ChaCha12Rng`] stream per phase — so the schedule is
//! bit-identical no matter how the engine batches its pulls, and an
//! unbounded horizon never materializes as one giant packet list.

use crate::{unicast, unicast_cycle, usable_mask, TrafficPattern};
use mdx_fault::{FaultSet, FaultSite, FaultTimeline};
use mdx_sim::{InjectSpec, TrafficSource};
use mdx_topology::{Shape, XbarRef};
use rand::distributions::Bernoulli;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A parse or validation error, addressed to the offending spec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec text (0 when the spec was built
    /// programmatically).
    pub line: usize,
    /// The field or token at fault, when narrower than the whole line.
    pub field: String,
    /// What went wrong.
    pub msg: String,
}

impl SpecError {
    fn new(line: usize, field: &str, msg: impl Into<String>) -> SpecError {
        SpecError {
            line,
            field: field.to_string(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload spec")?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        if !self.field.is_empty() {
            write!(f, ": {}", self.field)?;
        }
        write!(f, ": {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Flat drain headroom (cycles) granted past the last phase end when a
/// spec omits its `horizon` line; 25% of the traffic window is added on
/// top. Without headroom an implicit horizon coincides with the final
/// injection cycle, so any packet still in flight would end the run as
/// `cycle-limit` instead of letting it complete.
pub const DEFAULT_DRAIN_SLACK: u64 = 256;

/// The horizon a spec gets when it declares none: the last phase end
/// plus 25% of the traffic window plus [`DEFAULT_DRAIN_SLACK`].
pub fn default_horizon(traffic_end: u64) -> u64 {
    traffic_end
        .saturating_add(traffic_end / 4)
        .saturating_add(DEFAULT_DRAIN_SLACK)
}

/// One injection window: open-loop Bernoulli traffic under a pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// End of the window (exclusive).
    pub end: u64,
    /// Destination-selection rule.
    pub pattern: TrafficPattern,
    /// Per-PE-per-cycle injection probability, in `(0, 1]`.
    pub rate: f64,
    /// Packet length in flits.
    pub flits: usize,
    /// Declared with the `burst` keyword (an overlay transient) rather
    /// than `phase` (sustained load). Purely descriptive; both superpose.
    pub burst: bool,
    /// Source line in the spec text (0 if built programmatically).
    pub line: usize,
}

/// One fault-storm instant: sites injected (or repaired) at a cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormSpec {
    /// Cycle the event fires.
    pub at: u64,
    /// Repair instead of inject.
    pub repair: bool,
    /// The affected sites.
    pub sites: Vec<FaultSite>,
    /// Source line in the spec text (0 if built programmatically).
    pub line: usize,
}

/// A parsed streaming workload spec. Build one with [`StreamSpec::parse`]
/// and compile it against a machine with [`StreamSpec::source`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Base RNG seed; each phase derives an independent stream from it.
    pub seed: u64,
    /// Default packet length for phases without a `flits=` override.
    pub default_flits: usize,
    /// Injection windows (phases and bursts, in declaration order).
    pub phases: Vec<PhaseSpec>,
    /// Fault storms, in declaration order.
    pub storms: Vec<StormSpec>,
    /// Cycle horizon: the run simulates (and drains) out to here.
    pub horizon: u64,
}

fn parse_u64(line: usize, field: &str, tok: &str) -> Result<u64, SpecError> {
    tok.parse::<u64>()
        .map_err(|_| SpecError::new(line, field, format!("expected a number, got '{tok}'")))
}

fn parse_usize(line: usize, field: &str, tok: &str) -> Result<usize, SpecError> {
    tok.parse::<usize>()
        .map_err(|_| SpecError::new(line, field, format!("expected a number, got '{tok}'")))
}

fn parse_window(line: usize, tok: &str) -> Result<(u64, u64), SpecError> {
    let Some((a, b)) = tok.split_once("..") else {
        return Err(SpecError::new(
            line,
            "window",
            format!("expected START..END, got '{tok}'"),
        ));
    };
    let start = parse_u64(line, "window start", a)?;
    let end = parse_u64(line, "window end", b)?;
    if end <= start {
        return Err(SpecError::new(
            line,
            "window",
            format!("empty window {start}..{end} (end must exceed start)"),
        ));
    }
    Ok((start, end))
}

fn parse_pattern(line: usize, tok: &str) -> Result<TrafficPattern, SpecError> {
    let mut parts = tok.split(':');
    let head = parts.next().unwrap_or("");
    let pat = match head {
        "uniform" => TrafficPattern::UniformRandom,
        "transpose" => TrafficPattern::Transpose,
        "bitrev" => TrafficPattern::BitReversal,
        "bitcomp" => TrafficPattern::BitComplement,
        "shuffle" => TrafficPattern::Shuffle,
        "neighbor" => TrafficPattern::NearestNeighbor,
        "tornado" => TrafficPattern::Tornado,
        "hotspot" => {
            let hot = parts
                .next()
                .ok_or_else(|| SpecError::new(line, "pattern", "hotspot needs a PE: hotspot:PE"))?;
            TrafficPattern::HotSpot {
                hot: parse_usize(line, "hotspot PE", hot)?,
            }
        }
        "incast" => {
            let sink = parts.next().ok_or_else(|| {
                SpecError::new(line, "pattern", "incast needs a sink: incast:SINK[:FAN]")
            })?;
            let sink = parse_usize(line, "incast sink", sink)?;
            let fan = match parts.next() {
                Some(f) => parse_usize(line, "incast fan", f)?,
                None => 4,
            };
            TrafficPattern::Incast { sink, fan }
        }
        other => {
            return Err(SpecError::new(
                line,
                "pattern",
                format!(
                    "unknown pattern '{other}' (expected uniform|transpose|bitrev|bitcomp|\
                     shuffle|neighbor|tornado|hotspot:PE|incast:SINK[:FAN])"
                ),
            ))
        }
    };
    if let Some(extra) = parts.next() {
        return Err(SpecError::new(
            line,
            "pattern",
            format!("trailing ':{extra}' after {tok}"),
        ));
    }
    Ok(pat)
}

fn parse_site(line: usize, tok: &str) -> Result<FaultSite, SpecError> {
    let parts: Vec<&str> = tok.split(':').collect();
    match parts.as_slice() {
        ["xbar", dim, xline] => {
            let dim = parse_usize(line, "xbar dim", dim)?;
            let dim = u8::try_from(dim).map_err(|_| {
                SpecError::new(line, "xbar dim", format!("dimension {dim} too large"))
            })?;
            let xline = parse_u64(line, "xbar line", xline)? as u32;
            Ok(FaultSite::Xbar(XbarRef { dim, line: xline }))
        }
        ["router", idx] => Ok(FaultSite::Router(parse_usize(line, "router index", idx)?)),
        ["pe", idx] => Ok(FaultSite::Pe(parse_usize(line, "pe index", idx)?)),
        _ => Err(SpecError::new(
            line,
            "site",
            format!("expected xbar:DIM:LINE, router:IDX, or pe:IDX, got '{tok}'"),
        )),
    }
}

impl StreamSpec {
    /// Parses the line-oriented spec text. Errors carry the 1-based line
    /// number and the field at fault.
    pub fn parse(text: &str) -> Result<StreamSpec, SpecError> {
        let mut seed = 0u64;
        let mut default_flits = 8usize;
        let mut phases = Vec::new();
        let mut storms: Vec<StormSpec> = Vec::new();
        let mut horizon: Option<u64> = None;
        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "seed" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "seed", "expected: seed N"));
                    };
                    seed = parse_u64(ln, "seed", v)?;
                }
                "flits" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "flits", "expected: flits N"));
                    };
                    default_flits = parse_usize(ln, "flits", v)?;
                    if default_flits == 0 {
                        return Err(SpecError::new(ln, "flits", "packets need at least 1 flit"));
                    }
                }
                kw @ ("phase" | "burst") => {
                    if toks.len() < 3 {
                        return Err(SpecError::new(
                            ln,
                            kw,
                            format!("expected: {kw} START..END PATTERN rate=R [flits=N]"),
                        ));
                    }
                    let (start, end) = parse_window(ln, toks[1])?;
                    let pattern = parse_pattern(ln, toks[2])?;
                    let mut rate: Option<f64> = None;
                    let mut flits = default_flits;
                    for kv in &toks[3..] {
                        let Some((k, v)) = kv.split_once('=') else {
                            return Err(SpecError::new(
                                ln,
                                kv,
                                "expected key=value (rate=R or flits=N)",
                            ));
                        };
                        match k {
                            "rate" => {
                                let r: f64 = v.parse().map_err(|_| {
                                    SpecError::new(
                                        ln,
                                        "rate",
                                        format!("expected a number, got '{v}'"),
                                    )
                                })?;
                                if !(r > 0.0 && r <= 1.0) {
                                    return Err(SpecError::new(
                                        ln,
                                        "rate",
                                        format!("rate must be in (0, 1], got {v}"),
                                    ));
                                }
                                rate = Some(r);
                            }
                            "flits" => {
                                flits = parse_usize(ln, "flits", v)?;
                                if flits == 0 {
                                    return Err(SpecError::new(
                                        ln,
                                        "flits",
                                        "packets need at least 1 flit",
                                    ));
                                }
                            }
                            other => {
                                return Err(SpecError::new(
                                    ln,
                                    other,
                                    "unknown key (expected rate= or flits=)",
                                ));
                            }
                        }
                    }
                    let Some(rate) = rate else {
                        return Err(SpecError::new(ln, "rate", format!("{kw} requires rate=R")));
                    };
                    phases.push(PhaseSpec {
                        start,
                        end,
                        pattern,
                        rate,
                        flits,
                        burst: kw == "burst",
                        line: ln,
                    });
                }
                "storm" => {
                    if toks.len() < 3 {
                        return Err(SpecError::new(
                            ln,
                            "storm",
                            "expected: storm AT [repair] SITE...",
                        ));
                    }
                    let at = parse_u64(ln, "storm cycle", toks[1])?;
                    let (repair, rest) = if toks[2] == "repair" {
                        (true, &toks[3..])
                    } else {
                        (false, &toks[2..])
                    };
                    if rest.is_empty() {
                        return Err(SpecError::new(ln, "storm", "needs at least one site"));
                    }
                    let sites = rest
                        .iter()
                        .map(|t| parse_site(ln, t))
                        .collect::<Result<Vec<_>, _>>()?;
                    storms.push(StormSpec {
                        at,
                        repair,
                        sites,
                        line: ln,
                    });
                }
                "horizon" => {
                    let [_, v] = toks.as_slice() else {
                        return Err(SpecError::new(ln, "horizon", "expected: horizon N"));
                    };
                    horizon = Some(parse_u64(ln, "horizon", v)?);
                }
                other => {
                    return Err(SpecError::new(
                        ln,
                        other,
                        "unknown directive (expected seed|flits|phase|burst|storm|horizon)",
                    ));
                }
            }
        }
        if phases.is_empty() {
            return Err(SpecError::new(0, "", "spec declares no phase or burst"));
        }
        let traffic_end = phases.iter().map(|p| p.end).max().unwrap_or(0);
        let horizon = horizon.unwrap_or_else(|| default_horizon(traffic_end));
        if horizon < traffic_end {
            return Err(SpecError::new(
                0,
                "horizon",
                format!("horizon {horizon} ends before the last phase ({traffic_end})"),
            ));
        }
        for s in &storms {
            if s.at >= horizon {
                return Err(SpecError::new(
                    s.line,
                    "storm",
                    format!("storm at cycle {} is past the horizon {horizon}", s.at),
                ));
            }
        }
        let spec = StreamSpec {
            seed,
            default_flits,
            phases,
            storms,
            horizon,
        };
        Ok(spec)
    }

    /// Checks the spec against a concrete machine shape (pattern indices
    /// in range, power-of-two requirements).
    pub fn validate(&self, shape: &Shape) -> Result<(), SpecError> {
        let n = shape.num_pes();
        let pow2 = n.is_power_of_two();
        for p in &self.phases {
            match p.pattern {
                TrafficPattern::HotSpot { hot } if hot >= n => {
                    return Err(SpecError::new(
                        p.line,
                        "hotspot PE",
                        format!("PE {hot} out of range for {n} PEs"),
                    ));
                }
                TrafficPattern::Incast { sink, fan } => {
                    if sink >= n {
                        return Err(SpecError::new(
                            p.line,
                            "incast sink",
                            format!("PE {sink} out of range for {n} PEs"),
                        ));
                    }
                    if fan == 0 {
                        return Err(SpecError::new(p.line, "incast fan", "fan must be >= 1"));
                    }
                }
                TrafficPattern::BitReversal
                | TrafficPattern::BitComplement
                | TrafficPattern::Shuffle
                    if !pow2 =>
                {
                    return Err(SpecError::new(
                        p.line,
                        "pattern",
                        format!("{} needs a power-of-two PE count, machine has {n}", {
                            p.pattern.name()
                        }),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The storms as a [`FaultTimeline`] (events sorted by cycle), ready
    /// for the live-reconfiguration controller. Empty if no storms.
    pub fn timeline(&self) -> FaultTimeline {
        let mut storms: Vec<&StormSpec> = self.storms.iter().collect();
        storms.sort_by_key(|s| s.at);
        let mut tl = FaultTimeline::new();
        for s in storms {
            for &site in &s.sites {
                tl = if s.repair {
                    tl.repair(site, s.at)
                } else {
                    tl.inject(site, s.at)
                };
            }
        }
        tl
    }

    /// Last cycle (exclusive) at which any phase can inject.
    pub fn traffic_end(&self) -> u64 {
        self.phases.iter().map(|p| p.end).max().unwrap_or(0)
    }

    /// Expected offered packets across the whole spec for `usable_pes`
    /// in-service PEs (Bernoulli mean; incast phases offer from the fan
    /// only).
    pub fn expected_offered(&self, usable_pes: usize) -> f64 {
        self.phases
            .iter()
            .map(|p| {
                let senders = match p.pattern {
                    TrafficPattern::Incast { fan, .. } => fan.min(usable_pes),
                    _ => usable_pes,
                };
                p.rate * (p.end - p.start) as f64 * senders as f64
            })
            .sum()
    }

    /// Compiles the spec into an incremental packet source for `shape`,
    /// skipping PEs `faults` has taken out of service. `seed_mix` is
    /// XOR-folded into the spec seed so the same spec text can drive
    /// distinct (but individually reproducible) runs — pass the scenario
    /// seed, or 0.
    pub fn source(
        &self,
        shape: &Shape,
        faults: &FaultSet,
        seed_mix: u64,
    ) -> Result<StreamSource, SpecError> {
        self.validate(shape)?;
        let phases = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Ok(PhaseRt {
                    spec: p.clone(),
                    rng: ChaCha12Rng::seed_from_u64(
                        (self.seed ^ seed_mix) ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_97F4_A7C5),
                    ),
                    inject: Bernoulli::new(p.rate).map_err(|e| {
                        SpecError::new(p.line, "rate", format!("{e}, got {}", p.rate))
                    })?,
                })
            })
            .collect::<Result<_, SpecError>>()?;
        Ok(StreamSource {
            shape: shape.clone(),
            usable: usable_mask(shape, faults),
            phases,
            cursor: 0,
            traffic_end: self.traffic_end(),
            pending: VecDeque::new(),
            offered: 0,
        })
    }
}

/// One phase at generation time: its spec plus an independent RNG stream,
/// consumed strictly in cycle order so pull batching cannot perturb it.
#[derive(Debug, Clone)]
struct PhaseRt {
    spec: PhaseSpec,
    rng: ChaCha12Rng,
    /// The injection trial at the phase's rate.
    inject: Bernoulli,
}

/// A compiled [`StreamSpec`]: generates packets lazily, cycle by cycle.
/// Implements [`TrafficSource`], so the engine consumes it incrementally;
/// memory stays bounded by the in-flight window rather than the horizon.
#[derive(Debug, Clone)]
pub struct StreamSource {
    shape: Shape,
    /// Whether each PE can source and sink traffic, by PE index.
    usable: Vec<bool>,
    phases: Vec<PhaseRt>,
    /// Next cycle to generate.
    cursor: u64,
    /// No phase injects at or past this cycle.
    traffic_end: u64,
    /// Generated but not yet pulled, in nondecreasing `inject_at` order.
    pending: VecDeque<InjectSpec>,
    offered: usize,
}

impl StreamSource {
    /// Runs every phase's generator for one cycle.
    fn gen_cycle(&mut self, cycle: u64) {
        let StreamSource {
            shape,
            usable,
            phases,
            pending,
            ..
        } = self;
        for ph in phases.iter_mut() {
            if cycle < ph.spec.start || cycle >= ph.spec.end {
                continue;
            }
            let flits = ph.spec.flits;
            unicast_cycle(
                shape,
                ph.spec.pattern,
                usable,
                &mut ph.rng,
                ph.inject,
                |src, dst| pending.push_back(unicast(shape, src, dst, flits, cycle)),
            );
        }
    }

    /// Drains the whole spec into one flat schedule (tests and batch
    /// comparisons; defeats the purpose for long horizons).
    pub fn into_schedule(mut self) -> Vec<InjectSpec> {
        let mut out = Vec::new();
        while self.cursor < self.traffic_end {
            let c = self.cursor;
            self.cursor += 1;
            self.gen_cycle(c);
        }
        out.extend(self.pending.drain(..));
        out
    }
}

impl TrafficSource for StreamSource {
    fn pull(&mut self, now: u64) -> Vec<InjectSpec> {
        while self.cursor <= now && self.cursor < self.traffic_end {
            let c = self.cursor;
            self.cursor += 1;
            self.gen_cycle(c);
        }
        let mut out = Vec::new();
        while let Some(front) = self.pending.front() {
            if front.inject_at > now {
                break;
            }
            out.push(self.pending.pop_front().unwrap());
        }
        self.offered += out.len();
        out
    }

    fn next_arrival(&mut self) -> Option<u64> {
        while self.pending.is_empty() && self.cursor < self.traffic_end {
            let c = self.cursor;
            self.cursor += 1;
            self.gen_cycle(c);
        }
        self.pending.front().map(|s| s.inject_at)
    }

    fn offered(&self) -> usize {
        self.offered
    }
}
