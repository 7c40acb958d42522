//! # mdx-workloads
//!
//! Deterministic traffic generation for the SR2201 network experiments: the
//! classic synthetic patterns (uniform random, transpose, bit-reversal,
//! bit-complement, shuffle, hotspot, nearest-neighbor), open-loop Bernoulli
//! injection at a configurable offered load, and mixed unicast/broadcast
//! schedules.
//!
//! Everything is seeded ([`rand_chacha`] — a portable, stability-guaranteed
//! generator), so every experiment is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stream;

pub use stream::{
    default_horizon, PhaseSpec, SpecError, StormSpec, StreamSource, StreamSpec, DEFAULT_DRAIN_SLACK,
};

use mdx_core::Header;
use mdx_fault::FaultSet;
use mdx_sim::InjectSpec;
use mdx_topology::{Coord, Shape};
use rand::distributions::Bernoulli;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A destination-selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Uniform random over all other usable PEs.
    UniformRandom,
    /// Matrix transpose: coordinate rotation `(x0, x1, ..) -> (x1, .., x0)`.
    /// For square 2D shapes this is the textbook transpose; the classic
    /// adversary for dimension-order routing.
    Transpose,
    /// Bit reversal of the PE index (requires a power-of-two PE count).
    BitReversal,
    /// Bit complement of the PE index (requires a power-of-two PE count).
    BitComplement,
    /// Perfect shuffle: rotate the PE index bits left by one (requires a
    /// power-of-two PE count).
    Shuffle,
    /// Everyone sends to one hot PE.
    HotSpot {
        /// The popular destination.
        hot: usize,
    },
    /// Send to the +1 neighbor in dimension 0 (wrapping), the friendliest
    /// pattern for any topology.
    NearestNeighbor,
    /// Tornado: halfway around dimension 0 (wrapping) — the classic
    /// worst case for minimal routing on rings/tori.
    Tornado,
    /// Incast: the `fan` PEs following `sink` in index order (wrapping)
    /// all send to `sink`; every other PE stays silent. Unlike
    /// [`TrafficPattern::HotSpot`] (all-to-one), this models the bounded
    /// many-to-one convergence of a reduction or storage burst.
    Incast {
        /// The convergence point.
        sink: usize,
        /// How many PEs send (clamped to the machine size).
        fan: usize,
    },
}

impl TrafficPattern {
    /// The destination for `src`, or `None` when the pattern maps `src` to
    /// itself (the generator then skips the injection).
    pub fn destination(&self, shape: &Shape, src: usize, rng: &mut impl Rng) -> Option<usize> {
        let n = shape.num_pes();
        let dst = match *self {
            TrafficPattern::UniformRandom => {
                if n <= 1 {
                    return None;
                }
                let mut d = rng.gen_range(0..n - 1);
                if d >= src {
                    d += 1;
                }
                d
            }
            TrafficPattern::Transpose => {
                let c = shape.coord_of(src);
                let d = shape.d();
                let mut t = Coord::ORIGIN;
                for dim in 0..d {
                    let from = (dim + 1) % d;
                    // Clamp when extents differ (non-square shapes).
                    let v = c.get(from).min(shape.extent(dim) - 1);
                    t = t.with(dim, v);
                }
                shape.index_of(t)
            }
            TrafficPattern::BitReversal => {
                assert!(n.is_power_of_two(), "bit reversal needs 2^k PEs");
                let bits = n.trailing_zeros();
                (src.reverse_bits() >> (usize::BITS - bits)) & (n - 1)
            }
            TrafficPattern::BitComplement => {
                assert!(n.is_power_of_two(), "bit complement needs 2^k PEs");
                !src & (n - 1)
            }
            TrafficPattern::Shuffle => {
                assert!(n.is_power_of_two(), "shuffle needs 2^k PEs");
                let bits = n.trailing_zeros() as usize;
                ((src << 1) | (src >> (bits - 1))) & (n - 1)
            }
            TrafficPattern::HotSpot { hot } => hot % n,
            TrafficPattern::NearestNeighbor => {
                let c = shape.coord_of(src);
                let e = shape.extent(0);
                shape.index_of(c.with(0, (c.get(0) + 1) % e))
            }
            TrafficPattern::Tornado => {
                let c = shape.coord_of(src);
                let e = shape.extent(0);
                shape.index_of(c.with(0, (c.get(0) + e / 2) % e))
            }
            TrafficPattern::Incast { sink, fan } => {
                let sink = sink % n;
                let fan = fan.min(n - 1);
                // Senders are the `fan` PEs after the sink, wrapping.
                let offset = (src + n - sink) % n;
                if offset == 0 || offset > fan {
                    return None;
                }
                sink
            }
        };
        (dst != src).then_some(dst)
    }

    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::BitComplement => "bit-complement",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::HotSpot { .. } => "hotspot",
            TrafficPattern::NearestNeighbor => "nearest-neighbor",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Incast { .. } => "incast",
        }
    }
}

/// Open-loop injection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoop {
    /// Probability that each PE injects a packet on each cycle. The offered
    /// load in flits/PE/cycle is `rate * packet_flits`.
    pub rate: f64,
    /// Packet length in flits.
    pub packet_flits: usize,
    /// Injection window in cycles (packets drain afterwards).
    pub window: u64,
    /// RNG seed.
    pub seed: u64,
}

impl OpenLoop {
    /// Offered load in flits per PE per cycle.
    pub fn offered_flits(&self) -> f64 {
        self.rate * self.packet_flits as f64
    }
}

/// Whether each PE can source and sink traffic under `faults`, by PE
/// index: one fault-set lookup per PE instead of one per PE per cycle.
fn usable_mask(shape: &Shape, faults: &FaultSet) -> Vec<bool> {
    (0..shape.num_pes()).map(|p| faults.pe_usable(p)).collect()
}

/// Generates an open-loop unicast schedule under `pattern`, skipping PEs
/// that `faults` has taken out of service.
pub fn unicast_schedule(
    shape: &Shape,
    pattern: TrafficPattern,
    cfg: OpenLoop,
    faults: &FaultSet,
) -> Vec<InjectSpec> {
    unicast_masked(shape, pattern, cfg, &usable_mask(shape, faults))
}

/// The trial an injection probability makes on every usable PE and cycle.
///
/// # Panics
/// Panics unless `0.0 <= p <= 1.0`, as `gen_bool(p)` does.
fn trial(p: f64) -> Bernoulli {
    Bernoulli::new(p).expect("probability outside [0, 1]")
}

/// A unicast from PE `src` to PE `dst`.
fn unicast(shape: &Shape, src: usize, dst: usize, flits: usize, inject_at: u64) -> InjectSpec {
    InjectSpec {
        src_pe: src,
        header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
        flits,
        inject_at,
    }
}

/// One cycle of open-loop unicast injection: each usable PE, in index
/// order, makes one `inject` trial and, when it succeeds, draws its
/// destination under `pattern`. A destination that is the source itself
/// or not usable drops the packet; every other `(src, dst)` goes to
/// `push`.
fn unicast_cycle(
    shape: &Shape,
    pattern: TrafficPattern,
    usable: &[bool],
    rng: &mut ChaCha12Rng,
    inject: Bernoulli,
    mut push: impl FnMut(usize, usize),
) {
    for (src, &ok) in usable.iter().enumerate() {
        if !ok || !rng.sample(inject) {
            continue;
        }
        let Some(dst) = pattern.destination(shape, src, rng) else {
            continue;
        };
        if usable[dst] {
            push(src, dst);
        }
    }
}

/// [`unicast_schedule`] over a [`usable_mask`].
fn unicast_masked(
    shape: &Shape,
    pattern: TrafficPattern,
    cfg: OpenLoop,
    usable: &[bool],
) -> Vec<InjectSpec> {
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
    let inject = trial(cfg.rate);
    let mut specs = Vec::new();
    for cycle in 0..cfg.window {
        unicast_cycle(shape, pattern, usable, &mut rng, inject, |src, dst| {
            specs.push(unicast(shape, src, dst, cfg.packet_flits, cycle));
        });
    }
    specs
}

/// A mixed workload: open-loop unicast traffic plus broadcast requests at a
/// per-PE-per-cycle `broadcast_rate`.
pub fn mixed_schedule(
    shape: &Shape,
    pattern: TrafficPattern,
    cfg: OpenLoop,
    broadcast_rate: f64,
    faults: &FaultSet,
) -> Vec<InjectSpec> {
    let usable = usable_mask(shape, faults);
    let mut specs = unicast_masked(shape, pattern, cfg, &usable);
    // At rate 0 no draw can succeed, and the broadcast draws have a stream
    // of their own, so skipping them moves no other draw.
    if broadcast_rate == 0.0 {
        return specs;
    }
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0xB0C4_57F0);
    let request = trial(broadcast_rate);
    for cycle in 0..cfg.window {
        for (src, &ok) in usable.iter().enumerate() {
            if ok && rng.sample(request) {
                specs.push(InjectSpec {
                    src_pe: src,
                    header: Header::broadcast_request(shape.coord_of(src)),
                    flits: cfg.packet_flits,
                    inject_at: cycle,
                });
            }
        }
    }
    specs
}

/// A single-shot permutation: every usable PE sends one packet at `at`.
pub fn permutation_schedule(
    shape: &Shape,
    pattern: TrafficPattern,
    packet_flits: usize,
    at: u64,
    seed: u64,
    faults: &FaultSet,
) -> Vec<InjectSpec> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut specs = Vec::new();
    for src in 0..shape.num_pes() {
        if !faults.pe_usable(src) {
            continue;
        }
        let Some(dst) = pattern.destination(shape, src, &mut rng) else {
            continue;
        };
        if !faults.pe_usable(dst) {
            continue;
        }
        specs.push(unicast(shape, src, dst, packet_flits, at));
    }
    specs
}

/// The live-reconfiguration stress recipe: steady open-loop background
/// traffic plus a synchronized burst of `burst` unicasts at each cycle in
/// `burst_at` (the instants a fault timeline fires), so every epoch of a
/// reconfiguration run has packets in flight to wound, drain, and replay.
///
/// Burst sources rotate deterministically through the usable PEs starting
/// from a per-burst offset, so two bursts at different cycles stress
/// different corners of the machine.
pub fn fault_storm_schedule(
    shape: &Shape,
    cfg: OpenLoop,
    burst_at: &[u64],
    burst: usize,
    faults: &FaultSet,
) -> Vec<InjectSpec> {
    let usable = usable_mask(shape, faults);
    let mut specs = unicast_masked(shape, TrafficPattern::UniformRandom, cfg, &usable);
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0xFA17_5702);
    let n = shape.num_pes();
    for (bi, &at) in burst_at.iter().enumerate() {
        let mut added = 0usize;
        let start = (bi * 7) % n.max(1);
        // One lap over the PEs per burst: a machine with fewer usable PEs
        // than `burst` just sends a smaller burst.
        for step in 0..n {
            if added >= burst {
                break;
            }
            let src = (start + step) % n;
            if !usable[src] {
                continue;
            }
            let Some(dst) = TrafficPattern::UniformRandom.destination(shape, src, &mut rng) else {
                continue;
            };
            if !usable[dst] {
                continue;
            }
            specs.push(unicast(shape, src, dst, cfg.packet_flits, at));
            added += 1;
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_fault::FaultSite;
    use proptest::prelude::*;

    fn shape() -> Shape {
        Shape::new(&[4, 4]).unwrap()
    }

    #[test]
    fn transpose_is_an_involution_on_square() {
        let s = shape();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for src in 0..16 {
            if let Some(d) = TrafficPattern::Transpose.destination(&s, src, &mut rng) {
                let back = TrafficPattern::Transpose
                    .destination(&s, d, &mut rng)
                    .unwrap_or(d);
                assert_eq!(back, src);
            }
        }
    }

    #[test]
    fn bit_patterns_are_permutations() {
        let s = shape();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for pat in [
            TrafficPattern::BitReversal,
            TrafficPattern::BitComplement,
            TrafficPattern::Shuffle,
        ] {
            let mut seen = std::collections::HashSet::new();
            for src in 0..16 {
                let d = pat.destination(&s, src, &mut rng).unwrap_or(src);
                assert!(seen.insert(d), "{} duplicates {d}", pat.name());
                assert!(d < 16);
            }
        }
    }

    #[test]
    fn nearest_neighbor_wraps() {
        let s = shape();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let d = TrafficPattern::NearestNeighbor
            .destination(&s, 3, &mut rng)
            .unwrap();
        assert_eq!(d, 0); // (3,0) -> (0,0)
    }

    #[test]
    fn tornado_goes_halfway() {
        let s = shape();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let d = TrafficPattern::Tornado
            .destination(&s, 1, &mut rng)
            .unwrap();
        assert_eq!(d, 3); // (1,0) -> (3,0) on extent 4
    }

    #[test]
    fn hotspot_sends_to_hot() {
        let s = shape();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for src in 0..16 {
            let d = TrafficPattern::HotSpot { hot: 5 }.destination(&s, src, &mut rng);
            assert_eq!(d, (src != 5).then_some(5));
        }
    }

    #[test]
    fn schedule_respects_faults() {
        let s = shape();
        let faults = FaultSet::single(FaultSite::Pe(3));
        let cfg = OpenLoop {
            rate: 0.5,
            packet_flits: 4,
            window: 50,
            seed: 7,
        };
        let specs = unicast_schedule(&s, TrafficPattern::UniformRandom, cfg, &faults);
        assert!(!specs.is_empty());
        for sp in &specs {
            assert_ne!(sp.src_pe, 3);
            assert_ne!(s.index_of(sp.header.dest), 3);
            assert!(sp.inject_at < 50);
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let s = shape();
        let cfg = OpenLoop {
            rate: 0.3,
            packet_flits: 4,
            window: 30,
            seed: 42,
        };
        let a = mixed_schedule(
            &s,
            TrafficPattern::UniformRandom,
            cfg,
            0.01,
            &FaultSet::none(),
        );
        let b = mixed_schedule(
            &s,
            TrafficPattern::UniformRandom,
            cfg,
            0.01,
            &FaultSet::none(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_traffic_without_broadcasts_is_the_unicast_schedule() {
        let s = Shape::new(&[8, 8]).unwrap();
        for seed in 0..400 {
            let cfg = OpenLoop {
                rate: 0.02,
                packet_flits: 12,
                window: 200,
                seed,
            };
            let none = FaultSet::none();
            assert_eq!(
                mixed_schedule(&s, TrafficPattern::UniformRandom, cfg, 0.0, &none),
                unicast_schedule(&s, TrafficPattern::UniformRandom, cfg, &none),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fault_storm_bursts_land_on_event_cycles() {
        let s = shape();
        let cfg = OpenLoop {
            rate: 0.05,
            packet_flits: 8,
            window: 100,
            seed: 9,
        };
        let faults = FaultSet::single(FaultSite::Pe(3));
        let specs = fault_storm_schedule(&s, cfg, &[40, 70], 6, &faults);
        for at in [40u64, 70] {
            let burst = specs.iter().filter(|sp| sp.inject_at == at).count();
            // Background traffic can also land on the burst cycle.
            assert!(burst >= 6, "burst at {at} has only {burst} packets");
        }
        for sp in &specs {
            assert_ne!(sp.src_pe, 3);
            assert_ne!(s.index_of(sp.header.dest), 3);
        }
        assert_eq!(specs, fault_storm_schedule(&s, cfg, &[40, 70], 6, &faults));
    }

    #[test]
    fn permutation_schedule_one_per_source() {
        let s = shape();
        let specs = permutation_schedule(&s, TrafficPattern::Transpose, 4, 0, 1, &FaultSet::none());
        // Diagonal PEs map to themselves and are skipped: 16 - 4.
        assert_eq!(specs.len(), 12);
    }

    #[test]
    fn offered_load_accounting() {
        let cfg = OpenLoop {
            rate: 0.25,
            packet_flits: 8,
            window: 1,
            seed: 0,
        };
        assert_eq!(cfg.offered_flits(), 2.0);
    }

    proptest! {
        #[test]
        fn prop_uniform_never_self(src in 0usize..16, seed in 0u64..50) {
            let s = shape();
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let d = TrafficPattern::UniformRandom.destination(&s, src, &mut rng).unwrap();
            prop_assert_ne!(d, src);
            prop_assert!(d < 16);
        }

        #[test]
        fn prop_injection_rate_tracks_config(rate in 0.05f64..0.9, seed in 0u64..20) {
            let s = shape();
            let cfg = OpenLoop { rate, packet_flits: 1, window: 200, seed };
            let specs = unicast_schedule(&s, TrafficPattern::UniformRandom, cfg, &FaultSet::none());
            let expected = rate * 200.0 * 16.0;
            let got = specs.len() as f64;
            // Within 30% of the Bernoulli mean (loose; 3200 trials).
            prop_assert!((got - expected).abs() < expected.mul_add(0.3, 20.0),
                         "rate {rate}: got {got}, expected {expected}");
        }
    }
}
