//! Golden traffic: every schedule generator, both drains of two stream
//! specs, the multi-fault sampler and the raw ChaCha streams they all draw
//! from, compared line by line against `tests/golden/generators.jsonl`.
//!
//! Each line names one call and holds what it returned as a count and the
//! FNV-1a digest of its JSON:
//!
//! * `mixed` lines: [`mixed_schedule`] (uniform traffic) on 4x3, 8x8,
//!   4x4x4 and 2^6 at the rates the campaigns and the benchmark use,
//!   fault-free and under one PE, one router and one crossbar fault,
//!   seeds 0–7;
//! * `unicast` and `permutation` lines: [`unicast_schedule`] and
//!   [`permutation_schedule`] for every pattern valid on 8x8 and on 2^6;
//! * `storm` lines: [`fault_storm_schedule`] with bursts at two cycles;
//! * `stream` lines: the `serve` benchmark workload's spec and
//!   EXPERIMENTS.md's streaming example, each drained whole by
//!   `into_schedule` and by pulling every cycle;
//! * `faults` lines: [`sample_fault_sets`] for k = 2 and 3;
//! * `chacha` lines: the first 4,096 words of `ChaCha8Rng`, `ChaCha12Rng`
//!   and `ChaCha20Rng` for three seeds, read as `u32`s and as one `u32`
//!   followed by `u64`s (so every `u64` spans two blocks' boundary once
//!   per block), and a `range` line of `gen_range` draws over spans at
//!   and near the whole 64-bit range.
//!
//! The golden is never regenerated. On a mismatch the actual bytes are
//! written to the test's scratch directory for inspection.

use mdx_fault::{sample_fault_sets, FaultSet, FaultSite};
use mdx_sim::{InjectSpec, TrafficSource};
use mdx_topology::{MdCrossbar, Shape, XbarRef};
use mdx_workloads::{
    fault_storm_schedule, mixed_schedule, permutation_schedule, unicast_schedule, OpenLoop,
    StreamSpec, TrafficPattern,
};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit, continued from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn shape_name(shape: &Shape) -> String {
    (0..shape.d())
        .map(|d| shape.extent(d).to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// The `"specs":N,"fnv":"…"` tail of a schedule's line.
fn digest(specs: &[InjectSpec]) -> String {
    let json = serde_json::to_string(specs).unwrap();
    format!(
        "\"specs\":{},\"fnv\":\"{:016x}\"",
        specs.len(),
        fnv1a(json.as_bytes(), FNV_OFFSET)
    )
}

fn fault_name(faults: &FaultSet) -> String {
    let sites: Vec<String> = faults.sites().map(|s| s.to_string()).collect();
    if sites.is_empty() {
        "none".to_string()
    } else {
        sites.join("+")
    }
}

/// Fault-free, one PE, one router and one crossbar fault.
fn fault_cases() -> [FaultSet; 4] {
    [
        FaultSet::none(),
        FaultSet::single(FaultSite::Pe(1)),
        FaultSet::single(FaultSite::Router(2)),
        FaultSet::single(FaultSite::Xbar(XbarRef { dim: 0, line: 1 })),
    ]
}

fn shape(extents: &[u16]) -> Shape {
    Shape::new(extents).unwrap()
}

fn mixed_lines(lines: &mut Vec<String>) {
    let grid: [(&[u16], f64, f64, u64); 4] = [
        (&[4, 3], 0.02, 0.002, 200),
        (&[8, 8], 0.05, 0.002, 400),
        (&[4, 4, 4], 0.02, 0.002, 200),
        (&[2, 2, 2, 2, 2, 2], 0.02, 0.0, 200),
    ];
    for (extents, rate, bc, window) in grid {
        let s = shape(extents);
        for faults in fault_cases() {
            for seed in 0..8 {
                let cfg = OpenLoop {
                    rate,
                    packet_flits: 12,
                    window,
                    seed,
                };
                let specs = mixed_schedule(&s, TrafficPattern::UniformRandom, cfg, bc, &faults);
                lines.push(format!(
                    "{{\"gen\":\"mixed\",\"shape\":\"{}\",\"rate\":{rate},\"bc\":{bc},\
                     \"window\":{window},\"faults\":\"{}\",\"seed\":{seed},{}}}",
                    shape_name(&s),
                    fault_name(&faults),
                    digest(&specs)
                ));
            }
        }
    }
}

/// Every pattern: all of them are valid on a 64-PE machine.
fn patterns() -> [TrafficPattern; 9] {
    [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitReversal,
        TrafficPattern::BitComplement,
        TrafficPattern::Shuffle,
        TrafficPattern::HotSpot { hot: 5 },
        TrafficPattern::NearestNeighbor,
        TrafficPattern::Tornado,
        TrafficPattern::Incast { sink: 5, fan: 8 },
    ]
}

fn pattern_lines(lines: &mut Vec<String>) {
    let faults = [FaultSet::none(), FaultSet::single(FaultSite::Router(2))];
    for extents in [&[8u16, 8][..], &[2, 2, 2, 2, 2, 2]] {
        let s = shape(extents);
        for pattern in patterns() {
            for f in &faults {
                for seed in 0..2 {
                    let cfg = OpenLoop {
                        rate: 0.05,
                        packet_flits: 4,
                        window: 200,
                        seed,
                    };
                    let specs = unicast_schedule(&s, pattern, cfg, f);
                    lines.push(format!(
                        "{{\"gen\":\"unicast\",\"shape\":\"{}\",\"pattern\":\"{}\",\
                         \"faults\":\"{}\",\"seed\":{seed},{}}}",
                        shape_name(&s),
                        pattern.name(),
                        fault_name(f),
                        digest(&specs)
                    ));
                    let specs = permutation_schedule(&s, pattern, 4, 5, seed, f);
                    lines.push(format!(
                        "{{\"gen\":\"permutation\",\"shape\":\"{}\",\"pattern\":\"{}\",\
                         \"faults\":\"{}\",\"seed\":{seed},{}}}",
                        shape_name(&s),
                        pattern.name(),
                        fault_name(f),
                        digest(&specs)
                    ));
                }
            }
        }
    }
}

fn storm_lines(lines: &mut Vec<String>) {
    for extents in [&[4u16, 4][..], &[8, 8]] {
        let s = shape(extents);
        for faults in fault_cases() {
            for seed in 0..4 {
                let cfg = OpenLoop {
                    rate: 0.05,
                    packet_flits: 8,
                    window: 100,
                    seed,
                };
                let specs = fault_storm_schedule(&s, cfg, &[40, 70], 6, &faults);
                lines.push(format!(
                    "{{\"gen\":\"storm\",\"shape\":\"{}\",\"faults\":\"{}\",\"seed\":{seed},{}}}",
                    shape_name(&s),
                    fault_name(&faults),
                    digest(&specs)
                ));
            }
        }
    }
}

/// The `serve` benchmark workload's spec (with one of its crossbar
/// sites) and EXPERIMENTS.md's streaming walkthrough.
const STREAMS: [(&str, &str); 2] = [
    (
        "serve",
        "seed 1\nflits 2\nphase 0..600 uniform rate=0.04\n\
         storm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200\n",
    ),
    (
        "demo",
        "# Diurnal load with a hotspot burst and a mid-stream crossbar failure.\n\
         seed 7\nflits 4\nphase 0..400 uniform rate=0.04\nphase 400..900 hotspot:5 rate=0.01\n\
         burst 500..520 incast:5:6 rate=0.3\nstorm 200 xbar:0:1\nstorm 420 repair xbar:0:1\n\
         horizon 1500\n",
    ),
];

fn stream_lines(lines: &mut Vec<String>) {
    let s = shape(&[4, 4]);
    for (name, text) in STREAMS {
        let spec = StreamSpec::parse(text).unwrap();
        for faults in fault_cases() {
            for seed_mix in [0u64, 5] {
                let whole = spec.source(&s, &faults, seed_mix).unwrap().into_schedule();
                let mut src = spec.source(&s, &faults, seed_mix).unwrap();
                let pulled: Vec<InjectSpec> = (0..spec.horizon).flat_map(|c| src.pull(c)).collect();
                for (drain, specs) in [("whole", whole), ("pulled", pulled)] {
                    lines.push(format!(
                        "{{\"gen\":\"stream\",\"spec\":\"{name}\",\"shape\":\"4x4\",\
                         \"faults\":\"{}\",\"seed_mix\":{seed_mix},\"drain\":\"{drain}\",{}}}",
                        fault_name(&faults),
                        digest(&specs)
                    ));
                }
            }
        }
    }
}

fn fault_set_lines(lines: &mut Vec<String>) {
    for extents in [&[4u16, 3][..], &[4, 4, 4]] {
        let net = MdCrossbar::build(shape(extents));
        for k in [2, 3] {
            for seed in 0..4 {
                let sets = sample_fault_sets(&net, k, 16, seed);
                let json = serde_json::to_string(&sets).unwrap();
                lines.push(format!(
                    "{{\"gen\":\"faults\",\"shape\":\"{}\",\"k\":{k},\"seed\":{seed},\
                     \"sets\":{},\"fnv\":\"{:016x}\"}}",
                    shape_name(net.shape()),
                    sets.len(),
                    fnv1a(json.as_bytes(), FNV_OFFSET)
                ));
            }
        }
    }
}

/// Words 0..4096 as `u32`s, then a fresh stream read as one `u32` and
/// 2,047 `u64`s: both digests of the same 4,096 words.
fn word_digests<R: SeedableRng + RngCore>(seed: u64) -> (u64, u64) {
    let mut r = R::seed_from_u64(seed);
    let mut h32 = FNV_OFFSET;
    for _ in 0..4096 {
        h32 = fnv1a(&r.next_u32().to_le_bytes(), h32);
    }
    let mut r = R::seed_from_u64(seed);
    let mut h64 = fnv1a(&r.next_u32().to_le_bytes(), FNV_OFFSET);
    for _ in 0..2047 {
        h64 = fnv1a(&r.next_u64().to_le_bytes(), h64);
    }
    (h32, h64)
}

fn chacha_lines(lines: &mut Vec<String>) {
    for seed in [0u64, 0x5eed_1234_abcd, u64::MAX] {
        for (name, (h32, h64)) in [
            ("ChaCha8Rng", word_digests::<ChaCha8Rng>(seed)),
            ("ChaCha12Rng", word_digests::<ChaCha12Rng>(seed)),
            ("ChaCha20Rng", word_digests::<ChaCha20Rng>(seed)),
        ] {
            lines.push(format!(
                "{{\"gen\":\"chacha\",\"rng\":\"{name}\",\"seed\":{seed},\"words\":4096,\
                 \"fnv_u32\":\"{h32:016x}\",\"fnv_u32_u64\":\"{h64:016x}\"}}"
            ));
        }
    }
    let mut r = ChaCha12Rng::seed_from_u64(11);
    let mut h = FNV_OFFSET;
    for _ in 0..256 {
        let draws = [
            r.gen_range(0..=u64::MAX),
            r.gen_range(i64::MIN..=i64::MAX) as u64,
            r.gen_range(0..u64::MAX),
            r.gen_range(1..=u64::MAX - 1),
            r.gen_range(u64::MAX / 2..u64::MAX),
            r.gen_range(i64::MIN..i64::MAX) as u64,
            r.gen_range(0..3u64 << 62),
            r.gen_range(-5i64..=5) as u64,
            r.gen_range(0..12usize) as u64,
        ];
        for d in draws {
            h = fnv1a(&d.to_le_bytes(), h);
        }
    }
    lines.push(format!(
        "{{\"gen\":\"range\",\"rng\":\"ChaCha12Rng\",\"seed\":11,\"draws\":2304,\"fnv\":\"{h:016x}\"}}"
    ));
}

#[test]
fn generators_match_golden() {
    let mut lines = Vec::new();
    mixed_lines(&mut lines);
    pattern_lines(&mut lines);
    storm_lines(&mut lines);
    stream_lines(&mut lines);
    fault_set_lines(&mut lines);
    chacha_lines(&mut lines);
    let mut actual = lines.join("\n");
    actual.push('\n');

    let golden = "generators.jsonl";
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden);
        std::fs::write(&out, &actual).expect("write actual output");
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or("a missing or extra line".to_string(), |i| {
                format!("line {}: {}", i + 1, lines[i])
            });
        panic!(
            "{golden} differs at {first}; actual output written to {}",
            out.display()
        );
    }
}
