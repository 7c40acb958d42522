//! Golden tournament tables: three committed grids whose JSONL is compared
//! byte for byte against `tests/golden/*.jsonl`. The goldens are never
//! regenerated to make a change pass; a moved byte is a changed table.
//!
//! `zoo.spec` runs every registered scheme on its home topology (plus
//! the skips of every other pairing) under `none`, `router` and `xbar`
//! faults with mixed and storm traffic, two seeds per cell. Its
//! naive-broadcast cells deadlock and carry shrunken witnesses, one from
//! a cell where only the second seed deadlocked.
//!
//! `edges.spec` covers the skip paths that need a run to decide:
//!
//! * a cell whose every seed fails to configure (`sr2201` on `mdx:3x1`
//!   with a router fault), whose reason names the lowest seed's
//!   scenario;
//! * a topology that rejects its shape (`hypercube:3x2`).
//!
//! `default.spec` sets no directive, so it is the grid a bare
//! `TournamentSpec::parse("")` builds: every scheme on `mdx:4x3`,
//! `hyperx:3x3`, `fullmesh:6` and `hypercube:2x2x2`, `none` and `router`
//! faults, one mixed workload, two seeds.

use mdx_tournament::{run_tournament, TournamentSpec};

fn assert_golden(spec: &str, golden: &str, name: &str) {
    let spec = TournamentSpec::parse(spec).expect("golden spec parses");
    let got = run_tournament(&spec).to_jsonl();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "a line count".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{name}: the tournament table moved ({first} differs; {} lines, golden {})",
            got.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn the_zoo_table_matches_its_golden() {
    assert_golden(
        include_str!("golden/zoo.spec"),
        include_str!("golden/zoo.jsonl"),
        "zoo",
    );
}

#[test]
fn the_skip_paths_match_their_golden() {
    assert_golden(
        include_str!("golden/edges.spec"),
        include_str!("golden/edges.jsonl"),
        "edges",
    );
}

#[test]
fn the_default_grid_matches_its_golden() {
    let spec = include_str!("golden/default.spec");
    assert_eq!(
        TournamentSpec::parse(spec).expect("golden spec parses"),
        TournamentSpec::parse("").expect("the empty spec parses"),
        "default.spec must be the default grid"
    );
    assert_golden(spec, include_str!("golden/default.jsonl"), "default");
}
