//! End-to-end tournament runs: determinism, compatibility skips,
//! deadlock witnesses, and attribution shares.

use mdx_campaign::{run_scenario, Scenario};
use mdx_tournament::{run_tournament, TournamentSpec};

fn small_zoo_spec() -> TournamentSpec {
    TournamentSpec::parse(
        "scheme sr2201 naive-broadcast hyperx-ft fullmesh-vcfree hypercube-avoid\n\
         topology mdx:3x3 hyperx:3x3 fullmesh:6 hypercube:2x2x2\n\
         faults none router\n\
         workload mixed rate=0.05 flits=8 window=100 bc=0.004\n\
         seeds 1\n\
         max-cycles 6000\n",
    )
    .unwrap()
}

#[test]
fn tournament_replays_byte_identically() {
    let spec = small_zoo_spec();
    let a = run_tournament(&spec);
    let b = run_tournament(&spec);
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "same spec, same bytes");
    assert_eq!(a.cells.len(), spec.num_cells());
}

#[test]
fn incompatible_cells_are_explicit_skips() {
    let spec = TournamentSpec::parse(
        "scheme sr2201 hyperx-ft\n\
         topology mdx:3x3 hyperx:3x3\n\
         faults none xbar\n\
         seeds 1\n\
         max-cycles 2000\n",
    )
    .unwrap();
    let t = run_tournament(&spec);
    // hyperx-ft on mdx (and sr2201 on hyperx) must be skips naming the
    // required topology; xbar faults off-mdx must be skips too.
    let cell = |scheme: &str, topo: &str, faults: &str| {
        t.cells
            .iter()
            .find(|c| c.scheme == scheme && c.topology == topo && c.faults == faults)
            .unwrap()
    };
    let wrong_topo = cell("hyperx-ft", "mdx", "none");
    assert_eq!(wrong_topo.status, "skip");
    assert!(
        wrong_topo
            .skip_reason
            .as_deref()
            .unwrap()
            .contains("hyperx"),
        "{:?}",
        wrong_topo.skip_reason
    );
    assert_eq!(cell("sr2201", "hyperx", "none").status, "skip");
    let xbar_off_mdx = cell("hyperx-ft", "hyperx", "xbar");
    assert_eq!(xbar_off_mdx.status, "skip");
    assert!(
        xbar_off_mdx
            .skip_reason
            .as_deref()
            .unwrap()
            .contains("crossbar"),
        "{:?}",
        xbar_off_mdx.skip_reason
    );
    // The compatible corners actually ran.
    assert_eq!(cell("sr2201", "mdx", "none").status, "ok");
    assert_eq!(cell("sr2201", "mdx", "xbar").status, "ok");
    assert_eq!(cell("hyperx-ft", "hyperx", "none").status, "ok");
}

#[test]
fn deadlock_cells_carry_replayable_witnesses() {
    // Unserialized broadcast under a storm is the paper's Fig. 5
    // deadlock; its cell must report it and ship a shrunken witness.
    let spec = TournamentSpec::parse(
        "scheme sr2201 naive-broadcast\n\
         topology mdx:3x3\n\
         faults none\n\
         workload storm flits=16\n\
         seeds 1\n\
         max-cycles 4000\n",
    )
    .unwrap();
    let t = run_tournament(&spec);
    let naive = t
        .cells
        .iter()
        .find(|c| c.scheme == "naive-broadcast")
        .unwrap();
    assert!(naive.deadlock_rate > 0.0, "{naive:?}");
    let w = naive.witness.as_ref().expect("deadlock cell has a witness");
    assert!(w.cycle_len >= 2);
    let replay = run_scenario(&Scenario::from_token(&w.token).unwrap()).unwrap();
    assert_eq!(replay.outcome, "deadlock", "witness must replay");

    // The paper's scheme survives the same storm.
    let sr = t.cells.iter().find(|c| c.scheme == "sr2201").unwrap();
    assert_eq!(sr.deadlocks, 0, "{sr:?}");
    assert!(sr.witness.is_none());

    // The rendered table carries both rows and the witness line.
    let table = t.render();
    assert!(table.contains("naive-broadcast"), "{table}");
    assert!(table.contains("witness:"), "{table}");
}

#[test]
fn executed_cells_have_sane_reductions() {
    let t = run_tournament(&small_zoo_spec());
    let mut ran = 0;
    for c in t.ok_cells() {
        ran += 1;
        assert_eq!(c.runs, 1, "{c:?}");
        assert!((0.0..=1.0).contains(&c.deadlock_rate));
        assert!((0.0..=1.0).contains(&c.blocked_share), "{c:?}");
        assert!((0.0..=1.0).contains(&c.detour_share), "{c:?}");
        // Blocked and detour-transfer are disjoint phases of the same
        // conserved latency decomposition.
        assert!(c.blocked_share + c.detour_share <= 1.0 + 1e-9, "{c:?}");
        if c.delivered > 0 {
            assert!(c.throughput > 0.0, "{c:?}");
            let (p50, p95, p99) = (c.p50.unwrap(), c.p95.unwrap(), c.p99.unwrap());
            assert!(p50 <= p95 && p95 <= p99, "{c:?}");
        }
    }
    // Every scheme's home-topology cells ran: 5 schemes x 2 fault
    // classes (sr2201 and naive-broadcast share mdx).
    assert_eq!(ran, 10, "{}", t.render());

    // The multi-VC comparator ran under the per-lane channel model and
    // made progress on its own substrate.
    let hx = t
        .ok_cells()
        .find(|c| c.scheme == "hyperx-ft" && c.faults == "router")
        .expect("hyperx-ft router cell runs");
    assert!(hx.delivered > 0, "{hx:?}");
    assert_eq!(hx.deadlocks, 0, "{hx:?}");
}

#[test]
fn out_of_range_workload_numbers_are_line_numbered_errors() {
    // Each of these once panicked a cell at run time (a zero-flit packet
    // in the engine, a probability outside [0, 1] in the generator).
    for (workload, what) in [
        ("storm flits=0", "flits must be at least 1"),
        ("mixed rate=-1", "rate must be a probability"),
        ("mixed rate=NaN", "rate must be a probability"),
        ("mixed rate=inf", "rate must be a probability"),
        ("mixed bc=5", "broadcast_rate must be a probability"),
    ] {
        let err =
            TournamentSpec::parse(&format!("seeds 1\nworkload {workload}\n")).expect_err(workload);
        assert_eq!(err.line, 2, "{workload}: {err}");
        assert!(err.message.contains(what), "{workload}: {err}");
    }
}
