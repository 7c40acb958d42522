//! Schema/compat contract for the committed `BENCH_*.json` trajectory
//! files: every committed file (including rows written by older releases
//! that lack newer columns) must keep parsing leniently, timestamps must
//! stay monotonic under append, the regression sentinel must come up
//! clean on the history as committed, and an append must be judged
//! exactly as the sentinel judges the grown file — so a PR that breaks the
//! format, or one that lands a real perf/correctness regression, fails
//! here rather than in a figure run weeks later.

use mdx_bench::{append_snapshot, scan_file, scan_path, TrajectoryEntry, TrajectoryFile};
use std::path::{Path, PathBuf};

const BENCH_FILES: &[&str] = &[
    "BENCH_fig9.json",
    "BENCH_fig10.json",
    "BENCH_tournament.json",
];

/// The repo root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn committed_files() -> Vec<(String, TrajectoryFile)> {
    BENCH_FILES
        .iter()
        .filter_map(|name| {
            let path = repo_root().join(name);
            let body = std::fs::read_to_string(&path).ok()?;
            let file: TrajectoryFile = serde_json::from_str(&body)
                .unwrap_or_else(|e| panic!("{name} no longer parses: {e}"));
            Some((name.to_string(), file))
        })
        .collect()
}

#[test]
fn committed_bench_files_parse_and_are_internally_consistent() {
    let files = committed_files();
    assert!(
        !files.is_empty(),
        "no committed BENCH_*.json found at the repo root"
    );
    for (name, file) in &files {
        assert!(!file.entries.is_empty(), "{name} has no entries");
        for e in &file.entries {
            assert_eq!(&e.figure, &file.figure, "{name}: entry/figure mismatch");
            assert!(e.scenarios > 0, "{name}: entry with zero scenarios");
            assert!(
                (0.0..=1.0).contains(&e.deadlock_rate),
                "{name}: deadlock_rate out of range"
            );
            assert!(
                (0.0..=1.0).contains(&e.completed_rate),
                "{name}: completed_rate out of range"
            );
            assert!(e.throughput.is_finite() && e.throughput >= 0.0, "{name}");
        }
    }
}

#[test]
fn committed_timestamps_are_monotonic_and_appends_keep_them_so() {
    for (name, file) in committed_files() {
        for w in file.entries.windows(2) {
            assert!(
                w[0].recorded_at_epoch_s <= w[1].recorded_at_epoch_s,
                "{name}: recorded_at_epoch_s went backwards"
            );
        }
        // Appending a genuinely new measurement through the real append
        // path keeps the invariant: the fresh entry's clock stamp is never
        // earlier than the committed history.
        let tmp = std::env::temp_dir().join(format!(
            "mdx-bench-compat-{}-{}-{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&tmp, serde_json::to_string_pretty(&file).unwrap()).unwrap();
        let last = file.entries.last().unwrap();
        let mut next = last.clone();
        next.recorded_at_epoch_s = last.recorded_at_epoch_s + 60;
        next.throughput *= 1.01; // a new measurement, not a duplicate
        let report = append_snapshot(&tmp, next).unwrap();
        assert!(report.is_some(), "{name}: a new measurement was skipped");
        let back: TrajectoryFile =
            serde_json::from_str(&std::fs::read_to_string(&tmp).unwrap()).unwrap();
        assert_eq!(back.entries.len(), file.entries.len() + 1, "{name}");
        for w in back.entries.windows(2) {
            assert!(w[0].recorded_at_epoch_s <= w[1].recorded_at_epoch_s);
        }
        let _ = std::fs::remove_file(&tmp);
    }
}

#[test]
fn legacy_rows_without_newer_columns_still_parse() {
    // A file exactly as the first trajectory release wrote it: no
    // wall_clock_s, no engine-profile columns, no span tails. The lenient
    // parser zero-fills them instead of bricking the committed history.
    let legacy = r#"{
        "figure": "fig9",
        "entries": [{
            "figure": "fig9",
            "recorded_at_epoch_s": 1700000000,
            "scenarios": 224,
            "deadlock_rate": 0.1,
            "completed_rate": 0.9,
            "throughput": 9.7,
            "mean_latency": 41.8,
            "p95_latency": 41.8,
            "sxb_util": 0.31
        }]
    }"#;
    let file: TrajectoryFile = serde_json::from_str(legacy).expect("legacy file parses");
    let e = &file.entries[0];
    assert_eq!(e.wall_clock_s, 0.0);
    assert_eq!(e.idle_tick_fraction, 0.0);
    assert_eq!(e.cycles_per_sec, 0.0);
    assert_eq!(e.p99_queue_wait_s, 0.0);
    assert_eq!(e.p99_engine_run_s, 0.0);
    // And a modern entry round-trips every column.
    let modern: TrajectoryEntry = serde_json::from_str(&serde_json::to_string(e).unwrap()).unwrap();
    assert_eq!(&modern, e);
}

#[test]
fn committed_fig9_entries_reserialize_as_golden() {
    // The committed fig9 entries predate the p99 span columns: they must
    // read back zero-filled and re-serialize byte for byte as the golden
    // (generated once, never regenerated). Entries appended later are not
    // covered, so the golden stays a prefix of the file.
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trajectory_fig9.jsonl");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let body = std::fs::read_to_string(repo_root().join("BENCH_fig9.json")).expect("fig9 file");
    let file: TrajectoryFile = serde_json::from_str(&body).expect("fig9 file parses");
    let n = match golden.lines().count() {
        0 => file.entries.len(),
        n => n,
    };
    let actual: String = file
        .entries
        .iter()
        .take(n)
        .map(|e| serde_json::to_string(e).expect("entry serializes") + "\n")
        .collect();
    if actual != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trajectory_fig9.jsonl");
        std::fs::write(&out, &actual).expect("write actual output");
        panic!(
            "fig9 entries differ from {}; actual output written to {}",
            golden_path.display(),
            out.display()
        );
    }
}

#[test]
fn sentinel_is_clean_on_the_committed_history() {
    for (name, file) in committed_files() {
        let report = scan_path(&repo_root().join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.regressions,
            0,
            "{name}: committed history flags a regression: {}",
            report.render()
        );
        // The path and in-memory scans agree.
        assert_eq!(report, scan_file(&file), "{name}");
    }
}

#[test]
fn append_judges_a_collapse_as_the_sentinel_judges_the_grown_file() {
    // Six stable snapshots with mild jitter, then one where throughput
    // collapses and deadlocks appear.
    let entry = |i: u64, throughput: f64, deadlock_rate: f64| TrajectoryEntry {
        figure: "fig9".to_string(),
        recorded_at_epoch_s: 1_700_000_000 + i,
        wall_clock_s: 1.0,
        scenarios: 224,
        deadlock_rate,
        completed_rate: 1.0 - deadlock_rate,
        throughput,
        mean_latency: 40.0,
        p95_latency: 80.0,
        sxb_util: 0.3,
        idle_tick_fraction: 0.3,
        cycles_per_sec: 0.0,
        p99_queue_wait_s: 0.0,
        p99_engine_run_s: 0.0,
    };
    let history = TrajectoryFile {
        figure: "fig9".to_string(),
        entries: [2.00, 2.02, 1.98, 2.01, 1.99, 2.00]
            .iter()
            .enumerate()
            .map(|(i, &t)| entry(i as u64, t, 0.0))
            .collect(),
    };
    let tmp = std::env::temp_dir().join(format!(
        "mdx-bench-collapse-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&tmp, serde_json::to_string_pretty(&history).unwrap()).unwrap();

    let report = append_snapshot(&tmp, entry(6, 1.0, 0.25))
        .unwrap()
        .expect("a new measurement is appended");
    let grown: TrajectoryFile =
        serde_json::from_str(&std::fs::read_to_string(&tmp).unwrap()).unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(grown.entries.len(), 7);
    assert_eq!(report, scan_file(&grown));
    assert!(!report.skipped);
    let flagged: Vec<&str> = report
        .verdicts
        .iter()
        .filter(|v| v.regression)
        .map(|v| v.metric.as_str())
        .collect();
    assert_eq!(
        flagged,
        ["deadlock_rate", "completed_rate", "throughput"],
        "{}",
        report.render()
    );
}
