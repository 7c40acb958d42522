//! Experiment driver: regenerates the paper's figure-level results.
//!
//! ```text
//! experiments all             # every experiment, in order
//! experiments fig5-bc-deadlock fig6-sxb-broadcast
//! experiments --list
//! experiments --json results/ all
//! experiments trajectory --dir .          # append BENCH_*.json snapshots
//! experiments trajectory --fail-on-regression
//! experiments sentinel --dir .            # median/MAD scan of BENCH_*.json
//! experiments sentinel file.json
//! ```

use mdx_bench::{experiment_ids, run_experiment, TrajectoryEntry};
use std::io::Write;
use std::path::Path;

/// A sweep that measures one trajectory entry.
type Snapshot = fn() -> TrajectoryEntry;

/// The trajectory series and the sweep that extends each.
const SERIES: [(&str, Snapshot); 3] = [
    ("BENCH_fig9.json", mdx_bench::snapshot_fig9),
    ("BENCH_fig10.json", mdx_bench::snapshot_fig10),
    ("BENCH_tournament.json", mdx_bench::snapshot_tournament),
];

/// Splits `--dir DIR` (default `.`) off a subcommand's arguments.
fn take_dir(args: &[String]) -> (String, Vec<&str>) {
    let mut dir = ".".to_string();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a != "--dir" {
            rest.push(a.as_str());
        } else if let Some(d) = it.next() {
            dir = d.clone();
        } else {
            eprintln!("--dir requires a directory");
            std::process::exit(2);
        }
    }
    (dir, rest)
}

/// `experiments trajectory [--dir DIR] [--fail-on-regression]`: runs the
/// scaled-down fig9/fig10 sweeps and the default cross-scheme tournament
/// grid, appends one snapshot each to `BENCH_fig9.json` /
/// `BENCH_fig10.json` / `BENCH_tournament.json` under DIR, and prints the
/// sentinel's report on each grown file, or that the append was skipped
/// because the snapshot equals the file's last entry. Every snapshot
/// records the sweep's wall-clock seconds (reported here, never judged).
fn cmd_trajectory(args: &[String]) -> ! {
    let (dir, rest) = take_dir(args);
    let mut fail_on_regression = false;
    for a in rest {
        match a {
            "--fail-on-regression" => fail_on_regression = true,
            other => {
                eprintln!("unknown trajectory flag: {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&dir).expect("create trajectory dir");
    let mut regressions = 0usize;
    for (file, snapshot) in SERIES {
        let entry = snapshot();
        let path = Path::new(&dir).join(file);
        let (figure, wall) = (entry.figure.clone(), entry.wall_clock_s);
        match mdx_bench::append_snapshot(&path, entry).expect("append snapshot") {
            Some(report) => {
                print!("{}", report.render());
                regressions += report.regressions;
            }
            None => println!("{figure}: snapshot identical to the previous entry; append skipped"),
        }
        println!("  -> {} (sweep took {wall:.1}s)", path.display());
    }
    if fail_on_regression && regressions > 0 {
        eprintln!("trajectory: {regressions} confirmed regression(s)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `experiments sentinel [--dir DIR] [FILE..]`: scans each trajectory file
/// (explicit FILEs, or the `BENCH_*.json` series under DIR, skipping
/// absent ones) with the median/MAD changepoint detector and exits nonzero
/// on any confirmed regression. Unlike `trajectory`, this runs no sweeps —
/// it judges the committed history as it stands, so CI can gate on it
/// cheaply.
fn cmd_sentinel(args: &[String]) -> ! {
    let (dir, rest) = take_dir(args);
    let mut files: Vec<String> = Vec::new();
    for a in rest {
        if a.starts_with("--") {
            eprintln!("unknown sentinel flag: {a}");
            std::process::exit(2);
        }
        files.push(a.to_string());
    }
    if files.is_empty() {
        for (f, _) in SERIES {
            let p = Path::new(&dir).join(f);
            if p.exists() {
                files.push(p.display().to_string());
            }
        }
        if files.is_empty() {
            eprintln!("sentinel: no BENCH_*.json under {dir}");
            std::process::exit(2);
        }
    }
    let mut regressions = 0usize;
    for f in &files {
        match mdx_bench::scan_path(Path::new(f)) {
            Ok(report) => {
                print!("{}", report.render());
                regressions += report.regressions;
            }
            Err(e) => {
                eprintln!("sentinel: {f}: {e}");
                std::process::exit(2);
            }
        }
    }
    if regressions > 0 {
        eprintln!("sentinel: {regressions} confirmed regression(s)");
        std::process::exit(1);
    }
    println!("sentinel: clean ({} file(s))", files.len());
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sentinel") {
        cmd_sentinel(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trajectory") {
        cmd_trajectory(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        for id in experiment_ids() {
            println!("{id}");
        }
        return;
    }
    let json_dir = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            if i < args.len() {
                Some(args.remove(i))
            } else {
                eprintln!("--json requires a directory");
                std::process::exit(2);
            }
        }
        None => None,
    };
    if args.is_empty() {
        eprintln!("usage: experiments [--json DIR] (all | <id>...); --list shows ids");
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiment_ids()
    } else {
        let known = experiment_ids();
        for a in &args {
            if !known.contains(&a.as_str()) {
                eprintln!("unknown experiment id: {a} (try --list)");
                std::process::exit(2);
            }
        }
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in ids {
        let start = std::time::Instant::now();
        let tables = run_experiment(id);
        for t in &tables {
            println!("{}", t.render());
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("create json dir");
                let path = format!("{dir}/{}.json", t.id);
                let mut f = std::fs::File::create(&path).expect("create json file");
                let body = serde_json::to_string_pretty(t).expect("serialize table");
                f.write_all(body.as_bytes()).expect("write json");
            }
        }
        eprintln!(
            "[{} finished in {:.1}s]\n",
            id,
            start.elapsed().as_secs_f64()
        );
    }
}
