//! Experiment driver: regenerates the paper's figure-level results.
//!
//! ```text
//! experiments all             # every experiment, in order
//! experiments fig5-bc-deadlock fig6-sxb-broadcast
//! experiments --list
//! experiments --json results/ all
//! ```

use mdx_bench::{experiment_ids, run_experiment};
use std::io::Write;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
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
