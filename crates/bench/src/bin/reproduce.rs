//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce all                  # every experiment
//! reproduce table4 fig8          # a selection
//! reproduce --list               # available experiment ids
//! reproduce --json all           # machine-readable per-experiment metrics
//! ```
//!
//! Each report is printed to stdout and also written to
//! `target/experiments/<id>.md`. With `--json` the stdout output is one JSON
//! object per experiment (max relative errors etc.) and the collected array
//! is written to `target/experiments/summary.json`, so accuracy regressions
//! can be tracked across commits. Per-experiment and total wall-clock go to
//! stderr as a coarse perf trace.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: reproduce [--list] [--json] <all | experiment-id ...>");
        eprintln!("experiments: {}", estima_bench::all_ids().join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in estima_bench::all_ids() {
            println!("{id}");
        }
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.is_empty() {
        // Flags alone select no experiments; bail like the no-args case
        // instead of silently succeeding (and clobbering summary.json).
        eprintln!("usage: reproduce [--list] [--json] <all | experiment-id ...>");
        std::process::exit(2);
    }

    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        estima_bench::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };

    let out_dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    }

    let total_start = Instant::now();
    let mut failures = 0;
    let mut json_lines = Vec::new();
    for id in &ids {
        eprintln!("==> running {id}");
        let start = Instant::now();
        match estima_bench::run(id) {
            Some(report) => {
                let markdown = report.to_markdown();
                if json {
                    let line = report.to_json();
                    println!("{line}");
                    json_lines.push(line);
                } else {
                    println!("{markdown}");
                }
                let path = out_dir.join(format!("{id}.md"));
                match std::fs::File::create(&path) {
                    Ok(mut file) => {
                        if let Err(e) = file.write_all(markdown.as_bytes()) {
                            eprintln!("warning: failed to write {}: {e}", path.display());
                        }
                    }
                    Err(e) => eprintln!("warning: failed to create {}: {e}", path.display()),
                }
                eprintln!("    {id} took {:.2}s", start.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("error: unknown experiment id `{id}`");
                failures += 1;
            }
        }
    }
    if json {
        let summary = format!("[{}]\n", json_lines.join(",\n"));
        let path = out_dir.join("summary.json");
        if let Err(e) = std::fs::write(&path, summary) {
            eprintln!("warning: failed to write {}: {e}", path.display());
        }
    }
    let (cache_hits, cache_misses, cache_entries) = estima_bench::harness::shared_fit_cache_stats();
    eprintln!(
        "reproduce: {} experiment(s) in {:.2}s wall-clock; shared fit cache: {} hits / {} misses ({} series)",
        ids.len() - failures,
        total_start.elapsed().as_secs_f64(),
        cache_hits,
        cache_misses,
        cache_entries,
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
