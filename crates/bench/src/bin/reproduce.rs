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
//!
//! Exit codes: 0 on success, 1 when an experiment id is unknown, 2 for the
//! usage text (no experiment selected, or a flag other than `--list`,
//! `--json`, `--help` and `-h`, checked before anything runs).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: reproduce [--list] [--json] <all | experiment-id ...>";

/// What a command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the usage text and exit with this code: 0 for `--help`, 2 for
    /// no experiment or an unknown flag.
    Usage(i32),
    /// Print the experiment ids.
    List,
    /// Run these experiments, reporting JSON when `json` is set.
    Run { json: bool, ids: Vec<String> },
}

/// Read the arguments (program name excluded). Every argument that starts
/// with `-` must be a known flag, so a mistyped or removed one fails before
/// anything runs instead of being ignored next to `all`.
fn parse_args(args: &[String]) -> Command {
    const FLAGS: [&str; 4] = ["--list", "--json", "--help", "-h"];
    if args.is_empty()
        || args
            .iter()
            .any(|a| a.starts_with('-') && !FLAGS.contains(&a.as_str()))
    {
        return Command::Usage(2);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Command::Usage(0);
    }
    if args.iter().any(|a| a == "--list") {
        return Command::List;
    }
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    if ids.is_empty() {
        // Flags alone select no experiments; bail like the no-args case
        // instead of silently succeeding (and clobbering summary.json).
        return Command::Usage(2);
    }
    let ids = if ids.iter().any(|a| a == "all") {
        estima_bench::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        ids
    };
    Command::Run { json, ids }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (json, ids) = match parse_args(&args) {
        Command::Usage(code) => {
            eprintln!("{USAGE}");
            eprintln!("experiments: {}", estima_bench::all_ids().join(", "));
            std::process::exit(code);
        }
        Command::List => {
            for id in estima_bench::all_ids() {
                println!("{id}");
            }
            return;
        }
        Command::Run { json, ids } => (json, ids),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Command {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn unknown_flags_are_refused_before_anything_runs() {
        assert_eq!(parse("--bogus all"), Command::Usage(2));
        // `--quick` was removed; it must not run full mode silently.
        assert_eq!(parse("--quick all"), Command::Usage(2));
        assert_eq!(parse("table2 --bogus"), Command::Usage(2));
        assert_eq!(parse(""), Command::Usage(2));
        assert_eq!(parse("--json"), Command::Usage(2));
    }

    #[test]
    fn known_flags_keep_their_meaning() {
        let all: Vec<String> = estima_bench::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse("--json all"),
            Command::Run {
                json: true,
                ids: all.clone()
            }
        );
        assert_eq!(
            parse("table2 --json"),
            Command::Run {
                json: true,
                ids: vec!["table2".to_string()]
            }
        );
        assert_eq!(
            parse("table4 fig8"),
            Command::Run {
                json: false,
                ids: vec!["table4".to_string(), "fig8".to_string()]
            }
        );
        assert_eq!(
            parse("all"),
            Command::Run {
                json: false,
                ids: all
            }
        );
        assert_eq!(parse("--list table2"), Command::List);
        assert_eq!(parse("all -h"), Command::Usage(0));
    }
}
