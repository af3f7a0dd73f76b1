//! Offline shim for the real `criterion` crate.
//!
//! Implements just the API surface the workspace benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`Bencher::iter`],
//! [`black_box`], and the [`criterion_group!`] / [`criterion_main!`] macros —
//! backed by a simple wall-clock timing loop instead of criterion's
//! statistical machinery. Each benchmark warms up briefly, then runs batches
//! until a small time budget is spent and reports the minimum, median and
//! standard deviation of the per-batch ns/iter samples, so numbers are
//! comparable run-to-run (the minimum alone is a lower bound, not a summary).
//!
//! Passing `--quick` on the bench command line (`cargo bench -- --quick`) or
//! setting `ESTIMA_BENCH_QUICK=1` shrinks the time budgets ~4x for CI smoke
//! runs. When `ESTIMA_BENCH_QUICK` is set at all it takes precedence over
//! the command line: `1` (or any value other than `0`) forces quick mode,
//! `0` forces full budgets even if `--quick` was passed. The env var exists
//! because `cargo bench --workspace` cannot forward `--quick` (library
//! targets' libtest harnesses reject unknown flags), so CI flips the whole
//! workspace through the environment.
//!
//! Besides the console lines, every bench binary merges its results into a
//! machine-readable `target/criterion/summary.json` (one record per
//! benchmark with min/median/stddev ns-per-iter, or an externally
//! [`record`]ed figure in the unit the record names), keyed by benchmark
//! name so the workspace's several bench binaries accumulate into one file
//! and perf trajectories can be tracked across commits. Set `ESTIMA_CRITERION_DIR` to
//! redirect the output directory.
//!
//! Swap in real criterion by pointing the `criterion` dev-dependency at
//! crates.io; the bench sources need no edits.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's summary statistics, as written to
/// `target/criterion/summary.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark label (`group/id`).
    pub name: String,
    /// Unit of `min_ns`, `median_ns` and `stddev_ns`: `"ns"` for timings
    /// (every timing-loop benchmark); an externally [`record`]ed figure
    /// names its own, such as `"req/s"`, `"%"` or `"count"`. The fields keep
    /// their `_ns` names so existing readers of the summary still work.
    pub unit: String,
    /// Minimum ns/iter across batches.
    pub min_ns: f64,
    /// Median ns/iter across batches.
    pub median_ns: f64,
    /// Population standard deviation of the per-batch ns/iter samples.
    pub stddev_ns: f64,
    /// Total iterations run.
    pub iters: u64,
    /// Number of timed batches.
    pub batches: u64,
}

/// Results of every benchmark this process has run so far.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// True when the process was started in smoke mode. `ESTIMA_BENCH_QUICK`
/// takes precedence when set (`0` = full budgets, anything else = quick);
/// otherwise `--quick` on the command line enables quick mode.
fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| match std::env::var_os("ESTIMA_BENCH_QUICK") {
        Some(value) => value != "0",
        None => std::env::args().any(|a| a == "--quick"),
    })
}

/// Per-benchmark measurement budget (shrunk in `--quick` mode).
fn measure_budget() -> Duration {
    if quick_mode() {
        Duration::from_millis(15)
    } else {
        Duration::from_millis(60)
    }
}

/// Warm-up budget before measurement starts.
fn warmup_budget() -> Duration {
    if quick_mode() {
        Duration::from_millis(3)
    } else {
        Duration::from_millis(10)
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Mirror of `Criterion::configure_from_args` — the shim takes no
    /// command-line configuration, so this is the identity.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{id}"), f);
        self
    }
}

/// A named collection of benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's fixed time budget ignores
    /// the requested sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim keeps its fixed budget.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmark a closure under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), f);
        self
    }

    /// Benchmark a closure that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id), |b| f(b, input));
        self
    }

    /// Finish the group. (The shim reports per-benchmark, so this is a no-op.)
    pub fn finish(self) {}
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// A function name plus a parameter, rendered `name/parameter`.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{function_name}/{parameter}"),
        }
    }

    /// A parameter-only identifier.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    /// Per-batch ns/iter samples; the printed min/median/stddev summarize
    /// this distribution.
    samples: Vec<f64>,
}

impl Bencher {
    /// Call `routine` repeatedly, timing batches, until the measurement
    /// budget is exhausted.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and size the batch so one batch is neither a single
        // ultra-short call nor longer than the whole budget.
        let warmup = warmup_budget();
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < warmup {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warmup.as_secs_f64() / warm_iters.max(1) as f64;
        let batch = ((0.005 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let budget = measure_budget();
        let start = Instant::now();
        while start.elapsed() < budget {
            let batch_start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let batch_time = batch_start.elapsed();
            self.iters_done += batch;
            self.samples
                .push(batch_time.as_secs_f64() * 1e9 / batch as f64);
        }
        self.elapsed = start.elapsed();
    }
}

/// Median of a sample set (mean of the middle pair for even counts).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Population standard deviation of a sample set.
fn std_dev(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let variance = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
    variance.sqrt()
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut bencher = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if bencher.iters_done == 0 || bencher.samples.is_empty() {
        println!("bench {label:<50} (no iterations run)");
    } else {
        let min = bencher
            .samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let median = median(&bencher.samples);
        let stddev = std_dev(&bencher.samples);
        println!(
            "bench {label:<50} min {min:>12.1} ns/iter, median {median:>12.1}, stddev {stddev:>10.1} ({} iters, {} batches)",
            bencher.iters_done,
            bencher.samples.len(),
        );
        RESULTS.lock().unwrap().push(BenchRecord {
            name: label.to_string(),
            unit: "ns".into(),
            min_ns: min,
            median_ns: median,
            stddev_ns: stddev,
            iters: bencher.iters_done,
            batches: bencher.samples.len() as u64,
        });
    }
}

/// Directory the machine-readable summary is written to: the
/// `ESTIMA_CRITERION_DIR` override, or `<workspace>/target/criterion` found
/// by walking up from the current directory (cargo runs bench binaries from
/// the package root, which is below the workspace target dir).
fn summary_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("ESTIMA_CRITERION_DIR") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let target = dir.join("target");
        if target.is_dir() {
            return target.join("criterion");
        }
        if !dir.pop() {
            return PathBuf::from("target/criterion");
        }
    }
}

/// Render records as a JSON array (one object per benchmark).
fn render_summary(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (index, r) in records.iter().enumerate() {
        if index > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":{},\"unit\":{},\"min_ns\":{:.1},\"median_ns\":{:.1},\"stddev_ns\":{:.1},\"iters\":{},\"batches\":{}}}",
            quote(&r.name),
            quote(&r.unit),
            r.min_ns,
            r.median_ns,
            r.stddev_ns,
            r.iters,
            r.batches
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Parse a summary previously written by [`render_summary`]. Tolerant: a
/// malformed file yields an empty list (the summary is regenerated), and a
/// record from before records carried a unit reads as `"ns"`.
fn parse_summary(text: &str) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.ends_with('}') {
            continue;
        }
        let body = &line[1..line.len() - 1];
        let mut record = BenchRecord {
            name: String::new(),
            unit: "ns".into(),
            min_ns: f64::NAN,
            median_ns: f64::NAN,
            stddev_ns: f64::NAN,
            iters: 0,
            batches: 0,
        };
        // Fields are comma-separated `"key":value` pairs; the only string
        // values are the name and the unit, which our writer escapes.
        for field in split_top_level_fields(body) {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "name" => record.name = unquote(value),
                "unit" => record.unit = unquote(value),
                "min_ns" => record.min_ns = value.parse().unwrap_or(f64::NAN),
                "median_ns" => record.median_ns = value.parse().unwrap_or(f64::NAN),
                "stddev_ns" => record.stddev_ns = value.parse().unwrap_or(f64::NAN),
                "iters" => record.iters = value.parse().unwrap_or(0),
                "batches" => record.batches = value.parse().unwrap_or(0),
                _ => {}
            }
        }
        if !record.name.is_empty() {
            records.push(record);
        }
    }
    records
}

/// A string value as [`render_summary`] writes it: quoted and escaped.
fn quote(value: &str) -> String {
    format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The inverse of [`quote`].
fn unquote(value: &str) -> String {
    let unquoted = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(value);
    unquoted.replace("\\\"", "\"").replace("\\\\", "\\")
}

/// Split `"key":value` fields on commas that are not inside a quoted string.
fn split_top_level_fields(body: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
}

/// Record an externally measured result so [`write_summary`] merges it into
/// `target/criterion/summary.json` alongside the timing-loop benchmarks.
///
/// This is a shim extension (real criterion has no equivalent): the
/// `loadgen` binary in `estima-bench` measures request latencies itself —
/// per-request, client-side — and reports throughput/percentiles through
/// this entry point so perf trajectories live in one file.
pub fn record(record: BenchRecord) {
    RESULTS.lock().unwrap().push(record);
}

/// Merge this process's benchmark results into
/// `target/criterion/summary.json` (keyed by benchmark name, so the several
/// bench binaries of a `cargo bench` run accumulate into one file). Called by
/// the [`criterion_main!`]-generated `main` after all groups have run.
pub fn write_summary() {
    let records = RESULTS.lock().unwrap();
    if records.is_empty() {
        return;
    }
    let dir = summary_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("criterion shim: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("summary.json");
    let mut merged = std::fs::read_to_string(&path)
        .map(|text| parse_summary(&text))
        .unwrap_or_default();
    for record in records.iter() {
        match merged.iter_mut().find(|r| r.name == record.name) {
            Some(existing) => *existing = record.clone(),
            None => merged.push(record.clone()),
        }
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    if let Err(e) = std::fs::write(&path, render_summary(&merged)) {
        eprintln!("criterion shim: cannot write {}: {e}", path.display());
    }
}

/// Mirror of `criterion::criterion_group!`: bundles benchmark functions into
/// one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Mirror of `criterion::criterion_main!`: generates `main` invoking each
/// group runner.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_closure_and_counts_iters() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        let mut ran = false;
        group.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn benchmark_id_renders_like_criterion() {
        assert_eq!(BenchmarkId::new("fit", 12).to_string(), "fit/12");
        assert_eq!(BenchmarkId::from_parameter("poly25").to_string(), "poly25");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_round_trips_through_render_and_parse() {
        let records = vec![
            BenchRecord {
                name: "fit_kernel/Rat22".into(),
                unit: "ns".into(),
                min_ns: 1234.5,
                median_ns: 1300.0,
                stddev_ns: 42.1,
                iters: 10_000,
                batches: 12,
            },
            BenchRecord {
                name: "group/quoted \"name\"".into(),
                unit: "req/s".into(),
                min_ns: 7.0,
                median_ns: 8.5,
                stddev_ns: 0.5,
                iters: 3,
                batches: 2,
            },
        ];
        let parsed = parse_summary(&render_summary(&records));
        assert_eq!(parsed, records);
    }

    #[test]
    fn records_without_a_unit_read_as_ns() {
        let old = "[\n{\"name\":\"serve/x/latency\",\"min_ns\":5.0,\"median_ns\":6.0,\
                   \"stddev_ns\":1.0,\"iters\":3,\"batches\":1}\n]\n";
        let parsed = parse_summary(old);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].unit, "ns");
        assert_eq!(parsed[0].median_ns, 6.0);
    }

    #[test]
    fn parse_summary_tolerates_garbage() {
        assert!(parse_summary("not json at all").is_empty());
        assert!(parse_summary("[{\"name\":\"\"}]").is_empty());
    }

    #[test]
    fn std_dev_of_constant_samples_is_zero() {
        assert_eq!(std_dev(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }
}
