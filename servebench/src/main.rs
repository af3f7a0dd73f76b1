//! `servebench`: the serving benchmark of the ESTIMA service.
//!
//! One process, one load thread and one keep-alive connection drive an
//! in-process `estima-serve` node (one reactor, `parallelism = 1`, durable
//! store without fsync) through one of three homogeneous, closed-loop
//! workloads. Every reply is byte-compared against a reference computed
//! in-process before timing. See `README.md` beside this crate for why each
//! workload exists and why nothing here runs concurrently.
//!
//! ```text
//! servebench --workload cold_refit|warm_mix|plan_warm [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer breakdown from a traced run and an in-process replay. Either
//! way the last line of standard output is one JSON object.

mod drive;
mod host;
mod inputs;
mod node;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use drive::{Conn, CountWindow};
use host::Yardstick;
use inputs::{Workload, WorkloadKind};
use trace::{Layer, Replay, Tracer};

const USAGE: &str = "usage: servebench --workload cold_refit|warm_mix|plan_warm \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Segments of an untraced run. Each sets up a fresh node (one `setup_s`
/// sample), serves for its share of `--seconds`, is cross-checked and
/// stopped, so set-ups sample the host across the whole run, as the timed
/// ops do, and `setup_s` is their median.
const SEGMENTS: usize = 10;
/// Set-ups of a traced run, each followed by a count window.
const TRACE_SETUPS: usize = 5;
/// Ops per window of an untraced run: whole cycles of every workload (5 of
/// `cold_refit`, 8 of `warm_mix`, 20 of `plan_warm`). `latency_p50_us` is
/// the mean of the windows' medians, each scaled by the yardstick
/// measurements taken while its window ran: a stall moves one window's median only if it
/// covers half the window.
const WINDOW_OPS: usize = 80;
/// Windows per p99 window: 1040 ops leave ten samples beyond its p99.
const TAIL_WINDOWS: usize = 13;
/// Windows an untraced run keeps room for: a minute of the fastest
/// workload needs under a fiftieth of them.
const RESERVED_WINDOWS: usize = 1 << 20;
/// Threads the benchmark may run at once: the load thread and the reactor.
const THREAD_BUDGET: usize = 2;
/// Turns of untraced HTTP, traced HTTP and replay in a traced run.
const TRACE_SEGMENTS: u32 = 10;
/// Spans of each phase written to the trace file (about 5 MB); the
/// per-layer figures use every span kept in memory.
const SPANS_WRITTEN: usize = 100_000;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: WorkloadKind::ColdRefit,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad duration `{value}`"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    record: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A scratch directory inside the benchmark's own `out/`, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let path = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs keep their stores and write their spans: `out/` beside this
/// crate's manifest, inside the checkout that built it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = RunDir::create().and_then(|dir| run(&args, &dir.0));
    match result {
        Ok(report) => {
            let mut out = std::io::stdout().lock();
            for line in &report.record {
                let _ = writeln!(out, "{line}");
            }
            let _ = writeln!(out, "{}", report.json());
            let _ = out.flush();
            std::process::exit(if report.correct && report.failed == 0 {
                0
            } else {
                1
            });
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if THREAD_BUDGET > nproc {
        return Err(format!(
            "the thread budget (1 load thread + 1 reactor) exceeds nproc = {nproc}"
        ));
    }
    let cpu = node::pin_to_one_cpu()?;
    let name = args.workload.name();
    let record = vec![
        format!(
            "command: {}",
            std::env::args().collect::<Vec<_>>().join(" ")
        ),
        format!("nproc: {nproc}"),
        format!("cpu: {}", node::cpu_model()),
        format!(
            "thread budget: 1 load thread + 1 reactor = {THREAD_BUDGET} <= nproc {nproc}, \
             both pinned to cpu {cpu}"
        ),
        format!(
            "workload: {name}, seed {}, {} s, trace {}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    ];
    // References come first and stay outside `setup_s`.
    let workload = Workload::generate(args.workload, args.seed)?;
    let report = if args.trace {
        traced(args, &workload, dir, record)?
    } else {
        untraced(args, &workload, dir, record)?
    };
    Ok(finish(report))
}

/// Set up a node on a fresh store and check the thread budget.
fn setup<'w>(workload: &'w Workload, dir: &Path) -> Result<(Conn<'w>, f64), String> {
    let (conn, seconds) = Conn::setup(workload, dir)?;
    let threads = node::thread_ids().len();
    if conn.node.threads() != 1 || threads > THREAD_BUDGET {
        return Err(format!(
            "expected 1 reactor thread and {THREAD_BUDGET} threads in all, found {} and {threads}",
            conn.node.threads()
        ));
    }
    Ok((conn, seconds))
}

fn setup_line(setup_seconds: &[f64]) -> String {
    format!(
        "setup_s of {} set-ups: {}",
        setup_seconds.len(),
        setup_seconds
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// The untraced run: [`SEGMENTS`] closed-loop stretches of ops, each on a
/// freshly set-up node, summarised per window of [`WINDOW_OPS`] ops. Every
/// timing is reported scaled to the reference host (see `host.rs`); the
/// record also prints it as measured.
fn untraced(
    args: &Args,
    workload: &Workload,
    dir: &Path,
    mut record: Vec<String>,
) -> Result<Report, String> {
    let mut measured = Measured::windowed();
    let mut yardstick = Yardstick::new();
    // (as measured, scaled by the mean of a measurement before and one after)
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(SEGMENTS);
    let mut cross_check = Ok(());
    for index in 0..SEGMENTS {
        let before = yardstick.time_ns();
        let (mut conn, seconds) = setup(workload, &dir.join(format!("node-{index}")))?;
        let yardstick_ns = (before + yardstick.time_ns()) / 2.0;
        setups.push((seconds, seconds * host::REFERENCE_NS / yardstick_ns));
        measure(
            &mut measured,
            &mut conn,
            args.seconds / SEGMENTS as f64,
            None,
        );
        cross_check = cross_check.and(conn.cross_check());
        conn.stop();
    }
    let (raw_setups, scaled_setups): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    record.push(setup_line(&raw_setups));
    let windows = &measured.windows;
    if windows.is_empty() {
        return Err(format!("no window of {WINDOW_OPS} ops completed"));
    }
    let (ops, failed) = (measured.ops, measured.failed);
    let error_rate = failed as f64 / ops as f64;
    let quartiles = |value: fn(&WindowStats) -> f64| {
        let mut values: Vec<f64> = windows.iter().map(value).collect();
        values.sort_by(f64::total_cmp);
        let at = |q: f64| values[((q * values.len() as f64) as usize).min(values.len() - 1)];
        [at(0.25), median_f64(&values), at(0.75)]
    };
    record.push(format!(
        "ops: {ops} attempted, {failed} failed; {} windows of {WINDOW_OPS} ops",
        windows.len()
    ));
    for (name, [q1, q2, q3]) in [
        (
            "throughput (ops/s)",
            quartiles(|w| WINDOW_OPS as f64 / w.seconds),
        ),
        ("p50 (us)", quartiles(|w| w.p50_us)),
        ("node cpu (us/op)", quartiles(|w| w.cpu_us_per_op)),
        (
            "yardstick (ns)",
            quartiles(|w| host::REFERENCE_NS / w.scale),
        ),
    ] {
        record.push(format!(
            "window {name}, as measured: quartiles {q1:.1} / {q2:.1} / {q3:.1}"
        ));
    }
    // Throughput, p50 and node CPU over the windows, each window's timings
    // multiplied by `scale` of it.
    let summary = |scale: fn(&WindowStats) -> f64| {
        let busy: f64 = windows.iter().map(|w| w.seconds * scale(w)).sum();
        (
            (windows.len() * WINDOW_OPS) as f64 / busy,
            mean(windows.iter().map(|w| w.p50_us * scale(w))),
            mean(windows.iter().map(|w| w.cpu_us_per_op * scale(w))),
        )
    };
    let (throughput, p50, cpu) = summary(|w| w.scale);
    let (raw_throughput, raw_p50, raw_cpu) = summary(|_| 1.0);
    record.push(format!(
        "as measured, unscaled: throughput_ops_per_s {raw_throughput:.2} ops/s, \
         latency_p50_us {raw_p50:.3} us, server_cpu_us_per_op {raw_cpu:.3} us, \
         setup_s {:.5} s",
        median_f64(&raw_setups),
    ));
    record.push(cross_check_line(&cross_check));
    // Printed, not gated: a millisecond op's p99 mostly measures how often
    // the host deschedules this VM (see README.md).
    let p99 = &measured.tail_p99_us;
    let tail_ops = TAIL_WINDOWS * WINDOW_OPS;
    let (raw_p99, scaled_p99): (Vec<f64>, Vec<f64>) = p99.iter().copied().unzip();
    record.push(format!(
        "latency_p99_us: {} us scaled, {} us as measured (median over {} windows of {tail_ops} \
         ops, {} samples beyond each p99)",
        median_f64(&scaled_p99),
        median_f64(&raw_p99),
        p99.len(),
        tail_ops - (0.99 * tail_ops as f64).ceil() as usize
    ));
    record.push(format!("error_rate: {error_rate} ratio"));
    Ok(Report {
        correct: failed == 0 && cross_check.is_ok(),
        attempted: ops,
        failed,
        metrics: vec![
            ("throughput_ops_per_s", throughput, "ops/s"),
            ("latency_p50_us", p50, "us"),
            ("server_cpu_us_per_op", cpu, "us"),
            ("peak_rss_mib", node::peak_rss_mib(), "MiB"),
            ("setup_s", median_f64(&scaled_setups), "s"),
            ("success_rate", 1.0 - error_rate, "ratio"),
        ],
        record,
    })
}

fn cross_check_line(cross_check: &Result<(), String>) -> String {
    match cross_check {
        Ok(()) => "cross-check: node route counters and byte totals equal the client's tallies"
            .to_string(),
        Err(e) => format!("cross-check FAILED: {e}"),
    }
}

/// Mark a report incorrect if any metric is not a finite number, and name
/// every metric in the record.
fn finish(mut report: Report) -> Report {
    for (name, value, unit) in &report.metrics {
        report.record.push(format!("{name}: {value} {unit}"));
    }
    if report
        .metrics
        .iter()
        .any(|(_, value, _)| !value.is_finite())
    {
        report.correct = false;
        for metric in &mut report.metrics {
            if !metric.1.is_finite() {
                metric.1 = 0.0;
            }
        }
    }
    report
}

/// Whole cycles per count window: at least 64 ops.
fn window_cycles(workload: WorkloadKind) -> u64 {
    match workload {
        WorkloadKind::ColdRefit => 4,
        WorkloadKind::WarmMix => 20,
        WorkloadKind::PlanWarm => 16,
    }
}

/// Closed-loop stretches of ops, summed up.
#[derive(Default)]
struct Measured {
    ops: u64,
    failed: u64,
    /// When set, summarise every [`WINDOW_OPS`] ops instead of keeping
    /// every latency, so sample storage does not grow with throughput and
    /// show up in `peak_rss_mib`, and measure the host between ops.
    yardstick: Option<Yardstick>,
    /// Every op's latency (unwindowed only).
    latencies_ns: Vec<u64>,
    windows: Vec<WindowStats>,
    /// Latencies of the current p99 window.
    tail: Vec<u64>,
    /// The p99 of every [`TAIL_WINDOWS`] consecutive windows, in µs, and
    /// the same scaled to the reference host.
    tail_p99_us: Vec<(f64, f64)>,
}

/// The figures of one window of [`WINDOW_OPS`] consecutive ops.
struct WindowStats {
    seconds: f64,
    p50_us: f64,
    cpu_us_per_op: f64,
    /// [`host::REFERENCE_NS`] over the mean yardstick time while the window
    /// ran: what its timings are multiplied by to read as on the
    /// reference host.
    scale: f64,
}

impl Measured {
    fn windowed() -> Measured {
        Measured {
            yardstick: Some(Yardstick::new()),
            // Reserved whole, so the list never grows by copying: capacity
            // not yet written is not resident, but a copy leaves the old
            // buffer resident, which would move `peak_rss_mib` with the
            // number of windows a run happens to reach.
            windows: Vec::with_capacity(RESERVED_WINDOWS),
            ..Measured::default()
        }
    }
}

/// Run ops back to back on `conn` for `seconds`, timing each, and add them
/// to `measured`.
fn measure(
    measured: &mut Measured,
    conn: &mut Conn<'_>,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) {
    let deadline = Duration::from_secs_f64(seconds);
    // A window never spans two stretches: drop the last one's partial window.
    let whole = measured.tail.len() - measured.tail.len() % WINDOW_OPS;
    measured.tail.truncate(whole);
    if let Some(yardstick) = &mut measured.yardstick {
        // Nor does a window's scale: drop what was measured since.
        yardstick.take();
    }
    let started = Instant::now();
    let mut mark = (started, conn.node.cpu_ns());
    while started.elapsed() < deadline {
        let op_started = Instant::now();
        let ok = conn.op(tracer.as_deref_mut());
        let latency = op_started.elapsed().as_nanos() as u64;
        measured.ops += 1;
        measured.failed += u64::from(!ok);
        let Some(yardstick) = &mut measured.yardstick else {
            measured.latencies_ns.push(latency);
            continue;
        };
        measured.tail.push(latency);
        if !measured.tail.len().is_multiple_of(WINDOW_OPS) {
            yardstick.tick();
        } else {
            let (scale, measuring) = yardstick.take();
            let now = (Instant::now(), conn.node.cpu_ns());
            let mut window = measured.tail[measured.tail.len() - WINDOW_OPS..].to_vec();
            measured.windows.push(WindowStats {
                seconds: (now.0 - mark.0 - measuring).as_secs_f64(),
                p50_us: trace::p50(&mut window) as f64 / 1e3,
                cpu_us_per_op: (now.1 - mark.1) as f64 / WINDOW_OPS as f64 / 1e3,
                scale,
            });
            mark = now;
            if measured.tail.len() == TAIL_WINDOWS * WINDOW_OPS {
                let p99 = trace::percentile(&mut measured.tail, 0.99) as f64 / 1e3;
                let tail_windows = &measured.windows[measured.windows.len() - TAIL_WINDOWS..];
                let scale = mean(tail_windows.iter().map(|w| w.scale));
                measured.tail_p99_us.push((p99, p99 * scale));
                measured.tail.clear();
            }
        }
    }
}

/// The traced run: per-op `/v1/stats` counts from the set-ups' count
/// windows, then untraced HTTP, traced HTTP and the in-process replay in
/// turns (a quarter, a quarter and half of the time).
fn traced(
    args: &Args,
    workload: &Workload,
    dir: &Path,
    mut record: Vec<String>,
) -> Result<Report, String> {
    let mut setup_seconds = Vec::with_capacity(TRACE_SETUPS);
    let mut windows: Vec<CountWindow> = Vec::with_capacity(TRACE_SETUPS);
    let mut window_failed = 0;
    let mut kept = None;
    for index in 0..TRACE_SETUPS {
        if let Some(previous) = kept.take() {
            Conn::stop(previous);
        }
        let (mut conn, seconds) = setup(workload, &dir.join(format!("node-{index}")))?;
        setup_seconds.push(seconds);
        let (window, failed) = conn.count_window(window_cycles(args.workload))?;
        windows.push(window);
        window_failed += failed;
        kept = Some(conn);
    }
    let mut conn = kept.expect("at least one set-up");
    record.push(setup_line(&setup_seconds));
    let window = windows[0];
    let repeat = windows.iter().all(|w| {
        let (mut a, mut b) = (w.counts, window.counts);
        // Reactor wake-ups depend on timing, not only on the requests.
        a.wakeups = 0;
        b.wakeups = 0;
        w.ops == window.ops && a == b
    });
    let c = window.counts;
    record.push(format!(
        "count window ({} ops, {} set-ups, {}): cache hits {} misses {} invalidations {}, \
         wal records {} bytes {}, bytes in {} out {}, requests {}, wake-ups {}",
        window.ops,
        windows.len(),
        if repeat {
            "identical on every set-up"
        } else {
            "DIFFERENT across set-ups"
        },
        c.cache_hits,
        c.cache_misses,
        c.cache_invalidations,
        c.wal_records,
        c.wal_bytes,
        c.bytes_in,
        c.bytes_out,
        node::ROUTES
            .iter()
            .zip(c.routes)
            .filter(|(_, n)| *n > 0)
            .map(|(route, n)| format!("{route}={n}"))
            .collect::<Vec<_>>()
            .join(" "),
        c.wakeups,
    ));

    // Untraced HTTP, traced HTTP and the in-process replay take turns, so
    // drift in the host's speed cancels out of the tracing overhead and the
    // residual.
    let epoch = Instant::now();
    let mut client_spans = Tracer::new(epoch);
    let mut replay_spans = Tracer::new(epoch);
    let mut replay = Replay::setup(workload, &dir.join("replay"), &mut replay_spans)?;
    let segment = args.seconds / 4.0 / f64::from(TRACE_SEGMENTS);
    let (mut plain, mut spanned) = (Measured::default(), Measured::default());
    let (mut replay_ops, mut replay_failed) = (0, 0);
    for _ in 0..TRACE_SEGMENTS {
        measure(&mut plain, &mut conn, segment, None);
        measure(&mut spanned, &mut conn, segment, Some(&mut client_spans));
        let (ops, failed) = replay.run(&mut replay_spans, Duration::from_secs_f64(2.0 * segment));
        replay_ops += ops;
        replay_failed += failed;
    }
    drop(replay);
    let cross_check = conn.cross_check();
    conn.stop();
    let http_ops = plain.ops + spanned.ops;
    let http_failed = plain.failed + spanned.failed;
    let (mut untraced, mut traced) = (plain.latencies_ns, spanned.latencies_ns);
    let untraced_p50 = trace::p50(&mut untraced) as f64 / 1e3;
    let traced_p50 = trace::p50(&mut traced) as f64 / 1e3;
    let overhead_pct = (traced_p50 / untraced_p50 - 1.0) * 100.0;
    record.push(format!(
        "tracing overhead: latency_p50_us {untraced_p50} untraced, {traced_p50} traced ({overhead_pct:+.2}%)"
    ));
    record.push(cross_check_line(&cross_check));

    let spans_file = out_dir().join(format!("trace-{}.csv", args.workload.name()));
    let written = write_spans(
        &spans_file,
        &[("client", &client_spans), ("replay", &replay_spans)],
    );
    record.push(match &written {
        Ok(()) => format!(
            "spans: {} client, {} replay ({} roots past the cap not kept); \
             the first {SPANS_WRITTEN} of each written to {}",
            client_spans.spans().len(),
            replay_spans.spans().len(),
            client_spans.dropped() + replay_spans.dropped(),
            spans_file.display()
        ),
        Err(e) => format!("spans NOT written: {e}"),
    });

    let roots = replay_spans.roots();
    let ops_roots: Vec<_> = roots.iter().filter(|r| r.kind == Layer::Op).collect();
    let mut path: Vec<u64> = ops_roots.iter().map(|r| r.path_ns()).collect();
    let path_p50 = trace::p50(&mut path) as f64 / 1e3;
    let candidates = trace::items_per_root(&roots, Layer::FitGrid);
    let per_op = |count: u64| count as f64 / window.ops as f64;
    let lookups = c.cache_hits + c.cache_misses;
    let layer = |layer| trace::layer_p50_us(&roots, layer);
    let metrics = vec![
        ("fit.grid_us", layer(Layer::FitGrid), "us"),
        ("fit.candidates_per_op", candidates, "count"),
        ("predictor.cold_us", layer(Layer::PredictorCold), "us"),
        ("predictor.warm_us", layer(Layer::PredictorWarm), "us"),
        ("plan.warm_us", layer(Layer::PlanWarm), "us"),
        ("plan.cold_us", layer(Layer::PlanCold), "us"),
        (
            "engine.cache_lookup_us",
            trace::p50(&mut replay_spans.calls(Layer::CacheLookup)) as f64 / 1e3,
            "us",
        ),
        ("engine.cache_hits_per_op", per_op(c.cache_hits), "count"),
        (
            "engine.cache_misses_per_op",
            per_op(c.cache_misses),
            "count",
        ),
        (
            "engine.cache_invalidations_per_op",
            per_op(c.cache_invalidations),
            "count",
        ),
        (
            "engine.cache_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                c.cache_hits as f64 / lookups as f64
            },
            "ratio",
        ),
        ("store.ingest_us", layer(Layer::StoreIngest), "us"),
        ("store.snapshot_us", layer(Layer::StoreSnapshot), "us"),
        ("wal.append_us", trace::wal_append_p50_us(&roots), "us"),
        ("wal.records_per_op", per_op(c.wal_records), "count"),
        ("wal.bytes_per_op", per_op(c.wal_bytes), "bytes"),
        ("http.parse_us", layer(Layer::HttpParse), "us"),
        ("http.render_us", layer(Layer::HttpRender), "us"),
        ("wire.decode_us", layer(Layer::WireDecode), "us"),
        ("wire.encode_us", layer(Layer::WireEncode), "us"),
        ("wire.bytes_in_per_op", per_op(c.bytes_in), "bytes"),
        ("wire.bytes_out_per_op", per_op(c.bytes_out), "bytes"),
        ("server.wakeups_per_op", per_op(c.wakeups), "count"),
        ("server.residual_us", untraced_p50 - path_p50, "us"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    record.push(format!(
        "replay: {replay_ops} ops, in-process path p50 {path_p50} us against {untraced_p50} us end to end"
    ));
    let attempted = windows.iter().map(|w| w.ops).sum::<u64>() + http_ops + replay_ops;
    let failed = window_failed + http_failed + replay_failed;
    record.push(format!("ops: {attempted} attempted, {failed} failed"));
    Ok(Report {
        correct: failed == 0 && repeat && cross_check.is_ok() && written.is_ok(),
        attempted,
        failed,
        metrics,
        record,
    })
}

fn write_spans(path: &Path, phases: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", Tracer::CSV_HEADER)?;
    for (phase, tracer) in phases {
        tracer.write_csv(phase, SPANS_WRITTEN, &mut out)?;
    }
    out.flush()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0u32), |(sum, count), v| (sum + v, count + 1));
    sum / f64::from(count)
}

/// Median of `values`; NaN when empty.
fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
