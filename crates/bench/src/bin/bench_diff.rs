//! Read a committed servebench run record (`BENCH_PR<N>.json`): per
//! workload and end-to-end metric, the parent and change medians with their
//! quartiles, the pairs the change won, and whether `BENCHMARK.json`'s
//! regression bound and the claim rule hold.
//!
//! ```text
//! bench_diff <BENCH.json>
//! bench_diff <OLD BENCH.json> <NEW BENCH.json>
//! ```
//!
//! Run it from the repository root: the metrics, their directions and
//! bounds come from `BENCHMARK.json` there. With one record it prints the report and exits 1 when a bound or a
//! claim fails. A bound fails when the change's median is worse than the
//! parent's by more than the metric's `bound` (a fraction). A claim (the
//! record's `claims`: a workload and a metric) holds when the change wins
//! at least nine in ten pairs and its median beats the parent's by more
//! than the parent's interquartile range. Quartiles interpolate linearly
//! between order statistics.
//!
//! With two records it diffs their change columns: each workload and
//! metric's change median in the old record against the new one, the
//! trajectory from one performance change to the next.
//!
//! A record is one JSON object:
//!
//! ```text
//! {"command": "...", "nproc": 2, "cpu": "...",
//!  "claims": [{"workload": "warm_mix", "metric": "throughput_ops_per_s"}],
//!  "workloads": [{"name": "warm_mix", "pairs": [
//!     {"seed": 1701, "order": ["parent", "change"],
//!      "parent": {"throughput_ops_per_s": 20000.0, ...},
//!      "change": {"throughput_ops_per_s": 30000.0, ...}}, ...]}],
//!  "traces": [...]}
//! ```

use estima_core::json::Json;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Largest tolerated relative regression of the median.
    bound: f64,
}

fn metrics(benchmark: &Json) -> Vec<Metric> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("BENCHMARK.json has no `end_to_end` list"));
    list.iter()
        .map(|metric| Metric {
            name: metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail("an end-to-end metric has no name"))
                .to_string(),
            higher_is_better: metric.get("better").and_then(Json::as_str) == Some("higher"),
            bound: metric
                .get("bound")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| fail("an end-to-end metric has no bound")),
        })
        .collect()
}

fn workloads(record: &Json) -> &[Json] {
    record
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("the record has no `workloads` list"))
}

fn name(value: &Json) -> &str {
    value.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// Every pair's value of `metric` on one `side` ("parent" or "change").
fn column(workload: &Json, side: &str, metric: &str) -> Vec<f64> {
    workload
        .get("pairs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|pair| pair.get(side)?.get(metric)?.as_f64())
        .collect()
}

/// The `q`-quantile (0 ≤ q ≤ 1), interpolating between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// `median [q1, q3]`.
fn summary(values: &[f64]) -> String {
    format!(
        "{:.4} [{:.4}, {:.4}]",
        quantile(values, 0.5),
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

/// Report one record; returns whether every bound and claim holds.
fn report(record: &Json, metrics: &[Metric]) -> bool {
    for key in ["command", "nproc", "cpu"] {
        if let Some(value) = record.get(key) {
            println!("{key}: {}", value.render());
        }
    }
    let claims: Vec<(&str, &str)> = record
        .get("claims")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|claim| {
            Some((
                claim.get("workload")?.as_str()?,
                claim.get("metric")?.as_str()?,
            ))
        })
        .collect();
    let mut holds = true;
    for workload in workloads(record) {
        let pairs = workload
            .get("pairs")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        println!("\n{} ({} pairs)", name(workload), pairs.len());
        for metric in metrics {
            let parent = column(workload, "parent", &metric.name);
            let change = column(workload, "change", &metric.name);
            if parent.is_empty() || parent.len() != change.len() {
                println!("  {:<22} missing or unpaired", metric.name);
                holds = false;
                continue;
            }
            let better = |c: f64, p: f64| {
                if metric.higher_is_better {
                    c > p
                } else {
                    c < p
                }
            };
            let wins = parent
                .iter()
                .zip(&change)
                .filter(|(p, c)| better(**c, **p))
                .count();
            let (parent_median, change_median) = (quantile(&parent, 0.5), quantile(&change, 0.5));
            let delta = (change_median - parent_median) / parent_median;
            let worse_by = if metric.higher_is_better {
                -delta
            } else {
                delta
            };
            let bound_holds = worse_by <= metric.bound;
            holds &= bound_holds;
            println!(
                "  {:<22} parent {:<36} change {:<36} {:+7.2}%  wins {wins}/{}  bound {:.0}%: {}",
                metric.name,
                summary(&parent),
                summary(&change),
                delta * 100.0,
                parent.len(),
                metric.bound * 100.0,
                if bound_holds { "ok" } else { "EXCEEDED" }
            );
            if claims.contains(&(name(workload), metric.name.as_str())) {
                let iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
                let gain = if metric.higher_is_better {
                    change_median - parent_median
                } else {
                    parent_median - change_median
                };
                let claim_holds = wins * 10 >= parent.len() * 9 && gain > iqr;
                holds &= claim_holds;
                println!(
                    "  claim: {wins}/{} wins (need 9 in 10), median gain {gain:.4} against \
                     parent IQR {iqr:.4}: {}",
                    parent.len(),
                    if claim_holds { "holds" } else { "FAILS" }
                );
            }
        }
    }
    holds
}

/// Diff the change columns of two records.
fn diff(old: &Json, new: &Json, metrics: &[Metric]) {
    for workload in workloads(new) {
        let Some(before) = workloads(old).iter().find(|w| name(w) == name(workload)) else {
            println!("\n{}: not in the old record", name(workload));
            continue;
        };
        println!("\n{}", name(workload));
        for metric in metrics {
            let (was, now) = (
                column(before, "change", &metric.name),
                column(workload, "change", &metric.name),
            );
            if was.is_empty() || now.is_empty() {
                continue;
            }
            let (was, now) = (quantile(&was, 0.5), quantile(&now, 0.5));
            println!(
                "  {:<22} {was:>14.4} -> {now:>14.4}  {:+7.2}%",
                metric.name,
                (now - was) / was * 100.0
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = metrics(&load("BENCHMARK.json"));
    match args.as_slice() {
        [record] => {
            if !report(&load(record), &metrics) {
                eprintln!("\nbench_diff: a bound or a claim does not hold");
                std::process::exit(1);
            }
        }
        [old, new] => diff(&load(old), &load(new), &metrics),
        _ => fail("usage: bench_diff <BENCH.json> | <OLD.json> <NEW.json>"),
    }
}
