//! Running executable workloads on the host and collecting their stalls.
//!
//! The simulator profiles (see [`crate::spec`]) regenerate the paper's
//! experiments; the executable kernels in this crate additionally exercise
//! the real substrates (locks, barriers, STM) on the host machine. This
//! module provides the common driver: run a workload at a given thread
//! count, measure wall-clock time, and collect the software stall cycles the
//! instrumented substrates reported — the same per-site software stall
//! categories that `estima-counters`' `collect_measurements` records.

use std::collections::BTreeMap;
use std::time::Instant;

use estima_core::{Measurement, MeasurementSet, StallCategory};
use estima_sync::StallStats;

/// Outcome of one execution of an executable workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Number of worker threads used.
    pub threads: usize,
    /// Wall-clock execution time in seconds.
    pub elapsed_secs: f64,
    /// Software stall cycles per site reported by the instrumented
    /// substrates (locks, barriers, STM aborts).
    pub software_stalls: BTreeMap<String, u64>,
    /// Workload-specific operation count (for computing throughput).
    pub operations: u64,
}

impl RunOutcome {
    /// Throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.operations as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// An executable workload that can be run at different thread counts.
pub trait ExecutableWorkload {
    /// Workload name (matches the registry name where applicable).
    fn name(&self) -> &str;

    /// Run the workload with `threads` worker threads.
    fn run(&self, threads: usize) -> RunOutcome;
}

/// Helper for implementations: time a closure and assemble the outcome from
/// the stall registry it used.
pub fn timed_run(
    threads: usize,
    operations: u64,
    stats: &StallStats,
    body: impl FnOnce(),
) -> RunOutcome {
    stats.reset();
    let start = Instant::now();
    body();
    let elapsed_secs = start.elapsed().as_secs_f64();
    RunOutcome {
        threads,
        elapsed_secs,
        software_stalls: stats.by_site(),
        operations,
    }
}

/// Run an executable workload at every thread count in `plan` and build an
/// ESTIMA [`MeasurementSet`] containing execution time and the software
/// stall categories. (Hardware categories come from a
/// `estima_counters::CounterSource`; host runs only provide the software
/// side, which is what the paper's pthread/STM wrappers provide too.)
pub fn measure_executable(
    workload: &dyn ExecutableWorkload,
    frequency_ghz: f64,
    plan: &[usize],
) -> MeasurementSet {
    let mut set = MeasurementSet::new(workload.name(), frequency_ghz);
    for &threads in plan {
        let outcome = workload.run(threads);
        let mut m = Measurement::new(threads as u32, outcome.elapsed_secs.max(1e-9));
        for (site, cycles) in &outcome.software_stalls {
            m = m.with_stall(StallCategory::software(site.clone()), *cycles as f64);
        }
        set.push(m);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Busywork;

    impl ExecutableWorkload for Busywork {
        fn name(&self) -> &str {
            "busywork"
        }

        fn run(&self, threads: usize) -> RunOutcome {
            let stats = StallStats::new();
            let stats_for_body = stats.clone();
            timed_run(threads, 1_000, &stats, move || {
                stats_for_body.add("lock.wait.demo", 100 * threads as u64);
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(i);
                }
                std::hint::black_box(acc);
            })
        }
    }

    #[test]
    fn timed_run_measures_positive_time_and_stalls() {
        let outcome = Busywork.run(2);
        assert!(outcome.elapsed_secs > 0.0);
        assert_eq!(outcome.software_stalls["lock.wait.demo"], 200);
        assert!(outcome.throughput() > 0.0);
    }

    #[test]
    fn measure_executable_builds_a_measurement_set() {
        let set = measure_executable(&Busywork, 2.4, &[1, 2, 4]);
        assert_eq!(set.core_counts(), vec![1, 2, 4]);
        assert_eq!(set.app_name, "busywork");
        let cats = set.categories(&[estima_core::StallSource::Software]);
        assert_eq!(cats.len(), 1);
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let o = RunOutcome {
            threads: 1,
            elapsed_secs: 0.0,
            software_stalls: BTreeMap::new(),
            operations: 10,
        };
        assert_eq!(o.throughput(), 0.0);
    }
}
