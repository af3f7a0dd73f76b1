//! Common plumbing for the experiment harness.
//!
//! Every experiment follows the same recipe the paper uses:
//!
//! 1. simulate "measurements" of a workload on the measurements machine for
//!    low core counts (collecting counters via `estima-counters`),
//! 2. run ESTIMA (and, where the experiment calls for it, the
//!    time-extrapolation baseline) to predict the target machine,
//! 3. simulate the workload on the full target machine to obtain the
//!    "actual" execution times,
//! 4. report prediction curves and/or maximum relative errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use estima_core::{
    BatchPredictor, Estima, EstimaConfig, FitCache, FitContext, MeasurementSet, Prediction,
    TargetSpec, TimeExtrapolation, TimePrediction,
};
use estima_counters::{collect_up_to, SimulatedCounterSource, SimulatedSourceOptions};
use estima_machine::{MachineDescriptor, SimOptions, Simulator, WorkloadProfile};
use estima_workloads::WorkloadId;

/// Global smoke-mode flag set by `reproduce --quick`: experiments keep their
/// structure but use a cheaper fitting configuration (no prefix refitting,
/// one checkpoint count), so CI can exercise every parallel path quickly.
static QUICK_MODE: AtomicBool = AtomicBool::new(false);

/// Enable or disable smoke mode for subsequent experiments.
pub fn set_quick_mode(enabled: bool) {
    QUICK_MODE.store(enabled, Ordering::Relaxed);
}

/// True when `reproduce --quick` smoke mode is active.
pub fn quick_mode() -> bool {
    QUICK_MODE.load(Ordering::Relaxed)
}

/// The process-wide fit cache shared by **all** experiments of a `reproduce`
/// run. Several tables and figures refit the same workload series (Table 4
/// and Figure 7/8 both predict intruder/kmeans/raytrace on the Opteron, for
/// example); keying candidates structurally by (series bits, `FitOptions`)
/// lets every later experiment reuse the earlier fits. Cache hits return the
/// exact value a fresh fit would produce (fits are deterministic), so results
/// are unchanged — only faster.
pub fn shared_fit_cache() -> Arc<FitCache> {
    static CACHE: OnceLock<Arc<FitCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(FitCache::new())))
}

/// `(hits, misses, entries)` of the shared experiment fit cache, for the
/// `reproduce` wall-clock trace.
pub fn shared_fit_cache_stats() -> (usize, usize, usize) {
    let cache = shared_fit_cache();
    let (hits, misses) = cache.stats();
    (hits, misses, cache.len())
}

/// The canonical quickstart-sized serving job shared by the `loadgen`
/// binary and the `serve` bench: 12 core counts, two backend stall
/// categories plus a software one, targeting 48 cores — the same shape as
/// the repository quickstart example. One definition so the load gate, the
/// bench, and their in-process byte-identity references all measure the
/// exact same series.
pub fn quickstart_sized_job(app_name: &str) -> (MeasurementSet, TargetSpec) {
    use estima_core::{Measurement, StallCategory};
    let mut set = MeasurementSet::new(app_name, 2.1);
    for cores in 1..=12u32 {
        let n = f64::from(cores);
        let time = 50.0 / n + 1.0;
        set.push(
            Measurement::new(cores, time)
                .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n),
        );
    }
    (set, TargetSpec::cores(48))
}

/// The ESTIMA configuration experiments use: the paper defaults, downgraded
/// to a cheaper grid in [`quick_mode`].
pub fn default_config() -> EstimaConfig {
    if quick_mode() {
        EstimaConfig::default()
            .with_prefix_refitting(false)
            .with_checkpoints(vec![2])
    } else {
        EstimaConfig::default()
    }
}

/// Simulator options used for every experiment: a small amount of
/// deterministic measurement noise, like real counter runs.
pub fn default_sim_options() -> SimOptions {
    SimOptions {
        noise_amplitude: 0.015,
        seed_salt: 0,
    }
}

/// Collect simulated measurements of `workload` on `machine` using cores
/// `1..=max_cores`.
pub fn measurements_for(
    machine: &MachineDescriptor,
    profile: &WorkloadProfile,
    name: &str,
    max_cores: u32,
    collect_frontend: bool,
    collect_software: bool,
) -> MeasurementSet {
    let mut source = SimulatedCounterSource::with_options(
        machine.clone(),
        profile.clone(),
        SimulatedSourceOptions {
            collect_frontend,
            collect_software,
        },
    );
    collect_up_to(&mut source, name, max_cores)
}

/// Simulate the "ground truth": execution time of the workload on the target
/// machine for every core count `1..=cores`.
pub fn actual_times(
    machine: &MachineDescriptor,
    profile: &WorkloadProfile,
    cores: u32,
) -> Vec<(u32, f64)> {
    let simulator = Simulator::with_options(machine.clone(), default_sim_options());
    simulator
        .sweep(profile, cores)
        .into_iter()
        .map(|run| (run.cores, run.exec_time_secs))
        .collect()
}

/// A fully wired scenario: workload + measurements machine + target machine.
pub struct Scenario {
    /// Workload under prediction.
    pub workload: WorkloadId,
    /// Machine the measurements are taken on.
    pub measurement_machine: MachineDescriptor,
    /// Largest core count used for the measurements.
    pub measured_cores: u32,
    /// Machine the prediction targets.
    pub target_machine: MachineDescriptor,
    /// Include software stall categories in the measurements.
    pub software_stalls: bool,
    /// Include frontend stall categories (Table 6 ablation).
    pub frontend_stalls: bool,
    /// Dataset scale factor on the target (weak scaling).
    pub dataset_scale: f64,
}

impl Scenario {
    /// The paper's main strong-scaling setting: measure on one processor of
    /// `machine`, predict the full machine.
    pub fn one_socket_to_full(workload: WorkloadId, machine: MachineDescriptor) -> Self {
        let measured_cores = machine.chips_per_socket * machine.cores_per_chip;
        Scenario {
            workload,
            measurement_machine: machine.clone(),
            measured_cores,
            target_machine: machine,
            software_stalls: true,
            frontend_stalls: false,
            dataset_scale: 1.0,
        }
    }

    /// Cross-machine setting (§4.3): measure on a small machine, predict a
    /// different, larger machine.
    pub fn cross_machine(
        workload: WorkloadId,
        measurement_machine: MachineDescriptor,
        measured_cores: u32,
        target_machine: MachineDescriptor,
    ) -> Self {
        Scenario {
            workload,
            measurement_machine,
            measured_cores,
            target_machine,
            software_stalls: true,
            frontend_stalls: false,
            dataset_scale: 1.0,
        }
    }

    /// The measurement set for this scenario.
    pub fn measurements(&self) -> MeasurementSet {
        measurements_for(
            &self.measurement_machine,
            &self.profile_for_measurement(),
            self.workload.name(),
            self.measured_cores,
            self.frontend_stalls,
            self.software_stalls,
        )
    }

    /// Workload profile as measured (always the base dataset).
    fn profile_for_measurement(&self) -> WorkloadProfile {
        self.workload.profile()
    }

    /// Workload profile as it runs on the target (scaled dataset for weak
    /// scaling).
    pub fn profile_for_target(&self) -> WorkloadProfile {
        if (self.dataset_scale - 1.0).abs() < f64::EPSILON {
            self.workload.profile()
        } else {
            self.workload.profile().scaled_dataset(self.dataset_scale)
        }
    }

    /// The ESTIMA target specification.
    pub fn target_spec(&self) -> TargetSpec {
        TargetSpec::cores(self.target_machine.total_cores())
            .with_frequency_ghz(self.target_machine.frequency_ghz)
            .with_dataset_scale(self.dataset_scale)
    }

    /// Ground-truth execution times on the target machine.
    pub fn actual(&self) -> Vec<(u32, f64)> {
        actual_times(
            &self.target_machine,
            &self.profile_for_target(),
            self.target_machine.total_cores(),
        )
    }

    /// Run ESTIMA for this scenario, drawing fitted candidates from (and
    /// populating) the [`shared_fit_cache`] so repeated series across
    /// experiments are fitted once.
    pub fn predict(&self, config: &EstimaConfig) -> estima_core::Result<Prediction> {
        let estima = Estima::new(config.clone());
        let cache = shared_fit_cache();
        let ctx = FitContext {
            cache: Some(&cache),
            ..estima.fit_context()
        };
        estima.predict_in(&self.measurements(), &self.target_spec(), &ctx)
    }

    /// Run the time-extrapolation baseline for this scenario.
    pub fn predict_baseline(&self) -> estima_core::Result<TimePrediction> {
        TimeExtrapolation::new().predict(&self.measurements(), &self.target_spec())
    }

    /// ESTIMA's maximum relative error against the target-machine ground
    /// truth, for core counts above the measured range (the Table 4 metric).
    pub fn estima_max_error(&self, config: &EstimaConfig) -> estima_core::Result<f64> {
        let prediction = self.predict(config)?;
        Ok(prediction
            .max_error_against(&self.actual())
            .unwrap_or(f64::NAN))
    }

    /// The baseline's maximum relative error against the ground truth.
    pub fn baseline_max_error(&self) -> estima_core::Result<f64> {
        let prediction = self.predict_baseline()?;
        Ok(prediction
            .max_error_against(&self.actual())
            .unwrap_or(f64::NAN))
    }
}

/// Run ESTIMA for every scenario through a shared [`BatchPredictor`]: the
/// predictions execute in parallel (up to `config.parallelism`) and reuse
/// fitted candidates through the process-wide [`shared_fit_cache`], which
/// persists across experiments. Results are bit-identical to calling
/// [`Scenario::predict`] per scenario, in scenario order.
pub fn batch_predictions(
    config: &EstimaConfig,
    scenarios: &[Scenario],
) -> Vec<estima_core::Result<Prediction>> {
    let jobs: Vec<(MeasurementSet, TargetSpec)> = scenarios
        .iter()
        .map(|s| (s.measurements(), s.target_spec()))
        .collect();
    BatchPredictor::with_cache(config.clone(), shared_fit_cache()).predict_all(jobs)
}

/// Maximum relative error of every scenario against its own target-machine
/// ground truth, predicted in one batch. Scenarios whose prediction fails (or
/// has no ground-truth overlap) yield `NaN`, matching
/// [`Scenario::estima_max_error`]'s error convention.
pub fn batch_max_errors(config: &EstimaConfig, scenarios: &[Scenario]) -> Vec<f64> {
    batch_predictions(config, scenarios)
        .into_iter()
        .zip(scenarios)
        .map(|(result, scenario)| match result {
            Ok(prediction) => prediction
                .max_error_against(&scenario.actual())
                .unwrap_or(f64::NAN),
            Err(_) => f64::NAN,
        })
        .collect()
}

/// Pearson correlation between stalled cycles per core and execution time
/// over a full sweep of `machine` (the Table 5 / Table 6 statistic).
pub fn stall_time_correlation(
    machine: &MachineDescriptor,
    profile: &WorkloadProfile,
    include_frontend: bool,
    include_software: bool,
) -> f64 {
    let simulator = Simulator::with_options(machine.clone(), default_sim_options());
    let runs = simulator.sweep(profile, machine.total_cores());
    let times: Vec<f64> = runs.iter().map(|r| r.exec_time_secs).collect();
    let spc: Vec<f64> = runs
        .iter()
        .map(|r| {
            let mut total: f64 = r.backend_stalls.values().sum();
            if include_frontend {
                total += r.frontend_stalls.values().sum::<f64>();
            }
            if include_software {
                total += r.software_stalls.values().sum::<f64>();
            }
            total / r.cores as f64
        })
        .collect();
    estima_core::stats::pearson_correlation(&spc, &times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_socket_scenario_uses_socket_core_count() {
        let s = Scenario::one_socket_to_full(WorkloadId::Genome, MachineDescriptor::opteron48());
        assert_eq!(s.measured_cores, 12);
        assert_eq!(s.target_spec().cores, 48);
    }

    #[test]
    fn scenario_produces_valid_measurements_and_prediction() {
        let s = Scenario::one_socket_to_full(WorkloadId::Raytrace, MachineDescriptor::xeon20());
        let set = s.measurements();
        assert_eq!(set.max_cores(), 10);
        let prediction = s.predict(&EstimaConfig::default()).unwrap();
        assert_eq!(prediction.target_cores, 20);
        let err = s.estima_max_error(&EstimaConfig::default()).unwrap();
        assert!(err.is_finite());
    }

    #[test]
    fn batch_matches_serial_scenario_predictions() {
        let scenarios: Vec<Scenario> = [WorkloadId::Genome, WorkloadId::Raytrace]
            .into_iter()
            .map(|w| Scenario::one_socket_to_full(w, MachineDescriptor::xeon20()))
            .collect();
        let config = EstimaConfig::default();
        let batch = batch_predictions(&config, &scenarios);
        for (result, scenario) in batch.iter().zip(&scenarios) {
            let serial = scenario.predict(&config).unwrap();
            let parallel = result.as_ref().unwrap();
            for ((c1, t1), (c2, t2)) in serial.predicted_time.iter().zip(&parallel.predicted_time) {
                assert_eq!(c1, c2);
                assert_eq!(t1.to_bits(), t2.to_bits());
            }
        }
        let errors = batch_max_errors(&config, &scenarios);
        assert_eq!(errors.len(), 2);
        assert!(errors.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn quick_mode_downgrades_fit_config() {
        set_quick_mode(true);
        let quick = default_config();
        set_quick_mode(false);
        let full = default_config();
        assert!(!quick.fit.prefix_refitting);
        assert_eq!(quick.fit.checkpoint_counts, vec![2]);
        assert!(full.fit.prefix_refitting);
    }

    #[test]
    fn shared_cache_persists_across_experiment_batches() {
        let scenarios: Vec<Scenario> = vec![Scenario::one_socket_to_full(
            WorkloadId::Ssca2,
            MachineDescriptor::xeon48(),
        )];
        let config = EstimaConfig::default();
        let first = batch_predictions(&config, &scenarios);
        assert!(first[0].is_ok());
        let (hits_after_first, _, _) = shared_fit_cache_stats();
        // A second, completely separate batch (as a later experiment would
        // issue) must reuse the first batch's fits through the shared cache.
        let second = batch_predictions(&config, &scenarios);
        let (hits_after_second, _, entries) = shared_fit_cache_stats();
        assert!(
            hits_after_second > hits_after_first,
            "second batch produced no cache hits ({hits_after_first} -> {hits_after_second})"
        );
        assert!(entries > 0);
        // And the cached prediction is identical to the fresh one.
        let a = first[0].as_ref().unwrap();
        let b = second[0].as_ref().unwrap();
        for ((c1, t1), (c2, t2)) in a.predicted_time.iter().zip(&b.predicted_time) {
            assert_eq!(c1, c2);
            assert_eq!(t1.to_bits(), t2.to_bits());
        }
    }

    #[test]
    fn correlation_is_high_for_benchmarks() {
        let corr = stall_time_correlation(
            &MachineDescriptor::opteron48(),
            &WorkloadId::Blackscholes.profile(),
            false,
            true,
        );
        assert!(corr > 0.9, "correlation {corr}");
    }
}
