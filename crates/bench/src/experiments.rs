//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function rebuilds one experiment end to end: simulate measurements,
//! run ESTIMA (and the time-extrapolation baseline where the paper compares
//! against it), simulate the ground truth on the target machine, and emit
//! the same rows/series the paper reports. `EXPERIMENTS.md` records how the
//! regenerated numbers compare with the published ones.

use estima_core::{BottleneckReport, EstimaConfig, KernelKind};
use estima_counters::CounterCatalog;
use estima_machine::{MachineDescriptor, Vendor};
use estima_workloads::WorkloadId;

use crate::harness::{
    actual_times, batch_max_errors, batch_predictions, measurements_for, stall_time_correlation,
    Scenario,
};
use crate::report::{pct, Report};

/// Identifiers of every experiment, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table2", "table3", "fig1", "fig2", "fig5", "fig6", "table4", "fig7", "fig8", "fig9",
        "fig10", "fig11", "table5", "table6", "fig12", "fig13", "fig14", "fig15", "fig16",
        "table7", "ablation",
    ]
}

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Report> {
    Some(match id {
        "table2" => table2_amd_counters(),
        "table3" => table3_intel_counters(),
        "fig1" => fig01_time_extrapolation_kmeans(),
        "fig2" => fig02_stall_time_correlation(),
        "fig5" => fig05_intruder_walkthrough(),
        "fig6" => fig06_production_apps(),
        "table4" => table04_strong_scaling_errors(),
        "fig7" => fig07_estima_vs_time_extrapolation(),
        "fig8" => fig08_prediction_curves(),
        "fig9" => fig09_weak_scaling(),
        "fig10" => fig10_bottleneck_predictions(),
        "fig11" => fig11_optimized_variants(),
        "table5" => table05_correlations(),
        "table6" => table06_frontend_ablation(),
        "fig12" => fig12_microbenchmark_curves(),
        "fig13" => fig13_software_stall_errors(),
        "fig14" => fig14_streamcluster_software_stalls(),
        "fig15" => fig15_limitations(),
        "fig16" => fig16_numa_measurements(),
        "table7" => table07_xeon48_errors(),
        "ablation" => ablation_design_choices(),
        _ => return None,
    })
}

fn opteron() -> MachineDescriptor {
    MachineDescriptor::opteron48()
}

fn xeon20() -> MachineDescriptor {
    MachineDescriptor::xeon20()
}

fn xeon48() -> MachineDescriptor {
    MachineDescriptor::xeon48()
}

/// Table 2: the AMD family 10h backend stall events.
pub fn table2_amd_counters() -> Report {
    let mut report = Report::new(
        "table2",
        "Hardware performance counters used for the Opteron machine",
    );
    let catalog = CounterCatalog::amd_family10h();
    report.table(
        catalog.family.to_string(),
        vec!["Event Code".into(), "Event Description".into()],
        catalog
            .backend
            .iter()
            .map(|e| vec![e.code_label(), e.description.to_string()])
            .collect(),
    );
    report
}

/// Table 3: the Intel backend stall events.
pub fn table3_intel_counters() -> Report {
    let mut report = Report::new(
        "table3",
        "Hardware performance counters used for the latest Intel processors",
    );
    let catalog = CounterCatalog::intel_bigcore();
    report.table(
        catalog.family.to_string(),
        vec!["Event Code".into(), "Event Description".into()],
        catalog
            .backend
            .iter()
            .map(|e| vec![e.code_label(), e.description.to_string()])
            .collect(),
    );
    report
}

/// Figure 1: directly extrapolating execution time mispredicts kmeans.
pub fn fig01_time_extrapolation_kmeans() -> Report {
    let mut report = Report::new("fig1", "Time extrapolation for kmeans");
    let scenario = Scenario::one_socket_to_full(WorkloadId::Kmeans, opteron());
    let baseline = scenario.predict_baseline().expect("baseline prediction");
    let actual = scenario.actual();
    report.series(
        "kmeans on Opteron: measured vs time-extrapolated",
        vec![
            ("measured".into(), actual.clone()),
            ("time_extrapolation".into(), baseline.predicted_time.clone()),
        ],
    );
    let actual_best = actual
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(c, _)| *c)
        .unwrap_or(1);
    report.text(format!(
        "Time extrapolation predicts the best core count at {} cores, while the measured optimum is {} cores: \
         the scalability trend is not visible in the 12-core measurements, so fitting time directly keeps predicting improvement.",
        baseline.predicted_scaling_limit(),
        actual_best
    ));
    report
}

/// Figure 2: stalled cycles per core and execution time move together.
pub fn fig02_stall_time_correlation() -> Report {
    let mut report = Report::new("fig2", "Stalled cycles and execution time correlation");
    for workload in [WorkloadId::Intruder, WorkloadId::Blackscholes] {
        let machine = opteron();
        let profile = workload.profile();
        let actual = actual_times(&machine, &profile, machine.total_cores());
        let set = measurements_for(
            &machine,
            &profile,
            workload.name(),
            machine.total_cores(),
            false,
            true,
        );
        let spc = set.stalls_per_core(&[
            estima_core::StallSource::HardwareBackend,
            estima_core::StallSource::Software,
        ]);
        let corr = stall_time_correlation(&machine, &profile, false, true);
        report.series(
            format!(
                "{workload}: execution time and stalled cycles per core (correlation {corr:.2})"
            ),
            vec![
                ("exec_time_s".into(), actual),
                ("stalls_per_core".into(), spc),
            ],
        );
    }
    report
}

/// Figure 5: the step-by-step intruder prediction example.
pub fn fig05_intruder_walkthrough() -> Report {
    let mut report = Report::new(
        "fig5",
        "intruder prediction example (Opteron, 12 -> 48 cores)",
    );
    let scenario = Scenario::one_socket_to_full(WorkloadId::Intruder, opteron());
    let prediction = scenario
        .predict(&EstimaConfig::default())
        .expect("prediction");
    // (a)-(f): per-category extrapolations.
    for category in &prediction.categories {
        report.series(
            format!(
                "category {} ({} kernel)",
                category.category, category.curve.kernel
            ),
            vec![
                ("measured".into(), category.measured.clone()),
                ("extrapolated".into(), category.extrapolated.clone()),
            ],
        );
    }
    // (g): stalled cycles per core.
    report.series(
        "total stalled cycles per core",
        vec![("stalls_per_core".into(), prediction.stalls_per_core.clone())],
    );
    // (h): the scaling factor.
    let factor: Vec<(u32, f64)> = (1..=48)
        .map(|c| (c, prediction.scaling_factor.eval(c as f64)))
        .collect();
    report.series(
        format!(
            "scaling factor ({} kernel, correlation {:.2})",
            prediction.scaling_factor.kernel, prediction.factor_correlation
        ),
        vec![("factor".into(), factor)],
    );
    // (i): predicted vs measured execution time.
    let actual = scenario.actual();
    report.series(
        "execution time: prediction vs measurement",
        vec![
            ("predicted".into(), prediction.predicted_time.clone()),
            ("measured".into(), actual.clone()),
        ],
    );
    let err = prediction.max_error_against(&actual).unwrap_or(f64::NAN);
    report.metric("intruder/max_rel_error", err);
    report.text(format!(
        "Predicted scaling limit: {} cores; maximum relative error beyond the measured range: {}%.",
        prediction.predicted_scaling_limit(),
        pct(err)
    ));
    report
}

/// Figure 6: memcached and SQLite predicted from a desktop onto Xeon20.
pub fn fig06_production_apps() -> Report {
    let mut report = Report::new(
        "fig6",
        "Predictions for memcached and SQLite (desktop -> Xeon20)",
    );
    // The paper measures memcached on three desktop cores; our fitting layer
    // needs one more point to hold out a checkpoint, so both applications are
    // measured on the desktop's four cores (documented in EXPERIMENTS.md).
    for (workload, measured_cores, error_bound) in [
        (WorkloadId::Memcached, 4u32, 0.30),
        (WorkloadId::SqliteTpcc, 4u32, 0.26),
    ] {
        let scenario = Scenario::cross_machine(
            workload,
            MachineDescriptor::haswell_desktop(),
            measured_cores,
            xeon20(),
        );
        let prediction = scenario
            .predict(&EstimaConfig::default())
            .expect("prediction");
        let actual = scenario.actual();
        let err = prediction.max_error_against(&actual).unwrap_or(f64::NAN);
        report.series(
            format!("{workload}: measured on {measured_cores} desktop cores, predicted for 20 Xeon cores"),
            vec![
                ("predicted".into(), prediction.predicted_time.clone()),
                ("measured".into(), actual),
            ],
        );
        report.metric(format!("{}/max_rel_error", workload.name()), err);
        report.text(format!(
            "{workload}: maximum prediction error {}% (paper reports errors below {}%).",
            pct(err),
            pct(error_bound)
        ));
    }
    report
}

/// One prediction's maximum error against the ground truth truncated to
/// `target_cores` (the Table 4 / Table 7 column convention).
fn truncated_error(
    prediction: &estima_core::Result<estima_core::Prediction>,
    actual: &[(u32, f64)],
    target_cores: u32,
) -> f64 {
    match prediction {
        Ok(prediction) => {
            let truncated: Vec<(u32, f64)> = actual
                .iter()
                .copied()
                .filter(|(c, _)| *c <= target_cores)
                .collect();
            prediction.max_error_against(&truncated).unwrap_or(f64::NAN)
        }
        Err(_) => f64::NAN,
    }
}

/// Table 4: maximum prediction errors with measurements on one processor.
///
/// All one-socket predictions for both machines run as one
/// [`batch_predictions`] fan-out; the 2/3/4-CPU columns reuse each workload's
/// single Opteron prediction against differently truncated ground truth.
pub fn table04_strong_scaling_errors() -> Report {
    let mut report = Report::new(
        "table4",
        "Maximum prediction errors with measurements on one processor (Opteron 2/3/4 CPUs, Xeon20 2 CPUs)",
    );
    let config = EstimaConfig::default();
    let opteron_scenarios: Vec<Scenario> = WorkloadId::BENCHMARKS
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, opteron()))
        .collect();
    let xeon_scenarios: Vec<Scenario> = WorkloadId::BENCHMARKS
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, xeon20()))
        .collect();
    let opteron_predictions = batch_predictions(&config, &opteron_scenarios);
    let xeon_predictions = batch_predictions(&config, &xeon_scenarios);

    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (index, workload) in WorkloadId::BENCHMARKS.iter().enumerate() {
        let opteron_actual = opteron_scenarios[index].actual();
        let xeon_actual = xeon_scenarios[index].actual();
        let o2 = truncated_error(&opteron_predictions[index], &opteron_actual, 24);
        let o3 = truncated_error(&opteron_predictions[index], &opteron_actual, 36);
        let o4 = truncated_error(&opteron_predictions[index], &opteron_actual, 48);
        let x2 = truncated_error(&xeon_predictions[index], &xeon_actual, 20);
        for (column, value) in columns.iter_mut().zip([o2, o3, o4, x2]) {
            if value.is_finite() {
                column.push(value);
            }
        }
        report.metric(
            format!("{}/opteron_4cpu_max_rel_error", workload.name()),
            o4,
        );
        report.metric(format!("{}/xeon20_2cpu_max_rel_error", workload.name()), x2);
        rows.push(vec![
            workload.name().to_string(),
            pct(o2),
            pct(o3),
            pct(o4),
            pct(x2),
        ]);
    }
    for (label, pick) in [("Average", 0usize), ("Std. Dev.", 1), ("Max.", 2)] {
        let mut row = vec![format!("**{label}**")];
        for column in &columns {
            let summary = estima_core::stats::ErrorSummary::from_errors(column);
            let value = match pick {
                0 => summary.average,
                1 => summary.std_dev,
                _ => summary.max,
            };
            row.push(pct(value));
        }
        rows.push(row);
    }
    report.table(
        "Maximum prediction errors (%)",
        vec![
            "Benchmark".into(),
            "Opteron 2 CPUs".into(),
            "Opteron 3 CPUs".into(),
            "Opteron 4 CPUs".into(),
            "Xeon20 2 CPUs".into(),
        ],
        rows,
    );
    report
}

/// Figure 7: error comparison between ESTIMA and time extrapolation.
pub fn fig07_estima_vs_time_extrapolation() -> Report {
    let mut report = Report::new(
        "fig7",
        "Comparison of errors between ESTIMA and time extrapolation",
    );
    let workloads = [
        WorkloadId::Intruder,
        WorkloadId::Yada,
        WorkloadId::Kmeans,
        WorkloadId::Streamcluster,
        WorkloadId::Raytrace,
        WorkloadId::VacationHigh,
    ];
    let scenarios: Vec<Scenario> = workloads
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, opteron()))
        .collect();
    let estima_errors = batch_max_errors(&EstimaConfig::default(), &scenarios);
    let mut rows = Vec::new();
    for ((workload, scenario), estima_err) in workloads.iter().zip(&scenarios).zip(estima_errors) {
        let baseline_err = scenario.baseline_max_error().unwrap_or(f64::NAN);
        report.metric(
            format!("{}/estima_max_rel_error", workload.name()),
            estima_err,
        );
        report.metric(
            format!("{}/time_extrapolation_max_rel_error", workload.name()),
            baseline_err,
        );
        rows.push(vec![
            workload.name().to_string(),
            pct(estima_err),
            pct(baseline_err),
        ]);
    }
    report.table(
        "Maximum prediction errors on Opteron, 12 measured cores -> 48 cores (%)",
        vec![
            "Benchmark".into(),
            "ESTIMA".into(),
            "Time extrapolation".into(),
        ],
        rows,
    );
    report
}

/// Figure 8: prediction curves for raytrace, intruder, yada and kmeans.
pub fn fig08_prediction_curves() -> Report {
    let mut report = Report::new("fig8", "Predictions using ESTIMA (Opteron)");
    let workloads = [
        WorkloadId::Raytrace,
        WorkloadId::Intruder,
        WorkloadId::Yada,
        WorkloadId::Kmeans,
    ];
    let scenarios: Vec<Scenario> = workloads
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, opteron()))
        .collect();
    let predictions = batch_predictions(&EstimaConfig::default(), &scenarios);
    for ((workload, scenario), prediction) in workloads.iter().zip(&scenarios).zip(predictions) {
        let prediction = prediction.expect("prediction");
        let baseline = scenario.predict_baseline().expect("baseline");
        let actual = scenario.actual();
        report.metric(
            format!("{}/max_rel_error", workload.name()),
            prediction.max_error_against(&actual).unwrap_or(f64::NAN),
        );
        report.series(
            format!("{workload}"),
            vec![
                ("measured".into(), actual),
                ("estima".into(), prediction.predicted_time.clone()),
                ("time_extrapolation".into(), baseline.predicted_time.clone()),
            ],
        );
    }
    report
}

/// Figure 9: weak scaling — twice the cores and twice the dataset.
pub fn fig09_weak_scaling() -> Report {
    let mut report = Report::new(
        "fig9",
        "Predictions with changing workload sizes (Xeon20, 2x dataset)",
    );
    for workload in [WorkloadId::Genome, WorkloadId::Intruder] {
        let mut scenario = Scenario::one_socket_to_full(workload, xeon20());
        scenario.dataset_scale = 2.0;
        let prediction = scenario
            .predict(&EstimaConfig::default())
            .expect("prediction");
        let actual = scenario.actual();
        let errors: Vec<f64> = prediction
            .errors_against(&actual)
            .into_iter()
            .filter(|(c, _)| *c > 1)
            .map(|(_, e)| e)
            .collect();
        let max_err = errors.iter().copied().fold(0.0, f64::max);
        report.series(
            format!("{workload} with a 2x dataset"),
            vec![
                ("predicted".into(), prediction.predicted_time.clone()),
                ("measured".into(), actual),
            ],
        );
        report.metric(
            format!("{}/weak_scaling_max_rel_error", workload.name()),
            max_err,
        );
        report.text(format!(
            "{workload}: maximum error excluding single-core performance {}%.",
            pct(max_err)
        ));
    }
    report
}

/// Figure 10: streamcluster and intruder predictions with software stalls.
pub fn fig10_bottleneck_predictions() -> Report {
    let mut report = Report::new(
        "fig10",
        "Predictions for streamcluster and intruder (software stalls enabled)",
    );
    for workload in [WorkloadId::Streamcluster, WorkloadId::Intruder] {
        let scenario = Scenario::one_socket_to_full(workload, opteron());
        let prediction = scenario
            .predict(&EstimaConfig::default())
            .expect("prediction");
        let actual = scenario.actual();
        report.series(
            format!("{workload}"),
            vec![
                ("predicted".into(), prediction.predicted_time.clone()),
                ("measured".into(), actual),
            ],
        );
        let bottlenecks = BottleneckReport::from_prediction(&prediction, 48);
        if let Some(dominant) = bottlenecks.dominant() {
            report.text(format!(
                "{workload}: dominant predicted stall category at 48 cores is `{}` with a {:.0}% share (growth {:.1}x).",
                dominant.category,
                dominant.share * 100.0,
                dominant.growth_factor
            ));
        }
    }
    report
}

/// Figure 11: measured improvement of the §4.6 optimised variants.
pub fn fig11_optimized_variants() -> Report {
    let mut report = Report::new(
        "fig11",
        "Improving streamcluster and intruder using ESTIMA's predictions",
    );
    for (original, optimized) in [
        (
            WorkloadId::Streamcluster,
            WorkloadId::StreamclusterOptimized,
        ),
        (WorkloadId::Intruder, WorkloadId::IntruderOptimized),
    ] {
        let machine = opteron();
        let base = actual_times(&machine, &original.profile(), 48);
        let opt = actual_times(&machine, &optimized.profile(), 48);
        let improvement = base
            .iter()
            .zip(&opt)
            .map(|((_, b), (_, o))| 1.0 - o / b)
            .fold(0.0f64, f64::max);
        report.series(
            format!("{original} vs {optimized}"),
            vec![("original".into(), base), ("optimized".into(), opt)],
        );
        report.text(format!(
            "{original}: execution time improved by up to {}% after the fix.",
            pct(improvement)
        ));
    }
    report
}

/// Table 5: correlation of stalled cycles per core with execution time.
pub fn table05_correlations() -> Report {
    let mut report = Report::new(
        "table5",
        "Correlation of stalled cycles per core with execution time",
    );
    let machines = [opteron(), xeon20(), xeon48()];
    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); machines.len()];
    for workload in WorkloadId::BENCHMARKS {
        let mut row = vec![workload.name().to_string()];
        for (idx, machine) in machines.iter().enumerate() {
            let corr = stall_time_correlation(machine, &workload.profile(), false, true);
            columns[idx].push(corr);
            row.push(format!("{corr:.2}"));
        }
        rows.push(row);
    }
    for (label, pick) in [("Average", 0usize), ("Std. Dev.", 1), ("Min.", 2)] {
        let mut row = vec![format!("**{label}**")];
        for column in &columns {
            let value = match pick {
                0 => estima_core::stats::mean(column),
                1 => estima_core::stats::std_dev(column),
                _ => estima_core::stats::min(column),
            };
            row.push(format!("{value:.2}"));
        }
        rows.push(row);
    }
    report.table(
        "Correlation (full machines)",
        vec![
            "Benchmark".into(),
            "Opteron".into(),
            "Xeon20".into(),
            "Xeon48".into(),
        ],
        rows,
    );
    report
}

/// Table 6: does adding frontend stalls improve the correlation?
pub fn table06_frontend_ablation() -> Report {
    let mut report = Report::new(
        "table6",
        "Frontend+backend stalled cycles improvement over backend-only stalls (%)",
    );
    let machines = [opteron(), xeon20(), xeon48()];
    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); machines.len()];
    for workload in WorkloadId::BENCHMARKS {
        let mut row = vec![workload.name().to_string()];
        for (idx, machine) in machines.iter().enumerate() {
            let backend_only = stall_time_correlation(machine, &workload.profile(), false, true);
            let with_frontend = stall_time_correlation(machine, &workload.profile(), true, true);
            let delta = (with_frontend - backend_only) * 100.0;
            columns[idx].push(delta);
            row.push(format!("{delta:.2}"));
        }
        rows.push(row);
    }
    for (label, pick) in [
        ("Average", 0usize),
        ("Std. Dev.", 1),
        ("Max.", 2),
        ("Min.", 3),
    ] {
        let mut row = vec![format!("**{label}**")];
        for column in &columns {
            let value = match pick {
                0 => estima_core::stats::mean(column),
                1 => estima_core::stats::std_dev(column),
                2 => estima_core::stats::max(column),
                _ => estima_core::stats::min(column),
            };
            row.push(format!("{value:.2}"));
        }
        rows.push(row);
    }
    report.table(
        "Correlation delta when adding frontend stalls (percentage points)",
        vec![
            "Benchmark".into(),
            "Opteron".into(),
            "Xeon20".into(),
            "Xeon48".into(),
        ],
        rows,
    );
    report.text(
        "Deltas close to zero (or negative) confirm the design decision to use backend stalls only (§5.2)."
            .to_string(),
    );
    report
}

/// Figure 12: execution time and stalled cycles for two microbenchmarks with
/// lower correlation.
pub fn fig12_microbenchmark_curves() -> Report {
    let mut report = Report::new(
        "fig12",
        "Execution time and stalled cycles for two data structure microbenchmarks",
    );
    for (workload, machine) in [
        (WorkloadId::LockBasedHashTable, xeon20()),
        (WorkloadId::LockFreeSkipList, xeon48()),
    ] {
        let profile = workload.profile();
        let actual = actual_times(&machine, &profile, machine.total_cores());
        let set = measurements_for(
            &machine,
            &profile,
            workload.name(),
            machine.total_cores(),
            false,
            true,
        );
        let spc = set.stalls_per_core(&[
            estima_core::StallSource::HardwareBackend,
            estima_core::StallSource::Software,
        ]);
        let corr = stall_time_correlation(&machine, &profile, false, true);
        report.series(
            format!("{workload} on {} (correlation {corr:.2})", machine.name),
            vec![
                ("exec_time_s".into(), actual),
                ("stalls_per_core".into(), spc),
            ],
        );
    }
    report
}

/// Figure 13: prediction errors with and without software stalls.
pub fn fig13_software_stall_errors() -> Report {
    let mut report = Report::new(
        "fig13",
        "Comparison of prediction errors with and without software stalled cycles",
    );
    let workloads = [
        WorkloadId::Genome,
        WorkloadId::Intruder,
        WorkloadId::Kmeans,
        WorkloadId::Labyrinth,
        WorkloadId::Ssca2,
        WorkloadId::VacationHigh,
        WorkloadId::VacationLow,
        WorkloadId::Yada,
        WorkloadId::Streamcluster,
    ];
    let with_sw: Vec<Scenario> = workloads
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, opteron()))
        .collect();
    let without_sw: Vec<Scenario> = workloads
        .iter()
        .map(|w| {
            let mut scenario = Scenario::one_socket_to_full(*w, opteron());
            scenario.software_stalls = false;
            scenario
        })
        .collect();
    let hardware_only = EstimaConfig {
        use_software_stalls: false,
        ..EstimaConfig::default()
    };
    let errors_with = batch_max_errors(&EstimaConfig::default(), &with_sw);
    let errors_without = batch_max_errors(&hardware_only, &without_sw);
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for ((workload, err_with), err_without) in workloads.iter().zip(errors_with).zip(errors_without)
    {
        if err_with.is_finite() && err_without.is_finite() && err_without > 0.0 {
            improvements.push(1.0 - err_with / err_without);
        }
        report.metric(
            format!("{}/with_sw_max_rel_error", workload.name()),
            err_with,
        );
        report.metric(
            format!("{}/hw_only_max_rel_error", workload.name()),
            err_without,
        );
        rows.push(vec![
            workload.name().to_string(),
            pct(err_without),
            pct(err_with),
        ]);
    }
    report.table(
        "Maximum prediction errors on Opteron, 12 -> 48 cores (%)",
        vec![
            "Benchmark".into(),
            "hardware stalls only".into(),
            "hardware + software stalls".into(),
        ],
        rows,
    );
    report.text(format!(
        "Average error reduction from software stalls: {}%.",
        pct(estima_core::stats::mean(&improvements))
    ));
    report
}

/// Figure 14: the effect of software stalls on streamcluster's stall curve.
pub fn fig14_streamcluster_software_stalls() -> Report {
    let mut report = Report::new(
        "fig14",
        "Effect of software stalled cycles for streamcluster",
    );
    let machine = opteron();
    let profile = WorkloadId::Streamcluster.profile();
    let actual = actual_times(&machine, &profile, 48);
    let set = measurements_for(&machine, &profile, "streamcluster", 48, false, true);
    let hw_only = set.stalls_per_core(&[estima_core::StallSource::HardwareBackend]);
    let hw_sw = set.stalls_per_core(&[
        estima_core::StallSource::HardwareBackend,
        estima_core::StallSource::Software,
    ]);
    let corr_hw = stall_time_correlation(&machine, &profile, false, false);
    let corr_sw = stall_time_correlation(&machine, &profile, false, true);
    report.series("execution time", vec![("exec_time_s".into(), actual)]);
    report.series(
        format!("stalled cycles per core, hardware only (correlation {corr_hw:.2})"),
        vec![("hw_stalls_per_core".into(), hw_only)],
    );
    report.series(
        format!("stalled cycles per core, hardware + software (correlation {corr_sw:.2})"),
        vec![("hw_sw_stalls_per_core".into(), hw_sw)],
    );
    report
}

/// Figure 15: streamcluster predicted from 12 vs 24 measured cores.
pub fn fig15_limitations() -> Report {
    let mut report = Report::new(
        "fig15",
        "Predictions for streamcluster from 12 and 24 measured cores",
    );
    for measured in [12u32, 24u32] {
        let mut scenario = Scenario::one_socket_to_full(WorkloadId::Streamcluster, opteron());
        scenario.measured_cores = measured;
        let prediction = scenario
            .predict(&EstimaConfig::default())
            .expect("prediction");
        let actual = scenario.actual();
        let err = prediction.max_error_against(&actual).unwrap_or(f64::NAN);
        report.metric(
            format!("streamcluster/measured_{measured}_max_rel_error"),
            err,
        );
        report.series(
            format!(
                "measurements up to {measured} cores (max error {}%)",
                pct(err)
            ),
            vec![
                ("predicted".into(), prediction.predicted_time.clone()),
                ("measured".into(), actual),
            ],
        );
    }
    report.text(
        "With only one socket measured, the late collapse is underestimated; measuring two sockets captures it (§5.4)."
            .to_string(),
    );
    report
}

/// Figure 16: including cross-socket cores in the measurements improves
/// Xeon20 predictions.
pub fn fig16_numa_measurements() -> Report {
    let mut report = Report::new(
        "fig16",
        "Predictions with NUMA effects captured in the measurements (Xeon20)",
    );
    for workload in [WorkloadId::LockBasedHashTable, WorkloadId::Kmeans] {
        let mut rows = Vec::new();
        for measured in [10u32, 13u32] {
            let mut scenario = Scenario::one_socket_to_full(workload, xeon20());
            scenario.measured_cores = measured;
            let err = scenario
                .estima_max_error(&EstimaConfig::default())
                .unwrap_or(f64::NAN);
            report.metric(
                format!("{}/measured_{measured}_max_rel_error", workload.name()),
                err,
            );
            rows.push(vec![format!("{measured} measured cores"), pct(err)]);
        }
        report.table(
            format!("{workload}: maximum prediction error (%)"),
            vec!["Measurements".into(), "Max error".into()],
            rows,
        );
    }
    report
}

/// Table 7: predicting Xeon48 from both sockets of Xeon20.
pub fn table07_xeon48_errors() -> Report {
    let mut report = Report::new(
        "table7",
        "Maximum prediction errors for predictions targeting Xeon48 (from the full Xeon20)",
    );
    let config = EstimaConfig::default();
    // Column 1: one socket of Xeon20 -> full Xeon20 (same as Table 4).
    let within_scenarios: Vec<Scenario> = WorkloadId::BENCHMARKS
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, xeon20()))
        .collect();
    // Column 2: full Xeon20 (20 cores measured) -> Xeon48.
    let cross_scenarios: Vec<Scenario> = WorkloadId::BENCHMARKS
        .iter()
        .map(|w| Scenario::cross_machine(*w, xeon20(), 20, xeon48()))
        .collect();
    let within_errors = batch_max_errors(&config, &within_scenarios);
    let cross_errors = batch_max_errors(&config, &cross_scenarios);
    let mut rows = Vec::new();
    let mut within = Vec::new();
    let mut cross = Vec::new();
    for ((workload, x2), x48) in WorkloadId::BENCHMARKS
        .iter()
        .zip(within_errors)
        .zip(cross_errors)
    {
        if x2.is_finite() {
            within.push(x2);
        }
        if x48.is_finite() {
            cross.push(x48);
        }
        report.metric(
            format!("{}/xeon20_to_xeon48_max_rel_error", workload.name()),
            x48,
        );
        rows.push(vec![workload.name().to_string(), pct(x2), pct(x48)]);
    }
    for (label, pick) in [("Average", 0usize), ("Std. Dev.", 1), ("Max.", 2)] {
        let mut row = vec![format!("**{label}**")];
        for column in [&within, &cross] {
            let summary = estima_core::stats::ErrorSummary::from_errors(column);
            let value = match pick {
                0 => summary.average,
                1 => summary.std_dev,
                _ => summary.max,
            };
            row.push(pct(value));
        }
        rows.push(row);
    }
    report.table(
        "Maximum prediction errors (%)",
        vec![
            "Benchmark".into(),
            "Xeon20 errors".into(),
            "Xeon20 to Xeon48 errors".into(),
        ],
        rows,
    );
    report
}

/// Ablations of ESTIMA's own design choices (not a paper table, but the
/// knobs §3.1.2 motivates: checkpoint count, kernel family set, prefix
/// refitting).
pub fn ablation_design_choices() -> Report {
    let mut report = Report::new("ablation", "Ablations of ESTIMA's design choices");
    let workloads = [
        WorkloadId::Intruder,
        WorkloadId::Kmeans,
        WorkloadId::Raytrace,
    ];
    let configs: Vec<(&str, EstimaConfig)> = vec![
        (
            "default (c in {2,4}, all kernels, prefix refit)",
            EstimaConfig::default(),
        ),
        (
            "checkpoints = 2 only",
            EstimaConfig::default().with_checkpoints(vec![2]),
        ),
        (
            "checkpoints = 4 only",
            EstimaConfig::default().with_checkpoints(vec![4]),
        ),
        (
            "no rational kernels",
            EstimaConfig::default().with_kernels(vec![
                KernelKind::CubicLn,
                KernelKind::ExpRat,
                KernelKind::Poly25,
            ]),
        ),
        (
            "no prefix refitting",
            EstimaConfig::default().with_prefix_refitting(false),
        ),
    ];
    let scenarios: Vec<Scenario> = workloads
        .iter()
        .map(|w| Scenario::one_socket_to_full(*w, opteron()))
        .collect();
    let mut rows = Vec::new();
    for (label, config) in &configs {
        let mut row = vec![label.to_string()];
        for err in batch_max_errors(config, &scenarios) {
            row.push(pct(err));
        }
        rows.push(row);
    }
    report.table(
        "Maximum prediction error on Opteron 12 -> 48 cores (%)",
        std::iter::once("Configuration".to_string())
            .chain(workloads.iter().map(|w| w.name().to_string()))
            .collect(),
        rows,
    );
    report
}

/// Convenience for tests: the vendor of a machine by name.
pub fn vendor_of(machine: &MachineDescriptor) -> Vendor {
    machine.vendor
}
