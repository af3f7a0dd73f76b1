//! Determinism guarantees of the parallel prediction engine.
//!
//! The engine's contract is that `parallelism = 1` (the sequential path) and
//! `parallelism = N` produce *byte-identical* predictions: candidates are
//! enumerated and compared in a fixed order regardless of thread completion
//! order. These tests pin that contract for several real workloads, and a
//! property test checks that parallel candidate evaluation still recovers a
//! realistic curve from data generated by a known kernel.

use estima::core::engine::BatchPredictor;
use estima::counters::{collect_up_to, SimulatedCounterSource};
use estima::machine::MachineDescriptor;
use estima::prelude::*;
use estima::workloads::WorkloadId;

use proptest::prelude::*;

/// Compare two predictions field by field at the bit level.
fn assert_bit_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.app_name, b.app_name);
    assert_eq!(a.measured_cores, b.measured_cores);
    assert_eq!(a.target_cores, b.target_cores);
    assert_eq!(
        a.factor_correlation.to_bits(),
        b.factor_correlation.to_bits()
    );
    assert_eq!(a.scaling_factor.kernel, b.scaling_factor.kernel);
    for (pa, pb) in a.scaling_factor.params.iter().zip(&b.scaling_factor.params) {
        assert_eq!(pa.to_bits(), pb.to_bits());
    }
    let series_pairs = [
        (&a.stalls_per_core, &b.stalls_per_core),
        (&a.predicted_time, &b.predicted_time),
        (&a.measured_time, &b.measured_time),
    ];
    for (sa, sb) in series_pairs {
        assert_eq!(sa.len(), sb.len());
        for ((c1, v1), (c2, v2)) in sa.iter().zip(sb.iter()) {
            assert_eq!(c1, c2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }
    assert_eq!(a.categories.len(), b.categories.len());
    for (ca, cb) in a.categories.iter().zip(&b.categories) {
        assert_eq!(ca.category, cb.category);
        assert_eq!(ca.curve.kernel, cb.curve.kernel);
        for (pa, pb) in ca.curve.params.iter().zip(&cb.curve.params) {
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        for ((c1, v1), (c2, v2)) in ca.extrapolated.iter().zip(&cb.extrapolated) {
            assert_eq!(c1, c2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }
}

fn measurement_set(workload: WorkloadId, cores: u32) -> MeasurementSet {
    let mut source =
        SimulatedCounterSource::new(MachineDescriptor::opteron48(), workload.profile());
    collect_up_to(&mut source, workload.name(), cores)
}

#[test]
fn parallel_predictions_are_byte_identical_to_sequential() {
    let workloads = [
        WorkloadId::Intruder,
        WorkloadId::Kmeans,
        WorkloadId::Raytrace,
        WorkloadId::Streamcluster,
    ];
    for workload in workloads {
        let set = measurement_set(workload, 12);
        let target = TargetSpec::cores(48);
        let sequential = Estima::new(EstimaConfig::default().with_parallelism(1))
            .predict(&set, &target)
            .unwrap();
        for parallelism in [2usize, 4, 8] {
            let parallel = Estima::new(EstimaConfig::default().with_parallelism(parallelism))
                .predict(&set, &target)
                .unwrap();
            assert_bit_identical(&sequential, &parallel);
        }
    }
}

#[test]
fn batch_predictor_is_byte_identical_and_shares_fits() {
    let workloads = [
        WorkloadId::Intruder,
        WorkloadId::Kmeans,
        WorkloadId::Intruder,
    ];
    let jobs: Vec<(MeasurementSet, TargetSpec)> = workloads
        .iter()
        .map(|w| (measurement_set(*w, 12), TargetSpec::cores(48)))
        .collect();
    let batch = BatchPredictor::new(EstimaConfig::default().with_parallelism(4));
    let results = batch.predict_all(jobs.clone());
    assert_eq!(results.len(), jobs.len());
    for ((set, target), result) in jobs.iter().zip(results) {
        let solo = Estima::new(EstimaConfig::default())
            .predict(set, target)
            .unwrap();
        assert_bit_identical(&solo, &result.unwrap());
    }
    // With a sequential batch (jobs run in order), the duplicated intruder
    // job must reuse the cached fits. (A concurrent batch may compute
    // duplicates twice — identical results either way — so the hit counter is
    // only deterministic at parallelism 1.)
    let sequential = BatchPredictor::new(EstimaConfig::default().with_parallelism(1));
    sequential.predict_all(jobs);
    let (hits, misses) = sequential.cache().stats();
    assert!(hits > 0, "duplicate workloads produced no cache hits");
    assert!(misses > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fitting synthetic data generated from a known kernel (Poly25 with
    /// non-negative coefficients, which is realistic by construction) under
    /// parallel candidate evaluation recovers a curve that reproduces the
    /// data and stays realistic out to the horizon.
    #[test]
    fn parallel_fit_recovers_known_kernel_curve(
        a in 1.0e3f64..1.0e6,
        b in 0.0f64..1.0e4,
        c in 0.0f64..5.0e2,
        d in 0.0f64..1.0e2,
    ) {
        let ctx = estima::core::FitContext::new(estima::core::engine::Engine::new(4));
        let xs: Vec<f64> = (1..=12u32).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| KernelKind::Poly25.eval(&[a, b, c, d], *x))
            .collect();
        let options = estima::core::FitOptions {
            realism_horizon: 48,
            ..Default::default()
        };
        let curve = estima::core::approximate_series(&xs, &ys, "synthetic", &options, &ctx).unwrap();
        // The winning curve must reproduce the measured range closely...
        for (x, y) in xs.iter().zip(&ys) {
            let v = curve.eval(*x);
            prop_assert!(
                (v - y).abs() <= 0.05 * y.abs().max(1.0),
                "kernel {:?} at {x}: fitted {v} vs truth {y}",
                curve.kernel
            );
        }
        // ...and stay finite and non-negative out to the horizon.
        for cores in 13..=48u32 {
            let v = curve.eval(f64::from(cores));
            prop_assert!(v.is_finite() && v >= 0.0, "unrealistic value {v} at {cores}");
        }
    }
}
