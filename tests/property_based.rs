//! Property-based tests (proptest) over the core numerical building blocks
//! and the simulator substrate.

use estima::core::stats::{max_relative_error, pearson_correlation, rmse};
use estima::core::{fit_kernel, Jacobian, KernelKind, LmOptions};
use estima::machine::{MachineDescriptor, SimOptions, Simulator, WorkloadProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fitting a linear-in-parameters kernel to points generated from that
    /// kernel recovers the curve (value-wise) over the sampled range.
    #[test]
    fn linear_kernels_recover_generating_curve(
        a in -1.0e3f64..1.0e3,
        b in -1.0e2f64..1.0e2,
        c in -10.0f64..10.0,
        d in -1.0f64..1.0,
    ) {
        for kernel in [KernelKind::Poly25, KernelKind::CubicLn] {
            let params = [a, b, c, d];
            let xs: Vec<f64> = (1..=12).map(|v| v as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(&params, *x)).collect();
            let fitted = fit_kernel(kernel, &xs, &ys, &LmOptions::default()).unwrap();
            for x in &xs {
                let truth = kernel.eval(&params, *x);
                let got = kernel.eval(&fitted, *x);
                prop_assert!(
                    (got - truth).abs() <= 1e-6 * (1.0 + truth.abs()),
                    "kernel {kernel:?} at {x}: {got} vs {truth}"
                );
            }
        }
    }

    /// Pearson correlation is always within [-1, 1] and is exactly 1 for a
    /// positively scaled copy of the series.
    #[test]
    fn correlation_bounds_and_affine_invariance(
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 3..40),
        scale in 0.1f64..100.0,
        offset in -1.0e4f64..1.0e4,
    ) {
        let scaled: Vec<f64> = values.iter().map(|v| v * scale + offset).collect();
        let corr = pearson_correlation(&values, &scaled);
        prop_assert!((-1.0..=1.0).contains(&corr));
        let distinct = values.iter().any(|v| (v - values[0]).abs() > 1e-9);
        if distinct {
            prop_assert!((corr - 1.0).abs() < 1e-6, "corr {corr}");
        }
    }

    /// RMSE is zero only for identical series and max relative error is
    /// non-negative.
    #[test]
    fn error_metrics_basic_properties(
        values in proptest::collection::vec(0.1f64..1.0e6, 2..30),
        perturbation in 0.0f64..0.5,
    ) {
        let perturbed: Vec<f64> = values.iter().map(|v| v * (1.0 + perturbation)).collect();
        let err = rmse(&perturbed, &values);
        prop_assert!(err >= 0.0);
        if perturbation == 0.0 {
            prop_assert!(err < 1e-9);
        }
        let max_rel = max_relative_error(&perturbed, &values);
        prop_assert!(max_rel >= 0.0);
        prop_assert!((max_rel - perturbation).abs() < 1e-9);
    }

    /// The simulator is deterministic, produces positive execution times, and
    /// never reports negative stall cycles, for any valid profile.
    #[test]
    fn simulator_outputs_are_sane(
        memory_intensity in 0.0f64..2.0,
        sharing in 0.0f64..0.2,
        serial in 0.0f64..0.05,
        cores in 1u32..48,
    ) {
        let mut profile = WorkloadProfile::new("prop");
        profile.memory_intensity = memory_intensity;
        profile.sharing_fraction = sharing;
        profile.serial_fraction = serial;
        let sim = Simulator::with_options(
            MachineDescriptor::opteron48(),
            SimOptions { noise_amplitude: 0.01, seed_salt: 7 },
        );
        let a = sim.run(&profile, cores);
        let b = sim.run(&profile, cores);
        prop_assert!(a.exec_time_secs > 0.0);
        prop_assert_eq!(a.exec_time_secs.to_bits(), b.exec_time_secs.to_bits());
        prop_assert!(a.backend_stalls.values().all(|v| *v >= 0.0));
        prop_assert!(a.software_stalls.values().all(|v| *v >= 0.0));
    }

    /// On a random well-posed series (pole-free rational with a positive,
    /// increasing denominator), Levenberg–Marquardt with analytic Jacobians
    /// converges to a residual no worse than the finite-difference
    /// verification oracle from the same start. (With measurement noise the
    /// two optimisers settle into marginally different noise-floor minima in
    /// either direction, so the clean-series property is the sharp one.)
    #[test]
    fn analytic_lm_no_worse_than_finite_difference(
        a0 in 1.0f64..100.0,
        a1 in 0.0f64..10.0,
        a2 in 0.0f64..1.0,
        b1 in 0.0f64..0.1,
        b2 in 0.0f64..0.01,
    ) {
        let kernel = KernelKind::Rat22;
        let truth = [a0, a1, a2, b1, b2];
        let xs: Vec<f64> = (1..=12u32).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(&truth, *x)).collect();
        let sse = |params: &[f64]| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (kernel.eval(params, *x) - y).powi(2))
                .sum()
        };
        let analytic = fit_kernel(kernel, &xs, &ys, &LmOptions::default()).unwrap();
        let fd_options = LmOptions {
            jacobian: Jacobian::FiniteDifference,
            ..LmOptions::default()
        };
        let fd = fit_kernel(kernel, &xs, &ys, &fd_options).unwrap();
        let sse_analytic = sse(&analytic);
        let sse_fd = sse(&fd);
        // "No worse" up to numerical noise: an absolute slack scaled to the
        // data's magnitude (so exact-fit cases where both residuals are
        // ~1e-15 of the signal cannot flake) plus a small relative slack (on
        // noisy series both optimisers sit at the noise floor, in minima that
        // differ by a percent or two either way).
        let scale: f64 = ys.iter().map(|y| y * y).sum();
        let slack = 1e-10 * scale.max(1e-12);
        prop_assert!(
            sse_analytic <= sse_fd * 1.05 + slack,
            "analytic SSE {sse_analytic} worse than finite-difference SSE {sse_fd} (slack {slack})"
        );
    }

    /// Weak-scaling a profile never shrinks its footprint or its simulated
    /// execution time.
    #[test]
    fn dataset_scaling_is_monotone(scale in 1.0f64..4.0, cores in 1u32..20) {
        let base = WorkloadProfile::new("prop-scale");
        let scaled = base.scaled_dataset(scale);
        let sim = Simulator::with_options(
            MachineDescriptor::xeon20(),
            SimOptions { noise_amplitude: 0.0, seed_salt: 0 },
        );
        let t_base = sim.run(&base, cores).exec_time_secs;
        let t_scaled = sim.run(&scaled, cores).exec_time_secs;
        prop_assert!(t_scaled >= t_base * 0.99);
        prop_assert!(scaled.memory_footprint_bytes() >= base.memory_footprint_bytes());
    }
}
