//! The realism walk, pinned bit for bit against the per-point walk it
//! replaced.
//!
//! The walk ([`HorizonTable::walk`], also behind
//! [`FittedCurve::is_realistic_captured`]) runs one loop specialised per
//! kernel, reads `ln(c)`, `c^2.5` and the sign sweep's abscissae from a
//! per-horizon table, computes each denominator once and sweeps without an
//! early exit. [`oracle_walk`] keeps the old walk verbatim: per-point
//! dispatch through `denominator` and `eval`, and a sweep that stops at the
//! first sign change.
//!
//! 1. Seeded random curves of all six kernels — poles on, near and between
//!    integer core counts, denominators on both sides of the `1e-9` pole
//!    threshold, curves that go negative, NaN and ±inf parameters —
//!    at horizons 1 to [`MAX_TARGET_CORES`] and magnitude caps from tiny to
//!    1e18, NaN and +∞, plus, for a curve the walk accepts, its walked
//!    maximum and the next `f64` below it. The walk takes no cap: it
//!    returns the largest value it captured, and `!(max > cap)` (written
//!    with `partial_cmp`, so a NaN cap keeps every curve) must reach
//!    the oracle's per-value verdict at every cap, as must
//!    [`FittedCurve::is_realistic_captured`] and
//!    [`FittedCurve::is_realistic`]; an accepted curve's captured values
//!    are the same bits.
//! 2. Every candidate of [`candidate_fits`] re-scored with the oracle:
//!    the grid scores a prefix once and shares the result across checkpoint
//!    spans, so each span's candidate must still carry its own checkpoint
//!    RMSE, and the training RMSE, eval table and tail fields the oracle
//!    computes for it. The grid reads both RMSEs from the walk's eval table
//!    at integer core counts inside the horizon and evaluates the kernel
//!    beyond it (horizon 3 puts checkpoints there). The same grid runs
//!    through a shared [`FitCache`] too, after a fit of the series without
//!    its last point memoised the shared prefixes with their tails folded
//!    one core count earlier: the memoised candidates must match the oracle
//!    the same way.

use std::cmp::Ordering;
use std::collections::HashMap;

use estima_core::fit::{MAX_MAGNITUDE, MIN_TRAINING_POINTS};
use estima_core::kernels::HorizonTable;
use estima_core::{
    candidate_fits, FitCache, FitContext, FitOptions, FittedCurve, KernelKind, MAX_TARGET_CORES,
};
use proptest::prelude::*;

/// The horizons every random curve is walked at.
const HORIZONS: [u32; 8] = [1, 2, 3, 12, 48, 64, 129, MAX_TARGET_CORES];

/// Offsets of a denominator root from an integer core count: on it, close
/// to it, and between two integers.
const ROOT_OFFSETS: [f64; 12] = [
    0.0, 1e-13, -1e-12, 1e-10, 9e-10, -2e-9, 5e-9, 1e-6, 0.25, 0.5, -0.5, 0.75,
];

/// Denominators at one core, on both sides of the walk's `1e-9` pole
/// threshold (indexed like [`ROOT_OFFSETS`]).
const POLE_GAPS: [f64; 12] = [
    0.0, 5e-10, 9.9e-10, 1e-9, 1.01e-9, 2e-9, 5e-9, 2e-8, 1e-6, -5e-10, -2e-9, -5e-9,
];

/// The realism walk before the per-kernel specialisation, verbatim.
fn oracle_walk(
    curve: &FittedCurve,
    max_cores: u32,
    max_magnitude: f64,
    values: &mut Vec<f64>,
) -> bool {
    values.clear();
    values.reserve(max_cores as usize);
    for c in 1..=max_cores {
        let n = c as f64;
        if let Some(den) = curve.kernel.denominator(&curve.params, n) {
            if den.abs() < 1e-9 {
                return false;
            }
        }
        let v = curve.eval(n);
        if !v.is_finite() || v < 0.0 || v.abs() > max_magnitude {
            return false;
        }
        values.push(v);
    }
    // Also require the denominator not to change sign anywhere in the
    // range (a sign change implies a pole between integer core counts).
    if let Some(first) = curve.kernel.denominator(&curve.params, 1.0) {
        let steps = (max_cores * 4).max(4);
        for s in 0..=steps {
            let n = 1.0 + (max_cores as f64 - 1.0) * s as f64 / steps as f64;
            if let Some(d) = curve.kernel.denominator(&curve.params, n) {
                if d * first < 0.0 {
                    return false;
                }
            }
        }
    }
    true
}

fn curve(kernel: KernelKind, params: Vec<f64>) -> FittedCurve {
    FittedCurve {
        kernel,
        params: params.into(),
        checkpoint_rmse: 0.0,
        training_rmse: 0.0,
        training_points: 3,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Coefficients of `Π (1 - n / rᵢ)` for `n¹..n^roots.len()` (the constant
/// term is 1, as in the rational kernels' denominators).
fn denominator_from_roots(roots: &[f64]) -> Vec<f64> {
    let mut poly = vec![1.0];
    for r in roots {
        let mut next = vec![0.0; poly.len() + 1];
        for (d, c) in poly.iter().enumerate() {
            next[d] += c;
            next[d + 1] -= c / r;
        }
        poly = next;
    }
    poly[1..].to_vec()
}

/// Parameters of `kernel` for one drawn case. `shape` picks the
/// denominator: 0 generic small coefficients, 1 one root at `root`, 2 two
/// roots straddling `root + 0.5` between two integers (positive at every
/// integer, negative in between), 3 roots below one core (no pole in
/// range), 4 a constant denominator, 5 a denominator of `gap` at one core
/// that grows from there (`ExpRat`'s numerator is zero at one core, so its
/// value there is 1 whenever the pole check lets it through). `sign` 0 keeps
/// the numerator positive, 1 leaves the drawn signs, 2 makes one numerator
/// term strongly negative.
fn draw_params(
    kernel: KernelKind,
    coeffs: &[f64],
    shape: u64,
    root: f64,
    gap: f64,
    sign: u64,
) -> Vec<f64> {
    let mut numerator: Vec<f64> = coeffs.to_vec();
    match sign {
        0 => numerator.iter_mut().for_each(|c| *c = c.abs()),
        2 => {
            let term = if kernel.is_linear() { 3 } else { 1 };
            numerator[term] = -numerator[term].abs() - 1.0;
        }
        _ => {}
    }
    let den_degree = match kernel {
        KernelKind::Rat22 => 2,
        KernelKind::Rat23 | KernelKind::Rat33 => 3,
        _ => 1,
    };
    let den = |degree: usize| -> Vec<f64> {
        match shape {
            0 => coeffs[..degree].iter().map(|c| c * 0.01).collect(),
            1 => denominator_from_roots(&[root])
                .into_iter()
                .chain(std::iter::repeat(0.0))
                .take(degree)
                .collect(),
            2 if degree >= 2 => {
                let mid = root.floor() + 0.5;
                let mut roots = vec![mid - 0.2, mid + 0.2];
                roots.extend(std::iter::repeat_n(-1.0, degree - 2));
                denominator_from_roots(&roots)
            }
            2 | 3 => denominator_from_roots(&vec![-0.5 - coeffs[0].abs(); degree]),
            // (2n - 1)(n - 1) + gap·n.
            5 => [gap - 3.0, 2.0, 0.0][..degree].to_vec(),
            _ => vec![0.0; degree],
        }
    };
    match kernel {
        KernelKind::Rat22 | KernelKind::Rat23 => {
            let mut p = numerator[..3].to_vec();
            p.extend(den(den_degree));
            p
        }
        KernelKind::Rat33 => {
            let mut p = numerator[..4].to_vec();
            p.extend(den(3));
            p
        }
        KernelKind::ExpRat => {
            // (a + b·n) / (c + d·n).
            let (a, b) = (numerator[0], numerator[1] * 0.1);
            let slope = 0.05 + coeffs[1].abs();
            match shape {
                1 | 2 => {
                    let slope = if coeffs[2] < 0.0 { -slope } else { slope };
                    vec![a, b, -slope * root, slope]
                }
                5 => vec![-b, b, gap - slope, slope],
                _ => vec![a, b, 1.0 + coeffs[2].abs(), coeffs[3].abs() * 0.01],
            }
        }
        KernelKind::CubicLn | KernelKind::Poly25 => numerator[..4].to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_specialised_walk_matches_the_per_point_walk(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 7..8),
        scale in -2.0f64..8.0,
        shape in 0u64..6,
        sign in 0u64..3,
        pole_core in 1u32..140,
        offset in 0usize..ROOT_OFFSETS.len(),
        poison in 0usize..16,
        poison_kind in 0u64..3,
        cap_pick in 0u64..10,
        cap_exp in -6.0f64..18.0,
    ) {
        let scaled: Vec<f64> = coeffs.iter().map(|c| c * 10f64.powf(scale)).collect();
        let root = pole_core as f64 + ROOT_OFFSETS[offset];
        let gap = POLE_GAPS[offset];
        let cap = match cap_pick {
            0 => 0.0,
            1 => f64::INFINITY,
            2 => f64::NAN,
            _ => 10f64.powf(cap_exp),
        };
        let tables: Vec<HorizonTable> = HORIZONS.iter().map(|h| HorizonTable::new(*h)).collect();
        for kernel in KernelKind::ALL {
            let mut params = draw_params(kernel, &scaled, shape, root, gap, sign);
            if let Some(slot) = params.get_mut(poison) {
                *slot = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison_kind as usize];
            }
            let curve = curve(kernel, params);
            for table in &tables {
                let horizon = table.horizon();
                let mut walked = Vec::new();
                let max = table.walk(kernel, &curve.params, &mut walked);
                // The drawn cap, the two caps that never bind, and for an
                // accepted curve its own maximum (kept: nothing exceeds it)
                // and the next value below it (cut).
                let mut caps = vec![cap, f64::NAN, f64::INFINITY];
                caps.extend(max.iter().flat_map(|max| [*max, max.next_down()]));
                for cap in caps {
                    let mut expected = Vec::new();
                    let verdict = oracle_walk(&curve, horizon, cap, &mut expected);
                    let mut captured = Vec::new();
                    let outcomes = [
                        max.is_some_and(|max| max.partial_cmp(&cap) != Some(Ordering::Greater)),
                        curve.is_realistic_captured(horizon, cap, &mut captured),
                        curve.is_realistic(horizon, cap),
                    ];
                    for (path, outcome) in ["walk", "is_realistic_captured", "is_realistic"]
                        .iter()
                        .zip(outcomes)
                    {
                        prop_assert_eq!(
                            outcome,
                            verdict,
                            "{path}: {kernel:?} {:?} at horizon {horizon}, cap {cap:e}",
                            curve.params
                        );
                    }
                    if verdict {
                        prop_assert_eq!(bits(&walked), bits(&expected), "{kernel:?} values");
                        prop_assert_eq!(bits(&captured), bits(&expected), "{kernel:?} values");
                    }
                }
            }
        }
    }
}

#[test]
fn the_sweep_rejects_a_sign_change_between_integer_core_counts() {
    // Positive and pole-free at every integer core count, so only the sweep
    // can reject these: ExpRat's denominator 5.5 - n changes sign between 5
    // and 6 cores, Rat22's is negative between its roots 5.3 and 5.7.
    let between = denominator_from_roots(&[5.3, 5.7]);
    let curves = [
        curve(KernelKind::ExpRat, vec![1.0, 0.1, 5.5, -1.0]),
        curve(
            KernelKind::Rat22,
            vec![1.0, 0.5, 0.1, between[0], between[1]],
        ),
    ];
    for curve in &curves {
        let mut values = Vec::new();
        assert!(!oracle_walk(curve, 48, 1e18, &mut values), "{curve:?}");
        assert_eq!(values.len(), 48, "{curve:?}: the integer walk accepted");
        assert!(!curve.is_realistic(48, 1e18), "{curve:?}");
        assert!(
            curve.is_realistic(5, 1e18),
            "{curve:?}: no sign change up to 5"
        );
    }
}

/// The checkpoint spans the grid enumerates for `m` points, as
/// `(checkpoints, n_train, first prefix, last prefix)`.
fn spans(m: usize, options: &FitOptions) -> Vec<(usize, usize, usize, usize)> {
    let mut counts: Vec<usize> = options
        .checkpoint_counts
        .iter()
        .copied()
        .filter(|c| *c >= 1 && m >= c + MIN_TRAINING_POINTS)
        .collect();
    if counts.is_empty() {
        counts.push(1);
    }
    counts
        .into_iter()
        .map(|c| {
            let n_train = m - c;
            let first = if options.prefix_refitting {
                MIN_TRAINING_POINTS
            } else {
                n_train
            };
            (c, n_train, first, n_train)
        })
        .collect()
}

fn rmse(curve: &FittedCurve, xs: &[f64], ys: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let sum: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let d = curve.eval(*x) - y;
            d * d
        })
        .fold(0.0, |a, b| a + b);
    (sum / xs.len() as f64).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_grid_candidate_is_scored_as_the_oracle_scores_it(
        len in 5usize..16,
        a in 1.0f64..1000.0,
        b in -40.0f64..60.0,
        q in -3.0f64..4.0,
        noise in proptest::collection::vec(-0.05f64..0.05, 16..17),
        layout in 0u64..4,
        horizon_pick in 0usize..4,
    ) {
        let xs: Vec<f64> = (1..=len).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .zip(&noise)
            .map(|(x, e)| (a + b * x + q * x * x) * (1.0 + e))
            .collect();
        let defaults = FitOptions::default();
        let options = FitOptions {
            realism_horizon: [3, 12, 48, 64][horizon_pick],
            prefix_refitting: layout != 1,
            checkpoint_counts: if layout == 2 { vec![1, 2, 3] } else { defaults.checkpoint_counts.clone() },
            max_growth_factor: if layout == 3 { 3.0 } else { defaults.max_growth_factor },
            ..defaults
        };
        let Ok(candidates) = candidate_fits(&xs, &ys, &options, &FitContext::default()) else {
            return;
        };
        let cache = FitCache::new();
        let cached = FitContext {
            cache: Some(&cache),
            ..FitContext::default()
        };
        // Memoises the shared prefixes with the shorter series' tail start
        // (when that series is long enough to fit at all).
        let _ = candidate_fits(&xs[..len - 1], &ys[..len - 1], &options, &cached);
        let memoised = candidate_fits(&xs, &ys, &options, &cached).expect("memoised grid");

        // A cell's parameters depend on (kernel, prefix) only.
        let mut solved: HashMap<(KernelKind, usize), &[f64]> = HashMap::new();
        for candidate in candidates.iter() {
            let key = (candidate.curve.kernel, candidate.curve.training_points);
            let params = *solved.entry(key).or_insert(&candidate.curve.params);
            prop_assert_eq!(bits(params), bits(&candidate.curve.params), "{key:?}");
        }

        let data_max = ys.iter().copied().fold(0.0f64, f64::max);
        let cap = if data_max > 0.0 {
            (data_max * options.max_growth_factor).min(MAX_MAGNITUDE)
        } else {
            MAX_MAGNITUDE
        };
        let tail_start = xs.iter().fold(0.0f64, |a, x| a.max(*x)) as u32 + 1;

        // Re-score every cell whose parameters are known, span by span.
        let mut expected = Vec::new();
        for (checkpoints, n_train, first, last) in spans(xs.len(), &options) {
            for prefix in first..=last {
                for kernel in &options.kernels {
                    let Some(params) = solved.get(&(*kernel, prefix)) else {
                        continue;
                    };
                    let mut curve = curve(*kernel, params.to_vec());
                    curve.checkpoint_rmse = rmse(&curve, &xs[n_train..], &ys[n_train..]);
                    curve.training_rmse = rmse(&curve, &xs[..prefix], &ys[..prefix]);
                    curve.training_points = prefix;
                    let mut values = Vec::new();
                    if curve.checkpoint_rmse.is_finite()
                        && oracle_walk(&curve, options.realism_horizon, cap, &mut values)
                    {
                        expected.push((curve, checkpoints, values));
                    }
                }
            }
        }

        for (path, candidates) in [("uncached", &candidates), ("memoised", &memoised)] {
            prop_assert_eq!(candidates.len(), expected.len(), "{path} candidate count");
            for (candidate, (curve, checkpoints, values)) in candidates.iter().zip(&expected) {
                let cell = (path, curve.kernel, checkpoints, curve.training_points);
                prop_assert_eq!(candidate.curve.kernel, curve.kernel, "{cell:?}");
                prop_assert_eq!(candidate.checkpoints, *checkpoints, "{cell:?}");
                prop_assert_eq!(candidate.curve.training_points, curve.training_points, "{cell:?}");
                prop_assert_eq!(
                    candidate.curve.checkpoint_rmse.to_bits(),
                    curve.checkpoint_rmse.to_bits(),
                    "{cell:?} checkpoint RMSE"
                );
                prop_assert_eq!(
                    candidate.curve.training_rmse.to_bits(),
                    curve.training_rmse.to_bits(),
                    "{cell:?} training RMSE"
                );
                let evals = &candidate.evals;
                prop_assert_eq!(bits(evals.values()), bits(values), "{cell:?} evals");
                prop_assert_eq!(evals.horizon(), options.realism_horizon);
                prop_assert_eq!(evals.tail_start(), tail_start);
                let tail = values.get(tail_start as usize - 1..).unwrap_or(&[]);
                let tail_max = tail.iter().fold(0.0f64, |m, v| m.max(*v));
                let tail_min = tail.iter().fold(f64::INFINITY, |m, v| m.min(*v));
                prop_assert_eq!(evals.tail_max().to_bits(), tail_max.to_bits(), "{cell:?}");
                prop_assert_eq!(evals.tail_min().to_bits(), tail_min.to_bits(), "{cell:?}");
            }
        }
    }
}
