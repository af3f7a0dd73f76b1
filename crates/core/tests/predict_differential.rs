//! Differential test of the predict pipeline over adversarial measurement
//! sets: predictions (and, for some sets, plans) served through sessions
//! that share one [`FitCache`] must equal the uncached [`Estima::predict`]
//! (and uncached [`Planner::plan`]) exactly — the same bits, or the same
//! [`EstimaError`] — and nothing may panic.
//!
//! The sets are drawn from a hand-rolled xorshift generator with fixed
//! seeds, so a failure replays exactly. They mix stall values `0`,
//! `5e-324`, `1e-300`, `1e300` and `f64::MAX` with ordinary growth curves,
//! constant categories and categories present at one core count only, on
//! contiguous, gapped, power-of-two and near-4000 core layouts, at targets
//! from 1 to [`MAX_TARGET_CORES`]. Each base set is followed by variants
//! that keep its training prefixes and change its newest points (so cells
//! the cache memoised meet other magnitude caps) or append a point, each at
//! its own target (so memoised walks meet other horizons).
//!
//! Results are compared through `{:?}`, which writes every `f64` in its
//! shortest round-trip form (and `-0.0` apart from `0.0`), so equal text
//! means equal bits up to NaN payloads.
//!
//! Every set with at least one point more than the pipeline minimum also
//! gets a jackknife [`Planner::confidence`], uncached and through the shared
//! cache.
//! Every served result is requested a second time through the shared
//! cache: warm, every list a hit and step C's choice remembered, it must
//! read as the first did.
//! The text of every uncached result (predictions, errors, intervals and
//! plans) feeds one FNV-1a-64 digest, which is pinned: a change to what the
//! pipeline computes, not only a cached path that drifts from the uncached
//! one, fails the test.

use std::sync::Arc;

use estima_core::plan::Planner;
use estima_core::prelude::*;
use estima_core::{FitContext, MAX_TARGET_CORES};

/// Deterministic xorshift64* generator — the test's only randomness
/// source (no RNG crates in this workspace).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `0..bound` (bound > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The stall values at the edges of `f64`.
const SPECIAL: [f64; 5] = [0.0, 5e-324, 1e-300, 1e300, f64::MAX];

/// Core counts for one set: contiguous, gapped, powers of two, or a run
/// near 4000 cores.
fn core_layout(rng: &mut XorShift) -> Vec<u32> {
    let n = 5 + rng.below(8) as u32;
    match rng.below(4) {
        0 => (1..=n).collect(),
        1 => {
            let mut cores = vec![1 + rng.below(3) as u32];
            while cores.len() < n as usize {
                let last = *cores.last().unwrap();
                cores.push(last + 1 + rng.below(20) as u32);
            }
            cores
        }
        2 => (0..n.min(12)).map(|i| 1 << i).collect(),
        _ => {
            let start = 3950 + rng.below(60) as u32;
            (0..n)
                .map(|i| start + i * (1 + rng.below(3) as u32))
                .collect()
        }
    }
}

/// One category's value at `cores` (`None`: the category is absent there).
#[derive(Clone, Copy)]
enum Shape {
    /// `scale · (a + b·n + q·n²)`.
    Growth { scale: f64, a: f64, b: f64, q: f64 },
    /// The same value at every core count.
    Constant(f64),
    /// Present at one core count only.
    OnePoint { at: u32, value: f64 },
    /// A growth curve with one core count's value replaced.
    Spiked { at: u32, value: f64, scale: f64 },
}

impl Shape {
    fn draw(rng: &mut XorShift, cores: &[u32]) -> Shape {
        let scale = rng.pick(&[1.0, 1e3, 1e9, 1e9, 1e12, 5e-324, 1e-300, 1e300]);
        match rng.below(6) {
            0 => Shape::Constant(if rng.below(2) == 0 {
                rng.pick(&SPECIAL)
            } else {
                1e9 * (1.0 + rng.unit())
            }),
            1 => Shape::OnePoint {
                at: rng.pick(cores),
                value: rng.pick(&[1e9, 0.0, 5e-324, 1e300, f64::MAX]),
            },
            2 => Shape::Spiked {
                at: rng.pick(cores),
                value: rng.pick(&SPECIAL),
                scale,
            },
            _ => Shape::Growth {
                scale,
                a: 1.0 + 100.0 * rng.unit(),
                b: -2.0 + 10.0 * rng.unit(),
                q: -0.05 + 0.5 * rng.unit(),
            },
        }
    }

    fn at(&self, cores: u32) -> Option<f64> {
        let n = f64::from(cores);
        let growth = |scale: f64| scale * (10.0 + 3.0 * n + 0.2 * n * n);
        match *self {
            Shape::Growth { scale, a, b, q } => Some((scale * (a + b * n + q * n * n)).max(0.0)),
            Shape::Constant(value) => Some(value),
            Shape::OnePoint { at, value } => (at == cores).then_some(value),
            Shape::Spiked { at, value, scale } => {
                Some(if at == cores { value } else { growth(scale) })
            }
        }
    }
}

/// The categories a set's shapes fill, in order.
fn category(index: usize) -> StallCategory {
    match index {
        0 => StallCategory::backend("rob_full"),
        1 => StallCategory::backend("ls_full"),
        _ => StallCategory::software("lock_spin"),
    }
}

/// One measurement: an ordinary execution time (or, rarely, an edge value)
/// and each category's value where it is present.
fn measurement(rng: &mut XorShift, cores: u32, shapes: &[Shape]) -> Measurement {
    let time = match rng.below(40) {
        0 => rng.pick(&[5e-324, 1e-300, 1e300, f64::MAX, 0.0]),
        _ => 50.0 / f64::from(cores) + 1.0 + 0.01 * rng.unit(),
    };
    let mut point = Measurement::new(cores, time);
    for (index, shape) in shapes.iter().enumerate() {
        if let Some(value) = shape.at(cores) {
            point = point.with_stall(category(index), value);
        }
    }
    point
}

fn set_of(name: &str, points: &[Measurement]) -> MeasurementSet {
    let mut set = MeasurementSet::new(name, 2.1);
    for point in points {
        set.push(point.clone());
    }
    set
}

/// A target core count at or beyond the newest measured one (up to the
/// cap), and now and then one below it, which the pipeline refuses.
fn target(rng: &mut XorShift, cores: &[u32]) -> TargetSpec {
    let newest = (*cores.last().unwrap()).min(MAX_TARGET_CORES);
    let beyond = |rng: &mut XorShift, span: u32| {
        newest + rng.below((MAX_TARGET_CORES - newest).min(span) as usize + 1) as u32
    };
    let cores = match rng.below(10) {
        0 => 1 + rng.below(newest as usize) as u32,
        1 => newest,
        2 => MAX_TARGET_CORES,
        3 | 4 => beyond(rng, MAX_TARGET_CORES),
        _ => beyond(rng, 96),
    };
    TargetSpec::cores(cores)
}

/// Replace the newest point's stalls by edge values or a large factor, so
/// the series maxima (and the magnitude caps) move while every training
/// prefix stays.
fn flip_newest(rng: &mut XorShift, points: &mut [Measurement]) {
    let newest = points.last_mut().unwrap();
    let factor = rng.pick(&[0.0, 1e-6, 0.5, 3.0, 1e6]);
    let edge = rng.pick(&SPECIAL);
    let replace_with_edge = rng.below(3) == 0;
    for value in newest.stalls.values_mut() {
        *value = if replace_with_edge {
            edge
        } else {
            *value * factor
        };
    }
}

/// FNV-1a-64 of `text` and one `\n`, continuing from `hash`.
fn fnv1a(mut hash: u64, text: &str) -> u64 {
    for byte in text.bytes().chain([b'\n']) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn shared_cache_predictions_match_uncached_on_adversarial_sets() {
    let cache = Arc::new(FitCache::new());
    let configs = [
        EstimaConfig::default().with_parallelism(1),
        EstimaConfig::default().with_parallelism(2),
    ];
    let sessions: Vec<EstimaSession> = configs
        .iter()
        .map(|config| EstimaSession::with_cache(config.clone(), Arc::clone(&cache)))
        .collect();
    let references: Vec<Estima> = configs.iter().cloned().map(Estima::new).collect();

    // Request `served` again: a warm repeat misses nothing and reads the
    // same.
    let again = |context: &str, served: &str, request: &dyn Fn() -> String| {
        let misses = cache.stats().1;
        assert_eq!(request(), served, "{context}: warm");
        assert_eq!(cache.stats().1, misses, "{context}: a warm request missed");
    };
    let (mut compared, mut planned, mut failed, mut bounded) = (0, 0, 0, 0);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for seed in 1..=50u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cores = core_layout(&mut rng);
        let shapes: Vec<Shape> = (0..1 + rng.below(3))
            .map(|_| Shape::draw(&mut rng, &cores))
            .collect();
        let mut points: Vec<Measurement> = cores
            .iter()
            .map(|c| measurement(&mut rng, *c, &shapes))
            .collect();
        for variant in 0..4 {
            match variant {
                0 => {}
                3 => {
                    let next = points.last().unwrap().cores + 1 + rng.below(4) as u32;
                    let point = measurement(&mut rng, next, &shapes);
                    points.push(point);
                }
                _ => flip_newest(&mut rng, &mut points),
            }
            let which = rng.below(sessions.len());
            let (session, estima) = (&sessions[which], &references[which]);
            let set = set_of("adversarial", &points);
            let newest: Vec<u32> = points.iter().map(|p| p.cores).collect();
            let target = target(&mut rng, &newest);
            let context = format!("seed {seed} variant {variant} at {} cores", target.cores);

            let expected = format!("{:?}", estima.predict(&set, &target));
            let predict_set = || format!("{:?}", session.predict_set(&set, &target));
            let served = predict_set();
            assert_eq!(expected, served, "{context}: predict_set");
            again(&format!("{context}: predict_set"), &served, &predict_set);
            digest = fnv1a(digest, &expected);
            compared += 1;
            failed += usize::from(expected.starts_with("Err"));

            if set.len() > estima_core::MIN_MEASUREMENTS {
                let cached = Planner::in_context(
                    estima,
                    FitContext {
                        cache: Some(&cache),
                        ..estima.fit_context()
                    },
                );
                let expected = format!("{:?}", Planner::new(estima).confidence(&set, &target));
                let confidence = || format!("{:?}", cached.confidence(&set, &target));
                let served = confidence();
                assert_eq!(expected, served, "{context}: confidence");
                again(&format!("{context}: confidence"), &served, &confidence);
                digest = fnv1a(digest, &expected);
                bounded += 1;
            }

            // Every other variant also goes through a named series, whose
            // fits are cached under the series' scope, and some are planned.
            if variant % 2 == 1 {
                let id = SeriesId::new(format!("adv-{seed}-{variant}")).unwrap();
                let stored = session.ingest_set(&id, &set).map(|snapshot| snapshot.set);
                let Ok(stored) = stored else {
                    continue;
                };
                let expected = format!("{:?}", estima.predict(&stored, &target));
                let predict = || format!("{:?}", session.predict(&id, &target));
                let served = predict();
                assert_eq!(expected, served, "{context}: series predict");
                again(&format!("{context}: series predict"), &served, &predict);
                digest = fnv1a(digest, &expected);
                compared += 1;
                if rng.below(3) == 0 && target.cores <= 96 {
                    let expected = format!("{:?}", Planner::new(estima).plan(&stored, &target, 3));
                    let plan = || format!("{:?}", session.plan(&id, &target, 3));
                    let served = plan();
                    assert_eq!(expected, served, "{context}: plan");
                    again(&format!("{context}: plan"), &served, &plan);
                    digest = fnv1a(digest, &expected);
                    planned += 1;
                }
            }
        }
    }
    // The generator reaches every path: successes, refusals and plans.
    assert!(compared >= 250, "{compared} comparisons");
    assert!(
        failed > 0 && failed < compared,
        "{failed} of {compared} failed"
    );
    assert!(planned > 0, "no set was planned");
    // Pinned from the predictor before cached lists carried their winners
    // and leave-outs stopped building predictions.
    assert_eq!(
        (format!("{digest:016x}"), compared, bounded, planned),
        ("16748539c4943d64".to_string(), 297, 197, 7)
    );
    let (served, computed) = cache.solve_stats();
    assert!(
        served > 0 && computed > 0,
        "{served} served, {computed} computed"
    );
}
