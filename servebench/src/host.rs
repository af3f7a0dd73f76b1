//! The host's speed, measured beside the program so timings can be scaled
//! to a reference host.
//!
//! On a shared host the same op can take half as long again, or twice as
//! long, while the VM keeps its CPU: another tenant is loading the physical
//! core, and the load comes and goes within a fraction of a second. The
//! yardstick is fixed work that lives in this crate, so no change to the
//! program moves it. Its time rises with the contention the program sees,
//! so a timing multiplied by [`REFERENCE_NS`] over the yardstick's time
//! reads as it would on the reference host. README.md shows the spreads
//! with and without the scaling.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys sorted and hashed by the yardstick.
const KEYS: usize = 2048;
/// Of those, the keys put in and looked up in the hash map.
const HASHED: usize = 512;
/// Side of the square matrices the yardstick multiplies.
const SIDE: usize = 24;
/// Numbers the yardstick formats and parses back.
const NUMBERS: usize = 100;
/// Timed passes of each kernel per measurement; the fastest counts, so an
/// interrupt landing in one pass does not move the measurement.
const PASSES: usize = 3;
/// How often the yardstick runs between ops. The contention changes within
/// a few hundred milliseconds, so a window of ops is scaled by the
/// measurements taken while it ran, not by one taken before or after.
const MEASURE_EVERY: Duration = Duration::from_millis(5);
/// What one measurement takes on an idle core of the reference host, a
/// 2.1 GHz Intel Xeon (Sapphire Rapids) KVM guest. Scaled timings read as
/// if every measurement had taken this long.
pub const REFERENCE_NS: f64 = 14_000.0;

/// Four small kernels standing in for the kinds of work the service does:
/// sorting (branchy integer work), a dense matrix product (the fits'
/// floating point), hashing (cache and store lookups) and number
/// formatting and parsing (the JSON wire). Contention slows each kind by a
/// different amount, and which kind a neighbour slows most changes over
/// time, so the yardstick's time is the geometric mean of all four. A tight
/// arithmetic loop would not do: it barely slows while requests slow by
/// half.
pub struct Yardstick {
    keys: Vec<u32>,
    sorted: Vec<u32>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    a: Vec<f64>,
    b: Vec<f64>,
    product: Vec<f64>,
    numbers: Vec<f64>,
    text: String,
    last: Instant,
    /// Measurements since the last [`Yardstick::take`]: their summed time,
    /// their count, and the wall time they took.
    sum_ns: f64,
    count: u32,
    spent: Duration,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x = 0x9E37_79B9u32;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let a: Vec<f64> = (0..SIDE * SIDE)
            .map(|i| (i % 7) as f64 * 0.25 + 1.0)
            .collect();
        let numbers = (0..NUMBERS)
            .map(|i| (i as f64 * 1.618).sin() * 1e3 + 1.0 / (i as f64 + 1.0))
            .collect();
        Yardstick {
            keys,
            sorted: Vec::with_capacity(KEYS),
            map: HashMap::with_capacity_and_hasher(HASHED, BuildHasherDefault::default()),
            b: a.iter().rev().copied().collect(),
            a,
            product: vec![0.0; SIDE * SIDE],
            numbers,
            text: String::new(),
            last: Instant::now(),
            sum_ns: 0.0,
            count: 0,
            spent: Duration::ZERO,
        }
    }

    /// Measure once and return the time in nanoseconds: the geometric mean
    /// of the four kernels' fastest passes.
    pub fn time_ns(&mut self) -> f64 {
        let log_sum = fastest(|| self.sort()).ln()
            + fastest(|| self.multiply()).ln()
            + fastest(|| self.hash()).ln()
            + fastest(|| self.format()).ln();
        (log_sum / 4.0).exp()
    }

    fn sort(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        black_box(&self.sorted);
    }

    fn multiply(&mut self) {
        for i in 0..SIDE {
            for j in 0..SIDE {
                let mut sum = 0.0;
                for k in 0..SIDE {
                    sum += self.a[i * SIDE + k] * self.b[k * SIDE + j];
                }
                self.product[i * SIDE + j] = sum;
            }
        }
        black_box(&self.product);
    }

    fn hash(&mut self) {
        self.map.clear();
        for (i, key) in self.keys[..HASHED].iter().enumerate() {
            self.map.insert(u64::from(*key), i as u64);
        }
        let found: u64 = self.keys[..HASHED]
            .iter()
            .filter_map(|key| self.map.get(&u64::from(*key)))
            .sum();
        black_box(found);
    }

    fn format(&mut self) {
        self.text.clear();
        for number in &self.numbers {
            let _ = write!(self.text, "{number},");
        }
        let parsed: f64 = self
            .text
            .split_terminator(',')
            .filter_map(|part| part.parse::<f64>().ok())
            .sum();
        black_box(parsed);
    }

    /// Measure if [`MEASURE_EVERY`] has passed since the last measurement.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= MEASURE_EVERY {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let started = Instant::now();
        self.sum_ns += self.time_ns();
        self.count += 1;
        self.last = Instant::now();
        self.spent += self.last - started;
    }

    /// The scale of what ran since the last call ([`REFERENCE_NS`] over the
    /// mean measured time) and the wall time the measurements took, which
    /// belongs to no op. Measures first if nothing did since the last call.
    pub fn take(&mut self) -> (f64, Duration) {
        if self.count == 0 {
            self.sample();
        }
        let taken = (
            REFERENCE_NS * f64::from(self.count) / self.sum_ns,
            self.spent,
        );
        self.sum_ns = 0.0;
        self.count = 0;
        self.spent = Duration::ZERO;
        taken
    }
}

/// The fastest of [`PASSES`] timed runs of `kernel`, in nanoseconds.
fn fastest(mut kernel: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            kernel();
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}
