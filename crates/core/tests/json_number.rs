//! The JSON number writer, pinned byte for byte against `Display`.
//!
//! [`write_json_number`] must emit exactly `format!("{n}")` for every
//! finite `f64` and `null` for NaN and ±∞: the wire, WAL frames, snapshots
//! and reports all write numbers through it, and their byte-identity
//! guarantees rest on it. `format!` is the oracle:
//!
//! 1. Named cases: signed zeros, subnormals, `MIN_POSITIVE`, `MAX`,
//!    `EPSILON`, short decimals, the integer/shortest boundary around 2^53,
//!    and every power of ten and of two in range with its ±1-ulp
//!    neighbours. The neighbours of 2^50 include exact decimal midpoints
//!    (`2^50 + 0.25` lies halfway between two shortest candidates), which
//!    `Display` rounds up.
//! 2. 120k seeded bit patterns uniform over `u64` (every exponent, NaN
//!    payloads and infinities included).
//! 3. 120k seeded realistic values: uniform mantissa, exponent within
//!    ±100, either sign.

use estima_core::json::write_json_number;

/// Cases drawn from each seeded stream.
const CASES_PER_STREAM: usize = 120_000;

/// A seeded SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What the writer must produce for `n`.
fn oracle(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_string()
    }
}

/// Check `n` and `-n` against the oracle, appending after existing text so
/// the writer is also checked to only append.
fn check(n: f64, out: &mut String) {
    for value in [n, -n] {
        out.clear();
        out.push('[');
        write_json_number(value, out);
        assert_eq!(
            &out[1..],
            oracle(value),
            "{value:e} (bits {:#018x})",
            value.to_bits()
        );
    }
}

/// `n` and the values one ulp either side of it.
fn with_neighbours(n: f64) -> [f64; 3] {
    let bits = n.to_bits();
    [
        f64::from_bits(bits.wrapping_sub(1)),
        n,
        f64::from_bits(bits + 1),
    ]
}

#[test]
fn named_cases_match_display() {
    let mut out = String::new();
    let named = [
        0.0,
        f64::from_bits(1),             // smallest subnormal
        f64::from_bits((1 << 52) - 1), // largest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        0.1,
        0.2,
        0.3,
        1.0 / 3.0,
        1e15,
        1e16,
        1e21,
        1e22,
        1e23,
        9_007_199_254_740_991.0,      // 2^53 − 1
        9_007_199_254_740_992.0,      // 2^53
        9_007_199_254_740_994.0,      // 2^53 + 2
        9_223_372_036_854_775_808.0,  // 2^63
        18_446_744_073_709_551_616.0, // 2^64
        1e-7,
        123_456.789,
        0.5,
        1.5,
        2.5,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001), // a NaN with a payload
    ];
    for n in named {
        check(n, &mut out);
    }
    // -0.0 prints "-0", not "0".
    out.clear();
    write_json_number(-0.0, &mut out);
    assert_eq!(out, "-0");
    for exponent in -323..=308 {
        let power: f64 = format!("1e{exponent}").parse().unwrap();
        for n in with_neighbours(power) {
            check(n, &mut out);
        }
    }
    for exponent in -1074..=1023 {
        for n in with_neighbours(2f64.powi(exponent)) {
            check(n, &mut out);
        }
    }
}

#[test]
fn exact_midpoints_round_up() {
    // 2^50 + 0.25 and 2^50 + 1.25 sit exactly halfway between two 17-digit
    // candidates, both within the rounding interval: `Display` takes the
    // upper one, where round-half-even would keep the even lower one.
    let mut out = String::new();
    for (n, text) in [
        (2f64.powi(50) + 0.25, "1125899906842624.3"),
        (2f64.powi(50) + 1.25, "1125899906842625.3"),
    ] {
        out.clear();
        write_json_number(n, &mut out);
        assert_eq!(out, text);
        assert_eq!(oracle(n), text);
    }
}

#[test]
fn uniform_bit_patterns_match_display() {
    let mut rng = Rng(17);
    let mut out = String::new();
    for _ in 0..CASES_PER_STREAM {
        check(f64::from_bits(rng.next_u64()), &mut out);
    }
}

#[test]
fn realistic_values_match_display() {
    let mut rng = Rng(29);
    let mut out = String::new();
    for _ in 0..CASES_PER_STREAM {
        let mantissa = rng.next_u64() & ((1 << 52) - 1);
        let exponent = 1023 + (rng.next_u64() % 201) as i64 - 100;
        let sign = rng.next_u64() & 1;
        let bits = sign << 63 | (exponent as u64) << 52 | mantissa;
        check(f64::from_bits(bits), &mut out);
    }
}

#[test]
fn small_integers_and_short_decimals_match_display() {
    // The integer fast path and the values a prediction body is made of:
    // core counts, and decimals with few digits.
    let mut out = String::new();
    for i in 0..=5_000u32 {
        check(f64::from(i), &mut out);
        check(f64::from(i) / 100.0, &mut out);
        check(f64::from(i) * 1e-9, &mut out);
    }
}
