//! The one way a finite `f64` becomes JSON text: the exact bytes
//! `format!("{n}")` produces, appended straight into the caller's byte
//! buffer without going through `core::fmt`.
//!
//! `Display` for `f64` prints the *shortest* digit string that parses back
//! to the same value and lays it out without an exponent: `1e-7` is
//! `0.0000001`, `1e21` is written out in full, and `-0.0` is `-0`. Among
//! equally short candidates it takes the one closest to the value, and an
//! exact midpoint rounds up (`core::num::flt2dec::strategy::dragon`,
//! `format_shortest`: `up && (!down || 2·mant >= scale)`).
//!
//! Two paths produce those bytes:
//!
//! * An integral value with `|n| < 2^53` prints as its integer digits
//!   ([`write_uint`], which also writes counts), after a `-` when the sign
//!   bit is set (so `-0.0` is `-0`). Below 2^53 every integer is exact and
//!   no shorter digit string lies within half an ulp, so the shortest
//!   digits padded with zeros *are* the integer.
//! * Every other value gets its shortest digits from Ryū (Ulf Adams, "Ryū:
//!   fast float-to-string conversion", PLDI 2018), laid out the way
//!   `Display` lays them out. Two details differ from Ryū's reference `d2s`,
//!   both to match `Display`: an exact midpoint rounds up instead of to
//!   even, and every normal value with a zero fraction (`MIN_POSITIVE`
//!   included) has a lower rounding gap half its upper one, as in flt2dec's
//!   decoder.
//!
//! The 128-bit power-of-5 tables are computed at compile time by `const fn`s
//! over a small bignum, so nothing is generated at run time.
//! `crates/core/tests/json_number.rs` pins the writer against
//! `format!("{n}")`.

/// Significand bits of an `f64`, without the implicit leading one.
const MANTISSA_BITS: u32 = 52;

/// The `f64` exponent bias.
const EXPONENT_BIAS: i32 = 1023;

/// Bits kept of each power of five in [`POW5_SPLIT`].
const POW5_BITCOUNT: i32 = 125;

/// Bits kept of each inverse power of five in [`POW5_INV_SPLIT`].
const POW5_INV_BITCOUNT: i32 = 125;

/// `5^i` for `i` up to 325: the largest `-e2 - q` (smallest exponent).
const POW5_ENTRIES: usize = 326;

/// `5^-q` for `q` up to 290: the largest `q` (largest finite exponent).
const POW5_INV_ENTRIES: usize = 291;

/// The power of two the inverse table divides down from. It must be at
/// least the largest `bitlen(5^q) - 1 + 125` (798, at `q = 290`).
const INV_TOP: u32 = 800;

/// Limbs of the table bignum: `2^800` needs 801 bits, `5^325` 755.
const LIMBS: usize = 13;

/// The 125 leading bits of `5^i`: `5^i >> (bitlen(5^i) - 125)`, shifted
/// left instead while `5^i` is shorter than that.
static POW5_SPLIT: [u128; POW5_ENTRIES] = pow5_split();

/// `floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1`.
static POW5_INV_SPLIT: [u128; POW5_INV_ENTRIES] = pow5_inv_split();

/// Two ASCII digits for each of `00..=99`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `n`, which must be finite, exactly as `format!("{n}")` writes it.
pub(super) fn write_finite(n: f64, out: &mut Vec<u8>) {
    debug_assert!(n.is_finite());
    let bits = n.to_bits();
    // The sign bit, not `n < 0.0`: `-0.0` prints as `-0`.
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let magnitude = f64::from_bits(bits & !(1 << 63));
    // `as` saturates, and every integral magnitude below 2^53 converts
    // exactly. Zero takes this path too, so `shortest` never sees it.
    let int = magnitude as u64;
    if int as f64 == magnitude && int < 1 << 53 {
        write_uint(int, out);
        return;
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut digits = [0u8; 20];
    let start = write_digits(mantissa, &mut digits);
    let digits = &digits[start..];
    // `Display`'s layout (flt2dec `digits_to_dec_str` with no fraction
    // digits requested): the value is `0.digits × 10^point`.
    let point = exponent + digits.len() as i32;
    if exponent >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exponent as usize, b'0');
    } else if point > 0 {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    }
}

/// Append the decimal digits of `n`, exactly as `format!("{n}")` writes it.
pub(super) fn write_uint(n: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let start = write_digits(n, &mut digits);
    out.extend_from_slice(&digits[start..]);
}

/// Write the decimal digits of `v` right-aligned into `buf`, returning the
/// index of the first digit.
fn write_digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut pos = buf.len();
    while v >= 10_000 {
        let rem = (v % 10_000) as usize;
        v /= 10_000;
        let (hi, lo) = (rem / 100 * 2, rem % 100 * 2);
        buf[pos - 4..pos - 2].copy_from_slice(&DIGIT_PAIRS[hi..hi + 2]);
        buf[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
        pos -= 4;
    }
    let mut v = v as usize;
    if v >= 100 {
        let lo = v % 100 * 2;
        v /= 100;
        buf[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
        pos -= 2;
    }
    if v >= 10 {
        buf[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[v * 2..v * 2 + 2]);
        pos - 2
    } else {
        buf[pos - 1] = b'0' + v as u8;
        pos - 1
    }
}

/// `bitlen(5^e)`: `ceil(log2(5^e))` for `e > 0`, and 1 for `e = 0`.
fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(value: u64, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// `floor(m · mul / 2^j)` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// inside the rounding interval of the positive finite nonzero `f64` with
/// these fields, closest to it, an exact midpoint rounding up (Ryū's `d2d`).
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Bounds are included when the mantissa is even (round-half-even
    // parsing maps them back to this value).
    let accept_bounds = m2 & 1 == 0;

    // The value and its rounding bounds, times 4 to keep them integral: the
    // upper bound is half an ulp up, the lower one half an ulp down, or a
    // quarter where the next value down has half the spacing.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // Scale all three by a power of ten, keeping one digit more than the
    // shortest output can need. Ryū's reference also tracks whether the
    // value itself is exact at this scale, but only to round an exact
    // midpoint to even; `Display` rounds it up like any other removed 5, so
    // only the bounds' exactness matters here.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mp, mul, i);
        vm = mul_shift(mm, mul, i);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // mp = mv + 2 always has a trailing zero bit; mm has one iff
            // mm_shift is 1.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number; the last
    // digit dropped decides the rounding, a 5 rounding up.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the included lower bound may itself be the shortest number,
        // so track whether the digits dropped from it were all zeros.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            // The lower bound is the shortest: strip its zeros (vp is
            // past its last use).
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(outside || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        // vr is below the interval when it truncated onto the lower bound.
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `x · factor`, in place (the product must fit).
const fn mul_small(x: &mut [u64; LIMBS], factor: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let product = x[i] as u128 * factor as u128 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
}

/// `floor(x / divisor)`, in place.
const fn div_small(x: &mut [u64; LIMBS], divisor: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let current = (rem << 64) | x[i] as u128;
        x[i] = (current / divisor as u128) as u64;
        rem = current % divisor as u128;
    }
}

/// Number of significant bits of `x`.
const fn bit_len(x: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// The low 128 bits of `floor(x / 2^shift)`.
const fn shr_low128(x: &[u64; LIMBS], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let bits = shift % 64;
    let mut words = [0u64; 2];
    let mut w = 0;
    while w < 2 {
        let low = if limb + w < LIMBS { x[limb + w] } else { 0 };
        let high = if limb + w + 1 < LIMBS {
            x[limb + w + 1]
        } else {
            0
        };
        words[w] = if bits == 0 {
            low
        } else {
            (low >> bits) | (high << (64 - bits))
        };
        w += 1;
    }
    words[0] as u128 | (words[1] as u128) << 64
}

const fn pow5_split() -> [u128; POW5_ENTRIES] {
    let mut table = [0u128; POW5_ENTRIES];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_ENTRIES {
        let len = bit_len(&pow);
        table[i] = if len >= POW5_BITCOUNT as u32 {
            shr_low128(&pow, len - POW5_BITCOUNT as u32)
        } else {
            shr_low128(&pow, 0) << (POW5_BITCOUNT as u32 - len)
        };
        mul_small(&mut pow, 5);
        i += 1;
    }
    table
}

/// Dividing `2^INV_TOP` by 5 once per entry keeps `floor(2^INV_TOP / 5^q)`
/// exact (nested floors of integer divisions compose), and a right shift
/// takes it down to each entry's own power of two.
const fn pow5_inv_split() -> [u128; POW5_INV_ENTRIES] {
    let mut table = [0u128; POW5_INV_ENTRIES];
    let mut quotient = [0u64; LIMBS];
    quotient[(INV_TOP / 64) as usize] = 1 << (INV_TOP % 64);
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut q = 0;
    while q < POW5_INV_ENTRIES {
        let top = bit_len(&pow) - 1 + POW5_INV_BITCOUNT as u32;
        table[q] = shr_low128(&quotient, INV_TOP - top) + 1;
        div_small(&mut quotient, 5);
        mul_small(&mut pow, 5);
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_reference_entries() {
        // First and last entries of Ryū's published `d2s_full_table.h`.
        assert_eq!(POW5_SPLIT[0], 1 << 124);
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        assert_eq!(POW5_SPLIT[1], 5 << 122);
        // 5^-1 = 0.2: floor(2^127 / 5) + 1.
        assert_eq!(POW5_INV_SPLIT[1], (1u128 << 127) / 5 + 1);
        // Every entry is 125 bits wide, and `pow5bits` names each power's
        // length exactly over the whole table.
        let mut pow = [0u64; LIMBS];
        pow[0] = 1;
        for i in 0..POW5_ENTRIES {
            assert_eq!(pow5bits(i as i32) as u32, bit_len(&pow), "5^{i}");
            assert_eq!(128 - POW5_SPLIT[i].leading_zeros(), 125, "5^{i}");
            if i < POW5_INV_ENTRIES {
                let width = 128 - POW5_INV_SPLIT[i].leading_zeros();
                assert!((125..=126).contains(&width), "5^-{i}");
            }
            mul_small(&mut pow, 5);
        }
    }

    #[test]
    fn the_tables_cover_every_exponent() {
        let largest_q = log10_pow2(2046 - 1077) - 1;
        assert_eq!(largest_q as usize, POW5_INV_ENTRIES - 1);
        let e2 = 1076;
        let largest_i = e2 - (log10_pow5(e2) as i32 - 1);
        assert_eq!(largest_i as usize, POW5_ENTRIES - 1);
        let top = pow5bits(largest_q as i32) as u32 - 1 + POW5_INV_BITCOUNT as u32;
        assert!(top <= INV_TOP);
    }

    #[test]
    fn digits_write_right_aligned() {
        let mut buf = [0u8; 20];
        for v in [0, 7, 10, 99, 100, 12_345, 9_007_199_254_740_991, u64::MAX] {
            let start = write_digits(v, &mut buf);
            assert_eq!(&buf[start..], v.to_string().as_bytes());
        }
    }
}
