//! The JSON string writer, pinned byte for byte against the char loop it
//! replaced.
//!
//! [`write_json_string`] copies each run of bytes that needs no escape in
//! one piece. [`oracle`] is the previous writer verbatim: one `char` at a
//! time, escaping `"`, `\` and every control char below U+0020. The cases:
//!
//! 1. Every char below 0x80 on its own and between two letters, so every
//!    control char, `"`, `\` and DEL (0x7f, which passes through) is seen
//!    at the start, middle and end of a string.
//! 2. Named strings: empty, all-escape, 2-, 3- and 4-byte UTF-8, U+2028 and
//!    U+2029 (JSON allows them raw), and escapes beside multi-byte chars.
//! 3. 50k seeded strings of 0 to 40 chars drawn from a mix of printable
//!    ASCII, every char below 0x80, the [`SPECIAL`] chars, and code points
//!    uniform over the Unicode range.

use estima_core::json::write_json_string;

/// The string writer before it copied runs, verbatim.
fn oracle(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Check `s` against the oracle, appending after existing text so the
/// writer is also checked to only append.
fn check(s: &str) {
    let (mut expected, mut actual) = (String::from("["), String::from("["));
    oracle(s, &mut expected);
    write_json_string(s, &mut actual);
    assert_eq!(actual, expected, "{s:?}");
}

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

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Chars a seeded string is drawn from, besides printable ASCII.
const SPECIAL: [char; 16] = [
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '€',
    '\u{2028}',
    '\u{2029}',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

#[test]
fn every_ascii_char_at_every_position() {
    for byte in 0u8..0x80 {
        let c = char::from(byte);
        for s in [
            c.to_string(),
            format!("a{c}b"),
            format!("{c}{c}"),
            format!("ab{c}"),
        ] {
            check(&s);
        }
    }
}

#[test]
fn named_strings() {
    for s in [
        "",
        "plain ascii with spaces",
        "\"\\\n\r\t\u{0}\u{1}\u{1f}",
        "\"\"\"",
        "\\\\",
        "é",
        "naïve café",
        "€ and ₿",
        "😀🦀",
        "\u{2028}\u{2029}",
        "line\u{2028}separator",
        "é\"ß\\€\n😀\t",
        "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
        "extends the measured frontier from 12 to 13 cores, tightening the \
         extrapolation of the dominant stall category `hw:rob_full`",
    ] {
        check(s);
    }
}

#[test]
fn seeded_mixes() {
    let mut rng = Rng(2028);
    let mut s = String::new();
    for _ in 0..50_000 {
        s.clear();
        for _ in 0..rng.below(41) {
            let c = match rng.below(4) {
                0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
                1 => char::from(rng.below(0x80) as u8),
                2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from(0x20 + rng.below(0x5f) as u8),
            };
            s.push(c);
        }
        check(&s);
    }
}
