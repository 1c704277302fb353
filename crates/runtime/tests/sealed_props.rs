//! The sealed-line reader accepts exactly what the idioms it replaced
//! accepted. `unseal` is held to the reverse-search implementation it
//! superseded, kept here as the oracle; `Fields` is held to
//! `split_whitespace` + `str::parse` (integers and `f64`) /
//! `from_str_radix`. Both over strings assembled from the fragments that
//! sit on the edges of the accept set, since uniformly random text never
//! gets near it.

use easched_runtime::sealed::{fnv1a64, unseal, Fields, LineWriter};
use proptest::collection::vec;
use proptest::prelude::*;

/// `body` as one sealed line.
fn sealed(body: &str) -> String {
    let mut line = String::new();
    LineWriter::begin(&mut line, body).seal();
    line
}

/// `unseal` as it stood before it read the seal at a fixed offset.
fn unseal_by_search(line: &str) -> Option<&str> {
    let (body, hex) = line.rsplit_once(" crc ")?;
    let hex = hex.trim();
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == stored).then_some(body)
}

const FRAGMENTS: [&str; 24] = [
    " ",
    "  ",
    "\t",
    "\r",
    "\n",
    "\u{b}",
    "\u{1f}",
    "\u{85}",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    " crc ",
    " crc",
    "crc ",
    "é",
    "\u{10348}",
    "put 5 alpha",
    "0123456789abcdef",
    "0123456789ABCDEF",
    "0",
    "+",
    "-",
    "g",
    "_",
];

/// What may stand between `crc` and the digits of a generated seal: the
/// one space the writer puts there, and neighbours on both sides of the
/// accept set.
const GAPS: [&str; 5] = [" ", "  ", " \u{2003}", "\t", "\u{a0}"];

/// Text built fragment by fragment; a pick past the table seals what is
/// there so far, with one of [`GAPS`] and in either case, so accepted
/// lines (and accepted lines with something appended) are common.
fn arb_text() -> impl Strategy<Value = String> {
    vec(0..FRAGMENTS.len() + 2 * GAPS.len(), 0..12).prop_map(|picks| {
        let mut text = String::new();
        for pick in picks {
            match FRAGMENTS.get(pick) {
                Some(fragment) => text.push_str(fragment),
                None => {
                    let variant = pick - FRAGMENTS.len();
                    let digits = format!("{:016x}", fnv1a64(text.as_bytes()));
                    text.push_str(" crc");
                    text.push_str(GAPS[variant / 2]);
                    text.push_str(&if variant.is_multiple_of(2) {
                        digits
                    } else {
                        digits.to_uppercase()
                    });
                }
            }
        }
        text
    })
}

const NUMBER_FRAGMENTS: [&str; 27] = [
    " ",
    "\t",
    "\u{a0}",
    "+",
    "-",
    "0",
    "00000000000000000",
    "1",
    "9",
    "a",
    "F",
    "g",
    "_",
    "é",
    "255",
    "65535",
    "18446744073709551615",
    "18446744073709551616",
    "ffffffffffffffff",
    "10000000000000000",
    "inf",
    "NaN",
    "infinity",
    "1e400",
    ".",
    "e",
    "E",
];

fn arb_number_text() -> impl Strategy<Value = String> {
    vec(0..NUMBER_FRAGMENTS.len(), 0..5)
        .prop_map(|picks| picks.iter().map(|&pick| NUMBER_FRAGMENTS[pick]).collect())
}

/// What may follow a generated hex word: nothing, a blank, a seventeenth
/// digit, a non-digit and a second word.
const HEX_SUFFIXES: [&str; 9] = ["", " ", "\u{a0}", "0", "F", "g", "+", "é", " 1"];

/// A hex word of 1 to 20 digits in mixed case, with or without a `+`, and
/// one of [`HEX_SUFFIXES`]: lengths on both sides of the 16 digits
/// `hex16` writes.
fn arb_hex_word() -> impl Strategy<Value = String> {
    (any::<bool>(), vec(0..32usize, 1..21), 0..HEX_SUFFIXES.len()).prop_map(
        |(plus, digits, suffix)| {
            let mut text = String::from(if plus { "+" } else { "" });
            for d in digits {
                text.push(char::from(b"0123456789abcdef0123456789ABCDEF"[d]));
            }
            text + HEX_SUFFIXES[suffix]
        },
    )
}

/// A float compared by its bits, every NaN as one NaN.
fn float_key(value: f64) -> u64 {
    if value.is_nan() {
        f64::NAN.to_bits()
    } else {
        value.to_bits()
    }
}

/// A line holding one field and nothing else, the old way.
#[allow(clippy::disallowed_methods)] // the oracle `Fields` is held to
fn sole<T>(text: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let mut words = text.split_whitespace();
    let value = parse(words.next()?)?;
    words.next().is_none().then_some(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn unseal_accepts_what_the_reverse_search_accepted(text in arb_text()) {
        prop_assert_eq!(unseal(&text), unseal_by_search(&text), "{:?}", text);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the oracle `Fields` is held to
    fn fields_split_words_as_split_whitespace_does(text in arb_text()) {
        let words = Fields::parse(&text, |fields| {
            Some(std::iter::from_fn(|| fields.word()).collect::<Vec<_>>())
        });
        prop_assert_eq!(words, Some(text.split_whitespace().collect::<Vec<_>>()));
    }

    #[test]
    fn fields_read_numbers_as_the_standard_parsers_do(
        text in prop_oneof![arb_number_text(), arb_hex_word()]
    ) {
        let dec = |word: &str| word.parse::<u64>().ok();
        prop_assert_eq!(Fields::parse(&text, Fields::dec::<u64>), sole(&text, dec), "{:?}", text);
        let hex = |word: &str| u64::from_str_radix(word, 16).ok();
        prop_assert_eq!(Fields::parse(&text, Fields::hex), sole(&text, hex), "{:?}", text);
        let narrow = |word: &str| word.parse::<u16>().ok();
        prop_assert_eq!(Fields::parse(&text, Fields::dec::<u16>), sole(&text, narrow), "{:?}", text);
        let byte = |word: &str| word.parse::<u8>().ok();
        prop_assert_eq!(Fields::parse(&text, Fields::dec::<u8>), sole(&text, byte), "{:?}", text);
        let float = |word: &str| word.parse::<f64>().ok();
        prop_assert_eq!(
            Fields::parse(&text, Fields::float).map(float_key),
            sole(&text, float).map(float_key),
            "{:?}", text
        );
    }
}

#[test]
fn unseal_hand_cases_on_the_edge_of_the_accept_set() {
    let line = sealed("put 5 alpha 5e-1");
    let bare = line.trim_end();
    let (body, digits) = bare.rsplit_once(' ').unwrap();
    let accepted = [
        bare.to_string(),
        format!("{bare}\r"),
        format!("{bare}\r\n"),
        format!("{bare}  \t\u{a0}"),
        // `hex.trim()` let blanks in behind the tag's own space.
        format!("{body}  {digits}"),
        format!("{body} \u{2003}{digits} "),
        format!("{body} {}", digits.to_uppercase()),
        // A seal inside the body is covered bytes; so is anything else.
        sealed(bare),
        sealed("a crc b"),
        sealed(" crc "),
        sealed(""),
        sealed("naïve \u{10348} crc"),
        sealed("trailing blank "),
    ];
    for line in &accepted {
        assert!(unseal(line).is_some(), "{line:?}");
        assert_eq!(unseal(line), unseal_by_search(line), "{line:?}");
    }
    let rejected = [
        String::new(),
        "crc".to_string(),
        digits.to_string(),
        format!(" crc{digits}"),
        format!("{body}\t{digits}"),
        format!("{body}\u{a0}{digits}"),
        format!("put 5 alpha 5e-1\tcrc {digits}"),
        format!("{body} +{}", &digits[1..]),
        format!("{body} 0{digits}"),
        format!("{body} {}", &digits[1..]),
        format!("{body} {digits}x"),
        format!("{body} {digits} crc"),
        format!("x{bare}"),
        bare.replace("crc", "CRC"),
    ];
    for line in &rejected {
        assert_eq!(unseal(line), None, "{line:?}");
        assert_eq!(unseal_by_search(line), None, "{line:?}");
    }
}

#[test]
fn number_hand_cases_agree_with_the_standard_parsers() {
    const INF: f64 = f64::INFINITY;
    for (text, dec, hex, float) in [
        ("0", Some(0), Some(0), Some(0.0)),
        ("+7", Some(7), Some(7), Some(7.0)),
        ("  +7\t", Some(7), Some(7), Some(7.0)),
        ("007", Some(7), Some(7), Some(7.0)),
        (
            "18446744073709551615",
            Some(u64::MAX),
            None,
            Some(u64::MAX as f64),
        ),
        ("18446744073709551616", None, None, Some(u64::MAX as f64)),
        ("ffffffffffffffff", None, Some(u64::MAX), None),
        ("FFFFffffFFFFffff", None, Some(u64::MAX), None),
        ("0ffffffffffffffff", None, Some(u64::MAX), None),
        (
            "10000000000000000",
            Some(10_000_000_000_000_000),
            None,
            Some(1e16),
        ),
        ("", None, None, None),
        (" ", None, None, None),
        ("+", None, None, None),
        ("-", None, None, None),
        ("-0", None, None, Some(-0.0)),
        ("++1", None, None, None),
        ("1+", None, None, None),
        ("1 2", None, None, None),
        ("1_000", None, None, None),
        ("0x10", None, None, None),
        ("１", None, None, None),
        ("inf", None, None, Some(INF)),
        ("NaN", None, None, Some(f64::NAN)),
        ("infinity", None, None, Some(INF)),
        ("1e400", None, Some(0x1e400), Some(INF)),
        (".", None, None, None),
        ("e", None, Some(14), None),
        ("E", None, Some(14), None),
        // 15, 16 and 17 hex digits: one short of, exactly and one past
        // the word `hex16` writes.
        ("123456789abcdef", None, Some(0x0123_4567_89ab_cdef), None),
        ("0123456789ABCDEF", None, Some(0x0123_4567_89ab_cdef), None),
        ("+0123456789abcdef", None, Some(0x0123_4567_89ab_cdef), None),
        ("0123456789abcdefg", None, None, None),
        (
            "0123456789abcdef\u{a0}",
            None,
            Some(0x0123_4567_89ab_cdef),
            None,
        ),
        ("00123456789abcdef", None, Some(0x0123_4567_89ab_cdef), None),
        ("10123456789abcdef", None, None, None),
    ] {
        assert_eq!(Fields::parse(text, Fields::dec::<u64>), dec, "dec {text:?}");
        assert_eq!(sole(text, |w| w.parse::<u64>().ok()), dec, "dec {text:?}");
        assert_eq!(Fields::parse(text, Fields::hex), hex, "hex {text:?}");
        let std_hex = sole(text, |w| u64::from_str_radix(w, 16).ok());
        assert_eq!(std_hex, hex, "hex {text:?}");
        let float = float.map(float_key);
        let read = Fields::parse(text, Fields::float).map(float_key);
        assert_eq!(read, float, "float {text:?}");
        let std_float = sole(text, |w| w.parse::<f64>().ok()).map(float_key);
        assert_eq!(std_float, float, "float {text:?}");
    }
    assert_eq!(Fields::parse("65535", Fields::dec::<u16>), Some(u16::MAX));
    assert_eq!(Fields::parse("65536", Fields::dec::<u16>), None);
    assert_eq!(Fields::parse("+0255", Fields::dec::<u8>), Some(u8::MAX));
    assert_eq!(Fields::parse("256", Fields::dec::<u8>), None);
}
