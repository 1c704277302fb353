//! The line codec shared by every text format in the workspace: the
//! table journal, the persisted model/table files, the run log and the
//! fleet's frames are all written by [`LineWriter`] and read by
//! [`Fields`], and all end a line (or a file) with an FNV-1a digest of
//! what came before.
//!
//! A sealed line is `<body> crc <16 hex digits>\n`. A reader that finds
//! no seal, a malformed seal or a digest mismatch treats the line — and
//! everything after it — as a torn tail.
//!
//! A body is a tag and space-separated fields. [`LineWriter`] appends
//! them straight into the caller's buffer and seals the bytes where they
//! lie; [`unseal`] reads the seal at its fixed offset from the end and
//! checks it from both ends of the body at once, and [`Fields`] walks the
//! body word by word, eight bytes at a time. Neither allocates. A float is
//! written one of two ways: as its 16-hex-digit bit pattern
//! ([`bits`](LineWriter::bits): the run log and the frames, NaN payloads
//! included) or in decimal ([`float`](LineWriter::float): the model and
//! table files, which a person may read).

use std::fmt::Write as _;

/// FNV-1a, 64-bit. Not cryptographic — it guards against truncation and
/// bit rot, not adversaries — but the per-byte xor-then-multiply step is
/// injective, so any single corrupted byte changes the digest. Kernel
/// ids and run-seed derivation hash with it too.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME`'s inverse modulo 2⁶⁴ (the prime is odd, so it has one).
const FNV_PRIME_INVERSE: u64 = 0xce96_5057_aff6_957b;
const _: () = assert!(FNV_PRIME.wrapping_mul(FNV_PRIME_INVERSE) == 1);

/// Whether `fnv1a64(body) == digest`, decided by two chains of half the
/// length that run side by side instead of one chain over the whole body.
///
/// Each FNV-1a step `h ↦ (h ^ b)·P` is a bijection of `u64` (xor with a
/// byte is its own inverse, and an odd `P` is invertible modulo 2⁶⁴), and
/// its inverse is `h ↦ (h·P⁻¹) ^ b`. So is the composition `F` of the
/// steps over the back half of the body. With `h` the digest of the front
/// half, `fnv1a64(body) = F(h)`, and because `F` is a bijection,
/// `F(h) == digest` exactly when `h == F⁻¹(digest)`: the forward chain
/// over the front half and the backward chain from `digest` over the back
/// half, last byte first, meet exactly when the seal holds. The verdict is
/// therefore the one-chain verdict, bit for bit, for every body and digest.
#[inline]
fn seal_matches(body: &[u8], digest: u64) -> bool {
    let half = body.len() / 2;
    let (front, back) = body.split_at(half);
    // An odd body leaves the back half one byte longer: that byte, the
    // first of the back half, is the backward chain's last step.
    let (odd, back) = back.split_at(back.len() - half);
    let (mut forward, mut backward) = (FNV_OFFSET, digest);
    for (&a, &z) in front.iter().zip(back.iter().rev()) {
        forward = (forward ^ u64::from(a)).wrapping_mul(FNV_PRIME);
        backward = backward.wrapping_mul(FNV_PRIME_INVERSE) ^ u64::from(z);
    }
    for &z in odd {
        backward = backward.wrapping_mul(FNV_PRIME_INVERSE) ^ u64::from(z);
    }
    forward == backward
}

/// One line under construction at the end of a caller's buffer. Every
/// field method appends a space and the field; [`seal`](LineWriter::seal)
/// or [`end`](LineWriter::end) finishes the line, and dropping the writer
/// leaves the bare body.
#[derive(Debug)]
pub struct LineWriter<'a> {
    out: &'a mut String,
    start: usize,
}

impl<'a> LineWriter<'a> {
    /// Starts a line at the end of `out` with `tag`, verbatim.
    #[inline]
    pub fn begin(out: &'a mut String, tag: &str) -> LineWriter<'a> {
        let start = out.len();
        out.push_str(tag);
        LineWriter { out, start }
    }

    /// A field written verbatim.
    #[inline]
    pub fn word(self, word: &str) -> Self {
        self.out.push(' ');
        self.out.push_str(word);
        self
    }

    /// A code-chosen name. Whitespace would break the line grammar, so
    /// any stray blank is squashed to `_`.
    #[inline]
    pub fn name(self, name: &str) -> Self {
        let mut parts = name.split(char::is_whitespace);
        let line = self.word(parts.next().unwrap_or_default());
        for part in parts {
            line.out.push('_');
            line.out.push_str(part);
        }
        line
    }

    /// An integer in decimal.
    #[inline]
    pub fn dec(self, mut value: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.ascii(&digits[at..])
    }

    /// A word as exactly 16 lower-case hex digits.
    #[inline]
    pub fn hex16(self, value: u64) -> Self {
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = b"0123456789abcdef"[(value >> (60 - 4 * i)) as usize & 0xf];
        }
        self.ascii(&digits)
    }

    /// An `f64` as its bit pattern ([`hex16`](LineWriter::hex16)): byte
    /// exact, NaN payloads included.
    #[inline]
    pub fn bits(self, value: f64) -> Self {
        self.hex16(value.to_bits())
    }

    /// An `f64` in decimal, as `{:e}` prints it: the shortest text that
    /// reads back to the same value (a NaN reads back without its
    /// payload).
    #[inline]
    pub fn float(self, value: f64) -> Self {
        let _ = write!(self.out, " {value:e}");
        self
    }

    #[inline]
    fn ascii(self, digits: &[u8]) -> Self {
        self.word(std::str::from_utf8(digits).expect("digits are ASCII"))
    }

    /// Appends the seal over everything written since
    /// [`begin`](LineWriter::begin), and the newline.
    #[inline]
    pub fn seal(self) {
        let body = &self.out.as_bytes()[self.start..];
        debug_assert!(!body.contains(&b'\n'), "sealed lines are single lines");
        let digest = fnv1a64(body);
        self.word("crc").hex16(digest).end();
    }

    /// Ends the line unsealed.
    #[inline]
    pub fn end(self) {
        self.out.push('\n');
    }
}

/// Strips and verifies the trailing seal: `None` unless the line ends in
/// ` crc ` plus exactly 16 hex digits that match the body's digest.
/// Blanks after the digits, and extra ones between the tag and the
/// digits, are tolerated.
pub fn unseal(line: &str) -> Option<&str> {
    let line = line.trim_end();
    let digits_at = line.len().checked_sub(16)?;
    let stored = hex16_value(line.as_bytes()[digits_at..].try_into().ok()?)?;
    // Sixteen ASCII digits were just read there, so it is a char boundary.
    let head = &line[..digits_at];
    let tagged = head.trim_end();
    if !head[tagged.len()..].starts_with(' ') {
        return None;
    }
    let body = tagged.strip_suffix(" crc")?;
    let intact = seal_matches(body.as_bytes(), stored);
    debug_assert_eq!(intact, fnv1a64(body.as_bytes()) == stored, "{body:?}");
    intact.then_some(body)
}

/// The shortest line [`unseal`] accepts: an empty body, ` crc ` and 16
/// digits. Text of `len` bytes holds at most `len / MIN_SEALED_LINE`
/// sealed lines, whatever a count written inside it claims.
pub const MIN_SEALED_LINE: usize = 21;

/// Bytes of text worth one pool job: the one size below which handing
/// text to a worker costs more than reading it on the caller's thread.
/// A run log's parse cuts its body into jobs of about this much (rounded
/// up to the next line start), and a fleet delivery pass whose inboxes
/// hold less than this in all runs its node jobs on the caller's thread:
/// an [`in_index_order`](easched_kernels::in_index_order) call costs tens
/// of microseconds before any job runs.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Each byte's value as a digit of either case, `0xff` for anything else.
const DIGIT: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        table[b"0123456789ABCDEF"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// The value of the run of digits in `radix` (10 or 16) that `bytes`
/// starts with, and the run's length. Leading zeros are free, as they are
/// to `from_str_radix`; `None` when the value passes 64 bits.
#[inline]
fn leading_digits(bytes: &[u8], radix: u64) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (at, &b) in bytes.iter().enumerate() {
        let d = u64::from(DIGIT[usize::from(b)]);
        if d >= radix {
            return Some((value, at));
        }
        value = value.checked_mul(radix)?.checked_add(d)?;
    }
    Some((value, bytes.len()))
}

/// Sixteen hex digits of either case as the value they spell, `None` when
/// any of them is no digit. Each half is checked and packed as one 64-bit
/// word (SWAR): a few word operations, none waiting on a digit before it.
#[inline]
fn hex16_value(word: &[u8; 16]) -> Option<u64> {
    let (high, low) = word.split_at(8);
    let (high, low) = (eight(high), eight(low));
    let value = (all_hex(high) && all_hex(low)).then(|| pack8_hex(high) << 32 | pack8_hex(low));
    debug_assert_eq!(
        value.map(|value| (value, 16)),
        leading_digits(word, 16).filter(|&(_, len)| len == 16),
        "{word:?}"
    );
    value
}

/// Eight bytes as one word, the first in the lowest byte.
#[inline]
fn eight(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Whether all eight bytes of `x` are hex digits of either case. With
/// every byte below 0x80, adding `0x80 - lo` to each sets its top bit
/// exactly when it is at least `lo`, and adding `0x7f - hi` exactly when
/// it is above `hi`, and no sum carries into the next byte.
#[inline]
fn all_hex(x: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const TOPS: u64 = 0x8080_8080_8080_8080;
    let at_least = |x: u64, lo: u8| x.wrapping_add(ONES * u64::from(0x80 - lo));
    let above = |x: u64, hi: u8| x.wrapping_add(ONES * u64::from(0x7f - hi));
    // Setting bit 5 folds `A..=F` onto `a..=f` and moves nothing else
    // into that range.
    let lower = x | 0x2020_2020_2020_2020;
    let digit = at_least(x, b'0') & !above(x, b'9');
    let letter = at_least(lower, b'a') & !above(lower, b'f');
    x & TOPS == 0 && (digit | letter) & TOPS == TOPS
}

/// The 32-bit value of eight hex digits (already known to be digits),
/// the first, in the lowest byte of `x`, the most significant.
#[inline]
fn pack8_hex(x: u64) -> u64 {
    // A digit's value is its low nibble, plus 9 for a letter of either
    // case (bit 6 set). Byte `i` of `x` now holds digit `i`.
    let x = (x & 0x0f0f_0f0f_0f0f_0f0f) + 9 * (x >> 6 & 0x0101_0101_0101_0101);
    // Pairs of digits into bytes, pairs of bytes into 16 bits, pairs of
    // those into 32: each step puts the earlier, lower-addressed half on top.
    let x = (x << 4 | x >> 8) & 0x00ff_00ff_00ff_00ff;
    let x = (x << 8 | x >> 16) & 0x0000_ffff_0000_ffff;
    (x << 16 | x >> 32) & 0xffff_ffff
}

/// The length of the run of blank (or, with `blank` false, non-blank)
/// characters `s` starts with. The run is walked character by character
/// with `char::is_whitespace` deciding, as `str::split_whitespace` does,
/// so it ends on a char boundary.
#[inline]
fn run_len(s: &str, blank: bool) -> usize {
    let mut at = 0;
    while at < s.len() {
        let (is_blank, len) = match s.as_bytes()[at] {
            b'\t'..=b'\r' | b' ' => (true, 1),
            0x80.. => {
                let c = s[at..].chars().next().expect("`at` is inside `s`");
                (c.is_whitespace(), c.len_utf8())
            }
            _ => (false, 1),
        };
        if is_blank != blank {
            break;
        }
        at += len;
    }
    at
}

/// The length of the word `s` starts with: [`run_len`] of the non-blank
/// run. Bytes in `0x21..=0x7f` are ASCII and never blank, so they are
/// skipped eight at a time; the first byte at or below `0x20` or at or
/// above `0x80` hands over to the per-character walk, which decides.
#[inline]
fn word_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut at = 0;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let x = eight(chunk);
        // The top bit of every byte ≥ 0x80, and of every byte < 0x21. The
        // subtraction borrows only out of a byte < 0x21, so any byte it
        // flags spuriously lies after a true one: the first flag is exact.
        let stops = (x.wrapping_sub(0x2121_2121_2121_2121) & !x | x) & 0x8080_8080_8080_8080;
        if stops != 0 {
            at += stops.trailing_zeros() as usize / 8;
            break;
        }
        at += 8;
    }
    // Everything skipped was ASCII, so `at` is a char boundary.
    at + run_len(&s[at..], false)
}

/// A cursor over the whitespace-separated fields of a line body. Words
/// are split exactly as `str::split_whitespace` splits them, and numbers
/// are accepted exactly as `str::parse` / `from_str_radix` accept them
/// (an optional leading `+`, leading zeros, `None` on overflow). After a
/// `None` the cursor is wherever the field gave up.
#[derive(Debug)]
pub struct Fields<'a> {
    /// What is left of the body; never starts with a blank.
    rest: &'a str,
}

impl<'a> Fields<'a> {
    /// Reads a whole `body` with `read`: `None` when `read` gives up or
    /// leaves a word unread (trailing junk on a line is corruption).
    #[inline]
    pub fn parse<T>(body: &'a str, read: impl FnOnce(&mut Fields<'a>) -> Option<T>) -> Option<T> {
        let mut fields = Fields {
            rest: &body[run_len(body, true)..],
        };
        let value = read(&mut fields)?;
        fields.rest.is_empty().then_some(value)
    }

    /// Steps over the `len`-byte word `rest` starts with and the blanks
    /// behind it: `None` when the word is longer than that.
    #[inline]
    fn take(&mut self, len: usize) -> Option<&'a str> {
        let (word, rest) = self.rest.split_at(len);
        // The one space a writer puts between words, before a byte that
        // cannot start a blank.
        let next = match rest.as_bytes() {
            [b' ', 0x21..=0x7f, ..] => 1,
            _ => run_len(rest, true),
        };
        if next == 0 && !rest.is_empty() {
            return None;
        }
        self.rest = &rest[next..];
        Some(word)
    }

    /// The next word, `None` at the end of the line.
    #[inline]
    pub fn word(&mut self) -> Option<&'a str> {
        let word = self.take(word_len(self.rest))?;
        (!word.is_empty()).then_some(word)
    }

    /// Consumes the next word if it is `tag`; `None` otherwise.
    #[inline]
    pub fn tag(&mut self, tag: &str) -> Option<()> {
        (self.word()? == tag).then_some(())
    }

    /// The next word as an integer in `radix`, read as it is found.
    #[inline]
    fn number(&mut self, radix: u64) -> Option<u64> {
        let bytes = self.rest.as_bytes();
        // The word `hex16` writes: exactly 16 hex digits always fit, so
        // they are read with no overflow check.
        if let (16, Some(word)) = (radix, bytes.first_chunk()) {
            if bytes.get(16).is_none_or(|&b| DIGIT[usize::from(b)] >= 16) {
                if let Some(value) = hex16_value(word) {
                    self.take(16)?;
                    return Some(value);
                }
            }
        }
        let sign = usize::from(bytes.first() == Some(&b'+'));
        let (value, digits) = leading_digits(&bytes[sign..], radix)?;
        self.take(sign + digits)?;
        (digits > 0).then_some(value)
    }

    /// The next word as a decimal integer that fits `T`.
    #[inline]
    pub fn dec<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.number(10)?).ok()
    }

    /// The next word as a hex integer ([`LineWriter::hex16`] writes 16
    /// digits; any count that fits 64 bits reads back).
    #[inline]
    pub fn hex(&mut self) -> Option<u64> {
        self.number(16)
    }

    /// The next word as the bit pattern [`LineWriter::bits`] wrote.
    #[inline]
    pub fn bits(&mut self) -> Option<f64> {
        self.hex().map(f64::from_bits)
    }

    /// The next word as a decimal float, accepted exactly as
    /// `str::parse::<f64>` accepts it ([`LineWriter::float`] writes one).
    /// A word that is no float stays unread.
    #[inline]
    pub fn float(&mut self) -> Option<f64> {
        let len = word_len(self.rest);
        let value = self.rest[..len].parse().ok()?;
        self.take(len)?;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `body` as one sealed line.
    fn sealed(body: &str) -> String {
        let mut line = String::new();
        LineWriter::begin(&mut line, body).seal();
        line
    }

    #[test]
    fn seal_round_trips_and_rejects_any_other_shape() {
        let line = sealed("put 5 alpha 5e-1");
        assert_eq!(line, "put 5 alpha 5e-1 crc 635982054fd9f6e3\n");
        assert_eq!(unseal(&line), Some("put 5 alpha 5e-1"));
        assert_eq!(unseal(line.trim_end()), Some("put 5 alpha 5e-1"));
        // Flipped body byte, short seal, signed seal, no seal.
        assert_eq!(unseal("put 6 alpha 5e-1 crc 635982054fd9f6e3"), None);
        assert_eq!(unseal("put 5 alpha 5e-1 crc 635982054fd9f6e"), None);
        let zero = sealed("x").replace("crc ", "crc +");
        assert_eq!(unseal(&zero), None);
        assert_eq!(unseal("put 5 alpha 5e-1"), None);
        // A seal inside the body is just covered bytes.
        let nested = sealed(line.trim_end());
        assert_eq!(unseal(&nested), Some(line.trim_end()));
    }

    #[test]
    fn the_shortest_sealed_line_is_min_sealed_line_bytes() {
        let empty = sealed("");
        let line = empty.trim_end();
        assert_eq!(line.len(), MIN_SEALED_LINE);
        assert_eq!(unseal(line), Some(""));
        for cut in 1..=line.len() {
            assert_eq!(unseal(&line[cut..]), None, "{cut} bytes off the front");
        }
    }

    #[test]
    fn fields_survive_the_round_trip_exactly() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for v in [0.1, -0.0, f64::MIN_POSITIVE, f64::INFINITY, nan] {
            let mut text = String::new();
            LineWriter::begin(&mut text, "v").bits(v).word("tail").end();
            let read = Fields::parse(&text, |f| {
                f.tag("v")?;
                let bits = f.bits()?;
                f.tag("tail").map(|()| bits)
            });
            assert_eq!(read.map(f64::to_bits), Some(v.to_bits()));
            let short = Fields::parse(&text, |f| f.tag("v").and_then(|()| f.bits()));
            assert_eq!(short, None, "a word left unread refuses the line");
        }
        let decimal = [
            0.1,
            2.0 / 3.0,
            -0.0,
            5e-324,
            f64::MAX,
            f64::NEG_INFINITY,
            nan,
        ];
        for v in decimal {
            let mut text = String::new();
            LineWriter::begin(&mut text, "v")
                .float(v)
                .word("tail")
                .end();
            assert_eq!(text, format!("v {v:e} tail\n"));
            let read = Fields::parse(&text, |f| {
                f.tag("v")?;
                let value = f.float()?;
                f.tag("tail").map(|()| value)
            })
            .expect("a written float reads back");
            // Decimal carries no NaN payload: NaN reads back as NaN.
            assert!(read.to_bits() == v.to_bits() || read.is_nan() && v.is_nan());
        }
        let mut text = String::new();
        let line = LineWriter::begin(&mut text, "t").bits(nan).dec(0);
        line.dec(u64::MAX).hex16(0xab).name("a b\tc\u{a0}").name("");
        assert_eq!(
            text,
            "t 7ff80000deadbeef 0 18446744073709551615 00000000000000ab a_b_c_ "
        );
    }
}
