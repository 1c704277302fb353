//! The sealed-line codec shared by every text format in the workspace:
//! the table journal, the persisted model/table files, the run log and
//! the fleet's frames all end a line (or a file) with an FNV-1a digest of
//! what came before, and write floats as 16-hex-digit bit patterns so a
//! value survives the round trip bit for bit.
//!
//! A sealed line is `<body> crc <16 hex digits>\n`. A reader that finds
//! no seal, a malformed seal or a digest mismatch treats the line — and
//! everything after it — as a torn tail.

use std::fmt::{self, Display, Write};
use std::str::SplitWhitespace;

/// FNV-1a, 64-bit. Not cryptographic — it guards against truncation and
/// bit rot, not adversaries — but the per-byte xor-then-multiply step is
/// injective, so any single corrupted byte changes the digest. Kernel
/// ids and run-seed derivation hash with it too.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends `body`, its seal and a newline to `out`.
pub fn seal_line(out: &mut String, body: &str) {
    debug_assert!(!body.contains('\n'), "sealed lines are single lines");
    out.push_str(body);
    let _ = writeln!(out, " crc {:016x}", fnv1a64(body.as_bytes()));
}

/// One sealed line as its own string.
pub fn sealed(body: &str) -> String {
    let mut line = String::with_capacity(body.len() + 22);
    seal_line(&mut line, body);
    line
}

/// Strips and verifies the trailing seal: `None` unless the line ends in
/// ` crc ` plus exactly 16 hex digits that match the body's digest.
pub fn unseal(line: &str) -> Option<&str> {
    let (body, hex) = line.rsplit_once(" crc ")?;
    let hex = hex.trim();
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == stored).then_some(body)
}

/// Displays an `f64` as its bit pattern in 16 hex digits.
#[derive(Debug, Clone, Copy)]
pub struct Bits(pub f64);

impl Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

/// Parses the next word as the hex bit pattern [`Bits`] wrote.
pub fn next_bits(parts: &mut SplitWhitespace<'_>) -> Option<f64> {
    u64::from_str_radix(parts.next()?, 16)
        .ok()
        .map(f64::from_bits)
}

/// Names inside a line are code-chosen, but whitespace would break the
/// line grammar: squash any stray space.
pub fn sanitize(s: &str) -> String {
    s.replace(char::is_whitespace, "_")
}

/// `Some(())` only when the iterator is exhausted (trailing junk on a
/// line is treated as corruption).
pub fn end_of(mut parts: SplitWhitespace<'_>) -> Option<()> {
    parts.next().is_none().then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bits_survive_the_round_trip_exactly() {
        for v in [0.1, -0.0, f64::MIN_POSITIVE, f64::INFINITY] {
            let text = format!("{} tail", Bits(v));
            let mut parts = text.split_whitespace();
            assert_eq!(next_bits(&mut parts).map(f64::to_bits), Some(v.to_bits()));
            assert_eq!(end_of(parts), None);
        }
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let text = Bits(nan).to_string();
        assert_eq!(text, "7ff80000deadbeef");
        let mut parts = text.split_whitespace();
        assert_eq!(next_bits(&mut parts).map(f64::to_bits), Some(nan.to_bits()));
        assert_eq!(end_of(parts), Some(()));
        assert_eq!(sanitize("a b\tc"), "a_b_c");
    }
}
