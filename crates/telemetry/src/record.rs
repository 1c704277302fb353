//! The per-invocation telemetry event and its fixed-width wire encoding.
//!
//! One [`DecisionRecord`] is emitted per kernel invocation that reaches a
//! scheduling frontend. It captures the whole story of that invocation:
//! which control path Figure 7 took, what the profiler observed (R_C,
//! R_G), what the model predicted (P(α), T(α), OBJ), and what actually
//! happened (realized time and energy of the profiling phase and the
//! final split), plus the fault/breaker context. The record is a plain
//! value type; the ring sink stores it as a fixed array of `u64` words
//! ([`DecisionRecord::encode`]) so writers never allocate or lock.

/// Which Figure 7 control path an invocation took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum InvocationPath {
    /// Steps 2–4: a learned α was reused straight from the kernel table.
    #[default]
    TableHit,
    /// Steps 6–10: the invocation was too small to fill the GPU and ran
    /// CPU-only.
    SmallN,
    /// Steps 11–26: a first-seen kernel was profiled online and the
    /// remainder ran at the decided α.
    Profiled,
    /// A known kernel was re-profiled (periodic re-profile or a tainted
    /// table entry).
    Reprofiled,
    /// A half-open circuit breaker routed this invocation through a
    /// recovery probe (profiling with table reuse skipped).
    Probe,
    /// Profiling gave up after sustained faults; the remainder ran at the
    /// last trusted α (or CPU-only).
    Degraded,
    /// An open circuit breaker quarantined the GPU; the invocation ran
    /// CPU-only and learned nothing.
    Quarantined,
    /// The admission layer's brownout ladder gated the GPU for this
    /// invocation (deny-new-offload or forced α = 0); it ran CPU-only
    /// and learned nothing.
    Throttled,
}

impl InvocationPath {
    /// Stable wire code of the path.
    pub(crate) fn code(self) -> u8 {
        match self {
            InvocationPath::TableHit => 0,
            InvocationPath::SmallN => 1,
            InvocationPath::Profiled => 2,
            InvocationPath::Reprofiled => 3,
            InvocationPath::Probe => 4,
            InvocationPath::Degraded => 5,
            InvocationPath::Quarantined => 6,
            InvocationPath::Throttled => 7,
        }
    }

    /// Decodes a wire code; unknown codes map to `None`.
    pub fn from_code(code: u8) -> Option<InvocationPath> {
        Some(match code {
            0 => InvocationPath::TableHit,
            1 => InvocationPath::SmallN,
            2 => InvocationPath::Profiled,
            3 => InvocationPath::Reprofiled,
            4 => InvocationPath::Probe,
            5 => InvocationPath::Degraded,
            6 => InvocationPath::Quarantined,
            7 => InvocationPath::Throttled,
            _ => return None,
        })
    }

    /// Human-readable label, also used in the trace export.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            InvocationPath::TableHit => "table-hit",
            InvocationPath::SmallN => "small-n",
            InvocationPath::Profiled => "profiled",
            InvocationPath::Reprofiled => "reprofiled",
            InvocationPath::Probe => "probe",
            InvocationPath::Degraded => "degraded",
            InvocationPath::Quarantined => "quarantined",
            InvocationPath::Throttled => "throttled",
        }
    }

    /// Whether records on this path carry a model prediction (the paths
    /// that finished a profiling pass and executed at the decided α).
    pub fn has_prediction(self) -> bool {
        matches!(
            self,
            InvocationPath::Profiled | InvocationPath::Reprofiled | InvocationPath::Probe
        )
    }
}

/// Sentinel for "no workload class" / "no fault" in the packed byte
/// fields.
const NONE_BYTE: u8 = u8::MAX;

/// One structured telemetry event per kernel invocation.
///
/// Times are in (virtual) seconds, rates in items/second, energies in
/// joules — the same units the scheduler itself works in. Fields that do
/// not apply to a path are zero (e.g. `predicted_time` on a table hit);
/// [`InvocationPath::has_prediction`] tells the analyzer which records
/// can be compared against the model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionRecord {
    /// Global sequence number, assigned by the sink in publication order.
    pub seq: u64,
    /// The kernel the invocation belonged to.
    pub kernel: u64,
    /// Which Figure 7 control path the invocation took.
    pub path: InvocationPath,
    /// Workload-class index (0..8) from the last accepted profiling
    /// round, if the invocation profiled.
    pub class: Option<u8>,
    /// Circuit-breaker state after the invocation (0 closed, 1 open,
    /// 2 half-open).
    pub breaker: u8,
    /// Guard code of the last rejected observation, if any round faulted.
    pub last_fault: Option<u8>,
    /// Accepted profiling rounds.
    pub rounds: u32,
    /// Rejected (faulty) profiling rounds.
    pub fault_rounds: u32,
    /// Combined-mode CPU throughput from the last accepted round.
    pub r_c: f64,
    /// Combined-mode GPU throughput from the last accepted round.
    pub r_g: f64,
    /// The offload ratio the remainder actually executed at.
    pub alpha: f64,
    /// Model-predicted package power P(α) at the executed α, watts.
    pub predicted_power: f64,
    /// Model-predicted remainder time T(α) at the executed α, seconds.
    pub predicted_time: f64,
    /// Objective value OBJ(P(α), T(α)) the minimizer chose.
    pub predicted_objective: f64,
    /// Realized wall time of the profiling phase.
    pub profile_time: f64,
    /// Realized energy of the profiling phase, joules.
    pub profile_energy: f64,
    /// Realized wall time of the final split (the remainder run).
    pub split_time: f64,
    /// Realized energy of the final split, joules.
    pub split_energy: f64,
    /// Items in the invocation.
    pub items: u64,
    /// Wall-clock nanoseconds spent in vet + decide across the
    /// invocation (measured only when a sink is attached).
    pub decide_nanos: u64,
}

impl DecisionRecord {
    /// Number of `u64` words in the wire encoding (`seq` is carried by
    /// the ring slot, not the payload).
    pub const WORDS: usize = 13;

    /// Packs the record into fixed-width words for the lock-free ring.
    /// `rounds`/`fault_rounds` saturate at `u16::MAX`.
    pub fn encode(&self) -> [u64; Self::WORDS] {
        let packed = u64::from(self.class.unwrap_or(NONE_BYTE))
            | u64::from(self.path.code()) << 8
            | u64::from(self.breaker) << 16
            | u64::from(self.last_fault.unwrap_or(NONE_BYTE)) << 24
            | u64::from(self.rounds.min(u32::from(u16::MAX)) as u16) << 32
            | u64::from(self.fault_rounds.min(u32::from(u16::MAX)) as u16) << 48;
        let items_word = self.items.min(ITEM_MASK) | self.decide_nanos.min(NANOS_MAX) << ITEM_BITS;
        [
            self.kernel,
            packed,
            self.r_c.to_bits(),
            self.r_g.to_bits(),
            self.alpha.to_bits(),
            self.predicted_power.to_bits(),
            self.predicted_time.to_bits(),
            self.predicted_objective.to_bits(),
            self.profile_time.to_bits(),
            self.profile_energy.to_bits(),
            self.split_time.to_bits(),
            self.split_energy.to_bits(),
            items_word,
        ]
    }

    /// Unpacks a record from ring words; `seq` is supplied by the slot.
    pub fn decode(seq: u64, words: &[u64; Self::WORDS]) -> DecisionRecord {
        let packed = words[1];
        let class = (packed & 0xFF) as u8;
        let path = ((packed >> 8) & 0xFF) as u8;
        let breaker = ((packed >> 16) & 0xFF) as u8;
        let last_fault = ((packed >> 24) & 0xFF) as u8;
        let (items, decide_nanos) = unsplit(words[12]);
        DecisionRecord {
            seq,
            kernel: words[0],
            path: InvocationPath::from_code(path).unwrap_or_default(),
            class: (class != NONE_BYTE).then_some(class),
            breaker,
            last_fault: (last_fault != NONE_BYTE).then_some(last_fault),
            rounds: ((packed >> 32) & 0xFFFF) as u32,
            fault_rounds: ((packed >> 48) & 0xFFFF) as u32,
            r_c: f64::from_bits(words[2]),
            r_g: f64::from_bits(words[3]),
            alpha: f64::from_bits(words[4]),
            predicted_power: f64::from_bits(words[5]),
            predicted_time: f64::from_bits(words[6]),
            predicted_objective: f64::from_bits(words[7]),
            profile_time: f64::from_bits(words[8]),
            profile_energy: f64::from_bits(words[9]),
            split_time: f64::from_bits(words[10]),
            split_energy: f64::from_bits(words[11]),
            items,
            decide_nanos,
        }
    }

    /// Bit-level equality: like `==`, except NaN floats compare equal to
    /// themselves. Fault-corrupted records legitimately carry NaN phase
    /// totals, so trace round-trip checks use this instead of
    /// `PartialEq` (under which any NaN field makes a record unequal to
    /// its own copy).
    pub fn bitwise_eq(&self, other: &DecisionRecord) -> bool {
        self.seq == other.seq && self.encode() == other.encode()
    }

    /// Total realized wall time of the invocation.
    pub fn total_time(&self) -> f64 {
        self.profile_time + self.split_time
    }
}

/// The six fields [`MetricsRegistry`](crate::MetricsRegistry) derives
/// its metrics from, read straight out of a record's ring words: five of
/// the thirteen words, each loaded once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MetricFields {
    pub(crate) path: InvocationPath,
    pub(crate) breaker: u8,
    pub(crate) alpha: f64,
    pub(crate) profile_time: f64,
    pub(crate) split_time: f64,
    /// Saturated at the word's 24 bits, as [`DecisionRecord::encode`]
    /// stores it.
    pub(crate) decide_nanos: u64,
}

impl MetricFields {
    /// Reads the fields of the record whose `i`th ring word is `word(i)`.
    pub(crate) fn read(word: impl Fn(usize) -> u64) -> MetricFields {
        let packed = word(1);
        MetricFields {
            path: InvocationPath::from_code(((packed >> 8) & 0xFF) as u8).unwrap_or_default(),
            breaker: ((packed >> 16) & 0xFF) as u8,
            alpha: f64::from_bits(word(4)),
            profile_time: f64::from_bits(word(8)),
            split_time: f64::from_bits(word(10)),
            decide_nanos: unsplit(word(12)).1,
        }
    }
}

/// `items` and `decide_nanos` share the last word: `items` in the low 40
/// bits (a 10¹² ceiling, far beyond any invocation here) and
/// `decide_nanos` in the high 24, saturating at ~16.7 ms — decisions are
/// the paper's "1–2 µs" path, so that is three orders of magnitude of
/// headroom. Both saturate rather than wrap.
const ITEM_BITS: u32 = 40;
const ITEM_MASK: u64 = (1 << ITEM_BITS) - 1;
pub(crate) const NANOS_MAX: u64 = (1 << (64 - ITEM_BITS)) - 1;

fn unsplit(word: u64) -> (u64, u64) {
    (word & ITEM_MASK, word >> ITEM_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionRecord {
        DecisionRecord {
            seq: 17,
            kernel: 0xDEAD_BEEF_CAFE,
            path: InvocationPath::Reprofiled,
            class: Some(5),
            breaker: 2,
            last_fault: Some(3),
            rounds: 9,
            fault_rounds: 2,
            r_c: 1.25e6,
            r_g: 3.5e6,
            alpha: 0.7,
            predicted_power: 43.25,
            predicted_time: 0.0123,
            predicted_objective: 0.00654,
            profile_time: 0.004,
            profile_energy: 0.17,
            split_time: 0.0125,
            split_energy: 0.52,
            items: 1_000_000,
            decide_nanos: 2_345,
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let r = sample();
        let words = r.encode();
        assert_eq!(DecisionRecord::decode(r.seq, &words), r);
    }

    #[test]
    fn none_fields_roundtrip() {
        let r = DecisionRecord {
            class: None,
            last_fault: None,
            path: InvocationPath::Quarantined,
            ..sample()
        };
        let back = DecisionRecord::decode(r.seq, &r.encode());
        assert_eq!(back.class, None);
        assert_eq!(back.last_fault, None);
        assert_eq!(back, r);
    }

    #[test]
    fn counters_saturate_not_wrap() {
        let r = DecisionRecord {
            rounds: 1_000_000,
            fault_rounds: u32::MAX,
            items: u64::MAX,
            decide_nanos: u64::MAX,
            ..sample()
        };
        let back = DecisionRecord::decode(0, &r.encode());
        assert_eq!(back.rounds, u64::from(u16::MAX) as u32);
        assert_eq!(back.fault_rounds, u64::from(u16::MAX) as u32);
        assert_eq!(back.items, ITEM_MASK);
        assert_eq!(back.decide_nanos, NANOS_MAX);
    }

    #[test]
    fn metric_fields_read_what_decode_reads() {
        for r in [
            sample(),
            DecisionRecord {
                decide_nanos: u64::MAX,
                alpha: f64::NAN,
                ..sample()
            },
        ] {
            let words = r.encode();
            let back = DecisionRecord::decode(0, &words);
            let fields = MetricFields::read(|i| words[i]);
            assert_eq!(fields.path, back.path);
            assert_eq!(fields.breaker, back.breaker);
            assert_eq!(fields.alpha.to_bits(), back.alpha.to_bits());
            assert_eq!(fields.profile_time, back.profile_time);
            assert_eq!(fields.split_time, back.split_time);
            assert_eq!(fields.decide_nanos, back.decide_nanos);
        }
    }

    #[test]
    fn every_path_code_roundtrips() {
        for code in 0..8 {
            let p = InvocationPath::from_code(code).unwrap();
            assert_eq!(p.code(), code);
        }
        assert_eq!(InvocationPath::from_code(8), None);
    }
}
