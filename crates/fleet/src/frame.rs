//! The replication wire format: sealed envelopes in sealed frames.
//!
//! A [`Frame`] is the atomic transport unit of the anti-entropy protocol
//! (DESIGN.md §15). It is line-oriented text in the v3 journal's idiom:
//! every line carries a trailing `crc <hex>` FNV-1a seal, floats ride as
//! `{:016x}` bit patterns (byte-exact, NaN included), and a header/footer
//! pair brackets the body so a frame torn anywhere — mid-line, mid-body,
//! or mid-footer — is rejected *whole*. Entries never apply partially.
//!
//! Two frame kinds exist:
//!
//! * `req` — a puller's watermark vector: one `want <origin> <gen> <seq>`
//!   line per origin it knows about. The receiver answers with every
//!   envelope the puller lacks.
//! * `ent` — a batch of [`Envelope`]s, each a single sealed line, in
//!   strictly increasing `(generation, seq)` order per origin.
//!
//! One private writer lays out every frame, whichever way its body was
//! made: [`Frame::encode`] writes the body from a payload, a node's answer
//! splices envelope lines from its retransmission log, and a pull round
//! seals its `want` lines once and frames them per peer. One decoder,
//! [`FrameView::decode`], reads every frame in place: an entries line
//! becomes an [`EnvelopeView`] that borrows its platform and its sealed
//! line from the frame text, and [`Frame::decode`] is that decoder plus a
//! copy into owned envelopes. An envelope line is sealed once, by its
//! origin: a node logs an admitted line as it arrived and relays those
//! bytes.

use easched_runtime::{unseal, Fields, LineWriter, MIN_SEALED_LINE};

/// A node's identity within the fleet (dense, 0-based).
pub(crate) type NodeId = u16;

/// A replication version: the envelope's position in its origin's stream.
///
/// Versions order lexicographically as `(generation, seq, origin)`. The
/// generation is the origin's node epoch (bumped across crash/restart,
/// fenced by the journal's snapshot generation), `seq` counts envelopes
/// within an epoch from 1, and the origin id breaks the (never expected,
/// but total-order-required) cross-origin tie deterministically. Applying
/// by max version is what makes replication last-writer-wins and
/// order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Version {
    /// The origin's node epoch.
    pub(crate) generation: u64,
    /// 1-based position within the epoch.
    pub(crate) seq: u64,
    /// The originating node.
    pub(crate) origin: NodeId,
}

/// What an envelope says about a kernel on its origin's platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Absolute table state for one kernel — not a delta, so applying the
    /// max-version `Put` alone reconstructs the entry.
    Put {
        /// Kernel id.
        kernel: u64,
        /// Learned offload ratio.
        alpha: f64,
        /// Accumulated sample weight.
        weight: f64,
        /// Invocations observed by the origin.
        seen: u64,
        /// Whether the origin had the entry tainted at publish time.
        tainted: bool,
    },
    /// The origin quarantined this kernel's entry (fault pipeline). A
    /// taint is a separate monotone fact, not an overwrite: it beats any
    /// older `Put` and is beaten by any newer one, so replicas converge
    /// regardless of arrival order.
    Taint {
        /// Kernel id.
        kernel: u64,
    },
}

impl Op {
    /// The kernel this op concerns.
    pub(crate) fn kernel(&self) -> u64 {
        match *self {
            Op::Put { kernel, .. } | Op::Taint { kernel } => kernel,
        }
    }
}

/// One replicated journal fact: who learned what, where, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The node that learned the fact.
    pub origin: NodeId,
    /// The origin's platform name — the namespace the fact is truth in.
    /// On any *other* platform it is at most a warm-start prior.
    pub platform: String,
    /// Origin's node epoch at publish time.
    pub generation: u64,
    /// 1-based position within the epoch.
    pub seq: u64,
    /// The fact itself.
    pub op: Op,
}

impl Envelope {
    /// This envelope's replication version.
    pub(crate) fn version(&self) -> Version {
        Version {
            generation: self.generation,
            seq: self.seq,
            origin: self.origin,
        }
    }

    /// Appends this envelope's sealed line to `out`: the line an entries
    /// frame carries, and the one a retransmission log keeps.
    pub(crate) fn seal_into(&self, out: &mut String) {
        let tag = match self.op {
            Op::Put { .. } => "put",
            Op::Taint { .. } => "taint",
        };
        let line = LineWriter::begin(out, tag)
            .dec(u64::from(self.origin))
            .name(&self.platform)
            .dec(self.generation)
            .dec(self.seq)
            .hex16(self.op.kernel());
        let line = match self.op {
            Op::Put {
                alpha,
                weight,
                seen,
                tainted,
                ..
            } => line
                .bits(alpha)
                .bits(weight)
                .dec(seen)
                .dec(u64::from(tainted)),
            Op::Taint { .. } => line,
        };
        line.seal();
    }
}

/// One envelope line of an entries frame, read in place: the envelope's
/// fields, its platform borrowed from the frame text, and the sealed line
/// as it arrived (without its line ending).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvelopeView<'a> {
    /// The node that learned the fact.
    pub(crate) origin: NodeId,
    /// The origin's platform name.
    pub(crate) platform: &'a str,
    /// Origin's node epoch at publish time.
    pub(crate) generation: u64,
    /// 1-based position within the epoch.
    pub(crate) seq: u64,
    /// The fact itself.
    pub(crate) op: Op,
    /// The sealed line the fields were read from.
    pub(crate) line: &'a str,
}

impl<'a> EnvelopeView<'a> {
    /// Verifies `line`'s seal and reads every field of its body.
    pub(crate) fn parse(line: &'a str) -> Option<EnvelopeView<'a>> {
        Fields::parse(unseal(line)?, |fields| {
            let word = fields.word()?;
            let origin = fields.dec()?;
            let platform = fields.word()?;
            let generation = fields.dec()?;
            let seq = fields.dec()?;
            let kernel = fields.hex()?;
            let op = match word {
                "put" => Op::Put {
                    kernel,
                    alpha: fields.bits()?,
                    weight: fields.bits()?,
                    seen: fields.dec()?,
                    tainted: match fields.word()? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                },
                "taint" => Op::Taint { kernel },
                _ => return None,
            };
            Some(EnvelopeView {
                origin,
                platform,
                generation,
                seq,
                op,
                line,
            })
        })
    }

    /// This envelope's replication version.
    pub(crate) fn version(&self) -> Version {
        Version {
            generation: self.generation,
            seq: self.seq,
            origin: self.origin,
        }
    }

    /// The envelope, owned.
    pub(crate) fn to_envelope(self) -> Envelope {
        Envelope {
            origin: self.origin,
            platform: self.platform.to_string(),
            generation: self.generation,
            seq: self.seq,
            op: self.op,
        }
    }
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// A puller's watermark vector: `(origin, generation, seq)` high-water
    /// marks, one per origin the puller has applied anything from.
    Request(Vec<(NodeId, u64, u64)>),
    /// A batch of envelopes answering a request.
    Entries(Vec<Envelope>),
}

/// What a frame carries, read in place: [`FramePayload`] with every
/// envelope an [`EnvelopeView`] into the frame text.
#[derive(Debug)]
pub(crate) enum PayloadView<'a> {
    /// A puller's watermark vector.
    Request(Vec<(NodeId, u64, u64)>),
    /// A batch of envelope lines.
    Entries(Vec<EnvelopeView<'a>>),
}

/// A frame read in place: the one decoder behind [`Frame::decode`].
#[derive(Debug)]
pub(crate) struct FrameView<'a> {
    /// Sending node.
    pub(crate) from: NodeId,
    /// Receiving node.
    pub(crate) to: NodeId,
    /// The payload.
    pub(crate) payload: PayloadView<'a>,
}

impl<'a> FrameView<'a> {
    /// Decodes a frame, rejecting it whole on any torn or corrupt line:
    /// every line's seal is verified and every line read in full, whether
    /// or not its receiver will admit it.
    pub(crate) fn decode(text: &'a str) -> Result<FrameView<'a>, FrameError> {
        let mut lines = text.lines();
        let header = lines.next().and_then(unseal).ok_or(FrameError::BadHeader)?;
        let (from, to, kind, n) = parse_header(header).ok_or(FrameError::BadHeader)?;
        // `n` is whatever the header claims: it bounds the loop, which a
        // missing line ends, and sizes an allocation only as far as the
        // text could hold lines of the shortest sealed length.
        let reserve = n.min(text.len() / MIN_SEALED_LINE);
        let payload = match kind {
            REQUEST => {
                let mut wants = Vec::with_capacity(reserve);
                for _ in 0..n {
                    let want = lines.next().and_then(unseal).and_then(parse_want);
                    wants.push(want.ok_or(FrameError::TornBody)?);
                }
                PayloadView::Request(wants)
            }
            ENTRIES => {
                let mut envs = Vec::with_capacity(reserve);
                for _ in 0..n {
                    let env = lines.next().and_then(EnvelopeView::parse);
                    envs.push(env.ok_or(FrameError::TornBody)?);
                }
                PayloadView::Entries(envs)
            }
            _ => return Err(FrameError::BadHeader),
        };

        let footer = lines
            .next()
            .and_then(unseal)
            .ok_or(FrameError::TornFooter)?;
        if parse_footer(footer) != Some(n) || lines.next().is_some() {
            return Err(FrameError::TornFooter);
        }
        Ok(FrameView { from, to, payload })
    }

    /// The frame, owned.
    fn into_frame(self) -> Frame {
        let payload = match self.payload {
            PayloadView::Request(wants) => FramePayload::Request(wants),
            PayloadView::Entries(envs) => {
                FramePayload::Entries(envs.into_iter().map(EnvelopeView::to_envelope).collect())
            }
        };
        Frame {
            from: self.from,
            to: self.to,
            payload,
        }
    }
}

/// The atomic transport unit: sender, receiver, and a sealed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub payload: FramePayload,
}

/// Why a byte blob failed to decode as a [`Frame`]. Every variant means
/// the *whole* frame is discarded — there is no partial apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The `frame ...` header line is missing, unsealed, or malformed.
    BadHeader,
    /// A body line is missing, unsealed, or malformed (torn frame,
    /// bit flip, or truncation).
    TornBody,
    /// The `frame-end <n>` footer is missing, unsealed, or disagrees with
    /// the body count (classic torn-tail signature).
    TornFooter,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader => write!(f, "frame header missing or corrupt"),
            FrameError::TornBody => write!(f, "frame body torn or corrupt"),
            FrameError::TornFooter => write!(f, "frame footer torn or corrupt"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// A request frame carrying the puller's watermark vector.
    pub fn request(from: NodeId, to: NodeId, wants: Vec<(NodeId, u64, u64)>) -> Frame {
        Frame {
            from,
            to,
            payload: FramePayload::Request(wants),
        }
    }

    /// An entries frame answering a request.
    pub fn entries(from: NodeId, to: NodeId, envelopes: Vec<Envelope>) -> Frame {
        Frame {
            from,
            to,
            payload: FramePayload::Entries(envelopes),
        }
    }

    /// Serializes the frame, every line sealed.
    pub fn encode(&self) -> String {
        let (from, to) = (self.from, self.to);
        match &self.payload {
            FramePayload::Request(wants) => framed(0, from, to, REQUEST, wants.len(), |out| {
                for &want in wants {
                    seal_want(out, want);
                }
            }),
            FramePayload::Entries(envs) => framed(0, from, to, ENTRIES, envs.len(), |out| {
                for env in envs {
                    env.seal_into(out);
                }
            }),
        }
    }

    /// Decodes a frame, rejecting it whole on any torn or corrupt line.
    pub fn decode(text: &str) -> Result<Frame, FrameError> {
        FrameView::decode(text).map(FrameView::into_frame)
    }
}

/// The header's kind word of a request frame.
const REQUEST: &str = "req";
/// The header's kind word of an entries frame.
const ENTRIES: &str = "ent";

/// What a header and a footer take together, at most: capacity reserved
/// beside a body whose length is known.
const FRAMING_BYTES: usize = 128;

/// The one writer of the frame layout: `frame <from> <to> <kind> <n>`,
/// the `n` sealed lines `body` appends, and `frame-end <n>`, in a string
/// of `capacity` bytes to start with.
fn framed(
    capacity: usize,
    from: NodeId,
    to: NodeId,
    kind: &str,
    n: usize,
    body: impl FnOnce(&mut String),
) -> String {
    let mut out = String::with_capacity(capacity);
    LineWriter::begin(&mut out, "frame")
        .dec(u64::from(from))
        .dec(u64::from(to))
        .word(kind)
        .dec(n as u64)
        .seal();
    body(&mut out);
    LineWriter::begin(&mut out, "frame-end")
        .dec(n as u64)
        .seal();
    out
}

/// Appends `want <origin> <generation> <seq>`, sealed.
fn seal_want(out: &mut String, (origin, generation, seq): (NodeId, u64, u64)) {
    LineWriter::begin(out, "want")
        .dec(u64::from(origin))
        .dec(generation)
        .dec(seq)
        .seal();
}

/// An entries frame from `from` to `to` around `n` logged envelope
/// lines: `runs` are copied as they are, so for lines their origin sealed
/// the bytes equal [`Frame::encode`]'s for the envelopes they carry.
pub(crate) fn spliced_entries(from: NodeId, to: NodeId, n: usize, runs: &[&str]) -> String {
    debug_assert_eq!(runs.iter().map(|run| run.lines().count()).sum::<usize>(), n);
    let len = runs.iter().map(|run| run.len()).sum::<usize>();
    framed(len + FRAMING_BYTES, from, to, ENTRIES, n, |out| {
        for run in runs {
            out.push_str(run);
        }
    })
}

/// A watermark vector's sealed `want` lines, written once and framed per
/// receiver: a pull round sends each peer it picked the same body, and
/// only the header names the peer.
#[derive(Debug)]
pub(crate) struct RequestBody {
    lines: String,
    n: usize,
}

impl RequestBody {
    /// Seals one `want` line per watermark, in the order given.
    pub(crate) fn new(wants: impl IntoIterator<Item = (NodeId, u64, u64)>) -> RequestBody {
        let mut body = RequestBody {
            lines: String::new(),
            n: 0,
        };
        for want in wants {
            seal_want(&mut body.lines, want);
            body.n += 1;
        }
        body
    }

    /// The request frame from `from` to `to` carrying this body: the
    /// bytes of [`Frame::request`]`(from, to, wants).encode()`.
    pub(crate) fn frame(&self, from: NodeId, to: NodeId) -> String {
        let capacity = self.lines.len() + FRAMING_BYTES;
        framed(capacity, from, to, REQUEST, self.n, |out| {
            out.push_str(&self.lines)
        })
    }
}

/// `frame <from> <to> <kind> <n>`.
fn parse_header(header: &str) -> Option<(NodeId, NodeId, &str, usize)> {
    Fields::parse(header, |f| {
        f.tag("frame")?;
        Some((f.dec()?, f.dec()?, f.word()?, f.dec()?))
    })
}

/// `want <origin> <generation> <seq>`.
fn parse_want(body: &str) -> Option<(NodeId, u64, u64)> {
    Fields::parse(body, |f| {
        f.tag("want")?;
        Some((f.dec()?, f.dec()?, f.dec()?))
    })
}

/// `frame-end <n>`; the tag ends at a space, not at any blank.
fn parse_footer(footer: &str) -> Option<usize> {
    Fields::parse(footer.strip_prefix("frame-end ")?, Fields::dec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Frame {
        Frame::entries(
            0,
            1,
            vec![
                Envelope {
                    origin: 0,
                    platform: "haswell-desktop".into(),
                    generation: 1,
                    seq: 1,
                    op: Op::Put {
                        kernel: 7,
                        alpha: 0.65,
                        weight: 12.0,
                        seen: 3,
                        tainted: false,
                    },
                },
                Envelope {
                    origin: 0,
                    platform: "haswell-desktop".into(),
                    generation: 1,
                    seq: 2,
                    op: Op::Taint { kernel: 7 },
                },
            ],
        )
    }

    #[test]
    fn entries_round_trip() {
        let frame = sample_entries();
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn request_round_trips() {
        let frame = Frame::request(2, 0, vec![(0, 1, 5), (1, 2, 0), (2, 1, 9)]);
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn nan_alpha_rides_bit_exact() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let frame = Frame::entries(
            1,
            0,
            vec![Envelope {
                origin: 1,
                platform: "baytrail-tablet".into(),
                generation: 3,
                seq: 1,
                op: Op::Put {
                    kernel: 9,
                    alpha: nan,
                    weight: f64::NEG_INFINITY,
                    seen: 0,
                    tainted: true,
                },
            }],
        );
        let back = Frame::decode(&frame.encode()).unwrap();
        let FramePayload::Entries(envs) = &back.payload else {
            panic!("entries frame");
        };
        let Op::Put { alpha, weight, .. } = envs[0].op else {
            panic!("put op");
        };
        assert_eq!(alpha.to_bits(), nan.to_bits());
        assert_eq!(weight, f64::NEG_INFINITY);
    }

    #[test]
    fn every_truncation_is_rejected_whole() {
        let text = sample_entries().encode();
        // Cutting exactly the trailing '\n' leaves every sealed line —
        // footer included — byte-intact, so that one prefix legitimately
        // decodes; every shorter prefix must be rejected whole.
        for cut in 0..text.len() - 1 {
            let torn = &text[..cut];
            assert!(
                Frame::decode(torn).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let text = sample_entries().encode();
        let bytes = text.as_bytes();
        // Flip one ASCII-visible bit in a few positions across the frame
        // (the proptest suite sweeps this exhaustively).
        for pos in [0, 7, bytes.len() / 2, bytes.len() - 2] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            let corrupt = String::from_utf8(corrupt).unwrap();
            if corrupt == text {
                continue;
            }
            assert!(Frame::decode(&corrupt).is_err(), "flip at {pos} decoded");
        }
    }

    #[test]
    fn footer_count_mismatch_is_torn() {
        let text = sample_entries().encode();
        // Drop the middle body line but keep header and footer intact.
        let lines: Vec<&str> = text.lines().collect();
        let shorter: String = [lines[0], lines[2], lines[3]]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(Frame::decode(&shorter), Err(FrameError::TornBody));
    }

    #[test]
    fn a_header_count_the_body_cannot_back_is_rejected_whole() {
        // The count is input: neither one `Vec::with_capacity` panics on
        // nor one the allocator gives up on may take the process down.
        for count in ["18446744073709551615", "100000000000000"] {
            for kind in ["ent", "req"] {
                let mut text = String::new();
                let header = LineWriter::begin(&mut text, "frame").dec(0).dec(1);
                header.word(kind).word(count).seal();
                LineWriter::begin(&mut text, "frame-end").word(count).seal();
                assert_eq!(Frame::decode(&text), Err(FrameError::TornBody));
            }
        }
    }

    #[test]
    fn versions_order_lexicographically() {
        let v = |generation, seq, origin| Version {
            generation,
            seq,
            origin,
        };
        assert!(v(1, 9, 2) < v(2, 1, 0), "generation dominates");
        assert!(v(1, 1, 0) < v(1, 2, 0), "then seq");
        assert!(v(1, 1, 0) < v(1, 1, 1), "then origin");
    }
}
