//! The in-process fabric between fleet nodes: one seeded chaos transport.
//!
//! The anti-entropy protocol (DESIGN.md §15) hands encoded frames to a
//! [`ChaosTransport`] and polls each node's inbox. Seeded from
//! `RunSeed::derive("fleet")`, the transport drops, duplicates, reorders,
//! delays and tears frames, and enforces scheduled link partitions — all
//! deterministically, so every chaos run is byte-for-byte replayable.
//! Under [`ChaosConfig::quiet`] it delivers everything next tick, in
//! order: the control condition the convergence tests calibrate against.

use crate::frame::NodeId;
use easched_sim::splitmix64;
use std::fmt;
use std::str::FromStr;

/// Splits a scheduled fault's `a:b:c` text form into exactly `N` numeric
/// fields — the one codec under the spec line and the CLI flags of
/// [`Partition`], [`CrashPlan`](crate::CrashPlan) and
/// [`TaintPlan`](crate::TaintPlan).
pub(crate) fn colon_fields<const N: usize>(text: &str) -> Result<[u64; N], String> {
    let parts: Vec<&str> = text.split(':').collect();
    if parts.len() != N {
        return Err(format!("wants {N} colon-separated fields, got {text:?}"));
    }
    let mut out = [0u64; N];
    for (slot, part) in out.iter_mut().zip(&parts) {
        *slot = part.parse().map_err(|e| format!("field {part:?}: {e}"))?;
    }
    Ok(out)
}

/// Narrows a parsed field to a node id.
pub(crate) fn node_id(field: u64) -> Result<NodeId, String> {
    NodeId::try_from(field).map_err(|_| format!("node {field} out of range"))
}

/// A scheduled bidirectional link cut between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut link.
    pub a: NodeId,
    /// The other side.
    pub b: NodeId,
    /// First tick (inclusive) the link is down.
    pub from_tick: u64,
    /// First tick the link is healed again (exclusive end).
    pub to_tick: u64,
}

impl Partition {
    /// Whether this cut severs `src → dst` at `tick`.
    fn cuts(&self, src: NodeId, dst: NodeId, tick: u64) -> bool {
        let on_link = (src == self.a && dst == self.b) || (src == self.b && dst == self.a);
        on_link && tick >= self.from_tick && tick < self.to_tick
    }
}

/// `a:b:from:to`, as the spec line and `--partition` write it.
impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.a, self.b, self.from_tick, self.to_tick
        )
    }
}

impl FromStr for Partition {
    type Err = String;

    fn from_str(text: &str) -> Result<Partition, String> {
        let [a, b, from_tick, to_tick] = colon_fields(text)?;
        Ok(Partition {
            a: node_id(a)?,
            b: node_id(b)?,
            from_tick,
            to_tick,
        })
    }
}

/// Fault rates and schedules for the chaotic fabric. All probabilities
/// are per-frame, in per-mille (0..=1000), drawn independently.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Per-mille chance a frame is silently dropped.
    pub(crate) drop_per_mille: u16,
    /// Per-mille chance a frame arrives twice.
    pub(crate) duplicate_per_mille: u16,
    /// Per-mille chance a frame swaps delivery order with the frame
    /// ahead of it in the same inbox.
    pub(crate) reorder_per_mille: u16,
    /// Per-mille chance a frame loses a suffix in flight (torn frame —
    /// the codec must reject it whole).
    pub(crate) torn_per_mille: u16,
    /// Additional delivery delay, uniform in `0..=max_delay_ticks`.
    pub(crate) max_delay_ticks: u64,
    /// Scheduled link cuts.
    pub partitions: Vec<Partition>,
}

impl Default for ChaosConfig {
    /// The CI chaos profile: every fault class active at a rate that
    /// still converges within the drain budget.
    fn default() -> ChaosConfig {
        ChaosConfig {
            drop_per_mille: 150,
            duplicate_per_mille: 100,
            reorder_per_mille: 150,
            torn_per_mille: 80,
            max_delay_ticks: 2,
            partitions: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// No faults at all: every frame arrives next tick, in send order —
    /// the control condition (useful for isolating partition behavior).
    pub fn quiet() -> ChaosConfig {
        ChaosConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            torn_per_mille: 0,
            max_delay_ticks: 0,
            partitions: Vec::new(),
        }
    }
}

/// Per-node fault attribution from the fabric's point of view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LinkStats {
    /// Frames destined to this node the fabric dropped.
    pub(crate) dropped: u64,
    /// Frames destined to this node the fabric duplicated.
    pub(crate) duplicated: u64,
    /// Frames destined to this node the fabric tore mid-flight.
    pub(crate) torn: u64,
    /// Frames refused because a partition severed the link.
    pub(crate) partitioned: u64,
}

/// The adversarial fabric: deterministic seeded fault injection.
/// Single-threaded and tick-driven: [`send`](ChaosTransport::send)
/// enqueues, [`tick`](ChaosTransport::tick) advances virtual time, and
/// [`poll`](ChaosTransport::poll) drains whatever has arrived for a node.
#[derive(Debug)]
pub(crate) struct ChaosTransport {
    config: ChaosConfig,
    rng: u64,
    now: u64,
    /// `(deliver_at_tick, dst, frame)`, kept in send order; delivery
    /// filters by tick so delays reorder across, never within, a tick
    /// unless the reorder fault fires.
    in_flight: Vec<(u64, NodeId, String)>,
    stats: Vec<LinkStats>,
}

impl ChaosTransport {
    /// A fabric for `nodes` nodes, faulting per `config`, deterministic
    /// in `seed` (derive it as `RunSeed::derive("fleet")`).
    pub(crate) fn new(nodes: usize, seed: u64, config: ChaosConfig) -> ChaosTransport {
        ChaosTransport {
            config,
            // splitmix64 must not start at 0 (it would stay 0 for one
            // step); the mixer's own increment fixes that on first use.
            rng: seed,
            now: 0,
            in_flight: Vec::new(),
            stats: vec![LinkStats::default(); nodes],
        }
    }

    /// Fault attribution for one node's inbox.
    pub(crate) fn link_stats(&self, node: NodeId) -> LinkStats {
        self.stats
            .get(usize::from(node))
            .copied()
            .unwrap_or_default()
    }

    /// The sequential form of [`splitmix64`], the repo's standard
    /// derivation PRNG (see `easched_core::seed`): the state steps by
    /// the golden-ratio increment the mixer adds.
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.rng);
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next_u64() % 1000 < u64::from(per_mille)
    }

    fn stat(&mut self, node: NodeId) -> &mut LinkStats {
        let idx = usize::from(node);
        if idx >= self.stats.len() {
            self.stats.resize(idx + 1, LinkStats::default());
        }
        &mut self.stats[idx]
    }

    /// Enqueues an encoded frame from `src` to `dst`.
    pub(crate) fn send(&mut self, src: NodeId, dst: NodeId, frame: String) {
        if self
            .config
            .partitions
            .iter()
            .any(|p| p.cuts(src, dst, self.now))
        {
            self.stat(dst).partitioned += 1;
            return;
        }
        if self.chance(self.config.drop_per_mille) {
            self.stat(dst).dropped += 1;
            return;
        }
        let mut frame = frame;
        if self.chance(self.config.torn_per_mille) {
            // Tear off a suffix: at least one byte gone, possibly almost
            // everything. The codec must reject the remnant whole.
            let keep = if frame.is_empty() {
                0
            } else {
                (self.next_u64() as usize) % frame.len()
            };
            frame.truncate(keep);
            self.stat(dst).torn += 1;
        }
        let delay = if self.config.max_delay_ticks > 0 {
            self.next_u64() % (self.config.max_delay_ticks + 1)
        } else {
            0
        };
        let deliver_at = self.now + 1 + delay;
        let duplicate = self.chance(self.config.duplicate_per_mille);
        let reorder = self.chance(self.config.reorder_per_mille);
        if duplicate {
            self.stat(dst).duplicated += 1;
            self.in_flight.push((deliver_at, dst, frame.clone()));
        }
        self.in_flight.push((deliver_at, dst, frame));
        if reorder {
            // Swap with the previous frame queued for the same inbox, if
            // any — a local transposition, the classic UDP reorder.
            let len = self.in_flight.len();
            if let Some(prev) = (0..len - 1).rev().find(|&i| self.in_flight[i].1 == dst) {
                self.in_flight.swap(prev, len - 1);
            }
        }
    }

    /// Drains every frame that has arrived for `dst`, in delivery order.
    pub(crate) fn poll(&mut self, dst: NodeId) -> Vec<String> {
        let now = self.now;
        let mut out = Vec::new();
        self.in_flight.retain_mut(|(at, d, frame)| {
            let arrived = *d == dst && *at <= now;
            if arrived {
                out.push(std::mem::take(frame));
            }
            !arrived
        });
        out
    }

    /// Advances virtual time one tick (delays count down, partitions
    /// open and heal).
    pub(crate) fn tick(&mut self) {
        self.now += 1;
    }

    /// Drops everything in flight to a crashed node — a kill -9 takes
    /// its socket buffers with it.
    pub(crate) fn reset(&mut self, node: NodeId) {
        self.in_flight.retain(|(_, d, _)| *d != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_transport_delivers_next_tick_in_order() {
        let mut t = ChaosTransport::new(2, 1, ChaosConfig::quiet());
        t.send(0, 1, "a".into());
        t.send(0, 1, "b".into());
        assert!(t.poll(1).is_empty(), "nothing before the tick");
        t.tick();
        assert_eq!(t.poll(1), vec!["a".to_string(), "b".to_string()]);
        assert!(t.poll(1).is_empty(), "poll drains");
    }

    #[test]
    fn chaos_is_deterministic_in_the_seed() {
        let run = |seed| {
            let mut t = ChaosTransport::new(2, seed, ChaosConfig::default());
            let mut seen = Vec::new();
            for i in 0..200u32 {
                t.send(0, 1, format!("frame-{i}"));
                t.tick();
                seen.extend(t.poll(1));
            }
            for _ in 0..4 {
                t.tick();
                seen.extend(t.poll(1));
            }
            (seen, t.link_stats(1))
        };
        assert_eq!(run(7), run(7), "same seed, same stream");
        assert_ne!(run(7).0, run(8).0, "different seed, different stream");
        // The stream itself is pinned: fleet logs replay against it.
        let mut t = ChaosTransport::new(2, 7, ChaosConfig::default());
        assert_eq!(
            [t.next_u64(), t.next_u64()],
            [0x63cb_e1e4_5932_0dd7, 0x044c_3cd7_f43c_661c]
        );
    }

    #[test]
    fn chaos_actually_faults() {
        let mut t = ChaosTransport::new(2, 23, ChaosConfig::default());
        for i in 0..500u32 {
            t.send(0, 1, format!("frame-{i}"));
            t.tick();
            let _ = t.poll(1);
        }
        let s = t.link_stats(1);
        assert!(s.dropped > 0, "{s:?}");
        assert!(s.duplicated > 0, "{s:?}");
        assert!(s.torn > 0, "{s:?}");
    }

    #[test]
    fn partition_cuts_both_directions_then_heals() {
        let cfg = ChaosConfig {
            partitions: vec![Partition {
                a: 0,
                b: 1,
                from_tick: 0,
                to_tick: 3,
            }],
            ..ChaosConfig::quiet()
        };
        let mut t = ChaosTransport::new(2, 1, cfg);
        t.send(0, 1, "cut".into());
        t.send(1, 0, "cut-back".into());
        for _ in 0..3 {
            t.tick();
        }
        assert!(t.poll(1).is_empty());
        assert!(t.poll(0).is_empty());
        assert_eq!(t.link_stats(1).partitioned, 1);
        // Healed now (tick 3 >= to_tick).
        t.send(0, 1, "healed".into());
        t.tick();
        assert_eq!(t.poll(1), vec!["healed".to_string()]);
    }

    #[test]
    fn reset_drops_in_flight_frames() {
        let mut t = ChaosTransport::new(2, 5, ChaosConfig::quiet());
        t.send(0, 1, "doomed".into());
        t.reset(1);
        t.tick();
        assert!(t.poll(1).is_empty());
    }
}
