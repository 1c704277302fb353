//! One fleet node: a persistent [`SharedEas`] scheduler, a simulated
//! machine, and the anti-entropy protocol state around them.
//!
//! A node's journal (`TableStore`) remains the single source of truth for
//! its own platform; replication *streams* that truth outward and pulls
//! everyone else's in. Per origin, the node keeps a `(generation, seq)`
//! watermark (contiguous-prefix admission — exactly-once apply under
//! duplication and reordering), a retransmission log (so knowledge
//! spreads transitively through third nodes across partitions), and the
//! convergent [`ReplicaTable`]. A line is sealed once, by its origin: a
//! delivered entries frame is read in place, each line admitted by its
//! version before anything is allocated for it, and an admitted line is
//! logged as it arrived and relayed from there. Cross-platform knowledge
//! lands as warm-start priors only; replicated taints quarantine
//! fleet-wide through the batched [`ReprofileScheduler`] (DESIGN.md §15).

use crate::frame::{
    spliced_entries, Envelope, EnvelopeView, Frame, FrameView, NodeId, Op, PayloadView,
    RequestBody, Version,
};
use crate::replica::{Applied, ReplicaTable};
use crate::reprofile::ReprofileScheduler;
use crate::stats::FleetStats;
use easched_core::{
    characterize, CharacterizationConfig, EasConfig, PowerModel, SharedEas, StoreError, StoreHealth,
};
use easched_runtime::{InvocationCtx, SimBackend, StdFs, Vfs};
use easched_sim::{KernelTraits, Machine, Platform};
use easched_telemetry::{Span, SpanKind, SpanSink};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Attempts a node's start-time fencing checkpoint and its shutdown
/// checkpoint each get under I/O faults (every attempt advances the chaos
/// op stream) before the node settles for an in-memory epoch bump, or
/// ends the run degraded.
const CHECKPOINT_RETRIES: usize = 8;

/// One checkpoint, tried up to [`CHECKPOINT_RETRIES`] times; the last
/// error is the answer when none lands.
fn checkpoint_with_retries(shared: &SharedEas) -> Result<(), StoreError> {
    let mut result = shared.checkpoint();
    for _ in 1..CHECKPOINT_RETRIES {
        if result.is_ok() {
            break;
        }
        result = shared.checkpoint();
    }
    result
}

/// One origin's retransmission log: the sealed line of every envelope
/// the node published or admitted from that origin, back to back, in
/// strictly increasing `(generation, seq)` order. A line the node
/// published is sealed here; an admitted one is kept as it arrived. A
/// pull's answer is a run of this text, copied as it is.
#[derive(Debug, Default)]
struct RetransmissionLog {
    /// Per line: its `(generation, seq)` and where it ends in `text`.
    index: Vec<(u64, u64, usize)>,
    text: String,
}

impl RetransmissionLog {
    /// Appends the line of the envelope at `(generation, seq)`: `write`
    /// adds it, newline included. The binary search in
    /// [`after`](RetransmissionLog::after) needs versions to increase.
    fn push(&mut self, generation: u64, seq: u64, write: impl FnOnce(&mut String)) {
        debug_assert!(
            self.index
                .last()
                .is_none_or(|&(g, s, _)| (g, s) < (generation, seq)),
            "({generation}, {seq}) logged out of order",
        );
        write(&mut self.text);
        debug_assert!(self.text.ends_with('\n'), "a logged line ends its line");
        self.index.push((generation, seq, self.text.len()));
    }

    /// The lines strictly above `mark`: their text and how many there
    /// are.
    fn after(&self, mark: (u64, u64)) -> (&str, usize) {
        let first = self.index.partition_point(|&(g, s, _)| (g, s) <= mark);
        let start = first.checked_sub(1).map_or(0, |i| self.index[i].2);
        (&self.text[start..], self.index.len() - first)
    }
}

/// Last state published for a kernel, used to detect changes worth an
/// envelope (bit-exact float comparison, so re-publishing is silent only
/// when truly nothing moved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PublishedState {
    alpha_bits: u64,
    weight_bits: u64,
    seen: u64,
    tainted: bool,
}

/// One node of the fleet.
pub struct FleetNode {
    /// This node's fleet identity.
    pub id: NodeId,
    /// The node's platform (its truth namespace).
    pub(crate) platform: Platform,
    /// Replication counters (protocol side; fabric-side counters are
    /// folded in by the run loop).
    pub stats: FleetStats,
    machine: Machine,
    shared: Arc<SharedEas>,
    /// Node epoch: strictly increases across restarts (fenced by the
    /// journal's snapshot generation via the start-time checkpoint).
    generation: u64,
    next_seq: u64,
    /// Per-origin retransmission logs (self included), each sorted by
    /// `(generation, seq)` by construction.
    logs: BTreeMap<NodeId, RetransmissionLog>,
    /// Per-origin contiguous-prefix watermarks.
    watermarks: BTreeMap<NodeId, (u64, u64)>,
    replica: ReplicaTable,
    reprofile: ReprofileScheduler,
    published: HashMap<u64, PublishedState>,
    spans: SpanSink,
    span_count: u64,
}

impl std::fmt::Debug for FleetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetNode")
            .field("id", &self.id)
            .field("platform", &self.platform.name)
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq)
            .field("replica_len", &self.replica.len())
            .finish_non_exhaustive()
    }
}

impl FleetNode {
    /// Starts (or restarts) a node over the journal at
    /// `store_root/node<id>`.
    ///
    /// Start always checkpoints first: the snapshot generation strictly
    /// increases, and the node's envelope epoch is that generation — so
    /// a restarted node can never reuse a `(generation, seq)` pair its
    /// previous life already published (epoch fencing). The recovered
    /// table is republished wholesale at the new epoch; peers supersede
    /// the old-generation facts by version order and converge.
    pub fn start(
        id: NodeId,
        platform: Platform,
        config: EasConfig,
        store_root: &Path,
        machine_seed: u64,
        reprofile_budget: usize,
    ) -> Result<FleetNode, StoreError> {
        let model = characterize(&platform, &CharacterizationConfig::default());
        FleetNode::start_fitted(
            id,
            (platform, model),
            config,
            store_root,
            machine_seed,
            reprofile_budget,
            Arc::new(StdFs),
        )
    }

    /// [`start`](FleetNode::start) over a model the caller already fitted
    /// for the platform (the fit is a pure function of the preset, so a
    /// fleet run makes it once per platform, not per node), with an
    /// explicit [`Vfs`], so a fleet run can put each node's journal on its
    /// own fault-injecting filesystem (DESIGN.md §16).
    ///
    /// The start-time fencing checkpoint is retried a few times under
    /// injected faults (each attempt advances the chaos op stream). If
    /// the disk stays down the node still starts — degraded, with an
    /// in-memory epoch bump standing in for the durable one, so this
    /// life's envelopes cannot collide with the recovered generation.
    pub(crate) fn start_fitted(
        id: NodeId,
        (platform, model): (Platform, PowerModel),
        config: EasConfig,
        store_root: &Path,
        machine_seed: u64,
        reprofile_budget: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<FleetNode, StoreError> {
        let store_dir = store_root.join(format!("node{id}"));
        let shared = SharedEas::with_persistence_vfs(model, config, &store_dir, vfs)?;
        let fenced = checkpoint_with_retries(&shared).is_ok();
        let store = shared.store().expect("with_persistence attaches a store");
        let generation = if fenced {
            store.generation()
        } else {
            store.generation() + 1
        };
        let machine = Machine::with_seed(platform.clone(), machine_seed);
        let mut node = FleetNode {
            id,
            platform,
            stats: FleetStats::default(),
            machine,
            shared,
            generation,
            next_seq: 1,
            logs: BTreeMap::new(),
            watermarks: BTreeMap::new(),
            replica: ReplicaTable::new(),
            reprofile: ReprofileScheduler::new(reprofile_budget),
            published: HashMap::new(),
            spans: SpanSink::new(512, machine_seed),
            span_count: 0,
        };
        // Republish the recovered table at the new epoch so peers learn
        // this life's state even if they missed the previous one.
        node.publish_local();
        Ok(node)
    }

    /// The scheduler (for table/health inspection in tests and reports).
    pub fn shared(&self) -> &Arc<SharedEas> {
        &self.shared
    }

    /// The node's current epoch.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The convergent replica.
    pub(crate) fn replica(&self) -> &ReplicaTable {
        &self.replica
    }

    /// Kernels queued for re-profiling after replicated taints.
    pub fn reprofile_pending(&self) -> usize {
        self.reprofile.pending()
    }

    /// Runs one kernel invocation on this node's machine through the
    /// shared scheduler (profiling, α decision, journaling — the full
    /// single-node pipeline, untouched by replication).
    pub fn run_invocation(
        &mut self,
        kernel: u64,
        traits: &KernelTraits,
        items: u64,
        invocation_seed: u64,
    ) {
        let mut backend = SimBackend::new(&mut self.machine, traits, items, None, invocation_seed);
        self.shared
            .schedule(kernel, &mut backend, InvocationCtx::default());
    }

    /// Checkpoints the journal (normal shutdown; a crash skips this),
    /// with the same bounded retry as the start-time checkpoint: a
    /// success re-arms a degraded store, so a fault storm does not leave
    /// the disk behind the table the node ends with.
    pub(crate) fn checkpoint(&self) -> Result<(), StoreError> {
        checkpoint_with_retries(&self.shared)
    }

    /// This node's storage-health counters (DESIGN.md §16).
    pub(crate) fn store_health(&self) -> StoreHealth {
        self.shared
            .store()
            .expect("fleet nodes always persist")
            .health()
    }

    /// Quarantines a kernel locally (the fault pipeline's taint, journaled
    /// like it) so the next [`publish_local`](FleetNode::publish_local)
    /// streams it out.
    pub fn taint_local(&mut self, kernel: u64) {
        self.shared.taint(kernel);
    }

    /// Diffs the local table against what was last published and emits
    /// an envelope per change: `Put` when the learned state moved,
    /// `Taint` when only the quarantine flag flipped on. Envelopes
    /// self-apply immediately, so a node's own knowledge is part of its
    /// replica (and digest) without a network round-trip.
    pub fn publish_local(&mut self) {
        // Sorted by kernel id: shard iteration order is not deterministic;
        // the wire order must be.
        for (kernel, stat, tainted) in self.shared.table().snapshot_with_taint() {
            let state = PublishedState {
                alpha_bits: stat.alpha.to_bits(),
                weight_bits: stat.weight.to_bits(),
                seen: stat.invocations_seen,
                tainted,
            };
            let prev = self.published.get(&kernel).copied();
            if prev == Some(state) {
                continue;
            }
            let stat_moved = prev.is_none_or(|p| {
                p.alpha_bits != state.alpha_bits
                    || p.weight_bits != state.weight_bits
                    || p.seen != state.seen
            });
            let op = if stat_moved {
                Op::Put {
                    kernel,
                    alpha: stat.alpha,
                    weight: stat.weight,
                    seen: stat.invocations_seen,
                    tainted,
                }
            } else {
                // Only the flag flipped. A flip *off* without a stat move
                // cannot happen (untainting goes through accumulate), but
                // degrade to a Put if it ever does.
                if tainted {
                    Op::Taint { kernel }
                } else {
                    Op::Put {
                        kernel,
                        alpha: stat.alpha,
                        weight: stat.weight,
                        seen: stat.invocations_seen,
                        tainted,
                    }
                }
            };
            self.published.insert(kernel, state);
            let env = Envelope {
                origin: self.id,
                platform: self.platform.name.to_string(),
                generation: self.generation,
                seq: self.next_seq,
                op,
            };
            self.next_seq += 1;
            self.watermarks.insert(self.id, (env.generation, env.seq));
            self.replica.apply(&env);
            let log = self.logs.entry(self.id).or_default();
            log.push(env.generation, env.seq, |out| env.seal_into(out));
        }
    }

    /// This node's watermark vector, by origin.
    fn wants(&self) -> impl Iterator<Item = (NodeId, u64, u64)> + '_ {
        self.watermarks
            .iter()
            .map(|(&origin, &(generation, seq))| (origin, generation, seq))
    }

    /// The pull request this node sends each peer: its watermark vector.
    pub fn request_frame(&self, to: NodeId) -> Frame {
        Frame::request(self.id, to, self.wants().collect())
    }

    /// [`request_frame`](FleetNode::request_frame)'s body, sealed once
    /// for a whole round of peers.
    pub(crate) fn request_body(&self) -> RequestBody {
        RequestBody::new(self.wants())
    }

    /// Answers a peer's pull with the text of an entries frame: for every
    /// origin this node has a log for, every envelope strictly above the
    /// peer's watermark, in `(generation, seq)` order. Nothing caps the
    /// answer: a node asks only a couple of peers a round, and a cap
    /// would make its catch-up take rounds in proportion to what the
    /// fleet learned. The envelope lines are the ones sealed when the
    /// envelopes were logged; `None` when the peer lacks nothing.
    pub fn answer_request(&self, from: NodeId, wants: &[(NodeId, u64, u64)]) -> Option<String> {
        let want_of = |origin: NodeId| -> (u64, u64) {
            wants
                .iter()
                .find(|(o, _, _)| *o == origin)
                .map(|&(_, g, s)| (g, s))
                .unwrap_or((0, 0))
        };
        let mut runs = Vec::new();
        let mut n = 0;
        for (&origin, log) in &self.logs {
            let (run, lines) = log.after(want_of(origin));
            if lines > 0 {
                runs.push(run);
                n += lines;
            }
        }
        (n > 0).then(|| spliced_entries(self.id, from, n, &runs))
    }

    /// Ingests one entries batch: contiguous-prefix admission per origin,
    /// max-merge into the replica, and local integration (priors,
    /// taints, reprofile queue). An admitted envelope's line is sealed
    /// into its origin's log. Returns how many envelopes advanced a
    /// watermark this pass.
    pub fn ingest_entries(&mut self, envelopes: &[Envelope], now_tick: u64) -> u64 {
        let advanced = envelopes
            .iter()
            .map(|env| {
                let seal = |out: &mut String| env.seal_into(out);
                u64::from(self.admit(env.version(), &env.platform, env.op, seal))
            })
            .sum();
        self.emit_span(advanced, now_tick);
        advanced
    }

    /// Serves one delivery pass's `inbox` in order: a request is
    /// answered, an entries frame ingested, a torn frame counted. Returns
    /// the replies, in inbox order.
    pub(crate) fn serve_inbox(&mut self, inbox: &[String], tick: u64) -> Vec<(NodeId, String)> {
        let mut replies = Vec::new();
        for text in inbox {
            match FrameView::decode(text) {
                Err(_) => self.stats.frames_torn += 1,
                Ok(frame) => match frame.payload {
                    PayloadView::Request(wants) => {
                        if let Some(reply) = self.answer_request(frame.from, &wants) {
                            self.stats.frames_sent += 1;
                            replies.push((frame.from, reply));
                        }
                    }
                    PayloadView::Entries(lines) => {
                        self.ingest_received(&lines, tick);
                    }
                },
            }
        }
        replies
    }

    /// [`ingest_entries`](Self::ingest_entries) of an entries frame's
    /// lines, read in place: a line is admitted by its version before
    /// anything is allocated for it, and logged as it arrived.
    fn ingest_received(&mut self, lines: &[EnvelopeView<'_>], now_tick: u64) -> u64 {
        let advanced = lines
            .iter()
            .map(|env| {
                let relay = |out: &mut String| {
                    out.push_str(env.line);
                    out.push('\n');
                };
                u64::from(self.admit(env.version(), env.platform, env.op, relay))
            })
            .sum();
        self.emit_span(advanced, now_tick);
        advanced
    }

    /// The admit/apply core of both ingest paths, for the envelope at
    /// `version`: admitted iff it is the successor on its origin's
    /// watermark (a stale or early one is only counted), then logged by
    /// `log_line`, merged into the replica and, when foreign, integrated.
    /// Whether it was admitted.
    fn admit(
        &mut self,
        version: Version,
        platform: &str,
        op: Op,
        log_line: impl FnOnce(&mut String),
    ) -> bool {
        let Version {
            generation,
            seq,
            origin,
        } = version;
        let wm = self.watermarks.get(&origin).copied().unwrap_or((0, 0));
        let admissible = (generation == wm.0 && seq == wm.1 + 1) || (generation > wm.0 && seq == 1);
        if !admissible {
            let stale = generation < wm.0 || (generation == wm.0 && seq <= wm.1);
            if stale {
                self.stats.entries_rejected_stale += 1;
            } else {
                self.stats.entries_deferred_gap += 1;
            }
            return false;
        }
        self.watermarks.insert(origin, (generation, seq));
        self.logs
            .entry(origin)
            .or_default()
            .push(generation, seq, log_line);
        if let Applied::Advanced { conflict } = self.replica.merge(version, platform, op) {
            if conflict {
                self.stats.conflicts_resolved += 1;
            }
        }
        self.stats.entries_applied += 1;
        if origin != self.id {
            self.integrate(platform, op);
        }
        true
    }

    /// Folds one foreign envelope into local scheduler state. Never
    /// writes learned table entries directly: untainted knowledge becomes
    /// a warm-start prior at most (profiling still runs, DESIGN.md §15);
    /// taints quarantine and queue a batched re-profile.
    fn integrate(&mut self, platform: &str, op: Op) {
        let kernel = op.kernel();
        let tainted = match op {
            Op::Put { tainted, .. } => tainted,
            Op::Taint { .. } => true,
        };
        if tainted {
            self.stats.taints_replicated += 1;
            // A remote taint invalidates any hint derived from remote
            // knowledge, quarantines the local entry when the platform
            // matches (same silicon, same suspicion), and queues a
            // re-measurement — budgeted, so a taint storm cannot stall
            // the node.
            self.shared.table().clear_prior(kernel);
            if platform == self.platform.name {
                self.shared.taint(kernel);
            }
            if self.reprofile.enqueue(kernel) {
                self.stats.reprofiles_scheduled += 1;
            }
            return;
        }
        if let Op::Put { alpha, .. } = op {
            if self.shared.table().set_prior(kernel, alpha) {
                self.stats.priors_applied += 1;
            }
        }
    }

    /// Releases this round's reprofile batch: each released kernel's
    /// local entry is tainted so the scheduler re-profiles it on its next
    /// invocation (measurement, never belief transfer).
    pub fn release_reprofiles(&mut self) {
        for kernel in self.reprofile.take_batch() {
            if self.shared.table().stat(kernel).is_some() {
                self.shared.taint(kernel);
            }
        }
    }

    fn emit_span(&mut self, applied: u64, now_tick: u64) {
        self.span_count += 1;
        let mut span = [Span {
            seq: 0,
            trace: now_tick,
            kernel: 0,
            id: self.span_count as u16,
            parent: 0,
            kind: SpanKind::Replication,
            tenant: self.id,
            start: now_tick as f64,
            dur: 0.0,
            payload: applied as f64,
        }];
        self.spans.push_batch(now_tick, &mut span);
    }
}

#[cfg(test)]
impl FleetNode {
    /// Per origin: its log's text, and the same lines read back and
    /// sealed again by [`Envelope::seal_into`]. The two are equal when
    /// every logged line is the one its origin sealed.
    pub(crate) fn logs_and_resealed(&self) -> Vec<(NodeId, &str, String)> {
        let reseal = |text: &str| {
            let mut out = String::new();
            for line in text.lines() {
                let env = EnvelopeView::parse(line).expect("a logged line parses");
                env.to_envelope().seal_into(&mut out);
            }
            out
        };
        let logs = self.logs.iter();
        logs.map(|(&origin, log)| (origin, log.text.as_str(), reseal(&log.text)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePayload;
    use easched_core::Objective;
    use easched_runtime::{unseal, LineWriter};

    fn test_node(id: NodeId, dir: &Path) -> FleetNode {
        FleetNode::start(
            id,
            Platform::haswell_desktop(),
            EasConfig::new(Objective::EnergyDelay),
            dir,
            1000 + u64::from(id),
            2,
        )
        .expect("node starts")
    }

    fn traits() -> KernelTraits {
        KernelTraits::builder("t")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .build()
    }

    #[test]
    fn invocation_learns_and_publishes() {
        let dir = std::env::temp_dir().join(format!("fleet-node-pub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut n = test_node(0, &dir);
        n.run_invocation(7, &traits(), 120_000, 1);
        n.publish_local();
        assert!(n.shared().learned_alpha(7).is_some());
        let entry = n.replica().entry("haswell-desktop", 7).expect("replica");
        assert_eq!(entry.alpha, n.shared().learned_alpha(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_bumps_the_epoch_and_republishes() {
        let dir = std::env::temp_dir().join(format!("fleet-node-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut n = test_node(0, &dir);
        n.run_invocation(7, &traits(), 120_000, 1);
        n.publish_local();
        let gen1 = n.generation();
        let alpha = n.shared().learned_alpha(7);
        drop(n); // crash: no checkpoint
        let n2 = test_node(0, &dir);
        assert!(n2.generation() > gen1, "epoch fencing");
        assert_eq!(n2.shared().learned_alpha(7), alpha, "journal recovery");
        let entry = n2
            .replica()
            .entry("haswell-desktop", 7)
            .expect("republished");
        assert_eq!(entry.alpha, alpha);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_round_trip_moves_entries() {
        let base = std::env::temp_dir().join(format!("fleet-node-pull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut a = test_node(0, &base.join("a"));
        let mut b = test_node(1, &base.join("b"));
        a.run_invocation(7, &traits(), 120_000, 1);
        a.publish_local();
        let req = b.request_frame(0);
        let FramePayload::Request(wants) = &req.payload else {
            panic!("request frame");
        };
        let ent = Frame::decode(&a.answer_request(1, wants).expect("has news")).unwrap();
        let FramePayload::Entries(envs) = &ent.payload else {
            panic!("entries frame");
        };
        let applied = b.ingest_entries(envs, 0);
        assert!(applied > 0);
        assert_eq!(a.replica().digest(), b.replica().digest());
        // Re-ingesting the same batch is a no-op (idempotent).
        let again = b.ingest_entries(envs, 1);
        assert_eq!(again, 0);
        assert!(b.stats.entries_rejected_stale > 0);
        assert_eq!(a.replica().digest(), b.replica().digest());
        // B emitted replication spans, tenant-tagged with its id.
        let spans = b.spans.snapshot();
        assert!(!spans.is_empty());
        assert!(spans
            .iter()
            .all(|s| s.kind == SpanKind::Replication && s.tenant == 1));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// Every origin's log read back as envelopes, each checked against
    /// the version its index entry claims.
    fn logged_envelopes(node: &FleetNode) -> BTreeMap<NodeId, Vec<Envelope>> {
        let mut logs = BTreeMap::new();
        for (&origin, log) in &node.logs {
            assert_eq!(log.text.lines().count(), log.index.len());
            let read = |line| EnvelopeView::parse(line).map(EnvelopeView::to_envelope);
            let envs: Vec<Envelope> = log.text.lines().map(|line| read(line).unwrap()).collect();
            for (env, &(g, s, _)) in envs.iter().zip(&log.index) {
                assert_eq!((env.origin, env.generation, env.seq), (origin, g, s));
            }
            logs.insert(origin, envs);
        }
        logs
    }

    /// The answer as it stood when logs held envelopes: a linear scan
    /// that clones every wanted envelope into a fresh frame and encodes it.
    fn answer_by_clone(
        logs: &BTreeMap<NodeId, Vec<Envelope>>,
        id: NodeId,
        from: NodeId,
        wants: &[(NodeId, u64, u64)],
    ) -> Option<String> {
        let want_of = |origin: NodeId| -> (u64, u64) {
            wants
                .iter()
                .find(|(o, _, _)| *o == origin)
                .map(|&(_, g, s)| (g, s))
                .unwrap_or((0, 0))
        };
        let mut batch = Vec::new();
        for (&origin, log) in logs {
            let (g, s) = want_of(origin);
            for env in log {
                if (env.generation, env.seq) > (g, s) {
                    batch.push(env.clone());
                }
            }
        }
        (!batch.is_empty()).then(|| Frame::entries(id, from, batch).encode())
    }

    /// Watermark vectors over `logs`: empty, one origin at every logged
    /// version and around it, every origin halfway, every origin caught
    /// up, versions ahead of the log, an origin nobody logged, and an
    /// origin named twice.
    fn watermark_vectors(logs: &BTreeMap<NodeId, Vec<Envelope>>) -> Vec<Vec<(NodeId, u64, u64)>> {
        let mut vectors = vec![Vec::new(), vec![(42, 1, 1)]];
        for (&origin, log) in logs {
            for env in log {
                let (g, s) = (env.generation, env.seq);
                vectors.push(vec![(origin, g, s)]);
                vectors.push(vec![(origin, g, 0), (42, 9, 9)]);
                vectors.push(vec![(origin, g + 1, 0)]);
                vectors.push(vec![(origin, g, s + 1_000)]);
                vectors.push(vec![(origin, g, s), (origin, 0, 0)]);
            }
            vectors.push(vec![(origin, u64::MAX, u64::MAX)]);
        }
        let at = |pick: fn(&[Envelope]) -> &Envelope| -> Vec<(NodeId, u64, u64)> {
            let marks = logs.iter().map(|(&origin, log)| {
                let env = pick(log);
                (origin, env.generation, env.seq)
            });
            marks.collect()
        };
        vectors.push(at(|log| &log[log.len() / 2]));
        vectors.push(at(|log| &log[log.len() - 1]));
        vectors.push(at(|log| &log[0]));
        vectors
    }

    #[test]
    fn spliced_answers_and_requests_equal_the_encoded_ones() {
        let base = std::env::temp_dir().join(format!("fleet-node-splice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let start = |id: NodeId, platform: Platform| {
            let dir = base.join(format!("n{id}"));
            let config = EasConfig::new(Objective::EnergyDelay);
            FleetNode::start(id, platform, config, &dir, 2000 + u64::from(id), 2).expect("starts")
        };
        // Every node pulls from every other once, over the real codec.
        let exchange = |nodes: &mut [FleetNode], tick: u64| {
            for dst in 0..nodes.len() {
                for src in (0..nodes.len()).filter(|&src| src != dst) {
                    let wants = nodes[dst].wants().collect::<Vec<_>>();
                    let Some(text) = nodes[src].answer_request(nodes[dst].id, &wants) else {
                        continue;
                    };
                    let FramePayload::Entries(envs) = Frame::decode(&text).unwrap().payload else {
                        panic!("entries frame");
                    };
                    nodes[dst].ingest_entries(&envs, tick);
                }
            }
        };
        let mut nodes = vec![
            start(0, Platform::haswell_desktop()),
            start(1, Platform::baytrail_tablet()),
            start(2, Platform::haswell_desktop()),
        ];
        for tick in 0..4 {
            for node in nodes.iter_mut() {
                for i in 0..2 {
                    let (kernel, traits) = crate::run::kernel_traits((tick * 2 + i) % 5);
                    node.run_invocation(kernel, &traits, 60_000, tick * 10 + i);
                }
                node.publish_local();
            }
            if tick == 2 {
                nodes[0].taint_local(crate::run::kernel_traits(1).0);
                nodes[0].publish_local();
            }
            exchange(&mut nodes, tick);
        }
        // A long foreign stream, over two generations.
        let foreign = |generation, seq| Envelope {
            origin: 9,
            platform: "skylake-minipc".into(),
            generation,
            seq,
            op: Op::Put {
                kernel: 300 + seq % 7,
                alpha: seq as f64 / 400.0,
                weight: 1.0,
                seen: seq,
                tainted: seq % 11 == 0,
            },
        };
        let stream: Vec<Envelope> = (1..=200)
            .map(|seq| foreign(1, seq))
            .chain((1..=60).map(|seq| foreign(2, seq)))
            .collect();
        assert_eq!(nodes[1].ingest_entries(&stream, 4), 260);
        // Node 0 dies without a checkpoint and comes back at a new
        // generation; its peers hold both lives' envelopes.
        let gen1 = nodes[0].generation();
        drop(nodes.remove(0));
        nodes.insert(0, start(0, Platform::haswell_desktop()));
        assert!(nodes[0].generation() > gen1);
        let (kernel, traits) = crate::run::kernel_traits(3);
        nodes[0].run_invocation(kernel, &traits, 60_000, 99);
        nodes[0].publish_local();
        exchange(&mut nodes, 5);
        exchange(&mut nodes, 6);
        assert!(nodes[1].logs[&0].index.iter().any(|&(g, _, _)| g == gen1));
        assert!(nodes[1].logs[&0].index.iter().any(|&(g, _, _)| g > gen1));

        let mut answers = 0;
        for node in &nodes {
            for peer in 0..4 {
                let spliced = node.request_body().frame(node.id, peer);
                assert_eq!(spliced, node.request_frame(peer).encode());
            }
            let logs = logged_envelopes(node);
            for wants in watermark_vectors(&logs) {
                let spliced = node.answer_request(7, &wants);
                assert_eq!(
                    spliced,
                    answer_by_clone(&logs, node.id, 7, &wants),
                    "{wants:?}"
                );
                answers += usize::from(spliced.is_some());
            }
        }
        assert!(answers > 1_000, "{answers} answers compared");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A `put` line from origin 9 on `skylake-minipc`, sealed, with its
    /// `seq` and `tainted` words written as given.
    fn put_line(seq: &str, tainted: &str) -> String {
        let mut line = String::new();
        LineWriter::begin(&mut line, "put")
            .dec(9)
            .word("skylake-minipc")
            .dec(1)
            .word(seq)
            .hex16(300)
            .bits(0.25)
            .bits(4.0)
            .dec(3)
            .word(tainted)
            .seal();
        line
    }

    /// An entries frame from origin 9's relay to node 1 around `lines`.
    fn frame_of(lines: &[String]) -> String {
        let body = lines.concat();
        spliced_entries(9, 1, lines.len(), &[&body])
    }

    #[test]
    fn a_stale_line_that_does_not_parse_tears_the_whole_frame() {
        let dir = std::env::temp_dir().join(format!("fleet-node-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut n = test_node(1, &dir);
        let fresh: Vec<String> = ["1", "2", "3"].map(|seq| put_line(seq, "0")).into();
        assert!(n.serve_inbox(&[frame_of(&fresh)], 0).is_empty());
        assert_eq!(n.stats.entries_applied, 3);
        // Sealed, but `tainted` is no 0 or 1; and at seq 1 it is stale,
        // so only a reader that parses every line finds the fault before
        // it admits the fresh seq 4 behind it.
        let bad = put_line("1", "2");
        assert!(unseal(&bad).is_some());
        let frame = frame_of(&[bad, put_line("4", "0")]);
        let before = n.stats;
        assert!(n.serve_inbox(std::slice::from_ref(&frame), 1).is_empty());
        assert_eq!(n.stats.frames_torn, before.frames_torn + 1);
        assert_eq!(n.stats.entries_applied, before.entries_applied);
        assert_eq!(
            n.stats.entries_rejected_stale,
            before.entries_rejected_stale
        );
        assert_eq!(n.watermarks[&9], (1, 3));
        assert_eq!(n.logs[&9].text, fresh.concat());
        assert_eq!(Frame::decode(&frame), Err(crate::FrameError::TornBody));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_canonical_line_is_relayed_as_it_arrived() {
        let base = std::env::temp_dir().join(format!("fleet-node-relay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut b, mut c) = (test_node(1, &base.join("b")), test_node(2, &base.join("c")));
        // `007` reads as 7 and seals as it is written; the origin's own
        // writer would have written `7`.
        let lines: Vec<String> = (1..=7)
            .map(|seq| match seq {
                7 => put_line("007", "0"),
                seq => put_line(&seq.to_string(), "0"),
            })
            .collect();
        let text = lines.concat();
        b.serve_inbox(&[frame_of(&lines)], 0);
        assert_eq!(b.stats.entries_applied, 7);
        assert_eq!(b.logs[&9].text, text, "logged byte for byte");

        let answer = b.answer_request(2, &c.wants().collect::<Vec<_>>());
        let answer = answer.expect("c lacks origin 9's lines");
        assert!(answer.contains(&text), "forwarded unchanged");
        c.serve_inbox(std::slice::from_ref(&answer), 1);
        assert_eq!(c.stats.entries_applied, 7);
        assert_eq!(c.logs[&9].text, text);

        let canonical: Vec<Envelope> = (1..=7)
            .map(|seq| Envelope {
                origin: 9,
                platform: "skylake-minipc".into(),
                generation: 1,
                seq,
                op: Op::Put {
                    kernel: 300,
                    alpha: 0.25,
                    weight: 4.0,
                    seen: 3,
                    tainted: false,
                },
            })
            .collect();
        let FramePayload::Entries(read) = Frame::decode(&answer).unwrap().payload else {
            panic!("entries frame");
        };
        assert_eq!(read, canonical, "the next hop reads the same envelopes");
        let mut replica = ReplicaTable::new();
        for env in &canonical {
            replica.apply(env);
        }
        assert_eq!(b.replica().digest_text(), replica.digest_text());
        assert_eq!(c.replica().digest(), replica.digest());
        let _ = std::fs::remove_dir_all(&base);
    }
}
