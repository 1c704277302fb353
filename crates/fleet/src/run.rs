//! The deterministic fleet run loop: invocations, anti-entropy rounds,
//! chaos, crash/restart, convergence checking, and record/replay.
//!
//! One virtual tick = every live node runs its invocations, publishes
//! journal changes, and completes one pull round over the (possibly
//! chaotic) fabric. In a pull round each live node asks two peers, drawn
//! from a seeded stream, for what it lacks, and each asked peer answers
//! with all of it: O(n) frames a round, as in the pull anti-entropy of
//! Demers et al. (PODC 1987). After the workload, drain rounds run
//! anti-entropy alone until every live replica reports the same digest
//! twice in a row (or the drain budget runs out — non-convergence is a
//! *result*, not a panic). The whole run is a pure function of its
//! [`FleetSpec`]: the recorded v3 [`RunLog`] replays byte-identically
//! (DESIGN.md §15).
//!
//! Work that touches one node only is an index-ordered pool job
//! ([`in_index_order`]): each distinct platform's fit, each node's start,
//! each node's share of a delivery pass, and each shutdown checkpoint.
//! Everything that touches the fabric — requests, replies, polls — stays
//! on the caller's thread, in node-id order, so a run's bytes do not
//! depend on how many workers it had.

use crate::frame::NodeId;
use crate::node::FleetNode;
use crate::stats::FleetStats;
use crate::transport::{colon_fields, node_id, ChaosConfig, ChaosTransport};
use easched_core::{
    characterize, CharacterizationConfig, EasConfig, Objective, PowerModel, RunSeed, StoreError,
    StoreHealth,
};
use easched_kernels::in_index_order;
use easched_replay::{Event, RunLog, FORMAT_VERSION_FLEET};
use easched_runtime::{fnv1a64, ChaosFs, ChaosFsPlan, Fields, StdFs, TickClock, Vfs, CHUNK_BYTES};
use easched_sim::{splitmix64, KernelTraits, Platform};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Drain rounds allowed after the workload before declaring
/// non-convergence.
pub const MAX_DRAIN_ROUNDS: u64 = 200;

/// Peers a live node pulls from each round. A fleet of at most
/// `PULL_FANOUT + 1` live nodes pulls from every peer.
const PULL_FANOUT: usize = 2;

/// The peers `id` pulls from in `round`: `min(PULL_FANOUT, others)`
/// distinct members of `live` (ascending, as the run loop lists it) other
/// than `id`, in ascending order, drawn without replacement from the
/// `fleet/peer` stream of `seed`. When there are no more others than the
/// fanout, every one of them is chosen and the stream is not read.
pub(crate) fn pull_peers(seed: RunSeed, round: u64, id: NodeId, live: &[NodeId]) -> Vec<NodeId> {
    let mut others: Vec<NodeId> = live.iter().copied().filter(|&peer| peer != id).collect();
    if others.len() > PULL_FANOUT {
        // A partial Fisher–Yates shuffle: the first PULL_FANOUT slots.
        let mut stream = seed.derive_indexed("fleet/peer", (round << 16) | u64::from(id));
        for k in 0..PULL_FANOUT {
            let pick = splitmix64(stream) % (others.len() - k) as u64;
            stream = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
            others.swap(k, k + pick as usize);
        }
        others.truncate(PULL_FANOUT);
        others.sort_unstable();
    }
    others
}

/// A scheduled kill -9 (no checkpoint) and restart of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The node to kill.
    pub node: NodeId,
    /// Tick at which it dies (before invocations that tick).
    pub at_tick: u64,
    /// Tick at which it restarts from its journal.
    pub restart_at_tick: u64,
}

/// `node:at:restart`, as the spec line and `--crash` write it.
impl fmt::Display for CrashPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.node, self.at_tick, self.restart_at_tick)
    }
}

impl FromStr for CrashPlan {
    type Err = String;

    fn from_str(text: &str) -> Result<CrashPlan, String> {
        let [node, at_tick, restart_at_tick] = colon_fields(text)?;
        Ok(CrashPlan {
            node: node_id(node)?,
            at_tick,
            restart_at_tick,
        })
    }
}

/// An injected taint (the fault pipeline quarantining an entry) used to
/// exercise fleet-wide quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintPlan {
    /// Tick to inject at (after that tick's invocations).
    pub at_tick: u64,
    /// Node whose local entry is tainted.
    pub node: NodeId,
    /// Index into the synthetic kernel set.
    pub kernel_index: u64,
}

/// `tick:node:kernel`, as the spec line and `--taint` write it.
impl fmt::Display for TaintPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.at_tick, self.node, self.kernel_index)
    }
}

impl FromStr for TaintPlan {
    type Err = String;

    fn from_str(text: &str) -> Result<TaintPlan, String> {
        let [at_tick, node, kernel_index] = colon_fields(text)?;
        Ok(TaintPlan {
            at_tick,
            node: node_id(node)?,
            kernel_index,
        })
    }
}

/// Everything a fleet run depends on. Two runs with equal specs produce
/// byte-identical logs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Root seed; every stream derives from it (`RunSeed` discipline).
    pub(crate) seed: u64,
    /// Platform preset name per node (index = node id).
    pub platforms: Vec<String>,
    /// Workload ticks.
    pub ticks: u64,
    /// Invocations per node per tick.
    pub invocations_per_tick: u64,
    /// Items per invocation.
    pub(crate) items_per_invocation: u64,
    /// Synthetic kernel pool size (kernels cycle round-robin, staggered
    /// per node so priors matter).
    pub(crate) kernels: u64,
    /// Reprofile releases per node per tick.
    pub(crate) reprofile_budget: usize,
    /// Fabric fault profile.
    pub chaos: ChaosConfig,
    /// Optional kill/restart schedule.
    pub crash: Option<CrashPlan>,
    /// Optional taint injection.
    pub taint: Option<TaintPlan>,
    /// Optional storage-chaos rate (per-mille, [`ChaosFsPlan::storm`]):
    /// each node's journal goes on its own deterministic fault-injecting
    /// filesystem, seeded per node (DESIGN.md §16). `None` keeps plain
    /// disk I/O and the pre-chaos wire format.
    pub chaos_fs: Option<u16>,
    /// Journal root; each node stores under `<root>/node<id>`. Empty
    /// means a per-run temp directory (removed afterwards).
    pub store_root: PathBuf,
}

impl FleetSpec {
    /// A 3-node fleet (one of each calibrated platform) under the
    /// default chaos profile.
    pub fn three_nodes(seed: u64) -> FleetSpec {
        FleetSpec {
            seed,
            platforms: vec![
                "haswell-desktop".into(),
                "baytrail-tablet".into(),
                "skylake-minipc".into(),
            ],
            ticks: 6,
            invocations_per_tick: 2,
            items_per_invocation: 60_000,
            kernels: 4,
            reprofile_budget: 2,
            chaos: ChaosConfig::default(),
            crash: None,
            taint: None,
            chaos_fs: None,
            store_root: PathBuf::new(),
        }
    }

    /// Serializes the spec as the log's first fleet line (single line,
    /// whitespace-delimited; see [`FleetSpec::from_line`]).
    pub(crate) fn to_line(&self) -> String {
        let platforms = self.platforms.join(",");
        let partitions = if self.chaos.partitions.is_empty() {
            "-".to_string()
        } else {
            let parts = self.chaos.partitions.iter().map(ToString::to_string);
            parts.collect::<Vec<_>>().join(",")
        };
        let crash = self.crash.map_or("-".to_string(), |c| c.to_string());
        let taint = self.taint.map_or("-".to_string(), |t| t.to_string());
        let mut line = format!(
            "spec v1 seed {:016x} platforms {platforms} ticks {} inv {} items {} kernels {} \
             budget {} chaos {} {} {} {} {} partitions {partitions} crash {crash} taint {taint}",
            self.seed,
            self.ticks,
            self.invocations_per_tick,
            self.items_per_invocation,
            self.kernels,
            self.reprofile_budget,
            self.chaos.drop_per_mille,
            self.chaos.duplicate_per_mille,
            self.chaos.reorder_per_mille,
            self.chaos.torn_per_mille,
            self.chaos.max_delay_ticks,
        );
        // Trailing optional token: emitted only when set, so every
        // pre-storage-chaos log — committed fixtures included — stays
        // byte-stable.
        if let Some(rate) = self.chaos_fs {
            line.push_str(&format!(" chaosfs {rate}"));
        }
        line
    }

    /// Parses a spec line (the inverse of [`FleetSpec::to_line`]). The
    /// store root is *not* carried on the wire — replay supplies its own.
    pub(crate) fn from_line(line: &str) -> Option<FleetSpec> {
        // Grammar is positional keyword-value; walk it directly.
        Fields::parse(line, |p| {
            p.tag("spec")?;
            p.tag("v1")?;
            p.tag("seed")?;
            let seed = p.hex()?;
            p.tag("platforms")?;
            let platforms: Vec<String> = p.word()?.split(',').map(str::to_string).collect();
            p.tag("ticks")?;
            let ticks = p.dec()?;
            p.tag("inv")?;
            let invocations_per_tick = p.dec()?;
            p.tag("items")?;
            let items_per_invocation = p.dec()?;
            p.tag("kernels")?;
            let kernels = p.dec()?;
            p.tag("budget")?;
            let reprofile_budget = p.dec()?;
            p.tag("chaos")?;
            let mut chaos = ChaosConfig {
                drop_per_mille: p.dec()?,
                duplicate_per_mille: p.dec()?,
                reorder_per_mille: p.dec()?,
                torn_per_mille: p.dec()?,
                max_delay_ticks: p.dec()?,
                partitions: Vec::new(),
            };
            p.tag("partitions")?;
            let partitions_word = p.word()?;
            if partitions_word != "-" {
                for part in partitions_word.split(',') {
                    chaos.partitions.push(part.parse().ok()?);
                }
            }
            p.tag("crash")?;
            let crash = match p.word()? {
                "-" => None,
                plan => Some(plan.parse().ok()?),
            };
            p.tag("taint")?;
            let taint = match p.word()? {
                "-" => None,
                plan => Some(plan.parse().ok()?),
            };
            let chaos_fs = match p.word() {
                None => None,
                Some("chaosfs") => Some(p.dec()?),
                Some(_) => return None,
            };
            Some(FleetSpec {
                seed,
                platforms,
                ticks,
                invocations_per_tick,
                items_per_invocation,
                kernels,
                reprofile_budget,
                chaos,
                crash,
                taint,
                chaos_fs,
                store_root: PathBuf::new(),
            })
        })
    }
}

/// Resolves a platform preset by its `name` field.
pub(crate) fn platform_by_name(name: &str) -> Option<Platform> {
    [
        Platform::haswell_desktop(),
        Platform::baytrail_tablet(),
        Platform::skylake_minipc(),
    ]
    .into_iter()
    .find(|p| p.name == name)
}

/// The synthetic kernel pool: deterministic per-kernel device rates,
/// spread so the α optimum differs between kernels (and, through the
/// machine model, between platforms).
pub fn kernel_traits(index: u64) -> (u64, KernelTraits) {
    let kernel_id = 100 + index;
    let cpu = 1.0e6 * (1.0 + 0.4 * index as f64);
    let gpu = 2.0e6 * (1.0 + 0.3 * ((index * 3) % 5) as f64);
    let traits = KernelTraits::builder(format!("fleet-k{index}"))
        .cpu_rate(cpu)
        .gpu_rate(gpu)
        .build();
    (kernel_id, traits)
}

/// One node's slice of the final report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// Platform name.
    pub platform: String,
    /// Label used in the Prometheus exposition (`node<id>`).
    pub label: String,
    /// Replication counters, crash-carryover included; the dropped,
    /// duplicated and partitioned rows are the fabric's own counts.
    pub stats: FleetStats,
    /// Learned table entries at the end.
    pub table_len: usize,
    /// Scheduler health: replication must leave `fault_free()` true on a
    /// chaos-free *scheduler* path (fabric chaos is not scheduler
    /// faults).
    pub fault_free: bool,
    /// Storage-health counters for this node's journal (all zero unless
    /// the run injected storage chaos; see DESIGN.md §16).
    pub store: StoreHealth,
    /// Final replica digest.
    pub digest: u64,
}

/// The outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Whether every live replica reported the same digest (stable for
    /// two consecutive drain rounds).
    pub converged: bool,
    /// Drain rounds it took (0 = converged during the workload).
    pub drain_rounds: u64,
    /// The converged digest (of the first node, if not converged).
    pub digest: u64,
    /// The converged digest text (diagnostics; canonical form).
    pub digest_text: String,
    /// Per-node outcomes.
    pub nodes: Vec<NodeReport>,
    /// The sealed v3 run log (replayable via [`replay_fleet`]).
    pub log: RunLog,
}

/// Why a fleet run could not execute.
#[derive(Debug)]
pub enum FleetError {
    /// A platform name in the spec matched no preset.
    UnknownPlatform(String),
    /// Spec shape is unusable (no nodes, crash node out of range, ...).
    BadSpec(String),
    /// A node's journal failed to open or recover.
    Store(StoreError),
    /// A replay ran but did not reproduce the recorded log; carries the
    /// first difference ([`RunLog::first_difference`]).
    Diverged(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownPlatform(name) => write!(f, "unknown platform preset {name:?}"),
            FleetError::BadSpec(why) => write!(f, "bad fleet spec: {why}"),
            FleetError::Store(e) => write!(f, "journal error: {e}"),
            FleetError::Diverged(diff) => write!(f, "first divergence at {diff}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> FleetError {
        FleetError::Store(e)
    }
}

struct RunState {
    seed: RunSeed,
    nodes: Vec<Option<FleetNode>>,
    /// Stats carried over from a node's previous life (crash loses the
    /// in-memory node, not its history in the report).
    carryover: Vec<FleetStats>,
    transport: ChaosTransport,
    lines: Vec<String>,
}

fn fold(into: &mut FleetStats, from: FleetStats) {
    let mut sum = into.values();
    for (s, v) in sum.iter_mut().zip(from.values()) {
        *s += v;
    }
    *into = FleetStats::from_values(sum);
}

/// Runs a fleet to completion. Deterministic in the spec, whatever the
/// number of workers; see the module docs for the tick structure.
///
/// Nodes start concurrently, one pool job each. Every start runs, and
/// when some fail the run returns the error of the lowest failing id.
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetReport, FleetError> {
    run_inspected(spec, |_| {})
}

/// [`run_fleet`], handing the live nodes to `inspect` once the drain has
/// ended, before their shutdown checkpoints.
fn run_inspected(
    spec: &FleetSpec,
    inspect: impl FnOnce(&[&FleetNode]),
) -> Result<FleetReport, FleetError> {
    if spec.platforms.is_empty() {
        return Err(FleetError::BadSpec("no nodes".into()));
    }
    let Ok(last_id) = NodeId::try_from(spec.platforms.len() - 1) else {
        let why = format!("{} nodes, more than node ids", spec.platforms.len());
        return Err(FleetError::BadSpec(why));
    };
    if spec.kernels == 0 {
        return Err(FleetError::BadSpec("no kernels".into()));
    }
    // Every scheduled fault indexes the node list; a spec naming an
    // absent node — from the CLI or an edited log — is unusable input.
    let present = |field: &str, node: NodeId| {
        if usize::from(node) < spec.platforms.len() {
            Ok(())
        } else {
            let why = format!("{field} node {node} out of range");
            Err(FleetError::BadSpec(why))
        }
    };
    if let Some(c) = spec.crash {
        present("crash", c.node)?;
        if c.restart_at_tick <= c.at_tick {
            return Err(FleetError::BadSpec("restart before crash".into()));
        }
    }
    if let Some(t) = spec.taint {
        present("taint", t.node)?;
    }
    for p in &spec.chaos.partitions {
        present("partition", p.a)?;
        present("partition", p.b)?;
    }
    let seed = RunSeed::new(spec.seed);
    let (store_root, scratch) = if spec.store_root.as_os_str().is_empty() {
        let dir = std::env::temp_dir().join(format!(
            "easched-fleet-{}-{:016x}",
            std::process::id(),
            seed.derive("fleet/scratch")
        ));
        (dir, true)
    } else {
        (spec.store_root.clone(), false)
    };

    // The power model is a pure function of the preset: fit each distinct
    // platform once, for every node and every restart that runs on it.
    // The fits are independent, so each is a pool job.
    let mut presets: BTreeMap<&str, Platform> = BTreeMap::new();
    for name in &spec.platforms {
        if !presets.contains_key(name.as_str()) {
            let platform =
                platform_by_name(name).ok_or_else(|| FleetError::UnknownPlatform(name.clone()))?;
            presets.insert(name, platform);
        }
    }
    let presets: Vec<(&str, Platform)> = presets.into_iter().collect();
    let models = in_index_order(presets.len(), |i| {
        characterize(&presets[i].1, &CharacterizationConfig::default())
    });
    let fitted: BTreeMap<&str, (Platform, PowerModel)> = presets
        .into_iter()
        .zip(models)
        .map(|((name, platform), model)| (name, (platform, model)))
        .collect();

    let config = EasConfig::new(Objective::EnergyDelay);
    let start_node = |id: NodeId| -> Result<FleetNode, FleetError> {
        // Per-node fault stream, reseeded (deterministically) on every
        // start: a restarted node replays the same fault schedule its
        // previous life saw, so crash/restart plans stay byte-stable.
        let vfs: Arc<dyn Vfs> = match spec.chaos_fs {
            None => Arc::new(StdFs),
            Some(rate) => Arc::new(ChaosFs::new(
                seed.derive_indexed("fleet/chaosfs", u64::from(id)),
                ChaosFsPlan::storm(rate),
                Arc::new(TickClock::new()),
            )),
        };
        Ok(FleetNode::start_fitted(
            id,
            fitted[spec.platforms[usize::from(id)].as_str()].clone(),
            config.clone(),
            &store_root,
            seed.derive_indexed("fleet/machine", u64::from(id)),
            spec.reprofile_budget,
            vfs,
        )?)
    };

    let mut state = RunState {
        seed,
        nodes: Vec::new(),
        carryover: vec![FleetStats::default(); spec.platforms.len()],
        transport: ChaosTransport::new(
            spec.platforms.len(),
            seed.derive("fleet"),
            spec.chaos.clone(),
        ),
        lines: vec![spec.to_line()],
    };
    // Each node opens, recovers and fences its own journal: one pool job
    // per node.
    let ids: Vec<NodeId> = (0..=last_id).collect();
    for started in in_index_order(ids.len(), |i| start_node(ids[i])) {
        state.nodes.push(Some(started?));
    }

    // ---- Workload ticks ------------------------------------------------
    for tick in 0..spec.ticks {
        if let Some(c) = spec.crash {
            if c.at_tick == tick {
                // kill -9: drop without checkpoint; the fabric loses the
                // node's in-flight frames with it.
                if let Some(dead) = state.nodes[usize::from(c.node)].take() {
                    fold(&mut state.carryover[usize::from(c.node)], dead.stats);
                    state.lines.push(format!("crash {} tick {tick}", c.node));
                }
                state.transport.reset(c.node);
            }
            if c.restart_at_tick == tick && state.nodes[usize::from(c.node)].is_none() {
                let node = start_node(c.node)?;
                state.lines.push(format!(
                    "restart {} tick {tick} gen {}",
                    c.node,
                    node.generation()
                ));
                state.nodes[usize::from(c.node)] = Some(node);
            }
        }

        for slot in state.nodes.iter_mut() {
            let Some(node) = slot else { continue };
            node.release_reprofiles();
            for i in 0..spec.invocations_per_tick {
                let stride = tick * spec.invocations_per_tick + i;
                // Stagger the cycle per node so each platform meets each
                // kernel at a different time — the prior pathway.
                let index = (stride + u64::from(node.id)) % spec.kernels;
                let (kernel, traits) = kernel_traits(index);
                let inv_seed =
                    seed.derive_indexed("fleet/invocation", (u64::from(node.id) << 32) | stride);
                node.run_invocation(kernel, &traits, spec.items_per_invocation, inv_seed);
            }
            node.publish_local();
        }

        if let Some(t) = spec.taint {
            if t.at_tick == tick {
                if let Some(node) = state.nodes[usize::from(t.node)].as_mut() {
                    let (kernel, _) = kernel_traits(t.kernel_index % spec.kernels);
                    node.taint_local(kernel);
                    node.publish_local();
                    state
                        .lines
                        .push(format!("taint {} tick {tick} kernel {kernel:016x}", t.node));
                }
            }
        }

        anti_entropy_round(&mut state, tick);

        for slot in state.nodes.iter() {
            let Some(node) = slot else { continue };
            let s = node.stats;
            state.lines.push(format!(
                "tick {tick} node {} digest {:016x} applied {} stale {} gap {} conflicts {} \
                 priors {} taints {}",
                node.id,
                node.replica().digest(),
                s.entries_applied,
                s.entries_rejected_stale,
                s.entries_deferred_gap,
                s.conflicts_resolved,
                s.priors_applied,
                s.taints_replicated,
            ));
        }
    }

    // Restart scheduled after the workload window still happens before
    // draining (the drain must include every configured node).
    if let Some(c) = spec.crash {
        if state.nodes[usize::from(c.node)].is_none() {
            let node = start_node(c.node)?;
            state.lines.push(format!(
                "restart {} drain gen {}",
                c.node,
                node.generation()
            ));
            state.nodes[usize::from(c.node)] = Some(node);
        }
    }

    // ---- Drain to convergence -----------------------------------------
    let mut drain_rounds = 0u64;
    let mut stable_rounds = 0u32;
    let converged = loop {
        let digests: Vec<u64> = state
            .nodes
            .iter()
            .flatten()
            .map(|n| n.replica().digest())
            .collect();
        let all_equal = digests.windows(2).all(|w| w[0] == w[1]);
        if all_equal {
            stable_rounds += 1;
            // Two consecutive quiet-and-equal rounds: nothing in flight
            // could still diverge us.
            if stable_rounds >= 2 {
                break true;
            }
        } else {
            stable_rounds = 0;
        }
        if drain_rounds >= MAX_DRAIN_ROUNDS {
            break false;
        }
        anti_entropy_round(&mut state, spec.ticks + drain_rounds);
        drain_rounds += 1;
    };

    // ---- Report --------------------------------------------------------
    // Normal shutdown checkpoints, one pool job per node; tests reopen the
    // stores. Each job reads the node's storage health before its
    // checkpoint, and the rows and lines below are assembled in id order.
    let live: Vec<&FleetNode> = state.nodes.iter().flatten().collect();
    inspect(&live);
    let shutdowns = in_index_order(live.len(), |i| {
        (live[i].store_health(), live[i].checkpoint())
    });
    let mut nodes_report = Vec::new();
    let mut digest = 0u64;
    let mut digest_text = String::new();
    for (node, (store, checkpointed)) in live.into_iter().zip(shutdowns) {
        if nodes_report.is_empty() {
            digest = node.replica().digest();
            digest_text = node.replica().digest_text();
        }
        let mut stats = state.carryover[usize::from(node.id)];
        fold(&mut stats, node.stats);
        // The fabric owns the frame faults it injected: its per-node
        // levels span every life of the node, so they are read once, here.
        let link = state.transport.link_stats(node.id);
        stats.frames_dropped = link.dropped;
        stats.frames_duplicated = link.duplicated;
        stats.frames_partitioned = link.partitioned;
        nodes_report.push(NodeReport {
            id: node.id,
            platform: node.platform.name.to_string(),
            label: format!("node{}", node.id),
            stats,
            table_len: node.shared().table().len(),
            fault_free: node.shared().health().fault_free(),
            store,
            digest: node.replica().digest(),
        });
        if spec.chaos_fs.is_some() {
            // Storage-health lines ride the recorded log only on chaos
            // runs (the fault stream is seed-deterministic, so replay
            // reproduces them byte-identically); fault-free logs stay
            // byte-stable.
            state.lines.push(format!(
                "storehealth node {} io {} degraded {} transitions {} rearms {} dropped {}",
                node.id,
                store.io_errors,
                store.degraded,
                store.degraded_transitions,
                store.rearms,
                store.buffered_dropped,
            ));
        }
        // Under injected storage faults the (retried) checkpoint may still
        // fail — the node ends degraded rather than failing the whole run.
        match checkpointed {
            Ok(()) => {}
            Err(e) if spec.chaos_fs.is_some() => {
                state
                    .lines
                    .push(format!("checkpoint node {} failed {e}", node.id));
            }
            Err(e) => return Err(e.into()),
        }
    }
    state.lines.push(format!(
        "converged {} rounds {drain_rounds} digest {digest:016x}",
        u8::from(converged)
    ));

    let events = state
        .lines
        .iter()
        .map(|line| Event::Fleet { line: line.clone() })
        .collect();
    let log = RunLog {
        version: FORMAT_VERSION_FLEET,
        root: spec.seed,
        platform_fp: fnv1a64(spec.platforms.join(",").as_bytes()),
        config_fp: fnv1a64(spec.to_line().as_bytes()),
        events,
        complete: true,
    };

    if scratch {
        let _ = std::fs::remove_dir_all(&store_root);
    }

    Ok(FleetReport {
        converged,
        drain_rounds,
        digest,
        digest_text,
        nodes: nodes_report,
        log,
    })
}

/// One full pull round: each live node's request out to its
/// [`pull_peers`], then two delivery passes (so a request → entries
/// exchange completes within the round on a quiet fabric).
///
/// A pass is a synchronous round. The fabric ticks, and every live inbox
/// is polled in id order. Then each node decodes its inbox, answers its
/// requests and ingests its entries, in inbox order, as one pool job that
/// touches only that node. Last, the replies go out in ascending
/// answering-node id, each node's in inbox order. The fabric — its PRNG
/// draws on every send, its queue on every poll — is touched only on the
/// caller's thread, so the bytes do not depend on how many workers ran
/// the jobs. A pass whose inboxes hold less than [`CHUNK_BYTES`] in all
/// runs its jobs on the caller's thread: below that, dispatch costs more
/// than the jobs save.
fn anti_entropy_round(state: &mut RunState, tick: u64) {
    let live: Vec<NodeId> = state.nodes.iter().flatten().map(|n| n.id).collect();
    for &id in &live {
        let node = state.nodes[usize::from(id)].as_mut().expect("live");
        let body = node.request_body();
        for peer in pull_peers(state.seed, tick, id, &live) {
            node.stats.frames_sent += 1;
            state.transport.send(id, peer, body.frame(id, peer));
        }
    }
    for _pass in 0..2 {
        state.transport.tick();
        let inboxes: Vec<Vec<String>> = live.iter().map(|&id| state.transport.poll(id)).collect();
        // Each job takes its node out of its own slot and hands it back
        // with the replies.
        let slots: Vec<Mutex<Option<FleetNode>>> = live
            .iter()
            .map(|&id| Mutex::new(state.nodes[usize::from(id)].take()))
            .collect();
        let serve = |i: usize| {
            let slot = slots[i]
                .lock()
                .expect("a slot is locked only to take")
                .take();
            let mut node = slot.expect("live");
            let replies = node.serve_inbox(&inboxes[i], tick);
            (node, replies)
        };
        let bytes: usize = inboxes.iter().flatten().map(String::len).sum();
        let served: Vec<_> = if bytes < CHUNK_BYTES {
            (0..live.len()).map(serve).collect()
        } else {
            in_index_order(live.len(), serve)
        };
        for (node, replies) in served {
            let id = node.id;
            state.nodes[usize::from(id)] = Some(node);
            for (to, text) in replies {
                state.transport.send(id, to, text);
            }
        }
    }
}

/// Re-runs a recorded fleet log and holds the regenerated log to the
/// replay identity rule ([`RunLog::first_difference`]: byte-identical for
/// a complete log, identical up to the cut for a torn one). `Ok` carries
/// the fresh report; [`FleetError::Diverged`] names the first difference,
/// every other error means the log could not be re-run at all.
pub fn replay_fleet(recorded: &RunLog, store_root: PathBuf) -> Result<FleetReport, FleetError> {
    let lines = recorded.fleet_lines();
    let first = lines
        .first()
        .ok_or_else(|| FleetError::BadSpec("log carries no fleet events".into()))?;
    let mut spec = FleetSpec::from_line(first)
        .ok_or_else(|| FleetError::BadSpec(format!("unparseable spec line: {first}")))?;
    spec.store_root = store_root;
    let report = run_fleet(&spec)?;
    match recorded.first_difference(&report.log) {
        Some(diff) => Err(FleetError::Diverged(diff)),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    #[test]
    fn spec_line_round_trips() {
        let mut spec = FleetSpec::three_nodes(0x2a);
        for (a, b, from_tick, to_tick) in [(0, 2, 1, 4), (1, 2, 0, 2)] {
            spec.chaos.partitions.push(Partition {
                a,
                b,
                from_tick,
                to_tick,
            });
        }
        spec.crash = Some(CrashPlan {
            node: 1,
            at_tick: 2,
            restart_at_tick: 4,
        });
        spec.taint = Some(TaintPlan {
            at_tick: 3,
            node: 0,
            kernel_index: 1,
        });
        spec.chaos_fs = Some(150);
        let line = spec.to_line();
        // The bytes the commit before the colon codec wrote for this spec
        // (`easched fleet --seed 42 --partition 0:2:1:4 --partition
        // 1:2:0:2 --crash 1:2:4 --taint 3:0:1 --chaos-fs 150 --record`):
        // recorded v3 logs carry this line, so it may not move.
        assert_eq!(
            line,
            "spec v1 seed 000000000000002a platforms \
             haswell-desktop,baytrail-tablet,skylake-minipc ticks 6 inv 2 items 60000 \
             kernels 4 budget 2 chaos 150 100 150 80 2 partitions 0:2:1:4,1:2:0:2 \
             crash 1:2:4 taint 3:0:1 chaosfs 150"
        );
        let back = FleetSpec::from_line(&line).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_line(), line);
        // Trailing fields are rejected, in every one of the three forms.
        for (good, bad) in [
            ("0:2:1:4,1:2:0:2", "0:2:1:4:9,1:2:0:2"),
            ("crash 1:2:4", "crash 1:2:4:9"),
            ("taint 3:0:1", "taint 3:0:1:9"),
        ] {
            assert_eq!(
                FleetSpec::from_line(&line.replace(good, bad)),
                None,
                "{bad}"
            );
        }
        // The pre-chaos wire format stays accepted (old fixtures).
        spec.chaos_fs = None;
        assert!(!spec.to_line().contains("chaosfs"));
        assert_eq!(FleetSpec::from_line(&spec.to_line()), Some(spec));
    }

    #[test]
    fn kernel_pool_is_deterministic_and_distinct() {
        let (id0, t0) = kernel_traits(0);
        let (id1, t1) = kernel_traits(1);
        assert_ne!(id0, id1);
        assert_ne!(t0.cpu_rate(), t1.cpu_rate());
        assert_eq!(kernel_traits(0).1.cpu_rate(), t0.cpu_rate());
    }

    #[test]
    fn storage_chaos_fleet_converges_and_replays_byte_identically() {
        let base = std::env::temp_dir().join(format!("fleet-chaosfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut spec = FleetSpec::three_nodes(7);
        spec.chaos_fs = Some(200);
        spec.crash = Some(CrashPlan {
            node: 1,
            at_tick: 2,
            restart_at_tick: 4,
        });
        spec.store_root = base.join("record");
        let report = run_fleet(&spec).expect("chaotic disks never fail the run");
        assert!(report.converged, "replication is storage-independent");
        let injected: u64 = report.nodes.iter().map(|n| n.store.io_errors).sum();
        assert!(injected > 0, "a 20% write-fault storm must land something");
        for node in &report.nodes {
            assert!(node.fault_free, "storage faults stay out of fault_free");
        }
        let replayed = replay_fleet(&report.log, base.join("replay")).expect("byte-identical");
        assert_eq!(replayed.digest, report.digest);
        let _ = std::fs::remove_dir_all(&base);
    }

    /// The oracle for relaying lines as they arrived: every line a node
    /// logged, from its own publishes or from a frame, is the line its
    /// origin sealed, so the logs of a 30-node run equal their envelopes
    /// sealed again.
    #[test]
    fn every_logged_line_is_the_one_its_origin_sealed() {
        let mut spec = FleetSpec::three_nodes(7);
        let presets = spec.platforms.clone();
        spec.platforms = (0..30).map(|i| presets[i % 3].clone()).collect();
        spec.ticks = 10;
        spec.store_root =
            std::env::temp_dir().join(format!("fleet-resealed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spec.store_root);
        let mut lines = 0;
        let report = run_inspected(&spec, |nodes| {
            assert_eq!(nodes.len(), 30);
            for node in nodes {
                for (origin, logged, resealed) in node.logs_and_resealed() {
                    assert_eq!(logged, resealed, "node {} origin {origin}", node.id);
                    lines += logged.lines().count();
                }
            }
        })
        .expect("fleet runs");
        let _ = std::fs::remove_dir_all(&spec.store_root);
        assert!(report.converged);
        assert!(lines > 10_000, "{lines} logged lines compared");
    }

    #[test]
    fn pull_peers_are_min_fanout_distinct_sorted_others_and_cover_the_fleet() {
        let seed = RunSeed::new(7);
        for size in 1..=12u16 {
            // Node 3, when there is one, is dead: ids need not be dense.
            let live: Vec<NodeId> = (0..=size).filter(|&id| id != 3).collect();
            for &id in &live {
                let mut chosen = std::collections::BTreeSet::new();
                for round in 0..64 {
                    let peers = pull_peers(seed, round, id, &live);
                    assert_eq!(peers.len(), PULL_FANOUT.min(live.len() - 1));
                    assert!(peers.windows(2).all(|w| w[0] < w[1]), "{peers:?}");
                    assert!(peers.iter().all(|p| *p != id && live.contains(p)));
                    assert_eq!(peers, pull_peers(seed, round, id, &live));
                    chosen.extend(peers);
                }
                assert_eq!(chosen.len(), live.len() - 1, "node {id} of {live:?}");
            }
        }
    }

    #[test]
    fn a_fleet_of_at_most_fanout_plus_one_pulls_from_every_peer() {
        let seed = RunSeed::new(1009);
        assert_eq!(pull_peers(seed, 0, 4, &[4]), Vec::<NodeId>::new());
        assert_eq!(pull_peers(seed, 0, 4, &[]), Vec::<NodeId>::new());
        for live in [vec![0, 1], vec![0, 1, 2], vec![2, 5, 9]] {
            for &id in &live {
                let others: Vec<NodeId> = live.iter().copied().filter(|&p| p != id).collect();
                for round in [0, 1, u64::from(u32::MAX)] {
                    assert_eq!(pull_peers(seed, round, id, &live), others);
                }
            }
        }
    }

    #[test]
    fn a_two_node_fleet_with_one_node_down_runs_and_converges() {
        let base = std::env::temp_dir().join(format!("fleet-lone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut spec = FleetSpec::three_nodes(7);
        spec.platforms.truncate(2);
        // Ticks 1 to 3 have one live node, which has no one to pull from.
        spec.crash = Some(CrashPlan {
            node: 1,
            at_tick: 1,
            restart_at_tick: 4,
        });
        spec.store_root = base.join("record");
        let report = run_fleet(&spec).expect("runs");
        assert!(report.converged);
        assert_eq!(report.nodes.len(), 2);
        assert!(report.nodes.iter().all(|n| n.digest == report.digest));
        replay_fleet(&report.log, base.join("replay")).expect("byte-identical");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn more_platforms_than_node_ids_is_a_bad_spec_before_any_node_starts() {
        let root = std::env::temp_dir().join(format!("fleet-wide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut spec = FleetSpec::three_nodes(7);
        spec.platforms = vec!["haswell-desktop".into(); usize::from(NodeId::MAX) + 2];
        spec.store_root = root.clone();
        let Err(FleetError::BadSpec(why)) = run_fleet(&spec) else {
            panic!("65 537 nodes would alias node ids");
        };
        assert!(why.contains("65537"), "{why}");
        assert!(!root.exists(), "no journal was opened");
    }

    #[test]
    fn a_node_whose_journal_cannot_open_fails_the_run_with_a_store_error() {
        let root = std::env::temp_dir().join(format!("fleet-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create store root");
        // Nodes start as concurrent jobs: node 2's job fails, and the
        // run returns its error rather than panicking in a worker.
        std::fs::write(root.join("node2"), "a file, not a journal directory").expect("write");
        let mut spec = FleetSpec::three_nodes(7);
        spec.platforms = (0..5).map(|i| spec.platforms[i % 3].clone()).collect();
        spec.store_root = root.clone();
        let outcome = run_fleet(&spec);
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            matches!(outcome, Err(FleetError::Store(_))),
            "expected a store error, got {outcome:?}"
        );
    }

    #[test]
    fn unknown_platform_is_an_error() {
        let mut spec = FleetSpec::three_nodes(1);
        spec.platforms[1] = "pentium-pro".into();
        assert!(matches!(
            run_fleet(&spec),
            Err(FleetError::UnknownPlatform(_))
        ));
    }
}
