//! Overload protection for multi-tenant frontends: tenant registry,
//! bounded admission queues with typed backpressure, weighted fair-share
//! credit accounting for the single GPU proxy, and the three-stage
//! brownout ladder (DESIGN.md §13).
//!
//! The paper's runtime assumes one cooperative workload per package; this
//! module is the layer that makes an `Arc<SharedEas>` safe to put in
//! front of many mutually-distrusting tenants. Design rules:
//!
//! * **Never unbounded.** Every tenant has a bounded FIFO queue; an offer
//!   that cannot be queued is *shed* with an explicit retry hint, never
//!   silently dropped or buffered without limit.
//! * **Weighted fair share.** The GPU proxy is one resource. Draining
//!   picks the backlogged tenant with the smallest credit-normalized
//!   debt (`gpu_seconds / weight`), so long-run GPU time converges to
//!   the weight vector for saturated tenants. What a request is debited
//!   is its caller's to measure and hand to
//!   [`AdmissionController::complete`] — the overload storm reads it off
//!   the request's decision records — so no backend carries a meter.
//! * **Degrade before deny.** Under package-power pressure the brownout
//!   ladder first stops *new* GPU offload (learned splits still run),
//!   then forces α = 0 for everyone, and only as a last resort sheds the
//!   lowest-priority tenants outright. Transitions are hysteretic (EWMA
//!   power + consecutive-sample streaks) so the ladder cannot flap.
//!
//! Everything here is deterministic given the same offer/complete/power
//! sequence — the replay crate records admission decisions and re-runs
//! this controller to reproduce overloaded runs byte-identically.

use crate::scheduler::{GpuPolicy, InvocationCtx};
use easched_sim::splitmix64;
use std::collections::VecDeque;

/// One tenant's contract with the frontend.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (used as the Prometheus label).
    pub name: String,
    /// Fair-share weight; GPU-proxy time converges to the weight vector
    /// across saturated tenants. Must be > 0.
    pub weight: f64,
    /// Shed priority: brownout stage 3 sheds tenants with priority at or
    /// below the configured waterline first. Higher is more protected.
    pub priority: u8,
    /// Bound on this tenant's admission queue; offers beyond it shed.
    pub(crate) queue_cap: usize,
    /// Per-request deadline budget, seconds of virtual time; composes
    /// with the scheduler's watchdog deadlines (tighter bound wins).
    pub(crate) deadline: Option<f64>,
    /// GPU-proxy seconds this tenant may consume per quota window;
    /// `None` is unmetered.
    pub quota: Option<f64>,
}

impl TenantSpec {
    /// A tenant with the given name and weight, no quota, priority 1,
    /// and a queue bound of 8.
    pub fn new(name: impl Into<String>, weight: f64) -> TenantSpec {
        assert!(weight > 0.0, "tenant weight must be positive");
        TenantSpec {
            name: name.into(),
            weight,
            priority: 1,
            queue_cap: 8,
            deadline: None,
            quota: None,
        }
    }

    /// Sets the shed priority (builder form).
    pub fn with_priority(mut self, priority: u8) -> TenantSpec {
        self.priority = priority;
        self
    }

    /// Sets the queue bound (builder form).
    pub fn with_queue_cap(mut self, cap: usize) -> TenantSpec {
        assert!(cap > 0, "queue cap must be positive");
        self.queue_cap = cap;
        self
    }

    /// Sets the per-request deadline budget (builder form).
    pub fn with_deadline(mut self, seconds: f64) -> TenantSpec {
        assert!(seconds > 0.0, "deadline must be positive");
        self.deadline = Some(seconds);
        self
    }

    /// Sets the per-window GPU-proxy quota (builder form).
    pub fn with_quota(mut self, gpu_seconds: f64) -> TenantSpec {
        assert!(gpu_seconds > 0.0, "quota must be positive");
        self.quota = Some(gpu_seconds);
        self
    }
}

/// The set of tenants a frontend serves. Index order is identity: tenant
/// ids are positions in this registry.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    specs: Vec<TenantSpec>,
}

impl TenantRegistry {
    /// A registry over the given tenants.
    pub fn new(specs: Vec<TenantSpec>) -> TenantRegistry {
        assert!(!specs.is_empty(), "registry needs at least one tenant");
        TenantRegistry { specs }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the registry holds no tenants (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec for tenant `id`.
    pub fn spec(&self, id: usize) -> &TenantSpec {
        &self.specs[id]
    }

    /// Iterates `(id, spec)` in identity order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TenantSpec)> {
        self.specs.iter().enumerate()
    }
}

/// Typed outcome of offering one request to the admission controller.
/// There is no untyped "maybe later" — callers always learn exactly what
/// happened and what to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionOutcome {
    /// Admitted at the head of an empty queue: the request runs in the
    /// next drain without waiting behind anyone.
    Admit {
        /// Ticket identifying the request in later drains.
        ticket: u64,
    },
    /// Queued behind `pos` earlier requests of the same tenant.
    Queue {
        /// Ticket identifying the request in later drains.
        ticket: u64,
        /// Requests ahead of this one in the tenant's queue.
        pos: usize,
    },
    /// Shed: the frontend refuses the request. `retry_after` is the
    /// suggested backoff in ticks before offering again.
    Shed {
        /// Suggested backoff, in scheduler ticks.
        retry_after: f64,
    },
}

impl AdmissionOutcome {
    /// Stable wire code (0 admit, 1 queue, 2 shed) used by the replay
    /// log's admission records.
    pub fn code(&self) -> u8 {
        match self {
            AdmissionOutcome::Admit { .. } => 0,
            AdmissionOutcome::Queue { .. } => 1,
            AdmissionOutcome::Shed { .. } => 2,
        }
    }

    /// The argument word paired with [`code`](AdmissionOutcome::code) in
    /// the replay log: ticket for admit/queue-position for queue,
    /// retry-after bits for shed.
    pub fn arg(&self) -> u64 {
        match *self {
            AdmissionOutcome::Admit { ticket } => ticket,
            AdmissionOutcome::Queue { ticket: _, pos } => pos as u64,
            AdmissionOutcome::Shed { retry_after } => retry_after.to_bits(),
        }
    }
}

/// Rung of the brownout ladder, from healthy to load-shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// Power within budget: no degradation.
    #[default]
    Normal,
    /// Stage 1: deny *new* GPU offload; learned table entries still run.
    DenyGpu,
    /// Stage 2: force α = 0 for every invocation.
    ForceCpu,
    /// Stage 3: additionally shed the lowest-priority tenants outright.
    ShedLoad,
}

impl BrownoutLevel {
    /// Stable numeric code (0..=3), used in telemetry and replay logs.
    pub fn code(self) -> u8 {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::DenyGpu => 1,
            BrownoutLevel::ForceCpu => 2,
            BrownoutLevel::ShedLoad => 3,
        }
    }

    /// The GPU gate this rung imposes on admitted invocations.
    pub(crate) fn gpu_policy(self) -> GpuPolicy {
        match self {
            BrownoutLevel::Normal => GpuPolicy::Allow,
            BrownoutLevel::DenyGpu => GpuPolicy::DenyNew,
            BrownoutLevel::ForceCpu | BrownoutLevel::ShedLoad => GpuPolicy::Deny,
        }
    }

    fn up(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::Normal => BrownoutLevel::DenyGpu,
            BrownoutLevel::DenyGpu => BrownoutLevel::ForceCpu,
            _ => BrownoutLevel::ShedLoad,
        }
    }

    fn down(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::ShedLoad => BrownoutLevel::ForceCpu,
            BrownoutLevel::ForceCpu => BrownoutLevel::DenyGpu,
            _ => BrownoutLevel::Normal,
        }
    }
}

/// Hysteresis parameters for the brownout controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Package power budget, watts (the contended resource).
    pub power_budget: f64,
    /// Escalate one rung after `streak` consecutive EWMA samples above
    /// `power_budget * enter_margin`.
    pub enter_margin: f64,
    /// De-escalate one rung after `streak` consecutive EWMA samples
    /// below `power_budget * exit_margin`. Must sit below `enter_margin`
    /// — the gap is the hysteresis band that prevents flapping.
    pub exit_margin: f64,
    /// EWMA weight of the newest power sample (0 < w ≤ 1).
    pub ewma_weight: f64,
    /// Consecutive-sample streak required for any transition.
    pub streak: u32,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            power_budget: 45.0,
            enter_margin: 1.0,
            exit_margin: 0.85,
            ewma_weight: 0.3,
            streak: 3,
        }
    }
}

/// Hysteresis controller over the simulated package power signal. One
/// rung per transition: even a huge surge walks the ladder a stage at a
/// time, each stage gated by its own streak.
#[derive(Debug, Clone)]
pub(crate) struct BrownoutController {
    cfg: BrownoutConfig,
    level: BrownoutLevel,
    ewma: Option<f64>,
    hot_streak: u32,
    cool_streak: u32,
}

impl BrownoutController {
    /// A controller at `Normal` with the given hysteresis parameters.
    pub(crate) fn new(cfg: BrownoutConfig) -> BrownoutController {
        assert!(cfg.power_budget > 0.0, "power budget must be positive");
        assert!(
            cfg.exit_margin < cfg.enter_margin,
            "exit margin must sit below enter margin (hysteresis band)"
        );
        assert!(
            cfg.ewma_weight > 0.0 && cfg.ewma_weight <= 1.0,
            "ewma weight must be in (0, 1]"
        );
        BrownoutController {
            cfg,
            level: BrownoutLevel::Normal,
            ewma: None,
            hot_streak: 0,
            cool_streak: 0,
        }
    }

    /// Current rung.
    pub(crate) fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Folds one package-power sample; returns the transition if this
    /// sample moved the ladder.
    pub(crate) fn observe(&mut self, watts: f64) -> Option<(BrownoutLevel, BrownoutLevel)> {
        if !watts.is_finite() || watts < 0.0 {
            return None;
        }
        let w = self.cfg.ewma_weight;
        let ewma = match self.ewma {
            Some(prev) => prev * (1.0 - w) + watts * w,
            None => watts,
        };
        self.ewma = Some(ewma);

        if ewma > self.cfg.power_budget * self.cfg.enter_margin {
            self.cool_streak = 0;
            self.hot_streak += 1;
            if self.hot_streak >= self.cfg.streak.max(1) && self.level != BrownoutLevel::ShedLoad {
                self.hot_streak = 0;
                let from = self.level;
                self.level = self.level.up();
                return Some((from, self.level));
            }
        } else if ewma < self.cfg.power_budget * self.cfg.exit_margin {
            self.hot_streak = 0;
            self.cool_streak += 1;
            if self.cool_streak >= self.cfg.streak.max(1) && self.level != BrownoutLevel::Normal {
                self.cool_streak = 0;
                let from = self.level;
                self.level = self.level.down();
                return Some((from, self.level));
            }
        } else {
            // Inside the hysteresis band: hold the rung, reset streaks.
            self.hot_streak = 0;
            self.cool_streak = 0;
        }
        None
    }
}

/// Controller-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Requests drained (executed) per tick across all tenants.
    pub slots_per_tick: usize,
    /// Backoff hint (ticks) attached to queue-full sheds.
    pub retry_after: f64,
    /// Quota window length in ticks; per-tenant GPU-quota consumption
    /// resets at window boundaries.
    pub quota_window: u64,
    /// Brownout stage 3 sheds tenants with priority at or below this.
    pub shed_below_priority: u8,
    /// Brownout hysteresis parameters.
    pub brownout: BrownoutConfig,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            slots_per_tick: 4,
            retry_after: 2.0,
            quota_window: 16,
            shed_below_priority: 0,
            brownout: BrownoutConfig::default(),
        }
    }
}

/// Per-tenant counters: the only count of each admission outcome (a
/// page's totals are their sums).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantStats {
    /// Requests offered.
    pub offered: u64,
    /// Offers admitted at the queue head.
    pub admitted: u64,
    /// Offers queued behind earlier requests.
    pub queued: u64,
    /// Offers shed (all causes, including quota and brownout).
    pub shed: u64,
    /// Sheds caused specifically by an exhausted GPU quota.
    pub quota_denials: u64,
    /// GPU-proxy seconds consumed since construction.
    pub gpu_seconds: f64,
    /// Deepest the tenant's queue has ever been.
    pub queue_high_water: usize,
    /// Current queue depth.
    pub queue_len: usize,
}

/// One queued request: the ticket plus the tick it entered the queue,
/// so drains can report exact queue-wait (the SLO layer's raw signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueEntry {
    ticket: u64,
    enqueued: u64,
}

/// One request handed out by
/// [`drain_detailed`](AdmissionController::drain_detailed): where it came
/// from, which ticket it carries, and how long it queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainedRequest {
    /// Owning tenant's registry index.
    pub tenant: usize,
    /// Ticket assigned at offer time.
    pub ticket: u64,
    /// Full ticks spent queued between offer and this drain.
    pub waited_ticks: u64,
}

/// The admission controller: bounded per-tenant queues, weighted
/// fair-share draining, quota windows, and the brownout ladder.
///
/// Deterministic by construction — no clocks, no RNG; state advances
/// only through [`offer`](AdmissionController::offer),
/// [`drain`](AdmissionController::drain),
/// [`complete`](AdmissionController::complete),
/// [`observe_power`](AdmissionController::observe_power) and
/// [`advance_tick`](AdmissionController::advance_tick).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    registry: TenantRegistry,
    cfg: AdmissionConfig,
    brownout: BrownoutController,
    queues: Vec<VecDeque<QueueEntry>>,
    debt: Vec<f64>,
    quota_used: Vec<f64>,
    stats: Vec<TenantStats>,
    brownout_transitions: u64,
    tick: u64,
    next_ticket: u64,
    completions: u64,
}

impl AdmissionController {
    /// A fresh controller over the given tenants.
    pub fn new(registry: TenantRegistry, cfg: AdmissionConfig) -> AdmissionController {
        let n = registry.len();
        AdmissionController {
            registry,
            brownout: BrownoutController::new(cfg.brownout),
            cfg,
            queues: vec![VecDeque::new(); n],
            debt: vec![0.0; n],
            quota_used: vec![0.0; n],
            stats: vec![TenantStats::default(); n],
            brownout_transitions: 0,
            tick: 0,
            next_ticket: 0,
            completions: 0,
        }
    }

    /// The tenant registry.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Current brownout rung.
    pub fn level(&self) -> BrownoutLevel {
        self.brownout.level()
    }

    /// Current tick (advanced by [`advance_tick`](Self::advance_tick)).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Offers one request on behalf of `tenant`. Always returns a typed
    /// outcome; queue growth is bounded by the tenant's `queue_cap`.
    pub fn offer(&mut self, tenant: usize) -> AdmissionOutcome {
        let spec = self.registry.spec(tenant).clone();
        self.stats[tenant].offered += 1;

        if self.brownout.level() == BrownoutLevel::ShedLoad
            && spec.priority <= self.cfg.shed_below_priority
        {
            self.stats[tenant].shed += 1;
            return AdmissionOutcome::Shed {
                retry_after: self.cfg.retry_after,
            };
        }

        if let Some(quota) = spec.quota {
            if self.quota_used[tenant] >= quota {
                self.stats[tenant].shed += 1;
                self.stats[tenant].quota_denials += 1;
                let window = self.cfg.quota_window.max(1);
                let to_window_end = window - self.tick % window;
                return AdmissionOutcome::Shed {
                    retry_after: to_window_end as f64,
                };
            }
        }

        let queue = &mut self.queues[tenant];
        if queue.len() >= spec.queue_cap {
            self.stats[tenant].shed += 1;
            return AdmissionOutcome::Shed {
                retry_after: self.cfg.retry_after,
            };
        }

        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let pos = queue.len();
        queue.push_back(QueueEntry {
            ticket,
            enqueued: self.tick,
        });
        self.stats[tenant].queue_len = queue.len();
        self.stats[tenant].queue_high_water = self.stats[tenant].queue_high_water.max(queue.len());
        if pos == 0 {
            self.stats[tenant].admitted += 1;
            AdmissionOutcome::Admit { ticket }
        } else {
            self.stats[tenant].queued += 1;
            AdmissionOutcome::Queue { ticket, pos }
        }
    }

    /// Drains up to `slots` requests in weighted-fair order: each pick
    /// goes to the backlogged tenant with the smallest
    /// `gpu_seconds / weight` (ties to the lowest tenant id, so the
    /// order is deterministic). Returns `(tenant, ticket)` pairs.
    ///
    /// Measured debits only land at [`complete`](Self::complete), after
    /// the drained batch executes — so each pick provisionally charges
    /// its tenant one mean-sized debit (WFQ-style virtual time). Without
    /// the provisional charge a whole batch would go to the single
    /// lowest-debt tenant and the fairness granularity would be a
    /// queue-length burst instead of one request.
    pub fn drain(&mut self, slots: usize) -> Vec<(usize, u64)> {
        self.drain_detailed(slots)
            .into_iter()
            .map(|d| (d.tenant, d.ticket))
            .collect()
    }

    /// [`drain`](Self::drain) with queue-wait detail: each pick also
    /// reports how many full ticks the request spent queued, feeding the
    /// queue-wait spans and the SLO tracker without a second bookkeeping
    /// path.
    pub fn drain_detailed(&mut self, slots: usize) -> Vec<DrainedRequest> {
        let estimate = if self.completions > 0 {
            self.debt.iter().sum::<f64>() / self.completions as f64
        } else {
            1.0
        };
        let mut provisional = self.debt.clone();
        let mut picked = Vec::new();
        for _ in 0..slots {
            let next = self
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(t, _)| t)
                .min_by(|&a, &b| {
                    let va = provisional[a] / self.registry.spec(a).weight;
                    let vb = provisional[b] / self.registry.spec(b).weight;
                    va.total_cmp(&vb).then(a.cmp(&b))
                });
            let Some(tenant) = next else { break };
            provisional[tenant] += estimate;
            let entry = self.queues[tenant].pop_front().expect("non-empty queue");
            self.stats[tenant].queue_len = self.queues[tenant].len();
            picked.push(DrainedRequest {
                tenant,
                ticket: entry.ticket,
                waited_ticks: self.tick.saturating_sub(entry.enqueued),
            });
        }
        picked
    }

    /// Credits `gpu_seconds` of GPU-proxy time against `tenant` — the
    /// fair-share debt and the quota window both advance.
    pub fn complete(&mut self, tenant: usize, gpu_seconds: f64) {
        let debit = if gpu_seconds.is_finite() && gpu_seconds > 0.0 {
            gpu_seconds
        } else {
            // Even a CPU-only or fault-corrupted request consumed a
            // drain slot; charge a floor so fairness cannot be gamed by
            // reporting zero.
            1e-9
        };
        self.debt[tenant] += debit;
        self.quota_used[tenant] += debit;
        self.stats[tenant].gpu_seconds += debit;
        self.completions += 1;
    }

    /// Folds one package-power sample into the brownout controller. On
    /// an escalation to [`BrownoutLevel::ShedLoad`], queued requests of
    /// shed-target tenants are flushed (counted as shed). Returns the
    /// transition and how many queued requests each tenant (by registry
    /// index) had flushed.
    pub fn observe_power(
        &mut self,
        watts: f64,
    ) -> Option<(BrownoutLevel, BrownoutLevel, Vec<u64>)> {
        let (from, to) = self.brownout.observe(watts)?;
        self.brownout_transitions += 1;
        let mut flushed = vec![0; self.queues.len()];
        if to == BrownoutLevel::ShedLoad {
            for (t, spec) in self.registry.specs.iter().enumerate() {
                if spec.priority <= self.cfg.shed_below_priority {
                    flushed[t] = self.queues[t].len() as u64;
                    self.queues[t].clear();
                    self.stats[t].queue_len = 0;
                    self.stats[t].shed += flushed[t];
                }
            }
        }
        Some((from, to, flushed))
    }

    /// Advances the controller's tick; quota windows reset on boundaries.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
        if self.tick.is_multiple_of(self.cfg.quota_window.max(1)) {
            self.quota_used.iter_mut().for_each(|q| *q = 0.0);
        }
    }

    /// The admission context admitted requests of `tenant` run under:
    /// the brownout rung's GPU gate plus the tenant's deadline budget.
    pub fn ctx_for(&self, tenant: usize) -> InvocationCtx {
        InvocationCtx {
            gpu: self.brownout.level().gpu_policy(),
            deadline: self.registry.spec(tenant).deadline,
            tenant: tenant as u16,
            ..InvocationCtx::default()
        }
    }

    /// Per-tenant counters.
    pub fn tenant_stats(&self, tenant: usize) -> TenantStats {
        self.stats[tenant]
    }

    /// Brownout-ladder rung changes so far, either direction.
    pub fn brownout_transitions(&self) -> u64 {
        self.brownout_transitions
    }

    /// Worst fair-share deficit across *eligible* tenants: those that
    /// offered work, are unmetered (no quota) and sit above the shed
    /// waterline — quota caps and stage-3 shedding are policy, not
    /// unfairness. Deficit is `max(0, entitled − received) / entitled`
    /// where entitlement is the weight share of the eligible set.
    pub fn fair_share_deficit(&self) -> f64 {
        let eligible: Vec<usize> = self
            .registry
            .iter()
            .filter(|(t, s)| {
                self.stats[*t].offered > 0
                    && s.quota.is_none()
                    && s.priority > self.cfg.shed_below_priority
            })
            .map(|(t, _)| t)
            .collect();
        let total_weight: f64 = eligible.iter().map(|&t| self.registry.spec(t).weight).sum();
        let total_debt: f64 = eligible.iter().map(|&t| self.debt[t]).sum();
        if eligible.len() < 2 || total_weight <= 0.0 || total_debt <= 0.0 {
            return 0.0;
        }
        eligible
            .iter()
            .map(|&t| {
                let entitled = self.registry.spec(t).weight / total_weight;
                let received = self.debt[t] / total_debt;
                ((entitled - received) / entitled).max(0.0)
            })
            .fold(0.0, f64::max)
    }

    /// True when every queue respects its bound (the structural
    /// invariant CI asserts under storm load).
    pub fn queues_bounded(&self) -> bool {
        self.registry
            .iter()
            .all(|(t, s)| self.stats[t].queue_high_water <= s.queue_cap)
    }
}

/// [`splitmix64`] of `(seed, step)`: independent per-step randomness
/// from one seed.
fn mix(seed: u64, step: u64) -> u64 {
    splitmix64(seed.wrapping_add(step.wrapping_mul(0xBF58_476D_1CE4_E5B9)))
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One tenant's synthetic arrival process: Poisson at `rate` requests
/// per tick, multiplied by `burst_factor` inside periodic burst windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantTraffic {
    /// Baseline mean arrivals per tick.
    pub rate: f64,
    /// Burst window period, ticks (0 disables bursts).
    pub burst_every: u64,
    /// Burst window length, ticks.
    pub(crate) burst_len: u64,
    /// Rate multiplier inside a burst window.
    pub burst_factor: f64,
    /// Phase offset so tenants do not burst in lockstep.
    pub(crate) phase: u64,
}

impl TenantTraffic {
    /// A steady Poisson source.
    pub fn poisson(rate: f64) -> TenantTraffic {
        TenantTraffic {
            rate,
            burst_every: 0,
            burst_len: 0,
            burst_factor: 1.0,
            phase: 0,
        }
    }

    /// A bursty Poisson source: `factor`× the rate for `len` of every
    /// `every` ticks, offset by `phase`.
    pub fn bursty(rate: f64, every: u64, len: u64, factor: f64, phase: u64) -> TenantTraffic {
        TenantTraffic {
            rate,
            burst_every: every,
            burst_len: len,
            burst_factor: factor,
            phase,
        }
    }
}

/// Deterministic multi-tenant arrival generator: same seed, same storm.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    seed: u64,
    tenants: Vec<TenantTraffic>,
}

impl TrafficModel {
    /// A model over the given per-tenant processes.
    pub fn new(seed: u64, tenants: Vec<TenantTraffic>) -> TrafficModel {
        TrafficModel { seed, tenants }
    }

    /// Arrivals for `tenant` at `tick` — a Poisson sample (Knuth's
    /// product method, capped at 64) at the effective rate for the tick.
    pub fn arrivals(&self, tenant: usize, tick: u64) -> u32 {
        let t = self.tenants[tenant];
        let bursting =
            t.burst_every > 0 && (tick.wrapping_add(t.phase)) % t.burst_every < t.burst_len;
        let lambda = t.rate * if bursting { t.burst_factor } else { 1.0 };
        if lambda <= 0.0 {
            return 0;
        }
        let stream = self.seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let floor = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0f64;
        while k < 64 {
            p *= unit(mix(
                stream,
                tick.wrapping_mul(64).wrapping_add(u64::from(k)),
            ));
            if p <= floor {
                break;
            }
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantSpec::new("a", 3.0).with_queue_cap(2),
            TenantSpec::new("b", 1.0).with_queue_cap(2),
        ])
    }

    #[test]
    fn offers_admit_queue_then_shed_at_the_bound() {
        let mut ctl = AdmissionController::new(two_tenants(), AdmissionConfig::default());
        assert!(matches!(ctl.offer(0), AdmissionOutcome::Admit { .. }));
        assert!(matches!(
            ctl.offer(0),
            AdmissionOutcome::Queue { pos: 1, .. }
        ));
        // Queue cap 2: the third offer sheds with the configured backoff.
        match ctl.offer(0) {
            AdmissionOutcome::Shed { retry_after } => assert_eq!(retry_after, 2.0),
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(ctl.queues_bounded());
        let s = ctl.tenant_stats(0);
        assert_eq!((s.offered, s.admitted, s.queued, s.shed), (3, 1, 1, 1));
        assert_eq!(s.queue_high_water, 2);
    }

    #[test]
    fn drain_follows_weighted_fair_order() {
        let mut ctl = AdmissionController::new(two_tenants(), AdmissionConfig::default());
        ctl.offer(0);
        ctl.offer(0);
        ctl.offer(1);
        ctl.offer(1);
        // Equal debt: lowest id first; then completions steer the order.
        let first = ctl.drain(1);
        assert_eq!(first[0].0, 0);
        ctl.complete(0, 3.0); // debt/weight: a = 1.0, b = 0.0
        let second = ctl.drain(1);
        assert_eq!(second[0].0, 1);
        ctl.complete(1, 3.0); // a = 1.0, b = 3.0 -> a next
        let third = ctl.drain(2);
        assert_eq!(third[0].0, 0);
        assert_eq!(third[1].0, 1);
    }

    #[test]
    fn saturated_fair_share_tracks_weights() {
        // Weight 3:1, both tenants saturated and drain slots scarce:
        // tenant 0 should receive ~75 % of the GPU seconds, within the
        // 5 % CI bound.
        let mut ctl = AdmissionController::new(two_tenants(), AdmissionConfig::default());
        for _ in 0..400 {
            ctl.offer(0);
            ctl.offer(1);
            for (tenant, _ticket) in ctl.drain(1) {
                ctl.complete(tenant, 1.0);
            }
            ctl.advance_tick();
        }
        assert!(
            ctl.fair_share_deficit() <= 0.05,
            "deficit {} exceeds 5 %",
            ctl.fair_share_deficit()
        );
    }

    #[test]
    fn quota_exhaustion_sheds_until_the_window_resets() {
        let registry = TenantRegistry::new(vec![
            TenantSpec::new("metered", 1.0).with_quota(2.0),
            TenantSpec::new("free", 1.0),
        ]);
        let cfg = AdmissionConfig {
            quota_window: 4,
            ..AdmissionConfig::default()
        };
        let mut ctl = AdmissionController::new(registry, cfg);
        ctl.offer(0);
        ctl.drain(1);
        ctl.complete(0, 2.5); // past the 2.0 quota
        match ctl.offer(0) {
            AdmissionOutcome::Shed { retry_after } => assert!(retry_after >= 1.0),
            other => panic!("expected quota shed, got {other:?}"),
        }
        assert_eq!(ctl.tenant_stats(0).quota_denials, 1);
        for _ in 0..4 {
            ctl.advance_tick();
        }
        assert!(matches!(ctl.offer(0), AdmissionOutcome::Admit { .. }));
    }

    #[test]
    fn brownout_ladder_escalates_and_recovers_with_hysteresis() {
        let mut b = BrownoutController::new(BrownoutConfig {
            power_budget: 50.0,
            enter_margin: 1.0,
            exit_margin: 0.8,
            ewma_weight: 1.0, // no smoothing: test the streak logic alone
            streak: 2,
        });
        assert_eq!(b.observe(60.0), None); // streak 1
        assert_eq!(
            b.observe(60.0),
            Some((BrownoutLevel::Normal, BrownoutLevel::DenyGpu))
        );
        assert_eq!(b.observe(60.0), None);
        assert_eq!(
            b.observe(60.0),
            Some((BrownoutLevel::DenyGpu, BrownoutLevel::ForceCpu))
        );
        // Inside the hysteresis band (40..=50): hold and reset streaks.
        assert_eq!(b.observe(45.0), None);
        assert_eq!(b.observe(45.0), None);
        assert_eq!(b.level(), BrownoutLevel::ForceCpu);
        // Cool below 0.8 * 50 = 40 for two samples: one rung down.
        assert_eq!(b.observe(30.0), None);
        assert_eq!(
            b.observe(30.0),
            Some((BrownoutLevel::ForceCpu, BrownoutLevel::DenyGpu))
        );
        assert_eq!(b.observe(30.0), None);
        assert_eq!(
            b.observe(30.0),
            Some((BrownoutLevel::DenyGpu, BrownoutLevel::Normal))
        );
    }

    #[test]
    fn shed_load_flushes_and_refuses_low_priority_tenants() {
        let registry = TenantRegistry::new(vec![
            TenantSpec::new("batch", 1.0)
                .with_priority(0)
                .with_queue_cap(4),
            TenantSpec::new("interactive", 1.0).with_priority(2),
        ]);
        let cfg = AdmissionConfig {
            brownout: BrownoutConfig {
                power_budget: 50.0,
                enter_margin: 1.0,
                exit_margin: 0.8,
                ewma_weight: 1.0,
                streak: 1,
            },
            ..AdmissionConfig::default()
        };
        let mut ctl = AdmissionController::new(registry, cfg);
        ctl.offer(0);
        ctl.offer(0);
        // Walk the ladder to ShedLoad (one rung per hot sample).
        assert!(ctl.observe_power(90.0).is_some());
        assert!(ctl.observe_power(90.0).is_some());
        let (from, to, flushed) = ctl.observe_power(90.0).expect("third rung");
        assert_eq!(
            (from, to),
            (BrownoutLevel::ForceCpu, BrownoutLevel::ShedLoad)
        );
        assert_eq!(flushed, [2, 0], "queued batch requests are flushed");
        assert_eq!(ctl.brownout_transitions(), 3);
        assert_eq!(ctl.tenant_stats(0).shed, 2, "a flush counts as a shed");
        assert!(matches!(ctl.offer(0), AdmissionOutcome::Shed { .. }));
        assert!(matches!(ctl.offer(1), AdmissionOutcome::Admit { .. }));
        assert_eq!(ctl.ctx_for(1).gpu, GpuPolicy::Deny);
    }

    #[test]
    fn drain_detailed_reports_exact_queue_wait() {
        let mut ctl = AdmissionController::new(two_tenants(), AdmissionConfig::default());
        ctl.offer(0); // enqueued at tick 0
        ctl.advance_tick();
        ctl.advance_tick();
        ctl.offer(0); // enqueued at tick 2
        ctl.advance_tick();
        let drained = ctl.drain_detailed(2); // at tick 3
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].waited_ticks, 3);
        assert_eq!(drained[1].waited_ticks, 1);
        assert_eq!(drained[0].tenant, 0);
        // The plain drain wrapper sees the same picks, without the detail.
        ctl.offer(1);
        assert_eq!(ctl.drain(1), vec![(1, 2)]);
    }

    #[test]
    fn ctx_reflects_level_and_deadline() {
        let registry = TenantRegistry::new(vec![TenantSpec::new("t", 1.0).with_deadline(5.0)]);
        let ctl = AdmissionController::new(registry, AdmissionConfig::default());
        let ctx = ctl.ctx_for(0);
        assert_eq!(ctx.gpu, GpuPolicy::Allow);
        assert_eq!(ctx.deadline, Some(5.0));
    }

    #[test]
    fn traffic_model_is_deterministic_and_bursts_raise_the_rate() {
        let model = TrafficModel::new(42, vec![TenantTraffic::bursty(0.5, 20, 5, 8.0, 0)]);
        let a: Vec<u32> = (0..200).map(|t| model.arrivals(0, t)).collect();
        let b: Vec<u32> = (0..200).map(|t| model.arrivals(0, t)).collect();
        assert_eq!(a, b, "same seed, same storm");
        // The stream itself is pinned: overload logs replay against it.
        assert_eq!(mix(7, 3), 0xbeeb_cdfd_ae18_dfaf);
        let burst: u32 = (0..200)
            .filter(|t| t % 20 < 5)
            .map(|t| model.arrivals(0, t))
            .sum();
        let calm: u32 = (0..200)
            .filter(|t| t % 20 >= 5)
            .map(|t| model.arrivals(0, t))
            .sum();
        assert!(burst > calm, "burst windows must dominate arrivals");
    }
}
