//! The scheduling-policy interface.
//!
//! Two flavors exist:
//!
//! * [`Scheduler`] — the exclusive, `&mut self` policy the runtime has
//!   always driven; one workload stream per policy instance.
//! * [`ConcurrentScheduler`] — a shared, `&self` policy that many workload
//!   streams can drive at once from separate threads (e.g. EAS with a
//!   sharded kernel table). [`Shared`] adapts an `Arc` of one into a
//!   regular [`Scheduler`], so every existing entry point
//!   (`run_workload`, `replay_trace`, evaluators) works unchanged with a
//!   shared policy.

use crate::backend::Backend;
use std::sync::Arc;

/// Identifies a kernel across invocations — the paper's global table G maps
/// "CPU function pointer" to the learned offload ratio; we use a stable
/// numeric id per kernel instead of a raw pointer.
pub type KernelId = u64;

/// What the admission layer allows this invocation to do with the GPU
/// proxy. The default (`Allow`) is the single-tenant fast path and leaves
/// scheduling byte-identical to a context-free call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuPolicy {
    /// Normal scheduling: profile, offload, learn.
    #[default]
    Allow,
    /// Brownout stage 1: learned table entries may still be reused, but
    /// no *new* GPU offload is profiled (unknown kernels run CPU-only
    /// without learning).
    DenyNew,
    /// Brownout stage 2: force α = 0 — every invocation runs CPU-only
    /// and learns nothing.
    Deny,
}

/// Per-invocation admission context, threaded from the multi-tenant
/// frontend down into the scheduling policy.
///
/// `InvocationCtx::default()` is the single-tenant fast path: no deadline
/// budget, GPU fully allowed. Policies must treat a default context
/// exactly like a context-free call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationCtx {
    /// GPU gating from the brownout ladder.
    pub gpu: GpuPolicy,
    /// Per-request deadline budget, seconds; composes with the policy's
    /// own watchdog deadlines (the tighter bound wins).
    pub deadline: Option<f64>,
    /// Causal trace this invocation belongs to; 0 means untraced (the
    /// scheduler allocates a fresh trace when span tracing is enabled).
    /// Purely observational — policies must never branch on it.
    pub trace: u64,
    /// Owning tenant's registry index for span labeling, or `u16::MAX`
    /// when the invocation arrived outside any tenant frontend.
    pub tenant: u16,
}

impl Default for InvocationCtx {
    fn default() -> InvocationCtx {
        InvocationCtx {
            gpu: GpuPolicy::default(),
            deadline: None,
            trace: 0,
            tenant: u16::MAX,
        }
    }
}

impl InvocationCtx {
    /// True when this context changes nothing relative to a context-free
    /// call (the single-tenant fast path). Trace/tenant labels are
    /// observational and deliberately excluded: a traced invocation must
    /// schedule byte-identically to an untraced one.
    pub fn is_default(&self) -> bool {
        self.gpu == GpuPolicy::Allow && self.deadline.is_none()
    }
}

/// A work-partitioning policy.
///
/// The runtime calls [`Scheduler::schedule`] once per kernel invocation with
/// a [`Backend`] holding that invocation's iterations. The policy must
/// consume **all** remaining iterations before returning (the adapters in
/// this crate assert this). Policies keep their own cross-invocation state —
/// e.g. EAS's kernel table G.
pub trait Scheduler {
    /// Human-readable policy name ("EAS", "GPU", …) used in reports.
    fn name(&self) -> &str;

    /// Executes one kernel invocation.
    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend);
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        (**self).schedule(kernel, backend)
    }
}

/// A work-partitioning policy that can serve many workload streams
/// concurrently.
///
/// Unlike [`Scheduler`], `schedule_shared` takes `&self`: all
/// cross-invocation state (e.g. a learned kernel table) must be interior
/// and thread-safe. One policy instance behind an `Arc` can then be driven
/// from N threads at once, each with its own [`Backend`].
pub trait ConcurrentScheduler: Send + Sync {
    /// Human-readable policy name used in reports.
    fn name(&self) -> &str;

    /// Executes one kernel invocation; may be called concurrently from
    /// many threads (with distinct backends).
    fn schedule_shared(&self, kernel: KernelId, backend: &mut dyn Backend);

    /// Executes one kernel invocation under an admission context.
    ///
    /// The default ignores the context, so existing policies keep
    /// working; context-aware policies (EAS) override this and implement
    /// brownout gating and deadline budgets.
    fn schedule_shared_ctx(&self, kernel: KernelId, backend: &mut dyn Backend, ctx: InvocationCtx) {
        let _ = ctx;
        self.schedule_shared(kernel, backend);
    }
}

/// Adapter presenting an `Arc<ConcurrentScheduler>` as a [`Scheduler`].
///
/// Clone one `Shared` per thread; every clone drives the same underlying
/// policy and shares its learned state.
///
/// # Examples
///
/// ```
/// use easched_runtime::scheduler::{ConcurrentScheduler, Shared};
/// use easched_runtime::{Backend, KernelId, Scheduler};
/// use std::sync::Arc;
///
/// struct AlwaysCpu;
/// impl ConcurrentScheduler for AlwaysCpu {
///     fn name(&self) -> &str { "cpu" }
///     fn schedule_shared(&self, _k: KernelId, b: &mut dyn Backend) {
///         if b.remaining() > 0 { b.run_split(0.0); }
///     }
/// }
///
/// let shared = Shared::new(Arc::new(AlwaysCpu));
/// let mut per_thread = shared.clone(); // one clone per workload stream
/// assert_eq!(per_thread.name(), "cpu");
/// ```
#[derive(Debug)]
pub struct Shared<S: ?Sized> {
    ctx: InvocationCtx,
    policy: Arc<S>,
}

impl<S: ?Sized> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared {
            ctx: self.ctx,
            policy: Arc::clone(&self.policy),
        }
    }
}

impl<S: ConcurrentScheduler + ?Sized> Shared<S> {
    /// Wraps a shared policy with the default (single-tenant) context.
    pub fn new(policy: Arc<S>) -> Shared<S> {
        Shared {
            ctx: InvocationCtx::default(),
            policy,
        }
    }

    /// The underlying shared policy.
    pub fn policy(&self) -> &Arc<S> {
        &self.policy
    }

    /// This handle's admission context, applied to every invocation it
    /// schedules.
    pub fn ctx(&self) -> InvocationCtx {
        self.ctx
    }

    /// Returns a handle with the given admission context (builder form).
    pub fn with_ctx(mut self, ctx: InvocationCtx) -> Shared<S> {
        self.ctx = ctx;
        self
    }
}

impl<S: ConcurrentScheduler + ?Sized> Scheduler for Shared<S> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        self.policy.schedule_shared_ctx(kernel, backend, self.ctx)
    }
}

/// The trivial fixed-ratio policy: every invocation runs at offload ratio
/// α with no profiling. `FixedAlpha(0.0)` is CPU-alone, `FixedAlpha(1.0)`
/// GPU-alone; the Oracle scheme is an exhaustive sweep over these.
///
/// # Examples
///
/// ```
/// use easched_runtime::scheduler::FixedAlpha;
/// use easched_runtime::Scheduler;
///
/// let cpu_only = FixedAlpha::new(0.0);
/// assert_eq!(cpu_only.name(), "alpha=0.00");
/// ```
#[derive(Debug, Clone)]
pub struct FixedAlpha {
    alpha: f64,
    name: String,
}

impl FixedAlpha {
    /// Creates a fixed-α policy.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside [0, 1].
    pub fn new(alpha: f64) -> FixedAlpha {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        FixedAlpha {
            alpha,
            name: format!("alpha={alpha:.2}"),
        }
    }

    /// The ratio this policy applies.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Scheduler for FixedAlpha {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, _kernel: KernelId, backend: &mut dyn Backend) {
        if backend.remaining() > 0 {
            backend.run_split(self.alpha);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::test_support::FakeBackend;

    #[test]
    fn fixed_alpha_consumes_everything() {
        let mut s = FixedAlpha::new(0.3);
        let mut b = FakeBackend::new(1000, 100.0, 200.0);
        s.schedule(1, &mut b);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.log, vec!["split(0.30)"]);
    }

    #[test]
    fn fixed_alpha_skips_empty_invocations() {
        let mut s = FixedAlpha::new(0.5);
        let mut b = FakeBackend::new(0, 100.0, 200.0);
        s.schedule(1, &mut b);
        assert!(b.log.is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_out_of_range() {
        FixedAlpha::new(1.2);
    }
}
