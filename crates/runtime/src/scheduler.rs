//! The scheduling-policy interface: [`Scheduler`], the one trait a policy
//! implements, and the [`InvocationCtx`] an admission layer threads into
//! it.
//!
//! A policy whose state many workload streams share (EAS over its sharded
//! kernel table) keeps that state interior and gives each stream its own
//! handle implementing [`Scheduler`], so every entry point
//! (`run_workload`, `replay_trace`, evaluators) drives an exclusive and a
//! shared policy alike.

use crate::backend::Backend;

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

/// The trivial fixed-ratio policy: every invocation runs at offload ratio
/// α with no profiling. `FixedAlpha(0.0)` is CPU-alone, `FixedAlpha(1.0)`
/// GPU-alone; the Oracle scheme is an exhaustive sweep over these.
///
/// # Examples
///
/// ```
/// use easched_runtime::FixedAlpha;
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
