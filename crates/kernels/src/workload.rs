//! The workload abstraction shared by the runtime, scheduler, and harness.
//!
//! A [`Workload`] is a complete application in the paper's sense: it invokes
//! one data-parallel kernel one or more times (Table 1, column 5), with the
//! number of parallel iterations N potentially varying per invocation
//! (frontier algorithms). The workload drives execution through an
//! [`Invoker`], which decides *where* items run:
//!
//! * [`SerialInvoker`] executes all items inline as one range (tests,
//!   verification);
//! * [`TraceRecorder`] records the invocation sizes, producing an
//!   [`InvocationTrace`] that the evaluation harness replays through
//!   schedulers on the simulated machine (trace-driven simulation), and
//!   executes each invocation by [`spread_if_long`]: inline when its first
//!   slice says it is short, on the work-stealing pool's every CPU when
//!   the rest is long;
//! * the runtime crate provides invokers that partition items between the
//!   CPU pool and the GPU.
//!
//! A kernel body takes a *range* of item indices and loops over it, so an
//! invoker pays one dynamic call per chunk it hands out — the granularity of
//! the paper's Concord-style `parallel_for` — not one per item. Bodies must
//! be thread-safe (`Sync`): the heterogeneous runtime calls them
//! concurrently from many workers, on disjoint ranges.

use crate::pool::spread_if_long;
use easched_sim::{KernelTraits, Platform};
use std::ops::Range;

/// Static description of a workload (Table 1 metadata).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Full name, e.g. "Connected Component".
    pub name: &'static str,
    /// Table 1 abbreviation, e.g. "CC".
    pub abbrev: &'static str,
    /// Regular (R) vs irregular (IR) control flow.
    pub regular: bool,
    /// Whether the workload runs on the 32-bit tablet (five of the twelve do
    /// not — Table 1 marks their tablet inputs N/A).
    pub runs_on_tablet: bool,
}

/// Result of functionally executing a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verification {
    /// Output matched the reference/invariant check.
    Passed,
    /// Output was wrong; the message says how.
    Failed(String),
}

impl Verification {
    /// True if verification passed.
    pub fn is_passed(&self) -> bool {
        matches!(self, Verification::Passed)
    }
}

/// Executes kernel invocations on behalf of a workload.
pub trait Invoker {
    /// Runs one data-parallel kernel invocation of `n` independent items.
    /// Must call `process` on disjoint ranges that together cover `0..n`
    /// exactly once (on any thread, in any order) before returning.
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync));
}

/// An invoker that executes all items inline on the calling thread.
///
/// # Examples
///
/// ```
/// use easched_kernels::{Invoker, SerialInvoker};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let sum = AtomicU64::new(0);
/// SerialInvoker.invoke(10, &|items| {
///     for i in items {
///         sum.fetch_add(i as u64, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 45);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialInvoker;

impl Invoker for SerialInvoker {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        process(0..n as usize);
    }
}

/// The per-invocation item counts of one workload execution.
///
/// Replaying a trace through the simulator is the harness's fast path: the
/// invocation structure of these applications does not depend on how items
/// were partitioned, so one functional execution determines the sizes and
/// every scheduling scheme replays them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InvocationTrace {
    /// N for each kernel invocation, in order.
    pub sizes: Vec<u64>,
}

impl InvocationTrace {
    /// Total items across all invocations.
    pub fn total_items(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Number of invocations.
    pub fn invocations(&self) -> usize {
        self.sizes.len()
    }
}

/// An invoker that records invocation sizes and runs each invocation by
/// [`spread_if_long`]. The sizes are the workload's own and the outputs
/// do not depend on where the items ran, so a recording is the same on
/// one CPU or many.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    trace: InvocationTrace,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder, returning the trace.
    pub(crate) fn into_trace(self) -> InvocationTrace {
        self.trace
    }
}

impl Invoker for TraceRecorder {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        self.trace.sizes.push(n);
        spread_if_long(n as usize, process);
    }
}

/// A complete benchmark application.
pub trait Workload: Send + Sync {
    /// Table 1 metadata.
    fn spec(&self) -> WorkloadSpec;

    /// Human-readable input description (Table 1's "Input" column), e.g.
    /// `"1M bodies, 1 step"`.
    fn input_description(&self) -> String {
        String::new()
    }

    /// The kernel's simulation profile on `platform` (timing rates, power
    /// class, counter footprint). The *scheduler* never sees this — it flows
    /// only to the simulated machine, preserving the black-box discipline.
    fn traits_for(&self, platform: &Platform) -> KernelTraits;

    /// Executes the application, issuing every kernel invocation through
    /// `invoker`, and verifies the final output.
    fn drive(&self, invoker: &mut dyn Invoker) -> Verification;
}

/// Runs `workload` once with a recording [`Invoker`], returning the
/// invocation trace and the verification outcome.
///
/// # Examples
///
/// ```
/// use easched_kernels::suite;
/// use easched_kernels::record_trace;
///
/// let w = suite::blackscholes_small();
/// let (trace, v) = record_trace(w.as_ref());
/// assert!(v.is_passed());
/// assert!(trace.invocations() >= 1);
/// ```
pub fn record_trace(workload: &dyn Workload) -> (InvocationTrace, Verification) {
    let mut rec = TraceRecorder::new();
    let v = workload.drive(&mut rec);
    (rec.into_trace(), v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Doubler;

    impl Workload for Doubler {
        fn spec(&self) -> WorkloadSpec {
            WorkloadSpec {
                name: "Doubler",
                abbrev: "DBL",
                regular: true,
                runs_on_tablet: true,
            }
        }

        fn traits_for(&self, _platform: &Platform) -> KernelTraits {
            KernelTraits::builder("dbl").build()
        }

        fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
            let acc = AtomicU64::new(0);
            let double = |items: Range<usize>| {
                for i in items {
                    acc.fetch_add(2 * i as u64, Ordering::Relaxed);
                }
            };
            invoker.invoke(4, &double);
            invoker.invoke(2, &double);
            if acc.load(Ordering::Relaxed) == 14 {
                Verification::Passed
            } else {
                Verification::Failed(format!("sum {}", acc.load(Ordering::Relaxed)))
            }
        }
    }

    #[test]
    fn serial_invoker_executes_all_items() {
        let v = Doubler.drive(&mut SerialInvoker);
        assert!(v.is_passed());
    }

    #[test]
    fn trace_recorder_captures_sizes() {
        let (trace, v) = record_trace(&Doubler);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![4, 2]);
        assert_eq!(trace.total_items(), 6);
        assert_eq!(trace.invocations(), 2);
    }

    /// Records sizes and runs each invocation on the caller's thread as
    /// one range: the recorder before invocations were spread.
    struct InlineRecorder(Vec<u64>);

    impl Invoker for InlineRecorder {
        fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
            self.0.push(n);
            process(0..n as usize);
        }
    }

    #[test]
    fn spread_recordings_have_the_inline_sizes() {
        for w in crate::suite::small_suite() {
            let mut inline = InlineRecorder(Vec::new());
            assert!(w.drive(&mut inline).is_passed());
            let (trace, v) = record_trace(w.as_ref());
            assert!(v.is_passed(), "{}: {v:?}", w.spec().abbrev);
            assert_eq!(trace.sizes, inline.0, "{}", w.spec().abbrev);
        }
    }

    #[test]
    fn verification_accessors() {
        assert!(Verification::Passed.is_passed());
        assert!(!Verification::Failed("x".into()).is_passed());
    }

    #[test]
    fn empty_trace_defaults() {
        let t = InvocationTrace::default();
        assert_eq!(t.total_items(), 0);
        assert_eq!(t.invocations(), 0);
    }
}
