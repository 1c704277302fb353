//! The fleet-wide reprofile scheduler: batched response to replicated
//! taints.
//!
//! When a taint replicates in, the receiving node should eventually
//! re-measure the kernel on *its* silicon — but a taint storm (one bad
//! power rail tainting a dozen kernels at once) must not stall the whole
//! node in back-to-back profiling. The scheduler queues tainted kernels
//! and releases at most `budget` per anti-entropy round, oldest first
//! (DESIGN.md §15). Releasing means tainting the *local* table entry, so
//! the scheduler's own profile loop re-profiles on the kernel's next
//! invocation — replication never skips or forges a measurement.

use std::collections::BTreeSet;

/// Batched re-profiling queue. Deterministic: kernels release in id
/// order within a round, bounded by the per-round budget.
#[derive(Debug, Clone)]
pub(crate) struct ReprofileScheduler {
    pending: BTreeSet<u64>,
    budget: usize,
}

impl ReprofileScheduler {
    /// A queue releasing at most `budget` kernels per round (0 disables
    /// release entirely — kernels just accumulate).
    pub(crate) fn new(budget: usize) -> ReprofileScheduler {
        ReprofileScheduler {
            pending: BTreeSet::new(),
            budget,
        }
    }

    /// Queues a kernel for re-profiling. Idempotent; returns `true` only
    /// on first enqueue (so callers can count scheduled reprofiles
    /// without double-counting duplicate taints).
    pub(crate) fn enqueue(&mut self, kernel: u64) -> bool {
        self.pending.insert(kernel)
    }

    /// Kernels still waiting.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Takes this round's batch: up to `budget` kernels, smallest id
    /// first.
    pub(crate) fn take_batch(&mut self) -> Vec<u64> {
        let batch: Vec<u64> = self.pending.iter().copied().take(self.budget).collect();
        for k in &batch {
            self.pending.remove(k);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_id_order_within_budget() {
        let mut s = ReprofileScheduler::new(2);
        assert!(s.enqueue(9));
        assert!(s.enqueue(3));
        assert!(s.enqueue(7));
        assert!(!s.enqueue(3), "duplicate taint is one reprofile");
        assert_eq!(s.take_batch(), vec![3, 7]);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.take_batch(), vec![9]);
        assert_eq!(s.take_batch(), Vec::<u64>::new());
    }

    #[test]
    fn zero_budget_accumulates_forever() {
        let mut s = ReprofileScheduler::new(0);
        s.enqueue(1);
        s.enqueue(2);
        assert_eq!(s.take_batch(), Vec::<u64>::new());
        assert_eq!(s.pending(), 2);
    }
}
