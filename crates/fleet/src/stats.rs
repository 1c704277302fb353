//! Per-node replication counters and their Prometheus exposition.
//!
//! These are *fabric* and *protocol* counters, deliberately separate from
//! the scheduler's [`HealthReport`](easched_core::HealthReport): dropped
//! or torn frames are the chaos environment doing its job, not scheduler
//! faults, so they must never disturb `fault_free()` (DESIGN.md §15).

use easched_core::StoreHealth;
use easched_telemetry::expose_rows_labelled;

easched_telemetry::counter_table! {
    /// One node's replication counters. Plain integers — the fleet loop is
    /// single-threaded, so no atomics are needed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub report FleetStats;
    /// Frames this node sent (requests and entry batches).
    frames_sent: counter = "easched_fleet_frames_sent_total", "Frames this node sent",
    /// Frames destined to this node the fabric dropped.
    frames_dropped: counter = "easched_fleet_frames_dropped_total",
        "Frames to this node the fabric dropped",
    /// Frames destined to this node the fabric duplicated.
    frames_duplicated: counter = "easched_fleet_frames_duplicated_total",
        "Frames to this node the fabric duplicated",
    /// Frames that arrived torn or corrupt and were rejected whole.
    frames_torn: counter = "easched_fleet_frames_torn_total",
        "Frames that arrived torn or corrupt and were rejected whole",
    /// Frames refused because a partition severed the link.
    frames_partitioned: counter = "easched_fleet_frames_partitioned_total",
        "Frames refused because a partition severed the link",
    /// Envelopes applied (fresh watermark advances).
    entries_applied: counter = "easched_fleet_entries_applied_total", "Envelopes applied",
    /// Envelopes skipped as duplicates or stale generations.
    entries_rejected_stale: counter = "easched_fleet_entries_rejected_stale_total",
        "Envelopes skipped as duplicates or stale generations",
    /// Envelopes deferred because an earlier seq had not arrived yet
    /// (reordering; the gap closes on a later pull).
    entries_deferred_gap: counter = "easched_fleet_entries_deferred_gap_total",
        "Envelopes deferred behind a sequence gap",
    /// Replica facts where a newer version superseded a different
    /// origin's fact (LWW conflict resolutions).
    conflicts_resolved: counter = "easched_fleet_conflicts_resolved_total",
        "Last-writer-wins conflict resolutions",
    /// Cross-platform entries installed as warm-start priors.
    priors_applied: counter = "easched_fleet_priors_applied_total",
        "Cross-platform entries installed as warm-start priors",
    /// Taints ingested from other nodes.
    taints_replicated: counter = "easched_fleet_taints_replicated_total",
        "Taints ingested from other nodes",
    /// Kernels this node's reprofile scheduler queued after a
    /// replicated taint.
    reprofiles_scheduled: counter = "easched_fleet_reprofiles_scheduled_total",
        "Kernels queued for re-profiling after a replicated taint",
}

/// Renders every node's replication counters as one Prometheus
/// text-exposition page fragment: each series typed once, then one
/// `node="<name>"` sample per node (append it to a
/// [`MetricsRegistry::expose`](easched_telemetry::MetricsRegistry::expose)
/// page or serve it standalone).
pub fn expose_fleet(nodes: &[(String, FleetStats)]) -> String {
    let series: Vec<_> = nodes
        .iter()
        .map(|(n, s)| (n.as_str(), s.values()))
        .collect();
    let mut out = String::new();
    expose_rows_labelled(&mut out, &FleetStats::ROWS, "node", &series);
    out
}

/// Renders every node's journal storage-health counters (DESIGN.md §16)
/// as a page fragment beside [`expose_fleet`]: the single-node
/// `easched_store_*` series of [`StoreHealth`], node-labelled.
pub fn expose_fleet_store(nodes: &[(String, StoreHealth)]) -> String {
    let series: Vec<_> = nodes
        .iter()
        .map(|(n, h)| (n.as_str(), h.values()))
        .collect();
    let mut out = String::new();
    expose_rows_labelled(&mut out, &StoreHealth::ROWS, "node", &series);
    out
}
