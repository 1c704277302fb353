//! The three graph workloads (Table 1 "BFS", "CC", "SP").
//!
//! All three are irregular, memory-bound, *short-kernel* workloads that
//! invoke the same kernel thousands of times: one invocation per
//! level/round, vertex-parallel (N = |V| every invocation, with
//! input-dependent control flow inside each item — the "irregular"
//! classification). The paper runs them on the W-USA road network, which
//! cannot be redistributed; every graph here comes from a seeded
//! road-network generator (high diameter, low degree, travel-time
//! weights) and is held in compressed sparse row form.
//!
//! BFS keeps its frontier as a bitmap, so an item range tests its
//! vertices 64 at a time and expands only the members. It claims an
//! unseen neighbour with a plain store: every claim in one level writes
//! the same distance.
//!
//! Verification compares against serial references: BFS levels by queue,
//! components by repeated search, distances by Dijkstra.

mod csr;
mod gen;
mod reference;

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use csr::Csr;
use easched_sim::{AccessPattern, KernelTraits, Platform};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

fn graph_calib(cpu_rate: f64, gpu_rate: f64, irregularity: f64) -> Calib {
    Calib {
        cpu_rate,
        gpu_rate,
        mem_intensity: 0.95,
        access: AccessPattern::Random,
        working_set: 200 << 20, // paper-scale W-USA CSR + state arrays
        bus_fraction: 1.05,
        irregularity,
        instr_per_item: 150.0,
        loads_per_item: 60.0,
    }
}

/// A vertex set as a bitmap: vertex `v` is bit `v % 64` of word `v / 64`.
fn bitmap(n: usize) -> Vec<AtomicU64> {
    (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

/// Calls `visit` on each vertex of `items` that is in `set`, in ascending
/// order. Each word tests 64 vertices; the words at either end of the
/// range are masked to the range.
fn for_each_set(set: &[AtomicU64], items: Range<usize>, mut visit: impl FnMut(usize)) {
    if items.is_empty() {
        return;
    }
    let (first, last) = (items.start / 64, (items.end - 1) / 64);
    for (w, word) in (first..).zip(&set[first..=last]) {
        let mut bits = word.load(Ordering::Relaxed);
        if w == first {
            bits &= u64::MAX << (items.start % 64);
        }
        if w == last {
            bits &= u64::MAX >> (63 - (items.end - 1) % 64);
        }
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The members of a bitmap set, ascending (the frontier's debug check).
fn set_bits(set: &[AtomicU64]) -> Vec<usize> {
    let mut members = Vec::new();
    for_each_set(set, 0..set.len() * 64, |v| members.push(v));
    members
}

/// Breadth-first search over a road network (vertex-parallel,
/// level-synchronous).
#[derive(Debug)]
pub struct Bfs {
    graph: Csr,
    source: u32,
    profile: Profile,
    /// The serial reference levels, computed on the first drive and
    /// compared against on every drive.
    serial_levels: OnceLock<Vec<u32>>,
}

impl Bfs {
    /// BFS on a `width × height` road network from vertex 0.
    pub fn new(width: u32, height: u32, seed: u64, profile: Profile) -> Self {
        Bfs {
            graph: gen::road_network(width, height, seed),
            source: 0,
            profile,
            serial_levels: OnceLock::new(),
        }
    }

    /// Default calibration (desktop GPU modestly ahead on irregular gather).
    pub fn default_profile() -> Profile {
        Profile {
            desktop: graph_calib(4.2e6, 6.1e6, 0.30),
            tablet: graph_calib(5.0e5, 5.5e5, 0.30),
        }
    }
}

impl Workload for Bfs {
    fn input_description(&self) -> String {
        format!(
            "road network |V|={}, |E|={}",
            self.graph.vertex_count(),
            self.graph.edge_count()
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Breadth first search",
            abbrev: "BFS",
            regular: false,
            runs_on_tablet: false,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("BFS", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.graph.vertex_count() as usize;
        if n == 0 {
            return Verification::Passed;
        }
        let src = self.source as usize;
        let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        dist[src].store(0, Ordering::Relaxed);
        // The vertices at `level` and the ones found for `level + 1`.
        let mut frontier = bitmap(n);
        let mut next = bitmap(n);
        *frontier[src / 64].get_mut() = 1 << (src % 64);
        let mut level = 0u32;
        loop {
            {
                let d = &dist;
                let g = &self.graph;
                let (f, nx) = (&frontier, &next);
                invoker.invoke(n as u64, &|items| {
                    // Vertex-parallel: only frontier members do real
                    // work — the input-dependent branch that makes BFS
                    // irregular. The bitmap answers it 64 vertices a load.
                    for_each_set(f, items, |i| {
                        for &u in g.neighbors(i as u32) {
                            let u = u as usize;
                            // A seen neighbour costs a plain load. Every
                            // writer of `d[u]` in this invocation writes
                            // `level + 1`, so racing claims store the same
                            // value and need no CAS; the bit goes in by
                            // `fetch_or`, which loses no neighbour's bit.
                            if d[u].load(Ordering::Relaxed) == u32::MAX {
                                d[u].store(level + 1, Ordering::Relaxed);
                                nx[u / 64].fetch_or(1 << (u % 64), Ordering::Relaxed);
                            }
                        }
                    });
                });
            }
            level += 1;
            std::mem::swap(&mut frontier, &mut next);
            for word in &mut next {
                *word.get_mut() = 0;
            }
            debug_assert_eq!(
                set_bits(&frontier),
                (0..n)
                    .filter(|&v| dist[v].load(Ordering::Relaxed) == level)
                    .collect::<Vec<_>>(),
                "the frontier after level {level} is not the vertices at that level"
            );
            // An invocation that discovered nothing ends the search.
            if frontier.iter_mut().all(|word| *word.get_mut() == 0) {
                break;
            }
        }
        let got: Vec<u32> = dist.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let want = self
            .serial_levels
            .get_or_init(|| reference::bfs_levels(&self.graph, self.source));
        if got == *want {
            Verification::Passed
        } else {
            Verification::Failed("BFS distances differ from serial reference".into())
        }
    }
}

/// Connected components by synchronous min-label propagation
/// (vertex-parallel).
#[derive(Debug)]
pub struct ConnectedComponents {
    graph: Csr,
    profile: Profile,
    /// The serial reference labels, computed on the first drive and
    /// compared against on every drive.
    serial_labels: OnceLock<Vec<u32>>,
}

impl ConnectedComponents {
    /// CC on a `width × height` road network.
    pub fn new(width: u32, height: u32, seed: u64, profile: Profile) -> Self {
        ConnectedComponents {
            graph: gen::road_network(width, height, seed),
            profile,
            serial_labels: OnceLock::new(),
        }
    }

    /// Default calibration. The highest irregularity of the suite — the
    /// paper singles CC out as the workload whose online profile misleads
    /// EAS (§5, desktop EDP discussion).
    pub fn default_profile() -> Profile {
        Profile {
            desktop: graph_calib(5.2e6, 7.8e6, 0.45),
            tablet: graph_calib(5.5e5, 6.0e5, 0.45),
        }
    }
}

impl Workload for ConnectedComponents {
    fn input_description(&self) -> String {
        format!(
            "road network |V|={}, |E|={}",
            self.graph.vertex_count(),
            self.graph.edge_count()
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Connected Component",
            abbrev: "CC",
            regular: false,
            runs_on_tablet: false,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("CC", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.graph.vertex_count() as usize;
        if n == 0 {
            return Verification::Passed;
        }
        let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
        loop {
            // Synchronous round: read the previous labels, write the new.
            let snapshot: Vec<u32> = labels.iter().map(|a| a.load(Ordering::Relaxed)).collect();
            let changed = AtomicBool::new(false);
            {
                let g = &self.graph;
                let l = &labels;
                let s = &snapshot;
                let ch = &changed;
                invoker.invoke(n as u64, &|items| {
                    // One store to the shared flag per range: threads
                    // that stored per vertex contended for its line.
                    let mut any = false;
                    for i in items {
                        let mut best = s[i];
                        for &u in g.neighbors(i as u32) {
                            best = best.min(s[u as usize]);
                        }
                        if best < s[i] {
                            l[i].fetch_min(best, Ordering::Relaxed);
                            any = true;
                        }
                    }
                    if any {
                        ch.store(true, Ordering::Relaxed);
                    }
                });
            }
            if !changed.load(Ordering::Relaxed) {
                break;
            }
        }
        let got: Vec<u32> = labels.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let want = self
            .serial_labels
            .get_or_init(|| reference::components(&self.graph));
        if got == *want {
            Verification::Passed
        } else {
            Verification::Failed("CC labels differ from serial reference".into())
        }
    }
}

/// Single-source shortest paths by synchronous Bellman-Ford
/// (vertex-parallel).
#[derive(Debug)]
pub struct ShortestPath {
    graph: Csr,
    source: u32,
    profile: Profile,
    /// The Dijkstra reference distances, computed on the first drive and
    /// compared against on every drive.
    serial_dist: OnceLock<Vec<u64>>,
}

impl ShortestPath {
    /// SSSP on a `width × height` road network from vertex 0.
    pub fn new(width: u32, height: u32, seed: u64, profile: Profile) -> Self {
        ShortestPath {
            graph: gen::road_network(width, height, seed),
            source: 0,
            profile,
            serial_dist: OnceLock::new(),
        }
    }

    /// Default calibration.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: graph_calib(3.9e6, 5.8e6, 0.30),
            tablet: graph_calib(4.5e5, 5.0e5, 0.30),
        }
    }
}

impl Workload for ShortestPath {
    fn input_description(&self) -> String {
        format!(
            "road network |V|={}, |E|={}",
            self.graph.vertex_count(),
            self.graph.edge_count()
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Shortest Path",
            abbrev: "SP",
            regular: false,
            runs_on_tablet: false,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("SP", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.graph.vertex_count() as usize;
        if n == 0 {
            return Verification::Passed;
        }
        let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        dist[self.source as usize].store(0, Ordering::Relaxed);
        loop {
            let snapshot: Vec<u64> = dist.iter().map(|a| a.load(Ordering::Relaxed)).collect();
            let changed = AtomicBool::new(false);
            {
                let g = &self.graph;
                let d = &dist;
                let s = &snapshot;
                let ch = &changed;
                invoker.invoke(n as u64, &|items| {
                    // One store to the shared flag per range, as in CC.
                    let mut any = false;
                    for i in items {
                        let di = s[i];
                        if di == u64::MAX {
                            continue;
                        }
                        for (u, w) in g.weighted_neighbors(i as u32) {
                            let nd = di + u64::from(w);
                            if nd < s[u as usize] {
                                let prev = d[u as usize].fetch_min(nd, Ordering::Relaxed);
                                any |= nd < prev;
                            }
                        }
                    }
                    if any {
                        ch.store(true, Ordering::Relaxed);
                    }
                });
            }
            if !changed.load(Ordering::Relaxed) {
                break;
            }
        }
        let got: Vec<u64> = dist.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let want = self
            .serial_dist
            .get_or_init(|| reference::dijkstra(&self.graph, self.source));
        if got == *want {
            Verification::Passed
        } else {
            Verification::Failed("SSSP distances differ from Dijkstra".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};
    use proptest::prelude::*;

    #[test]
    fn bfs_verifies_and_has_many_invocations() {
        let w = Bfs::new(24, 24, 1, Bfs::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        // One invocation per level: at least the grid dimension.
        assert!(trace.invocations() >= 24, "got {}", trace.invocations());
        // Vertex-parallel: every invocation processes |V| items.
        assert!(trace.sizes.iter().all(|&s| s == 576));
    }

    #[test]
    fn cc_verifies() {
        let w = ConnectedComponents::new(16, 16, 2, ConnectedComponents::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert!(trace.invocations() >= 10);
    }

    #[test]
    fn sp_verifies_and_outlasts_bfs() {
        let seed = 3;
        let bfs = Bfs::new(20, 20, seed, Bfs::default_profile());
        let sp = ShortestPath::new(20, 20, seed, ShortestPath::default_profile());
        let (bt, bv) = record_trace(&bfs);
        let (st, sv) = record_trace(&sp);
        assert!(bv.is_passed() && sv.is_passed());
        // Weighted relaxation needs more rounds than hop-count BFS
        // (matches Table 1: SP 2577 > BFS 1748 invocations).
        assert!(
            st.invocations() > bt.invocations(),
            "sp {} vs bfs {}",
            st.invocations(),
            bt.invocations()
        );
    }

    #[test]
    fn all_three_classify_memory_bound() {
        let p = Platform::haswell_desktop();
        for traits in [
            Bfs::new(8, 8, 0, Bfs::default_profile()).traits_for(&p),
            ConnectedComponents::new(8, 8, 0, ConnectedComponents::default_profile())
                .traits_for(&p),
            ShortestPath::new(8, 8, 0, ShortestPath::default_profile()).traits_for(&p),
        ] {
            assert!(traits.l3_miss_ratio(p.memory.llc_bytes) > 0.33, "{traits}");
        }
    }

    #[test]
    fn none_run_on_tablet() {
        assert!(
            !Bfs::new(4, 4, 0, Bfs::default_profile())
                .spec()
                .runs_on_tablet
        );
        assert!(
            !ConnectedComponents::new(4, 4, 0, ConnectedComponents::default_profile())
                .spec()
                .runs_on_tablet
        );
        assert!(
            !ShortestPath::new(4, 4, 0, ShortestPath::default_profile())
                .spec()
                .runs_on_tablet
        );
    }

    #[test]
    fn bfs_serial_invoker_direct() {
        let w = Bfs::new(10, 10, 5, Bfs::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    /// Runs each invocation's second half before its first: a legal
    /// schedule that no serial loop over `0..n` produces.
    struct SecondHalfFirst;

    impl Invoker for SecondHalfFirst {
        fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
            let (n, mid) = (n as usize, n as usize / 2);
            process(mid..n);
            process(0..mid);
        }
    }

    /// Cuts each invocation at 63, 64, 65, 127 and 128 (those below `n`)
    /// and runs the pieces last first: ranges that start and end on
    /// either side of a bitmap word's edge, and mid-word.
    struct AroundWordEdges;

    impl Invoker for AroundWordEdges {
        fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
            let n = n as usize;
            let mut cuts: Vec<usize> = [0, 63, 64, 65, 127, 128]
                .into_iter()
                .filter(|&c| c < n)
                .collect();
            cuts.push(n);
            for piece in cuts.windows(2).rev() {
                process(piece[0]..piece[1]);
            }
        }
    }

    /// The three drivers on `g` from `source`, each against its reference.
    fn drive_all(g: &Csr, source: u32, invoker: &mut dyn Invoker) -> [Verification; 3] {
        let bfs = Bfs {
            graph: g.clone(),
            source,
            profile: Bfs::default_profile(),
            serial_levels: OnceLock::new(),
        };
        let cc = ConnectedComponents {
            graph: g.clone(),
            profile: ConnectedComponents::default_profile(),
            serial_labels: OnceLock::new(),
        };
        let sp = ShortestPath {
            graph: g.clone(),
            source,
            profile: ShortestPath::default_profile(),
            serial_dist: OnceLock::new(),
        };
        [bfs.drive(invoker), cc.drive(invoker), sp.drive(invoker)]
    }

    #[test]
    fn ranges_cut_at_word_edges_and_run_backwards_verify() {
        // 144, 160 and 255 vertices: a last word that is full, a quarter
        // full and one vertex short.
        for (w, h) in [(12, 12), (16, 10), (15, 17)] {
            let g = gen::road_network(w, h, 5);
            let last = g.vertex_count() - 1;
            for source in [0, 63, 64, 65, 127, 128, last] {
                for v in drive_all(&g, source, &mut AroundWordEdges) {
                    assert!(v.is_passed(), "{w}x{h} from {source}: {v:?}");
                }
            }
        }
    }

    /// Runs each invocation through the pool on four workers.
    struct Pooled;

    impl Invoker for Pooled {
        fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
            crate::pool::parallel_for(n, 4, process);
        }
    }

    #[test]
    fn racing_discoveries_of_one_vertex_agree() {
        // Vertex 0, then six layers of 70 dealt round-robin over the ids,
        // every vertex joined to every vertex of the next layer: each
        // pool chunk holds frontier members of every level, and all of
        // them reach the same next-layer vertices at once.
        let layers = 6;
        let n = 1 + 70 * layers;
        let layer = |v: u32| (v - 1) % layers;
        let mut edges = Vec::new();
        for a in 1..n {
            if layer(a) == 0 {
                edges.extend([(0, a), (a, 0)]);
            }
            for b in 1..n {
                if layer(b) == layer(a) + 1 {
                    edges.extend([(a, b), (b, a)]);
                }
            }
        }
        let weights = vec![1; edges.len()];
        let g = Csr::from_weighted_edges(n, &edges, &weights).expect("valid edges");
        let want = reference::bfs_levels(&g, 0);
        assert_eq!(want.iter().max(), Some(&layers));
        let bfs = Bfs {
            graph: g,
            source: 0,
            profile: Bfs::default_profile(),
            serial_levels: OnceLock::from(want),
        };
        for round in 0..50 {
            assert!(bfs.drive(&mut Pooled).is_passed(), "round {round}");
        }
    }

    /// Arbitrary undirected weighted graph of up to 300 vertices (five
    /// bitmap words): isolated vertices, self-loops and parallel edges
    /// included. Half the edges join near ids, so paths are long and
    /// frontiers cross word edges.
    fn graphs() -> impl Strategy<Value = Csr> {
        (
            2u32..300,
            prop::collection::vec((0u32..300, 0u32..300, 1u32..100), 0..300),
            prop::collection::vec((0u32..300, 0u32..4, 1u32..100), 0..300),
        )
            .prop_map(|(n, far, near)| {
                let mut edges = Vec::new();
                let mut weights = Vec::new();
                let near = near.into_iter().map(|(a, d, w)| (a, a + d, w));
                for (a, b, w) in far.into_iter().chain(near) {
                    let (a, b) = (a % n, b % n);
                    edges.push((a, b));
                    weights.push(w);
                    edges.push((b, a));
                    weights.push(w);
                }
                Csr::from_weighted_edges(n, &edges, &weights).expect("valid edges")
            })
    }

    /// A source id: the last vertex (`u32::MAX`), the ends of the first
    /// word, or anywhere. [`source_of`] reduces it into the graph.
    fn sources() -> impl Strategy<Value = u32> {
        prop_oneof![Just(63u32), Just(64), Just(u32::MAX), 0u32..300]
    }

    fn source_of(g: &Csr, raw: u32) -> u32 {
        if raw == u32::MAX {
            g.vertex_count() - 1
        } else {
            raw % g.vertex_count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The three drivers agree with their serial references on any
        /// graph and from any source.
        #[test]
        fn drivers_match_the_references_on_any_graph(g in graphs(), src_raw in sources()) {
            let source = source_of(&g, src_raw);
            for v in drive_all(&g, source, &mut SecondHalfFirst) {
                prop_assert!(v.is_passed(), "from {}: {:?}", source, v);
            }
        }

        /// The oracles themselves: component labels are the least id in
        /// their component, and BFS levels are tight along every edge.
        #[test]
        fn references_are_canonical_and_tight(g in graphs(), src_raw in sources()) {
            let labels = reference::components(&g);
            for (v, &l) in labels.iter().enumerate() {
                prop_assert!(l as usize <= v);
                prop_assert_eq!(labels[l as usize], l, "label of a label is itself");
            }
            let dist = reference::bfs_levels(&g, source_of(&g, src_raw));
            for v in 0..g.vertex_count() {
                for &u in g.neighbors(v) {
                    let (dv, du) = (dist[v as usize], dist[u as usize]);
                    if dv != u32::MAX {
                        prop_assert!(du != u32::MAX && du <= dv + 1, "edge {v}-{u}: {dv} vs {du}");
                    }
                }
            }
        }
    }
}
