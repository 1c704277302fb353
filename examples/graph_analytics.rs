//! Graph analytics on a road network using the frontier engines and the
//! real work-stealing CPU pool — the runtime substrate the scheduler
//! partitions over, shown standalone with actual OS threads.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use easched::graph::{
    delta_stepping::delta_stepping, gen, graph_stats, reference, BfsEngine, SsspEngine,
};
use easched::runtime::parallel_for;
use std::time::Instant;

fn main() {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    println!("building a 400×400 road network, {workers} CPU workers...");
    let g = gen::road_network(400, 400, 42);
    let stats = graph_stats(&g);
    println!(
        "|V| = {}, |E| = {}, mean degree {:.2}, max degree {}, pseudo-diameter {} \
         (W-USA-like: high diameter, flat degrees)",
        stats.vertices, stats.edges, stats.mean_degree, stats.max_degree, stats.pseudo_diameter
    );

    // Level-synchronous BFS: every level is one parallel_for over the
    // frontier (the invocation structure the paper's BFS workload has).
    let t0 = Instant::now();
    let mut bfs = BfsEngine::new(&g, 0);
    let mut levels = 0;
    let mut max_frontier = 0;
    while !bfs.is_done() {
        let n = bfs.frontier_len();
        max_frontier = max_frontier.max(n);
        let engine = &bfs;
        parallel_for(n as u64, workers, &|items| {
            for i in items {
                engine.process_item(i);
            }
        });
        bfs.advance();
        levels += 1;
    }
    let bfs_time = t0.elapsed();
    let reached = bfs.distances().iter().filter(|&&d| d != u32::MAX).count();
    println!(
        "BFS: {levels} levels (= kernel invocations), max frontier {max_frontier}, \
         {reached} vertices reached in {bfs_time:.2?}"
    );

    // Weighted shortest paths with the same structure.
    let t0 = Instant::now();
    let mut sssp = SsspEngine::new(&g, 0);
    let mut rounds = 0;
    while !sssp.is_done() {
        let n = sssp.frontier_len();
        let engine = &sssp;
        parallel_for(n as u64, workers, &|items| {
            for i in items {
                engine.process_item(i);
            }
        });
        sssp.advance();
        rounds += 1;
    }
    println!("SSSP: {rounds} relaxation rounds in {:.2?}", t0.elapsed());

    // Sanity: three independent algorithms agree.
    let t0 = Instant::now();
    let serial = reference::dijkstra(&g, 0);
    let dijkstra_time = t0.elapsed();
    let t0 = Instant::now();
    let ds = delta_stepping(&g, 0, 50);
    let ds_time = t0.elapsed();
    assert_eq!(ds, serial);
    let sample = (g.vertex_count() / 2) as usize;
    assert_eq!(sssp.distances()[sample], serial[sample]);
    println!(
        "distance to vertex {sample}: {} (Bellman-Ford rounds = Dijkstra {dijkstra_time:.2?} = \
         delta-stepping {ds_time:.2?})",
        serial[sample]
    );
}
