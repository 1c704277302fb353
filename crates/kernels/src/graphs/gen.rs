//! The deterministic road-network generator.
//!
//! The paper's graph workloads run on the W-USA road network (|V| = 6.2 M).
//! We cannot redistribute that dataset, so [`road_network`] generates a graph
//! with the same algorithmically relevant properties: planar-ish grid
//! structure, mean degree ≈ 2.5–3, very high diameter (thousands of BFS
//! levels at full scale), and integer travel-time weights.
//!
//! # Seeding discipline
//!
//! The generator takes its seed explicitly — there is no ambient RNG
//! state here. All callers thread a *named* seed down to it: the benchmark
//! suite passes the constants in `suite::seeds` (its manifest is what the
//! record/replay layer writes into each `RunLog`), and tests pass literals
//! at the call site. The vendored `rand` stand-in's `StdRng` stream is therefore the
//! only PRNG these inputs depend on; if it is ever swapped for the real
//! crate, regenerated inputs change but recorded `RunLog`s replay
//! unchanged, because logs carry the observations themselves (see
//! DESIGN.md §12).

use super::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a road-network-like weighted graph on a `width × height` grid.
///
/// Each grid point connects to its right and down neighbors (both
/// directions), a small fraction of edges are deleted (dead ends), and a
/// sparse set of "highway" shortcuts is added. Weights model travel times:
/// uniform in `1..=100` for local roads, shorter per-distance for highways.
///
/// The result is connected-ish (a giant component containing almost all
/// vertices) with diameter Θ(width + height).
///
/// # Panics
///
/// Panics if `width` or `height` is zero.
pub(crate) fn road_network(width: u32, height: u32, seed: u64) -> Csr {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    let n = width * height;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    let add = |a: u32, b: u32, w: u32, edges: &mut Vec<(u32, u32)>, weights: &mut Vec<u32>| {
        edges.push((a, b));
        weights.push(w);
        edges.push((b, a));
        weights.push(w);
    };
    let idx = |x: u32, y: u32| y * width + x;
    for y in 0..height {
        for x in 0..width {
            let v = idx(x, y);
            if x + 1 < width && rng.gen_bool(0.93) {
                add(
                    v,
                    idx(x + 1, y),
                    rng.gen_range(1..=100),
                    &mut edges,
                    &mut weights,
                );
            }
            if y + 1 < height && rng.gen_bool(0.93) {
                add(
                    v,
                    idx(x, y + 1),
                    rng.gen_range(1..=100),
                    &mut edges,
                    &mut weights,
                );
            }
        }
    }
    // Highways: *local* shortcuts a few grid cells long (real highways
    // connect nearby towns; long-range random edges would collapse the
    // diameter into a small world, which road networks are not).
    let highways = (n / 300).max(1);
    for _ in 0..highways {
        let x = rng.gen_range(0..width);
        let y = rng.gen_range(0..height);
        let dx: i64 = rng.gen_range(-6..=6);
        let dy: i64 = rng.gen_range(-6..=6);
        let bx = (i64::from(x) + dx).clamp(0, i64::from(width) - 1) as u32;
        let by = (i64::from(y) + dy).clamp(0, i64::from(height) - 1) as u32;
        let (a, b) = (idx(x, y), idx(bx, by));
        if a != b {
            add(a, b, rng.gen_range(20..=60), &mut edges, &mut weights);
        }
    }
    Csr::from_weighted_edges(n, &edges, &weights).expect("generator produces valid edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::reference;
    use proptest::prelude::*;

    #[test]
    fn road_network_deterministic() {
        let a = road_network(20, 20, 9);
        let b = road_network(20, 20, 9);
        assert_eq!(a, b);
        let c = road_network(20, 20, 10);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn road_network_has_road_degrees() {
        let g = road_network(16, 16, 42);
        assert_eq!(g.vertex_count(), 256);
        let mean_degree = g.edge_count() as f64 / f64::from(g.vertex_count());
        assert!(mean_degree > 2.0 && mean_degree < 5.0, "{mean_degree}");
    }

    #[test]
    fn road_network_mostly_connected() {
        let g = road_network(40, 40, 3);
        let mut sizes = vec![0usize; g.vertex_count() as usize];
        for label in reference::components(&g) {
            sizes[label as usize] += 1;
        }
        let giant = *sizes.iter().max().unwrap();
        assert!(
            giant as f64 > 0.95 * g.vertex_count() as f64,
            "giant component {giant} of {}",
            g.vertex_count()
        );
    }

    #[test]
    fn road_network_high_diameter() {
        // BFS depth from a corner should scale with grid dimension.
        let g = road_network(50, 50, 1);
        let dist = reference::bfs_levels(&g, 0);
        let max = dist.iter().filter(|&&d| d != u32::MAX).max().unwrap();
        assert!(*max >= 50, "road networks have high diameter, got {max}");
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn road_network_rejects_zero() {
        road_network(0, 5, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated road networks are symmetric with positive weights.
        #[test]
        fn road_network_symmetric(w in 2u32..20, h in 2u32..20, seed in any::<u64>()) {
            let g = road_network(w, h, seed);
            prop_assert_eq!(g.vertex_count(), w * h);
            for v in 0..g.vertex_count() {
                for (u, wt) in g.weighted_neighbors(v) {
                    prop_assert!(wt >= 1);
                    prop_assert!(g.weighted_neighbors(u).any(|(t, tw)| t == v && tw == wt));
                }
            }
        }
    }
}
