//! Serial references the graph workloads verify their results against.

use super::csr::Csr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Serial BFS levels from `src`; unreachable vertices get `u32::MAX`.
///
/// # Panics
///
/// Panics if `src` is out of range on a non-empty graph.
pub(crate) fn bfs_levels(g: &Csr, src: u32) -> Vec<u32> {
    let n = g.vertex_count() as usize;
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    assert!((src as usize) < n, "source out of range");
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Serial Dijkstra shortest-path distances from `src`; unreachable vertices
/// get `u64::MAX`.
///
/// # Panics
///
/// Panics if `src` is out of range on a non-empty graph.
pub(crate) fn dijkstra(g: &Csr, src: u32) -> Vec<u64> {
    let n = g.vertex_count() as usize;
    let mut dist = vec![u64::MAX; n];
    if n == 0 {
        return dist;
    }
    assert!((src as usize) < n, "source out of range");
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in g.weighted_neighbors(v) {
            let nd = d + u64::from(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Serial connected components by repeated BFS: returns per-vertex component
/// label, where each label is the smallest vertex id in the component.
pub(crate) fn components(g: &Csr) -> Vec<u32> {
    let n = g.vertex_count() as usize;
    let mut label = vec![u32::MAX; n];
    for start in 0..n as u32 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        let mut stack = vec![start];
        label[start as usize] = start;
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = start;
                    stack.push(u);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::gen;

    #[test]
    fn bfs_on_star() {
        let spokes: Vec<(u32, u32)> = (1..6).flat_map(|v| [(0, v), (v, 0)]).collect();
        let g = Csr::from_edges(6, &spokes).unwrap();
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 1, 1, 1, 1]);
        let from_leaf = bfs_levels(&g, 3);
        assert_eq!(from_leaf[0], 1);
        assert_eq!(from_leaf[3], 0);
        assert_eq!(from_leaf[1], 2);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        let d = bfs_levels(&g, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn bfs_empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        assert!(bfs_levels(&g, 0).is_empty());
    }

    #[test]
    fn dijkstra_prefers_cheap_path() {
        // 0 -> 1 -> 2 total 2, direct 0 -> 2 costs 10.
        let g = Csr::from_weighted_edges(3, &[(0, 1), (1, 2), (0, 2)], &[1, 1, 10]).unwrap();
        assert_eq!(dijkstra(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = gen::road_network(12, 12, 11);
        let unit = Csr::from_edges(
            g.vertex_count(),
            &(0..g.vertex_count())
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let b = bfs_levels(&unit, 0);
        let d = dijkstra(&unit, 0);
        for (bd, dd) in b.iter().zip(&d) {
            if *bd == u32::MAX {
                assert_eq!(*dd, u64::MAX);
            } else {
                assert_eq!(u64::from(*bd), *dd);
            }
        }
    }

    #[test]
    fn components_on_disjoint_paths() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 0), (3, 4), (4, 3), (4, 5), (5, 4)]).unwrap();
        let labels = components(&g);
        assert_eq!(labels, vec![0, 0, 2, 3, 3, 3]);
    }
}
