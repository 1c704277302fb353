//! Compressed sparse row graph representation.

use std::error::Error;
use std::fmt;

/// Error building a [`Csr`] graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CsrError {
    /// An edge references a vertex `>= vertex_count`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Number of vertices in the graph.
        count: u32,
    },
    /// The weight slice has the wrong length.
    WeightLengthMismatch {
        /// Number of edges.
        edges: usize,
        /// Number of weights supplied.
        weights: usize,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::VertexOutOfRange { vertex, count } => {
                write!(
                    f,
                    "edge endpoint {vertex} out of range for {count} vertices"
                )
            }
            CsrError::WeightLengthMismatch { edges, weights } => {
                write!(f, "{edges} edges but {weights} weights")
            }
        }
    }
}

impl Error for CsrError {}

/// A directed graph in compressed sparse row form with `u32` edge weights.
///
/// Vertex ids are `u32`. For undirected algorithms add both edge directions
/// (the road-network generator does this).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
}

impl Csr {
    /// Builds a weighted graph; `weights[i]` belongs to `edges[i]`. Edge
    /// order within a source vertex is preserved (stable by input order).
    ///
    /// # Errors
    ///
    /// [`CsrError::WeightLengthMismatch`] if lengths differ, or
    /// [`CsrError::VertexOutOfRange`] if any endpoint is `>= vertex_count`.
    pub(crate) fn from_weighted_edges(
        vertex_count: u32,
        edges: &[(u32, u32)],
        weights: &[u32],
    ) -> Result<Csr, CsrError> {
        if edges.len() != weights.len() {
            return Err(CsrError::WeightLengthMismatch {
                edges: edges.len(),
                weights: weights.len(),
            });
        }
        let n = vertex_count as usize;
        for &(s, t) in edges {
            for v in [s, t] {
                if v >= vertex_count {
                    return Err(CsrError::VertexOutOfRange {
                        vertex: v,
                        count: vertex_count,
                    });
                }
            }
        }
        let mut degree = vec![0usize; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut targets = vec![0u32; edges.len()];
        let mut wout = vec![0u32; edges.len()];
        let mut cursor = offsets[..n].to_vec();
        for (&(s, t), &w) in edges.iter().zip(weights) {
            let pos = cursor[s as usize];
            targets[pos] = t;
            wout[pos] = w;
            cursor[s as usize] += 1;
        }
        Ok(Csr {
            offsets,
            targets,
            weights: wout,
        })
    }

    /// Builds a graph with weight 1 on every edge.
    #[cfg(test)]
    pub(crate) fn from_edges(vertex_count: u32, edges: &[(u32, u32)]) -> Result<Csr, CsrError> {
        Self::from_weighted_edges(vertex_count, edges, &vec![1; edges.len()])
    }

    /// Number of vertices.
    pub(crate) fn vertex_count(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor slice of `v` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= vertex_count()`.
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator of `(neighbor, weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= vertex_count()`.
    pub(crate) fn weighted_neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let vi = v as usize;
        let range = self.offsets[vi]..self.offsets[vi + 1];
        range.map(move |e| (self.targets[e], self.weights[e]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Csr::from_edges(5, &[(0, 4)]).unwrap();
        assert!(g.neighbors(2).is_empty());
        assert_eq!(g.neighbors(0), &[4]);
    }

    #[test]
    fn adjacency_preserves_input_order() {
        let g = Csr::from_edges(4, &[(1, 3), (0, 2), (1, 0), (1, 2)]).unwrap();
        assert_eq!(g.neighbors(1), &[3, 0, 2]);
        assert_eq!(g.neighbors(0), &[2]);
    }

    #[test]
    fn weights_follow_their_edges() {
        let g = Csr::from_weighted_edges(3, &[(2, 0), (0, 1), (2, 1)], &[10, 20, 30]).unwrap();
        let w2: Vec<(u32, u32)> = g.weighted_neighbors(2).collect();
        assert_eq!(w2, vec![(0, 10), (1, 30)]);
    }

    #[test]
    fn unweighted_reports_weight_one() {
        let g = Csr::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(g.weighted_neighbors(0).next(), Some((1, 1)));
    }

    #[test]
    fn out_of_range_source_and_target_rejected() {
        assert_eq!(
            Csr::from_edges(2, &[(2, 0)]),
            Err(CsrError::VertexOutOfRange {
                vertex: 2,
                count: 2
            })
        );
        assert_eq!(
            Csr::from_edges(2, &[(0, 5)]),
            Err(CsrError::VertexOutOfRange {
                vertex: 5,
                count: 2
            })
        );
    }

    #[test]
    fn weight_length_mismatch_rejected() {
        let err = Csr::from_weighted_edges(2, &[(0, 1)], &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            CsrError::WeightLengthMismatch {
                edges: 1,
                weights: 2
            }
        );
        assert!(err.to_string().contains("1 edges"));
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let g = Csr::from_edges(2, &[(0, 0), (0, 1), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
        assert_eq!(g.edge_count(), 3);
    }
}
