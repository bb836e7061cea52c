//! Mutable edge-list builder that produces an immutable CSR [`Graph`].

use crate::csr::{Graph, NodeId};

/// Accumulates edges and finalises them into CSR form.
///
/// Duplicate arcs are collapsed (keeping the first weight seen) and
/// self-loops are dropped — the IC model has no use for either, and the
/// sampler proofs (Lemma 1) assume simple graphs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// Builder for a directed graph on `n` nodes.
    pub fn new_directed(n: usize) -> Self {
        Self::new(n, true)
    }

    /// Builder for an undirected graph on `n` nodes. Each added edge is
    /// materialised as two arcs at build time.
    pub fn new_undirected(n: usize) -> Self {
        Self::new(n, false)
    }

    fn new(n: usize, directed: bool) -> Self {
        assert!(n <= NodeId::MAX as usize, "too many nodes for u32 ids");
        GraphBuilder {
            n,
            directed,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Add an edge `u -> v` (or `u — v` for undirected builders) with IC
    /// weight `w`. Panics on out-of-range endpoints or weights.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!((u as usize) < self.n, "source {u} out of range");
        assert!((v as usize) < self.n, "target {v} out of range");
        assert!((0.0..=1.0).contains(&w), "IC weight must lie in [0, 1]");
        self.edges.push((u, v, w));
    }

    /// Add an edge with the default weight 1.0 (the paper's evaluation
    /// setting).
    pub fn add_edge_unit(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v, 1.0);
    }

    /// Finalise into an immutable CSR graph. `O(|E| log |E|)`.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, directed, edges } = self;

        // Materialise arcs as one integer each, (src, dst, edge index)
        // from the high bits down: undirected edges become two arcs,
        // self-loops are dropped. Each buffer is freed as soon as the
        // next one is built, so the peak stays at the arcs plus two
        // per-arc outputs.
        let weights: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        let arc =
            |u: NodeId, v: NodeId, i: usize| (u as u128) << 96 | (v as u128) << 64 | i as u128;
        let mut arcs: Vec<u128> = Vec::with_capacity(edges.len() * if directed { 1 } else { 2 });
        for (i, &(u, v, _)) in edges.iter().enumerate().filter(|(_, e)| e.0 != e.1) {
            arcs.push(arc(u, v, i));
            if !directed {
                arcs.push(arc(v, u, i));
            }
        }
        drop(edges);

        // Sort, then dedup by (src, dst): the edge index breaks ties, so
        // each arc keeps the first weight added.
        arcs.sort_unstable();
        arcs.dedup_by_key(|a| *a >> 64);
        let out_weights: Vec<f64> = arcs.iter().map(|&a| weights[a as u64 as usize]).collect();
        drop(weights);

        // Out-CSR.
        let mut out_offsets = vec![0usize; n + 1];
        for &a in &arcs {
            out_offsets[(a >> 96) as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<NodeId> = arcs.iter().map(|&a| (a >> 64) as NodeId).collect();
        Graph::from_out_csr(n, directed, out_offsets, out_targets, out_weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_arcs_are_collapsed() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 0.9);
        b.add_edge(0, 1, 0.1);
        b.add_edge(0, 2, 0.5);
        let g = b.build();
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.arc_weight(0, 1), Some(0.9), "first weight wins");
    }

    #[test]
    fn first_weight_wins_for_every_duplicate() {
        // Enough equal keys that an unstable sort would reorder some.
        let mut b = GraphBuilder::new_directed(201);
        for w in [0.25, 0.75] {
            for v in 1..=200 {
                b.add_edge(0, v, w);
            }
        }
        let g = b.build();
        assert_eq!(g.num_arcs(), 200);
        for v in 1..=200 {
            assert_eq!(g.arc_weight(0, v), Some(0.25), "arc 0 -> {v}");
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_arcs(), 1);
        assert!(!g.has_arc(0, 0));
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::new_directed(5);
        for v in [4u32, 1, 3, 2] {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn undirected_duplicate_including_reverse_is_single_edge() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new_undirected(10).build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 0);
    }
}
