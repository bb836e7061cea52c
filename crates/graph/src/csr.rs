//! Compressed-sparse-row graph representation.
//!
//! The paper (§II-A) works on directed graphs; undirected graphs are stored
//! as two directed arcs per edge but remember their undirectedness so that
//! statistics such as Table I's `|E|` and average degree are reported the way
//! the paper reports them.

/// Node identifier. Graphs in the evaluation reach a few hundred thousand
/// nodes, so `u32` keeps adjacency arrays half the size of `usize`.
pub type NodeId = u32;

/// Immutable weighted graph in CSR form, with both out- and in-adjacency.
///
/// Edge weights are the IC-model influence probabilities `w_uv ∈ [0, 1]`
/// (Definition 6). The in-adjacency mirror is required by the message-passing
/// formulation (Eq. 2): node `u` aggregates over its *in*-neighbours with
/// weights `w_vu`.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    directed: bool,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    out_weights: Vec<f64>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    in_weights: Vec<f64>,
}

impl Graph {
    /// Build a graph from its out-CSR, deriving the in-CSR by a counting
    /// sort on the target, so each in-row lists its sources in arc order.
    /// Each out-row must be strictly ascending and free of self-loops (the
    /// layout [`crate::builder::GraphBuilder`] produces); panics if the
    /// arrays are inconsistent.
    pub(crate) fn from_out_csr(
        n: usize,
        directed: bool,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        out_weights: Vec<f64>,
    ) -> Self {
        assert_eq!(out_offsets.len(), n + 1, "out_offsets length");
        // Indexing is in-bounds by the length assert directly above.
        assert_eq!(out_targets.len(), out_offsets[n]);
        assert_eq!(out_targets.len(), out_weights.len());
        let mut in_offsets = vec![0usize; n + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_sources = vec![0 as NodeId; out_targets.len()];
        let mut in_weights = vec![0f64; out_targets.len()];
        for u in 0..n {
            for a in out_offsets[u]..out_offsets[u + 1] {
                let v = out_targets[a] as usize;
                in_sources[cursor[v]] = u as NodeId;
                in_weights[cursor[v]] = out_weights[a];
                cursor[v] += 1;
            }
        }
        Graph {
            n,
            directed,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize, directed: bool) -> Self {
        Graph {
            n,
            directed,
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            out_weights: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_sources: Vec::new(),
            in_weights: Vec::new(),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of stored directed arcs. For an undirected graph this is
    /// `2 * |E|`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_targets.len()
    }

    /// Number of edges as the paper counts them in Table I: arcs for a
    /// directed graph, unordered pairs for an undirected graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.num_arcs()
        } else {
            self.num_arcs() / 2
        }
    }

    /// Whether this graph was constructed as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-neighbours of `v` (targets of arcs leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Weights parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: NodeId) -> &[f64] {
        let v = v as usize;
        &self.out_weights[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbours of `v` (sources of arcs entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Weights parallel to [`Self::in_neighbors`]: `w_vu` for each
    /// in-neighbour `v` of `u`.
    #[inline]
    pub fn in_weights(&self, v: NodeId) -> &[f64] {
        let v = v as usize;
        &self.in_weights[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Total degree as used in Table I statistics: `in + out` arcs touching
    /// `v` for directed graphs, number of incident undirected edges otherwise.
    #[inline]
    pub fn total_degree(&self, v: NodeId) -> usize {
        if self.directed {
            self.in_degree(v) + self.out_degree(v)
        } else {
            self.out_degree(v)
        }
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n as NodeId
    }

    /// Iterate over all stored arcs as `(src, dst, weight)` triples.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            let s = self.out_offsets[u];
            let e = self.out_offsets[u + 1];
            (s..e).map(move |i| (u as NodeId, self.out_targets[i], self.out_weights[i]))
        })
    }

    /// True if the arc `u -> v` exists. `O(out_degree(u))`; neighbour lists
    /// are sorted so a binary search is used.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of the arc `u -> v` if present.
    pub fn arc_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let idx = self.out_neighbors(u).binary_search(&v).ok()?;
        Some(self.out_weights(u)[idx])
    }

    /// Replace every arc weight with `w`. The paper's evaluation fixes
    /// `w_vu = 1` (§V-A); this makes that configuration a one-liner.
    pub fn with_uniform_weights(mut self, w: f64) -> Self {
        assert!((0.0..=1.0).contains(&w), "IC weight must lie in [0, 1]");
        self.out_weights.iter_mut().for_each(|x| *x = w);
        self.in_weights.iter_mut().for_each(|x| *x = w);
        self
    }

    /// Replace every arc weight `w_vu` with `1 / in_degree(u)` — the
    /// "weighted cascade" convention common in the IM literature.
    pub fn with_weighted_cascade(mut self) -> Self {
        // In-adjacency: each arc into u gets 1/in_degree(u).
        for u in 0..self.n {
            let s = self.in_offsets[u];
            let e = self.in_offsets[u + 1];
            let d = (e - s).max(1) as f64;
            for i in s..e {
                self.in_weights[i] = 1.0 / d;
            }
        }
        // Mirror into the out-adjacency.
        let in_deg: Vec<f64> = (0..self.n)
            .map(|u| (self.in_offsets[u + 1] - self.in_offsets[u]).max(1) as f64)
            .collect();
        for i in 0..self.out_targets.len() {
            let dst = self.out_targets[i] as usize;
            self.out_weights[i] = 1.0 / in_deg[dst];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(2, 0, 0.25);
        b.build()
    }

    #[test]
    fn empty_graph_has_no_arcs() {
        let g = Graph::empty(5, true);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.num_edges(), 0);
        for v in g.nodes() {
            assert!(g.out_neighbors(v).is_empty());
            assert!(g.in_neighbors(v).is_empty());
        }
    }

    #[test]
    fn undirected_edge_counts_halve_arcs() {
        let g = triangle();
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_directed());
    }

    #[test]
    fn adjacency_is_symmetric_for_undirected() {
        let g = triangle();
        for (u, v, w) in g.arcs().collect::<Vec<_>>() {
            assert!(g.has_arc(v, u), "missing reverse arc {v}->{u}");
            assert_eq!(g.arc_weight(v, u), Some(w));
        }
    }

    #[test]
    fn in_out_mirror_consistent() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 0.9);
        b.add_edge(0, 2, 0.8);
        b.add_edge(3, 1, 0.7);
        let g = b.build();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.in_neighbors(1), &[0, 3]);
        assert_eq!(g.in_weights(1), &[0.9, 0.7]);
        assert_eq!(g.arc_weight(0, 2), Some(0.8));
        assert_eq!(g.arc_weight(2, 0), None);
    }

    #[test]
    fn uniform_weights_overwrite_all_arcs() {
        let g = triangle().with_uniform_weights(1.0);
        for (_, _, w) in g.arcs() {
            assert_eq!(w, 1.0);
        }
        for v in g.nodes() {
            for w in g.in_weights(v) {
                assert_eq!(*w, 1.0);
            }
        }
    }

    #[test]
    fn weighted_cascade_rows_sum_to_one() {
        let g = triangle().with_weighted_cascade();
        for v in g.nodes() {
            let s: f64 = g.in_weights(v).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "in-weights of {v} sum to {s}");
        }
        // out mirror agrees with in mirror
        for (u, v, w) in g.arcs().collect::<Vec<_>>() {
            let idx = g.in_neighbors(v).iter().position(|&x| x == u).unwrap();
            assert!((g.in_weights(v)[idx] - w).abs() < 1e-12);
        }
    }

    #[test]
    fn total_degree_directed_vs_undirected() {
        let und = triangle();
        assert_eq!(und.total_degree(0), 2);
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 0, 1.0);
        let dir = b.build();
        assert_eq!(dir.total_degree(0), 2); // one in, one out
    }

    #[test]
    #[should_panic(expected = "IC weight")]
    fn uniform_weight_out_of_range_panics() {
        let _ = triangle().with_uniform_weights(1.5);
    }
}

/// Return a copy of `g` with node ids relabelled by the permutation
/// `perm` (`perm[old] = new`). Used by the dataset builders to destroy the
/// id ↔ age correlation of growth-model generators (in Barabási–Albert
/// graphs low ids are hubs, which would let index-based tie-breaking pick
/// good seeds by accident).
pub fn relabel(g: &Graph, perm: &[NodeId]) -> Graph {
    assert_eq!(perm.len(), g.num_nodes(), "permutation length mismatch");
    let mut b = if g.is_directed() {
        crate::builder::GraphBuilder::new_directed(g.num_nodes())
    } else {
        // arcs are already symmetric; adding each once as directed keeps
        // the arc set identical, but we must preserve the undirected flag
        // for |E| statistics — use the undirected builder with one arc per
        // unordered pair.
        crate::builder::GraphBuilder::new_undirected(g.num_nodes())
    };
    for (u, v, w) in g.arcs() {
        if !g.is_directed() && u > v {
            continue;
        }
        b.add_edge(perm[u as usize], perm[v as usize], w);
    }
    b.build()
}

/// Relabel with a uniformly random permutation.
pub fn relabel_shuffled(g: &Graph, rng: &mut impl privim_rt::Rng) -> Graph {
    use privim_rt::SliceRandom;
    let mut perm: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    perm.shuffle(rng);
    relabel(g, &perm)
}

#[cfg(test)]
mod relabel_tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use privim_rt::SeedableRng;

    #[test]
    fn relabel_preserves_structure() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.25);
        b.add_edge(3, 0, 1.0);
        let g = b.build();
        let perm = vec![2u32, 0, 3, 1];
        let r = relabel(&g, &perm);
        assert_eq!(r.num_arcs(), 3);
        assert_eq!(r.arc_weight(2, 0), Some(0.5));
        assert_eq!(r.arc_weight(0, 3), Some(0.25));
        assert_eq!(r.arc_weight(1, 2), Some(1.0));
    }

    #[test]
    fn shuffle_preserves_degree_multiset() {
        let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(5);
        let g = crate::generators::barabasi_albert(200, 3, &mut rng);
        let r = relabel_shuffled(&g, &mut rng);
        let mut d1: Vec<usize> = g.nodes().map(|v| g.out_degree(v)).collect();
        let mut d2: Vec<usize> = r.nodes().map(|v| r.out_degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        assert_eq!(g.num_edges(), r.num_edges());
        assert_eq!(g.is_directed(), r.is_directed());
    }

    #[test]
    fn shuffle_breaks_id_degree_correlation() {
        // In raw BA graphs the oldest (lowest-id) nodes are hubs; after a
        // shuffle the first 10% of ids must no longer dominate.
        let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(6);
        let g = crate::generators::barabasi_albert(1000, 4, &mut rng);
        let r = relabel_shuffled(&g, &mut rng);
        let head_degree = |gr: &Graph| -> usize { (0..100u32).map(|v| gr.out_degree(v)).sum() };
        assert!(
            head_degree(&r) < head_degree(&g) / 2,
            "shuffle left hubs at low ids: {} vs {}",
            head_degree(&r),
            head_degree(&g)
        );
    }
}
