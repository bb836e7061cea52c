//! Classic graph algorithms used throughout the pipeline: r-hop
//! neighbourhoods (the `N_r(v0)` constraint of Algorithm 1), connected
//! components, clustering coefficients and degree statistics.

use crate::csr::{Graph, NodeId};
use std::collections::VecDeque;

/// The set `N_r(v0)` of Algorithm 1: every node within `r` hops of `v0`
/// (following out-arcs), *including* `v0` itself. Returned as a sorted list.
///
/// The random walk of Algorithm 1 is constrained to
/// `N(v_cur) ∩ N_r(v0)`, which keeps each subgraph local and bounds
/// inter-node dependencies.
pub fn r_hop_neighborhood(g: &Graph, v0: NodeId, r: usize) -> Vec<NodeId> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut q = VecDeque::new();
    let mut out = vec![v0];
    dist[v0 as usize] = 0;
    q.push_back(v0);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        if du == r {
            continue;
        }
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = du + 1;
                out.push(v);
                q.push_back(v);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Membership bitmap variant of [`r_hop_neighborhood`] for `O(1)` lookups
/// during the random walk.
pub fn r_hop_bitmap(g: &Graph, v0: NodeId, r: usize) -> Vec<bool> {
    let mut in_set = vec![false; g.num_nodes()];
    for v in r_hop_neighborhood(g, v0, r) {
        in_set[v as usize] = true;
    }
    in_set
}

/// Weakly connected components (direction ignored). Returns a component id
/// per node and the number of components.
pub fn weakly_connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = next;
        stack.push(s as NodeId);
        while let Some(u) = stack.pop() {
            for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Local clustering coefficient of `v`, treating the graph as undirected.
/// Used by the generator-calibration tests: collaboration networks (HepPh)
/// should cluster far more than preferential-attachment networks.
pub fn local_clustering(g: &Graph, v: NodeId) -> f64 {
    // Undirected neighbourhood = union of in and out neighbours.
    let mut nbrs: Vec<NodeId> = g
        .out_neighbors(v)
        .iter()
        .chain(g.in_neighbors(v))
        .copied()
        .collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if g.has_arc(a, b) || g.has_arc(b, a) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Average local clustering coefficient over a uniform sample of
/// `sample_size` nodes (exact when `sample_size >= |V|`).
pub fn avg_clustering_sampled(g: &Graph, sample_size: usize, rng: &mut impl privim_rt::Rng) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    if sample_size >= n {
        let s: f64 = (0..n as NodeId).map(|v| local_clustering(g, v)).sum();
        return s / n as f64;
    }
    let mut s = 0.0;
    for _ in 0..sample_size {
        let v = rng.gen_range(0..n) as NodeId;
        s += local_clustering(g, v);
    }
    s / sample_size as f64
}

/// Degree statistics matching the reporting convention of Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Mean degree as Table I reports it: `|E|/|V|` for directed graphs and
    /// `2|E|/|V|` for undirected graphs — in both cases `arcs / |V|`.
    pub mean_total: f64,
    /// Maximum in-degree — the quantity the θ-projection bounds.
    pub max_in: usize,
    /// Maximum out-degree.
    pub max_out: usize,
    /// Number of isolated nodes (total degree zero).
    pub isolated: usize,
}

/// Compute [`DegreeStats`] for `g`.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_nodes();
    let mut max_in = 0;
    let mut max_out = 0;
    let mut isolated = 0;
    for v in g.nodes() {
        let di = g.in_degree(v);
        let do_ = g.out_degree(v);
        max_in = max_in.max(di);
        max_out = max_out.max(do_);
        if di + do_ == 0 {
            isolated += 1;
        }
    }
    DegreeStats {
        mean_total: if n == 0 {
            0.0
        } else {
            g.num_arcs() as f64 / n as f64
        },
        max_in,
        max_out,
        isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// 0 -> 1 -> 2 -> 3, plus 0 -> 2 shortcut.
    fn path_with_shortcut() -> Graph {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(0, 2, 1.0);
        b.build()
    }

    #[test]
    fn r_hop_includes_origin_and_respects_radius() {
        let g = path_with_shortcut();
        assert_eq!(r_hop_neighborhood(&g, 0, 0), vec![0]);
        assert_eq!(r_hop_neighborhood(&g, 0, 1), vec![0, 1, 2]);
        assert_eq!(r_hop_neighborhood(&g, 0, 2), vec![0, 1, 2, 3]);
        let bm = r_hop_bitmap(&g, 0, 1);
        assert_eq!(bm, vec![true, true, true, false]);
    }

    #[test]
    fn components_ignore_direction() {
        let mut b = GraphBuilder::new_directed(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 1, 1.0); // 0,1,2 weakly connected
        b.add_edge(3, 4, 1.0); // separate pair
        let g = b.build();
        let (comp, k) = weakly_connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn triangle_clusters_fully() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build();
        for v in g.nodes() {
            assert!((local_clustering(&g, v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn star_has_zero_clustering() {
        let mut b = GraphBuilder::new_undirected(5);
        for v in 1..5 {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build();
        assert_eq!(local_clustering(&g, 0), 0.0);
        assert_eq!(local_clustering(&g, 1), 0.0); // degree 1
    }

    #[test]
    fn degree_stats_table1_convention() {
        let g = path_with_shortcut();
        let s = degree_stats(&g);
        // 4 arcs, directed: Table I convention |E|/|V| = 4/4.
        assert!((s.mean_total - 1.0).abs() < 1e-12);
        assert_eq!(s.max_in, 2); // node 2
        assert_eq!(s.max_out, 2); // node 0
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn isolated_nodes_counted() {
        let g = Graph::empty(3, false);
        assert_eq!(degree_stats(&g).isolated, 3);
    }
}
