//! Induced subgraph extraction with node-id mapping.
//!
//! Both samplers (Algorithms 1 and 3) collect a node set `V_sub` and then
//! "extract `G_sub` from `G` with nodes in `V_sub`" — i.e. the induced
//! subgraph. Training needs to map model outputs back to original node ids,
//! so the mapping is kept alongside the graph.

use crate::csr::{Graph, NodeId};

/// An induced subgraph plus the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced graph, with nodes relabelled `0..k`.
    pub graph: Graph,
    /// `original[i]` is the parent-graph id of local node `i`. Sorted
    /// ascending, which makes `local id -> original id` a binary search.
    pub original: Vec<NodeId>,
}

impl Subgraph {
    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True if the subgraph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }

    /// Local id of an original node, if present.
    pub fn local_id(&self, original: NodeId) -> Option<NodeId> {
        self.original
            .binary_search(&original)
            .ok()
            .map(|i| i as NodeId)
    }

    /// Original id of a local node.
    pub fn original_id(&self, local: NodeId) -> NodeId {
        self.original[local as usize]
    }
}

/// Extract the subgraph of `g` induced by `nodes` (duplicates tolerated,
/// order irrelevant). `O(Σ deg(v) log k)` where `k = |nodes|`.
///
/// The CSR is built straight from the parent's rows, which are already
/// ascending, deduplicated and free of self-loops; relabelling by rank in
/// the sorted `original` keeps them so. Every arc `u → v` keeps its own
/// weight `w_uv`, also on undirected parents whose two arcs of one edge
/// differ (weighted cascade). The subgraph inherits the parent's
/// directedness, so |E| statistics stay comparable with the parent.
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Subgraph {
    let mut original: Vec<NodeId> = nodes.to_vec();
    original.sort_unstable();
    original.dedup();

    let k = original.len();
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0);
    let (mut targets, mut weights) = (Vec::new(), Vec::new());
    for &u in &original {
        let ws = g.out_weights(u);
        for (ei, &v) in g.out_neighbors(u).iter().enumerate() {
            if let Ok(lv) = original.binary_search(&v) {
                targets.push(lv as NodeId);
                weights.push(ws[ei]);
            }
        }
        offsets.push(targets.len());
    }
    // Samplers keep thousands of these alive: drop the growth slack.
    targets.shrink_to_fit();
    weights.shrink_to_fit();
    Subgraph {
        graph: Graph::from_out_csr(k, g.is_directed(), offsets, targets, weights),
        original,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};
    use privim_rt::{ChaCha8Rng, Rng, SeedableRng};

    fn sample_graph() -> Graph {
        // 0 -> 1 -> 2 -> 3 -> 4, 0 -> 3
        let mut b = GraphBuilder::new_directed(5);
        b.add_edge(0, 1, 0.1);
        b.add_edge(1, 2, 0.2);
        b.add_edge(2, 3, 0.3);
        b.add_edge(3, 4, 0.4);
        b.add_edge(0, 3, 0.5);
        b.build()
    }

    #[test]
    fn induced_keeps_only_internal_arcs() {
        let g = sample_graph();
        let s = induced_subgraph(&g, &[0, 1, 3]);
        assert_eq!(s.len(), 3);
        // arcs inside {0,1,3}: 0->1 and 0->3
        assert_eq!(s.graph.num_arcs(), 2);
        let l0 = s.local_id(0).unwrap();
        let l1 = s.local_id(1).unwrap();
        let l3 = s.local_id(3).unwrap();
        assert!(s.graph.has_arc(l0, l1));
        assert!(s.graph.has_arc(l0, l3));
        assert_eq!(s.graph.arc_weight(l0, l3), Some(0.5));
    }

    #[test]
    fn duplicates_and_order_are_normalised() {
        let g = sample_graph();
        let s = induced_subgraph(&g, &[3, 1, 3, 0, 1]);
        assert_eq!(s.original, vec![0, 1, 3]);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = sample_graph();
        let s = induced_subgraph(&g, &[2, 4]);
        for local in 0..s.len() as NodeId {
            let orig = s.original_id(local);
            assert_eq!(s.local_id(orig), Some(local));
        }
        assert_eq!(s.local_id(0), None);
    }

    #[test]
    fn full_node_set_reproduces_graph() {
        let g = sample_graph();
        let all: Vec<NodeId> = g.nodes().collect();
        let s = induced_subgraph(&g, &all);
        assert_eq!(s.graph.num_arcs(), g.num_arcs());
        for (u, v, w) in g.arcs() {
            assert_eq!(s.graph.arc_weight(u, v), Some(w));
        }
    }

    #[test]
    fn undirected_parent_gives_undirected_subgraph() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let s = induced_subgraph(&g, &[0, 1, 2]);
        assert!(!s.graph.is_directed());
        assert_eq!(s.graph.num_edges(), 2);
        assert_eq!(s.graph.num_arcs(), 4);
    }

    /// Every arc `u → v` of `parent` between selected nodes, with its weight,
    /// in local ids and CSR order.
    fn expected_arcs(parent: &Graph, s: &Subgraph) -> Vec<(NodeId, NodeId, f64)> {
        parent
            .arcs()
            .filter_map(|(u, v, w)| Some((s.local_id(u)?, s.local_id(v)?, w)))
            .collect()
    }

    #[test]
    fn every_arc_keeps_its_own_weight_on_an_undirected_parent() {
        // Weighted cascade gives the two arcs of an undirected edge
        // different weights (1/in-degree of each target).
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::barabasi_albert(200, 3, &mut rng).with_weighted_cascade();
        let nodes: Vec<NodeId> = (0..60).map(|_| rng.gen_range(0..200u32)).collect();
        let s = induced_subgraph(&g, &nodes);
        let want = expected_arcs(&g, &s);
        assert!(want
            .iter()
            .any(|&(u, v, w)| g.arc_weight(s.original_id(v), s.original_id(u)) != Some(w)));
        let got: Vec<_> = s.graph.arcs().collect();
        assert_eq!(got, want);
        // The in-CSR mirrors the out-CSR arc for arc.
        for v in s.graph.nodes() {
            for (&u, &w) in s.graph.in_neighbors(v).iter().zip(s.graph.in_weights(v)) {
                assert_eq!(s.graph.arc_weight(u, v), Some(w));
            }
        }
    }

    #[test]
    fn unit_weight_subgraphs_match_the_builder() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for directed in [false, true] {
            let mut b = if directed {
                GraphBuilder::new_directed(120)
            } else {
                GraphBuilder::new_undirected(120)
            };
            for _ in 0..400 {
                b.add_edge_unit(rng.gen_range(0..120u32), rng.gen_range(0..120u32));
            }
            let g = b.build();
            let nodes: Vec<NodeId> = (0..50).map(|_| rng.gen_range(0..120u32)).collect();
            let s = induced_subgraph(&g, &nodes);
            let mut rebuilt = if directed {
                GraphBuilder::new_directed(s.len())
            } else {
                GraphBuilder::new_undirected(s.len())
            };
            for (u, v, w) in expected_arcs(&g, &s) {
                rebuilt.add_edge(u, v, w);
            }
            let rebuilt = rebuilt.build();
            assert_eq!(s.graph.is_directed(), directed);
            assert_eq!(s.graph.num_edges(), rebuilt.num_edges());
            assert_eq!(
                s.graph.arcs().collect::<Vec<_>>(),
                rebuilt.arcs().collect::<Vec<_>>()
            );
            for v in rebuilt.nodes() {
                assert_eq!(s.graph.in_neighbors(v), rebuilt.in_neighbors(v));
                assert_eq!(s.graph.in_weights(v), rebuilt.in_weights(v));
            }
        }
    }

    #[test]
    fn empty_selection_gives_empty_subgraph() {
        let g = sample_graph();
        let s = induced_subgraph(&g, &[]);
        assert!(s.is_empty());
        assert_eq!(s.graph.num_nodes(), 0);
    }
}
