//! Container builders for the non-PrivIM learning baselines (§V-A).
//!
//! - **EGN** (Karalias & Loukas): the foundational unsupervised GNN solver
//!   for combinatorial problems. Its training samples subgraphs *uniformly
//!   at random* with no occurrence control, so a single node can appear in
//!   every subgraph — under node-level DP its occurrence bound is the
//!   container size itself, which forces overwhelming noise (the paper's
//!   explanation for EGN's last-place utility).
//! - **HP** (Xiang et al., S&P'24): HeterPoisson — node-level samples
//!   (one ego neighbourhood per node over an in-degree-capped graph) with
//!   Symmetric Multivariate Laplace noise. DP-SGD draws B of them per
//!   step, as it does for every method (HeterPoisson itself draws Poisson
//!   batches).
//!   Designed for node-level tasks: each sample sees only a single node's
//!   capped neighbourhood, which is exactly the structural deficiency the
//!   paper exploits ("focus solely on single node for each subgraph").
//!   See DESIGN.md for the fidelity notes.

use privim_graph::{projection::theta_projection, Graph, NodeId};
use privim_rt::Rng;
use privim_sampling::SubgraphContainer;

/// EGN-style container: `count` subgraphs, each `size` uniform random
/// nodes (no locality, no occurrence control).
pub fn egn_container(
    g: &Graph,
    count: usize,
    size: usize,
    rng: &mut impl Rng,
) -> SubgraphContainer {
    assert!(size >= 2 && size <= g.num_nodes(), "bad subgraph size");
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        let mut set: Vec<NodeId> = Vec::with_capacity(size);
        while set.len() < size {
            let v = rng.gen_range(0..g.num_nodes()) as NodeId;
            if !set.contains(&v) {
                set.push(v);
            }
        }
        sets.push(set);
    }
    SubgraphContainer::from_node_sets(g, &sets)
}

/// HP-style container: per-node ego subgraphs over the θ-capped graph.
///
/// HeterPoisson is a node-level method: each "sample" is one node together
/// with its (degree-capped) in-neighbourhood; DP-SGD draws B such samples
/// per step, as for every method. This is the paper's characterisation of
/// HP applied to IM: "focus solely on single node for each subgraph",
/// which is exactly why it loses multi-hop structure. The per-node
/// occurrence across ego sets is capped at `theta + 1` (own ego plus at
/// most θ neighbours' egos), enforced by construction — that cap is the
/// sensitivity unit the SML noise is calibrated to.
pub fn hp_container(g: &Graph, theta: usize, rng: &mut impl Rng) -> (Graph, SubgraphContainer) {
    assert!(g.num_nodes() >= 2);
    let capped = theta_projection(g, theta, rng);
    let cap = theta as u32 + 1;
    let mut occ = vec![0u32; g.num_nodes()];
    let mut sets: Vec<Vec<NodeId>> = Vec::with_capacity(g.num_nodes());
    for v in capped.nodes() {
        let mut set: Vec<NodeId> = Vec::with_capacity(theta + 1);
        if occ[v as usize] < cap {
            set.push(v);
        }
        for &u in capped.in_neighbors(v) {
            if occ[u as usize] < cap {
                set.push(u);
            }
        }
        if set.len() >= 2 {
            for &u in &set {
                occ[u as usize] += 1;
            }
            sets.push(set);
        }
    }
    let container = SubgraphContainer::from_node_sets(&capped, &sets);
    (capped, container)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::generators;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    #[test]
    fn egn_sets_have_exact_size_and_no_duplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let c = egn_container(&g, 30, 15, &mut rng);
        assert_eq!(c.len(), 30);
        for s in &c.subgraphs {
            assert_eq!(s.len(), 15);
        }
    }

    #[test]
    fn egn_occurrences_are_uncontrolled() {
        // with many subgraphs over a small graph, some node must repeat far
        // beyond any small threshold — the failure mode the paper cites.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::barabasi_albert(50, 3, &mut rng);
        let c = egn_container(&g, 100, 25, &mut rng);
        assert!(c.max_occurrence() > 20, "max {}", c.max_occurrence());
    }

    #[test]
    fn hp_egos_respect_occurrence_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::barabasi_albert(300, 5, &mut rng);
        let theta = 6;
        let (capped, c) = hp_container(&g, theta, &mut rng);
        assert!(privim_graph::projection::is_theta_bounded(&capped, theta));
        assert!(!c.is_empty());
        assert!(
            c.max_occurrence() <= theta as u32 + 1,
            "max occurrence {}",
            c.max_occurrence()
        );
    }

    #[test]
    fn hp_egos_are_local_stars() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::barabasi_albert(200, 4, &mut rng);
        let theta = 5;
        let (_, c) = hp_container(&g, theta, &mut rng);
        for s in &c.subgraphs {
            assert!(s.len() <= theta + 1, "ego too big: {}", s.len());
            assert!(s.len() >= 2);
        }
    }
}
