//! CELF — Cost-Effective Lazy Forward greedy (Leskovec et al., KDD'07).
//!
//! The paper's ground truth (§V-A): greedy seed selection with lazy
//! marginal-gain re-evaluation, exploiting submodularity for a `(1 − 1/e)`
//! approximation guarantee, under the evaluation setting's deterministic
//! one-step coverage oracle (`w = 1, j = 1`) — exact gains, no sampling
//! error. One lazy-greedy loop, [`LazyGreedy`], serves both the one-shot
//! [`celf_exact`] and the resumable top-`k` queries of a server.

use crate::spread::{one_step_cover, one_step_marginal_gain};
use privim_graph::{Graph, NodeId};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Outcome of a CELF run.
#[derive(Clone, Debug)]
pub struct CelfResult {
    /// Selected seeds in pick order.
    pub seeds: Vec<NodeId>,
    /// Influence spread of the full seed set (same oracle as selection).
    pub spread: f64,
    /// Number of oracle (gain) evaluations — CELF's efficiency metric.
    pub evaluations: usize,
}

#[derive(PartialEq)]
struct HeapEntry {
    gain: f64,
    node: NodeId,
    round: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// CELF under the exact one-step coverage oracle (`w = 1, j = 1`):
/// a fresh [`LazyGreedy`] extended to `k` seeds.
/// `O(|V| log |V|)`-ish in practice thanks to lazy evaluation.
pub fn celf_exact(g: &Graph, k: usize) -> CelfResult {
    let mut greedy = LazyGreedy::new(g);
    let seeds = greedy.extend_to(k).to_vec();
    CelfResult {
        spread: greedy.prefix_spread(seeds.len()),
        seeds,
        evaluations: greedy.evaluations(),
    }
}

/// Resumable CELF under the exact one-step coverage oracle.
///
/// Greedy is *prefix-stable*: with an identical tie-break rule, the first
/// `k` seeds of a `k'`-seed run (`k' > k`) are exactly the `k`-seed run.
/// [`LazyGreedy`] exploits that to serve top-`k` queries from a cache —
/// compute once, answer any `k ≤ computed` for free, and
/// [`extend_to`](Self::extend_to) lazily when a larger `k` arrives, reusing
/// the heap and coverage state instead of starting over.
///
/// Generic over how it holds the graph: a server passes an
/// [`Arc`] (the default) to share one graph across worker threads and
/// cache entries without cloning CSR arrays; [`celf_exact`] borrows it.
pub struct LazyGreedy<G: Borrow<Graph> = Arc<Graph>> {
    g: G,
    covered: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    seeds: Vec<NodeId>,
    /// Marginal coverage of each pick, so the spread of *any* prefix is a
    /// prefix sum — no re-simulation per query.
    gains: Vec<usize>,
    evaluations: usize,
    round: usize,
}

impl<G: Borrow<Graph>> LazyGreedy<G> {
    /// Initialise the lazy-greedy state (one oracle call per node). No
    /// seeds are picked yet.
    pub fn new(g: G) -> LazyGreedy<G> {
        let graph = g.borrow();
        let n = graph.num_nodes();
        let covered = vec![false; n];
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n);
        for v in graph.nodes() {
            heap.push(HeapEntry {
                gain: one_step_marginal_gain(graph, &covered, v) as f64,
                node: v,
                round: 0,
            });
        }
        LazyGreedy {
            g,
            covered,
            heap,
            seeds: Vec::new(),
            gains: Vec::new(),
            evaluations: n,
            round: 1,
        }
    }

    /// Ensure at least `k` seeds are selected (clamped to `|V|`) and return
    /// the first `k` in pick order. Already-selected prefixes are returned
    /// without any oracle calls.
    pub fn extend_to(&mut self, k: usize) -> &[NodeId] {
        let g = self.g.borrow();
        let k = k.min(g.num_nodes());
        while self.seeds.len() < k {
            let Some(top) = self.heap.pop() else { break };
            if top.round == self.round {
                // gain is current for this round: pick it
                let gained = one_step_cover(g, &mut self.covered, top.node);
                self.seeds.push(top.node);
                self.gains.push(gained);
                self.round += 1;
            } else {
                // stale: re-evaluate lazily and push back
                self.evaluations += 1;
                self.heap.push(HeapEntry {
                    gain: one_step_marginal_gain(g, &self.covered, top.node) as f64,
                    node: top.node,
                    round: self.round,
                });
            }
        }
        &self.seeds[..k.min(self.seeds.len())]
    }

    /// Influence spread of the first `k` selected seeds. `k` must not
    /// exceed [`computed`](Self::computed); call
    /// [`extend_to`](Self::extend_to) first.
    pub fn prefix_spread(&self, k: usize) -> f64 {
        self.gains[..k.min(self.gains.len())].iter().sum::<usize>() as f64
    }

    /// How many seeds have been selected so far.
    pub fn computed(&self) -> usize {
        self.seeds.len()
    }

    /// Total oracle (gain) evaluations across all extensions.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::one_step_spread;
    use privim_graph::{generators, GraphBuilder};
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;
    use std::cmp::Reverse;

    /// Two stars: hub 0 -> 1..=4 and hub 5 -> 6..=7, isolated 8.
    fn two_stars() -> Graph {
        let mut b = GraphBuilder::new_directed(9);
        for v in 1..=4 {
            b.add_edge(0, v, 1.0);
        }
        b.add_edge(5, 6, 1.0);
        b.add_edge(5, 7, 1.0);
        b.build()
    }

    #[test]
    fn picks_hubs_in_gain_order() {
        let g = two_stars();
        let r = celf_exact(&g, 2);
        assert_eq!(r.seeds, vec![0, 5]);
        assert_eq!(r.spread, 8.0);
    }

    #[test]
    fn k_larger_than_v_is_clamped() {
        let g = two_stars();
        let r = celf_exact(&g, 100);
        assert_eq!(r.seeds.len(), 9);
        assert_eq!(r.spread, 9.0);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_graph() {
        // CELF (lazy greedy) must equal plain greedy; on this 9-node graph
        // greedy with k=2 is optimal, verify against brute force.
        let g = two_stars();
        let r = celf_exact(&g, 2);
        let mut best = 0usize;
        for a in 0..9u32 {
            for b in (a + 1)..9u32 {
                best = best.max(one_step_spread(&g, &[a, b]));
            }
        }
        assert_eq!(r.spread as usize, best);
    }

    #[test]
    fn lazy_evaluation_saves_oracle_calls() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::barabasi_albert(500, 4, &mut rng).with_uniform_weights(1.0);
        let k = 20;
        let r = celf_exact(&g, k);
        // plain greedy would cost |V| * k evaluations
        assert!(
            r.evaluations < 500 * k / 2,
            "evaluations {} not lazy",
            r.evaluations
        );
        assert_eq!(r.seeds.len(), k);
    }

    #[test]
    fn celf_spread_dominates_random_seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::barabasi_albert(300, 3, &mut rng).with_uniform_weights(1.0);
        let r = celf_exact(&g, 10);
        let random: Vec<NodeId> = (100..110).collect();
        assert!(r.spread as usize >= one_step_spread(&g, &random));
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = Graph::empty(0, true);
        let r = celf_exact(&g, 5);
        assert!(r.seeds.is_empty());
        assert_eq!(r.spread, 0.0);
    }

    /// Plain (non-lazy) greedy: every round re-evaluates every unpicked
    /// node and takes the largest marginal gain, ties to the lower id.
    fn plain_greedy(g: &Graph, k: usize) -> (Vec<NodeId>, usize) {
        let mut covered = vec![false; g.num_nodes()];
        let (mut seeds, mut spread) = (Vec::new(), 0);
        for _ in 0..k.min(g.num_nodes()) {
            let best = g
                .nodes()
                .filter(|v| !seeds.contains(v))
                .max_by_key(|&v| (one_step_marginal_gain(g, &covered, v), Reverse(v)))
                .unwrap();
            spread += one_step_cover(g, &mut covered, best);
            seeds.push(best);
        }
        (seeds, spread)
    }

    #[test]
    fn celf_exact_matches_plain_greedy() {
        // k = 120 = |V| runs through the zero-gain rounds, where only the
        // tie-break orders the picks.
        for seed in 0..15 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let ba = generators::barabasi_albert(120, 2, &mut rng);
            let er = generators::erdos_renyi(120, 300, true, &mut rng);
            for g in [ba, er] {
                let mut resumed = LazyGreedy::new(&g);
                for k in [1, 3, 10, 40, 120] {
                    let (seeds, spread) = plain_greedy(&g, k);
                    let r = celf_exact(&g, k);
                    assert_eq!(r.seeds, seeds, "seed {seed} k={k}");
                    assert_eq!(r.spread, spread as f64, "seed {seed} k={k}");
                    assert_eq!(resumed.extend_to(k), &seeds[..], "seed {seed} k={k}");
                    assert_eq!(resumed.prefix_spread(k), r.spread, "seed {seed} k={k}");
                }
            }
        }
    }

    #[test]
    fn resuming_is_cheaper_than_restarting() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::barabasi_albert(300, 3, &mut rng).with_uniform_weights(1.0);
        let mut lazy = LazyGreedy::new(Arc::new(g.clone()));
        lazy.extend_to(5);
        let evals_at_5 = lazy.evaluations();
        // Answering k<=5 again touches no oracle.
        lazy.extend_to(3);
        assert_eq!(lazy.evaluations(), evals_at_5);
        // Extending to 20 reuses state: total work equals one straight run.
        lazy.extend_to(20);
        let straight = celf_exact(&g, 20);
        assert_eq!(lazy.evaluations(), straight.evaluations);
        assert_eq!(lazy.extend_to(20), &straight.seeds[..]);
    }

    #[test]
    fn lazy_greedy_clamps_and_handles_empty() {
        let mut lazy = LazyGreedy::new(Arc::new(two_stars()));
        assert_eq!(lazy.extend_to(100).len(), 9);
        assert_eq!(lazy.prefix_spread(100), 9.0);
        let mut empty = LazyGreedy::new(Arc::new(Graph::empty(0, true)));
        assert!(empty.extend_to(5).is_empty());
        assert_eq!(empty.computed(), 0);
    }

    #[test]
    fn prop_greedy_beats_random_k_subsets() {
        // Deterministic property test: 10 seeds sampled from [0, 500).
        use privim_rt::Rng;
        let mut meta = ChaCha8Rng::seed_from_u64(0xCE1F);
        for _ in 0..10 {
            let seed = meta.gen_range(0u64..500);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::barabasi_albert(80, 2, &mut rng).with_uniform_weights(1.0);
            let k = 5;
            let r = celf_exact(&g, k);
            // any random k-subset must not beat greedy by more than the
            // (1 - 1/e) guarantee allows — in particular greedy must reach
            // at least 63% of any other set's spread.
            use privim_rt::SliceRandom;
            let mut nodes: Vec<NodeId> = g.nodes().collect();
            nodes.shuffle(&mut rng);
            let rand_spread = one_step_spread(&g, &nodes[..k]);
            assert!(r.spread >= 0.63 * rand_spread as f64, "case seed {seed}");
        }
    }
}
