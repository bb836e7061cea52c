//! Message-passing operators per graph, each built on first read.
//!
//! [`GraphTensors::new`] builds only what every kind of model reads: the
//! attention arcs with their in-slot grouping, and a copy of the in-arc
//! weights. Each sparse operator is built from those the first time it is
//! read, so a GRAT model, which aggregates through the arcs alone, never
//! builds one, and a trainer that needs the loss operator builds it once
//! per subgraph, before the first step.

use privim_graph::Graph;
use privim_tensor::attention::Arcs;
use privim_tensor::SparseMatrix;
use std::sync::{Arc, OnceLock};

/// The sparse operators and attention arcs a [`crate::GnnModel`] forward
/// pass or a loss can need, derived from one graph.
pub struct GraphTensors {
    /// Node count.
    pub n: usize,
    /// Attention arcs: every arc `v → u` of the graph in `(v, u)` order,
    /// then one self-loop per node (standard GAT practice so isolated
    /// nodes keep a message). So target `u`'s in-slots are its graph
    /// in-row, sources ascending, then the self-loop.
    arcs: Arc<Arcs>,
    /// `w_vu` of every in-arc `v → u`, in in-slot order without the
    /// self-loops: the IC weights of the operators.
    in_weights: Vec<f64>,
    adj_ic: OnceLock<Arc<SparseMatrix>>,
    adj_loss: OnceLock<Arc<SparseMatrix>>,
    adj_gcn: OnceLock<Arc<SparseMatrix>>,
    adj_mean: OnceLock<Arc<SparseMatrix>>,
    adj_sum: OnceLock<Arc<SparseMatrix>>,
}

impl GraphTensors {
    /// The arcs and in-weights of `g`; operators wait for their first read.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut src = Vec::with_capacity(g.num_arcs() + n);
        let mut dst = Vec::with_capacity(g.num_arcs() + n);
        let mut in_weights = Vec::with_capacity(g.num_arcs());
        for u in 0..n as u32 {
            src.resize(src.len() + g.out_degree(u), u);
            dst.extend_from_slice(g.out_neighbors(u));
            in_weights.extend_from_slice(g.in_weights(u));
        }
        src.extend(0..n as u32);
        dst.extend(0..n as u32);
        GraphTensors {
            n,
            arcs: Arc::new(Arcs::new(n, src, dst)),
            in_weights,
            adj_ic: OnceLock::new(),
            adj_loss: OnceLock::new(),
            adj_gcn: OnceLock::new(),
            adj_mean: OnceLock::new(),
            adj_sum: OnceLock::new(),
        }
    }

    /// The attention arcs (see the field doc for their order).
    pub fn arcs(&self) -> &Arc<Arcs> {
        &self.arcs
    }

    /// IC-weighted in-adjacency (Eq. 2): row `u` holds `w_vu` for in-arcs
    /// `v → u`. Drives the diffusion upper bound in the loss (Theorem 2).
    pub fn adj_ic(&self) -> &Arc<SparseMatrix> {
        self.adj_ic
            .get_or_init(|| self.in_operator(&|_| None, &|_, _, w| w))
    }

    /// Loss diffusion operator (Theorem 2 / Eq. 5): [`Self::adj_ic`] plus
    /// unit self-loops, so a seed counts itself as influenced — matching
    /// the evaluation's `|S ∪ N⁺(S)|` coverage semantics.
    pub fn adj_loss(&self) -> &Arc<SparseMatrix> {
        self.adj_loss
            .get_or_init(|| self.in_operator(&|_| Some(1.0), &|_, _, w| w))
    }

    /// GCN operator (Eq. 31 plus self-loops): `Â[u][v] = 1/√(d̃_u d̃_v)`
    /// over in-arcs and self-loops, `d̃ = in-degree + 1`.
    pub fn adj_gcn(&self) -> &Arc<SparseMatrix> {
        self.adj_gcn.get_or_init(|| {
            let dt: Vec<f64> = (0..self.n)
                .map(|u| (self.in_degree(u) + 1) as f64)
                .collect();
            let gcn = |u: usize, v: usize, _: f64| 1.0 / (dt[u] * dt[v]).sqrt();
            self.in_operator(&|u| Some(1.0 / dt[u]), &gcn)
        })
    }

    /// Row-normalised in-adjacency (mean aggregator, GraphSAGE Eq. 29).
    pub fn adj_mean(&self) -> &Arc<SparseMatrix> {
        self.adj_mean.get_or_init(|| {
            let mean = |u: usize, _: usize, _: f64| 1.0 / self.in_degree(u) as f64;
            self.in_operator(&|_| None, &mean)
        })
    }

    /// Plain 0/1 in-adjacency (sum aggregator, GIN Eq. 41).
    pub fn adj_sum(&self) -> &Arc<SparseMatrix> {
        self.adj_sum
            .get_or_init(|| self.in_operator(&|_| None, &|_, _, _| 1.0))
    }

    /// Node `u`'s in-degree in the graph: its in-slots but the self-loop.
    fn in_degree(&self, u: usize) -> usize {
        self.arcs.in_slots(u).len() - 1
    }

    /// How many of the five operators have been built.
    #[cfg(test)]
    pub(crate) fn operators_built(&self) -> usize {
        let ops = [
            &self.adj_ic,
            &self.adj_loss,
            &self.adj_gcn,
            &self.adj_mean,
            &self.adj_sum,
        ];
        ops.iter().filter(|op| op.get().is_some()).count()
    }

    /// One operator over the graph's in-arcs: row `u` holds
    /// `val(u, v, w_vu)` for each in-arc `v → u`, plus `diag(u)` at
    /// `(u, u)` when that is `Some`. Each in-slot row lists the graph's
    /// in-row (which [`privim_graph::GraphBuilder`] leaves sorted,
    /// deduplicated and free of self-loops) before the self-loop, so the
    /// diagonal slots in before the first source above `u` and each row
    /// stays strictly ascending — the layout [`SparseMatrix::from_csr`]
    /// asserts.
    fn in_operator(
        &self,
        diag: &dyn Fn(usize) -> Option<f64>,
        val: &dyn Fn(usize, usize, f64) -> f64,
    ) -> Arc<SparseMatrix> {
        let n = self.n;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(self.in_weights.len() + n);
        let mut vals = Vec::with_capacity(self.in_weights.len() + n);
        offsets.push(0);
        let mut ws = &self.in_weights[..];
        for u in 0..n {
            let slots = self.arcs.in_slots(u);
            let srcs = &slots[..slots.len() - 1]; // the self-loop is last
            let below = srcs.partition_point(|&[v, _]| (v as usize) < u);
            let arc = |(&[v, _], &w): (&[u32; 2], &f64)| (v, val(u, v as usize, w));
            let row = srcs[..below]
                .iter()
                .zip(ws)
                .map(arc)
                .chain(diag(u).map(|d| (u as u32, d)))
                .chain(srcs[below..].iter().zip(&ws[below..]).map(arc));
            for (c, x) in row {
                cols.push(c);
                vals.push(x);
            }
            ws = &ws[srcs.len()..];
            offsets.push(cols.len());
        }
        Arc::new(SparseMatrix::from_csr(n, n, offsets, cols, vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use privim_tensor::Matrix;

    fn path() -> Graph {
        // 0 -> 1 -> 2, weights .5/.25
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.25);
        b.build()
    }

    #[test]
    fn path_operators_match_hand_computed_values() {
        let g = path();
        let gt = GraphTensors::new(&g);
        let ones = Matrix::full(3, 1, 1.0);
        // IC adjacency is in-oriented: arc 0->1 lands in row 1
        let ic = gt.adj_ic().to_dense();
        assert_eq!((ic.get(1, 0), ic.get(2, 1), ic.get(0, 1)), (0.5, 0.25, 0.0));
        // mean rows sum to one, or to zero without in-neighbours; sum rows
        // count in-neighbours
        assert_eq!(gt.adj_mean().spmm(&ones).data(), &[0.0, 1.0, 1.0]);
        assert_eq!(gt.adj_sum().spmm(&ones).data(), &[0.0, 1.0, 1.0]);
        // GCN has self loops; entry (1,0) = 1/sqrt(d1*d0) = 1/sqrt(2*1)
        let gcn = gt.adj_gcn().to_dense();
        for v in 0..3 {
            assert!(gcn.get(v, v) > 0.0, "self loop missing at {v}");
        }
        assert!((gcn.get(1, 0) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        // one attention arc per arc plus a self-loop per node
        assert_eq!(gt.arcs().len(), g.num_arcs() + g.num_nodes());
        for v in 0..3u32 {
            assert!(gt.arcs().dst().contains(&v));
        }
    }

    /// The five operators as `from_triplets` builds them from the in-arc
    /// lists (sorting and merging) — the oracle for the direct CSR build.
    fn triplet_operators(g: &Graph) -> [SparseMatrix; 5] {
        let n = g.num_nodes();
        let dt: Vec<f64> = (0..n).map(|u| (g.in_degree(u as u32) + 1) as f64).collect();
        let (mut ic, mut mean, mut sum, mut gcn) = (vec![], vec![], vec![], vec![]);
        for u in 0..n {
            let srcs = g.in_neighbors(u as u32);
            let deg = srcs.len().max(1) as f64;
            gcn.push((u, u, 1.0 / dt[u]));
            for (&v, &w) in srcs.iter().zip(g.in_weights(u as u32)) {
                let v = v as usize;
                ic.push((u, v, w));
                mean.push((u, v, 1.0 / deg));
                sum.push((u, v, 1.0));
                gcn.push((u, v, 1.0 / (dt[u] * dt[v]).sqrt()));
            }
        }
        let with_self = ic.iter().copied().chain((0..n).map(|u| (u, u, 1.0)));
        [
            SparseMatrix::from_triplets(n, n, ic.clone()),
            SparseMatrix::from_triplets(n, n, with_self),
            SparseMatrix::from_triplets(n, n, gcn),
            SparseMatrix::from_triplets(n, n, mean),
            SparseMatrix::from_triplets(n, n, sum),
        ]
    }

    /// Test graph `seed` of 20: seed 0 has no nodes at all, seed 1 is
    /// edgeless, seeds 2, 7, 12, 17 are stars around hub 0; the draws
    /// include self-loops and repeats for the builder to drop.
    fn seeded_graph(seed: u64) -> Graph {
        use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = (seed as usize * 7) % 41;
        let mut b = match seed % 2 {
            0 => GraphBuilder::new_directed(n),
            _ => GraphBuilder::new_undirected(n),
        };
        let draws = if seed == 1 {
            0
        } else {
            n * (1 + seed as usize % 4)
        };
        for _ in 0..draws {
            let u = if seed % 5 == 2 {
                0
            } else {
                rng.gen_range(0..n as u32)
            };
            b.add_edge(u, rng.gen_range(0..n as u32), rng.gen_range(0.0..1.0));
        }
        b.build()
    }

    #[test]
    fn in_slots_map_bijectively_onto_the_arcs_with_self_loops_last() {
        for seed in 0..20u64 {
            let g = seeded_graph(seed);
            let gt = GraphTensors::new(&g);
            let arcs = gt.arcs();
            assert_eq!(arcs.len(), g.num_arcs() + g.num_nodes(), "seed {seed}");
            let mut seen = vec![false; arcs.len()];
            for d in 0..g.num_nodes() {
                let slots = arcs.in_slots(d);
                // the graph's in-row, sources ascending, then the self-loop
                let srcs: Vec<u32> = slots.iter().map(|&[s, _]| s).collect();
                let want: Vec<u32> = g
                    .in_neighbors(d as u32)
                    .iter()
                    .copied()
                    .chain([d as u32])
                    .collect();
                assert_eq!(srcs, want, "seed {seed} target {d}");
                for &[s, i] in slots {
                    let i = i as usize;
                    assert_eq!((arcs.src()[i], arcs.dst()[i]), (s, d as u32), "seed {seed}");
                    assert!(
                        !std::mem::replace(&mut seen[i], true),
                        "seed {seed}: arc {i} twice"
                    );
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "seed {seed}: an arc has no in-slot"
            );
            assert_eq!(gt.operators_built(), 0, "seed {seed}");
        }
    }

    #[test]
    fn operators_equal_the_triplet_build_on_seeded_graphs() {
        // every stored (row, col, value bits), row by row
        let dump = |m: &SparseMatrix| {
            let row = |r| {
                m.row(r)
                    .0
                    .iter()
                    .zip(m.row(r).1)
                    .map(move |(&c, v)| (r, c, v.to_bits()))
            };
            (
                m.rows(),
                m.cols(),
                (0..m.rows()).flat_map(row).collect::<Vec<_>>(),
            )
        };
        for seed in 0..20u64 {
            let g = seeded_graph(seed);
            let gt = GraphTensors::new(&g);
            let ops = [
                gt.adj_ic(),
                gt.adj_loss(),
                gt.adj_gcn(),
                gt.adj_mean(),
                gt.adj_sum(),
            ];
            for (k, (got, want)) in ops.into_iter().zip(triplet_operators(&g)).enumerate() {
                assert_eq!(dump(got), dump(&want), "seed {seed} operator {k}");
            }
        }
    }

    #[test]
    fn adj_loss_adds_unit_self_loops() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 0.5);
        let g = b.build();
        let gt = GraphTensors::new(&g);
        let d = gt.adj_loss().to_dense();
        for v in 0..3 {
            assert_eq!(d.get(v, v), 1.0, "self loop at {v}");
        }
        assert_eq!(d.get(1, 0), 0.5);
        // binary seed vector p = e_0: influenced = {0 (self), 1 (via arc, capped)}
        let p = Matrix::col_vector(&[1.0, 0.0, 0.0]);
        let inf = gt.adj_loss().spmm(&p);
        assert_eq!(inf.data(), &[1.0, 0.5, 0.0]);
    }
}
