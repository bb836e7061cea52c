//! Precomputed message-passing operators per graph.
//!
//! Building these once per subgraph (they are pure functions of the
//! adjacency) keeps the per-step training cost at the dense math only.

use privim_graph::Graph;
use privim_tensor::SparseMatrix;
use std::sync::Arc;

/// All sparse operators and edge lists a [`crate::GnnModel`] forward pass
/// can need, derived from one graph.
pub struct GraphTensors {
    /// Node count.
    pub n: usize,
    /// IC-weighted in-adjacency (Eq. 2): row `u` holds `w_vu` for in-arcs
    /// `v → u`. Drives the diffusion upper bound in the loss (Theorem 2).
    pub adj_ic: Arc<SparseMatrix>,
    /// Loss diffusion operator (Theorem 2 / Eq. 5): `adj_ic` plus unit
    /// self-loops, so a seed counts itself as influenced — matching the
    /// evaluation's `|S ∪ N⁺(S)|` coverage semantics.
    pub adj_loss: Arc<SparseMatrix>,
    /// GCN operator (Eq. 31 plus self-loops): `Â[u][v] = 1/√(d̃_u d̃_v)`
    /// over in-arcs and self-loops, `d̃ = in-degree + 1`.
    pub adj_gcn: Arc<SparseMatrix>,
    /// Row-normalised in-adjacency (mean aggregator, GraphSAGE Eq. 29).
    pub adj_mean: Arc<SparseMatrix>,
    /// Plain 0/1 in-adjacency (sum aggregator, GIN Eq. 41).
    pub adj_sum: Arc<SparseMatrix>,
    /// Attention arcs: sources per arc, *including* one self-loop per node
    /// (standard GAT practice so isolated nodes keep a message).
    pub att_src: Arc<Vec<u32>>,
    /// Attention arcs: targets per arc (parallel to `att_src`).
    pub att_dst: Arc<Vec<u32>>,
}

impl GraphTensors {
    /// Precompute every operator for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        // GCN: symmetric-ish normalisation on the in-adjacency + self loops.
        let dt: Vec<f64> = (0..n).map(|u| (g.in_degree(u as u32) + 1) as f64).collect();
        let gcn = |u: usize, v: usize, _: f64| 1.0 / (dt[u] * dt[v]).sqrt();
        let mean = |u: usize, _: usize, _: f64| 1.0 / g.in_degree(u as u32) as f64;

        // Attention arcs (src -> dst) plus self loops.
        let mut att_src = Vec::with_capacity(g.num_arcs() + n);
        let mut att_dst = Vec::with_capacity(g.num_arcs() + n);
        for (u, v, _) in g.arcs() {
            att_src.push(u);
            att_dst.push(v);
        }
        for v in 0..n as u32 {
            att_src.push(v);
            att_dst.push(v);
        }

        GraphTensors {
            n,
            adj_ic: Arc::new(in_operator(g, &|_| None, &|_, _, w| w)),
            adj_loss: Arc::new(in_operator(g, &|_| Some(1.0), &|_, _, w| w)),
            adj_gcn: Arc::new(in_operator(g, &|u| Some(1.0 / dt[u]), &gcn)),
            adj_mean: Arc::new(in_operator(g, &|_| None, &mean)),
            adj_sum: Arc::new(in_operator(g, &|_| None, &|_, _, _| 1.0)),
            att_src: Arc::new(att_src),
            att_dst: Arc::new(att_dst),
        }
    }
}

/// One operator over `g`'s in-CSR: row `u` holds `val(u, v, w_vu)` for
/// each in-arc `v → u`, plus `diag(u)` at `(u, u)` when that is `Some`.
/// [`privim_graph::GraphBuilder`] leaves every in-row sorted, deduplicated
/// and free of self-loops, so the diagonal slots in before the first
/// source above `u` and each row stays strictly ascending — the layout
/// [`SparseMatrix::from_csr`] asserts.
fn in_operator(
    g: &Graph,
    diag: &dyn Fn(usize) -> Option<f64>,
    val: &dyn Fn(usize, usize, f64) -> f64,
) -> SparseMatrix {
    let n = g.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut cols = Vec::with_capacity(g.num_arcs() + n);
    let mut vals = Vec::with_capacity(g.num_arcs() + n);
    offsets.push(0);
    for u in 0..n {
        let (srcs, ws) = (g.in_neighbors(u as u32), g.in_weights(u as u32));
        let below = srcs.partition_point(|&v| (v as usize) < u);
        let arc = |(&v, &w): (&u32, &f64)| (v, val(u, v as usize, w));
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
        offsets.push(cols.len());
    }
    SparseMatrix::from_csr(n, n, offsets, cols, vals)
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
        let ic = gt.adj_ic.to_dense();
        assert_eq!((ic.get(1, 0), ic.get(2, 1), ic.get(0, 1)), (0.5, 0.25, 0.0));
        // mean rows sum to one, or to zero without in-neighbours; sum rows
        // count in-neighbours
        assert_eq!(gt.adj_mean.spmm(&ones).data(), &[0.0, 1.0, 1.0]);
        assert_eq!(gt.adj_sum.spmm(&ones).data(), &[0.0, 1.0, 1.0]);
        // GCN has self loops; entry (1,0) = 1/sqrt(d1*d0) = 1/sqrt(2*1)
        let gcn = gt.adj_gcn.to_dense();
        for v in 0..3 {
            assert!(gcn.get(v, v) > 0.0, "self loop missing at {v}");
        }
        assert!((gcn.get(1, 0) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        // one attention arc per arc plus a self-loop per node
        assert_eq!(gt.att_src.len(), g.num_arcs() + g.num_nodes());
        for v in 0..3u32 {
            assert!(gt.att_dst.contains(&v));
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

    #[test]
    fn operators_equal_the_triplet_build_on_seeded_graphs() {
        use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
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
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = (seed as usize * 7) % 41; // seed 0: no nodes at all
            let mut b = match seed % 2 {
                0 => GraphBuilder::new_directed(n),
                _ => GraphBuilder::new_undirected(n),
            };
            // seed 1 stays edgeless; seeds 2, 7, 12, 17 are stars around hub 0;
            // draws include self-loops and repeats for the builder to drop
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
            let g = b.build();
            let gt = GraphTensors::new(&g);
            let ops = [
                &gt.adj_ic,
                &gt.adj_loss,
                &gt.adj_gcn,
                &gt.adj_mean,
                &gt.adj_sum,
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
        let d = gt.adj_loss.to_dense();
        for v in 0..3 {
            assert_eq!(d.get(v, v), 1.0, "self loop at {v}");
        }
        assert_eq!(d.get(1, 0), 0.5);
        // binary seed vector p = e_0: influenced = {0 (self), 1 (via arc, capped)}
        let p = Matrix::col_vector(&[1.0, 0.0, 0.0]);
        let inf = gt.adj_loss.spmm(&p);
        assert_eq!(inf.data(), &[1.0, 0.5, 0.0]);
    }
}
