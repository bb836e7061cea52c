//! CSR sparse matrix for graph adjacency in message passing.
//!
//! GNN aggregation (Eq. 1 and the variants in Appendix G) is a sparse-dense
//! product `A · H` where `A` never needs gradients (the graph is data, not a
//! parameter). This type is the bridge between `privim-graph`'s CSR graphs
//! and the autograd tape's `spmm` op.

use crate::matrix::Matrix;
use std::sync::OnceLock;

/// Work (nnz × dense width) below which an spmm stays on the calling
/// thread — mirrors the dense kernels' threshold.
const MIN_PAR_WORK: usize = 1 << 16;

/// Immutable CSR sparse matrix (no gradient support — used as constants).
///
/// [`Self::spmm_transpose`] routes through a lazily-built, cached CSC view
/// (the transpose in CSR form), so the backward pass of message passing is
/// a plain row-parallel [`Self::spmm`] — no scattered writes, no per-row
/// dense copies.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Cached transpose; built on first `spmm_transpose` and invalidated
    /// by every value-mutating method (`values_mut` / `map_values`), so it
    /// can never serve stale coefficients. Within each transposed row the
    /// source-row indices ascend, which reproduces the exact accumulation
    /// order of the historical scatter loop.
    transposed: OnceLock<Box<SparseMatrix>>,
}

impl SparseMatrix {
    /// Build from (row, col, value) triplets. Duplicate coordinates are
    /// summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut t: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &t {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        t.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // merge duplicates
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(t.len());
        for (r, c, v) in t {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }
        let mut offsets = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            offsets[r + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        SparseMatrix {
            rows,
            cols,
            offsets,
            col_idx: merged.iter().map(|&(_, c, _)| c as u32).collect(),
            values: merged.iter().map(|&(_, _, v)| v).collect(),
            transposed: OnceLock::new(),
        }
    }

    /// Build from CSR arrays directly, without sorting or merging. Row `r`
    /// is `col_idx[offsets[r]..offsets[r + 1]]` with parallel `values`.
    /// Panics unless `offsets` runs non-decreasing from 0 to `nnz` over
    /// `rows + 1` entries and every row's columns strictly ascend below
    /// `cols` — the layout [`Self::from_triplets`] would have produced.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(offsets.len(), rows + 1, "csr offsets length");
        assert_eq!(values.len(), col_idx.len(), "csr values length");
        let ends = offsets.first() == Some(&0) && offsets.last() == Some(&col_idx.len());
        assert!(
            ends && offsets.windows(2).all(|w| w[0] <= w[1]),
            "csr offsets must rise from 0 to nnz"
        );
        for r in 0..rows {
            let row = &col_idx[offsets[r]..offsets[r + 1]];
            let ascending = row.windows(2).all(|w| w[0] < w[1]);
            assert!(
                ascending && row.iter().all(|&c| (c as usize) < cols),
                "csr row {r} must strictly ascend below {cols}"
            );
        }
        SparseMatrix {
            rows,
            cols,
            offsets,
            col_idx,
            values,
            transposed: OnceLock::new(),
        }
    }

    /// Identity-free empty matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            offsets: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
            transposed: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zeros of row `r` as parallel `(cols, values)` slices.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let s = self.offsets[r];
        let e = self.offsets[r + 1];
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Mutable view of the stored values (CSR order: row-major, ascending
    /// column within each row). The sparsity *pattern* is fixed; only the
    /// coefficients can change (e.g. reweighting edges of a served graph).
    ///
    /// Taking this view **invalidates the cached transpose**: the next
    /// [`Self::spmm_transpose`] rebuilds it from the updated values, so a
    /// mutate-then-transpose sequence can never observe stale numbers.
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.transposed.take();
        &mut self.values
    }

    /// Rewrite every stored value in place (`f(row, col, value)`), then
    /// invalidate the cached transpose — see [`Self::values_mut`].
    pub fn map_values(&mut self, f: impl Fn(usize, usize, f64) -> f64) {
        self.transposed.take();
        for r in 0..self.rows {
            let (s, e) = (self.offsets[r], self.offsets[r + 1]);
            for i in s..e {
                self.values[i] = f(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
    }

    /// Dense product `self × dense` → `rows × dense.cols()`.
    ///
    /// Row-parallel: output rows are split into contiguous chunks, one per
    /// pool worker; row `r` depends only on sparse row `r`, so every output
    /// row is written by exactly one worker with the serial loop's
    /// accumulation order — bit-identical at any thread count.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.cols, dense.rows(), "spmm inner dimension mismatch");
        let dc = dense.cols();
        let mut out = Matrix::zeros(self.rows, dc);
        if self.rows == 0 || dc == 0 {
            return out;
        }
        if self.nnz() * dc < MIN_PAR_WORK || privim_rt::par::num_threads() <= 1 {
            self.spmm_rows(dense, 0, out.data_mut());
        } else {
            privim_rt::par::for_each_row_chunk(out.data_mut(), dc, |r0, chunk| {
                self.spmm_rows(dense, r0, chunk);
            });
        }
        out
    }

    /// Serial spmm kernel for output rows `r0 .. r0 + out_chunk.len()/dc`.
    fn spmm_rows(&self, dense: &Matrix, r0: usize, out_chunk: &mut [f64]) {
        let dc = dense.cols();
        for (local, orow) in out_chunk.chunks_mut(dc).enumerate() {
            let (cols, vals) = self.row(r0 + local);
            for (&c, &v) in cols.iter().zip(vals) {
                // elementwise axpy over the dense row: per-element
                // accumulation order is unchanged on every SIMD backend
                crate::simd::axpy(orow, v, dense.row(c as usize));
            }
        }
    }

    /// Transposed product `selfᵀ × dense` → `cols × dense.cols()`. This is
    /// the backward pass of [`Self::spmm`] with respect to the dense input.
    ///
    /// Runs as a row-parallel [`Self::spmm`] over the cached transpose
    /// ([`Self::transposed`]): each output row is owned by one worker, and
    /// the ascending source-row order inside every transposed row
    /// reproduces the scatter loop's accumulation order exactly, so the
    /// result is bit-identical to the historical serial kernel.
    pub fn spmm_transpose(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.rows, dense.rows(), "spmm_t dimension mismatch");
        self.transposed().spmm(dense)
    }

    /// The cached CSR transpose, built on first use (counting sort over the
    /// column indices — deterministic, `O(nnz + cols)`).
    fn transposed(&self) -> &SparseMatrix {
        self.transposed.get_or_init(|| {
            let nnz = self.values.len();
            let mut offsets = vec![0usize; self.cols + 1];
            for &c in &self.col_idx {
                offsets[c as usize + 1] += 1;
            }
            for i in 0..self.cols {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets[..self.cols].to_vec();
            let mut col_idx = vec![0u32; nnz];
            let mut values = vec![0.0f64; nnz];
            // ascending r per transposed row: the determinism anchor
            for r in 0..self.rows {
                let (cols, vals) = self.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let p = cursor[c as usize];
                    col_idx[p] = r as u32;
                    values[p] = v;
                    cursor[c as usize] += 1;
                }
            }
            Box::new(SparseMatrix {
                rows: self.cols,
                cols: self.rows,
                offsets,
                col_idx,
                values,
                transposed: OnceLock::new(),
            })
        })
    }

    /// Densify (tests only — O(rows × cols) memory).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.set(r, c as usize, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_merge_duplicates() {
        let s = SparseMatrix::from_triplets(2, 2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense().get(0, 1), 3.0);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let s = SparseMatrix::from_triplets(2, 3, [(0, 0, 2.0), (0, 2, 1.0), (1, 1, -1.0)]);
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let expect = s.to_dense().matmul(&d);
        assert_eq!(s.spmm(&d), expect);
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let s = SparseMatrix::from_triplets(2, 3, [(0, 0, 2.0), (0, 2, 1.0), (1, 1, -1.0)]);
        let d = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let expect = s.to_dense().transpose().matmul(&d);
        assert_eq!(s.spmm_transpose(&d), expect);
    }

    #[test]
    fn empty_rows_are_fine() {
        let s = SparseMatrix::zeros(3, 3);
        let d = Matrix::full(3, 2, 1.0);
        let out = s.spmm(&d);
        assert_eq!(out, Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        let _ = SparseMatrix::from_triplets(2, 2, [(2, 0, 1.0)]);
    }

    #[test]
    fn from_csr_rejects_malformed_layouts() {
        let build = |offsets: Vec<usize>, cols: Vec<u32>| {
            let vals = vec![1.0; cols.len()];
            std::panic::catch_unwind(move || SparseMatrix::from_csr(2, 3, offsets, cols, vals))
        };
        assert!(build(vec![0, 1, 2], vec![2, 0]).is_ok());
        for (why, offsets, cols) in [
            ("unsorted row", vec![0, 2, 2], vec![2, 1]),
            ("duplicate column", vec![0, 2, 2], vec![1, 1]),
            ("column out of range", vec![0, 1, 2], vec![0, 3]),
            ("offsets too short", vec![0, 2], vec![0, 1]),
            ("offsets not from 0", vec![1, 1, 2], vec![0, 1]),
            ("offsets not to nnz", vec![0, 1, 1], vec![0, 1]),
            ("offsets decrease", vec![0, 2, 1], vec![0]),
        ] {
            // the layout assertion fires, not an out-of-bounds slice
            let payload = build(offsets, cols).expect_err(why);
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            let msg = msg
                .or(payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(msg.contains("csr "), "{why}: {msg}");
        }
    }

    #[test]
    fn cached_transpose_is_exact_and_reused() {
        let s = SparseMatrix::from_triplets(
            40,
            30,
            (0..40).flat_map(|r| {
                (0..30)
                    .filter(move |c| (r * 7 + c * 3) % 5 == 0)
                    .map(move |c| (r, c, (r * 31 + c) as f64 / 7.0 - 2.0))
            }),
        );
        let t = s.transposed();
        assert_eq!(t.rows(), 30);
        assert_eq!(t.cols(), 40);
        assert_eq!(t.nnz(), s.nnz());
        assert_eq!(t.to_dense(), s.to_dense().transpose());
        // second call hits the cache (same allocation)
        let p1 = s.transposed() as *const SparseMatrix;
        let p2 = s.transposed() as *const SparseMatrix;
        assert_eq!(p1, p2);
    }

    #[test]
    fn spmm_transpose_matches_dense_on_wide_input() {
        let s = SparseMatrix::from_triplets(
            25,
            18,
            (0..25).flat_map(|r| [(r, r % 18, 1.5 + r as f64), (r, (r * 5 + 2) % 18, -0.25)]),
        );
        let d = Matrix::from_vec(25, 7, (0..25 * 7).map(|i| (i % 13) as f64 - 6.0).collect());
        let expect = s.to_dense().transpose().matmul(&d);
        let got = s.spmm_transpose(&d);
        assert_eq!(got.shape(), expect.shape());
        for i in 0..got.rows() {
            for j in 0..got.cols() {
                assert!((got.get(i, j) - expect.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mutation_invalidates_cached_transpose() {
        let mut s = SparseMatrix::from_triplets(3, 4, [(0, 1, 2.0), (1, 3, -1.0), (2, 0, 0.5)]);
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -4.0], &[0.5, 0.25]]);
        // populate the cache with the original values
        assert_eq!(s.spmm_transpose(&d), s.to_dense().transpose().matmul(&d));
        // mutate every coefficient through both mutation APIs
        for v in s.values_mut() {
            *v *= 3.0;
        }
        let after_scale = s.spmm_transpose(&d);
        assert_eq!(
            after_scale,
            s.to_dense().transpose().matmul(&d),
            "values_mut must invalidate the cached transpose"
        );
        s.map_values(|r, c, v| v + (r * 10 + c) as f64);
        let after_map = s.spmm_transpose(&d);
        assert_eq!(
            after_map,
            s.to_dense().transpose().matmul(&d),
            "map_values must invalidate the cached transpose"
        );
        assert_ne!(after_scale, after_map);
        // forward spmm (which never consults the cache) sees the mutated
        // values as well
        let d4 = Matrix::full(4, 2, 1.0);
        assert_eq!(s.spmm(&d4), s.to_dense().matmul(&d4));
    }

    #[test]
    fn mutation_keeps_pattern_and_rebuilds_cache_once() {
        let mut s = SparseMatrix::from_triplets(4, 4, [(0, 2, 1.0), (3, 1, 2.0)]);
        let _ = s.spmm_transpose(&Matrix::full(4, 1, 1.0));
        s.values_mut()[0] = 9.0;
        assert_eq!(s.nnz(), 2, "mutation must not change the pattern");
        // the rebuilt cache is again stable across calls
        let p1 = s.transposed() as *const SparseMatrix;
        let p2 = s.transposed() as *const SparseMatrix;
        assert_eq!(p1, p2);
        assert_eq!(s.transposed().to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn zero_width_dense_is_fine() {
        let s = SparseMatrix::from_triplets(3, 3, [(0, 1, 2.0)]);
        let d = Matrix::zeros(3, 0);
        assert_eq!(s.spmm(&d).shape(), (3, 0));
        assert_eq!(s.spmm_transpose(&d).shape(), (3, 0));
    }
}
