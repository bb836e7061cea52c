//! CSR sparse matrix for graph adjacency in message passing.
//!
//! GNN aggregation (Eq. 1 and the variants in Appendix G) is a sparse-dense
//! product `A · H` where `A` never needs gradients (the graph is data, not a
//! parameter). This type is the bridge between `privim-graph`'s CSR graphs
//! and the autograd tape's `spmm` op.

use crate::matrix::Matrix;
use crate::simd;
use std::sync::OnceLock;

/// Work (nnz × dense width) below which an spmm stays on the calling
/// thread — mirrors the dense kernels' threshold.
const MIN_PAR_WORK: usize = 1 << 16;

/// Immutable CSR sparse matrix (no gradient support — used as constants):
/// no method changes a built matrix's pattern or values.
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
    /// Cached transpose, built on first `spmm_transpose`; the matrix is
    /// immutable, so it can never serve stale coefficients. Within each
    /// transposed row the source-row indices ascend, which reproduces the
    /// exact accumulation order of the historical scatter loop.
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
        let finite = simd::all_finite(&self.values) && simd::all_finite(dense.data());
        if self.nnz() * dc < MIN_PAR_WORK || privim_rt::par::num_threads() <= 1 {
            self.spmm_rows(dense, finite, 0, out.data_mut());
        } else {
            privim_rt::par::for_each_row_chunk(out.data_mut(), dc, |r0, chunk| {
                self.spmm_rows(dense, finite, r0, chunk);
            });
        }
        out
    }

    /// Serial spmm kernel for output rows `r0 .. r0 + out_chunk.len()/dc`,
    /// on the active backend's build only if the values and `dense` are
    /// `finite` (see [`simd::Kernel`]).
    fn spmm_rows(&self, dense: &Matrix, finite: bool, r0: usize, out_chunk: &mut [f64]) {
        let rows = SpmmRows {
            a: self,
            dense,
            r0,
            out: out_chunk,
        };
        if finite {
            simd::dispatch(rows)
        } else {
            simd::run_baseline(rows)
        }
    }

    /// Transposed product `selfᵀ × dense` → `cols × dense.cols()`. This is
    /// the backward pass of [`Self::spmm`] with respect to the dense input.
    ///
    /// Runs as a row-parallel [`Self::spmm`] over the cached transpose
    /// (`transposed`): each output row is owned by one worker, and
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

/// [`SparseMatrix::spmm_rows`]'s loop nest, as one [`simd::Kernel`]:
/// each output element adds `v · dense[c][j]` over its sparse row's
/// entries in ascending column order, a multiply then an add, so the
/// per-element sequence is the same on every backend. One dispatch per
/// call, not one per non-zero: the loss's products are one column wide,
/// where a dispatch cost more than the multiply-add it ran.
struct SpmmRows<'a> {
    a: &'a SparseMatrix,
    dense: &'a Matrix,
    r0: usize,
    out: &'a mut [f64],
}

impl simd::Kernel for SpmmRows<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let dc = self.dense.cols();
        for (local, orow) in self.out.chunks_mut(dc).enumerate() {
            let (cols, vals) = self.a.row(self.r0 + local);
            for (&c, &v) in cols.iter().zip(vals) {
                for (o, &d) in orow.iter_mut().zip(self.dense.row(c as usize)) {
                    *o += v * d;
                }
            }
        }
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
    fn spmm_is_bit_identical_on_every_backend_with_nan_payloads() {
        use crate::simd::{set_backend, Choice};
        // infinities, NaNs of both signs and several payloads, one signalling
        let special = [
            0x7ff0_0000_0000_0000u64,
            0xfff0_0000_0000_0000,
            0x7ff8_0000_0000_0bad,
            0xfffc_0000_dead_0000,
            0x7ff4_0000_0000_0001,
        ]
        .map(f64::from_bits);
        let s = SparseMatrix::from_triplets(
            30,
            20,
            (0..30).flat_map(|r| {
                let v = if r % 7 == 3 { special[r % 5] } else { 0.5 + r as f64 };
                [(r, r % 20, v), (r, (r * 3 + 1) % 20, -0.25), (r, (r * 7 + 2) % 20, 2.0)]
            }),
        );
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for dc in [1, 5, 33] {
            let mut d = Matrix::from_vec(20, dc, (0..20 * dc).map(|i| (i % 11) as f64 - 5.0).collect());
            for (i, x) in d.data_mut().iter_mut().enumerate().step_by(9) {
                *x = special[i % 5];
            }
            for (a, dense) in [(&s, &d), (s.transposed(), &Matrix::full(30, dc, 1.5))] {
                set_backend(Some(Choice::Scalar));
                let want = bits(&a.spmm(dense));
                set_backend(Some(Choice::Auto));
                assert_eq!(bits(&a.spmm(dense)), want, "dc={dc} auto");
                set_backend(None);
            }
        }
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
    fn zero_width_dense_is_fine() {
        let s = SparseMatrix::from_triplets(3, 3, [(0, 1, 2.0)]);
        let d = Matrix::zeros(3, 0);
        assert_eq!(s.spmm(&d).shape(), (3, 0));
        assert_eq!(s.spmm_transpose(&d).shape(), (3, 0));
    }
}
