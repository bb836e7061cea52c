//! Dense row-major `f64` matrix with the arithmetic the autograd tape needs.

use crate::pool::{self, AlignedBuf};
use crate::simd;
use std::fmt;

/// Fused multiply-adds (or element writes) below which a kernel stays on
/// the calling thread: pool dispatch costs microseconds, and the tiny
/// per-sample matrices of DP-SGD must not pay it. The batch loop above
/// them is already parallel.
const MIN_PAR_WORK: usize = 1 << 16;

/// `k`-dimension tile for [`Matrix::matmul`]: one rhs panel of `KB` rows is
/// swept repeatedly while it is cache-hot.
const KB: usize = 64;

/// `j`-dimension (output width) tile for [`Matrix::matmul`].
const JB: usize = 256;

/// Square tile edge for the blocked [`Matrix::transpose`].
const TB: usize = 32;

/// Dense row-major matrix.
///
/// Sized for PrivIM's workload (≤ a few hundred thousand rows × 32
/// columns). Backing buffers come from the thread-local [`pool`] (64-byte
/// aligned, so the [`simd`] backends never take a split load), and the
/// heavy kernels (`matmul`, `transpose`) are cache-blocked and
/// row-parallel on `privim_rt::par` — each output row is produced by
/// exactly one worker with a chunk-independent accumulation order, so
/// results are bit-identical at any thread count *and* any `PRIVIM_SIMD`
/// backend (see the determinism contract in [`simd`]).
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

impl Clone for Matrix {
    fn clone(&self) -> Matrix {
        let mut data = pool::acquire(self.data.len());
        data.extend_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    fn clone_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        pool::release(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zero matrix (buffer drawn from the thread-local pool).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::full(rows, cols, 0.0)
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        let n = rows * cols;
        let mut data = pool::acquire(n);
        data.resize(n, value);
        Matrix { rows, cols, data }
    }

    /// Build from a row-major data vector. Panics on shape mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        let mut buf = pool::acquire(data.len());
        buf.extend_from_slice(&data);
        Matrix {
            rows,
            cols,
            data: buf,
        }
    }

    /// JSON form: `{"rows": r, "cols": c, "data": [..]}` with exact `f64`
    /// round-trip (model checkpoints rely on bit-identical reload).
    pub fn to_json(&self) -> privim_rt::json::Value {
        use privim_rt::json::{ToJson, Value};
        Value::obj(vec![
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.as_slice().to_json()),
        ])
    }

    /// Parse the [`Self::to_json`] form.
    pub fn from_json(v: &privim_rt::json::Value) -> Result<Matrix, String> {
        let rows = v
            .get("rows")
            .and_then(|x| x.as_usize())
            .ok_or("matrix: missing rows")?;
        let cols = v
            .get("cols")
            .and_then(|x| x.as_usize())
            .ok_or("matrix: missing cols")?;
        let data: Vec<f64> = v
            .get("data")
            .and_then(|x| x.as_array())
            .ok_or("matrix: missing data")?
            .iter()
            .map(|x| x.as_f64().ok_or("matrix: non-numeric entry".to_string()))
            .collect::<Result<_, _>>()?;
        if data.len() != rows * cols {
            return Err(format!("matrix: {} entries for {rows}x{cols}", data.len()));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Build from row slices (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = pool::acquire(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        let mut data = pool::acquire(values.len());
        data.extend_from_slice(values);
        Matrix {
            rows: values.len(),
            cols: 1,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`. Panics on inner-dimension mismatch.
    ///
    /// Cache-blocked (`KB × JB` tiles over the rhs) and row-parallel: big
    /// products split their output rows into one contiguous chunk per pool
    /// worker. Every output element accumulates its `k`-terms in the same
    /// fixed order (tile-major, ascending) no matter how rows are
    /// partitioned, so the result is bit-identical at any thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return out;
        }
        if m * k * n < MIN_PAR_WORK || privim_rt::par::num_threads() <= 1 {
            self.matmul_rows(rhs, 0, &mut out.data);
        } else {
            privim_rt::par::for_each_row_chunk(&mut out.data, n, |r0, chunk| {
                self.matmul_rows(rhs, r0, chunk);
            });
        }
        out
    }

    /// Tiled ikj kernel for output rows `r0 .. r0 + out_chunk.len()/n`.
    fn matmul_rows(&self, rhs: &Matrix, r0: usize, out_chunk: &mut [f64]) {
        let k = self.cols;
        let n = rhs.cols;
        let rows = out_chunk.len() / n;
        for kk in (0..k).step_by(KB) {
            let kend = (kk + KB).min(k);
            for jj in (0..n).step_by(JB) {
                let jend = (jj + JB).min(n);
                for i in 0..rows {
                    let arow = &self.data[(r0 + i) * k..(r0 + i + 1) * k];
                    let orow = &mut out_chunk[i * n + jj..i * n + jend];
                    for (kx, &aik) in arow[kk..kend].iter().enumerate() {
                        // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: 0.0 * bkj contributes exactly nothing, so skipping only IEEE zeros is lossless")
                        if aik == 0.0 {
                            continue;
                        }
                        let bbase = (kk + kx) * n;
                        let brow = &rhs.data[bbase + jj..bbase + jend];
                        // elementwise axpy: each output element keeps its
                        // k-ascending accumulation order on every backend.
                        // Panels narrower than one 4-lane vector (the
                        // `hidden×1` score and readout products) inline the
                        // same mul-then-add instead of paying the dispatch.
                        if orow.len() < 4 {
                            for (o, &b) in orow.iter_mut().zip(brow) {
                                *o += aik * b;
                            }
                        } else {
                            simd::axpy(orow, aik, brow);
                        }
                    }
                }
            }
        }
    }

    /// Transpose (blocked `TB × TB` tiles; large matrices are parallel over
    /// output-row chunks — pure disjoint writes, so trivially
    /// deterministic).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        if self.rows * self.cols < MIN_PAR_WORK || privim_rt::par::num_threads() <= 1 {
            self.transpose_rows(0, &mut out.data);
        } else {
            privim_rt::par::for_each_row_chunk(&mut out.data, self.rows, |c0, chunk| {
                self.transpose_rows(c0, chunk);
            });
        }
        out
    }

    /// Blocked transpose into output rows (= source columns)
    /// `c0 .. c0 + out_chunk.len()/rows`.
    fn transpose_rows(&self, c0: usize, out_chunk: &mut [f64]) {
        let (r, c) = (self.rows, self.cols);
        let width = out_chunk.len() / r;
        for rr in (0..r).step_by(TB) {
            let rend = (rr + TB).min(r);
            for cc in (0..width).step_by(TB) {
                let cend = (cc + TB).min(width);
                for cj in cc..cend {
                    let col = c0 + cj;
                    let orow = &mut out_chunk[cj * r..(cj + 1) * r];
                    for ri in rr..rend {
                        orow[ri] = self.data[ri * c + col];
                    }
                }
            }
        }
    }

    /// Elementwise sum with `rhs` (same shape).
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise difference (same shape).
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Hadamard (elementwise) product (same shape).
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Elementwise combine (same shape).
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let mut data = pool::acquire(self.data.len());
        data.extend_iter(self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| f(a, b)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut data = pool::acquire(self.data.len());
        data.extend_iter(self.data.iter().map(|&x| f(x)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale by a constant.
    pub fn scale(&self, c: f64) -> Matrix {
        self.map(|x| x * c)
    }

    /// In-place `self += rhs` (same shape).
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        simd::add_assign(&mut self.data, &rhs.data);
    }

    /// In-place scaled accumulate `self += c * rhs`.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, c: f64) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        simd::axpy(&mut self.data, c, &rhs.data);
    }

    /// Sum of all elements ([`simd`] 4-lane reduction contract).
    pub fn sum(&self) -> f64 {
        simd::sum(&self.data)
    }

    /// Frobenius (flattened `l2`) norm — the norm DP-SGD clips
    /// ([`simd`] 4-lane reduction contract).
    pub fn frobenius_norm(&self) -> f64 {
        simd::sumsq(&self.data).sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Horizontal concatenation `[self | rhs]` (same row count).
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch in concat");
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Indices of the `k` largest entries of a column vector, descending.
    /// Ties broken by lower index. Panics unless `cols == 1`.
    pub fn top_k_rows(&self, k: usize) -> Vec<usize> {
        assert_eq!(self.cols, 1, "top_k_rows needs a column vector");
        let mut idx: Vec<usize> = (0..self.rows).collect();
        idx.sort_by(|&a, &b| {
            self.data[b]
                .partial_cmp(&self.data[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).data(), &[4.0, 2.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -6.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, -8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(f64::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), 7.0);
        assert!(!a.has_non_finite());
        let n = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(n.has_non_finite());
    }

    #[test]
    fn concat_cols_places_blocks() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn top_k_descending_with_tie_break() {
        let v = Matrix::col_vector(&[0.1, 0.9, 0.5, 0.9]);
        assert_eq!(v.top_k_rows(3), vec![1, 3, 2]);
        assert_eq!(v.top_k_rows(0), Vec::<usize>::new());
        assert_eq!(v.top_k_rows(10).len(), 4);
    }

    /// Deterministic pseudo-random fill without touching the RNG crate.
    fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i * 37 + salt * 11) % 23) as f64 - 11.0)
                .collect(),
        )
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    // mirror the kernel's exact-zero skip so the
                    // accumulation sequences are term-for-term identical
                    if a.get(i, k) != 0.0 {
                        s += a.get(i, k) * b.get(k, j);
                    }
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_bitwise_matches_naive_across_tile_edges() {
        // shapes straddling the KB/JB/TB tile boundaries, including the
        // large case that takes the parallel path when threads > 1
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (65, 64, 33), (41, 130, 259)] {
            let a = test_matrix(m, k, 1);
            let b = test_matrix(k, n, 2);
            assert_eq!(a.matmul(&b), naive_matmul(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_transpose_matches_elementwise() {
        let a = test_matrix(67, 41, 3);
        let t = a.transpose();
        assert_eq!(t.shape(), (41, 67));
        for r in 0..67 {
            for c in 0..41 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn pooled_buffers_never_leak_stale_values() {
        // churn the pool with junk, then verify fresh constructors are clean
        for salt in 0..8 {
            let junk = test_matrix(50, 50, salt);
            drop(junk);
        }
        assert!(Matrix::zeros(40, 40).data().iter().all(|&x| x == 0.0));
        assert!(Matrix::full(30, 30, 2.5).data().iter().all(|&x| x == 2.5));
        let m = test_matrix(20, 20, 9);
        assert_eq!(m.clone(), m);
        assert_eq!(m.map(|x| x + 1.0).get(0, 0), m.get(0, 0) + 1.0);
    }

    #[test]
    fn matrix_allocations_are_simd_aligned() {
        // every constructor path must come out of the aligned pool
        for (r, c) in [(1, 1), (3, 7), (40, 40), (65, 33)] {
            let m = Matrix::zeros(r, c);
            assert_eq!(m.data().as_ptr() as usize % pool::ALIGN, 0, "zeros {r}x{c}");
            let k = m.clone();
            assert_eq!(k.data().as_ptr() as usize % pool::ALIGN, 0, "clone {r}x{c}");
            let t = m.transpose();
            assert_eq!(t.data().as_ptr() as usize % pool::ALIGN, 0, "transpose {r}x{c}");
        }
        let v = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.data().as_ptr() as usize % pool::ALIGN, 0, "from_vec");
        let r = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(r.data().as_ptr() as usize % pool::ALIGN, 0, "from_rows");
        let c = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.data().as_ptr() as usize % pool::ALIGN, 0, "col_vector");
    }

    #[test]
    fn accumulate_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 3.0]]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[3.0, 4.0]);
        a.add_scaled_assign(&b, -1.0);
        assert_eq!(a.data(), &[1.0, 1.0]);
    }
}
