//! Dense row-major `f64` matrix with the arithmetic the autograd tape needs.
//!
//! Dense products (`matmul`, and `matmul_tn` for the backward's `Aᵀ·B`)
//! share one register-blocked micro-kernel, [`simd::gemm`], that keeps
//! the plain loop's per-element sequence: start at `+0.0`, add the
//! `k`-terms in ascending order, skip exact-zero left entries.

use crate::pool::{self, AlignedBuf};
use crate::simd;
use std::fmt;

/// Fused multiply-adds below which a dense product stays on the calling
/// thread: pool dispatch costs microseconds, and the tiny per-sample
/// matrices of DP-SGD must not pay it. The batch loop above them is
/// already parallel. On a 2-vCPU VM, `bench_kernels` timed an
/// `m×32·32×32` product slower at `par4` than serially at m = 70, within
/// noise of it at m = 512 (2^19 multiply-adds), and faster in every run
/// at m = 1024 (2^20): the threshold is the first size that wins.
const MIN_PAR_WORK: usize = 1 << 20;

/// Element writes below which [`Matrix::transpose`] stays on the calling
/// thread. A memory-bound copy has its own crossover, not yet measured,
/// so this keeps the value both kernels shared before the product's was
/// measured.
const MIN_PAR_TRANSPOSE: usize = 1 << 16;

/// Square tile edge for the blocked [`Matrix::transpose`].
const TB: usize = 32;

/// Dense row-major matrix.
///
/// Sized for PrivIM's workload (≤ a few hundred thousand rows × 32
/// columns). Backing buffers come from the thread-local [`pool`] (64-byte
/// aligned, so the [`simd`] backends never take a split load). The heavy
/// kernels are row-parallel on `privim_rt::par`: `matmul` and
/// `matmul_tn` run the register-blocked [`simd::gemm`] micro-kernel, and
/// `transpose` copies square tiles. Each output row is produced by
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
    /// Runs the register-blocked [`simd::gemm`] micro-kernel, row-parallel
    /// for big products: output rows are split into one contiguous chunk
    /// per pool worker. Every output element starts at `+0.0` and adds its
    /// `k`-terms in ascending order, skipping exact-zero `self` entries, no
    /// matter how rows are partitioned or which SIMD backend runs, so the
    /// result is bit-identical at any thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(rhs, self.rows, self.cols, 1)
    }

    /// Transposed-operand product `selfᵀ × rhs`, bit-identical to
    /// `self.transpose().matmul(rhs)` without building the transpose: the
    /// kernel reads `self` column by column. Panics on row-count mismatch.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(rhs, self.cols, 1, self.cols)
    }

    /// `m×n` product of `rhs` with the left operand read from `self` at
    /// `(row stride, column stride) = (rs, cs)`.
    fn product(&self, rhs: &Matrix, m: usize, rs: usize, cs: usize) -> Matrix {
        let n = rhs.cols;
        let mut out = Matrix::zeros(m, n);
        if m == 0 || rhs.rows == 0 || n == 0 {
            return out;
        }
        if m * rhs.rows * n < MIN_PAR_WORK || privim_rt::par::num_threads() <= 1 {
            simd::gemm(&mut out.data, &self.data, rs, cs, &rhs.data, n);
        } else {
            privim_rt::par::for_each_row_chunk(&mut out.data, n, |r0, chunk| {
                simd::gemm(chunk, &self.data[r0 * rs..], rs, cs, &rhs.data, n);
            });
        }
        out
    }

    /// Transpose (blocked `TB × TB` tiles; large matrices are parallel over
    /// output-row chunks — pure disjoint writes, so trivially
    /// deterministic).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        if self.rows * self.cols < MIN_PAR_TRANSPOSE || privim_rt::par::num_threads() <= 1 {
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

    /// Hidden-layer activation `max(self + bias, 0)` with `bias` a `1×cols`
    /// row added to every row: one pass, the bits of a bias add followed
    /// by a ReLU. The training tape ([`crate::Tape::bias_relu`]) and
    /// tape-free inference both call it.
    pub fn bias_relu(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(self.cols, bias.cols, "bias width mismatch");
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols.max(1)) {
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x = (*x + b).max(0.0);
            }
        }
        out
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

    fn assert_bits(what: &str, got: &Matrix, want: &Matrix) {
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {idx}: {g:?} vs {w:?} ({:#x} vs {:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Seeded operands: `special` entries at rate 1/4, the rest uniform.
    fn seeded(
        rows: usize,
        cols: usize,
        special: &[f64],
        rng: &mut privim_rt::ChaCha8Rng,
    ) -> Matrix {
        use privim_rt::Rng;
        let data = (0..rows * cols)
            .map(|_| {
                if !special.is_empty() && rng.gen_range(0..4) == 0 {
                    special[rng.gen_range(0..special.len())]
                } else {
                    rng.gen::<f64>() * 4.0 - 2.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn gemm_matches_the_zero_skipping_reference_bitwise_on_every_backend() {
        use crate::simd::{set_backend, Choice};
        use privim_rt::SeedableRng;
        let mut rng = privim_rt::ChaCha8Rng::seed_from_u64(18);
        // finite specials keep the unskipped blocks and the row-interleaved
        // tail in play; infinities and NaN send a call down the skipping loop
        let a_finite = [0.0, -0.0, 5e-324, -2.2e-308];
        let a_special = [
            0.0,
            -0.0,
            5e-324,
            -2.2e-308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let b_special = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let choices = [Choice::Scalar, Choice::Auto];
        let check = |a: &Matrix, at: &Matrix, b: &Matrix, what: &str| {
            let want = naive_matmul(a, b);
            for c in choices {
                set_backend(Some(c));
                assert_bits(&format!("matmul {what} {c:?}"), &a.matmul(b), &want);
                assert_bits(&format!("matmul_tn {what} {c:?}"), &at.matmul_tn(b), &want);
            }
            set_backend(None);
        };
        // m: every count up to 9, two full groups of 8 tail rows plus
        // 4 + 1, and the n = 70 sample; n: the 1- and 2-column tails, tails
        // of every width class, a full 16-column block, and blocks plus a
        // tail
        for m in (1..=9).chain([12, 16, 17, 21, 23, 70]) {
            for k in [0, 1, 3, 31, 32, 33, 64, 65, 70] {
                for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 33] {
                    for (sa, a_sp) in [("finite", &a_finite[..]), ("special", &a_special[..])] {
                        let a = seeded(m, k, a_sp, &mut rng);
                        let at = a.transpose();
                        for special in [&[][..], &b_special[..]] {
                            let b = seeded(k, n, special, &mut rng);
                            let sb = !special.is_empty();
                            check(&a, &at, &b, &format!("{m}x{k}x{n} a={sa} b_special={sb}"));
                        }
                    }
                }
            }
        }
        // the parallel path: 1001 rows (above MIN_PAR_WORK) in chunks of
        // 334, 334 and 333, so the last chunk ends on a single-row tail
        privim_rt::par::set_threads(3);
        for a_sp in [&a_finite[..], &a_special[..]] {
            let a = seeded(1001, 70, a_sp, &mut rng);
            let at = a.transpose();
            for special in [&[][..], &b_special[..]] {
                let b = seeded(70, 33, special, &mut rng);
                check(&a, &at, &b, "1001x70x33 at 3 threads");
            }
        }
        privim_rt::par::set_threads(0);
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
    fn parallel_kernels_are_bit_identical_across_thread_counts() {
        // each operand is above its kernel's dispatch threshold, so 2 and
        // 7 threads take the pool path that 1 thread skips
        let a = test_matrix(1100, 32, 5);
        let b = test_matrix(32, 32, 6);
        let at = test_matrix(32, 1100, 7);
        let small = test_matrix(300, 250, 8);
        let big = test_matrix(1100, 960, 9);
        assert!(a.rows() * a.cols() * b.cols() >= MIN_PAR_WORK);
        assert!(small.data().len() >= MIN_PAR_TRANSPOSE && big.data().len() >= MIN_PAR_WORK);
        let run = |threads: usize| {
            privim_rt::par::set_threads(threads);
            let out = [
                a.matmul(&b),
                at.matmul_tn(&b),
                small.transpose(),
                big.transpose(),
            ];
            privim_rt::par::set_threads(0);
            out
        };
        let want = run(1);
        assert_bits("matmul at 1 thread", &want[0], &naive_matmul(&a, &b));
        assert_bits(
            "matmul_tn at 1 thread",
            &want[1],
            &naive_matmul(&at.transpose(), &b),
        );
        for (t, m) in [(&want[2], &small), (&want[3], &big)] {
            assert_eq!(t.shape(), (m.cols(), m.rows()));
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    assert_eq!(t.get(c, r).to_bits(), m.get(r, c).to_bits());
                }
            }
        }
        for threads in [2, 7] {
            let got = run(threads);
            let kernels = [
                "matmul",
                "matmul_tn",
                "transpose 300x250",
                "transpose 1100x960",
            ];
            for ((name, g), w) in kernels.iter().zip(&got).zip(&want) {
                assert_bits(&format!("{name} at {threads} threads"), g, w);
            }
        }
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
