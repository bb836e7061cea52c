//! SIMD backend for the dense inner loops, under a cross-backend
//! determinism contract.
//!
//! Every kernel here is one portable body (the crate-internal `Kernel`
//! trait): a loop nest written once in plain Rust and compiled twice —
//! for the baseline target ([`Backend::Scalar`], which already holds SSE2
//! on x86-64 and NEON on AArch64) and, on x86-64, with AVX2 enabled
//! ([`Backend::Avx2`]). One runtime dispatch picks the build
//! (`PRIVIM_SIMD={auto,scalar}`, or [`set_backend`] for in-process
//! tests). The compiler only vectorizes across independent elements and
//! never fuses a multiply and an add or reassociates a sum, so each
//! element's operations are those of the scalar loop on both builds:
//!
//! * **Elementwise kernels** ([`axpy`], [`add_assign`], [`scale`]) compute
//!   each output element as `y[i] + a * x[i]` does: a separate IEEE-754
//!   multiply and add, never a fused multiply-add.
//! * **Reductions** ([`sum`], [`sumsq`]) use **four virtual lane
//!   accumulators**: lane `j` accumulates elements `j, j+4, j+8, …` in
//!   ascending order, the lanes combine as `(l0 + l2) + (l1 + l3)`, then
//!   the `len % 4` tail is added in order.
//! * **The dense product** ([`gemm`]) gives each output element the
//!   sequence of the plain zero-skipping loop: `+0.0`, then its terms in
//!   ascending `k`, each a multiply then an add.
//!
//! A build's own choices reach the result bits in one case: an add or a
//! multiply that meets two NaNs of different bits returns one of them,
//! picked by the operand order that build emits. So each kernel takes the
//! per-backend build only where that cannot happen, and otherwise runs
//! `run_baseline`, one build shared by every backend:
//!
//! * [`axpy`] (and [`add_assign`], which is `axpy` with `a = 1`): iff
//!   `a` and `x` are finite. Then each added term is finite, and an add
//!   meets at most one NaN.
//! * [`scale`]: iff `a` is finite.
//! * [`sum`], [`sumsq`]: always, then once more in `run_baseline` iff the
//!   result is not finite. A finite result met no NaN on the way, so this
//!   costs nothing on finite data.
//! * [`gemm`], the sparse product (`SparseMatrix::spmm`) and the
//!   attention forward gather and backward: iff every input they
//!   multiply or add is finite.
//!
//! Together: results are bit-identical across `PRIVIM_SIMD` settings,
//! thread counts and architectures — pinned by `tests/determinism.rs`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Requested backend (what the user asked for).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Pick the widest backend the CPU supports.
    Auto,
    /// Force the baseline build.
    Scalar,
}

/// Resolved backend (what will actually run). `Avx2` is only ever
/// returned when the CPU feature was runtime-detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The build for the baseline target (its vector width: SSE2 on
    /// x86-64, NEON on AArch64, none elsewhere).
    Scalar,
    /// The build with AVX2 enabled: 4×f64 registers.
    Avx2,
}

impl Backend {
    /// Stable lowercase name (bench metadata, logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// In-process override set by [`set_backend`]; 0 = none (use the env).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `PRIVIM_SIMD` parsed once per process (the env cannot change under a
/// running kernel without racing it; tests use [`set_backend`] instead).
static ENV_CHOICE: OnceLock<Choice> = OnceLock::new();

fn encode(c: Choice) -> u8 {
    match c {
        Choice::Auto => 1,
        Choice::Scalar => 2,
    }
}

/// Override the backend for this process (tests; `None` restores the
/// `PRIVIM_SIMD` env resolution). Takes effect on the next kernel call.
pub fn set_backend(choice: Option<Choice>) {
    OVERRIDE.store(choice.map(encode).unwrap_or(0), Ordering::SeqCst);
}

/// Parse a `PRIVIM_SIMD` value. Anything but `scalar` resolves to
/// `Auto` (so `avx2`, which `Auto` already picks where the CPU has it,
/// and the retired `sse2`/`neon` do too): the contract makes every
/// backend bit-identical, so a typo can only cost speed, never
/// correctness — and `Auto` is the fast safe default.
fn parse_choice(s: &str) -> Choice {
    match s.to_ascii_lowercase().as_str() {
        "scalar" => Choice::Scalar,
        _ => Choice::Auto,
    }
}

fn requested() -> Choice {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Choice::Auto,
        2 => Choice::Scalar,
        _ => *ENV_CHOICE.get_or_init(|| {
            std::env::var("PRIVIM_SIMD")
                .map(|v| parse_choice(&v))
                .unwrap_or(Choice::Auto)
        }),
    }
}

/// Resolve the requested backend against what the CPU actually supports.
/// A request the hardware cannot honour degrades to `Scalar` — results
/// are identical either way; only throughput differs.
pub fn active() -> Backend {
    if requested() == Choice::Scalar {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// Detected-feature summary for bench metadata (independent of the
/// selected backend), e.g. `"avx2+sse2"` or `"none"`.
pub fn detected_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
    }
    // a baseline feature of every AArch64 target
    #[cfg(target_arch = "aarch64")]
    feats.push("neon");
    if feats.is_empty() {
        "none".to_string()
    } else {
        feats.join("+")
    }
}

// ---------------------------------------------------------------------
// Portable loop bodies, compiled once per backend
// ---------------------------------------------------------------------

/// A loop nest written once in plain Rust and compiled once per backend
/// by [`dispatch`], whose `#[target_feature]` wrapper the body is inlined
/// into (so `run` must be `#[inline(always)]`). The compiler then
/// vectorizes its loops over independent elements at that backend's
/// width. Rust never fuses a multiply and an add and never reassociates a
/// floating-point sum, so lanes only change which elements go through the
/// ALU together, and every operation's operands are the same on every
/// backend.
///
/// Its result bits still depend on the build in one case: an add or a
/// multiply that meets two NaNs of different bits returns one of them,
/// and which one follows the operand order the compiler picks for that
/// build. With every input finite that cannot happen: a NaN can then only
/// come from an invalid operation (`∞ − ∞`, `0 · ∞`), and every such NaN
/// is the architecture's one default NaN. So a body is only dispatched
/// where no two NaNs can meet (the module doc gives each kernel's rule,
/// most of them [`all_finite`]); other inputs go to [`run_baseline`], one
/// build shared by every backend.
pub(crate) trait Kernel {
    /// What the body returns.
    type Output;
    /// The body; must be `#[inline(always)]`.
    fn run(self) -> Self::Output;
}

/// Run `k` compiled for the active backend.
pub(crate) fn dispatch<K: Kernel>(k: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Backend::Avx2 && is_x86_feature_detected!("avx2") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; the kernel body is safe code with checked indexing")
            return unsafe { run_avx2(k) };
        }
    }
    k.run()
}

/// Run `k` compiled once for the baseline target, whatever the active
/// backend: the path for a [`Kernel`] whose inputs could make two NaNs
/// meet.
#[inline(never)]
pub(crate) fn run_baseline<K: Kernel>(k: K) -> K::Output {
    k.run()
}

/// Whether every entry of `x` is finite. `v · 0` is a signed zero for a
/// finite `v` and NaN for an infinity or a NaN, so eight running sums of
/// it stay finite exactly when every entry is. The baseline target has no
/// 64-bit integer compare for the vectorized `is_finite`, and these float
/// sums ran about 2.4× faster than it on 2 240 entries. The tail joins
/// the lanes and the lanes combine as a tree, so a short slice pays a few
/// dependent adds, not one per entry.
pub(crate) fn all_finite(x: &[f64]) -> bool {
    let mut acc = [0.0f64; 8];
    let chunks = x.chunks_exact(8);
    let rest = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v * 0.0;
        }
    }
    for (a, &v) in acc.iter_mut().zip(rest) {
        *a += v * 0.0;
    }
    let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
    (((a0 + a4) + (a1 + a5)) + ((a2 + a6) + (a3 + a7))).is_finite()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; the body is safe code, so every access is bounds-checked")
unsafe fn run_avx2<K: Kernel>(k: K) -> K::Output {
    k.run()
}

// ---------------------------------------------------------------------
// Elementwise kernels
// ---------------------------------------------------------------------

/// `y[i] += a * x[i]` (scaled gradient accumulation, the SGD update).
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let k = Axpy { y, a, x };
    if a.is_finite() && all_finite(x) {
        dispatch(k)
    } else {
        run_baseline(k)
    }
}

struct Axpy<'a> {
    y: &'a mut [f64],
    a: f64,
    x: &'a [f64],
}

impl Kernel for Axpy<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        for (o, &v) in self.y.iter_mut().zip(self.x) {
            *o += self.a * v;
        }
    }
}

/// `y[i] += x[i]` (gradient summation, noise addition): [`axpy`] with
/// `a = 1`, as `1 · v` is `v` bit for bit for every finite `v`.
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    axpy(y, 1.0, x)
}

/// `y[i] *= a` (gradient clipping, weight decay).
pub fn scale(y: &mut [f64], a: f64) {
    let k = Scale { y, a };
    if a.is_finite() {
        dispatch(k)
    } else {
        run_baseline(k)
    }
}

struct Scale<'a> {
    y: &'a mut [f64],
    a: f64,
}

impl Kernel for Scale<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        for o in self.y.iter_mut() {
            *o *= self.a;
        }
    }
}

// ---------------------------------------------------------------------
// Reductions: 4-virtual-lane accumulators, fixed combine (l0+l2)+(l1+l3)
// ---------------------------------------------------------------------

/// Sum of all elements under the 4-lane virtual accumulator contract.
pub fn sum(a: &[f64]) -> f64 {
    reduce(Reduce::<false>(a))
}

/// Sum of squares `Σ a[i]²` under the 4-lane contract (the DP-SGD
/// gradient-norm primitive; callers take `.sqrt()`).
pub fn sumsq(a: &[f64]) -> f64 {
    reduce(Reduce::<true>(a))
}

/// Runs a reduction's per-backend build, and its baseline build instead
/// when the result is an infinity or a NaN: only then can two NaNs have
/// met on the way.
fn reduce<const SQUARE: bool>(k: Reduce<'_, SQUARE>) -> f64 {
    let t = dispatch(k);
    if t.is_finite() {
        t
    } else {
        run_baseline(k)
    }
}

/// [`sum`] (`SQUARE = false`) or [`sumsq`] (`SQUARE = true`) of a slice:
/// the one 4-lane body both share.
#[derive(Clone, Copy)]
struct Reduce<'a, const SQUARE: bool>(&'a [f64]);

impl<const SQUARE: bool> Kernel for Reduce<'_, SQUARE> {
    type Output = f64;
    #[inline(always)]
    fn run(self) -> f64 {
        let term = |x: f64| if SQUARE { x * x } else { x };
        let chunks = self.0.chunks_exact(4);
        let tail = chunks.remainder();
        let mut l = [0.0f64; 4];
        for c in chunks {
            for (lj, &x) in l.iter_mut().zip(c) {
                *lj += term(x);
            }
        }
        tail.iter().fold((l[0] + l[2]) + (l[1] + l[3]), |t, &x| t + term(x))
    }
}

// ---------------------------------------------------------------------
// gemm: register-blocked dense product with a strided left operand
// ---------------------------------------------------------------------

/// Dense product micro-kernel behind `Matrix::matmul` and
/// `Matrix::matmul_tn`: for every row `i < out.len() / n` and column
/// `j < n`,
///
/// `out[i·n + j] = Σ_k a[i·rs + k·cs] · b[k·n + j]`, `k` over the
/// `b.len() / n` rows of `b`.
///
/// `A` is read through a (row stride, column stride) pair: `(k, 1)` is a
/// row-major `m×k` matrix, `(1, m)` is the transpose of a row-major `k×m`
/// one, so `Aᵀ·B` needs no transposed copy. Every output element starts
/// at `+0.0` and adds its terms in ascending `k`, each an IEEE multiply
/// then an add (never an FMA), and an exact-zero `A` entry adds nothing.
/// That is the sequence of the plain `i → k → j` loop that skips zero
/// `A` entries, so the result is bit-identical on every backend and for
/// every row partition (DESIGN.md §14). `out` is overwritten.
///
/// # Panics
/// If neither stride is 1: those are the only two layouts.
pub fn gemm(out: &mut [f64], a: &[f64], rs: usize, cs: usize, b: &[f64], n: usize) {
    assert!(rs == 1 || cs == 1, "gemm: A must be row-major or transposed");
    if n == 0 || b.is_empty() {
        out.fill(0.0);
        return;
    }
    dispatch(Gemm { out, a, rs, cs, b, n })
}

/// [`gemm`]'s operands, as one [`Kernel`].
struct Gemm<'a> {
    out: &'a mut [f64],
    a: &'a [f64],
    rs: usize,
    cs: usize,
    b: &'a [f64],
    n: usize,
}

impl Kernel for Gemm<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        gemm_body(self.out, self.a, self.rs, self.cs, self.b, self.n)
    }
}

/// Output rows of one [`gemm`] register block.
const MR: usize = 2;

/// Output columns of one [`gemm`] register block: with `MR` this is 8
/// AVX2 (16 SSE2/NEON) accumulator registers, kept across the whole `k`
/// loop.
const NR: usize = 16;

/// Output rows whose `k`-chains run interleaved in the column tail.
const TR: usize = 8;

/// The one kernel body, instantiated per backend.
///
/// No zero-skip is needed when every `A` and `b` entry is finite, which
/// is checked once per call. A zero `A` entry's product is then a signed
/// zero, and under round-to-nearest a sum is `−0.0` only if both addends
/// are, so an accumulator that starts at `+0.0` is never `−0.0` and
/// adding a signed zero leaves it bit-unchanged: skipping and adding
/// agree. No product is NaN either, so an add never meets two NaNs, whose
/// result's payload would depend on the operand order the compiler picks.
/// Then blocks of `MR` rows (then a single row) sweep the `NR`-column
/// blocks ([`gemm_block`]), and groups of `TR` rows (then 4, then single
/// rows) sweep the `n % NR` tail columns ([`gemm_tail`]). An infinite or
/// NaN entry anywhere sends every element through [`gemm_skipping`].
#[inline(always)]
fn gemm_body(out: &mut [f64], a: &[f64], rs: usize, cs: usize, b: &[f64], n: usize) {
    let (m, k) = (out.len() / n, b.len() / n);
    if m == 0 {
        return;
    }
    // every A entry the product reads lies in this span
    let span = &a[..(m - 1) * rs + (k - 1) * cs + 1];
    if !(all_finite(b) && all_finite(span)) {
        return gemm_skipping(out, a, rs, cs, b, n);
    }
    let nb = n - n % NR;
    let mut i = 0;
    if nb > 0 {
        while i + MR <= m {
            gemm_block::<MR>(&mut out[i * n..(i + MR) * n], &a[i * rs..], rs, cs, b, n, nb);
            i += MR;
        }
        if i < m {
            gemm_block::<1>(&mut out[i * n..(i + 1) * n], &a[i * rs..], rs, cs, b, n, nb);
        }
    }
    if nb < n {
        i = 0;
        while i + TR <= m {
            gemm_tail::<TR>(&mut out[i * n..(i + TR) * n], &a[i * rs..], rs, cs, b, n, nb);
            i += TR;
        }
        if i + 4 <= m {
            gemm_tail::<4>(&mut out[i * n..(i + 4) * n], &a[i * rs..], rs, cs, b, n, nb);
            i += 4;
        }
        while i < m {
            gemm_tail::<1>(&mut out[i * n..(i + 1) * n], &a[i * rs..], rs, cs, b, n, nb);
            i += 1;
        }
    }
}

/// `R` output rows: every `NR`-column block below `nb` keeps its
/// `R × NR` accumulators in registers across the whole `k` loop.
#[inline(always)]
fn gemm_block<const R: usize>(
    out: &mut [f64],
    a: &[f64],
    rs: usize,
    cs: usize,
    b: &[f64],
    n: usize,
    nb: usize,
) {
    let k = b.len() / n;
    for j in (0..nb).step_by(NR) {
        let mut acc = [[0.0f64; NR]; R];
        for kk in 0..k {
            let brow = &b[kk * n + j..kk * n + j + NR];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = a[r * rs + kk * cs];
                for (o, &bv) in acc_r.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[r * n + j..r * n + j + NR].copy_from_slice(acc_r);
        }
    }
}

/// `R` output rows of the columns from `nb` on (the `n×32 · 32×1` score
/// and readout products, and their `Aᵀ·d` backward): one accumulator per
/// row, so the `R` rows' `k`-chains are in flight at once instead of one
/// after the other. Each of [`gemm`]'s two layouts gets a loop whose
/// slices carry their own bounds: through `matmul_tn` (`rs == 1`) the `R`
/// entries of a `k` step are contiguous and load as vectors; through
/// `matmul` (`cs == 1`) each row is one slice of length `k`.
#[inline(always)]
fn gemm_tail<const R: usize>(
    out: &mut [f64],
    a: &[f64],
    rs: usize,
    cs: usize,
    b: &[f64],
    n: usize,
    nb: usize,
) {
    let k = b.len() / n;
    for j in nb..n {
        let mut acc = [0.0f64; R];
        if rs == 1 {
            for kk in 0..k {
                let bv = b[kk * n + j];
                for (o, &av) in acc.iter_mut().zip(&a[kk * cs..kk * cs + R]) {
                    *o += av * bv;
                }
            }
        } else {
            let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * rs..r * rs + k]);
            for kk in 0..k {
                let bv = b[kk * n + j];
                for (o, row) in acc.iter_mut().zip(&rows) {
                    *o += row[kk] * bv;
                }
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            out[r * n + j] = v;
        }
    }
}

/// The reference sequence, element by element, skipping exact-zero `A`
/// entries: the path for an `A` or `b` holding an infinity or a NaN. Kept
/// out of the per-backend builds (see [`Kernel`]), so where two NaNs meet
/// the bits are one build's on every backend.
#[inline(never)]
fn gemm_skipping(out: &mut [f64], a: &[f64], rs: usize, cs: usize, b: &[f64], n: usize) {
    let k = b.len() / n;
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (j, o) in orow.iter_mut().enumerate() {
            let mut s = 0.0;
            for kk in 0..k {
                let av = a[i * rs + kk * cs];
                // privim-lint: allow(float-eq, reason = "exact-zero skip: 0.0 · b contributes nothing, so skipping only IEEE zeros is lossless")
                if av != 0.0 {
                    s += av * b[kk * n + j];
                }
            }
            *o = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_pat(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761 + salt * 40503) % 1000) as f64 / 37.0 - 13.0)
            .collect()
    }

    /// Infinities, NaNs of both signs and several payloads, and one
    /// signalling NaN (quiet bit clear).
    const SPECIALS: [u64; 8] = [
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0xfff8_0000_0000_0000,
        0x7ff8_0000_0000_0bad,
        0xfffc_0000_dead_0000,
        0x7ffa_5a5a_0000_0001,
        0x7ff4_0000_0000_0001,
    ];

    /// `vec_pat(n, salt)` with a special value at every `(salt + 1)`-th
    /// entry, so NaNs of different bits meet in the elementwise adds, in
    /// the reduction lanes, their combine and the tail.
    fn vec_special(n: usize, salt: u64) -> Vec<f64> {
        let mut v = vec_pat(n, salt);
        for (j, e) in v.iter_mut().step_by(salt as usize + 1).enumerate() {
            *e = f64::from_bits(SPECIALS[(j + salt as usize) % SPECIALS.len()]);
        }
        v
    }

    fn with_backend<T>(c: Choice, f: impl FnOnce() -> T) -> T {
        set_backend(Some(c));
        let out = f();
        set_backend(None);
        out
    }

    /// Every kernel's output bits under backend `c`: the reductions of
    /// `x` and `y`, `axpy(y, a, x)`, `add_assign(y, x)` and `scale(x, a)`.
    fn kernel_bits(c: Choice, x: &[f64], y: &[f64], a: f64) -> [(&'static str, Vec<u64>); 7] {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        with_backend(c, || {
            let mut axpy_y = y.to_vec();
            axpy(&mut axpy_y, a, x);
            let mut add_y = y.to_vec();
            add_assign(&mut add_y, x);
            let mut scale_x = x.to_vec();
            scale(&mut scale_x, a);
            [
                ("sum x", vec![sum(x).to_bits()]),
                ("sum y", vec![sum(y).to_bits()]),
                ("sumsq x", vec![sumsq(x).to_bits()]),
                ("sumsq y", vec![sumsq(y).to_bits()]),
                ("axpy", bits(&axpy_y)),
                ("add_assign", bits(&add_y)),
                ("scale", bits(&scale_x)),
            ]
        })
    }

    #[test]
    fn every_backend_is_bit_identical_to_scalar() {
        let nan = |b: u64| f64::from_bits(b);
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 257] {
            let finite = (vec_pat(n, 1), vec_pat(n, 2), vec![1.75]);
            let special = (vec_special(n, 1), vec_special(n, 2), SPECIALS.map(nan).to_vec());
            for (x, y, scalars) in [finite, special] {
                for a in scalars.into_iter().chain([0.3, -0.0]) {
                    let want = kernel_bits(Choice::Scalar, &x, &y, a);
                    for c in [Choice::Auto] {
                        for ((name, got), (_, w)) in kernel_bits(c, &x, &y, a).iter().zip(&want) {
                            assert_eq!(got, w, "{name} {c:?} n={n} a={:#x}", a.to_bits());
                        }
                    }
                }
            }
            // the elementwise kernels compute the plain scalar formula
            let (x, y) = (vec_pat(n, 1), vec_pat(n, 2));
            let [.., (_, axpy_y), (_, add_y), (_, scale_x)] = kernel_bits(Choice::Scalar, &x, &y, 0.3);
            for (i, (&xi, &yi)) in x.iter().zip(&y).enumerate() {
                assert_eq!(axpy_y[i], (yi + 0.3 * xi).to_bits(), "axpy n={n}");
                assert_eq!(add_y[i], (yi + xi).to_bits(), "add_assign n={n}");
                assert_eq!(scale_x[i], (xi * 0.3).to_bits(), "scale n={n}");
            }
        }
    }

    #[test]
    fn all_finite_finds_every_infinity_and_nan() {
        assert!(all_finite(&[]));
        for len in [1, 7, 8, 9, 17, 70] {
            let mut x = vec_pat(len, 3);
            x[0] = f64::MAX;
            x[len - 1] = -5e-324;
            assert!(all_finite(&x), "len {len}");
            for pos in 0..len {
                for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN] {
                    let keep = std::mem::replace(&mut x[pos], bad);
                    assert!(!all_finite(&x), "len {len}: {bad} at {pos}");
                    x[pos] = keep;
                }
            }
        }
    }

    #[test]
    fn reduction_uses_the_documented_lane_order_not_sequential_sum() {
        // A vector engineered so sequential summation differs in the last
        // bit from the 4-lane contract — proves we pinned the *contract*,
        // not whatever the compiler emitted.
        let a = vec![1.0, 1e-16, 1e-16, 1e-16, 1.0, 1e-16, 1e-16, 1e-16];
        let lanes = {
            let mut l = [0.0f64; 4];
            for c in a.chunks(4) {
                for (j, &x) in c.iter().enumerate() {
                    l[j] += x;
                }
            }
            (l[0] + l[2]) + (l[1] + l[3])
        };
        assert_eq!(sum(&a).to_bits(), lanes.to_bits());
    }

    #[test]
    fn env_parse_accepts_the_documented_values() {
        assert_eq!(parse_choice("scalar"), Choice::Scalar);
        assert_eq!(parse_choice("AVX2"), Choice::Auto);
        assert_eq!(parse_choice("auto"), Choice::Auto);
        assert_eq!(parse_choice("mystery"), Choice::Auto);
    }

    #[test]
    fn active_resolves_to_a_supported_backend() {
        let b = active();
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b, Backend::Scalar);
        assert!(!b.name().is_empty());
        assert!(!detected_features().is_empty());
    }
}
