//! SIMD backend for the dense inner loops, under a cross-backend
//! determinism contract.
//!
//! Every kernel here exists in (up to) four implementations — scalar,
//! SSE2, AVX2 on x86-64, NEON on AArch64 — selected at runtime behind one
//! [`Backend`] dispatch (`PRIVIM_SIMD={auto,avx2,sse2,neon,scalar}`, or
//! [`set_backend`] for in-process tests). The contract that makes the
//! selection *invisible to results*:
//!
//! * **Elementwise kernels** ([`axpy`], [`add_assign`], [`scale`]) compute
//!   each output element from exactly the operations the scalar loop
//!   performs (`y[i] + a * x[i]` — separate IEEE-754 multiply and add,
//!   never a fused multiply-add), so lanes only change *which elements go
//!   together through the ALU*, not any element's value.
//! * **Reductions** ([`sum`], [`dot`], [`sumsq`]) use **fixed-width
//!   virtual lane accumulators**: 4 × `f64` lanes where lane `j`
//!   accumulates elements `j, j+4, j+8, …` in ascending order, a fixed
//!   final combine `(l0 + l2) + (l1 + l3)`, then the `len % 4` tail added
//!   sequentially. The scalar backend materialises the same four
//!   accumulators; SSE2/NEON split them across two 2-lane registers
//!   (`[l0,l1]`,`[l2,l3]`) whose vertical add + horizontal fold produces
//!   the identical combine; AVX2 holds all four in one register and
//!   extracts low/high halves the same way.
//! * **The dense product** ([`gemm`]) gives each output element the
//!   sequence of the plain zero-skipping loop: `+0.0`, then its terms in
//!   ascending `k`, each a multiply then an add. It is one portable body,
//!   compiled per backend through `#[target_feature]`.
//! * **Portable bodies** (the crate-internal `Kernel` trait and
//!   `dispatch`): a loop nest written once in plain Rust and compiled per
//!   backend the same way — `gemm`, and the attention forward scatter and
//!   backward. The compiler only vectorizes across independent elements
//!   and never fuses or reassociates, so each element's operations are
//!   those of the scalar loop. Only finite inputs take the per-backend
//!   builds; an infinity or a NaN sends the call to one build shared by
//!   every backend, because where two NaNs of different bits meet, the
//!   result follows the operand order a build happens to pick.
//!
//! Together: results are bit-identical across `PRIVIM_SIMD` settings,
//! thread counts and architectures — pinned by `tests/determinism.rs`.
//! The hand-written elementwise kernels are the one exception left: an
//! `axpy` or `add_assign` that adds two NaNs of different bits may return
//! either one, depending on the build.
//!
//! All loads are unaligned-tolerant (`loadu`); the allocation side
//! ([`crate::pool`]) hands out 64-byte-aligned buffers so the unaligned
//! opcodes never actually cross into the slow split-load path.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Requested backend (what the user asked for).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Pick the widest backend the CPU supports.
    Auto,
    /// Force the scalar (4-virtual-lane) reference implementation.
    Scalar,
    /// Force SSE2 (falls back to scalar if undetected).
    Sse2,
    /// Force AVX2 (falls back to scalar if undetected).
    Avx2,
    /// Force NEON (falls back to scalar off AArch64).
    Neon,
}

/// Resolved backend (what will actually run). Every variant is only ever
/// returned when the corresponding CPU feature was runtime-detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable 4-virtual-lane scalar kernels.
    Scalar,
    /// 2×f64 SSE2 registers (two per virtual accumulator group).
    Sse2,
    /// 4×f64 AVX2 registers.
    Avx2,
    /// 2×f64 NEON registers.
    Neon,
}

impl Backend {
    /// Stable lowercase name (bench metadata, logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
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
        Choice::Sse2 => 3,
        Choice::Avx2 => 4,
        Choice::Neon => 5,
    }
}

/// Override the backend for this process (tests; `None` restores the
/// `PRIVIM_SIMD` env resolution). Takes effect on the next kernel call.
pub fn set_backend(choice: Option<Choice>) {
    OVERRIDE.store(choice.map(encode).unwrap_or(0), Ordering::SeqCst);
}

/// Parse a `PRIVIM_SIMD` value. Unknown strings resolve to `Auto`: the
/// contract makes every backend bit-identical, so a typo can only cost
/// speed, never correctness — and `Auto` is the fast safe default.
fn parse_choice(s: &str) -> Choice {
    match s.to_ascii_lowercase().as_str() {
        "scalar" => Choice::Scalar,
        "sse2" => Choice::Sse2,
        "avx2" => Choice::Avx2,
        "neon" => Choice::Neon,
        _ => Choice::Auto,
    }
}

fn requested() -> Choice {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Choice::Auto,
        2 => Choice::Scalar,
        3 => Choice::Sse2,
        4 => Choice::Avx2,
        5 => Choice::Neon,
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
    let req = requested();
    #[cfg(target_arch = "x86_64")]
    {
        return match req {
            Choice::Scalar | Choice::Neon => Backend::Scalar,
            Choice::Avx2 => {
                if is_x86_feature_detected!("avx2") {
                    Backend::Avx2
                } else {
                    Backend::Scalar
                }
            }
            Choice::Sse2 => {
                if is_x86_feature_detected!("sse2") {
                    Backend::Sse2
                } else {
                    Backend::Scalar
                }
            }
            Choice::Auto => {
                if is_x86_feature_detected!("avx2") {
                    Backend::Avx2
                } else if is_x86_feature_detected!("sse2") {
                    Backend::Sse2
                } else {
                    Backend::Scalar
                }
            }
        };
    }
    #[cfg(target_arch = "aarch64")]
    {
        return match req {
            Choice::Scalar | Choice::Sse2 | Choice::Avx2 => Backend::Scalar,
            Choice::Neon | Choice::Auto => {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    Backend::Neon
                } else {
                    Backend::Scalar
                }
            }
        };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = req;
        Backend::Scalar
    }
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
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            feats.push("neon");
        }
    }
    if feats.is_empty() {
        "none".to_string()
    } else {
        feats.join("+")
    }
}

// ---------------------------------------------------------------------
// axpy: y[i] += a * x[i]  (elementwise — trivially backend-invariant)
// ---------------------------------------------------------------------

/// `y[i] += a * x[i]`. The SpMM, attention-scatter and optimizer inner loop.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { axpy_avx2(y, a, x) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { axpy_sse2(y, a, x) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            return unsafe { axpy_neon(y, a, x) };
        }
    }
    axpy_scalar(y, a, x)
}

fn axpy_scalar(y: &mut [f64], a: f64, x: &[f64]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += a * v;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect avx2; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_avx2(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n4 = n & !3;
    let av = _mm256_set1_pd(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n4 {
        let yv = _mm256_loadu_pd(yp.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        // mul then add (no FMA): same two roundings as the scalar loop
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
        i += 4;
    }
    for j in n4..n {
        y[j] += a * x[j];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect sse2; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_sse2(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let av = _mm_set1_pd(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        let yv = _mm_loadu_pd(yp.add(i));
        let xv = _mm_loadu_pd(xp.add(i));
        _mm_storeu_pd(yp.add(i), _mm_add_pd(yv, _mm_mul_pd(av, xv)));
        i += 2;
    }
    for j in n2..n {
        y[j] += a * x[j];
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect neon; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_neon(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::aarch64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let av = vdupq_n_f64(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        let yv = vld1q_f64(yp.add(i));
        let xv = vld1q_f64(xp.add(i));
        // vmulq + vaddq, not vfmaq: keep the scalar's two-rounding result
        vst1q_f64(yp.add(i), vaddq_f64(yv, vmulq_f64(av, xv)));
        i += 2;
    }
    for j in n2..n {
        y[j] += a * x[j];
    }
}

// ---------------------------------------------------------------------
// add_assign: y[i] += x[i]
// ---------------------------------------------------------------------

/// `y[i] += x[i]` (gradient summation, noise addition).
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { add_assign_avx2(y, x) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { add_assign_sse2(y, x) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernels never index past the shorter slice")
            return unsafe { add_assign_neon(y, x) };
        }
    }
    add_assign_scalar(y, x)
}

fn add_assign_scalar(y: &mut [f64], x: &[f64]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_avx2(y: &mut [f64], x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n4 = n & !3;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n4 {
        _mm256_storeu_pd(
            yp.add(i),
            _mm256_add_pd(_mm256_loadu_pd(yp.add(i)), _mm256_loadu_pd(xp.add(i))),
        );
        i += 4;
    }
    for j in n4..n {
        y[j] += x[j];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_sse2(y: &mut [f64], x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        _mm_storeu_pd(
            yp.add(i),
            _mm_add_pd(_mm_loadu_pd(yp.add(i)), _mm_loadu_pd(xp.add(i))),
        );
        i += 2;
    }
    for j in n2..n {
        y[j] += x[j];
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_neon(y: &mut [f64], x: &[f64]) {
    use std::arch::aarch64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        vst1q_f64(yp.add(i), vaddq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i))));
        i += 2;
    }
    for j in n2..n {
        y[j] += x[j];
    }
}

// ---------------------------------------------------------------------
// scale: y[i] *= a
// ---------------------------------------------------------------------

/// `y[i] *= a` (gradient clipping, weight decay).
pub fn scale(y: &mut [f64], a: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { scale_avx2(y, a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { scale_sse2(y, a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            return unsafe { scale_neon(y, a) };
        }
    }
    scale_scalar(y, a)
}

fn scale_scalar(y: &mut [f64], a: f64) {
    for o in y.iter_mut() {
        *o *= a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below y.len()")
unsafe fn scale_avx2(y: &mut [f64], a: f64) {
    use std::arch::x86_64::*;
    let n = y.len();
    let n4 = n & !3;
    let av = _mm256_set1_pd(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n4 {
        _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(_mm256_loadu_pd(yp.add(i)), av));
        i += 4;
    }
    for j in n4..n {
        y[j] *= a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below y.len()")
unsafe fn scale_sse2(y: &mut [f64], a: f64) {
    use std::arch::x86_64::*;
    let n = y.len();
    let n2 = n & !1;
    let av = _mm_set1_pd(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n2 {
        _mm_storeu_pd(yp.add(i), _mm_mul_pd(_mm_loadu_pd(yp.add(i)), av));
        i += 2;
    }
    for j in n2..n {
        y[j] *= a;
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below y.len()")
unsafe fn scale_neon(y: &mut [f64], a: f64) {
    use std::arch::aarch64::*;
    let n = y.len();
    let n2 = n & !1;
    let av = vdupq_n_f64(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n2 {
        vst1q_f64(yp.add(i), vmulq_f64(vld1q_f64(yp.add(i)), av));
        i += 2;
    }
    for j in n2..n {
        y[j] *= a;
    }
}

// ---------------------------------------------------------------------
// Reductions: 4-virtual-lane accumulators, fixed combine (l0+l2)+(l1+l3)
// ---------------------------------------------------------------------

/// Sum of all elements under the 4-lane virtual accumulator contract.
pub fn sum(a: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { sum_avx2(a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { sum_sse2(a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            return unsafe { sum_neon(a) };
        }
    }
    sum_scalar(a)
}

/// The reference 4-lane reduction every SIMD backend must reproduce.
fn sum_scalar(a: &[f64]) -> f64 {
    let n4 = a.len() & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i];
        l[1] += a[i + 1];
        l[2] += a[i + 2];
        l[3] += a[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below a.len()")
unsafe fn sum_avx2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut acc = _mm256_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(p.add(i)));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
    let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
    let v = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below a.len()")
unsafe fn sum_sse2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut a01 = _mm_setzero_pd(); // lanes 0,1
    let mut a23 = _mm_setzero_pd(); // lanes 2,3
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = _mm_add_pd(a01, _mm_loadu_pd(p.add(i)));
        a23 = _mm_add_pd(a23, _mm_loadu_pd(p.add(i + 2)));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23); // [l0+l2, l1+l3]
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below a.len()")
unsafe fn sum_neon(a: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n4 = a.len() & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = vaddq_f64(a01, vld1q_f64(p.add(i)));
        a23 = vaddq_f64(a23, vld1q_f64(p.add(i + 2)));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for &x in &a[n4..] {
        t += x;
    }
    t
}

/// Dot product `Σ a[i]·b[i]` under the 4-lane contract.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { dot_avx2(a, b) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { dot_sse2(a, b) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernels never index past the shorter slice")
            return unsafe { dot_neon(a, b) };
        }
    }
    dot_scalar(a, b)
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i] * b[i];
        l[1] += a[i + 1] * b[i + 1];
        l[2] += a[i + 2] * b[i + 2];
        l[3] += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below min(len)")
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc = _mm256_setzero_pd();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        // mul then add (no FMA) to match the scalar lanes bit-for-bit
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i))));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let v = _mm_add_pd(lo, hi);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below min(len)")
unsafe fn dot_sse2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut a01 = _mm_setzero_pd();
    let mut a23 = _mm_setzero_pd();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = _mm_add_pd(a01, _mm_mul_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i))));
        a23 = _mm_add_pd(a23, _mm_mul_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2))));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below min(len)")
unsafe fn dot_neon(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = vaddq_f64(a01, vmulq_f64(vld1q_f64(pa.add(i)), vld1q_f64(pb.add(i))));
        a23 = vaddq_f64(a23, vmulq_f64(vld1q_f64(pa.add(i + 2)), vld1q_f64(pb.add(i + 2))));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

/// Sum of squares `Σ a[i]²` under the 4-lane contract (the DP-SGD
/// gradient-norm primitive; callers take `.sqrt()`).
pub fn sumsq(a: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { sumsq_avx2(a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { sumsq_sse2(a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            return unsafe { sumsq_neon(a) };
        }
    }
    sumsq_scalar(a)
}

fn sumsq_scalar(a: &[f64]) -> f64 {
    let n4 = a.len() & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i] * a[i];
        l[1] += a[i + 1] * a[i + 1];
        l[2] += a[i + 2] * a[i + 2];
        l[3] += a[i + 3] * a[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_avx2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut acc = _mm256_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v = _mm256_loadu_pd(p.add(i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let v = _mm_add_pd(lo, hi);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_sse2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut a01 = _mm_setzero_pd();
    let mut a23 = _mm_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v0 = _mm_loadu_pd(p.add(i));
        let v1 = _mm_loadu_pd(p.add(i + 2));
        a01 = _mm_add_pd(a01, _mm_mul_pd(v0, v0));
        a23 = _mm_add_pd(a23, _mm_mul_pd(v1, v1));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_neon(a: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n4 = a.len() & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v0 = vld1q_f64(p.add(i));
        let v1 = vld1q_f64(p.add(i + 2));
        a01 = vaddq_f64(a01, vmulq_f64(v0, v0));
        a23 = vaddq_f64(a23, vmulq_f64(v1, v1));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

// ---------------------------------------------------------------------
// Portable loop bodies, compiled once per backend
// ---------------------------------------------------------------------

/// A loop nest written once in plain Rust and compiled once per backend
/// by [`dispatch`], whose `#[target_feature]` wrappers the body is
/// inlined into (so `run` must be `#[inline(always)]`). The compiler then
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
/// is the architecture's one default NaN. So a body is only dispatched on
/// finite inputs ([`all_finite`]); inputs holding an infinity or a NaN go
/// to [`run_baseline`], one build shared by every backend.
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
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; the kernel body is safe code with checked indexing")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { run_avx2(k) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; the kernel body is safe code with checked indexing")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { run_sse2(k) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path, so the target_feature contract holds; the kernel body is safe code with checked indexing")
            return unsafe { run_neon(k) };
        }
    }
    k.run()
}

/// Run `k` compiled once for the baseline target, whatever the active
/// backend: the path for a [`Kernel`] whose inputs are not all finite.
#[inline(never)]
pub(crate) fn run_baseline<K: Kernel>(k: K) -> K::Output {
    k.run()
}

/// Whether every entry of `x` is finite. `v · 0` is a signed zero for a
/// finite `v` and NaN for an infinity or a NaN, so eight running sums of
/// it stay finite exactly when every entry is. The baseline target has no
/// 64-bit integer compare for the vectorized `is_finite`, and these float
/// sums ran about 2.4× faster than it on 2 240 entries.
pub(crate) fn all_finite(x: &[f64]) -> bool {
    let mut acc = [0.0f64; 8];
    let chunks = x.chunks_exact(8);
    let rest = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v * 0.0;
        }
    }
    acc.iter().chain(rest).fold(0.0, |s, &v| s + v * 0.0).is_finite()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; the body is safe code, so every access is bounds-checked")
unsafe fn run_avx2<K: Kernel>(k: K) -> K::Output {
    k.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; the body is safe code, so every access is bounds-checked")
unsafe fn run_sse2<K: Kernel>(k: K) -> K::Output {
    k.run()
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; the body is safe code, so every access is bounds-checked")
unsafe fn run_neon<K: Kernel>(k: K) -> K::Output {
    k.run()
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

    fn backends_under_test() -> Vec<Choice> {
        // Exercise every choice; unsupported ones resolve to scalar, which
        // still checks the dispatcher paths.
        vec![Choice::Scalar, Choice::Sse2, Choice::Avx2, Choice::Neon, Choice::Auto]
    }

    fn with_backend<T>(c: Choice, f: impl FnOnce() -> T) -> T {
        set_backend(Some(c));
        let out = f();
        set_backend(None);
        out
    }

    #[test]
    fn every_backend_is_bit_identical_to_scalar() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 257] {
            let a = vec_pat(n, 1);
            let b = vec_pat(n, 2);
            let want_sum = with_backend(Choice::Scalar, || sum(&a));
            let want_dot = with_backend(Choice::Scalar, || dot(&a, &b));
            let want_sq = with_backend(Choice::Scalar, || sumsq(&a));
            let want_axpy = with_backend(Choice::Scalar, || {
                let mut y = b.clone();
                axpy(&mut y, 1.75, &a);
                y
            });
            for c in backends_under_test() {
                assert_eq!(with_backend(c, || sum(&a)).to_bits(), want_sum.to_bits(), "sum {c:?} n={n}");
                assert_eq!(with_backend(c, || dot(&a, &b)).to_bits(), want_dot.to_bits(), "dot {c:?} n={n}");
                assert_eq!(with_backend(c, || sumsq(&a)).to_bits(), want_sq.to_bits(), "sumsq {c:?} n={n}");
                let got = with_backend(c, || {
                    let mut y = b.clone();
                    axpy(&mut y, 1.75, &a);
                    y
                });
                for (g, w) in got.iter().zip(&want_axpy) {
                    assert_eq!(g.to_bits(), w.to_bits(), "axpy {c:?} n={n}");
                }
                let got_add = with_backend(c, || {
                    let mut y = b.clone();
                    add_assign(&mut y, &a);
                    y
                });
                let want_add: Vec<f64> = b.iter().zip(&a).map(|(&x, &y)| x + y).collect();
                for (g, w) in got_add.iter().zip(&want_add) {
                    assert_eq!(g.to_bits(), w.to_bits(), "add_assign {c:?} n={n}");
                }
                let got_scale = with_backend(c, || {
                    let mut y = a.clone();
                    scale(&mut y, 0.3);
                    y
                });
                for (g, &w) in got_scale.iter().zip(&a) {
                    assert_eq!(g.to_bits(), (w * 0.3).to_bits(), "scale {c:?} n={n}");
                }
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
        assert_eq!(parse_choice("AVX2"), Choice::Avx2);
        assert_eq!(parse_choice("sse2"), Choice::Sse2);
        assert_eq!(parse_choice("neon"), Choice::Neon);
        assert_eq!(parse_choice("auto"), Choice::Auto);
        assert_eq!(parse_choice("mystery"), Choice::Auto);
    }

    #[test]
    fn active_resolves_to_a_supported_backend() {
        let b = active();
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, Backend::Neon);
        #[cfg(target_arch = "aarch64")]
        assert!(matches!(b, Backend::Neon | Backend::Scalar));
        assert!(!b.name().is_empty());
        assert!(!detected_features().is_empty());
    }
}
