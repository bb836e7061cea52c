//! Kernel micro-benchmarks: the first point of the perf trajectory.
//!
//! Times the tensor primitives the DP-SGD hot path bottoms out in —
//! `Matrix::matmul`, `Matrix::transpose`, `Csr::spmm`, `Csr::spmm_transpose`,
//! the `simd` reduction `sum` and the DP-SGD clip loop — in
//! several configurations per kernel:
//!
//! * **naive** — the pre-tiling seed kernel (re-implemented here verbatim),
//! * **per backend** — the current kernel pinned to each SIMD backend the
//!   CPU supports (`scalar` always, then `avx2` if detected),
//!   serial (`set_threads(1)`),
//! * **serial** — the current kernel under the default (`PRIVIM_SIMD`
//!   env / auto) backend at 1 thread: the per-backend row of that build,
//!   not a second run of it,
//! * **par4** — the same on the persistent pool at `set_threads(4)`.
//!
//! Before any timing, every kernel's output is asserted *bit-identical*
//! across backends and thread counts (and against its naive reference
//! where one exists) — a benchmark of a wrong kernel is worse than no
//! benchmark. This is the determinism contract of `privim_tensor::simd`
//! (DESIGN.md §14) being re-proved on the bench's own inputs.
//!
//! The rest time the DP-SGD step's own shapes: `matvec` (the `n×32 ·
//! 32×1` score and readout product, which runs the kernel's
//! row-interleaved column tail) on a full graph and on one 70-node
//! sample, that sample's dense products (`h·W`, `hᵀ·d` and its width-1
//! form `hᵀ·g` through `matmul_tn`, and `d·Wᵀ`), `matmul` at 512 and 1024
//! rows (either side of `MIN_PAR_WORK`, where `par4` starts to pay),
//! `transpose` at 2^15 and 2^16 elements (either side of
//! `MIN_PAR_TRANSPOSE`), `attend` (one GRAT attention layer's forward at
//! n = 70 and on the Facebook-calibrated graph, against the arc-order
//! scatter it replaced), `attend_backward` (that layer's backward at
//! n = 70, against a naive copy of its scalar loops), and
//! `grat_sample_grad`, one paper-default GRAT forward plus backward under
//! the Eq. 5 loss on a train-star-sized (35 nodes) and a train-hp-sized
//! (6 nodes) subgraph, on the scratch tape as the trainer runs it.
//!
//! `ic_spread` times the serve-metered-miss influence query
//! (`ic_spread_estimate` on BA(4000, 3), 3 seeds, 16 runs, 2 steps) on unit
//! weights, where it runs one exact cascade, and on 0.5 weights, where it
//! runs the Monte-Carlo loop; naive = that loop written out over
//! `ic_simulate_once`, asserted bit-equal to both.
//!
//! `bundle_snapshot` times one journal-compaction snapshot of a metered
//! serving bundle (a paper-default model on that BA(4000, 3) graph, four
//! tenants): naive = the `Value`-tree pack the server ran per compaction
//! before the snapshot head was cached (copied below), measured = a
//! cached `BundleWriter`, whose document is asserted equal to the naive
//! one byte for byte before timing.
//!
//! All wall-clock reads go through `privim_rt::bench::time_iters` (the
//! workspace's single timing point, per the `wall-clock` lint rule).
//!
//! ```text
//! cargo run --release -p privim-bench --bin bench_kernels              # full, writes BENCH_kernels.json
//! cargo run --release -p privim-bench --bin bench_kernels -- --smoke  # tiny sizes, no file output
//! ```

use privim::loss::{im_loss, LossConfig};
use privim::trainer::{sample_gradient, TrainItem};
use privim_gnn::{node_features, GnnConfig, GnnModel, GraphTensors};
use privim_graph::datasets::Dataset;
use privim_graph::{generators, Graph, NodeId};
use privim_im::{ic_simulate_once, ic_spread_estimate};
use privim_rt::bench::time_iters;
use privim_rt::json::Value;
use privim_rt::{crc, ChaCha8Rng, Rng, SeedableRng};
use privim_serve::bundle::{graph_fingerprint, BundleWriter, PackedBundle, PrivacyStatement, BUNDLE_FORMAT, BUNDLE_VERSION};
use privim_serve::{LedgerConfig, LedgerState};
use privim_tensor::attention::{self, Arcs};
use privim_tensor::{simd, GradClip, Matrix, SparseMatrix, Tape};

/// Seed-era dense kernel: plain `i → k → j` scalar loop with the zero-skip.
/// Term order per output element is k-ascending, exactly like the blocked
/// kernel — so the two must agree bitwise, not just approximately.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kx in 0..k {
            let aik = a.get(i, kx);
            // exact zero-skip mirrors the production kernel so the
            // bit-identity assertion is meaningful
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(kx);
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// Seed-era transpose: the plain double loop. A transpose is a pure
/// permutation, so any implementation is bit-identical by construction.
fn naive_transpose(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut out = Matrix::zeros(n, m);
    for i in 0..m {
        for (j, &v) in a.row(i).iter().enumerate() {
            out.row_mut(j)[i] = v;
        }
    }
    out
}

/// Seed-era `S·D` kernel: per output row, gather source rows in CSR
/// column order — the elementwise accumulation order the production spmm
/// preserves (its `axpy` never reassociates across elements).
fn naive_spmm(s: &SparseMatrix, dense: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.rows(), dense.cols());
    for r in 0..s.rows() {
        let (cols, vals) = s.row(r);
        let orow = out.row_mut(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &dv) in orow.iter_mut().zip(dense.row(c as usize)) {
                *o += v * dv;
            }
        }
    }
    out
}

/// Seed-era `Aᵀ·D` kernel: scatter rows of `dense` into the output, source
/// rows ascending — the accumulation order the cached-transpose spmm
/// reproduces.
fn naive_spmm_transpose(s: &SparseMatrix, dense: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.cols(), dense.cols());
    for r in 0..s.rows() {
        let (cols, vals) = s.row(r);
        let drow: Vec<f64> = dense.row(r).to_vec();
        for (&c, &v) in cols.iter().zip(vals) {
            let orow = out.row_mut(c as usize);
            for (o, &dv) in orow.iter_mut().zip(&drow) {
                *o += v * dv;
            }
        }
    }
    out
}

/// The GRAT attention forward as it was before the gather: leaky-ReLU
/// scores in arc order, the per-source softmax as three passes over the
/// whole arc list, and the scatter `agg[dst_i] += α_i · hw[src_i]` in arc
/// order. Returns `[agg, α]`.
fn naive_attend(hw: &Matrix, s_dst: &Matrix, s_src: &Matrix, src: &[u32], dst: &[u32]) -> Vec<Matrix> {
    let n = hw.rows();
    let mut alpha: Vec<f64> = src
        .iter()
        .zip(dst)
        .map(|(&s, &d)| {
            let v = s_dst.data()[d as usize] + s_src.data()[s as usize];
            if v > 0.0 {
                v
            } else {
                0.2 * v
            }
        })
        .collect();
    let (mut max, mut sum) = (vec![f64::NEG_INFINITY; n], vec![0.0; n]);
    for (&v, &g) in alpha.iter().zip(src) {
        max[g as usize] = max[g as usize].max(v);
    }
    for (v, &g) in alpha.iter_mut().zip(src) {
        *v = (*v - max[g as usize]).exp();
        sum[g as usize] += *v;
    }
    for (v, &g) in alpha.iter_mut().zip(src) {
        *v /= sum[g as usize];
    }
    let mut agg = Matrix::zeros(n, hw.cols());
    for ((&s, &d), &a) in src.iter().zip(dst).zip(&alpha) {
        for (o, &v) in agg.row_mut(d as usize).iter_mut().zip(hw.row(s as usize)) {
            *o += a * v;
        }
    }
    vec![agg, Matrix::from_vec(alpha.len(), 1, alpha)]
}

/// The attention backward as it was before its finite-`g` fast path: the
/// scalar loops of `attention::attend_backward`, with the exact-zero skip
/// in the `∂a_dst`/`∂a_src` sums. Returns `[∂hw | ∂a_dst | ∂a_src]`
/// flattened into one row for GRAT's source normalisation, upstream `d`.
fn naive_attend_backward(
    hw: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    arcs: &Arcs,
    d: &Matrix,
) -> Matrix {
    let (s_dst, s_src) = (naive_matmul(hw, a_dst), naive_matmul(hw, a_src));
    let (src, dst) = (arcs.src(), arcs.dst());
    let alpha = &naive_attend(hw, &s_dst, &s_src, src, dst)[1];
    let alpha = alpha.data();
    let mut g: Vec<f64> = src
        .iter()
        .zip(dst)
        .map(|(&s, &t)| {
            let (dr, hr) = (d.row(t as usize), hw.row(s as usize));
            dr.iter().zip(hr).fold(0.0, |acc, (&dv, &h)| acc + (0.0 + dv) * h)
        })
        .collect();
    let mut dot = vec![0.0; hw.rows()];
    for ((&k, &gi), &a) in src.iter().zip(&g).zip(alpha) {
        dot[k as usize] += gi * a;
    }
    for (i, gi) in g.iter_mut().enumerate() {
        let ds = alpha[i] * (*gi - dot[src[i] as usize]);
        let raw = s_dst.data()[dst[i] as usize] + s_src.data()[src[i] as usize];
        *gi = if raw > 0.0 { ds } else { 0.2 * ds };
    }
    let mut ga_dst = vec![0.0; hw.cols()];
    let mut ga_src = vec![0.0; hw.cols()];
    for ((&s, &t), &gi) in src.iter().zip(dst).zip(&g) {
        for (acc, row) in [(&mut ga_dst, t), (&mut ga_src, s)] {
            for (o, &v) in acc.iter_mut().zip(hw.row(row as usize)) {
                if v != 0.0 {
                    *o += v * gi;
                }
            }
        }
    }
    let mut dhw = Matrix::zeros(hw.rows(), hw.cols());
    for (&t, &gi) in dst.iter().zip(&g) {
        for (o, &a) in dhw.row_mut(t as usize).iter_mut().zip(a_dst.data()) {
            *o += 0.0 + gi * a;
        }
    }
    for (i, (&s, &t)) in src.iter().zip(dst).enumerate() {
        let row = dhw.row_mut(s as usize);
        for ((o, &dv), &a) in row.iter_mut().zip(d.row(t as usize)).zip(a_src.data()) {
            *o += (0.0 + dv) * alpha[i] + (0.0 + g[i] * a);
        }
    }
    let flat: Vec<f64> = dhw.data().iter().chain(&ga_dst).chain(&ga_src).copied().collect();
    Matrix::from_vec(1, flat.len(), flat)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect(),
    )
}

/// A case's output: one matrix, or several (a gradient list).
trait Output {
    fn matrices(&self) -> Vec<&Matrix>;
}

impl Output for Matrix {
    fn matrices(&self) -> Vec<&Matrix> {
        vec![self]
    }
}

impl Output for Vec<Matrix> {
    fn matrices(&self) -> Vec<&Matrix> {
        self.iter().collect()
    }
}

fn assert_bit_identical(name: &str, a: &impl Output, b: &impl Output) {
    let (a, b) = (a.matrices(), b.matrices());
    assert_eq!(a.len(), b.len(), "{name}: output count mismatch");
    for (k, (a, b)) in a.into_iter().zip(b).enumerate() {
        assert_eq!(a.shape(), b.shape(), "{name}: shape mismatch in output {k}");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name}: bit mismatch in output {k} at flat index {i}: {x:?} vs {y:?}"
            );
        }
    }
}

/// The builds this CPU can actually run: `scalar` always, then `avx2`
/// if `auto` resolves to it.
fn available_backends() -> Vec<(simd::Choice, &'static str)> {
    let mut v: Vec<(simd::Choice, &'static str)> = vec![(simd::Choice::Scalar, "scalar")];
    simd::set_backend(Some(simd::Choice::Auto));
    if simd::active() == simd::Backend::Avx2 {
        v.push((simd::Choice::Auto, "avx2"));
    }
    simd::set_backend(None);
    v
}

struct CaseResult {
    name: String,
    shape: String,
    naive_secs: Option<f64>,
    /// Serial (1-thread) seconds per iteration, per pinned backend.
    backend_secs: Vec<(&'static str, f64)>,
    /// Serial under the default (env/auto) backend resolution.
    serial_secs: f64,
    par4_secs: f64,
    note: Option<&'static str>,
}

impl CaseResult {
    fn scalar_secs(&self) -> Option<f64> {
        self.backend_secs
            .iter()
            .find(|(n, _)| *n == "scalar")
            .map(|&(_, s)| s)
    }

    fn best_simd_secs(&self) -> Option<f64> {
        self.backend_secs
            .iter()
            .filter(|(n, _)| *n != "scalar")
            .map(|&(_, s)| s)
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.min(s))))
    }

    fn to_json(&self) -> Value {
        let speedup_tiling = self.naive_secs.map(|n| n / self.serial_secs);
        let speedup_simd = match (self.scalar_secs(), self.best_simd_secs()) {
            (Some(sc), Some(best)) => Some(sc / best),
            _ => None,
        };
        let mut fields = vec![
            ("kernel", Value::Str(self.name.clone())),
            ("shape", Value::Str(self.shape.clone())),
            (
                "naive_secs_per_iter",
                self.naive_secs.map_or(Value::Null, Value::Num),
            ),
            (
                "backend_secs_per_iter",
                Value::Obj(
                    self.backend_secs
                        .iter()
                        .map(|&(n, s)| (n.to_string(), Value::Num(s)))
                        .collect(),
                ),
            ),
            ("serial_secs_per_iter", Value::Num(self.serial_secs)),
            ("par4_secs_per_iter", Value::Num(self.par4_secs)),
            (
                "speedup_serial_vs_naive",
                speedup_tiling.map_or(Value::Null, Value::Num),
            ),
            (
                "speedup_simd_vs_scalar",
                speedup_simd.map_or(Value::Null, Value::Num),
            ),
            (
                "speedup_par4_vs_serial",
                Value::Num(self.serial_secs / self.par4_secs),
            ),
        ];
        if let Some(note) = self.note {
            fields.push(("note", Value::Str(note.to_string())));
        }
        Value::obj(fields)
    }
}

/// Time `f` under every available SIMD backend (serial) and under the
/// default backend at 4 threads, and optionally a naive reference —
/// asserting every configuration bit-identical first. The serial time is
/// the default backend's own row, not a second run of the same build.
fn run_case<T: Output>(
    name: &str,
    shape: String,
    iters: u64,
    naive: Option<&dyn Fn() -> T>,
    f: &dyn Fn() -> T,
    note: Option<&'static str>,
) -> CaseResult {
    privim_rt::par::set_threads(1);
    simd::set_backend(Some(simd::Choice::Scalar));
    let scalar_out = f();
    if let Some(naive) = naive {
        assert_bit_identical(name, &naive(), &scalar_out);
    }
    let mut backend_secs: Vec<(&'static str, f64)> = Vec::new();
    for (choice, bname) in available_backends() {
        simd::set_backend(Some(choice));
        assert_bit_identical(name, &f(), &scalar_out);
        backend_secs.push((bname, time_iters(iters, f)));
    }
    simd::set_backend(None);
    privim_rt::par::set_threads(4);
    assert_bit_identical(name, &f(), &scalar_out);

    let naive_secs = naive.map(|naive| {
        privim_rt::par::set_threads(1);
        time_iters(iters, naive)
    });
    let serial_secs = backend_secs
        .iter()
        .find(|(b, _)| *b == simd::active().name())
        .map_or_else(|| time_iters(iters, f), |&(_, secs)| secs);
    privim_rt::par::set_threads(4);
    let par4_secs = time_iters(iters, f);
    privim_rt::par::set_threads(0); // back to auto

    let result = CaseResult {
        name: name.to_string(),
        shape,
        naive_secs,
        backend_secs,
        serial_secs,
        par4_secs,
        note,
    };
    println!(
        "{:<24} {:>11} {:>11} {:>11} {:>11}   x{:.2} simd, x{:.2} par4",
        format!("{name} {}", result.shape),
        result.naive_secs.map_or_else(|| "-".into(), fmt_secs),
        result.scalar_secs().map_or_else(|| "-".into(), fmt_secs),
        fmt_secs(result.serial_secs),
        fmt_secs(result.par4_secs),
        result
            .scalar_secs()
            .zip(result.best_simd_secs())
            .map_or(1.0, |(sc, best)| sc / best),
        result.serial_secs / result.par4_secs,
    );
    result
}

/// A seeded BA graph as a training item with `n` nodes, `m` edges per
/// arrival, and a paper-default GRAT model.
fn grat_sample(n: usize, m: usize, rng: &mut ChaCha8Rng) -> (TrainItem, GnnModel) {
    let g = generators::barabasi_albert(n, m, rng);
    let model = GnnModel::new(GnnConfig::paper_default(), rng);
    let item = TrainItem {
        gt: GraphTensors::new(&g),
        x: node_features(&g),
    };
    (item, model)
}

/// One sample's DP-SGD gradient as the trainer takes it, before clipping:
/// the trainer's own per-sample gradient under the Eq. 5 loss.
fn sample_grad((item, model): &(TrainItem, GnnModel)) -> Vec<Matrix> {
    let config = LossConfig::paper_default();
    sample_gradient(model, item, &|t, gt, p| im_loss(t, gt, p, &config)).0
}

/// serve-metered-miss's influence query: 16 runs of at most 2 steps.
const SPREAD_RUNS: usize = 16;
const SPREAD_STEPS: Option<usize> = Some(2);

/// The Monte-Carlo mean written out: run `i` on
/// `ChaCha8Rng::seed_from_u64(i)`.
fn naive_ic_spread(g: &Graph, seeds: &[NodeId]) -> Matrix {
    let total: usize = (0..SPREAD_RUNS as u64)
        .map(|i| ic_simulate_once(g, seeds, SPREAD_STEPS, &mut ChaCha8Rng::seed_from_u64(i)))
        .sum();
    Matrix::full(1, 1, total as f64 / SPREAD_RUNS as f64)
}

fn ic_spread(g: &Graph, seeds: &[NodeId]) -> Matrix {
    let spread = ic_spread_estimate(g, seeds, SPREAD_STEPS, SPREAD_RUNS, 0);
    Matrix::full(1, 1, spread)
}

/// The bundle document as the server packed every compaction snapshot
/// before `BundleWriter`: fingerprint the graph, build the payload's
/// `Value` tree (every edge included), serialize it for the CRC, then
/// serialize the whole document.
fn naive_bundle_snapshot(model: &GnnModel, privacy: &PrivacyStatement, g: &Graph, ledger: &LedgerState) -> String {
    let edges: Vec<Value> = g
        .arcs()
        .filter(|&(u, v, _)| g.is_directed() || u <= v)
        .map(|(u, v, w)| Value::Arr(vec![Value::Num(u as f64), Value::Num(v as f64), Value::Num(w)]))
        .collect();
    let payload = Value::obj(vec![
        ("model", model.checkpoint_payload()),
        (
            "privacy",
            Value::obj(vec![
                ("epsilon", privacy.epsilon.map(Value::Num).unwrap_or(Value::Null)),
                ("delta", Value::Num(privacy.delta)),
                ("sigma", Value::Num(privacy.sigma)),
                ("steps", Value::Num(privacy.steps as f64)),
            ]),
        ),
        (
            "graph",
            Value::obj(vec![
                ("num_nodes", Value::Num(g.num_nodes() as f64)),
                ("directed", Value::Bool(g.is_directed())),
                ("edges", Value::Arr(edges)),
            ]),
        ),
        ("graph_fingerprint", Value::Str(format!("{:#018x}", graph_fingerprint(g)))),
        ("ledger", ledger.to_json()),
    ]);
    let crc = crc::crc32(payload.to_json_string().as_bytes());
    Value::obj(vec![
        ("format", Value::Str(BUNDLE_FORMAT.to_string())),
        ("version", Value::Num(BUNDLE_VERSION as f64)),
        ("crc32", Value::Str(format!("{crc:#010x}"))),
        ("payload", payload),
    ])
    .to_json_string()
}

/// One compaction snapshot from the cached writer.
fn bundle_snapshot(writer: &BundleWriter, ledger: &LedgerState) -> PackedBundle {
    writer.pack(Some(ledger))
}

fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else {
        format!("{:.2} ms", secs * 1e3)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned(),
            other => {
                eprintln!("error: unknown flag {other} (flags: --smoke, --out <path>)");
                std::process::exit(2);
            }
        }
    }
    // Smoke mode exists for CI: prove the harness and the bit-identity
    // assertions hold, in well under a second, without touching the
    // checked-in trajectory file.
    let (iters, mm, tr, gn, gm, dc, rv, cm) = if smoke {
        (2u64, 48usize, 64usize, 300usize, 4usize, 8usize, 4096usize, 32usize)
    } else {
        (20, 256, 512, 20_000, 8, 32, 1_000_000, 256)
    };
    if !smoke && out.is_none() {
        out = Some("BENCH_kernels.json".to_string());
    }

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = random_matrix(mm, mm, &mut rng);
    let b = random_matrix(mm, mm, &mut rng);
    let t = random_matrix(tr, tr, &mut rng);
    let g = generators::barabasi_albert(gn, gm, &mut rng);
    let adj = SparseMatrix::from_triplets(
        gn,
        gn,
        (0..gn as u32).flat_map(|u| {
            g.out_neighbors(u)
                .iter()
                .map(move |&v| (u as usize, v as usize, 1.0))
        }),
    );
    let h = random_matrix(gn, dc, &mut rng);
    // spmm_transpose caches its transpose on first use; build it before
    // timing so every configuration measures the product, not the setup.
    let _ = adj.spmm_transpose(&h);
    let xv = random_matrix(1, rv, &mut rng);
    let grads: Vec<Matrix> = (0..2).map(|_| random_matrix(cm, cm, &mut rng)).collect();
    let hw = random_matrix(gn, 32, &mut rng);
    let a_vec = random_matrix(32, 1, &mut rng);
    // One train-star-sized sample's dense products: post-ReLU activations
    // `h` (about half exact zeros, which the kernel's zero-skip sees), the
    // layer weight `w`, and an upstream gradient `d` with the same zeros.
    let ps = 70;
    let ph = random_matrix(ps, 32, &mut rng).map(|x| x.max(0.0));
    let pw = random_matrix(32, 32, &mut rng);
    let pd = random_matrix(ps, 32, &mut rng).hadamard(&ph.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
    let (pm512, pm1024) = (random_matrix(512, 32, &mut rng), random_matrix(1024, 32, &mut rng));
    let pv = random_matrix(32, 1, &mut rng);
    let pg = random_matrix(ps, 1, &mut rng);
    // One n = 70 GRAT attention layer: arcs with self-loops, scores wide
    // enough that α is far from uniform, and a masked upstream gradient.
    let att = GraphTensors::new(&generators::barabasi_albert(ps, 2, &mut rng));
    let att_arcs = att.arcs().clone();
    let (ahw, ad) = (random_matrix(ps, 32, &mut rng), pd.clone());
    let (a_dst, a_src) = (random_matrix(32, 1, &mut rng).scale(4.0), random_matrix(32, 1, &mut rng).scale(4.0));
    let mut att_tape = Tape::new();
    let att_vars = [att_tape.leaf(ahw.clone()), att_tape.leaf(a_dst.clone()), att_tape.leaf(a_src.clone())];
    let agg = att_tape.attend(att_vars[0], att_vars[1], att_vars[2], att_arcs.clone(), false);
    let upstream = att_tape.constant(ad.clone());
    let weighted = att_tape.mul(agg, upstream);
    let att_loss = att_tape.sum(weighted);
    let star = grat_sample(35, 2, &mut rng);
    let hp = grat_sample(6, 1, &mut rng);
    let arcs = |s: &(TrainItem, GnnModel)| format!("n={} E={}", s.0.gt.n, s.0.gt.arcs().len());
    // One GRAT attention layer's forward from its per-node scores, at
    // n = 70 and on the Facebook-calibrated graph
    let att_scores = (ahw.matmul(&a_dst), ahw.matmul(&a_src));
    let fb = GraphTensors::new(&Dataset::Facebook.generate_scaled(if smoke { 0.03 } else { 1.0 }, &mut rng));
    let fb_hw = random_matrix(fb.n, 32, &mut rng);
    let fb_scores = (fb_hw.matmul(&a_dst), fb_hw.matmul(&a_src));
    let attend_old = |hw: &Matrix, (s_dst, s_src): &(Matrix, Matrix), arcs: &Arcs| {
        naive_attend(hw, s_dst, s_src, arcs.src(), arcs.dst())
    };
    let attend_new = |hw: &Matrix, (s_dst, s_src): &(Matrix, Matrix), arcs: &Arcs| {
        let (agg, alpha) = attention::attend(hw, s_dst, s_src, arcs, false);
        vec![agg, alpha]
    };
    // serve-metered-miss's influence query on the serving graph that
    // `privim-serve pack` builds (BA(n, 3), unit weights), and the same
    // query once every weight is 0.5
    let ba = generators::barabasi_albert(if smoke { 300 } else { 4000 }, 3, &mut rng);
    let spread_seeds: Vec<NodeId> = (0..3)
        .map(|_| rng.gen_range(0..ba.num_nodes() as NodeId))
        .collect();
    let ba_unit = ba.clone().with_uniform_weights(1.0);
    let ba_half = ba.with_uniform_weights(0.5);
    let t_below = random_matrix(tr / 4, tr / 2, &mut rng);
    let t_at = random_matrix(tr / 2, tr / 2, &mut rng);
    // A metered serving bundle on `ba_unit` (the serve-metered-miss graph
    // shape), with four tenants part-way through their budgets
    let snap_model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let snap_privacy = PrivacyStatement { epsilon: Some(3.0), delta: 1e-4, sigma: 1.7, steps: 80 };
    let mut snap_ledger = LedgerState::new(LedgerConfig {
        epsilon_budget: 4.0,
        delta: 1e-5,
        query_sigma: 30.0,
        retry_after_secs: 60,
    });
    for t in 0..4u64 {
        snap_ledger.tenants.insert(format!("tenant-{t}"), 1_000 + 37 * t);
    }
    let snap_writer = BundleWriter::new(&snap_model, &snap_privacy, &ba_unit, graph_fingerprint(&ba_unit));
    let snap_naive = || naive_bundle_snapshot(&snap_model, &snap_privacy, &ba_unit, &snap_ledger);
    assert!(
        bundle_snapshot(&snap_writer, &snap_ledger).as_bytes() == snap_naive().as_bytes(),
        "bundle_snapshot: the cached writer's document differs from the Value-tree pack"
    );

    println!(
        "{:<24} {:>11} {:>11} {:>11} {:>11}",
        "kernel", "naive", "scalar", "serial", "par4"
    );
    let results = vec![
        run_case(
            "matmul",
            format!("{mm}x{mm}x{mm}"),
            iters,
            Some(&|| naive_matmul(&a, &b)),
            &|| a.matmul(&b),
            None,
        ),
        run_case(
            "transpose",
            format!("{tr}x{tr}"),
            iters,
            Some(&|| naive_transpose(&t)),
            &|| t.transpose(),
            Some(
                "pure permutation, memory-bound: backends are at parity by design — \
                 there is no arithmetic to vectorize",
            ),
        ),
        run_case(
            "transpose",
            format!("{}x{}", tr / 4, tr / 2),
            iters * 10,
            Some(&|| naive_transpose(&t_below)),
            &|| t_below.transpose(),
            Some("2^15 elements in the full run, below MIN_PAR_TRANSPOSE: par4 runs the serial loop"),
        ),
        run_case(
            "transpose",
            format!("{}x{}", tr / 2, tr / 2),
            iters * 10,
            Some(&|| naive_transpose(&t_at)),
            &|| t_at.transpose(),
            Some("2^16 elements in the full run, MIN_PAR_TRANSPOSE: the smallest transpose par4 splits onto the pool"),
        ),
        run_case(
            "spmm",
            format!("nnz={} x{dc}", adj.nnz()),
            iters,
            Some(&|| naive_spmm(&adj, &h)),
            &|| adj.spmm(&h),
            Some("short rows (x32): gather-bound, SIMD gains are modest by design"),
        ),
        run_case(
            "spmm_transpose",
            format!("nnz={} x{dc}", adj.nnz()),
            iters,
            Some(&|| naive_spmm_transpose(&adj, &h)),
            &|| adj.spmm_transpose(&h),
            Some("short rows (x32): gather-bound, SIMD gains are modest by design"),
        ),
        run_case(
            "sum",
            format!("n={rv}"),
            iters,
            None,
            &|| Matrix::full(1, 1, simd::sum(xv.data())),
            Some(
                "at n=1e6 the stream comes from DRAM: memory-bound, backends near parity (smoke's cache-resident n shows the compute-bound speedup)",
            ),
        ),
        run_case(
            "clip_loop",
            format!("2x{cm}x{cm}"),
            iters,
            None,
            &|| {
                // DP-SGD per-step clip: global L2 norm (sumsq reduction)
                // then in-place rescale. The defensive copy is part of
                // every configuration equally.
                let mut g = grads.clone();
                GradClip::clip(&mut g, 1.0);
                g.swap_remove(0)
            },
            Some("includes a per-iteration copy of the gradient list (both columns pay it)"),
        ),
        run_case(
            "matvec",
            format!("{gn}x32x1"),
            iters,
            Some(&|| naive_matmul(&hw, &a_vec)),
            &|| hw.matmul(&a_vec),
            Some("width-1 output takes the kernel's row-interleaved column tail: scalar chains, backends near parity"),
        ),
        run_case(
            "matmul",
            format!("{ps}x32x32"),
            iters * 500,
            Some(&|| naive_matmul(&ph, &pw)),
            &|| ph.matmul(&pw),
            Some("per-sample forward h·W: one register-blocked gemm call"),
        ),
        run_case(
            "matmul",
            "512x32x32".to_string(),
            iters * 50,
            Some(&|| naive_matmul(&pm512, &pw)),
            &|| pm512.matmul(&pw),
            Some("2^19 multiply-adds, below MIN_PAR_WORK (serial at par4): pool dispatch was within noise of serial here"),
        ),
        run_case(
            "matmul",
            "1024x32x32".to_string(),
            iters * 50,
            Some(&|| naive_matmul(&pm1024, &pw)),
            &|| pm1024.matmul(&pw),
            Some("2^20 multiply-adds, MIN_PAR_WORK: the first size split onto the pool, where par4 won every run"),
        ),
        run_case(
            "matmul_tn",
            format!("{ps}x32ᵀ·{ps}x32"),
            iters * 500,
            Some(&|| naive_matmul(&naive_transpose(&ph), &pd)),
            &|| ph.matmul_tn(&pd),
            Some("per-sample weight gradient hᵀ·d: the kernel reads h by column, no transpose"),
        ),
        run_case(
            "matvec",
            format!("{ps}x32x1"),
            iters * 500,
            Some(&|| naive_matmul(&ph, &pv)),
            &|| ph.matmul(&pv),
            Some("per-sample score/readout product h·a: the kernel's row-interleaved column tail"),
        ),
        run_case(
            "matmul_tn",
            format!("{ps}x32ᵀ·{ps}x1"),
            iters * 500,
            Some(&|| naive_matmul(&naive_transpose(&ph), &pg)),
            &|| ph.matmul_tn(&pg),
            Some("per-sample score/readout weight gradient hᵀ·g: the column tail reading h by column"),
        ),
        run_case(
            "attend",
            format!("n={ps} E={}", att_arcs.len()),
            iters * 200,
            Some(&|| attend_old(&ahw, &att_scores, &att_arcs)),
            &|| attend_new(&ahw, &att_scores, &att_arcs),
            Some("one GRAT attention layer's forward from its scores: naive = the arc-order scatter it replaced"),
        ),
        run_case(
            "attend",
            format!("n={} E={}", fb.n, fb.arcs().len()),
            iters,
            Some(&|| attend_old(&fb_hw, &fb_scores, fb.arcs())),
            &|| attend_new(&fb_hw, &fb_scores, fb.arcs()),
            Some("the same on the Facebook-calibrated graph, as full-graph scoring runs it"),
        ),
        run_case(
            "attend_backward",
            format!("n={ps} E={}", att_arcs.len()),
            iters * 200,
            Some(&|| naive_attend_backward(&ahw, &a_dst, &a_src, &att_arcs, &ad)),
            &|| {
                // the tape's backward through sum and mul hands attend
                // exactly `ad` (1.0 · ad) as its upstream gradient
                let grads = att_tape.backward(att_loss);
                let flat: Vec<f64> = att_vars.iter().flat_map(|&v| grads.wrt(v).data().to_vec()).collect();
                Matrix::from_vec(1, flat.len(), flat)
            },
            Some("one GRAT attention layer's backward (Tape::attend), plus the sum/mul backward feeding it"),
        ),
        run_case(
            "matmul_d_wt",
            format!("{ps}x32·(32x32)ᵀ"),
            iters * 500,
            Some(&|| naive_matmul(&pd, &naive_transpose(&pw))),
            &|| pd.matmul(&pw.transpose()),
            Some("per-sample input gradient d·Wᵀ, including the 32x32 transpose of W"),
        ),
        run_case(
            "grat_sample_grad",
            arcs(&star),
            iters * 50,
            None,
            &|| sample_grad(&star),
            Some("train-star shape: one 3-layer GRAT forward + backward, Eq. 5 loss"),
        ),
        run_case(
            "grat_sample_grad",
            arcs(&hp),
            iters * 50,
            None,
            &|| sample_grad(&hp),
            Some("train-hp shape: one 3-layer GRAT forward + backward, Eq. 5 loss"),
        ),
        run_case(
            "ic_spread",
            format!("n={} w=1 runs={SPREAD_RUNS} j=2", ba_unit.num_nodes()),
            iters * 50,
            Some(&|| naive_ic_spread(&ba_unit, &spread_seeds)),
            &|| ic_spread(&ba_unit, &spread_seeds),
            Some("serve-metered-miss influence query on unit weights: one exact cascade, no draws"),
        ),
        run_case(
            "ic_spread",
            format!("n={} w=0.5 runs={SPREAD_RUNS} j=2", ba_half.num_nodes()),
            iters * 50,
            Some(&|| naive_ic_spread(&ba_half, &spread_seeds)),
            &|| ic_spread(&ba_half, &spread_seeds),
            Some("the same query on 0.5 weights: the Monte-Carlo loop after a few draw-free arcs"),
        ),
        run_case(
            "bundle_snapshot",
            format!("n={} E={} tenants=4", ba_unit.num_nodes(), ba_unit.num_arcs()),
            iters,
            Some(&|| Matrix::full(1, 1, snap_naive().len() as f64)),
            &|| Matrix::full(1, 1, bundle_snapshot(&snap_writer, &snap_ledger).as_bytes().len() as f64),
            Some("one compaction snapshot of a metered bundle: naive = the Value-tree pack, measured = the cached BundleWriter (bytes asserted equal first); outputs compared here are document lengths"),
        ),
    ];

    if let Some(path) = out {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Value::obj(vec![
            ("bench", Value::Str("kernels".to_string())),
            ("iters", Value::Num(iters as f64)),
            ("available_parallelism", Value::Num(cpus as f64)),
            ("simd_backend", Value::Str(simd::active().name().to_string())),
            ("simd_features", Value::Str(simd::detected_features())),
            (
                "note",
                Value::Str(
                    "secs/iter means over fixed iterations; backend_secs_per_iter pins each \
                     SIMD backend serially; par4 = persistent pool at set_threads(4); \
                     speedups are hardware-dependent (see EXPERIMENTS.md)"
                        .to_string(),
                ),
            ),
            (
                "cases",
                Value::Arr(results.iter().map(CaseResult::to_json).collect()),
            ),
        ]);
        privim::results::write_atomic(&path, &doc.to_json_string_pretty())
            .unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("wrote {path}");
    }
}
