//! Determinism regression tests: the same seed must produce bit-identical
//! results regardless of the worker-thread count — and, since the SIMD
//! layer landed, regardless of the `PRIVIM_SIMD` backend. The runtime's
//! parallel primitives chunk contiguously, every Monte-Carlo loop seeds
//! its RNG per item, and every SIMD kernel follows the fixed 4-lane
//! accumulator contract (DESIGN.md §14), so neither thread scheduling nor
//! register width can reorder a single floating-point operation.

use privim::maxcut::maxcut_loss;
use privim::pipeline::{run_method, EvalSetup, Method, PipelineParams};
use privim::trainer::{train_dpgnn, train_dpgnn_with, DpSgdConfig, TrainItem};
use privim_gnn::{GnnConfig, GnnKind, GnnModel};
use privim_graph::{generators, induced_subgraph};
use privim_im::ic_spread_estimate;
use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
use privim_sampling::{freq_sampling, FreqConfig};
use privim_tensor::{simd, Matrix, SparseMatrix};
use std::sync::Mutex;

/// Tests in this file flip the process-global thread override and must not
/// interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    privim_rt::par::set_threads(n);
    let out = f();
    privim_rt::par::set_threads(0); // back to the environment default
    out
}

/// Pin the SIMD backend and thread count for the duration of `f`, then
/// restore both to their environment defaults.
fn with_backend_and_threads<T>(
    choice: simd::Choice,
    threads: usize,
    f: impl FnOnce() -> T,
) -> T {
    simd::set_backend(Some(choice));
    let out = with_threads(threads, f);
    simd::set_backend(None);
    out
}

#[test]
fn training_trajectory_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let g = generators::barabasi_albert(250, 4, &mut rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let cfg = FreqConfig {
        subgraph_size: 12,
        return_prob: 0.3,
        decay: 1.0,
        sampling_rate: 1.0,
        walk_len: 120,
        threshold: 6,
    };
    let sets = freq_sampling(&g, &mut freq, &cfg, &mut rng).unwrap();
    let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();

    let train_cfg = DpSgdConfig::paper_default(0.8, 6);
    // The same loop under two objectives: the Eq. 5 IM loss and Max-Cut.
    let run = |threads: usize, maxcut: bool| {
        with_threads(threads, || {
            let items = TrainItem::from_container(&subs);
            let mut model = GnnModel::new(
                GnnConfig {
                    kind: GnnKind::Grat,
                    layers: 2,
                    hidden: 8,
                    in_dim: privim_gnn::FEATURE_DIM,
                },
                &mut ChaCha8Rng::seed_from_u64(7),
            );
            let report = if maxcut {
                train_dpgnn_with(&mut model, &items, &train_cfg, |t, gt, p| {
                    maxcut_loss(t, gt, p, 0.5)
                })
            } else {
                train_dpgnn(&mut model, &items, &train_cfg)
            };
            (report.unwrap().loss_trace, model.params().to_vec())
        })
    };

    for maxcut in [false, true] {
        let (trace1, params1) = run(1, maxcut);
        for threads in [2, 4, 8] {
            let (trace_n, params_n) = run(threads, maxcut);
            assert_eq!(
                trace1, trace_n,
                "loss trajectory diverged at {threads} threads (maxcut: {maxcut})"
            );
            assert_eq!(
                params1, params_n,
                "parameters diverged at {threads} threads (maxcut: {maxcut})"
            );
        }
    }
}

#[test]
fn pipeline_seed_set_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = generators::barabasi_albert(300, 4, &mut rng).with_uniform_weights(1.0);
    let mut params = PipelineParams::paper_defaults(g.num_nodes());
    params.iters = 10;
    params.batch = 8;
    params.hidden = 16;
    let setup = EvalSetup::with_params(&g, 10, params, &mut ChaCha8Rng::seed_from_u64(5));

    let run = |threads: usize| {
        with_threads(threads, || {
            run_method(Method::PrivImStar { epsilon: 3.0 }, &setup, 0).unwrap()
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        let out = run(threads);
        assert_eq!(
            base.seeds, out.seeds,
            "seed set diverged at {threads} threads"
        );
        assert_eq!(
            base.final_loss.to_bits(),
            out.final_loss.to_bits(),
            "final loss diverged at {threads} threads"
        );
        assert_eq!(base.spread, out.spread);
        assert_eq!(base.sigma, out.sigma);
    }
}

#[test]
fn monte_carlo_estimates_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let g = generators::barabasi_albert(150, 3, &mut rng).with_weighted_cascade();
    let seeds = [0u32, 3, 9];
    let base = with_threads(1, || ic_spread_estimate(&g, &seeds, None, 500, 21));
    for threads in [2, 4, 8] {
        let est = with_threads(threads, || ic_spread_estimate(&g, &seeds, None, 500, 21));
        assert_eq!(
            base.to_bits(),
            est.to_bits(),
            "MC estimate diverged at {threads} threads"
        );
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect(),
    )
}

fn assert_bits_eq(name: &str, threads: usize, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} diverged at {threads} threads: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn tensor_kernels_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    // Big enough that every kernel crosses its parallel-dispatch threshold
    // (1100·64·55 multiply-adds ≥ MIN_PAR_WORK, 1100·64 entries ≥
    // MIN_PAR_TRANSPOSE).
    let a = random_matrix(1100, 64, &mut rng);
    let b = random_matrix(64, 55, &mut rng);
    let g = generators::barabasi_albert(2000, 4, &mut rng).with_uniform_weights(0.5);
    let adj = SparseMatrix::from_triplets(
        2000,
        2000,
        (0..2000u32).flat_map(|u| {
            g.out_neighbors(u)
                .iter()
                .map(move |&v| (u as usize, v as usize, 0.5))
        }),
    );
    let h = random_matrix(2000, 40, &mut rng);

    let base = with_threads(1, || {
        (
            a.matmul(&b),
            a.transpose(),
            adj.spmm(&h),
            adj.spmm_transpose(&h),
        )
    });
    for threads in [2, 7] {
        let (mm, tr, sp, spt) = with_threads(threads, || {
            (
                a.matmul(&b),
                a.transpose(),
                adj.spmm(&h),
                adj.spmm_transpose(&h),
            )
        });
        assert_bits_eq("matmul", threads, &base.0, &mm);
        assert_bits_eq("transpose", threads, &base.1, &tr);
        assert_bits_eq("spmm", threads, &base.2, &sp);
        assert_bits_eq("spmm_transpose", threads, &base.3, &spt);
    }
}

#[test]
fn single_trainer_step_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(57);
    let g = generators::barabasi_albert(200, 4, &mut rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let cfg = FreqConfig {
        subgraph_size: 12,
        return_prob: 0.3,
        decay: 1.0,
        sampling_rate: 1.0,
        walk_len: 120,
        threshold: 6,
    };
    let sets = freq_sampling(&g, &mut freq, &cfg, &mut rng).unwrap();
    let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
    let train_cfg = DpSgdConfig {
        iters: 1,
        ..DpSgdConfig::paper_default(0.8, 6)
    };
    // GCN, and GAT: the one path with target-normalised attention and
    // the self-features skip (GRAT runs in the trajectory and SIMD sweeps)
    let step = |kind: GnnKind, threads: usize| {
        with_threads(threads, || {
            let items = TrainItem::from_container(&subs);
            let mut model = GnnModel::new(
                GnnConfig {
                    kind,
                    layers: 2,
                    hidden: 8,
                    in_dim: privim_gnn::FEATURE_DIM,
                },
                &mut ChaCha8Rng::seed_from_u64(3),
            );
            train_dpgnn(&mut model, &items, &train_cfg).unwrap();
            model.params().to_vec()
        })
    };
    for kind in [GnnKind::Gcn, GnnKind::Gat] {
        let base = step(kind, 1);
        for threads in [2, 7] {
            let params = step(kind, threads);
            assert_eq!(base, params, "{kind:?} step diverged at {threads} threads");
        }
    }
}

#[test]
fn pool_survives_thread_count_changes_mid_process() {
    let _guard = THREADS_LOCK.lock().unwrap();
    // Ratchet the override up and down repeatedly; the persistent pool must
    // keep serving correct (and identical) results through every change.
    let items: Vec<u64> = (0..500).collect();
    let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
    for &threads in &[1, 5, 2, 9, 1, 3, 7, 2] {
        let out = with_threads(threads, || privim_rt::par::map(&items, |&x| x * 3 + 1));
        assert_eq!(out, expect, "pool broke after switching to {threads} threads");
    }
}

#[test]
fn par_primitives_preserve_order_at_any_width() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let items: Vec<u64> = (0..1000).collect();
    let base = with_threads(1, || privim_rt::par::map(&items, |&x| x * x));
    for threads in [2, 3, 7, 16] {
        let out = with_threads(threads, || privim_rt::par::map(&items, |&x| x * x));
        assert_eq!(base, out, "map order diverged at {threads} threads");
        let sum = with_threads(threads, || privim_rt::par::sum_range(1000, |i| i as u64));
        assert_eq!(sum, 999 * 1000 / 2);
    }
}

#[test]
fn bfs_partition_assigns_every_node_exactly_once_at_any_width() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = generators::barabasi_albert(400, 4, &mut rng).with_uniform_weights(1.0);
    let base = with_threads(1, || privim_graph::partition::bfs_partition(&g, 7));
    // totality + exactly-once: every node carries exactly one real part id,
    // and the per-part node lists cover each node once.
    assert_eq!(base.part_of.len(), g.num_nodes());
    assert!(base.part_of.iter().all(|&p| p < base.num_parts));
    let mut seen = vec![0u32; g.num_nodes()];
    for part in base.part_nodes() {
        for &v in &part {
            seen[v as usize] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c == 1), "a node was dropped or double-assigned");
    // bit-identical partitions regardless of the worker-thread override
    for threads in [2, 4, 7, 8] {
        let p = with_threads(threads, || privim_graph::partition::bfs_partition(&g, 7));
        assert_eq!(p.part_of, base.part_of, "partition diverged at {threads} threads");
    }
}

#[test]
fn partition_shard_merge_preserves_the_edge_multiset() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let g = generators::barabasi_albert(300, 3, &mut rng).with_uniform_weights(1.0);
    let p = privim_graph::partition::bfs_partition(&g, 5);
    let shards = privim_graph::partition::partition_subgraphs(&g, &p);

    // Map every shard arc back to parent ids and merge; the multiset must
    // be exactly the parent arcs whose endpoints share a part (weights
    // compared by bit pattern — no tolerance).
    let mut merged: Vec<(u32, u32, u64)> = shards
        .iter()
        .flat_map(|s| {
            s.graph
                .arcs()
                .map(|(u, v, w)| (s.original[u as usize], s.original[v as usize], w.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect();
    merged.sort_unstable();
    let mut intra: Vec<(u32, u32, u64)> = g
        .arcs()
        .filter(|&(u, v, _)| p.part_of[u as usize] == p.part_of[v as usize])
        .map(|(u, v, w)| (u, v, w.to_bits()))
        .collect();
    intra.sort_unstable();
    assert_eq!(merged, intra, "shard merge lost or duplicated arcs");
    // intra + cut partitions the arc set
    let cut = g
        .arcs()
        .filter(|&(u, v, _)| p.part_of[u as usize] != p.part_of[v as usize])
        .count();
    assert_eq!(intra.len() + cut, g.num_arcs());

    // The materialised shards are bit-identical across thread counts too.
    let base_arcs: Vec<Vec<(u32, u32, u64)>> = shards
        .iter()
        .map(|s| s.graph.arcs().map(|(u, v, w)| (u, v, w.to_bits())).collect())
        .collect();
    for threads in [2, 8] {
        let again = with_threads(threads, || {
            let p = privim_graph::partition::bfs_partition(&g, 5);
            privim_graph::partition::partition_subgraphs(&g, &p)
        });
        let arcs: Vec<Vec<(u32, u32, u64)>> = again
            .iter()
            .map(|s| s.graph.arcs().map(|(u, v, w)| (u, v, w.to_bits())).collect())
            .collect();
        assert_eq!(arcs, base_arcs, "shards diverged at {threads} threads");
    }
}

/// The recovery-replay contract (DESIGN.md §13): the recovered ledger is
/// a pure function of the journal bytes. The same bytes — including a
/// CRC-corrupted record (kept, ambiguous) and a torn tail (dropped) —
/// must replay to a bit-identical ledger and identical replay stats at
/// every thread count, so two replicas recovering the same journal can
/// never disagree on a tenant's spend.
#[test]
fn wal_replay_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    use privim_serve::wal;

    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut journal = Vec::new();
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    for _ in 0..40 {
        let t = format!("tenant-{}", rng.gen::<u64>() % 5);
        let q = counts.entry(t.clone()).or_insert(0);
        *q += 1 + rng.gen::<u64>() % 3;
        let q = *q;
        wal::append_record(&mut journal, &t, q).unwrap();
    }
    // One mid-journal CRC flip (ambiguous record: kept) and a torn tail
    // (dropped) — the stress cases recovery must still be pure over.
    let flip_at = journal.len() / 2 / 4 * 4 + 4;
    journal[flip_at] ^= 0xA5;
    let tail_record = {
        let mut b = Vec::new();
        wal::append_record(&mut b, "tenant-torn", 99).unwrap();
        b
    };
    journal.extend_from_slice(&tail_record[..tail_record.len() - 3]);

    let (base_map, base_stats) = with_threads(1, || wal::replay(&journal));
    assert!(base_stats.records_applied >= 39, "corruption must cost at most the flipped record");
    assert!(base_stats.torn_tail_bytes > 0, "the torn tail must be detected");
    for threads in [2, 4, 7] {
        let (map, stats) = with_threads(threads, || wal::replay(&journal));
        assert_eq!(map, base_map, "replay diverged at {threads} threads");
        assert_eq!(stats, base_stats, "replay stats diverged at {threads} threads");
    }
    // And byte-for-byte repetition at the same thread count is identical
    // too — replay holds no hidden state.
    let (again, stats_again) = with_threads(1, || wal::replay(&journal));
    assert_eq!(again, base_map);
    assert_eq!(stats_again, base_stats);
}

// ---------------------------------------------------------------------------
// SIMD backend sweep (DESIGN.md §14): everything below must be
// bit-identical between the forced scalar backend and the auto-resolved
// widest backend, at 1, 2 and 7 worker threads. `Auto` is forced through
// `set_backend` so the sweep is genuine even when the suite itself runs
// under `PRIVIM_SIMD=scalar` (the CI scalar leg).

#[test]
fn kernels_bit_identical_across_simd_backends_and_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let a = random_matrix(1100, 64, &mut rng);
    let b = random_matrix(64, 55, &mut rng);
    let g = generators::barabasi_albert(1500, 4, &mut rng).with_uniform_weights(0.5);
    let adj = SparseMatrix::from_triplets(
        1500,
        1500,
        (0..1500u32).flat_map(|u| {
            g.out_neighbors(u)
                .iter()
                .map(move |&v| (u as usize, v as usize, 0.5))
        }),
    );
    let h = random_matrix(1500, 40, &mut rng);
    // Odd length: the sequential scalar tail after the 4-lane body must
    // agree across backends too.
    let v = random_matrix(1, 1003, &mut rng);

    let run = |choice: simd::Choice, threads: usize| {
        with_backend_and_threads(choice, threads, || {
            (
                a.matmul(&b),
                adj.spmm(&h),
                simd::sum(v.data()).to_bits(),
                simd::sumsq(v.data()).to_bits(),
            )
        })
    };
    let base = run(simd::Choice::Scalar, 1);
    for choice in [simd::Choice::Scalar, simd::Choice::Auto] {
        for threads in [1, 2, 7] {
            let out = run(choice, threads);
            assert_bits_eq("matmul", threads, &base.0, &out.0);
            assert_bits_eq("spmm", threads, &base.1, &out.1);
            assert_eq!(base.2, out.2, "sum diverged ({choice:?}, {threads} threads)");
            assert_eq!(base.3, out.3, "sumsq diverged ({choice:?}, {threads} threads)");
        }
    }
}

#[test]
fn full_trainer_step_bit_identical_across_simd_backends() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(58);
    let g = generators::barabasi_albert(200, 4, &mut rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let cfg = FreqConfig {
        subgraph_size: 12,
        return_prob: 0.3,
        decay: 1.0,
        sampling_rate: 1.0,
        walk_len: 120,
        threshold: 6,
    };
    let sets = freq_sampling(&g, &mut freq, &cfg, &mut rng).unwrap();
    let subs: Vec<_> = sets.iter().map(|s| induced_subgraph(&g, s)).collect();
    let train_cfg = DpSgdConfig {
        iters: 1,
        ..DpSgdConfig::paper_default(0.8, 6)
    };
    let step = |choice: simd::Choice, threads: usize| {
        with_backend_and_threads(choice, threads, || {
            let items = TrainItem::from_container(&subs);
            let mut model = GnnModel::new(
                GnnConfig {
                    kind: GnnKind::Grat,
                    layers: 2,
                    hidden: 8,
                    in_dim: privim_gnn::FEATURE_DIM,
                },
                &mut ChaCha8Rng::seed_from_u64(3),
            );
            let report = train_dpgnn(&mut model, &items, &train_cfg).unwrap();
            (report.loss_trace, model.params().to_vec())
        })
    };
    let base = step(simd::Choice::Scalar, 1);
    for choice in [simd::Choice::Scalar, simd::Choice::Auto] {
        for threads in [1, 2, 7] {
            let out = step(choice, threads);
            assert_eq!(
                base.0, out.0,
                "loss diverged ({choice:?}, {threads} threads)"
            );
            assert_eq!(
                base.1, out.1,
                "post-step parameters diverged ({choice:?}, {threads} threads)"
            );
        }
    }
}

/// The end-to-end form of the contract: a served `/v1/embed` response —
/// the bytes on the wire — must not depend on the SIMD backend that
/// computed it.
#[test]
fn served_embed_response_byte_identical_across_simd_backends() {
    let _guard = THREADS_LOCK.lock().unwrap();
    use privim_serve::{bundle, start, ServeConfig};
    use std::io::{Read, Write};

    let mut rng = ChaCha8Rng::seed_from_u64(202);
    let g = generators::barabasi_albert(120, 3, &mut rng).with_uniform_weights(1.0);
    let artifact = privim::ServeArtifact {
        model: GnnModel::new(privim_gnn::GnnConfig::paper_default(), &mut rng),
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut packed = Vec::new();
    bundle::save(&artifact, &g, &mut packed).unwrap();

    let body_under = |choice: simd::Choice| {
        simd::set_backend(Some(choice));
        let b = bundle::load(packed.as_slice()).unwrap();
        let handle = start(b, ServeConfig::default()).unwrap();
        let port = handle.port();
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let body = "{\"nodes\": [0, 7, 63, 119]}";
        let raw = format!(
            "POST /v1/embed HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        handle.shutdown();
        simd::set_backend(None);
        let (_, response_body) = text.split_once("\r\n\r\n").unwrap();
        assert!(response_body.contains("scores"), "unexpected response: {text}");
        response_body.to_string()
    };
    let scalar = body_under(simd::Choice::Scalar);
    let auto = body_under(simd::Choice::Auto);
    assert_eq!(
        scalar, auto,
        "served /v1/embed bytes diverged between scalar and auto backends"
    );
}
