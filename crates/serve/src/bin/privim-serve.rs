//! `privim-serve` — pack a serving bundle and run the inference server.
//!
//! ```text
//! privim-serve pack --out bundle.json [--graph edges.txt [--directed]]
//!              [--nodes 300] [--k 20] [--eps 2] [--seed 7]
//!              [--method privim*|privim|privim+scs|non-private] [--fast]
//! privim-serve run --bundle bundle.json [--addr 127.0.0.1:7878]
//!              [--workers 4] [--queue-cap 128] [--deadline-ms 5000] [--runs 64]
//!              [--idle-timeout-ms 30000] [--header-timeout-ms 10000]
//!              [--max-pipeline 32]
//! ```
//!
//! `pack` trains a model with the library pipeline (or on a synthetic
//! Barabási–Albert graph when no edge list is given) and writes the
//! versioned, checksummed bundle; `run` loads a bundle, serves it, and
//! drains in-flight requests on SIGINT/SIGTERM before exiting.

use privim::{export_serve_artifact, EvalSetup, Method};
use privim_graph::{io::read_edge_list, Graph};
use privim_rt::{fsio, ChaCha8Rng, SeedableRng};
use privim_serve::{
    bundle, start, wal, DurabilityConfig, FsyncPolicy, LedgerConfig, LedgerState, ServeConfig,
};
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:
  privim-serve pack --out <bundle.json>
               [--graph <edge-list> [--directed]] [--nodes 300]
               [--k 20] [--eps 2] [--seed 7] [--fast]
               [--method privim*|privim|privim+scs|non-private]
               [--tenant-budget <eps> [--query-sigma 8] [--ledger-delta 1e-5]
                [--retry-after 60]]
  privim-serve run --bundle <bundle.json> [--addr 127.0.0.1:7878]
               [--workers 4] [--queue-cap 128] [--deadline-ms 5000] [--runs 64]
               [--idle-timeout-ms 30000] [--header-timeout-ms 10000]
               [--max-pipeline 32]
               [--wal <path>] [--no-wal] [--fsync always|never|every=N]
               [--compact-every 256]"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("privim-serve: {msg}");
    exit(1)
}

struct Flags {
    out: Option<PathBuf>,
    graph: Option<PathBuf>,
    directed: bool,
    nodes: usize,
    k: usize,
    eps: f64,
    seed: u64,
    fast: bool,
    method: String,
    tenant_budget: Option<f64>,
    query_sigma: f64,
    ledger_delta: f64,
    retry_after: u64,
    bundle: Option<PathBuf>,
    addr: String,
    workers: usize,
    queue_cap: usize,
    deadline_ms: u64,
    runs: usize,
    idle_timeout_ms: u64,
    header_timeout_ms: u64,
    max_pipeline: usize,
    wal: Option<PathBuf>,
    no_wal: bool,
    fsync: FsyncPolicy,
    compact_every: u64,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        out: None,
        graph: None,
        directed: false,
        nodes: 300,
        k: 20,
        eps: 2.0,
        seed: 7,
        fast: false,
        method: "privim*".into(),
        tenant_budget: None,
        query_sigma: 8.0,
        ledger_delta: 1e-5,
        retry_after: 60,
        bundle: None,
        addr: "127.0.0.1:7878".into(),
        workers: 4,
        queue_cap: 128,
        deadline_ms: 5_000,
        runs: 64,
        idle_timeout_ms: 30_000,
        header_timeout_ms: 10_000,
        max_pipeline: 32,
        wal: None,
        no_wal: false,
        fsync: FsyncPolicy::Always,
        compact_every: 256,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    usage()
                })
                .clone()
        };
        match a.as_str() {
            "--out" => f.out = Some(PathBuf::from(val("--out"))),
            "--graph" => f.graph = Some(PathBuf::from(val("--graph"))),
            "--directed" => f.directed = true,
            "--nodes" => f.nodes = val("--nodes").parse().unwrap_or_else(|_| usage()),
            "--k" => f.k = val("--k").parse().unwrap_or_else(|_| usage()),
            "--eps" => f.eps = val("--eps").parse().unwrap_or_else(|_| usage()),
            "--seed" => f.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--fast" => f.fast = true,
            "--method" => f.method = val("--method"),
            "--tenant-budget" => {
                f.tenant_budget =
                    Some(val("--tenant-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--query-sigma" => {
                f.query_sigma = val("--query-sigma").parse().unwrap_or_else(|_| usage())
            }
            "--ledger-delta" => {
                f.ledger_delta = val("--ledger-delta").parse().unwrap_or_else(|_| usage())
            }
            "--retry-after" => {
                f.retry_after = val("--retry-after").parse().unwrap_or_else(|_| usage())
            }
            "--bundle" => f.bundle = Some(PathBuf::from(val("--bundle"))),
            "--addr" => f.addr = val("--addr"),
            "--workers" => f.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => f.queue_cap = val("--queue-cap").parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                f.deadline_ms = val("--deadline-ms").parse().unwrap_or_else(|_| usage())
            }
            "--runs" => f.runs = val("--runs").parse().unwrap_or_else(|_| usage()),
            "--idle-timeout-ms" => {
                f.idle_timeout_ms = val("--idle-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--header-timeout-ms" => {
                f.header_timeout_ms =
                    val("--header-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--max-pipeline" => {
                f.max_pipeline = val("--max-pipeline").parse().unwrap_or_else(|_| usage())
            }
            "--wal" => f.wal = Some(PathBuf::from(val("--wal"))),
            "--no-wal" => f.no_wal = true,
            "--fsync" => {
                f.fsync = FsyncPolicy::parse(&val("--fsync")).unwrap_or_else(|| usage())
            }
            "--compact-every" => {
                f.compact_every = val("--compact-every").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    f
}

fn method_for(name: &str, epsilon: f64) -> Method {
    match name {
        "privim*" => Method::PrivImStar { epsilon },
        "privim" => Method::PrivIm { epsilon },
        "privim+scs" => Method::PrivImScs { epsilon },
        "non-private" => Method::NonPrivate,
        other => {
            eprintln!("unknown method {other:?}");
            usage()
        }
    }
}

fn load_or_generate_graph(f: &Flags) -> Graph {
    match &f.graph {
        Some(path) => read_edge_list(path, f.directed)
            .unwrap_or_else(|e| fail(format!("read {}: {e}", path.display())))
            .graph,
        None => {
            let mut rng = ChaCha8Rng::seed_from_u64(f.seed);
            privim_graph::generators::barabasi_albert(f.nodes.max(10), 3, &mut rng)
                .with_uniform_weights(1.0)
        }
    }
}

// privim-lint: allow(dp-taint, reason = "packs the finished DP-trained artifact: weights are post-clip/post-noise and the bundle records the accounted epsilon; no raw per-example state is serialized")
fn cmd_pack(f: &Flags) {
    let out = f.out.clone().unwrap_or_else(|| usage());
    let graph = load_or_generate_graph(f);
    let mut rng = ChaCha8Rng::seed_from_u64(f.seed);
    let mut setup = EvalSetup::paper_defaults(&graph, f.k.min(graph.num_nodes()), &mut rng);
    if f.fast {
        // CI-sized training: same pipeline, fewer steps and shorter walks.
        setup.params.iters = 20;
        setup.params.walk_len = 50;
        setup.params.expected_starts = 64;
    }
    let artifact = export_serve_artifact(method_for(&f.method, f.eps), &setup, f.seed)
        .unwrap_or_else(|e| fail(e));
    let state = f.tenant_budget.map(|epsilon_budget| {
        let config = LedgerConfig {
            epsilon_budget,
            delta: f.ledger_delta,
            query_sigma: f.query_sigma,
            retry_after_secs: f.retry_after,
        };
        config.validate().unwrap_or_else(|e| fail(e));
        LedgerState::new(config)
    });
    let metered = match &state {
        Some(s) => format!(
            "metered(eps_budget={}, query_sigma={})",
            s.config.epsilon_budget, f.query_sigma
        ),
        None => "unmetered".to_string(),
    };
    let doc = bundle::pack_with_ledger(&artifact, &graph, state.as_ref());
    // Atomic replace (temp + fsync + rename + dir fsync): a crash
    // mid-pack can never leave a torn bundle at the target path.
    fsio::atomic_write_durable(&out, doc.as_bytes())
        .unwrap_or_else(|e| fail(format!("write {}: {e}", out.display())));
    println!(
        "packed {}: |V|={} |E|={} method={} eps={} {metered} fingerprint={:#018x}",
        out.display(),
        graph.num_nodes(),
        graph.num_edges(),
        f.method,
        artifact.epsilon.map(|e| e.to_string()).unwrap_or_else(|| "inf".into()),
        bundle::graph_fingerprint(&graph),
    );
}

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_signal(_: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // privim-lint: allow(unsafe, reason = "libc signal() FFI with the correct extern C fn-pointer signature; the handler only does a lock-free SeqCst store into a static AtomicBool, which is async-signal-safe")
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn cmd_run(f: &Flags) {
    let path = f.bundle.clone().unwrap_or_else(|| usage());
    let file =
        File::open(&path).unwrap_or_else(|e| fail(format!("open {}: {e}", path.display())));
    let mut b = bundle::load(BufReader::new(file)).unwrap_or_else(|e| fail(e));
    println!(
        "loaded {}: |V|={} fingerprint={:#018x} eps={} delta={} sigma={} steps={}",
        path.display(),
        b.graph.num_nodes(),
        b.fingerprint,
        b.privacy.epsilon.map(|e| e.to_string()).unwrap_or_else(|| "inf".into()),
        b.privacy.delta,
        b.privacy.sigma,
        b.privacy.steps,
    );
    match &b.ledger {
        Some(l) => println!(
            "budget ledger: eps_budget={} query_sigma={} tenants_on_record={}",
            l.config.epsilon_budget,
            l.config.query_sigma,
            l.tenants.len()
        ),
        None => println!("budget ledger: none (unmetered deployment)"),
    }
    // Metered deployments get a charge journal next to the bundle unless
    // --no-wal opts out. Recovery runs before the server starts: the
    // journal's charges merge into the in-memory ledger (max per tenant),
    // so a kill-9'd process restarts with spend >= everything it ever
    // acknowledged.
    let durability = match (&mut b.ledger, f.no_wal) {
        (Some(state), false) => {
            let wal_path = f
                .wal
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("{}.wal", path.display())));
            let report = wal::recover_from_path(state, &wal_path).unwrap_or_else(|e| fail(e));
            if report.wal_present {
                println!(
                    "wal recovery: {} record(s) applied, {} ambiguous kept, \
                     {} torn byte(s) dropped, {} tenant(s) raised",
                    report.records_applied,
                    report.ambiguous_kept,
                    report.torn_tail_bytes,
                    report.tenants_raised,
                );
            } else {
                println!("wal recovery: no journal at {} (clean boot)", wal_path.display());
            }
            Some(DurabilityConfig {
                wal_path,
                fsync: f.fsync,
                compact_every: f.compact_every,
                bundle_path: Some(path.clone()),
            })
        }
        _ => None,
    };
    let cfg = ServeConfig {
        addr: f.addr.clone(),
        workers: f.workers.max(1),
        queue_cap: f.queue_cap.max(1),
        deadline: Duration::from_millis(f.deadline_ms.max(1)),
        default_runs: f.runs.max(1),
        durability,
        idle_timeout: Duration::from_millis(f.idle_timeout_ms.max(1)),
        header_timeout: Duration::from_millis(f.header_timeout_ms.max(1)),
        max_pipeline: f.max_pipeline.max(1),
        ..ServeConfig::default()
    };
    install_signal_handlers();
    let handle = start(b, cfg).unwrap_or_else(|e| fail(e));
    println!(
        "serving on port {} ({} workers); ctrl-c to drain and exit",
        handle.port(),
        f.workers
    );
    // Line-buffer semantics don't hold on a pipe: the chaos driver parses
    // this line from piped stdout, so push it out now.
    let _ = std::io::stdout().flush();
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("signal received; draining in-flight requests");
    let drained = handle.shutdown();
    println!("shutdown complete; {drained} request(s) drained after the signal");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pack") => cmd_pack(&parse_flags(&args[1..])),
        Some("run") => cmd_run(&parse_flags(&args[1..])),
        _ => usage(),
    }
}
