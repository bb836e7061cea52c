//! `bench_serve` — open-loop load generator for the privim-serve server.
//!
//! Self-hosts a server in-process (from `--bundle`, or from a fabricated
//! untrained bundle when none is given), then drives it over raw TCP the
//! same way an external client would:
//!
//! * **compare mode** (default): a fixed client matrix — one-shot,
//!   keep-alive at the same offered load, and keep-alive + pipelining at
//!   10x — each row against a freshly started server. Writes every row
//!   plus the front-end config to `BENCH_serve.json`.
//! * **`--mode oneshot|keepalive`**: a single custom row
//!   (`--reuse`, `--pipeline`, `--rps`, `--secs`).
//! * **`--smoke`**: one request per endpoint with response assertions, a
//!   keep-alive reuse check, and a clean-drain check — the CI gate. No
//!   file output.
//!
//! All modes schedule arrivals open-loop (send times are fixed multiples
//! of the gap from t0) and measure latency from the *scheduled* send
//! time, so a slow server shows up as queueing delay in the percentiles
//! instead of silently stretching the arrival process (coordinated
//! omission).
//!
//! ```text
//! cargo run --release -p privim-bench --bin bench_serve                 # compare matrix, writes BENCH_serve.json
//! cargo run --release -p privim-bench --bin bench_serve -- --smoke --bundle ci.json
//! cargo run --release -p privim-bench --bin bench_serve -- --mode keepalive --pipeline 8 --rps 4000
//! ```

use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_rt::json::Value;
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_serve::metrics::parse_counter;
use privim_serve::{bundle, start, ServeConfig, ServerHandle};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Workload mix by request index: mostly embeds (the hot path), a band
/// of influence queries (cache-heavy), a trickle of seed queries.
fn endpoint_for(i: usize) -> &'static str {
    match i % 10 {
        0..=5 => "embed",
        6..=8 => "influence",
        _ => "seeds",
    }
}

fn body_for(i: usize, n_nodes: usize) -> String {
    match endpoint_for(i) {
        "embed" => format!("{{\"nodes\": [{}]}}", i % n_nodes),
        // 8 distinct seed pairs cycle, so the spread cache sees a
        // realistic hit/miss blend rather than all-hits or all-misses.
        "influence" => format!(
            "{{\"seeds\": [{}, {}], \"runs\": 32, \"seed\": 9}}",
            (i * 7) % 8 % n_nodes,
            (8 + (i * 13) % 8) % n_nodes
        ),
        _ => "{\"k\": 5}".to_string(),
    }
}

fn path_for(ep: &str) -> &'static str {
    match ep {
        "embed" => "/v1/embed",
        "influence" => "/v1/influence",
        _ => "/v1/seeds",
    }
}

/// Serialize one request frame. `close` asks the server to end the
/// connection after the response (one-shot clients read to EOF).
fn frame(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: b\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One-shot HTTP exchange; returns (status, body).
fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) else {
        return (0, String::new());
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    if stream.write_all(&frame(method, path, body, true)).is_err() {
        return (0, String::new());
    }
    let mut text = String::new();
    if stream.read_to_string(&mut text).is_err() {
        return (0, String::new());
    }
    let status = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Read exactly one framed response off a kept-alive connection. `carry`
/// holds over-read bytes (pipelined responses coalesce on the wire).
/// Returns `None` on EOF/error — the caller drops the connection.
fn read_one_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Option<u16> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).to_string();
    let status: u16 = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::trim).map(String::from))?
        .parse()
        .ok()?;
    while carry.len() < head_end + content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
        }
    }
    carry.drain(..head_end + content_length);
    Some(status)
}

fn load_bundle(path: Option<&str>) -> bundle::Bundle {
    match path {
        Some(p) => {
            let f = std::fs::File::open(p).unwrap_or_else(|e| {
                eprintln!("error: open {p}: {e}");
                std::process::exit(1);
            });
            bundle::load(std::io::BufReader::new(f)).unwrap_or_else(|e| {
                eprintln!("error: load {p}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            // Fabricated bundle: serving performance does not depend on
            // trained weights, so skip DP-SGD and bench the server alone.
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let g = privim_graph::generators::barabasi_albert(400, 3, &mut rng)
                .with_uniform_weights(1.0);
            let artifact = ServeArtifact {
                model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
                epsilon: Some(2.0),
                delta: 1e-4,
                sigma: 1.5,
                steps: 80,
            };
            let mut buf = Vec::new();
            bundle::save(&artifact, &g, &mut buf).expect("in-memory bundle save");
            bundle::load(buf.as_slice()).expect("in-memory bundle load")
        }
    }
}

fn smoke(handle: ServerHandle, n_nodes: usize) {
    let port = handle.port();
    let checks: [(&str, &str, &str); 3] = [
        ("embed", "/v1/embed", "{\"nodes\": [0, 1]}"),
        ("influence", "/v1/influence", "{\"seeds\": [0, 1], \"runs\": 16, \"seed\": 3}"),
        ("seeds", "/v1/seeds", "{\"k\": 3}"),
    ];
    for (name, path, body) in checks {
        let (status, text) = request(port, "POST", path, body);
        assert_eq!(status, 200, "{name}: status {status}, body {text}");
        let v = Value::parse(&text).unwrap_or_else(|e| {
            panic!("{name}: unparseable body {text}: {e}");
        });
        match name {
            "embed" => assert_eq!(
                v.get("scores").and_then(|s| s.as_array()).map(|a| a.len()),
                Some(2),
                "{name}: {text}"
            ),
            "influence" => assert!(
                v.get("spread").and_then(|s| s.as_f64()).unwrap_or(-1.0) >= 2.0,
                "{name}: {text}"
            ),
            _ => assert_eq!(
                v.get("seeds").and_then(|s| s.as_array()).map(|a| a.len()),
                Some(3),
                "{name}: {text}"
            ),
        }
        println!("ok  POST {path}");
    }
    let (status, text) = request(port, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {text}");
    assert!(text.contains("\"ok\""), "healthz: {text}");
    println!("ok  GET /healthz");

    // Two requests down one kept-alive connection (the default front end
    // persists HTTP/1.1 connections).
    let mut ka = TcpStream::connect(("127.0.0.1", port)).expect("keep-alive connect");
    let _ = ka.set_read_timeout(Some(Duration::from_secs(30)));
    let mut carry = Vec::new();
    for _ in 0..2 {
        ka.write_all(&frame("GET", "/healthz", "", false)).expect("keep-alive write");
        let status = read_one_framed(&mut ka, &mut carry).expect("keep-alive response");
        assert_eq!(status, 200, "keep-alive healthz");
    }
    drop(ka);
    println!("ok  keep-alive reuse (2 requests, 1 connection)");

    let (status, text) = request(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for (ep, want) in [("embed", 1), ("influence", 1), ("seeds", 1), ("healthz", 3)] {
        let name = format!("privim_requests_total{{endpoint=\"{ep}\"}}");
        assert_eq!(parse_counter(&text, &name), Some(want), "{name}");
    }
    println!("ok  GET /metrics (all requests accounted)");
    let _ = n_nodes;
    let drained = handle.shutdown();
    println!("ok  shutdown drained cleanly ({drained} in-flight at signal)");
    println!("smoke passed");
}

struct Sample {
    endpoint: &'static str,
    latency_us: u64,
    ok: bool,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

#[derive(Clone, Copy, PartialEq)]
enum ClientMode {
    OneShot,
    KeepAlive,
}

impl ClientMode {
    fn name(self) -> &'static str {
        match self {
            ClientMode::OneShot => "oneshot",
            ClientMode::KeepAlive => "keepalive",
        }
    }
}

/// One benchmark row: start a fresh server, drive it at `rps` for `secs`
/// with the given client mode, return the row JSON.
struct RowSpec {
    mode: ClientMode,
    /// Requests per connection before the keep-alive client reconnects.
    reuse: usize,
    /// Max responses outstanding before the client blocks on a read.
    pipeline: usize,
    rps: usize,
    secs: u64,
    /// Server worker threads.
    workers: usize,
}

/// Record a completion against its *scheduled* send time.
fn record(samples: &mut Vec<Sample>, ep: &'static str, t0: Instant, due: Duration, ok: bool) {
    let lat = t0.elapsed().saturating_sub(due);
    samples.push(Sample {
        endpoint: ep,
        latency_us: lat.as_micros() as u64,
        ok,
    });
}

/// Keep-alive sender: one persistent connection, up to `pipeline`
/// requests in flight, reconnecting every `reuse` requests.
fn keepalive_sender(
    port: u16,
    t0: Instant,
    gap: Duration,
    total: usize,
    senders: usize,
    w: usize,
    n_nodes: usize,
    reuse: usize,
    pipeline: usize,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn: Option<(TcpStream, Vec<u8>, usize)> = None;
    let mut outstanding: VecDeque<(&'static str, Duration)> = VecDeque::new();
    let drain = |conn: &mut Option<(TcpStream, Vec<u8>, usize)>,
                     outstanding: &mut VecDeque<(&'static str, Duration)>,
                     down_to: usize,
                     samples: &mut Vec<Sample>| {
        while outstanding.len() > down_to {
            let Some((stream, carry, _)) = conn.as_mut() else {
                // Connection already gone: everything unread failed.
                while let Some((ep, due)) = outstanding.pop_front() {
                    record(samples, ep, t0, due, false);
                }
                return;
            };
            match read_one_framed(stream, carry) {
                Some(status) => {
                    let (ep, due) = outstanding.pop_front().expect("response without request");
                    record(samples, ep, t0, due, status == 200);
                }
                None => {
                    *conn = None;
                }
            }
        }
    };

    let mut i = w;
    while i < total {
        let due = gap * i as u32;
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        if conn.is_none() {
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                    conn = Some((s, Vec::new(), 0));
                }
                Err(_) => {
                    record(&mut samples, endpoint_for(i), t0, due, false);
                    i += senders;
                    continue;
                }
            }
        }
        let ep = endpoint_for(i);
        let body = body_for(i, n_nodes);
        let (wrote, reconnect) = {
            let (stream, _, used) = conn.as_mut().expect("connection just ensured");
            let ok = stream.write_all(&frame("POST", path_for(ep), &body, false)).is_ok();
            if ok {
                *used += 1;
            }
            (ok, *used >= reuse)
        };
        if !wrote {
            conn = None;
            drain(&mut conn, &mut outstanding, 0, &mut samples);
            record(&mut samples, ep, t0, due, false);
            i += senders;
            continue;
        }
        outstanding.push_back((ep, due));
        i += senders;
        // Enforce the pipeline cap; a depth of 1 degenerates to strict
        // request/response alternation.
        drain(&mut conn, &mut outstanding, pipeline.saturating_sub(1), &mut samples);
        if reconnect {
            drain(&mut conn, &mut outstanding, 0, &mut samples);
            conn = None;
        }
    }
    drain(&mut conn, &mut outstanding, 0, &mut samples);
    samples
}

fn run_row(bundle_path: Option<&str>, spec: &RowSpec) -> Value {
    let b = load_bundle(bundle_path);
    let n_nodes = b.graph.num_nodes();
    let cfg = ServeConfig {
        workers: spec.workers,
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap_or_else(|e| {
        eprintln!("error: start server: {e}");
        std::process::exit(1);
    });
    let port = handle.port();
    let total = spec.rps * spec.secs as usize;
    let gap = Duration::from_secs_f64(1.0 / spec.rps as f64);
    let senders = 16usize.min(total.max(1));
    let label = format!(
        "{}{}",
        spec.mode.name(),
        if spec.mode == ClientMode::KeepAlive {
            format!("(reuse={}, pipeline={})", spec.reuse, spec.pipeline)
        } else {
            String::new()
        }
    );
    println!(
        "row {label}: open-loop {} req/s for {} s = {total} requests, {senders} sender threads",
        spec.rps, spec.secs
    );

    let t0 = Instant::now();
    let threads: Vec<_> = (0..senders)
        .map(|w| {
            let (mode, reuse, pipeline) = (spec.mode, spec.reuse, spec.pipeline);
            std::thread::spawn(move || match mode {
                ClientMode::KeepAlive => keepalive_sender(
                    port, t0, gap, total, senders, w, n_nodes, reuse.max(1), pipeline.max(1),
                ),
                ClientMode::OneShot => {
                    let mut samples = Vec::new();
                    let mut i = w;
                    while i < total {
                        // Open loop: send times are fixed multiples of the
                        // gap from t0, independent of response speed.
                        let due = gap * i as u32;
                        let now = t0.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let ep = endpoint_for(i);
                        let body = body_for(i, n_nodes);
                        let (status, _) = request(port, "POST", path_for(ep), &body);
                        record(&mut samples, ep, t0, due, status == 200);
                        i += senders;
                    }
                    samples
                }
            })
        })
        .collect();
    let samples: Vec<Sample> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("sender thread"))
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();

    let (_, exposition) = request(port, "GET", "/metrics", "");
    let counter = |name: &str| parse_counter(&exposition, name).unwrap_or(0);
    let cache_hits = counter("privim_cache_hits_total");
    let cache_misses = counter("privim_cache_misses_total");
    let shed = counter("privim_shed_total");
    let connections = counter("privim_connections_total");
    let reuses = counter("privim_keepalive_reuses_total");
    handle.shutdown();

    let ok = samples.iter().filter(|s| s.ok).count();
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10}",
        "endpoint", "n", "p50", "p95", "p99"
    );
    let mut per_endpoint = Vec::new();
    for ep in ["embed", "influence", "seeds"] {
        let mut lat: Vec<u64> = samples
            .iter()
            .filter(|s| s.endpoint == ep && s.ok)
            .map(|s| s.latency_us)
            .collect();
        lat.sort_unstable();
        let (p50, p95, p99) = (
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
        );
        println!(
            "{ep:<10} {:>6} {:>8}µs {:>8}µs {:>8}µs",
            lat.len(),
            p50,
            p95,
            p99
        );
        per_endpoint.push(Value::obj(vec![
            ("endpoint", Value::Str(ep.to_string())),
            ("completed", Value::Num(lat.len() as f64)),
            ("p50_us", Value::Num(p50 as f64)),
            ("p95_us", Value::Num(p95 as f64)),
            ("p99_us", Value::Num(p99 as f64)),
        ]));
    }
    let throughput = ok as f64 / elapsed;
    println!(
        "{ok}/{total} ok in {elapsed:.2} s = {throughput:.0} req/s; \
         cache: {cache_hits} hits / {cache_misses} misses; shed: {shed}; \
         conns: {connections} ({reuses} keep-alive reuses)"
    );

    Value::obj(vec![
        ("client_mode", Value::Str(spec.mode.name().to_string())),
        ("reuse", Value::Num(spec.reuse as f64)),
        ("pipeline", Value::Num(spec.pipeline as f64)),
        ("offered_rps", Value::Num(spec.rps as f64)),
        ("workers", Value::Num(spec.workers as f64)),
        ("duration_secs", Value::Num(spec.secs as f64)),
        ("requests", Value::Num(total as f64)),
        ("completed_ok", Value::Num(ok as f64)),
        ("achieved_rps", Value::Num(throughput)),
        ("cache_hits", Value::Num(cache_hits as f64)),
        ("cache_misses", Value::Num(cache_misses as f64)),
        ("shed", Value::Num(shed as f64)),
        ("connections", Value::Num(connections as f64)),
        ("keepalive_reuses", Value::Num(reuses as f64)),
        ("endpoints", Value::Arr(per_endpoint)),
    ])
}

fn write_doc(rows: Vec<Value>, out: &str) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let defaults = ServeConfig::default();
    let doc = Value::obj(vec![
        ("bench", Value::Str("serve".to_string())),
        ("available_parallelism", Value::Num(cpus as f64)),
        (
            "simd_backend",
            Value::Str(privim_tensor::simd::active().name().to_string()),
        ),
        (
            "simd_features",
            Value::Str(privim_tensor::simd::detected_features()),
        ),
        (
            "reactor_config",
            Value::obj(vec![
                ("queue_cap", Value::Num(defaults.queue_cap as f64)),
                ("idle_timeout_ms", Value::Num(defaults.idle_timeout.as_millis() as f64)),
                ("header_timeout_ms", Value::Num(defaults.header_timeout.as_millis() as f64)),
                ("max_pipeline", Value::Num(defaults.max_pipeline as f64)),
            ]),
        ),
        (
            "note",
            Value::Str(
                "open-loop arrivals measured from scheduled send time (coordinated-omission \
                 safe); latencies include connect + queue wait; absolute numbers are \
                 hardware-dependent (see EXPERIMENTS.md)"
                    .to_string(),
            ),
        ),
        ("rows", Value::Arr(rows)),
    ]);
    privim::results::write_atomic(out, &doc.to_json_string_pretty()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke_mode = false;
    let mut bundle_path: Option<String> = None;
    let mut rps = 400usize;
    let mut secs = 5u64;
    let mut out = "BENCH_serve.json".to_string();
    let mut mode: Option<ClientMode> = None;
    let mut reuse = 64usize;
    let mut pipeline = 1usize;
    let mut workers = 8usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke_mode = true,
            "--bundle" => bundle_path = it.next().cloned(),
            "--rps" => rps = it.next().and_then(|s| s.parse().ok()).unwrap_or(rps),
            "--secs" => secs = it.next().and_then(|s| s.parse().ok()).unwrap_or(secs),
            "--out" => out = it.next().cloned().unwrap_or(out),
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some("oneshot") => Some(ClientMode::OneShot),
                    Some("keepalive") => Some(ClientMode::KeepAlive),
                    other => {
                        eprintln!("error: --mode {other:?} (expected oneshot|keepalive)");
                        std::process::exit(2);
                    }
                }
            }
            "--reuse" => reuse = it.next().and_then(|s| s.parse().ok()).unwrap_or(reuse),
            "--pipeline" => pipeline = it.next().and_then(|s| s.parse().ok()).unwrap_or(pipeline),
            "--workers" => workers = it.next().and_then(|s| s.parse().ok()).unwrap_or(workers),
            other => {
                eprintln!(
                    "error: unknown flag {other} (flags: --smoke, --bundle <path>, --rps <n>, \
                     --secs <n>, --out <path>, --mode oneshot|keepalive, \
                     --reuse <n>, --pipeline <n>, --workers <n>)"
                );
                std::process::exit(2);
            }
        }
    }

    if smoke_mode {
        let b = load_bundle(bundle_path.as_deref());
        let n_nodes = b.graph.num_nodes();
        let cfg = ServeConfig {
            workers: 8,
            ..ServeConfig::default()
        };
        let handle = start(b, cfg).unwrap_or_else(|e| {
            eprintln!("error: start server: {e}");
            std::process::exit(1);
        });
        println!("serving bundle on port {} (|V|={n_nodes})", handle.port());
        smoke(handle, n_nodes);
        return;
    }

    let rows = match mode {
        // Single custom row.
        Some(m) => vec![run_row(
            bundle_path.as_deref(),
            &RowSpec {
                mode: m,
                reuse,
                pipeline,
                rps: rps.max(1),
                secs: secs.max(1),
                workers: workers.max(1),
            },
        )],
        // Compare matrix: one-shot clients, keep-alive at equal offered
        // load (p99 comparison), and keep-alive + pipelining at 10x
        // offered load (throughput headroom).
        None => {
            let specs = [
                (ClientMode::OneShot, 1, rps),
                (ClientMode::KeepAlive, 1, rps),
                (ClientMode::KeepAlive, 8, rps * 10),
            ];
            specs
                .iter()
                .map(|&(mode, pipeline, rps)| {
                    run_row(
                        bundle_path.as_deref(),
                        &RowSpec {
                            mode,
                            reuse,
                            pipeline,
                            rps: rps.max(1),
                            secs: secs.max(1),
                            workers: workers.max(1),
                        },
                    )
                })
                .collect()
        }
    };
    write_doc(rows, &out);
}
