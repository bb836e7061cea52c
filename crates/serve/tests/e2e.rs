//! End-to-end serving tests over real TCP, covering the acceptance
//! criteria: (a) responses bit-identical to direct library calls,
//! (b) `/metrics` reflects request counts, and embeds read one
//! once-computed score vector yet are charged one by one,
//! (c) shutdown drains in-flight requests, (d) an exhausted tenant gets
//! `429` + `Retry-After` and the budget gauges agree, (e) counters are
//! monotone across a graceful drain. Queue-full and deadline sheds are
//! covered in `tests/reactor.rs`.

use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_graph::Graph;
use privim_im::{celf_exact, ic_spread_estimate};
use privim_rt::json::Value;
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_serve::{
    bundle, metrics, start, DurabilityConfig, FsyncPolicy, LedgerConfig, LedgerState, ServeConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A small but non-trivial serving bundle. The model is untrained —
/// serving behaviour does not depend on weight quality, and skipping
/// DP-SGD keeps the suite fast.
fn test_bundle(seed: u64) -> (bundle::Bundle, Graph, GnnModel) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(120, 3, &mut rng)
        .with_uniform_weights(1.0);
    let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let artifact = ServeArtifact {
        model: model.clone(),
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut buf = Vec::new();
    bundle::save(&artifact, &g, &mut buf).unwrap();
    (bundle::load(buf.as_slice()).unwrap(), g, model)
}

/// Same bundle, but packed metered: a per-tenant budget ledger rides in
/// the bundle.
fn test_bundle_with_ledger(seed: u64, ledger: LedgerConfig) -> bundle::Bundle {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(120, 3, &mut rng)
        .with_uniform_weights(1.0);
    let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let artifact = ServeArtifact {
        model,
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut buf = Vec::new();
    bundle::save_with_ledger(&artifact, &g, &LedgerState::new(ledger), &mut buf).unwrap();
    bundle::load(buf.as_slice()).unwrap()
}

/// One-shot HTTP exchange: connect, send, read the full response,
/// return (status, body).
fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _headers, body) = request_with_headers(port, method, path, &[], body);
    (status, body)
}

/// [`request`] with request headers attached and response headers
/// returned (the `429` test asserts on `Retry-After`).
fn request_with_headers(
    port: u16,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // One-shot client: ask the server to close after the response so
    // `read_to_string` terminates under the keep-alive (reactor) front
    // end too.
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .unwrap_or("0")
        .parse()
        .unwrap_or(0);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .unwrap_or("0")
        .parse()
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_json(port: u16, path: &str, body: &str) -> (u16, Value) {
    let (status, text) = request(port, "POST", path, body);
    (status, Value::parse(&text).unwrap())
}

#[test]
fn responses_are_bit_identical_to_library_calls() {
    let (b, g, model) = test_bundle(1);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    // /v1/embed vs GnnModel::score_graph — exact f64 equality through
    // the JSON round-trip (the rt writer is exact for finite f64).
    let direct_scores = model.score_graph(&g);
    let (status, v) = post_json(port, "/v1/embed", "{\"nodes\": [0, 7, 63, 119]}");
    assert_eq!(status, 200);
    let rows = v.get("scores").and_then(|s| s.as_array()).unwrap();
    assert_eq!(rows.len(), 4);
    for row in rows {
        let pair = row.as_array().unwrap();
        let node = pair[0].as_usize().unwrap();
        let score = pair[1].as_f64().unwrap();
        assert_eq!(score, direct_scores[node], "node {node}");
    }

    // /v1/influence vs ic_spread_estimate under identical canonical
    // arguments (server sorts + dedups the seed list).
    let (status, v) = post_json(
        port,
        "/v1/influence",
        "{\"seeds\": [9, 3, 3, 40], \"runs\": 32, \"seed\": 5}",
    );
    assert_eq!(status, 200);
    let direct = ic_spread_estimate(&g, &[3, 9, 40], None, 32, 5);
    assert_eq!(v.get("spread").and_then(|s| s.as_f64()), Some(direct));
    assert_eq!(v.get("cached").and_then(|s| s.as_bool()), Some(false));
    // A permuted duplicate of the same query must hit the cache and
    // return the identical value.
    let (_, v2) = post_json(
        port,
        "/v1/influence",
        "{\"seeds\": [40, 9, 3], \"runs\": 32, \"seed\": 5}",
    );
    assert_eq!(v2.get("spread").and_then(|s| s.as_f64()), Some(direct));
    assert_eq!(v2.get("cached").and_then(|s| s.as_bool()), Some(true));

    // /v1/seeds vs celf_exact, twice: the second, smaller k is served
    // from the resumable CELF prefix and must still match exactly.
    for k in [8usize, 3] {
        let reference = celf_exact(&g, k);
        let (status, v) = post_json(port, "/v1/seeds", &format!("{{\"k\": {k}}}"));
        assert_eq!(status, 200);
        let got: Vec<u32> = v
            .get("seeds")
            .and_then(|s| s.as_array())
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap() as u32)
            .collect();
        assert_eq!(got, reference.seeds, "k={k}");
        assert_eq!(
            v.get("spread").and_then(|s| s.as_f64()),
            Some(reference.spread),
            "k={k}"
        );
    }

    // /healthz carries the graph fingerprint of the loaded bundle.
    let (status, text) = request(port, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let fp = format!("{:#018x}", bundle::graph_fingerprint(&g));
    assert!(text.contains(&fp), "healthz missing fingerprint: {text}");

    handle.shutdown();
}

/// Concurrent embeds through a live server are byte-identical to each
/// other and exactly equal to the library's `score_graph` of the bundled
/// model. `/metrics` counts every one of them.
#[test]
fn concurrent_embeds_match_score_graph_and_metrics_count_them() {
    let (b, g, _) = test_bundle(2);
    let all_nodes = format!(
        "{{\"nodes\": [{}]}}",
        (0..g.num_nodes()).map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
    );
    let expected = b.model.score_graph(&g);
    let cfg = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();

    // 6 simultaneous embeds race for the first forward pass.
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let body = all_nodes.clone();
            std::thread::spawn(move || {
                barrier.wait();
                request(port, "POST", "/v1/embed", &body)
            })
        })
        .collect();
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(body, &responses[0].1, "concurrent embeds diverged");
    }
    let v = Value::parse(&responses[0].1).unwrap();
    let rows = v.get("scores").and_then(|s| s.as_array()).unwrap();
    assert_eq!(rows.len(), g.num_nodes());
    for row in rows {
        let pair = row.as_array().unwrap();
        let node = pair[0].as_usize().unwrap();
        assert_eq!(pair[1].as_f64(), Some(expected[node]), "node {node}");
    }

    let (status, text) = request(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let counter = |name: &str| metrics::parse_counter(&text, name);
    assert_eq!(
        counter("privim_requests_total{endpoint=\"embed\"}"),
        Some(n as u64)
    );
    // the 2xx counter covers the embed requests plus this /metrics read's
    // predecessors; at minimum the n embeds are there
    assert!(counter("privim_responses_total{class=\"2xx\"}").unwrap() >= n as u64);

    // Durability counters are always exposed (zero on a journal-less
    // server) so dashboards can alert on them without a config change.
    assert_eq!(counter("privim_wal_appends_total"), Some(0));
    assert_eq!(counter("privim_wal_append_failures_total"), Some(0));
    assert_eq!(counter("privim_wal_compactions_total"), Some(0));
    assert_eq!(counter("privim_wal_compaction_failures_total"), Some(0));

    handle.shutdown();
}

/// The score vector is computed once, but admission is not: every
/// metered embed after the first is still charged and journaled on its
/// own.
#[test]
fn metered_embeds_after_the_first_are_each_charged_and_journaled() {
    let ledger = LedgerConfig {
        epsilon_budget: 8.0,
        delta: 1e-5,
        query_sigma: 24.0,
        retry_after_secs: 60,
    };
    let wal_path = std::env::temp_dir().join(format!(
        "privim-e2e-{}-metered-embeds.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal_path);
    let cfg = ServeConfig {
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 0,
            bundle_path: None,
        }),
        ..ServeConfig::default()
    };
    let handle = start(test_bundle_with_ledger(8, ledger), cfg).unwrap();
    let port = handle.port();
    let tenant_hdr = [("X-Privim-Tenant", "acme")];
    let embed = || {
        let (status, _, body) =
            request_with_headers(port, "POST", "/v1/embed", &tenant_hdr, "{\"nodes\": [3]}");
        assert_eq!(status, 200, "{body}");
        body
    };

    // The first embed builds the score vector.
    let first = embed();
    let counters = |text: &str| {
        (
            metrics::parse_counter(text, "privim_tenant_queries_total{tenant=\"acme\"}").unwrap(),
            metrics::parse_counter(text, "privim_wal_appends_total").unwrap(),
        )
    };
    assert_eq!(counters(&handle.metrics_text()), (1, 1));

    let n = 5;
    for _ in 0..n {
        assert_eq!(embed(), first);
    }
    assert_eq!(
        counters(&handle.metrics_text()),
        (1 + n, 1 + n),
        "each embed must be charged and journaled once"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (b, g, model) = test_bundle(4);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    // Open a request and transmit only the headers; the body arrives
    // AFTER shutdown is initiated. A draining server must finish it.
    let body = "{\"nodes\": [5]}";
    let mut slow = TcpStream::connect(("127.0.0.1", port)).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    slow.write_all(
        format!(
            "POST /v1/embed HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker is now mid-read

    let finisher = {
        let mut half = slow.try_clone().unwrap();
        let body = body.to_string();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            half.write_all(body.as_bytes()).unwrap();
        })
    };

    // Shutdown while the request is in flight; this blocks until every
    // worker exits, so returning at all proves the drain completed.
    let drained = handle.shutdown();
    finisher.join().unwrap();
    let (status, text) = read_response(&mut slow);
    assert_eq!(status, 200, "in-flight request must complete: {text}");
    let v = Value::parse(&text).unwrap();
    let row = v.get("scores").and_then(|s| s.as_array()).unwrap()[0]
        .as_array()
        .unwrap();
    assert_eq!(row[1].as_f64(), Some(model.score_graph(&g)[5]));
    assert!(drained >= 1, "the drained counter must record the request");

    // The listener is gone: a fresh connection cannot complete an
    // exchange any more.
    match TcpStream::connect(("127.0.0.1", port)) {
        Err(_) => {}
        Ok(mut c) => {
            let _ = c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let _ = c.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = String::new();
            assert!(
                c.read_to_string(&mut buf).is_err() || buf.is_empty(),
                "server answered after shutdown: {buf}"
            );
        }
    }
}

#[test]
fn exhausted_tenant_gets_429_with_retry_after_and_correct_gauges() {
    // A tight budget: σ=8 under ε=1 admits a few queries, then refuses.
    let ledger = LedgerConfig {
        epsilon_budget: 1.0,
        delta: 1e-5,
        query_sigma: 8.0,
        retry_after_secs: 45,
    };
    let b = test_bundle_with_ledger(5, ledger);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();
    let tenant_hdr = [("X-Privim-Tenant", "acme")];

    // Drive the tenant to exhaustion. Every granted query must be a 200;
    // the first refusal must be a 429 with Retry-After and a JSON body
    // naming the tenant and the spend.
    let mut granted = 0u64;
    let (retry_head, refusal_body) = loop {
        let (status, head, body) =
            request_with_headers(port, "POST", "/v1/embed", &tenant_hdr, "{\"nodes\": [1, 2]}");
        match status {
            200 => {
                granted += 1;
                assert!(granted < 1000, "tight budget never exhausted");
            }
            429 => break (head, body),
            other => panic!("unexpected status {other}: {body}"),
        }
    };
    assert!(granted >= 1, "at least one query must fit in the budget");
    assert!(
        retry_head.contains("Retry-After: 45"),
        "429 must carry Retry-After: {retry_head}"
    );
    let v = Value::parse(&refusal_body).unwrap();
    assert_eq!(v.get("tenant").and_then(|t| t.as_str()), Some("acme"));
    let spent = v.get("epsilon_spent").and_then(|e| e.as_f64()).unwrap();
    assert!(spent > 0.0 && spent <= 1.0, "spent {spent}");

    // Exhaustion is sticky: immediately refused again, on any metered
    // endpoint.
    let (status, head, _) =
        request_with_headers(port, "POST", "/v1/seeds", &tenant_hdr, "{\"k\": 3}");
    assert_eq!(status, 429);
    assert!(head.contains("Retry-After: 45"));

    // Unmetered requests (no tenant header) still work — and so does a
    // different tenant with its own untouched budget.
    let (status, _) = request(port, "POST", "/v1/embed", "{\"nodes\": [3]}");
    assert_eq!(status, 200, "requests without a tenant header are unmetered");
    let (status, _, _) = request_with_headers(
        port,
        "POST",
        "/v1/embed",
        &[("X-Privim-Tenant", "other")],
        "{\"nodes\": [4]}",
    );
    assert_eq!(status, 200, "tenants have independent budgets");

    // The /metrics gauges agree with what just happened.
    let (status, text) = request(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        metrics::parse_counter(&text, "privim_tenant_queries_total{tenant=\"acme\"}"),
        Some(granted)
    );
    assert_eq!(
        metrics::parse_counter(&text, "privim_tenant_queries_total{tenant=\"other\"}"),
        Some(1)
    );
    assert_eq!(
        metrics::parse_gauge(&text, "privim_budget_epsilon_limit"),
        Some(1.0)
    );
    assert!(
        metrics::parse_counter(&text, "privim_budget_denied_total").unwrap() >= 2,
        "both refusals must be counted"
    );
    assert_eq!(
        metrics::parse_counter(&text, "privim_budget_admitted_total"),
        Some(granted + 1)
    );
    let spent_gauge =
        metrics::parse_gauge(&text, "privim_tenant_epsilon_spent{tenant=\"acme\"}").unwrap();
    let remaining =
        metrics::parse_gauge(&text, "privim_tenant_epsilon_remaining{tenant=\"acme\"}").unwrap();
    assert!((spent_gauge - spent).abs() < 1e-12, "{spent_gauge} vs {spent}");
    assert!(remaining >= 0.0 && remaining < 1.0);
    // remaining is what the budget has left of the exposed spend
    assert!((spent_gauge + remaining - 1.0).abs() < 0.6, "remaining must complement spend");
    // the 429s are 4xx-class responses
    assert!(metrics::parse_counter(&text, "privim_responses_total{class=\"4xx\"}").unwrap() >= 2);

    handle.shutdown();
}

#[test]
fn metrics_counters_are_monotone_across_graceful_drain() {
    let (b, _g, _m) = test_bundle(6);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    for i in 0..4 {
        let (status, _) =
            request(port, "POST", "/v1/embed", &format!("{{\"nodes\": [{i}]}}"));
        assert_eq!(status, 200);
    }
    let (status, before) = request(port, "GET", "/metrics", "");
    assert_eq!(status, 200);

    // More traffic between the scrape and the drain.
    for _ in 0..2 {
        let (status, _) = request(
            port,
            "POST",
            "/v1/influence",
            "{\"seeds\": [2, 5], \"runs\": 16, \"seed\": 3}",
        );
        assert_eq!(status, 200);
    }
    let (_, _) = request(port, "GET", "/healthz", "");

    let (_drained, after) = handle.drain();

    // Every cumulative series present in the first scrape must be ≥ in
    // the post-drain exposition: draining completes requests, it never
    // resets or loses them. (Gauges — queue depth, cache entries — are
    // exempt; they legitimately move both ways.)
    let monotone = |name: &str| {
        name.contains("_total") || name.contains("_bucket") || name.contains("_sum")
    };
    let mut checked = 0usize;
    for line in before.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if !monotone(name) {
            continue;
        }
        let prev: u64 = value.parse().unwrap();
        let now = metrics::parse_counter(&after, name)
            .unwrap_or_else(|| panic!("series {name} vanished across drain"));
        assert!(
            now >= prev,
            "{name} went backwards across drain: {prev} -> {now}"
        );
        checked += 1;
    }
    assert!(
        checked > 20,
        "expected to check many cumulative series, got {checked}"
    );
    // And the requests issued between scrape and drain are visible in
    // the final exposition.
    assert_eq!(
        metrics::parse_counter(&after, "privim_requests_total{endpoint=\"influence\"}"),
        Some(2)
    );
    assert_eq!(
        metrics::parse_counter(&after, "privim_requests_total{endpoint=\"embed\"}"),
        Some(4)
    );
}
