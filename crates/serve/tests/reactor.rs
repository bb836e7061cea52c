//! Epoll front-end integration tests over real TCP: keep-alive reuse,
//! pipelined in-order responses, slowloris/idle reaping, queue-full and
//! deadline shedding, and drain-during-keep-alive. The byte-level
//! protocol is covered socket-free by the conformance harness in
//! `src/conformance.rs`.
//!
//! These tests use a *framed* client (parse `Content-Length`, read
//! exactly that many body bytes) rather than read-to-EOF, because the
//! whole point of keep-alive is that the connection stays open.

use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_rt::json::Value;
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_serve::{bundle, metrics, start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A BA(120, 3) bundle with every arc weight 0.9. The weight is
/// fractional on purpose: on 0/1 weights an influence query is one exact
/// cascade, so only a fractional graph makes [`SLOW_INFLUENCE`] hold its
/// worker: about 0.3 s in a release build, against microseconds on unit
/// weights.
fn test_bundle(seed: u64) -> bundle::Bundle {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(120, 3, &mut rng)
        .with_uniform_weights(0.9);
    let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let artifact = ServeArtifact {
        model,
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut buf = Vec::new();
    bundle::save(&artifact, &g, &mut buf).unwrap();
    bundle::load(buf.as_slice()).unwrap()
}

fn reactor_server(seed: u64, cfg: ServeConfig) -> ServerHandle {
    start(test_bundle(seed), cfg).unwrap()
}

/// Serialize one request frame (keep-alive by default — no `Connection`
/// header on HTTP/1.1 means persist).
fn frame_request(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read exactly one framed response off the stream: returns
/// `(status, headers, body)`. `carry` holds bytes read past the frame
/// boundary (pipelined responses coalesce on the wire) — pass the same
/// buffer across calls on one connection. Panics on malformed framing —
/// these tests own both ends.
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before response head completed");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).unwrap();
    let status: u16 = head.split_ascii_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::trim).map(String::from))
        .unwrap()
        .parse()
        .unwrap();
    while carry.len() < head_end + content_length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(carry[head_end..head_end + content_length].to_vec()).unwrap();
    carry.drain(..head_end + content_length);
    (status, head, body)
}

/// An uncached Monte-Carlo spread estimate at the top of the validated
/// `runs` range: a real request that holds its worker for a long time.
const SLOW_INFLUENCE: &str = "{\"seeds\": [0, 1], \"runs\": 100000}";

#[test]
fn keepalive_connection_serves_many_requests() {
    let handle = reactor_server(11, ServeConfig::default());
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let reuse = 8;
    let mut carry = Vec::new();
    let mut bodies = Vec::new();
    for i in 0..reuse {
        stream
            .write_all(&frame_request(
                "POST",
                "/v1/embed",
                &format!("{{\"nodes\": [{i}]}}"),
                false,
            ))
            .unwrap();
        let (status, head, body) = read_framed(&mut stream, &mut carry);
        assert_eq!(status, 200, "{body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "persistent response expected: {head}"
        );
        bodies.push(body);
    }
    // All requests traveled one connection: reuse-1 reuses, 1 conn open.
    let text = handle.metrics_text();
    assert_eq!(
        metrics::parse_counter(&text, "privim_keepalive_reuses_total"),
        Some(reuse as u64 - 1)
    );
    assert_eq!(metrics::parse_counter(&text, "privim_open_connections"), Some(1));
    assert_eq!(metrics::parse_counter(&text, "privim_connections_total"), Some(1));

    // A Connection: close request ends the session after its response.
    stream
        .write_all(&frame_request("GET", "/healthz", "", true))
        .unwrap();
    let (status, head, _) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");

    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_with_identical_bodies() {
    let handle = reactor_server(12, ServeConfig::default());
    let port = handle.port();

    // Reference: the same two requests issued sequentially.
    let sequential: Vec<String> = (0..2)
        .map(|i| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(&frame_request(
                "POST",
                "/v1/embed",
                &format!("{{\"nodes\": [{}, {}]}}", i, i + 10),
                true,
            ))
            .unwrap();
            read_framed(&mut s, &mut Vec::new()).2
        })
        .collect();

    // Both requests in ONE write; responses must come back in request
    // order with byte-identical bodies.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = frame_request("POST", "/v1/embed", "{\"nodes\": [0, 10]}", false);
    burst.extend_from_slice(&frame_request("POST", "/v1/embed", "{\"nodes\": [1, 11]}", false));
    stream.write_all(&burst).unwrap();
    let mut carry = Vec::new();
    let (s0, _, b0) = read_framed(&mut stream, &mut carry);
    let (s1, _, b1) = read_framed(&mut stream, &mut carry);
    assert_eq!((s0, s1), (200, 200));
    assert_eq!(b0, sequential[0], "first pipelined response out of order or diverged");
    assert_eq!(b1, sequential[1], "second pipelined response out of order or diverged");

    let text = handle.metrics_text();
    // Every parse round records its depth: two sequential rounds plus at
    // least one for the burst.
    let observed =
        metrics::parse_counter(&text, "privim_pipeline_depth_bucket{le=\"+Inf\"}").unwrap();
    assert!(observed >= 3, "pipeline depth histogram must record parse rounds: {text}");
    handle.shutdown();
}

#[test]
fn headers_split_across_arbitrary_write_boundaries_still_parse() {
    let handle = reactor_server(13, ServeConfig::default());
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.set_nodelay(true).unwrap();

    // Dribble the request a byte at a time with pauses, forcing the
    // reactor through many partial-parse rounds (the in-memory analog is
    // covered exhaustively in conn.rs unit tests; this pins the real
    // nonblocking-socket path).
    let raw = frame_request("POST", "/v1/embed", "{\"nodes\": [3]}", true);
    for chunk in raw.chunks(1) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, body) = read_framed(&mut stream, &mut Vec::new());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("scores"), "{body}");
    handle.shutdown();
}

#[test]
fn pipelined_burst_beyond_max_pipeline_is_fully_served() {
    // A burst deeper than the pipeline cap lands in one write: the
    // requests past the cap sit in the connection's read buffer with the
    // socket already drained, so serving them depends on the reactor
    // re-running the parser when worker completions free slots — no
    // readable event will ever fire for them.
    let cap = 4usize;
    let n = 3 * cap;
    let handle = reactor_server(
        19,
        ServeConfig {
            max_pipeline: cap,
            ..ServeConfig::default()
        },
    );
    let port = handle.port();

    // Reference bodies from sequential one-shot requests.
    let sequential: Vec<String> = (0..n)
        .map(|i| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(&frame_request(
                "POST",
                "/v1/embed",
                &format!("{{\"nodes\": [{i}]}}"),
                true,
            ))
            .unwrap();
            read_framed(&mut s, &mut Vec::new()).2
        })
        .collect();

    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = Vec::new();
    for i in 0..n {
        burst.extend_from_slice(&frame_request(
            "POST",
            "/v1/embed",
            &format!("{{\"nodes\": [{i}]}}"),
            false,
        ));
    }
    stream.write_all(&burst).unwrap();
    let mut carry = Vec::new();
    for (i, expect) in sequential.iter().enumerate() {
        let (status, _, body) = read_framed(&mut stream, &mut carry);
        assert_eq!(status, 200, "request {i} of the over-cap burst: {body}");
        assert_eq!(&body, expect, "request {i} answered out of order or diverged");
    }
    handle.shutdown();
}

#[test]
fn half_close_after_complete_requests_still_answers_them() {
    // Legal HTTP/1.1: write the requests, shutdown(SHUT_WR), then read.
    // With a pipeline cap of 1 the second request is parsed only after
    // the first response, which the half-close already marked `close`.
    for max_pipeline in [1, 32] {
        let handle = reactor_server(20, ServeConfig { max_pipeline, ..ServeConfig::default() });
        let port = handle.port();
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut burst = frame_request("POST", "/v1/embed", "{\"nodes\": [5]}", false);
        burst.extend_from_slice(&frame_request("GET", "/healthz", "", false));
        stream.write_all(&burst).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        // Whether the FIN lands in the same read batch as the requests is
        // a kernel-level race, so the Connection header may honestly say
        // either close (EOF seen before parse) or keep-alive (EOF seen
        // after); what must hold is that both requests are answered and
        // the connection then closes.
        let mut carry = Vec::new();
        let (s0, _, b0) = read_framed(&mut stream, &mut carry);
        assert_eq!(s0, 200, "half-closed request must still be served: {b0}");
        assert!(b0.contains("scores"), "{b0}");
        let (s1, _, b1) = read_framed(&mut stream, &mut carry);
        assert_eq!(s1, 200, "max_pipeline {max_pipeline}: {b1}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after the final response");
        handle.shutdown();
    }
}

#[test]
fn half_sent_request_is_reaped_by_the_header_timeout() {
    let handle = reactor_server(
        15,
        ServeConfig {
            header_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();

    // A slowloris-style connection: half a request, then silence.
    let mut stalled = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stalled.write_all(b"POST /v1/embed HTTP/1.1\r\nHost: t\r\nContent-Le").unwrap();

    // The server must close it without ever getting a complete request.
    let mut buf = Vec::new();
    stalled.read_to_end(&mut buf).unwrap(); // EOF = server-side close
    assert!(buf.is_empty(), "no response should precede the reap: {buf:?}");
    let text = handle.metrics_text();
    assert!(
        metrics::parse_counter(&text, "privim_header_timeout_closes_total").unwrap() >= 1,
        "reap must be attributed to the header timeout: {text}"
    );
    assert_eq!(metrics::parse_counter(&text, "privim_open_connections"), Some(0));

    // A well-behaved client on the same server is unaffected.
    let mut ok = TcpStream::connect(("127.0.0.1", port)).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    ok.write_all(&frame_request("GET", "/healthz", "", true)).unwrap();
    let (status, _, _) = read_framed(&mut ok, &mut Vec::new());
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn idle_keepalive_connection_is_reaped_by_the_idle_timeout() {
    let handle = reactor_server(
        16,
        ServeConfig {
            idle_timeout: Duration::from_millis(300),
            header_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Complete one exchange, then idle: the server must reap the
    // connection once the idle timeout lapses.
    stream.write_all(&frame_request("GET", "/healthz", "", false)).unwrap();
    let (status, head, _) = read_framed(&mut stream, &mut Vec::new());
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap(); // blocks until server closes
    assert!(rest.is_empty());
    let text = handle.metrics_text();
    assert!(
        metrics::parse_counter(&text, "privim_idle_timeout_closes_total").unwrap() >= 1,
        "reap must be attributed to the idle timeout: {text}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_burst_over_queue_cap_sheds_with_503() {
    // One worker + queue cap 1 + a slow first request: the uncached
    // influence estimate occupies the worker long enough that a
    // pipelined burst must overflow the bounded queue and be shed.
    // When the worker pops the estimate before the reactor offers the
    // first embed, that embed is admitted too and waits out the whole
    // estimate, which a debug build can stretch past the default 5 s
    // deadline; its deadline shed would then close the connection ahead
    // of the queue-full 503s. A deadline no estimate reaches keeps this
    // test about the queue cap alone.
    let handle = reactor_server(
        17,
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            deadline: Duration::from_secs(120),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    let n = 8;
    let mut burst = frame_request("POST", "/v1/influence", SLOW_INFLUENCE, false);
    for i in 1..n {
        burst.extend_from_slice(&frame_request(
            "POST",
            "/v1/embed",
            &format!("{{\"nodes\": [{i}]}}"),
            false,
        ));
    }
    stream.write_all(&burst).unwrap();

    // Every request gets a response, in order; the overflow ones are 503.
    let mut carry = Vec::new();
    let mut statuses = Vec::new();
    for _ in 0..n {
        statuses.push(read_framed(&mut stream, &mut carry).0);
    }
    assert_eq!(statuses[0], 200, "the first request was queued, not shed");
    assert!(
        statuses.iter().any(|&s| s == 503),
        "burst of {n} over queue_cap=1 must shed: {statuses:?}"
    );
    // The first queue-full 503 is close-marked, so nothing after it may
    // be a worker-served response — the rest of the batch is shed too.
    let first_shed = statuses.iter().position(|&s| s == 503).unwrap();
    assert!(
        statuses[first_shed..].iter().all(|&s| s == 503),
        "no response may follow a close-marked 503: {statuses:?}"
    );
    let text = handle.metrics_text();
    assert!(metrics::parse_counter(&text, "privim_shed_total").unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn request_queued_past_the_deadline_is_shed_with_503() {
    // One worker and a pipelined burst of uncached slow estimates: the
    // embed queued behind them waits past the deadline, so the worker
    // sheds it instead of serving it late. Eight estimates keep the wait
    // over the deadline even where one takes only ~45 ms; once the wait
    // exceeds it, the rest of the burst is shed too and costs nothing.
    let handle = reactor_server(
        21,
        ServeConfig {
            workers: 1,
            deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut busy = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let slow = 8;
    let burst: Vec<u8> = (0..slow)
        .flat_map(|i| {
            let body = format!("{{\"seeds\": [0, 1], \"runs\": 100000, \"seed\": {i}}}");
            frame_request("POST", "/v1/influence", &body, false)
        })
        .collect();
    busy.write_all(&burst).unwrap();
    // The embed must queue behind the burst: wait until the whole burst
    // is admitted (its requests after the first count as reuses).
    while metrics::parse_counter(&handle.metrics_text(), "privim_keepalive_reuses_total")
        < Some(slow - 1)
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream
        .write_all(&frame_request("POST", "/v1/embed", "{\"nodes\": [1]}", false))
        .unwrap();
    let mut carry = Vec::new();
    let (status, head, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 503, "queued past the deadline: {body}");
    assert!(body.contains("shed: deadline exceeded while queued"), "{body}");
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(carry.is_empty() && rest.is_empty(), "nothing may follow the 503");
    let text = handle.metrics_text();
    assert!(metrics::parse_counter(&text, "privim_shed_total").unwrap() >= 1, "{text}");

    // The server itself is healthy: a fresh connection is served.
    let mut fresh = TcpStream::connect(("127.0.0.1", port)).unwrap();
    fresh.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    fresh.write_all(&frame_request("GET", "/healthz", "", true)).unwrap();
    assert_eq!(read_framed(&mut fresh, &mut Vec::new()).0, 200);
    drop(busy);
    handle.shutdown();
}

#[test]
fn drain_during_keepalive_finishes_in_flight_then_closes() {
    // A slow influence estimate keeps the second request in flight long
    // enough for the drain to start while the worker still holds it. The
    // spread cache is off, so the repeated query runs the estimator again
    // and returns the same payload.
    let handle = reactor_server(
        18,
        ServeConfig {
            cache_cap_per_shard: 0,
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Establish the keep-alive session with one complete exchange.
    stream.write_all(&frame_request("POST", "/v1/influence", SLOW_INFLUENCE, false)).unwrap();
    let mut carry = Vec::new();
    let (status, head, first_body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Send the next request and immediately begin the drain: the
    // in-flight request must be answered — with a forced close — and the
    // connection must then end.
    stream.write_all(&frame_request("POST", "/v1/influence", SLOW_INFLUENCE, false)).unwrap();
    // Begin the drain as soon as the reactor has parsed the request (it
    // counts the keep-alive reuse right before queueing it), well inside
    // the time the worker spends estimating it.
    while metrics::parse_counter(&handle.metrics_text(), "privim_keepalive_reuses_total") != Some(1) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let shutdown = std::thread::spawn(move || handle.shutdown());
    let (status, head, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "in-flight keep-alive request must complete: {body}");
    assert!(
        head.contains("Connection: close"),
        "drain must force close on the final response: {head}"
    );
    assert_eq!(body, first_body, "drain must not change the payload");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(carry.is_empty() && rest.is_empty(), "connection must close after the drained response");
    let drained = shutdown.join().unwrap();
    assert!(drained >= 1, "drained counter must record the in-flight request");
}

#[test]
fn pipelined_load_on_many_connections_loses_no_wakeup() {
    // Sixteen connections each write 64 pipelined requests in one go, ten
    // times over. Workers wake the reactor only when their push makes the
    // completion hand-off non-empty, so one lost wake leaves a response
    // waiting for the next 100 ms timer tick. With a pipeline cap of 1
    // every response waits on the delivery of the one before it, so
    // wakes lost as a rule stall each repetition for 64 ticks, 6.4 s, and
    // blow the deadline; a healthy server needs a fraction of a second.
    const CONNS: usize = 16;
    const DEPTH: usize = 64;
    const REPS: usize = 10;
    let embed_frame =
        |i: usize| frame_request("POST", "/v1/embed", &format!("{{\"nodes\": [{i}]}}"), false);
    for workers in [1, 4] {
        for max_pipeline in [1, DEPTH] {
            let handle = reactor_server(
                22,
                ServeConfig {
                    workers,
                    max_pipeline,
                    queue_cap: CONNS * DEPTH,
                    ..ServeConfig::default()
                },
            );
            let port = handle.port();
            let mut reference = TcpStream::connect(("127.0.0.1", port)).unwrap();
            reference
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let mut carry = Vec::new();
            let expected: Vec<String> = (0..DEPTH)
                .map(|i| {
                    reference.write_all(&embed_frame(i)).unwrap();
                    read_framed(&mut reference, &mut carry).2
                })
                .collect();

            let deadline = Instant::now() + Duration::from_secs(20);
            let burst: Vec<u8> = (0..DEPTH).flat_map(embed_frame).collect();
            for rep in 0..REPS {
                let mut streams: Vec<TcpStream> = (0..CONNS)
                    .map(|_| TcpStream::connect(("127.0.0.1", port)).unwrap())
                    .collect();
                for s in &mut streams {
                    s.write_all(&burst).unwrap();
                }
                for (c, s) in streams.iter_mut().enumerate() {
                    let mut carry = Vec::new();
                    for (i, want) in expected.iter().enumerate() {
                        let left = deadline.saturating_duration_since(Instant::now());
                        assert!(
                            !left.is_zero(),
                            "workers {workers}, max_pipeline {max_pipeline}: deadline passed \
                             in repetition {rep}, connection {c}, response {i}"
                        );
                        s.set_read_timeout(Some(left)).unwrap();
                        let (status, _, body) = read_framed(s, &mut carry);
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(&body, want, "connection {c}: response {i} out of order");
                    }
                }
            }
            handle.shutdown();
        }
    }
}

#[test]
fn pipelined_load_needing_workers_loses_no_wakeup() {
    // The sibling of `pipelined_load_on_many_connections_loses_no_wakeup`
    // for requests the reactor cannot answer itself: with the spread cache
    // off, every influence query is computed on a worker and handed back
    // through the hand-off, so a lost wake stalls it for a 100 ms tick.
    // Same connections, depth, repetitions, configurations and deadline.
    const CONNS: usize = 16;
    const DEPTH: usize = 64;
    const REPS: usize = 10;
    let influence_frame = |i: usize| {
        let body = format!("{{\"seeds\": [{}], \"runs\": 1, \"seed\": {i}}}", i % 120);
        frame_request("POST", "/v1/influence", &body, false)
    };
    for workers in [1, 4] {
        for max_pipeline in [1, DEPTH] {
            let handle = reactor_server(
                24,
                ServeConfig {
                    workers,
                    max_pipeline,
                    queue_cap: CONNS * DEPTH,
                    cache_cap_per_shard: 0,
                    ..ServeConfig::default()
                },
            );
            let port = handle.port();
            let mut reference = TcpStream::connect(("127.0.0.1", port)).unwrap();
            reference
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let mut carry = Vec::new();
            let expected: Vec<String> = (0..DEPTH)
                .map(|i| {
                    reference.write_all(&influence_frame(i)).unwrap();
                    read_framed(&mut reference, &mut carry).2
                })
                .collect();

            let deadline = Instant::now() + Duration::from_secs(20);
            let burst: Vec<u8> = (0..DEPTH).flat_map(influence_frame).collect();
            for rep in 0..REPS {
                let mut streams: Vec<TcpStream> = (0..CONNS)
                    .map(|_| TcpStream::connect(("127.0.0.1", port)).unwrap())
                    .collect();
                for s in &mut streams {
                    s.write_all(&burst).unwrap();
                }
                for (c, s) in streams.iter_mut().enumerate() {
                    let mut carry = Vec::new();
                    for (i, want) in expected.iter().enumerate() {
                        let left = deadline.saturating_duration_since(Instant::now());
                        assert!(
                            !left.is_zero(),
                            "workers {workers}, max_pipeline {max_pipeline}: deadline passed \
                             in repetition {rep}, connection {c}, response {i}"
                        );
                        s.set_read_timeout(Some(left)).unwrap();
                        let (status, _, body) = read_framed(s, &mut carry);
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(&body, want, "connection {c}: response {i} out of order");
                    }
                }
            }
            let text = handle.metrics_text();
            assert_eq!(inline_total(&text), 0, "no influence may be answered inline: {text}");
            handle.shutdown();
        }
    }
}

/// Responses the reactor answered itself, over every endpoint label.
fn inline_total(text: &str) -> u64 {
    ["influence", "seeds", "embed", "metrics", "healthz", "other"]
        .iter()
        .map(|ep| {
            let name = format!("privim_inline_responses_total{{endpoint=\"{ep}\"}}");
            metrics::parse_counter(text, &name).unwrap()
        })
        .sum()
}

/// The `/v1/embed` body for `nodes` (sorted, distinct) as the server
/// writes it, from the model's full-graph scores.
fn embed_body(scores: &[f64], nodes: &[usize]) -> String {
    let rows = nodes
        .iter()
        .map(|&v| Value::Arr(vec![Value::Num(v as f64), Value::Num(scores[v])]))
        .collect();
    Value::obj(vec![("scores", Value::Arr(rows))]).to_json_string()
}

fn connect(port: u16) -> TcpStream {
    let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream
}

#[test]
fn ready_answers_do_not_wait_behind_a_busy_worker() {
    // The one worker is held by two pipelined uncached estimates. A
    // cached embed and `/healthz` on a second connection need no worker:
    // the reactor answers them while the first estimate still runs.
    let b = test_bundle(23);
    let scores = b.model.score_graph(&b.graph);
    let handle = start(
        b,
        ServeConfig {
            workers: 1,
            deadline: Duration::from_secs(120),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let port = handle.port();
    let mut probe = connect(port);
    let mut carry = Vec::new();
    // The first embed runs the forward pass, on the worker.
    probe.write_all(&frame_request("POST", "/v1/embed", "{\"nodes\": [7, 3]}", false)).unwrap();
    let (status, _, body) = read_framed(&mut probe, &mut carry);
    assert_eq!((status, body), (200, embed_body(&scores, &[3, 7])));

    let slow = 2;
    let mut busy = connect(port);
    let burst: Vec<u8> = (0..slow)
        .flat_map(|i| {
            let body = format!("{{\"seeds\": [0, 1], \"runs\": 100000, \"seed\": {i}}}");
            frame_request("POST", "/v1/influence", &body, false)
        })
        .collect();
    busy.write_all(&burst).unwrap();
    // Both estimates are parsed and queued (the second counts as a reuse).
    while metrics::parse_counter(&handle.metrics_text(), "privim_keepalive_reuses_total")
        < Some(slow - 1)
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut ready = frame_request("POST", "/v1/embed", "{\"nodes\": [7, 3]}", false);
    ready.extend(frame_request("GET", "/healthz", "", false));
    probe.write_all(&ready).unwrap();
    let (status, _, body) = read_framed(&mut probe, &mut carry);
    assert_eq!((status, body), (200, embed_body(&scores, &[3, 7])));
    let (status, _, body) = read_framed(&mut probe, &mut carry);
    assert_eq!(status, 200, "{body}");
    // Not every estimate is done: the ready answers did not queue.
    busy.set_nonblocking(true).unwrap();
    let mut early = Vec::new();
    let _ = busy.read_to_end(&mut early);
    let done = early.windows(9).filter(|w| w == b"HTTP/1.1 ").count();
    assert!(done < slow as usize, "the ready answers waited for {done} estimates");
    let text = handle.metrics_text();
    let inline = |ep: &str| {
        metrics::parse_counter(&text, &format!("privim_inline_responses_total{{endpoint=\"{ep}\"}}"))
    };
    assert_eq!((inline("embed"), inline("healthz")), (Some(1), Some(1)));
    drop(busy);
    handle.shutdown();
}

#[test]
fn ready_embed_pipelined_behind_a_slow_request_answers_after_it() {
    // The reactor answers the embed at once, but the connection still
    // writes it after the estimate ahead of it, byte-identical to the
    // model's own scores.
    let b = test_bundle(25);
    let scores = b.model.score_graph(&b.graph);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();
    let mut stream = connect(port);
    let mut carry = Vec::new();
    stream.write_all(&frame_request("POST", "/v1/embed", "{\"nodes\": [1]}", false)).unwrap();
    assert_eq!(read_framed(&mut stream, &mut carry).2, embed_body(&scores, &[1]));

    let mut burst = frame_request("POST", "/v1/influence", SLOW_INFLUENCE, false);
    burst.extend(frame_request("POST", "/v1/embed", "{\"nodes\": [9, 2, 9]}", false));
    stream.write_all(&burst).unwrap();
    let (status, _, first) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"spread\""), "the estimate must come first: {first}");
    let (status, _, second) = read_framed(&mut stream, &mut carry);
    assert_eq!((status, second), (200, embed_body(&scores, &[2, 9])));
    let text = handle.metrics_text();
    assert_eq!(
        metrics::parse_counter(&text, "privim_inline_responses_total{endpoint=\"embed\"}"),
        Some(1),
        "the pipelined embed is the one answered inline"
    );
    handle.shutdown();
}
