//! Seeded conformance harness for the connection policy in
//! [`crate::conn`], with no sockets involved.
//!
//! A pure **reference** ([`reference`]) frames a whole byte stream at once
//! with its own rules: the `\r\n\r\n` head end, `Content-Length`, any
//! `Transfer-Encoding` refused, the 16 KiB header cap, and `Connection` /
//! HTTP/1.0 keep-alive. It never calls `parse_one`, so a parser bug cannot
//! hide in shared code. It returns the exact response bytes the server
//! owes and whether the connection ends.
//!
//! A **driver** ([`drive`]) feeds the same stream through the production
//! [`Conn`] exactly as the reactor does — `push_bytes`, `input_closed`,
//! `pump`, `deliver`, `advance_write` — with seeded variations:
//! - random read splits, down to 1 byte;
//! - a half-close at an arbitrary offset;
//! - a `max_pipeline` of 1–4 with bursts past it;
//! - worker completions in shuffled order, handed to the reactor through
//!   the production [`Handoff`] in batches of 1–4 per write pass, and
//!   delivered only when a push woke the reactor (the model reactor
//!   sleeps until woken, with no timer to paper over a lost wake);
//! - random partial writes;
//! - a queue-admission stub that refuses at a seeded point, and answers
//!   a seeded share of the requests at once, the way the reactor answers
//!   a ready request inline: the frame is delivered in the same pass,
//!   and the pass delivers until no inline frame is left;
//! - a worker that closes the connection from a seeded completion on
//!   (a deadline shed, or a drain that closes every later response).
//!
//! It asserts the emitted bytes equal the reference's and that
//! `finished()` agrees.
//!
//! Three facts depend on timing rather than on the bytes, so the driver
//! hands them to the reference: how many requests were parsed before the
//! peer's EOF arrived (later ones are answered `Connection: close`), how
//! many were parsed when admission refused (the rest of that batch is
//! shed), and the first request in response order a worker closed on
//! (nothing follows it).

use crate::conn::{Conn, Handoff, ParsedJob};
use crate::http::{error_frame, response_frame};
use privim_rt::{ChaCha8Rng, Rng, SeedableRng};

/// Random streams checked per run.
const CASES: u64 = 3000;
/// Seeds each named corpus case runs under.
const CORPUS_SEEDS: u64 = 64;

/// The reference's own limits (RFC 9112 leaves them to the server).
const HEADER_CAP: usize = 16 * 1024;
const BODY_CAP: usize = 4 * 1024 * 1024;

/// The stub worker's response to a served request: an echo of what was
/// parsed, so a framing error shows up in the bytes.
fn served(method: &str, path: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut echo = format!("{method} {path} ").into_bytes();
    echo.extend_from_slice(body);
    response_frame(200, "text/plain", &[], &echo, keep_alive)
}

/// A worker's close-marked response.
const DEADLINE_SHED: &str = "shed: deadline exceeded while queued";

/// A refusal as the reference spells it: JSON error body, then close.
fn refusal(status: u16, message: &str) -> Vec<u8> {
    let body = format!("{{\"error\":\"{message}\"}}");
    response_frame(status, "application/json", &[], body.as_bytes(), false)
}

/// Timing facts the driver observed, which the bytes alone cannot give.
#[derive(Debug, Default, Clone, Copy)]
struct Schedule {
    /// Requests parsed before the peer's EOF was seen.
    parsed_before_eof: Option<u64>,
    /// `(refused, parsed)`: index of the request admission refused, and
    /// the requests parsed by the end of that batch.
    shed: Option<(u64, u64)>,
    /// Lowest-index request whose worker response closed the connection.
    closed: Option<u64>,
    /// Requests answered at admission. The reference does not need it:
    /// an inline answer is the same bytes, only sooner.
    inline: u64,
}

/// One request head as the reference frames it.
struct Head<'a> {
    method: &'a str,
    path: &'a str,
    content_length: usize,
    keep_alive: bool,
}

/// Frame one complete head (terminator excluded) or name the refusal.
fn frame_head(head: &[u8]) -> Result<Head<'_>, (u16, &'static str)> {
    let text = std::str::from_utf8(head).map_err(|_| (400, "headers are not valid UTF-8"))?;
    let mut lines = text.split("\r\n");
    let mut parts = lines.next().unwrap_or("").split_ascii_whitespace();
    let method = parts.next().ok_or((400, "empty request line"))?;
    let target = parts.next().ok_or((400, "request line has no target"))?;
    let version = parts.next().ok_or((400, "request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err((400, "only HTTP/1.x is supported"));
    }
    let mut content_length = None;
    let (mut close, mut keep) = (false, false);
    for line in lines {
        let (name, value) = line.split_once(':').ok_or((400, "malformed header line"))?;
        let (name, value) = (name.to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "transfer-encoding" => return Err((400, "Transfer-Encoding is not supported")),
            "content-length" => {
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err((400, "malformed Content-Length"));
                }
                let n: usize = value
                    .parse()
                    .map_err(|_| (400, "Content-Length overflows"))?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err((400, "conflicting Content-Length headers"));
                }
                content_length = Some(n);
            }
            "connection" => {
                for token in value.split(',').map(|t| t.trim().to_ascii_lowercase()) {
                    close |= token == "close";
                    keep |= token == "keep-alive";
                }
            }
            _ => {}
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > BODY_CAP {
        return Err((400, "body exceeds the 4 MiB limit"));
    }
    Ok(Head {
        method,
        path: target.split('?').next().unwrap_or(target),
        content_length,
        keep_alive: if version == "HTTP/1.0" { keep } else { !close },
    })
}

/// The bytes a conforming server sends for `stream` (cut by a half-close
/// when `eof`), and whether it then closes the connection.
fn reference(stream: &[u8], eof: bool, sched: Schedule) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    let mut rest = stream;
    let mut index = 0u64;
    loop {
        let head_end = rest.windows(4).position(|w| w == b"\r\n\r\n");
        let head_len = match head_end {
            Some(p) if p + 4 <= HEADER_CAP => p + 4,
            None if rest.len() < HEADER_CAP => return (out, eof),
            _ => {
                out.extend(refusal(
                    431,
                    "http: header section exceeds the 16 KiB limit",
                ));
                return (out, true);
            }
        };
        let head = match frame_head(&rest[..head_len - 4]) {
            Ok(head) => head,
            Err((status, message)) => {
                out.extend(refusal(status, &format!("http: {message}")));
                return (out, true);
            }
        };
        let total = head_len + head.content_length;
        if rest.len() < total {
            return (out, eof);
        }
        if let Some((refused, parsed)) = sched.shed.filter(|&(refused, _)| refused == index) {
            for _ in refused..parsed {
                out.extend(refusal(503, "shed: queue full"));
            }
            return (out, true);
        }
        if sched.closed == Some(index) {
            out.extend(refusal(503, DEADLINE_SHED));
            return (out, true);
        }
        let before_eof = index < sched.parsed_before_eof.unwrap_or(u64::MAX);
        let body = &rest[head_len..total];
        out.extend(served(
            head.method,
            head.path,
            body,
            head.keep_alive && before_eof,
        ));
        if !head.keep_alive {
            return (out, true);
        }
        rest = &rest[total..];
        index += 1;
    }
}

/// Admission as one connection sees it: answers a `ready_share` of the
/// requests at once (never refused, like the reactor's ready answers),
/// and queues every other one except the `refuse_at`-th offered one (a
/// momentarily full queue).
struct Worker {
    queued: Vec<ParsedJob>,
    /// Frames answered at admission, not yet delivered.
    inline: Vec<Done>,
    ready_share: f64,
    /// Draws the ready subset, apart from the schedule's stream.
    ready_rng: ChaCha8Rng,
    offered: u64,
    refuse_at: Option<u64>,
    refused: bool,
    /// Jobs completed so far.
    completed: u64,
    answered_inline: u64,
}

impl Worker {
    fn admit(&mut self, job: ParsedJob) -> bool {
        let at = self.offered;
        self.offered += 1;
        if self.ready_rng.gen_bool(self.ready_share) {
            let r = &job.request;
            let frame = served(&r.method, &r.path, &r.body, job.keep_alive);
            self.inline.push((job.seq, frame, false));
            self.answered_inline += 1;
            return true;
        }
        let refuse = self.refuse_at == Some(at);
        self.refused |= refuse;
        if !refuse {
            self.queued.push(job);
        }
        !refuse
    }
}

/// One connection's inputs: the stream and the knobs of the schedule.
struct Case {
    stream: Vec<u8>,
    /// The peer half-closes after the last byte of `stream`.
    eof: bool,
    max_pipeline: u64,
    refuse_at: Option<u64>,
    /// Share of requests answered at admission.
    ready_share: f64,
    /// The completion (in completion order) from which workers may close
    /// the connection: that one always does, each later one by coin flip.
    close_at: Option<u64>,
    /// Largest read; `usize::MAX` delivers the stream in one read.
    max_read: usize,
}

/// A finished job on its way back: `(seq, frame, close_after)`.
type Done = (u64, Vec<u8>, bool);

/// Feed `case` through [`Conn`] the way the reactor does, under `rng`'s
/// schedule. Returns the bytes written, whether the connection finished,
/// and the timing facts.
fn drive(case: &Case, rng: &mut ChaCha8Rng) -> (Vec<u8>, bool, Schedule) {
    let cap = case.max_pipeline;
    let mut conn = Conn::new();
    let mut worker = Worker {
        queued: Vec::new(),
        inline: Vec::new(),
        ready_share: case.ready_share,
        ready_rng: ChaCha8Rng::seed_from_u64(rng.gen()),
        offered: 0,
        refuse_at: case.refuse_at,
        refused: false,
        completed: 0,
        answered_inline: 0,
    };
    let handoff: Handoff<Done> = Handoff::new();
    // A wake is pending: some push made the hand-off non-empty since the
    // model reactor last read its waker.
    let mut woken = false;
    let mut sched = Schedule::default();
    let mut out = Vec::new();

    // Record the shed batch right after the step that refused.
    let note = |sched: &mut Schedule, worker: &Worker, conn: &Conn| {
        if worker.refused && sched.shed.is_none() {
            sched.shed = worker.refuse_at.map(|at| (at, conn.requests_parsed()));
        }
    };
    // Workers finish 1–4 queued jobs, in random order, and push them.
    let complete_batch =
        |worker: &mut Worker, sched: &mut Schedule, woken: &mut bool, rng: &mut ChaCha8Rng| {
            for _ in 0..rng.gen_range(1..=4usize).min(worker.queued.len()) {
                let job = worker
                    .queued
                    .swap_remove(rng.gen_range(0..worker.queued.len()));
                let close = case.close_at.is_some_and(|at| {
                    worker.completed == at || (worker.completed > at && rng.gen_bool(0.5))
                });
                worker.completed += 1;
                let frame = if close {
                    sched.closed = Some(sched.closed.map_or(job.seq, |c| c.min(job.seq)));
                    error_frame(503, DEADLINE_SHED)
                } else {
                    let r = &job.request;
                    served(&r.method, &r.path, &r.body, job.keep_alive)
                };
                *woken |= handoff.push((job.seq, frame, close));
            }
        };
    // One reactor pass: read the waker, deliver every completion the
    // hand-off holds and every inline answer (a delivery re-pumps and may
    // answer more), then write once.
    let pass = |conn: &mut Conn,
                worker: &mut Worker,
                sched: &mut Schedule,
                woken: &mut bool,
                out: &mut Vec<u8>,
                rng: &mut ChaCha8Rng| {
        let mut batch = if std::mem::take(woken) {
            handoff.take()
        } else {
            Vec::new()
        };
        loop {
            batch.append(&mut worker.inline);
            if batch.is_empty() {
                break;
            }
            for (seq, frame, close) in batch.drain(..) {
                conn.deliver(seq, frame, close, cap, &mut |j| worker.admit(j));
                note(sched, worker, conn);
            }
        }
        let n = rng.gen_range(0..=conn.writable().len());
        out.extend_from_slice(&conn.writable()[..n]);
        conn.advance_write(n);
    };

    let mut rest = &case.stream[..];
    loop {
        let n = rest
            .len()
            .min(rng.gen_range(1..=case.max_read.min(rest.len().max(1))));
        let (chunk, tail) = rest.split_at(n);
        rest = tail;
        conn.push_bytes(chunk);
        if rest.is_empty() && case.eof {
            sched.parsed_before_eof = Some(conn.requests_parsed());
            conn.input_closed();
        }
        conn.pump(cap, &mut |j| worker.admit(j));
        note(&mut sched, &worker, &conn);
        if !worker.queued.is_empty() && rng.gen_bool(0.5) {
            complete_batch(&mut worker, &mut sched, &mut woken, rng);
        }
        // A woken reactor runs its pass at once, so each pass delivers
        // one batch, and so does one that answered inline; an idle one may
        // still write.
        if woken || !worker.inline.is_empty() || rng.gen_bool(0.5) {
            pass(
                &mut conn,
                &mut worker,
                &mut sched,
                &mut woken,
                &mut out,
                rng,
            );
        }
        if rest.is_empty() {
            break;
        }
    }
    // A completion no wake announced stays in the hand-off, and its
    // response is missing from `out`.
    while !worker.queued.is_empty()
        || !worker.inline.is_empty()
        || woken
        || !conn.writable().is_empty()
    {
        complete_batch(&mut worker, &mut sched, &mut woken, rng);
        pass(
            &mut conn,
            &mut worker,
            &mut sched,
            &mut woken,
            &mut out,
            rng,
        );
    }
    sched.inline = worker.answered_inline;
    (out, conn.finished(), sched)
}

/// Drive `case` under `seed`, compare with the reference, and return
/// the expected bytes and the timing facts.
fn check(name: &str, case: &Case, seed: u64) -> (Vec<u8>, Schedule) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (got, finished, sched) = drive(case, &mut rng);
    let (want, closes) = reference(&case.stream, case.eof, sched);
    assert!(
        got == want && finished == closes,
        "{name} (seed {seed}, max_pipeline {}, eof {}, refuse_at {:?}, close_at {:?}, \
         {sched:?}):\nstream:   {:?}\nexpected: {:?} (closes {closes})\n\
         emitted:  {:?} (finished {finished})",
        case.max_pipeline,
        case.eof,
        case.refuse_at,
        case.close_at,
        String::from_utf8_lossy(&case.stream),
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
    );
    (want, sched)
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One random request: mostly well-formed, in every keep-alive flavour;
/// sometimes malformed in one of the ways the parser must refuse.
fn random_request(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let body: String = (0..rng.gen_range(0..24))
        .map(|_| rng.gen_range(b'a'..=b'z') as char)
        .collect();
    let cl = ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.gen_range(0..3usize)];
    let text = match rng.gen_range(0..40) {
        0..=9 => format!(
            "GET /healthz{} HTTP/1.1\r\nHost: t\r\n\r\n",
            ["", "?x=1"][rng.gen_range(0..2usize)]
        ),
        10..=19 => format!(
            "POST /v1/embed HTTP/1.1\r\n{cl}: {}\r\n\r\n{body}",
            body.len()
        ),
        20 => format!(
            "POST /a HTTP/1.1\r\n{cl}: {0}\r\n{cl}: {0}\r\n\r\n{body}",
            body.len()
        ),
        21 => "GET /close HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
        22 => "GET /list HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n".to_string(),
        23 => "GET /old HTTP/1.0\r\n\r\n".to_string(),
        24..=25 => "GET /old-ka HTTP/1.0\r\nconnection: keep-alive\r\n\r\n".to_string(),
        26 => "POST /te HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nGET \r\n0\r\n\r\n"
            .to_string(),
        27 => format!("POST /te-cl HTTP/1.1\r\ntransfer-encoding: gzip\r\n{cl}: 1\r\n\r\nx"),
        28 => {
            let bad =
                ["-5", "0x10", "1 2", "", "99999999999999999999999999"][rng.gen_range(0..5usize)];
            format!("POST /cl HTTP/1.1\r\n{cl}: {bad}\r\n\r\n")
        }
        29 => format!("POST /dup HTTP/1.1\r\n{cl}: 2\r\n{cl}: 3\r\n\r\nab"),
        30 => format!("POST /huge HTTP/1.1\r\n{cl}: {}\r\n\r\n", BODY_CAP + 1),
        31 => "GET /x HTTP/1.1\r\nno colon here\r\n\r\n".to_string(),
        32 => "GET /x SPDY/3\r\n\r\n".to_string(),
        33 => "GET\r\n\r\n".to_string(),
        34 => format!(
            "GET /pad HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "p".repeat(HEADER_CAP)
        ),
        35 => format!("GET /flood HTTP/1.1\r\nX-Pad: {}", "f".repeat(HEADER_CAP)),
        _ => format!(
            "POST /v1/seeds HTTP/1.1\r\nX-Privim-Tenant: t{}\r\n{cl}: {}\r\n\r\n{body}",
            rng.gen_range(0..4),
            body.len()
        ),
    };
    text.into_bytes()
}

fn random_case(rng: &mut ChaCha8Rng) -> Case {
    let n = rng.gen_range(1..=8u64);
    let mut stream: Vec<u8> = (0..n).flat_map(|_| random_request(rng)).collect();
    let eof = rng.gen_bool(0.4);
    if eof && rng.gen_bool(0.7) {
        stream.truncate(rng.gen_range(0..=stream.len()));
    }
    // Byte-at-a-time reads re-scan the buffer per byte; keep them to
    // streams where that stays cheap.
    let reads = [1, 3, 16, 256, usize::MAX];
    let max_read = reads[rng.gen_range(if stream.len() > 4096 { 3 } else { 0 }..reads.len())];
    Case {
        stream,
        eof,
        max_pipeline: rng.gen_range(1..=4u64),
        refuse_at: rng.gen_bool(0.25).then(|| rng.gen_range(0..n)),
        max_read,
        close_at: rng.gen_bool(0.25).then(|| rng.gen_range(0..n)),
        ready_share: [0.0, 0.0, 0.5, 1.0][rng.gen_range(0..4usize)],
    }
}

#[test]
fn random_streams_match_the_reference() {
    // How often each protocol path was exercised, so a generator change
    // that stops reaching one fails here instead of passing vacuously.
    let mut seen = [0u32; 8];
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let case = random_case(&mut rng);
        let (want, sched) = check("random", &case, seed);
        let count = |status: &[u8]| want.windows(status.len()).filter(|w| w == &status).count();
        let served = count(b"HTTP/1.1 200 ");
        seen[0] += u32::from(case.max_read == 1);
        seen[1] += u32::from(case.eof);
        seen[2] += u32::from(served as u64 > case.max_pipeline);
        seen[3] += u32::from(sched.shed.is_some());
        seen[4] += u32::from(count(b"HTTP/1.1 400 ") > 0);
        seen[5] += u32::from(count(b"HTTP/1.1 431 ") > 0);
        seen[6] += u32::from(sched.closed.is_some());
        seen[7] += u32::from(sched.inline > 0);
    }
    // 1-byte reads, half-close, pipelining past the cap, shedding,
    // malformed framing, oversized headers, a worker's close, inline
    // answers.
    assert!(seen.iter().all(|&n| n >= 30), "paths exercised: {seen:?}");
}

/// A burst of three times the pipeline cap in one write: requests past
/// the cap sit whole in the read buffer with the socket drained, so only
/// the re-parse on completion can serve them.
#[test]
fn corpus_burst_of_three_times_the_cap_in_one_write() {
    for seed in 0..CORPUS_SEEDS {
        let cap = 1 + seed % 4;
        let stream = (0..3 * cap)
            .flat_map(|i| {
                if i % 2 == 0 {
                    get(&format!("/{i}"))
                } else {
                    post("/v1/embed", "{}")
                }
            })
            .collect();
        let case = Case {
            stream,
            eof: false,
            max_pipeline: cap,
            refuse_at: None,
            close_at: None,
            max_read: usize::MAX,
            ready_share: [0.0, 0.5, 1.0][(seed % 3) as usize],
        };
        check("burst_3x_cap", &case, seed);
    }
}

/// Requests written, then `shutdown(SHUT_WR)`: every buffered request is
/// still answered, then the connection closes.
#[test]
fn corpus_write_then_shut_wr() {
    for seed in 0..CORPUS_SEEDS {
        let mut stream = post("/v1/embed", "{\"nodes\": [5]}");
        stream.extend(get("/healthz"));
        let case = Case {
            stream,
            eof: true,
            max_pipeline: 1 + seed % 4,
            refuse_at: None,
            close_at: None,
            max_read: usize::MAX,
            ready_share: [0.0, 0.5, 1.0][(seed % 3) as usize],
        };
        check("write_then_shut_wr", &case, seed);
    }
}

/// A chunked body that frames a second request: refused whole, never
/// smuggled through as its own request.
#[test]
fn corpus_chunked_body_with_an_embedded_request() {
    let mut stream = get("/first");
    stream.extend_from_slice(
        b"POST /v1/embed HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          1b\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
    );
    for seed in 0..CORPUS_SEEDS {
        let case = Case {
            stream: stream.clone(),
            eof: seed % 2 == 0,
            max_pipeline: 1 + seed % 4,
            refuse_at: None,
            close_at: None,
            max_read: [1, 7, usize::MAX][(seed % 3) as usize],
            ready_share: [0.0, 1.0][(seed / 3 % 2) as usize],
        };
        check("chunked_te_smuggle", &case, seed);
    }
}

/// A pipelined burst that finds the queue full: the refused request and
/// everything after it in its batch get `503`, and nothing else follows.
#[test]
fn corpus_burst_past_a_full_queue() {
    for seed in 0..CORPUS_SEEDS {
        let stream = (0..6)
            .flat_map(|i| post("/v1/embed", &format!("{{\"nodes\": [{i}]}}")))
            .collect();
        let case = Case {
            stream,
            eof: false,
            max_pipeline: 8,
            refuse_at: Some(1 + seed % 3),
            close_at: None,
            max_read: usize::MAX,
            ready_share: 0.0,
        };
        check("burst_past_full_queue", &case, seed);
    }
}

/// A worker closes the connection (a deadline shed or a drain) while
/// later pipelined requests are already queued, and a malformed request
/// waits in the buffer: the close-marked response is the last frame.
#[test]
fn corpus_worker_close_mid_pipeline() {
    for seed in 0..CORPUS_SEEDS {
        let mut stream: Vec<u8> = (0..4)
            .flat_map(|i| post("/v1/embed", &format!("{{\"nodes\": [{i}]}}")))
            .collect();
        stream.extend_from_slice(b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n");
        let case = Case {
            stream,
            eof: seed % 2 == 0,
            max_pipeline: 4,
            refuse_at: None,
            close_at: Some(seed % 3),
            max_read: usize::MAX,
            ready_share: 0.0,
        };
        let (want, sched) = check("worker_close_mid_pipeline", &case, seed);
        assert!(sched.closed.is_some(), "seed {seed}: no worker closed");
        let responses = want.windows(9).filter(|w| w == b"HTTP/1.1 ").count() as u64;
        assert_eq!(Some(responses), sched.closed.map(|c| c + 1), "nothing follows the close");
    }
}

#[test]
fn reference_frames_a_known_exchange() {
    // Pins the reference itself on a hand-checked stream, so a reference
    // bug cannot silently agree with a matching production bug.
    let mut stream = get("/a?q=1");
    stream.extend(post("/b", "xyz"));
    stream.extend_from_slice(b"GET /c HTTP/1.1\r\nContent-Length: 1x\r\n\r\n");
    let (bytes, closes) = reference(&stream, false, Schedule::default());
    let mut want = served("GET", "/a", b"", true);
    want.extend(served("POST", "/b", b"xyz", true));
    want.extend(refusal(400, "http: malformed Content-Length"));
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&want)
    );
    assert!(closes);
    // A half-close mid-request drops the fragment and closes.
    let cut = get("/a").len() + 5;
    let sched = Schedule {
        parsed_before_eof: Some(0),
        ..Schedule::default()
    };
    let (bytes, closes) = reference(&stream[..cut], true, sched);
    assert_eq!(bytes, served("GET", "/a", b"", false));
    assert!(closes);
}
