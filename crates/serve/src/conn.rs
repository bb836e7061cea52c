//! Per-connection state machine and policy of the epoll front end.
//!
//! This module is pure bookkeeping — no sockets, no clocks, no syscalls —
//! so the whole pipelining protocol is testable byte by byte (the seeded
//! conformance harness drives it against a reference model):
//!
//! * **read side**: bytes accumulate in `read_buf`; [`Conn::pump`] peels
//!   off as many complete pipelined requests as the pipeline cap allows,
//!   assigning each a monotonically increasing sequence number, and
//!   offers each to the job queue through an admission closure — a
//!   refusal sheds it and the rest of its batch with `503`;
//! * **response side**: workers finish requests in *any* order;
//!   [`Conn::deliver`] parks each frame until every lower-sequence
//!   response has been emitted, guaranteeing RFC 9112 §9.3.2 in-order
//!   pipelined responses, then re-runs the pump for the slot it freed;
//! * **write side**: in-order frames concatenate into `write_buf`, which
//!   the reactor drains as the socket accepts bytes (partial writes and
//!   EAGAIN leave the remainder for the next writability event).
//!
//! A `Connection: close` request, a protocol error or a shed funnels into
//! one shutdown shape: stop parsing, finish what was accepted, close
//! after the write buffer drains. That is also exactly the graceful-drain
//! shape, which is why drain under the reactor needs no special casing
//! per connection. Peer EOF (half-close) is gentler: requests already
//! buffered in full are still parsed and answered — a client may legally
//! write its requests and `shutdown(SHUT_WR)` before reading — and the
//! shutdown shape begins only once nothing parseable remains.

use crate::http::{error_frame, parse_one, HttpError, Request};
use std::collections::BTreeMap;

/// One parsed request, tagged with its response-ordering sequence number.
#[derive(Debug)]
pub(crate) struct ParsedJob {
    /// Position in the connection's response order; pass back to
    /// [`Conn::deliver`].
    pub seq: u64,
    /// The request to route.
    pub request: Request,
    /// Whether the connection may persist after this response: the
    /// request asked for it and the peer had not half-closed when it was
    /// parsed.
    pub keep_alive: bool,
}

/// What one [`Conn::pump`] did, for the reactor's metrics.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Pumped {
    /// Requests in flight right after the parse, before admission;
    /// `None` when nothing was parsed.
    pub depth: Option<u64>,
    /// Parsed requests that reused the connection (sequence > 0).
    pub reuses: u64,
    /// Requests answered with a queue-full `503`.
    pub shed: u64,
    /// Status of the protocol-error refusal, if one was queued.
    pub refused: Option<u16>,
}

/// Connection lifecycle as the reactor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnPhase {
    /// Reading and parsing normally.
    Open,
    /// No more requests will be parsed (close requested, protocol error,
    /// shed, peer EOF, or server drain); outstanding responses still
    /// flush.
    Draining,
}

/// Per-connection state: buffers, sequence bookkeeping, and the pending
/// out-of-order response map.
pub(crate) struct Conn {
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Sequence the next parsed request will get.
    next_seq: u64,
    /// Sequence the next emitted response must have.
    next_write_seq: u64,
    /// Completed frames waiting for their turn in the response order.
    parked: BTreeMap<u64, Vec<u8>>,
    /// Requests handed out whose frames have not yet been emitted.
    inflight: u64,
    /// Lowest sequence delivered with `close_after`: the last frame the
    /// wire carries. Later frames are dropped as their turn comes.
    close_seq: Option<u64>,
    /// A protocol error hit *after* a parse round already yielded
    /// requests; surfaced by the next round so the accepted requests are
    /// not lost.
    deferred_error: Option<HttpError>,
    /// Peer sent EOF (half-close): no further bytes will arrive, but
    /// requests already buffered in full are still parsed and served.
    eof: bool,
    phase: ConnPhase,
    /// Total requests parsed over the connection's lifetime (reuse = this
    /// minus one).
    requests_parsed: u64,
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write_seq: 0,
            parked: BTreeMap::new(),
            inflight: 0,
            close_seq: None,
            deferred_error: None,
            eof: false,
            phase: ConnPhase::Open,
            requests_parsed: 0,
        }
    }

    /// Append freshly read bytes to the parse buffer.
    pub(crate) fn push_bytes(&mut self, data: &[u8]) {
        self.read_buf.extend_from_slice(data);
    }

    /// The connection's policy, run after every read: parse what the
    /// pipeline cap allows and offer each request to `admit` (the job
    /// queue), which returns `false` when the queue is full.
    ///
    /// * A refused request gets a `503` with `Connection: close`, and so
    ///   does every later request of the same parse batch — handing them
    ///   to workers would put responses behind a close-marked one.
    /// * A protocol error takes the next response slot for its `400`/`431`
    ///   refusal, so it lands after every already-accepted response.
    ///
    /// Either way the connection drains. Cheap to call when nothing can
    /// be parsed.
    pub(crate) fn pump(
        &mut self,
        max_pipeline: u64,
        admit: &mut dyn FnMut(ParsedJob) -> bool,
    ) -> Pumped {
        let mut out = Pumped::default();
        // Loop until quiescent: a protocol error hit after requests were
        // already accepted in the same round is deferred and surfaces on
        // the next one.
        loop {
            let jobs = match self.parse_available(max_pipeline) {
                Ok(jobs) if jobs.is_empty() => return out,
                Ok(jobs) => jobs,
                Err(e) => {
                    let seq = self.claim_seq();
                    self.complete(seq, error_frame(e.status, &e.to_string()));
                    out.refused = Some(e.status);
                    return out;
                }
            };
            out.depth = Some(self.inflight);
            let mut shedding = false;
            for job in jobs {
                if job.seq > 0 {
                    out.reuses += 1;
                }
                let seq = job.seq;
                if !shedding && admit(job) {
                    continue;
                }
                if !shedding {
                    shedding = true;
                    // Nothing may follow the shed, not even an error the
                    // parser found further down the buffer.
                    self.phase = ConnPhase::Draining;
                    self.read_buf.clear();
                    self.deferred_error = None;
                }
                out.shed += 1;
                self.complete(seq, error_frame(503, "shed: queue full"));
            }
        }
    }

    /// Deliver the finished frame for `seq` (in any order; frames are
    /// emitted in sequence order). `close_after` marks a response the
    /// server closes after (a worker's shed, or a drain): nothing more is
    /// parsed, and it is the last frame emitted. Requests already queued
    /// behind it still complete, but their frames are dropped.
    ///
    /// Then re-run [`Conn::pump`]: the completion freed a pipeline slot,
    /// and requests beyond the cap may sit whole in `read_buf` with the
    /// socket already drained, so no readable event will ever re-trigger
    /// the parser for them.
    pub(crate) fn deliver(
        &mut self,
        seq: u64,
        frame: Vec<u8>,
        close_after: bool,
        max_pipeline: u64,
        admit: &mut dyn FnMut(ParsedJob) -> bool,
    ) -> Pumped {
        if close_after {
            self.phase = ConnPhase::Draining;
            self.close_seq = Some(self.close_seq.map_or(seq, |c| c.min(seq)));
        }
        self.complete(seq, frame);
        self.pump(max_pipeline, admit)
    }

    /// Peel complete pipelined requests off the front of the buffer, up
    /// to `max_pipeline` outstanding. A request carrying
    /// `Connection: close` (or HTTP/1.0 without keep-alive) is the last
    /// one parsed — trailing bytes are dropped, matching RFC 9112's
    /// "close" meaning. On a protocol error the connection flips to
    /// [`ConnPhase::Draining`].
    fn parse_available(&mut self, max_pipeline: u64) -> Result<Vec<ParsedJob>, HttpError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        let mut jobs = Vec::new();
        while self.phase == ConnPhase::Open && self.inflight < max_pipeline {
            match parse_one(&self.read_buf) {
                Ok(Some(parsed)) => {
                    self.read_buf.drain(..parsed.consumed);
                    let seq = self.claim_seq();
                    self.requests_parsed += 1;
                    if !parsed.keep_alive {
                        self.phase = ConnPhase::Draining;
                        self.read_buf.clear();
                    }
                    jobs.push(ParsedJob {
                        seq,
                        request: parsed.request,
                        // A half-closed peer gets honest
                        // `Connection: close` responses.
                        keep_alive: parsed.keep_alive && !self.eof,
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    self.phase = ConnPhase::Draining;
                    self.read_buf.clear();
                    if jobs.is_empty() {
                        return Err(e);
                    }
                    // Don't lose requests accepted earlier in this call:
                    // hand them out now, report the error next call.
                    self.deferred_error = Some(e);
                    break;
                }
            }
        }
        // Half-close: after peer EOF, bytes that can only become a
        // request with more input never will. Bytes held back by the
        // pipeline cap that already form a request — or a refusal —
        // keep the phase Open so a freed slot can still parse them.
        if self.eof
            && self.phase == ConnPhase::Open
            && matches!(parse_one(&self.read_buf), Ok(None))
        {
            self.phase = ConnPhase::Draining;
            self.read_buf.clear();
        }
        Ok(jobs)
    }

    /// Reserve the next response slot.
    fn claim_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight += 1;
        seq
    }

    /// Park the frame for `seq`, then emit every frame whose turn it is,
    /// up to the close-marked one.
    fn complete(&mut self, seq: u64, frame: Vec<u8>) {
        self.parked.insert(seq, frame);
        while let Some(frame) = self.parked.remove(&self.next_write_seq) {
            if self.close_seq.map_or(true, |c| self.next_write_seq <= c) {
                self.write_buf.extend_from_slice(&frame);
            }
            self.next_write_seq += 1;
            self.inflight -= 1;
        }
    }

    /// Stop accepting further requests (server drain); pending work
    /// flushes.
    pub(crate) fn start_draining(&mut self) {
        self.phase = ConnPhase::Draining;
    }

    /// Peer EOF (half-close): no more bytes will arrive, but a client
    /// that wrote a full request and then `shutdown(SHUT_WR)` — legal
    /// HTTP/1.1 — still gets buffered complete requests parsed and
    /// answered. The next [`Conn::pump`] flips the phase to Draining
    /// once nothing parseable remains.
    pub(crate) fn input_closed(&mut self) {
        self.eof = true;
    }

    #[cfg(test)]
    pub(crate) fn phase(&self) -> ConnPhase {
        self.phase
    }

    /// Requests handed out but not yet emitted as responses.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Requests parsed over the connection's lifetime.
    #[cfg(test)]
    pub(crate) fn requests_parsed(&self) -> u64 {
        self.requests_parsed
    }

    /// Bytes sitting unparsed in the read buffer (a request in progress
    /// — drives the header-read timeout).
    pub(crate) fn partial_bytes(&self) -> usize {
        self.read_buf.len()
    }

    /// Whether reads should stay registered: an open connection with
    /// pipeline room. A full pipeline deregisters read interest — TCP
    /// backpressure reaches the client instead of unbounded buffering.
    /// After peer EOF the socket stays level-readable forever, so read
    /// interest drops too; parsing progress is driven by completions.
    pub(crate) fn wants_read(&self, max_pipeline: u64) -> bool {
        self.phase == ConnPhase::Open && !self.eof && self.inflight < max_pipeline
    }

    /// The bytes the reactor should try to write next (empty = no write
    /// interest).
    pub(crate) fn writable(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Record `n` bytes accepted by the socket; frees the buffer once
    /// fully drained.
    pub(crate) fn advance_write(&mut self, n: usize) {
        self.write_pos += n;
        debug_assert!(self.write_pos <= self.write_buf.len());
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// A draining connection with nothing left to emit or flush is done.
    pub(crate) fn finished(&self) -> bool {
        self.phase == ConnPhase::Draining && self.inflight == 0 && self.writable().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{error_frame, response_frame};

    fn frame(body: &[u8], keep_alive: bool) -> Vec<u8> {
        response_frame(200, "application/json", &[], body, keep_alive)
    }

    #[test]
    fn byte_by_byte_feed_yields_each_request_exactly_once() {
        let raw = b"POST /v1/embed HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n";
        let mut c = Conn::new();
        let mut jobs = Vec::new();
        for &b in raw.iter() {
            c.push_bytes(&[b]);
            jobs.extend(c.parse_available(32).unwrap());
        }
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].seq, 0);
        assert_eq!(jobs[0].request.path, "/v1/embed");
        assert_eq!(jobs[0].request.body, b"hi");
        assert_eq!(jobs[1].seq, 1);
        assert_eq!(jobs[1].request.path, "/healthz");
        assert_eq!(c.requests_parsed(), 2);
        assert_eq!(c.partial_bytes(), 0);
    }

    #[test]
    fn out_of_order_completions_emit_in_sequence_order() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        let jobs = c.parse_available(32).unwrap();
        assert_eq!(jobs.len(), 3);
        // Worker for /c finishes first: nothing may be written yet.
        c.complete(2, frame(b"c", true));
        assert!(c.writable().is_empty());
        // /a unblocks only itself; /b then releases both b and the parked c.
        c.complete(0, frame(b"a", true));
        let after_a = c.writable().len();
        assert_eq!(c.writable(), &frame(b"a", true)[..]);
        c.complete(1, frame(b"b", true));
        let mut expect = frame(b"a", true);
        expect.extend_from_slice(&frame(b"b", true));
        expect.extend_from_slice(&frame(b"c", true));
        assert_eq!(c.writable(), &expect[..]);
        assert!(after_a < c.writable().len());
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn partial_writes_resume_where_they_left_off() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\n");
        c.parse_available(32).unwrap();
        let f = frame(b"hello", true);
        c.complete(0, f.clone());
        // Socket accepts 3 bytes, then EAGAIN, then the rest.
        c.advance_write(3);
        assert_eq!(c.writable(), &f[3..]);
        let rest = c.writable().len();
        c.advance_write(rest);
        assert!(c.writable().is_empty());
        assert!(!c.finished(), "keep-alive connection stays open");
    }

    #[test]
    fn pipeline_cap_pauses_parsing_until_responses_drain() {
        let mut c = Conn::new();
        for _ in 0..4 {
            c.push_bytes(b"GET /x HTTP/1.1\r\n\r\n");
        }
        let first = c.parse_available(2).unwrap();
        assert_eq!(first.len(), 2, "cap of 2 holds back the rest");
        assert!(!c.wants_read(2), "full pipeline drops read interest");
        assert!(c.parse_available(2).unwrap().is_empty());
        c.complete(0, frame(b"a", true));
        assert_eq!(c.inflight(), 1);
        assert!(c.wants_read(2));
        let more = c.parse_available(2).unwrap();
        assert_eq!(more.len(), 1, "one slot freed, one more request parsed");
        assert_eq!(more[0].seq, 2);
    }

    #[test]
    fn connection_close_request_stops_parsing_and_finishes() {
        let mut c = Conn::new();
        c.push_bytes(
            b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
        );
        let jobs = c.parse_available(32).unwrap();
        assert_eq!(jobs.len(), 1, "nothing after a close request is parsed");
        assert!(!jobs[0].keep_alive);
        assert_eq!(c.phase(), ConnPhase::Draining);
        assert!(!c.finished(), "response still owed");
        c.complete(0, frame(b"a", false));
        let n = c.writable().len();
        c.advance_write(n);
        assert!(c.finished());
    }

    #[test]
    fn protocol_error_drains_and_error_frame_orders_after_accepted_work() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /ok HTTP/1.1\r\n\r\nPOST /bad HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        let mut admitted = Vec::new();
        let pumped = c.pump(32, &mut |job| {
            admitted.push(job.seq);
            true
        });
        assert_eq!(admitted, vec![0]);
        assert_eq!(pumped.refused, Some(400));
        assert_eq!(c.phase(), ConnPhase::Draining);
        assert!(
            c.writable().is_empty(),
            "error frame must wait for the accepted request's response"
        );
        c.deliver(0, frame(b"ok", true), false, 32, &mut |_| unreachable!());
        let mut expect = frame(b"ok", true);
        expect.extend_from_slice(&error_frame(400, "http: malformed Content-Length"));
        assert_eq!(c.writable(), &expect[..]);
    }

    #[test]
    fn queue_refusal_sheds_the_rest_of_the_batch_and_the_deferred_error() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        c.push_bytes(b"POST /bad HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let mut offered = 0;
        let pumped = c.pump(32, &mut |_| {
            offered += 1;
            offered == 1
        });
        assert_eq!(offered, 2, "nothing is offered after the first refusal");
        assert_eq!((pumped.depth, pumped.shed, pumped.refused), (Some(3), 2, None));
        c.deliver(0, frame(b"a", true), false, 32, &mut |_| unreachable!());
        let mut expect = frame(b"a", true);
        expect.extend_from_slice(&error_frame(503, "shed: queue full"));
        expect.extend_from_slice(&error_frame(503, "shed: queue full"));
        assert_eq!(c.writable(), &expect[..], "no 400 may follow the close-marked 503");
        let n = c.writable().len();
        c.advance_write(n);
        assert!(c.finished());
    }

    #[test]
    fn half_close_after_complete_request_still_serves_it() {
        // write-then-shutdown(SHUT_WR): the buffered request must be
        // parsed and answered, and only then the connection finishes.
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\n");
        c.input_closed();
        assert!(!c.wants_read(32), "EOF'd socket must drop read interest");
        let jobs = c.parse_available(32).unwrap();
        assert_eq!(jobs.len(), 1, "half-close must not discard the request");
        assert_eq!(c.phase(), ConnPhase::Draining, "nothing parseable remains");
        assert!(!c.finished(), "response still owed");
        c.complete(0, frame(b"a", false));
        let n = c.writable().len();
        c.advance_write(n);
        assert!(c.finished());
    }

    #[test]
    fn half_close_with_capped_pipeline_parses_the_rest_as_slots_free() {
        let mut c = Conn::new();
        for _ in 0..3 {
            c.push_bytes(b"GET /x HTTP/1.1\r\n\r\n");
        }
        c.push_bytes(b"GET /x HTTP/1.1\r\nContent-Length: x\r\n\r\n");
        c.input_closed();
        let mut seqs = Vec::new();
        let mut admit = |job: ParsedJob| {
            assert!(!job.keep_alive, "parsed after EOF: must close");
            seqs.push(job.seq);
            true
        };
        c.pump(2, &mut admit);
        assert_eq!(
            c.phase(),
            ConnPhase::Open,
            "a complete-but-capped request must keep the phase Open"
        );
        c.deliver(0, frame(b"a", false), false, 2, &mut admit);
        assert_eq!(c.phase(), ConnPhase::Open, "a capped refusal is still owed");
        c.deliver(1, frame(b"b", false), false, 2, &mut admit);
        assert_eq!(c.phase(), ConnPhase::Draining, "buffer exhausted after EOF");
        assert_eq!(c.inflight(), 2, "request 2 and the refusal behind it");
        c.deliver(2, frame(b"c", false), false, 2, &mut admit);
        assert!(c.writable().ends_with(&error_frame(400, "http: malformed Content-Length")));
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn half_close_discards_an_unfinishable_fragment() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /par");
        c.input_closed();
        let jobs = c.parse_available(32).unwrap();
        assert_eq!(jobs.len(), 1, "the complete request is still served");
        assert_eq!(c.phase(), ConnPhase::Draining);
        assert_eq!(c.partial_bytes(), 0, "the fragment can never complete");
    }

    #[test]
    fn capped_buffered_requests_parse_after_completions_without_new_bytes() {
        // The scenario behind the completion-time re-parse: a burst beyond
        // the cap arrives in one read, and no further readable event will
        // ever fire.
        let mut c = Conn::new();
        for _ in 0..5 {
            c.push_bytes(b"GET /x HTTP/1.1\r\n\r\n");
        }
        let mut queued = Vec::new();
        let mut admit = |job: ParsedJob| {
            queued.push(job.seq);
            true
        };
        assert_eq!(c.pump(2, &mut admit).depth, Some(2), "cap holds back the rest of the burst");
        for seq in 0..5 {
            assert!(c.inflight() > 0, "stalled before request {seq}");
            c.deliver(seq, frame(b"x", true), false, 2, &mut admit);
        }
        assert_eq!(queued, vec![0, 1, 2, 3, 4], "every buffered request must parse");
        assert_eq!(c.partial_bytes(), 0);
    }

    #[test]
    fn close_marked_response_is_the_last_frame_on_the_wire() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        let mut admit = |_: ParsedJob| true;
        assert_eq!(c.pump(8, &mut admit).depth, Some(3));
        // Completions out of order: the frame behind the close-marked one
        // finishes first, yet never reaches the wire.
        c.deliver(2, frame(b"c", true), false, 8, &mut admit);
        c.deliver(1, frame(b"shed", false), true, 8, &mut admit);
        assert_eq!(c.phase(), ConnPhase::Draining);
        assert!(c.writable().is_empty(), "frame 0 is still owed first");
        c.deliver(0, frame(b"a", true), false, 8, &mut admit);
        let mut want = frame(b"a", true);
        want.extend(frame(b"shed", false));
        assert_eq!(c.writable(), &want[..]);
        assert_eq!(c.inflight(), 0, "the dropped frame still completed");
        c.advance_write(want.len());
        assert!(c.finished());
    }

    #[test]
    fn drain_finishes_inflight_then_closes() {
        let mut c = Conn::new();
        c.push_bytes(b"GET /a HTTP/1.1\r\n\r\n");
        let jobs = c.parse_available(32).unwrap();
        assert_eq!(jobs.len(), 1);
        c.start_draining(); // server shutdown mid-request
        assert!(!c.finished(), "in-flight request must be answered first");
        c.complete(0, frame(b"a", false));
        let n = c.writable().len();
        c.advance_write(n);
        assert!(c.finished());
        // An idle connection, by contrast, finishes immediately on drain.
        let mut idle = Conn::new();
        idle.start_draining();
        assert!(idle.finished());
    }
}
