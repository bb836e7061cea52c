//! HTTP/1.1 framing: incremental request parsing and response assembly.
//!
//! Just enough of RFC 9112 for the serve endpoints. The epoll front end
//! accumulates each connection's bytes in a buffer and calls the
//! incremental [`parse_one`], which either yields a complete request plus
//! the byte count it consumed (so the *next* pipelined request can be
//! parsed from the remainder) or reports that more bytes are needed.
//! [`response_frame`] is the one response serializer.
//!
//! Keep-alive semantics follow RFC 9112 §9.3: HTTP/1.1 persists unless
//! the request says `Connection: close`; HTTP/1.0 closes unless it says
//! `Connection: keep-alive`.
//!
//! Hard limits guard the parser: 16 KiB of headers, 4 MiB of body. A
//! request that overflows the header limit is refused with **431**, any
//! other malformed framing (including an unparsable, duplicated-and-
//! conflicting, or over-limit `Content-Length`, or any
//! `Transfer-Encoding` header — no transfer coding is implemented, and
//! guessing at framing is a smuggling vector) with **400** — always
//! followed by a connection close, since framing can't be trusted after
//! a parse error.

use privim_rt::json::Value;

/// Header section cap (bytes).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Body cap (bytes).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Origin-form target, query string stripped.
    pub path: String,
    /// Header fields in arrival order, names as sent, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value whose name matches `name` case-insensitively
    /// (header names are case-insensitive per RFC 9110).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A request-level protocol error: the status the refusal should carry
/// plus a human-readable reason. Always followed by a connection close.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Response status (`431` for an oversized header block, `400`
    /// otherwise).
    pub status: u16,
    /// What went wrong, phrased for the error body.
    pub message: String,
}

impl HttpError {
    fn bad(msg: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: msg.into(),
        }
    }

    fn too_large(msg: impl Into<String>) -> HttpError {
        HttpError {
            status: 431,
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http: {}", self.message)
    }
}

/// One successfully parsed request plus its framing metadata.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request itself.
    pub request: Request,
    /// Bytes of the buffer this request occupied; the caller drops them
    /// and may parse the next pipelined request from what remains.
    pub consumed: usize,
    /// Whether the connection should persist after the response
    /// (RFC 9112 §9.3 semantics over the version + `Connection` header).
    pub keep_alive: bool,
}

/// Incrementally parse the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// request (read more bytes and call again), `Ok(Some(..))` when one
/// request is complete, and `Err` when the bytes can never become a
/// valid request. The parse is stateless — it re-derives everything from
/// the buffer — so a caller can feed bytes at any granularity, down to
/// one at a time.
pub fn parse_one(buf: &[u8]) -> Result<Option<ParsedRequest>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        // No terminator yet. If the headers could no longer fit under the
        // cap even in principle, refuse now instead of buffering forever.
        if buf.len() >= MAX_HEADER_BYTES {
            return Err(HttpError::too_large(
                "header section exceeds the 16 KiB limit",
            ));
        }
        return Ok(None);
    };
    if head_len > MAX_HEADER_BYTES {
        return Err(HttpError::too_large(
            "header section exceeds the 16 KiB limit",
        ));
    }
    let head_text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::bad("headers are not valid UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad("only HTTP/1.x is supported"));
    }
    let http_10 = version == "HTTP/1.0";
    let path = target.split('?').next().unwrap_or(target);

    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // No transfer coding is implemented here, and RFC 9112 §6.1
            // forbids guessing: framing a chunked message as body-less
            // would hand the body bytes to the pipelined-request parser
            // as attacker-framed "requests" (request smuggling).
            return Err(HttpError::bad("Transfer-Encoding is not supported"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = parse_content_length(value)?;
            // Conflicting duplicates are a request-smuggling vector
            // (RFC 9112 §6.3); matching duplicates are tolerated.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(HttpError::bad("conflicting Content-Length headers"));
            }
            content_length = Some(parsed);
        }
        headers.push((name.to_string(), value.to_string()));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::bad("body exceeds the 4 MiB limit"));
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: buf[head_len..total].to_vec(),
    };
    let keep_alive = wants_keep_alive(http_10, &request.headers);
    Ok(Some(ParsedRequest {
        request,
        consumed: total,
        keep_alive,
    }))
}

/// Strict `Content-Length`: ASCII digits only (no sign, no whitespace
/// beyond the already-trimmed value, no hex), rejected on overflow — so
/// a malformed length can never stall the connection in a body read that
/// will never complete.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::bad("malformed Content-Length"));
    }
    value
        .parse::<usize>()
        .map_err(|_| HttpError::bad("Content-Length overflows"))
}

/// Offset one past the `\r\n\r\n` header terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// RFC 9112 §9.3 persistence: HTTP/1.1 defaults to keep-alive unless the
/// request says `Connection: close`; HTTP/1.0 defaults to close unless
/// it says `Connection: keep-alive`. The `Connection` value is a
/// comma-separated token list, matched case-insensitively.
fn wants_keep_alive(http_10: bool, headers: &[(String, String)]) -> bool {
    let token = |want: &str| {
        headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case("connection"))
            .flat_map(|(_, v)| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(want))
    };
    if http_10 {
        token("keep-alive")
    } else {
        !token("close")
    }
}

/// Canonical reason phrase for the status codes the server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Assemble a complete response frame: status line, `Content-Type`,
/// `Content-Length`, `Connection` (`keep-alive` or `close`), any extra
/// headers, then the body. One buffer so the caller can issue a single
/// write (a head-then-body write pair interacts with Nagle + delayed ACK
/// to stall small responses for ~40 ms).
pub fn response_frame(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut frame = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
        connection,
    );
    for (name, value) in extra_headers {
        frame.push_str(name);
        frame.push_str(": ");
        frame.push_str(value);
        frame.push_str("\r\n");
    }
    frame.push_str("\r\n");
    let mut frame = frame.into_bytes();
    frame.extend_from_slice(body);
    frame
}

/// A `Connection: close` JSON error response, `{"error": message}`: the
/// one shape of every refusal the server makes before or instead of
/// routing (protocol errors, queue-full and deadline sheds).
pub(crate) fn error_frame(status: u16, message: &str) -> Vec<u8> {
    let body = Value::obj(vec![("error", Value::Str(message.to_string()))]).to_json_string();
    response_frame(status, "application/json", &[], body.as_bytes(), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_whole(raw: &[u8]) -> ParsedRequest {
        parse_one(raw).unwrap().expect("complete request")
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/embed?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd";
        let p = parse_whole(raw);
        assert_eq!(p.request.method, "POST");
        assert_eq!(p.request.path, "/v1/embed");
        assert_eq!(p.request.body, b"abcd");
        assert_eq!(p.request.header("host"), Some("h"));
        assert_eq!(p.consumed, raw.len());
        assert!(p.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn headers_are_captured_case_insensitively() {
        let raw =
            b"POST /v1/embed HTTP/1.1\r\nX-Privim-Tenant:  acme \r\nContent-Length: 0\r\n\r\n";
        let req = parse_whole(raw).request;
        assert_eq!(req.header("x-privim-tenant"), Some("acme"));
        assert_eq!(req.header("X-PRIVIM-TENANT"), Some("acme"));
        assert_eq!(req.header("content-length"), Some("0"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let p = parse_whole(raw);
        assert_eq!(p.request.method, "GET");
        assert_eq!(p.request.path, "/healthz");
        assert!(p.request.body.is_empty());
    }

    #[test]
    fn incremental_parse_needs_more_until_complete() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        // Every strict prefix is NeedMore; the full buffer completes.
        for cut in 0..raw.len() {
            assert!(
                parse_one(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must not produce a request"
            );
        }
        let p = parse_whole(raw);
        assert_eq!(p.request.body, b"abc");
        assert_eq!(p.consumed, raw.len());
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let a = b"POST /v1/embed HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let b = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let first = parse_whole(&buf);
        assert_eq!(first.request.path, "/v1/embed");
        assert_eq!(first.consumed, a.len());
        assert!(first.keep_alive);
        let second = parse_whole(&buf[first.consumed..]);
        assert_eq!(second.request.path, "/healthz");
        assert!(!second.keep_alive, "Connection: close ends persistence");
        assert_eq!(first.consumed + second.consumed, buf.len());
    }

    #[test]
    fn keep_alive_semantics_cover_http_10() {
        let v11 = b"GET / HTTP/1.1\r\n\r\n";
        assert!(parse_whole(v11).keep_alive);
        let v11_close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse_whole(v11_close).keep_alive);
        let v11_close_list = b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n";
        assert!(!parse_whole(v11_close_list).keep_alive);
        // HTTP/1.0 closes by default and persists only on request.
        let v10 = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!parse_whole(v10).keep_alive);
        let v10_ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse_whole(v10_ka).keep_alive);
    }

    #[test]
    fn oversized_header_block_is_431() {
        // A terminator-less flood past the cap must be refused, not
        // buffered forever (the slowloris memory bound).
        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        while flood.len() < MAX_HEADER_BYTES {
            flood.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let err = parse_one(&flood).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn malformed_content_length_is_400_not_a_stall() {
        for bad in [
            "Content-Length: -5",
            "Content-Length: 0x10",
            "Content-Length: 1 2",
            "Content-Length: ",
            "Content-Length: 99999999999999999999999999",
        ] {
            let raw = format!("POST /x HTTP/1.1\r\n{bad}\r\n\r\n");
            let err = parse_one(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{bad}");
        }
        // Conflicting duplicates are refused; agreeing ones tolerated.
        let conflict = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n";
        assert_eq!(parse_one(conflict).unwrap_err().status, 400);
        let agree = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse_whole(agree).request.body, b"ok");
    }

    #[test]
    fn transfer_encoding_is_rejected_not_smuggled() {
        // Framing this as body-less would feed the chunked body to the
        // pipelined-request parser as a fake follow-up request.
        let chunked =
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nGET /\r\n0\r\n\r\n";
        assert_eq!(parse_one(chunked).unwrap_err().status, 400);
        // Case-insensitive, and rejected even alongside Content-Length
        // (the classic TE.CL smuggling shape) or with a non-chunked
        // coding.
        let te_cl =
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse_one(te_cl).unwrap_err().status, 400);
        let gzip = b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        assert_eq!(parse_one(gzip).unwrap_err().status, 400);
        // Rejected as soon as the head is complete, before any body byte.
        let head_only = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse_one(head_only).unwrap_err().status, 400);
    }

    #[test]
    fn rejects_truncation_garbage_and_limits() {
        // A truncated head is not an error yet: more bytes may follow.
        assert!(parse_one(b"GET /x HTTP/1.1\r\n").unwrap().is_none());
        assert_eq!(parse_one(b"nonsense\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_one(b"GET /x SPDY/3\r\n\r\n").unwrap_err().status, 400);
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_one(huge.as_bytes()).unwrap_err().status, 400);
        // A body shorter than declared is still waiting for bytes.
        let short = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse_one(short).unwrap().is_none());
    }

    #[test]
    fn response_framing_is_complete() {
        let frame = response_frame(200, "application/json", &[], b"{\"ok\":true}", false);
        let text = String::from_utf8(frame).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn keep_alive_frame_differs_only_in_connection_header() {
        let ka = response_frame(200, "application/json", &[], b"{}", true);
        let close = response_frame(200, "application/json", &[], b"{}", false);
        let ka = String::from_utf8(ka).unwrap();
        let close = String::from_utf8(close).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
        assert!(close.contains("Connection: close\r\n"));
        assert_eq!(
            ka.replace("Connection: keep-alive", "Connection: close"),
            close
        );
    }

    #[test]
    fn extra_headers_ride_in_the_head_section() {
        let frame = response_frame(
            429,
            "application/json",
            &[("Retry-After", "60".to_string())],
            b"{}",
            false,
        );
        let text = String::from_utf8(frame).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 60\r\n"));
        let head = text.split_once("\r\n\r\n").unwrap().0;
        assert!(head.contains("Retry-After"), "header must precede the body");
    }

    #[test]
    fn error_frame_is_a_closing_json_refusal() {
        let text = String::from_utf8(error_frame(503, "shed: queue full")).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"shed: queue full\"}"));
    }
}
