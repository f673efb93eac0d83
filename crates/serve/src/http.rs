//! A minimal HTTP/1.1 layer: one request parser with hard limits, response writing.
//!
//! The daemon speaks just enough HTTP for its POST/GET endpoints: request line,
//! headers, `Content-Length` bodies, percent-encoded query strings, keep-alive and
//! pipelining. There is one request parser, [`IncrementalParser`], and both front ends
//! feed it: the reactor with non-blocking reads, the threaded front end with blocking
//! ones. So every status and error message a client can see for a malformed request
//! comes from the same code on both. Everything is bounded — head size, header count,
//! body size, and total wall-clock per request read — so a hostile peer can exhaust
//! neither memory nor a worker's time: the per-`read` socket timeout alone would not
//! stop a slow-loris client dripping one byte per interval, but the read deadline
//! would. No chunked transfer encoding: requests carrying `Transfer-Encoding` are
//! rejected with `411 Length Required` semantics (the daemon's clients always know
//! their body length up front).

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum header count.
    pub max_headers: usize,
    /// Maximum `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (name matched case-insensitively against the stored
    /// lower-case form).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to be closed after this response.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A request that could not be parsed: the server answers with this status and
/// message, then closes the connection (the parser cannot resynchronise).
#[derive(Debug)]
pub struct HttpError {
    /// Suggested response status (400, 413, …).
    pub status: u16,
    /// Human-readable reason, echoed in the error body.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Parses a complete request head (request line + header lines, line terminators
/// already stripped) into a body-less [`Request`] plus the declared `Content-Length`.
/// Every status code and error message a client can observe for a malformed head
/// comes from here.
fn assemble_head<'a>(
    request_line: &str,
    header_lines: impl Iterator<Item = &'a str>,
    limits: &HttpLimits,
) -> Result<(Request, usize), HttpError> {
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("unsupported version {version}")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path =
        percent_decode(raw_path, false).ok_or_else(|| HttpError::bad("bad path encoding"))?;
    let query = match raw_query {
        None => Vec::new(),
        Some(q) => parse_query(q).ok_or_else(|| HttpError::bad("bad query encoding"))?,
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in header_lines {
        if headers.len() >= limits.max_headers {
            return Err(HttpError {
                status: 431,
                message: format!("more than {} headers", limits.max_headers),
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad("header line without `:`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(HttpError {
            status: 411,
            message: "chunked bodies are not supported; send Content-Length".into(),
        });
    }
    // RFC 7230: conflicting Content-Length values must be rejected, not resolved —
    // behind a proxy that honours a different occurrence this is a request-smuggling
    // desync.
    let mut content_lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length = match content_lengths.next() {
        None => 0usize,
        Some(first) => {
            if content_lengths.any(|other| other != first) {
                return Err(HttpError::bad("conflicting Content-Length headers"));
            }
            // RFC 9110: DIGIT-only — `parse` alone would accept a `+` prefix, another
            // front-proxy disagreement to refuse outright.
            if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::bad("invalid Content-Length"));
            }
            first
                .parse::<usize>()
                .map_err(|_| HttpError::bad("invalid Content-Length"))?
        }
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError {
            status: 413,
            message: format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                limits.max_body_bytes
            ),
        });
    }

    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

/// The daemon's one HTTP/1.1 request parser, shared by both front ends.
///
/// A front end feeds whatever bytes `read(2)` produced — a byte, a half request, three
/// pipelined requests — and polls for complete requests: the reactor from its
/// non-blocking sockets, the threaded front end from blocking reads, one parser per
/// connection either way. Parsing state survives across feeds, so a head split at any
/// byte boundary parses identically to one delivered whole. Limits are enforced
/// *mid-stream*: a head that exceeds `max_head_bytes` before its terminator arrives is
/// rejected without buffering the rest, which is the property that makes 10k
/// slow-loris clients cost kilobytes instead of threads.
#[derive(Debug)]
pub struct IncrementalParser {
    limits: HttpLimits,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the head terminator (scan-resume memo).
    scanned: usize,
    state: ParseState,
}

#[derive(Debug)]
enum ParseState {
    Head,
    Body {
        request: Box<Request>,
        content_length: usize,
    },
}

impl IncrementalParser {
    /// A fresh parser enforcing `limits`.
    pub fn new(limits: HttpLimits) -> Self {
        IncrementalParser {
            limits,
            buf: Vec::new(),
            scanned: 0,
            state: ParseState::Head,
        }
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the parser holds no partial request (nothing buffered, waiting for a
    /// request line). Distinguishes an *idle* keep-alive connection from one that went
    /// quiet mid-request, which the reactor maps to different deadlines and counters.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::Head) && self.buf.is_empty()
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// `Ok(None)` means "need more bytes". After `Ok(Some(_))`, any pipelined
    /// remainder stays buffered — poll again before sleeping on the socket.
    ///
    /// # Errors
    ///
    /// [`HttpError`] (with a suggested status) on syntax errors or exceeded limits. The
    /// parser is unusable after an error; the connection must be closed.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if let ParseState::Body { content_length, .. } = &self.state {
            let content_length = *content_length;
            if self.buf.len() < content_length {
                return Ok(None);
            }
            let state = std::mem::replace(&mut self.state, ParseState::Head);
            let ParseState::Body { mut request, .. } = state else {
                unreachable!()
            };
            request.body = self.buf.drain(..content_length).collect();
            self.scanned = 0;
            return Ok(Some(*request));
        }

        // Tolerate stray blank lines between pipelined requests.
        loop {
            if self.buf.starts_with(b"\r\n") {
                self.buf.drain(..2);
            } else if self.buf.first() == Some(&b'\n') {
                self.buf.drain(..1);
            } else {
                break;
            }
            self.scanned = 0;
        }

        let Some(head_end) = self.find_head_terminator() else {
            if self.buf.len() > self.limits.max_head_bytes {
                return Err(HttpError {
                    status: 431,
                    message: format!("request head exceeds {} bytes", self.limits.max_head_bytes),
                });
            }
            return Ok(None);
        };
        if head_end > self.limits.max_head_bytes {
            return Err(HttpError {
                status: 431,
                message: format!("request head exceeds {} bytes", self.limits.max_head_bytes),
            });
        }

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::bad("non-UTF-8 request head"))?;
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or("");
        // The only empty line in `head` is the terminator itself (the scan stops at
        // the first blank line), so filtering it out cannot drop a real header.
        let (request, content_length) =
            assemble_head(request_line, lines.filter(|l| !l.is_empty()), &self.limits)?;
        self.buf.drain(..head_end);
        self.scanned = 0;
        if content_length == 0 {
            return Ok(Some(request));
        }
        self.state = ParseState::Body {
            request: Box::new(request),
            content_length,
        };
        self.poll()
    }

    /// Finds the byte offset one past the blank line ending the head (`\r\n\r\n` or
    /// `\n\n`, mixed endings tolerated), resuming from the last scan position.
    fn find_head_terminator(&mut self) -> Option<usize> {
        // A terminator may straddle the previous feed boundary by up to 2 bytes.
        let start = self.scanned.saturating_sub(2);
        for i in start..self.buf.len() {
            if self.buf[i] != b'\n' {
                continue;
            }
            match self.buf.get(i + 1) {
                Some(&b'\n') => return Some(i + 2),
                Some(&b'\r') if self.buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        self.scanned = self.buf.len();
        None
    }

    /// The threaded front end's read loop: feeds blocking `read`s from `reader` into
    /// the parser until one request is complete, polling first so pipelined bytes
    /// already buffered are served without touching the socket.
    ///
    /// `Ok(None)` means there is nothing to answer: the peer closed, the socket failed
    /// or timed out, or a read returned after `deadline`. The deadline is checked after
    /// every read, so a slow-loris peer dripping bytes under the socket's read timeout
    /// still loses its worker at the deadline.
    ///
    /// # Errors
    ///
    /// As [`IncrementalParser::poll`].
    pub(crate) fn next_request(
        &mut self,
        reader: &mut impl Read,
        deadline: Instant,
    ) -> Result<Option<Request>, HttpError> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(request) = self.poll()? {
                return Ok(Some(request));
            }
            match reader.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(_) if Instant::now() > deadline => return Ok(None),
                Ok(n) => self.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(None),
            }
        }
    }
}

/// Splits and percent-decodes `a=b&c=d`; `None` on invalid encoding.
fn parse_query(raw: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in raw.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Some(out)
}

/// Decodes `%XX` escapes (strict two-hex-digit form) and, only when
/// `plus_as_space` (the `application/x-www-form-urlencoded` query convention — a `+`
/// in a *path* is a literal plus), `+`-as-space. `None` on truncated/invalid escapes
/// or non-UTF-8 results.
fn percent_decode(raw: &str, plus_as_space: bool) -> Option<String> {
    if !(raw.contains('%') || plus_as_space && raw.contains('+')) {
        return Some(raw.to_string());
    }
    let bytes = raw.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                // `from_str_radix` would accept a sign prefix; require hex digits.
                if !hex.iter().all(u8::is_ascii_hexdigit) {
                    return None;
                }
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A response ready to be serialised.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. the cache disposition.
    pub extra_headers: Vec<(String, String)>,
    /// The body, behind an [`Arc`] so cache hits share it instead of copying it.
    pub body: Arc<String>,
}

impl Response {
    /// A JSON response from an owned body.
    pub fn json(status: u16, body: String) -> Self {
        Self::json_shared(status, Arc::new(body))
    }

    /// A JSON response from an already-shared body (the cache-hit path: no copy).
    pub fn json_shared(status: u16, body: Arc<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            crate::json::Json::obj([("error", crate::json::Json::from(message))]).render(),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }
}

/// The standard reason phrase for the status codes the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Builds the response head exactly as the blocking writer emits it — the reactor
/// serialises through this same function, which is what keeps the two front ends'
/// wire bytes identical.
pub(crate) fn response_head(response: &Response, close: bool) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    head
}

/// Serialises a whole response (head + body) into one buffer for non-blocking writes.
pub(crate) fn serialize_response(response: &Response, close: bool) -> Vec<u8> {
    let head = response_head(response, close);
    let mut out = Vec::with_capacity(head.len() + response.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(response.body.as_bytes());
    out
}

/// Serialises `response` onto `stream` (HTTP/1.1, explicit `Content-Length`,
/// `Connection: close` when `close`).
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(stream: &mut impl Write, response: &Response, close: bool) -> io::Result<()> {
    write_response_deadline(stream, response, close, None)
}

/// [`write_response`] with a total wall-clock bound on the write.
///
/// The per-`write` socket timeout alone does not bound the whole response: a peer
/// draining its receive window one byte at a time keeps every individual write under
/// the timeout while holding the worker indefinitely (the write-side slow-loris). The
/// body is therefore written in bounded chunks with the deadline checked between them;
/// a blown deadline aborts with [`io::ErrorKind::TimedOut`] and the caller drops the
/// connection.
///
/// # Errors
///
/// Propagates socket write errors; [`io::ErrorKind::TimedOut`] when `deadline` passes
/// before the response is fully written.
pub fn write_response_deadline(
    stream: &mut impl Write,
    response: &Response,
    close: bool,
    deadline: Option<Instant>,
) -> io::Result<()> {
    let head = response_head(response, close);
    stream.write_all(head.as_bytes())?;
    let body = response.body.as_bytes();
    let mut written = 0usize;
    while written < body.len() {
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "response write deadline exceeded",
            ));
        }
        let end = (written + 8192).min(body.len());
        stream.write_all(&body[written..end])?;
        written = end;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one request the way the threaded front end does: blocking reads into a
    /// fresh parser.
    fn read_with(reader: &mut impl Read, limits: HttpLimits) -> Result<Option<Request>, HttpError> {
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        IncrementalParser::new(limits).next_request(reader, deadline)
    }

    fn parse_str(input: &str) -> Result<Option<Request>, HttpError> {
        read_with(&mut input.as_bytes(), HttpLimits::default())
    }

    /// A reader that hands out one byte per `read`, like a peer dripping its request.
    struct Drip<'a>(&'a [u8]);

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.split_first() {
                Some((&byte, rest)) if !out.is_empty() => {
                    out[0] = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_str(
            "POST /schedule?threads=2&cache=0 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/schedule");
        assert_eq!(req.query_param("threads"), Some("2"));
        assert_eq!(req.query_param("cache"), Some("0"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn percent_decoding_reaches_query_values() {
        let req = parse_str("GET /x?a=b%20c&d=e+f HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("a"), Some("b c"));
        assert_eq!(req.query_param("d"), Some("e f"));
    }

    #[test]
    fn plus_in_path_is_literal_and_bad_escapes_are_rejected() {
        // `+` is a space only in form-encoded query strings, never in paths.
        let req = parse_str("GET /a+b HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.path, "/a+b");
        // `from_str_radix` alone would accept the sign prefix in `%+a`.
        for target in ["/x%+a", "/x%4", "/x%zz"] {
            let err = parse_str(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap_err();
            assert!(matches!(err, HttpError { status: 400, .. }), "{target}");
        }
    }

    #[test]
    fn conflicting_content_length_headers_are_rejected() {
        // Resolving the conflict either way is a request-smuggling desync behind a
        // proxy that resolves it the other way.
        let err =
            parse_str("POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap_err();
        assert!(matches!(err, HttpError { status: 400, .. }));
        // Repeated but agreeing values are harmless.
        let req =
            parse_str("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap()
                .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse_str("").unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_413() {
        let limits = HttpLimits {
            max_body_bytes: 4,
            ..HttpLimits::default()
        };
        let err = read_with(
            &mut &b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789"[..],
            limits,
        )
        .unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn truncated_body_is_disconnected() {
        // EOF mid-body leaves nothing to answer: the front end drops the connection.
        assert!(
            parse_str("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        assert!(matches!(
            parse_str("NONSENSE\r\n\r\n"),
            Err(HttpError { status: 400, .. })
        ));
    }

    #[test]
    fn expired_write_deadline_aborts_with_timed_out() {
        let mut out = Vec::new();
        let long_body = "x".repeat(64 * 1024);
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = write_response_deadline(
            &mut out,
            &Response::json(200, long_body),
            true,
            Some(expired),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn incremental_parser_handles_any_split_boundary() {
        // One POST with query, headers and body, split at every byte boundary: the
        // parse must be identical no matter where the reads land.
        let wire =
            b"POST /schedule?threads=2 HTTP/1.1\r\nHost: x\r\nX-Fcpn-Tenant: acme\r\nContent-Length: 5\r\n\r\nhello";
        for split in 0..=wire.len() {
            let mut parser = IncrementalParser::new(HttpLimits::default());
            parser.feed(&wire[..split]);
            let first = parser.poll().unwrap();
            parser.feed(&wire[split..]);
            let req = match first {
                Some(req) => req,
                None => parser
                    .poll()
                    .unwrap()
                    .unwrap_or_else(|| panic!("no request after full feed (split at {split})")),
            };
            assert_eq!(req.method, "POST", "split {split}");
            assert_eq!(req.path, "/schedule");
            assert_eq!(req.query_param("threads"), Some("2"));
            assert_eq!(req.header("x-fcpn-tenant"), Some("acme"));
            assert_eq!(req.body, b"hello");
            assert!(parser.is_idle(), "split {split}");
        }
    }

    #[test]
    fn incremental_parser_drains_pipelined_requests_from_one_feed() {
        let mut parser = IncrementalParser::new(HttpLimits::default());
        parser.feed(
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\n\r\n",
        );
        let a = parser.poll().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("GET", "/healthz"));
        let b = parser.poll().unwrap().unwrap();
        assert_eq!(b.path, "/x");
        assert_eq!(b.body, b"abc");
        let c = parser.poll().unwrap().unwrap();
        assert_eq!(c.path, "/metrics");
        assert!(parser.poll().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_rejects_oversized_head_mid_stream() {
        // The head never terminates; the parser must reject as soon as the budget is
        // exceeded rather than buffering the drip-feed forever.
        let limits = HttpLimits {
            max_head_bytes: 64,
            ..HttpLimits::default()
        };
        let mut parser = IncrementalParser::new(limits);
        parser.feed(b"GET /");
        let mut rejected = None;
        for chunk in 0..100 {
            parser.feed(b"aaaaaaaa");
            match parser.poll() {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("unterminated head parsed"),
                Err(e) => {
                    rejected = Some((chunk, e));
                    break;
                }
            }
        }
        let (chunk, err) = rejected.expect("oversized head never rejected");
        assert_eq!(err.status, 431);
        // Rejection happened as soon as the budget blew, not at some later horizon.
        assert!(
            parser.buffered() <= 64 + 8 + 5,
            "rejected only at chunk {chunk}"
        );
    }

    #[test]
    fn incremental_parser_matches_blocking_reader_on_errors() {
        // Same malformed inputs, same statuses and messages whether the bytes arrive in
        // one feed or one blocking read per byte.
        for (wire, status, message) in [
            ("NONSENSE\r\n\r\n", 400, "missing request target"),
            (
                "POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello",
                400,
                "conflicting Content-Length headers",
            ),
            (
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                411,
                "chunked bodies are not supported; send Content-Length",
            ),
            (
                "POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
                400,
                "invalid Content-Length",
            ),
            ("GET /x%zz HTTP/1.1\r\n\r\n", 400, "bad path encoding"),
        ] {
            let mut parser = IncrementalParser::new(HttpLimits::default());
            parser.feed(wire.as_bytes());
            let whole = parser.poll().unwrap_err();
            let dripped = read_with(&mut Drip(wire.as_bytes()), HttpLimits::default()).unwrap_err();
            for err in [whole, dripped] {
                assert_eq!(
                    (err.status, err.message.as_str()),
                    (status, message),
                    "{wire:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_parser_tolerates_blank_lines_between_requests() {
        let mut parser = IncrementalParser::new(HttpLimits::default());
        parser.feed(b"GET /a HTTP/1.1\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(parser.poll().unwrap().unwrap().path, "/a");
        assert_eq!(parser.poll().unwrap().unwrap().path, "/b");
        assert!(parser.poll().unwrap().is_none());
    }

    #[test]
    fn response_serialisation_includes_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
