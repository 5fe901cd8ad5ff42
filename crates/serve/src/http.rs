//! Minimal std-only HTTP/1.1 plumbing: an incremental (push) request
//! parser, response byte builders, chunked-transfer helpers for NDJSON
//! streaming, and the bounded hand-off queue between the event loops and
//! the compute pool.
//!
//! The service speaks just enough HTTP for its API — one request per
//! connection (`Connection: close`), `Content-Length` bodies only. That
//! keeps the parser a few hundred lines, auditable, and dependency-free,
//! which is the point: the container has no HTTP framework to lean on.
//!
//! The parser is a byte-fed state machine ([`RequestParser`]) so the
//! non-blocking event loop can feed it whatever `read(2)` returned and
//! resume later. The tests and the fuzzer feed it from memory, the same
//! way.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

/// Largest request body accepted, matching the service's use: a SimRequest
/// is well under a kilobyte; anything megabytes long is not one.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line, bytes. Our longest real path is a few
/// dozen characters; 8 KiB matches common server defaults.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Longest accepted single header line, bytes.
pub const MAX_HEADER_LINE_BYTES: usize = 8 * 1024;

/// Most headers accepted on one request. The API needs three.
pub const MAX_HEADERS: usize = 64;

#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
    /// Value of the `X-Deadline-Ms` header, if the client sent one: the
    /// wall-clock budget it is willing to wait for the answer.
    pub deadline_ms: Option<u64>,
}

#[derive(Debug)]
pub enum ParseError {
    Io(io::Error),
    /// Malformed request line, header, or body framing; the message is
    /// client-facing.
    Bad(String),
    /// Body longer than [`MAX_BODY_BYTES`] (HTTP 413).
    TooLarge,
    /// Request line or header section over the caps (HTTP 431); the
    /// message names the violated limit.
    HeadersTooLarge(String),
    /// The socket read timeout (or the overall header budget) expired
    /// before a full request arrived (HTTP 408): a slowloris or stalled
    /// client, disconnected instead of pinning the worker.
    Timeout,
    /// Valid HTTP the service deliberately does not speak (HTTP 501) —
    /// today that is exactly `Transfer-Encoding: chunked` request bodies.
    NotImplemented(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error reading request: {e}"),
            ParseError::Bad(msg) => write!(f, "malformed HTTP request: {msg}"),
            ParseError::TooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            ParseError::HeadersTooLarge(msg) => write!(f, "request header section too large: {msg}"),
            ParseError::Timeout => write!(f, "timed out waiting for the request"),
            ParseError::NotImplemented(msg) => write!(f, "unsupported HTTP feature: {msg}"),
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        classify_io(e)
    }
}

/// Sort an I/O failure: a read that hit the socket timeout is a slow
/// client (408), everything else is a transport error.
fn classify_io(e: io::Error) -> ParseError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ParseError::Timeout,
        _ => ParseError::Io(e),
    }
}

/// What [`RequestParser::feed`] produced so far.
#[derive(Debug)]
pub enum ParseStatus {
    /// The bytes so far frame no complete request; feed more when they
    /// arrive.
    NeedMore,
    /// A full request line + headers + body was consumed.
    Done(Request),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    RequestLine,
    Headers,
    Body,
    Done,
}

/// Incremental HTTP/1.1 request parser: feed it whatever the socket
/// yielded, get back [`ParseStatus::NeedMore`] or a finished request.
/// All framing limits ([`MAX_REQUEST_LINE_BYTES`], [`MAX_HEADER_LINE_BYTES`],
/// [`MAX_HEADERS`], [`MAX_BODY_BYTES`]) are enforced *while* bytes arrive,
/// so a client streaming an endless line is cut off at the cap, not
/// buffered forever.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
    phase: Phase,
    method: String,
    path: String,
    /// `Content-Length`, once seen. Duplicate headers must agree: accepting
    /// mismatched duplicates last-one-wins is the classic request-smuggling
    /// ambiguity, so a conflict is a hard 400.
    content_length: Option<usize>,
    /// A `Transfer-Encoding` header listed `chunked`. The service does not
    /// speak chunked request bodies; this is answered with an explicit 501
    /// instead of silently misreading the framing as a zero-length body.
    chunked: bool,
    expect_continue: bool,
    continue_sent: bool,
    deadline_ms: Option<u64>,
    n_headers: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    pub fn new() -> Self {
        RequestParser {
            buf: Vec::new(),
            pos: 0,
            phase: Phase::RequestLine,
            method: String::new(),
            path: String::new(),
            content_length: None,
            chunked: false,
            expect_continue: false,
            continue_sent: false,
            deadline_ms: None,
            n_headers: 0,
        }
    }

    /// True while the request line + header section is still arriving —
    /// the window the overall header budget applies to.
    pub fn headers_incomplete(&self) -> bool {
        matches!(self.phase, Phase::RequestLine | Phase::Headers)
    }

    /// True once any byte has been fed: distinguishes a clean
    /// connect-then-close from a request truncated mid-flight.
    pub fn saw_bytes(&self) -> bool {
        !self.buf.is_empty()
    }

    /// The client sent `Expect: 100-continue` and is now waiting for the
    /// interim response before it ships the body. Returns true exactly
    /// once, after the header section is parsed.
    pub fn take_continue_request(&mut self) -> bool {
        if self.phase == Phase::Body && self.expect_continue && !self.continue_sent {
            self.continue_sent = true;
            return true;
        }
        false
    }

    /// Feed freshly read bytes and advance the state machine.
    pub fn feed(&mut self, data: &[u8]) -> Result<ParseStatus, ParseError> {
        self.buf.extend_from_slice(data);
        self.advance()
    }

    /// The peer hit EOF: classify what was lost. A complete request never
    /// reaches here (feed returns `Done` first), so EOF is always an error;
    /// `Io(UnexpectedEof)` means the client closed without sending anything
    /// (nothing to answer).
    pub fn finish_eof(&self) -> ParseError {
        match self.phase {
            Phase::RequestLine if self.buf.is_empty() => ParseError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before any request",
            )),
            Phase::RequestLine => ParseError::Bad("connection closed mid-request line".to_string()),
            Phase::Headers if self.pos == self.buf.len() => {
                ParseError::Bad("connection closed mid-headers".to_string())
            }
            Phase::Headers => ParseError::Bad("connection closed mid-header".to_string()),
            Phase::Body => ParseError::Bad(format!(
                "body shorter than content-length {}",
                self.content_length.unwrap_or(0)
            )),
            Phase::Done => ParseError::Bad("bytes after a complete request".to_string()),
        }
    }

    fn advance(&mut self) -> Result<ParseStatus, ParseError> {
        loop {
            match self.phase {
                Phase::RequestLine => {
                    let Some(line) = self.take_line(MAX_REQUEST_LINE_BYTES, "request line")?
                    else {
                        return Ok(ParseStatus::NeedMore);
                    };
                    let mut parts = line.split_whitespace();
                    let (method, path) = match (parts.next(), parts.next()) {
                        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
                        _ => return Err(ParseError::Bad(format!("bad request line {line:?}"))),
                    };
                    self.method = method;
                    self.path = path;
                    self.phase = Phase::Headers;
                }
                Phase::Headers => {
                    let Some(line) = self.take_line(MAX_HEADER_LINE_BYTES, "header")? else {
                        return Ok(ParseStatus::NeedMore);
                    };
                    if line.is_empty() {
                        self.end_headers()?;
                        self.phase = Phase::Body;
                        continue;
                    }
                    self.header_line(&line)?;
                }
                Phase::Body => {
                    let need = self.content_length.unwrap_or(0);
                    if self.buf.len() - self.pos < need {
                        return Ok(ParseStatus::NeedMore);
                    }
                    let body = String::from_utf8(self.buf[self.pos..self.pos + need].to_vec())
                        .map_err(|_| ParseError::Bad("request body is not UTF-8".to_string()))?;
                    self.pos += need;
                    self.phase = Phase::Done;
                    return Ok(ParseStatus::Done(Request {
                        method: std::mem::take(&mut self.method),
                        path: std::mem::take(&mut self.path),
                        body,
                        deadline_ms: self.deadline_ms,
                    }));
                }
                // Trailing bytes after the request (we never keep-alive);
                // ignored, the connection closes after the response.
                Phase::Done => return Ok(ParseStatus::NeedMore),
            }
        }
    }

    /// Take one CRLF/LF-terminated line out of the buffer, or `None` if no
    /// terminator has arrived yet. The cap is enforced against buffered
    /// bytes too, so an endless unterminated line still trips it.
    fn take_line(&mut self, cap: usize, what: &str) -> Result<Option<String>, ParseError> {
        let avail = &self.buf[self.pos..];
        let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
            if avail.len() > cap + 2 {
                // +2 tolerates the CR LF terminator on an exactly-cap line.
                return Err(ParseError::HeadersTooLarge(format!("{what} exceeds {cap} bytes")));
            }
            return Ok(None);
        };
        if nl + 1 > cap + 2 {
            return Err(ParseError::HeadersTooLarge(format!("{what} exceeds {cap} bytes")));
        }
        let mut end = self.pos + nl;
        while end > self.pos && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        let line = String::from_utf8(self.buf[self.pos..end].to_vec())
            .map_err(|_| ParseError::Bad(format!("{what} is not UTF-8")))?;
        self.pos += nl + 1;
        Ok(Some(line))
    }

    fn header_line(&mut self, header: &str) -> Result<(), ParseError> {
        self.n_headers += 1;
        if self.n_headers > MAX_HEADERS {
            return Err(ParseError::HeadersTooLarge(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Bad(format!("bad header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
            match self.content_length {
                Some(prev) if prev != parsed => {
                    return Err(ParseError::Bad(format!(
                        "conflicting content-length headers: {prev} then {parsed}"
                    )));
                }
                _ => self.content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            if value.split(',').any(|t| t.trim().eq_ignore_ascii_case("chunked")) {
                self.chunked = true;
            }
        } else if name.eq_ignore_ascii_case("x-deadline-ms") {
            let ms: u64 = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad x-deadline-ms {value:?}")))?;
            self.deadline_ms = Some(ms);
        } else if name.eq_ignore_ascii_case("expect")
            && value.trim().eq_ignore_ascii_case("100-continue")
        {
            self.expect_continue = true;
        }
        Ok(())
    }

    fn end_headers(&mut self) -> Result<(), ParseError> {
        if self.chunked {
            return Err(ParseError::NotImplemented(
                "transfer-encoding: chunked is not supported; send a content-length body"
                    .to_string(),
            ));
        }
        if self.content_length.unwrap_or(0) > MAX_BODY_BYTES {
            return Err(ParseError::TooLarge);
        }
        Ok(())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The interim response for `Expect: 100-continue` clients (curl sends it
/// for bodies over a kilobyte and stalls up to a second waiting).
pub const CONTINUE_100: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Serialize a full JSON response (status line, headers, body) to bytes —
/// the form the non-blocking writer needs.
pub fn response_bytes(status: u16, extra_headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Response head for an NDJSON stream: chunked transfer encoding, one
/// chunk per line, terminated by [`LAST_CHUNK`].
pub fn streaming_head_bytes(status: u16, extra_headers: &[(&str, &str)]) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// One NDJSON line as an HTTP chunk (the newline travels inside the chunk).
pub fn chunk_bytes(line: &str) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", line.len() + 1).into_bytes();
    out.extend_from_slice(line.as_bytes());
    out.extend_from_slice(b"\n\r\n");
    out
}

/// The zero-length chunk ending a chunked response.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Write a full JSON response and flush. Failures are returned for the
/// caller to log; a client that hung up mid-write is not a server error.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    stream.write_all(&response_bytes(status, extra_headers, body))?;
    stream.flush()
}

/// Answer a connection that is being refused *before* its request was read
/// (load shedding): write the response, half-close, then discard whatever
/// the client had already sent. Closing with unread data queued would RST
/// the socket and destroy the response before the client reads it. The
/// drain is bounded (read timeout + byte cap) so a slow-trickling client
/// cannot pin the acceptor.
pub fn refuse(mut stream: TcpStream, status: u16, headers: &[(&str, &str)], body: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(1)));
    let _ = write_response(&mut stream, status, headers, body);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let mut discard = [0u8; 4096];
    let mut budget = MAX_BODY_BYTES;
    while budget > 0 {
        match stream.read(&mut discard) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Bounded MPMC hand-off between the event loops and the compute pool.
///
/// `push` never blocks: over capacity the item comes straight back so the
/// caller can shed load (HTTP 429) instead of building an invisible
/// backlog. `pop` blocks until an item arrives or the queue is closed *and*
/// drained — closing is how graceful shutdown lets workers finish the
/// admitted backlog before exiting.
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item`, or hand it back if the queue is full or closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Next admitted item; `None` once closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Stop admitting; wake every blocked `pop` so workers can drain out.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Current backlog (metrics gauge).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Admission capacity (readiness gauge).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Feed `raw` to a fresh parser in one piece; a request still
    /// incomplete at the end of `raw` meets EOF there.
    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let mut parser = RequestParser::new();
        match parser.feed(raw)? {
            ParseStatus::Done(req) => Ok(req),
            ParseStatus::NeedMore => Err(parser.finish_eof()),
        }
    }

    #[test]
    fn well_formed_request_parses_with_deadline_header() {
        let req = parse(
            b"POST /simulate HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\
              content-length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, "body");
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn byte_at_a_time_feed_parses_identically() {
        let raw = b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        let mut parser = RequestParser::new();
        let mut done = None;
        for (i, b) in raw.iter().enumerate() {
            match parser.feed(std::slice::from_ref(b)).unwrap() {
                ParseStatus::Done(req) => {
                    assert_eq!(i, raw.len() - 1, "must finish exactly on the last byte");
                    done = Some(req);
                }
                ParseStatus::NeedMore => {}
            }
        }
        let req = done.expect("request must complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, "body");
    }

    #[test]
    fn duplicate_equal_content_length_is_tolerated() {
        let req = parse(
            b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\
              Content-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.body, "body");
    }

    #[test]
    fn conflicting_content_lengths_are_a_clean_400() {
        let err = parse(
            b"POST /simulate HTTP/1.1\r\ncontent-length: 4\r\n\
              Content-Length: 5\r\n\r\nbody!",
        )
        .unwrap_err();
        match err {
            ParseError::Bad(msg) => {
                assert!(msg.contains("conflicting content-length"), "{msg}")
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn chunked_transfer_encoding_is_an_explicit_501() {
        let err = parse(
            b"POST /simulate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              4\r\nbody\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::NotImplemented(_)), "{err:?}");
    }

    #[test]
    fn expect_100_continue_is_surfaced_once() {
        let mut parser = RequestParser::new();
        let status = parser
            .feed(b"POST /simulate HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 4\r\n\r\n")
            .unwrap();
        assert!(matches!(status, ParseStatus::NeedMore));
        assert!(parser.take_continue_request(), "continue must be requested");
        assert!(!parser.take_continue_request(), "and only surfaced once");
        match parser.feed(b"body").unwrap() {
            ParseStatus::Done(req) => assert_eq!(req.body, "body"),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn endless_request_line_is_cut_off_at_the_cap() {
        // No newline ever: a client streaming one endless "line", 4 KiB per
        // read. The cap must trip on the read that crosses it.
        let mut parser = RequestParser::new();
        let chunk = [b'A'; 4096];
        let err = (0..8)
            .find_map(|_| parser.feed(&chunk).err())
            .expect("cap must trip while reading");
        assert!(matches!(err, ParseError::HeadersTooLarge(_)), "{err:?}");
        assert!(parser.buf.len() <= 3 * chunk.len(), "buffered {} bytes", parser.buf.len());
    }

    #[test]
    fn too_many_headers_is_rejected() {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("x-filler-{i}: {i}\r\n"));
        }
        raw.push_str("\r\n");
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::HeadersTooLarge(_)), "{err:?}");
    }

    #[test]
    fn short_body_is_a_clean_400_not_a_blocked_read() {
        // The client hangs up 95 bytes early.
        let err = parse(b"POST /simulate HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort")
            .unwrap_err();
        match err {
            ParseError::Bad(msg) => assert!(msg.contains("content-length"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn deadline_header_must_be_numeric() {
        let err = parse(b"POST /simulate HTTP/1.1\r\nx-deadline-ms: soon\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::Bad(_)), "{err:?}");
    }

    #[test]
    fn chunk_framing_round_trips() {
        let head = String::from_utf8(streaming_head_bytes(200, &[])).unwrap();
        assert!(head.contains("transfer-encoding: chunked"), "{head}");
        assert!(head.contains("application/x-ndjson"), "{head}");
        let chunk = String::from_utf8(chunk_bytes("{\"point\":0}")).unwrap();
        // 11 payload bytes + the NDJSON newline = 0xc.
        assert_eq!(chunk, "c\r\n{\"point\":0}\n\r\n");
    }

    #[test]
    fn push_over_capacity_returns_the_item() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "third push must shed");
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok(), "space freed by pop re-admits");
    }

    #[test]
    fn close_drains_the_backlog_then_stops() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "closed queue admits nothing");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
