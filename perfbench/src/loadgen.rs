//! Open-loop HTTP load generator: one process, one thread, at most
//! `max_conns` connections in flight.
//!
//! Requests are sent on a schedule fixed in advance, whether or not earlier
//! ones have been answered. A request whose time has come waits in a FIFO
//! for a free connection, and its latency is counted from when it was due,
//! so a stall is charged to every request it delays. The generator also
//! records how late it noticed each due time (its own lateness, which no
//! change to the program should move).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// One scheduled request: when it is due (offset from the start of the
/// run) and which prepared request to send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub item: usize,
}

/// A parsed HTTP response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What happened to one scheduled request. `response` is `None` when the
/// request failed in transport or was still unanswered at the end.
#[derive(Debug)]
pub struct Completion {
    pub arrival: usize,
    pub due: Instant,
    pub noticed: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub response: Option<Response>,
}

impl Completion {
    /// Latency counted from the due time.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator noticed the due time.
    pub fn late_ms(&self) -> f64 {
        self.noticed
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }
}

/// The outcome of one schedule.
#[derive(Debug)]
pub struct Run {
    pub completions: Vec<Completion>,
    /// From the last due time to the last completion: a backlog that grew
    /// during the run shows up as a long drain.
    pub drain: Duration,
}

/// Parse one response from the front of `buf`. `Ok(None)` means more bytes
/// are needed; `eof` says the peer closed, which ends an unframed body.
pub fn parse_response(buf: &[u8], eof: bool) -> Result<Option<Response>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if eof {
            Err("connection closed before the response head".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut resp = Response {
        status,
        headers,
        body: Vec::new(),
    };
    let rest = &buf[head_end + 4..];
    if resp
        .header("transfer-encoding")
        .is_some_and(|v| v.contains("chunked"))
    {
        let mut pos = 0;
        loop {
            let Some(eol) = rest[pos..].windows(2).position(|w| w == b"\r\n") else {
                return incomplete(eof);
            };
            let size_text =
                std::str::from_utf8(&rest[pos..pos + eol]).map_err(|_| "bad chunk size")?;
            let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| format!("bad chunk size {size_text:?}"))?;
            let data = pos + eol + 2;
            if rest.len() < data + size + 2 {
                return incomplete(eof);
            }
            if size == 0 {
                return Ok(Some(resp));
            }
            resp.body.extend_from_slice(&rest[data..data + size]);
            pos = data + size + 2;
        }
    }
    match resp.header("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| format!("bad content-length {len:?}"))?;
            if rest.len() < len {
                return incomplete(eof);
            }
            resp.body = rest[..len].to_vec();
            Ok(Some(resp))
        }
        None if eof => {
            resp.body = rest.to_vec();
            Ok(Some(resp))
        }
        None => Ok(None),
    }
}

fn incomplete(eof: bool) -> Result<Option<Response>, String> {
    if eof {
        Err("connection closed mid-response".into())
    } else {
        Ok(None)
    }
}

/// The bytes of a `POST` with a JSON body.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One blocking request/response exchange (set-up and shutdown only).
pub fn exchange(addr: SocketAddr, raw: &[u8], timeout: Duration) -> io::Result<Response> {
    let mut s = TcpStream::connect_timeout(&addr, timeout)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    s.write_all(raw)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = s.read(&mut chunk)?;
        buf.extend_from_slice(&chunk[..n]);
        match parse_response(&buf, n == 0) {
            Ok(Some(r)) => return Ok(r),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }
}

/// A request on a connection.
struct InFlight {
    arrival: usize,
    noticed: Instant,
    sent: Instant,
    written: usize,
    inbuf: Vec<u8>,
    /// Whether this request was already resent once after the connection
    /// closed before any byte of its answer.
    retried: bool,
}

struct Conn {
    stream: Option<TcpStream>,
    job: Option<InFlight>,
}

/// Send `schedule` (sorted by due time) against `addr`, where
/// `schedule[k].item` indexes the raw requests in `items`. Requests still
/// unanswered `grace` after the last due time are reported unanswered.
pub fn run(
    addr: SocketAddr,
    max_conns: usize,
    items: &[Vec<u8>],
    schedule: &[Arrival],
    grace: Duration,
) -> io::Result<Run> {
    let mut conns: Vec<Conn> = (0..max_conns.max(1))
        .map(|_| Conn {
            stream: None,
            job: None,
        })
        .collect();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut completions = Vec::with_capacity(schedule.len());
    let start = Instant::now();
    let last_due = start + schedule.last().map_or(Duration::ZERO, |a| a.due);
    let mut next = 0;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut polled: Vec<usize> = Vec::with_capacity(conns.len());
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].due <= now {
            pending.push_back((next, now));
            next += 1;
        }
        for conn in conns.iter_mut().filter(|c| c.job.is_none()) {
            let Some((arrival, noticed)) = pending.pop_front() else {
                break;
            };
            let job = InFlight {
                arrival,
                noticed,
                sent: Instant::now(),
                written: 0,
                inbuf: Vec::new(),
                retried: false,
            };
            start_job(
                conn,
                job,
                addr,
                items[schedule[arrival].item].as_slice(),
                start,
                schedule,
                &mut completions,
            );
        }
        let busy = conns.iter().any(|c| c.job.is_some());
        if next == schedule.len() && pending.is_empty() && !busy {
            break;
        }
        if now > last_due + grace {
            for (arrival, noticed) in pending.drain(..) {
                completions.push(unanswered(arrival, noticed, noticed, start, schedule));
            }
            for conn in &mut conns {
                if let Some(job) = conn.job.take() {
                    completions.push(unanswered(
                        job.arrival,
                        job.noticed,
                        job.sent,
                        start,
                        schedule,
                    ));
                }
                conn.stream = None;
            }
            break;
        }
        let wait = if next < schedule.len() {
            (start + schedule[next].due).saturating_duration_since(now)
        } else {
            Duration::from_millis(20)
        }
        .min(Duration::from_millis(20));
        fds.clear();
        polled.clear();
        for (i, c) in conns.iter().enumerate() {
            if let (Some(s), Some(job)) = (&c.stream, &c.job) {
                let writing = job.written < items[schedule[job.arrival].item].len();
                fds.push(PollFd {
                    fd: s.as_raw_fd(),
                    events: POLLIN | if writing { POLLOUT } else { 0 },
                    revents: 0,
                });
                polled.push(i);
            }
        }
        if fds.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if sys::poll(&mut fds, wait)? == 0 {
            continue;
        }
        for (k, &i) in polled.iter().enumerate() {
            let rev = fds[k].revents;
            if rev == 0 {
                continue;
            }
            let conn = &mut conns[i];
            let raw = items
                [schedule[conn.job.as_ref().expect("polled conns are busy").arrival].item]
                .as_slice();
            if rev & POLLOUT != 0 {
                write_some(conn, raw);
            }
            if rev & (POLLIN | POLLHUP | POLLERR) != 0 {
                read_some(
                    conn,
                    &mut chunk,
                    addr,
                    raw,
                    start,
                    schedule,
                    &mut completions,
                );
            }
        }
    }
    let drain = completions
        .iter()
        .map(|c| c.done)
        .max()
        .map_or(Duration::ZERO, |d| d.saturating_duration_since(last_due));
    completions.sort_by_key(|c| c.arrival);
    Ok(Run { completions, drain })
}

fn unanswered(
    arrival: usize,
    noticed: Instant,
    sent: Instant,
    start: Instant,
    schedule: &[Arrival],
) -> Completion {
    Completion {
        arrival,
        due: start + schedule[arrival].due,
        noticed,
        sent,
        done: Instant::now(),
        response: None,
    }
}

/// Open a connection (the server closes each one after its response) and
/// start writing `job`'s request.
fn start_job(
    conn: &mut Conn,
    job: InFlight,
    addr: SocketAddr,
    raw: &[u8],
    start: Instant,
    schedule: &[Arrival],
    completions: &mut Vec<Completion>,
) {
    let stream = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    });
    match stream {
        Ok(s) => {
            conn.stream = Some(s);
            conn.job = Some(job);
            write_some(conn, raw);
        }
        Err(_) => completions.push(unanswered(
            job.arrival,
            job.noticed,
            job.sent,
            start,
            schedule,
        )),
    }
}

fn write_some(conn: &mut Conn, raw: &[u8]) {
    let (Some(s), Some(job)) = (conn.stream.as_mut(), conn.job.as_mut()) else {
        return;
    };
    while job.written < raw.len() {
        match s.write(&raw[job.written..]) {
            Ok(0) => break,
            Ok(n) => job.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break, // the read side reports the failure
        }
    }
}

fn read_some(
    conn: &mut Conn,
    chunk: &mut [u8],
    addr: SocketAddr,
    raw: &[u8],
    start: Instant,
    schedule: &[Arrival],
    completions: &mut Vec<Completion>,
) {
    let (Some(s), Some(job)) = (conn.stream.as_mut(), conn.job.as_mut()) else {
        return;
    };
    let mut eof = false;
    loop {
        match s.read(chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => job.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    let parsed = parse_response(&job.inbuf, eof);
    if let Ok(None) = parsed {
        return;
    }
    let job = conn.job.take().expect("checked above");
    conn.stream = None;
    match parsed {
        Ok(Some(resp)) => completions.push(Completion {
            arrival: job.arrival,
            due: start + schedule[job.arrival].due,
            noticed: job.noticed,
            sent: job.sent,
            done: Instant::now(),
            response: Some(resp),
        }),
        // Closed before a single byte of the answer: resend once on a
        // fresh connection (every request of the mix is idempotent).
        Err(_) if job.inbuf.is_empty() && !job.retried => {
            let retry = InFlight {
                written: 0,
                inbuf: Vec::new(),
                retried: true,
                ..job
            };
            start_job(conn, retry, addr, raw, start, schedule, completions);
        }
        _ => completions.push(unanswered(
            job.arrival,
            job.noticed,
            job.sent,
            start,
            schedule,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_framed_and_chunked_responses() {
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nx-cache: hit\r\ncontent-length: 2\r\n\r\nok",
            false,
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            (r.status, r.header("x-cache"), r.body.as_slice()),
            (200, Some("hit"), &b"ok"[..])
        );
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok", false)
                .unwrap()
                .is_none()
        );
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok", true).is_err());
        let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n";
        let r = parse_response(chunked, false).unwrap().unwrap();
        assert_eq!(r.body, b"ab\ncd");
        assert!(parse_response(&chunked[..chunked.len() - 3], false)
            .unwrap()
            .is_none());
    }

    /// A server that answers every request on its own connection, but
    /// sleeps `stall` before answering the first one.
    fn stalled_server(
        stall: Duration,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..requests {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.ends_with(b"{}") {
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up");
                    buf.extend_from_slice(&chunk[..n]);
                }
                if i == 0 {
                    std::thread::sleep(stall);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_is_counted_from_the_due_time_through_a_stall() {
        let stall = Duration::from_millis(200);
        let n = 10;
        let (addr, server) = stalled_server(stall, n);
        let items = vec![post_bytes("/x", "{}")];
        let schedule: Vec<Arrival> = (0..n)
            .map(|i| Arrival {
                due: Duration::from_millis(10 * i as u64),
                item: 0,
            })
            .collect();
        let run = run(addr, 1, &items, &schedule, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(run.completions.len(), n);
        for (i, c) in run.completions.iter().enumerate() {
            assert_eq!(c.response.as_ref().map(|r| r.status), Some(200));
            // Every request waited for the stalled first one: its latency
            // from the due time covers the rest of the stall...
            let owed = 200.0 - 10.0 * i as f64;
            assert!(
                c.latency_ms() >= owed - 1.0,
                "request {i}: {} ms < {owed} ms",
                c.latency_ms()
            );
            // ...even though, once sent, it was answered at once.
            if i > 0 {
                let service = c.done.duration_since(c.sent).as_secs_f64() * 1e3;
                assert!(service < 150.0, "request {i} took {service} ms once sent");
                assert!(c.sent >= run.completions[0].done);
            }
            assert!(
                c.late_ms() < 150.0,
                "the generator itself ran {} ms late",
                c.late_ms()
            );
        }
        assert!(run.drain >= Duration::from_millis(100));
    }

    #[test]
    fn unanswered_requests_are_reported_not_dropped() {
        // A listener that never accepts: connects succeed (backlog) but no
        // answer ever comes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let items = vec![post_bytes("/x", "{}")];
        let schedule = vec![
            Arrival {
                due: Duration::ZERO,
                item: 0
            };
            3
        ];
        let run = run(addr, 2, &items, &schedule, Duration::from_millis(100)).unwrap();
        assert_eq!(run.completions.len(), 3);
        assert!(run.completions.iter().all(|c| c.response.is_none()));
        drop(listener);
    }
}
