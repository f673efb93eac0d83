//! A raw-socket HTTP client and a connection-fanout load generator.
//!
//! The client is deliberately tiny — enough HTTP/1.1 to talk to the daemon over a
//! keep-alive [`TcpStream`]; the chaos harness, the socket tests and the repository
//! benchmark (`perfbench/`) all speak through it. The fanout generator drives many
//! connections from one epoll thread, collecting per-request latencies into p50/p95
//! quantiles per tenant; the `serve_load` example in `fcpn-bench` runs it from the
//! command line. Daemon throughput and latency are measured by perfbench, which is
//! the one load benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Jittered exponential backoff for reconnect/retry loops.
///
/// Delays double from 10ms up to a 500ms cap, each spread over `[base/2, base]` by a
/// seeded linear-congruential generator — enough decorrelation that a fleet of
/// clients reconnecting after a daemon restart does not stampede in lockstep, with no
/// clock or RNG dependency (the workspace is zero-dependency and the chaos harness
/// wants reproducible schedules). Seed it with something caller-unique, e.g.
/// [`Backoff::seeded_from`] over the target address plus a connection index.
#[derive(Debug, Clone)]
pub struct Backoff {
    attempt: u32,
    state: u64,
}

impl Backoff {
    const BASE_MS: u64 = 10;
    const CAP_MS: u64 = 500;

    /// A fresh schedule; `seed` decorrelates this caller's jitter from its peers'.
    #[must_use]
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            attempt: 0,
            // Avoid the all-zero LCG fixed point.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// A schedule seeded from arbitrary bytes (e.g. the target address) and a caller
    /// index, so every connection in a fleet gets a distinct jitter stream.
    #[must_use]
    pub fn seeded_from(bytes: &[u8], index: u64) -> Backoff {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for &b in bytes {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x100_0000_01b3);
        }
        Backoff::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next delay in the schedule: exponential base with jitter in
    /// `[base/2, base]`, capped at 500ms.
    pub fn next_delay(&mut self) -> Duration {
        let base = (Backoff::BASE_MS << self.attempt.min(16)).min(Backoff::CAP_MS);
        self.attempt = self.attempt.saturating_add(1);
        // Numerical Recipes LCG: fine for jitter, free of dependencies.
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let jitter = (self.state >> 33) % (base / 2 + 1);
        Duration::from_millis(base - jitter)
    }

    /// Sleeps for [`Backoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }

    /// Resets the schedule after a success, so the next failure starts from the
    /// 10ms base again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// A keep-alive client connection to the daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// One response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First value of a header (lower-case name).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7411"`).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// [`Client::connect`] with up to `attempts` tries, sleeping a [`Backoff`] delay
    /// between failures — the right shape for probing a daemon that is restarting or
    /// shedding connections.
    ///
    /// # Errors
    ///
    /// The last connect failure once every attempt is spent.
    pub fn connect_with_retry(
        addr: &str,
        timeout: Duration,
        attempts: usize,
    ) -> io::Result<Client> {
        let mut backoff = Backoff::seeded_from(addr.as_bytes(), 0);
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match Client::connect(addr, timeout) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < attempts {
                        backoff.sleep();
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// Any socket error, timeout, or malformed response head.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, path_and_query, &[], body)
    }

    /// [`Client::request`] with extra request headers (e.g. `X-Fcpn-Tenant`).
    ///
    /// # Errors
    ///
    /// Any socket error, timeout, or malformed response head.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let head = build_request_head(method, path_and_query, headers, body.len());
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("EOF in response head"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            }
            headers.push((name, value));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

fn build_request_head(
    method: &str,
    path_and_query: &str,
    headers: &[(&str, &str)],
    body_len: usize,
) -> String {
    let mut head = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: fcpn\r\nContent-Length: {body_len}\r\n"
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Opens `count` TCP connections to `addr` and returns them without sending a byte —
/// the connection-flood probe's raw material. The sockets stay open until dropped.
///
/// # Errors
///
/// Propagates the first connect failure (commonly `EMFILE` when the fd limit is lower
/// than `count`).
pub fn open_idle_sockets(addr: &str, count: usize) -> io::Result<Vec<TcpStream>> {
    let mut sockets = Vec::with_capacity(count);
    for _ in 0..count {
        sockets.push(TcpStream::connect(addr)?);
    }
    Ok(sockets)
}

fn quantile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// What the non-blocking fanout generator replays.
///
/// A fanout run drives every connection from **one** thread over epoll, so the
/// generator itself can hold 10k+ sockets open — enough to exercise the reactor's
/// headline number from a single process. `idle_connections` spectator sockets are
/// opened first and held silent for the whole run, measuring how flat the active
/// connections' latency stays while the daemon carries them.
#[derive(Debug, Clone)]
pub struct FanoutSpec {
    /// Actively requesting connections.
    pub connections: usize,
    /// Extra silent connections held open for the duration of the run.
    pub idle_connections: usize,
    /// Requests issued per active connection.
    pub requests_per_connection: usize,
    /// Endpoint path + query, e.g. `"/schedule?cache=0"`.
    pub target: String,
    /// The nets to replay: `(label, text-format body)`; connections round-robin.
    pub nets: Vec<(String, String)>,
    /// `X-Fcpn-Tenant` values assigned round-robin to active connections; empty
    /// sends no tenant header (everything lands in the daemon's default bucket).
    pub tenants: Vec<String>,
    /// Wall-clock budget for the whole run; pending requests past it are abandoned
    /// and counted as errors.
    pub deadline: Duration,
}

impl Default for FanoutSpec {
    fn default() -> Self {
        FanoutSpec {
            connections: 64,
            idle_connections: 0,
            requests_per_connection: 4,
            target: "/schedule".into(),
            nets: Vec::new(),
            tenants: Vec::new(),
            deadline: Duration::from_secs(60),
        }
    }
}

/// Latency quantiles for one tenant within a fanout run.
#[derive(Debug, Clone)]
pub struct TenantLatency {
    /// The `X-Fcpn-Tenant` value (`"-"` when no header was sent).
    pub tenant: String,
    /// Completed requests carrying this tenant header.
    pub requests: usize,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
}

/// Aggregate outcome of one fanout run.
#[derive(Debug, Clone)]
pub struct FanoutReport {
    /// Requests attempted.
    pub requests: usize,
    /// `200` responses.
    pub ok: usize,
    /// `503` responses (saturation/overload).
    pub rejected: usize,
    /// `429` responses (tenant rate limit or quota).
    pub rate_limited: usize,
    /// Any other status, transport error, or request abandoned at the deadline.
    pub errors: usize,
    /// Median latency in microseconds (all tenants).
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds (all tenants).
    pub p95_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
    /// Wall-clock time of the whole run in milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second over the wall clock.
    pub throughput_rps: f64,
    /// Per-tenant latency quantiles, sorted by tenant key (present when tenant
    /// headers were sent).
    pub per_tenant: Vec<TenantLatency>,
}

/// Runs a non-blocking fanout load: all active connections (plus the idle spectator
/// sockets) are driven from this one thread over epoll.
///
/// # Errors
///
/// Setup failures (opening sockets, creating the epoll instance), or
/// [`io::ErrorKind::Unsupported`] on non-Linux hosts.
///
/// # Panics
///
/// Panics if `spec.nets` is empty.
pub fn run_fanout(addr: &str, spec: &FanoutSpec) -> io::Result<FanoutReport> {
    assert!(!spec.nets.is_empty(), "fanout spec has no nets to replay");
    #[cfg(target_os = "linux")]
    {
        fanout::run(addr, spec)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = addr;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "fanout load generation requires epoll (linux)",
        ))
    }
}

#[cfg(target_os = "linux")]
mod fanout {
    use super::*;
    use crate::reactor::sys;
    use std::collections::HashMap;
    use std::os::unix::io::AsRawFd;

    /// Incremental HTTP response reader for one non-blocking connection.
    struct RespBuf {
        buf: Vec<u8>,
        head_end: Option<usize>,
        status: u16,
        content_length: usize,
        close: bool,
    }

    impl RespBuf {
        fn new() -> Self {
            RespBuf {
                buf: Vec::new(),
                head_end: None,
                status: 0,
                content_length: 0,
                close: false,
            }
        }

        /// Feeds bytes; `Ok(true)` once the response is complete, `Err` on a head the
        /// client cannot interpret.
        fn feed(&mut self, bytes: &[u8]) -> io::Result<bool> {
            self.buf.extend_from_slice(bytes);
            if self.head_end.is_none() {
                if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                    let head = std::str::from_utf8(&self.buf[..pos])
                        .map_err(|_| bad("non-UTF-8 response head"))?;
                    let mut lines = head.lines();
                    self.status = lines
                        .next()
                        .and_then(|l| l.split(' ').nth(1))
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("malformed status line"))?;
                    for line in lines {
                        let Some((name, value)) = line.split_once(':') else {
                            continue;
                        };
                        let name = name.trim().to_ascii_lowercase();
                        let value = value.trim();
                        if name == "content-length" {
                            self.content_length =
                                value.parse().map_err(|_| bad("bad Content-Length"))?;
                        } else if name == "connection" {
                            self.close = value.eq_ignore_ascii_case("close");
                        }
                    }
                    self.head_end = Some(pos + 4);
                }
            }
            Ok(self
                .head_end
                .is_some_and(|end| self.buf.len() >= end + self.content_length))
        }
    }

    fn bad(msg: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
    }

    fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack
            .windows(needle.len())
            .position(|window| window == needle)
    }

    enum ConnPhase {
        Writing,
        Reading,
        Done,
    }

    struct FanConn {
        stream: TcpStream,
        phase: ConnPhase,
        out: Vec<u8>,
        written: usize,
        resp: RespBuf,
        remaining: usize,
        next_net: usize,
        tenant: Option<String>,
        sent_at: Instant,
        interest: u32,
    }

    struct Tally {
        ok: usize,
        rejected: usize,
        rate_limited: usize,
        errors: usize,
        attempted: usize,
        latencies: Vec<f64>,
        by_tenant: HashMap<String, Vec<f64>>,
    }

    impl FanConn {
        fn start_request(&mut self, spec: &FanoutSpec, tally: &mut Tally) {
            let (_, net) = &spec.nets[self.next_net % spec.nets.len()];
            self.next_net += 1;
            let mut headers: Vec<(&str, &str)> = Vec::new();
            if let Some(tenant) = &self.tenant {
                headers.push(("X-Fcpn-Tenant", tenant));
            }
            let head = build_request_head("POST", &spec.target, &headers, net.len());
            self.out.clear();
            self.out.extend_from_slice(head.as_bytes());
            self.out.extend_from_slice(net.as_bytes());
            self.written = 0;
            self.resp = RespBuf::new();
            self.phase = ConnPhase::Writing;
            self.sent_at = Instant::now();
            tally.attempted += 1;
        }

        /// Drives reads/writes until blocked; `Ok(true)` when the connection must be
        /// reconnected (server closed it), `Err` when it failed mid-request.
        fn pump(
            &mut self,
            spec: &FanoutSpec,
            tally: &mut Tally,
            scratch: &mut [u8],
        ) -> io::Result<bool> {
            loop {
                match self.phase {
                    ConnPhase::Done => return Ok(false),
                    ConnPhase::Writing => {
                        if self.written == self.out.len() {
                            self.phase = ConnPhase::Reading;
                            continue;
                        }
                        match (&self.stream).write(&self.out[self.written..]) {
                            Ok(0) => return Err(bad("write returned 0")),
                            Ok(n) => self.written += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(e),
                        }
                    }
                    ConnPhase::Reading => match (&self.stream).read(scratch) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "server closed mid-response",
                            ))
                        }
                        Ok(n) => {
                            if self.resp.feed(&scratch[..n])? {
                                let latency = self.sent_at.elapsed().as_secs_f64() * 1e6;
                                tally.latencies.push(latency);
                                let key = self.tenant.clone().unwrap_or_else(|| "-".into());
                                tally.by_tenant.entry(key).or_default().push(latency);
                                match self.resp.status {
                                    200 => tally.ok += 1,
                                    503 => tally.rejected += 1,
                                    429 => tally.rate_limited += 1,
                                    _ => tally.errors += 1,
                                }
                                self.remaining -= 1;
                                let closed = self.resp.close;
                                if self.remaining == 0 {
                                    self.phase = ConnPhase::Done;
                                    return Ok(false);
                                }
                                if closed {
                                    return Ok(true); // reconnect, then next request
                                }
                                self.start_request(spec, tally);
                                continue;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    },
                }
            }
        }

        fn wanted_interest(&self) -> u32 {
            match self.phase {
                ConnPhase::Writing if self.written < self.out.len() => sys::EPOLLOUT,
                ConnPhase::Writing | ConnPhase::Reading => sys::EPOLLIN,
                ConnPhase::Done => 0,
            }
        }
    }

    pub(super) fn run(addr: &str, spec: &FanoutSpec) -> io::Result<FanoutReport> {
        let idle = open_idle_sockets(addr, spec.idle_connections)?;
        let epoll = sys::Epoll::new()?;
        let mut tally = Tally {
            ok: 0,
            rejected: 0,
            rate_limited: 0,
            errors: 0,
            attempted: 0,
            latencies: Vec::new(),
            by_tenant: HashMap::new(),
        };
        let started = Instant::now();
        let mut conns: Vec<Option<FanConn>> = Vec::with_capacity(spec.connections);
        for index in 0..spec.connections {
            let tenant = if spec.tenants.is_empty() {
                None
            } else {
                Some(spec.tenants[index % spec.tenants.len()].clone())
            };
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            let mut conn = FanConn {
                stream,
                phase: ConnPhase::Writing,
                out: Vec::new(),
                written: 0,
                resp: RespBuf::new(),
                remaining: spec.requests_per_connection,
                next_net: index,
                tenant,
                sent_at: started,
                interest: 0,
            };
            conn.start_request(spec, &mut tally);
            epoll.add(conn.stream.as_raw_fd(), sys::EPOLLOUT, index as u64)?;
            conn.interest = sys::EPOLLOUT;
            conns.push(Some(conn));
        }

        let mut scratch = vec![0u8; 16 * 1024];
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        let mut active = conns.iter().filter(|c| c.is_some()).count();
        while active > 0 {
            if started.elapsed() > spec.deadline {
                // Whatever is still pending is abandoned and counted as an error.
                for conn in conns.iter_mut().filter_map(Option::as_mut) {
                    if !matches!(conn.phase, ConnPhase::Done) {
                        tally.errors += 1;
                    }
                }
                break;
            }
            let n = epoll.wait(&mut events, 100)?;
            for event in &events[..n] {
                let index = event.data as usize;
                let Some(conn) = conns.get_mut(index).and_then(Option::as_mut) else {
                    continue;
                };
                match conn.pump(spec, &mut tally, &mut scratch) {
                    Ok(false) => {}
                    Ok(true) => {
                        // Server closed the connection (shed or keep-alive budget):
                        // reconnect and continue this connection's quota.
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        match TcpStream::connect(addr) {
                            Ok(stream) => {
                                stream.set_nonblocking(true)?;
                                let _ = stream.set_nodelay(true);
                                conn.stream = stream;
                                conn.interest = 0;
                                conn.start_request(spec, &mut tally);
                                epoll.add(conn.stream.as_raw_fd(), sys::EPOLLOUT, index as u64)?;
                                conn.interest = sys::EPOLLOUT;
                            }
                            Err(_) => {
                                tally.errors += conn.remaining;
                                conn.phase = ConnPhase::Done;
                            }
                        }
                    }
                    Err(_) => {
                        tally.errors += 1;
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        conn.phase = ConnPhase::Done;
                    }
                }
                let conn = conns[index].as_mut().unwrap();
                if matches!(conn.phase, ConnPhase::Done) {
                    let _ = epoll.delete(conn.stream.as_raw_fd());
                    conns[index] = None;
                    active -= 1;
                } else {
                    let wanted = conn.wanted_interest();
                    if wanted != conn.interest {
                        conn.interest = wanted;
                        let _ = epoll.modify(conn.stream.as_raw_fd(), wanted, index as u64);
                    }
                }
            }
        }
        drop(idle);

        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        tally
            .latencies
            .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let completed = tally.latencies.len();
        let mut per_tenant: Vec<TenantLatency> = tally
            .by_tenant
            .into_iter()
            .map(|(tenant, mut series)| {
                series.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
                TenantLatency {
                    requests: series.len(),
                    p50_us: quantile(&series, 0.50),
                    p95_us: quantile(&series, 0.95),
                    tenant,
                }
            })
            .collect();
        per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        Ok(FanoutReport {
            requests: tally.attempted,
            ok: tally.ok,
            rejected: tally.rejected,
            rate_limited: tally.rate_limited,
            errors: tally.errors,
            p50_us: quantile(&tally.latencies, 0.50),
            p95_us: quantile(&tally.latencies, 0.95),
            max_us: tally.latencies.last().copied().unwrap_or(0.0),
            wall_ms,
            throughput_rps: if wall_ms > 0.0 {
                completed as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            per_tenant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_series() {
        // Nearest-rank on 0-based indices: 0.50·99 rounds to index 50, 0.95·99 to 94.
        let series: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(quantile(&series, 0.50), 51.0);
        assert_eq!(quantile(&series, 0.95), 95.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn backoff_is_exponential_jittered_capped_and_deterministic() {
        let mut a = Backoff::seeded_from(b"127.0.0.1:7411", 3);
        let mut b = Backoff::seeded_from(b"127.0.0.1:7411", 3);
        let mut previous_base = 0u64;
        for attempt in 0..12 {
            let delay = a.next_delay();
            assert_eq!(delay, b.next_delay(), "same seed, same schedule");
            let base = (10u64 << attempt.min(16)).min(500);
            let ms = delay.as_millis() as u64;
            assert!(
                ms >= base / 2 && ms <= base,
                "attempt {attempt}: {ms}ms outside [{}, {base}]",
                base / 2
            );
            assert!(base >= previous_base, "base never shrinks");
            previous_base = base;
        }
        // Distinct indices decorrelate; reset restarts from the 10ms base.
        let mut c = Backoff::seeded_from(b"127.0.0.1:7411", 4);
        let schedule_a: Vec<_> = (0..4).map(|_| a.next_delay()).collect();
        let schedule_c: Vec<_> = (0..4).map(|_| c.next_delay()).collect();
        assert_ne!(schedule_a, schedule_c);
        a.reset();
        assert!(a.next_delay() <= Duration::from_millis(10));
    }
}
