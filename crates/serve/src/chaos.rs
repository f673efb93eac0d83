//! Fault-injection probes for a live daemon: the building blocks of the chaos harness.
//!
//! The unit and socket tests exercise the daemon in-process; this module exercises it
//! as a *process* — spawn the real binary, drip bytes at it, cut connections mid-body,
//! `kill -9` it mid-write, restart it on the same cache directory — and exposes the
//! measurements the harness asserts on (cancellation latency, post-recovery response
//! bytes). Everything here is plain blocking `std::net`/`std::process`, matching the
//! zero-dependency rule; `fcpn-bench`'s `chaos_harness` example drives these probes
//! end-to-end and the CI `chaos-smoke` job runs them against a release build.

use crate::load::{open_idle_sockets, Client, ClientResponse};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Sends `SIGTERM` to `pid` — the graceful-drain end of the shutdown contract,
/// shelling out to `kill(1)` to stay inside the zero-dependency rule.
///
/// # Errors
///
/// Propagates the spawn failure, or [`io::ErrorKind::Other`] when `kill` exits
/// non-zero (e.g. the process is already gone).
pub fn sigterm(pid: u32) -> io::Result<()> {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(pid.to_string())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!("kill -TERM {pid} failed")))
    }
}

/// A daemon running as a real child process, with its readiness line parsed.
///
/// Dropping the handle kills the child (`SIGKILL`) and reaps it, so a panicking
/// harness never leaks daemons.
#[derive(Debug)]
pub struct DaemonProcess {
    child: Child,
    addr: String,
}

impl DaemonProcess {
    /// Spawns `binary` with `args` and blocks until it prints its readiness line
    /// (`fcpn-served listening on <addr> …`) on stdout, from which the bound address
    /// is parsed — pass `--addr 127.0.0.1:0` and let the daemon pick a free port.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure; fails with [`io::ErrorKind::InvalidData`] when
    /// the process exits (or closes stdout) before announcing readiness.
    pub fn spawn(binary: &str, args: &[&str]) -> io::Result<DaemonProcess> {
        let mut child = Command::new(binary)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        for line in &mut lines {
            let line = line?;
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                if !addr.is_empty() {
                    // Keep draining stdout in the background so the daemon never
                    // blocks on a full pipe if it logs later.
                    std::thread::spawn(move || for _ in lines {});
                    return Ok(DaemonProcess { child, addr });
                }
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "daemon exited before printing its readiness line",
        ))
    }

    /// The address the daemon reported binding.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's process id (for `kill -TERM` style signalling by the harness).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`: the crash end of the crash-safety contract. No flush, no drain —
    /// the persistent cache may be torn mid-record, which recovery must survive.
    ///
    /// # Errors
    ///
    /// Propagates kill/wait failures (already-exited children are not an error).
    pub fn kill9(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Waits for the child to exit on its own (e.g. after a `SIGTERM` drain) and
    /// returns whether it exited with status 0.
    ///
    /// # Errors
    ///
    /// Propagates wait failures.
    pub fn wait_success(mut self) -> io::Result<bool> {
        Ok(self.child.wait()?.success())
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What [`probe_cancellation`] measured: the response status and how long the daemon
/// took to produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancellationProbe {
    /// HTTP status of the response (`503` when the stage cancelled itself).
    pub status: u16,
    /// Wall-clock from sending the request to receiving the full response.
    pub elapsed: Duration,
}

/// Fires one uncached `/schedule` at `addr` with the given `deadline_ms` and measures
/// how promptly the daemon answers — the cancellation-latency probe.
///
/// # Errors
///
/// Propagates connect/request failures.
pub fn probe_cancellation(
    addr: &str,
    net_text: &str,
    deadline_ms: u64,
    timeout: Duration,
) -> io::Result<CancellationProbe> {
    let mut client = Client::connect(addr, timeout)?;
    let started = Instant::now();
    let response = client.request(
        "POST",
        &format!("/schedule?deadline_ms={deadline_ms}&cache=0"),
        net_text.as_bytes(),
    )?;
    Ok(CancellationProbe {
        status: response.status,
        elapsed: started.elapsed(),
    })
}

/// Sends one request and returns the full response (status, headers, body) — the
/// harness's byte-comparison primitive. Connects with a jittered-backoff retry, since
/// the harness routinely probes daemons that are mid-restart or shedding connections.
///
/// # Errors
///
/// Propagates request failures, or the last connect failure after the retries.
pub fn fetch(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let mut client = Client::connect_with_retry(addr, timeout, 3)?;
    client.request(method, path_and_query, body)
}

/// Slow-loris probe: opens a connection that promises a body and then drips a few
/// bytes of it slowly before going silent, holding the socket open. Returns once the
/// daemon has (correctly) given up on the connection — closed it — or `hold` elapsed.
/// Either way the caller should verify `/healthz` still answers promptly: the point is
/// that a dripping client costs the daemon a bounded amount of worker time.
///
/// # Errors
///
/// Propagates the connect failure (write errors after connect mean the daemon already
/// dropped us, which is success for this probe).
pub fn probe_slow_loris(addr: &str, hold: Duration) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let head = b"POST /schedule HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
    if stream.write_all(head).is_err() {
        return Ok(());
    }
    let until = Instant::now() + hold;
    while Instant::now() < until {
        // One byte per tick: each socket read succeeds, so only the request read
        // *deadline* (not the per-read timeout) can free the worker.
        if stream
            .write_all(b"x")
            .and_then(|()| stream.flush())
            .is_err()
        {
            return Ok(()); // daemon dropped us — the guard worked
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(())
}

/// Mid-request disconnect probe: promises a large body, sends half of it, and drops
/// the socket. The daemon must notice the EOF, discard the partial request without
/// answering, and return the worker to the pool — verified by the caller probing
/// `/healthz` afterwards.
///
/// # Errors
///
/// Propagates the connect failure (later write errors mean the daemon beat us to the
/// close, which is fine).
pub fn probe_mid_request_disconnect(addr: &str, body: &[u8]) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "POST /schedule HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(&body[..body.len() / 2]);
    let _ = stream.flush();
    drop(stream); // mid-body RST/FIN
    Ok(())
}

/// What [`probe_connection_flood`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodProbe {
    /// Idle sockets successfully opened and held for the duration of the probe.
    pub idle_held: usize,
    /// Status of the real request sent while the flood was parked.
    pub status: u16,
    /// Latency of that real request, flood and all.
    pub elapsed: Duration,
}

/// Connection-flood probe: opens `idle` sockets that never send a byte, holds them all
/// open, then fires one real request and measures its latency. On an event-driven
/// front end the parked sockets cost a few KiB each and zero threads, so the real
/// request must answer as if the flood were not there; a thread-per-connection server
/// would have exhausted its workers long before 10k.
///
/// The idle sockets are dropped when the probe returns.
///
/// # Errors
///
/// Propagates socket-open failures (including `EMFILE` if the *client* runs out of
/// fds — raise `ulimit -n` before asking for 10k) and request failures.
pub fn probe_connection_flood(
    addr: &str,
    idle: usize,
    net_text: &str,
    timeout: Duration,
) -> io::Result<FloodProbe> {
    let parked = open_idle_sockets(addr, idle)?;
    let mut client = Client::connect(addr, timeout)?;
    let started = Instant::now();
    let response = client.request("POST", "/schedule", net_text.as_bytes())?;
    let probe = FloodProbe {
        idle_held: parked.len(),
        status: response.status,
        elapsed: started.elapsed(),
    };
    drop(parked);
    Ok(probe)
}

/// What [`probe_slow_loris_fleet`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LorisFleetProbe {
    /// Dripping sockets the fleet managed to open.
    pub opened: usize,
    /// How many the daemon had dropped (write error on the drip) by the time `hold`
    /// elapsed. With deadlines shorter than `hold`, this should be all of them.
    pub dropped_by_daemon: usize,
}

/// Slow-loris *fleet*: `count` connections all promising a large body and dripping one
/// byte per tick, driven from this single thread over non-blocking sockets. The point
/// is scale — one loris is annoying, five hundred must still cost the daemon nothing
/// but per-connection buffers, and every one of them must be cut by the read deadline
/// rather than holding a slot forever.
///
/// # Errors
///
/// Propagates the initial connect failures only; drip-time write errors are the
/// *daemon* dropping us, which is the success condition and is counted, not raised.
pub fn probe_slow_loris_fleet(
    addr: &str,
    count: usize,
    hold: Duration,
) -> io::Result<LorisFleetProbe> {
    let head = b"POST /schedule HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
    let mut fleet: Vec<Option<TcpStream>> = Vec::with_capacity(count);
    for _ in 0..count {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // The head fits comfortably in the socket buffer, so a blocking write here
        // cannot stall; everything after goes non-blocking.
        let _ = stream.write_all(head);
        stream.set_nonblocking(true)?;
        fleet.push(Some(stream));
    }
    let opened = fleet.len();
    let mut dropped = 0usize;
    let until = Instant::now() + hold;
    while Instant::now() < until && dropped < opened {
        for slot in &mut fleet {
            let Some(stream) = slot else { continue };
            match stream.write(b"x") {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Connection reset / broken pipe: the daemon cut this loris.
                    dropped += 1;
                    *slot = None;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(LorisFleetProbe {
        opened,
        dropped_by_daemon: dropped,
    })
}

/// What [`probe_rate_limit`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitProbe {
    /// Requests in the burst answered `200`.
    pub ok: usize,
    /// Requests in the burst answered `429`.
    pub limited: usize,
    /// The `Retry-After` value (seconds) parsed from the first `429`.
    pub retry_after_s: u64,
    /// Whether a request sent after waiting out `Retry-After` succeeded.
    pub recovered: bool,
}

/// Rate-limit probe: bursts `burst` requests under one tenant header as fast as the
/// connection allows, expecting the token bucket to run dry partway through — `429`s
/// carrying a parseable `Retry-After` — and then verifies that waiting out the
/// advertised window actually restores service for that tenant.
///
/// Run this against a daemon started with `--tenant-rate`; with metering disabled
/// (the default) every request is admitted and `limited` stays 0.
///
/// # Errors
///
/// Propagates connect/request failures, and [`io::ErrorKind::InvalidData`] when a
/// `429` arrives without a parseable `Retry-After` — the header contract is the point
/// of the probe.
pub fn probe_rate_limit(
    addr: &str,
    tenant: &str,
    burst: usize,
    net_text: &str,
    timeout: Duration,
) -> io::Result<RateLimitProbe> {
    let mut client = Client::connect(addr, timeout)?;
    let headers = [("X-Fcpn-Tenant", tenant)];
    let mut ok = 0usize;
    let mut limited = 0usize;
    let mut retry_after_s = 0u64;
    for _ in 0..burst {
        let response =
            client.request_with_headers("POST", "/schedule", &headers, net_text.as_bytes())?;
        match response.status {
            200 => ok += 1,
            429 => {
                limited += 1;
                let value = response.header("retry-after").ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "429 without Retry-After")
                })?;
                let parsed: u64 = value.trim().parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unparseable Retry-After: {value:?}"),
                    )
                })?;
                if retry_after_s == 0 {
                    retry_after_s = parsed;
                }
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected status {other} during rate-limit burst"
                )))
            }
        }
    }
    let mut recovered = false;
    if limited > 0 {
        // Wait out the advertised window (bounded — a daemon advertising an hour is
        // its own kind of bug) and confirm the tenant is served again.
        std::thread::sleep(Duration::from_secs(retry_after_s.clamp(1, 10)));
        let response =
            client.request_with_headers("POST", "/schedule", &headers, net_text.as_bytes())?;
        recovered = response.status == 200;
    }
    Ok(RateLimitProbe {
        ok,
        limited,
        retry_after_s,
        recovered,
    })
}

/// Asserts the daemon at `addr` answers `/healthz` with `200` within `timeout` —
/// the "still alive and taking work" check after every fault probe. Connects with a
/// jittered-backoff retry so a daemon busy shedding a fault wave is polled, not
/// declared dead on the first refused socket.
///
/// # Errors
///
/// Propagates request failures, or the last connect failure after the retries.
pub fn healthz_ok(addr: &str, timeout: Duration) -> io::Result<bool> {
    let mut client = Client::connect_with_retry(addr, timeout, 3)?;
    let response = client.request("GET", "/healthz", b"")?;
    Ok(response.status == 200)
}

/// What [`probe_memory_pressure`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPressureProbe {
    /// Memory-bomb requests fired.
    pub requests: usize,
    /// `400`s from the process governor: the budget asked for exceeds the pool, so no
    /// retry can ever make it admissible.
    pub rejected: usize,
    /// `503`s from the process governor (budget affordable, but the pool was held by
    /// in-flight work at that moment).
    pub shed: usize,
    /// Typed `503`s from an engine stage exhausting its per-request budget (the body
    /// carries `stage` / `limit_bytes` / `requested_bytes`).
    pub exhausted: usize,
    /// `200`s (possible when the budgets asked for are actually affordable).
    pub ok: usize,
    /// Anything else — should stay 0.
    pub other: usize,
    /// Whether `/healthz` answered `200` after every round: the daemon degraded, it
    /// never died.
    pub healthy_throughout: bool,
}

/// Memory-pressure probe: fires memory-bomb nets at a daemon running under
/// `--mem-budget` and verifies it *degrades* instead of dying. Each round sends the
/// bomb twice — once asking for a per-request budget bigger than the whole pool
/// (which the process governor must reject with a non-retryable `400`) and once with
/// a budget too small for the exploration (which the engine must fail with the typed
/// exhaustion `503`) — then checks `/healthz` still answers `200`. Every response is
/// classified; an abort, OOM kill or hung worker surfaces as a connect/request error
/// instead.
///
/// # Errors
///
/// Propagates connect/request failures — under this probe the daemon must keep
/// answering, so a dropped connection is a finding, not noise.
pub fn probe_memory_pressure(
    addr: &str,
    bomb_text: &str,
    rounds: usize,
    timeout: Duration,
) -> io::Result<MemoryPressureProbe> {
    let mut probe = MemoryPressureProbe {
        requests: 0,
        rejected: 0,
        shed: 0,
        exhausted: 0,
        ok: 0,
        other: 0,
        healthy_throughout: true,
    };
    let targets = [
        // Clamped to the per-request cap, which still dwarfs any sane --mem-budget:
        // the governor can never cover it and must reject it outright.
        format!(
            "/analyze?checks=reachability&cache=0&memory_budget_bytes={}",
            u64::MAX
        ),
        // Below the 64KiB metering chunk: the engine's first charge fails typed.
        "/analyze?checks=reachability&cache=0&memory_budget_bytes=4096".to_string(),
    ];
    for _ in 0..rounds {
        for target in &targets {
            let mut client = Client::connect_with_retry(addr, timeout, 3)?;
            let response = client.request("POST", target, bomb_text.as_bytes())?;
            probe.requests += 1;
            match response.status {
                200 => probe.ok += 1,
                400 if response.body.contains("memory pool") => probe.rejected += 1,
                503 if response.body.contains("\"stage\"") => probe.exhausted += 1,
                503 => probe.shed += 1,
                _ => probe.other += 1,
            }
        }
        if !healthz_ok(addr, timeout)? {
            probe.healthy_throughout = false;
        }
    }
    Ok(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use std::time::Duration;

    fn spawn_local() -> crate::server::ServerHandle {
        Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            request_read_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        })
        .expect("spawn in-process daemon")
    }

    #[test]
    fn disconnect_mid_body_leaves_daemon_healthy() {
        let handle = spawn_local();
        let addr = handle.addr().to_string();
        probe_mid_request_disconnect(&addr, &[b'n'; 4096]).unwrap();
        assert!(healthz_ok(&addr, Duration::from_secs(5)).unwrap());
        handle.shutdown();
    }

    #[test]
    fn slow_loris_is_cut_by_the_read_deadline() {
        let handle = spawn_local();
        let addr = handle.addr().to_string();
        // Hold longer than the 300ms request read deadline: the daemon must drop us.
        probe_slow_loris(&addr, Duration::from_millis(800)).unwrap();
        assert!(healthz_ok(&addr, Duration::from_secs(5)).unwrap());
        handle.shutdown();
    }

    #[test]
    fn cancellation_probe_reports_status_and_latency() {
        let handle = spawn_local();
        let addr = handle.addr().to_string();
        let net = fcpn_petri::io::to_text(&fcpn_petri::gallery::figure4());
        // A trivially fast net completes well inside a generous deadline.
        let probe = probe_cancellation(&addr, &net, 10_000, Duration::from_secs(5)).unwrap();
        assert_eq!(probe.status, 200);
        handle.shutdown();
    }

    #[test]
    fn rate_limit_probe_sees_429_and_recovers() {
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            tenant: crate::tenant::TenantPolicy {
                rate: 2.0,
                burst: 2.0,
                ..crate::tenant::TenantPolicy::default()
            },
            ..ServerConfig::default()
        })
        .expect("spawn metered daemon");
        let addr = handle.addr().to_string();
        let net = fcpn_petri::io::to_text(&fcpn_petri::gallery::figure4());
        let probe = probe_rate_limit(&addr, "acme", 6, &net, Duration::from_secs(5)).unwrap();
        assert!(probe.ok >= 2, "burst head should pass: {probe:?}");
        assert!(probe.limited > 0, "bucket should run dry: {probe:?}");
        assert!(
            probe.retry_after_s >= 1,
            "Retry-After must be >= 1: {probe:?}"
        );
        assert!(
            probe.recovered,
            "tenant should recover after the window: {probe:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn memory_pressure_probe_degrades_without_dying() {
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            mem_budget_bytes: Some(1 << 20),
            ..ServerConfig::default()
        })
        .expect("spawn governed daemon");
        let addr = handle.addr().to_string();
        let bomb = fcpn_petri::io::to_text(&fcpn_petri::gallery::memory_bomb(6));
        let probe = probe_memory_pressure(&addr, &bomb, 3, Duration::from_secs(10)).unwrap();
        assert_eq!(probe.requests, 6);
        assert!(
            probe.rejected >= 3,
            "governor should reject over-pool budgets outright: {probe:?}"
        );
        assert!(
            probe.exhausted >= 3,
            "tiny budgets should exhaust typed: {probe:?}"
        );
        assert_eq!(probe.other, 0, "no unexpected statuses: {probe:?}");
        assert!(
            probe.healthy_throughout,
            "daemon must stay healthy: {probe:?}"
        );
        // After the pressure, a normal request still computes.
        let net = fcpn_petri::io::to_text(&fcpn_petri::gallery::figure4());
        let response = fetch(
            &addr,
            "POST",
            "/schedule",
            net.as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(response.status, 200);
        handle.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connection_flood_probe_answers_through_idle_sockets() {
        let handle = spawn_local();
        let addr = handle.addr().to_string();
        let net = fcpn_petri::io::to_text(&fcpn_petri::gallery::figure4());
        let probe = probe_connection_flood(&addr, 128, &net, Duration::from_secs(10)).unwrap();
        assert_eq!(probe.idle_held, 128);
        assert_eq!(probe.status, 200);
        handle.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn slow_loris_fleet_is_cut_by_the_read_deadline() {
        let handle = spawn_local();
        let addr = handle.addr().to_string();
        // 300ms read deadline vs a 3s hold: every loris must be cut.
        let probe = probe_slow_loris_fleet(&addr, 32, Duration::from_secs(3)).unwrap();
        assert_eq!(probe.opened, 32);
        assert!(
            probe.dropped_by_daemon >= probe.opened / 2,
            "daemon should shed the fleet: {probe:?}"
        );
        assert!(healthz_ok(&addr, Duration::from_secs(5)).unwrap());
        handle.shutdown();
    }
}
