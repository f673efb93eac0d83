//! The daemon under test as a child process, and the closed-loop socket client.

use crate::gen::{Deck, Input};
use fcpn_petri::Fingerprint128;
use fcpn_serve::chaos::DaemonProcess;
use fcpn_serve::Client;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Spawns the release `fcpn-served` with its defaults except `--workers`, and returns
/// it with the seconds from spawn until the first `200` from `/healthz`.
pub fn start(binary: &str, workers: usize) -> io::Result<(DaemonProcess, f64)> {
    let started = Instant::now();
    let workers = workers.to_string();
    let daemon = DaemonProcess::spawn(binary, &["--addr", "127.0.0.1:0", "--workers", &workers])?;
    loop {
        let healthy = Client::connect(daemon.addr(), TIMEOUT)
            .and_then(|mut client| client.request("GET", "/healthz", b""))
            .is_ok_and(|response| response.status == 200);
        if healthy {
            return Ok((daemon, started.elapsed().as_secs_f64()));
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err(io::Error::other("daemon never answered /healthz"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The daemon's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// The top-level numeric counters of `GET /metrics`, read with a flat scan that stops
/// at the nested per-tenant objects.
pub fn counters(addr: &str) -> io::Result<HashMap<String, f64>> {
    let body = Client::connect(addr, TIMEOUT)?
        .request("GET", "/metrics", b"")?
        .body;
    let top = body.split("\"tenants\"").next().unwrap_or("");
    let mut out = HashMap::new();
    for field in top.trim_matches(|c| c == '{' || c == '}').split(',') {
        if let Some((key, value)) = field.split_once(':') {
            if let Ok(number) = value.trim().parse::<f64>() {
                out.insert(key.trim().trim_matches('"').to_string(), number);
            }
        }
    }
    Ok(out)
}

/// A 128-bit digest of a response body: the oracle compares status and this digest
/// after the timed window, so the client need not keep the bodies (a `schedule_cold`
/// run reads about a gigabyte). The client digests every body inside the window, so
/// this is four independent lanes of the xxHash64 round, about five times faster
/// than folding every word into `Fingerprint128`, which only mixes the lanes at the
/// end.
pub fn digest(bytes: &[u8]) -> u128 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    fn round(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte words"));
            *lane = lane
                .wrapping_add(word.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1);
        }
    }
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        round(&mut lanes, block);
    }
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    round(&mut lanes, &tail);
    // The length tells a zero-padded tail from real zero bytes.
    let mut fp = Fingerprint128::new();
    fp.fold(bytes.len() as u64);
    for lane in lanes {
        fp.fold(lane);
    }
    fp.finish()
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    /// Socket latency: from writing the request to reading the whole response.
    pub latency_us: f64,
    /// HTTP status, or 0 for a transport error.
    pub status: u16,
    pub bytes: usize,
    pub digest: u128,
    pub cache_hit: bool,
    /// Seconds from the start of the timed window until the response was read.
    pub done_s: f64,
    /// Seconds the client spent on the body's digest.
    pub digest_s: f64,
}

/// The timed window is cut into this many equal windows and throughput is reported as
/// the median over them, so a short burst of noise on a shared host moves one window,
/// not the result.
const WINDOWS: usize = 10;

/// What a closed-loop pass measured.
#[derive(Debug)]
pub struct Load {
    /// Every request, sorted by input index.
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Successful responses per second in each window.
    pub window_rates: Vec<f64>,
}

/// Closed-loop load: `connections` threads, each sending its next request only after
/// the previous reply arrived, drawing inputs `first..` from `deck` in order until
/// `seconds` have passed.
pub fn closed_loop(
    addr: &str,
    connections: usize,
    deck: &Deck,
    first: usize,
    seconds: f64,
) -> Load {
    let next = AtomicUsize::new(first);
    let samples = Mutex::new(Vec::new());
    let window = seconds / WINDOWS as f64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Client::connect(addr, TIMEOUT).ok();
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let input = deck.input(index);
                    let mut sample = send(addr, &mut client, &input);
                    sample.done_s = started.elapsed().as_secs_f64();
                    mine.push(sample);
                }
                samples
                    .lock()
                    .expect("no client thread panics holding the samples")
                    .extend(mine);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut samples = samples
        .into_inner()
        .expect("no client thread panics holding the samples");
    samples.sort_by_key(|s| s.index);
    // A window's rate is its completions over the time they span, which unlike a
    // count per window is not quantised to whole requests per window.
    let mut spans = vec![(0usize, f64::INFINITY, 0.0f64); WINDOWS];
    for sample in samples.iter().filter(|s| s.status == 200) {
        if let Some((count, first, last)) = spans.get_mut((sample.done_s / window) as usize) {
            *count += 1;
            *first = first.min(sample.done_s);
            *last = last.max(sample.done_s);
        }
    }
    let window_rates = spans
        .iter()
        .map(|&(count, first, last)| {
            if count > 1 && last > first {
                (count - 1) as f64 / (last - first)
            } else {
                count as f64 / window
            }
        })
        .collect();
    Load {
        samples,
        wall_s,
        window_rates,
    }
}

/// Sends one input over `client` (reconnecting after a transport error).
pub fn send(addr: &str, client: &mut Option<Client>, input: &Input) -> Sample {
    let mut sample = Sample {
        index: input.index,
        latency_us: 0.0,
        status: 0,
        bytes: 0,
        digest: 0,
        cache_hit: false,
        done_s: 0.0,
        digest_s: 0.0,
    };
    if client.is_none() {
        *client = Client::connect(addr, TIMEOUT).ok();
    }
    let Some(connection) = client.as_mut() else {
        return sample;
    };
    let started = Instant::now();
    match connection.request("POST", &input.path_and_query, input.body.as_bytes()) {
        Ok(response) => {
            sample.latency_us = started.elapsed().as_secs_f64() * 1e6;
            sample.status = response.status;
            sample.bytes = response.body.len();
            let digested = Instant::now();
            sample.digest = digest(response.body.as_bytes());
            sample.digest_s = digested.elapsed().as_secs_f64();
            sample.cache_hit = response.header("x-fcpn-cache") == Some("hit");
            // The daemon closes a keep-alive connection after a fixed number of
            // requests and says so; the next request opens a new one.
            if response
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            {
                *client = None;
            }
        }
        Err(_) => *client = None,
    }
    sample
}
