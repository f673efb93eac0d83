//! `chaos_harness` — fault-injection runs against a *real* `fcpn-served` process.
//!
//! The socket tests exercise the daemon in-process; this harness exercises the shipped
//! binary the way an operator's worst day does: blown deadlines mid-sweep, clients that
//! drip or vanish mid-request, and a `kill -9` straight through a persistent-cache
//! append followed by a restart on the same directory. Each run prints `ok`/`FAIL` and
//! the process exits non-zero if any run failed — the CI `chaos-smoke` job gates on it.
//!
//! ```text
//! cargo build --release --bin fcpn-served
//! cargo run --release -p fcpn-bench --example chaos_harness -- \
//!     --bin ./target/release/fcpn-served
//! ```
//!
//! Runs, in order (daemons run in **reactor** mode wherever it exists):
//!
//! 1. **cancellation-latency** — `/schedule?deadline_ms=1&cache=0` on
//!    `choice_chain(12)` (4096 allocations, far beyond 1ms) must answer `503` within
//!    50ms of the deadline, and `/metrics` must show `cancelled_in_stage >= 1`.
//! 2. **slow-loris / disconnect** — a dripping client and a mid-body hangup, after
//!    which `/healthz` must still answer `200` promptly.
//! 3. **connection-flood** — `--flood` (default 10000) idle sockets parked on the
//!    daemon, then one real `/schedule` must answer inside 2s: parked connections
//!    cost buffers, not threads.
//! 4. **loris-fleet** — `--loris` (default 500) connections dripping one byte per
//!    tick; every one must be cut at the read deadline and the daemon must keep
//!    serving throughout.
//! 5. **rate-limit** — against a *separate* daemon started with `--tenant-rate`: a
//!    burst past the bucket earns `429`s with a parseable `Retry-After`, and waiting
//!    out the window restores service (other probes never see throttling).
//! 6. **memory-pressure** — against a daemon started with `--mem-budget`: memory-bomb
//!    nets asking for budgets bigger than the pool are rejected outright (`400`,
//!    `rejected_memory`), nets with too-small budgets fail with the typed exhaustion
//!    `503` (`resource_exhausted`), `/healthz` answers `200` throughout, and a
//!    post-pressure `/schedule` answer is byte-identical to the library oracle.
//! 7. **sigterm-drain** — `kill -TERM` with a request in flight: the request
//!    completes, the daemon exits `0`.
//! 8. **kill-9 + recovery** (skippable with `--skip-kill9`) — warm the persistent
//!    cache, then `kill -9` the daemon while a writer thread is churning fresh cache
//!    appends, restart it on the same `--cache-dir`, and require every warmed
//!    response byte-identical to the library-computed oracle plus readable
//!    `persist_*` metrics.

use fcpn_petri::io::to_text;
use fcpn_petri::{gallery, PetriNet};
use fcpn_qss::{quasi_static_schedule, QssOptions};
use fcpn_serve::chaos::{
    fetch, healthz_ok, probe_cancellation, probe_connection_flood, probe_memory_pressure,
    probe_mid_request_disconnect, probe_rate_limit, probe_slow_loris, probe_slow_loris_fleet,
    sigterm, DaemonProcess,
};
use fcpn_serve::schedule_response_body;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos_harness --bin PATH/TO/fcpn-served [--flood N] [--loris N] \
         [--skip-kill9] [--keep-cache-dir]"
    );
    std::process::exit(2);
}

fn expected_body(net: &PetriNet) -> String {
    schedule_response_body(
        net,
        &quasi_static_schedule(net, &QssOptions::default()).expect("gallery net schedules"),
    )
}

/// Reads one numeric counter out of the `/metrics` JSON body (flat object, numeric
/// values) without a JSON dependency: finds `"key":` and parses the digits after it.
fn metrics_counter(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

struct Outcomes {
    failed: usize,
}

impl Outcomes {
    fn run(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => println!("ok    {name}"),
            Err(why) => {
                self.failed += 1;
                println!("FAIL  {name}: {why}");
            }
        }
    }
}

fn spawn(binary: &str, cache_dir: &str) -> DaemonProcess {
    spawn_with(binary, &["--cache-dir", cache_dir])
}

/// Spawns the daemon in reactor mode (the mode under test; off Linux the binary falls
/// back to threaded by itself) with any extra flags appended.
fn spawn_with(binary: &str, extra: &[&str]) -> DaemonProcess {
    let mut args = vec!["--addr", "127.0.0.1:0", "--workers", "4", "--reactor"];
    args.extend_from_slice(extra);
    DaemonProcess::spawn(binary, &args).expect("spawn fcpn-served")
}

fn cancellation_latency(addr: &str) -> Result<(), String> {
    let net_text = to_text(&gallery::choice_chain(12));
    let deadline_ms = 1u64;
    let probe = probe_cancellation(addr, &net_text, deadline_ms, Duration::from_secs(10))
        .map_err(|e| format!("probe failed: {e}"))?;
    if probe.status != 503 {
        return Err(format!("expected 503, got {}", probe.status));
    }
    let bound = Duration::from_millis(deadline_ms + 50);
    if probe.elapsed > bound {
        return Err(format!(
            "503 took {:?}, more than 50ms past the {deadline_ms}ms deadline",
            probe.elapsed
        ));
    }
    let metrics = fetch(addr, "GET", "/metrics", b"", Duration::from_secs(5))
        .map_err(|e| format!("metrics fetch failed: {e}"))?;
    match metrics_counter(&metrics.body, "cancelled_in_stage") {
        Some(n) if n >= 1 => Ok(()),
        other => Err(format!(
            "cancelled_in_stage should be >= 1 after the probe, got {other:?}"
        )),
    }
}

fn hostile_clients(addr: &str) -> Result<(), String> {
    probe_slow_loris(addr, Duration::from_secs(3)).map_err(|e| format!("slow-loris: {e}"))?;
    probe_mid_request_disconnect(addr, &[b'x'; 8192]).map_err(|e| format!("disconnect: {e}"))?;
    match healthz_ok(addr, Duration::from_secs(5)) {
        Ok(true) => Ok(()),
        Ok(false) => Err("healthz not 200 after hostile clients".into()),
        Err(e) => Err(format!("healthz: {e}")),
    }
}

fn connection_flood(binary: &str, flood: usize) -> Result<(), String> {
    let max_conns = (flood + 256).to_string();
    let daemon = spawn_with(binary, &["--max-conns", &max_conns]);
    let addr = daemon.addr().to_string();
    let net_text = to_text(&gallery::figure4());
    // Warm the cache so the flooded request measures the serving path, not a cold
    // sweep racing the flood on a single-core host.
    let warm = fetch(
        &addr,
        "POST",
        "/schedule",
        net_text.as_bytes(),
        Duration::from_secs(10),
    )
    .map_err(|e| format!("warm request: {e}"))?;
    if warm.status != 200 {
        return Err(format!("warm request: status {}", warm.status));
    }
    let probe = probe_connection_flood(&addr, flood, &net_text, Duration::from_secs(10))
        .map_err(|e| format!("flood probe: {e}"))?;
    if probe.idle_held != flood {
        return Err(format!("held {} of {flood} idle sockets", probe.idle_held));
    }
    if probe.status != 200 {
        return Err(format!("real request under flood: status {}", probe.status));
    }
    let bound = Duration::from_secs(2);
    if probe.elapsed > bound {
        return Err(format!(
            "real request took {:?} under a {flood}-connection flood (bound {bound:?})",
            probe.elapsed
        ));
    }
    println!(
        "      [flood] {} idle conns held, real request in {:?}",
        probe.idle_held, probe.elapsed
    );
    Ok(())
}

fn loris_fleet(binary: &str, loris: usize) -> Result<(), String> {
    // A 1s read deadline so the whole fleet is shed inside the 4s hold.
    let daemon = spawn_with(binary, &["--read-deadline-ms", "1000"]);
    let addr = daemon.addr().to_string();
    let probe = probe_slow_loris_fleet(&addr, loris, Duration::from_secs(4))
        .map_err(|e| format!("fleet probe: {e}"))?;
    if probe.dropped_by_daemon * 10 < probe.opened * 9 {
        return Err(format!(
            "only {} of {} lorises were cut by the read deadline",
            probe.dropped_by_daemon, probe.opened
        ));
    }
    match healthz_ok(&addr, Duration::from_secs(5)) {
        Ok(true) => {}
        Ok(false) => return Err("healthz not 200 after the fleet".into()),
        Err(e) => return Err(format!("healthz after the fleet: {e}")),
    }
    let response = fetch(
        &addr,
        "POST",
        "/schedule",
        to_text(&gallery::figure4()).as_bytes(),
        Duration::from_secs(10),
    )
    .map_err(|e| format!("request after the fleet: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "request after the fleet: status {}",
            response.status
        ));
    }
    println!(
        "      [loris] {}/{} dripping connections shed",
        probe.dropped_by_daemon, probe.opened
    );
    Ok(())
}

fn rate_limit(binary: &str) -> Result<(), String> {
    // A separate daemon instance: only this probe runs with metering on, so the
    // throttle cannot contaminate the other probes' daemons.
    let daemon = spawn_with(binary, &["--tenant-rate", "2", "--tenant-burst", "4"]);
    let addr = daemon.addr().to_string();
    let net_text = to_text(&gallery::figure4());
    let probe = probe_rate_limit(&addr, "acme", 10, &net_text, Duration::from_secs(10))
        .map_err(|e| format!("rate-limit probe: {e}"))?;
    if probe.limited == 0 {
        return Err(format!(
            "burst of 10 past a 4-deep bucket was never limited: {probe:?}"
        ));
    }
    if probe.retry_after_s < 1 {
        return Err(format!("Retry-After must be >= 1s: {probe:?}"));
    }
    if !probe.recovered {
        return Err(format!(
            "tenant not served after waiting out Retry-After: {probe:?}"
        ));
    }
    let metrics = fetch(&addr, "GET", "/metrics", b"", Duration::from_secs(5))
        .map_err(|e| format!("metrics fetch: {e}"))?;
    match metrics_counter(&metrics.body, "rejected_rate_limited") {
        Some(n) if n as usize >= probe.limited => {}
        other => {
            return Err(format!(
                "rejected_rate_limited should be >= {}, got {other:?}",
                probe.limited
            ))
        }
    }
    println!(
        "      [rate] {} ok, {} limited (Retry-After {}s), recovered",
        probe.ok, probe.limited, probe.retry_after_s
    );
    Ok(())
}

fn memory_pressure(binary: &str) -> Result<(), String> {
    // A separate daemon instance with the process governor armed at 1MiB: the
    // memory-bomb traffic must be degraded, never fatal.
    let daemon = spawn_with(binary, &["--mem-budget", "1048576"]);
    let addr = daemon.addr().to_string();
    let bomb = to_text(&gallery::memory_bomb(6));
    let probe = probe_memory_pressure(&addr, &bomb, 4, Duration::from_secs(10))
        .map_err(|e| format!("pressure probe: {e}"))?;
    if !probe.healthy_throughout {
        return Err(format!("healthz failed under pressure: {probe:?}"));
    }
    if probe.rejected == 0 || probe.exhausted == 0 || probe.other != 0 {
        return Err(format!(
            "expected over-pool 400 rejections and typed-exhausted 503s and nothing else: {probe:?}"
        ));
    }
    let metrics = fetch(&addr, "GET", "/metrics", b"", Duration::from_secs(5))
        .map_err(|e| format!("metrics fetch: {e}"))?;
    for (key, at_least) in [
        ("rejected_memory", (probe.rejected + probe.shed) as u64),
        ("resource_exhausted", probe.exhausted as u64),
        ("mem_budget_bytes", 1_048_576),
    ] {
        match metrics_counter(&metrics.body, key) {
            Some(n) if n >= at_least => {}
            other => return Err(format!("{key} should be >= {at_least}, got {other:?}")),
        }
    }
    // The governed daemon's post-pressure answers must still be byte-identical to
    // direct library calls — pressure sheds work, it never bends results.
    let net = gallery::figure4();
    let response = fetch(
        &addr,
        "POST",
        "/schedule",
        to_text(&net).as_bytes(),
        Duration::from_secs(10),
    )
    .map_err(|e| format!("post-pressure request: {e}"))?;
    if response.status != 200 || response.body != expected_body(&net) {
        return Err(format!(
            "post-pressure response diverged from the library oracle (status {})",
            response.status
        ));
    }
    println!(
        "      [mem] {} rejected, {} shed, {} typed-exhausted over {} requests, healthy throughout",
        probe.rejected, probe.shed, probe.exhausted, probe.requests
    );
    Ok(())
}

fn sigterm_drain(binary: &str) -> Result<(), String> {
    let daemon = spawn_with(binary, &[]);
    let addr = daemon.addr().to_string();
    let pid = daemon.pid();
    // An uncached sweep big enough that the SIGTERM usually lands mid-request; if the
    // request wins the race anyway, the exit-status check still gates the drain.
    let in_flight = std::thread::spawn(move || {
        fetch(
            &addr,
            "POST",
            "/schedule?cache=0",
            to_text(&gallery::choice_chain(13)).as_bytes(),
            Duration::from_secs(30),
        )
    });
    std::thread::sleep(Duration::from_millis(30));
    sigterm(pid).map_err(|e| format!("SIGTERM: {e}"))?;
    let response = in_flight
        .join()
        .expect("request thread")
        .map_err(|e| format!("in-flight request through the drain: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "in-flight request must finish through the drain, got {}",
            response.status
        ));
    }
    match daemon.wait_success() {
        Ok(true) => Ok(()),
        Ok(false) => Err("daemon exited non-zero after SIGTERM".into()),
        Err(e) => Err(format!("waiting for drained daemon: {e}")),
    }
}

fn kill9_recovery(binary: &str, cache_dir: &str) -> Result<(), String> {
    let warm: Vec<(String, String, String)> = [gallery::figure4(), gallery::figure5()]
        .iter()
        .map(|net| (net.name().to_string(), to_text(net), expected_body(net)))
        .collect();

    let daemon = spawn(binary, cache_dir);
    let addr = daemon.addr().to_string();
    for (name, text, expected) in &warm {
        let response = fetch(
            &addr,
            "POST",
            "/schedule",
            text.as_bytes(),
            Duration::from_secs(10),
        )
        .map_err(|e| format!("warm {name}: {e}"))?;
        if response.status != 200 || &response.body != expected {
            return Err(format!("warm {name}: bad response ({})", response.status));
        }
    }
    // Churn distinct cache appends from a writer thread so the kill lands with the
    // shard logs mid-write with high probability.
    let churn_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        for n in 3..64usize {
            let text = to_text(&gallery::choice_chain(n % 8 + 2));
            if fetch(
                &churn_addr,
                "POST",
                &format!("/schedule?deadline_ms={}", 10_000 + n),
                text.as_bytes(),
                Duration::from_secs(5),
            )
            .is_err()
            {
                break; // daemon was killed — that is the point
            }
        }
    });
    std::thread::sleep(Duration::from_millis(150));
    daemon.kill9().map_err(|e| format!("kill -9: {e}"))?;
    let _ = writer.join();

    // Restart on the same directory: recovery must never fail startup, the warmed
    // responses must come back byte-identical, and the persist counters must render.
    let daemon = spawn(binary, cache_dir);
    let addr = daemon.addr().to_string();
    for (name, text, expected) in &warm {
        let response = fetch(
            &addr,
            "POST",
            "/schedule",
            text.as_bytes(),
            Duration::from_secs(10),
        )
        .map_err(|e| format!("re-query {name}: {e}"))?;
        if response.status != 200 {
            return Err(format!("re-query {name}: status {}", response.status));
        }
        if &response.body != expected {
            return Err(format!("re-query {name}: bytes diverged after recovery"));
        }
    }
    let metrics = fetch(&addr, "GET", "/metrics", b"", Duration::from_secs(5))
        .map_err(|e| format!("metrics after restart: {e}"))?;
    let recovered = metrics_counter(&metrics.body, "persist_recovered_entries");
    let truncations = metrics_counter(&metrics.body, "persist_torn_tail_truncations");
    match (recovered, truncations) {
        (Some(r), Some(_)) if r >= 1 => {}
        other => {
            return Err(format!(
                "persist counters missing or empty after restart: {other:?}"
            ))
        }
    }
    daemon.kill9().map_err(|e| format!("final kill: {e}"))?;
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut binary: Option<String> = None;
    let mut keep_cache_dir = false;
    let mut skip_kill9 = false;
    let mut flood = 10_000usize;
    let mut loris = 500usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bin" => {
                binary = args.get(i + 1).cloned();
                i += 2;
            }
            "--flood" => {
                flood = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--loris" => {
                loris = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--skip-kill9" => {
                skip_kill9 = true;
                i += 1;
            }
            "--keep-cache-dir" => {
                keep_cache_dir = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    let binary = binary.unwrap_or_else(|| usage());
    let cache_dir = std::env::temp_dir().join(format!("fcpn-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_dir = cache_dir.to_string_lossy().into_owned();

    // The flood probe holds `flood` client-side sockets in this process.
    #[cfg(target_os = "linux")]
    {
        let got = fcpn_serve::reactor::raise_nofile_limit(flood as u64 + 512);
        if got < flood as u64 + 64 {
            eprintln!("warning: fd limit {got} may be too low for --flood {flood}");
        }
    }

    let mut outcomes = Outcomes { failed: 0 };

    {
        let daemon = spawn(&binary, &cache_dir);
        let addr = daemon.addr().to_string();
        outcomes.run("cancellation-latency", cancellation_latency(&addr));
        outcomes.run("hostile-clients", hostile_clients(&addr));
        daemon.kill9().expect("tear down first daemon");
    }
    outcomes.run("connection-flood", connection_flood(&binary, flood));
    outcomes.run("loris-fleet", loris_fleet(&binary, loris));
    outcomes.run("rate-limit", rate_limit(&binary));
    outcomes.run("memory-pressure", memory_pressure(&binary));
    outcomes.run("sigterm-drain", sigterm_drain(&binary));
    if skip_kill9 {
        println!("skip  kill9-recovery (--skip-kill9)");
    } else {
        outcomes.run("kill9-recovery", kill9_recovery(&binary, &cache_dir));
    }

    if !keep_cache_dir {
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    if outcomes.failed > 0 {
        eprintln!("{} chaos run(s) failed", outcomes.failed);
        std::process::exit(1);
    }
    println!("all chaos runs passed");
}
