//! End-to-end tests of the daemon over real sockets: concurrency, bit-identical
//! agreement with direct library calls, backpressure, hostile input, shutdown.
//!
//! Every behavioural test runs against **both** front ends — the blocking
//! thread-per-connection path and (on Linux) the epoll reactor — via
//! [`for_each_front_end`]: the wire contract must not depend on which one is serving.
//! Reactor-only mechanics (idle timeouts, the connection gauge, accept-time shedding,
//! fanout) get their own `#[cfg(target_os = "linux")]` tests at the bottom.

use fcpn_petri::io::to_text;
use fcpn_petri::{gallery, PetriNet};
use fcpn_qss::{quasi_static_schedule, QssOptions};
use fcpn_serve::{
    handlers, schedule_response_body, Client, HandlerCtx, Metrics, Request, RequestLimits,
    ResultCache, Server, ServerConfig, ServerHandle,
};
use std::time::Duration;

/// Runs `test` once per available front end (threaded everywhere, reactor on Linux).
fn for_each_front_end(test: impl Fn(bool)) {
    test(false);
    #[cfg(target_os = "linux")]
    test(true);
}

fn spawn_on(reactor: bool, config: ServerConfig) -> ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        reactor,
        ..config
    })
    .expect("daemon binds an ephemeral port")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Duration::from_secs(30)).expect("client connects")
}

fn metrics_u64(c: &mut Client, key: &str) -> u64 {
    let metrics = c.request("GET", "/metrics", b"").expect("metrics");
    fcpn_serve::json::parse(&metrics.body)
        .expect("metrics is valid JSON")
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics key `{key}` missing"))
}

fn expected_schedule_body(net: &PetriNet) -> String {
    schedule_response_body(
        net,
        &quasi_static_schedule(net, &QssOptions::default()).expect("valid input"),
    )
}

#[test]
fn serves_64_concurrent_schedule_requests_bit_identical_to_library() {
    // 16 workers + a 64-deep queue: 64 concurrent one-shot connections all fit in
    // flight, so none may be rejected and every body must equal the library's answer —
    // on the gallery nets and on the ATM case study, on both front ends. `/metrics`
    // accounts for every request: one miss per distinct net, then one hit per request.
    let atm = fcpn_atm::AtmModel::build(fcpn_atm::AtmConfig::small()).expect("atm model builds");
    let nets: Vec<PetriNet> = vec![
        gallery::figure3a(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::choice_chain(5),
        atm.net.clone(),
    ];
    let expected: Vec<String> = nets.iter().map(expected_schedule_body).collect();
    let texts: Vec<String> = nets.iter().map(to_text).collect();

    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                workers: 16,
                queue_capacity: 64,
                ..ServerConfig::default()
            },
        );

        // Warm the result cache sequentially so the concurrent burst below measures
        // the serving path, not 16 workers of one debug-mode ATM sweep each racing the
        // same cold key on a single-core CI host.
        {
            let mut warm = client(&handle);
            for (text, want) in texts.iter().zip(&expected) {
                let response = warm
                    .request("POST", "/schedule", text.as_bytes())
                    .expect("warm request");
                assert_eq!(response.status, 200);
                assert_eq!(
                    &response.body, want,
                    "warm body diverged (reactor={reactor})"
                );
            }
        }

        std::thread::scope(|scope| {
            for i in 0..64 {
                let handle = &handle;
                let texts = &texts;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = client(handle);
                    let which = i % texts.len();
                    let response = client
                        .request("POST", "/schedule", texts[which].as_bytes())
                        .expect("request completes");
                    assert_eq!(response.status, 200, "request {i} (reactor={reactor})");
                    assert_eq!(
                        response.body, expected[which],
                        "request {i} body diverged (reactor={reactor})"
                    );
                });
            }
        });
        let mut probe = client(&handle);
        assert_eq!(
            metrics_u64(&mut probe, "cache_misses"),
            texts.len() as u64,
            "reactor={reactor}"
        );
        assert_eq!(
            metrics_u64(&mut probe, "cache_hits"),
            64,
            "reactor={reactor}"
        );
        drop(probe);
        handle.shutdown();
    });
}

// The fanout generator drives its connections over epoll, so this runs on Linux only.
#[cfg(target_os = "linux")]
#[test]
fn load_generator_reports_latencies_and_hit_rate() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        );
        let spec = fcpn_serve::FanoutSpec {
            connections: 8,
            idle_connections: 0,
            requests_per_connection: 8,
            target: "/schedule".into(),
            nets: vec![
                ("figure3a".into(), to_text(&gallery::figure3a())),
                ("figure5".into(), to_text(&gallery::figure5())),
            ],
            tenants: Vec::new(),
            deadline: Duration::from_secs(30),
        };
        let report = fcpn_serve::load::run_fanout(&handle.addr().to_string(), &spec)
            .expect("load run completes");
        assert_eq!(report.requests, 64);
        assert_eq!(
            report.ok, 64,
            "errors={} rejected={} rate_limited={} (reactor={reactor})",
            report.errors, report.rejected, report.rate_limited
        );
        assert!(report.p50_us > 0.0 && report.p95_us >= report.p50_us);
        // 64 requests over 2 distinct (net, options) keys: at least one miss per key,
        // but concurrent cold requests on the same key may each miss before the first
        // insert lands, so the split is a range, not an exact count.
        let mut probe = client(&handle);
        let hits = metrics_u64(&mut probe, "cache_hits");
        let misses = metrics_u64(&mut probe, "cache_misses");
        assert_eq!(hits + misses, 64, "reactor={reactor}");
        assert!(misses >= 2, "misses {misses} (reactor={reactor})");
        assert!(hits >= 32, "hits {hits} (reactor={reactor})");
        drop(probe);
        handle.shutdown();
    });
}

#[test]
fn saturation_returns_503_not_a_hang() {
    // One worker and a 2-deep queue: 8 connections opened before any request is sent
    // exceed in-flight capacity, so at least one must be shed with a 503 and every
    // connection must get a definite answer (no hang, no abort). Shed responses that
    // do arrive intact must carry the overload contract: Retry-After plus a JSON
    // error body, same shape as handler errors.
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                read_timeout: Duration::from_secs(2),
                ..ServerConfig::default()
            },
        );
        let text = to_text(&gallery::figure4());
        let outcomes: Vec<Result<fcpn_serve::ClientResponse, ()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let addr = handle.addr().to_string();
                    let text = text.clone();
                    scope.spawn(move || {
                        let mut client =
                            Client::connect(&addr, Duration::from_secs(30)).expect("connect");
                        // Hold the connection open so all 8 are in flight
                        // simultaneously before the single worker can drain any.
                        std::thread::sleep(Duration::from_millis(300));
                        // A shed connection may already be closed by the time we
                        // write; that transport error counts as shed.
                        client
                            .request("POST", "/schedule", text.as_bytes())
                            .map_err(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ok = outcomes
            .iter()
            .filter(|r| matches!(r, Ok(resp) if resp.status == 200))
            .count();
        let shed = outcomes.len() - ok;
        assert!(shed >= 1, "expected shedding (reactor={reactor})");
        // Everything that made it into the queue must be served. Whether the worker
        // had already popped a connection when the burst arrived depends on
        // scheduling, so the guaranteed floor is the queue capacity alone.
        assert!(
            ok >= 2,
            "queued connections must still be served (reactor={reactor}): {ok} ok"
        );
        for outcome in outcomes.iter().flatten() {
            if outcome.status == 503 {
                assert!(
                    outcome.header("retry-after").is_some(),
                    "503 without Retry-After (reactor={reactor})"
                );
                assert!(
                    outcome.body.contains("\"error\""),
                    "503 without a JSON error body (reactor={reactor}): {:?}",
                    outcome.body
                );
            } else {
                assert_eq!(outcome.status, 200, "unexpected status (reactor={reactor})");
            }
        }
        handle.shutdown();
    });
}

#[test]
fn keep_alive_connection_serves_many_requests_with_cache_hits() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let net = gallery::figure5();
        let expected = expected_schedule_body(&net);
        let text = to_text(&net);
        let mut client = client(&handle);
        let mut dispositions = Vec::new();
        for _ in 0..10 {
            let response = client
                .request("POST", "/schedule", text.as_bytes())
                .expect("keep-alive request");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, expected);
            dispositions.push(response.header("x-fcpn-cache").unwrap_or("?").to_string());
        }
        assert_eq!(dispositions[0], "miss");
        assert!(
            dispositions[1..].iter().all(|d| d == "hit"),
            "repeat queries must hit the cache (reactor={reactor}): {dispositions:?}"
        );
        handle.shutdown();
    });
}

#[test]
fn healthz_metrics_and_hostile_inputs() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                limits: RequestLimits {
                    // Tiny caps so the guard paths trigger instantly.
                    max_allocations: 8,
                    ..RequestLimits::default()
                },
                http: fcpn_serve::HttpLimits {
                    max_body_bytes: 4096,
                    ..fcpn_serve::HttpLimits::default()
                },
                ..ServerConfig::default()
            },
        );
        let mut c = client(&handle);

        let health = c.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"ok\""));

        // Garbage net text: 400 with the offending line, connection stays usable.
        let bad = c
            .request("POST", "/schedule", b"net x\nfoo bar")
            .expect("bad net answered");
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("line 2"));

        // Non-free-choice input: a typed 422 verdict, not a 500.
        let nfc = c
            .request(
                "POST",
                "/schedule",
                to_text(&gallery::figure1b()).as_bytes(),
            )
            .expect("nfc answered");
        assert_eq!(nfc.status, 422);

        // An allocation-budget blowup: typed 422 with the required count.
        let big = c
            .request(
                "POST",
                "/schedule",
                to_text(&gallery::choice_chain(8)).as_bytes(),
            )
            .expect("budget answered");
        assert_eq!(big.status, 422);
        assert!(big.body.contains("too many allocations"));

        // Oversized body: shed with 413.
        let huge = "#".repeat(8192);
        // The server may close right after writing the 413, so a transport error is
        // also acceptable; what matters is that it did not crash.
        if let Ok(response) = c.request("POST", "/schedule", huge.as_bytes()) {
            assert_eq!(response.status, 413);
        }

        // The daemon survived all of it.
        let mut c2 = client(&handle);
        let metrics = c2.request("GET", "/metrics", b"").expect("metrics");
        assert_eq!(metrics.status, 200);
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        assert!(value.get("requests_total").unwrap().as_u64().unwrap() >= 4);
        assert!(
            value
                .get("responses_client_error")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 2
        );
        handle.shutdown();
    });
}

#[test]
fn per_request_thread_option_matches_sequential_answer() {
    // `threads` is ignored like any unknown query parameter: the sweep and the
    // explorer run on the worker's own thread, so every value, numeric or not, leaves
    // the body byte-identical. `cache=0` makes every request run its handler instead
    // of replaying the first answer.
    let net = gallery::choice_chain(6);
    let text = to_text(&net);
    let expected_schedule = expected_schedule_body(&net);
    let analyze = "/analyze?max_markings=5000&cache=0";
    let expected_analyze = {
        let (limits, cache, metrics) = (
            RequestLimits::default(),
            ResultCache::new(1, 1),
            Metrics::new(),
        );
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let request = Request {
            method: "POST".into(),
            path: "/analyze".into(),
            query: vec![("max_markings".into(), "5000".into())],
            headers: Vec::new(),
            body: text.clone().into_bytes(),
        };
        let response = handlers::handle(&ctx, &request);
        assert_eq!(response.status, 200);
        response.body.to_string()
    };
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let mut c = client(&handle);
        for threads in ["1", "2", "4", "abc"] {
            for (path, expected) in [
                ("/schedule?cache=0", &expected_schedule),
                (analyze, &expected_analyze),
            ] {
                let query = format!("{path}&threads={threads}");
                let response = c.request("POST", &query, text.as_bytes()).expect("request");
                assert_eq!(response.status, 200, "{query} (reactor={reactor})");
                assert_eq!(&response.body, expected, "{query} diverged");
            }
        }
        handle.shutdown();
    });
}

#[test]
fn slow_loris_request_is_dropped_at_the_read_deadline() {
    // A client dripping head bytes under the socket read timeout must still lose its
    // slot at the per-request read deadline — otherwise `workers` (threaded) or
    // `max_connections` (reactor) cheap connections would pin the daemon.
    use std::io::{Read, Write};
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                request_read_deadline: Duration::from_millis(300),
                read_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        );
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"POST /schedule HTTP/1.1\r\nContent-")
            .unwrap();
        // One byte every 100ms: each read succeeds within the 200ms socket timeout,
        // but the 300ms total deadline blows well before the head completes.
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(100));
            if stream.write_all(b"x").is_err() {
                break; // server already reset us — exactly what we want
            }
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) => {} // clean close: the slot was released
            Err(e)
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {} // reset: also released
            other => panic!("server kept the slow connection alive (reactor={reactor}): {other:?}"),
        }
        handle.shutdown();
    });
}

#[test]
fn keep_alive_idle_time_does_not_count_against_the_read_deadline() {
    // The request-read deadline runs from a request's first byte, not from the end of
    // the previous response: a client that idles on keep-alive for most of the
    // deadline, then sends a request in two writes that ends well within the deadline
    // measured from its first byte, must get its answer.
    use std::io::{Read, Write};
    let probe = "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    let ok = "{\"status\":\"ok\"}";
    let expect_answer = |stream: &mut std::net::TcpStream, what: &str, reactor: bool| {
        let mut seen = String::new();
        let mut buf = [0u8; 1024];
        while !seen.ends_with(ok) {
            let n = stream.read(&mut buf).unwrap_or(0);
            assert!(
                n > 0,
                "{what}: connection closed unanswered (reactor={reactor})"
            );
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        assert!(seen.starts_with("HTTP/1.1 200 OK"), "{what}: {seen:?}");
    };
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                request_read_deadline: Duration::from_millis(800),
                read_timeout: Duration::from_millis(1500),
                ..ServerConfig::default()
            },
        );
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(probe.as_bytes()).unwrap();
        expect_answer(&mut stream, "first request", reactor);
        // 600 ms idle, then 300 ms between the two halves: 900 ms after the first
        // answer, but only 300 ms after the second request's first byte.
        std::thread::sleep(Duration::from_millis(600));
        let (head, tail) = probe.split_at(10);
        stream.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(tail.as_bytes()).unwrap();
        expect_answer(&mut stream, "request after the keep-alive wait", reactor);
        handle.shutdown();
    });
}

#[test]
fn metrics_exposes_cancellation_and_persistence_counters() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let mut c = client(&handle);
        let metrics = c.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        for key in [
            "cancelled_in_stage",
            "cache_evictions",
            "cache_bytes",
            "persist_recovered_entries",
            "persist_torn_tail_truncations",
            "rejected_rate_limited",
            "rejected_quota",
            "idle_timeouts",
            "deadline_disconnects",
            "open_connections",
            "rejected_memory",
            "resource_exhausted",
            "mem_bytes_in_use",
            "mem_budget_bytes",
        ] {
            assert!(
                value.get(key).and_then(|v| v.as_u64()).is_some(),
                "missing or non-numeric metrics key `{key}` (reactor={reactor})"
            );
        }
        let front_end = value.get("front_end").and_then(|v| v.as_str());
        assert_eq!(
            front_end,
            Some(if reactor { "reactor" } else { "threaded" }),
            "front_end label must match the serving path"
        );
        handle.shutdown();
    });
}

#[test]
fn memory_governed_daemon_sheds_and_exhausts_typed_then_keeps_serving() {
    // A 1MiB process pool: a request asking for more than the whole pool is rejected
    // outright (non-retryable 400 — no retry can make it fit), a request whose budget
    // is below the 64KiB metering chunk fails with the typed exhaustion body, and
    // afterwards normal requests still compute with the governor gauge drained back
    // to zero.
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                mem_budget_bytes: Some(1 << 20),
                ..ServerConfig::default()
            },
        );
        let text = to_text(&gallery::figure4());

        // A budget the pool can never cover: rejected as a client error, without the
        // Retry-After that would invite futile retries.
        let mut c = client(&handle);
        let rejected = c
            .request(
                "POST",
                &format!("/schedule?memory_budget_bytes={}", u64::MAX),
                text.as_bytes(),
            )
            .expect("rejected request still gets an answer");
        assert_eq!(rejected.status, 400, "reactor={reactor}");
        assert_eq!(rejected.header("retry-after"), None);

        // Affordable but too small for the engine: the typed exhaustion body.
        let mut c2 = client(&handle);
        let exhausted = c2
            .request(
                "POST",
                "/schedule?memory_budget_bytes=4096&cache=0",
                text.as_bytes(),
            )
            .expect("exhausted request still gets an answer");
        assert_eq!(exhausted.status, 503, "reactor={reactor}");
        let body = fcpn_serve::json::parse(&exhausted.body).expect("typed exhaustion is JSON");
        assert_eq!(
            body.get("error").and_then(|v| v.as_str()),
            Some("memory budget exhausted")
        );
        assert_eq!(body.get("limit_bytes").and_then(|v| v.as_u64()), Some(4096));
        assert!(body.get("stage").and_then(|v| v.as_str()).is_some());

        // The daemon keeps serving, and its answers match the library.
        let mut c3 = client(&handle);
        let ok = c3
            .request("POST", "/schedule", text.as_bytes())
            .expect("normal request");
        assert_eq!(ok.status, 200, "reactor={reactor}");
        assert_eq!(ok.body, expected_schedule_body(&gallery::figure4()));

        let metrics = c3.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        let counter = |key: &str| value.get(key).and_then(|v| v.as_u64()).unwrap();
        assert!(counter("rejected_memory") >= 1, "reactor={reactor}");
        assert!(counter("resource_exhausted") >= 1, "reactor={reactor}");
        assert_eq!(counter("mem_budget_bytes"), 1 << 20);
        assert_eq!(
            counter("mem_bytes_in_use"),
            0,
            "every reservation must be released (reactor={reactor})"
        );
        handle.shutdown();
    });
}

#[test]
fn blown_deadline_cancels_the_sweep_mid_stage_with_a_503() {
    // choice_chain(12) has 2^12 = 4096 allocations — a sweep that takes far longer
    // than 1ms — so the armed token must abort it from *inside* the stage.
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let text = to_text(&gallery::choice_chain(12));
        let mut c = client(&handle);
        let response = c
            .request(
                "POST",
                "/schedule?deadline_ms=1&cache=0&threads=1",
                text.as_bytes(),
            )
            .expect("cancelled request still gets an answer");
        assert_eq!(response.status, 503);
        let mut c2 = client(&handle);
        let metrics = c2.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        assert!(
            value.get("cancelled_in_stage").unwrap().as_u64().unwrap() >= 1,
            "the 503 must come from an in-stage cancellation, not a between-stage check"
        );
        // The same request without the hostile deadline still computes fine: the
        // cancellation left no poisoned state behind.
        let ok = c2
            .request("POST", "/schedule?cache=0&threads=1", text.as_bytes())
            .expect("follow-up request");
        assert_eq!(ok.status, 200);
        handle.shutdown();
    });
}

#[test]
fn synthesize_endpoint_roundtrips_with_cache_and_typed_sheds() {
    // The /synthesize wire contract end to end: a complete LTS comes back as a net
    // that parses and realises it (200, cached on repeat), a non-synthesizable LTS
    // gets its typed witness in a 200 verdict, a starved memory budget is a typed 503
    // naming a synthesis stage, and a 1ms deadline aborts the region engine mid-run.
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let net = gallery::marked_ring(4, 2);
        let space = fcpn_petri::statespace::StateSpace::explore(
            &net,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        let lts = fcpn_petri::synthesis::Lts::from_statespace(&net, &space)
            .expect("bounded ring explores completely");
        let body = lts.to_text();

        let mut c = client(&handle);
        let first = c
            .request("POST", "/synthesize", body.as_bytes())
            .expect("synthesize request");
        assert_eq!(first.status, 200, "reactor={reactor}: {}", first.body);
        let value = fcpn_serve::json::parse(&first.body).expect("synthesize answers JSON");
        assert_eq!(
            value.get("synthesizable").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            value
                .get("stats")
                .and_then(|s| s.get("verified"))
                .and_then(|v| v.as_bool()),
            Some(true)
        );
        let emitted =
            fcpn_petri::io::parse_net(value.get("net").and_then(|v| v.as_str()).expect("net text"))
                .expect("emitted net parses");
        let re_space = fcpn_petri::statespace::StateSpace::explore(
            &emitted,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        assert_eq!(
            re_space.state_count(),
            space.state_count(),
            "reactor={reactor}"
        );
        assert_eq!(first.header("x-fcpn-cache"), Some("miss"));

        let second = c
            .request("POST", "/synthesize", body.as_bytes())
            .expect("repeat request");
        assert_eq!(second.body, first.body);
        assert_eq!(
            second.header("x-fcpn-cache"),
            Some("hit"),
            "reactor={reactor}"
        );

        // A typed witness for behaviour no net realises.
        let unsat = c
            .request(
                "POST",
                "/synthesize",
                b"lts chain\nedge s0 a s1\nedge s1 a s2\nedge s0 b s0\nedge s2 b s2\n",
            )
            .expect("witness request");
        assert_eq!(unsat.status, 200);
        let verdict = fcpn_serve::json::parse(&unsat.body).expect("witness is JSON");
        assert_eq!(
            verdict.get("synthesizable").and_then(|v| v.as_bool()),
            Some(false)
        );
        assert_eq!(
            verdict
                .get("witness")
                .and_then(|w| w.get("kind"))
                .and_then(|v| v.as_str()),
            Some("event-state-separation")
        );

        // A starved per-request budget: typed 503 from inside a synthesis stage.
        let big_net = gallery::marked_ring(10, 5);
        let big_space = fcpn_petri::statespace::StateSpace::explore(
            &big_net,
            fcpn_petri::analysis::ReachabilityOptions {
                max_markings: 1_000_000,
                max_tokens_per_place: 64,
            },
        );
        let big = fcpn_petri::synthesis::Lts::from_statespace(&big_net, &big_space)
            .expect("bigger ring explores completely")
            .to_text();
        let starved = c
            .request(
                "POST",
                "/synthesize?memory_budget_bytes=64&cache=0",
                big.as_bytes(),
            )
            .expect("starved request");
        assert_eq!(starved.status, 503, "reactor={reactor}: {}", starved.body);
        let shed = fcpn_serve::json::parse(&starved.body).expect("typed exhaustion is JSON");
        assert_eq!(
            shed.get("error").and_then(|v| v.as_str()),
            Some("memory budget exhausted")
        );
        assert!(
            shed.get("stage")
                .and_then(|v| v.as_str())
                .unwrap()
                .starts_with("synthesis-"),
            "exhaustion must name a synthesis stage: {}",
            starved.body
        );

        // A 1ms deadline on an ~8ms synthesis: the armed token aborts the region
        // engine from the inside.
        let blown = c
            .request("POST", "/synthesize?deadline_ms=1&cache=0", big.as_bytes())
            .expect("deadline request");
        assert_eq!(blown.status, 503, "reactor={reactor}: {}", blown.body);

        let metrics = c.request("GET", "/metrics", b"").expect("metrics");
        let counters = fcpn_serve::json::parse(&metrics.body).expect("metrics is JSON");
        let counter = |key: &str| counters.get(key).and_then(|v| v.as_u64()).unwrap();
        assert!(counter("synthesize_requests") >= 5, "reactor={reactor}");
        assert!(counter("resource_exhausted") >= 1, "reactor={reactor}");
        assert!(counter("cancelled_in_stage") >= 1, "reactor={reactor}");
        handle.shutdown();
    });
}

#[test]
fn drain_finishes_in_flight_requests_before_stopping() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                drain_grace: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        );
        let addr = handle.addr().to_string();
        // choice_chain(10): slow enough (1024 allocations, debug build) that the drain
        // below starts while this request is still being computed.
        let text = to_text(&gallery::choice_chain(10));
        let in_flight = std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
            c.request("POST", "/schedule?cache=0", text.as_bytes())
                .expect("in-flight request completes through the drain")
        });
        std::thread::sleep(Duration::from_millis(100));
        handle.drain();
        let response = in_flight.join().expect("request thread");
        assert_eq!(
            response.status, 200,
            "drain must let the in-flight request finish (reactor={reactor})"
        );
    });
}

#[test]
fn persistent_cache_survives_restart_with_identical_bytes() {
    for_each_front_end(|reactor| {
        let dir = std::env::temp_dir().join(format!(
            "fcpn-daemon-persist-{}-{}",
            std::process::id(),
            reactor
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let net = gallery::figure5();
        let text = to_text(&net);
        let expected = expected_schedule_body(&net);

        let first_body = {
            let handle = spawn_on(reactor, config());
            let mut c = client(&handle);
            let response = c
                .request("POST", "/schedule", text.as_bytes())
                .expect("warm request");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, expected);
            handle.drain(); // flushes the logs
            response.body
        };

        let handle = spawn_on(reactor, config());
        let mut c = client(&handle);
        let metrics = c.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        assert!(
            value
                .get("persist_recovered_entries")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1,
            "restart must reload the persisted entry (reactor={reactor})"
        );
        let response = c
            .request("POST", "/schedule", text.as_bytes())
            .expect("post-restart request");
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header("x-fcpn-cache"),
            Some("hit"),
            "the recovered entry must serve the repeat query"
        );
        assert_eq!(response.body, first_body, "post-recovery bytes diverged");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn shutdown_is_clean_and_port_is_released() {
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let addr = handle.addr();
        let mut c = Client::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(c.request("GET", "/healthz", b"").unwrap().status, 200);
        handle.shutdown();
        // The listener is gone: a fresh bind of the same port succeeds.
        let rebound = std::net::TcpListener::bind(addr);
        assert!(
            rebound.is_ok(),
            "port was not released (reactor={reactor}): {rebound:?}"
        );
    });
}

#[test]
fn tenant_rate_limit_answers_429_with_retry_after_and_metrics() {
    // Admission control is front-end agnostic: a tenant bursting past its bucket gets
    // 429 + Retry-After on a keep-alive connection, other tenants are unaffected, and
    // /metrics breaks the counters down per tenant.
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                tenant: fcpn_serve::TenantPolicy {
                    rate: 1.0,
                    burst: 2.0,
                    ..fcpn_serve::TenantPolicy::default()
                },
                ..ServerConfig::default()
            },
        );
        let text = to_text(&gallery::figure4());
        let mut c = client(&handle);
        let mut ok = 0usize;
        let mut limited = 0usize;
        for _ in 0..6 {
            let response = c
                .request_with_headers(
                    "POST",
                    "/schedule",
                    &[("X-Fcpn-Tenant", "acme")],
                    text.as_bytes(),
                )
                .expect("metered request answered on the same connection");
            match response.status {
                200 => ok += 1,
                429 => {
                    limited += 1;
                    let retry: u64 = response
                        .header("retry-after")
                        .expect("429 carries Retry-After")
                        .parse()
                        .expect("Retry-After is an integer");
                    assert!(retry >= 1);
                    assert!(
                        response.body.contains("\"error\""),
                        "429 body must be a JSON error: {:?}",
                        response.body
                    );
                }
                other => panic!("unexpected status {other} (reactor={reactor})"),
            }
        }
        assert_eq!(ok, 2, "bucket depth is 2 (reactor={reactor})");
        assert_eq!(limited, 4, "the rest must be limited (reactor={reactor})");

        // A different tenant still gets served: buckets are independent.
        let other = c
            .request_with_headers(
                "POST",
                "/schedule",
                &[("X-Fcpn-Tenant", "globex")],
                text.as_bytes(),
            )
            .expect("other tenant request");
        assert_eq!(other.status, 200, "tenants must not share buckets");

        let metrics = c.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        assert_eq!(
            value.get("rejected_rate_limited").unwrap().as_u64(),
            Some(4)
        );
        let acme = value
            .get("tenants")
            .unwrap()
            .get("acme")
            .expect("acme bucket");
        assert_eq!(acme.get("admitted").unwrap().as_u64(), Some(2));
        assert_eq!(acme.get("rejected").unwrap().as_u64(), Some(4));
        handle.shutdown();
    });
}

#[test]
fn per_request_bookkeeping_is_identical_on_both_front_ends() {
    // A probe, a tenant 429, a 200 and a malformed-net 400 each take a different branch
    // of the per-request protocol; afterwards every gauge is back at zero, and the
    // request and status-class counters agree on both front ends.
    let counters = std::sync::Mutex::new(Vec::new());
    for_each_front_end(|reactor| {
        let handle = spawn_on(
            reactor,
            ServerConfig {
                // One token and no refill within the test: the second metered request
                // from the same tenant is refused.
                tenant: fcpn_serve::TenantPolicy {
                    rate: 0.001,
                    burst: 1.0,
                    ..fcpn_serve::TenantPolicy::default()
                },
                ..ServerConfig::default()
            },
        );
        let text = to_text(&gallery::figure4());
        let acme = [("X-Fcpn-Tenant", "acme")];
        let mut c = client(&handle);
        let mut status = |method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]| {
            c.request_with_headers(method, path, headers, body)
                .expect("answered on the same keep-alive connection")
                .status
        };
        assert_eq!(status("GET", "/healthz", &[], b""), 200);
        assert_eq!(status("POST", "/schedule", &acme, text.as_bytes()), 200);
        assert_eq!(status("POST", "/schedule", &acme, text.as_bytes()), 429);
        assert_eq!(status("POST", "/schedule", &[], b"net x\nfoo bar"), 400);

        let metrics = c.request("GET", "/metrics", b"").expect("metrics");
        let value = fcpn_serve::json::parse(&metrics.body).expect("metrics is valid JSON");
        assert_eq!(value.get("in_flight").unwrap().as_u64(), Some(0));
        let tenants = value.get("tenants").unwrap().as_obj().unwrap();
        assert_eq!(tenants.len(), 2, "acme and the default tenant");
        for (name, tenant) in tenants {
            assert_eq!(
                tenant.get("in_flight").unwrap().as_u64(),
                Some(0),
                "tenant {name} (reactor={reactor})"
            );
        }
        let seen: Vec<Option<u64>> = [
            "requests_total",
            "responses_ok",
            "responses_client_error",
            "responses_server_error",
        ]
        .iter()
        .map(|key| value.get(key).unwrap().as_u64())
        .collect();
        // The `/metrics` request counts itself, but its response is not counted yet.
        assert_eq!(
            seen,
            [Some(5), Some(2), Some(2), Some(0)],
            "reactor={reactor}"
        );
        counters.lock().unwrap().push(seen);
        handle.shutdown();
    });
    let counters = counters.into_inner().unwrap();
    assert!(
        counters.windows(2).all(|pair| pair[0] == pair[1]),
        "{counters:?}"
    );
}

#[test]
fn pipelined_requests_in_one_write_are_all_answered() {
    // Two probes around a `POST /schedule` with a body, all in a single write: each
    // front end's parser buffers the bytes past one request and must answer every
    // request in order without waiting for more socket readability.
    use std::io::{Read, Write};
    let net = gallery::figure4();
    let expected = expected_schedule_body(&net);
    let text = to_text(&net);
    for_each_front_end(|reactor| {
        let handle = spawn_on(reactor, ServerConfig::default());
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let probe = "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let schedule = format!(
            "POST /schedule HTTP/1.1\r\nContent-Length: {}\r\n\r\n{text}",
            text.len()
        );
        stream
            .write_all(format!("{probe}{schedule}{probe}").as_bytes())
            .unwrap();
        stream.flush().unwrap();
        // The last response is the second probe's, so its body ends the stream.
        let ok = "{\"status\":\"ok\"}";
        let mut seen = String::new();
        let mut buf = [0u8; 4096];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.matches("HTTP/1.1 200 OK").count() < 3 || !seen.ends_with(ok) {
            assert!(
                std::time::Instant::now() < deadline,
                "pipelined responses incomplete (reactor={reactor}): {seen:?}"
            );
            let n = stream.read(&mut buf).expect("read pipelined responses");
            assert!(
                n > 0,
                "server closed before answering all pipelined requests (reactor={reactor})"
            );
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        let first_probe = seen.find(ok).expect("first probe answered");
        assert!(
            seen[first_probe..].contains(&expected),
            "schedule body missing or out of order (reactor={reactor}): {seen:?}"
        );
        handle.shutdown();
    });
}

// ——— Reactor-only mechanics ————————————————————————————————————————————————

#[cfg(target_os = "linux")]
mod reactor_only {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn idle_connection_is_disconnected_at_the_idle_timeout() {
        let handle = spawn_on(
            true,
            ServerConfig {
                idle_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        );
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 16];
        // Never send a byte: the reactor must close us at the idle deadline, well
        // before the 5s read timeout.
        match stream.read(&mut buf) {
            Ok(0) => {}
            Err(e)
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("idle connection was not disconnected: {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "disconnect came from the read timeout, not the idle deadline"
        );
        let mut c = client(&handle);
        assert!(metrics_u64(&mut c, "idle_timeouts") >= 1);
        handle.shutdown();
    }

    #[test]
    fn mid_body_disconnect_frees_the_connection_slot() {
        let handle = spawn_on(true, ServerConfig::default());
        let addr = handle.addr().to_string();
        {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .write_all(b"POST /schedule HTTP/1.1\r\nContent-Length: 4096\r\n\r\nhalf")
                .unwrap();
            stream.flush().unwrap();
            // Give the reactor a beat to register + read the partial body.
            std::thread::sleep(Duration::from_millis(100));
        } // dropped mid-body

        // The gauge must come back down to just our metrics connection: the aborted
        // connection's slot was freed on EOF, not leaked until some timeout.
        let mut c = client(&handle);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let open = metrics_u64(&mut c, "open_connections");
            if open == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "open_connections stuck at {open}, mid-body slot never freed"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.shutdown();
    }

    #[test]
    fn accept_shed_past_max_connections_is_a_full_503() {
        // max_connections=1: the metrics client takes the only slot, so the next
        // connection must be shed at accept with the complete overload contract —
        // status 503, Retry-After, JSON error body — not a bare RST.
        let handle = spawn_on(
            true,
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        );
        let holder = client(&handle);
        let mut shed = Client::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        let response = shed
            .request("GET", "/healthz", b"")
            .expect("shed connection still gets a parseable response");
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert!(response.body.contains("\"error\""));
        drop(holder);
        handle.shutdown();
    }

    #[test]
    fn fanout_load_reports_per_tenant_quantiles() {
        let handle = spawn_on(
            true,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        let spec = fcpn_serve::FanoutSpec {
            connections: 32,
            idle_connections: 64,
            requests_per_connection: 4,
            target: "/schedule".into(),
            nets: vec![("figure4".into(), to_text(&gallery::figure4()))],
            tenants: vec!["acme".into(), "globex".into()],
            deadline: Duration::from_secs(60),
        };
        let report = fcpn_serve::load::run_fanout(&handle.addr().to_string(), &spec)
            .expect("fanout run completes");
        assert_eq!(report.requests, 128);
        assert_eq!(
            report.ok, 128,
            "errors={} rejected={} rate_limited={}",
            report.errors, report.rejected, report.rate_limited
        );
        assert!(report.p95_us >= report.p50_us);
        assert_eq!(report.per_tenant.len(), 2);
        assert_eq!(report.per_tenant[0].tenant, "acme");
        assert_eq!(report.per_tenant[1].tenant, "globex");
        assert_eq!(
            report.per_tenant.iter().map(|t| t.requests).sum::<usize>(),
            128
        );
        handle.shutdown();
    }
}
