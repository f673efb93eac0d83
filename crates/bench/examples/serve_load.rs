//! `serve_load` — a connection-fanout probe for the `fcpn-serve` reactor.
//!
//! Drives N active connections plus `--idle` parked spectator sockets from one thread
//! over epoll (Linux), replaying figures 3a and 5 against `/schedule`, and reports
//! latency quantiles, throughput and shed (503) / rate-limited (429) counts.
//! `--tenants` assigns `X-Fcpn-Tenant` headers round-robin, so the report breaks
//! latency quantiles down per tenant. Daemon throughput and latency are benchmarked by
//! `perfbench/` (see `BENCHMARK.json`); this probe checks that the reactor carries a
//! connection flood.
//!
//! ```text
//! # against an in-process daemon (spawned on an ephemeral port):
//! cargo run --release -p fcpn-bench --example serve_load
//!
//! # against an already-running daemon:
//! cargo run --release -p fcpn-bench --example serve_load -- --addr 127.0.0.1:7411 \
//!     --fanout 64 --idle 512 --requests 8 --tenants a,b
//!
//! # knobs:
//! serve_load [--addr HOST:PORT] [--fanout N] [--idle N] [--requests N] [--tenants a,b,c]
//! ```
//!
//! Exits 1 when no request succeeded.

use fcpn_petri::io::to_text;
use fcpn_serve::FanoutSpec;

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--addr HOST:PORT] [--fanout N] [--idle N] [--requests N] \
         [--tenants a,b,c]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = FanoutSpec {
        requests_per_connection: 16,
        target: "/schedule".into(),
        nets: vec![
            ("figure3a".into(), to_text(&fcpn_petri::gallery::figure3a())),
            ("figure5".into(), to_text(&fcpn_petri::gallery::figure5())),
        ],
        deadline: std::time::Duration::from_secs(300),
        ..FanoutSpec::default()
    };
    let mut addr: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> String { args.get(i + 1).cloned().unwrap_or_else(|| usage()) };
        let number = |i: usize| -> usize { value(i).parse().unwrap_or_else(|_| usage()) };
        match args[i].as_str() {
            "--addr" => addr = Some(value(i)),
            "--fanout" => spec.connections = number(i).max(1),
            "--idle" => spec.idle_connections = number(i),
            "--requests" => spec.requests_per_connection = number(i).max(1),
            "--tenants" => {
                spec.tenants = value(i)
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 2;
    }

    #[cfg(target_os = "linux")]
    {
        let _ = fcpn_serve::reactor::raise_nofile_limit(
            (spec.connections + spec.idle_connections) as u64 + 512,
        );
    }
    let handle;
    let addr = match addr {
        Some(addr) => addr,
        None => {
            handle = fcpn_serve::Server::spawn(fcpn_serve::ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..fcpn_serve::ServerConfig::default()
            })
            .expect("spawn in-process daemon");
            let addr = handle.addr().to_string();
            eprintln!("spawned in-process daemon on {addr}");
            addr
        }
    };
    eprintln!(
        "fanout: {} active + {} idle connections x {} requests...",
        spec.connections, spec.idle_connections, spec.requests_per_connection
    );
    let report = fcpn_serve::load::run_fanout(&addr, &spec).expect("fanout run");
    println!(
        "fanout: {} requests, {} ok, {} rejected(503), {} limited(429), {} errors",
        report.requests, report.ok, report.rejected, report.rate_limited, report.errors
    );
    println!(
        "        p50 {:.0}us  p95 {:.0}us  max {:.0}us  wall {:.0}ms  {:.0} req/s",
        report.p50_us, report.p95_us, report.max_us, report.wall_ms, report.throughput_rps
    );
    for tenant in &report.per_tenant {
        println!(
            "        tenant {:<12} {} requests  p50 {:.0}us  p95 {:.0}us",
            tenant.tenant, tenant.requests, tenant.p50_us, tenant.p95_us
        );
    }
    if report.ok == 0 {
        std::process::exit(1);
    }
}
