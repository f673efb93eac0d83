//! # fcpn-serve — a concurrent scheduler daemon for Free-Choice Petri Nets
//!
//! The service layer of the reproduction of *Synthesis of Embedded Software Using
//! Free-Choice Petri Nets* (DAC 1999): a long-running daemon that serves synthesis
//! requests over HTTP/1.1 on a plain [`std::net::TcpListener`] — the workspace is
//! offline, so the protocol layer, the JSON layer and the client are all
//! hand-rolled, following the `crates/shims` precedent of zero external dependencies.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Body | Answer |
//! |---|---|---|---|
//! | `/schedule` | POST | net (text format) | quasi-static schedule or diagnosis |
//! | `/analyze` | POST | net (text format) | reachability / deadlock / liveness / boundedness |
//! | `/codegen` | POST | net (text format) | synthesised C (or Rust) + code metrics |
//! | `/synthesize` | POST | labelled transition system (LTS text format) | a net realising it, or a separation witness |
//! | `/healthz` | GET | — | liveness probe |
//! | `/metrics` | GET | — | request/cache/queue counters |
//!
//! Per-request options ride in the query string (`?threads=2&max_markings=50000&…`),
//! clamped against server-side caps and mapped onto the engine's
//! [`ExploreOptions`](fcpn_petri::statespace::ExploreOptions) /
//! [`QssOptions`](fcpn_qss::QssOptions) knobs. Responses are deterministic JSON, which
//! makes them cacheable whole: a mutex-sharded cache keyed by the 128-bit
//! [`net_fingerprint`](fcpn_petri::net_fingerprint) (folded with endpoint + options)
//! serves repeat queries without touching the scheduler. Saturation is explicit — past
//! the bounded accept queue the daemon answers `503` immediately instead of stacking
//! latency.
//!
//! ## Quick start
//!
//! ```
//! use fcpn_serve::{Client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let handle = Server::spawn(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })?;
//! let net = fcpn_petri::io::to_text(&fcpn_petri::gallery::figure4());
//! let mut client = Client::connect(&handle.addr().to_string(), Duration::from_secs(5))?;
//! let response = client.request("POST", "/schedule", net.as_bytes())?;
//! assert_eq!(response.status, 200);
//! assert!(response.body.contains("\"schedulable\":true"));
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Both connection front ends (the epoll reactor and the threaded fallback) parse
//! requests with the one [`IncrementalParser`] and follow one per-request protocol,
//! so the wire contract does not depend on which one is serving.
//!
//! The `fcpn-served` binary (in the workspace root) wires this up as a standalone
//! process. The repository benchmark (`perfbench/`, see `BENCHMARK.json`) measures the
//! daemon's throughput, latency quantiles and per-layer costs; `fcpn-bench`'s
//! `serve_load` example is a connection-fanout probe for the reactor.

// `deny` instead of `forbid`: the epoll reactor's syscall shim (`reactor::sys`) is the
// one place allowed to opt back in, with the same minimal-`extern "C"` discipline the
// daemon binary already uses for `signal(2)`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod handlers;
pub mod http;
pub mod json;
pub mod load;
mod metrics;
pub mod persist;
#[cfg(target_os = "linux")]
pub mod reactor;
mod server;
pub mod tenant;

pub use cache::{CachedResponse, ResultCache};
pub use handlers::{schedule_response_body, HandlerCtx, MemGovernor, RequestLimits};
pub use http::{HttpLimits, IncrementalParser, Request, Response};
pub use load::{Backoff, Client, ClientResponse, FanoutReport, FanoutSpec};
pub use metrics::{Metrics, RuntimeStats};
pub use persist::RecoveryStats;
pub use server::{Server, ServerConfig, ServerHandle};
pub use tenant::{Admission, TenantGovernor, TenantPolicy};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServerConfig>();
        assert_send_sync::<ResultCache>();
        assert_send_sync::<Metrics>();
        assert_send_sync::<FanoutSpec>();
    }
}
