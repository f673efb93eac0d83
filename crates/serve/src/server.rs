//! The daemon: front-end selection, shared request core, graceful shutdown.
//!
//! ## Two front ends, one core
//!
//! The daemon has two interchangeable connection front ends over one shared
//! [`Core`] (config + metrics + cache + governors + lifecycle flags). The front ends
//! own only socket I/O; the per-request protocol is the core's, and both follow it:
//!
//! 1. [`Core::admit`] counts a parsed request and either answers it at once (the
//!    `/healthz` and `/metrics` probes, a tenant's `429`) or admits it under its
//!    tenant, whose key [`Core::tenant_key`] derives from the request;
//! 2. [`Core::run`] runs an admitted request on a worker: the `in_flight` gauge, the
//!    API handlers behind a panic shield, the tenant release, the status count and the
//!    `X-Fcpn-Elapsed-Us` header (answered-at-once requests get the last two as well);
//! 3. [`Core::closes_after`] is the keep-alive rule;
//! 4. [`Core::count_shed`] counts a connection or request shed for saturation or
//!    drain, and [`Core::malformed`] answers bytes that did not parse as a request.
//!
//! Both parse requests with the one [`IncrementalParser`], one per connection. The
//! front ends differ only in how sockets reach that protocol:
//!
//! - **Reactor** (`config.reactor`, the default on Linux): a single epoll thread
//!   drives non-blocking per-connection state machines, answers probes and refusals
//!   itself and hands only admitted requests to the CPU worker pool over a bounded
//!   queue — a slow or idle client costs a few kilobytes of buffer, never a thread.
//!   See [`crate::reactor`].
//! - **Threaded** (the fallback, and the only option off Linux): one accept thread
//!   owns the [`TcpListener`]; accepted connections are pushed into a bounded FIFO
//!   guarded by a mutex + condvar, and a fixed pool of worker threads pops
//!   connections and serves them request-by-request, feeding blocking reads into the
//!   connection's parser.
//!
//! **Backpressure is immediate and explicit** on both paths: past the bounded
//! queue (connections for the threaded path, parsed requests for the reactor) the
//! daemon answers `503 Service Unavailable` with a `Retry-After` in microseconds
//! instead of stacking latency. On top of that sits per-tenant admission control
//! (token-bucket rate + in-flight quota keyed by the `X-Fcpn-Tenant` header,
//! `429 Too Many Requests` on exhaustion — see [`crate::tenant`]), disabled by
//! default and switched on with a non-zero tenant rate.
//!
//! Per-request CPU is bounded by the handler guards (state budgets, allocation
//! budgets, deadlines — see [`crate::handlers`]); per-request memory by the HTTP
//! limits; worker loss by the panic shield around each request (a panicking
//! handler answers `500`, never takes down the worker).

use crate::cache::ResultCache;
use crate::handlers::{self, HandlerCtx, MemGovernor, RequestLimits};
use crate::http::{self, HttpError, HttpLimits, IncrementalParser, Request, Response};
use crate::metrics::{Metrics, RuntimeStats};
use crate::tenant::{Admission, TenantGovernor, TenantPolicy};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the daemon is configured with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address is reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Use the event-driven epoll front end (Linux only; silently falls back to the
    /// threaded front end elsewhere). Defaults to `true` on Linux.
    pub reactor: bool,
    /// Worker thread count.
    pub workers: usize,
    /// Bounded queue capacity: pending connections (threaded) or parsed-but-not-yet-
    /// executing requests (reactor) beyond it are answered `503`.
    pub queue_capacity: usize,
    /// Reactor only: most connections held open at once; accepts beyond it are shed
    /// with `503` at accept time.
    pub max_connections: usize,
    /// Reactor only: keep-alive connections idle (no partial request buffered) longer
    /// than this are closed. The threaded path's idle bound is `read_timeout`.
    pub idle_timeout: Duration,
    /// Per-tenant admission policy (token-bucket rate, burst, in-flight quota).
    /// Metering is off while `tenant.rate == 0.0` (the default).
    pub tenant: TenantPolicy,
    /// Total result-cache entries across shards.
    pub cache_entries: usize,
    /// Result-cache shard count (mutex granularity).
    pub cache_shards: usize,
    /// Total result-cache byte budget across shards (bodies + fixed per-entry
    /// overhead); least-recently-used entries are evicted past it.
    pub cache_bytes: usize,
    /// Directory for the crash-safe persistent cache logs (one per shard). `None`
    /// keeps the cache purely in memory. The directory is created if absent; intact
    /// entries from previous runs warm the cache at spawn, torn or corrupt log tails
    /// are truncated (see the `persist_*` metrics).
    pub cache_dir: Option<PathBuf>,
    /// Socket read timeout: bounds each blocking `read` and therefore the keep-alive
    /// idle wait (threaded path).
    pub read_timeout: Duration,
    /// Total wall-clock budget for reading one request (head + body). This is the
    /// slow-loris bound: a client dripping bytes still loses its worker (threaded) or
    /// connection slot (reactor) when this elapses after the first byte.
    pub request_read_deadline: Duration,
    /// Socket write timeout (threaded path).
    pub write_timeout: Duration,
    /// Total wall-clock budget for writing one response. This is the write-side
    /// slow-loris bound: a peer draining its receive window a byte at a time loses
    /// the connection when this elapses.
    pub response_write_deadline: Duration,
    /// How long [`ServerHandle::drain`] waits for in-flight requests before forcing
    /// shutdown anyway.
    pub drain_grace: Duration,
    /// Most requests served on one keep-alive connection before it is closed.
    pub max_requests_per_connection: usize,
    /// HTTP parsing limits (head/header/body sizes).
    pub http: HttpLimits,
    /// Caps for per-request options.
    pub limits: RequestLimits,
    /// Process-wide engine-allocation byte pool (`--mem-budget`). When set, every
    /// request's effective memory budget is reserved against this pool at admission
    /// and requests that cannot be covered are shed with `503` + `Retry-After`;
    /// unbudgeted requests are given `limits.default_memory_budget_bytes` (armed
    /// automatically when absent) so nothing runs unaccounted. `None` (the default)
    /// disables global memory admission control.
    pub mem_budget_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".into(),
            reactor: cfg!(target_os = "linux"),
            workers: 8,
            queue_capacity: 64,
            max_connections: 10_240,
            idle_timeout: Duration::from_secs(5),
            tenant: TenantPolicy::default(),
            cache_entries: 4096,
            cache_shards: 16,
            cache_bytes: 64 << 20,
            cache_dir: None,
            read_timeout: Duration::from_secs(5),
            request_read_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            response_write_deadline: Duration::from_secs(10),
            drain_grace: Duration::from_secs(5),
            max_requests_per_connection: 4096,
            http: HttpLimits::default(),
            limits: RequestLimits::default(),
            mem_budget_bytes: None,
        }
    }
}

/// Everything both front ends share: configuration, counters, the response cache,
/// the tenant and memory governors, the lifecycle flags — and the per-request
/// protocol (see the module docs).
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Metrics,
    pub(crate) cache: ResultCache,
    pub(crate) tenants: TenantGovernor,
    /// The process memory governor (`--mem-budget`); `None` runs without global
    /// memory admission control.
    pub(crate) governor: Option<MemGovernor>,
    /// Which front end is running (`"reactor"` / `"threaded"`), for `/metrics`.
    pub(crate) front_end: &'static str,
    pub(crate) shutdown: AtomicBool,
    /// Set by [`ServerHandle::drain`]: new connections are refused with `503`,
    /// in-flight requests run to completion (bounded by their deadlines), keep-alive
    /// connections are closed after the response in flight.
    pub(crate) draining: AtomicBool,
}

/// What [`Core::admit`] decided for one parsed request.
pub(crate) enum Admitted {
    /// Answered already (a probe, or a tenant's `429`), counted and stamped: write it.
    Answer(Response),
    /// Admitted under its tenant: hand the request to [`Core::run`].
    Run,
}

impl Core {
    fn new(mut config: ServerConfig, front_end: &'static str) -> io::Result<Core> {
        // With a process budget armed, every request must be accountable to it: give
        // unbudgeted requests a default per-request budget (capped by both the pool
        // and the per-request maximum) unless the operator already chose one.
        let governor = config.mem_budget_bytes.map(MemGovernor::new);
        if let Some(pool) = config.mem_budget_bytes {
            config
                .limits
                .default_memory_budget_bytes
                .get_or_insert(pool.min(config.limits.max_memory_budget_bytes));
        }
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::with_persistence(
                config.cache_shards,
                config.cache_entries,
                config.cache_bytes,
                dir,
            )?,
            None => ResultCache::with_limits(
                config.cache_shards,
                config.cache_entries,
                config.cache_bytes,
            ),
        };
        let metrics = Metrics::new();
        let recovery = cache.recovery_stats();
        metrics
            .persist_recovered_entries
            .store(recovery.recovered_entries, Ordering::Relaxed);
        metrics
            .persist_torn_tail_truncations
            .store(recovery.torn_tail_truncations, Ordering::Relaxed);
        Ok(Core {
            tenants: TenantGovernor::new(config.tenant),
            governor,
            metrics,
            cache,
            front_end,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            config,
        })
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The shed response used by every overload path (accept-time saturation, full
    /// dispatch queue, drain refusals) — JSON body + `Retry-After`, consistent with
    /// handler errors.
    pub(crate) fn overload_response() -> Response {
        Response::error(503, "server saturated; retry later").with_header("Retry-After", "1")
    }

    /// The first step for every parsed request, on the thread that parsed it: counts
    /// the request, answers the `/healthz` and `/metrics` probes, and runs per-tenant
    /// admission for everything else. Probes are exempt from tenant metering: rate
    /// limiting a health check starves the monitoring that would detect the outage.
    /// `queue_depth` is read only to render `/metrics`.
    pub(crate) fn admit(&self, request: &Request, queue_depth: impl FnOnce() -> usize) -> Admitted {
        let started = Instant::now();
        self.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let answer = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                crate::json::Json::obj([("status", crate::json::Json::from("ok"))]).render(),
            ),
            ("GET", "/metrics") => Response::json(
                200,
                self.metrics.render(RuntimeStats {
                    front_end: self.front_end,
                    cache_hits: self.cache.hits(),
                    cache_misses: self.cache.misses(),
                    cache_entries: self.cache.len(),
                    cache_evictions: self.cache.evictions(),
                    cache_bytes: self.cache.bytes(),
                    mem_bytes_in_use: self.governor.as_ref().map_or(0, MemGovernor::bytes_in_use),
                    mem_budget_bytes: self.governor.as_ref().map_or(0, MemGovernor::limit_bytes),
                    queue_depth: queue_depth(),
                    queue_capacity: self.config.queue_capacity,
                    workers: self.config.workers,
                    tenants: self.tenants.render_json(),
                }),
            ),
            _ => match self.tenants.admit(Core::tenant_key(request)) {
                Admission::Admitted => return Admitted::Run,
                Admission::RateLimited { retry_after_s } => {
                    self.metrics
                        .rejected_rate_limited
                        .fetch_add(1, Ordering::Relaxed);
                    Response::error(429, "tenant rate limit exceeded; retry later")
                        .with_header("Retry-After", &retry_after_s.to_string())
                }
                Admission::QuotaExceeded => {
                    self.metrics.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    Response::error(429, "tenant in-flight quota exceeded; retry later")
                        .with_header("Retry-After", "1")
                }
            },
        };
        Admitted::Answer(self.finish(answer, started))
    }

    /// The tenant bucket `request` is metered under: its normalised `X-Fcpn-Tenant`
    /// header. [`Core::admit`] charges this bucket, and whoever finishes or sheds the
    /// admitted request releases it.
    pub(crate) fn tenant_key(request: &Request) -> &str {
        TenantGovernor::tenant_key(request.header("x-fcpn-tenant"))
    }

    /// Runs an admitted request on the calling worker: the `in_flight` gauge, the API
    /// handlers, the tenant release, the status count and `X-Fcpn-Elapsed-Us`. Handler
    /// panics (there should be none: the pipeline returns typed errors — but the daemon
    /// must outlive a bug) become `500`s.
    pub(crate) fn run(&self, request: &Request) -> Response {
        let started = Instant::now();
        self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let ctx = HandlerCtx {
            limits: &self.config.limits,
            cache: &self.cache,
            metrics: &self.metrics,
            governor: self.governor.as_ref(),
        };
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handlers::handle(&ctx, request)
        }))
        .unwrap_or_else(|_| Response::error(500, "internal error while handling the request"));
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.tenants.release(Core::tenant_key(request));
        self.finish(response, started)
    }

    /// Counts the response to a parsed request by status class and stamps how long the
    /// daemon took over it.
    fn finish(&self, response: Response, started: Instant) -> Response {
        self.metrics.count_response(response.status);
        response.with_header(
            "X-Fcpn-Elapsed-Us",
            &started.elapsed().as_micros().to_string(),
        )
    }

    /// The keep-alive rule: whether the connection closes after the response to its
    /// `served`-th request (counted from 0).
    pub(crate) fn closes_after(&self, wants_close: bool, served: usize) -> bool {
        wants_close
            || served + 1 >= self.config.max_requests_per_connection
            || self.shutting_down()
            || self.is_draining()
    }

    /// The answer to bytes that did not parse as a request, counted by status class.
    /// The connection closes after it: the parser cannot resynchronise.
    pub(crate) fn malformed(&self, status: u16, message: &str) -> Response {
        self.metrics.count_response(status);
        Response::error(status, message)
    }

    /// Counts one connection or request shed because the daemon is saturated or
    /// draining; the caller writes [`Core::overload_response`].
    pub(crate) fn count_shed(&self) {
        self.metrics
            .rejected_saturated
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.count_response(503);
    }
}

/// State shared by the threaded accept thread and its workers.
#[derive(Debug)]
struct ThreadedShared {
    core: Arc<Core>,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ThreadedShared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
        match self.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The running front end behind a [`ServerHandle`].
#[derive(Debug)]
enum Front {
    Threaded {
        shared: Arc<ThreadedShared>,
        accept_thread: Option<JoinHandle<()>>,
        worker_threads: Vec<JoinHandle<()>>,
    },
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReactorHandle),
}

/// A running daemon: its bound address and the handles needed to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    front: Front,
}

/// Builder entry point for the daemon.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the configured front end (epoll reactor or
    /// threaded accept loop) plus the CPU worker pool; returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a filesystem failure while opening the persistent
    /// cache directory (damaged log *contents* are recovered from, never an error), or
    /// an epoll setup failure in reactor mode.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let use_reactor = config.reactor && cfg!(target_os = "linux");
        let front_end = if use_reactor { "reactor" } else { "threaded" };
        let core = Arc::new(Core::new(config, front_end)?);

        #[cfg(target_os = "linux")]
        if use_reactor {
            let handle = crate::reactor::ReactorHandle::spawn(Arc::clone(&core), listener)?;
            return Ok(ServerHandle {
                addr,
                core,
                front: Front::Reactor(handle),
            });
        }

        let workers = core.config.workers.max(1);
        let shared = Arc::new(ThreadedShared {
            queue: Mutex::new(VecDeque::with_capacity(core.config.queue_capacity)),
            ready: Condvar::new(),
            core: Arc::clone(&core),
        });
        let worker_threads = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fcpn-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fcpn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };

        Ok(ServerHandle {
            addr,
            core,
            front: Front::Threaded {
                shared,
                accept_thread: Some(accept_thread),
                worker_threads,
            },
        })
    }
}

impl ServerHandle {
    /// The address the daemon is actually bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (i.e. until another thread flips the shutdown
    /// flag — the front end runs until told to stop).
    pub fn join(self) {
        match self.front {
            Front::Threaded {
                accept_thread,
                worker_threads,
                ..
            } => {
                if let Some(accept) = accept_thread {
                    let _ = accept.join();
                }
                for worker in worker_threads {
                    let _ = worker.join();
                }
            }
            #[cfg(target_os = "linux")]
            Front::Reactor(handle) => handle.join(),
        }
    }

    /// Gracefully drains the daemon, then stops it.
    ///
    /// From the moment drain starts, new connections are refused with `503` and
    /// keep-alive connections close after the response in flight. Requests already
    /// being handled run to completion — each is bounded by its own deadline — waited
    /// for up to `config.drain_grace`. The persistent cache (if any) is fsynced before
    /// the threads are stopped, so a drained daemon restarts with a warm, intact
    /// cache. Blocks until all threads have joined.
    pub fn drain(self) {
        self.core.draining.store(true, Ordering::SeqCst);
        match self.front {
            Front::Threaded { ref shared, .. } => {
                let grace_until = Instant::now() + self.core.config.drain_grace;
                while Instant::now() < grace_until {
                    let in_flight = self.core.metrics.in_flight.load(Ordering::SeqCst);
                    let queued = shared.lock_queue().len();
                    if in_flight == 0 && queued == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = self.core.cache.flush();
                self.shutdown();
            }
            #[cfg(target_os = "linux")]
            Front::Reactor(handle) => {
                handle.drain();
                let _ = self.core.cache.flush();
            }
        }
    }

    /// Stops the daemon: no new connections are accepted, queued work is dropped,
    /// workers finish their current request and exit. Blocks until all threads have
    /// joined.
    pub fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        match self.front {
            Front::Threaded {
                shared,
                mut accept_thread,
                mut worker_threads,
            } => {
                // Unblock the accept thread with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
                shared.ready.notify_all();
                if let Some(accept) = accept_thread.take() {
                    let _ = accept.join();
                }
                // Workers may be parked in the condvar or blocked in a socket read
                // (bounded by the read timeout); keep nudging until each exits.
                shared.lock_queue().clear();
                shared.ready.notify_all();
                for worker in worker_threads.drain(..) {
                    let _ = worker.join();
                }
            }
            #[cfg(target_os = "linux")]
            Front::Reactor(handle) => handle.shutdown(),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &ThreadedShared) {
    let core = &shared.core;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if core.shutting_down() {
                    return;
                }
                // Persistent accept errors (EMFILE under fd pressure, say) would
                // otherwise hard-spin this thread; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if core.shutting_down() {
            return;
        }
        core.metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let mut queue = shared.lock_queue();
        // A draining daemon sheds new work the same way a saturated one does:
        // immediately, explicitly, and without tying up a worker.
        if core.is_draining() || queue.len() >= core.config.queue_capacity {
            drop(queue);
            reject_saturated(stream, core);
        } else {
            queue.push_back(stream);
            drop(queue);
            shared.ready.notify_one();
        }
    }
}

/// Answers the shed `503` on the accept thread itself — the whole point of the bounded
/// queue is that saturation costs one small write, not a worker.
fn reject_saturated(mut stream: TcpStream, core: &Core) {
    core.count_shed();
    let _ = stream.set_write_timeout(Some(core.config.write_timeout));
    let _ = http::write_response(&mut stream, &Core::overload_response(), true);
}

fn worker_loop(shared: &ThreadedShared) {
    loop {
        let stream = {
            let mut queue = shared.lock_queue();
            loop {
                if shared.core.shutting_down() {
                    return;
                }
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                queue = match shared.ready.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        serve_connection(stream, shared);
    }
}

fn serve_connection(mut stream: TcpStream, shared: &ThreadedShared) {
    let core = &shared.core;
    let _ = stream.set_read_timeout(Some(core.config.read_timeout));
    let _ = stream.set_write_timeout(Some(core.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut parser = IncrementalParser::new(core.config.http);
    for served in 0.. {
        if core.shutting_down() {
            return;
        }
        let deadline = Instant::now() + core.config.request_read_deadline;
        let request = match parser.next_request(&mut stream, deadline) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(HttpError { status, message }) => {
                let response = core.malformed(status, &message);
                let _ = http::write_response(&mut stream, &response, true);
                return;
            }
        };
        let response = match core.admit(&request, || shared.lock_queue().len()) {
            Admitted::Answer(response) => response,
            Admitted::Run => core.run(&request),
        };
        let close = core.closes_after(request.wants_close(), served);
        let write_deadline = Instant::now() + core.config.response_write_deadline;
        if http::write_response_deadline(&mut stream, &response, close, Some(write_deadline))
            .is_err()
            || close
        {
            return;
        }
    }
}
