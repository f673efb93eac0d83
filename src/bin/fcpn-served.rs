//! `fcpn-served` — the standalone scheduler daemon.
//!
//! Binds a TCP address and serves the `fcpn-serve` endpoints until the process is
//! told to stop. On Unix, `SIGTERM`/`SIGINT` trigger a **graceful drain**: the daemon
//! stops accepting new connections (refusing them with `503`), lets in-flight
//! requests finish (each bounded by its own deadline, waited for up to the drain
//! grace period), fsyncs the persistent cache if one is configured, and exits `0`. A
//! `SIGKILL` is the crash path — the cache's log-structured persistence recovers from
//! a torn tail on the next start.
//!
//! ```text
//! fcpn-served [--addr 127.0.0.1:7411] [--workers N] [--queue N]
//!             [--reactor | --threaded] [--max-conns N] [--idle-timeout-ms N]
//!             [--tenant-rate R] [--tenant-burst B] [--tenant-max-inflight N]
//!             [--cache-entries N] [--cache-bytes N] [--cache-dir PATH]
//!             [--deadline-ms N] [--read-timeout-ms N] [--read-deadline-ms N]
//!             [--mem-budget BYTES]
//! ```
//!
//! On Linux the daemon defaults to the **event-driven reactor** front end (one epoll
//! thread holding every connection, CPU work on the worker pool); `--threaded` selects
//! the blocking thread-per-connection path, which is also the automatic fallback
//! elsewhere. `--tenant-rate` enables per-tenant admission control keyed by the
//! `X-Fcpn-Tenant` header: sustained requests/second per tenant, `--tenant-burst`
//! bucket depth, `--tenant-max-inflight` concurrent in-flight cap (429 + `Retry-After`
//! past either).
//!
//! With `--cache-dir`, the result cache persists across restarts: one append-only,
//! checksummed log per shard under `PATH` (created if absent), warm-loaded at startup
//! with torn or corrupt tails truncated (counted in the `persist_*` metrics).
//!
//! `--mem-budget BYTES` arms the **process memory governor**: every request's
//! engine-allocation byte budget (the `memory_budget_bytes` query parameter, or the
//! armed default) is reserved against one process-wide pool at admission. Requests
//! the pool cannot cover are shed with `503` + `Retry-After` (and the result cache is
//! halved for headroom) instead of growing the heap — the daemon degrades, it never
//! dies. `/metrics` reports `mem_bytes_in_use`, `mem_budget_bytes`, `rejected_memory`
//! and `resource_exhausted`.

use fcpn_serve::{Server, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: fcpn-served [--addr HOST:PORT] [--workers N] [--queue N] \
         [--reactor | --threaded] [--max-conns N] [--idle-timeout-ms N] \
         [--tenant-rate R] [--tenant-burst B] [--tenant-max-inflight N] \
         [--cache-entries N] [--cache-bytes N] [--cache-dir PATH] \
         [--deadline-ms N] [--read-timeout-ms N] [--read-deadline-ms N] \
         [--mem-budget BYTES]"
    );
    std::process::exit(2);
}

/// Process-wide "a termination signal arrived" flag, set from the signal handler.
#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    // Setting a static atomic flag is async-signal-safe; everything else (draining,
    // flushing, printing) happens on the main thread once it observes the flag.
    extern "C" fn on_term(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            let handler = on_term as extern "C" fn(i32) as *const () as usize;
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn main() {
    let mut config = ServerConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        let parse_num = |i: usize| -> u64 { value(i).parse().unwrap_or_else(|_| usage()) };
        let parse_f64 = |i: usize| -> f64 { value(i).parse().unwrap_or_else(|_| usage()) };
        // Valueless front-end switches first (the main match assumes flag + value).
        match args[i].as_str() {
            "--reactor" => {
                config.reactor = true;
                i += 1;
                continue;
            }
            "--threaded" => {
                config.reactor = false;
                i += 1;
                continue;
            }
            _ => {}
        }
        match args[i].as_str() {
            "--addr" => config.addr = value(i).to_string(),
            "--workers" => config.workers = parse_num(i) as usize,
            "--queue" => config.queue_capacity = parse_num(i) as usize,
            "--cache-entries" => config.cache_entries = parse_num(i) as usize,
            "--cache-bytes" => config.cache_bytes = (parse_num(i) as usize).max(1),
            "--cache-dir" => config.cache_dir = Some(value(i).into()),
            "--deadline-ms" => {
                let ms = parse_num(i).max(1);
                config.limits.default_deadline_ms = ms;
                // The per-request clamp works against max_deadline_ms; an operator
                // asking for a longer default must get it, not a silent 30s cap.
                config.limits.max_deadline_ms = config.limits.max_deadline_ms.max(ms);
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_num(i).max(1));
            }
            "--read-deadline-ms" => {
                config.request_read_deadline = Duration::from_millis(parse_num(i).max(1));
            }
            "--max-conns" => config.max_connections = (parse_num(i) as usize).max(1),
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(parse_num(i).max(1));
            }
            "--mem-budget" => config.mem_budget_bytes = Some(parse_num(i).max(1)),
            "--tenant-rate" => config.tenant.rate = parse_f64(i).max(0.0),
            "--tenant-burst" => config.tenant.burst = parse_f64(i).max(1.0),
            "--tenant-max-inflight" => config.tenant.max_in_flight = parse_num(i) as u32,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 2;
    }

    #[cfg(unix)]
    term::install();

    // The reactor front end holds every connection on one thread; make sure the fd
    // limit can actually carry --max-conns (best effort — the accept path sheds
    // gracefully on EMFILE either way).
    #[cfg(target_os = "linux")]
    if config.reactor {
        let _ = fcpn_serve::reactor::raise_nofile_limit(config.max_connections as u64 + 64);
    }

    let use_reactor = config.reactor && cfg!(target_os = "linux");
    let handle = match Server::spawn(config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("fcpn-served: cannot start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    // Machine-greppable readiness line (the CI smoke job waits for it; keep the
    // `listening on <addr>` shape — DaemonProcess parses the address out of it).
    println!(
        "fcpn-served listening on {} ({} front end, {} workers, queue {})",
        handle.addr(),
        if use_reactor { "reactor" } else { "threaded" },
        config.workers,
        config.queue_capacity
    );

    #[cfg(unix)]
    {
        // Serve until a termination signal arrives, then drain: refuse new work,
        // finish what is in flight, flush the persistent cache, exit 0.
        while !term::requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        println!("fcpn-served draining (signal received)");
        handle.drain();
        println!("fcpn-served stopped");
    }
    #[cfg(not(unix))]
    {
        // No signal plumbing off Unix: serve until the process is killed.
        handle.join();
    }
}
