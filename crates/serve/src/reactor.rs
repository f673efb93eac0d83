//! The event-driven front end: a single epoll thread driving non-blocking
//! per-connection state machines, feeding complete requests to a CPU worker pool.
//!
//! ## Why a reactor
//!
//! The threaded front end spends one OS thread per in-flight *connection*, so a few
//! hundred slow or idle clients exhaust the worker pool no matter how fast the
//! scheduling core is. Here one thread owns every socket: connections progress
//! through a small state machine (`Reading → Dispatched → Writing → Reading/closed`)
//! as bytes arrive, and only *complete* requests cross the bounded dispatch queue to
//! the workers. A slow-loris client therefore costs a few KiB of parser buffer and a
//! timer-wheel entry — never a thread — and 10k idle connections are just 10k slab
//! entries.
//!
//! ## Structure
//!
//! - `sys`: the only `unsafe` in the crate — minimal `extern "C"` bindings for
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`, `close(2)` and `setrlimit(2)`, in the
//!   same zero-dependency spirit as the daemon binary's `signal(2)` shim.
//! - Connection slab: `Vec<Option<Conn>>` + free list; the epoll token is the slot
//!   index, and a per-slot generation counter keeps completions for a dead
//!   connection from touching its slot's new tenant. Freed slots are not reused
//!   until the next poll iteration, so stale events in the same batch cannot alias.
//! - Timer wheel: 512 slots × 50 ms (a 25.6 s horizon — longer deadlines clamp to
//!   the horizon and re-schedule on expiry) with lazy deletion: entries are
//!   validated against the connection's current deadline when they fire.
//! - Wakeup: workers push finished responses onto a completion list and write one
//!   byte into a non-blocking socketpair the reactor polls, so responses start
//!   flowing at most one syscall after the handler returns.
//!
//! Interest masks follow the state machine (`EPOLLIN` while reading, `EPOLLOUT`
//! while a write is blocked, nothing while dispatched) — under level-triggered
//! epoll, anything else is a busy loop.

use crate::http::{self, HttpError, IncrementalParser, Request, Response};
use crate::server::{Admitted, Core};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw syscall shim. The crate denies `unsafe_code` everywhere else; this module is
/// the one sanctioned exception, kept to straight-line wrappers with no API surface
/// beyond what the reactor needs.
pub(crate) mod sys {
    #![allow(unsafe_code)]

    use std::io;
    use std::os::unix::io::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    const RLIMIT_NOFILE: i32 = 7;

    /// `struct epoll_event`. The kernel packs this to 12 bytes on x86-64; other
    /// architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL on any kernel ≥ 2.6.9 but must be
            // non-null for portability.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits up to `timeout_ms` and fills `events`; returns the ready count.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }

    /// Best-effort raise of the soft `RLIMIT_NOFILE` toward `want` (capped by the
    /// hard limit). Returns the resulting soft limit, or `0` if it could not even be
    /// read — callers treat this as advisory.
    pub fn raise_nofile_limit(want: u64) -> u64 {
        let mut rlim = Rlimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut rlim) } != 0 {
            return 0;
        }
        if rlim.cur >= want {
            return rlim.cur;
        }
        let target = want.min(rlim.max);
        let new = Rlimit {
            cur: target,
            max: rlim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            target
        } else {
            rlim.cur
        }
    }
}

/// Best-effort raise of the process's open-file soft limit (the reactor's headline
/// number is connections, and every connection is an fd). Returns the resulting soft
/// limit.
pub fn raise_nofile_limit(want: u64) -> u64 {
    sys::raise_nofile_limit(want)
}

/// Epoll token for the listening socket.
const LISTENER: u64 = u64::MAX;
/// Epoll token for the worker-completion wakeup pipe.
const WAKEUP: u64 = u64::MAX - 1;
/// Epoll timeout; also the timer-wheel granularity.
const TICK_MS: u64 = 50;
/// Timer-wheel slot count (horizon = `WHEEL_SLOTS × TICK_MS` = 25.6 s).
const WHEEL_SLOTS: usize = 512;

/// A parsed request on its way to the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    request: Request,
    /// Tenant bucket [`Core::run`] releases when the request finishes.
    tenant: String,
}

/// A finished response on its way back to the reactor.
struct Completion {
    slot: usize,
    generation: u64,
    response: Response,
    wants_close: bool,
}

/// Bounded MPMC queue of parsed requests (reactor → workers).
#[derive(Debug)]
struct DispatchQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("slot", &self.slot).finish()
    }
}

impl DispatchQueue {
    fn new(capacity: usize) -> Self {
        DispatchQueue {
            jobs: Mutex::new(VecDeque::with_capacity(capacity)),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        match self.jobs.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking push; `Err` gives the job back when the queue is full (the
    /// caller sheds with `503`).
    // The large `Err` is the point: the rejected job is handed back whole so the
    // caller can release its tenant slot without cloning anything.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.lock();
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once shutdown is flagged.
    fn pop(&self, core: &Core) -> Option<Job> {
        let mut jobs = self.lock();
        loop {
            if core.shutting_down() {
                return None;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            jobs = match self.ready.wait(jobs) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// State shared between the reactor thread, the workers and the handle.
#[derive(Debug)]
struct ReactorShared {
    core: Arc<Core>,
    queue: DispatchQueue,
    completions: Mutex<Vec<Completion>>,
    /// Write half of the wakeup pair; workers write one byte after pushing a
    /// completion. (`io::Write` is implemented for `&UnixStream`, so no lock is
    /// needed to write.)
    wake_tx: UnixStream,
    /// Deadline set by `drain`: the reactor exits once quiescent or past it.
    drain_deadline: Mutex<Option<Instant>>,
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("slot", &self.slot)
            .finish()
    }
}

impl ReactorShared {
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn push_completion(&self, completion: Completion) {
        match self.completions.lock() {
            Ok(mut guard) => guard.push(completion),
            Err(poisoned) => poisoned.into_inner().push(completion),
        }
        self.wake();
    }

    fn take_completions(&self) -> Vec<Completion> {
        match self.completions.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

/// A running reactor front end: the epoll thread plus its CPU worker pool.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
    reactor_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Spawns the reactor thread and worker pool over an already-bound listener.
    pub(crate) fn spawn(core: Arc<Core>, listener: TcpListener) -> io::Result<ReactorHandle> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        listener.set_nonblocking(true)?;
        let workers = core.config.workers.max(1);
        let shared = Arc::new(ReactorShared {
            queue: DispatchQueue::new(core.config.queue_capacity),
            completions: Mutex::new(Vec::new()),
            wake_tx,
            drain_deadline: Mutex::new(None),
            core,
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
        let reactor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fcpn-serve-reactor".into())
                .spawn(move || {
                    if let Err(err) = reactor_loop(&listener, &wake_rx, &shared) {
                        // An epoll setup/wait failure is unrecoverable for this front
                        // end; flag shutdown so workers exit instead of hanging.
                        shared.core.shutdown.store(true, Ordering::SeqCst);
                        shared.queue.ready.notify_all();
                        eprintln!("fcpn-serve reactor failed: {err}");
                    }
                })
                .expect("spawn reactor thread")
        };

        Ok(ReactorHandle {
            shared,
            reactor_thread: Some(reactor_thread),
            worker_threads,
        })
    }

    fn join_threads(&mut self) {
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
        self.shared.queue.ready.notify_all();
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the reactor stops (another thread must flip the shutdown flag).
    pub(crate) fn join(mut self) {
        self.join_threads();
    }

    /// Immediate stop: open connections are dropped, queued jobs discarded, workers
    /// finish their current request.
    pub(crate) fn shutdown(mut self) {
        self.shared.core.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        self.join_threads();
    }

    /// Graceful stop: refuse new connections, finish in-flight requests and their
    /// response writes (up to `drain_grace`), then stop.
    pub(crate) fn drain(mut self) {
        let grace = self.shared.core.config.drain_grace;
        match self.shared.drain_deadline.lock() {
            Ok(mut guard) => *guard = Some(Instant::now() + grace),
            Err(poisoned) => *poisoned.into_inner() = Some(Instant::now() + grace),
        }
        // `core.draining` was set by the caller (ServerHandle::drain).
        self.shared.core.draining.store(true, Ordering::SeqCst);
        self.shared.wake();
        // The reactor exits on its own once quiescent or past the deadline; workers
        // are then stopped.
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
        self.shared.core.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.ready.notify_all();
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
    }
}

/// CPU worker: pops admitted requests, runs them through [`Core::run`], pushes the
/// response back to the reactor.
fn worker_loop(shared: &ReactorShared) {
    while let Some(job) = shared.queue.pop(&shared.core) {
        let response = shared.core.run(&job.request, &job.tenant);
        shared.push_completion(Completion {
            slot: job.slot,
            generation: job.generation,
            response,
            wants_close: job.request.wants_close(),
        });
    }
}

/// What a connection is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    /// Waiting for (more of) a request; parser owns partial bytes.
    Reading,
    /// A complete request is with the worker pool; nothing to do until its
    /// completion arrives.
    Dispatched,
    /// A serialised response is partially written; waiting for `EPOLLOUT`.
    Writing,
}

/// Which deadline class is armed (decides the timeout counter and semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeadlineKind {
    /// Keep-alive connection with no partial request: idle timeout.
    Idle,
    /// Mid-request read (head or body): slow-loris bound.
    Read,
    /// Mid-response write: write-side slow-loris bound.
    Write,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: IncrementalParser,
    state: ConnState,
    generation: u64,
    /// Events currently registered with epoll for this fd.
    interest: u32,
    deadline: Option<Instant>,
    deadline_kind: DeadlineKind,
    /// When the first byte of the in-progress request arrived.
    request_started: Option<Instant>,
    write_buf: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// Requests completed on this connection (keep-alive budget).
    served: usize,
}

/// Hashed timer wheel: `WHEEL_SLOTS` buckets of `(conn_slot, generation)` entries at
/// `TICK_MS` granularity, with lazy deletion — entries are validated against the
/// connection's live deadline when their bucket comes up, and re-armed if the
/// deadline moved (keep-alive reuse) or lies past the horizon.
struct TimerWheel {
    buckets: Vec<Vec<(usize, u64)>>,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> Self {
        TimerWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_tick: now,
        }
    }

    fn schedule(&mut self, deadline: Instant, conn_slot: usize, generation: u64) {
        let delay = deadline.saturating_duration_since(self.last_tick);
        let ticks = (delay.as_millis() as u64 / TICK_MS + 1).min(WHEEL_SLOTS as u64 - 1) as usize;
        let bucket = (self.cursor + ticks) % WHEEL_SLOTS;
        self.buckets[bucket].push((conn_slot, generation));
    }

    /// Advances to `now`, collecting entries whose bucket has come up.
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        while now.saturating_duration_since(self.last_tick) >= Duration::from_millis(TICK_MS) {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.last_tick += Duration::from_millis(TICK_MS);
            due.append(&mut self.buckets[self.cursor]);
        }
    }
}

/// Everything the reactor loop owns (single-threaded; no locks in here).
struct Reactor<'a> {
    shared: &'a ReactorShared,
    epoll: sys::Epoll,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots freed during the current poll iteration; merged into `free` only at the
    /// end of it so a stale event in the same batch cannot touch a recycled slot.
    freed_this_iter: Vec<usize>,
    wheel: TimerWheel,
    next_generation: u64,
    open: usize,
    /// Pre-serialised shed response (the accept path must never allocate per
    /// rejection under a connection flood).
    overload_bytes: Vec<u8>,
}

fn reactor_loop(
    listener: &TcpListener,
    wake_rx: &UnixStream,
    shared: &ReactorShared,
) -> io::Result<()> {
    let epoll = sys::Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKEUP)?;
    let mut reactor = Reactor {
        shared,
        epoll,
        conns: Vec::new(),
        free: Vec::new(),
        freed_this_iter: Vec::new(),
        wheel: TimerWheel::new(Instant::now()),
        next_generation: 0,
        open: 0,
        overload_bytes: http::serialize_response(&Core::overload_response(), true),
    };
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
    let mut scratch = vec![0u8; 16 * 1024];
    let mut due: Vec<(usize, u64)> = Vec::new();

    loop {
        let core = &shared.core;
        if core.shutting_down() {
            break;
        }
        if core.is_draining() && reactor.drain_complete() {
            break;
        }
        let n = reactor.epoll.wait(&mut events, TICK_MS as i32)?;
        for event in &events[..n] {
            let (token, revents) = (event.data, event.events);
            match token {
                LISTENER => reactor.accept_ready(listener),
                WAKEUP => {
                    let mut rx = wake_rx;
                    while let Ok(n) = rx.read(&mut scratch) {
                        if n == 0 {
                            break;
                        }
                    }
                }
                slot => reactor.conn_event(slot as usize, revents, &mut scratch),
            }
        }
        // Completions are drained every iteration (not only on WAKEUP) so a wake
        // byte racing the poll can never strand a response until the next tick.
        for completion in shared.take_completions() {
            reactor.apply_completion(completion);
        }
        due.clear();
        reactor.wheel.advance(Instant::now(), &mut due);
        for &(slot, generation) in &due {
            reactor.timer_fired(slot, generation);
        }
        let freed: Vec<usize> = reactor.freed_this_iter.drain(..).collect();
        reactor.free.extend(freed);
    }

    // Teardown: drop every connection; epoll and listener close on drop.
    for conn in reactor.conns.iter_mut() {
        *conn = None;
    }
    Ok(())
}

impl Reactor<'_> {
    /// Drain is complete when no connection holds unfinished work and the worker
    /// pipeline is empty — or the grace deadline passed.
    fn drain_complete(&self) -> bool {
        let deadline_passed = match self.shared.drain_deadline.lock() {
            Ok(guard) => guard.is_some_and(|d| Instant::now() >= d),
            Err(poisoned) => poisoned.into_inner().is_some_and(|d| Instant::now() >= d),
        };
        if deadline_passed {
            return true;
        }
        if !self.shared.queue.lock().is_empty() {
            return false;
        }
        if self.shared.core.metrics.in_flight.load(Ordering::SeqCst) > 0 {
            return false;
        }
        // Completions may be parked between the worker and us.
        let completions_empty = match self.shared.completions.lock() {
            Ok(guard) => guard.is_empty(),
            Err(poisoned) => poisoned.into_inner().is_empty(),
        };
        if !completions_empty {
            return false;
        }
        // Half-read requests are abandoned by drain (the client never finished
        // sending them); only dispatched work and unfinished responses count.
        !self
            .conns
            .iter()
            .flatten()
            .any(|c| matches!(c.state, ConnState::Dispatched | ConnState::Writing))
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        let core = Arc::clone(&self.shared.core);
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE-class errors: back off a beat instead of spinning on a
                    // level-triggered listener event we cannot clear.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            };
            core.metrics
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            if core.is_draining() || self.open >= core.config.max_connections {
                core.count_shed();
                // One opportunistic non-blocking write; a peer that cannot take ~150
                // bytes immediately just gets the close. Blocking here would let one
                // hostile peer stall every other connection.
                let _ = stream.set_nonblocking(true);
                let _ = (&stream).write(&self.overload_bytes);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.register(stream);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let core = Arc::clone(&self.shared.core);
        let generation = self.next_generation;
        self.next_generation += 1;
        let now = Instant::now();
        let deadline = now + core.config.idle_timeout;
        let conn = Conn {
            parser: IncrementalParser::new(core.config.http),
            state: ConnState::Reading,
            generation,
            interest: sys::EPOLLIN,
            deadline: Some(deadline),
            deadline_kind: DeadlineKind::Idle,
            request_started: None,
            write_buf: Vec::new(),
            written: 0,
            close_after_write: false,
            served: 0,
            stream,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let fd = self.conns[slot].as_ref().unwrap().stream.as_raw_fd();
        if self.epoll.add(fd, sys::EPOLLIN, slot as u64).is_err() {
            self.conns[slot] = None;
            self.free.push(slot);
            return;
        }
        self.wheel.schedule(deadline, slot, generation);
        self.open += 1;
        core.metrics
            .open_connections
            .store(self.open as u64, Ordering::Relaxed);
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.freed_this_iter.push(slot);
            self.open -= 1;
            self.shared
                .core
                .metrics
                .open_connections
                .store(self.open as u64, Ordering::Relaxed);
        }
    }

    fn conn_event(&mut self, slot: usize, revents: u32, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return; // stale event for an already-closed connection
        };
        if revents & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            // Error or full hang-up: the peer is gone whichever state we are in. A
            // dispatched request's completion is discarded by the generation check.
            self.close_conn(slot);
            return;
        }
        match conn.state {
            ConnState::Reading if revents & sys::EPOLLIN != 0 => self.read_ready(slot, scratch),
            ConnState::Writing if revents & sys::EPOLLOUT != 0 => {
                let finished = self.write_ready(slot);
                if finished {
                    // Keep-alive write finished: pipelined requests may already sit in
                    // the parser buffer (userspace — epoll will never report them).
                    self.process_parsed(slot);
                }
            }
            _ => {}
        }
    }

    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) {
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(conn) if conn.state == ConnState::Reading => conn,
                _ => return,
            };
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    // Peer closed. Mid-request this frees the slot immediately (the
                    // mid-body disconnect case); idle it is just the end of keep-alive.
                    self.close_conn(slot);
                    return;
                }
                Ok(n) => {
                    if conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    conn.parser.feed(&scratch[..n]);
                    self.process_parsed(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.refresh_read_deadline(slot);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
    }

    /// Re-arms the read-side deadline after parser progress: idle timeout while no
    /// partial request is buffered, the request-read (slow-loris) deadline otherwise.
    fn refresh_read_deadline(&mut self, slot: usize) {
        let config = &self.shared.core.config;
        let (idle_timeout, read_deadline) = (config.idle_timeout, config.request_read_deadline);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.state != ConnState::Reading {
            return;
        }
        let (deadline, kind) = if conn.parser.is_idle() {
            conn.request_started = None;
            (Instant::now() + idle_timeout, DeadlineKind::Idle)
        } else {
            let started = *conn.request_started.get_or_insert_with(Instant::now);
            (started + read_deadline, DeadlineKind::Read)
        };
        conn.deadline = Some(deadline);
        conn.deadline_kind = kind;
        let generation = conn.generation;
        self.wheel.schedule(deadline, slot, generation);
    }

    /// Drives the parser over buffered bytes: answers probes and refusals inline,
    /// dispatches admitted requests, rejects malformed ones. Loops so pipelined
    /// requests answered without blocking (probes, 429s) keep flowing.
    fn process_parsed(&mut self, slot: usize) {
        let shared = self.shared;
        let core = &shared.core;
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(conn) if conn.state == ConnState::Reading => conn,
                _ => return,
            };
            let request = match conn.parser.poll() {
                Ok(Some(request)) => request,
                Ok(None) => {
                    self.refresh_read_deadline(slot);
                    return;
                }
                Err(HttpError::Disconnected) => {
                    self.close_conn(slot);
                    return;
                }
                Err(HttpError::Malformed { status, message }) => {
                    let response = core.malformed(status, &message);
                    self.start_write(slot, &response, true);
                    return;
                }
            };
            conn.request_started = None;
            let (response, close) = match core.admit(&request, || shared.queue.len()) {
                // Probes and refusals are answered on the reactor thread itself: O(µs),
                // no queue, cannot be starved by a full worker pool.
                Admitted::Answer(response) => {
                    let close = core.closes_after(request.wants_close(), conn.served);
                    (response, close)
                }
                Admitted::Run { tenant } => {
                    let job = Job {
                        slot,
                        generation: conn.generation,
                        request,
                        tenant,
                    };
                    match shared.queue.try_push(job) {
                        Ok(()) => {
                            conn.state = ConnState::Dispatched;
                            conn.deadline = None;
                            self.set_interest(slot, 0);
                            return;
                        }
                        Err(job) => {
                            // Global overload: the dispatch queue is full.
                            core.tenants.release(&job.tenant);
                            core.count_shed();
                            (Core::overload_response(), true)
                        }
                    }
                }
            };
            if !self.start_write(slot, &response, close) {
                return;
            }
        }
    }

    /// Serialises `response` and starts (opportunistically completing) the write.
    /// Returns `true` when the write finished synchronously on a keep-alive
    /// connection — i.e. the caller may continue parsing pipelined requests.
    fn start_write(&mut self, slot: usize, response: &Response, close: bool) -> bool {
        let write_deadline = self.shared.core.config.response_write_deadline;
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        conn.write_buf = http::serialize_response(response, close);
        conn.written = 0;
        conn.close_after_write = close;
        conn.served += 1;
        conn.state = ConnState::Writing;
        let deadline = Instant::now() + write_deadline;
        conn.deadline = Some(deadline);
        conn.deadline_kind = DeadlineKind::Write;
        let generation = conn.generation;
        self.wheel.schedule(deadline, slot, generation);
        self.write_ready(slot)
    }

    /// Pushes buffered response bytes until done or `EWOULDBLOCK`. Returns `true`
    /// when the response completed and the connection stays open for more requests.
    fn write_ready(&mut self, slot: usize) -> bool {
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(conn) if conn.state == ConnState::Writing => conn,
                _ => return false,
            };
            if conn.written == conn.write_buf.len() {
                return self.finish_write(slot);
            }
            let chunk_end = (conn.written + 64 * 1024).min(conn.write_buf.len());
            match (&conn.stream).write(&conn.write_buf[conn.written..chunk_end]) {
                Ok(0) => {
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) => {
                    conn.written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, sys::EPOLLOUT);
                    return false;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EPIPE/ECONNRESET: the peer is gone.
                    self.close_conn(slot);
                    return false;
                }
            }
        }
    }

    /// The response is fully written: close, or return to reading (and immediately
    /// parse any pipelined bytes). Returns `true` when the connection stays open.
    fn finish_write(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        if conn.close_after_write {
            self.close_conn(slot);
            return false;
        }
        conn.write_buf = Vec::new();
        conn.written = 0;
        conn.state = ConnState::Reading;
        self.set_interest(slot, sys::EPOLLIN);
        self.refresh_read_deadline(slot);
        true
    }

    /// Adjusts the epoll registration to `events` if it changed.
    fn set_interest(&mut self, slot: usize, events: u32) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.interest == events {
            return;
        }
        conn.interest = events;
        let fd = conn.stream.as_raw_fd();
        if self.epoll.modify(fd, events, slot as u64).is_err() {
            self.close_conn(slot);
        }
    }

    /// A worker finished a request for (`slot`, `generation`): write the response if
    /// the connection is still the same one.
    fn apply_completion(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get(completion.slot).and_then(Option::as_ref) else {
            return; // connection died while the request was in flight
        };
        if conn.generation != completion.generation || conn.state != ConnState::Dispatched {
            return;
        }
        let close = self
            .shared
            .core
            .closes_after(completion.wants_close, conn.served);
        // If the write completes synchronously on a keep-alive connection, drain any
        // pipelined requests that queued up meanwhile.
        if self.start_write(completion.slot, &completion.response, close) {
            self.process_parsed(completion.slot);
        }
    }

    /// A timer-wheel bucket fired for (`slot`, `generation`): enforce the deadline
    /// if it is really due, otherwise re-arm (lazy deletion).
    fn timer_fired(&mut self, slot: usize, generation: u64) {
        let metrics = &self.shared.core.metrics;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != generation {
            return;
        }
        let Some(deadline) = conn.deadline else {
            return; // dispatched: no socket-side deadline armed
        };
        if Instant::now() < deadline {
            // The deadline moved (keep-alive reuse) or lies past the wheel horizon.
            self.wheel.schedule(deadline, slot, generation);
            return;
        }
        match conn.deadline_kind {
            DeadlineKind::Idle => {
                metrics.idle_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            DeadlineKind::Read | DeadlineKind::Write => {
                metrics.deadline_disconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.close_conn(slot);
    }
}
