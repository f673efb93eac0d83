//! The daemon's API endpoints: `/schedule`, `/analyze`, `/codegen`, `/synthesize`.
//!
//! Every POST endpoint accepts its input in a line-oriented text format as the request
//! body — a net in the `fcpn_petri::io::text` format for `/schedule`, `/analyze` and
//! `/codegen`; a labelled transition system in the `fcpn_petri::synthesis::Lts` format
//! for `/synthesize` — plus per-request options as query parameters, and answers
//! deterministic JSON: the body is a pure function of `(endpoint, input, options)`,
//! which is what makes whole responses cacheable by fingerprint and lets tests assert
//! bit-identical agreement with direct library calls. Volatile facts (cache
//! disposition, elapsed time) travel in `X-Fcpn-*` response headers, never in the body.
//!
//! ## One pipeline
//!
//! All four POST endpoints run through one generic `cached_endpoint`: read the body as
//! text, parse it into the endpoint's input and its fingerprint, resolve the options,
//! look the response up in the cache, admit the request against the memory governor,
//! arm its deadline, compute on a miss, memoise, and stamp `X-Fcpn-Cache`. An endpoint
//! is just its parse step (net text or LTS text) and its compute step.
//!
//! ## Guards
//!
//! Per-request work is bounded three ways, so a hostile or merely enormous input
//! cannot pin a worker:
//!
//! * **state budgets** — `max_markings`, `max_tokens_per_place` and `max_nodes` are
//!   clamped to server-configured caps and passed into
//!   [`ExploreOptions`]/[`BoundednessOptions`]; truncated analyses answer honestly with
//!   `"unknown"` verdicts rather than running unbounded;
//! * **allocation budgets** — `max_allocations` is clamped and passed into
//!   [`AllocationOptions`]; the scheduler's typed `TooManyAllocations` error becomes a
//!   `422` instead of an exponential sweep;
//! * **deadlines** — `deadline_ms` (clamped to a cap) arms the request's one
//!   [`CancelToken`] just before its compute step. The token is the only deadline
//!   clock. It is threaded *into* every engine stage (the exploration loops, the
//!   allocation sweep, region synthesis), and the compute steps read it between stages
//!   (the four `/analyze` checks; `/codegen`'s schedule → synthesize → emit chain). A
//!   blown deadline answers `503`: `"deadline exceeded"` when caught between stages,
//!   `"cancelled mid-stage: deadline exceeded"` when an engine stage bailed out itself
//!   (also counted in the `cancelled_in_stage` metric). The cooperative polling is
//!   counter-gated (every few hundred iterations), so a worker abandons a runaway sweep
//!   within milliseconds of its deadline instead of running the stage to completion.

use crate::cache::{CachedResponse, ResultCache};
use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use fcpn_codegen::{
    emit_c, emit_rust, synthesize, CEmitOptions, CodeMetrics, RustEmitOptions, SynthesisOptions,
};
use fcpn_petri::analysis::{
    check_liveness_in, find_deadlock_in, try_check_boundedness_with, Boundedness,
    BoundednessOptions, DeadlockReport, LivenessReport, ReachabilityOptions,
};
use fcpn_petri::statespace::ExploreOptions;
use fcpn_petri::synthesis as net_synthesis;
use fcpn_petri::synthesis::{Lts, SynthesisError};
use fcpn_petri::{
    io::parse_net, net_fingerprint, CancelToken, Fingerprint128, Interrupt, MemoryBudget, PetriNet,
    ResourceExhausted, TransitionId,
};
use fcpn_qss::{
    quasi_static_schedule, AllocationOptions, ComponentFailure, QssError, QssOptions, QssOutcome,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Server-side caps that per-request options are clamped against.
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Cap on `max_markings` for reachability-based analyses.
    pub max_markings: usize,
    /// Cap on `max_tokens_per_place`.
    pub max_tokens_per_place: u64,
    /// Cap on the coverability search's `max_nodes`.
    pub max_coverability_nodes: usize,
    /// Cap on `max_allocations` for the scheduling sweep.
    pub max_allocations: u128,
    /// Largest honoured `deadline_ms`.
    pub max_deadline_ms: u64,
    /// Deadline applied when the request does not name one.
    pub default_deadline_ms: u64,
    /// Cap on the `memory_budget_bytes` query parameter: the most engine-allocation
    /// bytes any single request may budget for.
    pub max_memory_budget_bytes: u64,
    /// Byte budget applied when the request does not name one. `None` (the default)
    /// runs unbudgeted requests with unlimited engine memory; the server arms this
    /// when a process-wide `--mem-budget` is configured, so every request is
    /// accountable to the governor.
    pub default_memory_budget_bytes: Option<u64>,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_markings: 200_000,
            max_tokens_per_place: 1024,
            max_coverability_nodes: 200_000,
            // One sweep is never preempted (see the module docs), so the default cap
            // keeps its worst case in the seconds range; operators with bigger nets
            // raise it deliberately.
            max_allocations: 1 << 16,
            max_deadline_ms: 30_000,
            default_deadline_ms: 10_000,
            max_memory_budget_bytes: 1 << 32,
            default_memory_budget_bytes: None,
        }
    }
}

/// The process-wide memory governor: one shared byte pool every admitted request's
/// *full effective budget* is reserved against up front.
///
/// Reserving the whole budget at admission (instead of tracking live usage) is what
/// keeps responses deterministic under pressure: a request that is admitted always
/// runs with exactly the budget its cache key was computed from — memory pressure can
/// shed a request (503 + `Retry-After`, [`Metrics::rejected_memory`]) but can never
/// *shrink* one, so a cached body never depends on what else the daemon was doing.
///
/// A budget larger than the pool itself is refused with a `400` instead: no retry can
/// ever make it admissible, so inviting one (and shedding cache for it) would only
/// hand hostile clients a free cache-flush loop.
#[derive(Debug)]
pub struct MemGovernor {
    limit: u64,
    in_use: std::sync::atomic::AtomicU64,
}

impl MemGovernor {
    /// A governor over `limit_bytes` of engine-allocation budget.
    pub fn new(limit_bytes: u64) -> Self {
        MemGovernor {
            limit: limit_bytes,
            in_use: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The configured pool size.
    pub fn limit_bytes(&self) -> u64 {
        self.limit
    }

    /// Bytes currently reserved by in-flight requests (the `mem_bytes_in_use` gauge).
    pub fn bytes_in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Attempts to reserve `bytes` from the pool; `false` means the request must be
    /// shed. Reservations are all-or-nothing — a partial grant would hand the engines
    /// a budget the response body was not keyed under.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(bytes) else {
                return false;
            };
            if next > self.limit {
                return false;
            }
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Reserves `bytes` for the lifetime of the returned guard, which releases on
    /// drop — including the unwind path, so a panicking handler (the server keeps
    /// serving via `catch_unwind`) cannot leak pool bytes. `None` means the request
    /// must be shed.
    pub fn reserve(&self, bytes: u64) -> Option<MemReservation<'_>> {
        self.try_reserve(bytes).then_some(MemReservation {
            governor: self,
            bytes,
        })
    }

    /// Returns a reservation to the pool (saturating: a stray double-release clamps
    /// at zero rather than corrupting the gauge).
    pub fn release(&self, bytes: u64) {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// An RAII hold on part of the [`MemGovernor`] pool: the bytes go back when the
/// guard drops, on the normal return path and on unwind alike.
#[derive(Debug)]
pub struct MemReservation<'a> {
    governor: &'a MemGovernor,
    bytes: u64,
}

impl Drop for MemReservation<'_> {
    fn drop(&mut self) {
        self.governor.release(self.bytes);
    }
}

/// What a handler needs besides the request: caps, the shared result cache and the
/// counters.
#[derive(Debug, Clone, Copy)]
pub struct HandlerCtx<'a> {
    /// Server-side caps.
    pub limits: &'a RequestLimits,
    /// The fingerprint-keyed response cache.
    pub cache: &'a ResultCache,
    /// Request counters.
    pub metrics: &'a Metrics,
    /// The process memory governor (`--mem-budget`); `None` runs without global
    /// memory admission control.
    pub governor: Option<&'a MemGovernor>,
}

/// The between-stage deadline check: once the request's [`CancelToken`] has fired, the
/// compute step stops before its next stage with `503 {"error":"deadline exceeded"}`.
fn check_deadline(metrics: &Metrics, cancel: &CancelToken) -> Result<(), Response> {
    if cancel.is_cancelled() {
        metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        return Err(Response::error(503, "deadline exceeded"));
    }
    Ok(())
}

/// The `503` for a stage that cancelled *itself* mid-loop (its [`CancelToken`] fired).
/// Deliberately not memoised — like deadline 503s, it reflects load, not the request.
fn cancelled_response(metrics: &Metrics) -> Response {
    metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    metrics.cancelled_in_stage.fetch_add(1, Ordering::Relaxed);
    Response::error(503, "cancelled mid-stage: deadline exceeded")
}

/// The `503` for a stage whose [`MemoryBudget`] charge failed: the typed exhaustion
/// payload plus `Retry-After`, so clients can distinguish "your net needs more budget"
/// from a blown deadline. Never memoised (503s are excluded from the cache), so a
/// retry with a bigger budget computes fresh.
fn exhausted_response(metrics: &Metrics, e: &ResourceExhausted) -> Response {
    metrics.resource_exhausted.fetch_add(1, Ordering::Relaxed);
    Response::json(
        503,
        Json::obj([
            ("error", Json::from("memory budget exhausted")),
            ("stage", Json::from(e.stage)),
            ("limit_bytes", Json::from(e.limit_bytes)),
            ("requested_bytes", Json::from(e.requested_bytes)),
        ])
        .render(),
    )
    .with_header("Retry-After", "1")
}

/// Maps an engine [`Interrupt`] to the matching load-shed response.
fn interrupt_response(metrics: &Metrics, interrupt: &Interrupt) -> Response {
    match interrupt {
        Interrupt::Cancelled => cancelled_response(metrics),
        Interrupt::Exhausted(e) => exhausted_response(metrics, e),
    }
}

/// Routes an API request. `GET /healthz` and `GET /metrics` are answered by the server
/// itself (they need queue state); everything else lands here.
pub fn handle(ctx: &HandlerCtx<'_>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/schedule") => {
            ctx.metrics
                .schedule_requests
                .fetch_add(1, Ordering::Relaxed);
            cached_endpoint(ctx, request, Endpoint::Schedule, net_input, schedule)
        }
        ("POST", "/analyze") => {
            ctx.metrics.analyze_requests.fetch_add(1, Ordering::Relaxed);
            cached_endpoint(ctx, request, Endpoint::Analyze, net_input, analyze)
        }
        ("POST", "/codegen") => {
            ctx.metrics.codegen_requests.fetch_add(1, Ordering::Relaxed);
            cached_endpoint(ctx, request, Endpoint::Codegen, net_input, codegen)
        }
        ("POST", "/synthesize") => {
            ctx.metrics
                .synthesize_requests
                .fetch_add(1, Ordering::Relaxed);
            cached_endpoint(ctx, request, Endpoint::Synthesize, lts_input, synthesis)
        }
        (_, "/schedule" | "/analyze" | "/codegen") => {
            Response::error(405, "use POST with the net text as the request body")
        }
        (_, "/synthesize") => Response::error(
            405,
            "use POST with the transition-system text as the request body",
        ),
        ("GET" | "POST", _) => Response::error(404, "unknown endpoint"),
        _ => Response::error(405, "unsupported method"),
    }
}

/// The POST endpoints. The discriminant is the tag folded into cache keys.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Schedule = 1,
    Analyze = 2,
    Codegen = 3,
    Synthesize = 4,
}

impl Endpoint {
    /// The `400` text for an empty body.
    fn empty_body(self) -> &'static str {
        match self {
            Endpoint::Synthesize => "empty body; POST a transition system in the lts text format",
            _ => "empty body; POST a net in the text format",
        }
    }
}

/// The parse step of the net endpoints: the net and its fingerprint.
fn net_input(text: &str) -> Result<(PetriNet, u128), String> {
    let net = parse_net(text).map_err(|e| format!("net parse failed: {e}"))?;
    let fingerprint = net_fingerprint(&net);
    Ok((net, fingerprint))
}

/// The parse step of `/synthesize`: the transition system and its fingerprint.
fn lts_input(text: &str) -> Result<(Lts, u128), String> {
    let lts = Lts::parse(text).map_err(|e| format!("lts parse failed: {e}"))?;
    let fingerprint = lts.fingerprint();
    Ok((lts, fingerprint))
}

/// The one POST pipeline (see the module docs). `parse` turns the body text into the
/// input and the fingerprint its cache key folds in, or into a `400` message. `compute`
/// runs on a cache miss under the request's armed [`CancelToken`]; its `Err` side is an
/// answer that ends the computation early, and both sides are memoised alike. Each
/// endpoint gets its own monomorphised copy, so a cache hit costs only the parse, the
/// option resolution and one lookup.
fn cached_endpoint<I>(
    ctx: &HandlerCtx<'_>,
    request: &Request,
    endpoint: Endpoint,
    parse: impl FnOnce(&str) -> Result<(I, u128), String>,
    compute: impl FnOnce(&Metrics, &I, &RequestOptions, &CancelToken) -> Result<Response, Response>,
) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => return Response::error(400, endpoint.empty_body()),
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let (input, fingerprint) = match parse(text) {
        Ok(parsed) => parsed,
        Err(message) => return Response::error(400, &message),
    };
    let options = match RequestOptions::from_query(request, ctx.limits) {
        Ok(options) => options,
        Err(response) => return response,
    };

    let key = options.cache_key(endpoint, fingerprint);
    if options.use_result_cache {
        if let Some(hit) = ctx.cache.get(key) {
            return Response::json_shared(hit.status, Arc::clone(&hit.body))
                .with_header("X-Fcpn-Cache", "hit");
        }
    }

    let _reserved = match admit(ctx, &options) {
        Ok(reservation) => reservation,
        Err(response) => return response,
    };

    let cancel = CancelToken::after(Duration::from_millis(options.deadline_ms));
    let response = compute(ctx.metrics, &input, &options, &cancel).unwrap_or_else(|early| early);
    // Deterministic outcomes (including 4xx verdicts and honest negatives about the
    // input) are memoised; 503s are not — they depend on load, not on the request.
    if options.use_result_cache && response.status != 503 {
        ctx.cache.insert(
            key,
            Arc::new(CachedResponse {
                status: response.status,
                body: Arc::clone(&response.body),
            }),
        );
    }
    response.with_header("X-Fcpn-Cache", "miss")
}

/// Admission against the process memory governor: the request's *full* effective
/// budget is reserved before any engine work starts, and a request that cannot be
/// covered is shed whole — never run with a smaller budget than its cache key was
/// computed from. A budget the pool could never cover is a client error (a retry
/// cannot help, so no Retry-After and no cache shedding a cheap hostile loop could
/// exploit); a budget that merely doesn't fit *right now* is genuine contention,
/// so the daemon sheds it retryable and halves the response cache, trading cold
/// hits for headroom so the invited retry can land. The reservation is an RAII
/// guard: it returns to the pool on drop, even if the handler panics.
fn admit<'a>(
    ctx: &HandlerCtx<'a>,
    options: &RequestOptions,
) -> Result<Option<MemReservation<'a>>, Response> {
    let Some(governor) = ctx.governor else {
        return Ok(None);
    };
    let bytes = options.memory_budget_bytes.unwrap_or(0);
    if bytes > governor.limit_bytes() {
        ctx.metrics.rejected_memory.fetch_add(1, Ordering::Relaxed);
        return Err(Response::error(
            400,
            &format!(
                "memory_budget_bytes={bytes} exceeds the server's memory pool \
                 of {} bytes",
                governor.limit_bytes()
            ),
        ));
    }
    match governor.reserve(bytes) {
        Some(guard) => Ok(Some(guard)),
        None => {
            ctx.metrics.rejected_memory.fetch_add(1, Ordering::Relaxed);
            ctx.cache.shed_half();
            Err(
                Response::error(503, "memory budget unavailable; retry later")
                    .with_header("Retry-After", "1"),
            )
        }
    }
}

fn synthesis(
    metrics: &Metrics,
    lts: &Lts,
    options: &RequestOptions,
    cancel: &CancelToken,
) -> Result<Response, Response> {
    let synthesis_options = net_synthesis::SynthesisOptions {
        require_free_choice: options.require_free_choice,
        verify: options.verify,
        max_regions: options.max_regions,
        cancel: cancel.clone(),
        memory: options.memory(),
    };
    let head = |lts: &Lts, synthesizable: bool| {
        vec![
            ("lts".to_string(), Json::from(lts.name())),
            (
                "fingerprint".to_string(),
                Json::from(format!("0x{:032x}", lts.fingerprint())),
            ),
            ("synthesizable".to_string(), Json::from(synthesizable)),
        ]
    };
    let witness = |lts: &Lts, witness: Json| {
        let mut pairs = head(lts, false);
        pairs.push(("witness".to_string(), witness));
        Response::json(200, Json::Obj(pairs).render())
    };
    Ok(match net_synthesis::synthesize(lts, &synthesis_options) {
        Ok(out) => {
            let mut pairs = head(lts, true);
            pairs.push((
                "stats".to_string(),
                Json::obj([
                    ("states", Json::from(out.stats.states)),
                    ("labels", Json::from(out.stats.labels)),
                    ("cycle_equations", Json::from(out.stats.cycle_equations)),
                    ("candidate_regions", Json::from(out.stats.candidate_regions)),
                    ("places", Json::from(out.stats.places)),
                    ("ssp_splits", Json::from(out.stats.ssp_splits)),
                    ("essp_instances", Json::from(out.stats.essp_instances)),
                    ("essp_composed", Json::from(out.stats.essp_composed)),
                    ("verified", Json::from(out.stats.verified)),
                ]),
            ));
            pairs.push((
                "net".to_string(),
                Json::from(fcpn_petri::io::to_text(&out.net)),
            ));
            Response::json(200, Json::Obj(pairs).render())
        }
        Err(SynthesisError::Interrupted(interrupt)) => interrupt_response(metrics, &interrupt),
        // Honest verdicts about the input, mirroring `/schedule`'s
        // `"schedulable": false` diagnosis: a 200 with the typed witness.
        Err(SynthesisError::StateSeparation { left, right }) => witness(
            lts,
            Json::obj([
                ("kind", Json::from("state-separation")),
                ("left", Json::from(left)),
                ("right", Json::from(right)),
            ]),
        ),
        Err(SynthesisError::EventStateSeparation { state, label }) => witness(
            lts,
            Json::obj([
                ("kind", Json::from("event-state-separation")),
                ("state", Json::from(state)),
                ("label", Json::from(label)),
            ]),
        ),
        Err(SynthesisError::NotFreeChoice { place, transition }) => witness(
            lts,
            Json::obj([
                ("kind", Json::from("not-free-choice")),
                ("place", Json::from(place)),
                ("transition", Json::from(transition)),
            ]),
        ),
        // Defective inputs (an unreachable state can never appear in a reachability
        // graph) and blown size bounds are client errors, deterministic and cacheable.
        Err(
            e @ (SynthesisError::EmptyInput
            | SynthesisError::IncompleteInput
            | SynthesisError::Nondeterministic { .. }
            | SynthesisError::Unreachable { .. }
            | SynthesisError::RegionOverflow),
        ) => Response::error(422, &e.to_string()),
        // The verification backstop only trips on an engine bug.
        Err(e @ SynthesisError::RealizationMismatch) => {
            Response::error(500, &format!("synthesis failed: {e}"))
        }
        Err(other) => Response::error(500, &format!("synthesis failed: {other}")),
    })
}

/// Effective per-request options after clamping against [`RequestLimits`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct RequestOptions {
    use_result_cache: bool,
    max_allocations: u128,
    max_markings: usize,
    max_tokens_per_place: u64,
    max_nodes: usize,
    deadline_ms: u64,
    /// Effective engine-allocation byte budget; `None` = unlimited.
    memory_budget_bytes: Option<u64>,
    /// `/analyze` check selection, as a bitmask over [`CHECKS`].
    checks: u8,
    /// `/codegen` target language.
    rust: bool,
    /// `/synthesize` cap on the extremal-region basis.
    max_regions: usize,
    /// `/synthesize` verification pass (re-explore + isomorphism check).
    verify: bool,
    /// `/synthesize` free-choice requirement on the emitted net.
    require_free_choice: bool,
}

/// The `/analyze` checks in bitmask order.
const CHECKS: [&str; 4] = ["reachability", "deadlock", "liveness", "boundedness"];

impl RequestOptions {
    fn from_query(request: &Request, limits: &RequestLimits) -> Result<Self, Response> {
        let bad = |name: &str| Response::error(400, &format!("invalid value for `{name}`"));
        let parse_u64 = |name: &str, default: u64| -> Result<u64, Response> {
            match request.query_param(name) {
                None => Ok(default),
                Some(v) => v.parse::<u64>().map_err(|_| bad(name)),
            }
        };
        let parse_bool = |name: &str, default: bool| -> Result<bool, Response> {
            match request.query_param(name) {
                None => Ok(default),
                Some("1") | Some("true") => Ok(true),
                Some("0") | Some("false") => Ok(false),
                Some(_) => Err(bad(name)),
            }
        };

        let defaults = ReachabilityOptions::default();
        let max_markings = (parse_u64("max_markings", defaults.max_markings as u64)? as usize)
            .clamp(1, limits.max_markings);
        let max_tokens_per_place =
            parse_u64("max_tokens_per_place", defaults.max_tokens_per_place)?
                .clamp(1, limits.max_tokens_per_place);
        let max_nodes = (parse_u64("max_nodes", BoundednessOptions::default().max_nodes as u64)?
            as usize)
            .clamp(1, limits.max_coverability_nodes);
        let max_allocations = match request.query_param("max_allocations") {
            None => AllocationOptions::default()
                .max_allocations
                .min(limits.max_allocations),
            Some(v) => v
                .parse::<u128>()
                .map_err(|_| bad("max_allocations"))?
                .clamp(1, limits.max_allocations),
        };
        let deadline_ms =
            parse_u64("deadline_ms", limits.default_deadline_ms)?.clamp(1, limits.max_deadline_ms);
        let memory_budget_bytes = match request.query_param("memory_budget_bytes") {
            None => limits
                .default_memory_budget_bytes
                .map(|b| b.clamp(1, limits.max_memory_budget_bytes)),
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| bad("memory_budget_bytes"))?
                    .clamp(1, limits.max_memory_budget_bytes),
            ),
        };

        let checks = match request.query_param("checks") {
            None => 0b1111u8,
            Some(list) => {
                let mut mask = 0u8;
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    match CHECKS.iter().position(|&c| c == name) {
                        Some(bit) => mask |= 1 << bit,
                        None => {
                            return Err(Response::error(
                                400,
                                &format!(
                                    "unknown check `{name}` (expected one of {})",
                                    CHECKS.join(", ")
                                ),
                            ))
                        }
                    }
                }
                if mask == 0 {
                    return Err(bad("checks"));
                }
                mask
            }
        };
        let rust = match request.query_param("lang") {
            None | Some("c") => false,
            Some("rust") => true,
            Some(_) => return Err(bad("lang")),
        };
        let synthesis_defaults = net_synthesis::SynthesisOptions::default();
        // The region basis is an allocation-shaped cost (each candidate materialises
        // gradient vectors over every state), so it clamps against the same cap as the
        // scheduling sweep's allocation budget.
        let max_regions = (parse_u64("max_regions", synthesis_defaults.max_regions as u64)?
            as usize)
            .clamp(1, limits.max_allocations.min(usize::MAX as u128) as usize);

        Ok(RequestOptions {
            use_result_cache: parse_bool("cache", true)?,
            max_allocations,
            max_markings,
            max_tokens_per_place,
            max_nodes,
            deadline_ms,
            memory_budget_bytes,
            checks,
            rust,
            max_regions,
            verify: parse_bool("verify", synthesis_defaults.verify)?,
            require_free_choice: parse_bool("free_choice", synthesis_defaults.require_free_choice)?,
        })
    }

    fn wants(&self, check: &str) -> bool {
        CHECKS
            .iter()
            .position(|&c| c == check)
            .is_some_and(|bit| self.checks & (1 << bit) != 0)
    }

    /// Folds every response-relevant option with the endpoint tag and the net
    /// fingerprint into the result-cache key. `deadline_ms` and `use_result_cache` are
    /// deliberately excluded: they never change the body of a completed response.
    fn cache_key(&self, endpoint: Endpoint, fingerprint: u128) -> u128 {
        let mut fp = Fingerprint128::new();
        fp.fold(endpoint as u64);
        fp.fold(fingerprint as u64);
        fp.fold((fingerprint >> 64) as u64);
        fp.fold(self.max_allocations as u64);
        fp.fold((self.max_allocations >> 64) as u64);
        fp.fold(self.max_markings as u64);
        fp.fold(self.max_tokens_per_place);
        fp.fold(self.max_nodes as u64);
        // The budget changes which error body a too-big net gets, so it is
        // response-relevant; the presence bit separates "no budget" from any value.
        fp.fold(self.memory_budget_bytes.is_some() as u64);
        fp.fold(self.memory_budget_bytes.unwrap_or(0));
        fp.fold(self.checks as u64);
        fp.fold(self.rust as u64);
        fp.fold(self.max_regions as u64);
        fp.fold(self.verify as u64);
        fp.fold(self.require_free_choice as u64);
        fp.finish()
    }

    /// The per-request engine budget: armed at the effective byte limit, or unlimited.
    fn memory(&self) -> MemoryBudget {
        match self.memory_budget_bytes {
            Some(bytes) => MemoryBudget::with_limit(bytes),
            None => MemoryBudget::unlimited(),
        }
    }

    fn qss(&self, cancel: CancelToken) -> QssOptions {
        QssOptions {
            allocation: AllocationOptions {
                max_allocations: self.max_allocations,
            },
            cancel,
            memory: self.memory(),
            ..QssOptions::default()
        }
    }

    fn explore(&self, cancel: CancelToken) -> ExploreOptions {
        ExploreOptions {
            reach: ReachabilityOptions {
                max_markings: self.max_markings,
                max_tokens_per_place: self.max_tokens_per_place,
            },
            cancel,
            memory: self.memory(),
            ..ExploreOptions::default()
        }
    }
}

fn fingerprint_hex(net: &PetriNet) -> String {
    format!("0x{:032x}", net_fingerprint(net))
}

fn names(net: &PetriNet, transitions: &[TransitionId]) -> Json {
    Json::arr(
        transitions
            .iter()
            .map(|&t| Json::from(net.transition_name(t))),
    )
}

// ---------------------------------------------------------------------------
// /schedule
// ---------------------------------------------------------------------------

fn schedule(
    metrics: &Metrics,
    net: &PetriNet,
    options: &RequestOptions,
    cancel: &CancelToken,
) -> Result<Response, Response> {
    // No between-stage deadline check here — the sweep is a single stage — but the
    // stage itself carries the armed token, so a blown deadline aborts the sweep from
    // the inside within one polling stride.
    let outcome = quasi_static_schedule(net, &options.qss(cancel.clone()))
        .map_err(|e| qss_error_response(metrics, net, &e))?;
    Ok(Response::json(200, schedule_response_body(net, &outcome)))
}

/// Renders the deterministic `/schedule` response body for an outcome. Public so tests
/// and the repository benchmark can assert the daemon's answers are bit-identical to
/// direct library calls.
///
/// The body holds one cycle (or failure) per T-allocation, so it grows with every free
/// choice; it is written in one pass into one `String` rather than built as a [`Json`]
/// tree. Each transition and place name is escaped once per body and its escaped bytes
/// are copied at every occurrence.
pub fn schedule_response_body(net: &PetriNet, outcome: &QssOutcome) -> String {
    let names = EscapedNames::of(net);
    let mut out = String::new();
    out.push_str("{\"net\":");
    json::write_string(&mut out, net.name());
    out.push_str(",\"fingerprint\":");
    json::write_string(&mut out, &fingerprint_hex(net));
    match outcome {
        QssOutcome::Schedulable(schedule) => {
            out.push_str(",\"schedulable\":true,\"components_examined\":");
            json::write_u64(&mut out, schedule.cycle_count() as u64);
            out.push_str(",\"cycles\":");
            write_array(&mut out, &schedule.cycles, |out, cycle| {
                out.push_str("{\"allocation\":\"");
                cycle.allocation.write_description(
                    out,
                    |p| &names.places[p.index()],
                    |t| &names.transitions[t.index()],
                );
                out.push_str("\",\"sequence\":");
                names.write_transitions(out, &cycle.sequence);
                out.push_str(",\"counts\":");
                write_array(out, &cycle.counts, |out, &c| json::write_u64(out, c));
                out.push_str(",\"buffer_bounds\":");
                write_array(out, &cycle.buffer_bounds, |out, &b| json::write_u64(out, b));
                out.push('}');
            });
        }
        QssOutcome::NotSchedulable(report) => {
            out.push_str(",\"schedulable\":false,\"components_examined\":");
            json::write_u64(&mut out, report.components_examined as u64);
            out.push_str(",\"failures\":");
            write_array(&mut out, &report.failures, |out, failure| {
                out.push_str("{\"allocation\":");
                json::write_string(out, &failure.allocation);
                out.push_str(",\"transitions\":");
                names.write_transitions(out, &failure.transitions);
                out.push_str(",\"reason\":");
                write_failure(out, &names, &failure.failure);
                out.push('}');
            });
        }
    }
    out.push('}');
    // The result cache keeps the body: hand back what the estimates over-reserved.
    out.shrink_to_fit();
    out
}

/// The transition and place names of a net, JSON-escaped without quotes.
struct EscapedNames {
    transitions: Vec<String>,
    places: Vec<String>,
}

impl EscapedNames {
    fn of(net: &PetriNet) -> Self {
        let escape = |name: &str| {
            let mut out = String::with_capacity(name.len());
            json::write_escaped(&mut out, name);
            out
        };
        EscapedNames {
            transitions: net
                .transitions()
                .map(|t| escape(net.transition_name(t)))
                .collect(),
            places: net.places().map(|p| escape(net.place_name(p))).collect(),
        }
    }

    fn write_transition(&self, out: &mut String, t: TransitionId) {
        out.push('"');
        out.push_str(&self.transitions[t.index()]);
        out.push('"');
    }

    fn write_transitions(&self, out: &mut String, ts: &[TransitionId]) {
        write_array(out, ts, |out, &t| self.write_transition(out, t));
    }
}

/// Writes `items` as a JSON array. Once the first item is written, `out` reserves
/// room for the rest at that item's size plus an eighth: the items of one body are
/// alike, so a body of thousands of cycles grows once instead of doubling its way up.
fn write_array<T>(out: &mut String, items: &[T], mut write_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    if let Some((first, rest)) = items.split_first() {
        let start = out.len();
        write_item(out, first);
        let estimate = (out.len() - start + 1) * rest.len();
        out.reserve(estimate + estimate / 8 + 1);
        for item in rest {
            out.push(',');
            write_item(out, item);
        }
    }
    out.push(']');
}

fn write_failure(out: &mut String, names: &EscapedNames, failure: &ComponentFailure) {
    match failure {
        ComponentFailure::Inconsistent { uncovered } => {
            out.push_str("{\"kind\":\"inconsistent\",\"uncovered\":");
            names.write_transitions(out, uncovered);
        }
        ComponentFailure::SourceNotCovered { source } => {
            out.push_str("{\"kind\":\"source-not-covered\",\"source\":");
            names.write_transition(out, *source);
        }
        ComponentFailure::Deadlock { remaining, fired } => {
            out.push_str("{\"kind\":\"deadlock\",\"remaining\":");
            write_array(out, remaining, |out, &(t, owed)| {
                out.push_str("{\"transition\":");
                names.write_transition(out, t);
                out.push_str(",\"owed\":");
                json::write_u64(out, owed);
                out.push('}');
            });
            out.push_str(",\"fired\":");
            names.write_transitions(out, fired);
        }
    }
    out.push('}');
}

/// Maps every scheduler error to its response: the mid-stage cancellation and
/// memory-exhaustion `503`s, the typed `422`s about the net, and a `500` for the rest.
fn qss_error_response(metrics: &Metrics, net: &PetriNet, error: &QssError) -> Response {
    match error {
        QssError::Cancelled => cancelled_response(metrics),
        QssError::ResourceExhausted(e) => exhausted_response(metrics, e),
        QssError::NotFreeChoice { violations } => Response::json(
            422,
            Json::obj([
                ("error", Json::from("not a free-choice net")),
                (
                    "violations",
                    Json::arr(violations.iter().map(|&p| Json::from(net.place_name(p)))),
                ),
            ])
            .render(),
        ),
        QssError::Empty => Response::error(422, "net has no transitions"),
        QssError::TooManyAllocations { required, limit } => Response::json(
            422,
            Json::obj([
                ("error", Json::from("too many allocations")),
                ("required", Json::from(required.to_string())),
                ("limit", Json::from(limit.to_string())),
            ])
            .render(),
        ),
        other => Response::error(500, &format!("scheduling failed: {other}")),
    }
}

// ---------------------------------------------------------------------------
// /analyze
// ---------------------------------------------------------------------------

fn analyze(
    metrics: &Metrics,
    net: &PetriNet,
    options: &RequestOptions,
    cancel: &CancelToken,
) -> Result<Response, Response> {
    let explore = options.explore(cancel.clone());
    let interrupted = |interrupt: Interrupt| interrupt_response(metrics, &interrupt);
    let mut results: Vec<(String, Json)> = Vec::new();

    // Reachability, deadlock and liveness all read the same bounded state space, so
    // one exploration serves every requested check (boundedness runs its own covering
    // search below). The deadline is checked between the checks themselves, and the
    // exploration carries the armed token so it can cancel itself mid-loop.
    let space = if options.wants("reachability")
        || options.wants("deadlock")
        || options.wants("liveness")
    {
        check_deadline(metrics, cancel)?;
        Some(
            fcpn_petri::statespace::StateSpace::try_explore_with(net, &explore)
                .map_err(interrupted)?,
        )
    } else {
        None
    };

    if options.wants("reachability") {
        let space = space.as_ref().expect("explored above");
        // Same numbers `ReachabilityGraph::from_statespace` would expose, read off the
        // space directly so the deadlock/liveness checks can reuse it.
        results.push((
            "reachability".to_string(),
            Json::obj([
                ("states", Json::from(space.state_count())),
                ("edges", Json::from(space.edge_count())),
                ("complete", Json::from(space.is_complete())),
                (
                    "max_tokens_observed",
                    Json::from(space.max_tokens_observed()),
                ),
                ("dead_markings", Json::from(space.dead_states().len())),
            ]),
        ));
    }
    if options.wants("deadlock") {
        check_deadline(metrics, cancel)?;
        let report = find_deadlock_in(net, space.as_ref().expect("explored above"));
        results.push((
            "deadlock".to_string(),
            match report {
                DeadlockReport::DeadlockFree => {
                    Json::obj([("verdict", Json::from("deadlock-free"))])
                }
                DeadlockReport::Deadlock { marking, trace } => Json::obj([
                    ("verdict", Json::from("deadlock")),
                    (
                        "marking",
                        Json::arr(marking.as_slice().iter().map(|&t| Json::from(t))),
                    ),
                    ("trace", names(net, &trace)),
                ]),
                DeadlockReport::Unknown => Json::obj([("verdict", Json::from("unknown"))]),
            },
        ));
    }
    if options.wants("liveness") {
        check_deadline(metrics, cancel)?;
        let report = check_liveness_in(net, space.as_ref().expect("explored above"));
        results.push((
            "liveness".to_string(),
            match report {
                LivenessReport::Live => Json::obj([("verdict", Json::from("live"))]),
                LivenessReport::NotLive { transitions } => Json::obj([
                    ("verdict", Json::from("not-live")),
                    ("not_live", names(net, &transitions)),
                ]),
                LivenessReport::Unknown => Json::obj([("verdict", Json::from("unknown"))]),
            },
        ));
    }
    if options.wants("boundedness") {
        check_deadline(metrics, cancel)?;
        // A *complete* shared exploration already enumerates the full reachable set,
        // which proves boundedness directly with the same `k` the covering search
        // would report; only fall back to Karp–Miller when no complete space is at
        // hand.
        let verdict = match space.as_ref() {
            Some(space) if space.is_complete() => Boundedness::Bounded {
                k: space.max_tokens_observed(),
            },
            _ => try_check_boundedness_with(
                net,
                BoundednessOptions {
                    max_nodes: options.max_nodes,
                },
                &explore,
            )
            .map_err(interrupted)?,
        };
        results.push((
            "boundedness".to_string(),
            match verdict {
                Boundedness::Bounded { k } => {
                    Json::obj([("verdict", Json::from("bounded")), ("k", Json::from(k))])
                }
                Boundedness::Unbounded { places, witness } => Json::obj([
                    ("verdict", Json::from("unbounded")),
                    (
                        "places",
                        Json::arr(places.iter().map(|&p| Json::from(net.place_name(p)))),
                    ),
                    ("witness", names(net, &witness)),
                ]),
                Boundedness::Unknown => Json::obj([("verdict", Json::from("unknown"))]),
            },
        ));
    }

    Ok(Response::json(
        200,
        Json::obj([
            ("net".to_string(), Json::from(net.name())),
            ("fingerprint".to_string(), Json::from(fingerprint_hex(net))),
            ("results".to_string(), Json::Obj(results)),
        ])
        .render(),
    ))
}

// ---------------------------------------------------------------------------
// /codegen
// ---------------------------------------------------------------------------

fn codegen(
    metrics: &Metrics,
    net: &PetriNet,
    options: &RequestOptions,
    cancel: &CancelToken,
) -> Result<Response, Response> {
    let outcome = quasi_static_schedule(net, &options.qss(cancel.clone()))
        .map_err(|e| qss_error_response(metrics, net, &e))?;
    let schedule = match outcome {
        QssOutcome::Schedulable(schedule) => schedule,
        QssOutcome::NotSchedulable(report) => {
            return Err(Response::json(
                422,
                Json::obj([
                    (
                        "error",
                        Json::from("net is not quasi-statically schedulable"),
                    ),
                    (
                        "components_examined",
                        Json::from(report.components_examined),
                    ),
                    ("failing_components", Json::from(report.failures.len())),
                ])
                .render(),
            ))
        }
    };
    check_deadline(metrics, cancel)?;
    let program = synthesize(net, &schedule, SynthesisOptions::default())
        .map_err(|e| Response::error(500, &format!("synthesis failed: {e}")))?;
    check_deadline(metrics, cancel)?;
    let (language, code) = if options.rust {
        ("rust", emit_rust(&program, net, RustEmitOptions::default()))
    } else {
        ("c", emit_c(&program, net, CEmitOptions::default()))
    };
    let code_metrics = CodeMetrics::of(&program, net);
    Ok(Response::json(
        200,
        Json::obj([
            ("net", Json::from(net.name())),
            ("fingerprint", Json::from(fingerprint_hex(net))),
            ("schedulable", Json::from(true)),
            ("cycles", Json::from(schedule.cycle_count())),
            (
                "metrics",
                Json::obj([
                    ("tasks", Json::from(code_metrics.tasks)),
                    ("lines_of_c", Json::from(code_metrics.lines_of_c)),
                    ("ir_statements", Json::from(code_metrics.ir_statements)),
                    ("max_nesting", Json::from(code_metrics.max_nesting)),
                ]),
            ),
            ("language", Json::from(language)),
            ("code", Json::from(code)),
        ])
        .render(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use fcpn_petri::gallery;
    use fcpn_petri::io::to_text;

    fn ctx_parts() -> (RequestLimits, ResultCache, Metrics) {
        (
            RequestLimits::default(),
            ResultCache::new(4, 64),
            Metrics::new(),
        )
    }

    fn post(path_query: &str, body: &str) -> Request {
        let (path, query_raw) = match path_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_query, ""),
        };
        let query = query_raw
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|pair| {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        Request {
            method: "POST".into(),
            path: path.into(),
            query,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn schedule_body_matches_library_call_bit_for_bit() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        for net in [gallery::figure3a(), gallery::figure4(), gallery::figure5()] {
            let request = post("/schedule", &to_text(&net));
            let response = handle(&ctx, &request);
            assert_eq!(response.status, 200);
            let expected = schedule_response_body(
                &net,
                &quasi_static_schedule(&net, &QssOptions::default()).unwrap(),
            );
            assert_eq!(*response.body, expected, "net {}", net.name());
        }
    }

    #[test]
    fn schedule_serves_second_request_from_cache() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let request = post("/schedule", &to_text(&gallery::figure4()));
        let first = handle(&ctx, &request);
        let second = handle(&ctx, &request);
        assert_eq!(first.body, second.body);
        assert_eq!(cache.hits(), 1);
        let header = |r: &Response| {
            r.extra_headers
                .iter()
                .find(|(k, _)| k == "X-Fcpn-Cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(header(&first).as_deref(), Some("miss"));
        assert_eq!(header(&second).as_deref(), Some("hit"));
    }

    #[test]
    fn distinct_options_use_distinct_cache_slots() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let text = to_text(&gallery::figure4());
        handle(&ctx, &post("/codegen", &text));
        handle(&ctx, &post("/codegen?lang=rust", &text));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn thread_count_shares_one_cache_entry() {
        // `threads` is ignored like any unknown query parameter, numeric or not, so it
        // neither changes a body nor splits a cache entry.
        let net_text = to_text(&gallery::figure2());
        let ring = gallery::marked_ring(3, 1);
        let space = fcpn_petri::statespace::StateSpace::explore(
            &ring,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        let lts_text = Lts::from_statespace(&ring, &space).unwrap().to_text();
        for (path, text) in [
            ("/schedule", &net_text),
            ("/analyze", &net_text),
            ("/codegen", &net_text),
            ("/synthesize", &lts_text),
        ] {
            for threads in ["2", "abc"] {
                let (limits, cache, metrics) = ctx_parts();
                let ctx = HandlerCtx {
                    limits: &limits,
                    cache: &cache,
                    metrics: &metrics,
                    governor: None,
                };
                let first = handle(&ctx, &post(path, text));
                let second = handle(&ctx, &post(&format!("{path}?threads={threads}"), text));
                assert_eq!(first.status, 200, "{path}: {}", first.body);
                assert_eq!(first.body, second.body, "{path}?threads={threads}");
                assert_eq!(cache.misses(), 1, "{path}?threads={threads}");
                assert_eq!(cache.hits(), 1, "{path}?threads={threads}");
                assert_eq!(cache.len(), 1, "{path}?threads={threads}");
            }
        }
    }

    #[test]
    fn not_free_choice_is_422_with_violations() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let response = handle(&ctx, &post("/schedule", &to_text(&gallery::figure1b())));
        assert_eq!(response.status, 422);
        let value = parse(&response.body).unwrap();
        assert!(!value
            .get("violations")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn allocation_budget_maps_to_422() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let text = to_text(&gallery::choice_chain(6));
        let response = handle(&ctx, &post("/schedule?max_allocations=4", &text));
        assert_eq!(response.status, 422);
        let value = parse(&response.body).unwrap();
        assert_eq!(
            value.get("error").unwrap().as_str(),
            Some("too many allocations")
        );
    }

    #[test]
    fn analyze_reports_all_checks_by_default() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let response = handle(&ctx, &post("/analyze", &to_text(&gallery::figure2())));
        assert_eq!(response.status, 200);
        let value = parse(&response.body).unwrap();
        let results = value.get("results").unwrap();
        for check in CHECKS {
            assert!(results.get(check).is_some(), "missing {check}");
        }
        // Figure 2 has a source transition, so it is structurally unbounded.
        assert_eq!(
            results
                .get("boundedness")
                .unwrap()
                .get("verdict")
                .unwrap()
                .as_str(),
            Some("unbounded")
        );
        // A closed ring is bounded, and the analyzer reports the observed k.
        let ring = handle(
            &ctx,
            &post(
                "/analyze?checks=boundedness",
                &to_text(&gallery::marked_ring(4, 2)),
            ),
        );
        let ring_value = parse(&ring.body).unwrap();
        let verdict = ring_value
            .get("results")
            .unwrap()
            .get("boundedness")
            .unwrap();
        assert_eq!(verdict.get("verdict").unwrap().as_str(), Some("bounded"));
        assert_eq!(verdict.get("k").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn analyze_check_subset_and_unknown_check() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let text = to_text(&gallery::figure2());
        let response = handle(&ctx, &post("/analyze?checks=deadlock", &text));
        let value = parse(&response.body).unwrap();
        let results = value.get("results").unwrap().as_obj().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, "deadlock");
        let bad = handle(&ctx, &post("/analyze?checks=nonsense", &text));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn codegen_emits_compilable_looking_c() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let response = handle(&ctx, &post("/codegen", &to_text(&gallery::figure4())));
        assert_eq!(response.status, 200);
        let value = parse(&response.body).unwrap();
        assert!(value
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("void"));
        assert_eq!(value.get("language").unwrap().as_str(), Some("c"));
        assert!(value.get("metrics").unwrap().get("tasks").unwrap().as_u64() >= Some(1));
    }

    #[test]
    fn malformed_net_is_400_with_line() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let response = handle(&ctx, &post("/schedule", "net x\nbogus line"));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("line 2"));
    }

    #[test]
    fn unknown_path_and_wrong_method() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        assert_eq!(handle(&ctx, &post("/nope", "x")).status, 404);
        let mut get = post("/schedule", "");
        get.method = "GET".into();
        assert_eq!(handle(&ctx, &get).status, 405);
    }

    #[test]
    fn mem_governor_reserves_whole_budgets_and_releases() {
        let governor = MemGovernor::new(100);
        assert!(governor.try_reserve(60));
        assert_eq!(governor.bytes_in_use(), 60);
        // All-or-nothing: 50 more does not fit, and nothing is partially taken.
        assert!(!governor.try_reserve(50));
        assert_eq!(governor.bytes_in_use(), 60);
        assert!(governor.try_reserve(40));
        governor.release(60);
        governor.release(40);
        assert_eq!(governor.bytes_in_use(), 0);
        // A stray double-release clamps at zero instead of wrapping.
        governor.release(7);
        assert_eq!(governor.bytes_in_use(), 0);
    }

    #[test]
    fn tiny_memory_budget_is_a_typed_503_and_never_cached() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let text = to_text(&gallery::figure5());
        let response = handle(
            &ctx,
            &post("/analyze?checks=reachability&memory_budget_bytes=64", &text),
        );
        assert_eq!(response.status, 503);
        let value = parse(&response.body).unwrap();
        assert_eq!(
            value.get("error").unwrap().as_str(),
            Some("memory budget exhausted")
        );
        assert_eq!(value.get("stage").unwrap().as_str(), Some("reachability"));
        assert_eq!(value.get("limit_bytes").unwrap().as_u64(), Some(64));
        assert!(value.get("requested_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(response
            .extra_headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        assert_eq!(metrics.resource_exhausted.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 0, "exhaustion 503s must not be memoised");
        // The same request with a workable budget computes normally.
        let roomy = handle(
            &ctx,
            &post(
                &format!(
                    "/analyze?checks=reachability&memory_budget_bytes={}",
                    1u64 << 28
                ),
                &text,
            ),
        );
        assert_eq!(roomy.status, 200);
    }

    #[test]
    fn governor_rejects_over_pool_budgets_without_inviting_retries() {
        let (limits, cache, metrics) = ctx_parts();
        let governor = MemGovernor::new(1 << 20);
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: Some(&governor),
        };
        let text = to_text(&gallery::figure4());
        // Seed the cache so we can observe that a never-admissible request does not
        // flush it (that would be a free cache-flush loop for hostile clients).
        let warm = handle(&ctx, &post("/schedule", &text));
        assert_eq!(warm.status, 200);
        let cached_before = cache.len();
        assert!(cached_before > 0);

        let rejected = handle(
            &ctx,
            &post(
                &format!("/schedule?memory_budget_bytes={}", 1u64 << 21),
                &text,
            ),
        );
        assert_eq!(
            rejected.status, 400,
            "over-pool budget can never be admitted"
        );
        assert!(
            !rejected
                .extra_headers
                .iter()
                .any(|(k, _)| k == "Retry-After"),
            "a retry cannot help, so none is invited"
        );
        assert_eq!(metrics.rejected_memory.load(Ordering::Relaxed), 1);
        assert_eq!(
            cache.len(),
            cached_before,
            "never-admissible requests must not shed the cache"
        );
    }

    #[test]
    fn governor_sheds_contended_requests_with_retry_after() {
        let (limits, cache, metrics) = ctx_parts();
        let governor = MemGovernor::new(1 << 20);
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: Some(&governor),
        };
        let text = to_text(&gallery::figure4());
        // Simulate an in-flight request holding most of the pool: an affordable
        // budget that does not fit *right now* is shed retryable.
        let in_flight = governor
            .reserve((1 << 20) - (1 << 16))
            .expect("pool is free");
        let shed = handle(
            &ctx,
            &post(
                &format!("/schedule?memory_budget_bytes={}&cache=0", 1u64 << 17),
                &text,
            ),
        );
        assert_eq!(shed.status, 503);
        assert!(shed
            .extra_headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        assert_eq!(metrics.rejected_memory.load(Ordering::Relaxed), 1);
        drop(in_flight);
        assert_eq!(
            governor.bytes_in_use(),
            0,
            "the guard returns its bytes on drop"
        );
        // With the pool free again the same request is admitted, and its reservation
        // is returned once the response is built.
        let admitted = handle(
            &ctx,
            &post(
                &format!("/schedule?memory_budget_bytes={}&cache=0", 1u64 << 17),
                &text,
            ),
        );
        assert_eq!(admitted.status, 200);
        assert_eq!(governor.bytes_in_use(), 0);
    }

    #[test]
    fn synthesize_roundtrips_an_lts_and_caches_it() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        // A complete state space of a bounded gallery net, shipped as LTS text.
        let net = gallery::marked_ring(4, 2);
        let space = fcpn_petri::statespace::StateSpace::explore(
            &net,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        let lts = fcpn_petri::synthesis::Lts::from_statespace(&net, &space).unwrap();
        let request = post("/synthesize", &lts.to_text());
        let first = handle(&ctx, &request);
        assert_eq!(first.status, 200, "{}", first.body);
        let value = parse(&first.body).unwrap();
        assert_eq!(value.get("synthesizable").unwrap().as_bool(), Some(true));
        assert_eq!(
            value
                .get("stats")
                .unwrap()
                .get("verified")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        // The emitted net text parses and realises the same behaviour.
        let emitted = parse_net(value.get("net").unwrap().as_str().unwrap()).unwrap();
        let re_space = fcpn_petri::statespace::StateSpace::explore(
            &emitted,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        assert_eq!(re_space.state_count(), space.state_count());
        let second = handle(&ctx, &request);
        assert_eq!(first.body, second.body);
        assert_eq!(cache.hits(), 1);
        assert_eq!(metrics.synthesize_requests.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn synthesize_answers_unsynthesizable_with_a_witness() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let body = "lts chain\nedge s0 a s1\nedge s1 a s2\nedge s0 b s0\nedge s2 b s2\n";
        let response = handle(&ctx, &post("/synthesize", body));
        assert_eq!(response.status, 200);
        let value = parse(&response.body).unwrap();
        assert_eq!(value.get("synthesizable").unwrap().as_bool(), Some(false));
        let witness = value.get("witness").unwrap();
        assert_eq!(
            witness.get("kind").unwrap().as_str(),
            Some("event-state-separation")
        );
        assert_eq!(witness.get("state").unwrap().as_str(), Some("s1"));
        assert_eq!(witness.get("label").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn synthesize_rejects_defective_inputs() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        // Parse-level defect: conflicting deterministic edges → 400 with the line.
        let nondet = handle(&ctx, &post("/synthesize", "edge s0 a s1\nedge s0 a s2\n"));
        assert_eq!(nondet.status, 400);
        // Structural defect: an unreachable state → 422 with the typed message.
        let unreachable = handle(&ctx, &post("/synthesize", "edge s0 a s1\nstate lost\n"));
        assert_eq!(unreachable.status, 422, "{}", unreachable.body);
        assert!(unreachable.body.contains("lost"));
        // Wrong method → 405.
        let mut get = post("/synthesize", "");
        get.method = "GET".into();
        assert_eq!(handle(&ctx, &get).status, 405);
    }

    #[test]
    fn synthesize_honours_deadline_and_memory_options() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let net = gallery::marked_ring(5, 2);
        let space = fcpn_petri::statespace::StateSpace::explore(
            &net,
            fcpn_petri::analysis::ReachabilityOptions::default(),
        );
        let lts = fcpn_petri::synthesis::Lts::from_statespace(&net, &space).unwrap();
        let body = lts.to_text();
        let squeezed = handle(
            &ctx,
            &post("/synthesize?memory_budget_bytes=64&cache=0", &body),
        );
        assert_eq!(squeezed.status, 503, "{}", squeezed.body);
        let value = parse(&squeezed.body).unwrap();
        assert_eq!(
            value.get("error").unwrap().as_str(),
            Some("memory budget exhausted")
        );
        assert!(value
            .get("stage")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("synthesis-"));
        assert_eq!(cache.len(), 0, "503s must not be memoised");
        // A roomy budget computes normally; a squeezed region cap is a typed 422.
        let ok = handle(
            &ctx,
            &post(
                &format!("/synthesize?memory_budget_bytes={}", 1u64 << 28),
                &body,
            ),
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        let overflow = handle(&ctx, &post("/synthesize?max_regions=1", &body));
        assert_eq!(overflow.status, 422, "{}", overflow.body);
        assert!(overflow.body.contains("region"));
        assert_eq!(cache.hits(), 0, "distinct options use distinct cache keys");
    }

    #[test]
    fn pre_fired_token_stops_analyze_between_stages() {
        let (limits, _, metrics) = ctx_parts();
        let net = gallery::figure2();
        let fired = CancelToken::new();
        fired.cancel();
        // Every check subset meets a between-stage check before its first engine stage.
        for (count, checks) in ["", "?checks=boundedness", "?checks=liveness"]
            .into_iter()
            .enumerate()
        {
            let request = post(&format!("/analyze{checks}"), &to_text(&net));
            let options = RequestOptions::from_query(&request, &limits).unwrap();
            let response = analyze(&metrics, &net, &options, &fired).unwrap_err();
            assert_eq!(response.status, 503);
            assert_eq!(*response.body, r#"{"error":"deadline exceeded"}"#);
            assert_eq!(
                metrics.deadline_exceeded.load(Ordering::Relaxed),
                count as u64 + 1
            );
            assert_eq!(metrics.cancelled_in_stage.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn bad_option_values_are_400() {
        let (limits, cache, metrics) = ctx_parts();
        let ctx = HandlerCtx {
            limits: &limits,
            cache: &cache,
            metrics: &metrics,
            governor: None,
        };
        let text = to_text(&gallery::figure4());
        for query in [
            "/schedule?max_allocations=x",
            "/analyze?max_markings=-2",
            "/codegen?lang=fortran",
        ] {
            let response = handle(&ctx, &post(query, &text));
            assert_eq!(response.status, 400, "{query}");
        }
    }
}
