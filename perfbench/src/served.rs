//! The three daemon workloads: `schedule_cold`, `behaviour_cold` and `hot_mix`.
//!
//! The untraced run drives the release `fcpn-served` over loopback sockets, closed
//! loop, and checks every answer against the in-process library oracle after the
//! timed window. The traced run does the same socket pass, then replays the first two
//! rounds of its inputs in-process, in the same order: once through the HTTP parse and
//! `handlers::handle` (the untraced time) and once layer by layer through the public
//! functions the handler calls, each inside a span.

use crate::daemon::{self, Sample};
use crate::gen::{self, Card, Deck, Input, Kind, ANALYZE_MAX_MARKINGS};
use crate::trace::{Layers, Tracer};
use crate::{median, quantile, Metric, Report};
use fcpn_codegen::{emit_c, emit_rust, CEmitOptions, CodeMetrics, RustEmitOptions};
use fcpn_petri::analysis::{
    check_liveness_in, find_deadlock_in, try_check_boundedness_with, Boundedness,
    BoundednessOptions, InvariantAnalysis, ReachabilityOptions,
};
use fcpn_petri::io::parse_net;
use fcpn_petri::statespace::{ExploreOptions, StateSpace};
use fcpn_petri::synthesis::{self as net_synthesis, Lts};
use fcpn_petri::{net_fingerprint, net_structural_fingerprint, Fingerprint128, PetriNet};
use fcpn_qss::{
    allocation_iter_gray, quasi_static_schedule, AllocationOptions, ComponentCache,
    ComponentChecker, QssOptions, ReductionWorkspace,
};
use fcpn_serve::handlers::handle;
use fcpn_serve::{
    schedule_response_body, CachedResponse, HandlerCtx, HttpLimits, IncrementalParser, Metrics,
    Request, RequestLimits, Response, ResultCache, ServerConfig,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Daemon spawns per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;
/// Rounds of the deck the traced run replays in-process.
const TRACE_ROUNDS: usize = 2;
/// A replayed request is *over* when its layer self times sum to more than its
/// untraced time by this share plus [`OVER_SLACK_US`]. An over request is timed
/// [`RETIMES`] more times, both passes under the same conditions, and fails the
/// traced run when the least of its layer sums is still over the least of its
/// untraced times. On a shared two-core host one timing of a millisecond request
/// varies by a fifth and more, and by more with the allocator's state; a layer timed
/// twice, or work the daemon does not do, shows on every timing.
const OVER_SHARE: f64 = 0.25;
const OVER_SLACK_US: f64 = 50.0;
const RETIMES: usize = 4;

/// Which daemon workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScheduleCold,
    BehaviourCold,
    HotMix,
}

impl Workload {
    fn deck(self, seed: u64) -> Deck {
        match self {
            Workload::ScheduleCold => gen::schedule_cold_deck(seed),
            Workload::BehaviourCold => gen::behaviour_cold_deck(seed),
            Workload::HotMix => gen::hot_mix_deck(seed),
        }
    }

    fn connections(self) -> usize {
        match self {
            Workload::BehaviourCold => 1,
            Workload::ScheduleCold | Workload::HotMix => 2,
        }
        .min(crate::nproc())
    }

    fn cold(self) -> bool {
        self != Workload::HotMix
    }
}

/// Parses raw request bytes the way the daemon's reactor does.
fn parse_request(bytes: &[u8]) -> Request {
    let mut parser = IncrementalParser::new(HttpLimits::default());
    parser.feed(bytes);
    parser
        .poll()
        .ok()
        .flatten()
        .expect("generated requests are well-formed")
}

/// A handler context with the daemon's default limits and cache size.
struct Context {
    limits: RequestLimits,
    cache: ResultCache,
    metrics: Metrics,
}

impl Context {
    fn new() -> Self {
        let config = ServerConfig::default();
        Context {
            limits: config.limits,
            cache: ResultCache::with_limits(
                config.cache_shards,
                config.cache_entries,
                config.cache_bytes,
            ),
            metrics: Metrics::new(),
        }
    }

    fn handle(&self, request: &Request) -> Response {
        let ctx = HandlerCtx {
            limits: &self.limits,
            cache: &self.cache,
            metrics: &self.metrics,
            governor: None,
        };
        handle(&ctx, request)
    }
}

/// The oracle: the in-process handler on a fresh context. Returns status and digest.
fn oracle(input: &Input) -> (u16, u128) {
    let response = Context::new().handle(&parse_request(&input.http_bytes()));
    (response.status, daemon::digest(response.body.as_bytes()))
}

/// Counts the samples whose answer is not the oracle's `200` body. Runs on every
/// core after the timed window; a hot working set is computed once per card.
fn failed_against_oracle(deck: &Deck, samples: &[Sample], cold: bool) -> usize {
    let memo: Mutex<HashMap<Card, (u16, u128)>> = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..crate::nproc() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sample) = samples.get(i) else { break };
                if sample.status != 200 {
                    if failed.fetch_add(1, Ordering::Relaxed) < 5 {
                        eprintln!(
                            "request {} failed with status {} (0 = transport error)",
                            sample.index, sample.status
                        );
                    }
                    continue;
                }
                let input = deck.input(sample.index);
                let expected = if cold {
                    oracle(&input)
                } else {
                    let known = memo
                        .lock()
                        .expect("no oracle thread panics holding the memo")
                        .get(&input.card)
                        .copied();
                    known.unwrap_or_else(|| {
                        let computed = oracle(&input);
                        memo.lock()
                            .expect("no oracle thread panics holding the memo")
                            .insert(input.card, computed);
                        computed
                    })
                };
                // Only the first few mismatches are described.
                if expected != (200, sample.digest) && failed.fetch_add(1, Ordering::Relaxed) < 5 {
                    eprintln!(
                        "oracle mismatch: request {} ({:?} {}) got status {} with {} bytes, \
                         oracle status {}",
                        sample.index,
                        input.card.kind,
                        input.card.family.label(),
                        sample.status,
                        sample.bytes,
                        expected.0
                    );
                }
            });
        }
    });
    failed.into_inner()
}

pub fn run(workload: Workload, binary: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let deck = workload.deck(seed);
    if let Err(e) = deck.check_limits() {
        panic!("deck exceeds the daemon's limits: {e}");
    }
    for &card in &deck.cards {
        gen::base_text(card);
    }

    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        drop(daemon.take());
        let (process, setup_s) =
            daemon::start(binary, crate::nproc()).expect("fcpn-served starts and is healthy");
        setups.push(setup_s);
        daemon = Some(process);
    }
    let daemon = daemon.expect("at least one spawn");
    let addr = daemon.addr().to_string();

    // Hot working set: one request per card, before timing.
    let first = if workload.cold() { 0 } else { deck.cards.len() };
    let warm: Vec<Input> = (0..first).map(|i| deck.input(i)).collect();
    let mut warm_client = None;
    let warm_samples: Vec<Sample> = warm
        .iter()
        .map(|input| daemon::send(&addr, &mut warm_client, input))
        .collect();
    drop(warm_client);

    let before = daemon::counters(&addr).expect("/metrics answers");
    let load = daemon::closed_loop(&addr, workload.connections(), &deck, first, seconds);
    let after = daemon::counters(&addr).expect("/metrics answers");
    let peak_rss_mib = daemon::peak_rss_mib(daemon.pid()).expect("/proc status is readable");
    drop(daemon);
    let samples = &load.samples;

    let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    let hit_ratio = hits / (hits + misses).max(1.0);

    let attempted = samples.len() + warm_samples.len();
    let failed = failed_against_oracle(&deck, &warm_samples, false)
        + failed_against_oracle(&deck, samples, workload.cold());
    let mut notes = vec![format!(
        "{} requests in {:.3} s over {} connection(s) to {} workers; cache hit ratio \
         {hit_ratio:.4}",
        samples.len(),
        load.wall_s,
        workload.connections(),
        crate::nproc()
    )];
    let ratio_ok = if workload.cold() {
        hits == 0.0 && samples.iter().all(|s| !s.cache_hit)
    } else {
        hit_ratio >= 0.99
    };
    if !ratio_ok {
        notes.push(format!("cache hit ratio {hit_ratio} is out of range"));
    }
    notes.push(format!("req/s per window: {:.1?}", load.window_rates));
    let digest_s: f64 = samples.iter().map(|s| s.digest_s).sum();
    notes.push(format!(
        "client digest time {digest_s:.3} s, {:.2}% of the connections' time",
        100.0 * digest_s / (workload.connections() as f64 * load.wall_s)
    ));
    if samples.len() < 200 {
        notes.push(format!("only {} requests; p95 needs 200", samples.len()));
    }

    // Latency quantiles over whole rounds of the deck only, so every run weighs every
    // card equally whatever the partial last round happened to hold.
    let round = deck.cards.len();
    let whole = (samples.len() / round * round).max(samples.len().min(round));
    let ok: Vec<f64> = samples[..whole]
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.latency_us / 1e3)
        .collect();
    let mut consistent = true;
    let metrics = if traced {
        let replay = replay(&deck, &warm, samples);
        consistent = replay.consistent;
        notes.extend(replay.notes);
        let mut layers = replay.layers;
        layers.add("serve.cache_hit_ratio", hit_ratio);
        layers.add("serve.cache_evictions", delta("cache_evictions"));
        layers.add(
            "serve.cache_bytes",
            *after.get("cache_bytes").unwrap_or(&0.0),
        );
        let bytes: f64 = samples.iter().map(|s| s.bytes as f64).sum();
        layers.add("serve.response_bytes", bytes / samples.len().max(1) as f64);
        crate::per_layer_metrics(&layers)
    } else {
        vec![
            Metric::new("req_per_s", median(&load.window_rates), "1/s"),
            Metric::new("latency_p50_ms", quantile(&ok, 0.50), "ms"),
            Metric::new("latency_p95_ms", quantile(&ok, 0.95), "ms"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("setup_s", median(&setups), "s"),
        ]
    };
    Report {
        correct: failed == 0 && ratio_ok && consistent && samples.len() >= 200,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// What the in-process replay found.
struct Replay {
    layers: Layers,
    notes: Vec<String>,
    /// No request was over its untraced time.
    consistent: bool,
}

/// Replays the first [`TRACE_ROUNDS`] rounds of `samples` in-process, writing every
/// span to the trace file. A hot deck is first warmed like the daemon was; a cold one
/// with a round of a differently seeded deck, so the allocator has settled as it had
/// in the daemon without any measured input hitting a cache.
fn replay(deck: &Deck, warm: &[Input], samples: &[Sample]) -> Replay {
    let plain = Context::new();
    let traced_cache = Context::new().cache;
    let mut warm_tracer = Tracer::new();
    let warm = if warm.is_empty() {
        let other = deck.reseeded(!deck.seed);
        (0..deck.cards.len()).map(|i| other.input(i)).collect()
    } else {
        warm.to_vec()
    };
    for input in &warm {
        let request = parse_request(&input.http_bytes());
        let response = plain.handle(&request);
        decomposed(&mut warm_tracer, input, &traced_cache, &response);
    }

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut details: HashMap<Card, Vec<(&'static str, f64)>> = HashMap::new();
    // Per request: its root span and its untraced time, which like the root span
    // covers the HTTP parse and `handlers::handle`.
    let mut requests = Vec::new();
    let mut transport = Vec::new();
    let count = samples.len().min(deck.cards.len() * TRACE_ROUNDS);
    for sample in &samples[..count] {
        let input = deck.input(sample.index);
        let raw = input.http_bytes();
        let started = Instant::now();
        let response = plain.handle(&parse_request(&raw));
        let handle_us = started.elapsed().as_secs_f64() * 1e6;
        transport.push(sample.latency_us - handle_us);

        requests.push((tracer.spans.len(), handle_us, sample.index));
        let (miss, counts) = decomposed(&mut tracer, &input, &traced_cache, &response);
        for (name, value) in counts {
            layers.add(name, value);
        }
        if miss {
            let detail = details.entry(input.card).or_insert_with(|| detail(&input));
            for &(name, value) in detail.iter() {
                layers.add(name, value);
            }
        }
    }
    // A request's spans run from its root to the next request's root.
    let own = tracer.self_times();
    let ends = requests.iter().skip(1).map(|&(root, ..)| root);
    let (mut handle_total, mut traced_total, mut over) = (0.0, 0.0, 0usize);
    for (&(root, handle_us, index), end) in requests.iter().zip(ends.chain([own.len()])) {
        let layer_sum: f64 = own[root + 1..end].iter().sum();
        if is_over(handle_us, layer_sum) {
            let (mut untraced_us, mut layers_us) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..RETIMES {
                let (h, l) = retime(&deck.input(index), &plain, &traced_cache, deck.rename);
                untraced_us = untraced_us.min(h);
                layers_us = layers_us.min(l);
            }
            if is_over(untraced_us, layers_us) {
                over += 1;
                eprintln!(
                    "request {index}: layer self times {layers_us:.1} us, untraced \
                     {untraced_us:.1} us"
                );
            }
        }
        handle_total += handle_us;
        traced_total += tracer.spans[root].end_us - tracer.spans[root].start_us;
    }
    layers.add_self_times(&tracer);
    layers.add("serve.transport_us", median(&transport));
    layers.add("trace.handle_us", handle_total / count.max(1) as f64);
    layers.add("trace.traced_us", traced_total / count.max(1) as f64);
    let path = crate::write_trace(&tracer);
    let notes = vec![
        format!(
            "traced replay of {count} requests: untraced parse + handlers::handle total \
             {:.3} ms, traced total {:.3} ms; {over} request(s) whose layer self times \
             sum above their untraced time by more than {}% + {OVER_SLACK_US} us on \
             the replay and over {RETIMES} retimes",
            handle_total / 1e3,
            traced_total / 1e3,
            OVER_SHARE * 100.0
        ),
        format!("spans written to {path}"),
    ];
    Replay {
        layers,
        notes,
        consistent: over == 0,
    }
}

fn is_over(untraced_us: f64, layers_us: f64) -> bool {
    layers_us > untraced_us * (1.0 + OVER_SHARE) + OVER_SLACK_US
}

/// Times one request again and returns its untraced µs and the sum of its layer self
/// times. The traced pass runs first, since the replay timed the untraced one first.
/// A cold deck's request runs on fresh caches, so both passes miss as they did in
/// the replay; a hot deck's on the warmed ones, so both hit.
fn retime(input: &Input, plain: &Context, traced: &ResultCache, cold: bool) -> (f64, f64) {
    let fresh = cold.then(|| [Context::new(), Context::new(), Context::new()]);
    let (plain, traced, responder) = match &fresh {
        Some([p, t, r]) => (p, &t.cache, r),
        None => (plain, traced, plain),
    };
    let raw = input.http_bytes();
    let response = responder.handle(&parse_request(&raw));
    let mut tracer = Tracer::new();
    decomposed(&mut tracer, input, traced, &response);
    drop(response);
    let started = Instant::now();
    let response = plain.handle(&parse_request(&raw));
    let untraced_us = started.elapsed().as_secs_f64() * 1e6;
    drop(response);
    (untraced_us, tracer.self_times()[1..].iter().sum())
}

/// Cache key of the decomposed pipeline: endpoint, input fingerprint and query.
fn key(request: &Request, fingerprint: u128) -> u128 {
    let mut fp = Fingerprint128::new();
    fp.fold_bytes(request.path.as_bytes());
    fp.fold(fingerprint as u64);
    fp.fold((fingerprint >> 64) as u64);
    for (name, value) in &request.query {
        fp.fold_bytes(name.as_bytes());
        fp.fold_bytes(value.as_bytes());
    }
    fp.finish()
}

fn explore_options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        reach: ReachabilityOptions {
            max_markings: ANALYZE_MAX_MARKINGS,
            ..ReachabilityOptions::default()
        },
        threads,
        ..ExploreOptions::default()
    }
}

fn qss_options() -> QssOptions {
    QssOptions {
        allocation: AllocationOptions {
            max_allocations: RequestLimits::default().max_allocations,
        },
        ..QssOptions::default()
    }
}

/// One request through the handler's layers, each in its own span under a
/// `request` root. `response` is the plain handler's answer, memoised on a miss the
/// way the handler memoises it. Returns whether the cache missed and the work counts
/// of the request.
fn decomposed(
    tracer: &mut Tracer,
    input: &Input,
    cache: &ResultCache,
    response: &Response,
) -> (bool, Vec<(&'static str, f64)>) {
    let raw = input.http_bytes();
    let mut counts = Vec::new();
    tracer.begin(input.index, "request");
    let request = tracer.span("serve.http_parse", || parse_request(&raw));
    let text = std::str::from_utf8(&request.body).expect("generated bodies are UTF-8");
    let miss = if input.card.kind == Kind::Synthesize {
        let lts = tracer
            .span("lts.parse", || Lts::parse(text))
            .expect("generated LTS texts parse");
        let fingerprint = tracer.span("lts.fingerprint", || lts.fingerprint());
        let key = key(&request, fingerprint);
        let miss = tracer.span("serve.cache_get", || cache.get(key)).is_none();
        if miss {
            let options = net_synthesis::SynthesisOptions::default();
            tracer
                .span("synthesis.synthesize", || {
                    net_synthesis::synthesize(&lts, &options)
                })
                .expect("generated LTS texts synthesise");
            insert(tracer, cache, key, response);
        }
        miss
    } else {
        let net = tracer
            .span("io.parse_net", || parse_net(text))
            .expect("generated nets parse");
        let fingerprint = tracer.span("io.fingerprint", || net_fingerprint(&net));
        let key = key(&request, fingerprint);
        let miss = tracer.span("serve.cache_get", || cache.get(key)).is_none();
        if miss {
            compute(tracer, &net, input.card.kind, &mut counts);
            insert(tracer, cache, key, response);
        }
        miss
    };
    tracer.end();
    (miss, counts)
}

fn insert(tracer: &mut Tracer, cache: &ResultCache, key: u128, response: &Response) {
    let entry = Arc::new(CachedResponse {
        status: response.status,
        body: Arc::clone(&response.body),
    });
    tracer.span("serve.cache_insert", || cache.insert(key, entry));
}

/// The engine stages of a net endpoint on a cache miss.
fn compute(tracer: &mut Tracer, net: &PetriNet, kind: Kind, counts: &mut Vec<(&'static str, f64)>) {
    match kind {
        Kind::Schedule | Kind::CodegenC | Kind::CodegenRust => {
            let options = qss_options();
            let outcome = tracer
                .span("qss.schedule", || quasi_static_schedule(net, &options))
                .expect("deck nets are free-choice and within the allocation cap");
            if kind == Kind::Schedule {
                tracer.span("qss.render", || schedule_response_body(net, &outcome));
                return;
            }
            let schedule = outcome.schedule().expect("codegen cards are schedulable");
            let program = tracer
                .span("codegen.ir", || {
                    fcpn_codegen::synthesize(net, &schedule, Default::default())
                })
                .expect("task IR builds");
            tracer.span("codegen.emit", || {
                if kind == Kind::CodegenRust {
                    emit_rust(&program, net, RustEmitOptions::default())
                } else {
                    emit_c(&program, net, CEmitOptions::default())
                }
            });
            let metrics = tracer.span("codegen.metrics", || CodeMetrics::of(&program, net));
            counts.push(("codegen.ir_statements", metrics.ir_statements as f64));
        }
        Kind::Analyze { par } => {
            let options = explore_options(if par { 2 } else { 1 });
            let space = tracer
                .span("statespace.explore", || {
                    StateSpace::try_explore_with(net, &options)
                })
                .expect("no budget is armed");
            tracer.span("analysis.deadlock", || find_deadlock_in(net, &space));
            tracer.span("analysis.liveness", || check_liveness_in(net, &space));
            tracer.span("analysis.boundedness", || {
                if space.is_complete() {
                    Boundedness::Bounded {
                        k: space.max_tokens_observed(),
                    }
                } else {
                    try_check_boundedness_with(net, BoundednessOptions::default(), &options)
                        .expect("no budget is armed")
                }
            });
        }
        Kind::Synthesize => unreachable!("LTS inputs take the synthesis path"),
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Layer detail outside the request's span tree, measured once per distinct card
/// (renamed copies of a card share their structure, hence their work).
fn detail(input: &Input) -> Vec<(&'static str, f64)> {
    let text = input.body.as_str();
    match input.card.kind {
        Kind::Schedule | Kind::CodegenC | Kind::CodegenRust => {
            let net = parse_net(text).expect("generated nets parse");
            let allocations = allocation_iter_gray(&net, qss_options().allocation)
                .expect("within the allocation cap");
            let mut reduce_only = ReductionWorkspace::new();
            let mut workspace = ReductionWorkspace::new();
            let mut checker = ComponentChecker::new(&net);
            let mut cache = ComponentCache::default();
            let mut seen = HashSet::new();
            let (mut count, mut reduce_ms, mut check_ms, mut farkas_ms) = (0.0, 0.0, 0.0, 0.0);
            for (_, allocation) in allocations {
                count += 1.0;
                let started = Instant::now();
                reduce_only.reduce(&net, &allocation, false);
                reduce_ms += ms_since(started);
                let started = Instant::now();
                checker.check(&allocation, &mut workspace, &mut cache);
                check_ms += ms_since(started);
                let (component, _) = net
                    .induced_subnet(reduce_only.kept_places(), reduce_only.kept_transitions())
                    .expect("kept nodes belong to the net");
                if seen.insert(net_structural_fingerprint(&component)) {
                    let started = Instant::now();
                    let _ = InvariantAnalysis::t_semiflows_of(&component);
                    farkas_ms += ms_since(started);
                }
            }
            vec![
                ("qss.allocations", count),
                ("qss.reduce_ms", reduce_ms),
                ("qss.check_ms", check_ms),
                ("qss.farkas_ms", farkas_ms),
            ]
        }
        Kind::Analyze { .. } => {
            let net = parse_net(text).expect("generated nets parse");
            let started = Instant::now();
            let space = StateSpace::explore_with(&net, &explore_options(1));
            let sequential_ms = ms_since(started);
            let started = Instant::now();
            let parallel = StateSpace::explore_with(&net, &explore_options(2));
            let parallel_ms = ms_since(started);
            assert_eq!(space.state_count(), parallel.state_count());
            vec![
                ("statespace.explore_ms", sequential_ms),
                ("statespace.explore_par2_ms", parallel_ms),
                ("statespace.states", space.state_count() as f64),
                ("statespace.edges", space.edge_count() as f64),
            ]
        }
        Kind::Synthesize => {
            let lts = Lts::parse(text).expect("generated LTS texts parse");
            let run = |verify: bool| {
                let options = net_synthesis::SynthesisOptions {
                    verify,
                    ..Default::default()
                };
                let started = Instant::now();
                let out = net_synthesis::synthesize(&lts, &options).expect("synthesisable");
                (ms_since(started), out.stats)
            };
            let (regions_ms, stats) = run(false);
            let (verified_ms, _) = run(true);
            vec![
                ("synthesis.regions_ms", regions_ms),
                ("synthesis.verify_ms", (verified_ms - regions_ms).max(0.0)),
                (
                    "synthesis.candidate_regions",
                    stats.candidate_regions as f64,
                ),
                ("synthesis.essp_instances", stats.essp_instances as f64),
                ("synthesis.places", stats.places as f64),
            ]
        }
    }
}
