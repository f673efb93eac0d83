//! Emits the machine-readable benchmark baseline consumed by the `BENCH_*.json`
//! trajectory at the repository root, plus the scaling ablation table (choice-chain
//! sweep) used by EXPERIMENTS.md.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fcpn-bench --example scaling_table -- --out BENCH_statespace.json
//! ```
//!
//! Without `--out` the JSON goes to stdout. `FCPN_BENCH_SAMPLES` controls the number of
//! interleaved measurement rounds per case (default 9).
//!
//! Schema v9 drops the scheduler's `threads` rows and the explore engine rows'
//! constant `"threads": 1`: the scheduler's allocation sweep and the explorer both run
//! on the calling thread. `host_cores` stays, to say what host the rows were taken on.
//!
//! Schema v8 drops the `server` section that v5 added: the repository benchmark
//! (`perfbench/`, declared in `BENCHMARK.json`) measures the daemon end to end and
//! layer by layer, so this file no longer carries a second daemon load benchmark.
//!
//! Schema v7 adds the `synthesis` section: region-based net synthesis
//! ([`fcpn_petri::synthesis`]) timed end to end — explore a bounded net, rebuild a net
//! from the behaviour via the sparse Farkas region basis, verify by re-exploration —
//! with the basis and emitted-place counts recorded next to the wall time.
//!
//! Schema v6 adds the `executor` section: the compiled schedule executor
//! ([`fcpn_codegen::ExecSession`], flat jump-resolved bytecode over a dense counter
//! pool) against the tree-walking interpreter oracle, pumping the same activation
//! stream through both and recording sustained events/sec (see
//! `fcpn_bench::pump_interpreter` / `pump_compiled` and the `codegen_exec` bench).
//!
//! Schema v4: every explore case records one row per engine configuration (token width)
//! alongside the retained naive and sequential-`u64` baselines; the QSS sweep records
//! the component-cache wall time against the uncached path; the `firing_session` rows
//! time the [`FiringSession`] trace fast path against the seed token game; the `table1`
//! section records the ATM functional-baseline simulation (and the full Table I
//! harness) on both paths; and the `scheduler` section holds the zero-allocation
//! scheduling pipeline (gray-code sweep + workspace reductions + fingerprint cache +
//! sparse fraction-free Farkas) against the retained seed pipeline — end to end
//! (cached, uncached) and per layer (the reduction sweep and the Farkas elimination in
//! isolation). Speedups are measured with **interleaved rounds** — each round times
//! every configuration back to back, and the recorded speedup is the median of the
//! per-round ratios. On a machine with background load this is far more stable than
//! comparing two independently taken medians.
//!
//! [`FiringSession`]: fcpn_petri::statespace::FiringSession

use fcpn_atm::{
    functional_partition, generate_workload, run_table1, run_table1_naive, AtmChoicePolicy,
    AtmConfig, AtmModel, Table1Config, TrafficConfig,
};
use fcpn_bench::{
    program_of_with, pump_compiled, pump_interpreter, run_naive_trace, run_session_trace,
};
use fcpn_codegen::{CodeMetrics, CompiledProgram};
use fcpn_petri::analysis::{
    IncidenceMatrix, InvariantAnalysis, ReachabilityGraph, ReachabilityOptions,
};
use fcpn_petri::statespace::{ExploreOptions, StateSpace, TokenWidth};
use fcpn_petri::synthesis::{synthesize, Lts, SynthesisOptions};
use fcpn_petri::{gallery, PetriNet};
use fcpn_qss::{
    allocation_iter, allocation_iter_gray, quasi_static_schedule, quasi_static_schedule_naive,
    AllocationOptions, QssOptions, ReductionWorkspace, TReduction,
};
use fcpn_rtos::{simulate_functional_partition, simulate_functional_partition_naive, CostModel};
use std::hint::black_box;
use std::time::Instant;

struct ExploreCase {
    label: &'static str,
    net: PetriNet,
    options: ReachabilityOptions,
}

struct EngineRow {
    /// Resolved width name (`Auto` resolves at explore time).
    width: &'static str,
    best_ms: f64,
    speedup_vs_naive: f64,
    /// Median per-round ratio against the sequential u64 engine (the PR 1 baseline).
    speedup_vs_seq_u64: f64,
}

struct ExploreRow {
    label: &'static str,
    options: ReachabilityOptions,
    states: usize,
    edges: usize,
    complete: bool,
    naive_ms: f64,
    engine: Vec<EngineRow>,
}

fn samples() -> usize {
    std::env::var("FCPN_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

struct SynthesisRow {
    label: &'static str,
    states: usize,
    labels: usize,
    candidate_regions: usize,
    places: usize,
    verified: bool,
    best_ms: f64,
}

/// Times the full synthesis pipeline (region basis + separation + verification) on a
/// pre-explored behaviour; the exploration itself is excluded — the `explore` section
/// already covers it.
fn measure_synthesis(label: &'static str, net: &PetriNet) -> SynthesisRow {
    let space = StateSpace::explore(
        net,
        ReachabilityOptions {
            max_markings: 1_000_000,
            max_tokens_per_place: 64,
        },
    );
    let lts = Lts::from_statespace(net, &space).expect("bench nets are bounded");
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..samples() {
        let start = Instant::now();
        let out = synthesize(black_box(&lts), &SynthesisOptions::default())
            .expect("bench nets synthesize");
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    let out = last.expect("at least one sample");
    SynthesisRow {
        label,
        states: out.stats.states,
        labels: out.stats.labels,
        candidate_regions: out.stats.candidate_regions,
        places: out.stats.places,
        verified: out.stats.verified,
        best_ms: times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
    }
}

fn measure_explore(case: &ExploreCase) -> ExploreRow {
    // One engine row per width, next to the naive baseline; the first is the
    // `speedup_vs_seq_u64` reference.
    let widths = [TokenWidth::U64, TokenWidth::Auto];

    let reference = StateSpace::explore(&case.net, case.options);
    let (states, edges, complete) = (
        reference.state_count(),
        reference.edge_count(),
        reference.is_complete(),
    );
    drop(reference);

    // Interleaved rounds: one naive + one of each engine configuration per round. The
    // resolved width name is captured from the first round's space rather than from
    // extra untimed explorations.
    let mut naive_times: Vec<f64> = Vec::new();
    let mut engine_times: Vec<Vec<f64>> = vec![Vec::new(); widths.len()];
    let mut resolved_widths: Vec<&'static str> = vec![""; widths.len()];
    for _ in 0..samples() {
        let start = Instant::now();
        black_box(ReachabilityGraph::explore_naive(
            black_box(&case.net),
            case.options,
        ));
        naive_times.push(start.elapsed().as_secs_f64());
        for (i, &requested) in widths.iter().enumerate() {
            let options = ExploreOptions {
                reach: case.options,
                width: requested,
                ..ExploreOptions::default()
            };
            let start = Instant::now();
            let space = StateSpace::explore_with(black_box(&case.net), &options);
            let width = black_box(space.token_width());
            drop(space);
            engine_times[i].push(start.elapsed().as_secs_f64());
            resolved_widths[i] = width.name();
        }
    }

    let engine = engine_times
        .iter()
        .zip(resolved_widths)
        .map(|(times, width)| EngineRow {
            width,
            best_ms: times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            speedup_vs_naive: median(naive_times.iter().zip(times).map(|(n, e)| n / e).collect()),
            speedup_vs_seq_u64: median(
                engine_times[0]
                    .iter()
                    .zip(times)
                    .map(|(u, e)| u / e)
                    .collect(),
            ),
        })
        .collect();

    ExploreRow {
        label: case.label,
        options: case.options,
        states,
        edges,
        complete,
        naive_ms: naive_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        engine,
    }
}

/// One row of the firing-session trace comparison: the deterministic rotating trace of
/// `fcpn_bench::run_naive_trace` / `run_session_trace`, timed head to head.
struct TraceRow {
    label: &'static str,
    firings: u64,
    naive_best_ms: f64,
    session_best_ms: f64,
    speedup: f64,
}

const TRACE_STEPS: usize = 20_000;

fn measure_trace(label: &'static str, net: &PetriNet) -> TraceRow {
    // The two paths must execute the identical trace before anything is timed.
    let (naive_fired, naive_marking) = run_naive_trace(net, TRACE_STEPS);
    let (session_fired, session_marking) = run_session_trace(net, TRACE_STEPS);
    assert_eq!(naive_fired, session_fired, "trace diverged on {label}");
    assert_eq!(
        naive_marking, session_marking,
        "marking diverged on {label}"
    );

    let mut naive_times: Vec<f64> = Vec::new();
    let mut session_times: Vec<f64> = Vec::new();
    for _ in 0..samples() {
        let start = Instant::now();
        black_box(run_naive_trace(black_box(net), TRACE_STEPS));
        naive_times.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run_session_trace(black_box(net), TRACE_STEPS));
        session_times.push(start.elapsed().as_secs_f64());
    }
    TraceRow {
        label,
        firings: naive_fired,
        naive_best_ms: naive_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        session_best_ms: session_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        speedup: median(
            naive_times
                .iter()
                .zip(&session_times)
                .map(|(n, s)| n / s)
                .collect(),
        ),
    }
}

/// One row of the `executor` section: the compiled streaming runtime versus the
/// tree-walking interpreter, pumping the same activation stream (round-robin tasks,
/// round-robin choices) through both engines.
struct ExecutorRow {
    label: &'static str,
    tasks: usize,
    bytecode_ops: usize,
    activations: usize,
    firings: u64,
    interp_best_ms: f64,
    compiled_best_ms: f64,
    speedup: f64,
    /// Sustained task activations per second on the compiled runtime (best round).
    compiled_events_per_sec: f64,
}

const EXEC_ACTIVATIONS: usize = 20_000;

fn measure_executor(label: &'static str, net: &PetriNet) -> ExecutorRow {
    let (_, program) = program_of_with(net, &QssOptions::default());
    let compiled = CompiledProgram::compile(&program, net);
    // Both engines must perform identical work before anything is timed.
    let (interp_fired, interp_counts) = pump_interpreter(&program, net, EXEC_ACTIVATIONS);
    let (exec_fired, exec_counts) = pump_compiled(&compiled, EXEC_ACTIVATIONS);
    assert_eq!(interp_fired, exec_fired, "{label}: firing totals diverged");
    assert_eq!(interp_counts, exec_counts, "{label}: fire counts diverged");

    let mut interp_times: Vec<f64> = Vec::new();
    let mut compiled_times: Vec<f64> = Vec::new();
    for _ in 0..samples() {
        let start = Instant::now();
        black_box(pump_interpreter(
            black_box(&program),
            black_box(net),
            EXEC_ACTIVATIONS,
        ));
        interp_times.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(pump_compiled(black_box(&compiled), EXEC_ACTIVATIONS));
        compiled_times.push(start.elapsed().as_secs_f64());
    }
    let best = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    ExecutorRow {
        label,
        tasks: compiled.task_count(),
        bytecode_ops: compiled.op_count(),
        activations: EXEC_ACTIVATIONS,
        firings: interp_fired,
        interp_best_ms: best(&interp_times) * 1e3,
        compiled_best_ms: best(&compiled_times) * 1e3,
        speedup: median(
            interp_times
                .iter()
                .zip(&compiled_times)
                .map(|(i, c)| i / c)
                .collect(),
        ),
        compiled_events_per_sec: EXEC_ACTIVATIONS as f64 / best(&compiled_times),
    }
}

/// The Table I section: the ATM functional-baseline simulation and the full harness on
/// the session fast path versus the retained naive simulator.
struct Table1Rows {
    model: String,
    events: usize,
    qss_cycles: u64,
    functional_cycles: u64,
    cycle_ratio: f64,
    sim_naive_best_ms: f64,
    sim_session_best_ms: f64,
    sim_speedup: f64,
    harness_naive_best_ms: f64,
    harness_session_best_ms: f64,
    harness_speedup: f64,
}

fn measure_table1() -> Table1Rows {
    let atm_config = AtmConfig::paper();
    let model = AtmModel::build(atm_config).expect("atm model builds");
    let traffic = TrafficConfig::paper();
    let workload = generate_workload(&model, &traffic, 1999);
    let tasks = functional_partition(&model);
    let cost = CostModel::default();
    let config = Table1Config::default();

    // Equivalence gate: identical tables on both simulators before timing.
    let fast = run_table1(&model, &config).expect("table 1 runs");
    let naive = run_table1_naive(&model, &config).expect("table 1 runs");
    assert_eq!(fast.functional, naive.functional, "table 1 diverged");
    assert_eq!(fast.qss, naive.qss, "table 1 diverged");

    let mut sim_naive: Vec<f64> = Vec::new();
    let mut sim_session: Vec<f64> = Vec::new();
    let mut harness_naive: Vec<f64> = Vec::new();
    let mut harness_session: Vec<f64> = Vec::new();
    for _ in 0..samples() {
        let start = Instant::now();
        let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
        black_box(
            simulate_functional_partition_naive(&model.net, &tasks, &cost, &workload, &mut policy)
                .expect("simulation"),
        );
        sim_naive.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
        black_box(
            simulate_functional_partition(&model.net, &tasks, &cost, &workload, &mut policy)
                .expect("simulation"),
        );
        sim_session.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run_table1_naive(&model, &config).expect("table 1 runs"));
        harness_naive.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run_table1(&model, &config).expect("table 1 runs"));
        harness_session.push(start.elapsed().as_secs_f64());
    }
    let best = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
    let ratio = |a: &[f64], b: &[f64]| median(a.iter().zip(b).map(|(x, y)| x / y).collect());
    Table1Rows {
        model: format!("atm(queues={})", atm_config.queues),
        events: fast.qss_report.events_processed,
        qss_cycles: fast.qss.clock_cycles,
        functional_cycles: fast.functional.clock_cycles,
        cycle_ratio: fast.cycle_ratio(),
        sim_naive_best_ms: best(&sim_naive),
        sim_session_best_ms: best(&sim_session),
        sim_speedup: ratio(&sim_naive, &sim_session),
        harness_naive_best_ms: best(&harness_naive),
        harness_session_best_ms: best(&harness_session),
        harness_speedup: ratio(&harness_naive, &harness_session),
    }
}

/// One net of the `scheduler` section: the production pipeline versus the retained seed
/// pipeline, end to end and per layer.
struct SchedulerRow {
    label: String,
    allocations: u128,
    /// End-to-end `quasi_static_schedule` walls: component cache disabled (isolates the
    /// per-allocation pipeline — reduction, signature, Farkas, cycle simulation) and
    /// enabled (the production default).
    uncached_naive_ms: f64,
    uncached_fast_ms: f64,
    uncached_speedup: f64,
    cached_naive_ms: f64,
    cached_fast_ms: f64,
    cached_speedup: f64,
    /// Layer ablation: the reduction sweep alone (seed BTreeSets vs gray+workspace).
    reduce_naive_ms: f64,
    reduce_workspace_ms: f64,
    reduce_speedup: f64,
    /// Layer ablation: one representative component's invariant analysis (dense vs
    /// sparse fraction-free Farkas, T- and P-sides as `of_matrix` computes them).
    farkas_naive_ms: f64,
    farkas_sparse_ms: f64,
    farkas_speedup: f64,
}

fn measure_scheduler(label: &str, net: &PetriNet) -> SchedulerRow {
    let options = |cache: bool| QssOptions {
        reuse_component_cache: cache,
        ..QssOptions::default()
    };
    // Equivalence gate before timing: the production pipeline must reproduce the seed
    // pipeline bit for bit in every measured configuration.
    let reference = quasi_static_schedule_naive(net, &options(false)).expect("fc input");
    for cache in [true, false] {
        let outcome = quasi_static_schedule(net, &options(cache)).expect("fc input");
        assert_eq!(reference, outcome, "{label}: cache={cache}");
    }
    let allocations = allocation_iter_gray(net, AllocationOptions::default())
        .expect("fc input")
        .total();
    // A representative component for the Farkas layer: the first allocation's reduction
    // (symmetric nets reduce every allocation to this shape).
    let first_allocation = allocation_iter(net, AllocationOptions::default())
        .expect("fc input")
        .next()
        .expect("at least one allocation");
    let component = TReduction::compute(net, first_allocation)
        .expect("reduce")
        .net;
    let component_matrix = IncidenceMatrix::from_net(&component);

    let mut uncached_naive: Vec<f64> = Vec::new();
    let mut uncached_fast: Vec<f64> = Vec::new();
    let mut cached_naive: Vec<f64> = Vec::new();
    let mut cached_fast: Vec<f64> = Vec::new();
    let mut reduce_naive: Vec<f64> = Vec::new();
    let mut reduce_workspace: Vec<f64> = Vec::new();
    let mut farkas_naive: Vec<f64> = Vec::new();
    let mut farkas_sparse: Vec<f64> = Vec::new();
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    for _ in 0..samples() {
        uncached_naive.push(time(&mut || {
            black_box(quasi_static_schedule_naive(black_box(net), &options(false)).unwrap());
        }));
        uncached_fast.push(time(&mut || {
            black_box(quasi_static_schedule(black_box(net), &options(false)).unwrap());
        }));
        cached_naive.push(time(&mut || {
            black_box(quasi_static_schedule_naive(black_box(net), &options(true)).unwrap());
        }));
        cached_fast.push(time(&mut || {
            black_box(quasi_static_schedule(black_box(net), &options(true)).unwrap());
        }));
        reduce_naive.push(time(&mut || {
            for allocation in allocation_iter(net, AllocationOptions::default()).unwrap() {
                black_box(TReduction::compute(net, allocation).unwrap());
            }
        }));
        reduce_workspace.push(time(&mut || {
            let mut ws = ReductionWorkspace::new();
            for (_, allocation) in allocation_iter_gray(net, AllocationOptions::default()).unwrap()
            {
                ws.reduce(net, &allocation, false);
                black_box(ws.kept_transitions());
            }
        }));
        farkas_naive.push(time(&mut || {
            black_box(InvariantAnalysis::of_matrix_naive(black_box(
                &component_matrix,
            )));
        }));
        farkas_sparse.push(time(&mut || {
            black_box(InvariantAnalysis::of_matrix(black_box(&component_matrix)));
        }));
    }
    let best = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
    let ratio = |a: &[f64], b: &[f64]| median(a.iter().zip(b).map(|(x, y)| x / y).collect());
    SchedulerRow {
        label: label.to_string(),
        allocations,
        uncached_naive_ms: best(&uncached_naive),
        uncached_fast_ms: best(&uncached_fast),
        uncached_speedup: ratio(&uncached_naive, &uncached_fast),
        cached_naive_ms: best(&cached_naive),
        cached_fast_ms: best(&cached_fast),
        cached_speedup: ratio(&cached_naive, &cached_fast),
        reduce_naive_ms: best(&reduce_naive),
        reduce_workspace_ms: best(&reduce_workspace),
        reduce_speedup: ratio(&reduce_naive, &reduce_workspace),
        farkas_naive_ms: best(&farkas_naive),
        farkas_sparse_ms: best(&farkas_sparse),
        farkas_speedup: ratio(&farkas_naive, &farkas_sparse),
    }
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
    };

    let open = ReachabilityOptions {
        max_markings: 60_000,
        max_tokens_per_place: 8,
    };
    let cases = [
        ExploreCase {
            label: "choice_chain(8)",
            net: gallery::choice_chain(8),
            options: open,
        },
        ExploreCase {
            label: "cycle_bank(14)",
            net: gallery::cycle_bank(14),
            options: ReachabilityOptions::default(),
        },
        ExploreCase {
            label: "marked_ring(12,6)",
            net: gallery::marked_ring(12, 6),
            options: ReachabilityOptions::default(),
        },
        ExploreCase {
            label: "figure5",
            net: gallery::figure5(),
            options: open,
        },
    ];

    eprintln!(
        "measuring explore throughput ({} interleaved rounds per case)...",
        samples()
    );
    let rows: Vec<ExploreRow> = cases.iter().map(measure_explore).collect();
    for row in &rows {
        eprintln!(
            "  {:<20} {:>7} states {:>8} edges  naive {:>9.3}ms",
            row.label, row.states, row.edges, row.naive_ms
        );
        for engine in &row.engine {
            eprintln!(
                "    width={:<4} best {:>9.3}ms  vs naive {:>5.2}x  vs seq-u64 {:>5.2}x",
                engine.width, engine.best_ms, engine.speedup_vs_naive, engine.speedup_vs_seq_u64
            );
        }
    }

    eprintln!(
        "measuring firing-session trace throughput ({TRACE_STEPS} steps, {} rounds)...",
        samples()
    );
    let trace_rows: Vec<TraceRow> = vec![
        measure_trace("figure5", &gallery::figure5()),
        measure_trace("choice_chain(8)", &gallery::choice_chain(8)),
        measure_trace("marked_ring(12,6)", &gallery::marked_ring(12, 6)),
        measure_trace("cycle_bank(12)", &gallery::cycle_bank(12)),
    ];
    for row in &trace_rows {
        eprintln!(
            "  {:<20} {:>7} firings  naive {:>8.3}ms  session {:>8.3}ms  {:>5.2}x",
            row.label, row.firings, row.naive_best_ms, row.session_best_ms, row.speedup
        );
    }

    eprintln!(
        "measuring compiled executor vs interpreter ({EXEC_ACTIVATIONS} activations, {} rounds)...",
        samples()
    );
    let executor_rows: Vec<ExecutorRow> = vec![
        measure_executor("figure3a", &gallery::figure3a()),
        measure_executor("figure4", &gallery::figure4()),
        measure_executor("figure5", &gallery::figure5()),
        measure_executor("choice_chain(8)", &gallery::choice_chain(8)),
    ];
    for row in &executor_rows {
        eprintln!(
            "  {:<18} {:>7} firings  interp {:>8.3}ms  compiled {:>8.3}ms  {:>5.2}x  ({:.0} events/s)",
            row.label,
            row.firings,
            row.interp_best_ms,
            row.compiled_best_ms,
            row.speedup,
            row.compiled_events_per_sec
        );
    }

    eprintln!("measuring Table I on the session vs naive functional simulator...");
    let table1 = measure_table1();
    eprintln!(
        "  functional sim: naive {:>8.3}ms  session {:>8.3}ms  {:>5.2}x  ({} cycles, {} events)",
        table1.sim_naive_best_ms,
        table1.sim_session_best_ms,
        table1.sim_speedup,
        table1.functional_cycles,
        table1.events
    );
    eprintln!(
        "  full harness:   naive {:>8.3}ms  session {:>8.3}ms  {:>5.2}x (dominated by scheduling + synthesis)",
        table1.harness_naive_best_ms, table1.harness_session_best_ms, table1.harness_speedup
    );

    // The scheduling pipeline: production (gray + workspace + fingerprint cache +
    // sparse Farkas) against the retained seed pipeline, on the paper figures, the
    // choice-chain sweep sizes and both ATM model sizes.
    eprintln!(
        "measuring scheduler pipeline ({} interleaved rounds per net)...",
        samples()
    );
    let atm_small = AtmModel::build(AtmConfig::small()).expect("atm model builds");
    let atm_paper = AtmModel::build(AtmConfig::paper()).expect("atm model builds");
    let owned_nets: Vec<(String, PetriNet)> = vec![
        ("figure2".into(), gallery::figure2()),
        ("figure5".into(), gallery::figure5()),
        ("figure7".into(), gallery::figure7()),
        ("choice_chain(10)".into(), gallery::choice_chain(10)),
        ("choice_chain(12)".into(), gallery::choice_chain(12)),
        ("choice_chain(14)".into(), gallery::choice_chain(14)),
        ("atm(queues=2)".into(), atm_small.net.clone()),
        ("atm(queues=4)".into(), atm_paper.net.clone()),
    ];
    let scheduler_rows: Vec<SchedulerRow> = owned_nets
        .iter()
        .map(|(label, net)| {
            let row = measure_scheduler(label, net);
            eprintln!(
                "  {:<18} {:>6} allocs  uncached {:>9.2} -> {:>8.2}ms ({:>5.2}x)  cached {:>8.2} -> {:>7.2}ms ({:>5.2}x)",
                row.label,
                row.allocations,
                row.uncached_naive_ms,
                row.uncached_fast_ms,
                row.uncached_speedup,
                row.cached_naive_ms,
                row.cached_fast_ms,
                row.cached_speedup,
            );
            eprintln!(
                "  {:<18} layers: reduce {:>8.3} -> {:>7.3}ms ({:>5.2}x)  farkas {:>7.4} -> {:>7.4}ms ({:>5.2}x)",
                "",
                row.reduce_naive_ms,
                row.reduce_workspace_ms,
                row.reduce_speedup,
                row.farkas_naive_ms,
                row.farkas_sparse_ms,
                row.farkas_speedup,
            );
            row
        })
        .collect();

    // Region-based synthesis: bounded nets round-tripped through their behaviour. Each
    // case times the full pipeline (region basis + separation + verification) on a
    // pre-explored LTS; the basis and place counts calibrate the times.
    eprintln!("measuring region-based synthesis (bounded nets)...");
    let synthesis_rows: Vec<SynthesisRow> = [
        ("marked_ring(6,3)", gallery::marked_ring(6, 3)),
        ("marked_ring(10,5)", gallery::marked_ring(10, 5)),
        ("marked_ring(12,4)", gallery::marked_ring(12, 4)),
        ("cycle_bank(4)", gallery::cycle_bank(4)),
    ]
    .iter()
    .map(|(label, net)| {
        let row = measure_synthesis(label, net);
        eprintln!(
            "  {:<18} states={:>5} labels={:>3} basis={:>4} places={:>4}  {:>8.3}ms",
            row.label, row.states, row.labels, row.candidate_regions, row.places, row.best_ms,
        );
        row
    })
    .collect();

    // The paper's complexity ablation: schedule + synthesise a sweep of choice chains,
    // with the component cache on (the default) and off.
    eprintln!("measuring QSS + codegen scaling sweep (cache on/off)...");
    let cached_options = QssOptions::default();
    let uncached_options = QssOptions {
        reuse_component_cache: false,
        ..QssOptions::default()
    };
    let mut scaling = Vec::new();
    for n in [1usize, 2, 4, 6, 8, 10] {
        let net = gallery::choice_chain(n);
        // Warm-up (also provides the metrics), then interleaved cached/uncached rounds —
        // a single ordered pair would charge process warm-up to whichever ran first and
        // make the small-n ratios pure noise.
        let (schedule, program) = program_of_with(&net, &cached_options);
        let mut cached_times: Vec<f64> = Vec::new();
        let mut uncached_times: Vec<f64> = Vec::new();
        for _ in 0..samples() {
            let start = Instant::now();
            black_box(program_of_with(black_box(&net), &cached_options));
            cached_times.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(program_of_with(black_box(&net), &uncached_options));
            uncached_times.push(start.elapsed().as_secs_f64());
        }
        let wall_ms = cached_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
        let wall_uncached_ms = uncached_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
        let cache_speedup = median(
            cached_times
                .iter()
                .zip(&uncached_times)
                .map(|(c, u)| u / c)
                .collect(),
        );
        let metrics = CodeMetrics::of(&program, &net);
        scaling.push((
            n,
            schedule.cycle_count(),
            metrics.ir_statements,
            metrics.lines_of_c,
            wall_ms,
            wall_uncached_ms,
            cache_speedup,
        ));
        eprintln!(
            "  choices={n:>2} cycles={:>4} ir={:>5} c_lines={:>5} wall={wall_ms:.2}ms uncached={wall_uncached_ms:.2}ms ({cache_speedup:.2}x)",
            schedule.cycle_count(),
            metrics.ir_statements,
            metrics.lines_of_c,
        );
    }

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"fcpn-bench/statespace-v9\",\n");
    json.push_str(&format!("  \"samples_per_case\": {},\n", samples()));
    // Every row is single-threaded; the core count records the host they ran on.
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str("  \"explore\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"net\": \"{}\", \"max_markings\": {}, \"max_tokens_per_place\": {}, \
             \"states\": {}, \"edges\": {}, \"complete\": {}, \"naive_best_ms\": {:.3},\n",
            row.label,
            row.options.max_markings,
            row.options.max_tokens_per_place,
            row.states,
            row.edges,
            row.complete,
            row.naive_ms,
        ));
        json.push_str("     \"engine\": [\n");
        for (j, engine) in row.engine.iter().enumerate() {
            json.push_str(&format!(
                "       {{\"token_width\": \"{}\", \"best_ms\": {:.3}, \
                 \"speedup_vs_naive\": {:.2}, \"speedup_vs_seq_u64\": {:.2}}}{}\n",
                engine.width,
                engine.best_ms,
                engine.speedup_vs_naive,
                engine.speedup_vs_seq_u64,
                if j + 1 < row.engine.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"firing_session\": [\n");
    for (i, row) in trace_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"net\": \"{}\", \"trace_steps\": {}, \"firings\": {}, \
             \"naive_best_ms\": {:.3}, \"session_best_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            row.label,
            TRACE_STEPS,
            row.firings,
            row.naive_best_ms,
            row.session_best_ms,
            row.speedup,
            if i + 1 < trace_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"executor\": [\n");
    for (i, row) in executor_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"net\": \"{}\", \"tasks\": {}, \"bytecode_ops\": {}, \
             \"activations\": {}, \"firings\": {}, \"interp_best_ms\": {:.3}, \
             \"compiled_best_ms\": {:.3}, \"speedup\": {:.2}, \
             \"compiled_events_per_sec\": {:.0}}}{}\n",
            row.label,
            row.tasks,
            row.bytecode_ops,
            row.activations,
            row.firings,
            row.interp_best_ms,
            row.compiled_best_ms,
            row.speedup,
            row.compiled_events_per_sec,
            if i + 1 < executor_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"table1\": {{\"model\": \"{}\", \"events\": {}, \"qss_cycles\": {}, \
         \"functional_cycles\": {}, \"cycle_ratio\": {:.2},\n",
        table1.model,
        table1.events,
        table1.qss_cycles,
        table1.functional_cycles,
        table1.cycle_ratio
    ));
    json.push_str(&format!(
        "    \"functional_sim\": {{\"naive_best_ms\": {:.3}, \"session_best_ms\": {:.3}, \
         \"speedup\": {:.2}}},\n",
        table1.sim_naive_best_ms, table1.sim_session_best_ms, table1.sim_speedup
    ));
    json.push_str(&format!(
        "    \"run_table1\": {{\"naive_best_ms\": {:.3}, \"session_best_ms\": {:.3}, \
         \"speedup\": {:.2}}}}},\n",
        table1.harness_naive_best_ms, table1.harness_session_best_ms, table1.harness_speedup
    ));
    json.push_str("  \"scheduler\": [\n");
    for (i, row) in scheduler_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"net\": \"{}\", \"allocations\": {},\n",
            row.label, row.allocations
        ));
        json.push_str(&format!(
            "     \"uncached\": {{\"naive_ms\": {:.3}, \"fast_ms\": {:.3}, \"speedup\": {:.2}}},\n",
            row.uncached_naive_ms, row.uncached_fast_ms, row.uncached_speedup
        ));
        json.push_str(&format!(
            "     \"cached\": {{\"naive_ms\": {:.3}, \"fast_ms\": {:.3}, \"speedup\": {:.2}}},\n",
            row.cached_naive_ms, row.cached_fast_ms, row.cached_speedup
        ));
        json.push_str(&format!(
            "     \"layers\": {{\"reduce_naive_ms\": {:.3}, \"reduce_workspace_ms\": {:.3}, \
             \"reduce_speedup\": {:.2}, \"farkas_naive_ms\": {:.4}, \"farkas_sparse_ms\": {:.4}, \
             \"farkas_speedup\": {:.2}}}}}{}\n",
            row.reduce_naive_ms,
            row.reduce_workspace_ms,
            row.reduce_speedup,
            row.farkas_naive_ms,
            row.farkas_sparse_ms,
            row.farkas_speedup,
            if i + 1 < scheduler_rows.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"synthesis\": [\n");
    for (i, row) in synthesis_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"net\": \"{}\", \"states\": {}, \"labels\": {}, \
             \"candidate_regions\": {}, \"places\": {}, \"verified\": {}, \
             \"best_ms\": {:.3}}}{}\n",
            row.label,
            row.states,
            row.labels,
            row.candidate_regions,
            row.places,
            row.verified,
            row.best_ms,
            if i + 1 < synthesis_rows.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"qss_scaling\": [\n");
    for (i, (n, cycles, ir, c_lines, wall_ms, wall_uncached_ms, cache_speedup)) in
        scaling.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"choices\": {n}, \"cycles\": {cycles}, \"ir_statements\": {ir}, \
             \"lines_of_c\": {c_lines}, \"wall_ms\": {wall_ms:.3}, \
             \"wall_ms_uncached\": {wall_uncached_ms:.3}, \"cache_speedup\": {cache_speedup:.2}}}{}\n",
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write baseline JSON");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
