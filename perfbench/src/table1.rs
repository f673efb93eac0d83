//! The `table1_sim` batch workload: the paper's Table I experiment, no daemon.
//!
//! One experiment is `fcpn_atm::run_table1` on both ATM sizes at one seeded cell
//! count. Next to it the workload runs `fcpn_rtos::simulate_program` on the
//! synthesised program under the library's default backend, which is the run time
//! of the generated code, in calls over consecutive stretches of the events (see
//! [`calls`]): the time of each call is one latency sample. Experiments run in whole
//! rounds (see [`gen::table1_round`]) so every run carries the same mix of traffic
//! sizes.

use crate::daemon;
use crate::gen::{self, sub_seed};
use crate::trace::{Layers, Tracer};
use crate::{median, quantile, Metric, Report};
use fcpn_atm::{
    functional_partition, generate_workload, run_table1, AtmChoicePolicy, AtmConfig, AtmModel,
    Table1Config, TrafficConfig,
};
use fcpn_codegen::{emit_c, synthesize, CEmitOptions, CompiledProgram, ExecSession, Program};
use fcpn_qss::{quasi_static_schedule, QssOptions};
use fcpn_rtos::{
    simulate_functional_partition, simulate_program, simulate_program_with, CostModel, ExecBackend,
    SimReport, Workload,
};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A set-up builds both ATM models and
/// synthesises the program `simulate_program` runs, everything done before timing.
const SETUP_REPEATS: usize = 15;

fn build_models() -> Vec<AtmModel> {
    [AtmConfig::small(), AtmConfig::paper()]
        .into_iter()
        .map(|config| AtmModel::build(config).expect("the ATM model builds"))
        .collect()
}

/// The paper's traffic statistics stretched to `cells` cells, with ticks covering the
/// same time span as in the paper's testbench.
fn traffic(cells: usize) -> TrafficConfig {
    let paper = TrafficConfig::paper();
    TrafficConfig {
        cells,
        ticks: cells * paper.ticks / paper.cells,
        ..paper
    }
}

fn program_of(model: &AtmModel) -> Program {
    let schedule = quasi_static_schedule(&model.net, &QssOptions::default())
        .expect("the ATM model schedules")
        .schedule()
        .expect("the ATM model is schedulable");
    synthesize(&model.net, &schedule, Default::default()).expect("the task IR builds")
}

/// Events per short and per long `simulate_program` call, and every how many calls
/// one is long. Each call is a fresh run of the generated code from the initial
/// marking. As in the daemon decks, the median sits in the middle of the short calls
/// and the 95th percentile in the middle of the long ones. Calls of one length would
/// put the 95th percentile in their own tail, which on a shared host is where its
/// slowest seconds fall.
const SHORT_CALL: usize = 256;
const LONG_CALL: usize = 4096;
const LONG_EVERY: usize = 10;

/// The mean cell count of an experiment in a round of [`gen::table1_round`]; the
/// throughput is stated for experiments of this size.
const MEAN_CELLS: f64 = (10_000 + 25_000 + 50_000 + 100_000) as f64 / 4.0;

/// The workload cut into consecutive calls, nine short and then one long, built
/// before timing. The last call takes what is left.
fn calls(workload: &Workload) -> Vec<Workload> {
    let mut events = workload.events();
    let mut calls = Vec::new();
    while !events.is_empty() {
        let length = if calls.len() % LONG_EVERY == LONG_EVERY - 1 {
            LONG_CALL
        } else {
            SHORT_CALL
        };
        let (call, rest) = events.split_at(length.min(events.len()));
        calls.push(Workload::from_events(call.to_vec()));
        events = rest;
    }
    calls
}

/// Runs every call, in order and with one choice policy across them, through
/// `simulate_program` (the library's default backend), or through the compiled
/// executor for the oracle. Returns each call's report and its seconds.
fn simulate_calls(
    program: &Program,
    model: &AtmModel,
    experiment: &Experiment,
    calls: &[Workload],
    compiled: bool,
) -> Vec<(SimReport, f64)> {
    let (net, cost) = (&model.net, &experiment.config.cost);
    let mut policy = experiment.policy(model);
    calls
        .iter()
        .map(|call| {
            let started = Instant::now();
            let report = if compiled {
                simulate_program_with(program, net, cost, call, &mut policy, ExecBackend::Compiled)
            } else {
                simulate_program(program, net, cost, call, &mut policy)
            }
            .expect("the generated code runs");
            (report, started.elapsed().as_secs_f64())
        })
        .collect()
}

/// One experiment's inputs.
struct Experiment {
    config: Table1Config,
}

impl Experiment {
    fn new(seed: u64, index: u64, cells: usize) -> Self {
        Experiment {
            config: Table1Config {
                traffic: traffic(cells),
                cost: CostModel::default(),
                seed: sub_seed(seed, 5, index),
            },
        }
    }

    fn policy(&self, model: &AtmModel) -> AtmChoicePolicy {
        AtmChoicePolicy::new(model, self.config.traffic, self.config.seed)
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut setups = Vec::new();
    let (mut models, mut programs) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        models = build_models();
        programs = models.iter().map(program_of).collect::<Vec<Program>>();
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut experiments = 0usize;
    // Per experiment: its Table I experiments per second, scaled to MEAN_CELLS.
    let mut rates = Vec::new();
    // The ms of every short or long `simulate_program` call on the paper's model. The
    // smaller model's events are cheaper; pooling both would put the quantiles on the
    // boundary between the two.
    let mut latency_ms = Vec::new();
    let (mut sim_s, mut sim_events) = (0.0, 0usize);
    let (mut qss_cycles, mut qss_events) = (0u64, 0usize);
    let mut failed = 0usize;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        for cells in gen::table1_round(seed, round) {
            let experiment = Experiment::new(seed, experiments as u64, cells);
            let t = Instant::now();
            let tables: Vec<_> = models
                .iter()
                .map(|model| run_table1(model, &experiment.config).expect("Table I runs"))
                .collect();
            rates.push(cells as f64 / MEAN_CELLS / t.elapsed().as_secs_f64());
            let mut agrees = true;
            for (model, (program, table)) in models.iter().zip(programs.iter().zip(&tables)) {
                let workload =
                    generate_workload(model, &experiment.config.traffic, experiment.config.seed);
                let calls = calls(&workload);
                let runs = simulate_calls(program, model, &experiment, &calls, false);
                for ((report, s), call) in runs.iter().zip(&calls) {
                    if model.config == AtmConfig::paper()
                        && matches!(call.len(), SHORT_CALL | LONG_CALL)
                    {
                        latency_ms.push(s * 1e3);
                    }
                    sim_s += s;
                    sim_events += report.events_processed;
                }
                qss_cycles += table.qss.clock_cycles;
                qss_events += table.qss_report.events_processed;

                // Oracle, outside the timed sections: the compiled executor must give
                // the QSS report of the Table I harness on the whole workload, and the
                // identical report for every call.
                let whole = simulate_program_with(
                    program,
                    &model.net,
                    &experiment.config.cost,
                    &workload,
                    &mut experiment.policy(model),
                    ExecBackend::Compiled,
                )
                .expect("the generated code runs compiled");
                let compiled = simulate_calls(program, model, &experiment, &calls, true);
                agrees &= table.qss_wins()
                    && whole == table.qss_report
                    && whole.events_processed == workload.len()
                    && table.functional_report.events_processed == workload.len()
                    && runs.len() == compiled.len()
                    && runs.iter().zip(&compiled).all(|(a, b)| a.0 == b.0);
                if traced {
                    trace_experiment(&mut tracer, &mut layers, experiments, model, &experiment);
                }
            }
            experiments += 1;
            if !agrees {
                failed += 1;
            }
        }
        round += 1;
        if traced {
            break;
        }
    }

    let peak_rss_mib = daemon::peak_rss_mib(std::process::id()).expect("/proc status is readable");
    let table1_per_s = median(&rates);
    let exec_events_per_s = sim_events as f64 / sim_s;
    let qss_cycles_per_event = qss_cycles as f64 / qss_events.max(1) as f64;
    let mut notes = vec![
        format!(
            "{experiments} Table I experiments ({round} round(s)); experiments/s at \
             {MEAN_CELLS} cells, per experiment: {rates:.3?}"
        ),
        format!("simulate_program ran {sim_events} events in {sim_s:.3} s"),
    ];
    let metrics = if traced {
        layers.add_self_times(&tracer);
        layers.add("table1_per_s", table1_per_s);
        layers.add("exec_events_per_s", exec_events_per_s);
        layers.add("qss_cycles_per_event", qss_cycles_per_event);
        notes.push(format!("spans written to {}", crate::write_trace(&tracer)));
        crate::per_layer_metrics(&layers)
    } else {
        // The end-to-end set every workload reports: an operation is one Table I
        // experiment, a latency is one `simulate_program` call, and memory is this
        // process's own peak.
        vec![
            Metric::new("req_per_s", table1_per_s, "1/s"),
            Metric::new("latency_p50_ms", quantile(&latency_ms, 0.50), "ms"),
            Metric::new("latency_p95_ms", quantile(&latency_ms, 0.95), "ms"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("setup_s", median(&setups), "s"),
        ]
    };
    Report {
        correct: failed == 0,
        attempted: experiments,
        failed,
        metrics,
        notes,
    }
}

/// The experiment's layers, each in a span under an `experiment` root, next to the
/// untraced `run_table1` time of the same model and traffic.
fn trace_experiment(
    tracer: &mut Tracer,
    layers: &mut Layers,
    id: usize,
    model: &AtmModel,
    experiment: &Experiment,
) {
    let config = &experiment.config;
    let started = Instant::now();
    run_table1(model, config).expect("Table I runs");
    let untraced_us = started.elapsed().as_secs_f64() * 1e6;

    tracer.begin(id, "experiment");
    let schedule = tracer
        .span("atm.schedule", || {
            quasi_static_schedule(&model.net, &QssOptions::default())
        })
        .expect("the ATM model schedules")
        .schedule()
        .expect("the ATM model is schedulable");
    let program = tracer.span("atm.codegen", || {
        let program =
            synthesize(&model.net, &schedule, Default::default()).expect("the task IR builds");
        emit_c(&program, &model.net, CEmitOptions::default());
        program
    });
    let workload = generate_workload(model, &config.traffic, config.seed);
    tracer
        .span("rtos.qss_sim", || {
            simulate_program(
                &program,
                &model.net,
                &config.cost,
                &workload,
                &mut experiment.policy(model),
            )
        })
        .expect("the generated code runs");
    let tasks = functional_partition(model);
    tracer
        .span("rtos.functional_sim", || {
            simulate_functional_partition(
                &model.net,
                &tasks,
                &config.cost,
                &workload,
                &mut experiment.policy(model),
            )
        })
        .expect("the functional baseline runs");
    let traced_us = tracer.end();

    // The executor is not part of `run_table1`: its spans sit under a root of their own.
    tracer.begin(id, "exec");
    let compiled = tracer.span("exec.compile", || {
        CompiledProgram::compile(&program, &model.net)
    });
    let pump_started = Instant::now();
    tracer.span("exec.pump", || {
        let mut session = ExecSession::new(&compiled);
        let mut policy = experiment.policy(model);
        for event in workload.events() {
            let task = compiled
                .task_for_source(event.source)
                .expect("every event source has a task");
            session
                .run_task(task, &mut policy)
                .expect("the generated code runs");
        }
    });
    let pump_s = pump_started.elapsed().as_secs_f64();
    tracer.end();
    layers.add("exec.pump_events_per_s", workload.len() as f64 / pump_s);
    layers.add("trace.handle_us", untraced_us);
    layers.add("trace.traced_us", traced_us);
}
