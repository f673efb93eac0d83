//! Table I: QSS (2 tasks) versus functional task partitioning (5 tasks) on the ATM server
//! with the 50-cell testbench. Prints the reproduced table next to the paper's numbers and
//! times the two simulations separately so the overhead gap is visible in the report.
//!
//! `--seeds N` switches to the Monte-Carlo mode: the functional baseline is re-simulated
//! under `N` different traffic seeds on **one** [`FunctionalSimBatch`] — the firing
//! session and cost tables are built once and the session is reset to the initial
//! marking between seeds — and the per-seed median wall times are reported
//! (each seed's runs are verified bit-for-bit against a fresh simulator first):
//!
//! ```text
//! cargo bench -p fcpn-bench --bench table1_qss_vs_functional -- --seeds 16
//! ```

use criterion::{criterion_group, Criterion};
use fcpn_atm::{
    functional_partition, generate_workload, run_table1, AtmChoicePolicy, AtmConfig, AtmModel,
    Table1Config, TrafficConfig,
};
use fcpn_codegen::{synthesize, SynthesisOptions};
use fcpn_qss::{quasi_static_schedule, QssOptions};
use fcpn_rtos::{simulate_functional_partition, simulate_program, CostModel, FunctionalSimBatch};
use std::time::Instant;

fn bench_table1(c: &mut Criterion) {
    let model = AtmModel::build(AtmConfig::paper()).expect("atm model builds");
    let table = run_table1(&model, &Table1Config::default()).expect("table 1 runs");
    println!("--- Table I (reproduction) ---");
    println!("{table}");
    println!("paper: tasks 2 vs 5 | lines 1664 vs 2187 | cycles 197526 vs 249726");
    println!(
        "reproduced shape: qss_wins = {}, cycle ratio = {:.2} (paper 1.26)",
        table.qss_wins(),
        table.cycle_ratio()
    );

    // Pre-compute the two implementations once; the timed region is the simulation of the
    // 50-cell testbench, which is the quantity Table I reports.
    let schedule = quasi_static_schedule(&model.net, &QssOptions::default())
        .expect("fc input")
        .schedule()
        .expect("atm model is schedulable");
    let program =
        synthesize(&model.net, &schedule, SynthesisOptions::default()).expect("synthesis");
    let tasks = functional_partition(&model);
    let traffic = TrafficConfig::paper();
    let workload = generate_workload(&model, &traffic, 1999);
    let cost = CostModel::default();

    let mut group = c.benchmark_group("table1_qss_vs_functional");
    group.sample_size(20);
    group.bench_function("qss_2_tasks_50_cells", |b| {
        b.iter(|| {
            let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
            simulate_program(&program, &model.net, &cost, &workload, &mut policy)
                .expect("simulation")
                .total_cycles
        })
    });
    group.bench_function("functional_5_tasks_50_cells", |b| {
        b.iter(|| {
            let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
            simulate_functional_partition(&model.net, &tasks, &cost, &workload, &mut policy)
                .expect("simulation")
                .total_cycles
        })
    });
    group.bench_function("qss_full_flow_schedule_synthesise", |b| {
        b.iter(|| {
            let schedule = quasi_static_schedule(&model.net, &QssOptions::default())
                .expect("fc input")
                .schedule()
                .expect("schedulable");
            synthesize(&model.net, &schedule, SynthesisOptions::default()).expect("synthesis")
        })
    });
    group.finish();
}

/// The Monte-Carlo seed sweep: one [`FunctionalSimBatch`] across `n` traffic seeds,
/// per-seed medians, batch results pinned against fresh simulators before timing.
fn run_seed_sweep(n: u64) {
    let samples: usize = std::env::var("FCPN_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let model = AtmModel::build(AtmConfig::paper()).expect("atm model builds");
    let tasks = functional_partition(&model);
    let traffic = TrafficConfig::paper();
    let cost = CostModel::default();
    let mut batch = FunctionalSimBatch::new(&model.net, &tasks, &cost).expect("sources are owned");

    println!("--- Table I functional baseline, {n} traffic seeds on one shared session ---");
    println!(
        "{:>6} {:>8} {:>12} {:>14} {:>12}",
        "seed", "events", "cycles", "cyc/event", "median_ms"
    );
    let base_seed = 1999u64;
    for seed in (0..n).map(|i| base_seed + i) {
        let workload = generate_workload(&model, &traffic, seed);
        // Equivalence gate per seed: the reset shared session must reproduce a
        // fresh simulator's report exactly before anything is timed.
        let mut batch_policy = AtmChoicePolicy::new(&model, traffic, seed);
        let report = batch.run(&workload, &mut batch_policy).expect("simulation");
        let mut fresh_policy = AtmChoicePolicy::new(&model, traffic, seed);
        let fresh =
            simulate_functional_partition(&model.net, &tasks, &cost, &workload, &mut fresh_policy)
                .expect("simulation");
        assert_eq!(
            report, fresh,
            "seed {seed} diverged between batch and fresh"
        );

        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let mut policy = AtmChoicePolicy::new(&model, traffic, seed);
                let start = Instant::now();
                criterion::black_box(batch.run(&workload, &mut policy).expect("simulation"));
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median_ms = times[times.len() / 2] * 1e3;
        println!(
            "{:>6} {:>8} {:>12} {:>14.1} {:>12.4}",
            seed,
            report.events_processed,
            report.total_cycles,
            report.cycles_per_event(),
            median_ms
        );
    }
}

criterion_group!(benches, bench_table1);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--seeds takes a positive integer");
        run_seed_sweep(n);
        return;
    }
    benches();
}
