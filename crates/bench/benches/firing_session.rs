//! The firing fast path head to head against the seed token game, at two levels:
//!
//! * **raw traces** — a deterministic rotating trace over each gallery net, executed by
//!   [`fcpn_bench::run_naive_trace`] (owned `Marking`, checked `fire`, full enabled
//!   rescan per step) and [`fcpn_bench::run_session_trace`]
//!   ([`fcpn_petri::statespace::FiringSession`]: flat buffer, delta rows, bitmask
//!   enabled queries);
//! * **the Table I workload** — the ATM functional-partitioning simulation and the full
//!   `run_table1` harness, on the session-backed simulator versus the seed
//!   marking-by-marking simulator ([`fcpn_bench::oracle`]).
//!
//! The corresponding recorded baselines live in the `firing_session` and `table1`
//! sections of `BENCH_statespace.json` (regenerate with
//! `cargo run --release -p fcpn-bench --example scaling_table -- --out BENCH_statespace.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcpn_atm::{
    functional_partition, generate_workload, run_table1, AtmChoicePolicy, AtmConfig, AtmModel,
    Table1Config, TrafficConfig,
};
use fcpn_bench::oracle::{run_table1_naive, simulate_functional_partition_naive};
use fcpn_bench::{run_naive_trace, run_session_trace};
use fcpn_petri::gallery;
use fcpn_rtos::{simulate_functional_partition, CostModel};
use std::hint::black_box;

const TRACE_STEPS: usize = 20_000;

fn bench_traces(c: &mut Criterion) {
    let mut group = c.benchmark_group("firing_session_trace");
    let cases = [
        ("figure5", gallery::figure5()),
        ("choice_chain_8", gallery::choice_chain(8)),
        ("marked_ring_12_6", gallery::marked_ring(12, 6)),
        ("cycle_bank_12", gallery::cycle_bank(12)),
    ];
    for (name, net) in &cases {
        // Same trace on both sides: assert it before timing anything.
        let (naive_fired, naive_marking) = run_naive_trace(net, TRACE_STEPS);
        let (session_fired, session_marking) = run_session_trace(net, TRACE_STEPS);
        assert_eq!(naive_fired, session_fired);
        assert_eq!(naive_marking, session_marking);
        println!("{name}: {naive_fired} firings per trace");

        group.bench_function(BenchmarkId::new("naive", name), |b| {
            b.iter(|| run_naive_trace(black_box(net), TRACE_STEPS))
        });
        group.bench_function(BenchmarkId::new("session", name), |b| {
            b.iter(|| run_session_trace(black_box(net), TRACE_STEPS))
        });
    }
    group.finish();
}

fn bench_table1_paths(c: &mut Criterion) {
    let model = AtmModel::build(AtmConfig::paper()).expect("atm model builds");
    let traffic = TrafficConfig::paper();
    let workload = generate_workload(&model, &traffic, 1999);
    let tasks = functional_partition(&model);
    let cost = CostModel::default();

    // The two simulators must report identical cycles before we time them.
    let mut fast_policy = AtmChoicePolicy::new(&model, traffic, 1999);
    let fast =
        simulate_functional_partition(&model.net, &tasks, &cost, &workload, &mut fast_policy)
            .expect("simulation");
    let mut naive_policy = AtmChoicePolicy::new(&model, traffic, 1999);
    let naive = simulate_functional_partition_naive(
        &model.net,
        &tasks,
        &cost,
        &workload,
        &mut naive_policy,
    )
    .expect("simulation");
    assert_eq!(fast, naive, "fast path diverged from the naive reference");
    println!(
        "functional baseline: {} cycles over {} events (both paths)",
        fast.total_cycles, fast.events_processed
    );

    let mut group = c.benchmark_group("table1_fast_path");
    group.sample_size(20);
    group.bench_function("functional_sim_naive", |b| {
        b.iter(|| {
            let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
            simulate_functional_partition_naive(&model.net, &tasks, &cost, &workload, &mut policy)
                .expect("simulation")
                .total_cycles
        })
    });
    group.bench_function("functional_sim_session", |b| {
        b.iter(|| {
            let mut policy = AtmChoicePolicy::new(&model, traffic, 1999);
            simulate_functional_partition(&model.net, &tasks, &cost, &workload, &mut policy)
                .expect("simulation")
                .total_cycles
        })
    });
    group.bench_function("run_table1_naive", |b| {
        b.iter(|| {
            run_table1_naive(&model, &Table1Config::default())
                .expect("table 1 runs")
                .functional
                .clock_cycles
        })
    });
    group.bench_function("run_table1_session", |b| {
        b.iter(|| {
            run_table1(&model, &Table1Config::default())
                .expect("table 1 runs")
                .functional
                .clock_cycles
        })
    });
    group.finish();
}

criterion_group!(benches, bench_traces, bench_table1_paths);
criterion_main!(benches);
