//! Sustained events/sec of the compiled schedule executor versus the tree-walking
//! interpreter — the throughput claim of the paper's synthesized software, made
//! measurable.
//!
//! Both engines pump the same activation stream ([`fcpn_bench::pump_interpreter`] /
//! [`fcpn_bench::pump_compiled`]) with the same round-robin choice resolution; the
//! firing totals and per-transition fire counts are asserted identical before anything
//! is timed, so the comparison is pure execution machinery: `Vec<Stmt>` tree walking
//! with per-entry block clones versus flat jump-resolved bytecode over a dense counter
//! pool. The recorded baseline lives in the `executor` section of
//! `BENCH_statespace.json` (regenerate with
//! `cargo run --release -p fcpn-bench --example scaling_table -- --out BENCH_statespace.json`).
//!
//! The `task_ir` group times the step before: [`fcpn_codegen::synthesize`] building the
//! task IR from a valid schedule, on the largest `/codegen` inputs of the
//! `schedule_cold` workload. Each program's size is asserted first, so a change to the
//! builder's output fails here before anything is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcpn_atm::{AtmConfig, AtmModel};
use fcpn_bench::{program_of, pump_compiled, pump_interpreter};
use fcpn_codegen::{synthesize, CodeMetrics, CompiledProgram, SynthesisOptions};
use fcpn_petri::gallery;
use std::hint::black_box;

const ACTIVATIONS: usize = 20_000;

fn bench_event_pump(c: &mut Criterion) {
    let cases = [
        ("figure3a", gallery::figure3a()),
        ("figure4", gallery::figure4()),
        ("figure5", gallery::figure5()),
        ("choice_chain_8", gallery::choice_chain(8)),
    ];
    let mut group = c.benchmark_group("codegen_exec");
    for (name, net) in &cases {
        let (_, program) = program_of(net);
        let compiled = CompiledProgram::compile(&program, net);

        // Identical work on both sides before any timing.
        let (interp_fired, interp_counts) = pump_interpreter(&program, net, ACTIVATIONS);
        let (exec_fired, exec_counts) = pump_compiled(&compiled, ACTIVATIONS);
        assert_eq!(interp_fired, exec_fired, "{name}: firing totals diverged");
        assert_eq!(interp_counts, exec_counts, "{name}: fire counts diverged");
        println!(
            "{name}: {} tasks, {} bytecode ops, {interp_fired} firings per pump",
            compiled.task_count(),
            compiled.op_count()
        );

        group.bench_function(BenchmarkId::new("interpreter", name), |b| {
            b.iter(|| pump_interpreter(black_box(&program), black_box(net), ACTIVATIONS))
        });
        group.bench_function(BenchmarkId::new("compiled", name), |b| {
            b.iter(|| pump_compiled(black_box(&compiled), ACTIVATIONS))
        });
    }
    group.finish();
}

fn bench_task_ir(c: &mut Criterion) {
    let atm = AtmModel::build(AtmConfig { queues: 4 })
        .expect("the ATM model builds")
        .net;
    let cases = [
        ("choice_chain_10", gallery::choice_chain(10), 82),
        ("choice_chain_12", gallery::choice_chain(12), 98),
        ("atm_queues_4", atm, 107),
    ];
    let mut group = c.benchmark_group("task_ir");
    for (name, net, ir_statements) in &cases {
        let (schedule, program) = program_of(net);
        assert_eq!(
            CodeMetrics::of(&program, net).ir_statements,
            *ir_statements,
            "{name}: IR size changed"
        );
        println!(
            "{name}: {} cycles, {ir_statements} IR statements",
            schedule.cycle_count()
        );
        group.bench_function(BenchmarkId::new("synthesize", name), |b| {
            b.iter(|| {
                synthesize(
                    black_box(net),
                    black_box(&schedule),
                    SynthesisOptions::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_pump, bench_task_ir);
criterion_main!(benches);
