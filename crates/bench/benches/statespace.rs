//! State-space engine baseline: explore throughput of the arena-interned
//! [`fcpn_petri::statespace::StateSpace`] engine against the seed explorer
//! ([`fcpn_bench::oracle::explore_naive`]), plus CSR query costs and QSS end-to-end
//! latency on the gallery nets.
//!
//! `BENCH_statespace.json` at the repository root records the trajectory (speedups are
//! measured there with interleaved engine/naive pairs, which is robust to machine-load
//! drift); it is regenerated by
//! `cargo run --release -p fcpn-bench --example scaling_table -- --out BENCH_statespace.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcpn_bench::oracle;
use fcpn_petri::analysis::ReachabilityOptions;
use fcpn_petri::gallery;
use fcpn_petri::statespace::StateSpace;
use fcpn_qss::{quasi_static_schedule, QssOptions};
use std::hint::black_box;

/// Exploration budget used for the open (source-transition) nets so both explorers
/// enumerate the same truncated space deterministically.
fn open_net_options() -> ReachabilityOptions {
    ReachabilityOptions {
        max_markings: 60_000,
        max_tokens_per_place: 8,
    }
}

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("statespace_explore");
    let cases = [
        (
            "choice_chain_8",
            gallery::choice_chain(8),
            open_net_options(),
        ),
        (
            "cycle_bank_14",
            gallery::cycle_bank(14),
            ReachabilityOptions::default(),
        ),
        (
            "marked_ring_12_6",
            gallery::marked_ring(12, 6),
            ReachabilityOptions::default(),
        ),
        ("figure5", gallery::figure5(), open_net_options()),
    ];
    for (name, net, options) in &cases {
        let space = StateSpace::explore(net, *options);
        println!(
            "{name}: {} states, {} edges",
            space.state_count(),
            space.edge_count()
        );
        group.bench_with_input(BenchmarkId::new("engine", name), net, |b, net| {
            b.iter(|| StateSpace::explore(black_box(net), *options))
        });
        group.bench_with_input(BenchmarkId::new("naive", name), net, |b, net| {
            b.iter(|| oracle::explore_naive(black_box(net), *options))
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let net = gallery::marked_ring(12, 6);
    let space = StateSpace::explore(&net, ReachabilityOptions::default());
    let t0 = net.transitions().next().unwrap();
    let mut group = c.benchmark_group("statespace_queries");
    group.bench_function("dead_states", |b| b.iter(|| space.dead_states()));
    group.bench_function("can_eventually_fire", |b| {
        b.iter(|| space.can_eventually_fire(&net, t0))
    });
    group.bench_function("index_of", |b| {
        let marking = space.marking((space.state_count() / 2) as u32);
        b.iter(|| space.index_of(black_box(&marking)))
    });
    group.finish();
}

fn bench_qss_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("qss_end_to_end");
    for (name, net) in [
        ("figure4", gallery::figure4()),
        ("figure5", gallery::figure5()),
        ("choice_chain_6", gallery::choice_chain(6)),
    ] {
        group.bench_with_input(BenchmarkId::new("schedule", name), &net, |b, net| {
            b.iter(|| quasi_static_schedule(black_box(net), &QssOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore, bench_queries, bench_qss_end_to_end);
criterion_main!(benches);
