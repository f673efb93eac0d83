//! Coverability-graph construction: the interned build (hash-of-slice lookup per
//! successor) against the seed build ([`fcpn_bench::oracle::build_coverability_naive`],
//! `nodes.iter().position(..)`, O(V) per successor). The gap widens superlinearly with the node count — the asymptotic win of
//! porting node identity onto the state-space interner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcpn_bench::oracle;
use fcpn_petri::analysis::{CoverabilityGraph, CoverabilityOptions};
use fcpn_petri::gallery;
use std::hint::black_box;

fn bench_coverability(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverability_build");
    // Bounded rings: the coverability graph equals the reachability graph, giving a
    // clean node-count sweep (715 and 12 376 nodes).
    let cases = [
        ("marked_ring_10_4", gallery::marked_ring(10, 4)),
        ("marked_ring_12_6", gallery::marked_ring(12, 6)),
    ];
    for (name, net) in &cases {
        let graph = CoverabilityGraph::build(net, CoverabilityOptions::default());
        println!(
            "{name}: {} nodes, {} edges",
            graph.nodes.len(),
            graph.edges.len()
        );
        group.bench_with_input(BenchmarkId::new("interned", name), net, |b, net| {
            b.iter(|| CoverabilityGraph::build(black_box(net), CoverabilityOptions::default()))
        });
        group.bench_with_input(BenchmarkId::new("naive", name), net, |b, net| {
            b.iter(|| {
                oracle::build_coverability_naive(black_box(net), CoverabilityOptions::default())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coverability);
criterion_main!(benches);
