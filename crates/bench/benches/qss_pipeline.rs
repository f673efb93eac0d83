//! The zero-allocation scheduling pipeline against the retained seed pipeline.
//!
//! `quasi_static_schedule` sweeps the allocation space in gray-code order on workspace
//! reductions, 128-bit streamed component fingerprints and the sparse fraction-free
//! Farkas elimination; `quasi_static_schedule_naive` is the seed path (counting-order
//! enumeration, per-call `BTreeSet` reductions, `Vec<u64>` cache keys, dense Farkas).
//! Both outcomes are asserted bit-for-bit identical, cached and uncached, before
//! anything is timed.
//!
//! The uncached rows disable the component cache, so every allocation pays the full
//! reduction + invariant analysis + cycle simulation: that is the configuration that
//! isolates the per-allocation pipeline win (the `scheduler` section of
//! `BENCH_statespace.json` records the same comparison at larger sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcpn_petri::analysis::{IncidenceMatrix, InvariantAnalysis};
use fcpn_petri::gallery;
use fcpn_qss::{
    allocation_iter, allocation_iter_gray, quasi_static_schedule, quasi_static_schedule_naive,
    AllocationOptions, QssOptions, ReductionWorkspace, TReduction,
};

fn options(reuse_component_cache: bool) -> QssOptions {
    QssOptions {
        reuse_component_cache,
        ..QssOptions::default()
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let net = gallery::choice_chain(10);
    // Equivalence gate across the whole configuration matrix before timing.
    let reference = quasi_static_schedule_naive(&net, &options(false)).expect("fc");
    for cache in [true, false] {
        let outcome = quasi_static_schedule(&net, &options(cache)).expect("fc");
        assert_eq!(reference, outcome, "cache={cache}");
    }
    assert_eq!(
        reference,
        quasi_static_schedule_naive(&net, &options(true)).expect("fc")
    );

    let mut group = c.benchmark_group("qss_pipeline/choice_chain(10)");
    group.sample_size(10);
    group.bench_function("naive_uncached", |b| {
        b.iter(|| quasi_static_schedule_naive(&net, &options(false)).expect("fc"))
    });
    group.bench_function("fast_uncached", |b| {
        b.iter(|| quasi_static_schedule(&net, &options(false)).expect("fc"))
    });
    group.bench_function("naive_cached", |b| {
        b.iter(|| quasi_static_schedule_naive(&net, &options(true)).expect("fc"))
    });
    group.bench_function("fast_cached", |b| {
        b.iter(|| quasi_static_schedule(&net, &options(true)).expect("fc"))
    });
    group.finish();
}

fn bench_reduction_layer(c: &mut Criterion) {
    // The reduction layer alone: enumerate every allocation and reduce it, seed
    // (counting order + BTreeSets) versus fast (gray order + workspace, no trace).
    let net = gallery::choice_chain(10);
    let mut group = c.benchmark_group("qss_pipeline/reductions(choice_chain(10))");
    group.sample_size(10);
    group.bench_function("seed_compute", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for allocation in allocation_iter(&net, AllocationOptions::default()).expect("fc") {
                let reduction = TReduction::compute(&net, allocation).expect("reduce");
                kept += reduction.net.transition_count();
            }
            kept
        })
    });
    group.bench_function("gray_workspace", |b| {
        b.iter(|| {
            let mut ws = ReductionWorkspace::new();
            let mut kept = 0usize;
            for (_, allocation) in
                allocation_iter_gray(&net, AllocationOptions::default()).expect("fc")
            {
                ws.reduce(&net, &allocation, false);
                kept += ws.kept_transitions().len();
            }
            kept
        })
    });
    group.finish();
}

fn bench_farkas_layer(c: &mut Criterion) {
    // The invariant-analysis layer alone, on a representative component: the reduction
    // of choice_chain(12)'s first allocation (every allocation of a symmetric chain
    // reduces to this shape) and the full figure5 net.
    let chain = gallery::choice_chain(12);
    let allocation = allocation_iter(&chain, AllocationOptions::default())
        .expect("fc")
        .next()
        .expect("at least one allocation");
    let component = TReduction::compute(&chain, allocation).expect("reduce").net;
    let cases = [
        (
            "choice_chain(12)_component",
            IncidenceMatrix::from_net(&component),
        ),
        ("figure5", IncidenceMatrix::from_net(&gallery::figure5())),
    ];
    let mut group = c.benchmark_group("qss_pipeline/farkas");
    group.sample_size(10);
    for (label, d) in &cases {
        let sparse = InvariantAnalysis::of_matrix(d);
        let dense = InvariantAnalysis::of_matrix_naive(d);
        assert_eq!(sparse, dense, "{label}: semiflow bases diverged");
        group.bench_with_input(BenchmarkId::new("dense_naive", label), d, |b, d| {
            b.iter(|| InvariantAnalysis::of_matrix_naive(d))
        });
        group.bench_with_input(
            BenchmarkId::new("sparse_fraction_free", label),
            d,
            |b, d| b.iter(|| InvariantAnalysis::of_matrix(d)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_reduction_layer,
    bench_farkas_layer
);
criterion_main!(benches);
