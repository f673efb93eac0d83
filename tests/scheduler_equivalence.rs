//! Seeded equivalence suite for the zero-allocation scheduling pipeline.
//!
//! Every layer of the rebuilt pipeline retains its seed implementation as an oracle,
//! and this suite pins them against each other on the paper's gallery nets and on
//! randomly generated nets (seeded PRNG, reproducible from the failing seed) that
//! include source transitions, sink transitions and weighted (multirate) arcs:
//!
//! * [`InvariantAnalysis::of_matrix`] (sparse fraction-free Farkas) versus
//!   [`oracle::invariants_of_matrix_naive`] (the seed's dense rational-free
//!   elimination) — identical T- and P-semiflow bases;
//! * [`TReduction::compute_in`] on a reused [`ReductionWorkspace`] (and the gray-code
//!   allocation sweep feeding it) versus [`TReduction::compute`] — identical reduced
//!   nets, maps and traces;
//! * [`oracle::check_component_naive_with`] (the seed component check: `Vec<u64>`
//!   signature cache, dense Farkas) versus [`check_component`] — identical verdicts on
//!   every gallery allocation;
//! * [`quasi_static_schedule`] (the gray sweep, sorted back into seed order) versus
//!   [`oracle::quasi_static_schedule_naive`] (the seed pipeline) — bit-for-bit
//!   identical outcomes: verdicts, cycle order, diagnostics order.

use fcpn::petri::analysis::{IncidenceMatrix, InvariantAnalysis};
use fcpn::petri::{gallery, NetBuilder, PetriNet, PlaceId, TransitionId};
use fcpn::qss::{
    allocation_iter, allocation_iter_gray, check_component, enumerate_allocations,
    quasi_static_schedule, AllocationOptions, ComponentCache, ComponentChecker, QssOptions,
    ReductionWorkspace, TAllocation, TReduction,
};
use fcpn_bench::oracle::{self, NaiveComponentCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An arbitrary (not necessarily free-choice) net with weighted arcs and, frequently,
/// source/sink transitions and places — the invariant analysis has no structural
/// preconditions, so the Farkas equivalence is checked on the widest class.
fn random_net(rng: &mut StdRng) -> PetriNet {
    let places = rng.gen_range(1..7usize);
    let transitions = rng.gen_range(1..7usize);
    let mut b = NetBuilder::new("fuzz");
    let ps: Vec<PlaceId> = (0..places)
        .map(|i| b.place(format!("p{i}"), rng.gen_range(0..3u64)))
        .collect();
    let ts: Vec<TransitionId> = (0..transitions)
        .map(|i| b.transition(format!("t{i}")))
        .collect();
    for &t in &ts {
        for &p in &ps {
            // ~35% chance of each arc direction, weights 1–3 (multirate).
            if rng.gen_bool(0.35) {
                b.arc_p_t(p, t, rng.gen_range(1..4u64)).expect("arc");
            }
            if rng.gen_bool(0.35) {
                b.arc_t_p(t, p, rng.gen_range(1..4u64)).expect("arc");
            }
        }
    }
    b.build().expect("fuzz net is structurally valid")
}

/// A random free-choice net: a source transition feeding a tree of choices whose
/// branches produce with random weights into unit-rate drains (sink transitions), with
/// an optional marked self-loop stage so some initial tokens exist. Some of these are
/// schedulable and some are not — both verdicts must round-trip identically through
/// every pipeline.
fn random_free_choice(rng: &mut StdRng) -> PetriNet {
    let depth = rng.gen_range(1..4usize);
    let mut b = NetBuilder::new("random-fc");
    let source = b.transition("src");
    let root = b.place("root", rng.gen_range(0..2u64));
    b.arc_t_p(source, root, 1).expect("arc");
    let mut frontier: Vec<PlaceId> = vec![root];
    let mut counter = 0usize;
    for level in 0..depth {
        let branches = rng.gen_range(2..4usize);
        let weight = rng.gen_range(1..4u64);
        let mut next = Vec::new();
        for place in frontier {
            for branch in 0..branches {
                counter += 1;
                let t = b.transition(format!("t{level}_{branch}_{counter}"));
                b.arc_p_t(place, t, 1).expect("arc");
                let out = b.place(format!("p{level}_{branch}_{counter}"), 0);
                b.arc_t_p(t, out, weight).expect("arc");
                let drain = b.transition(format!("d{level}_{branch}_{counter}"));
                b.arc_p_t(out, drain, 1).expect("arc");
                if level + 1 < depth && rng.gen_bool(0.5) {
                    let cont = b.place(format!("c{level}_{branch}_{counter}"), 0);
                    b.arc_t_p(drain, cont, 1).expect("arc");
                    next.push(cont);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    b.build().expect("random free-choice net is valid")
}

fn gallery_nets() -> Vec<PetriNet> {
    vec![
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(5),
        gallery::marked_ring(6, 3),
        gallery::cycle_bank(5),
    ]
}

fn assert_invariants_equal(net: &PetriNet, label: &str) {
    let d = IncidenceMatrix::from_net(net);
    let sparse = InvariantAnalysis::of_matrix(&d);
    let naive = oracle::invariants_of_matrix_naive(&d);
    assert_eq!(
        sparse.t_semiflows, naive.t_semiflows,
        "{label}: T-semiflows"
    );
    assert_eq!(
        sparse.p_semiflows, naive.p_semiflows,
        "{label}: P-semiflows"
    );
    assert_eq!(sparse.complete, naive.complete, "{label}: completeness");
}

#[test]
fn sparse_farkas_matches_naive_on_gallery_nets() {
    for net in gallery_nets() {
        assert_invariants_equal(&net, net.name());
    }
}

#[test]
fn sparse_farkas_matches_naive_on_random_nets() {
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let net = random_net(&mut rng);
        assert_invariants_equal(&net, &format!("random net seed {seed}"));
    }
}

#[test]
fn sparse_farkas_matches_naive_on_random_free_choice_nets() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xFC ^ seed);
        let net = random_free_choice(&mut rng);
        assert_invariants_equal(&net, &format!("random fc seed {seed}"));
    }
}

/// Every allocation of `net`: the workspace reduction (with trace recording) must equal
/// the seed `TReduction::compute` — net, map and trace — and the gray sweep must visit
/// exactly the counting enumeration's allocation set, ranks included.
fn assert_reductions_equal(net: &PetriNet, label: &str) {
    let counting: Vec<TAllocation> = allocation_iter(net, AllocationOptions::default())
        .expect("free-choice input")
        .collect();
    let mut ws = ReductionWorkspace::new();
    for allocation in &counting {
        let seed_reduction = TReduction::compute(net, allocation.clone()).expect("reduce");
        let fast_reduction =
            TReduction::compute_in(net, allocation.clone(), &mut ws, true).expect("reduce");
        assert_eq!(seed_reduction.net, fast_reduction.net, "{label}: net");
        assert_eq!(seed_reduction.map, fast_reduction.map, "{label}: map");
        assert_eq!(seed_reduction.trace, fast_reduction.trace, "{label}: trace");
        assert_eq!(
            seed_reduction.allocation, fast_reduction.allocation,
            "{label}"
        );
    }
    // Gray sweep coverage: the ranks are a permutation of 0..total and index the
    // counting enumeration exactly.
    let mut seen = vec![false; counting.len()];
    for (rank, allocation) in
        allocation_iter_gray(net, AllocationOptions::default()).expect("free-choice input")
    {
        let rank = rank as usize;
        assert!(!seen[rank], "{label}: rank {rank} visited twice");
        seen[rank] = true;
        assert_eq!(&allocation, &counting[rank], "{label}: rank {rank}");
    }
    assert!(
        seen.into_iter().all(|s| s),
        "{label}: gray sweep incomplete"
    );
}

#[test]
fn workspace_reductions_match_seed_on_gallery_nets() {
    for net in [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(5),
    ] {
        assert_reductions_equal(&net, net.name());
    }
}

#[test]
fn workspace_reductions_match_seed_on_random_free_choice_nets() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xBEE5 ^ seed);
        let net = random_free_choice(&mut rng);
        assert_reductions_equal(&net, &format!("random fc seed {seed}"));
    }
}

#[test]
fn checker_verdicts_match_seed_on_random_free_choice_nets() {
    // The workspace-driven checker (fingerprint cache, no subnet on hits) against the
    // per-reduction oracle, with one shared cache across each net's whole sweep.
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let net = random_free_choice(&mut rng);
        let mut checker = ComponentChecker::new(&net);
        let mut ws = ReductionWorkspace::new();
        let mut cache = ComponentCache::default();
        for allocation in allocation_iter(&net, AllocationOptions::default()).expect("fc") {
            let reduction = TReduction::compute(&net, allocation.clone()).expect("reduce");
            let reference = check_component(&net, &reduction);
            let fast = checker.check(&allocation, &mut ws, &mut cache);
            assert_eq!(reference, fast, "seed {seed}");
        }
    }
}

#[test]
fn naive_component_check_matches_check_component_on_every_gallery_allocation() {
    // The seed component check (one shared `Vec<u64>`-keyed cache, dense Farkas) must
    // give the reduction-driven check's verdict on every allocation, across
    // schedulable and failing nets.
    for net in [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(4),
    ] {
        let mut naive_cache = NaiveComponentCache::default();
        for allocation in enumerate_allocations(&net, AllocationOptions::default()).unwrap() {
            let reduction = TReduction::compute(&net, allocation).unwrap();
            let reference = check_component(&net, &reduction);
            let naive = oracle::check_component_naive_with(&net, &reduction, &mut naive_cache);
            assert_eq!(reference, naive, "net {}", net.name());
        }
    }
}

/// The full pipeline matrix on one net: the seed pipeline versus the production one,
/// cached and uncached, with an armed token and with a roomy budget — every outcome
/// bit-for-bit identical.
fn assert_schedules_equal(net: &PetriNet, label: &str) {
    let naive = oracle::quasi_static_schedule_naive(net, &QssOptions::default()).expect(label);
    for reuse_component_cache in [true, false] {
        let options = QssOptions {
            reuse_component_cache,
            ..QssOptions::default()
        };
        let fast = quasi_static_schedule(net, &options).expect(label);
        assert_eq!(naive, fast, "{label}: cache={reuse_component_cache}");
    }
    // An armed but never-fired cancellation token must be invisible in the output:
    // the gate only *polls* it, so the result stays bit-identical to the default run.
    let armed = QssOptions {
        cancel: fcpn::petri::cancel::CancelToken::new(),
        ..QssOptions::default()
    };
    let watched = quasi_static_schedule(net, &armed).expect(label);
    assert_eq!(
        naive, watched,
        "{label}: armed-but-idle cancel token changed the outcome"
    );
    // Same contract for the memory budget: armed-but-unreached charges only count,
    // they never steer, so a roomy budget leaves the outcome bit-identical too.
    let budgeted = QssOptions {
        memory: fcpn::petri::MemoryBudget::with_limit(1 << 40),
        ..QssOptions::default()
    };
    let governed = quasi_static_schedule(net, &budgeted).expect(label);
    assert_eq!(
        naive, governed,
        "{label}: armed-but-unreached memory budget changed the outcome"
    );
}

#[test]
fn scheduler_outcome_is_bit_identical_across_pipelines_and_threads_on_gallery() {
    for net in [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(6),
    ] {
        assert_schedules_equal(&net, net.name());
    }
}

#[test]
fn scheduler_outcome_is_bit_identical_on_random_free_choice_nets() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD1CE ^ seed);
        let net = random_free_choice(&mut rng);
        assert_schedules_equal(&net, &format!("random fc seed {seed}"));
    }
}

#[test]
fn scheduler_exhaustion_is_deterministic_across_thread_counts() {
    // The scheduler's charges do not depend on the gray sweep's order (one workspace
    // charge up front, then retained results in seed order after the sort), so the
    // same net under the same too-small budget fails with one pinned typed error —
    // same stage, same limit, same requested bytes — on every run.
    for (net, limit) in [
        (gallery::choice_chain(6), 256u64),
        (gallery::figure5(), 128u64),
    ] {
        let label = net.name().to_string();
        let options = QssOptions {
            memory: fcpn::petri::MemoryBudget::with_limit(limit),
            ..QssOptions::default()
        };
        match quasi_static_schedule(&net, &options) {
            Err(fcpn::qss::QssError::ResourceExhausted(e)) => assert_eq!(
                e,
                fcpn::petri::ResourceExhausted {
                    stage: "schedule-workspace",
                    limit_bytes: limit,
                    requested_bytes: 65_536,
                },
                "{label}"
            ),
            other => panic!("{label}: expected exhaustion, got {other:?}"),
        }
    }
}

#[test]
fn scheduler_outcome_is_bit_identical_on_the_atm_model() {
    // The paper's case study end to end: 11 choices (2048 allocations) on the small
    // model keeps the debug-mode runtime sane while exercising a real multi-choice
    // sort back into seed order.
    let model = fcpn::atm::AtmModel::build(fcpn::atm::AtmConfig::small()).expect("atm model");
    assert_schedules_equal(&model.net, "atm small");
}
