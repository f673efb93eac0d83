//! Integration tests relating the behavioural analyses (coverability, boundedness,
//! siphons, liveness) to the quasi-static scheduling verdicts: the two views must tell a
//! consistent story about the same nets. The interned coverability build is also pinned
//! here against the seed linear-scan build ([`oracle::build_coverability_naive`]).

use fcpn::petri::analysis::{
    check_boundedness, find_deadlock, Boundedness, BoundednessOptions, CoverabilityGraph,
    CoverabilityOptions, DeadlockReport, ReachabilityOptions, SiphonAnalysis,
};
use fcpn::petri::{gallery, Marking, NetBuilder, PetriNet};
use fcpn::qss::{quasi_static_schedule, QssOptions};
use fcpn_bench::oracle;

#[test]
fn interned_build_matches_naive_reference() {
    let cases: Vec<(&str, PetriNet, CoverabilityOptions)> = vec![
        (
            "figure3b",
            gallery::figure3b(),
            CoverabilityOptions::default(),
        ),
        (
            "figure5",
            gallery::figure5(),
            CoverabilityOptions::default(),
        ),
        (
            "figure7",
            gallery::figure7(),
            CoverabilityOptions::default(),
        ),
        (
            "marked_ring(8,4)",
            gallery::marked_ring(8, 4),
            CoverabilityOptions::default(),
        ),
        (
            "choice_chain(3)",
            gallery::choice_chain(3),
            CoverabilityOptions::default(),
        ),
        (
            "figure5-budget",
            gallery::figure5(),
            CoverabilityOptions { max_nodes: 5 },
        ),
    ];
    for (label, net, options) in cases {
        let interned = CoverabilityGraph::build(&net, options);
        let naive = oracle::build_coverability_naive(&net, options);
        // Node by node, place by place: the same ω-markings in the same order.
        assert_eq!(interned.nodes.len(), naive.nodes.len(), "{label}: nodes");
        for (id, (node, row)) in interned.nodes.iter().zip(&naive.nodes).enumerate() {
            for p in net.places() {
                assert_eq!(node.tokens(p), row[p.index()], "{label}: node {id}, {p:?}");
            }
        }
        assert_eq!(interned.edges, naive.edges, "{label}: edges");
        assert_eq!(interned.complete, naive.complete, "{label}: completeness");
    }
}

#[test]
fn open_nets_are_behaviourally_unbounded_but_quasi_statically_schedulable() {
    // Nets with source transitions are unbounded if the environment floods them — that is
    // exactly why the paper replaces plain boundedness with schedulability: a *schedule*
    // keeps the accumulation bounded by reacting to every input.
    for net in [gallery::figure3a(), gallery::figure4(), gallery::figure5()] {
        let coverability = CoverabilityGraph::build(&net, CoverabilityOptions::default());
        assert!(
            !coverability.is_bounded(),
            "{} should look unbounded without a scheduler",
            net.name()
        );
        let outcome = quasi_static_schedule(&net, &QssOptions::default()).unwrap();
        assert!(
            outcome.is_schedulable(),
            "{} must be schedulable",
            net.name()
        );
    }
}

#[test]
fn schedulable_cycles_keep_the_token_game_bounded() {
    // Executing the valid schedule's cycles in any order returns to the initial marking,
    // so iterating them forever keeps every place bounded by the per-cycle peak.
    let net = gallery::figure5();
    let schedule = quasi_static_schedule(&net, &QssOptions::default())
        .unwrap()
        .schedule()
        .unwrap();
    let bounds = schedule.buffer_bounds(&net);
    let mut marking = net.initial_marking().clone();
    for round in 0..8 {
        let cycle = &schedule.cycles[round % schedule.cycles.len()];
        for &t in &cycle.sequence {
            net.fire(&mut marking, t).unwrap();
            for (index, &tokens) in marking.as_slice().iter().enumerate() {
                assert!(tokens <= bounds[index]);
            }
        }
        assert_eq!(&marking, net.initial_marking());
    }
}

#[test]
fn coverability_and_boundedness_agree_on_closed_nets() {
    let mut b = NetBuilder::new("closed");
    let p1 = b.place("p1", 2);
    let t1 = b.transition("t1");
    let p2 = b.place("p2", 0);
    let t2 = b.transition("t2");
    b.arc_p_t(p1, t1, 1).unwrap();
    b.arc_t_p(t1, p2, 1).unwrap();
    b.arc_p_t(p2, t2, 1).unwrap();
    b.arc_t_p(t2, p1, 1).unwrap();
    let net = b.build().unwrap();
    let coverability = CoverabilityGraph::build(&net, CoverabilityOptions::default());
    assert!(coverability.is_bounded());
    match check_boundedness(&net, BoundednessOptions::default()) {
        Boundedness::Bounded { k } => assert_eq!(k, 2),
        other => panic!("expected bounded, got {other:?}"),
    }
    assert_eq!(
        find_deadlock(&net, ReachabilityOptions::default()),
        DeadlockReport::DeadlockFree
    );
}

#[test]
fn siphon_analysis_explains_figure7_style_starvation() {
    // Restrict figure 7 to the branch an adversary would always take (the R1 component):
    // the places that feed the starving synchronisation form an unmarked siphon.
    let net = gallery::figure7();
    let allocations =
        fcpn::qss::enumerate_allocations(&net, fcpn::qss::AllocationOptions::default()).unwrap();
    let t2 = net.transition_by_name("t2").unwrap();
    let a1 = allocations.into_iter().find(|a| a.allocates(t2)).unwrap();
    let reduction = fcpn::qss::TReduction::compute(&net, a1).unwrap();
    let analysis = SiphonAnalysis::of(&reduction.net);
    let initial = reduction.net.initial_marking();
    // The kept-as-source place (p5) can never be refilled: it appears in an unmarked
    // siphon of the component, which is the structural reason t6 eventually starves.
    assert!(!analysis.unmarked_siphons(initial).is_empty());
    assert!(!analysis.commoner_holds(initial));
}

#[test]
fn emptied_ring_fails_commoner_and_deadlocks() {
    let mut b = NetBuilder::new("ring");
    let p1 = b.place("p1", 0);
    let t1 = b.transition("t1");
    let p2 = b.place("p2", 0);
    let t2 = b.transition("t2");
    b.arc_p_t(p1, t1, 1).unwrap();
    b.arc_t_p(t1, p2, 1).unwrap();
    b.arc_p_t(p2, t2, 1).unwrap();
    b.arc_t_p(t2, p1, 1).unwrap();
    let net = b.build().unwrap();
    let analysis = SiphonAnalysis::of(&net);
    assert!(!analysis.commoner_holds(&Marking::zeroes(2)));
    match find_deadlock(&net, ReachabilityOptions::default()) {
        DeadlockReport::Deadlock { trace, .. } => assert!(trace.is_empty()),
        other => panic!("expected immediate deadlock, got {other:?}"),
    }
}
