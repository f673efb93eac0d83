//! Round-trip property suite for region-based synthesis: explore a net, synthesize a
//! net back from the behaviour, re-explore, and demand isomorphism — across the
//! bounded gallery nets and 64 seeded-random conservative nets. Unbounded gallery
//! nets must be *refused* (their truncated spaces are not behaviours), never
//! mis-synthesized. Random transition systems that came from no net must always end
//! in `Ok` or a typed witness — no panic, no mis-realisation (the built-in
//! verification pass backs this up).

use fcpn_petri::analysis::{splitmix64, ReachabilityOptions};
use fcpn_petri::statespace::StateSpace;
use fcpn_petri::synthesis::{synthesize, Lts, LtsBuilder, SynthesisError, SynthesisOptions};
use fcpn_petri::{gallery, CancelToken, MemoryBudget, NetBuilder, PetriNet};

/// Explore → synthesize → re-explore → isomorphism, for a net whose default-bounds
/// exploration is complete.
fn assert_roundtrip(net: &PetriNet) {
    let space = StateSpace::explore(net, ReachabilityOptions::default());
    assert!(
        space.is_complete() && space.frontier().is_empty(),
        "net {} must be bounded for a round trip",
        net.name()
    );
    let lts = Lts::from_statespace(net, &space).expect("complete space converts");
    let out = synthesize(&lts, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("net {} failed: {e}", net.name()));
    assert!(out.stats.verified, "verification pass must run by default");

    // Independent re-exploration with generous bounds — not the engine's own pass.
    let re_space = StateSpace::explore(
        &out.net,
        ReachabilityOptions {
            max_markings: lts.state_count() + 1,
            max_tokens_per_place: u64::MAX / 2,
        },
    );
    let re_lts = Lts::from_statespace(&out.net, &re_space).expect("emitted net is bounded");
    assert!(
        Lts::isomorphic(&lts, &re_lts),
        "net {}: reachability graph of the synthesized net differs",
        net.name()
    );
}

#[test]
fn bounded_gallery_nets_roundtrip_under_all_thread_counts() {
    let nets = [
        gallery::figure1a(),
        gallery::marked_ring(3, 1),
        gallery::marked_ring(4, 2),
        gallery::marked_ring(6, 3),
        gallery::cycle_bank(2),
        gallery::cycle_bank(3),
        gallery::cycle_bank(4),
    ];
    for net in &nets {
        assert_roundtrip(net);
    }
}

#[test]
fn unbounded_gallery_nets_are_refused_not_mis_synthesized() {
    // Their truncated explorations carry frontier states or a blown marking budget;
    // `Lts::from_statespace` must refuse them with the typed error.
    for net in [
        gallery::figure1b(),
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(3),
    ] {
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(
            matches!(
                Lts::from_statespace(&net, &space),
                Err(SynthesisError::IncompleteInput)
            ),
            "net {}",
            net.name()
        );
    }
}

/// A seeded random conservative net (an S-system: every transition moves one token
/// from one place to another), so the state space is finite by construction and the
/// round trip must always close.
fn random_conservative_net(seed: u64) -> PetriNet {
    let mut state = seed;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let places = 2 + (next() % 5) as usize; // 2..=6
    let transitions = 2 + (next() % 7) as usize; // 2..=8
    let tokens = 1 + (next() % 3) as usize; // 1..=3

    let mut initial = vec![0u64; places];
    for _ in 0..tokens {
        initial[(next() % places as u64) as usize] += 1;
    }

    let mut b = NetBuilder::new(format!("random-{seed}"));
    let ps: Vec<_> = (0..places)
        .map(|i| b.place(format!("p{i}"), initial[i]))
        .collect();
    for i in 0..transitions {
        let from = (next() % places as u64) as usize;
        let mut to = (next() % places as u64) as usize;
        if to == from {
            to = (from + 1) % places;
        }
        let t = b.transition(format!("t{i}"));
        b.arc_p_t(ps[from], t, 1).unwrap();
        b.arc_t_p(t, ps[to], 1).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn sixty_four_seeded_random_nets_roundtrip() {
    for seed in 0..64u64 {
        assert_roundtrip(&random_conservative_net(seed));
    }
}

/// A seeded random deterministic LTS that came from no net: synthesis must return
/// either a verified net or a typed witness — never panic, never mis-realise.
fn random_lts(seed: u64) -> Lts {
    let mut state = seed.wrapping_mul(0x9e37).wrapping_add(1);
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let states = 2 + (next() % 5) as u32; // 2..=6
    let labels = 2 + (next() % 3) as u32; // 2..=4
    let mut b = LtsBuilder::new(format!("rand-lts-{seed}"));
    let ss: Vec<_> = (0..states).map(|i| b.state(format!("s{i}"))).collect();
    let ls: Vec<_> = (0..labels).map(|i| b.label(format!("l{i}"))).collect();
    // A spanning chain keeps most states reachable; extra random edges add cycles
    // and conflicts. Duplicate (state, label) picks collide into the first target
    // only if equal, so build deterministically: first writer wins.
    let mut used = std::collections::HashSet::new();
    for i in 1..states {
        let l = ls[(next() % labels as u64) as usize];
        if used.insert((ss[i as usize - 1], l)) {
            b.edge(ss[i as usize - 1], l, ss[i as usize]);
        }
    }
    for _ in 0..(2 + next() % 6) {
        let from = ss[(next() % states as u64) as usize];
        let l = ls[(next() % labels as u64) as usize];
        let to = ss[(next() % states as u64) as usize];
        if used.insert((from, l)) {
            b.edge(from, l, to);
        }
    }
    b.build()
        .expect("first-writer-wins edges are deterministic")
}

#[test]
fn random_transition_systems_get_nets_or_typed_witnesses() {
    let mut synthesized = 0;
    let mut refused = 0;
    for seed in 0..64u64 {
        let lts = random_lts(seed);
        match synthesize(&lts, &SynthesisOptions::default()) {
            Ok(out) => {
                assert!(out.stats.verified, "seed {seed}");
                synthesized += 1;
            }
            Err(
                SynthesisError::StateSeparation { .. }
                | SynthesisError::EventStateSeparation { .. }
                | SynthesisError::Unreachable { .. },
            ) => refused += 1,
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    // The generator must exercise both outcomes, or the test proves nothing.
    assert!(synthesized > 0, "no random LTS synthesized");
    assert!(refused > 0, "no random LTS produced a witness");
}

#[test]
fn armed_but_unreached_guards_are_bit_identical() {
    for seed in [3u64, 17, 42] {
        let net = random_conservative_net(seed);
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        let lts = Lts::from_statespace(&net, &space).unwrap();
        let plain = synthesize(&lts, &SynthesisOptions::default()).unwrap();
        let guarded = synthesize(
            &lts,
            &SynthesisOptions {
                cancel: CancelToken::new(),
                memory: MemoryBudget::with_limit(1 << 30),
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            fcpn_petri::io::to_text(&plain.net),
            fcpn_petri::io::to_text(&guarded.net),
            "seed {seed}"
        );
        assert_eq!(plain.stats, guarded.stats, "seed {seed}");
    }
}
