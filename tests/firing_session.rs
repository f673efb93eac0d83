//! Equivalence and edge-case tests for the firing fast path
//! ([`fcpn::petri::statespace::FiringSession`]).
//!
//! The session's contract is the one PR 1/2 established for the exploration engine,
//! transplanted to sequential trace execution: whatever the token width, however many
//! times the session widens, checkpoints or rolls back, every observable — markings,
//! enabled sets, firing errors, token totals — must be *bit-for-bit identical* to the
//! seed token game (`PetriNet::fire` on an owned `Marking` plus
//! `enabled_transitions`). The random-trace loop here drives both sides in lockstep
//! from seeded PRNGs, and the RTOS-level tests pin the session-backed functional
//! simulator against the seed simulator ([`simulate_functional_partition_naive`]) on
//! random partitionings, on a
//! two-task figure 5 partition and across a reused batch's token-width widening.

use fcpn::codegen::{FixedResolver, RoundRobinResolver};
use fcpn::petri::statespace::{FiringSession, TokenWidth};
use fcpn::petri::{gallery, Marking, NetBuilder, PetriNet, TransitionId};
use fcpn::rtos::{
    simulate_functional_partition, CostModel, FunctionalSimBatch, FunctionalTask, Workload,
};
use fcpn_bench::oracle::simulate_functional_partition_naive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

/// A random connected net mixing sources, choices, weighted arcs and sinks — the same
/// family `tests/properties.rs` uses to pin the explorer, reused here to pin the session.
fn random_net(rng: &mut StdRng) -> PetriNet {
    let mut b = NetBuilder::new("random-session-net");
    let places = rng.gen_range(2..6usize);
    let transitions = rng.gen_range(2..7usize);
    let place_ids: Vec<_> = (0..places)
        .map(|i| b.place(format!("p{i}"), rng.gen_range(0..3u64)))
        .collect();
    let transition_ids: Vec<_> = (0..transitions)
        .map(|i| b.transition(format!("t{i}")))
        .collect();
    for (i, &t) in transition_ids.iter().enumerate() {
        // Every transition gets 0..=2 inputs and 0..=2 outputs; index arithmetic keeps
        // the construction deterministic per seed.
        for _ in 0..rng.gen_range(0..3usize) {
            let p = place_ids[rng.gen_range(0..places)];
            let w = rng.gen_range(1..3u64);
            let _ = b.arc_p_t(p, t, w);
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let p = place_ids[rng.gen_range(0..places)];
            let w = rng.gen_range(1..3u64);
            let _ = b.arc_t_p(t, p, w);
        }
        // Make sure at least one transition is a source so traces never die instantly.
        if i == 0 {
            let p = place_ids[rng.gen_range(0..places)];
            let _ = b.arc_t_p(t, p, 1);
        }
    }
    b.build().expect("random net builds")
}

/// Drives a session and the safe token game in lockstep for `steps` steps, asserting
/// every observable agrees; returns the number of firings that actually happened.
fn lockstep_trace(
    net: &PetriNet,
    session: &mut FiringSession,
    marking: &mut Marking,
    rng: &mut StdRng,
    steps: usize,
) -> usize {
    let mut fired = 0;
    for _ in 0..steps {
        let safe_enabled = net.enabled_transitions(marking);
        assert_eq!(
            session.enabled_transitions(),
            safe_enabled,
            "enabled sets diverged on {}",
            net.name()
        );
        if safe_enabled.is_empty() {
            assert!(session.is_deadlocked());
            break;
        }
        // Mostly fire an enabled transition; sometimes attempt a disabled one and check
        // both sides reject it identically, leaving the marking untouched.
        if rng.gen_bool(0.85) {
            let t = safe_enabled[rng.gen_range(0..safe_enabled.len())];
            net.fire(marking, t).expect("enabled transition fires");
            session.fire(t).expect("enabled transition fires");
            fired += 1;
        } else {
            let t = TransitionId::new(rng.gen_range(0..net.transition_count()));
            let safe = net.fire(marking, t);
            let fast = session.fire(t);
            assert_eq!(safe.is_ok(), fast.is_ok());
            if safe.is_ok() {
                fired += 1;
            }
        }
        assert_eq!(session.marking(), *marking);
        assert_eq!(session.total_tokens(), marking.total_tokens());
    }
    fired
}

#[test]
fn random_traces_match_naive_token_game_on_gallery_nets() {
    for net in [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::marked_ring(6, 3),
        gallery::cycle_bank(6),
        gallery::choice_chain(4),
    ] {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + 7);
            let mut session = FiringSession::new(&net);
            let mut marking = net.initial_marking().clone();
            lockstep_trace(&net, &mut session, &mut marking, &mut rng, 200);
        }
    }
}

#[test]
fn random_traces_match_naive_token_game_on_random_nets() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let mut session = FiringSession::new(&net);
        let mut marking = net.initial_marking().clone();
        lockstep_trace(&net, &mut session, &mut marking, &mut rng, 300);
    }
}

#[test]
fn undo_rewinds_random_traces_exactly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let net = random_net(&mut rng);
        let mut session = FiringSession::new(&net);
        let mut marking = net.initial_marking().clone();
        let fired = lockstep_trace(&net, &mut session, &mut marking, &mut rng, 60);
        assert_eq!(session.trace_len(), fired);
        // Unwind the whole trace: the session must land exactly on the start.
        while session.undo().is_some() {}
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.total_tokens(), net.initial_marking().total_tokens());
    }
}

#[test]
fn deadlocked_session_reports_zero_enabled() {
    // A linear one-shot pipeline: after both firings nothing is enabled.
    let mut b = NetBuilder::new("pipeline");
    let p0 = b.place("p0", 1);
    let t0 = b.transition("t0");
    let p1 = b.place("p1", 0);
    let t1 = b.transition("t1");
    b.arc_p_t(p0, t0, 1).unwrap();
    b.arc_t_p(t0, p1, 1).unwrap();
    b.arc_p_t(p1, t1, 1).unwrap();
    let net = b.build().unwrap();
    let mut session = FiringSession::new(&net);
    session
        .fire_sequence(&[
            net.transition_by_name("t0").unwrap(),
            net.transition_by_name("t1").unwrap(),
        ])
        .unwrap();
    assert!(session.is_deadlocked());
    assert!(session.enabled_transitions().is_empty());
    assert_eq!(session.total_tokens(), 0);
    // Firing anything from the dead marking fails and changes nothing.
    let t0 = net.transition_by_name("t0").unwrap();
    assert!(session.fire(t0).is_err());
    assert_eq!(session.marking(), Marking::zeroes(2));
}

#[test]
fn checkpoint_rollback_across_the_u8_to_u16_width_boundary() {
    // A source transition pumps `p`; a drain consumes 2 at a time. The session starts
    // in the u8 arena, checkpoints below 255 tokens, is forced into u16 by saturation,
    // and must roll back across the widening without losing a token.
    let mut b = NetBuilder::new("pump-drain");
    let pump = b.transition("pump");
    let p = b.place("p", 0);
    let drain = b.transition("drain");
    b.arc_t_p(pump, p, 1).unwrap();
    b.arc_p_t(p, drain, 2).unwrap();
    let net = b.build().unwrap();
    let p = net.place_by_name("p").unwrap();
    let pump = net.transition_by_name("pump").unwrap();
    let drain = net.transition_by_name("drain").unwrap();

    let mut session = FiringSession::new(&net);
    assert_eq!(session.token_width(), TokenWidth::U8);

    for _ in 0..200 {
        session.fire(pump).unwrap();
    }
    let at_200 = session.checkpoint();
    assert_eq!(session.token_width(), TokenWidth::U8, "200 tokens fit u8");

    // Push past 255: the u8 arena saturates and the session widens to u16 mid-trace.
    for _ in 0..100 {
        session.fire(pump).unwrap();
    }
    assert_eq!(session.token_width(), TokenWidth::U16);
    assert_eq!(session.tokens_of(p), 300);
    let at_300 = session.checkpoint();

    // Rolling back to a checkpoint taken *before* the widening restores the exact
    // marking (the arena was widened in place, value-preserving).
    session.rollback(at_200);
    assert_eq!(session.tokens_of(p), 200);
    assert_eq!(session.total_tokens(), 200);
    assert_eq!(
        session.token_width(),
        TokenWidth::U16,
        "widths never narrow"
    );

    // The restored state is live: drain below the u8 range again and re-checkpoint.
    for _ in 0..100 {
        session.fire(drain).unwrap();
    }
    assert_eq!(session.tokens_of(p), 0);
    // Checkpoints taken at u8 width are still found by value after widening.
    assert_eq!(session.checkpoint_marking(at_200).tokens(p), 200);
    assert_eq!(session.checkpoint_marking(at_300).tokens(p), 300);
    session.rollback(at_300);
    assert_eq!(session.tokens_of(p), 300);

    // And the whole journey matched what the safe token game would have computed.
    let mut marking = net.initial_marking().clone();
    for _ in 0..300 {
        net.fire(&mut marking, pump).unwrap();
    }
    assert_eq!(session.marking(), marking);
}

#[test]
fn functional_simulator_fast_path_matches_naive_on_random_partitions() {
    // RTOS-level equivalence: random two-task partitionings of figure5 under a mixed
    // workload must produce identical SimReports on the session-backed and the
    // marking-by-marking simulators (same resolver seed on both sides).
    let net = gallery::figure5();
    let t1 = net.transition_by_name("t1").unwrap();
    let t8 = net.transition_by_name("t8").unwrap();
    let workload = Workload::periodic(t1, 9, 30, 0).merge(Workload::periodic(t8, 21, 12, 4));
    let cost = CostModel::default();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for t in net.transitions() {
            if rng.gen_bool(0.5) {
                a.push(t);
            } else {
                b.push(t);
            }
        }
        // Both halves must exist for a meaningful partition; sources must be owned.
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let tasks = vec![
            FunctionalTask {
                name: "a".into(),
                transitions: a,
            },
            FunctionalTask {
                name: "b".into(),
                transitions: b,
            },
        ];
        let mut fast_resolver = RoundRobinResolver::default();
        let fast =
            simulate_functional_partition(&net, &tasks, &cost, &workload, &mut fast_resolver);
        let mut naive_resolver = RoundRobinResolver::default();
        let naive = simulate_functional_partition_naive(
            &net,
            &tasks,
            &cost,
            &workload,
            &mut naive_resolver,
        );
        match (fast, naive) {
            (Ok(f), Ok(n)) => assert_eq!(f, n, "reports diverged at seed {seed}"),
            (Err(f), Err(n)) => assert_eq!(f, n, "errors diverged at seed {seed}"),
            (f, n) => panic!("outcomes diverged at seed {seed}: {f:?} vs {n:?}"),
        }
    }
}

#[test]
fn functional_fast_path_matches_naive_reference() {
    // The session-backed simulator and the seed marking-by-marking simulator must
    // produce bit-for-bit identical reports: same cycles, same activations, same
    // per-task breakdown, same peaks — on a workload that exercises choices, merges
    // and both input rates.
    let net = gallery::figure5();
    let t1 = net.transition_by_name("t1").unwrap();
    let t8 = net.transition_by_name("t8").unwrap();
    let workload = Workload::periodic(t1, 10, 40, 0).merge(Workload::periodic(t8, 25, 16, 3));
    let cost = CostModel::default();
    let tasks = vec![
        FunctionalTask {
            name: "input".into(),
            transitions: vec![
                t1,
                net.transition_by_name("t2").unwrap(),
                net.transition_by_name("t3").unwrap(),
            ],
        },
        FunctionalTask {
            name: "rest".into(),
            transitions: net
                .transitions()
                .filter(|t| !["t1", "t2", "t3"].contains(&net.transition_name(*t)))
                .collect(),
        },
    ];
    let mut fast_resolver = RoundRobinResolver::default();
    let fast =
        simulate_functional_partition(&net, &tasks, &cost, &workload, &mut fast_resolver).unwrap();
    let mut naive_resolver = RoundRobinResolver::default();
    let naive =
        simulate_functional_partition_naive(&net, &tasks, &cost, &workload, &mut naive_resolver)
            .unwrap();
    assert_eq!(fast, naive);
}

#[test]
fn batch_reuse_survives_token_width_widening() {
    // The daemon's reuse pattern: one batch, many runs, on a net whose token counts
    // saturate the narrow u8 arena mid-run (a place must accumulate 256 tokens
    // before its consumer fires). The start checkpoint is recorded at u8 width;
    // later runs roll back across the widening boundary and must still reproduce a
    // fresh seed simulator bit for bit.
    let mut b = NetBuilder::new("widening");
    let t_in = b.transition("t_in");
    let t_out = b.transition("t_out");
    let t_sink = b.transition("t_sink");
    let p = b.place("p", 0);
    let q = b.place("q", 0);
    b.arc_t_p(t_in, p, 1).unwrap();
    b.arc_p_t(p, t_out, 256).unwrap();
    b.arc_t_p(t_out, q, 1).unwrap();
    b.arc_p_t(q, t_sink, 1).unwrap();
    let net = b.build().unwrap();
    let tasks = vec![FunctionalTask {
        name: "all".into(),
        transitions: net.transitions().collect(),
    }];
    let cost = CostModel::default();
    let src = net.transition_by_name("t_in").unwrap();
    let mut batch = FunctionalSimBatch::new(&net, &tasks, &cost).unwrap();
    // 600 events push `p` through the u8 saturation point twice; 300 crosses once;
    // 100 stays narrow. Interleave so rollback happens before, across and after the
    // widening.
    for events in [600usize, 100, 300, 600] {
        let workload = Workload::periodic(src, 1, events, 0);
        let mut batch_resolver = FixedResolver::default();
        let from_batch = batch.run(&workload, &mut batch_resolver).unwrap();
        let mut fresh_resolver = FixedResolver::default();
        let fresh = simulate_functional_partition_naive(
            &net,
            &tasks,
            &cost,
            &workload,
            &mut fresh_resolver,
        )
        .unwrap();
        assert_eq!(from_batch, fresh, "{events} events diverged");
        assert_eq!(from_batch.fires_of(src), events as u64);
    }
}
