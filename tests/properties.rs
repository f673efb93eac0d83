//! Property-based tests over randomly generated dataflow graphs, free-choice nets and
//! workloads, driven by a seeded PRNG (the offline `rand` shim) so every case is
//! reproducible from its seed. These check the invariants the paper's constructions rely
//! on: repetition vectors satisfy the balance equations, valid schedules are sets of
//! finite complete cycles, generated code never drives a software buffer negative, and
//! the number of cycles equals the number of choice resolutions.
//!
//! The second half holds the state-space engine to its contract: the arena-interned
//! explorer ([`StateSpace`]) must discover *exactly* the same markings, edges, frontier
//! and dead markings as the seed breadth-first explorer ([`oracle::explore_naive`]) on
//! every gallery net and on randomly generated nets, bounded, truncated or one firing
//! away from `u64::MAX`.

use fcpn::codegen::{synthesize, Interpreter, SynthesisOptions};
use fcpn::petri::analysis::{IncidenceMatrix, InvariantAnalysis, ReachabilityOptions};
use fcpn::petri::statespace::{ExploreOptions, StateSpace};
use fcpn::petri::{gallery, NetBuilder, PetriNet, PlaceId, TransitionId};
use fcpn::qss::{quasi_static_schedule, QssOptions, QssOutcome};
use fcpn::sdf::{FiringPolicy, SdfGraph};
use fcpn_bench::oracle::{self, NaiveReachability};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A random multirate SDF chain (the Figure 2 family).
fn sdf_chain(rng: &mut StdRng) -> SdfGraph {
    let actors = rng.gen_range(2..7usize);
    let rates: Vec<(u64, u64)> = (0..rng.gen_range(1..6usize))
        .map(|_| (rng.gen_range(1..5u64), rng.gen_range(1..5u64)))
        .collect();
    let mut graph = SdfGraph::new("random-chain");
    let ids: Vec<_> = (0..actors).map(|i| graph.actor(format!("a{i}"))).collect();
    for (i, window) in ids.windows(2).enumerate() {
        let (produce, consume) = rates[i % rates.len()];
        graph
            .channel(window[0], produce, window[1], consume, 0)
            .expect("valid channel");
    }
    graph
}

/// A random schedulable free-choice net built as a tree of choices rooted at a single
/// source, where every branch drains into its own sink (the Figure 3a family), with an
/// optional weighted (multirate) tail on each branch (the Figure 4 family).
fn free_choice_tree(rng: &mut StdRng) -> PetriNet {
    let depth = rng.gen_range(1..3usize);
    let shape: Vec<(usize, u64)> = (0..rng.gen_range(1..4usize))
        .map(|_| (rng.gen_range(2..4usize), rng.gen_range(1..4u64)))
        .collect();
    let mut b = NetBuilder::new("random-fc-tree");
    let source = b.transition("src");
    let root = b.place("root", 0);
    b.arc_t_p(source, root, 1).expect("arc");
    let mut frontier: Vec<PlaceId> = vec![root];
    let mut counter = 0usize;
    for level in 0..depth {
        let (branches, weight) = shape[level % shape.len()];
        let mut next = Vec::new();
        for place in frontier {
            for branch in 0..branches {
                counter += 1;
                let t = b.transition(format!("t{level}_{branch}_{counter}"));
                b.arc_p_t(place, t, 1).expect("arc");
                let out = b.place(format!("p{level}_{branch}_{counter}"), 0);
                // Weighted production followed by a unit-rate drain keeps the branch
                // consistent while exercising multirate code paths.
                b.arc_t_p(t, out, weight).expect("arc");
                let drain = b.transition(format!("d{level}_{branch}_{counter}"));
                b.arc_p_t(out, drain, 1).expect("arc");
                if level + 1 < depth {
                    let cont = b.place(format!("c{level}_{branch}_{counter}"), 0);
                    b.arc_t_p(drain, cont, 1).expect("arc");
                    next.push(cont);
                }
            }
        }
        frontier = next;
    }
    b.build().expect("random tree is a valid net")
}

#[test]
fn repetition_vectors_satisfy_balance_equations() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = sdf_chain(&mut rng);
        let repetition = graph
            .repetition_vector()
            .expect("chains are always consistent");
        assert!(graph.is_repetition_vector(&repetition), "seed {seed}");
        // Minimality: dividing by any common factor > 1 must break integrality.
        let gcd = repetition
            .iter()
            .copied()
            .fold(0, fcpn::petri::analysis::gcd_u64);
        assert_eq!(gcd, 1, "seed {seed}");
    }
}

#[test]
fn sdf_schedules_are_finite_complete_cycles() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = sdf_chain(&mut rng);
        let schedule = graph
            .static_schedule(FiringPolicy::Eager)
            .expect("chains schedule");
        let net = graph.to_petri_net().expect("conversion");
        assert!(
            net.is_finite_complete_cycle(net.initial_marking(), &schedule.sequence),
            "seed {seed}"
        );
        // The eager and demand-driven policies realise the same firing counts.
        let demand = graph
            .static_schedule(FiringPolicy::DemandDriven)
            .expect("schedules");
        assert_eq!(schedule.repetition, demand.repetition, "seed {seed}");
        // Demand-driven scheduling never needs more total buffering than eager bursts.
        assert!(
            demand.total_buffer_tokens() <= schedule.total_buffer_tokens(),
            "seed {seed}"
        );
    }
}

#[test]
fn sdf_invariants_match_farkas_analysis() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = sdf_chain(&mut rng);
        let net = graph.to_petri_net().expect("conversion");
        let repetition = graph.repetition_vector().expect("consistent");
        let matrix = IncidenceMatrix::from_net(&net);
        assert!(matrix.is_t_invariant(&repetition), "seed {seed}");
        let analysis = InvariantAnalysis::of(&net);
        assert!(
            analysis.is_consistent(net.transition_count()),
            "seed {seed}"
        );
    }
}

#[test]
fn free_choice_trees_are_schedulable_with_one_cycle_per_resolution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = free_choice_tree(&mut rng);
        let outcome = quasi_static_schedule(&net, &QssOptions::default()).expect("fc input");
        let QssOutcome::Schedulable(schedule) = outcome else {
            panic!("tree nets must be schedulable (seed {seed})");
        };
        // One finite complete cycle per combination of choice resolutions.
        let expected: usize = net
            .choice_places()
            .iter()
            .map(|&p| net.consumers(p).len())
            .product();
        assert_eq!(schedule.cycle_count(), expected.max(1), "seed {seed}");
        for cycle in &schedule.cycles {
            assert!(
                net.is_finite_complete_cycle(net.initial_marking(), &cycle.sequence),
                "seed {seed}"
            );
            // Every cycle contains the source exactly once (single-rate input).
            let source = net.source_transitions()[0];
            assert_eq!(cycle.counts[source.index()], 1, "seed {seed}");
        }
    }
}

#[test]
fn generated_code_keeps_counters_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = free_choice_tree(&mut rng);
        let decisions: Vec<usize> = (0..32).map(|_| rng.gen_range(0..4usize)).collect();
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .expect("fc input")
            .schedule()
            .expect("tree nets are schedulable");
        let program = synthesize(&net, &schedule, SynthesisOptions::default()).expect("synthesis");
        assert_eq!(program.task_count(), 1, "seed {seed}");
        let mut interpreter = Interpreter::new(&program, &net);
        let mut cursor = 0usize;
        let mut resolver = |_: PlaceId, candidates: &[TransitionId]| {
            let pick = candidates[decisions[cursor % decisions.len()] % candidates.len()];
            cursor += 1;
            pick
        };
        for _ in 0..decisions.len() {
            interpreter
                .run_task(0, &mut resolver)
                .expect("execution never underflows");
        }
        // Counters never exceed the schedule's buffer bound and end up non-negative.
        let bounds = schedule.buffer_bounds(&net);
        for (index, &peak) in interpreter.peak_counters().iter().enumerate() {
            assert!(peak >= 0, "seed {seed}");
            if program.is_counter_place(PlaceId::new(index)) {
                assert!(peak as u64 <= bounds[index].max(1), "seed {seed}");
            }
        }
    }
}

#[test]
fn generated_code_agrees_with_the_token_game() {
    // Cross-validation of the two execution models: running the synthesised program
    // (fcpn-codegen interpreter) and playing the token game directly (fcpn-rtos
    // functional simulation with a single task) must perform exactly the same
    // computations when they see the same choice outcomes.
    use fcpn::codegen::FixedResolver;
    use fcpn::rtos::{
        simulate_functional_partition, simulate_program, CostModel, FunctionalTask, Workload,
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = free_choice_tree(&mut rng);
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .expect("fc input")
            .schedule()
            .expect("tree nets are schedulable");
        let program = synthesize(&net, &schedule, SynthesisOptions::default()).expect("synthesis");
        let source = net.source_transitions()[0];
        let workload = Workload::periodic(source, 3, 24, 0);
        let cost = CostModel::default();
        let mut qss_resolver = FixedResolver { arm: 0 };
        let qss = simulate_program(&program, &net, &cost, &workload, &mut qss_resolver)
            .expect("qss simulation");
        let all = vec![FunctionalTask {
            name: "all".into(),
            transitions: net.transitions().collect(),
        }];
        let mut functional_resolver = FixedResolver { arm: 0 };
        let functional =
            simulate_functional_partition(&net, &all, &cost, &workload, &mut functional_resolver)
                .expect("token-game simulation");
        assert_eq!(qss.fire_counts, functional.fire_counts, "seed {seed}");
        assert_eq!(
            qss.events_processed, functional.events_processed,
            "seed {seed}"
        );
    }
}

#[test]
fn c_and_rust_backends_agree_on_structure() {
    use fcpn::codegen::{emit_c, emit_rust, CEmitOptions, RustEmitOptions};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = free_choice_tree(&mut rng);
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .expect("fc input")
            .schedule()
            .expect("tree nets are schedulable");
        let program = synthesize(&net, &schedule, SynthesisOptions::default()).expect("synthesis");
        let c = emit_c(&program, &net, CEmitOptions::default());
        let rust = emit_rust(&program, &net, RustEmitOptions::default());
        // Both back ends contain every task and every counter place, and are brace-balanced.
        for task in &program.tasks {
            assert!(c.contains(&task.name), "seed {seed}");
            assert!(rust.contains(&task.name), "seed {seed}");
        }
        for &place in &program.counter_places {
            let c_counter = format!("count_{}", net.place_name(place));
            let rust_counter = format!("pub {}: u64", net.place_name(place));
            assert!(
                c.contains(&c_counter),
                "missing counter {c_counter} in C (seed {seed})"
            );
            assert!(
                rust.contains(&rust_counter),
                "missing counter {rust_counter} in Rust (seed {seed})"
            );
        }
        assert_eq!(
            c.matches('{').count(),
            c.matches('}').count(),
            "seed {seed}"
        );
        assert_eq!(
            rust.matches('{').count(),
            rust.matches('}').count(),
            "seed {seed}"
        );
    }
}

#[test]
fn schedule_buffer_bounds_dominate_every_cycle() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = free_choice_tree(&mut rng);
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .expect("fc input")
            .schedule()
            .expect("tree nets are schedulable");
        let bounds = schedule.buffer_bounds(&net);
        for cycle in &schedule.cycles {
            let peaks = net
                .peak_tokens(net.initial_marking(), &cycle.sequence)
                .expect("cycle is fireable");
            for (bound, peak) in bounds.iter().zip(peaks.iter()) {
                assert!(bound >= peak, "seed {seed}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// State-space engine vs. the seed breadth-first explorer.
// ---------------------------------------------------------------------------

/// Dead markings computed the pre-engine way: a full successor scan per marking.
fn naive_dead_markings(graph: &NaiveReachability) -> Vec<usize> {
    (0..graph.markings.len())
        .filter(|&i| graph.edges.iter().all(|&(from, _, _)| from != i))
        .collect()
}

/// Backward reachability computed the pre-engine way: an O(V·E) edge-list fixpoint.
fn naive_can_eventually_fire(
    graph: &NaiveReachability,
    net: &PetriNet,
    transition: TransitionId,
) -> Vec<bool> {
    let mut can: Vec<bool> = graph
        .markings
        .iter()
        .map(|m| net.is_enabled(m, transition))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(from, _, to) in &graph.edges {
            if can[to] && !can[from] {
                can[from] = true;
                changed = true;
            }
        }
    }
    can
}

/// Asserts the engine and the naive explorer agree bit-for-bit on `net`: same markings
/// in the same discovery order, same edges, same completeness/frontier, same dead
/// markings, same largest token count and the same backward-reachability verdicts for
/// every transition; every marking is found again through the engine's interner.
fn assert_engines_agree(net: &PetriNet, options: ReachabilityOptions, tag: &str) {
    let naive = oracle::explore_naive(net, options);
    let naive_dead = naive_dead_markings(&naive);
    let naive_max = naive
        .markings
        .iter()
        .map(|m| m.max_tokens())
        .max()
        .unwrap_or(0);
    let space = StateSpace::explore(net, options);
    assert_eq!(
        space.state_count(),
        naive.markings.len(),
        "{tag}: state count"
    );
    assert_eq!(space.edge_count(), naive.edges.len(), "{tag}: edge count");
    assert_eq!(space.is_complete(), naive.complete, "{tag}: completeness");
    for (id, tokens) in space.states().enumerate() {
        assert_eq!(tokens, naive.markings[id].as_slice(), "{tag}: marking {id}");
    }
    let engine_edges: Vec<(usize, TransitionId, usize)> = space
        .edges()
        .map(|(from, t, to)| (from as usize, t, to as usize))
        .collect();
    assert_eq!(engine_edges, naive.edges, "{tag}: edges");
    let engine_frontier: Vec<usize> = space.frontier().iter().map(|&s| s as usize).collect();
    assert_eq!(engine_frontier, naive.frontier, "{tag}: frontier");
    let engine_dead: Vec<usize> = space.dead_states().iter().map(|&s| s as usize).collect();
    assert_eq!(engine_dead, naive_dead, "{tag}: dead markings");
    assert_eq!(space.max_tokens_observed(), naive_max, "{tag}: max tokens");
    for t in net.transitions() {
        assert_eq!(
            space.can_eventually_fire(net, t),
            naive_can_eventually_fire(&naive, net, t),
            "{tag}: can_eventually_fire({t:?})"
        );
    }
    for (id, marking) in naive.markings.iter().enumerate() {
        assert_eq!(
            space.index_of(marking),
            Some(id as u32),
            "{tag}: interner lookup"
        );
    }
}

/// Asserts every engine variant the options can select — a `threads` value other than
/// 1, and armed guards (a live cancellation token and a memory budget the exploration
/// never reaches) — produces exactly the graph the default options produce: same
/// markings in the same id order, same edge lists, same completeness/frontier, same
/// dead markings and the same interner lookups.
fn assert_variants_canonical(net: &PetriNet, options: ReachabilityOptions, label: &str) {
    let baseline = StateSpace::explore(net, options);
    let variants = [
        (
            "threads=2",
            ExploreOptions {
                reach: options,
                threads: 2,
                ..ExploreOptions::default()
            },
        ),
        (
            "armed-guards",
            ExploreOptions {
                reach: options,
                threads: 1,
                cancel: fcpn::petri::cancel::CancelToken::new(),
                memory: fcpn::petri::MemoryBudget::with_limit(1 << 40),
            },
        ),
    ];
    for (name, explore) in variants {
        let space = StateSpace::try_explore_with(net, &explore)
            .expect("armed-but-unreached guards never interrupt");
        let tag = format!("{label} [{name}]");
        assert_eq!(space.state_count(), baseline.state_count(), "{tag}: states");
        assert_eq!(space.edge_count(), baseline.edge_count(), "{tag}: edges");
        assert_eq!(
            space.is_complete(),
            baseline.is_complete(),
            "{tag}: completeness"
        );
        assert_eq!(space.frontier(), baseline.frontier(), "{tag}: frontier");
        assert_eq!(
            space.dead_states(),
            baseline.dead_states(),
            "{tag}: dead markings"
        );
        for id in 0..baseline.state_count() as u32 {
            assert_eq!(space.tokens(id), baseline.tokens(id), "{tag}: marking {id}");
            let base_row: Vec<_> = baseline.successors(id).collect();
            let row: Vec<_> = space.successors(id).collect();
            assert_eq!(row, base_row, "{tag}: out-edges of {id}");
            assert_eq!(
                space.index_of_tokens(baseline.tokens(id)),
                Some(id),
                "{tag}: interner lookup of {id}"
            );
        }
    }
}

/// Truncation budget for nets with source transitions (unbounded state spaces).
fn truncated() -> ReachabilityOptions {
    ReachabilityOptions {
        max_markings: 3_000,
        max_tokens_per_place: 5,
    }
}

#[test]
fn engine_and_naive_agree_on_cycle() {
    // p1 -> t1 -> p2 -> t2 -> p1 with one token: two reachable markings.
    let mut b = NetBuilder::new("cycle");
    let p1 = b.place("p1", 1);
    let t1 = b.transition("t1");
    let p2 = b.place("p2", 0);
    let t2 = b.transition("t2");
    b.arc_p_t(p1, t1, 1).unwrap();
    b.arc_t_p(t1, p2, 1).unwrap();
    b.arc_p_t(p2, t2, 1).unwrap();
    b.arc_t_p(t2, p1, 1).unwrap();
    let net = b.build().unwrap();
    assert_engines_agree(&net, ReachabilityOptions::default(), "cycle");
}

#[test]
fn engine_matches_naive_on_every_gallery_net() {
    let open_nets: Vec<(&str, PetriNet)> = vec![
        ("figure1a", gallery::figure1a()),
        ("figure1b", gallery::figure1b()),
        ("figure2", gallery::figure2()),
        ("figure3a", gallery::figure3a()),
        ("figure3b", gallery::figure3b()),
        ("figure4", gallery::figure4()),
        ("figure5", gallery::figure5()),
        ("figure7", gallery::figure7()),
        ("choice_chain(3)", gallery::choice_chain(3)),
    ];
    for (label, net) in &open_nets {
        assert_engines_agree(net, truncated(), label);
    }
    // Bounded nets explore completely under the default budget.
    for (label, net) in [
        ("marked_ring(6,3)", gallery::marked_ring(6, 3)),
        ("marked_ring(10,4)", gallery::marked_ring(10, 4)),
    ] {
        assert_engines_agree(&net, ReachabilityOptions::default(), label);
    }
}

#[test]
fn engine_variants_are_canonical_on_every_gallery_net() {
    let open_nets: Vec<(&str, PetriNet)> = vec![
        ("figure1a", gallery::figure1a()),
        ("figure1b", gallery::figure1b()),
        ("figure2", gallery::figure2()),
        ("figure3a", gallery::figure3a()),
        ("figure3b", gallery::figure3b()),
        ("figure4", gallery::figure4()),
        ("figure5", gallery::figure5()),
        ("figure7", gallery::figure7()),
        ("choice_chain(3)", gallery::choice_chain(3)),
    ];
    for (label, net) in &open_nets {
        assert_variants_canonical(net, truncated(), label);
    }
    for (label, net) in [
        ("marked_ring(6,3)", gallery::marked_ring(6, 3)),
        ("marked_ring(10,4)", gallery::marked_ring(10, 4)),
        ("cycle_bank(8)", gallery::cycle_bank(8)),
    ] {
        assert_variants_canonical(&net, ReachabilityOptions::default(), label);
    }
}

#[test]
fn engine_variants_are_canonical_on_random_nets() {
    // 64 seeded random nets in total (48 dense + 16 free-choice trees), each checked
    // under `threads: 2` and on the armed-guards (live token + budget) path.
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xACE ^ seed);
        let net = random_net(&mut rng);
        let options = ReachabilityOptions {
            max_markings: 1_500,
            max_tokens_per_place: 6,
        };
        assert_variants_canonical(&net, options, &format!("random net seed {seed}"));
    }
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xD1CE ^ seed);
        let net = free_choice_tree(&mut rng);
        assert_variants_canonical(&net, truncated(), &format!("fc tree seed {seed}"));
    }
}

#[test]
fn memory_exhaustion_is_deterministic_across_engines() {
    // The budget charges the canonical cost model (8 bytes per place plus 32 per state,
    // 8 per edge) in admission order, so the same net under the same byte limit must
    // fail with a typed exhaustion error, and with the *same* one — same stage, same
    // requested_bytes — on every run. The meter refills in 64 KiB chunks, so the failing
    // request is one chunk.
    for (label, net, limit) in [
        ("figure5", fcpn::petri::gallery::figure5(), 2_000u64),
        (
            "memory_bomb(5)",
            fcpn::petri::gallery::memory_bomb(5),
            4_096,
        ),
        ("cycle_bank(8)", fcpn::petri::gallery::cycle_bank(8), 1_024),
    ] {
        let reach = ReachabilityOptions {
            max_markings: 200_000,
            max_tokens_per_place: 16,
        };
        let exhaust = || {
            StateSpace::try_explore_with(
                &net,
                &ExploreOptions {
                    reach,
                    memory: fcpn::petri::MemoryBudget::with_limit(limit),
                    ..ExploreOptions::default()
                },
            )
            .expect_err("tight budget must exhaust")
        };
        let first = exhaust();
        assert_eq!(
            first,
            fcpn::petri::Interrupt::Exhausted(fcpn::petri::budget::ResourceExhausted {
                limit_bytes: limit,
                requested_bytes: 65_536,
                stage: "reachability",
            }),
            "{label}"
        );
        assert_eq!(exhaust(), first, "{label}: a rerun diverged");
    }
}

#[test]
fn engine_variants_are_canonical_under_tight_budgets() {
    // Budget truncation is where discovery order matters most: which states fall inside
    // the budget depends on it, so this pins every variant's admission order
    // byte-for-byte.
    let net = gallery::figure5();
    for max_markings in [1usize, 2, 7, 50, 333] {
        assert_variants_canonical(
            &net,
            ReachabilityOptions {
                max_markings,
                max_tokens_per_place: 3,
            },
            &format!("figure5 budget={max_markings}"),
        );
    }
    assert_variants_canonical(
        &net,
        ReachabilityOptions {
            max_markings: 100,
            max_tokens_per_place: 0,
        },
        "figure5 cutoff=0",
    );
}

#[test]
fn engine_matches_naive_on_tight_budgets() {
    // Budget edge cases: a budget of one marking, and a zero token cut-off.
    let net = gallery::figure5();
    for max_markings in [1usize, 2, 7, 50] {
        assert_engines_agree(
            &net,
            ReachabilityOptions {
                max_markings,
                max_tokens_per_place: 3,
            },
            &format!("figure5 budget={max_markings}"),
        );
    }
    assert_engines_agree(
        &net,
        ReachabilityOptions {
            max_markings: 100,
            max_tokens_per_place: 0,
        },
        "figure5 cutoff=0",
    );
}

/// A random net with arbitrary structure — not necessarily free-choice, bounded, or even
/// connected — to fuzz the explorers' agreement beyond the well-behaved families.
fn random_net(rng: &mut StdRng) -> PetriNet {
    let places = rng.gen_range(1..6usize);
    let transitions = rng.gen_range(1..6usize);
    let mut b = NetBuilder::new("fuzz");
    let ps: Vec<PlaceId> = (0..places)
        .map(|i| b.place(format!("p{i}"), rng.gen_range(0..3u64)))
        .collect();
    let ts: Vec<TransitionId> = (0..transitions)
        .map(|i| b.transition(format!("t{i}")))
        .collect();
    for &t in &ts {
        for &p in &ps {
            // ~40% chance of each arc direction, weights 1–2.
            if rng.gen_bool(0.4) {
                b.arc_p_t(p, t, rng.gen_range(1..3u64)).expect("arc");
            }
            if rng.gen_bool(0.4) {
                b.arc_t_p(t, p, rng.gen_range(1..3u64)).expect("arc");
            }
        }
    }
    b.build().expect("fuzz net is structurally valid")
}

#[test]
fn engine_matches_naive_on_random_nets() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0xF00D ^ seed);
        let net = random_net(&mut rng);
        let options = ReachabilityOptions {
            max_markings: 2_000,
            max_tokens_per_place: 6,
        };
        assert_engines_agree(&net, options, &format!("random net seed {seed}"));
    }
}

#[test]
fn engine_matches_naive_on_random_free_choice_trees() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);
        let net = free_choice_tree(&mut rng);
        assert_engines_agree(&net, truncated(), &format!("fc tree seed {seed}"));
    }
}

#[test]
fn engine_drops_overflowing_edges_like_naive_near_u64_max() {
    // `p` starts one firing away from `u64::MAX`. `add1` fills it; `add2` overflows at
    // once; `both` grows `q` before it overflows `p`, so its delta row must be undone
    // from the middle; `move` drains `p` into `q`. Every overflowing firing is a
    // dropped edge, exactly as the checked token game's `TokenOverflow` drops it.
    let mut b = NetBuilder::new("near-max");
    let p = b.place("p", u64::MAX - 1);
    let q = b.place("q", 0);
    let add1 = b.transition("add1");
    let add2 = b.transition("add2");
    let both = b.transition("both");
    let drain = b.transition("move");
    b.arc_t_p(add1, p, 1).unwrap();
    b.arc_t_p(add2, p, 2).unwrap();
    b.arc_t_p(both, q, 1).unwrap();
    b.arc_t_p(both, p, 1).unwrap();
    b.arc_p_t(p, drain, 1).unwrap();
    b.arc_t_p(drain, q, 1).unwrap();
    let net = b.build().unwrap();
    // Without a cut-off every state is expanded (truncated by the state budget); one
    // below the maximum, full places land on the frontier instead.
    for max_tokens_per_place in [u64::MAX, u64::MAX - 1] {
        let options = ReachabilityOptions {
            max_markings: 40,
            max_tokens_per_place,
        };
        let tag = format!("near-max cut-off {max_tokens_per_place}");
        assert_engines_agree(&net, options, &tag);
        let space = StateSpace::explore(&net, options);
        // From the start, `add2` overflows and is dropped while the other three fire.
        let first: Vec<TransitionId> = space.successors(0).map(|(t, _)| t).collect();
        assert_eq!(first, vec![add1, both, drain], "{tag}");
        assert_eq!(space.max_tokens_observed(), u64::MAX, "{tag}");
    }
}
