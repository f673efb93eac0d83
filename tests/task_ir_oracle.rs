//! Bit-identity suite for the task IR builder.
//!
//! `fcpn_codegen::synthesize` deduplicates each task's slices by their firing counts
//! before ordering them, and recurses on borrowed `(transition, count)` sub-slices. The
//! reference here is the builder it replaced: every cycle's slice is ordered causally and
//! carried as a full per-transition count vector, duplicates are dropped after ordering by
//! a linear scan, and arm heads and continuations are fresh vectors at every level. The
//! two must build the same [`Program`] on the paper's figures, every net family of the
//! `schedule_cold` benchmark workload, closed nets and seeded random free-choice nets
//! with zero, one and two inputs.

use fcpn::atm::{AtmConfig, AtmModel};
use fcpn::codegen::{synthesize, ChoiceArm, CodegenError, Program, Stmt, SynthesisOptions, Task};
use fcpn::petri::{gallery, NetBuilder, PetriNet, PlaceId, TransitionId};
use fcpn::qss::{quasi_static_schedule, FiniteCompleteCycle, QssOptions, ValidSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A task's view of one cycle: the transitions it must execute (in first-occurrence
/// order) and how many times each fires per cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TaskSlice {
    /// Transitions in first-occurrence order.
    order: Vec<TransitionId>,
    /// Firing counts per parent transition.
    counts: Vec<u64>,
}

/// The reference builder: the task IR of `net` from its valid schedule.
fn reference_synthesize(net: &PetriNet, schedule: &ValidSchedule) -> Result<Program, CodegenError> {
    if schedule.cycles.is_empty() {
        return Err(CodegenError::EmptySchedule);
    }
    let counter_places = counter_places(net);
    let sources = net.source_transitions();

    let mut tasks = Vec::new();
    if sources.is_empty() {
        // Closed nets (no environment inputs) become a single task running one full cycle
        // per invocation.
        let slices: Vec<TaskSlice> = schedule
            .cycles
            .iter()
            .map(|cycle| TaskSlice {
                order: causal_order(net, &cycle.counts, None),
                counts: cycle.counts.clone(),
            })
            .collect();
        tasks.push(Task {
            name: "task_main".to_string(),
            source: None,
            body: build_segment(net, &counter_places, &slices, None),
        });
    } else {
        for &source in &sources {
            let mut slices = Vec::new();
            for cycle in &schedule.cycles {
                let slice =
                    slice_for(cycle, source).ok_or(CodegenError::MissingSlice { source })?;
                let order = causal_order(net, &slice, Some(source));
                slices.push(TaskSlice {
                    order,
                    counts: slice,
                });
            }
            dedup_slices(&mut slices);
            tasks.push(Task {
                name: format!("task_{}", net.transition_name(source)),
                source: Some(source),
                body: build_segment(net, &counter_places, &slices, None),
            });
        }
    }

    Ok(Program {
        name: net.name().to_string(),
        tasks,
        counter_places,
    })
}

/// Places implemented as software counters: every non-choice place with a weighted arc or
/// with more than one producer (merge). Choice places carry the run-time decision value
/// instead and are compiled to if/else tests.
fn counter_places(net: &PetriNet) -> Vec<PlaceId> {
    net.places()
        .filter(|&p| {
            if net.is_choice_place(p) {
                return false;
            }
            let weighted = net
                .producers(p)
                .iter()
                .chain(net.consumers(p).iter())
                .any(|&(_, w)| w != 1);
            weighted || net.producers(p).len() > 1
        })
        .collect()
}

/// Extracts the slice of `cycle` attributed to `source`, i.e. the firing counts of the
/// transitions whose rate depends on that input.
fn slice_for(cycle: &FiniteCompleteCycle, source: TransitionId) -> Option<Vec<u64>> {
    cycle
        .source_slices
        .iter()
        .find(|&&(s, _)| s == source)
        .map(|(_, counts)| counts.clone())
}

/// Orders the transitions in the support of `counts` causally within the task: the task's
/// own source first, then every transition once all of its in-support producers have been
/// placed. This is the order in which the task's code executes the computations when its
/// input event arrives, independent of how the full cycle interleaves other tasks.
fn causal_order(net: &PetriNet, counts: &[u64], source: Option<TransitionId>) -> Vec<TransitionId> {
    let support: Vec<TransitionId> = net
        .transitions()
        .filter(|t| counts[t.index()] > 0)
        .collect();
    let in_support: BTreeSet<TransitionId> = support.iter().copied().collect();
    let mut order: Vec<TransitionId> = Vec::with_capacity(support.len());
    let mut placed: BTreeSet<TransitionId> = BTreeSet::new();
    if let Some(source) = source {
        if in_support.contains(&source) {
            order.push(source);
            placed.insert(source);
        }
    }
    while order.len() < support.len() {
        let mut added = false;
        for &t in &support {
            if placed.contains(&t) {
                continue;
            }
            let ready = net.inputs(t).iter().all(|&(p, _)| {
                let producers_in_support: Vec<TransitionId> = net
                    .producers(p)
                    .iter()
                    .map(|&(producer, _)| producer)
                    .filter(|producer| in_support.contains(producer))
                    .collect();
                producers_in_support.is_empty()
                    || producers_in_support
                        .iter()
                        .any(|producer| placed.contains(producer))
                    || net.initial_marking().tokens(p) > 0
            });
            if ready {
                order.push(t);
                placed.insert(t);
                added = true;
            }
        }
        if !added {
            // Break structural cycles deterministically by index order.
            if let Some(&t) = support.iter().find(|t| !placed.contains(t)) {
                order.push(t);
                placed.insert(t);
            }
        }
    }
    order
}

/// Zeroes the counts of transitions outside `order`, so that continuations that only
/// differ in the counts of already-emitted transitions compare (and deduplicate) as equal.
fn restrict_counts(counts: &[u64], order: &[TransitionId]) -> Vec<u64> {
    let mut restricted = vec![0u64; counts.len()];
    for &t in order {
        restricted[t.index()] = counts[t.index()];
    }
    restricted
}

fn dedup_slices(slices: &mut Vec<TaskSlice>) {
    let mut unique: Vec<TaskSlice> = Vec::new();
    for slice in slices.drain(..) {
        if !unique.contains(&slice) {
            unique.push(slice);
        }
    }
    *slices = unique;
}

/// Recursively builds the statements shared by `slices`: the common prefix is emitted
/// linearly, and the first divergence becomes an if/else-if over the choice that caused
/// it.
fn build_segment(
    net: &PetriNet,
    counters: &[PlaceId],
    slices: &[TaskSlice],
    prev: Option<(TransitionId, u64)>,
) -> Vec<Stmt> {
    let slices: Vec<&TaskSlice> = slices.iter().filter(|s| !s.order.is_empty()).collect();
    if slices.is_empty() {
        return Vec::new();
    }
    // Length of the common prefix (by transition identity).
    let mut prefix_len = 0;
    while let Some(&candidate) = slices[0].order.get(prefix_len) {
        if slices
            .iter()
            .any(|s| s.order.get(prefix_len) != Some(&candidate))
        {
            break;
        }
        prefix_len += 1;
    }

    let mut statements = Vec::new();
    let mut prev = prev;
    // Emit the common prefix. Counts may differ between slices for the same transition
    // (e.g. `t1` fires twice per cycle in one resolution and once in another); the rate
    // comparison uses the maximum, which is the sustained requirement.
    let mut sink: &mut Vec<Stmt> = &mut statements;
    for position in 0..prefix_len {
        let transition = slices[0].order[position];
        let count = slices
            .iter()
            .map(|s| s.counts[transition.index()])
            .max()
            .unwrap_or(1);
        sink = emit_transition(net, counters, sink, transition, count, &mut prev);
    }

    // Emit the divergence, if any, as a choice over the conflicting transitions.
    let remaining: Vec<(&TaskSlice, Option<&TransitionId>)> = slices
        .iter()
        .map(|s| (*s, s.order.get(prefix_len)))
        .collect();
    if remaining.iter().all(|(_, next)| next.is_none()) {
        return statements;
    }
    // Group the slices by the transition they fire at the divergence point.
    let mut arms: Vec<(TransitionId, Vec<TaskSlice>)> = Vec::new();
    for (slice, next) in remaining {
        let Some(&next) = next else { continue };
        let rest = TaskSlice {
            order: slice.order[prefix_len..].to_vec(),
            counts: slice.counts.clone(),
        };
        match arms.iter_mut().find(|(t, _)| *t == next) {
            Some((_, group)) => group.push(rest),
            None => arms.push((next, vec![rest])),
        }
    }
    if arms.len() == 1 {
        // Not an actual data-dependent divergence (all slices continue identically); keep
        // emitting linearly.
        let (_, group) = &arms[0];
        let tail = build_segment(net, counters, group, prev);
        sink.extend(tail);
        return statements;
    }

    // Reconvergence detection: if after `split` steps every arm leads to the same set of
    // continuations, the choice only affects those `split` steps and the continuation is
    // emitted once after the if/else-if chain. This is the structured counterpart of the
    // paper's merge-place labels/gotos and is what keeps the generated code linear in the
    // size of the net even though the number of T-reductions is exponential.
    let max_len = arms
        .iter()
        .flat_map(|(_, group)| group.iter().map(|s| s.order.len()))
        .max()
        .unwrap_or(0);
    let mut chosen_split = None;
    'split: for split in 1..max_len {
        let mut reference: Option<Vec<(Vec<TransitionId>, Vec<u64>)>> = None;
        for (_, group) in &arms {
            let mut continuations: Vec<(Vec<TransitionId>, Vec<u64>)> = group
                .iter()
                .map(|s| {
                    let suffix = s.order.get(split..).unwrap_or(&[]).to_vec();
                    let counts = restrict_counts(&s.counts, &suffix);
                    (suffix, counts)
                })
                .collect();
            continuations.sort();
            continuations.dedup();
            match &reference {
                None => reference = Some(continuations),
                Some(r) if *r != continuations => continue 'split,
                Some(_) => {}
            }
        }
        chosen_split = Some(split);
        break;
    }

    // The diverging transitions share a choice place in a free-choice net.
    let choice_place = arms
        .first()
        .and_then(|(t, _)| net.inputs(*t).first().map(|&(p, _)| p))
        .unwrap_or(PlaceId::new(0));

    match chosen_split {
        Some(split) => {
            let continuation: Vec<TaskSlice> = {
                let mut all: Vec<TaskSlice> = arms
                    .iter()
                    .flat_map(|(_, group)| group.iter())
                    .map(|s| {
                        let order = s.order.get(split..).unwrap_or(&[]).to_vec();
                        let counts = restrict_counts(&s.counts, &order);
                        TaskSlice { order, counts }
                    })
                    .collect();
                dedup_slices(&mut all);
                all
            };
            let arm_prev = prev;
            let divergent_count = arms
                .iter()
                .flat_map(|(t, group)| group.iter().map(|s| s.counts[t.index()]))
                .max()
                .unwrap_or(1);
            let first_arm_transition = arms[0].0;
            let choice_arms = arms
                .into_iter()
                .map(|(transition, group)| {
                    let heads: Vec<TaskSlice> = group
                        .iter()
                        .map(|s| TaskSlice {
                            order: s
                                .order
                                .get(..split.min(s.order.len()))
                                .unwrap_or(&[])
                                .to_vec(),
                            counts: s.counts.clone(),
                        })
                        .collect();
                    ChoiceArm {
                        transition,
                        body: build_segment(net, counters, &heads, arm_prev),
                    }
                })
                .collect();
            sink.push(Stmt::Choice {
                place: choice_place,
                arms: choice_arms,
            });
            let continuation_prev = Some((first_arm_transition, divergent_count));
            let tail = build_segment(net, counters, &continuation, continuation_prev);
            sink.extend(tail);
        }
        None => {
            let choice_arms = arms
                .into_iter()
                .map(|(transition, group)| ChoiceArm {
                    transition,
                    body: build_segment(net, counters, &group, prev),
                })
                .collect();
            sink.push(Stmt::Choice {
                place: choice_place,
                arms: choice_arms,
            });
        }
    }
    statements
}

/// Emits one transition (and its counter bookkeeping), returning the statement list into
/// which subsequent statements should be emitted (the body of the guard when one was
/// created, so downstream consumers nest inside the producing loop).
fn emit_transition<'a>(
    net: &PetriNet,
    counters: &[PlaceId],
    sink: &'a mut Vec<Stmt>,
    transition: TransitionId,
    count: u64,
    prev: &mut Option<(TransitionId, u64)>,
) -> &'a mut Vec<Stmt> {
    let is_counter = |p: PlaceId| counters.contains(&p);
    let counter_inputs: Vec<(PlaceId, u64)> = net
        .inputs(transition)
        .iter()
        .copied()
        .filter(|&(p, _)| is_counter(p))
        .collect();
    let counter_outputs: Vec<(PlaceId, u64)> = net
        .outputs(transition)
        .iter()
        .copied()
        .filter(|&(p, _)| is_counter(p))
        .collect();

    let mut body = Vec::new();
    body.push(Stmt::Fire(transition));
    for &(place, amount) in &counter_inputs {
        body.push(Stmt::DecCount { place, amount });
    }
    for &(place, amount) in &counter_outputs {
        body.push(Stmt::IncCount { place, amount });
    }

    let previous = *prev;
    *prev = Some((transition, count));

    if counter_inputs.is_empty() {
        sink.extend(body);
        return sink;
    }

    // Guard on the place connecting the previous transition to this one when it is a
    // counter; otherwise on the first counted input.
    let connecting = previous.and_then(|(p_t, _)| {
        counter_inputs
            .iter()
            .copied()
            .find(|&(place, _)| net.arc_weight_tp(p_t, place) > 0)
    });
    let (guard_place, guard_amount) = connecting.unwrap_or(counter_inputs[0]);
    let fires_less_often = previous.map(|(_, c)| count < c).unwrap_or(false);
    let guarded = if fires_less_often {
        Stmt::IfCount {
            place: guard_place,
            at_least: guard_amount,
            body,
        }
    } else {
        Stmt::WhileCount {
            place: guard_place,
            at_least: guard_amount,
            body,
        }
    };
    sink.push(guarded);
    match sink.last_mut() {
        Some(Stmt::IfCount { body, .. }) | Some(Stmt::WhileCount { body, .. }) => body,
        _ => unreachable!("a guard statement was just pushed"),
    }
}

/// Schedules `net`, or `None` when it is not quasi-statically schedulable.
fn schedule_of(net: &PetriNet) -> Option<ValidSchedule> {
    quasi_static_schedule(net, &QssOptions::default())
        .expect("a valid free-choice input")
        .schedule()
}

/// Asserts that both builders produce the same program (or the same error) from
/// `schedule`, and returns it.
fn assert_same_program(net: &PetriNet, schedule: &ValidSchedule) -> Result<Program, CodegenError> {
    let built = synthesize(net, schedule, SynthesisOptions::default());
    let reference = reference_synthesize(net, schedule);
    assert_eq!(built, reference, "{}: programs differ", net.name());
    built
}

/// Schedules `net`, which must be schedulable, asserts that both builders produce the
/// same program from its schedule, and returns the schedule.
fn assert_schedulable_and_same(net: &PetriNet) -> ValidSchedule {
    let schedule = schedule_of(net).unwrap_or_else(|| panic!("{} is schedulable", net.name()));
    assert_same_program(net, &schedule).expect("a schedulable net synthesises");
    schedule
}

fn atm(queues: usize) -> PetriNet {
    AtmModel::build(AtmConfig { queues })
        .expect("the ATM model builds")
        .net
}

/// Figure 4 with its branches rejoined: `t4` and `t5` feed one merge place `q` that `t6`
/// drains two tokens at a time. The arms' first transitions fire at different rates
/// (`t2` twice per cycle, `t3` once) and `t6` fires once in both, so the choice
/// reconverges before `t6`, whose guard compares its rate with the arms'.
fn figure4_rejoined() -> PetriNet {
    let mut b = NetBuilder::new("figure4-rejoined");
    let t: Vec<TransitionId> = (1..=6).map(|i| b.transition(format!("t{i}"))).collect();
    let [p1, p2, p3, q] = ["p1", "p2", "p3", "q"].map(|name| b.place(name, 0));
    for (from, to, weight) in [(t[0], p1, 1), (t[1], p2, 1), (t[2], p3, 2)] {
        b.arc_t_p(from, to, weight).expect("arc");
    }
    for (from, to, weight) in [(t[3], q, 2), (t[4], q, 1)] {
        b.arc_t_p(from, to, weight).expect("arc");
    }
    for (from, to, weight) in [(p1, t[1], 1), (p1, t[2], 1), (p2, t[3], 2), (p3, t[4], 1)] {
        b.arc_p_t(from, to, weight).expect("arc");
    }
    b.arc_p_t(q, t[5], 2).expect("arc");
    b.build().expect("a valid net")
}

/// A one-token ring of `places` places whose token starts in the middle place, so the
/// causal order starts there rather than at the first transition.
fn ring_marked_midway(places: usize) -> PetriNet {
    let mut b = NetBuilder::new(format!("ring-marked-midway-{places}"));
    let ps: Vec<PlaceId> = (0..places)
        .map(|i| b.place(format!("p{i}"), u64::from(i == places / 2)))
        .collect();
    for i in 0..places {
        let t = b.transition(format!("t{i}"));
        b.arc_p_t(ps[i], t, 1).expect("arc");
        b.arc_t_p(t, ps[(i + 1) % places], 1).expect("arc");
    }
    b.build().expect("a valid net")
}

/// A random free-choice net with `sources` inputs (0, 1 or 2): each input feeds its own
/// tree of choices whose branches produce with random weights into drains, with optional
/// continuation places between levels. With two inputs, some leaf drains of both trees
/// feed one merge place that a shared transition consumes (like `t6` in figure 5). With
/// none, the tree's root is marked and its leaf drains feed back into it through a return
/// transition, so the net is closed. That transition comes first in index order, so the
/// causal order must start from the marked root. Each drain then consumes its branch's
/// whole weight, keeping every cycle a T-invariant while the weighted places still
/// become counters.
fn random_free_choice(rng: &mut StdRng, sources: usize) -> PetriNet {
    let mut b = NetBuilder::new(format!("random-fc-{sources}"));
    let merge = (sources == 2).then(|| {
        let merge = b.place("merge", 0);
        let shared = b.transition("shared");
        b.arc_p_t(merge, shared, 1).expect("arc");
        merge
    });
    let mut counter = 0usize;
    for tree in 0..sources.max(1) {
        let (root, back) = if sources == 0 {
            let back = b.place(format!("back{tree}"), 0);
            let ret = b.transition(format!("ret{tree}"));
            let root = b.place(format!("root{tree}"), rng.gen_range(1..3u64));
            b.arc_p_t(back, ret, 1).expect("arc");
            b.arc_t_p(ret, root, 1).expect("arc");
            (root, Some(back))
        } else {
            let source = b.transition(format!("src{tree}"));
            let root = b.place(format!("root{tree}"), rng.gen_range(0..2u64));
            b.arc_t_p(source, root, 1).expect("arc");
            (root, None)
        };
        let depth = rng.gen_range(1..=3 - sources / 2);
        let mut frontier: Vec<PlaceId> = vec![root];
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
                    let consumed = if sources == 0 { weight } else { 1 };
                    b.arc_p_t(out, drain, consumed).expect("arc");
                    if level + 1 < depth && next.len() < 2 && rng.gen_bool(0.5) {
                        let cont = b.place(format!("c{level}_{branch}_{counter}"), 0);
                        b.arc_t_p(drain, cont, 1).expect("arc");
                        next.push(cont);
                    } else if let Some(back) = back {
                        b.arc_t_p(drain, back, 1).expect("arc");
                    } else if let Some(merge) = merge.filter(|_| rng.gen_bool(0.5)) {
                        b.arc_t_p(drain, merge, 1).expect("arc");
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
    }
    b.build().expect("random free-choice net is valid")
}

#[test]
fn paper_figures_match_the_reference() {
    for net in [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure4(),
        gallery::figure5(),
        figure4_rejoined(),
    ] {
        assert_schedulable_and_same(&net);
    }
}

#[test]
fn choice_chains_match_the_reference() {
    for n in 1..=12 {
        let schedule = assert_schedulable_and_same(&gallery::choice_chain(n));
        assert_eq!(schedule.cycle_count(), 1 << n);
    }
}

#[test]
fn closed_nets_match_the_reference() {
    for net in [
        gallery::marked_ring(6, 3),
        gallery::cycle_bank(5),
        ring_marked_midway(6),
    ] {
        assert!(net.source_transitions().is_empty());
        let schedule = schedule_of(&net).expect("schedulable");
        let program = assert_same_program(&net, &schedule).expect("a closed net synthesises");
        assert_eq!(program.tasks[0].name, "task_main");
    }
}

#[test]
fn atm_models_match_the_reference() {
    assert_schedulable_and_same(&atm(2));
    assert_eq!(assert_schedulable_and_same(&atm(4)).cycle_count(), 8192);
}

#[test]
fn random_free_choice_nets_match_the_reference() {
    // At least 32 schedulable nets of each kind: closed, one input and two inputs.
    let mut covered = [0usize; 3];
    let mut multirate = 0usize;
    let mut seed = 0u64;
    while covered.iter().any(|&c| c < 32) {
        assert!(
            seed < 4096,
            "only {covered:?} schedulable nets within 4096 seeds"
        );
        let sources = (seed % 3) as usize;
        let net = random_free_choice(&mut StdRng::seed_from_u64(0x7A5C ^ seed), sources);
        seed += 1;
        assert_eq!(net.source_transitions().len(), sources);
        let Some(schedule) = schedule_of(&net) else {
            continue;
        };
        let program = assert_same_program(&net, &schedule).expect("schedulable nets synthesise");
        covered[sources] += 1;
        multirate += usize::from(!program.counter_places.is_empty());
    }
    assert!(multirate > 0, "no random net needed a counter");
}

#[test]
fn repeated_cycles_and_errors_match_the_reference() {
    for net in [gallery::figure5(), gallery::marked_ring(6, 3)] {
        let schedule = schedule_of(&net).expect("schedulable");
        // Every cycle three times, interleaved; the closed ring's one task sees them too.
        let repeated = ValidSchedule {
            cycles: (0..3).flat_map(|_| schedule.cycles.clone()).collect(),
        };
        assert_same_program(&net, &repeated).expect("repeated cycles synthesise");
    }
    // A cycle without a slice for `t8` is the same error for both builders.
    let net = gallery::figure5();
    let mut missing = schedule_of(&net).expect("figure 5 is schedulable");
    missing.cycles[1]
        .source_slices
        .retain(|&(s, _)| net.transition_name(s) != "t8");
    let t8 = net.transition_by_name("t8").unwrap();
    assert_eq!(
        assert_same_program(&net, &missing),
        Err(CodegenError::MissingSlice { source: t8 })
    );
    assert_eq!(
        assert_same_program(&net, &ValidSchedule { cycles: vec![] }),
        Err(CodegenError::EmptySchedule)
    );
}

#[test]
fn hand_made_schedules_match_the_reference() {
    // A ring's cycle on the same ring without its token: no transition is ready at first,
    // so the causal order starts where the cycle-breaking rule breaks the ring.
    let ring = schedule_of(&gallery::marked_ring(6, 1)).expect("schedulable");
    assert_same_program(&gallery::marked_ring(6, 0), &ring).expect("the ring synthesises");
    // Two slices of figure 4 that agree on `t1 t2` at different rates, one going on to
    // `t4`: the common prefix's rate is what `t4`'s counter guard compares against.
    let net = gallery::figure4();
    let mut schedule = schedule_of(&net).expect("figure 4 is schedulable");
    let [t1, t2, t4] = ["t1", "t2", "t4"].map(|name| net.transition_by_name(name).unwrap());
    let rates = [[(t1, 2), (t2, 2), (t4, 0)], [(t1, 1), (t2, 1), (t4, 1)]];
    for (cycle, rates) in schedule.cycles.iter_mut().zip(rates) {
        let mut counts = vec![0; net.transition_count()];
        for (t, count) in rates {
            counts[t.index()] = count;
        }
        cycle.source_slices = vec![(t1, counts)];
    }
    assert_same_program(&net, &schedule).expect("the slices synthesise");
}
