//! Building the task IR from a valid schedule (the `Schedule`/`Task` routines of
//! Section 4 of the paper).
//!
//! The synthesis walks the valid schedule once per task:
//!
//! * one task is created for every input (source transition) with independent firing
//!   rate — the lower bound on the number of tasks the paper identifies;
//! * inside a task, the first occurrence of a conflicting transition becomes an
//!   if/else-if over the run-time choice value;
//! * when consecutive transitions fire at different rates (or through weighted arcs) a
//!   counting variable on the connecting place is introduced, with an `if` test when the
//!   consumer fires less often than its producer and a `while` loop when it fires more
//!   often — exactly the cases the paper's `Task` routine distinguishes.
//!
//! A task's view of one cycle, its *slice*, is held as the `(transition, count)` pairs of
//! the transitions whose rate depends on the task's input, in causal order. The order is
//! a function of the counts, and many cycles repeat a slice (every resolution of a choice
//! outside the task does), so each task drops repeated count vectors by hashing them
//! before ordering, keeping the first occurrence. The if/else tree is then built by
//! recursion on borrowed sub-slices: an arm's head is a prefix of its slices and the code
//! after a reconverging choice is built from their suffixes, so no level copies a slice.
//! Hash sets only answer membership; every list keeps the order of the cycles, so the IR
//! is deterministic.

use crate::{ChoiceArm, CodegenError, Program, Result, Stmt, Task};
use fcpn_petri::{PetriNet, PlaceId, TransitionId};
use fcpn_qss::ValidSchedule;
use std::collections::HashSet;

/// Options controlling software synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisOptions {
    /// Reserved for future tuning knobs (e.g. code-sharing via labels); present so the
    /// signature of [`synthesize`] stays stable.
    _reserved: (),
}

/// One transition of a slice with its firing count per cycle.
type Step = (TransitionId, u64);

/// Synthesises the task-level software implementation of `net` from its valid schedule.
///
/// # Errors
///
/// Returns [`CodegenError::EmptySchedule`] if the schedule has no cycles.
///
/// # Examples
///
/// ```
/// use fcpn_petri::gallery;
/// use fcpn_qss::{quasi_static_schedule, QssOptions};
/// use fcpn_codegen::{synthesize, SynthesisOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = gallery::figure5();
/// let schedule = quasi_static_schedule(&net, &QssOptions::default())?
///     .schedule()
///     .expect("figure 5 is schedulable");
/// let program = synthesize(&net, &schedule, SynthesisOptions::default())?;
/// // Two inputs with independent rates (t1 and t8) give exactly two tasks.
/// assert_eq!(program.task_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    net: &PetriNet,
    schedule: &ValidSchedule,
    _options: SynthesisOptions,
) -> Result<Program> {
    if schedule.cycles.is_empty() {
        return Err(CodegenError::EmptySchedule);
    }
    let counter_places = counter_places(net);
    let sources = net.source_transitions();
    // Closed nets (no environment inputs) become a single task running one full cycle
    // per invocation.
    let roots: Vec<Option<TransitionId>> = if sources.is_empty() {
        vec![None]
    } else {
        sources.into_iter().map(Some).collect()
    };

    let mut tasks = Vec::with_capacity(roots.len());
    for source in roots {
        let mut seen: HashSet<&[u64]> = HashSet::new();
        let mut slices: Vec<Vec<Step>> = Vec::new();
        for cycle in &schedule.cycles {
            let counts = match source {
                None => &cycle.counts,
                Some(source) => cycle
                    .source_slices
                    .iter()
                    .find(|&&(s, _)| s == source)
                    .map(|(_, counts)| counts)
                    .ok_or(CodegenError::MissingSlice { source })?,
            };
            if seen.insert(counts) {
                slices.push(causal_order(net, counts, source));
            }
        }
        let slices: Vec<&[Step]> = slices.iter().map(Vec::as_slice).collect();
        tasks.push(Task {
            name: match source {
                None => "task_main".to_string(),
                Some(source) => format!("task_{}", net.transition_name(source)),
            },
            source,
            body: build_segment(net, &counter_places, &slices, None),
        });
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

/// Orders the transitions in the support of `counts` causally within the task, each with
/// its count: the task's own source first, then every transition once all of its
/// in-support producers have been placed. This is the order in which the task's code
/// executes the computations when its input event arrives, independent of how the full
/// cycle interleaves other tasks.
fn causal_order(net: &PetriNet, counts: &[u64], source: Option<TransitionId>) -> Vec<Step> {
    let in_support = |t: TransitionId| counts[t.index()] > 0;
    let support = counts.iter().filter(|&&c| c > 0).count();
    let mut order: Vec<Step> = Vec::with_capacity(support);
    let mut placed = vec![false; counts.len()];
    if let Some(source) = source.filter(|&s| in_support(s)) {
        order.push((source, counts[source.index()]));
        placed[source.index()] = true;
    }
    while order.len() < support {
        let placed_before = order.len();
        for t in net.transitions() {
            if !in_support(t) || placed[t.index()] {
                continue;
            }
            let ready = net.inputs(t).iter().all(|&(p, _)| {
                let producers = net.producers(p);
                producers.iter().any(|&(u, _)| placed[u.index()])
                    || !producers.iter().any(|&(u, _)| in_support(u))
                    || net.initial_marking().tokens(p) > 0
            });
            if ready {
                order.push((t, counts[t.index()]));
                placed[t.index()] = true;
            }
        }
        if order.len() == placed_before {
            // Break structural cycles deterministically by index order.
            if let Some(t) = net
                .transitions()
                .find(|&t| in_support(t) && !placed[t.index()])
            {
                order.push((t, counts[t.index()]));
                placed[t.index()] = true;
            }
        }
    }
    order
}

/// Recursively builds the statements shared by `slices`: the common prefix is emitted
/// linearly, and the first divergence becomes an if/else-if over the choice that caused
/// it.
fn build_segment(
    net: &PetriNet,
    counters: &[PlaceId],
    slices: &[&[Step]],
    prev: Option<Step>,
) -> Vec<Stmt> {
    let slices: Vec<&[Step]> = slices.iter().copied().filter(|s| !s.is_empty()).collect();
    let Some(&first) = slices.first() else {
        return Vec::new();
    };
    // Length of the common prefix (by transition identity).
    let prefix_len = (0..first.len())
        .find(|&i| {
            slices
                .iter()
                .any(|s| s.get(i).map(|&(t, _)| t) != Some(first[i].0))
        })
        .unwrap_or(first.len());

    let mut statements = Vec::new();
    let mut prev = prev;
    // Emit the common prefix. Counts may differ between slices for the same transition
    // (e.g. `t1` fires twice per cycle in one resolution and once in another); the rate
    // comparison uses the maximum, which is the sustained requirement.
    let mut sink: &mut Vec<Stmt> = &mut statements;
    for (position, &(transition, _)) in first[..prefix_len].iter().enumerate() {
        let count = slices.iter().map(|s| s[position].1).max().unwrap_or(1);
        sink = emit_transition(net, counters, sink, transition, count, &mut prev);
    }

    // Group the slices by the transition they fire at the divergence point, if any.
    let mut arms: Vec<(TransitionId, Vec<&[Step]>)> = Vec::new();
    for slice in &slices {
        let rest = &slice[prefix_len..];
        let Some(&(next, _)) = rest.first() else {
            continue;
        };
        match arms.iter_mut().find(|(t, _)| *t == next) {
            Some((_, group)) => group.push(rest),
            None => arms.push((next, vec![rest])),
        }
    }
    if arms.is_empty() {
        return statements;
    }
    if arms.len() == 1 {
        // Not an actual data-dependent divergence (all slices continue identically); keep
        // emitting linearly.
        let tail = build_segment(net, counters, &arms[0].1, prev);
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
        .flat_map(|(_, group)| group.iter().map(|s| s.len()))
        .max()
        .unwrap_or(0);
    let chosen_split = (1..max_len).find(|&split| {
        let reference: HashSet<&[Step]> = suffixes(&arms[0].1, split).collect();
        arms[1..]
            .iter()
            .all(|(_, group)| suffixes(group, split).collect::<HashSet<_>>() == reference)
    });

    // The diverging transitions share a choice place in a free-choice net.
    let choice_place = net
        .inputs(arms[0].0)
        .first()
        .map_or(PlaceId::new(0), |&(p, _)| p);

    match chosen_split {
        Some(split) => {
            let mut seen = HashSet::new();
            let continuation: Vec<&[Step]> = arms
                .iter()
                .flat_map(|(_, group)| suffixes(group, split))
                .filter(|s| seen.insert(*s))
                .collect();
            let divergent_count = arms
                .iter()
                .flat_map(|(_, group)| group.iter().map(|s| s[0].1))
                .max()
                .unwrap_or(1);
            let choice_arms = arms
                .iter()
                .map(|(transition, group)| {
                    let heads: Vec<&[Step]> =
                        group.iter().map(|s| &s[..split.min(s.len())]).collect();
                    ChoiceArm {
                        transition: *transition,
                        body: build_segment(net, counters, &heads, prev),
                    }
                })
                .collect();
            sink.push(Stmt::Choice {
                place: choice_place,
                arms: choice_arms,
            });
            let continuation_prev = Some((arms[0].0, divergent_count));
            let tail = build_segment(net, counters, &continuation, continuation_prev);
            sink.extend(tail);
        }
        None => {
            let choice_arms = arms
                .iter()
                .map(|(transition, group)| ChoiceArm {
                    transition: *transition,
                    body: build_segment(net, counters, group, prev),
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

/// What each of `slices` leaves after its first `split` steps (nothing when it is
/// shorter).
fn suffixes<'a, 's>(
    slices: &'a [&'s [Step]],
    split: usize,
) -> impl Iterator<Item = &'s [Step]> + 'a {
    slices.iter().map(move |s| s.get(split..).unwrap_or(&[]))
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
    prev: &mut Option<Step>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use fcpn_petri::gallery;
    use fcpn_qss::{quasi_static_schedule, QssOptions};

    fn schedule_for(net: &PetriNet) -> ValidSchedule {
        quasi_static_schedule(net, &QssOptions::default())
            .unwrap()
            .schedule()
            .expect("net must be schedulable")
    }

    fn program_for(net: &PetriNet) -> Program {
        synthesize(net, &schedule_for(net), SynthesisOptions::default()).unwrap()
    }

    #[test]
    fn figure4_program_matches_paper_structure() {
        let net = gallery::figure4();
        let program = program_for(&net);
        // One source (t1) -> one task.
        assert_eq!(program.task_count(), 1);
        let task = &program.tasks[0];
        assert_eq!(task.name, "task_t1");
        // Body: fire t1, then the choice between t2 and t3.
        assert!(matches!(task.body[0], Stmt::Fire(t) if net.transition_name(t) == "t1"));
        let Stmt::Choice { place, arms } = &task.body[1] else {
            panic!("expected a choice, got {:?}", task.body[1]);
        };
        assert_eq!(net.place_name(*place), "p1");
        assert_eq!(arms.len(), 2);
        // Arm for t2: fire t2, count(p2)++, if (count(p2) >= 2) { t4; count -= 2 }.
        let arm_t2 = arms
            .iter()
            .find(|a| net.transition_name(a.transition) == "t2")
            .unwrap();
        assert!(matches!(arm_t2.body[0], Stmt::Fire(_)));
        assert!(matches!(arm_t2.body[1], Stmt::IncCount { amount: 1, .. }));
        assert!(matches!(arm_t2.body[2], Stmt::IfCount { at_least: 2, .. }));
        // Arm for t3: fire t3, count(p3) += 2, while (count(p3) >= 1) { t5; count -= 1 }.
        let arm_t3 = arms
            .iter()
            .find(|a| net.transition_name(a.transition) == "t3")
            .unwrap();
        assert!(matches!(arm_t3.body[1], Stmt::IncCount { amount: 2, .. }));
        assert!(matches!(
            arm_t3.body[2],
            Stmt::WhileCount { at_least: 1, .. }
        ));
    }

    #[test]
    fn figure5_has_one_task_per_independent_input() {
        let net = gallery::figure5();
        let program = program_for(&net);
        assert_eq!(program.task_count(), 2);
        let names: Vec<&str> = program.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["task_t1", "task_t8"]);
        // The t8 task handles the tick-like input: t8, t9, and the shared t6.
        let t8_task = &program.tasks[1];
        let fired = t8_task.transitions();
        let fired_names: Vec<&str> = fired.iter().map(|&t| net.transition_name(t)).collect();
        assert_eq!(fired_names, vec!["t8", "t9", "t6"]);
        // t6 is shared between both tasks (merge place p4), as the paper notes.
        let t1_task = &program.tasks[0];
        assert!(t1_task
            .transitions()
            .iter()
            .any(|&t| net.transition_name(t) == "t6"));
    }

    #[test]
    fn figure3a_tasks_have_no_counters() {
        let net = gallery::figure3a();
        let program = program_for(&net);
        assert_eq!(program.task_count(), 1);
        assert!(program.counter_places.is_empty());
        let task = &program.tasks[0];
        // fire t1; if choice { t2; t4 } else { t3; t5 } — 6 IR statements.
        assert_eq!(task.size(), 6);
        assert_eq!(task.depth(), 2);
    }

    #[test]
    fn marked_graph_yields_single_linear_task() {
        let net = gallery::figure2();
        let program = program_for(&net);
        assert_eq!(program.task_count(), 1);
        let task = &program.tasks[0];
        // t1 plain, then t2 nested in a guard on p1, then t3 nested in a guard on p2.
        assert!(matches!(task.body[0], Stmt::Fire(_)));
        assert_eq!(task.depth(), 3);
        let fired_names: Vec<&str> = task
            .transitions()
            .iter()
            .map(|&t| net.transition_name(t))
            .collect();
        assert_eq!(fired_names, vec!["t1", "t2", "t3"]);
    }

    #[test]
    fn empty_schedule_is_rejected() {
        let net = gallery::figure2();
        let empty = ValidSchedule { cycles: vec![] };
        assert_eq!(
            synthesize(&net, &empty, SynthesisOptions::default()).unwrap_err(),
            CodegenError::EmptySchedule
        );
    }

    #[test]
    fn repeated_cycles_build_the_same_program() {
        let net = gallery::figure5();
        let schedule = schedule_for(&net);
        // Each cycle three times, interleaved: (c1 c2 c1 c2 c1 c2).
        let repeated = ValidSchedule {
            cycles: (0..3).flat_map(|_| schedule.cycles.clone()).collect(),
        };
        assert_eq!(
            synthesize(&net, &repeated, SynthesisOptions::default()),
            synthesize(&net, &schedule, SynthesisOptions::default())
        );
    }

    #[test]
    fn builds_are_deterministic() {
        // Every `HashSet` draws fresh keys, so an order leaked from hash iteration would
        // make the two builds differ.
        let net = gallery::choice_chain(8);
        let schedule = schedule_for(&net);
        assert_eq!(
            synthesize(&net, &schedule, SynthesisOptions::default()),
            synthesize(&net, &schedule, SynthesisOptions::default())
        );
    }

    #[test]
    fn counter_places_are_weighted_or_merge_places() {
        let net = gallery::figure5();
        let program = program_for(&net);
        let counters: Vec<&str> = program
            .counter_places
            .iter()
            .map(|&p| net.place_name(p))
            .collect();
        // p2 (weight 2), p4 (merge + weight 2), p5 and p6 (weight 2); p1 is a choice, p3
        // and p7 are unit-rate single-producer places.
        assert_eq!(counters, vec!["p2", "p4", "p5", "p6"]);
    }
}
