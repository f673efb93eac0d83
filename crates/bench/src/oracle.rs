//! The seed implementations the production engines replaced, kept as test and bench
//! references.
//!
//! Each function here is the algorithm a shipped engine was rewritten from, with its
//! behaviour unchanged. The equivalence suites pin the production engine bit for bit
//! against it, and the benches and the `scaling_table` example time the production
//! engine against it. None of it ships: `fcpn-served` and the `fcpn` facade do not
//! link this crate.
//!
//! | Oracle | Production engine it pins |
//! |--------|---------------------------|
//! | [`explore_naive`] | `StateSpace::explore` |
//! | [`build_coverability_naive`] | `CoverabilityGraph::build` |
//! | [`invariants_of_matrix_naive`] | `InvariantAnalysis::of_matrix` |
//! | [`quasi_static_schedule_naive`], [`check_component_naive_with`] | `quasi_static_schedule`, `check_component` |
//! | [`simulate_functional_partition_naive`] | `simulate_functional_partition` |
//! | [`run_table1_naive`] | `run_table1` |
//!
//! Where an oracle needs a helper the library keeps private (the ω-marking firing
//! step, the structural signature, `gcd`, the minimal-support pruning, the task owner
//! map), it keeps its own copy, so a change to the library's helper cannot move both
//! sides of a pin at once.

use fcpn_atm::{
    emit_functional_c, functional_partition, generate_workload, AtmChoicePolicy, AtmError,
    AtmModel, Table1, Table1Config, Table1Row,
};
use fcpn_codegen::{
    emit_c, synthesize, CEmitOptions, ChoiceResolver, CodeMetrics, CodegenError, SynthesisOptions,
};
use fcpn_petri::analysis::{
    CoverabilityEdge, CoverabilityOptions, IncidenceMatrix, InvariantAnalysis, ReachabilityOptions,
    Semiflow, Tokens,
};
use fcpn_petri::{Marking, PetriNet, PlaceId, TransitionId};
use fcpn_qss::{
    allocation_iter, quasi_static_schedule, simulate_cycle, ComponentDiagnostic, ComponentFailure,
    ComponentVerdict, FiniteCompleteCycle, NotSchedulableReport, QssOptions, QssOutcome,
    TReduction, ValidSchedule,
};
use fcpn_rtos::{
    simulate_program, CostModel, Event, FunctionalTask, RtosError, SimReport, TaskActivation,
    Workload,
};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Reachability: the pre-engine breadth-first explorer.
// ---------------------------------------------------------------------------

/// The reachability graph as the seed explorer builds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveReachability {
    /// All distinct markings discovered; index 0 is the initial marking.
    pub markings: Vec<Marking>,
    /// `(from, transition, to)` firing edges between marking indices, in discovery
    /// order (hence sorted by `from`, and by transition within one source).
    pub edges: Vec<(usize, TransitionId, usize)>,
    /// Indices of markings discovered but not expanded because of the cut-offs.
    pub frontier: Vec<usize>,
    /// `true` if no marking was left unexpanded.
    pub complete: bool,
}

/// The pre-engine breadth-first explorer: clones a [`Marking`] per expansion and interns
/// through a `HashMap<Marking, usize>`. `StateSpace::explore` discovers the same
/// markings, edges and frontier in the same order.
pub fn explore_naive(net: &PetriNet, options: ReachabilityOptions) -> NaiveReachability {
    let initial = net.initial_marking().clone();
    let mut markings = Vec::new();
    let mut edges = Vec::new();
    let mut index: HashMap<Marking, usize> = HashMap::new();
    let mut frontier = Vec::new();
    let mut queue = VecDeque::new();
    let mut complete = true;

    index.insert(initial.clone(), 0);
    markings.push(initial);
    queue.push_back(0usize);

    while let Some(current) = queue.pop_front() {
        let marking = markings[current].clone();
        if marking.max_tokens() > options.max_tokens_per_place {
            frontier.push(current);
            complete = false;
            continue;
        }
        for t in net.transitions() {
            if !net.is_enabled(&marking, t) {
                continue;
            }
            let mut next = marking.clone();
            if net.fire(&mut next, t).is_err() {
                continue;
            }
            let target = match index.get(&next) {
                Some(&i) => i,
                None => {
                    if markings.len() >= options.max_markings {
                        complete = false;
                        continue;
                    }
                    let i = markings.len();
                    index.insert(next.clone(), i);
                    markings.push(next);
                    queue.push_back(i);
                    i
                }
            };
            edges.push((current, t, target));
        }
    }
    NaiveReachability {
        markings,
        edges,
        frontier,
        complete,
    }
}

// ---------------------------------------------------------------------------
// Coverability: the pre-interner Karp–Miller build.
// ---------------------------------------------------------------------------

/// The Karp–Miller coverability graph as the seed build produces it. Nodes are plain
/// ω-marking rows, one [`Tokens`] per place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveCoverability {
    /// Discovered ω-markings; index 0 is the lifted initial marking.
    pub nodes: Vec<Vec<Tokens>>,
    /// Edges between nodes, in discovery order.
    pub edges: Vec<CoverabilityEdge>,
    /// Whether construction stayed within the node budget.
    pub complete: bool,
}

fn omega_at_least(tokens: Tokens, needed: u64) -> bool {
    match tokens {
        Tokens::Finite(k) => k >= needed,
        Tokens::Omega => true,
    }
}

fn omega_is_enabled(node: &[Tokens], net: &PetriNet, t: TransitionId) -> bool {
    net.inputs(t)
        .iter()
        .all(|&(p, w)| omega_at_least(node[p.index()], w))
}

/// The ω-marking firing step: ω absorbs every consumption and production.
fn omega_fire(node: &[Tokens], net: &PetriNet, t: TransitionId) -> Vec<Tokens> {
    let mut next = node.to_vec();
    for &(p, w) in net.inputs(t) {
        if let Tokens::Finite(k) = next[p.index()] {
            next[p.index()] = Tokens::Finite(k.saturating_sub(w));
        }
    }
    for &(p, w) in net.outputs(t) {
        if let Tokens::Finite(k) = next[p.index()] {
            next[p.index()] = Tokens::Finite(k + w);
        }
    }
    next
}

/// Component-wise ≥, with ω above every finite value.
fn omega_covers(a: &[Tokens], b: &[Tokens]) -> bool {
    a.iter().zip(b).all(|(a, b)| match (a, b) {
        (Tokens::Omega, _) => true,
        (Tokens::Finite(_), Tokens::Omega) => false,
        (Tokens::Finite(x), Tokens::Finite(y)) => x >= y,
    })
}

/// The Karp–Miller acceleration: places where `node` strictly exceeds `ancestor`
/// become ω.
fn omega_accelerate(node: &mut [Tokens], ancestor: &[Tokens]) {
    for (mine, theirs) in node.iter_mut().zip(ancestor) {
        if let (Tokens::Finite(a), Tokens::Finite(b)) = (&mine, theirs) {
            if *a > *b {
                *mine = Tokens::Omega;
            }
        }
    }
}

/// The pre-interner coverability construction: node identity is resolved by a linear
/// `nodes.iter().position(..)` scan, O(V) per successor. `CoverabilityGraph::build`
/// discovers the same nodes and edges in the same order.
pub fn build_coverability_naive(net: &PetriNet, options: CoverabilityOptions) -> NaiveCoverability {
    let initial: Vec<Tokens> = net
        .initial_marking()
        .as_slice()
        .iter()
        .map(|&k| Tokens::Finite(k))
        .collect();
    let mut nodes = vec![initial];
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut edges = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::from([0usize]);
    let mut complete = true;

    while let Some(current) = queue.pop_front() {
        for t in net.transitions() {
            if !omega_is_enabled(&nodes[current], net, t) {
                continue;
            }
            let mut next = omega_fire(&nodes[current], net, t);
            // Accelerate against every ancestor on the path that the successor covers.
            let mut ancestor = Some(current);
            while let Some(a) = ancestor {
                if omega_covers(&next, &nodes[a]) && next != nodes[a] {
                    let ancestor_marking = nodes[a].clone();
                    omega_accelerate(&mut next, &ancestor_marking);
                }
                ancestor = parents[a];
            }
            let target = match nodes.iter().position(|n| n == &next) {
                Some(existing) => existing,
                None => {
                    if nodes.len() >= options.max_nodes {
                        complete = false;
                        continue;
                    }
                    nodes.push(next);
                    parents.push(Some(current));
                    queue.push_back(nodes.len() - 1);
                    nodes.len() - 1
                }
            };
            edges.push(CoverabilityEdge {
                from: current,
                transition: t,
                to: target,
            });
        }
    }
    NaiveCoverability {
        nodes,
        edges,
        complete,
    }
}

// ---------------------------------------------------------------------------
// Invariants: the seed's dense Farkas elimination.
// ---------------------------------------------------------------------------

/// The row budget of the elimination; the same as the production one, so both
/// report the same completeness flag.
const FARKAS_ROW_LIMIT: usize = 200_000;

/// The seed's dense `Vec<Vec<i128>>` Farkas elimination on a pre-computed incidence
/// matrix. `InvariantAnalysis::of_matrix` returns the same T- and P-semiflow bases and
/// completeness flag.
pub fn invariants_of_matrix_naive(d: &IncidenceMatrix) -> InvariantAnalysis {
    let nt = d.transition_count();
    let np = d.place_count();
    // Row i of `t_rows` is transition i's row of D.
    let t_rows: Vec<Vec<i128>> = (0..nt)
        .map(|t| {
            (0..np)
                .map(|p| d.entry(TransitionId::new(t), PlaceId::new(p)) as i128)
                .collect()
        })
        .collect();
    let (t_semiflows, t_complete) = farkas(&t_rows);
    // For P-semiflows solve D · y = 0, i.e. run Farkas on the transpose.
    let p_rows: Vec<Vec<i128>> = (0..np)
        .map(|p| {
            (0..nt)
                .map(|t| d.entry(TransitionId::new(t), PlaceId::new(p)) as i128)
                .collect()
        })
        .collect();
    let (p_semiflows, p_complete) = farkas(&p_rows);
    InvariantAnalysis {
        t_semiflows,
        p_semiflows,
        complete: t_complete && p_complete,
    }
}

/// Computes the minimal semi-positive solutions of `x · rows = 0` (one unknown per row)
/// with the Farkas algorithm. Returns the semiflows and whether the computation stayed
/// within the row budget.
fn farkas(rows: &[Vec<i128>]) -> (Vec<Semiflow>, bool) {
    let n = rows.len();
    if n == 0 {
        return (Vec::new(), true);
    }
    let m = rows[0].len();
    // Each working row is (d_part, id_part).
    let mut work: Vec<(Vec<i128>, Vec<i128>)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut id = vec![0i128; n];
            id[i] = 1;
            (r.clone(), id)
        })
        .collect();
    let mut complete = true;

    for col in 0..m {
        let mut next: Vec<(Vec<i128>, Vec<i128>)> = Vec::new();
        let (zeros, nonzeros): (Vec<_>, Vec<_>) = work.into_iter().partition(|(d, _)| d[col] == 0);
        next.extend(zeros);
        let positives: Vec<&(Vec<i128>, Vec<i128>)> =
            nonzeros.iter().filter(|(d, _)| d[col] > 0).collect();
        let negatives: Vec<&(Vec<i128>, Vec<i128>)> =
            nonzeros.iter().filter(|(d, _)| d[col] < 0).collect();
        for pos in &positives {
            for neg in &negatives {
                let a = pos.0[col];
                let b = -neg.0[col];
                let mut d: Vec<i128> = (0..m).map(|j| b * pos.0[j] + a * neg.0[j]).collect();
                let mut id: Vec<i128> = (0..n).map(|j| b * pos.1[j] + a * neg.1[j]).collect();
                normalise(&mut d, &mut id);
                next.push((d, id));
                if next.len() > FARKAS_ROW_LIMIT {
                    complete = false;
                    break;
                }
            }
            if !complete {
                break;
            }
        }
        // Prune rows whose identity-part support strictly contains another row's support;
        // only minimal-support rows can yield minimal semiflows.
        next = prune_non_minimal(next);
        work = next;
        if !complete {
            break;
        }
    }

    let mut flows: Vec<Semiflow> = work
        .into_iter()
        .filter(|(d, id)| d.iter().all(|&v| v == 0) && id.iter().any(|&v| v > 0))
        .map(|(_, id)| Semiflow {
            vector: id.iter().map(|&v| v as u64).collect(),
        })
        .collect();
    flows.sort_by(|a, b| a.vector.cmp(&b.vector));
    flows.dedup();
    (prune_non_minimal_flows(flows), complete)
}

fn normalise(d: &mut [i128], id: &mut [i128]) {
    let mut g: i128 = 0;
    for &v in d.iter().chain(id.iter()) {
        g = gcd(g, v.abs());
    }
    if g > 1 {
        for v in d.iter_mut() {
            *v /= g;
        }
        for v in id.iter_mut() {
            *v /= g;
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

fn support(v: &[i128]) -> Vec<usize> {
    v.iter()
        .enumerate()
        .filter(|&(_, &x)| x != 0)
        .map(|(i, _)| i)
        .collect()
}

fn prune_non_minimal(rows: Vec<(Vec<i128>, Vec<i128>)>) -> Vec<(Vec<i128>, Vec<i128>)> {
    let supports: Vec<Vec<usize>> = rows.iter().map(|(_, id)| support(id)).collect();
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..rows.len() {
            if i == j || !keep[i] || !keep[j] {
                continue;
            }
            // If support(j) is a strict subset of support(i), row i is not minimal.
            if supports[j].len() < supports[i].len()
                && supports[j].iter().all(|x| supports[i].contains(x))
            {
                keep[i] = false;
            }
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(r, _)| r)
        .collect()
}

fn prune_non_minimal_flows(flows: Vec<Semiflow>) -> Vec<Semiflow> {
    let supports: Vec<Vec<usize>> = flows.iter().map(Semiflow::support).collect();
    let mut keep = vec![true; flows.len()];
    for i in 0..flows.len() {
        for j in 0..flows.len() {
            if i == j || !keep[j] {
                continue;
            }
            if supports[j].len() < supports[i].len()
                && supports[j].iter().all(|x| supports[i].contains(x))
            {
                keep[i] = false;
                break;
            }
        }
    }
    flows
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(f, _)| f)
        .collect()
}

// ---------------------------------------------------------------------------
// Scheduling: the seed pipeline end to end.
// ---------------------------------------------------------------------------

/// The result of one token-game simulation, cached per `(signature, priority)`.
type CycleResult =
    std::result::Result<(Vec<TransitionId>, Vec<u64>), (Vec<u64>, Vec<TransitionId>)>;

/// The structural signature of a net: place/transition counts, the initial marking and
/// the full weighted arc lists in index order. Two nets with equal signatures have the
/// same invariant bases and simulation outcomes.
fn net_signature(net: &PetriNet) -> Vec<u64> {
    let mut sig = vec![net.place_count() as u64, net.transition_count() as u64];
    sig.extend_from_slice(net.initial_marking().as_slice());
    for t in net.transitions() {
        for arcs in [net.inputs(t), net.outputs(t)] {
            sig.push(arcs.len() as u64);
            for &(p, w) in arcs {
                sig.push(p.index() as u64);
                sig.push(w);
            }
        }
    }
    sig
}

/// The seed's component cache: keys are materialised `Vec<u64>` structural signatures
/// (allocated per lookup) and the invariant analysis runs the dense elimination.
#[derive(Debug, Default)]
pub struct NaiveComponentCache {
    invariants: HashMap<Vec<u64>, Rc<InvariantAnalysis>>,
    cycles: HashMap<(Vec<u64>, Vec<u32>), Rc<CycleResult>>,
}

/// The seed Definition 3.5 check of one T-reduction: per-call `Vec<u64>` signature keys
/// and the dense Farkas elimination. `check_component_with` and `ComponentChecker::check`
/// return the same verdict.
pub fn check_component_naive_with(
    parent: &PetriNet,
    reduction: &TReduction,
    cache: &mut NaiveComponentCache,
) -> ComponentVerdict {
    let net = &reduction.net;
    let signature = net_signature(net);
    let invariants: Rc<InvariantAnalysis> = match cache.invariants.get(&signature) {
        Some(cached) => Rc::clone(cached),
        None => {
            let computed = Rc::new(invariants_of_matrix_naive(&IncidenceMatrix::from_net(net)));
            cache
                .invariants
                .insert(signature.clone(), Rc::clone(&computed));
            computed
        }
    };

    // (1) Consistency: every transition of the component lies in some T-semiflow.
    let covered = {
        let mut covered = vec![false; net.transition_count()];
        for flow in &invariants.t_semiflows {
            for index in flow.support() {
                covered[index] = true;
            }
        }
        covered
    };
    let uncovered: Vec<TransitionId> = net
        .transitions()
        .filter(|t| !covered[t.index()])
        .map(|t| reduction.map.parent_transition(t))
        .collect();
    if !uncovered.is_empty() || net.transition_count() == 0 {
        return ComponentVerdict::NotSchedulable(ComponentFailure::Inconsistent { uncovered });
    }

    // (2) Every source transition of the original net must be covered by a T-invariant of
    // the component.
    for parent_source in parent.source_transitions() {
        let Some(child) = reduction.map.child_transition(parent_source) else {
            return ComponentVerdict::NotSchedulable(ComponentFailure::SourceNotCovered {
                source: parent_source,
            });
        };
        if invariants.t_semiflows_containing(child).is_empty() {
            return ComponentVerdict::NotSchedulable(ComponentFailure::SourceNotCovered {
                source: parent_source,
            });
        }
    }

    // (3) Simulate the covering T-invariant.
    let counts = invariants
        .positive_t_invariant(net.transition_count())
        .expect("consistency was established above");
    debug_assert!(IncidenceMatrix::from_net(net).is_t_invariant(&counts));
    let priority: Vec<TransitionId> = reduction
        .allocation
        .choices()
        .iter()
        .filter_map(|&(_, chosen)| reduction.map.child_transition(chosen))
        .collect();
    let priority_key: Vec<u32> = priority.iter().map(|t| t.index() as u32).collect();
    let simulated: Rc<CycleResult> =
        match cache.cycles.get(&(signature.clone(), priority_key.clone())) {
            Some(cached) => Rc::clone(cached),
            None => {
                let computed = Rc::new(simulate_cycle(net, &counts, &priority));
                cache
                    .cycles
                    .insert((signature, priority_key), Rc::clone(&computed));
                computed
            }
        };
    match &*simulated {
        Ok((sequence, peaks)) => {
            let parent_sequence = reduction.sequence_to_parent(sequence);
            let mut parent_counts = vec![0u64; parent.transition_count()];
            for &t in &parent_sequence {
                parent_counts[t.index()] += 1;
            }
            let mut parent_bounds = vec![0u64; parent.place_count()];
            for (child_index, &peak) in peaks.iter().enumerate() {
                let parent_place = reduction.map.parent_place(PlaceId::new(child_index));
                parent_bounds[parent_place.index()] = peak;
            }
            let mut source_slices = Vec::new();
            for parent_source in parent.source_transitions() {
                let Some(child) = reduction.map.child_transition(parent_source) else {
                    continue;
                };
                let mut slice = vec![0u64; parent.transition_count()];
                for flow in invariants.t_semiflows_containing(child) {
                    for (child_index, &count) in flow.vector.iter().enumerate() {
                        let parent_t = reduction
                            .map
                            .parent_transition(TransitionId::new(child_index));
                        slice[parent_t.index()] += count;
                    }
                }
                source_slices.push((parent_source, slice));
            }
            ComponentVerdict::Schedulable(FiniteCompleteCycle {
                allocation: reduction.allocation.clone(),
                sequence: parent_sequence,
                counts: parent_counts,
                buffer_bounds: parent_bounds,
                source_slices,
            })
        }
        Err((remaining, fired)) => {
            let remaining = remaining
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, count)| count > 0)
                .map(|(index, count)| {
                    (
                        reduction.map.parent_transition(TransitionId::new(index)),
                        count,
                    )
                })
                .collect();
            let fired = reduction.sequence_to_parent(fired);
            ComponentVerdict::NotSchedulable(ComponentFailure::Deadlock { remaining, fired })
        }
    }
}

/// The seed scheduling pipeline: counting-order enumeration (`allocation_iter`),
/// fresh-`BTreeSet` reductions (`TReduction::compute`), the `Vec<u64>`-keyed
/// [`NaiveComponentCache`] and the dense Farkas elimination. It reads
/// `options.allocation` and `options.reuse_component_cache` and ignores the cancel token
/// and the memory budget. `quasi_static_schedule` returns the same outcome bit for bit.
///
/// # Errors
///
/// The input errors of `quasi_static_schedule`: not free-choice, empty, too many
/// allocations.
pub fn quasi_static_schedule_naive(
    net: &PetriNet,
    options: &QssOptions,
) -> fcpn_qss::Result<QssOutcome> {
    let allocations = allocation_iter(net, options.allocation)?;
    let mut cache = NaiveComponentCache::default();
    let mut cycles = Vec::new();
    let mut failures = Vec::new();
    let mut components_examined = 0usize;
    for allocation in allocations {
        components_examined += 1;
        let reduction = TReduction::compute(net, allocation)?;
        if !options.reuse_component_cache {
            cache = NaiveComponentCache::default();
        }
        let verdict = check_component_naive_with(net, &reduction, &mut cache);
        match verdict {
            ComponentVerdict::Schedulable(cycle) => cycles.push(cycle),
            ComponentVerdict::NotSchedulable(failure) => failures.push(ComponentDiagnostic {
                allocation: reduction.allocation.describe(net),
                transitions: reduction.parent_transitions(),
                failure,
            }),
        }
    }
    if failures.is_empty() {
        Ok(QssOutcome::Schedulable(ValidSchedule { cycles }))
    } else {
        Ok(QssOutcome::NotSchedulable(NotSchedulableReport {
            components_examined,
            failures,
        }))
    }
}

// ---------------------------------------------------------------------------
// RTOS: the seed marking-by-marking functional simulator.
// ---------------------------------------------------------------------------

/// Maps every transition to its owning task and verifies that every source transition
/// is owned by some task.
fn task_owner_map(net: &PetriNet, tasks: &[FunctionalTask]) -> fcpn_rtos::Result<Vec<usize>> {
    let mut owner = vec![usize::MAX; net.transition_count()];
    for (index, task) in tasks.iter().enumerate() {
        for &t in &task.transitions {
            owner[t.index()] = index;
        }
    }
    for t in net.transitions() {
        if owner[t.index()] == usize::MAX && net.is_source_transition(t) {
            return Err(RtosError::UnboundSource(t));
        }
    }
    Ok(owner)
}

/// The seed functional-partitioning simulator: it clones an owned [`Marking`], fires
/// through the checked `PetriNet::fire` path and rebuilds the enabled set with a full
/// transition scan (and a fresh `Vec`) per cascade step. `simulate_functional_partition`
/// returns the same report bit for bit.
///
/// # Errors
///
/// [`RtosError::EmptyWorkload`], [`RtosError::UnboundSource`], or
/// [`RtosError::Execution`] when a firing fails mid-cascade.
pub fn simulate_functional_partition_naive<R: ChoiceResolver + ?Sized>(
    net: &PetriNet,
    tasks: &[FunctionalTask],
    cost: &CostModel,
    workload: &Workload,
    resolver: &mut R,
) -> fcpn_rtos::Result<SimReport> {
    if workload.is_empty() {
        return Err(RtosError::EmptyWorkload);
    }
    let owner = task_owner_map(net, tasks)?;
    let mut per_task: Vec<TaskActivation> = tasks
        .iter()
        .map(|t| TaskActivation {
            name: t.name.clone(),
            activations: 0,
            cycles: 0,
        })
        .collect();
    let mut marking: Marking = net.initial_marking().clone();
    let mut fire_counts = vec![0u64; net.transition_count()];
    let mut total_cycles = 0u64;
    let mut activations = 0u64;
    let mut peak_buffer_tokens = marking.total_tokens();

    for &Event { source, .. } in workload.events() {
        let mut current_task: Option<usize> = None;
        let mut fire = |t: TransitionId,
                        marking: &mut Marking,
                        current_task: &mut Option<usize>,
                        per_task: &mut Vec<TaskActivation>|
         -> fcpn_rtos::Result<u64> {
            let task = owner[t.index()];
            let mut cycles = 0;
            if *current_task != Some(task) {
                cycles += cost.activation_overhead;
                activations += 1;
                per_task[task].activations += 1;
                *current_task = Some(task);
            }
            cycles += cost.transition_cost(t);
            if net.inputs(t).iter().any(|&(p, _)| net.is_choice_place(p)) {
                cycles += cost.choice_cost;
            }
            net.fire(marking, t)
                .map_err(|e| RtosError::Execution(CodegenError::Petri(e)))?;
            // Tokens produced into places consumed by a *different* task go through an
            // inter-task queue.
            for &(place, produced) in net.outputs(t) {
                let crosses = net
                    .consumers(place)
                    .iter()
                    .any(|&(consumer, _)| owner[consumer.index()] != task);
                if crosses {
                    cycles += cost.queue_transfer_cost * produced;
                }
            }
            fire_counts[t.index()] += 1;
            per_task[task].cycles += cycles;
            Ok(cycles)
        };

        // The event fires its source transition, then the cascade runs to quiescence.
        total_cycles += fire(source, &mut marking, &mut current_task, &mut per_task)?;
        peak_buffer_tokens = peak_buffer_tokens.max(marking.total_tokens());
        loop {
            let enabled: Vec<TransitionId> = net
                .transitions()
                .filter(|&t| !net.is_source_transition(t) && net.is_enabled(&marking, t))
                .collect();
            if enabled.is_empty() {
                break;
            }
            // Resolve data-dependent choices through the same resolver the QSS
            // implementation uses, so both simulations see the same data.
            let next = {
                let choice = enabled
                    .iter()
                    .copied()
                    .find(|&t| net.inputs(t).iter().any(|&(p, _)| net.is_choice_place(p)));
                match choice {
                    Some(conflicted) => {
                        let place = net
                            .inputs(conflicted)
                            .iter()
                            .map(|&(p, _)| p)
                            .find(|&p| net.is_choice_place(p))
                            .expect("conflicted transition has a choice input");
                        let candidates: Vec<TransitionId> = net
                            .consumers(place)
                            .iter()
                            .map(|&(t, _)| t)
                            .filter(|t| enabled.contains(t))
                            .collect();
                        resolver.resolve(place, &candidates)
                    }
                    None => enabled[0],
                }
            };
            total_cycles += fire(next, &mut marking, &mut current_task, &mut per_task)?;
            peak_buffer_tokens = peak_buffer_tokens.max(marking.total_tokens());
        }
    }

    Ok(SimReport {
        total_cycles,
        events_processed: workload.len(),
        activations,
        per_task,
        fire_counts,
        peak_buffer_tokens,
    })
}

// ---------------------------------------------------------------------------
// ATM: the Table I harness on the seed functional simulator.
// ---------------------------------------------------------------------------

/// The Table I experiment with the functional baseline on
/// [`simulate_functional_partition_naive`]; every other step is `run_table1`'s. Benches
/// time it against `run_table1` end to end; `run_table1` returns the same table.
///
/// # Errors
///
/// Same as `run_table1`.
pub fn run_table1_naive(model: &AtmModel, config: &Table1Config) -> fcpn_atm::Result<Table1> {
    // --- QSS flow: schedule -> synthesise tasks -> emit C -> simulate. ---
    let outcome = quasi_static_schedule(&model.net, &QssOptions::default())?;
    let schedule = match outcome {
        QssOutcome::Schedulable(schedule) => schedule,
        QssOutcome::NotSchedulable(report) => {
            return Err(AtmError::NotSchedulable(report.to_string()))
        }
    };
    let schedule_cycles = schedule.cycle_count();
    let program = synthesize(&model.net, &schedule, SynthesisOptions::default())?;
    let metrics = CodeMetrics::of(&program, &model.net);
    let qss_c = emit_c(&program, &model.net, CEmitOptions::default());
    debug_assert!(!qss_c.is_empty());

    let workload = generate_workload(model, &config.traffic, config.seed);
    let mut qss_policy = AtmChoicePolicy::new(model, config.traffic, config.seed);
    let qss_report = simulate_program(
        &program,
        &model.net,
        &config.cost,
        &workload,
        &mut qss_policy,
    )?;

    // --- Functional baseline: per-module tasks -> emit C skeleton -> simulate. ---
    let tasks = functional_partition(model);
    let functional_c = emit_functional_c(model);
    let mut functional_policy = AtmChoicePolicy::new(model, config.traffic, config.seed);
    let functional_report = simulate_functional_partition_naive(
        &model.net,
        &tasks,
        &config.cost,
        &workload,
        &mut functional_policy,
    )?;

    let qss = Table1Row {
        implementation: "QSS".to_string(),
        tasks: program.task_count(),
        lines_of_c: metrics.lines_of_c,
        clock_cycles: qss_report.total_cycles,
        activations: qss_report.activations,
    };
    let functional = Table1Row {
        implementation: "Functional task partitioning".to_string(),
        tasks: tasks.len(),
        lines_of_c: functional_c
            .lines()
            .filter(|line| !line.trim().is_empty())
            .count(),
        clock_cycles: functional_report.total_cycles,
        activations: functional_report.activations,
    };
    Ok(Table1 {
        qss,
        functional,
        schedule_cycles,
        qss_report,
        functional_report,
    })
}
