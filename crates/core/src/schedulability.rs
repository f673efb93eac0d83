//! Per-component schedulability (Definition 3.5) and cycle generation.
//!
//! A T-reduction is schedulable when (1) it is consistent, (2) every source transition of
//! the original net is covered by one of its T-invariants, and (3) simulating a covering
//! T-invariant from the initial marking completes a cycle without deadlocking. The
//! simulation here fires the allocated choice transitions as early as possible, which
//! reproduces the firing orders printed in the paper (e.g. `t1 t2 t1 t2 t4` for Figure 4
//! and `t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6` for Figure 5).
//!
//! Two cache layers serve the scheduler's exponential sweep:
//!
//! * [`ComponentCache`] keys the memoised invariant analysis and simulated cycle by a
//!   **128-bit structural fingerprint** folded in one allocation-free pass over the
//!   component (collision-checked against the full signature, which is materialised
//!   once per distinct shape on first insert and stream-compared — never rebuilt — on
//!   every hit);
//! * [`ComponentChecker`] drives a whole check from a [`ReductionWorkspace`] without
//!   ever materialising the reduced [`PetriNet`] unless an analysis actually misses the
//!   cache — on a hit, the per-allocation cost is the reduction fixpoint, the
//!   fingerprint fold and the verdict assembly.
//!
//! The seed's `Vec<u64>`-keyed cache and dense Farkas are the test and bench oracle
//! `fcpn_bench::oracle::check_component_naive_with`; `tests/scheduler_equivalence.rs`
//! pins it to the same verdicts on every gallery allocation.

use crate::{FiniteCompleteCycle, ReductionWorkspace, TAllocation, TReduction};
use fcpn_petri::analysis::{IncidenceMatrix, InvariantAnalysis};
use fcpn_petri::Fingerprint128;
use fcpn_petri::{PetriNet, PlaceId, TransitionId};
use std::collections::HashMap;
use std::rc::Rc;

/// Why a component (T-reduction) failed the schedulability test of Definition 3.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentFailure {
    /// The component is not consistent: the listed parent transitions belong to no
    /// T-invariant, so firing them cannot be balanced and tokens accumulate or starve.
    Inconsistent {
        /// Parent transitions not covered by any T-semiflow of the component.
        uncovered: Vec<TransitionId>,
    },
    /// A source transition of the original net has no T-invariant containing it in this
    /// component, so its input stream cannot be consumed at a sustainable rate.
    SourceNotCovered {
        /// The offending parent source transition.
        source: TransitionId,
    },
    /// Simulating the covering T-invariant deadlocked: the counts are algebraically
    /// balanced but not realisable from the initial marking.
    Deadlock {
        /// Parent transitions still owing firings when the simulation stalled.
        remaining: Vec<(TransitionId, u64)>,
        /// The partial firing sequence (parent identifiers).
        fired: Vec<TransitionId>,
    },
}

/// The verdict for one T-reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentVerdict {
    /// The component is statically schedulable; the cycle realises its covering
    /// T-invariant.
    Schedulable(FiniteCompleteCycle),
    /// The component fails Definition 3.5 for the recorded reason.
    NotSchedulable(ComponentFailure),
}

impl ComponentVerdict {
    /// Returns `true` if the component is schedulable.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, ComponentVerdict::Schedulable(_))
    }
}

/// The result of one token-game simulation, cached per `(net structure, priority)`.
type CycleResult = Result<(Vec<TransitionId>, Vec<u64>), (Vec<u64>, Vec<TransitionId>)>;

// ---------------------------------------------------------------------------
// Structural signatures: the streaming walk, the 128-bit fingerprint fold, and
// the materialised form used for collision checks.
// ---------------------------------------------------------------------------

/// Walks the structural signature of a whole net: place/transition counts, the initial
/// marking, and the full weighted arc lists in index order. The `emit` callback returns
/// `false` to stop early (used by the streaming compare); the walk reports whether it
/// ran to completion.
fn walk_signature_net(net: &PetriNet, emit: &mut impl FnMut(u64) -> bool) -> bool {
    if !emit(net.place_count() as u64) || !emit(net.transition_count() as u64) {
        return false;
    }
    for &tokens in net.initial_marking().as_slice() {
        if !emit(tokens) {
            return false;
        }
    }
    for t in net.transitions() {
        if !emit(net.inputs(t).len() as u64) {
            return false;
        }
        for &(p, w) in net.inputs(t) {
            if !emit(p.index() as u64) || !emit(w) {
                return false;
            }
        }
        if !emit(net.outputs(t).len() as u64) {
            return false;
        }
        for &(p, w) in net.outputs(t) {
            if !emit(p.index() as u64) || !emit(w) {
                return false;
            }
        }
    }
    true
}

/// Walks the structural signature of the component held in `ws` — the exact `u64`
/// sequence [`walk_signature_net`] would produce on the materialised reduced net, but
/// streamed straight from the parent's arc lists and the workspace's kept flags, so no
/// subnet is ever built for a cache hit.
fn walk_signature_reduced(
    parent: &PetriNet,
    ws: &ReductionWorkspace,
    emit: &mut impl FnMut(u64) -> bool,
) -> bool {
    let kept_places = ws.kept_places();
    let kept_transitions = ws.kept_transitions();
    if !emit(kept_places.len() as u64) || !emit(kept_transitions.len() as u64) {
        return false;
    }
    for &p in kept_places {
        if !emit(parent.initial_marking().tokens(p)) {
            return false;
        }
    }
    for &t in kept_transitions {
        let kept_inputs = parent
            .inputs(t)
            .iter()
            .filter(|&&(p, _)| ws.child_place(p).is_some())
            .count();
        if !emit(kept_inputs as u64) {
            return false;
        }
        for &(p, w) in parent.inputs(t) {
            if let Some(child) = ws.child_place(p) {
                if !emit(child.index() as u64) || !emit(w) {
                    return false;
                }
            }
        }
        let kept_outputs = parent
            .outputs(t)
            .iter()
            .filter(|&&(p, _)| ws.child_place(p).is_some())
            .count();
        if !emit(kept_outputs as u64) {
            return false;
        }
        for &(p, w) in parent.outputs(t) {
            if let Some(child) = ws.child_place(p) {
                if !emit(child.index() as u64) || !emit(w) {
                    return false;
                }
            }
        }
    }
    true
}

/// A structural fingerprint/signature source: either a materialised reduced net or a
/// reduction workspace over the parent.
#[derive(Debug, Clone, Copy)]
enum SignatureSource<'a> {
    Net(&'a PetriNet),
    Reduced(&'a PetriNet, &'a ReductionWorkspace),
}

impl SignatureSource<'_> {
    fn walk(&self, emit: &mut impl FnMut(u64) -> bool) -> bool {
        match self {
            SignatureSource::Net(net) => walk_signature_net(net, emit),
            SignatureSource::Reduced(parent, ws) => walk_signature_reduced(parent, ws, emit),
        }
    }

    /// The 128-bit fingerprint of the signature stream (no allocation).
    fn fingerprint(&self) -> u128 {
        let mut fp = Fingerprint128::new();
        self.walk(&mut |x| {
            fp.fold(x);
            true
        });
        fp.finish()
    }

    /// Streaming equality against a materialised signature (no allocation; early exit
    /// on the first mismatch).
    fn matches(&self, signature: &[u64]) -> bool {
        let mut pos = 0usize;
        let complete = self.walk(&mut |x| {
            if signature.get(pos) == Some(&x) {
                pos += 1;
                true
            } else {
                false
            }
        });
        complete && pos == signature.len()
    }

    /// Materialises the full signature (once per distinct shape, on first insert).
    fn materialise(&self) -> Vec<u64> {
        let mut sig = Vec::new();
        self.walk(&mut |x| {
            sig.push(x);
            true
        });
        sig
    }
}

// ---------------------------------------------------------------------------
// The fingerprint-keyed component cache.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct InvariantEntry {
    /// Full signature, kept for the streaming collision check on every hit.
    signature: Vec<u64>,
    analysis: Rc<InvariantAnalysis>,
}

#[derive(Debug)]
struct CycleEntry {
    /// Structural fingerprint of the component the cycle was simulated on.
    structure: u128,
    /// Priority list (allocated choice transitions in child indices).
    priority: Vec<u32>,
    result: Rc<CycleResult>,
}

/// Memoises the expensive, structure-only parts of [`check_component`] across the
/// T-reductions of one scheduling run.
///
/// Different allocations routinely produce *structurally identical* reduced nets — e.g.
/// every allocation of a symmetric choice chain reduces to the same conflict-free
/// skeleton, just relabelled — and both the Farkas invariant analysis and the cycle
/// simulation are pure functions of that structure (plus, for the simulation, the
/// priority list in child indices). Lookups key on a 128-bit fingerprint folded while
/// the signature is streamed (no allocation per lookup); the full signature is
/// materialised once per distinct shape when it is first inserted and stream-compared
/// on every subsequent hit, so a fingerprint collision degrades to an uncached
/// computation instead of a wrong verdict. Everything identifier-dependent (the mapping
/// back to parent transitions, source slices, diagnostics) is recomputed per reduction.
#[derive(Debug, Default)]
pub struct ComponentCache {
    invariants: HashMap<u128, InvariantEntry>,
    cycles: HashMap<u128, CycleEntry>,
}

impl ComponentCache {
    /// Drops every memoised analysis (used to emulate the uncached path without
    /// reconstructing the checker).
    pub fn clear(&mut self) {
        self.invariants.clear();
        self.cycles.clear();
    }

    /// Looks the invariant analysis up by fingerprint, verifying against the stored
    /// full signature. A [`InvariantLookup::Collision`] means the fingerprint is bound
    /// to a *different* shape in this cache — the caller must bypass both caches for
    /// this component (the cycle cache keys on the same fingerprint).
    fn invariants_get(&self, fp: u128, source: SignatureSource<'_>) -> InvariantLookup {
        match self.invariants.get(&fp) {
            None => InvariantLookup::Miss,
            Some(entry) if source.matches(&entry.signature) => {
                InvariantLookup::Hit(Rc::clone(&entry.analysis))
            }
            Some(_) => InvariantLookup::Collision,
        }
    }

    fn invariants_insert(
        &mut self,
        fp: u128,
        source: SignatureSource<'_>,
        analysis: Rc<InvariantAnalysis>,
    ) {
        // First insert wins; a colliding shape stays uncached (correctness is preserved
        // by the signature check on lookup).
        self.invariants.entry(fp).or_insert_with(|| InvariantEntry {
            signature: source.materialise(),
            analysis,
        });
    }

    fn cycles_get(&self, key: u128, structure: u128, priority: &[u32]) -> Option<Rc<CycleResult>> {
        let entry = self.cycles.get(&key)?;
        (entry.structure == structure && entry.priority == priority)
            .then(|| Rc::clone(&entry.result))
    }

    fn cycles_insert(
        &mut self,
        key: u128,
        structure: u128,
        priority: &[u32],
        result: Rc<CycleResult>,
    ) {
        self.cycles.entry(key).or_insert_with(|| CycleEntry {
            structure,
            priority: priority.to_vec(),
            result,
        });
    }
}

/// Outcome of a fingerprint lookup in the invariants cache.
enum InvariantLookup {
    Hit(Rc<InvariantAnalysis>),
    Miss,
    /// The fingerprint is taken by a different shape: every cache keyed on it is
    /// untrustworthy for this component.
    Collision,
}

/// Key for the cycle cache: the structural fingerprint folded together with the
/// priority list.
fn cycle_key(structure: u128, priority: &[u32]) -> u128 {
    let mut fp = Fingerprint128::new();
    fp.fold(structure as u64);
    fp.fold((structure >> 64) as u64);
    fp.fold(priority.len() as u64);
    for &p in priority {
        fp.fold(p as u64);
    }
    fp.finish()
}

// ---------------------------------------------------------------------------
// Component views: the verdict assembly works over either a materialised
// TReduction or a ReductionWorkspace (which never builds the subnet on a hit).
// ---------------------------------------------------------------------------

/// The child↔parent mapping of a component, independent of how it is stored.
#[derive(Debug, Clone, Copy)]
enum ComponentView<'a> {
    Reduction(&'a TReduction),
    Workspace(&'a ReductionWorkspace),
}

impl ComponentView<'_> {
    fn child_transition_count(&self) -> usize {
        match self {
            ComponentView::Reduction(r) => r.net.transition_count(),
            ComponentView::Workspace(ws) => ws.kept_transitions().len(),
        }
    }

    fn parent_transition(&self, child: TransitionId) -> TransitionId {
        match self {
            ComponentView::Reduction(r) => r.map.parent_transition(child),
            ComponentView::Workspace(ws) => ws.kept_transitions()[child.index()],
        }
    }

    fn parent_place(&self, child: PlaceId) -> PlaceId {
        match self {
            ComponentView::Reduction(r) => r.map.parent_place(child),
            ComponentView::Workspace(ws) => ws.kept_places()[child.index()],
        }
    }

    fn child_transition(&self, parent: TransitionId) -> Option<TransitionId> {
        match self {
            ComponentView::Reduction(r) => r.map.child_transition(parent),
            ComponentView::Workspace(ws) => ws.child_transition(parent),
        }
    }
}

/// The component net, materialised lazily: a [`TReduction`] already owns it; a
/// workspace view only builds it when an analysis actually misses the cache.
struct LazyComponentNet<'a> {
    existing: Option<&'a PetriNet>,
    built: Option<PetriNet>,
}

impl<'a> LazyComponentNet<'a> {
    fn get(&mut self, parent: &PetriNet, view: ComponentView<'_>) -> &PetriNet {
        if let Some(net) = self.existing {
            return net;
        }
        if self.built.is_none() {
            let ComponentView::Workspace(ws) = view else {
                unreachable!("reduction views always carry their net");
            };
            let (net, _map) = parent
                .induced_subnet(ws.kept_places(), ws.kept_transitions())
                .expect("workspace identifiers belong to the parent net");
            self.built = Some(net);
        }
        self.built.as_ref().expect("just built")
    }
}

/// Checks Definition 3.5 for one T-reduction of `parent` and, if it holds, produces the
/// component's finite complete cycle expressed in parent identifiers.
///
/// One-shot convenience over [`check_component_with`]; loops over many reductions (the
/// quasi-static scheduler) should share a [`ComponentCache`] instead.
pub fn check_component(parent: &PetriNet, reduction: &TReduction) -> ComponentVerdict {
    check_component_with(parent, reduction, &mut ComponentCache::default())
}

/// [`check_component`] with a shared [`ComponentCache`]: structurally identical reduced
/// nets reuse the invariant basis and the simulated cycle. The verdict is identical to
/// the uncached path.
pub fn check_component_with(
    parent: &PetriNet,
    reduction: &TReduction,
    cache: &mut ComponentCache,
) -> ComponentVerdict {
    let sources = parent.source_transitions();
    let mut priority: Vec<TransitionId> = Vec::new();
    let mut priority_key: Vec<u32> = Vec::new();
    check_impl(
        parent,
        &sources,
        &reduction.allocation,
        ComponentView::Reduction(reduction),
        SignatureSource::Net(&reduction.net),
        LazyComponentNet {
            existing: Some(&reduction.net),
            built: None,
        },
        &mut priority,
        &mut priority_key,
        cache,
    )
}

/// Drives per-allocation schedulability checks straight from a
/// [`ReductionWorkspace`] — the scheduler's hot path. Construction hoists the
/// per-sweep constants (the parent's source transitions, the priority scratch
/// buffers); [`check`](ComponentChecker::check) then runs the reduction fixpoint, folds
/// the 128-bit structural fingerprint and consults the cache, materialising the reduced
/// net **only when an analysis misses** — on a hit the whole check performs no
/// allocation beyond the verdict it returns.
#[derive(Debug)]
pub struct ComponentChecker<'a> {
    parent: &'a PetriNet,
    sources: Vec<TransitionId>,
    priority: Vec<TransitionId>,
    priority_key: Vec<u32>,
}

impl<'a> ComponentChecker<'a> {
    /// Prepares a checker for sweeping `parent`'s allocations.
    pub fn new(parent: &'a PetriNet) -> Self {
        ComponentChecker {
            parent,
            sources: parent.source_transitions(),
            priority: Vec::new(),
            priority_key: Vec::new(),
        }
    }

    /// Checks the component selected by `allocation`: runs the Reduction Algorithm on
    /// `workspace`, then the cached Definition 3.5 checks. The verdict is identical to
    /// [`check_component`] on [`TReduction::compute`]'s output for the same allocation.
    pub fn check(
        &mut self,
        allocation: &TAllocation,
        workspace: &mut ReductionWorkspace,
        cache: &mut ComponentCache,
    ) -> ComponentVerdict {
        workspace.reduce(self.parent, allocation, false);
        check_impl(
            self.parent,
            &self.sources,
            allocation,
            ComponentView::Workspace(workspace),
            SignatureSource::Reduced(self.parent, workspace),
            LazyComponentNet {
                existing: None,
                built: None,
            },
            &mut self.priority,
            &mut self.priority_key,
            cache,
        )
    }

    /// The parent net this checker sweeps (the workspace passed to
    /// [`check`](ComponentChecker::check) holds the surviving nodes of the last
    /// reduction for failure diagnostics).
    pub fn parent(&self) -> &'a PetriNet {
        self.parent
    }
}

/// The shared Definition 3.5 check over either component representation.
#[allow(clippy::too_many_arguments)]
fn check_impl(
    parent: &PetriNet,
    sources: &[TransitionId],
    allocation: &TAllocation,
    view: ComponentView<'_>,
    signature: SignatureSource<'_>,
    mut lazy_net: LazyComponentNet<'_>,
    priority: &mut Vec<TransitionId>,
    priority_key: &mut Vec<u32>,
    cache: &mut ComponentCache,
) -> ComponentVerdict {
    let transition_count = view.child_transition_count();
    let structure = signature.fingerprint();
    // A fingerprint collision (this fingerprint already names a *different* shape)
    // poisons every cache keyed on it for this component — the check falls back to a
    // fully uncached computation rather than ever trusting a colliding entry.
    let mut collided = false;
    let invariants: Rc<InvariantAnalysis> = match cache.invariants_get(structure, signature) {
        InvariantLookup::Hit(cached) => cached,
        lookup => {
            collided = matches!(lookup, InvariantLookup::Collision);
            // Only the T-semiflow side is ever consulted by Definition 3.5, so the
            // transpose (P-semiflow) elimination is skipped on this path entirely.
            let net = lazy_net.get(parent, view);
            let (t_semiflows, complete) = InvariantAnalysis::t_semiflows_of(net);
            let computed = Rc::new(InvariantAnalysis {
                t_semiflows,
                p_semiflows: Vec::new(),
                complete,
            });
            if !collided {
                cache.invariants_insert(structure, signature, Rc::clone(&computed));
            }
            computed
        }
    };

    // (1) Consistency: every transition of the component lies in some T-semiflow.
    let covered = {
        let mut covered = vec![false; transition_count];
        for flow in &invariants.t_semiflows {
            for index in flow.support_iter() {
                covered[index] = true;
            }
        }
        covered
    };
    let uncovered: Vec<TransitionId> = covered
        .iter()
        .enumerate()
        .filter(|&(_, &c)| !c)
        .map(|(child, _)| view.parent_transition(TransitionId::new(child)))
        .collect();
    if !uncovered.is_empty() || transition_count == 0 {
        return ComponentVerdict::NotSchedulable(ComponentFailure::Inconsistent { uncovered });
    }

    // (2) Every source transition of the original net must be covered by a T-invariant of
    // the component. Source transitions always survive reduction (their pre-set is empty,
    // so they are never in conflict), hence the lookup cannot fail structurally.
    for &parent_source in sources {
        let Some(child) = view.child_transition(parent_source) else {
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

    // (3) Simulate the covering T-invariant (the sum of the minimal semiflows, which by
    // consistency covers every transition of the component, hence every source).
    let counts = invariants
        .positive_t_invariant(transition_count)
        .expect("consistency was established above");
    priority.clear();
    priority.extend(
        allocation
            .choices()
            .iter()
            .filter_map(|&(_, chosen)| view.child_transition(chosen)),
    );
    priority_key.clear();
    priority_key.extend(priority.iter().map(|t| t.index() as u32));
    let key = cycle_key(structure, priority_key);
    let cached_cycle = if collided {
        None // the fingerprint names another shape; the cycle cache keys on it too
    } else {
        cache.cycles_get(key, structure, priority_key)
    };
    let simulated: Rc<CycleResult> = match cached_cycle {
        Some(cached) => cached,
        None => {
            let net = lazy_net.get(parent, view);
            debug_assert!(IncidenceMatrix::from_net(net).is_t_invariant(&counts));
            let computed = Rc::new(simulate_cycle(net, &counts, priority));
            if !collided {
                cache.cycles_insert(key, structure, priority_key, Rc::clone(&computed));
            }
            computed
        }
    };
    match &*simulated {
        Ok((sequence, peaks)) => {
            let parent_sequence: Vec<TransitionId> = sequence
                .iter()
                .map(|&t| view.parent_transition(t))
                .collect();
            let mut parent_counts = vec![0u64; parent.transition_count()];
            for &t in &parent_sequence {
                parent_counts[t.index()] += 1;
            }
            let mut parent_bounds = vec![0u64; parent.place_count()];
            for (child_index, &peak) in peaks.iter().enumerate() {
                let parent_place = view.parent_place(PlaceId::new(child_index));
                parent_bounds[parent_place.index()] = peak;
            }
            // Slice the cycle per input: for each source transition, the sum of the
            // minimal T-semiflows containing it. Transitions in the same slice have
            // dependent firing rates and will end up in the same software task.
            let mut source_slices = Vec::new();
            for &parent_source in sources {
                let Some(child) = view.child_transition(parent_source) else {
                    continue;
                };
                let mut slice = vec![0u64; parent.transition_count()];
                for flow in invariants.t_semiflows_containing(child) {
                    for (child_index, &count) in flow.vector.iter().enumerate() {
                        let parent_t = view.parent_transition(TransitionId::new(child_index));
                        slice[parent_t.index()] += count;
                    }
                }
                source_slices.push((parent_source, slice));
            }
            ComponentVerdict::Schedulable(FiniteCompleteCycle {
                allocation: allocation.clone(),
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
                .map(|(index, count)| (view.parent_transition(TransitionId::new(index)), count))
                .collect();
            let fired = fired.iter().map(|&t| view.parent_transition(t)).collect();
            ComponentVerdict::NotSchedulable(ComponentFailure::Deadlock { remaining, fired })
        }
    }
}

/// Simulates the token game of a conflict-free component until every transition has fired
/// `counts[t]` times. At each step the lowest-indexed enabled transition that still owes
/// firings is fired, except that transitions in `priority` (the allocated choice
/// transitions) are fired first whenever they are enabled — this "decide the choice as
/// soon as its token arrives" order is the one the paper's examples use.
///
/// The simulation runs on the state-space engine's firing fast path: flat token buffers,
/// [`PetriNet::fire_into`] with precomputed delta rows, and peak tracking restricted to
/// the places each firing actually touches — no `Marking` clone or validation per step.
///
/// Returns the firing sequence and per-place peak token counts, or
/// `Err((remaining, fired))` on deadlock.
#[allow(clippy::type_complexity)]
pub fn simulate_cycle(
    net: &PetriNet,
    counts: &[u64],
    priority: &[TransitionId],
) -> Result<(Vec<TransitionId>, Vec<u64>), (Vec<u64>, Vec<TransitionId>)> {
    let mut remaining: Vec<u64> = counts.to_vec();
    let mut marking: Vec<u64> = net.initial_marking().as_slice().to_vec();
    let mut scratch: Vec<u64> = vec![0; marking.len()];
    let mut sequence = Vec::new();
    let mut peaks: Vec<u64> = marking.clone();
    let total: u64 = remaining.iter().sum();
    let mut fired = 0u64;
    while fired < total {
        let fireable = |t: TransitionId, remaining: &[u64], marking: &[u64]| {
            remaining[t.index()] > 0 && net.is_enabled_at(marking, t)
        };
        let next = priority
            .iter()
            .copied()
            .find(|&t| fireable(t, &remaining, &marking))
            .or_else(|| {
                net.transitions()
                    .find(|&t| fireable(t, &remaining, &marking))
            });
        let Some(t) = next else {
            return Err((remaining, sequence));
        };
        // The transition was selected as enabled, so fire_into can only fail on token
        // overflow; `scratch` is unspecified then, so aborting (like the safe path's
        // `.expect` used to) is the only sound option.
        assert!(
            net.fire_into(&marking, &mut scratch, t),
            "firing {t} overflowed a place's token count"
        );
        std::mem::swap(&mut marking, &mut scratch);
        remaining[t.index()] -= 1;
        sequence.push(t);
        fired += 1;
        // Only places this transition produced into can set a new peak.
        for &(p, delta) in net.delta_row(t) {
            if delta > 0 && marking[p.index()] > peaks[p.index()] {
                peaks[p.index()] = marking[p.index()];
            }
        }
    }
    Ok((sequence, peaks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_allocations, AllocationOptions, TReduction};
    use fcpn_petri::gallery;

    fn reductions_of(net: &PetriNet) -> Vec<TReduction> {
        enumerate_allocations(net, AllocationOptions::default())
            .unwrap()
            .into_iter()
            .map(|a| TReduction::compute(net, a).unwrap())
            .collect()
    }

    #[test]
    fn figure5_r1_invariants_and_cycle_match_paper() {
        let net = gallery::figure5();
        let t2 = net.transition_by_name("t2").unwrap();
        let reductions = reductions_of(&net);
        let r1 = reductions
            .iter()
            .find(|r| r.allocation.allocates(t2))
            .unwrap();
        // Check the component invariants the paper quotes: (1,1,0,2,0,4,0,0,0) and
        // (0,0,0,0,0,1,0,1,1) in parent transition order.
        let inv = InvariantAnalysis::of(&r1.net);
        let mut parent_vectors: Vec<Vec<u64>> = inv
            .t_semiflows
            .iter()
            .map(|s| {
                let mut v = vec![0u64; net.transition_count()];
                for (child, &count) in s.vector.iter().enumerate() {
                    let parent = r1.map.parent_transition(TransitionId::new(child));
                    v[parent.index()] = count;
                }
                v
            })
            .collect();
        parent_vectors.sort();
        assert_eq!(
            parent_vectors,
            vec![
                vec![0, 0, 0, 0, 0, 1, 0, 1, 1],
                vec![1, 1, 0, 2, 0, 4, 0, 0, 0],
            ]
        );
        // And the cycle matches the paper's (t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6).
        match check_component(&net, r1) {
            ComponentVerdict::Schedulable(cycle) => {
                assert_eq!(
                    net.format_sequence(&cycle.sequence),
                    "t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6"
                );
                assert!(net.is_finite_complete_cycle(net.initial_marking(), &cycle.sequence));
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
    }

    #[test]
    fn figure5_r2_cycle_matches_paper() {
        let net = gallery::figure5();
        let t3 = net.transition_by_name("t3").unwrap();
        let reductions = reductions_of(&net);
        let r2 = reductions
            .iter()
            .find(|r| r.allocation.allocates(t3))
            .unwrap();
        match check_component(&net, r2) {
            ComponentVerdict::Schedulable(cycle) => {
                assert_eq!(
                    net.format_sequence(&cycle.sequence),
                    "t1 t3 t5 t7 t7 t8 t9 t6"
                );
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
    }

    #[test]
    fn figure7_components_are_inconsistent() {
        let net = gallery::figure7();
        for reduction in reductions_of(&net) {
            match check_component(&net, &reduction) {
                ComponentVerdict::NotSchedulable(ComponentFailure::Inconsistent { uncovered }) => {
                    assert!(!uncovered.is_empty());
                }
                other => panic!("expected inconsistency, got {other:?}"),
            }
        }
    }

    #[test]
    fn figure3b_components_are_inconsistent() {
        let net = gallery::figure3b();
        for reduction in reductions_of(&net) {
            assert!(!check_component(&net, &reduction).is_schedulable());
        }
    }

    #[test]
    fn deadlock_detected_when_invariant_not_realisable() {
        // A delay-free loop is consistent (x = (1,1) balances it) but cannot fire.
        let mut b = fcpn_petri::NetBuilder::new("deadlock");
        let p1 = b.place("p1", 0);
        let t1 = b.transition("t1");
        let p2 = b.place("p2", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(p1, t1, 1).unwrap();
        b.arc_t_p(t1, p2, 1).unwrap();
        b.arc_p_t(p2, t2, 1).unwrap();
        b.arc_t_p(t2, p1, 1).unwrap();
        let net = b.build().unwrap();
        let reductions = reductions_of(&net);
        assert_eq!(reductions.len(), 1);
        match check_component(&net, &reductions[0]) {
            ComponentVerdict::NotSchedulable(ComponentFailure::Deadlock { remaining, fired }) => {
                assert!(fired.is_empty());
                assert_eq!(remaining.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn simulate_cycle_respects_priority() {
        let net = gallery::figure4();
        let t2 = net.transition_by_name("t2").unwrap();
        let reductions = reductions_of(&net);
        let r1 = reductions
            .iter()
            .find(|r| r.allocation.allocates(t2))
            .unwrap();
        match check_component(&net, r1) {
            ComponentVerdict::Schedulable(cycle) => {
                // The choice fires as soon as its token arrives: t1 t2 t1 t2 t4.
                assert_eq!(net.format_sequence(&cycle.sequence), "t1 t2 t1 t2 t4");
                assert_eq!(cycle.counts, vec![2, 2, 0, 1, 0]);
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
    }

    #[test]
    fn checker_matches_check_component_on_every_gallery_allocation() {
        // The workspace-driven checker (no materialised subnet on cache hits) must give
        // the same verdict as the reduction-driven path, cached and uncached, across
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
            let mut checker = ComponentChecker::new(&net);
            let mut ws = ReductionWorkspace::new();
            let mut cache = ComponentCache::default();
            for allocation in enumerate_allocations(&net, AllocationOptions::default()).unwrap() {
                let reduction = TReduction::compute(&net, allocation.clone()).unwrap();
                let reference = check_component(&net, &reduction);
                let cached = check_component_with(&net, &reduction, &mut ComponentCache::default());
                let fast = checker.check(&allocation, &mut ws, &mut cache);
                assert_eq!(reference, cached, "net {}", net.name());
                assert_eq!(reference, fast, "net {}", net.name());
            }
        }
    }

    #[test]
    fn workspace_signature_stream_matches_materialised_net() {
        // The streamed reduced-component signature must be the exact u64 sequence the
        // materialised subnet produces — fingerprints and full signatures both.
        for net in [
            gallery::figure5(),
            gallery::figure7(),
            gallery::choice_chain(3),
        ] {
            let mut ws = ReductionWorkspace::new();
            for allocation in enumerate_allocations(&net, AllocationOptions::default()).unwrap() {
                let reduction = TReduction::compute(&net, allocation.clone()).unwrap();
                ws.reduce(&net, &allocation, false);
                let from_net = SignatureSource::Net(&reduction.net);
                let from_ws = SignatureSource::Reduced(&net, &ws);
                assert_eq!(from_ws.materialise(), from_net.materialise());
                assert_eq!(from_ws.fingerprint(), from_net.fingerprint());
                assert!(from_ws.matches(&from_net.materialise()));
            }
        }
    }

    #[test]
    fn cache_fingerprint_agrees_with_public_net_structural_fingerprint() {
        // `fcpn_petri::net_structural_fingerprint` advertises the exact fold this cache
        // keys on; the two must never drift apart.
        for net in [
            gallery::figure2(),
            gallery::figure5(),
            gallery::figure7(),
            gallery::choice_chain(4),
        ] {
            assert_eq!(
                SignatureSource::Net(&net).fingerprint(),
                fcpn_petri::net_structural_fingerprint(&net),
                "net {}",
                net.name()
            );
        }
    }
}
