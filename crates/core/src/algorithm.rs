//! The top-level quasi-static scheduling algorithm (Section 3, Steps 1–3).
//!
//! The production sweep walks the allocation space in gray-code order on the
//! zero-allocation pipeline (workspace reductions, fingerprint-keyed component cache),
//! one sequential pass on the calling thread; per-allocation results carry their seed
//! (counting-order) rank and are sorted back into that order, so the outcome — verdict,
//! cycle order, diagnostics order — is bit-for-bit identical to the seed scheduler's.
//! The seed pipeline itself (counting-order enumeration, fresh `BTreeSet` reductions,
//! `Vec`-keyed cache, dense Farkas) is retained as [`quasi_static_schedule_naive`], the
//! baseline the `qss_pipeline` benchmark and the equivalence suite measure against.

use crate::{
    allocation_iter, allocation_iter_gray, check_component_naive_with, AllocationOptions,
    ComponentCache, ComponentChecker, ComponentFailure, ComponentVerdict, FiniteCompleteCycle,
    GrayAllocationIter, NaiveComponentCache, ReductionWorkspace, Result, TReduction, ValidSchedule,
};
use fcpn_petri::cancel::{CancelGate, CancelToken, Cancelled};
use fcpn_petri::{MemoryBudget, PetriNet, TransitionId};
use std::fmt;

/// Options for the quasi-static scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QssOptions {
    /// Limits for T-allocation enumeration (exponential in the number of choices).
    pub allocation: AllocationOptions,
    /// Share a [`ComponentCache`] across the T-reductions, so structurally identical
    /// components (ubiquitous in nets with symmetric choices) reuse the invariant basis
    /// and simulated cycle instead of re-running the Farkas analysis per allocation.
    /// The verdict is identical either way; disabling is only useful for benchmarking
    /// the cache itself.
    pub reuse_component_cache: bool,
    /// Cooperative cancellation: the sweep polls this token between allocations and
    /// returns [`QssError::Cancelled`](crate::QssError::Cancelled) when it fires. The
    /// default ([`CancelToken::never`]) is free and never fires; an armed token that
    /// never fires leaves the outcome bit-for-bit identical. The retained seed pipeline
    /// ([`quasi_static_schedule_naive`]) deliberately ignores it — it is the oracle the
    /// production sweep is measured against, not a service entry point.
    pub cancel: CancelToken,
    /// Byte budget for the sweep. The scheduler charges a canonical cost model — one
    /// net-sized workspace charge up front, then the retained per-allocation results in
    /// seed (counting) order after the sort — so the same net under the same budget
    /// fails with the same [`QssError::ResourceExhausted`](crate::QssError) whatever
    /// the gray sweep's order; sweep scratch (the component cache, the gray cursor) is
    /// bounded by the allocation limit and not charged. The default
    /// ([`MemoryBudget::unlimited`]) is free and never exhausts; an armed budget that
    /// never exhausts leaves the outcome bit-for-bit identical. The retained seed
    /// pipeline ignores it, like the cancellation token.
    pub memory: MemoryBudget,
}

impl Default for QssOptions {
    fn default() -> Self {
        QssOptions {
            allocation: AllocationOptions::default(),
            reuse_component_cache: true,
            cancel: CancelToken::never(),
            memory: MemoryBudget::unlimited(),
        }
    }
}

/// Diagnosis of a single non-schedulable component, with enough context to explain the
/// failure to the designer (the paper's requirement that the designer be notified that no
/// bounded-memory implementation exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiagnostic {
    /// Human-readable description of the choice resolution of the failing component.
    pub allocation: String,
    /// Parent transitions that survive in the failing component.
    pub transitions: Vec<TransitionId>,
    /// The reason the component fails Definition 3.5.
    pub failure: ComponentFailure,
}

/// Report returned when the net is not quasi-statically schedulable: every failing
/// T-reduction is listed with its diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotSchedulableReport {
    /// Total number of T-reductions examined.
    pub components_examined: usize,
    /// Diagnostics for the failing components.
    pub failures: Vec<ComponentDiagnostic>,
}

impl fmt::Display for NotSchedulableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} conflict-free components are not statically schedulable",
            self.failures.len(),
            self.components_examined
        )
    }
}

/// Outcome of the quasi-static scheduling algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QssOutcome {
    /// The net is schedulable; the valid schedule has one finite complete cycle per
    /// T-reduction (Theorem 3.1).
    Schedulable(ValidSchedule),
    /// The net is not schedulable; no implementation can run forever in bounded memory.
    NotSchedulable(NotSchedulableReport),
}

impl QssOutcome {
    /// Returns the schedule if the net was schedulable.
    pub fn schedule(self) -> Option<ValidSchedule> {
        match self {
            QssOutcome::Schedulable(s) => Some(s),
            QssOutcome::NotSchedulable(_) => None,
        }
    }

    /// Returns `true` if the net was schedulable.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, QssOutcome::Schedulable(_))
    }
}

/// Runs the complete quasi-static scheduling algorithm of the paper on a Free-Choice net:
///
/// 1. enumerate the T-allocations and compute the T-reduction of each (Step 1);
/// 2. check that every reduction is statically schedulable (Step 2, Definition 3.5);
/// 3. if so, assemble the valid schedule from the component cycles (Step 3,
///    Theorem 3.1); otherwise report why each failing component cannot execute forever in
///    bounded memory.
///
/// # Errors
///
/// Returns [`QssError::NotFreeChoice`](crate::QssError::NotFreeChoice),
/// [`QssError::Empty`](crate::QssError::Empty) or
/// [`QssError::TooManyAllocations`](crate::QssError::TooManyAllocations) if the input is
/// outside the algorithm's domain — these
/// are input errors, distinct from the legitimate [`QssOutcome::NotSchedulable`] verdict.
/// Returns [`QssError::Cancelled`](crate::QssError::Cancelled) when `options.cancel`
/// fires mid-sweep and [`QssError::ResourceExhausted`](crate::QssError::ResourceExhausted)
/// when a charge against `options.memory` fails; the partial sweep is discarded either
/// way — a resource violation is an error, never a silently truncated verdict.
///
/// # Examples
///
/// ```
/// use fcpn_petri::gallery;
/// use fcpn_qss::{quasi_static_schedule, QssOptions, QssOutcome};
///
/// # fn main() -> Result<(), fcpn_qss::QssError> {
/// let net = gallery::figure4();
/// let outcome = quasi_static_schedule(&net, &QssOptions::default())?;
/// let QssOutcome::Schedulable(schedule) = outcome else { panic!("figure 4 is schedulable") };
/// assert_eq!(schedule.describe(&net), "{(t1 t2 t1 t2 t4), (t1 t3 t5 t5)}");
/// # Ok(())
/// # }
/// ```
pub fn quasi_static_schedule(net: &PetriNet, options: &QssOptions) -> Result<QssOutcome> {
    // T-allocations are streamed in gray-code order, not materialised: peak memory stays
    // O(choices) even though the number of allocations is exponential in the number of
    // choices, and consecutive allocations differ in a single choice so the pipeline's
    // per-allocation state (loser tails, workspace flags) changes by a delta.
    let allocations = allocation_iter_gray(net, options.allocation)?;
    // One net-sized charge covers the reduction workspace and checker scratch (both
    // are O(transitions + places)); per-result charges follow in seed order below.
    // Charging only quantities the sweep order cannot change keeps exhaustion
    // deterministic.
    let mut meter = options.memory.meter();
    meter.charge(
        (net.transition_count() + net.place_count()) as u64 * 48,
        "schedule-workspace",
    )?;
    let mut results = sweep(net, allocations, options)?;
    // Sort back into the seed (counting) enumeration order: the public outcome is
    // bit-for-bit the seed scheduler's regardless of the gray sweep order.
    results.sort_by_key(|&(rank, _)| rank);
    let components_examined = results.len();
    let mut cycles = Vec::new();
    let mut failures = Vec::new();
    for (_, item) in results {
        // The retained result bytes, charged in seed order: an exhausted budget fails
        // at the same allocation whatever order the gray sweep visited them in.
        let item_bytes = match &item {
            SweepItem::Cycle(cycle) => (cycle.sequence.len() + cycle.counts.len()) * 8 + 64,
            SweepItem::Failure(diagnostic) => {
                diagnostic.allocation.len() + diagnostic.transitions.len() * 8 + 64
            }
        };
        meter.charge(item_bytes as u64, "schedule-results")?;
        match item {
            SweepItem::Cycle(cycle) => cycles.push(*cycle),
            SweepItem::Failure(diagnostic) => failures.push(*diagnostic),
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

/// One per-allocation result of the sweep, tagged with the allocation's seed rank.
enum SweepItem {
    Cycle(Box<FiniteCompleteCycle>),
    Failure(Box<ComponentDiagnostic>),
}

/// Sweeps the allocation space in gray order on the zero-allocation pipeline: a
/// reusable [`ReductionWorkspace`], a [`ComponentChecker`] and (when enabled) a
/// [`ComponentCache`].
///
/// Polls `options.cancel` between allocations (a component check costs microseconds to
/// milliseconds, so a small polling stride keeps the cancellation latency far below the
/// service-level bound) and abandons the sweep with [`Cancelled`] when it fires.
fn sweep(
    net: &PetriNet,
    allocations: GrayAllocationIter,
    options: &QssOptions,
) -> Result<Vec<(u128, SweepItem)>, Cancelled> {
    let mut checker = ComponentChecker::new(net);
    let mut workspace = ReductionWorkspace::new();
    let mut cache = ComponentCache::default();
    let mut cancel_gate = CancelGate::new(16);
    let mut out = Vec::with_capacity(allocations.remaining() as usize);
    for (rank, allocation) in allocations {
        cancel_gate.check(&options.cancel)?;
        if !options.reuse_component_cache {
            cache.clear();
        }
        let verdict = checker.check(&allocation, &mut workspace, &mut cache);
        let item = match verdict {
            ComponentVerdict::Schedulable(cycle) => SweepItem::Cycle(Box::new(cycle)),
            ComponentVerdict::NotSchedulable(failure) => {
                SweepItem::Failure(Box::new(ComponentDiagnostic {
                    allocation: allocation.describe(net),
                    transitions: workspace.kept_transitions().to_vec(),
                    failure,
                }))
            }
        };
        out.push((rank, item));
    }
    Ok(out)
}

/// The seed scheduling pipeline, retained end to end: counting-order enumeration
/// ([`allocation_iter`]), fresh-`BTreeSet` reductions ([`TReduction::compute`]), the
/// `Vec<u64>`-keyed component cache and the dense Farkas elimination
/// ([`check_component_naive_with`]). Always sequential. The outcome is bit-for-bit
/// identical to [`quasi_static_schedule`]'s — pinned by the equivalence suite — and the
/// `qss_pipeline` benchmark measures the pipeline win against it.
///
/// # Errors
///
/// Same as [`quasi_static_schedule`].
pub fn quasi_static_schedule_naive(net: &PetriNet, options: &QssOptions) -> Result<QssOutcome> {
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

/// Convenience wrapper: returns `true` when the marked net is quasi-statically
/// schedulable (Definition 3.2).
///
/// # Errors
///
/// Same input errors as [`quasi_static_schedule`].
pub fn is_schedulable(net: &PetriNet, options: &QssOptions) -> Result<bool> {
    Ok(quasi_static_schedule(net, options)?.is_schedulable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QssError;
    use fcpn_petri::gallery;

    #[test]
    fn figure3a_is_schedulable_with_two_cycles() {
        let net = gallery::figure3a();
        let outcome = quasi_static_schedule(&net, &QssOptions::default()).unwrap();
        assert!(outcome.is_schedulable());
        let schedule = outcome.schedule().unwrap();
        assert_eq!(schedule.cycle_count(), 2);
        assert_eq!(schedule.describe(&net), "{(t1 t2 t4), (t1 t3 t5)}");
    }

    #[test]
    fn figure3b_is_not_schedulable() {
        let net = gallery::figure3b();
        let outcome = quasi_static_schedule(&net, &QssOptions::default()).unwrap();
        match outcome {
            QssOutcome::NotSchedulable(report) => {
                assert_eq!(report.components_examined, 2);
                assert_eq!(report.failures.len(), 2);
                assert!(report.to_string().contains("2 of 2"));
            }
            QssOutcome::Schedulable(_) => panic!("figure 3b must not be schedulable"),
        }
        assert!(!is_schedulable(&net, &QssOptions::default()).unwrap());
    }

    #[test]
    fn figure5_schedule_matches_paper() {
        let net = gallery::figure5();
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(
            schedule.describe(&net),
            "{(t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6), (t1 t3 t5 t7 t7 t8 t9 t6)}"
        );
    }

    #[test]
    fn figure7_is_not_schedulable_with_inconsistency_diagnostics() {
        let net = gallery::figure7();
        let outcome = quasi_static_schedule(&net, &QssOptions::default()).unwrap();
        let QssOutcome::NotSchedulable(report) = outcome else {
            panic!("figure 7 must not be schedulable");
        };
        assert_eq!(report.failures.len(), 2);
        for failure in &report.failures {
            assert!(matches!(
                failure.failure,
                ComponentFailure::Inconsistent { .. }
            ));
            assert!(!failure.transitions.is_empty());
            assert!(failure.allocation.contains("p1->"));
        }
    }

    #[test]
    fn marked_graphs_degenerate_to_static_scheduling() {
        let net = gallery::figure2();
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(schedule.cycle_count(), 1);
        assert_eq!(schedule.cycles[0].counts, vec![4, 2, 1]);
        assert!(schedule.is_valid(&net));
    }

    #[test]
    fn non_free_choice_input_is_an_error_not_a_verdict() {
        let net = gallery::figure1b();
        assert!(matches!(
            quasi_static_schedule(&net, &QssOptions::default()),
            Err(QssError::NotFreeChoice { .. })
        ));
    }

    #[test]
    fn pre_fired_token_cancels_the_sweep_at_any_thread_count() {
        let net = gallery::choice_chain(6);
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = QssOptions {
            cancel,
            ..QssOptions::default()
        };
        assert!(matches!(
            quasi_static_schedule(&net, &options),
            Err(QssError::Cancelled)
        ));
    }

    #[test]
    fn armed_but_never_firing_token_is_bit_identical() {
        let net = gallery::choice_chain(5);
        let baseline = quasi_static_schedule(&net, &QssOptions::default()).unwrap();
        let options = QssOptions {
            cancel: CancelToken::new(),
            ..QssOptions::default()
        };
        assert_eq!(quasi_static_schedule(&net, &options).unwrap(), baseline);
    }

    #[test]
    fn choice_chain_produces_exponentially_many_cycles() {
        let net = gallery::choice_chain(4);
        let schedule = quasi_static_schedule(&net, &QssOptions::default())
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(schedule.cycle_count(), 16);
        for cycle in &schedule.cycles {
            assert!(net.is_finite_complete_cycle(net.initial_marking(), &cycle.sequence));
        }
    }
}
