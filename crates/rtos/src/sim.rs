//! The run-time simulator: executes an implementation against a workload and accounts
//! clock cycles.
//!
//! Two implementation styles can be simulated, matching the two rows of the paper's
//! Table I:
//!
//! * [`simulate_program`] runs a quasi-statically scheduled [`fcpn_codegen::Program`]
//!   (one task per independent-rate input) on the compiled executor;
//!   [`simulate_program_with`] can run the interpreter oracle instead;
//! * [`simulate_functional_partition`] runs a *functional task partitioning* baseline,
//!   where every functional module of the specification is its own RTOS task and tokens
//!   crossing module boundaries go through communication queues.
//!
//! Both charge costs from the same [`CostModel`], so the comparison isolates the effect
//! of the task structure: fewer tasks ⇒ fewer activations and queue transfers ⇒ fewer
//! cycles.
//!
//! The functional baseline plays the token game directly, so it is the hot loop of the
//! Table I experiment: [`simulate_functional_partition`] runs it on the
//! [`FiringSession`](fcpn_petri::statespace::FiringSession) firing fast path, and
//! [`FunctionalSimBatch`] reuses one session across many workloads. The seed
//! marking-by-marking simulator is the test and bench oracle
//! `fcpn_bench::oracle::simulate_functional_partition_naive`; `tests/firing_session.rs`
//! pins the fast path to its reports.
//!
//! # Example
//!
//! A functional partition with every transition in one task pays the activation
//! overhead once per event, like a one-task QSS implementation:
//!
//! ```
//! use fcpn_codegen::FixedResolver;
//! use fcpn_petri::gallery;
//! use fcpn_rtos::{
//!     simulate_functional_partition, CostModel, FunctionalSimBatch, FunctionalTask, Workload,
//! };
//!
//! # fn main() -> Result<(), fcpn_rtos::RtosError> {
//! let net = gallery::figure4();
//! let tasks = vec![FunctionalTask {
//!     name: "everything".into(),
//!     transitions: net.transitions().collect(),
//! }];
//! let workload = Workload::periodic(net.transition_by_name("t1").unwrap(), 10, 25, 0);
//! let cost = CostModel::default();
//! let report = simulate_functional_partition(
//!     &net, &tasks, &cost, &workload, &mut FixedResolver::default())?;
//! assert_eq!(report.events_processed, 25);
//! assert_eq!(report.activations, 25);
//! // A reused batch reproduces the one-shot report.
//! let mut batch = FunctionalSimBatch::new(&net, &tasks, &cost)?;
//! assert_eq!(batch.run(&workload, &mut FixedResolver::default())?, report);
//! # Ok(())
//! # }
//! ```

use crate::{CostModel, Event, Result, RtosError, Workload};
use fcpn_codegen::{ChoiceResolver, CompiledProgram, ExecSession, Interpreter, Program};
use fcpn_petri::statespace::FiringSession;
use fcpn_petri::{CancelToken, PetriNet, PlaceId, TransitionId};

/// Which execution engine runs the synthesised tasks during
/// [`simulate_program_with`].
///
/// Both backends execute the same task IR with the same resolver protocol and produce
/// bit-for-bit identical [`SimReport`]s (pinned by tests here and by the differential
/// suite in `fcpn-codegen`); they differ only in speed. The compiled runtime is the
/// default, so [`simulate_program`] runs it; the interpreter is the oracle it is
/// pinned against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The tree-walking [`Interpreter`] — the pinned oracle.
    Interpreter,
    /// The flat-bytecode streaming runtime ([`CompiledProgram`] + [`ExecSession`]):
    /// jump-resolved code arrays over a dense counter pool, no allocation after setup.
    #[default]
    Compiled,
}

/// Per-task accounting of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskActivation {
    /// Task name.
    pub name: String,
    /// Number of times the RTOS activated the task.
    pub activations: u64,
    /// Cycles spent inside the task (including its activation overhead).
    pub cycles: u64,
}

/// Result of simulating an implementation over a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Total clock cycles charged.
    pub total_cycles: u64,
    /// Number of workload events processed.
    pub events_processed: usize,
    /// Total task activations (the count the activation overhead was paid for).
    pub activations: u64,
    /// Per-task breakdown.
    pub per_task: Vec<TaskActivation>,
    /// How many times each transition of the net fired.
    pub fire_counts: Vec<u64>,
    /// Largest number of buffered tokens (or counter values) observed at any instant.
    pub peak_buffer_tokens: u64,
}

impl SimReport {
    /// Fires of a specific transition.
    pub fn fires_of(&self, transition: TransitionId) -> u64 {
        self.fire_counts[transition.index()]
    }

    /// Average cycles per event.
    pub fn cycles_per_event(&self) -> f64 {
        if self.events_processed == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.events_processed as f64
        }
    }
}

/// Simulates the quasi-statically scheduled implementation: every workload event activates
/// the synthesised task bound to its source transition.
///
/// # Errors
///
/// * [`RtosError::EmptyWorkload`] when there are no events.
/// * [`RtosError::UnboundSource`] when an event's source has no task.
/// * [`RtosError::Execution`] when the generated code misbehaves (counter underflow).
pub fn simulate_program<R: ChoiceResolver + ?Sized>(
    program: &Program,
    net: &PetriNet,
    cost: &CostModel,
    workload: &Workload,
    resolver: &mut R,
) -> Result<SimReport> {
    simulate_program_with(
        program,
        net,
        cost,
        workload,
        resolver,
        ExecBackend::default(),
    )
}

/// Cycles charged for one task activation that fired `fired`, shared by both execution
/// backends so their reports cannot drift: the RTOS activation overhead plus each fired
/// transition's own cost plus the choice-evaluation surcharge for conflicted firings.
fn invocation_cycles(net: &PetriNet, cost: &CostModel, fired: &[TransitionId]) -> u64 {
    let mut cycles = cost.activation_overhead;
    for &t in fired {
        cycles += cost.transition_cost(t);
        if net.inputs(t).iter().any(|&(p, _)| net.is_choice_place(p)) {
            cycles += cost.choice_cost;
        }
    }
    cycles
}

/// Like [`simulate_program`], but with an explicit choice of execution engine: the
/// compiled streaming runtime (the default) or the tree-walking interpreter oracle.
/// Both produce identical reports.
///
/// # Errors
///
/// Same as [`simulate_program`].
pub fn simulate_program_with<R: ChoiceResolver + ?Sized>(
    program: &Program,
    net: &PetriNet,
    cost: &CostModel,
    workload: &Workload,
    resolver: &mut R,
    backend: ExecBackend,
) -> Result<SimReport> {
    if workload.is_empty() {
        return Err(RtosError::EmptyWorkload);
    }
    let mut per_task: Vec<TaskActivation> = program
        .tasks
        .iter()
        .map(|t| TaskActivation {
            name: t.name.clone(),
            activations: 0,
            cycles: 0,
        })
        .collect();
    let mut total_cycles = 0u64;
    let mut activations = 0u64;
    let events_processed = workload.len();

    let (fire_counts, peak_buffer_tokens) = match backend {
        ExecBackend::Interpreter => {
            let mut interpreter = Interpreter::new(program, net);
            for &Event { source, .. } in workload.events() {
                let task_index = program
                    .tasks
                    .iter()
                    .position(|t| t.source == Some(source))
                    .ok_or(RtosError::UnboundSource(source))?;
                let trace = interpreter.run_task(task_index, resolver)?;
                let cycles = invocation_cycles(net, cost, &trace.fired);
                per_task[task_index].activations += 1;
                per_task[task_index].cycles += cycles;
                activations += 1;
                total_cycles += cycles;
            }
            let peak = interpreter
                .peak_counters()
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .max(0) as u64;
            (interpreter.fire_counts().to_vec(), peak)
        }
        ExecBackend::Compiled => {
            let compiled = CompiledProgram::compile(program, net);
            let mut session = ExecSession::new(&compiled);
            for &Event { source, .. } in workload.events() {
                let task_index = compiled
                    .task_for_source(source)
                    .ok_or(RtosError::UnboundSource(source))?;
                let fired = session.run_task(task_index, resolver)?;
                // The cycle-cost accounting reads the executor's fire log exactly as it
                // reads the interpreter's trace.
                let cycles = invocation_cycles(net, cost, fired);
                per_task[task_index].activations += 1;
                per_task[task_index].cycles += cycles;
                activations += 1;
                total_cycles += cycles;
            }
            // The dense peak pool holds only counted places, but peaks are non-negative
            // on both sides, so the maxima agree with the interpreter's per-place scan.
            let peak = session
                .peaks_dense()
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .max(0) as u64;
            (session.fire_counts().to_vec(), peak)
        }
    };

    Ok(SimReport {
        total_cycles,
        events_processed,
        activations,
        per_task,
        fire_counts,
        peak_buffer_tokens,
    })
}

/// A functional task of the baseline partitioning: a named group of transitions (one of
/// the specification's modules) implemented as its own RTOS task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalTask {
    /// Module/task name.
    pub name: String,
    /// The transitions implemented by this task.
    pub transitions: Vec<TransitionId>,
}

/// Maps every transition to its owning task and verifies that every source transition —
/// the ones workload events can fire — is owned by some task.
fn task_owner_map(net: &PetriNet, tasks: &[FunctionalTask]) -> Result<Vec<usize>> {
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

/// Simulates the functional-partitioning baseline directly on the token game of the net:
/// every event fires its source transition, then enabled transitions are executed to
/// quiescence. Each time control moves to a different functional task the RTOS activation
/// overhead is paid, and every token crossing a task boundary pays the queue-transfer
/// cost.
///
/// This is the fast path: the token game runs on a
/// [`FiringSession`](fcpn_petri::statespace::FiringSession) (flat token buffer,
/// delta-row firing, bitmask enabled-set queries into a reused buffer), so the cascade
/// loop performs no per-step allocation and never scans transitions whose input places
/// are all empty. The seed marking-by-marking simulator it replaced is the
/// oracle `fcpn_bench::oracle::simulate_functional_partition_naive`;
/// `tests/firing_session.rs` and `tests/atm_case_study.rs` pin the two to identical
/// reports.
///
/// # Errors
///
/// * [`RtosError::EmptyWorkload`] when there are no events.
/// * [`RtosError::UnboundSource`] when an event's source transition belongs to no task.
pub fn simulate_functional_partition<R: ChoiceResolver + ?Sized>(
    net: &PetriNet,
    tasks: &[FunctionalTask],
    cost: &CostModel,
    workload: &Workload,
    resolver: &mut R,
) -> Result<SimReport> {
    FunctionalSimBatch::new(net, tasks, cost)?.run(workload, resolver)
}

/// A reusable functional-partition simulation: the per-transition cost tables, ownership
/// maps and the [`FiringSession`] are built **once**, and every
/// [`run`](FunctionalSimBatch::run) restores the session to the initial marking with
/// [`FiringSession::reset`] (one O(places) copy) instead of rebuilding the firing
/// tables from scratch.
///
/// This is the Monte-Carlo shape of the Table I experiment: sweeping many traffic seeds
/// re-executes the same net under different workloads, so the batch amortises the
/// session setup across the whole sweep (`--seeds N` on the `table1_qss_vs_functional`
/// benchmark drives it). A single [`simulate_functional_partition`] call is just a
/// one-run batch.
#[derive(Debug)]
pub struct FunctionalSimBatch<'a> {
    net: &'a PetriNet,
    owner: Vec<usize>,
    task_names: Vec<String>,
    /// Per-transition constants of (net, tasks, cost), hoisted out of the firing loop:
    /// the transition's own cost plus the choice-evaluation surcharge plus the
    /// queue-transfer cost of every token its outputs push across a task boundary.
    step_cost: Vec<u64>,
    /// First choice input place of each transition (`None` for unconflicted ones).
    choice_place: Vec<Option<PlaceId>>,
    is_source: Vec<bool>,
    activation_overhead: u64,
    session: FiringSession,
    /// Reused across every cascade step: `enabled_into` clears and refills it.
    enabled: Vec<TransitionId>,
    /// Reused across every conflicted firing: the enabled consumers of the choice
    /// place, in consumer order, handed to the resolver.
    candidates: Vec<TransitionId>,
    /// Per-run firing budget (see [`FunctionalSimBatch::set_step_budget`]).
    step_budget: u64,
    /// Cooperative cancellation (see [`FunctionalSimBatch::set_cancel_token`]).
    cancel: CancelToken,
}

/// Default per-run firing budget: far above any legitimate workload this repository
/// simulates (the paper's Table I run fires a few thousand transitions), yet bounded so
/// a hostile self-feeding net returns [`RtosError::StepBudgetExhausted`] instead of
/// cascading forever.
pub const DEFAULT_STEP_BUDGET: u64 = 50_000_000;

impl<'a> FunctionalSimBatch<'a> {
    /// Prepares a batch for simulating `tasks` over `net` under `cost`.
    ///
    /// # Errors
    ///
    /// [`RtosError::UnboundSource`] when a source transition belongs to no task.
    pub fn new(net: &'a PetriNet, tasks: &[FunctionalTask], cost: &CostModel) -> Result<Self> {
        let owner = task_owner_map(net, tasks)?;
        let step_cost: Vec<u64> = net
            .transitions()
            .map(|t| {
                let task = owner[t.index()];
                let mut cycles = cost.transition_cost(t);
                if net.inputs(t).iter().any(|&(p, _)| net.is_choice_place(p)) {
                    cycles += cost.choice_cost;
                }
                for &(place, produced) in net.outputs(t) {
                    let crosses = net
                        .consumers(place)
                        .iter()
                        .any(|&(consumer, _)| owner[consumer.index()] != task);
                    if crosses {
                        cycles += cost.queue_transfer_cost * produced;
                    }
                }
                cycles
            })
            .collect();
        let choice_place: Vec<Option<PlaceId>> = net
            .transitions()
            .map(|t| {
                net.inputs(t)
                    .iter()
                    .map(|&(p, _)| p)
                    .find(|&p| net.is_choice_place(p))
            })
            .collect();
        let is_source: Vec<bool> = net
            .transitions()
            .map(|t| net.is_source_transition(t))
            .collect();
        Ok(FunctionalSimBatch {
            net,
            owner,
            task_names: tasks.iter().map(|t| t.name.clone()).collect(),
            step_cost,
            choice_place,
            is_source,
            activation_overhead: cost.activation_overhead,
            session: FiringSession::new(net),
            enabled: Vec::new(),
            candidates: Vec::new(),
            step_budget: DEFAULT_STEP_BUDGET,
            cancel: CancelToken::never(),
        })
    }

    /// The per-run firing budget currently in force.
    pub fn step_budget(&self) -> u64 {
        self.step_budget
    }

    /// Bounds every subsequent [`run`](Self::run) to at most `budget` firings.
    ///
    /// A cascade on an ill-behaved net (one whose non-source transitions feed
    /// themselves faster than they consume) never reaches quiescence; the budget turns
    /// that into a typed [`RtosError::StepBudgetExhausted`] so a long-running service
    /// reusing this batch never wedges a worker or aborts. The default
    /// ([`DEFAULT_STEP_BUDGET`]) is far beyond any legitimate workload, so results on
    /// well-behaved nets are unaffected.
    pub fn set_step_budget(&mut self, budget: u64) {
        self.step_budget = budget.max(1);
    }

    /// Installs a cooperative [`CancelToken`] polled (counter-gated, every 1024
    /// firings) inside the cascade loop of every subsequent [`run`](Self::run).
    ///
    /// When the token fires — another thread cancels it, or its deadline passes — the
    /// run stops with [`RtosError::Cancelled`] within one polling stride, so a service
    /// simulating a large batch under a request deadline sheds the work mid-cascade
    /// instead of only between runs. The default token never fires and costs nothing.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Simulates one workload from the initial marking (the shared session is reset
    /// first). The report is identical to [`simulate_functional_partition`]'s for the
    /// same inputs.
    ///
    /// # Errors
    ///
    /// * [`RtosError::EmptyWorkload`] when there are no events.
    /// * [`RtosError::Execution`] when a firing fails mid-cascade.
    /// * [`RtosError::StepBudgetExhausted`] when the run fires more than the configured
    ///   [`step_budget`](Self::step_budget) — the refusal path for hostile nets whose
    ///   cascades never quiesce.
    /// * [`RtosError::Cancelled`] when the installed
    ///   [`cancel token`](Self::set_cancel_token) fires mid-run.
    pub fn run<R: ChoiceResolver + ?Sized>(
        &mut self,
        workload: &Workload,
        resolver: &mut R,
    ) -> Result<SimReport> {
        if workload.is_empty() {
            return Err(RtosError::EmptyWorkload);
        }
        let step_budget = self.step_budget;
        let cancel = self.cancel.clone();
        self.session.reset();
        let net = self.net;
        let owner = &self.owner;
        let step_cost = &self.step_cost;
        let choice_place = &self.choice_place;
        let is_source = &self.is_source;
        let activation_overhead = self.activation_overhead;
        let session = &mut self.session;
        let enabled = &mut self.enabled;
        let candidates = &mut self.candidates;
        let mut per_task: Vec<TaskActivation> = self
            .task_names
            .iter()
            .map(|name| TaskActivation {
                name: name.clone(),
                activations: 0,
                cycles: 0,
            })
            .collect();
        let mut fire_counts = vec![0u64; net.transition_count()];
        let mut total_cycles = 0u64;
        let mut activations = 0u64;
        let mut steps = 0u64;
        let mut peak_buffer_tokens = session.total_tokens();

        for &Event { source, .. } in workload.events() {
            let mut current_task: Option<usize> = None;
            let mut fire = |t: TransitionId,
                            session: &mut FiringSession,
                            current_task: &mut Option<usize>,
                            per_task: &mut Vec<TaskActivation>|
             -> Result<u64> {
                steps += 1;
                if steps > step_budget {
                    return Err(RtosError::StepBudgetExhausted { limit: step_budget });
                }
                // Counter-gated cancellation poll: one atomic load (plus a clock read
                // for deadline tokens) every 1024 firings keeps the overhead invisible
                // while bounding the cancellation latency to a fraction of a millisecond.
                if steps & 1023 == 0 && cancel.is_cancelled() {
                    return Err(RtosError::Cancelled);
                }
                let task = owner[t.index()];
                let mut cycles = 0;
                if *current_task != Some(task) {
                    cycles += activation_overhead;
                    activations += 1;
                    per_task[task].activations += 1;
                    *current_task = Some(task);
                }
                cycles += step_cost[t.index()];
                session
                    .fire(t)
                    .map_err(|e| RtosError::Execution(fcpn_codegen::CodegenError::Petri(e)))?;
                fire_counts[t.index()] += 1;
                per_task[task].cycles += cycles;
                Ok(cycles)
            };

            // The event fires its source transition, then the cascade runs to quiescence.
            total_cycles += fire(source, session, &mut current_task, &mut per_task)?;
            peak_buffer_tokens = peak_buffer_tokens.max(session.total_tokens());
            loop {
                session.enabled_into(enabled);
                enabled.retain(|&t| !is_source[t.index()]);
                if enabled.is_empty() {
                    break;
                }
                // Resolve data-dependent choices through the same resolver the QSS
                // implementation uses, so both simulations see the same data.
                let next = {
                    let choice = enabled
                        .iter()
                        .copied()
                        .find(|&t| choice_place[t.index()].is_some());
                    match choice {
                        Some(conflicted) => {
                            let place = choice_place[conflicted.index()]
                                .expect("conflicted transition has a choice input");
                            candidates.clear();
                            candidates.extend(
                                net.consumers(place)
                                    .iter()
                                    .map(|&(t, _)| t)
                                    .filter(|t| enabled.contains(t)),
                            );
                            resolver.resolve(place, candidates)
                        }
                        None => enabled[0],
                    }
                };
                total_cycles += fire(next, session, &mut current_task, &mut per_task)?;
                peak_buffer_tokens = peak_buffer_tokens.max(session.total_tokens());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcpn_codegen::{synthesize, FixedResolver, RoundRobinResolver, SynthesisOptions};
    use fcpn_petri::gallery;
    use fcpn_qss::{quasi_static_schedule, QssOptions};

    fn program_for(net: &PetriNet) -> Program {
        let schedule = quasi_static_schedule(net, &QssOptions::default())
            .unwrap()
            .schedule()
            .unwrap();
        synthesize(net, &schedule, SynthesisOptions::default()).unwrap()
    }

    #[test]
    fn qss_simulation_counts_events_and_cycles() {
        let net = gallery::figure4();
        let program = program_for(&net);
        let t1 = net.transition_by_name("t1").unwrap();
        let workload = Workload::periodic(t1, 10, 20, 0);
        let mut resolver = RoundRobinResolver::default();
        let report = simulate_program(
            &program,
            &net,
            &CostModel::default(),
            &workload,
            &mut resolver,
        )
        .unwrap();
        assert_eq!(report.events_processed, 20);
        assert_eq!(report.activations, 20);
        assert_eq!(report.fires_of(t1), 20);
        assert!(report.total_cycles >= 20 * CostModel::default().activation_overhead);
        assert!(report.cycles_per_event() > 0.0);
        assert_eq!(report.per_task.len(), 1);
        assert_eq!(report.per_task[0].activations, 20);
    }

    #[test]
    fn compiled_backend_report_is_pinned_to_the_interpreter() {
        // Same program, same workload, identically-seeded resolvers: the compiled
        // streaming runtime must reproduce the interpreter's SimReport bit for bit —
        // cycles, activations, per-task breakdown, fire counts and peaks.
        for net in [gallery::figure2(), gallery::figure4(), gallery::figure5()] {
            let program = program_for(&net);
            let cost = CostModel::default();
            let mut workload = Workload::new();
            for task in &program.tasks {
                if let Some(source) = task.source {
                    workload = workload.merge(Workload::periodic(source, 7, 60, 0));
                }
            }
            let mut interp_resolver = RoundRobinResolver::default();
            let interp = simulate_program_with(
                &program,
                &net,
                &cost,
                &workload,
                &mut interp_resolver,
                ExecBackend::Interpreter,
            )
            .unwrap();
            let mut exec_resolver = RoundRobinResolver::default();
            let compiled = simulate_program_with(
                &program,
                &net,
                &cost,
                &workload,
                &mut exec_resolver,
                ExecBackend::Compiled,
            )
            .unwrap();
            assert_eq!(interp, compiled, "{} diverged", program.name);
        }
    }

    #[test]
    fn default_backend_is_the_compiled_executor() {
        let net = gallery::figure4();
        let program = program_for(&net);
        let t1 = net.transition_by_name("t1").unwrap();
        let workload = Workload::periodic(t1, 10, 20, 0);
        let cost = CostModel::default();
        let mut r1 = RoundRobinResolver::default();
        let plain = simulate_program(&program, &net, &cost, &workload, &mut r1).unwrap();
        let mut r2 = RoundRobinResolver::default();
        let explicit = simulate_program_with(
            &program,
            &net,
            &cost,
            &workload,
            &mut r2,
            ExecBackend::default(),
        )
        .unwrap();
        assert_eq!(plain, explicit);
        assert_eq!(ExecBackend::default(), ExecBackend::Compiled);
    }

    #[test]
    fn compiled_backend_rejects_unbound_sources_like_the_interpreter() {
        let net = gallery::figure5();
        let program = program_for(&net);
        let t2 = net.transition_by_name("t2").unwrap();
        let workload = Workload::periodic(t2, 5, 3, 0);
        let mut resolver = FixedResolver::default();
        assert_eq!(
            simulate_program_with(
                &program,
                &net,
                &CostModel::default(),
                &workload,
                &mut resolver,
                ExecBackend::Compiled,
            )
            .unwrap_err(),
            RtosError::UnboundSource(t2)
        );
    }

    #[test]
    fn empty_workload_is_rejected() {
        let net = gallery::figure4();
        let program = program_for(&net);
        let mut resolver = FixedResolver::default();
        assert_eq!(
            simulate_program(
                &program,
                &net,
                &CostModel::default(),
                &Workload::new(),
                &mut resolver
            )
            .unwrap_err(),
            RtosError::EmptyWorkload
        );
    }

    #[test]
    fn unbound_event_source_is_rejected() {
        let net = gallery::figure5();
        let program = program_for(&net);
        // Build a workload firing a non-source transition (t2): no task is bound to it.
        let t2 = net.transition_by_name("t2").unwrap();
        let workload = Workload::periodic(t2, 5, 3, 0);
        let mut resolver = FixedResolver::default();
        assert_eq!(
            simulate_program(
                &program,
                &net,
                &CostModel::default(),
                &workload,
                &mut resolver
            )
            .unwrap_err(),
            RtosError::UnboundSource(t2)
        );
    }

    #[test]
    fn functional_partition_pays_more_overhead_than_qss() {
        // Figure 5 with both inputs active: QSS (2 tasks) vs a per-module partitioning
        // (each pipeline stage its own task).
        let net = gallery::figure5();
        let program = program_for(&net);
        let by_name = |n: &str| net.transition_by_name(n).unwrap();
        let t1 = by_name("t1");
        let t8 = by_name("t8");
        let workload = Workload::periodic(t1, 10, 50, 0).merge(Workload::periodic(t8, 25, 20, 3));
        let cost = CostModel::default();

        let mut qss_resolver = RoundRobinResolver::default();
        let qss = simulate_program(&program, &net, &cost, &workload, &mut qss_resolver).unwrap();

        let tasks = vec![
            FunctionalTask {
                name: "input".into(),
                transitions: vec![t1, by_name("t2"), by_name("t3")],
            },
            FunctionalTask {
                name: "branch1".into(),
                transitions: vec![by_name("t4")],
            },
            FunctionalTask {
                name: "branch2".into(),
                transitions: vec![by_name("t5"), by_name("t7")],
            },
            FunctionalTask {
                name: "output".into(),
                transitions: vec![by_name("t6")],
            },
            FunctionalTask {
                name: "tick".into(),
                transitions: vec![t8, by_name("t9")],
            },
        ];
        let mut func_resolver = RoundRobinResolver::default();
        let functional =
            simulate_functional_partition(&net, &tasks, &cost, &workload, &mut func_resolver)
                .unwrap();

        assert_eq!(functional.events_processed, qss.events_processed);
        // The shape of Table I: more tasks -> more activations -> more cycles.
        assert!(functional.activations > qss.activations);
        assert!(functional.total_cycles > qss.total_cycles);
    }

    #[test]
    fn functional_partition_requires_sources_to_be_owned() {
        let net = gallery::figure5();
        let t1 = net.transition_by_name("t1").unwrap();
        let tasks = vec![FunctionalTask {
            name: "only-t1".into(),
            transitions: vec![t1],
        }];
        let workload = Workload::periodic(t1, 10, 5, 0);
        let mut resolver = FixedResolver::default();
        let err = simulate_functional_partition(
            &net,
            &tasks,
            &CostModel::default(),
            &workload,
            &mut resolver,
        )
        .unwrap_err();
        assert!(matches!(err, RtosError::UnboundSource(_)));
    }

    #[test]
    fn batch_reuse_across_workloads_matches_fresh_runs() {
        // One FunctionalSimBatch rolled back between runs must reproduce, bit for bit,
        // what a fresh simulator produces for every workload — the contract the
        // Monte-Carlo seed sweep (`table1 --seeds N`) relies on. Run an interleaved
        // pattern so stale session state from a previous workload would be caught.
        let net = gallery::figure5();
        let t1 = net.transition_by_name("t1").unwrap();
        let t8 = net.transition_by_name("t8").unwrap();
        let cost = CostModel::default();
        let tasks = vec![FunctionalTask {
            name: "all".into(),
            transitions: net.transitions().collect(),
        }];
        let workloads = [
            Workload::periodic(t1, 10, 30, 0).merge(Workload::periodic(t8, 25, 12, 3)),
            Workload::periodic(t1, 7, 11, 2),
            Workload::periodic(t8, 5, 8, 0).merge(Workload::periodic(t1, 9, 21, 1)),
        ];
        let mut batch = FunctionalSimBatch::new(&net, &tasks, &cost).unwrap();
        for workload in workloads.iter().chain(workloads.iter().rev()) {
            let mut batch_resolver = RoundRobinResolver::default();
            let from_batch = batch.run(workload, &mut batch_resolver).unwrap();
            let mut fresh_resolver = RoundRobinResolver::default();
            let fresh =
                simulate_functional_partition(&net, &tasks, &cost, workload, &mut fresh_resolver)
                    .unwrap();
            assert_eq!(from_batch, fresh);
        }
        // Empty workloads are still rejected per run, not per batch.
        assert_eq!(
            batch
                .run(&Workload::new(), &mut FixedResolver::default())
                .unwrap_err(),
            RtosError::EmptyWorkload
        );
    }

    #[test]
    fn both_simulators_agree_on_fire_counts() {
        // With the same workload and the same (deterministic) choice policy, the QSS
        // implementation and the functional baseline perform the same computations; only
        // the overhead differs.
        let net = gallery::figure4();
        let program = program_for(&net);
        let t1 = net.transition_by_name("t1").unwrap();
        let workload = Workload::periodic(t1, 7, 30, 0);
        let cost = CostModel::default();
        let mut r1 = FixedResolver { arm: 0 };
        let qss = simulate_program(&program, &net, &cost, &workload, &mut r1).unwrap();
        let tasks = vec![FunctionalTask {
            name: "all".into(),
            transitions: net.transitions().collect(),
        }];
        let mut r2 = FixedResolver { arm: 0 };
        let func = simulate_functional_partition(&net, &tasks, &cost, &workload, &mut r2).unwrap();
        assert_eq!(qss.fire_counts, func.fire_counts);
    }

    #[test]
    fn hostile_cascade_returns_typed_budget_error_not_a_hang() {
        // A self-feeding non-source transition (consume 1, produce 2) never quiesces:
        // one event starts a cascade that would run forever. The step budget must turn
        // that into a typed error — a daemon worker can report it and move on.
        let mut b = fcpn_petri::NetBuilder::new("hostile");
        let t_src = b.transition("t_src");
        let t_loop = b.transition("t_loop");
        let p = b.place("p", 0);
        b.arc_t_p(t_src, p, 1).unwrap();
        b.arc_p_t(p, t_loop, 1).unwrap();
        b.arc_t_p(t_loop, p, 2).unwrap();
        let net = b.build().unwrap();
        let tasks = vec![FunctionalTask {
            name: "all".into(),
            transitions: net.transitions().collect(),
        }];
        let mut batch = FunctionalSimBatch::new(&net, &tasks, &CostModel::default()).unwrap();
        assert_eq!(batch.step_budget(), DEFAULT_STEP_BUDGET);
        batch.set_step_budget(1_000);
        let src = net.transition_by_name("t_src").unwrap();
        let workload = Workload::periodic(src, 1, 1, 0);
        let err = batch
            .run(&workload, &mut FixedResolver::default())
            .unwrap_err();
        assert_eq!(err, RtosError::StepBudgetExhausted { limit: 1_000 });
        // The budget error must not poison the batch: a benign run still works after a
        // reset (raise the budget back first).
        batch.set_step_budget(DEFAULT_STEP_BUDGET);
        let err_again = batch
            .run(&Workload::new(), &mut FixedResolver::default())
            .unwrap_err();
        assert_eq!(err_again, RtosError::EmptyWorkload);
    }

    #[test]
    fn cancelled_token_stops_a_hostile_cascade_mid_run() {
        // The same never-quiescing net as the budget test, but this time the run is cut
        // short by a pre-fired cancel token — the path a serve worker takes when its
        // request deadline blows mid-simulation.
        let mut b = fcpn_petri::NetBuilder::new("hostile");
        let t_src = b.transition("t_src");
        let t_loop = b.transition("t_loop");
        let p = b.place("p", 0);
        b.arc_t_p(t_src, p, 1).unwrap();
        b.arc_p_t(p, t_loop, 1).unwrap();
        b.arc_t_p(t_loop, p, 2).unwrap();
        let net = b.build().unwrap();
        let tasks = vec![FunctionalTask {
            name: "all".into(),
            transitions: net.transitions().collect(),
        }];
        let mut batch = FunctionalSimBatch::new(&net, &tasks, &CostModel::default()).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        batch.set_cancel_token(cancel);
        let src = net.transition_by_name("t_src").unwrap();
        let workload = Workload::periodic(src, 1, 1, 0);
        let err = batch
            .run(&workload, &mut FixedResolver::default())
            .unwrap_err();
        assert_eq!(err, RtosError::Cancelled);
        // A fresh never-firing token restores normal behaviour, bit for bit.
        batch.set_cancel_token(CancelToken::never());
        let net2 = gallery::figure4();
        let tasks2 = vec![FunctionalTask {
            name: "all".into(),
            transitions: net2.transitions().collect(),
        }];
        let mut armed = FunctionalSimBatch::new(&net2, &tasks2, &CostModel::default()).unwrap();
        armed.set_cancel_token(CancelToken::new());
        let mut plain = FunctionalSimBatch::new(&net2, &tasks2, &CostModel::default()).unwrap();
        let t1 = net2.transition_by_name("t1").unwrap();
        let wl = Workload::periodic(t1, 5, 20, 0);
        let a = armed.run(&wl, &mut FixedResolver::default()).unwrap();
        let b = plain.run(&wl, &mut FixedResolver::default()).unwrap();
        assert_eq!(
            a, b,
            "armed but never-firing token must not perturb the report"
        );
    }
}
