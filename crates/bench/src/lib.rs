//! Shared helpers for the benchmark harness, and the seed oracles.
//!
//! Every bench regenerates one table or figure of the paper; the helpers here centralise
//! the "schedule and synthesise" boilerplate so the benches only time the part the paper
//! talks about and print the rows/series being reproduced.
//!
//! [`oracle`] holds the seed implementations the production engines replaced. The root
//! equivalence suites pin each engine against its oracle, and the benches time the
//! engine against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;

use fcpn_codegen::{
    synthesize, CompiledProgram, ExecSession, Interpreter, Program, RoundRobinResolver,
    SynthesisOptions,
};
use fcpn_petri::statespace::FiringSession;
use fcpn_petri::{Marking, PetriNet};
use fcpn_qss::{quasi_static_schedule, QssOptions, ValidSchedule};

/// Computes the valid schedule of a net that is known to be schedulable.
///
/// # Panics
///
/// Panics if the net is not schedulable — benches only call this on the paper's
/// schedulable figures.
pub fn schedule_of(net: &PetriNet) -> ValidSchedule {
    quasi_static_schedule(net, &QssOptions::default())
        .expect("net is a valid free-choice input")
        .schedule()
        .expect("net is schedulable")
}

/// Schedules and synthesises a net in one step.
///
/// # Panics
///
/// Panics if the net is not schedulable.
pub fn program_of(net: &PetriNet) -> (ValidSchedule, Program) {
    program_of_with(net, &QssOptions::default())
}

/// [`program_of`] under explicit scheduler options (used by the baseline emitter to
/// measure the component cache on and off).
///
/// # Panics
///
/// Panics if the net is not schedulable.
pub fn program_of_with(net: &PetriNet, options: &QssOptions) -> (ValidSchedule, Program) {
    let schedule = quasi_static_schedule(net, options)
        .expect("net is a valid free-choice input")
        .schedule()
        .expect("net is schedulable");
    let program = synthesize(net, &schedule, SynthesisOptions::default())
        .expect("schedulable nets synthesise");
    (schedule, program)
}

/// Drives `steps` deterministic token-game steps on the seed path: owned [`Marking`],
/// checked [`PetriNet::fire`], full `enabled_transitions` rescan per step. The next
/// transition is picked by rotating over the enabled set, so the trace is reproducible
/// and identical to [`run_session_trace`]. Returns the number of firings and the final
/// marking (for cross-path equality assertions).
pub fn run_naive_trace(net: &PetriNet, steps: usize) -> (u64, Marking) {
    let mut marking = net.initial_marking().clone();
    let mut fired = 0u64;
    let mut cursor = 0usize;
    for _ in 0..steps {
        let enabled = net.enabled_transitions(&marking);
        if enabled.is_empty() {
            break;
        }
        let t = enabled[cursor % enabled.len()];
        cursor = cursor.wrapping_add(1);
        net.fire(&mut marking, t).expect("enabled transition fires");
        fired += 1;
    }
    (fired, marking)
}

/// The same deterministic trace as [`run_naive_trace`], executed on the
/// [`FiringSession`] fast path (flat `u64` token buffer, delta-row firing, bitmask
/// enabled-set queries into a reused vector). The two functions fire the exact same
/// sequence; benches time them head to head and tests assert the final markings agree.
pub fn run_session_trace(net: &PetriNet, steps: usize) -> (u64, Marking) {
    let mut session = FiringSession::new(net);
    let mut enabled = Vec::new();
    let mut fired = 0u64;
    let mut cursor = 0usize;
    for _ in 0..steps {
        session.enabled_into(&mut enabled);
        if enabled.is_empty() {
            break;
        }
        let t = enabled[cursor % enabled.len()];
        cursor = cursor.wrapping_add(1);
        session.fire(t).expect("enabled transition fires");
        fired += 1;
    }
    (fired, session.marking())
}

/// Pumps `activations` task activations (round-robin across tasks, round-robin choice
/// resolution) through the tree-walking [`Interpreter`] oracle. Returns the total number
/// of transition firings and the per-transition fire counts, so callers can assert the
/// two executor paths performed identical work before timing them.
pub fn pump_interpreter(program: &Program, net: &PetriNet, activations: usize) -> (u64, Vec<u64>) {
    let mut interp = Interpreter::new(program, net);
    let mut resolver = RoundRobinResolver::default();
    let tasks = program.task_count();
    let mut fired = 0u64;
    for i in 0..activations {
        fired += interp
            .run_task(i % tasks, &mut resolver)
            .expect("bench programs execute")
            .fired
            .len() as u64;
    }
    (fired, interp.fire_counts().to_vec())
}

/// The same event pump as [`pump_interpreter`], executed on the compiled streaming
/// runtime: single-task programs go through [`ExecSession::run_batch`] (one call per
/// pump), multi-task programs interleave [`ExecSession::run_task`] in the same
/// round-robin order as the interpreter. Firing totals and fire counts are identical to
/// [`pump_interpreter`]'s for the same inputs.
pub fn pump_compiled(compiled: &CompiledProgram, activations: usize) -> (u64, Vec<u64>) {
    let mut session = ExecSession::new(compiled);
    let mut resolver = RoundRobinResolver::default();
    let tasks = compiled.task_count();
    let fired = if tasks == 1 {
        session
            .run_batch(0, activations as u64, &mut resolver)
            .expect("bench programs execute")
            .len() as u64
    } else {
        let mut fired = 0u64;
        for i in 0..activations {
            fired += session
                .run_task(i % tasks, &mut resolver)
                .expect("bench programs execute")
                .len() as u64;
        }
        fired
    };
    (fired, session.fire_counts().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcpn_petri::gallery;

    #[test]
    fn trace_helpers_agree_across_paths() {
        for net in [
            gallery::figure2(),
            gallery::figure5(),
            gallery::marked_ring(8, 4),
            gallery::choice_chain(5),
        ] {
            let (naive_fired, naive_marking) = run_naive_trace(&net, 2_000);
            let (session_fired, session_marking) = run_session_trace(&net, 2_000);
            assert_eq!(naive_fired, session_fired);
            assert_eq!(naive_marking, session_marking);
        }
    }

    #[test]
    fn helpers_work_on_figure4() {
        let net = gallery::figure4();
        let (schedule, program) = program_of(&net);
        assert_eq!(schedule.cycle_count(), 2);
        assert_eq!(program.task_count(), 1);
    }

    #[test]
    fn pump_helpers_agree_across_executors() {
        for net in [
            gallery::figure4(),
            gallery::figure5(),
            gallery::choice_chain(6),
        ] {
            let (_, program) = program_of(&net);
            let compiled = CompiledProgram::compile(&program, &net);
            let (interp_fired, interp_counts) = pump_interpreter(&program, &net, 500);
            let (exec_fired, exec_counts) = pump_compiled(&compiled, 500);
            assert_eq!(interp_fired, exec_fired, "{}", net.name());
            assert_eq!(interp_counts, exec_counts, "{}", net.name());
            assert!(interp_fired > 0);
        }
    }
}
