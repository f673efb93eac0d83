//! The Table I harness: QSS versus functional task partitioning on the ATM server.
//!
//! The paper's Table I reports, for a testbench of 50 ATM cells:
//!
//! | Sw implementation | QSS      | Functional task partitioning |
//! |-------------------|----------|------------------------------|
//! | Number of tasks   | 2        | 5                            |
//! | Lines of C code   | 1664     | 2187                         |
//! | Clock cycles      | 197 526  | 249 726                      |
//!
//! The absolute numbers depend on the authors' processor and hand-written module code; the
//! harness reproduces the *shape*: the QSS implementation has fewer tasks, less code and
//! fewer cycles because it pays task-activation overhead once per input event instead of
//! once per module crossing.

use crate::{
    emit_functional_c, functional_partition, generate_workload, AtmChoicePolicy, AtmError,
    AtmModel, Result, TrafficConfig,
};
use fcpn_codegen::{emit_c, synthesize, CEmitOptions, CodeMetrics, SynthesisOptions};
use fcpn_qss::{quasi_static_schedule, QssOptions, QssOutcome};
use fcpn_rtos::{simulate_functional_partition, simulate_program, CostModel, SimReport};
use std::fmt;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Implementation name ("QSS" or "Functional task partitioning").
    pub implementation: String,
    /// Number of RTOS tasks.
    pub tasks: usize,
    /// Non-blank lines of the generated C code.
    pub lines_of_c: usize,
    /// Clock cycles to process the whole testbench on the simulated processor.
    pub clock_cycles: u64,
    /// Number of task activations paid for (not in the paper's table, but the mechanism
    /// behind the cycle difference).
    pub activations: u64,
}

/// The full Table I reproduction, plus the raw simulation reports.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The QSS implementation row.
    pub qss: Table1Row,
    /// The functional-partitioning baseline row.
    pub functional: Table1Row,
    /// Number of finite complete cycles in the valid schedule (the paper reports 120 for
    /// its hand-built model).
    pub schedule_cycles: usize,
    /// Raw simulation report of the QSS run.
    pub qss_report: SimReport,
    /// Raw simulation report of the functional run.
    pub functional_report: SimReport,
}

impl Table1 {
    /// Returns `true` if the reproduction has the same shape as the paper's table: QSS
    /// wins on all three reported metrics.
    pub fn qss_wins(&self) -> bool {
        self.qss.tasks < self.functional.tasks
            && self.qss.lines_of_c < self.functional.lines_of_c
            && self.qss.clock_cycles < self.functional.clock_cycles
    }

    /// Cycle-count ratio (functional / QSS); the paper's is ≈ 1.26.
    pub fn cycle_ratio(&self) -> f64 {
        self.functional.clock_cycles as f64 / self.qss.clock_cycles.max(1) as f64
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>10} {:>30}",
            "Sw implementation", "QSS", "Functional task partitioning"
        )?;
        writeln!(
            f,
            "{:<22} {:>10} {:>30}",
            "Number of tasks", self.qss.tasks, self.functional.tasks
        )?;
        writeln!(
            f,
            "{:<22} {:>10} {:>30}",
            "Lines of C code", self.qss.lines_of_c, self.functional.lines_of_c
        )?;
        writeln!(
            f,
            "{:<22} {:>10} {:>30}",
            "Clock cycles", self.qss.clock_cycles, self.functional.clock_cycles
        )
    }
}

/// Experiment parameters for the Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Config {
    /// Traffic statistics (defaults to the paper's 50-cell testbench).
    pub traffic: TrafficConfig,
    /// Processor cost model.
    pub cost: CostModel,
    /// Random seed for workload generation and data-dependent choices.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            traffic: TrafficConfig::paper(),
            cost: CostModel::default(),
            seed: 1999,
        }
    }
}

/// Runs the complete Table I experiment on `model`.
///
/// The functional-baseline token game runs on the
/// [`FiringSession`](fcpn_petri::statespace::FiringSession) fast path
/// ([`simulate_functional_partition`]). `tests/atm_case_study.rs` pins its report to the
/// seed simulator's on the same workload and policy seed, so the fast path never changes
/// what Table I reports — only how fast it is produced (`table1` in
/// `BENCH_statespace.json` records the measured speedup).
///
/// # Errors
///
/// Returns [`AtmError::NotSchedulable`] if the model rejects quasi-static scheduling
/// (which would indicate a modelling regression), and propagates synthesis or simulation
/// failures.
pub fn run_table1(model: &AtmModel, config: &Table1Config) -> Result<Table1> {
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
    let functional_report = simulate_functional_partition(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtmConfig;

    #[test]
    fn table1_shape_matches_paper_on_small_model() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let table = run_table1(&model, &Table1Config::default()).unwrap();
        // Two independent-rate inputs -> two QSS tasks; five modules -> five baseline
        // tasks, exactly the paper's task counts.
        assert_eq!(table.qss.tasks, 2);
        assert_eq!(table.functional.tasks, 5);
        assert!(table.qss_wins(), "expected QSS to win: {table}");
        assert!(table.cycle_ratio() > 1.0);
        assert!(table.schedule_cycles >= 2);
        // Both implementations processed the same number of events.
        assert_eq!(
            table.qss_report.events_processed,
            table.functional_report.events_processed
        );
    }

    #[test]
    fn table1_display_has_paper_rows() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let table = run_table1(&model, &Table1Config::default()).unwrap();
        let text = table.to_string();
        assert!(text.contains("Number of tasks"));
        assert!(text.contains("Lines of C code"));
        assert!(text.contains("Clock cycles"));
    }

    #[test]
    fn different_seeds_change_cycles_but_not_shape() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let a = run_table1(
            &model,
            &Table1Config {
                seed: 1,
                ..Table1Config::default()
            },
        )
        .unwrap();
        let b = run_table1(
            &model,
            &Table1Config {
                seed: 2,
                ..Table1Config::default()
            },
        )
        .unwrap();
        assert!(a.qss_wins());
        assert!(b.qss_wins());
        assert_eq!(a.qss.tasks, b.qss.tasks);
        assert_eq!(a.qss.lines_of_c, b.qss.lines_of_c);
    }
}
