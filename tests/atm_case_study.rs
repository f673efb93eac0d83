//! Integration tests for the ATM server case study (Section 5 / Table I).
//!
//! The full paper-sized experiment is exercised by `examples/table1.rs` and the
//! `table1_qss_vs_functional` bench; the tests here keep the debug-profile run time low by
//! using the small configuration for the end-to-end paths and the paper configuration
//! only for structural checks and the Table I pin against the seed functional simulator.

use fcpn::atm::{
    boundary_places, functional_partition, generate_workload, run_table1, AtmChoicePolicy,
    AtmConfig, AtmModel, Table1Config, TrafficConfig,
};
use fcpn::codegen::{synthesize, SynthesisOptions};
use fcpn::qss::{quasi_static_schedule, QssOptions};
use fcpn::rtos::{simulate_program, CostModel};
use fcpn_bench::oracle::simulate_functional_partition_naive;

#[test]
fn paper_model_statistics_match_the_paper() {
    let model = AtmModel::build(AtmConfig::paper()).unwrap();
    let stats = model.net.stats();
    assert_eq!(
        (stats.transitions, stats.places, stats.choices),
        (49, 41, 11)
    );
    assert!(model.net.is_free_choice());
    assert_eq!(stats.source_transitions, 2);
}

#[test]
fn small_model_full_pipeline_produces_two_tasks() {
    let model = AtmModel::build(AtmConfig::small()).unwrap();
    let schedule = quasi_static_schedule(&model.net, &QssOptions::default())
        .unwrap()
        .schedule()
        .expect("atm model is schedulable");
    let program = synthesize(&model.net, &schedule, SynthesisOptions::default()).unwrap();
    assert_eq!(program.task_count(), 2);
    let names: Vec<&str> = program.tasks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, vec!["task_cell", "task_tick"]);

    // Drive the synthesised tasks with the 50-cell testbench.
    let traffic = TrafficConfig::paper();
    let workload = generate_workload(&model, &traffic, 2024);
    let mut policy = AtmChoicePolicy::new(&model, traffic, 2024);
    let report = simulate_program(
        &program,
        &model.net,
        &CostModel::default(),
        &workload,
        &mut policy,
    )
    .unwrap();
    assert_eq!(report.events_processed, workload.len());
    assert_eq!(report.fires_of(model.cell), 50);
    assert_eq!(report.fires_of(model.tick), 60);
}

#[test]
fn table1_shape_holds_for_the_small_model() {
    let model = AtmModel::build(AtmConfig::small()).unwrap();
    let table = run_table1(&model, &Table1Config::default()).unwrap();
    assert_eq!(table.qss.tasks, 2);
    assert_eq!(table.functional.tasks, 5);
    assert!(table.qss_wins());
    assert!(table.cycle_ratio() > 1.0 && table.cycle_ratio() < 4.0);
}

#[test]
fn functional_partition_matches_module_structure() {
    let model = AtmModel::build(AtmConfig::small()).unwrap();
    let tasks = functional_partition(&model);
    assert_eq!(tasks.len(), 5);
    let queues = boundary_places(&model);
    // The WFQ request merge and the discard log are inter-module queues.
    let wfq_req = model.net.place_by_name("p_wfq_req").unwrap();
    let discard_log = model.net.place_by_name("p_discard_log").unwrap();
    assert!(queues.contains(&wfq_req));
    assert!(queues.contains(&discard_log));
}

#[test]
fn fast_path_table_is_identical_to_naive_table() {
    // The acceptance bar for the firing fast path: Table I's functional report —
    // cycles, activations, per-task breakdown, fire counts, peaks — is bit-for-bit the
    // seed marking-by-marking simulator's on the same workload and policy seed.
    // Checked on both model sizes and two seeds.
    for config in [AtmConfig::small(), AtmConfig::paper()] {
        let model = AtmModel::build(config).unwrap();
        for seed in [1999, 7] {
            let table_config = Table1Config {
                seed,
                ..Table1Config::default()
            };
            let fast = run_table1(&model, &table_config).unwrap();
            let workload = generate_workload(&model, &table_config.traffic, seed);
            let mut policy = AtmChoicePolicy::new(&model, table_config.traffic, seed);
            let naive = simulate_functional_partition_naive(
                &model.net,
                &functional_partition(&model),
                &table_config.cost,
                &workload,
                &mut policy,
            )
            .unwrap();
            assert_eq!(fast.functional_report, naive);
        }
    }
}
