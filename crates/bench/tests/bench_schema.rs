//! Guards the committed `BENCH_statespace.json` against schema rot.
//!
//! The baseline is regenerated by hand (`scaling_table --out BENCH_statespace.json`)
//! and consumed by humans and by the ROADMAP's perf narrative; a malformed or
//! out-of-date regeneration should fail CI, not sit unnoticed. This test parses the
//! committed file with the hand-rolled JSON parser and asserts the schema-v9
//! invariants: the schema tag itself, `host_cores` (the host the rows were taken on),
//! the required keys of every section, and the `executor` section's
//! headline claim (the compiled runtime beats the interpreter by ≥2× on at least one
//! net).

use fcpn_serve::json::{parse, Json};
use std::path::PathBuf;

fn baseline() -> Json {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "BENCH_statespace.json",
    ]
    .iter()
    .collect();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).expect("BENCH_statespace.json is valid JSON")
}

fn require<'a>(value: &'a Json, key: &str, context: &str) -> &'a Json {
    value
        .get(key)
        .unwrap_or_else(|| panic!("{context}: missing key `{key}`"))
}

fn require_keys(value: &Json, keys: &[&str], context: &str) {
    for key in keys {
        require(value, key, context);
    }
}

#[test]
fn baseline_declares_schema_v9_and_host_cores() {
    let baseline = baseline();
    assert_eq!(
        require(&baseline, "schema", "root").as_str(),
        Some("fcpn-bench/statespace-v9"),
        "schema tag must match what scaling_table emits"
    );
    assert!(require(&baseline, "host_cores", "root").as_u64() >= Some(1));
    assert!(require(&baseline, "samples_per_case", "root").as_u64() >= Some(1));
}

#[test]
fn executor_section_rows_are_complete_and_beat_the_interpreter() {
    let baseline = baseline();
    let rows = require(&baseline, "executor", "root")
        .as_arr()
        .expect("executor is an array");
    assert!(!rows.is_empty(), "executor section is empty");
    let mut best_speedup = 0.0f64;
    for row in rows {
        let net = require(row, "net", "executor row").as_str().unwrap();
        require_keys(
            row,
            &[
                "tasks",
                "bytecode_ops",
                "activations",
                "firings",
                "interp_best_ms",
                "compiled_best_ms",
                "speedup",
                "compiled_events_per_sec",
            ],
            &format!("executor[{net}]"),
        );
        assert!(require(row, "firings", net).as_u64() > Some(0));
        let events_per_sec = require(row, "compiled_events_per_sec", net)
            .as_f64()
            .unwrap();
        assert!(events_per_sec > 0.0, "{net}: events/sec {events_per_sec}");
        best_speedup = best_speedup.max(require(row, "speedup", net).as_f64().unwrap());
    }
    // The acceptance bar of the compiled-executor work: ≥2× sustained events/sec over
    // the interpreter on at least one bench net.
    assert!(
        best_speedup >= 2.0,
        "compiled executor best speedup {best_speedup:.2}x is below the 2x bar"
    );
}

#[test]
fn explore_section_rows_are_complete() {
    let baseline = baseline();
    let rows = require(&baseline, "explore", "root")
        .as_arr()
        .expect("explore is an array");
    assert!(!rows.is_empty(), "explore section is empty");
    for row in rows {
        let net = require(row, "net", "explore row").as_str().unwrap();
        require_keys(
            row,
            &[
                "max_markings",
                "max_tokens_per_place",
                "states",
                "edges",
                "complete",
                "naive_best_ms",
                "engine",
            ],
            &format!("explore[{net}]"),
        );
        let engine = require(row, "engine", net).as_arr().expect("engine rows");
        assert!(!engine.is_empty(), "{net}: no engine rows");
        for config in engine {
            require_keys(
                config,
                &[
                    "token_width",
                    "best_ms",
                    "speedup_vs_naive",
                    "speedup_vs_seq_u64",
                ],
                &format!("explore[{net}].engine"),
            );
        }
    }
}

#[test]
fn firing_session_table1_and_scheduler_sections_are_complete() {
    let baseline = baseline();
    let sessions = require(&baseline, "firing_session", "root")
        .as_arr()
        .expect("firing_session is an array");
    assert!(!sessions.is_empty());
    for row in sessions {
        require_keys(
            row,
            &[
                "net",
                "trace_steps",
                "firings",
                "naive_best_ms",
                "session_best_ms",
                "speedup",
            ],
            "firing_session row",
        );
    }

    let table1 = require(&baseline, "table1", "root");
    require_keys(
        table1,
        &[
            "model",
            "events",
            "qss_cycles",
            "functional_cycles",
            "cycle_ratio",
            "functional_sim",
            "run_table1",
        ],
        "table1",
    );

    let scheduler = require(&baseline, "scheduler", "root")
        .as_arr()
        .expect("scheduler is an array");
    assert!(!scheduler.is_empty());
    for row in scheduler {
        let net = require(row, "net", "scheduler row").as_str().unwrap();
        require_keys(
            row,
            &["allocations", "uncached", "cached", "layers"],
            &format!("scheduler[{net}]"),
        );
        for section in ["uncached", "cached"] {
            require_keys(
                require(row, section, net),
                &["naive_ms", "fast_ms", "speedup"],
                &format!("scheduler[{net}].{section}"),
            );
        }
    }
}

#[test]
fn synthesis_section_rows_are_complete_and_verified() {
    let baseline = baseline();
    let rows = require(&baseline, "synthesis", "root")
        .as_arr()
        .expect("synthesis is an array");
    assert!(!rows.is_empty(), "synthesis section is empty");
    for row in rows {
        let net = require(row, "net", "synthesis row").as_str().unwrap();
        require_keys(
            row,
            &[
                "states",
                "labels",
                "candidate_regions",
                "places",
                "verified",
                "best_ms",
            ],
            &format!("synthesis[{net}]"),
        );
        assert!(require(row, "states", net).as_u64() > Some(0));
        assert!(require(row, "places", net).as_u64() > Some(0));
        // The round trip must close on every bench net: an unverified row means the
        // synthesizer regressed, not that the net got harder.
        assert_eq!(require(row, "verified", net).as_bool(), Some(true), "{net}");
        let best_ms = require(row, "best_ms", net).as_f64().unwrap();
        assert!(best_ms > 0.0, "{net}: best_ms {best_ms}");
    }
}

#[test]
fn qss_scaling_section_rows_are_complete() {
    let baseline = baseline();
    let rows = require(&baseline, "qss_scaling", "root")
        .as_arr()
        .expect("qss_scaling is an array");
    assert!(!rows.is_empty());
    for row in rows {
        require_keys(
            row,
            &[
                "choices",
                "cycles",
                "ir_statements",
                "lines_of_c",
                "wall_ms",
                "wall_ms_uncached",
                "cache_speedup",
            ],
            "qss_scaling row",
        );
    }
}
