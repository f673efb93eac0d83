//! `fcpn-perfbench` — one seeded workload of the repository benchmark.
//!
//! ```text
//! fcpn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --served <path>
//! ```
//!
//! Workloads: `schedule_cold`, `behaviour_cold` and `hot_mix` drive the release
//! `fcpn-served` binary at `--served` over loopback sockets; `table1_sim` runs the
//! paper's Table I experiment in-process. `--trace 0` reports the end-to-end metrics,
//! which every workload reports under the same names (for `table1_sim` an operation is
//! one Table I experiment); `--trace 1` reports every per-layer metric, 0 for a layer
//! the workload never reaches. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits non-zero
//! when any answer disagrees with the oracle. `perfbench/run.py` builds both binaries
//! and is the entry point.

mod daemon;
mod gen;
mod served;
mod table1;
mod trace;

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The per-layer metrics: `(metric, accumulator key, scale, unit)`. Span self times
/// accumulate in µs under the span name; everything else under the metric name.
const PER_LAYER: &[(&str, &str, f64, &str)] = &[
    ("serve.transport_us", "serve.transport_us", 1.0, "us"),
    ("serve.http_parse_us", "serve.http_parse", 1.0, "us"),
    ("serve.cache_get_us", "serve.cache_get", 1.0, "us"),
    ("serve.cache_insert_us", "serve.cache_insert", 1.0, "us"),
    (
        "serve.cache_hit_ratio",
        "serve.cache_hit_ratio",
        1.0,
        "ratio",
    ),
    (
        "serve.cache_evictions",
        "serve.cache_evictions",
        1.0,
        "count",
    ),
    ("serve.cache_bytes", "serve.cache_bytes", 1.0, "B"),
    ("serve.response_bytes", "serve.response_bytes", 1.0, "B"),
    ("io.parse_net_us", "io.parse_net", 1.0, "us"),
    ("io.fingerprint_us", "io.fingerprint", 1.0, "us"),
    ("lts.parse_ms", "lts.parse", 1e-3, "ms"),
    ("lts.fingerprint_us", "lts.fingerprint", 1.0, "us"),
    ("qss.schedule_ms", "qss.schedule", 1e-3, "ms"),
    ("qss.allocations", "qss.allocations", 1.0, "count"),
    ("qss.reduce_ms", "qss.reduce_ms", 1.0, "ms"),
    ("qss.check_ms", "qss.check_ms", 1.0, "ms"),
    ("qss.farkas_ms", "qss.farkas_ms", 1.0, "ms"),
    ("qss.render_ms", "qss.render", 1e-3, "ms"),
    ("codegen.ir_ms", "codegen.ir", 1e-3, "ms"),
    ("codegen.emit_ms", "codegen.emit", 1e-3, "ms"),
    (
        "codegen.ir_statements",
        "codegen.ir_statements",
        1.0,
        "count",
    ),
    ("exec.compile_us", "exec.compile", 1.0, "us"),
    (
        "exec.pump_events_per_s",
        "exec.pump_events_per_s",
        1.0,
        "1/s",
    ),
    ("statespace.explore_ms", "statespace.explore_ms", 1.0, "ms"),
    (
        "statespace.explore_par2_ms",
        "statespace.explore_par2_ms",
        1.0,
        "ms",
    ),
    ("statespace.states", "statespace.states", 1.0, "count"),
    ("statespace.edges", "statespace.edges", 1.0, "count"),
    ("analysis.deadlock_us", "analysis.deadlock", 1.0, "us"),
    ("analysis.liveness_us", "analysis.liveness", 1.0, "us"),
    (
        "analysis.boundedness_ms",
        "analysis.boundedness",
        1e-3,
        "ms",
    ),
    ("synthesis.regions_ms", "synthesis.regions_ms", 1.0, "ms"),
    ("synthesis.verify_ms", "synthesis.verify_ms", 1.0, "ms"),
    (
        "synthesis.candidate_regions",
        "synthesis.candidate_regions",
        1.0,
        "count",
    ),
    (
        "synthesis.essp_instances",
        "synthesis.essp_instances",
        1.0,
        "count",
    ),
    ("synthesis.places", "synthesis.places", 1.0, "count"),
    ("rtos.qss_sim_ms", "rtos.qss_sim", 1e-3, "ms"),
    ("rtos.functional_sim_ms", "rtos.functional_sim", 1e-3, "ms"),
    ("atm.schedule_ms", "atm.schedule", 1e-3, "ms"),
    ("atm.codegen_ms", "atm.codegen", 1e-3, "ms"),
    ("table1_per_s", "table1_per_s", 1.0, "1/s"),
    ("exec_events_per_s", "exec_events_per_s", 1.0, "1/s"),
    (
        "qss_cycles_per_event",
        "qss_cycles_per_event",
        1.0,
        "cycles",
    ),
    ("trace.handle_ms", "trace.handle_us", 1e-3, "ms"),
    ("trace.traced_ms", "trace.traced_us", 1e-3, "ms"),
];

/// Every per-layer metric, as the mean per call of its accumulator (0 when the
/// workload never reaches that layer).
pub fn per_layer_metrics(layers: &trace::Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, key, scale, unit)| Metric::new(name, layers.mean(key) * scale, unit))
        .collect()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Where the traced run writes its spans, inside the checkout.
const TRACE_DIR: &str = ".bench_out";

static TRACE_NAME: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// Writes the spans as JSON lines and returns the file path.
pub fn write_trace(tracer: &trace::Tracer) -> String {
    let path = format!(
        "{TRACE_DIR}/{}.spans.jsonl",
        TRACE_NAME.get().map_or("trace", String::as_str)
    );
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    if let Err(e) = written {
        eprintln!("cannot write {path}: {e}");
    }
    path
}

fn usage() -> ! {
    eprintln!(
        "usage: fcpn-perfbench --workload schedule_cold|behaviour_cold|hot_mix|table1_sim \
         --seed N --seconds S --trace 0|1 [--served PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10.0f64, false);
    let mut served = String::from("target/release/fcpn-served");
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => traced = value == "1",
            "--served" => served = value.clone(),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let _ = TRACE_NAME.set(format!("{workload}-seed{seed}"));
    let report = match workload.as_str() {
        "schedule_cold" => served::run(
            served::Workload::ScheduleCold,
            &served,
            seed,
            seconds,
            traced,
        ),
        "behaviour_cold" => served::run(
            served::Workload::BehaviourCold,
            &served,
            seed,
            seconds,
            traced,
        ),
        "hot_mix" => served::run(served::Workload::HotMix, &served, seed, seconds, traced),
        "table1_sim" => table1::run(seed, seconds, traced),
        _ => usage(),
    };

    for note in &report.notes {
        println!("# {note}");
    }
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        println!("# {:<30} {:>18} {}", m.name, m.value, m.unit);
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
    if !report.correct {
        std::process::exit(1);
    }
}
