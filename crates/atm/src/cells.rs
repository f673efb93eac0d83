//! ATM cell workloads and the data-driven choice policy.
//!
//! The paper's testbench is a stream of 50 ATM cells entering the server at irregular
//! times while the periodic `Tick` drives cell emission. The generator here produces the
//! same kind of stimulus from a seeded random-number generator, and
//! [`AtmChoicePolicy`] plays the role of the cell data: it resolves every free choice of
//! the model (congestion, message boundaries, destination queue, buffer occupancy, WFQ
//! mode) with configurable probabilities, so that both the QSS implementation and the
//! functional baseline process statistically identical traffic.
//!
//! Determinism is what makes the Table I fast path checkable: the workload and the
//! policy are pure functions of their seed, so [`run_table1`](crate::run_table1)'s
//! session-backed functional simulation and the seed simulator
//! (`fcpn_bench::oracle::simulate_functional_partition_naive`) can be replayed on
//! *identical* stimulus and pinned to identical reports (`tests/atm_case_study.rs`).

use crate::AtmModel;
use fcpn_codegen::ChoiceResolver;
use fcpn_petri::{PlaceId, TransitionId};
use fcpn_rtos::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the generated traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of ATM cells in the testbench (the paper uses 50).
    pub cells: usize,
    /// Mean inter-arrival time of cells, in ticks of the output port.
    pub mean_cell_gap: u64,
    /// Number of periodic tick events to generate.
    pub ticks: usize,
    /// Tick period (abstract time units).
    pub tick_period: u64,
    /// Probability that the node is congested when a cell arrives.
    pub congestion_probability: f64,
    /// Probability that an emitted/discarded cell terminates its message.
    pub end_of_message_probability: f64,
    /// Probability that the buffer is empty when a tick fires.
    pub buffer_empty_probability: f64,
    /// Probability that a queue is above its discard threshold.
    pub above_threshold_probability: f64,
    /// Probability that the WFQ update needs the full (slow) recomputation.
    pub wfq_full_probability: f64,
}

impl TrafficConfig {
    /// The paper's testbench: 50 cells, with ticks covering the same time span.
    pub fn paper() -> Self {
        TrafficConfig {
            cells: 50,
            mean_cell_gap: 7,
            ticks: 60,
            tick_period: 6,
            congestion_probability: 0.15,
            end_of_message_probability: 0.25,
            buffer_empty_probability: 0.2,
            above_threshold_probability: 0.1,
            wfq_full_probability: 0.3,
        }
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig::paper()
    }
}

/// Generates the merged Cell + Tick workload for `model`.
pub fn generate_workload(model: &AtmModel, config: &TrafficConfig, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaps: Vec<u64> = (0..config.cells)
        .map(|_| 1 + rng.gen_range(0..=config.mean_cell_gap.max(1) * 2))
        .collect();
    let cells = Workload::irregular(model.cell, gaps, config.cells, 0);
    let ticks = Workload::periodic(model.tick, config.tick_period.max(1), config.ticks, 1);
    cells.merge(ticks)
}

/// Resolves the model's data-dependent choices according to the traffic statistics.
///
/// The same policy type (seeded identically) is used for the QSS implementation and for
/// the functional-partitioning baseline so both process equivalent data.
#[derive(Debug, Clone)]
pub struct AtmChoicePolicy {
    rng: StdRng,
    config: TrafficConfig,
    queue_cursor: usize,
    choice_names: Vec<(PlaceId, &'static str)>,
}

impl AtmChoicePolicy {
    /// Creates a policy for `model` with the given traffic statistics and seed.
    pub fn new(model: &AtmModel, config: TrafficConfig, seed: u64) -> Self {
        AtmChoicePolicy {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_cafe),
            config,
            queue_cursor: 0,
            choice_names: model.choices.clone(),
        }
    }

    fn kind_of(&self, place: PlaceId) -> &'static str {
        self.choice_names
            .iter()
            .find(|&&(p, _)| p == place)
            .map(|&(_, name)| name)
            .unwrap_or("unknown")
    }

    fn pick_with_probability(
        &mut self,
        candidates: &[TransitionId],
        first_probability: f64,
    ) -> TransitionId {
        // By construction the "affirmative" transition was added first.
        if self.rng.gen_bool(first_probability.clamp(0.0, 1.0)) {
            candidates[0]
        } else {
            candidates[candidates.len() - 1]
        }
    }
}

impl ChoiceResolver for AtmChoicePolicy {
    fn resolve(&mut self, place: PlaceId, candidates: &[TransitionId]) -> TransitionId {
        if candidates.len() == 1 {
            return candidates[0];
        }
        match self.kind_of(place) {
            "node congested?" => {
                // First candidate is `not_congested`.
                self.pick_with_probability(candidates, 1.0 - self.config.congestion_probability)
            }
            "start of message?" => {
                self.pick_with_probability(candidates, self.config.end_of_message_probability)
            }
            "destination VPN queue" | "which VPN queue emits next" => {
                // Round-robin over the queues keeps traffic balanced and deterministic.
                let pick = candidates[self.queue_cursor % candidates.len()];
                self.queue_cursor += 1;
                pick
            }
            "queue occupancy below threshold?" => self
                .pick_with_probability(candidates, 1.0 - self.config.above_threshold_probability),
            "incremental or full recomputation?" => {
                self.pick_with_probability(candidates, 1.0 - self.config.wfq_full_probability)
            }
            "buffer empty?" => {
                self.pick_with_probability(candidates, self.config.buffer_empty_probability)
            }
            "last cell of the message?" => {
                self.pick_with_probability(candidates, self.config.end_of_message_probability)
            }
            _ => candidates[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtmConfig;

    #[test]
    fn workload_contains_cells_and_ticks() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let config = TrafficConfig::paper();
        let w = generate_workload(&model, &config, 42);
        assert_eq!(w.count_for(model.cell), 50);
        assert_eq!(w.count_for(model.tick), 60);
        assert_eq!(w.len(), 110);
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let config = TrafficConfig::paper();
        let a = generate_workload(&model, &config, 7);
        let b = generate_workload(&model, &config, 7);
        let c = generate_workload(&model, &config, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn policy_resolves_every_model_choice() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let mut policy = AtmChoicePolicy::new(&model, TrafficConfig::paper(), 1);
        for &(place, _) in &model.choices {
            let candidates: Vec<TransitionId> =
                model.net.consumers(place).iter().map(|&(t, _)| t).collect();
            let chosen = policy.resolve(place, &candidates);
            assert!(candidates.contains(&chosen));
        }
    }

    #[test]
    fn queue_choices_round_robin() {
        let model = AtmModel::build(AtmConfig::small()).unwrap();
        let mut policy = AtmChoicePolicy::new(&model, TrafficConfig::paper(), 1);
        let classify = model
            .choices
            .iter()
            .find(|&&(_, name)| name == "destination VPN queue")
            .map(|&(p, _)| p)
            .unwrap();
        let candidates: Vec<TransitionId> = model
            .net
            .consumers(classify)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        let first = policy.resolve(classify, &candidates);
        let second = policy.resolve(classify, &candidates);
        assert_ne!(first, second);
    }
}
