//! # fcpn-rtos — run-time substrate: events, costs and cycle-accurate-ish simulation
//!
//! The paper's generated tasks "are invoked at run-time by the RTOS"; this crate supplies
//! the minimal run-time the reproduction needs: timed event streams ([`Workload`]), a
//! processor [`CostModel`] (activation overhead, per-transition cost, queue transfers),
//! and two simulators — [`simulate_program`] for the quasi-statically scheduled
//! implementation and [`simulate_functional_partition`] for the per-module baseline —
//! whose outputs feed the Table I comparison in `fcpn-atm`. The functional baseline
//! plays the token game on the `fcpn_petri::statespace::FiringSession` fast path; the
//! seed marking-by-marking loop it replaced is the oracle
//! `fcpn_bench::oracle::simulate_functional_partition_naive`.
//!
//! ```
//! use fcpn_petri::gallery;
//! use fcpn_qss::{quasi_static_schedule, QssOptions};
//! use fcpn_codegen::{synthesize, RoundRobinResolver, SynthesisOptions};
//! use fcpn_rtos::{simulate_program, CostModel, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = gallery::figure4();
//! let schedule = quasi_static_schedule(&net, &QssOptions::default())?.schedule().unwrap();
//! let program = synthesize(&net, &schedule, SynthesisOptions::default())?;
//! let input = net.transition_by_name("t1").unwrap();
//! let workload = Workload::periodic(input, 100, 10, 0);
//! let mut resolver = RoundRobinResolver::default();
//! let report = simulate_program(&program, &net, &CostModel::default(), &workload, &mut resolver)?;
//! assert_eq!(report.events_processed, 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod error;
mod event;
mod sim;

pub use cost::CostModel;
pub use error::{Result, RtosError};
pub use event::{Event, Workload};
pub use sim::{
    simulate_functional_partition, simulate_program, simulate_program_with, ExecBackend,
    FunctionalSimBatch, FunctionalTask, SimReport, TaskActivation, DEFAULT_STEP_BUDGET,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workload>();
        assert_send_sync::<CostModel>();
        assert_send_sync::<SimReport>();
        assert_send_sync::<RtosError>();
    }
}
