//! # fcpn-atm — the ATM server case study and the Table I harness
//!
//! The experimental section of *Synthesis of Embedded Software Using Free-Choice Petri
//! Nets* (DAC 1999) applies the full flow to an ATM server for virtual private networks:
//! message discarding (MSD) plus weighted-fair-queueing (WFQ) bandwidth control, driven
//! by an irregular `Cell` interrupt and a periodic `Tick`. This crate reconstructs that
//! model ([`AtmModel`]), generates the 50-cell testbench ([`generate_workload`]),
//! resolves the data-dependent choices with a traffic policy ([`AtmChoicePolicy`]), and
//! reruns the paper's Table I comparison ([`run_table1`]) between the quasi-statically
//! scheduled implementation (2 tasks) and a functional task partitioning (5 tasks).
//! The functional baseline's token game runs on the `fcpn_petri::statespace`
//! firing fast path; tests pin its report to the seed simulator's
//! (`fcpn_bench::oracle::simulate_functional_partition_naive`).
//!
//! ```no_run
//! use fcpn_atm::{run_table1, AtmConfig, AtmModel, Table1Config};
//!
//! # fn main() -> Result<(), fcpn_atm::AtmError> {
//! let model = AtmModel::build(AtmConfig::paper())?;
//! let table = run_table1(&model, &Table1Config::default())?;
//! println!("{table}");
//! assert!(table.qss_wins());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cells;
mod error;
mod functional;
mod model;
mod table1;

pub use cells::{generate_workload, AtmChoicePolicy, TrafficConfig};
pub use error::{AtmError, Result};
pub use functional::{boundary_places, emit_functional_c, functional_partition};
pub use model::{AtmConfig, AtmModel, Module, MODULES};
pub use table1::{run_table1, Table1, Table1Config, Table1Row};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtmModel>();
        assert_send_sync::<Table1>();
        assert_send_sync::<AtmError>();
        assert_send_sync::<AtmChoicePolicy>();
    }
}
