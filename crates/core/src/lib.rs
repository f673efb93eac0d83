//! # fcpn-qss — quasi-static scheduling of Free-Choice Petri Nets
//!
//! This crate implements the central contribution of *Synthesis of Embedded Software
//! Using Free-Choice Petri Nets* (Sgroi, Lavagno, Watanabe, Sangiovanni-Vincentelli,
//! DAC 1999): deciding whether a Free-Choice Petri Net is **quasi-statically
//! schedulable** and, when it is, producing a **valid schedule** — one finite complete
//! cycle for every possible resolution of the data-dependent choices — from which the
//! companion crate `fcpn-codegen` synthesises C tasks.
//!
//! The algorithm follows the paper's three steps:
//!
//! 1. **T-allocations / T-reductions** ([`enumerate_allocations`], [`TReduction`]):
//!    decompose the net into conflict-free components, one per way of statically
//!    resolving the choices, using the modified Hack reduction that tolerates source and
//!    sink transitions.
//! 2. **Component schedulability** ([`check_component`], Definition 3.5): each component
//!    must be consistent, cover every input (source transition) with a T-invariant, and
//!    admit a deadlock-free simulation of that invariant.
//! 3. **Valid schedule** ([`quasi_static_schedule`], Theorem 3.1): the net is schedulable
//!    iff every component is; the valid schedule collects the component cycles.
//!
//! ```
//! use fcpn_petri::gallery;
//! use fcpn_qss::{quasi_static_schedule, QssOptions, QssOutcome};
//!
//! # fn main() -> Result<(), fcpn_qss::QssError> {
//! // Figure 3a of the paper is schedulable, figure 3b is not.
//! let good = quasi_static_schedule(&gallery::figure3a(), &QssOptions::default())?;
//! assert!(good.is_schedulable());
//! let bad = quasi_static_schedule(&gallery::figure3b(), &QssOptions::default())?;
//! assert!(matches!(bad, QssOutcome::NotSchedulable(_)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm;
mod allocation;
mod error;
mod reduction;
mod schedulability;
mod schedule;

pub use algorithm::{
    is_schedulable, quasi_static_schedule, ComponentDiagnostic, NotSchedulableReport, QssOptions,
    QssOutcome,
};
pub use allocation::{
    allocation_iter, allocation_iter_gray, enumerate_allocations, AllocationIter,
    AllocationOptions, GrayAllocationIter, TAllocation,
};
pub use error::{QssError, Result};
pub use reduction::{ReductionStep, ReductionWorkspace, TReduction};
pub use schedulability::{
    check_component, check_component_with, simulate_cycle, ComponentCache, ComponentChecker,
    ComponentFailure, ComponentVerdict,
};
pub use schedule::{FiniteCompleteCycle, ValidSchedule};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TAllocation>();
        assert_send_sync::<TReduction>();
        assert_send_sync::<ValidSchedule>();
        assert_send_sync::<QssError>();
        assert_send_sync::<QssOutcome>();
    }
}
