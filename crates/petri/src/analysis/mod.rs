//! Structural and behavioural analyses of Petri nets.
//!
//! The submodules cover the properties Section 2 of the paper lists as "relevant to our
//! discussion": reachability, boundedness, deadlock-freedom, liveness, plus the
//! structural machinery quasi-static scheduling is built on — incidence matrices,
//! T-invariants/consistency, net-class classification and the Equal Conflict Relation.

mod boundedness;
mod classification;
mod conflict;
mod coverability;
mod deadlock;
mod incidence;
mod invariants;
mod liveness;
mod rational;
mod reachability;
mod siphons;

pub use boundedness::{
    check_boundedness, check_boundedness_with, is_k_bounded, is_safe, try_check_boundedness_with,
    Boundedness, BoundednessOptions,
};
pub use classification::{Classification, NetClass};
pub use conflict::ConflictAnalysis;
pub use coverability::{
    CoverabilityEdge, CoverabilityGraph, CoverabilityOptions, OmegaMarking, Tokens,
};
pub use deadlock::{find_deadlock, find_deadlock_in, find_deadlock_with, DeadlockReport};
pub use incidence::IncidenceMatrix;
pub(crate) use invariants::farkas_sparse;
pub use invariants::{
    incidence_rank, splitmix64, t_invariant_space_dimension, InvariantAnalysis, Semiflow,
};
pub use liveness::{check_liveness, check_liveness_in, check_liveness_with, LivenessReport};
pub use rational::{gcd_u64, lcm_u64, smallest_integer_vector, Rational};
pub use reachability::ReachabilityOptions;
pub use siphons::{
    is_siphon, is_trap, largest_siphon_within, maximal_trap_within, minimal_siphons, PlaceSet,
    SiphonAnalysis,
};
