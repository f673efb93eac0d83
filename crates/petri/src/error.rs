//! Error types for net construction, firing and analysis.

use crate::{PlaceId, TransitionId};
use std::fmt;

/// Errors reported by the Petri-net kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PetriError {
    /// A place identifier does not belong to the net being manipulated.
    UnknownPlace(PlaceId),
    /// A transition identifier does not belong to the net being manipulated.
    UnknownTransition(TransitionId),
    /// Two nodes with the same name were declared while building a net.
    DuplicateName(String),
    /// An arc was declared with weight zero, which the flow relation forbids.
    ZeroWeightArc,
    /// An arc was declared with a weight above `i64::MAX`, which the signed per-place
    /// firing effects (`post − pre`) cannot represent.
    ArcWeightTooLarge(u64),
    /// An arc between the same pair of nodes was declared twice.
    DuplicateArc(String),
    /// Attempted to fire a transition that is not enabled in the given marking.
    NotEnabled(TransitionId),
    /// A marking vector has the wrong number of places for the net.
    MarkingLengthMismatch {
        /// Number of places the net expects.
        expected: usize,
        /// Number of entries provided.
        found: usize,
    },
    /// A state-space exploration exceeded its configured budget.
    ExplorationBudgetExceeded {
        /// Number of markings explored before giving up.
        explored: usize,
    },
    /// Token counts overflowed `u64` during firing or analysis.
    TokenOverflow(PlaceId),
    /// A memory-budget charge failed during an analysis (see
    /// [`budget::ResourceExhausted`](crate::budget::ResourceExhausted)).
    ResourceExhausted {
        /// The budget's byte limit.
        limit_bytes: u64,
        /// Bytes the failing reservation asked for.
        requested_bytes: u64,
        /// The engine stage that issued the charge.
        stage: &'static str,
    },
    /// The net violates a structural precondition of the requested analysis.
    StructuralViolation(String),
    /// A textual net description could not be parsed.
    Parse {
        /// 1-based line of the offending input.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::UnknownPlace(p) => write!(f, "unknown place {p}"),
            PetriError::UnknownTransition(t) => write!(f, "unknown transition {t}"),
            PetriError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            PetriError::ZeroWeightArc => write!(f, "arc weight must be at least 1"),
            PetriError::ArcWeightTooLarge(w) => {
                write!(f, "arc weight {w} exceeds the maximum {}", i64::MAX)
            }
            PetriError::DuplicateArc(a) => write!(f, "duplicate arc {a}"),
            PetriError::NotEnabled(t) => write!(f, "transition {t} is not enabled"),
            PetriError::MarkingLengthMismatch { expected, found } => write!(
                f,
                "marking has {found} entries but the net has {expected} places"
            ),
            PetriError::ExplorationBudgetExceeded { explored } => write!(
                f,
                "state-space exploration budget exceeded after {explored} markings"
            ),
            PetriError::TokenOverflow(p) => write!(f, "token count overflow in place {p}"),
            PetriError::ResourceExhausted {
                limit_bytes,
                requested_bytes,
                stage,
            } => crate::budget::ResourceExhausted {
                limit_bytes: *limit_bytes,
                requested_bytes: *requested_bytes,
                stage,
            }
            .fmt(f),
            PetriError::StructuralViolation(msg) => write!(f, "structural violation: {msg}"),
            PetriError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for PetriError {}

impl From<crate::budget::ResourceExhausted> for PetriError {
    fn from(e: crate::budget::ResourceExhausted) -> Self {
        PetriError::ResourceExhausted {
            limit_bytes: e.limit_bytes,
            requested_bytes: e.requested_bytes,
            stage: e.stage,
        }
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T, E = PetriError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = PetriError::UnknownPlace(PlaceId::new(3));
        assert_eq!(e.to_string(), "unknown place p3");
        let e = PetriError::NotEnabled(TransitionId::new(1));
        assert_eq!(e.to_string(), "transition t1 is not enabled");
        let e = PetriError::MarkingLengthMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("4 places"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PetriError>();
    }
}
