//! Errors reported by the quasi-static scheduler.

use fcpn_petri::{PetriError, PlaceId};
use std::fmt;

/// Errors produced while computing T-allocations, T-reductions or valid schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QssError {
    /// The input net is not a Free-Choice net; the offending places are listed.
    ///
    /// Quasi-static schedulability as defined in the paper is only decidable with the
    /// free-choice structure, where the outcome of a choice depends on token values and
    /// never on arrival times.
    NotFreeChoice {
        /// Places violating the free-choice condition.
        violations: Vec<PlaceId>,
    },
    /// The net has no transitions.
    Empty,
    /// The number of T-allocations exceeds the configured enumeration limit.
    ///
    /// The number of allocations is exponential in the number of choices (as the paper
    /// notes in its complexity discussion); callers can raise the limit explicitly.
    TooManyAllocations {
        /// Number of allocations that would have to be enumerated.
        required: u128,
        /// Configured limit.
        limit: u128,
    },
    /// An underlying Petri-net operation failed.
    Petri(PetriError),
    /// The sweep was abandoned because its [`CancelToken`](fcpn_petri::CancelToken)
    /// fired (explicit cancel or blown deadline) — a caller decision, not a property of
    /// the input net.
    Cancelled,
    /// The sweep was abandoned because a charge against its
    /// [`MemoryBudget`](fcpn_petri::MemoryBudget) failed — like [`QssError::Cancelled`],
    /// a caller-imposed resource decision, not a property of the input net.
    ResourceExhausted(fcpn_petri::ResourceExhausted),
}

impl fmt::Display for QssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QssError::NotFreeChoice { violations } => write!(
                f,
                "net is not free choice: {} place(s) violate the free-choice condition",
                violations.len()
            ),
            QssError::Empty => write!(f, "net has no transitions"),
            QssError::TooManyAllocations { required, limit } => write!(
                f,
                "net has {required} T-allocations, more than the configured limit of {limit}"
            ),
            QssError::Petri(e) => write!(f, "petri net error: {e}"),
            QssError::Cancelled => write!(f, "scheduling cancelled"),
            QssError::ResourceExhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QssError::Petri(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PetriError> for QssError {
    fn from(e: PetriError) -> Self {
        QssError::Petri(e)
    }
}

impl From<fcpn_petri::Cancelled> for QssError {
    fn from(_: fcpn_petri::Cancelled) -> Self {
        QssError::Cancelled
    }
}

impl From<fcpn_petri::ResourceExhausted> for QssError {
    fn from(e: fcpn_petri::ResourceExhausted) -> Self {
        QssError::ResourceExhausted(e)
    }
}

impl From<fcpn_petri::Interrupt> for QssError {
    fn from(i: fcpn_petri::Interrupt) -> Self {
        match i {
            fcpn_petri::Interrupt::Cancelled => QssError::Cancelled,
            fcpn_petri::Interrupt::Exhausted(e) => QssError::ResourceExhausted(e),
        }
    }
}

/// Result alias for the crate.
pub type Result<T, E = QssError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QssError::NotFreeChoice {
            violations: vec![PlaceId::new(0), PlaceId::new(2)],
        };
        assert!(e.to_string().contains("2 place(s)"));
        let e = QssError::TooManyAllocations {
            required: 1 << 40,
            limit: 1 << 20,
        };
        assert!(e.to_string().contains("T-allocations"));
    }

    #[test]
    fn conversions_from_lower_layers() {
        let e: QssError = PetriError::ZeroWeightArc.into();
        assert!(matches!(e, QssError::Petri(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
