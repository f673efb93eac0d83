//! Liveness analysis over the explored state space.

use super::reachability::ReachabilityOptions;
use crate::statespace::{ExploreOptions, StateSpace};
use crate::{PetriNet, TransitionId};

/// Outcome of a liveness query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessReport {
    /// Every transition can be fired again from every reachable marking.
    Live,
    /// At least one transition can become permanently disabled; the offending transitions
    /// are listed.
    NotLive {
        /// Transitions that are not live.
        transitions: Vec<TransitionId>,
    },
    /// The exploration was truncated, so liveness could not be decided.
    Unknown,
}

impl LivenessReport {
    /// Returns `true` if the net was proven live.
    pub fn is_live(&self) -> bool {
        matches!(self, LivenessReport::Live)
    }
}

/// Checks liveness of `net`: for every reachable marking and every transition `t`, some
/// marking enabling `t` must remain reachable.
///
/// The check is exact when the reachability graph is complete within `options`; otherwise
/// [`LivenessReport::Unknown`] is returned.
pub fn check_liveness(net: &PetriNet, options: ReachabilityOptions) -> LivenessReport {
    check_liveness_with(net, &ExploreOptions::from(options))
}

/// [`check_liveness`] with explicit engine configuration (the cancellation and memory
/// guards).
pub fn check_liveness_with(net: &PetriNet, options: &ExploreOptions) -> LivenessReport {
    check_liveness_in(net, &StateSpace::explore_with(net, options))
}

/// [`check_liveness`] on an already-explored state space, so callers running several
/// analyses over the same bounds share one exploration. The verdict is the one
/// [`check_liveness_with`] would produce for the options `space` was explored with.
pub fn check_liveness_in(net: &PetriNet, space: &StateSpace) -> LivenessReport {
    if !space.is_complete() {
        return LivenessReport::Unknown;
    }
    let mut not_live = Vec::new();
    for t in net.transitions() {
        let can = space.can_eventually_fire(net, t);
        if can.iter().any(|&c| !c) {
            not_live.push(t);
        }
    }
    if not_live.is_empty() {
        LivenessReport::Live
    } else {
        LivenessReport::NotLive {
            transitions: not_live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    #[test]
    fn token_cycle_is_live() {
        let mut b = NetBuilder::new("cycle");
        let p1 = b.place("p1", 1);
        let t1 = b.transition("t1");
        let p2 = b.place("p2", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(p1, t1, 1).unwrap();
        b.arc_t_p(t1, p2, 1).unwrap();
        b.arc_p_t(p2, t2, 1).unwrap();
        b.arc_t_p(t2, p1, 1).unwrap();
        let net = b.build().unwrap();
        assert!(check_liveness(&net, ReachabilityOptions::default()).is_live());
    }

    #[test]
    fn one_shot_transition_is_not_live() {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let once = b.transition("once");
        let p1 = b.place("p1", 1);
        let spin = b.transition("spin");
        b.arc_p_t(start, once, 1).unwrap();
        b.arc_p_t(p1, spin, 1).unwrap();
        b.arc_t_p(spin, p1, 1).unwrap();
        let net = b.build().unwrap();
        match check_liveness(&net, ReachabilityOptions::default()) {
            LivenessReport::NotLive { transitions } => {
                assert_eq!(transitions, vec![once]);
            }
            other => panic!("expected not live, got {other:?}"),
        }
    }

    #[test]
    fn truncated_exploration_is_unknown() {
        let mut b = NetBuilder::new("src");
        let t = b.transition("src");
        let p = b.place("p", 0);
        b.arc_t_p(t, p, 1).unwrap();
        let net = b.build().unwrap();
        let report = check_liveness(
            &net,
            ReachabilityOptions {
                max_markings: 10,
                max_tokens_per_place: 3,
            },
        );
        assert_eq!(report, LivenessReport::Unknown);
        assert!(!report.is_live());
    }
}
