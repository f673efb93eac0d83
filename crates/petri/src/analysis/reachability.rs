//! Budgets for explicit-state reachability exploration.
//!
//! Reachability is decidable for Petri nets but expensive in general, so exploration is
//! budgeted: [`ReachabilityOptions`] caps the number of distinct markings and the token
//! count per place beyond which a marking is recorded but not expanded. The explorer
//! itself is the arena-interned engine ([`StateSpace`](crate::statespace::StateSpace)),
//! which every reachability-based analysis (deadlock, liveness, boundedness, schedule
//! validation) runs on. The tests below pin how it honours these options and the graph
//! queries the analyses read.

/// Budget and cut-offs for state-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Maximum number of distinct markings to explore before declaring the result
    /// incomplete.
    pub max_markings: usize,
    /// Markings with any place above this bound are not expanded (they are recorded as
    /// frontier states). This keeps nets with source transitions explorable.
    pub max_tokens_per_place: u64,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_markings: 100_000,
            max_tokens_per_place: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statespace::StateSpace;
    use crate::{Marking, NetBuilder, PetriNet};

    fn bounded_cycle() -> PetriNet {
        // p1 -> t1 -> p2 -> t2 -> p1 with one token: two reachable markings.
        let mut b = NetBuilder::new("cycle");
        let p1 = b.place("p1", 1);
        let t1 = b.transition("t1");
        let p2 = b.place("p2", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(p1, t1, 1).unwrap();
        b.arc_t_p(t1, p2, 1).unwrap();
        b.arc_p_t(p2, t2, 1).unwrap();
        b.arc_t_p(t2, p1, 1).unwrap();
        b.build().unwrap()
    }

    /// `start -> t1 -> p -> t2`, one token: three markings, the last one dead.
    fn oneshot() -> PetriNet {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(start, t1, 1).unwrap();
        b.arc_t_p(t1, p, 1).unwrap();
        b.arc_p_t(p, t2, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn explores_bounded_cycle_completely() {
        let net = bounded_cycle();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(space.is_complete());
        assert!(space.frontier().is_empty());
        assert_eq!(space.state_count(), 2);
        assert_eq!(space.edge_count(), 2);
        assert!(space.dead_states().is_empty());
        assert_eq!(space.max_tokens_observed(), 1);
        assert!(space.contains(net.initial_marking()));
        assert_eq!(space.index_of(net.initial_marking()), Some(0));
        assert_eq!(space.marking(1), Marking::from_vec(vec![0, 1]));
    }

    #[test]
    fn lookups_reject_foreign_markings() {
        let net = bounded_cycle();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        // Right length but never reached, too short, too long.
        assert_eq!(space.index_of(&Marking::from_vec(vec![5, 5])), None);
        assert_eq!(space.index_of(&Marking::from_vec(vec![1])), None);
        assert_eq!(space.index_of_tokens(&[1, 0, 0]), None);
        assert!(!space.contains(&Marking::from_vec(vec![1, 1, 1])));
    }

    #[test]
    fn respects_marking_budget() {
        let net = bounded_cycle();
        let space = StateSpace::explore(
            &net,
            ReachabilityOptions {
                max_markings: 1,
                max_tokens_per_place: 64,
            },
        );
        assert!(!space.is_complete());
        assert_eq!(space.state_count(), 1);
        // The edge to the marking over budget is dropped, and a budget cut is not a
        // frontier: the initial state was expanded.
        assert_eq!(space.edge_count(), 0);
        assert!(space.frontier().is_empty());
    }

    #[test]
    fn source_transition_nets_hit_token_cutoff() {
        let mut b = NetBuilder::new("source");
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        b.arc_t_p(t1, p, 1).unwrap();
        let net = b.build().unwrap();
        let space = StateSpace::explore(
            &net,
            ReachabilityOptions {
                max_markings: 1000,
                max_tokens_per_place: 5,
            },
        );
        assert!(!space.is_complete());
        // The first marking above the cut-off is recorded but not expanded.
        assert_eq!(space.frontier(), &[6]);
        assert_eq!(space.out_degree(6), 0);
        assert_eq!(space.max_tokens_observed(), 6);
    }

    #[test]
    fn dead_marking_detected() {
        let net = oneshot();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(space.is_complete());
        assert_eq!(space.dead_states(), vec![2]);
        assert_eq!(space.marking(2), Marking::from_vec(vec![0, 0]));
    }

    #[test]
    fn can_eventually_fire_propagates_backwards() {
        // t2 is enabled only in the middle marking; the initial marking reaches it
        // through t1, the dead marking reaches nothing.
        let net = oneshot();
        let t2 = net.transition_by_name("t2").unwrap();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert_eq!(space.can_eventually_fire(&net, t2), vec![true, true, false]);
        // From both markings of the live cycle, t2 can eventually fire.
        let net = bounded_cycle();
        let t2 = net.transition_by_name("t2").unwrap();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert_eq!(space.can_eventually_fire(&net, t2), vec![true, true]);
    }

    #[test]
    fn successors_row_is_exact() {
        let net = crate::gallery::figure5();
        let space = StateSpace::explore(
            &net,
            ReachabilityOptions {
                max_markings: 2_000,
                max_tokens_per_place: 4,
            },
        );
        for s in 0..space.state_count() as u32 {
            let via_scan: Vec<_> = space
                .edges()
                .filter(|&(from, _, _)| from == s)
                .map(|(_, t, to)| (t, to))
                .collect();
            let via_row: Vec<_> = space.successors(s).collect();
            assert_eq!(via_scan, via_row);
            // Rows list out-edges in transition-index order, each for an enabled
            // transition (the marking budget may drop edges to undiscovered markings).
            assert!(via_row.windows(2).all(|w| w[0].0 < w[1].0));
            let enabled = net.enabled_transitions(&space.marking(s));
            assert!(via_row.iter().all(|(t, _)| enabled.contains(t)));
        }
        // Without a cut-off every expanded state has one out-edge per enabled transition.
        let net = crate::gallery::marked_ring(5, 2);
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(space.is_complete());
        for s in 0..space.state_count() as u32 {
            let row: Vec<_> = space.successors(s).map(|(t, _)| t).collect();
            assert_eq!(row, net.enabled_transitions(&space.marking(s)));
        }
    }
}
