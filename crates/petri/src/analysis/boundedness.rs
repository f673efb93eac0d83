//! Boundedness analysis: k-boundedness over the explored state space and structural
//! unboundedness detection via a coverability (Karp–Miller style) search.

use crate::budget::Interrupt;
use crate::cancel::CancelGate;
use crate::statespace::{ExploreOptions, MarkingArena};
use crate::{PetriNet, PlaceId, TransitionId};
use std::collections::VecDeque;

/// Outcome of a boundedness query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundedness {
    /// Every reachable marking keeps every place at or below `k` tokens.
    Bounded {
        /// The smallest bound observed (the net is `k`-bounded).
        k: u64,
    },
    /// A reachable marking strictly covers one of its ancestors, so the pumping sequence
    /// can be repeated forever and the listed places grow without bound.
    Unbounded {
        /// Places whose token count can grow without bound.
        places: Vec<PlaceId>,
        /// A firing sequence from the initial marking that ends with the pumpable loop.
        witness: Vec<TransitionId>,
    },
    /// The analysis budget was exhausted before a verdict was reached.
    Unknown,
}

impl Boundedness {
    /// Returns `true` for the [`Boundedness::Bounded`] variant.
    pub fn is_bounded(&self) -> bool {
        matches!(self, Boundedness::Bounded { .. })
    }

    /// Returns `true` for the [`Boundedness::Unbounded`] variant.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, Boundedness::Unbounded { .. })
    }
}

/// Options for the coverability search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundednessOptions {
    /// Maximum number of tree nodes to expand.
    pub max_nodes: usize,
}

impl Default for BoundednessOptions {
    fn default() -> Self {
        BoundednessOptions { max_nodes: 50_000 }
    }
}

/// Returns `true` if `a` covers `b` component-wise with strict excess somewhere.
fn strictly_covers(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x >= y) && a != b
}

/// Decides boundedness of `net` from its initial marking with a coverability-style
/// breadth-first search: a marking strictly covering one of its ancestors witnesses
/// unboundedness (the classical Karp–Miller argument), while exhaustion of the finite
/// state space without such a witness proves boundedness.
///
/// The search runs on the state-space engine's primitives: discovered markings are
/// interned in a [`MarkingArena`] (the former `Vec<Marking>` membership scan was O(V)
/// per successor) and successors are generated with the allocation-free
/// [`PetriNet::fire_into`] fast path.
pub fn check_boundedness(net: &PetriNet, options: BoundednessOptions) -> Boundedness {
    check_boundedness_with(net, options, &ExploreOptions::default())
}

/// [`check_boundedness`] under the cancellation token and memory budget of `explore`.
///
/// Only `explore.cancel` and `explore.memory` are read: the verdict comes from the
/// covering search alone, so it is the same for every `threads`, `width` and `reach`
/// setting. In particular `explore.reach` caps nothing here — the search's node cap is
/// [`BoundednessOptions::max_nodes`]. A caller that already holds a *complete* state
/// space can skip the search, since `k` is then the space's largest token count.
pub fn check_boundedness_with(
    net: &PetriNet,
    options: BoundednessOptions,
    explore: &ExploreOptions,
) -> Boundedness {
    try_check_boundedness_with(net, options, explore)
        .expect("boundedness check interrupted; use try_check_boundedness_with with armed guards")
}

/// [`check_boundedness_with`] for callers that arm `explore.cancel` or
/// `explore.memory`: the covering search polls the token, charges the budget, and
/// surfaces an [`Interrupt`] instead of a verdict when either guard trips.
/// Never-firing guards make this identical to [`check_boundedness_with`].
///
/// Like [`check_boundedness_with`], it reads only `explore.cancel` and
/// `explore.memory`; `explore.reach` has no effect, and
/// [`BoundednessOptions::max_nodes`] is the node cap.
///
/// # Errors
///
/// [`Interrupt::Cancelled`] when `explore.cancel` fires, [`Interrupt::Exhausted`]
/// when `explore.memory` runs out, before a verdict is reached.
pub fn try_check_boundedness_with(
    net: &PetriNet,
    options: BoundednessOptions,
    explore: &ExploreOptions,
) -> Result<Boundedness, Interrupt> {
    let places = net.place_count();
    // Arena row (u64 words) + raw hash + amortized interner slot, plus the parent
    // pointer and firing label — the covering search's per-node footprint.
    let node_bytes = (places * 8) as u64 + 8 + 24 + 16;
    let mut meter = explore.memory.meter();
    meter.charge(node_bytes, "boundedness")?;
    let mut arena = MarkingArena::new(places);
    arena.intern(net.initial_marking().as_slice());
    // Parent pointers and firing labels, parallel to the arena's state ids.
    let mut parents: Vec<Option<u32>> = vec![None];
    let mut via: Vec<Option<TransitionId>> = vec![None];
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(0);
    let mut max_tokens = net.initial_marking().max_tokens();

    let mut current = vec![0u64; places];
    let mut scratch = vec![0u64; places];
    let mut cancel_gate = CancelGate::new(crate::statespace::CANCEL_STRIDE);

    while let Some(node) = queue.pop_front() {
        cancel_gate.check(&explore.cancel)?;
        if arena.len() > options.max_nodes {
            return Ok(Boundedness::Unknown);
        }
        current.copy_from_slice(arena.state(node));
        for t in net.transitions() {
            if !net.fire_into(&current, &mut scratch, t) {
                continue;
            }
            // Walk ancestors: a strictly covered ancestor proves unboundedness.
            let mut ancestor = Some(node);
            while let Some(a) = ancestor {
                if strictly_covers(&scratch, arena.state(a)) {
                    let pumped = arena.state(a);
                    let places = scratch
                        .iter()
                        .enumerate()
                        .filter(|&(p, &k)| k > pumped[p])
                        .map(|(p, _)| PlaceId::new(p))
                        .collect();
                    let mut witness = vec![t];
                    let mut walk = node;
                    while let (Some(parent), Some(fired)) =
                        (parents[walk as usize], via[walk as usize])
                    {
                        witness.push(fired);
                        walk = parent;
                    }
                    witness.reverse();
                    return Ok(Boundedness::Unbounded { places, witness });
                }
                ancestor = parents[a as usize];
            }
            let (id, inserted) = arena.intern(&scratch);
            if !inserted {
                continue;
            }
            meter.charge(node_bytes, "boundedness")?;
            max_tokens = max_tokens.max(scratch.iter().copied().max().unwrap_or(0));
            parents.push(Some(node));
            via.push(Some(t));
            debug_assert_eq!(parents.len(), arena.len());
            queue.push_back(id);
        }
    }
    Ok(Boundedness::Bounded { k: max_tokens })
}

/// Convenience query: is the net `k`-bounded for the given `k`?
///
/// Returns `None` if the analysis was inconclusive.
pub fn is_k_bounded(net: &PetriNet, k: u64, options: BoundednessOptions) -> Option<bool> {
    match check_boundedness(net, options) {
        Boundedness::Bounded { k: observed } => Some(observed <= k),
        Boundedness::Unbounded { .. } => Some(false),
        Boundedness::Unknown => None,
    }
}

/// Convenience query: is the net safe (1-bounded)?
///
/// Returns `None` if the analysis was inconclusive.
pub fn is_safe(net: &PetriNet, options: BoundednessOptions) -> Option<bool> {
    is_k_bounded(net, 1, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    #[test]
    fn token_conserving_cycle_is_1_bounded() {
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
        let result = check_boundedness(&net, BoundednessOptions::default());
        assert_eq!(result, Boundedness::Bounded { k: 1 });
        assert_eq!(is_safe(&net, BoundednessOptions::default()), Some(true));
        assert_eq!(
            is_k_bounded(&net, 3, BoundednessOptions::default()),
            Some(true)
        );
    }

    #[test]
    fn source_transition_makes_net_unbounded() {
        let mut b = NetBuilder::new("source");
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        b.arc_t_p(t1, p, 1).unwrap();
        let net = b.build().unwrap();
        let result = check_boundedness(&net, BoundednessOptions::default());
        match result {
            Boundedness::Unbounded { places, witness } => {
                assert_eq!(places, vec![p]);
                assert_eq!(witness, vec![t1]);
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
        assert_eq!(is_safe(&net, BoundednessOptions::default()), Some(false));
    }

    #[test]
    fn two_bounded_buffer() {
        // Producer limited by a credit place of 2 tokens: classic 2-bounded buffer.
        let mut b = NetBuilder::new("credit");
        let credit = b.place("credit", 2);
        let produce = b.transition("produce");
        let buf = b.place("buf", 0);
        let consume = b.transition("consume");
        b.arc_p_t(credit, produce, 1).unwrap();
        b.arc_t_p(produce, buf, 1).unwrap();
        b.arc_p_t(buf, consume, 1).unwrap();
        b.arc_t_p(consume, credit, 1).unwrap();
        let net = b.build().unwrap();
        assert_eq!(
            check_boundedness(&net, BoundednessOptions::default()),
            Boundedness::Bounded { k: 2 }
        );
        assert_eq!(is_safe(&net, BoundednessOptions::default()), Some(false));
        assert_eq!(
            is_k_bounded(&net, 2, BoundednessOptions::default()),
            Some(true)
        );
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let mut b = NetBuilder::new("wide");
        // A large bounded net that exceeds a tiny node budget.
        let seed = b.place("seed", 3);
        for i in 0..6 {
            let t = b.transition(format!("t{i}"));
            let p = b.place(format!("p{i}"), 0);
            b.arc_p_t(seed, t, 1).unwrap();
            b.arc_t_p(t, p, 1).unwrap();
        }
        let net = b.build().unwrap();
        let result = check_boundedness(&net, BoundednessOptions { max_nodes: 2 });
        assert_eq!(result, Boundedness::Unknown);
        assert_eq!(is_safe(&net, BoundednessOptions { max_nodes: 2 }), None);
    }

    #[test]
    fn unbounded_witness_includes_prefix() {
        // t_init must fire once before the pumping loop (t_loop) becomes active.
        let mut b = NetBuilder::new("prefix");
        let start = b.place("start", 1);
        let t_init = b.transition("t_init");
        let gate = b.place("gate", 0);
        let t_loop = b.transition("t_loop");
        let acc = b.place("acc", 0);
        b.arc_p_t(start, t_init, 1).unwrap();
        b.arc_t_p(t_init, gate, 1).unwrap();
        b.arc_p_t(gate, t_loop, 1).unwrap();
        b.arc_t_p(t_loop, gate, 1).unwrap();
        b.arc_t_p(t_loop, acc, 1).unwrap();
        let net = b.build().unwrap();
        match check_boundedness(&net, BoundednessOptions::default()) {
            Boundedness::Unbounded { places, witness } => {
                assert_eq!(places, vec![acc]);
                assert_eq!(witness, vec![t_init, t_loop]);
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }
}
