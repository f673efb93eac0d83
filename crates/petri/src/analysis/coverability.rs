//! The Karp–Miller coverability graph: a finite abstraction of the (possibly infinite)
//! reachability set in which unbounded places are represented by the symbolic value ω.
//!
//! The quasi-static scheduler decides boundedness structurally (through consistency of
//! the T-reductions); the coverability graph is the complementary behavioural tool: it
//! terminates on *every* net, identifies exactly which places can grow without bound, and
//! supports coverability queries ("can a marking with at least k tokens in p be
//! reached?") that are useful when diagnosing a specification the scheduler rejected.

use crate::budget::{Interrupt, MemoryBudget};
use crate::cancel::{CancelGate, CancelToken};
use crate::statespace::SliceTable;
use crate::{Marking, PetriNet, PlaceId, TransitionId};
use std::collections::VecDeque;
use std::fmt;

/// The `u64` code of the symbolic ω value in the interned node encoding.
///
/// A finite count can never legitimately reach this value in practice: token counts that
/// large would have overflowed the token game long before, and the Karp–Miller
/// acceleration turns any strictly growing place into ω well below it. Should a
/// pathological input produce one anyway, [`OmegaMarking::encode_into`] reports the
/// ambiguity and the build double-checks interner hits against the actual nodes.
const OMEGA_CODE: u64 = u64::MAX;

/// A token count that may be the symbolic value ω (arbitrarily many).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tokens {
    /// A concrete number of tokens.
    Finite(u64),
    /// Arbitrarily many tokens (the place is pumpable on this path).
    Omega,
}

impl Tokens {
    /// Returns `true` for the ω value.
    pub fn is_omega(&self) -> bool {
        matches!(self, Tokens::Omega)
    }

    fn at_least(&self, needed: u64) -> bool {
        match self {
            Tokens::Finite(k) => *k >= needed,
            Tokens::Omega => true,
        }
    }

    fn checked_add(&self, delta: u64) -> Tokens {
        match self {
            Tokens::Finite(k) => Tokens::Finite(k + delta),
            Tokens::Omega => Tokens::Omega,
        }
    }

    fn checked_sub(&self, delta: u64) -> Tokens {
        match self {
            Tokens::Finite(k) => Tokens::Finite(k.saturating_sub(delta)),
            Tokens::Omega => Tokens::Omega,
        }
    }
}

impl fmt::Display for Tokens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tokens::Finite(k) => write!(f, "{k}"),
            Tokens::Omega => write!(f, "ω"),
        }
    }
}

/// An ω-marking: one [`Tokens`] value per place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OmegaMarking {
    tokens: Vec<Tokens>,
}

impl OmegaMarking {
    /// Lifts a concrete marking to an ω-marking.
    pub fn from_marking(marking: &Marking) -> Self {
        OmegaMarking {
            tokens: marking
                .as_slice()
                .iter()
                .map(|&k| Tokens::Finite(k))
                .collect(),
        }
    }

    /// The value of `place`.
    pub fn tokens(&self, place: PlaceId) -> Tokens {
        self.tokens[place.index()]
    }

    /// Places carrying the ω value.
    pub fn omega_places(&self) -> Vec<PlaceId> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_omega())
            .map(|(i, _)| PlaceId::new(i))
            .collect()
    }

    /// Component-wise ≥ (with ω above every finite value).
    pub fn covers(&self, other: &OmegaMarking) -> bool {
        self.tokens
            .iter()
            .zip(other.tokens.iter())
            .all(|(a, b)| match (a, b) {
                (Tokens::Omega, _) => true,
                (Tokens::Finite(_), Tokens::Omega) => false,
                (Tokens::Finite(x), Tokens::Finite(y)) => x >= y,
            })
    }

    fn is_enabled(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.inputs(t)
            .iter()
            .all(|&(p, w)| self.tokens[p.index()].at_least(w))
    }

    fn fire(&self, net: &PetriNet, t: TransitionId) -> OmegaMarking {
        let mut next = self.clone();
        for &(p, w) in net.inputs(t) {
            next.tokens[p.index()] = next.tokens[p.index()].checked_sub(w);
        }
        for &(p, w) in net.outputs(t) {
            next.tokens[p.index()] = next.tokens[p.index()].checked_add(w);
        }
        next
    }

    /// Appends the node's `u64` encoding (ω as [`OMEGA_CODE`]) to a flat arena, for the
    /// hash-of-slice interner. Returns `true` when a *finite* count collided with the ω
    /// code, i.e. the encoding is ambiguous and interner hits need re-verification.
    fn encode_into(&self, arena: &mut Vec<u64>) -> bool {
        let mut ambiguous = false;
        arena.extend(self.tokens.iter().map(|t| match t {
            Tokens::Finite(k) => {
                ambiguous |= *k == OMEGA_CODE;
                *k
            }
            Tokens::Omega => OMEGA_CODE,
        }));
        ambiguous
    }

    /// Accelerates `self` with respect to an ancestor it strictly covers: places where it
    /// is strictly larger become ω (the Karp–Miller acceleration).
    fn accelerate(&mut self, ancestor: &OmegaMarking) {
        for (mine, theirs) in self.tokens.iter_mut().zip(ancestor.tokens.iter()) {
            if let (Tokens::Finite(a), Tokens::Finite(b)) = (&mine, theirs) {
                if *a > *b {
                    *mine = Tokens::Omega;
                }
            }
        }
    }
}

impl fmt::Display for OmegaMarking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// An edge of the coverability graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverabilityEdge {
    /// Index of the source node.
    pub from: usize,
    /// Transition fired.
    pub transition: TransitionId,
    /// Index of the target node.
    pub to: usize,
}

/// The Karp–Miller coverability graph of a marked net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverabilityGraph {
    /// Discovered ω-markings; index 0 is the (lifted) initial marking.
    pub nodes: Vec<OmegaMarking>,
    /// Edges between nodes.
    pub edges: Vec<CoverabilityEdge>,
    /// Whether construction stayed within the node budget (it terminates in theory, but a
    /// guard is kept for pathological inputs).
    pub complete: bool,
}

/// Options for coverability-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverabilityOptions {
    /// Maximum number of nodes to construct.
    pub max_nodes: usize,
}

impl Default for CoverabilityOptions {
    fn default() -> Self {
        CoverabilityOptions { max_nodes: 50_000 }
    }
}

impl CoverabilityGraph {
    /// Builds the coverability graph of `net` from its initial marking.
    ///
    /// Node identity is resolved through the state-space engine's hash-of-slice interner
    /// (ω encoded as a sentinel word): each successor costs one hash and, on a hit, one
    /// slice comparison, instead of the former `nodes.iter().position(..)` scan that made
    /// construction O(V) *per successor* — O(V·E) overall. The discovery order, and hence
    /// the node numbering and edge list, are identical to the linear-scan build's
    /// (`fcpn_bench::oracle::build_coverability_naive`, pinned in `tests/analysis.rs`).
    pub fn build(net: &PetriNet, options: CoverabilityOptions) -> Self {
        Self::try_build(
            net,
            options,
            &CancelToken::never(),
            &MemoryBudget::unlimited(),
        )
        .expect("never-firing guards cannot interrupt")
    }

    /// [`CoverabilityGraph::build`] for callers that arm a [`CancelToken`] or a
    /// [`MemoryBudget`]: the Karp–Miller loop polls the token on the explorers' stride
    /// and charges every admitted node and edge against the budget. Never-firing
    /// guards leave the graph bit-for-bit identical to [`CoverabilityGraph::build`]'s.
    ///
    /// # Errors
    ///
    /// [`Interrupt::Cancelled`] when `cancel` fires, [`Interrupt::Exhausted`] when a
    /// charge against `memory` fails; the partial graph is discarded either way — a
    /// budget violation is an error, never a silently `complete = false` graph.
    pub fn try_build(
        net: &PetriNet,
        options: CoverabilityOptions,
        cancel: &CancelToken,
        memory: &MemoryBudget,
    ) -> Result<Self, Interrupt> {
        let places = net.place_count();
        let mut cancel_gate = CancelGate::new(crate::statespace::CANCEL_STRIDE);
        // Encoded row + ω-marking tokens + amortized interner slot + parent/queue links.
        let node_bytes = (places * 24) as u64 + 40;
        let edge_bytes = 24u64;
        let mut meter = memory.meter();
        meter.charge(node_bytes, "coverability")?;
        let mut nodes = vec![OmegaMarking::from_marking(net.initial_marking())];
        let mut encoded: Vec<u64> = Vec::with_capacity(places * 64);
        // Once any node encodes a *finite* u64::MAX (pathological, but expressible),
        // encodings stop being injective and every interner hit is re-verified against
        // the actual nodes; a mismatch falls back to the exact linear scan.
        let mut ambiguous = nodes[0].encode_into(&mut encoded);
        let mut table = SliceTable::with_capacity(64);
        let mut scratch: Vec<u64> = Vec::with_capacity(places);
        table.insert_unique(crate::statespace::hash_tokens(&encoded[..places]), 0);
        let mut parents: Vec<Option<usize>> = vec![None];
        let mut edges = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::from([0usize]);
        let mut complete = true;

        while let Some(current) = queue.pop_front() {
            for t in net.transitions() {
                cancel_gate.check(cancel)?;
                if !nodes[current].is_enabled(net, t) {
                    continue;
                }
                let mut next = nodes[current].fire(net, t);
                // Accelerate against every ancestor on the path that the successor covers.
                let mut ancestor = Some(current);
                while let Some(a) = ancestor {
                    if next.covers(&nodes[a]) && next != nodes[a] {
                        next.accelerate(&nodes[a]);
                    }
                    ancestor = parents[a];
                }
                scratch.clear();
                ambiguous |= next.encode_into(&mut scratch);
                let found = table
                    .find(&scratch, |id| {
                        let start = id as usize * places;
                        &encoded[start..start + places]
                    })
                    .map(|id| id as usize)
                    .filter(|&id| !ambiguous || nodes[id] == next)
                    .or_else(|| {
                        if ambiguous {
                            nodes.iter().position(|n| n == &next)
                        } else {
                            None
                        }
                    });
                let target = match found {
                    Some(existing) => existing,
                    None => {
                        if nodes.len() >= options.max_nodes {
                            complete = false;
                            continue;
                        }
                        meter.charge(node_bytes, "coverability")?;
                        let id = nodes.len();
                        encoded.extend_from_slice(&scratch);
                        table.insert_unique(crate::statespace::hash_tokens(&scratch), id as u32);
                        nodes.push(next);
                        parents.push(Some(current));
                        queue.push_back(id);
                        id
                    }
                };
                meter.charge(edge_bytes, "coverability")?;
                edges.push(CoverabilityEdge {
                    from: current,
                    transition: t,
                    to: target,
                });
            }
        }
        Ok(CoverabilityGraph {
            nodes,
            edges,
            complete,
        })
    }

    /// Places that can accumulate tokens without bound (carry ω in some node).
    pub fn unbounded_places(&self) -> Vec<PlaceId> {
        let mut places: Vec<PlaceId> = self
            .nodes
            .iter()
            .flat_map(OmegaMarking::omega_places)
            .collect();
        places.sort();
        places.dedup();
        places
    }

    /// Returns `true` if every place stays bounded (no ω anywhere).
    pub fn is_bounded(&self) -> bool {
        self.unbounded_places().is_empty()
    }

    /// Coverability query: can a marking with at least `needed` tokens in `place` be
    /// covered?
    pub fn can_cover(&self, place: PlaceId, needed: u64) -> bool {
        self.nodes.iter().any(|n| n.tokens(place).at_least(needed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gallery, NetBuilder};

    #[test]
    fn bounded_cycle_has_no_omega() {
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
        let graph = CoverabilityGraph::build(&net, CoverabilityOptions::default());
        assert!(graph.complete);
        assert!(graph.is_bounded());
        assert_eq!(graph.nodes.len(), 2);
        assert!(graph.can_cover(p1, 1));
        assert!(!graph.can_cover(p1, 2));
    }

    #[test]
    fn source_transition_net_gets_omega() {
        let mut b = NetBuilder::new("source");
        let t = b.transition("src");
        let p = b.place("p", 0);
        b.arc_t_p(t, p, 1).unwrap();
        let net = b.build().unwrap();
        let graph = CoverabilityGraph::build(&net, CoverabilityOptions::default());
        assert!(graph.complete);
        assert!(!graph.is_bounded());
        assert_eq!(graph.unbounded_places(), vec![p]);
        // ω covers any demand.
        assert!(graph.can_cover(p, 1_000_000));
        // The graph stays tiny thanks to the acceleration.
        assert!(graph.nodes.len() <= 3);
    }

    #[test]
    fn figure3b_adversarial_branch_is_visible_as_omega() {
        // The full figure 3b net is unbounded when the environment keeps choosing the same
        // branch; the coverability graph sees that as ω on p2 and p3.
        let net = gallery::figure3b();
        let graph = CoverabilityGraph::build(&net, CoverabilityOptions::default());
        assert!(graph.complete);
        let p2 = net.place_by_name("p2").unwrap();
        let p3 = net.place_by_name("p3").unwrap();
        let unbounded = graph.unbounded_places();
        assert!(unbounded.contains(&p2));
        assert!(unbounded.contains(&p3));
    }

    #[test]
    fn omega_display_and_covering() {
        let a = OmegaMarking {
            tokens: vec![Tokens::Finite(2), Tokens::Omega],
        };
        let b = OmegaMarking {
            tokens: vec![Tokens::Finite(1), Tokens::Finite(5)],
        };
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert_eq!(a.to_string(), "(2, ω)");
        assert_eq!(a.omega_places(), vec![PlaceId::new(1)]);
    }

    #[test]
    fn node_budget_marks_incomplete() {
        let net = gallery::figure5();
        let graph = CoverabilityGraph::build(&net, CoverabilityOptions { max_nodes: 2 });
        assert!(!graph.complete);
        assert!(graph.nodes.len() <= 2);
    }

    #[test]
    fn armed_but_unreached_guards_are_bit_identical() {
        let net = gallery::figure5();
        let baseline = CoverabilityGraph::build(&net, CoverabilityOptions::default());
        let armed = CoverabilityGraph::try_build(
            &net,
            CoverabilityOptions::default(),
            &crate::CancelToken::new(),
            &crate::MemoryBudget::with_limit(1 << 40),
        )
        .expect("unreached guards never interrupt");
        assert_eq!(armed, baseline);
    }

    #[test]
    fn try_build_observes_cancellation_and_exhaustion() {
        let net = gallery::figure5();
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        assert_eq!(
            CoverabilityGraph::try_build(
                &net,
                CoverabilityOptions::default(),
                &cancel,
                &crate::MemoryBudget::unlimited(),
            ),
            Err(Interrupt::Cancelled)
        );
        // A tiny byte budget fails with the typed error — deterministically, at the
        // same stage, run after run.
        let exhaust = || {
            CoverabilityGraph::try_build(
                &net,
                CoverabilityOptions::default(),
                &CancelToken::never(),
                &crate::MemoryBudget::with_limit(64),
            )
            .expect_err("64 bytes cannot hold the graph")
        };
        let err = exhaust();
        assert!(matches!(err, Interrupt::Exhausted(e) if e.stage == "coverability"));
        assert_eq!(err, exhaust());
    }
}
