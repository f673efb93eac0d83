//! The firing fast path: a long-lived token-game cursor for sequential trace execution.
//!
//! [`StateSpace`](super::StateSpace) answers *exhaustive* questions — every reachable
//! marking, every edge. Simulators ask a different question: starting from one marking,
//! fire *this particular* sequence of transitions (an event cascade, a schedule trace, a
//! random walk) and tell me what is enabled along the way. The seed implementation of
//! that loop cloned an owned [`Marking`](crate::Marking) per run, re-scanned every
//! transition of the net per step (allocating a fresh `Vec` of enabled transitions each
//! time) and re-validated ids and marking lengths on every firing — the exact
//! clone-per-state pattern the exploration engine eliminated.
//!
//! [`FiringSession`] is the session-shaped face of the same machinery:
//!
//! * the current marking lives in one flat `u64` token buffer;
//! * firing applies the transition's precomputed delta row in place and maintains the
//!   total token count **incrementally** — O(|delta row|) per firing, no full-vector
//!   scan;
//! * enabled-set queries walk the candidate bitmask (consumers of marked places plus
//!   always-enabled sources) instead of scanning all transitions, and write into a
//!   caller-owned buffer;
//! * [`reset`](FiringSession::reset) restores the starting marking with one O(places)
//!   copy, so a simulator reuses one session across many runs.
//!
//! After construction only [`marking`](FiringSession::marking) allocates, so a
//! simulator's cascade loop is allocation-free in steady state.
//!
//! Use `FiringSession` when you execute *one trace at a time* (RTOS simulation, the
//! Table I harness, random testing); use
//! [`StateSpace::explore`](super::StateSpace::explore) when you need the whole graph.
//!
//! # Example
//!
//! ```
//! use fcpn_petri::gallery;
//! use fcpn_petri::statespace::FiringSession;
//!
//! let net = gallery::figure2();
//! let t1 = net.transition_by_name("t1").unwrap();
//! let t2 = net.transition_by_name("t2").unwrap();
//! let mut session = FiringSession::new(&net);
//!
//! session.fire(t1).unwrap();
//! session.fire(t1).unwrap();
//! assert!(session.is_enabled(t2));
//! session.fire(t2).unwrap();
//!
//! session.reset(); // O(places) restore of the starting marking
//! assert_eq!(session.marking(), net.initial_marking().clone());
//! ```

use super::engine::NetTables;
use crate::{Marking, PetriError, PetriNet, PlaceId, Result, TransitionId};

/// A reusable token-game cursor: the firing fast path for sequential trace execution.
///
/// Where [`StateSpace`](super::StateSpace) answers *exhaustive* questions (every
/// reachable marking), a session executes *one trace at a time* — an event cascade, a
/// schedule, a random walk — the workload shape of the RTOS simulators and the ATM
/// Table I harness. It holds one current marking in a flat `u64` buffer and supports:
///
/// * [`fire`](Self::fire) — delta-row firing with incremental token-total maintenance;
/// * [`is_enabled`](Self::is_enabled) / [`enabled_into`](Self::enabled_into) —
///   enabled-set queries through the candidate bitmask, allocation-free;
/// * [`reset`](Self::reset) — an O(places) return to the starting marking.
///
/// Every observable is exactly the checked [`PetriNet::fire`] token game's — pinned by
/// `tests/firing_session.rs`.
///
/// # Example
///
/// ```
/// use fcpn_petri::gallery;
/// use fcpn_petri::statespace::FiringSession;
///
/// let net = gallery::figure2();
/// let t1 = net.transition_by_name("t1").unwrap();
/// let mut session = FiringSession::new(&net);
/// let mut enabled = Vec::new();
///
/// session.enabled_into(&mut enabled);
/// assert_eq!(enabled, vec![t1]); // only the source transition
/// session.fire(t1).unwrap();
/// assert_eq!(session.total_tokens(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FiringSession {
    tables: NetTables,
    /// Per-transition total-token effect `Σ delta[p]` (wrapping), for incremental total
    /// tracking.
    token_delta: Vec<i64>,
    /// The starting marking, restored by [`reset`](Self::reset).
    initial: Vec<u64>,
    /// The current marking's tokens.
    current: Vec<u64>,
    /// Total token count of `current` (wrapping), maintained incrementally per firing.
    total: u64,
    /// Scratch candidate bitmask reused across enabled-set queries.
    mask: Vec<u64>,
}

/// The wrapping token total of a marking, the same sum the session maintains per firing.
fn total_of(tokens: &[u64]) -> u64 {
    tokens.iter().fold(0u64, |acc, &k| acc.wrapping_add(k))
}

impl FiringSession {
    /// Opens a session on `net` starting from its initial marking.
    pub fn new(net: &PetriNet) -> Self {
        let tables = NetTables::build(net);
        let token_delta: Vec<i64> = net
            .transitions()
            .map(|t| {
                net.delta_row(t)
                    .iter()
                    .fold(0i64, |acc, &(_, d)| acc.wrapping_add(d))
            })
            .collect();
        let initial = net.initial_marking().as_slice().to_vec();
        let mask = tables.candidate_buffer();
        FiringSession {
            tables,
            token_delta,
            current: initial.clone(),
            total: total_of(&initial),
            initial,
            mask,
        }
    }

    /// Restores the starting marking and its token total — one O(places) copy.
    pub fn reset(&mut self) {
        self.current.copy_from_slice(&self.initial);
        self.total = total_of(&self.initial);
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for the net.
    pub fn tokens_of(&self, place: PlaceId) -> u64 {
        self.current[place.index()]
    }

    /// The current marking as an owned [`Marking`] (one allocation; prefer
    /// [`tokens_of`](Self::tokens_of) and [`total_tokens`](Self::total_tokens) on hot
    /// paths).
    pub fn marking(&self) -> Marking {
        Marking::from_vec(self.current.clone())
    }

    /// Total tokens across all places (modulo 2^64), maintained incrementally — O(1).
    pub fn total_tokens(&self) -> u64 {
        self.total
    }

    /// Enabledness of `transition` in the current marking (input-arc scan only).
    ///
    /// # Panics
    ///
    /// Panics if `transition` is out of range for the net.
    pub fn is_enabled(&self, transition: TransitionId) -> bool {
        self.tables.enabled(&self.current, transition.index())
    }

    /// Collects the transitions enabled in the current marking into `out` (cleared
    /// first), in transition-index order.
    ///
    /// Only *candidates* — consumers of currently marked places, plus always-enabled
    /// source transitions — are tested, via the same per-place consumer bitmasks the
    /// exploration engine uses; transitions whose every input place is empty are never
    /// touched. Reusing `out` across calls makes a simulator's cascade loop
    /// allocation-free.
    pub fn enabled_into(&mut self, out: &mut Vec<TransitionId>) {
        out.clear();
        self.tables.gather_candidates(&self.current, &mut self.mask);
        for (word, &mask_bits) in self.mask.iter().enumerate() {
            let mut bits = mask_bits;
            while bits != 0 {
                let t = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.tables.enabled(&self.current, t) {
                    out.push(TransitionId::new(t));
                }
            }
        }
    }

    /// Fires `transition`, updating the current marking and its token total in place.
    ///
    /// # Errors
    ///
    /// * [`PetriError::UnknownTransition`] if the id is out of range.
    /// * [`PetriError::NotEnabled`] if the transition is not enabled; the marking is
    ///   left unchanged.
    /// * [`PetriError::TokenOverflow`] if an output place would exceed `u64::MAX`
    ///   (mirroring [`PetriNet::fire`]); the marking and the token total are left
    ///   unchanged.
    pub fn fire(&mut self, transition: TransitionId) -> Result<()> {
        let t = transition.index();
        if t >= self.token_delta.len() {
            return Err(PetriError::UnknownTransition(transition));
        }
        if !self.tables.enabled(&self.current, t) {
            return Err(PetriError::NotEnabled(transition));
        }
        self.tables
            .apply_delta_in_place(&mut self.current, t)
            .map_err(|p| PetriError::TokenOverflow(PlaceId::new(p as usize)))?;
        self.total = self.total.wrapping_add_signed(self.token_delta[t]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gallery, NetBuilder};

    fn enabled(session: &mut FiringSession) -> Vec<TransitionId> {
        let mut out = Vec::new();
        session.enabled_into(&mut out);
        out
    }

    #[test]
    fn session_matches_safe_token_game_on_figure2() {
        let net = gallery::figure2();
        let t1 = net.transition_by_name("t1").unwrap();
        let t2 = net.transition_by_name("t2").unwrap();
        let mut session = FiringSession::new(&net);
        let mut marking = net.initial_marking().clone();
        for &t in &[t1, t1, t1, t1, t2, t2] {
            assert_eq!(enabled(&mut session), net.enabled_transitions(&marking));
            session.fire(t).unwrap();
            net.fire(&mut marking, t).unwrap();
            assert_eq!(session.marking(), marking);
            assert_eq!(session.total_tokens(), marking.total_tokens());
        }
    }

    #[test]
    fn fire_rejects_disabled_and_unknown() {
        let net = gallery::figure2();
        let t2 = net.transition_by_name("t2").unwrap();
        let mut session = FiringSession::new(&net);
        assert_eq!(session.fire(t2), Err(PetriError::NotEnabled(t2)));
        let bogus = TransitionId::new(99);
        assert_eq!(
            session.fire(bogus),
            Err(PetriError::UnknownTransition(bogus))
        );
        // Failed firings leave the marking untouched.
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.total_tokens(), net.initial_marking().total_tokens());
    }

    #[test]
    fn reset_restores_the_starting_marking() {
        let net = gallery::figure4();
        let mut session = FiringSession::new(&net);
        for _ in 0..5 {
            let t = enabled(&mut session)[0];
            session.fire(t).unwrap();
        }
        assert_ne!(session.marking(), net.initial_marking().clone());
        session.reset();
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.total_tokens(), net.initial_marking().total_tokens());
        assert_eq!(
            enabled(&mut session),
            net.enabled_transitions(net.initial_marking())
        );
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t = b.transition("t");
        b.arc_p_t(start, t, 1).unwrap();
        let net = b.build().unwrap();
        let mut session = FiringSession::new(&net);
        assert!(!enabled(&mut session).is_empty());
        session.fire(net.transition_by_name("t").unwrap()).unwrap();
        assert!(enabled(&mut session).is_empty());
    }

    #[test]
    fn empty_net_session_is_dead_but_consistent() {
        let net = NetBuilder::new("empty").build().unwrap();
        let mut session = FiringSession::new(&net);
        assert!(enabled(&mut session).is_empty());
        assert_eq!(session.total_tokens(), 0);
        session.reset();
        assert_eq!(session.marking(), Marking::zeroes(0));
    }
}
