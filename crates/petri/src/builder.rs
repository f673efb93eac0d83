//! Incremental construction of [`PetriNet`]s.

use crate::{Marking, PetriError, PetriNet, Place, PlaceId, Result, Transition, TransitionId};
use std::collections::HashSet;

/// Builder for [`PetriNet`] (C-BUILDER).
///
/// Places and transitions are declared first and arcs added afterwards; [`NetBuilder::build`]
/// freezes the net and derives the initial marking from the per-place token counts.
///
/// # Examples
///
/// The net of Figure 2 of the paper (`t1 →² p1 → t2 →² p2 → t3` … weights on the
/// consuming side):
///
/// ```
/// use fcpn_petri::NetBuilder;
///
/// # fn main() -> Result<(), fcpn_petri::PetriError> {
/// let mut b = NetBuilder::new("figure2");
/// let t1 = b.transition("t1");
/// let p1 = b.place("p1", 0);
/// let t2 = b.transition("t2");
/// let p2 = b.place("p2", 0);
/// let t3 = b.transition("t3");
/// b.arc_t_p(t1, p1, 1)?;
/// b.arc_p_t(p1, t2, 2)?;
/// b.arc_t_p(t2, p2, 1)?;
/// b.arc_p_t(p2, t3, 2)?;
/// let net = b.build()?;
/// assert_eq!(net.transition_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetBuilder {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    arcs_pt: Vec<(PlaceId, TransitionId, u64)>,
    arcs_tp: Vec<(TransitionId, PlaceId, u64)>,
    names: HashSet<String>,
    errors: Vec<PetriError>,
}

impl NetBuilder {
    /// Creates an empty builder for a net called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares a place with an initial token count and returns its identifier.
    ///
    /// Duplicate names are recorded and reported by [`NetBuilder::build`].
    pub fn place(&mut self, name: impl Into<String>, initial_tokens: u64) -> PlaceId {
        let name = name.into();
        if !self.names.insert(name.clone()) {
            self.errors.push(PetriError::DuplicateName(name.clone()));
        }
        let id = PlaceId::new(self.places.len());
        self.places.push(Place {
            name,
            initial_tokens,
        });
        id
    }

    /// Declares a transition and returns its identifier.
    ///
    /// Duplicate names are recorded and reported by [`NetBuilder::build`].
    pub fn transition(&mut self, name: impl Into<String>) -> TransitionId {
        let name = name.into();
        if !self.names.insert(name.clone()) {
            self.errors.push(PetriError::DuplicateName(name.clone()));
        }
        let id = TransitionId::new(self.transitions.len());
        self.transitions.push(Transition { name });
        id
    }

    /// Adds an arc from `place` to `transition` with the given weight.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is zero or above `i64::MAX`, either endpoint is
    /// unknown, or the arc was already declared.
    pub fn arc_p_t(&mut self, place: PlaceId, transition: TransitionId, weight: u64) -> Result<()> {
        self.check(place, transition, weight)?;
        if self
            .arcs_pt
            .iter()
            .any(|&(p, t, _)| p == place && t == transition)
        {
            return Err(PetriError::DuplicateArc(format!("{place} -> {transition}")));
        }
        self.arcs_pt.push((place, transition, weight));
        Ok(())
    }

    /// Adds an arc from `transition` to `place` with the given weight.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is zero or above `i64::MAX`, either endpoint is
    /// unknown, or the arc was already declared.
    pub fn arc_t_p(&mut self, transition: TransitionId, place: PlaceId, weight: u64) -> Result<()> {
        self.check(place, transition, weight)?;
        if self
            .arcs_tp
            .iter()
            .any(|&(t, p, _)| p == place && t == transition)
        {
            return Err(PetriError::DuplicateArc(format!("{transition} -> {place}")));
        }
        self.arcs_tp.push((transition, place, weight));
        Ok(())
    }

    /// Convenience helper: connects `from` to `to` through a fresh intermediate place with
    /// unit weights (the common "FIFO-less channel" pattern of dataflow-style nets).
    ///
    /// Returns the identifier of the new place.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`NetBuilder::arc_t_p`] / [`NetBuilder::arc_p_t`].
    pub fn channel(
        &mut self,
        name: impl Into<String>,
        from: TransitionId,
        to: TransitionId,
        initial_tokens: u64,
    ) -> Result<PlaceId> {
        let p = self.place(name, initial_tokens);
        self.arc_t_p(from, p, 1)?;
        self.arc_p_t(p, to, 1)?;
        Ok(p)
    }

    /// Like [`NetBuilder::channel`] but with explicit produce / consume weights, for
    /// multirate links.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`NetBuilder::arc_t_p`] / [`NetBuilder::arc_p_t`].
    pub fn channel_weighted(
        &mut self,
        name: impl Into<String>,
        from: TransitionId,
        produce: u64,
        to: TransitionId,
        consume: u64,
        initial_tokens: u64,
    ) -> Result<PlaceId> {
        let p = self.place(name, initial_tokens);
        self.arc_t_p(from, p, produce)?;
        self.arc_p_t(p, to, consume)?;
        Ok(p)
    }

    fn check(&self, place: PlaceId, transition: TransitionId, weight: u64) -> Result<()> {
        if weight == 0 {
            return Err(PetriError::ZeroWeightArc);
        }
        if i64::try_from(weight).is_err() {
            return Err(PetriError::ArcWeightTooLarge(weight));
        }
        if place.index() >= self.places.len() {
            return Err(PetriError::UnknownPlace(place));
        }
        if transition.index() >= self.transitions.len() {
            return Err(PetriError::UnknownTransition(transition));
        }
        Ok(())
    }

    /// Number of places declared so far.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions declared so far.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Freezes the builder into an immutable [`PetriNet`].
    ///
    /// # Errors
    ///
    /// Returns the first deferred error (duplicate names) recorded during construction.
    pub fn build(self) -> Result<PetriNet> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        let mut pre = vec![Vec::new(); self.transitions.len()];
        let mut post = vec![Vec::new(); self.transitions.len()];
        let mut place_in = vec![Vec::new(); self.places.len()];
        let mut place_out = vec![Vec::new(); self.places.len()];
        for (p, t, w) in self.arcs_pt {
            pre[t.index()].push((p, w));
            place_out[p.index()].push((t, w));
        }
        for (t, p, w) in self.arcs_tp {
            post[t.index()].push((p, w));
            place_in[p.index()].push((t, w));
        }
        let initial_marking =
            Marking::from_vec(self.places.iter().map(|p| p.initial_tokens).collect());
        let delta = crate::net::compute_delta(&pre, &post);
        Ok(PetriNet {
            name: self.name,
            places: self.places,
            transitions: self.transitions,
            pre,
            post,
            place_in,
            place_out,
            delta,
            initial_marking,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_net() {
        let net = NetBuilder::new("empty").build().unwrap();
        assert_eq!(net.place_count(), 0);
        assert_eq!(net.transition_count(), 0);
        assert_eq!(net.name(), "empty");
    }

    #[test]
    fn duplicate_names_are_rejected_at_build() {
        let mut b = NetBuilder::new("dup");
        b.place("x", 0);
        b.transition("x");
        let err = b.build().unwrap_err();
        assert_eq!(err, PetriError::DuplicateName("x".to_string()));
    }

    #[test]
    fn zero_weight_arcs_are_rejected() {
        let mut b = NetBuilder::new("zero");
        let p = b.place("p", 0);
        let t = b.transition("t");
        assert_eq!(b.arc_p_t(p, t, 0).unwrap_err(), PetriError::ZeroWeightArc);
        assert_eq!(b.arc_t_p(t, p, 0).unwrap_err(), PetriError::ZeroWeightArc);
    }

    #[test]
    fn oversized_arc_weights_are_rejected() {
        let mut b = NetBuilder::new("huge");
        let p = b.place("p", 0);
        let t = b.transition("t");
        let over = i64::MAX as u64 + 1;
        assert_eq!(
            b.arc_p_t(p, t, over).unwrap_err(),
            PetriError::ArcWeightTooLarge(over)
        );
        assert_eq!(
            b.arc_t_p(t, p, u64::MAX).unwrap_err(),
            PetriError::ArcWeightTooLarge(u64::MAX)
        );
        // The largest weight a delta row can hold is accepted, and the net builds.
        b.arc_p_t(p, t, i64::MAX as u64).unwrap();
        b.arc_t_p(t, p, i64::MAX as u64).unwrap();
        assert_eq!(b.build().unwrap().arc_weight_pt(p, t), i64::MAX as u64);
    }

    #[test]
    fn duplicate_arcs_are_rejected() {
        let mut b = NetBuilder::new("dup-arc");
        let p = b.place("p", 0);
        let t = b.transition("t");
        b.arc_p_t(p, t, 1).unwrap();
        assert!(matches!(
            b.arc_p_t(p, t, 2),
            Err(PetriError::DuplicateArc(_))
        ));
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let mut b = NetBuilder::new("unknown");
        let p = b.place("p", 0);
        let t = b.transition("t");
        assert!(matches!(
            b.arc_p_t(PlaceId::new(9), t, 1),
            Err(PetriError::UnknownPlace(_))
        ));
        assert!(matches!(
            b.arc_t_p(TransitionId::new(9), p, 1),
            Err(PetriError::UnknownTransition(_))
        ));
    }

    #[test]
    fn channel_helpers() {
        let mut b = NetBuilder::new("chan");
        let a = b.transition("a");
        let c = b.transition("c");
        let p = b.channel("buf", a, c, 1).unwrap();
        let q = b.channel_weighted("buf2", a, 3, c, 2, 0).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.arc_weight_tp(a, p), 1);
        assert_eq!(net.arc_weight_pt(p, c), 1);
        assert_eq!(net.arc_weight_tp(a, q), 3);
        assert_eq!(net.arc_weight_pt(q, c), 2);
        assert_eq!(net.initial_marking().tokens(p), 1);
    }

    #[test]
    fn initial_marking_follows_place_declarations() {
        let mut b = NetBuilder::new("mark");
        b.place("a", 2);
        b.place("b", 0);
        b.place("c", 7);
        let net = b.build().unwrap();
        assert_eq!(net.initial_marking().as_slice(), &[2, 0, 7]);
    }
}
