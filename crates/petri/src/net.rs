//! The [`PetriNet`] structure: places, transitions and the weighted flow relation.

use crate::{Marking, PetriError, PlaceId, Result, TransitionId};
use std::collections::BTreeMap;
use std::fmt;

/// A place of the net: a non-FIFO channel / buffer holding tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Place {
    /// Human-readable name, unique within the net.
    pub name: String,
    /// Tokens held in the initial marking.
    pub initial_tokens: u64,
}

/// A transition of the net: a unit of data computation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Transition {
    /// Human-readable name, unique within the net.
    pub name: String,
}

/// A weighted Petri net `(P, T, F)` with an initial marking.
///
/// The weighted flow relation `F : (T×P) ∪ (P×T) → ℕ` is stored as adjacency lists in
/// both directions so that pre-sets and post-sets of places and transitions are O(degree)
/// queries. Nets are immutable once built; use [`NetBuilder`](crate::NetBuilder) to
/// construct them.
///
/// # Examples
///
/// Building the two-transition producer/consumer net and firing it:
///
/// ```
/// use fcpn_petri::NetBuilder;
///
/// # fn main() -> Result<(), fcpn_petri::PetriError> {
/// let mut b = NetBuilder::new("producer-consumer");
/// let produce = b.transition("produce");
/// let buffer = b.place("buffer", 0);
/// let consume = b.transition("consume");
/// b.arc_t_p(produce, buffer, 1)?;
/// b.arc_p_t(buffer, consume, 1)?;
/// let net = b.build()?;
///
/// let mut m = net.initial_marking().clone();
/// net.fire(&mut m, produce)?;
/// assert!(net.is_enabled(&m, consume));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PetriNet {
    pub(crate) name: String,
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
    /// For each transition, its input arcs `(place, weight)` — the `Pre` function.
    pub(crate) pre: Vec<Vec<(PlaceId, u64)>>,
    /// For each transition, its output arcs `(place, weight)` — the `Post` function.
    pub(crate) post: Vec<Vec<(PlaceId, u64)>>,
    /// For each place, the transitions feeding it `(transition, weight)`.
    pub(crate) place_in: Vec<Vec<(TransitionId, u64)>>,
    /// For each place, the transitions consuming from it `(transition, weight)`.
    pub(crate) place_out: Vec<Vec<(TransitionId, u64)>>,
    /// For each transition, its net token effect `(place, post − pre)` with pre and post
    /// arcs merged per place — the rows used by the unchecked firing fast path
    /// ([`PetriNet::fire_into`]) and the state-space engine.
    pub(crate) delta: Vec<Vec<(PlaceId, i64)>>,
    pub(crate) initial_marking: Marking,
}

/// Merges the `pre`/`post` columns into per-transition net-effect rows.
///
/// # Panics
///
/// Panics if an arc weight exceeds `i64::MAX` (far beyond any marking a bounded analysis
/// could visit; the token game itself would overflow `u64` first).
pub(crate) fn compute_delta(
    pre: &[Vec<(PlaceId, u64)>],
    post: &[Vec<(PlaceId, u64)>],
) -> Vec<Vec<(PlaceId, i64)>> {
    let as_i64 = |w: u64| i64::try_from(w).expect("NetBuilder refuses weights above i64::MAX");
    pre.iter()
        .zip(post.iter())
        .map(|(ins, outs)| {
            let mut row: Vec<(PlaceId, i64)> = Vec::with_capacity(ins.len() + outs.len());
            for &(p, w) in ins {
                row.push((p, -as_i64(w)));
            }
            for &(p, w) in outs {
                match row.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, d)) => *d += as_i64(w),
                    None => row.push((p, as_i64(w))),
                }
            }
            row.retain(|&(_, d)| d != 0);
            row
        })
        .collect()
}

impl PetriNet {
    /// Name given to the net at construction time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places `|P|`.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions `|T|`.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of arcs in the flow relation.
    pub fn arc_count(&self) -> usize {
        self.pre.iter().map(Vec::len).sum::<usize>() + self.post.iter().map(Vec::len).sum::<usize>()
    }

    /// Iterates over all place identifiers in index order.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId::new)
    }

    /// Iterates over all transition identifiers in index order.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(TransitionId::new)
    }

    /// Metadata of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this net.
    pub fn place(&self, place: PlaceId) -> &Place {
        &self.places[place.index()]
    }

    /// Metadata of `transition`.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to this net.
    pub fn transition(&self, transition: TransitionId) -> &Transition {
        &self.transitions[transition.index()]
    }

    /// Name of `place`.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.places[place.index()].name
    }

    /// Name of `transition`.
    pub fn transition_name(&self, transition: TransitionId) -> &str {
        &self.transitions[transition.index()].name
    }

    /// Looks a place up by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(PlaceId::new)
    }

    /// Looks a transition up by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId::new)
    }

    /// The initial marking `μ₀`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial_marking
    }

    /// Input arcs of `transition` as `(place, weight)` pairs (the `Pre` column).
    pub fn inputs(&self, transition: TransitionId) -> &[(PlaceId, u64)] {
        &self.pre[transition.index()]
    }

    /// Output arcs of `transition` as `(place, weight)` pairs (the `Post` column).
    pub fn outputs(&self, transition: TransitionId) -> &[(PlaceId, u64)] {
        &self.post[transition.index()]
    }

    /// Transitions producing into `place`, with arc weights — the pre-set `•p`.
    pub fn producers(&self, place: PlaceId) -> &[(TransitionId, u64)] {
        &self.place_in[place.index()]
    }

    /// Transitions consuming from `place`, with arc weights — the post-set `p•`.
    pub fn consumers(&self, place: PlaceId) -> &[(TransitionId, u64)] {
        &self.place_out[place.index()]
    }

    /// The precomputed net token effect of `transition`: `(place, post − pre)` pairs with
    /// pre and post arcs merged per place and zero-effect places dropped. This is the row
    /// the firing fast path ([`PetriNet::fire_into`]) applies.
    pub fn delta_row(&self, transition: TransitionId) -> &[(PlaceId, i64)] {
        &self.delta[transition.index()]
    }

    /// Weight of the arc from `place` to `transition`, or 0 if absent.
    pub fn arc_weight_pt(&self, place: PlaceId, transition: TransitionId) -> u64 {
        self.pre[transition.index()]
            .iter()
            .find(|(p, _)| *p == place)
            .map(|&(_, w)| w)
            .unwrap_or(0)
    }

    /// Weight of the arc from `transition` to `place`, or 0 if absent.
    pub fn arc_weight_tp(&self, transition: TransitionId, place: PlaceId) -> u64 {
        self.post[transition.index()]
            .iter()
            .find(|(p, _)| *p == place)
            .map(|&(_, w)| w)
            .unwrap_or(0)
    }

    /// A transition whose pre-set is empty is a *source transition*: it models an input
    /// from the environment (interrupt, periodic event, …).
    pub fn is_source_transition(&self, transition: TransitionId) -> bool {
        self.pre[transition.index()].is_empty()
    }

    /// A transition whose post-set is empty is a *sink transition*: it models an output
    /// towards the environment.
    pub fn is_sink_transition(&self, transition: TransitionId) -> bool {
        self.post[transition.index()].is_empty()
    }

    /// A place with no producing transition is a *source place*.
    pub fn is_source_place(&self, place: PlaceId) -> bool {
        self.place_in[place.index()].is_empty()
    }

    /// A place with no consuming transition is a *sink place*.
    pub fn is_sink_place(&self, place: PlaceId) -> bool {
        self.place_out[place.index()].is_empty()
    }

    /// All source transitions of the net, in index order.
    pub fn source_transitions(&self) -> Vec<TransitionId> {
        self.transitions()
            .filter(|&t| self.is_source_transition(t))
            .collect()
    }

    /// All sink transitions of the net, in index order.
    pub fn sink_transitions(&self) -> Vec<TransitionId> {
        self.transitions()
            .filter(|&t| self.is_sink_transition(t))
            .collect()
    }

    /// A place with more than one output transition is a *choice* (conflict) place.
    pub fn is_choice_place(&self, place: PlaceId) -> bool {
        self.place_out[place.index()].len() > 1
    }

    /// A place with more than one input transition is a *merge* place.
    pub fn is_merge_place(&self, place: PlaceId) -> bool {
        self.place_in[place.index()].len() > 1
    }

    /// All choice (conflict) places of the net, in index order.
    pub fn choice_places(&self) -> Vec<PlaceId> {
        self.places().filter(|&p| self.is_choice_place(p)).collect()
    }

    /// All merge places of the net, in index order.
    pub fn merge_places(&self) -> Vec<PlaceId> {
        self.places().filter(|&p| self.is_merge_place(p)).collect()
    }

    /// Validates that `marking` has one entry per place of this net.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::MarkingLengthMismatch`] otherwise.
    pub fn check_marking(&self, marking: &Marking) -> Result<()> {
        if marking.len() == self.place_count() {
            Ok(())
        } else {
            Err(PetriError::MarkingLengthMismatch {
                expected: self.place_count(),
                found: marking.len(),
            })
        }
    }

    /// Validates that `place` belongs to this net.
    pub fn check_place(&self, place: PlaceId) -> Result<()> {
        if place.index() < self.place_count() {
            Ok(())
        } else {
            Err(PetriError::UnknownPlace(place))
        }
    }

    /// Validates that `transition` belongs to this net.
    pub fn check_transition(&self, transition: TransitionId) -> Result<()> {
        if transition.index() < self.transition_count() {
            Ok(())
        } else {
            Err(PetriError::UnknownTransition(transition))
        }
    }

    /// Renders a firing sequence with transition names, e.g. `"t1 t2 t4"`.
    pub fn format_sequence(&self, sequence: &[TransitionId]) -> String {
        sequence
            .iter()
            .map(|&t| self.transition_name(t).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Returns the names of all transitions, indexed by transition id.
    pub fn transition_names(&self) -> Vec<&str> {
        self.transitions.iter().map(|t| t.name.as_str()).collect()
    }

    /// Returns the names of all places, indexed by place id.
    pub fn place_names(&self) -> Vec<&str> {
        self.places.iter().map(|p| p.name.as_str()).collect()
    }

    /// Summarises structural statistics (used by diagnostics and the CLI examples).
    pub fn stats(&self) -> NetStats {
        NetStats {
            places: self.place_count(),
            transitions: self.transition_count(),
            arcs: self.arc_count(),
            choices: self.choice_places().len(),
            merges: self.merge_places().len(),
            source_transitions: self.source_transitions().len(),
            sink_transitions: self.sink_transitions().len(),
            initial_tokens: self.initial_marking.total_tokens(),
        }
    }
}

/// Structural statistics of a net, as reported by [`PetriNet::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Number of places.
    pub places: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of arcs.
    pub arcs: usize,
    /// Number of choice (conflict) places.
    pub choices: usize,
    /// Number of merge places.
    pub merges: usize,
    /// Number of source transitions.
    pub source_transitions: usize,
    /// Number of sink transitions.
    pub sink_transitions: usize,
    /// Tokens in the initial marking.
    pub initial_tokens: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|P|={} |T|={} arcs={} choices={} merges={} sources={} sinks={} tokens0={}",
            self.places,
            self.transitions,
            self.arcs,
            self.choices,
            self.merges,
            self.source_transitions,
            self.sink_transitions,
            self.initial_tokens
        )
    }
}

impl fmt::Display for PetriNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "net {} {{", self.name)?;
        for p in self.places() {
            writeln!(
                f,
                "  place {} tokens={}",
                self.place_name(p),
                self.places[p.index()].initial_tokens
            )?;
        }
        for t in self.transitions() {
            let ins: Vec<String> = self
                .inputs(t)
                .iter()
                .map(|&(p, w)| format!("{}*{}", self.place_name(p), w))
                .collect();
            let outs: Vec<String> = self
                .outputs(t)
                .iter()
                .map(|&(p, w)| format!("{}*{}", self.place_name(p), w))
                .collect();
            writeln!(
                f,
                "  transition {}: [{}] -> [{}]",
                self.transition_name(t),
                ins.join(", "),
                outs.join(", ")
            )?;
        }
        write!(f, "}}")
    }
}

/// A sub-net selection used by reductions: keeps a subset of places and transitions of a
/// parent net, with a mapping back to the parent's identifiers.
///
/// This is how T-reductions are represented in `fcpn-qss`: the component net is a fresh
/// [`PetriNet`] and the [`SubnetMap`] records which parent node each child node came from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubnetMap {
    /// For each place of the child net, the corresponding place of the parent net.
    pub place_to_parent: Vec<PlaceId>,
    /// For each transition of the child net, the corresponding transition of the parent net.
    pub transition_to_parent: Vec<TransitionId>,
}

impl SubnetMap {
    /// Maps a child place back to its parent place.
    pub fn parent_place(&self, child: PlaceId) -> PlaceId {
        self.place_to_parent[child.index()]
    }

    /// Maps a child transition back to its parent transition.
    pub fn parent_transition(&self, child: TransitionId) -> TransitionId {
        self.transition_to_parent[child.index()]
    }

    /// Finds the child transition corresponding to a parent transition, if it survived.
    pub fn child_transition(&self, parent: TransitionId) -> Option<TransitionId> {
        self.transition_to_parent
            .iter()
            .position(|&t| t == parent)
            .map(TransitionId::new)
    }

    /// Finds the child place corresponding to a parent place, if it survived.
    pub fn child_place(&self, parent: PlaceId) -> Option<PlaceId> {
        self.place_to_parent
            .iter()
            .position(|&p| p == parent)
            .map(PlaceId::new)
    }
}

impl PetriNet {
    /// Builds the sub-net induced by keeping only the given places and transitions,
    /// together with all arcs whose both endpoints are kept.
    ///
    /// Token counts of kept places are copied from this net's initial marking.
    ///
    /// # Errors
    ///
    /// Returns an error if any identifier does not belong to this net.
    pub fn induced_subnet(
        &self,
        keep_places: &[PlaceId],
        keep_transitions: &[TransitionId],
    ) -> Result<(PetriNet, SubnetMap)> {
        for &p in keep_places {
            self.check_place(p)?;
        }
        for &t in keep_transitions {
            self.check_transition(t)?;
        }
        let mut place_map: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
        let mut places = Vec::with_capacity(keep_places.len());
        let mut place_to_parent = Vec::with_capacity(keep_places.len());
        for &p in keep_places {
            if place_map.contains_key(&p) {
                continue;
            }
            let child = PlaceId::new(places.len());
            place_map.insert(p, child);
            places.push(self.places[p.index()].clone());
            place_to_parent.push(p);
        }
        let mut transition_map: BTreeMap<TransitionId, TransitionId> = BTreeMap::new();
        let mut transitions = Vec::with_capacity(keep_transitions.len());
        let mut transition_to_parent = Vec::with_capacity(keep_transitions.len());
        for &t in keep_transitions {
            if transition_map.contains_key(&t) {
                continue;
            }
            let child = TransitionId::new(transitions.len());
            transition_map.insert(t, child);
            transitions.push(self.transitions[t.index()].clone());
            transition_to_parent.push(t);
        }

        let mut pre = vec![Vec::new(); transitions.len()];
        let mut post = vec![Vec::new(); transitions.len()];
        let mut place_in = vec![Vec::new(); places.len()];
        let mut place_out = vec![Vec::new(); places.len()];
        for (&parent_t, &child_t) in &transition_map {
            for &(p, w) in &self.pre[parent_t.index()] {
                if let Some(&child_p) = place_map.get(&p) {
                    pre[child_t.index()].push((child_p, w));
                    place_out[child_p.index()].push((child_t, w));
                }
            }
            for &(p, w) in &self.post[parent_t.index()] {
                if let Some(&child_p) = place_map.get(&p) {
                    post[child_t.index()].push((child_p, w));
                    place_in[child_p.index()].push((child_t, w));
                }
            }
        }

        let initial_marking = Marking::from_vec(
            place_to_parent
                .iter()
                .map(|&p| self.initial_marking.tokens(p))
                .collect(),
        );

        let delta = compute_delta(&pre, &post);
        let net = PetriNet {
            name: format!("{}-subnet", self.name),
            places,
            transitions,
            pre,
            post,
            place_in,
            place_out,
            delta,
            initial_marking,
        };
        let map = SubnetMap {
            place_to_parent,
            transition_to_parent,
        };
        Ok((net, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn simple_net() -> PetriNet {
        // t1 -> p1 -> t2 -> p2 -> t3, with p1 a choice to t2/t2b
        let mut b = NetBuilder::new("simple");
        let t1 = b.transition("t1");
        let p1 = b.place("p1", 1);
        let t2 = b.transition("t2");
        let t2b = b.transition("t2b");
        let p2 = b.place("p2", 0);
        let t3 = b.transition("t3");
        b.arc_t_p(t1, p1, 1).unwrap();
        b.arc_p_t(p1, t2, 1).unwrap();
        b.arc_p_t(p1, t2b, 1).unwrap();
        b.arc_t_p(t2, p2, 2).unwrap();
        b.arc_p_t(p2, t3, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookups() {
        let net = simple_net();
        assert_eq!(net.place_count(), 2);
        assert_eq!(net.transition_count(), 4);
        assert_eq!(net.arc_count(), 5);
        assert_eq!(net.place_by_name("p1"), Some(PlaceId::new(0)));
        assert_eq!(net.transition_by_name("t3"), Some(TransitionId::new(3)));
        assert_eq!(net.place_by_name("zzz"), None);
        assert_eq!(net.place_name(PlaceId::new(1)), "p2");
    }

    #[test]
    fn sources_sinks_choices() {
        let net = simple_net();
        let t1 = net.transition_by_name("t1").unwrap();
        let t3 = net.transition_by_name("t3").unwrap();
        let p1 = net.place_by_name("p1").unwrap();
        assert!(net.is_source_transition(t1));
        assert!(net.is_sink_transition(t3));
        assert_eq!(net.source_transitions(), vec![t1]);
        assert!(net.is_choice_place(p1));
        assert_eq!(net.choice_places(), vec![p1]);
        assert!(net.merge_places().is_empty());
    }

    #[test]
    fn arc_weights() {
        let net = simple_net();
        let t2 = net.transition_by_name("t2").unwrap();
        let p1 = net.place_by_name("p1").unwrap();
        let p2 = net.place_by_name("p2").unwrap();
        assert_eq!(net.arc_weight_pt(p1, t2), 1);
        assert_eq!(net.arc_weight_tp(t2, p2), 2);
        assert_eq!(net.arc_weight_tp(t2, p1), 0);
    }

    #[test]
    fn stats_summary() {
        let net = simple_net();
        let s = net.stats();
        assert_eq!(s.places, 2);
        assert_eq!(s.transitions, 4);
        assert_eq!(s.choices, 1);
        assert_eq!(s.source_transitions, 1);
        assert_eq!(s.sink_transitions, 2); // t2b and t3 have empty post-sets
        assert_eq!(s.initial_tokens, 1);
        assert!(s.to_string().contains("|P|=2"));
    }

    #[test]
    fn induced_subnet_keeps_arcs_and_marking() {
        let net = simple_net();
        let p1 = net.place_by_name("p1").unwrap();
        let p2 = net.place_by_name("p2").unwrap();
        let t1 = net.transition_by_name("t1").unwrap();
        let t2 = net.transition_by_name("t2").unwrap();
        let t3 = net.transition_by_name("t3").unwrap();
        let (sub, map) = net.induced_subnet(&[p1, p2], &[t1, t2, t3]).unwrap();
        assert_eq!(sub.place_count(), 2);
        assert_eq!(sub.transition_count(), 3);
        // the p1 -> t2b arc is dropped because t2b was not kept
        assert_eq!(sub.arc_count(), 4);
        assert_eq!(sub.initial_marking().tokens(PlaceId::new(0)), 1);
        assert_eq!(map.parent_transition(TransitionId::new(1)), t2);
        assert_eq!(map.child_transition(t3), Some(TransitionId::new(2)));
        assert_eq!(map.child_place(p2), Some(PlaceId::new(1)));
    }

    #[test]
    fn induced_subnet_rejects_foreign_ids() {
        let net = simple_net();
        let err = net.induced_subnet(&[PlaceId::new(99)], &[]).unwrap_err();
        assert_eq!(err, PetriError::UnknownPlace(PlaceId::new(99)));
    }

    #[test]
    fn display_contains_structure() {
        let net = simple_net();
        let s = net.to_string();
        assert!(s.contains("net simple"));
        assert!(s.contains("transition t2"));
        assert!(s.contains("p2*2"));
    }
}
