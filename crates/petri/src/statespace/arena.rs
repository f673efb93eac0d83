//! Token storage: the [`MarkingArena`] used by analyses that need interned markings
//! without the full graph.
//!
//! # Example
//!
//! ```
//! use fcpn_petri::statespace::MarkingArena;
//!
//! let mut arena = MarkingArena::new(3);
//! let (id, fresh) = arena.intern(&[1, 0, 2]);
//! assert!(fresh);
//! assert_eq!(arena.intern(&[1, 0, 2]), (id, false)); // deduplicated
//! assert_eq!(arena.state(id), &[1, 0, 2]);
//! assert_eq!(arena.find(&[9, 9, 9]), None);
//! ```

use super::interner::{Probe, SliceTable};
use super::{hash_tokens, StateId};

/// A growable arena of equal-length token vectors addressed by [`StateId`].
///
/// Used directly by analyses that need interned marking storage without the full graph
/// (e.g. the boundedness search), and internally by [`StateSpace`](super::StateSpace).
#[derive(Debug, Clone)]
pub struct MarkingArena {
    places: usize,
    tokens: Vec<u64>,
    table: SliceTable,
}

impl MarkingArena {
    /// Creates an empty arena for markings over `places` places.
    pub fn new(places: usize) -> Self {
        MarkingArena {
            places,
            tokens: Vec::with_capacity(places * 64),
            table: SliceTable::with_capacity(64),
        }
    }

    /// Number of interned markings.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if no marking has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The token slice of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`MarkingArena::intern`].
    #[inline]
    pub fn state(&self, id: StateId) -> &[u64] {
        let start = id as usize * self.places;
        &self.tokens[start..start + self.places]
    }

    /// Interns `tokens`, returning the state id and whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` does not have one entry per place.
    pub fn intern(&mut self, tokens: &[u64]) -> (StateId, bool) {
        assert_eq!(tokens.len(), self.places, "marking length mismatch");
        if self.table.needs_growth() {
            self.table.grow();
        }
        let hash = hash_tokens(tokens);
        let places = self.places;
        let arena = &self.tokens;
        match self.table.probe(hash, tokens, |id| {
            let start = id as usize * places;
            &arena[start..start + places]
        }) {
            Probe::Found(id) => (id, false),
            Probe::Vacant(slot) => {
                let id = self.len() as StateId;
                self.tokens.extend_from_slice(tokens);
                self.table.insert_at(slot, hash, id);
                (id, true)
            }
        }
    }

    /// Looks `tokens` up without inserting.
    pub fn find(&self, tokens: &[u64]) -> Option<StateId> {
        if tokens.len() != self.places {
            return None;
        }
        self.table.find(tokens, |id| {
            let start = id as usize * self.places;
            &self.tokens[start..start + self.places]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_arena_interns_and_finds() {
        let mut arena = MarkingArena::new(3);
        assert!(arena.is_empty());
        let (a, new_a) = arena.intern(&[1, 0, 2]);
        let (b, new_b) = arena.intern(&[0, 0, 0]);
        let (a2, new_a2) = arena.intern(&[1, 0, 2]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.state(a), &[1, 0, 2]);
        assert_eq!(arena.find(&[0, 0, 0]), Some(b));
        assert_eq!(arena.find(&[9, 9, 9]), None);
        assert_eq!(arena.find(&[1, 0]), None);
    }

    #[test]
    fn interner_survives_growth() {
        let mut arena = MarkingArena::new(2);
        for i in 0..500u64 {
            arena.intern(&[i, i % 7]);
        }
        assert_eq!(arena.len(), 500);
        for i in 0..500u64 {
            let id = arena
                .find(&[i, i % 7])
                .expect("interned marking is findable");
            assert_eq!(arena.state(id), &[i, i % 7]);
        }
    }
}
