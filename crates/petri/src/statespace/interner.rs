//! The open-addressing hash-of-slice interner shared by every arena variant.
//!
//! The table itself is crate-private; its behaviour is observable through every
//! interned surface — e.g. the O(1) membership queries of an explored space:
//!
//! ```
//! use fcpn_petri::analysis::ReachabilityOptions;
//! use fcpn_petri::gallery;
//! use fcpn_petri::statespace::StateSpace;
//!
//! let net = gallery::marked_ring(4, 2);
//! let space = StateSpace::explore(&net, ReachabilityOptions::default());
//! // Interner-backed: one hash + one slice compare, not a scan over all states.
//! assert_eq!(space.index_of(net.initial_marking()), Some(0));
//! assert_eq!(space.index_of_tokens(&[9, 9, 9, 9]), None);
//! ```

use super::{hash_tokens, StateId, EMPTY_SLOT};

/// Open-addressing interner mapping token slices to state ids.
///
/// Only `(hash, id)` pairs live in the table; the token data itself stays in the owning
/// arena, so growth and probing never touch markings, and equality is checked against the
/// arena slice only on a hash hit.
#[derive(Debug, Clone, Default)]
pub(crate) struct SliceTable {
    /// `(hash, id)` per slot, `id == EMPTY_SLOT` marking vacancy. One combined array so
    /// a probe touches a single cache line per slot.
    entries: Vec<(u64, u32)>,
    len: usize,
}

pub(crate) enum Probe {
    Found(StateId),
    Vacant(usize),
}

impl SliceTable {
    pub(crate) fn with_capacity(states: usize) -> Self {
        let capacity = (states * 2).next_power_of_two().max(16);
        SliceTable {
            entries: vec![(0, EMPTY_SLOT); capacity],
            len: 0,
        }
    }

    /// Number of interned states.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Finds `tokens` in the table, or the slot where it belongs.
    ///
    /// `state_of` resolves a stored id to its arena slice for the equality check.
    pub(crate) fn probe<'a>(
        &self,
        hash: u64,
        tokens: &[u64],
        state_of: impl Fn(StateId) -> &'a [u64],
    ) -> Probe {
        let mask = self.entries.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let (stored_hash, id) = self.entries[slot];
            if id == EMPTY_SLOT {
                return Probe::Vacant(slot);
            }
            if stored_hash == hash && state_of(id) == tokens {
                return Probe::Found(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    pub(crate) fn insert_at(&mut self, slot: usize, hash: u64, id: StateId) {
        self.entries[slot] = (hash, id);
        self.len += 1;
    }

    /// Inserts a `(hash, id)` pair known not to be present, skipping the slice
    /// comparison. Used when the caller has already established distinctness (the
    /// coverability graph inserts a node only after a lookup missed).
    pub(crate) fn insert_unique(&mut self, hash: u64, id: StateId) {
        if self.needs_growth() {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut slot = (hash as usize) & mask;
        while self.entries[slot].1 != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.insert_at(slot, hash, id);
    }

    pub(crate) fn needs_growth(&self) -> bool {
        // Resize at 50% load so probe chains stay short.
        self.len * 2 >= self.entries.len()
    }

    /// Doubles the table; only the stored hashes are needed, never the token data.
    pub(crate) fn grow(&mut self) {
        let capacity = self.entries.len() * 2;
        let mask = capacity - 1;
        let mut entries = vec![(0u64, EMPTY_SLOT); capacity];
        for &(h, id) in &self.entries {
            if id == EMPTY_SLOT {
                continue;
            }
            let mut slot = (h as usize) & mask;
            while entries[slot].1 != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            entries[slot] = (h, id);
        }
        self.entries = entries;
    }

    /// Looks `tokens` up against externally stored markings.
    pub(crate) fn find<'a>(
        &self,
        tokens: &[u64],
        state_of: impl Fn(StateId) -> &'a [u64],
    ) -> Option<StateId> {
        match self.probe(hash_tokens(tokens), tokens, state_of) {
            Probe::Found(id) => Some(id),
            Probe::Vacant(_) => None,
        }
    }
}
