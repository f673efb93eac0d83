//! The arena-interned state-space engine.
//!
//! This module is the performance substrate behind every explicit-state analysis in the
//! crate (reachability, deadlock, liveness, schedule validation). Where the seed
//! explorer (the test and bench oracle `fcpn_bench::oracle::explore_naive`) clones
//! a full [`Marking`](crate::Marking) per expansion and hashes whole token vectors into
//! a `HashMap<Marking, usize>`, the engine here:
//!
//! * stores every discovered marking contiguously in **one flat token arena**, addressed
//!   by dense `u32` state ids — no per-state allocation, no pointer chasing;
//! * picks the arena's word size **adaptively**: when the exploration bounds prove that
//!   no stored token can exceed `u8::MAX` (or `u16::MAX`), tokens are stored in a narrow
//!   `u8`/`u16` arena monomorphised over [`TokenWord`], cutting the
//!   memory traffic of the hot loop (state copies, probe comparisons, arena appends)
//!   4–8× relative to `u64`;
//! * interns states through an open-addressing **hash-of-slice table** that stores only
//!   `(hash, id)` pairs and compares candidate slices directly against the arena — a
//!   successor marking is hashed exactly once, in its scratch buffer, before any copy;
//! * fires transitions through precomputed per-transition delta rows — no id validation,
//!   no marking-length check, no double enabledness scan per firing;
//! * exposes the reachability graph as **CSR forward/backward adjacency**, so
//!   [`successors`](StateSpace::successors) is O(out-degree),
//!   [`dead_states`](StateSpace::dead_states) is O(V) and
//!   [`can_eventually_fire`](StateSpace::can_eventually_fire) is a single O(V+E)
//!   backward traversal instead of an O(V·E) fixpoint;
//! * re-exposes the same machinery for **sequential trace execution**:
//!   [`FiringSession`] is a long-lived token-game cursor (fire/undo, bitmask
//!   enabled-set queries, checkpoint/rollback, on-demand width widening) used by the
//!   RTOS simulators and the ATM Table I harness instead of the owned-`Marking`
//!   token game.
//!
//! Exploration is single-threaded. A hash-sharded parallel explorer ran 2–3× slower
//! than this engine on every net benchmarked on 1- and 2-core hosts (ARCHITECTURE.md,
//! "Why exploration and scheduling are sequential"), so [`ExploreOptions::threads`] is
//! accepted and ignored.
//!
//! The exploration order and truncation semantics (state budget, per-place token
//! cut-off) are **bit-for-bit identical** to the seed explorer's for every token width:
//! all variants assign the same state ids, discover the same edges in the same order
//! and report the same frontier. `tests/properties.rs` holds that equivalence over the
//! gallery nets and randomly generated nets.
//!
//! # Example
//!
//! ```
//! use fcpn_petri::{gallery, analysis::ReachabilityOptions, statespace::StateSpace};
//!
//! let net = gallery::marked_ring(6, 3);
//! let space = StateSpace::explore(&net, ReachabilityOptions::default());
//! assert!(space.is_complete());
//! assert_eq!(space.state_count(), 56); // C(6+3-1, 6-1) distributions of 3 tokens
//! assert!(space.dead_states().is_empty());
//! ```

mod arena;
mod engine;
mod interner;
mod session;

pub use arena::{MarkingArena, TokenWord};
pub(crate) use engine::CANCEL_STRIDE;
pub use engine::{ExploreOptions, StateSpace, TokenWidth};
pub(crate) use interner::SliceTable;
pub use session::FiringSession;

/// Dense identifier of a discovered state; index 0 is the initial marking.
pub type StateId = u32;

pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// SplitMix64 finalizer: spreads an accumulated sum over all 64 bits before probing.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-place Zobrist-style multiplier, a pure function of the place index so every
/// component (explorer, arena, coverability interner, firing session) hashes markings
/// identically without sharing state.
#[inline]
pub(crate) fn place_key(place: usize) -> u64 {
    mix((place as u64).wrapping_add(0x9e37_79b9_7f4a_7c15)) | 1
}

/// Raw additive marking hash: `Σ tokens[p] · key(p)` (wrapping), over any token width.
///
/// Additivity is the point — firing a transition shifts the raw hash by a constant
/// (`Σ delta[p] · key(p)`), so the explorer updates successor hashes in O(1) from the
/// parent instead of rehashing the whole token vector. Because the sum runs over the
/// *values* (not the byte representation), every token width hashes identically.
#[inline]
pub(crate) fn raw_hash<W: TokenWord>(tokens: &[W]) -> u64 {
    tokens.iter().enumerate().fold(0u64, |h, (p, &k)| {
        h.wrapping_add(k.to_u64().wrapping_mul(place_key(p)))
    })
}

/// The table hash of a token slice: finalized raw hash.
#[inline]
pub(crate) fn hash_tokens<W: TokenWord>(tokens: &[W]) -> u64 {
    mix(raw_hash(tokens))
}
