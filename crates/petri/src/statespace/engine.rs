//! The sequential explorer, adaptive width selection and the [`StateSpace`] graph.
//!
//! # Example
//!
//! Exploring with explicit engine knobs — here forcing the full-width arena — produces
//! the same canonical graph as the adaptive default:
//!
//! ```
//! use fcpn_petri::analysis::ReachabilityOptions;
//! use fcpn_petri::gallery;
//! use fcpn_petri::statespace::{ExploreOptions, StateSpace, TokenWidth};
//!
//! let net = gallery::marked_ring(5, 2);
//! let auto = StateSpace::explore(&net, ReachabilityOptions::default());
//! let wide = StateSpace::explore_with(
//!     &net,
//!     &ExploreOptions {
//!         width: TokenWidth::U64,
//!         ..ExploreOptions::default()
//!     },
//! );
//! assert_eq!(auto.token_width(), TokenWidth::U8); // narrow arena chosen automatically
//! assert_eq!(auto.state_count(), wide.state_count());
//! assert_eq!(auto.edge_count(), wide.edge_count());
//! ```

use super::arena::{widen_arena, TokenWord};
use super::interner::{Probe, SliceTable};
use super::{mix, place_key, raw_hash, StateId};
use crate::analysis::ReachabilityOptions;
use crate::budget::{Interrupt, MemoryBudget};
use crate::cancel::{CancelGate, CancelToken};
use crate::{Marking, PetriNet, TransitionId};

/// How many expanded states each explorer processes between cancellation polls.
///
/// Expanding one state costs at least a few hundred nanoseconds, so a stride of 256
/// bounds the polling overhead well below 1% while keeping the cancellation latency
/// in the tens of microseconds — far inside the service-level 50 ms bound.
pub(crate) const CANCEL_STRIDE: u64 = 256;

/// Canonical byte cost charged per admitted state: the arena row plus the raw hash
/// plus the (amortized, ~50% load) interner slot.
///
/// The explorer charges this **canonical cost model** — a pure function of the
/// admission sequence — rather than its physical allocations, so the same net under
/// the same [`MemoryBudget`] exhausts at exactly the same state with exactly the same
/// error on every run. Physical overshoot (`Vec` growth slack) is bounded by a small
/// multiple of the admitted bytes and by the `max_markings` clamp.
#[inline]
pub(crate) fn state_cost<W>(places: usize) -> u64 {
    (places * std::mem::size_of::<W>()) as u64 + 8 + 24
}

/// Canonical byte cost charged per admitted CSR edge (`edge_to` + `edge_transition`).
const EDGE_COST: u64 = 8;

/// Stage label of the explorer's budget charges.
const STAGE_REACHABILITY: &str = "reachability";

/// The storage width of the token arena.
///
/// `Auto` (the default) derives the narrowest sound width from the exploration bounds:
/// a stored state is either the initial marking or the successor of a state whose
/// tokens all fit the cut-off, so no stored token can exceed
/// `max(initial_max, max_tokens_per_place + max_positive_delta)`. When that bound fits
/// `u8`/`u16`, the narrow arena cuts the hot loop's memory traffic 4–8×.
///
/// A forced width narrower than the sound bound is silently widened to the narrowest
/// sound width — the engine never trades correctness for bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TokenWidth {
    /// Select the narrowest sound width automatically (the default).
    #[default]
    Auto,
    /// 8-bit tokens (bound ≤ 255).
    U8,
    /// 16-bit tokens (bound ≤ 65 535).
    U16,
    /// Full-width tokens; always sound.
    U64,
}

impl TokenWidth {
    /// The width name as used in benchmark schemas (`"u8"`, `"u16"`, `"u64"`).
    ///
    /// # Panics
    ///
    /// Panics on [`TokenWidth::Auto`], which is a selection policy rather than a width;
    /// resolved spaces ([`StateSpace::token_width`]) never carry it.
    pub fn name(self) -> &'static str {
        match self {
            TokenWidth::Auto => panic!("Auto is not a concrete token width"),
            TokenWidth::U8 => u8::NAME,
            TokenWidth::U16 => u16::NAME,
            TokenWidth::U64 => u64::NAME,
        }
    }

    pub(crate) fn rank(self) -> u8 {
        match self {
            TokenWidth::U8 => 0,
            TokenWidth::U16 => 1,
            TokenWidth::Auto | TokenWidth::U64 => 2,
        }
    }
}

/// Exploration configuration beyond the [`ReachabilityOptions`] budget: token-arena
/// width and the cancellation and memory guards. The analysis entry points
/// (`find_deadlock_with`, `check_liveness_with`, …) accept this struct to expose the
/// same knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// State budget and token cut-off (identical semantics to the naive explorer).
    pub reach: ReachabilityOptions,
    /// Ignored: exploration always runs on the calling thread, and every value yields
    /// the space `threads: 1` yields, bit for bit. The field stays because the
    /// repository benchmark (`perfbench/src/served.rs`) sets it.
    pub threads: usize,
    /// Token-arena width selection.
    pub width: TokenWidth,
    /// Cooperative cancellation: the explorer polls this token every few hundred
    /// expanded states and abandon the exploration with [`Interrupt::Cancelled`] when
    /// it fires. The default ([`CancelToken::never`]) costs nothing and never fires; a
    /// token that never fires leaves the result bit-for-bit identical to the default.
    pub cancel: CancelToken,
    /// Byte budget charged per admitted state and edge (the canonical cost model).
    /// The default ([`MemoryBudget::unlimited`]) costs one branch per growth event and
    /// never exhausts; a budget that is never exhausted leaves the result bit-for-bit
    /// identical to the default.
    pub memory: MemoryBudget,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            reach: ReachabilityOptions::default(),
            threads: 1,
            width: TokenWidth::Auto,
            cancel: CancelToken::never(),
            memory: MemoryBudget::unlimited(),
        }
    }
}

impl From<ReachabilityOptions> for ExploreOptions {
    fn from(reach: ReachabilityOptions) -> Self {
        ExploreOptions {
            reach,
            ..ExploreOptions::default()
        }
    }
}

/// Picks the narrowest token width whose range provably covers every token count the
/// exploration can store, then widens to the requested width when that is wider.
fn select_width(net: &PetriNet, initial: &[u64], options: &ExploreOptions) -> TokenWidth {
    let initial_max = initial.iter().copied().max().unwrap_or(0);
    let max_positive_delta = net
        .transitions()
        .flat_map(|t| net.delta_row(t))
        .filter(|&&(_, d)| d > 0)
        .map(|&(_, d)| d as u64)
        .max()
        .unwrap_or(0);
    // A state is stored either as the initial marking or as the successor of an expanded
    // state, whose tokens are all ≤ the cut-off; one firing adds at most
    // `max_positive_delta` to any place.
    let bound = initial_max.max(
        options
            .reach
            .max_tokens_per_place
            .saturating_add(max_positive_delta),
    );
    let minimal = if bound <= u8::MAX_TOKENS {
        TokenWidth::U8
    } else if bound <= u16::MAX_TOKENS {
        TokenWidth::U16
    } else {
        TokenWidth::U64
    };
    match options.width {
        TokenWidth::Auto => minimal,
        forced if forced.rank() >= minimal.rank() => forced,
        _ => minimal,
    }
}

/// Flattened per-net firing tables shared by the explorer and the firing session: CSR
/// input arcs and delta rows, per-transition constant hash shifts, and the per-place
/// consumer bitmasks driving candidate generation.
#[derive(Debug, Clone)]
pub(crate) struct NetTables {
    pub(crate) places: usize,
    pre_offsets: Vec<u32>,
    pre_rows: Vec<(u32, u64)>,
    delta_offsets: Vec<u32>,
    delta_rows: Vec<(u32, i64)>,
    pub(crate) hash_shift: Vec<u64>,
    mask_words: usize,
    consumer_masks: Vec<u64>,
    source_mask: Vec<u64>,
}

impl NetTables {
    pub(crate) fn build(net: &PetriNet) -> Self {
        let places = net.place_count();
        let transition_count = net.transition_count();
        let mut pre_offsets: Vec<u32> = Vec::with_capacity(transition_count + 1);
        let mut pre_rows: Vec<(u32, u64)> = Vec::new();
        let mut delta_offsets: Vec<u32> = Vec::with_capacity(transition_count + 1);
        let mut delta_rows: Vec<(u32, i64)> = Vec::new();
        let mut hash_shift: Vec<u64> = Vec::with_capacity(transition_count);
        pre_offsets.push(0);
        delta_offsets.push(0);
        for t in net.transitions() {
            for &(p, w) in net.inputs(t) {
                pre_rows.push((p.index() as u32, w));
            }
            pre_offsets.push(pre_rows.len() as u32);
            let mut shift = 0u64;
            for &(p, d) in net.delta_row(t) {
                delta_rows.push((p.index() as u32, d));
                shift = shift.wrapping_add((d as u64).wrapping_mul(place_key(p.index())));
            }
            delta_offsets.push(delta_rows.len() as u32);
            hash_shift.push(shift);
        }

        // Candidate generation: only transitions consuming from a currently marked place
        // (plus the always-enabled source transitions) can be enabled, so each state
        // gathers its candidates by OR-ing the consumer bitmasks of its marked places
        // and walking the set bits — which come out in transition-index order for free,
        // keeping the edge order identical to the naive explorer's full scan.
        let mask_words = transition_count.div_ceil(64).max(1);
        let mut consumer_masks: Vec<u64> = vec![0; places * mask_words];
        for p in net.places() {
            for &(t, _) in net.consumers(p) {
                consumer_masks[p.index() * mask_words + t.index() / 64] |= 1 << (t.index() % 64);
            }
        }
        // Source transitions (empty pre-set) are always enabled, so they seed every
        // state's candidate mask.
        let mut source_mask: Vec<u64> = vec![0; mask_words];
        for t in net.source_transitions() {
            source_mask[t.index() / 64] |= 1 << (t.index() % 64);
        }

        NetTables {
            places,
            pre_offsets,
            pre_rows,
            delta_offsets,
            delta_rows,
            hash_shift,
            mask_words,
            consumer_masks,
            source_mask,
        }
    }

    #[inline]
    pub(crate) fn pre(&self, t: usize) -> &[(u32, u64)] {
        &self.pre_rows[self.pre_offsets[t] as usize..self.pre_offsets[t + 1] as usize]
    }

    #[inline]
    pub(crate) fn delta(&self, t: usize) -> &[(u32, i64)] {
        &self.delta_rows[self.delta_offsets[t] as usize..self.delta_offsets[t + 1] as usize]
    }

    pub(crate) fn candidate_buffer(&self) -> Vec<u64> {
        vec![0; self.mask_words]
    }

    /// One fused pass over a state's tokens: gathers the candidate mask from the marked
    /// places' consumer rows and returns the largest token count (for the cut-off check).
    #[inline]
    pub(crate) fn gather_candidates<W: TokenWord>(&self, tokens: &[W], mask: &mut [u64]) -> u64 {
        mask.copy_from_slice(&self.source_mask);
        let mut max_tokens = 0u64;
        for (p, &count) in tokens.iter().enumerate() {
            let count = count.to_u64();
            if count == 0 {
                continue;
            }
            max_tokens = max_tokens.max(count);
            let row = &self.consumer_masks[p * self.mask_words..(p + 1) * self.mask_words];
            for (acc, &bits) in mask.iter_mut().zip(row) {
                *acc |= bits;
            }
        }
        max_tokens
    }

    /// Applies transition `t`'s delta row to `current` in place. Returns `false` — with
    /// `current` restored — when a place would exceed the width's maximum, mirroring the
    /// safe path's `TokenOverflow` edge drop.
    #[inline]
    pub(crate) fn apply_delta_in_place<W: TokenWord>(&self, current: &mut [W], t: usize) -> bool {
        let delta = self.delta(t);
        for (applied, &(p, d)) in delta.iter().enumerate() {
            let slot = &mut current[p as usize];
            match slot.apply_delta(d) {
                Some(v) => *slot = v,
                None => {
                    for &(q, e) in &delta[..applied] {
                        let undo = &mut current[q as usize];
                        *undo = undo.unapply_delta(e);
                    }
                    return false;
                }
            }
        }
        true
    }

    /// Reverts transition `t`'s delta row, restoring the expanded state in `current`.
    #[inline]
    pub(crate) fn revert_delta_in_place<W: TokenWord>(&self, current: &mut [W], t: usize) {
        for &(p, d) in self.delta(t) {
            let slot = &mut current[p as usize];
            *slot = slot.unapply_delta(d);
        }
    }

    /// Enabledness of transition `t` in `current` (input-arc scan only).
    #[inline]
    pub(crate) fn enabled<W: TokenWord>(&self, current: &[W], t: usize) -> bool {
        self.pre(t)
            .iter()
            .all(|&(p, w)| current[p as usize].to_u64() >= w)
    }
}

/// The width-generic output of an exploration, before widening into a [`StateSpace`].
struct RawSpace<W> {
    arena: Vec<W>,
    table: SliceTable,
    fwd_offsets: Vec<u32>,
    edge_to: Vec<u32>,
    edge_transition: Vec<u32>,
    complete: bool,
    frontier: Vec<StateId>,
}

/// The breadth-first explorer, generic over the arena word.
///
/// The hot loop works entirely in place: the current state's tokens sit in one scratch
/// buffer, each enabled transition's precomputed delta row is applied to it, the
/// successor is probed (its hash derived in O(1) from the parent's via the transition's
/// constant hash shift), and the delta is reverted — the only per-state copies are one
/// read from the arena on expansion and one append on insertion.
fn explore_seq<W: TokenWord>(
    tables: &NetTables,
    initial: &[u64],
    options: ReachabilityOptions,
    cancel: &CancelToken,
    memory: &MemoryBudget,
) -> Result<RawSpace<W>, Interrupt> {
    let places = tables.places;
    let mut cancel_gate = CancelGate::new(CANCEL_STRIDE);
    let mut meter = memory.meter();
    let state_bytes = state_cost::<W>(places);
    meter.charge(state_bytes, STAGE_REACHABILITY)?;

    let mut arena: Vec<W> = Vec::with_capacity(places.max(1) * 256);
    arena.extend(initial.iter().map(|&k| W::from_u64(k)));
    let mut raw_hashes: Vec<u64> = Vec::with_capacity(256);
    raw_hashes.push(raw_hash(&arena));
    let mut table = SliceTable::with_capacity(256);
    if let Probe::Vacant(slot) = table.probe(mix(raw_hashes[0]), &arena[..places], |_| &[]) {
        table.insert_at(slot, mix(raw_hashes[0]), 0);
    }

    let mut fwd_offsets: Vec<u32> = Vec::with_capacity(256);
    fwd_offsets.push(0);
    let mut edge_to: Vec<u32> = Vec::new();
    let mut edge_transition: Vec<u32> = Vec::new();
    let mut frontier: Vec<StateId> = Vec::new();
    let mut complete = true;

    let mut current: Vec<W> = vec![W::from_u64(0); places];
    let mut candidate_mask = tables.candidate_buffer();

    // BFS. State ids are assigned in discovery order and the queue is FIFO, so the
    // expansion order *is* the id order — no explicit queue needed, and the edge list
    // comes out sorted by source (CSR rows for free).
    let mut state_count = 1usize;
    let mut cursor = 0usize;
    'states: while cursor < state_count {
        cancel_gate.check(cancel)?;
        let id = cursor;
        cursor += 1;
        current.copy_from_slice(&arena[id * places..(id + 1) * places]);
        let current_hash = raw_hashes[id];

        let max_tokens = tables.gather_candidates(&current, &mut candidate_mask);
        if max_tokens > options.max_tokens_per_place {
            frontier.push(id as StateId);
            complete = false;
            fwd_offsets.push(edge_to.len() as u32);
            continue 'states;
        }

        for (word, &mask_bits) in candidate_mask.iter().enumerate() {
            let mut bits = mask_bits;
            'transitions: while bits != 0 {
                let t = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !tables.enabled(&current, t) {
                    continue 'transitions;
                }
                // Fire in place; on (astronomically unlikely) token overflow, the delta
                // application reverts itself and the edge is dropped, mirroring the safe
                // path's TokenOverflow behaviour.
                if !tables.apply_delta_in_place(&mut current, t) {
                    continue 'transitions;
                }
                let successor_hash = current_hash.wrapping_add(tables.hash_shift[t]);
                let mixed = mix(successor_hash);
                let target = match table.probe(mixed, &current, |s| {
                    let start = s as usize * places;
                    &arena[start..start + places]
                }) {
                    Probe::Found(existing) => Some(existing),
                    Probe::Vacant(slot) => {
                        if state_count >= options.max_markings {
                            complete = false;
                            None
                        } else {
                            // Charge *before* growing so exhaustion never leaves a
                            // half-inserted state behind.
                            meter.charge(state_bytes, STAGE_REACHABILITY)?;
                            let new_id = state_count as StateId;
                            arena.extend_from_slice(&current);
                            raw_hashes.push(successor_hash);
                            table.insert_at(slot, mixed, new_id);
                            // Growing after insertion keeps the load factor below ~50%,
                            // so every probe is guaranteed a vacant slot.
                            if table.needs_growth() {
                                table.grow();
                            }
                            state_count += 1;
                            Some(new_id)
                        }
                    }
                };
                tables.revert_delta_in_place(&mut current, t);
                if let Some(target) = target {
                    meter.charge(EDGE_COST, STAGE_REACHABILITY)?;
                    edge_to.push(target);
                    edge_transition.push(t as u32);
                }
            }
        }
        fwd_offsets.push(edge_to.len() as u32);
    }

    Ok(RawSpace {
        arena,
        table,
        fwd_offsets,
        edge_to,
        edge_transition,
        complete,
        frontier,
    })
}

/// The arena-interned reachability graph of a marked net.
///
/// Construction ([`StateSpace::explore`]) is a breadth-first enumeration with the same
/// budget/cut-off semantics as [`ReachabilityOptions`]; queries run over CSR adjacency.
/// [`StateSpace::explore_with`] additionally exposes the token-width knob and the
/// guards; whatever width builds the space, the resulting graph is canonical —
/// identical ids, edges and frontier across widths.
#[derive(Debug)]
pub struct StateSpace {
    places: usize,
    arena: Vec<u64>,
    table: SliceTable,
    /// CSR row offsets into `edge_to`/`edge_transition`; row `s` holds the out-edges of
    /// state `s` in transition-index order.
    fwd_offsets: Vec<u32>,
    edge_to: Vec<u32>,
    edge_transition: Vec<u32>,
    /// Backward CSR, built lazily on the first predecessor-side query so pure
    /// explorations don't pay for it.
    back: std::sync::OnceLock<BackCsr>,
    complete: bool,
    frontier: Vec<StateId>,
    width: TokenWidth,
}

/// Reverse adjacency in CSR form: incoming edges of each state.
#[derive(Debug, Clone)]
struct BackCsr {
    offsets: Vec<u32>,
    from: Vec<u32>,
    transition: Vec<u32>,
}

impl Clone for StateSpace {
    fn clone(&self) -> Self {
        let back = std::sync::OnceLock::new();
        if let Some(b) = self.back.get() {
            let _ = back.set(b.clone());
        }
        StateSpace {
            places: self.places,
            arena: self.arena.clone(),
            table: self.table.clone(),
            fwd_offsets: self.fwd_offsets.clone(),
            edge_to: self.edge_to.clone(),
            edge_transition: self.edge_transition.clone(),
            back,
            complete: self.complete,
            frontier: self.frontier.clone(),
            width: self.width,
        }
    }
}

impl StateSpace {
    /// Explores the state space of `net` from its initial marking (sequential, automatic
    /// width).
    pub fn explore(net: &PetriNet, options: ReachabilityOptions) -> Self {
        Self::explore_with(net, &ExploreOptions::from(options))
    }

    /// Explores the state space of `net` from an arbitrary marking (sequential,
    /// automatic width).
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not have one entry per place of `net`.
    pub fn explore_from(net: &PetriNet, initial: Marking, options: ReachabilityOptions) -> Self {
        Self::explore_from_with(net, initial, &ExploreOptions::from(options))
    }

    /// Explores with explicit [`ExploreOptions`] from the initial marking.
    ///
    /// # Panics
    ///
    /// Panics if `options.cancel` fires or `options.memory` exhausts mid-exploration;
    /// callers that arm either guard must use [`StateSpace::try_explore_with`] to
    /// observe the interruption as an error.
    pub fn explore_with(net: &PetriNet, options: &ExploreOptions) -> Self {
        Self::try_explore_with(net, options)
            .expect("exploration interrupted; use try_explore_with with armed guards")
    }

    /// Explores with explicit [`ExploreOptions`] from an arbitrary marking.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not have one entry per place of `net`, or if
    /// `options.cancel` fires or `options.memory` exhausts mid-exploration (use
    /// [`StateSpace::try_explore_from_with`] for armed guards).
    pub fn explore_from_with(net: &PetriNet, initial: Marking, options: &ExploreOptions) -> Self {
        Self::try_explore_from_with(net, initial, options)
            .expect("exploration interrupted; use try_explore_from_with with armed guards")
    }

    /// Fallible exploration from the initial marking.
    ///
    /// # Errors
    ///
    /// [`Interrupt::Cancelled`] when `options.cancel` fires before the exploration
    /// completes, [`Interrupt::Exhausted`] when a charge against `options.memory`
    /// fails; either way the partially built space is discarded — a budget violation
    /// is an error, never a silently truncated space.
    pub fn try_explore_with(net: &PetriNet, options: &ExploreOptions) -> Result<Self, Interrupt> {
        Self::try_explore_from_with(net, net.initial_marking().clone(), options)
    }

    /// Fallible exploration from an arbitrary marking.
    ///
    /// # Errors
    ///
    /// [`Interrupt::Cancelled`] when `options.cancel` fires before the exploration
    /// completes, [`Interrupt::Exhausted`] when a charge against `options.memory`
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not have one entry per place of `net`.
    pub fn try_explore_from_with(
        net: &PetriNet,
        initial: Marking,
        options: &ExploreOptions,
    ) -> Result<Self, Interrupt> {
        assert_eq!(initial.len(), net.place_count(), "marking length mismatch");
        let width = select_width(net, initial.as_slice(), options);
        let tables = NetTables::build(net);
        match width {
            TokenWidth::U8 => Self::run::<u8>(&tables, initial.as_slice(), options, width),
            TokenWidth::U16 => Self::run::<u16>(&tables, initial.as_slice(), options, width),
            TokenWidth::Auto | TokenWidth::U64 => {
                Self::run::<u64>(&tables, initial.as_slice(), options, width)
            }
        }
    }

    fn run<W: TokenWord>(
        tables: &NetTables,
        initial: &[u64],
        options: &ExploreOptions,
        width: TokenWidth,
    ) -> Result<Self, Interrupt> {
        let raw = explore_seq::<W>(
            tables,
            initial,
            options.reach,
            &options.cancel,
            &options.memory,
        )?;
        // The narrow arena widens to `u64` words for the canonical [`StateSpace`];
        // charge the width delta so a budget covers what the caller actually keeps.
        let widen_extra = (8 - std::mem::size_of::<W>()) as u64 * raw.arena.len() as u64;
        if widen_extra > 0 {
            options.memory.charge(widen_extra, "widen")?;
        }
        Ok(StateSpace {
            places: tables.places,
            arena: widen_arena(raw.arena),
            table: raw.table,
            fwd_offsets: raw.fwd_offsets,
            edge_to: raw.edge_to,
            edge_transition: raw.edge_transition,
            back: std::sync::OnceLock::new(),
            complete: raw.complete,
            frontier: raw.frontier,
            width,
        })
    }

    /// The token width the arena was explored with (never [`TokenWidth::Auto`]).
    pub fn token_width(&self) -> TokenWidth {
        self.width
    }

    /// The backward CSR, built by counting sort over the forward edges on first use.
    fn back(&self) -> &BackCsr {
        self.back.get_or_init(|| {
            let state_count = self.state_count();
            let edge_count = self.edge_to.len();
            let mut offsets = vec![0u32; state_count + 1];
            for &to in &self.edge_to {
                offsets[to as usize + 1] += 1;
            }
            for i in 0..state_count {
                offsets[i + 1] += offsets[i];
            }
            let mut from = vec![0u32; edge_count];
            let mut transition = vec![0u32; edge_count];
            let mut fill = offsets.clone();
            for source in 0..state_count {
                let (start, end) = (
                    self.fwd_offsets[source] as usize,
                    self.fwd_offsets[source + 1] as usize,
                );
                for e in start..end {
                    let slot = fill[self.edge_to[e] as usize] as usize;
                    from[slot] = source as u32;
                    transition[slot] = self.edge_transition[e];
                    fill[self.edge_to[e] as usize] += 1;
                }
            }
            BackCsr {
                offsets,
                from,
                transition,
            }
        })
    }

    /// Number of distinct markings discovered.
    pub fn state_count(&self) -> usize {
        self.fwd_offsets.len() - 1
    }

    /// Number of firing edges discovered.
    pub fn edge_count(&self) -> usize {
        self.edge_to.len()
    }

    /// `true` if the whole reachable state space was enumerated within the budget and
    /// token cut-off.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// States that were discovered but not expanded because of the token cut-off.
    pub fn frontier(&self) -> &[StateId] {
        &self.frontier
    }

    /// The token slice of state `id` — a view into the arena, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn tokens(&self, id: StateId) -> &[u64] {
        let start = id as usize * self.places;
        &self.arena[start..start + self.places]
    }

    /// The marking of state `id` as an owned [`Marking`].
    pub fn marking(&self, id: StateId) -> Marking {
        Marking::from_vec(self.tokens(id).to_vec())
    }

    /// Iterates over all discovered markings as token slices, in id order.
    pub fn states(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.state_count()).map(|s| self.tokens(s as StateId))
    }

    /// O(1) membership test through the interner.
    pub fn contains(&self, marking: &Marking) -> bool {
        self.index_of(marking).is_some()
    }

    /// O(1) id lookup through the interner.
    pub fn index_of(&self, marking: &Marking) -> Option<StateId> {
        self.index_of_tokens(marking.as_slice())
    }

    /// O(1) id lookup of a raw token slice.
    pub fn index_of_tokens(&self, tokens: &[u64]) -> Option<StateId> {
        if tokens.len() != self.places {
            return None;
        }
        self.table.find(tokens, |id| {
            let start = id as usize * self.places;
            &self.arena[start..start + self.places]
        })
    }

    /// Outgoing edges of `state` as `(transition, successor)` pairs — O(out-degree).
    pub fn successors(&self, state: StateId) -> impl Iterator<Item = (TransitionId, StateId)> + '_ {
        let (start, end) = (
            self.fwd_offsets[state as usize] as usize,
            self.fwd_offsets[state as usize + 1] as usize,
        );
        self.edge_transition[start..end]
            .iter()
            .zip(self.edge_to[start..end].iter())
            .map(|(&t, &to)| (TransitionId::new(t as usize), to))
    }

    /// Incoming edges of `state` as `(transition, predecessor)` pairs — O(in-degree)
    /// (plus a one-off O(V + E) backward-CSR build on the first predecessor query).
    pub fn predecessors(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (TransitionId, StateId)> + '_ {
        let back = self.back();
        let (start, end) = (
            back.offsets[state as usize] as usize,
            back.offsets[state as usize + 1] as usize,
        );
        back.transition[start..end]
            .iter()
            .zip(back.from[start..end].iter())
            .map(|(&t, &from)| (TransitionId::new(t as usize), from))
    }

    /// All edges in source order as `(from, transition, to)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (StateId, TransitionId, StateId)> + '_ {
        (0..self.state_count()).flat_map(move |s| {
            self.successors(s as StateId)
                .map(move |(t, to)| (s as StateId, t, to))
        })
    }

    /// Out-degree of `state`.
    pub fn out_degree(&self, state: StateId) -> usize {
        (self.fwd_offsets[state as usize + 1] - self.fwd_offsets[state as usize]) as usize
    }

    /// States with no outgoing edge — a single O(V) pass over the CSR row offsets. Only
    /// meaningful when the space is [`complete`](StateSpace::is_complete).
    pub fn dead_states(&self) -> Vec<StateId> {
        (0..self.state_count() as StateId)
            .filter(|&s| self.out_degree(s) == 0)
            .collect()
    }

    /// The largest token count observed in any place across all discovered states.
    pub fn max_tokens_observed(&self) -> u64 {
        self.arena[..self.state_count() * self.places]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// For every state, whether a state enabling `transition` is reachable from it.
    ///
    /// One scan to seed (states enabling the transition) plus one backward BFS over the
    /// CSR reverse adjacency: O(V + E) total, replacing the naive O(V·E) edge-list
    /// fixpoint.
    pub fn can_eventually_fire(&self, net: &PetriNet, transition: TransitionId) -> Vec<bool> {
        let n = self.state_count();
        let mut can = vec![false; n];
        let mut queue: Vec<StateId> = Vec::new();
        for (s, state) in can.iter_mut().enumerate() {
            if net.is_enabled_at(self.tokens(s as StateId), transition) {
                *state = true;
                queue.push(s as StateId);
            }
        }
        while let Some(s) = queue.pop() {
            for (_, pred) in self.predecessors(s) {
                if !can[pred as usize] {
                    can[pred as usize] = true;
                    queue.push(pred);
                }
            }
        }
        can
    }

    /// A shortest firing sequence from the initial state to `target`, reconstructed with
    /// a forward BFS over the CSR adjacency — O(V + E).
    pub fn path_to(&self, target: StateId) -> Vec<TransitionId> {
        let n = self.state_count();
        let mut prev: Vec<Option<(StateId, TransitionId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[0] = true;
        queue.push_back(0 as StateId);
        'bfs: while let Some(current) = queue.pop_front() {
            for (t, to) in self.successors(current) {
                if !visited[to as usize] {
                    visited[to as usize] = true;
                    prev[to as usize] = Some((current, t));
                    if to == target {
                        break 'bfs;
                    }
                    queue.push_back(to);
                }
            }
        }
        let mut trace = Vec::new();
        let mut cursor = target;
        while let Some((parent, t)) = prev[cursor as usize] {
            trace.push(t);
            cursor = parent;
        }
        trace.reverse();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gallery, NetBuilder};

    fn bounded_cycle() -> PetriNet {
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

    #[test]
    fn explores_bounded_cycle_completely() {
        let net = bounded_cycle();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(space.is_complete());
        assert_eq!(space.state_count(), 2);
        assert_eq!(space.edge_count(), 2);
        assert!(space.dead_states().is_empty());
        assert_eq!(space.max_tokens_observed(), 1);
        assert!(space.contains(net.initial_marking()));
        assert_eq!(space.index_of(net.initial_marking()), Some(0));
        assert_eq!(space.tokens(0), net.initial_marking().as_slice());
        // The default budget (cut-off 64, unit deltas) fits the narrow u8 arena.
        assert_eq!(space.token_width(), TokenWidth::U8);
    }

    #[test]
    fn successors_and_predecessors_are_inverse() {
        let net = gallery::marked_ring(5, 2);
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        for s in 0..space.state_count() as StateId {
            for (t, to) in space.successors(s) {
                assert!(space
                    .predecessors(to)
                    .any(|(bt, from)| bt == t && from == s));
            }
            for (t, from) in space.predecessors(s) {
                assert!(space.successors(from).any(|(ft, to)| ft == t && to == s));
            }
        }
        assert_eq!(
            space.edges().count(),
            space.edge_count(),
            "edges() covers the CSR"
        );
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
    }

    #[test]
    fn token_cutoff_populates_frontier() {
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
        assert!(!space.frontier().is_empty());
        assert!(space.max_tokens_observed() >= 5);
    }

    #[test]
    fn can_eventually_fire_matches_live_cycle() {
        let net = bounded_cycle();
        let t2 = net.transition_by_name("t2").unwrap();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert_eq!(space.can_eventually_fire(&net, t2), vec![true, true]);
    }

    #[test]
    fn path_to_reaches_dead_state() {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(start, t1, 1).unwrap();
        b.arc_t_p(t1, p, 1).unwrap();
        b.arc_p_t(p, t2, 1).unwrap();
        let net = b.build().unwrap();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        let dead = space.dead_states();
        assert_eq!(dead.len(), 1);
        let trace = space.path_to(dead[0]);
        assert_eq!(trace, vec![t1, t2]);
    }

    #[test]
    fn empty_net_has_single_state() {
        let net = NetBuilder::new("empty").build().unwrap();
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.edge_count(), 0);
        assert!(space.is_complete());
        assert_eq!(space.dead_states(), vec![0]);
    }

    #[test]
    fn width_selection_honours_bounds_and_requests() {
        let net = bounded_cycle();
        let defaults = ExploreOptions::default();
        assert_eq!(
            select_width(&net, net.initial_marking().as_slice(), &defaults),
            TokenWidth::U8
        );
        // A huge cut-off forces the full width even under Auto.
        let wide = ExploreOptions {
            reach: ReachabilityOptions {
                max_markings: 10,
                max_tokens_per_place: u64::MAX / 2,
            },
            ..ExploreOptions::default()
        };
        assert_eq!(
            select_width(&net, net.initial_marking().as_slice(), &wide),
            TokenWidth::U64
        );
        // Forcing a narrower width than the bound allows silently widens.
        let forced_narrow = ExploreOptions {
            width: TokenWidth::U8,
            ..wide
        };
        assert_eq!(
            select_width(&net, net.initial_marking().as_slice(), &forced_narrow),
            TokenWidth::U64
        );
        // A wide initial marking also widens, even with a tiny cut-off.
        let mut b = NetBuilder::new("wide-initial");
        let p = b.place("p", 1_000);
        let t = b.transition("t");
        b.arc_p_t(p, t, 1).unwrap();
        let net = b.build().unwrap();
        assert_eq!(
            select_width(
                &net,
                net.initial_marking().as_slice(),
                &ExploreOptions {
                    reach: ReachabilityOptions {
                        max_markings: 10,
                        max_tokens_per_place: 3,
                    },
                    ..ExploreOptions::default()
                }
            ),
            TokenWidth::U16
        );
    }

    /// Asserts `space` is the graph `baseline` is: same markings under the same ids,
    /// same out-edges, same completeness and frontier.
    fn assert_same_space(space: &StateSpace, baseline: &StateSpace, tag: &str) {
        assert_eq!(space.state_count(), baseline.state_count(), "{tag}: states");
        assert_eq!(space.edge_count(), baseline.edge_count(), "{tag}: edges");
        assert_eq!(space.is_complete(), baseline.is_complete(), "{tag}");
        assert_eq!(space.frontier(), baseline.frontier(), "{tag}: frontier");
        for id in 0..baseline.state_count() as StateId {
            assert_eq!(space.tokens(id), baseline.tokens(id), "{tag}: marking {id}");
            assert!(
                space.successors(id).eq(baseline.successors(id)),
                "{tag}: out-edges of {id}"
            );
        }
    }

    #[test]
    fn forced_widths_explore_identically() {
        let net = gallery::figure5();
        let reach = ReachabilityOptions {
            max_markings: 500,
            max_tokens_per_place: 4,
        };
        let explore = |width| {
            StateSpace::explore_with(
                &net,
                &ExploreOptions {
                    reach,
                    width,
                    ..ExploreOptions::default()
                },
            )
        };
        let baseline = explore(TokenWidth::U64);
        for width in [TokenWidth::Auto, TokenWidth::U8, TokenWidth::U16] {
            assert_same_space(&explore(width), &baseline, &format!("{width:?}"));
        }
    }

    #[test]
    fn threads_field_is_ignored() {
        // Callers outside the crate still set `threads`; every value must yield the
        // `threads: 1` space bit for bit, complete, truncated or cut off.
        let truncated = ReachabilityOptions {
            max_markings: 700,
            max_tokens_per_place: 4,
        };
        let cut_off = ReachabilityOptions {
            max_markings: 100,
            max_tokens_per_place: 0,
        };
        for (net, reach) in [
            (gallery::marked_ring(6, 3), ReachabilityOptions::default()),
            (gallery::figure5(), truncated),
            (gallery::figure5(), cut_off),
        ] {
            let explore = |threads| {
                StateSpace::explore_with(
                    &net,
                    &ExploreOptions {
                        reach,
                        threads,
                        ..ExploreOptions::default()
                    },
                )
            };
            let baseline = explore(1);
            for threads in [0, 2, 4] {
                let tag = format!("{} threads={threads}", net.name());
                assert_same_space(&explore(threads), &baseline, &tag);
            }
        }
    }

    #[test]
    fn pre_fired_token_cancels_exploration_promptly() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = ExploreOptions {
            cancel,
            ..ExploreOptions::default()
        };
        let result = StateSpace::try_explore_with(&gallery::marked_ring(8, 4), &options);
        assert_eq!(result.err(), Some(Interrupt::Cancelled));
    }
}
