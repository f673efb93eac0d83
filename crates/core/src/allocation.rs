//! T-allocations: control functions that resolve every free choice of the net
//! (Definition 3.3 of the paper).

use crate::{QssError, Result};
use fcpn_petri::analysis::ConflictAnalysis;
use fcpn_petri::{PetriNet, PlaceId, TransitionId};
use std::fmt;

/// A T-allocation resolves every choice place of the net to exactly one of its output
/// transitions. Transitions that lose a conflict are *unallocated* and are removed by the
/// Reduction Algorithm; all other transitions are allocated.
///
/// The paper describes a T-allocation as a function over *all* places; places with a
/// single successor have no freedom, so only the choice places are stored here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TAllocation {
    /// For every choice place (in ascending place order), the transition chosen to
    /// consume from it.
    choices: Vec<(PlaceId, TransitionId)>,
    /// Transitions excluded by this allocation (conflict losers), ascending.
    excluded: Vec<TransitionId>,
}

impl TAllocation {
    /// The `(choice place, chosen transition)` pairs of this allocation, in ascending
    /// place order.
    pub fn choices(&self) -> &[(PlaceId, TransitionId)] {
        &self.choices
    }

    /// The transition this allocation chooses at `place`, if `place` is a choice place.
    pub fn chosen_at(&self, place: PlaceId) -> Option<TransitionId> {
        self.choices
            .iter()
            .find(|&&(p, _)| p == place)
            .map(|&(_, t)| t)
    }

    /// Transitions removed by this allocation (the conflict losers), ascending.
    pub fn excluded_transitions(&self) -> &[TransitionId] {
        &self.excluded
    }

    /// Returns `true` if `transition` survives under this allocation.
    pub fn allocates(&self, transition: TransitionId) -> bool {
        self.excluded.binary_search(&transition).is_err()
    }

    /// The allocated transition set `A_i` as the paper lists it: every transition of the
    /// net except the conflict losers.
    pub fn allocated_set(&self, net: &PetriNet) -> Vec<TransitionId> {
        net.transitions().filter(|&t| self.allocates(t)).collect()
    }

    /// Renders the allocation as `p1->t2, p5->t7`-style text using net names.
    pub fn describe(&self, net: &PetriNet) -> String {
        let mut out = String::new();
        self.write_description(&mut out, |p| net.place_name(p), |t| net.transition_name(t));
        out
    }

    /// Appends the [`describe`](Self::describe) text to `out`, spelling places and
    /// transitions through the given lookups — for example names already escaped for
    /// the output format.
    pub fn write_description<'a>(
        &self,
        out: &mut String,
        place_name: impl Fn(PlaceId) -> &'a str,
        transition_name: impl Fn(TransitionId) -> &'a str,
    ) {
        for (i, &(p, t)) in self.choices.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(place_name(p));
            out.push_str("->");
            out.push_str(transition_name(t));
        }
    }
}

impl fmt::Display for TAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (p, t)) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}->{t}")?;
        }
        write!(f, "]")
    }
}

/// Options controlling allocation enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationOptions {
    /// Maximum number of allocations that may be enumerated. The count is the product of
    /// the out-degrees of the choice places and is exponential in the number of choices.
    pub max_allocations: u128,
}

impl Default for AllocationOptions {
    fn default() -> Self {
        AllocationOptions {
            max_allocations: 1 << 20,
        }
    }
}

/// A lazy stream over every T-allocation of `net`, in the same mixed-radix order the
/// eager enumeration produced (slot 0 — the lowest choice place — varies fastest).
///
/// The number of allocations is the product of the choice places' out-degrees and is
/// exponential in the number of choices; streaming lets callers process (and discard)
/// one allocation at a time instead of materialising all `2^n` up front, which turns the
/// scheduler's peak memory from O(2^n) into O(n).
///
/// Work shared between consecutive allocations is deduplicated: the excluded-transition
/// set of slots `s..` (the *suffix* of the counter, which only changes when a carry
/// propagates past slot `s`) is cached as a pre-merged sorted list, so advancing the
/// counter re-merges only the slots below the carry instead of rebuilding and re-sorting
/// the full conflict-loser set per allocation.
#[derive(Debug, Clone)]
pub struct AllocationIter {
    /// `(choice place, its output transitions)`, ascending place order.
    choices: Vec<(PlaceId, Vec<TransitionId>)>,
    /// `losers[slot][pick]`: the sorted conflict losers of taking `pick` at `slot`.
    losers: Vec<Vec<Vec<TransitionId>>>,
    cursor: Vec<usize>,
    /// `tails[slot]`: merged sorted losers of slots `slot..` under the current cursor;
    /// `tails[choices.len()]` is empty. Shared across every allocation whose counter
    /// suffix agrees.
    tails: Vec<Vec<TransitionId>>,
    remaining: u128,
    total: u128,
}

impl AllocationIter {
    fn new(choices: Vec<(PlaceId, Vec<TransitionId>)>, total: u128) -> Self {
        let losers: Vec<Vec<Vec<TransitionId>>> = choices
            .iter()
            .map(|(_, outs)| {
                (0..outs.len())
                    .map(|pick| {
                        let mut l: Vec<TransitionId> =
                            outs.iter().copied().filter(|&t| t != outs[pick]).collect();
                        l.sort();
                        l
                    })
                    .collect()
            })
            .collect();
        let mut iter = AllocationIter {
            cursor: vec![0; choices.len()],
            tails: vec![Vec::new(); choices.len() + 1],
            choices,
            losers,
            remaining: total,
            total,
        };
        iter.remerge_tails_from(iter.choices.len());
        iter
    }

    /// Total number of allocations the stream yields.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Allocations not yet yielded.
    pub fn remaining(&self) -> u128 {
        self.remaining
    }

    /// Rebuilds `tails[s]` for `s = from-1 .. 0` (everything below a carry at `from`).
    fn remerge_tails_from(&mut self, from: usize) {
        remerge_tails(&self.losers, &self.cursor, &mut self.tails, from);
    }
}

/// Merges the two sorted loser lists into `out`, deduplicating as it goes.
fn merge_sorted_dedup(left: &[TransitionId], right: &[TransitionId], out: &mut Vec<TransitionId>) {
    out.clear();
    out.reserve(left.len() + right.len());
    let (mut a, mut b) = (0, 0);
    while a < left.len() || b < right.len() {
        let pick_left = match (left.get(a), right.get(b)) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            _ => false,
        };
        let next = if pick_left {
            let v = left[a];
            a += 1;
            v
        } else {
            let v = right[b];
            b += 1;
            v
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
}

/// Rebuilds `tails[s]` for `s = from-1 .. 0` against the current cursor (shared by the
/// counting-order and gray-code iterators).
fn remerge_tails(
    losers: &[Vec<Vec<TransitionId>>],
    cursor: &[usize],
    tails: &mut [Vec<TransitionId>],
    from: usize,
) {
    for s in (0..from).rev() {
        // `tails[s]` is rebuilt from `losers[s][cursor[s]]` and `tails[s+1]`; split the
        // slice so the source and destination borrows are disjoint.
        let (head, tail) = tails.split_at_mut(s + 1);
        let mut merged = std::mem::take(&mut head[s]);
        merge_sorted_dedup(&losers[s][cursor[s]], &tail[0], &mut merged);
        head[s] = merged;
    }
}

impl Iterator for AllocationIter {
    type Item = TAllocation;

    fn next(&mut self) -> Option<TAllocation> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let chosen: Vec<(PlaceId, TransitionId)> = self
            .choices
            .iter()
            .zip(&self.cursor)
            .map(|((place, outs), &pick)| (*place, outs[pick]))
            .collect();
        let allocation = TAllocation {
            choices: chosen,
            excluded: self.tails[0].clone(),
        };
        // Advance the mixed-radix counter (slot 0 fastest) and re-merge the tails the
        // carry invalidated.
        if self.remaining > 0 {
            let mut slot = 0;
            loop {
                self.cursor[slot] += 1;
                if self.cursor[slot] < self.choices[slot].1.len() {
                    break;
                }
                self.cursor[slot] = 0;
                slot += 1;
            }
            self.remerge_tails_from(slot + 1);
        }
        Some(allocation)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.remaining) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

/// A lazy stream over every T-allocation of `net` in **mixed-radix reflected gray-code
/// order**: consecutive allocations differ in exactly one choice place's pick (and that
/// pick moves by one position in the place's output list).
///
/// The gray order is what makes the scheduling pipeline incremental: a one-choice delta
/// invalidates only the loser-merge tails at and below the changed slot and keeps the
/// workspace reduction's inputs maximally similar between steps.
///
/// Every item carries the allocation's **rank** — its index in the seed's counting
/// (mixed-radix) enumeration, i.e. the position [`allocation_iter`] would yield it at —
/// so consumers can merge gray-swept results back into the seed order
/// deterministically.
#[derive(Debug, Clone)]
pub struct GrayAllocationIter {
    /// `(choice place, its output transitions)`, ascending place order.
    choices: Vec<(PlaceId, Vec<TransitionId>)>,
    /// `losers[slot][pick]`: the sorted conflict losers of taking `pick` at `slot`.
    losers: Vec<Vec<Vec<TransitionId>>>,
    /// Gray digits: the current pick per slot.
    cursor: Vec<usize>,
    /// Scratch for the next step's gray digits.
    gray_next: Vec<usize>,
    /// Merged sorted losers of slots `slot..` under the current cursor (see
    /// [`AllocationIter::tails`]).
    tails: Vec<Vec<TransitionId>>,
    /// Gray-sequence position of the *next* item to yield.
    position: u128,
    total: u128,
}

impl GrayAllocationIter {
    fn new(choices: Vec<(PlaceId, Vec<TransitionId>)>, total: u128) -> Self {
        let losers: Vec<Vec<Vec<TransitionId>>> = choices
            .iter()
            .map(|(_, outs)| {
                (0..outs.len())
                    .map(|pick| {
                        let mut l: Vec<TransitionId> =
                            outs.iter().copied().filter(|&t| t != outs[pick]).collect();
                        l.sort();
                        l
                    })
                    .collect()
            })
            .collect();
        let slots = choices.len();
        let mut iter = GrayAllocationIter {
            cursor: vec![0; slots],
            gray_next: vec![0; slots],
            tails: vec![Vec::new(); slots + 1],
            choices,
            losers,
            position: 0,
            total,
        };
        remerge_tails(&iter.losers, &iter.cursor, &mut iter.tails, slots);
        iter
    }

    /// Total number of allocations in the full gray sequence.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Allocations not yet yielded.
    pub fn remaining(&self) -> u128 {
        self.total - self.position
    }

    /// The seed (counting-order) index of the allocation currently under the cursor:
    /// the mixed-radix value of the gray digits, slot 0 least significant.
    fn rank(&self) -> u128 {
        let mut rank: u128 = 0;
        let mut prod: u128 = 1;
        for (slot, (_, outs)) in self.choices.iter().enumerate() {
            rank += self.cursor[slot] as u128 * prod;
            prod *= outs.len() as u128;
        }
        rank
    }
}

/// Computes the reflected mixed-radix gray digits of sequence position `n` into `out`:
/// `g_i = a_i` when the counting value of the digits above slot `i` is even, and the
/// slot-reversed `r_i − 1 − a_i` when it is odd (the reflection that makes consecutive
/// positions differ in exactly one digit, by exactly one).
fn gray_digits(choices: &[(PlaceId, Vec<TransitionId>)], n: u128, out: &mut [usize]) {
    let mut prod: u128 = 1;
    for (slot, (_, outs)) in choices.iter().enumerate() {
        let r = outs.len() as u128;
        let a = (n / prod) % r;
        let above = n / (prod * r);
        out[slot] = if above.is_multiple_of(2) {
            a as usize
        } else {
            (r - 1 - a) as usize
        };
        prod *= r;
    }
}

impl Iterator for GrayAllocationIter {
    type Item = (u128, TAllocation);

    fn next(&mut self) -> Option<(u128, TAllocation)> {
        if self.position >= self.total {
            return None;
        }
        let rank = self.rank();
        let chosen: Vec<(PlaceId, TransitionId)> = self
            .choices
            .iter()
            .zip(&self.cursor)
            .map(|((place, outs), &pick)| (*place, outs[pick]))
            .collect();
        let allocation = TAllocation {
            choices: chosen,
            excluded: self.tails[0].clone(),
        };
        self.position += 1;
        if self.position < self.total {
            // Exactly one gray digit changes per step; re-merge the tails at and below
            // the changed slot only.
            gray_digits(&self.choices, self.position, &mut self.gray_next);
            let slot = self
                .gray_next
                .iter()
                .zip(&self.cursor)
                .rposition(|(next, cur)| next != cur)
                .expect("consecutive gray positions differ in one digit");
            debug_assert_eq!(self.gray_next[..slot], self.cursor[..slot]);
            self.cursor[slot] = self.gray_next[slot];
            remerge_tails(&self.losers, &self.cursor, &mut self.tails, slot + 1);
        }
        Some((rank, allocation))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.remaining()) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

/// Opens a lazy stream over every T-allocation of `net` in gray-code order (see
/// [`GrayAllocationIter`]); the scheduler's sweep order.
///
/// # Errors
///
/// Same as [`allocation_iter`].
pub fn allocation_iter_gray(
    net: &PetriNet,
    options: AllocationOptions,
) -> Result<GrayAllocationIter> {
    let (choices, total) = checked_choices(net, options)?;
    Ok(GrayAllocationIter::new(choices, total))
}

/// Opens a lazy stream over every T-allocation of `net` (the cartesian product of the
/// choice places' output transitions) without materialising them.
///
/// # Errors
///
/// * [`QssError::NotFreeChoice`] if the net violates the free-choice condition.
/// * [`QssError::Empty`] if the net has no transitions.
/// * [`QssError::TooManyAllocations`] if the product exceeds `options.max_allocations`.
pub fn allocation_iter(net: &PetriNet, options: AllocationOptions) -> Result<AllocationIter> {
    let (choices, total) = checked_choices(net, options)?;
    Ok(AllocationIter::new(choices, total))
}

/// Validates the net and extracts its choice slots plus the allocation count (shared by
/// the counting-order and gray-code streams).
#[allow(clippy::type_complexity)]
fn checked_choices(
    net: &PetriNet,
    options: AllocationOptions,
) -> Result<(Vec<(PlaceId, Vec<TransitionId>)>, u128)> {
    let classification = fcpn_petri::analysis::Classification::of(net);
    if !classification.is_free_choice() {
        return Err(QssError::NotFreeChoice {
            violations: classification.free_choice_violations,
        });
    }
    if net.transition_count() == 0 {
        return Err(QssError::Empty);
    }
    let conflicts = ConflictAnalysis::of(net);
    let choices: Vec<(PlaceId, Vec<TransitionId>)> = conflicts.choices.clone();

    let mut required: u128 = 1;
    for (_, outs) in &choices {
        required = required.saturating_mul(outs.len() as u128);
        if required > options.max_allocations {
            return Err(QssError::TooManyAllocations {
                required,
                limit: options.max_allocations,
            });
        }
    }
    Ok((choices, required))
}

/// Enumerates every T-allocation of `net` eagerly — a thin `collect()` over
/// [`allocation_iter`], kept for callers that genuinely need the whole set.
///
/// # Errors
///
/// Same as [`allocation_iter`].
///
/// # Examples
///
/// ```
/// use fcpn_petri::gallery;
/// use fcpn_qss::{enumerate_allocations, AllocationOptions};
///
/// # fn main() -> Result<(), fcpn_qss::QssError> {
/// let net = gallery::figure5();
/// let allocations = enumerate_allocations(&net, AllocationOptions::default())?;
/// // One choice (p1 -> t2 | t3) gives exactly two allocations, A1 and A2.
/// assert_eq!(allocations.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn enumerate_allocations(
    net: &PetriNet,
    options: AllocationOptions,
) -> Result<Vec<TAllocation>> {
    Ok(allocation_iter(net, options)?.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcpn_petri::gallery;

    #[test]
    fn conflict_free_net_has_exactly_one_allocation() {
        let net = gallery::figure2();
        let allocations = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].choices().is_empty());
        assert!(allocations[0].excluded_transitions().is_empty());
        assert_eq!(
            allocations[0].allocated_set(&net).len(),
            net.transition_count()
        );
    }

    #[test]
    fn figure5_allocations_match_paper() {
        let net = gallery::figure5();
        let allocations = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        assert_eq!(allocations.len(), 2);
        let t2 = net.transition_by_name("t2").unwrap();
        let t3 = net.transition_by_name("t3").unwrap();
        let p1 = net.place_by_name("p1").unwrap();
        // A1 keeps t2 (excludes t3), A2 keeps t3 (excludes t2).
        let a1 = allocations.iter().find(|a| a.allocates(t2)).unwrap();
        let a2 = allocations.iter().find(|a| a.allocates(t3)).unwrap();
        assert_eq!(a1.excluded_transitions(), &[t3]);
        assert_eq!(a2.excluded_transitions(), &[t2]);
        assert_eq!(a1.chosen_at(p1), Some(t2));
        assert_eq!(a2.chosen_at(p1), Some(t3));
        // A1 = {t1,t2,t4,t5,t6,t7,t8,t9}: eight transitions.
        assert_eq!(a1.allocated_set(&net).len(), 8);
        assert!(a1.describe(&net).contains("p1->t2"));
        assert!(a1.to_string().starts_with('['));
    }

    #[test]
    fn description_lists_every_choice_through_the_lookups() {
        let net = gallery::choice_chain(2);
        let allocation = &enumerate_allocations(&net, AllocationOptions::default()).unwrap()[0];
        assert_eq!(allocation.describe(&net), "c0->a0, c1->a1");
        let upper: Vec<String> = net
            .transitions()
            .map(|t| net.transition_name(t).to_uppercase())
            .collect();
        let mut out = String::from("[");
        allocation.write_description(&mut out, |p| net.place_name(p), |t| &upper[t.index()]);
        assert_eq!(out, "[c0->A0, c1->A1");
    }

    #[test]
    fn allocations_multiply_across_choices() {
        let net = gallery::choice_chain(4);
        let allocations = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        assert_eq!(allocations.len(), 16);
        // Every allocation excludes exactly one transition per choice.
        for a in &allocations {
            assert_eq!(a.excluded_transitions().len(), 4);
        }
    }

    #[test]
    fn iterator_streams_the_same_sequence_the_eager_api_collects() {
        let net = gallery::choice_chain(6);
        let eager = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        let mut iter = allocation_iter(&net, AllocationOptions::default()).unwrap();
        assert_eq!(iter.total(), 64);
        assert_eq!(iter.size_hint(), (64, Some(64)));
        let streamed: Vec<TAllocation> = iter.by_ref().collect();
        assert_eq!(streamed, eager);
        assert_eq!(iter.remaining(), 0);
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn iterator_is_lazy() {
        // 2^16 allocations exist, but taking three only ever materialises three.
        let net = gallery::choice_chain(16);
        let mut iter = allocation_iter(&net, AllocationOptions::default()).unwrap();
        assert_eq!(iter.total(), 1 << 16);
        let first: Vec<TAllocation> = iter.by_ref().take(3).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(iter.remaining(), (1 << 16) - 3);
        // The three differ only in the lowest choice slot.
        assert_eq!(first[0].choices()[1..], first[1].choices()[1..]);
        assert_ne!(first[0].choices()[0], first[1].choices()[0]);
        // Every allocation excludes exactly one transition per choice.
        for a in &first {
            assert_eq!(a.excluded_transitions().len(), 16);
        }
    }

    /// Number of `(place, transition)` pairs two allocations disagree on.
    fn choice_distance(a: &TAllocation, b: &TAllocation) -> usize {
        a.choices()
            .iter()
            .zip(b.choices())
            .filter(|(x, y)| x != y)
            .count()
    }

    #[test]
    fn gray_order_changes_exactly_one_choice_per_step() {
        let net = gallery::choice_chain(6);
        let items: Vec<(u128, TAllocation)> =
            allocation_iter_gray(&net, AllocationOptions::default())
                .unwrap()
                .collect();
        assert_eq!(items.len(), 64);
        for pair in items.windows(2) {
            assert_eq!(choice_distance(&pair[0].1, &pair[1].1), 1);
        }
    }

    #[test]
    fn gray_ranks_recover_the_counting_order() {
        // Sorting the gray sweep by rank must reproduce the seed enumeration exactly,
        // excluded sets included.
        let net = gallery::choice_chain(5);
        let counting = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        let mut by_rank: Vec<(u128, TAllocation)> =
            allocation_iter_gray(&net, AllocationOptions::default())
                .unwrap()
                .collect();
        by_rank.sort_by_key(|&(rank, _)| rank);
        assert_eq!(by_rank.len(), counting.len());
        for (i, (rank, allocation)) in by_rank.iter().enumerate() {
            assert_eq!(*rank, i as u128);
            assert_eq!(allocation, &counting[i]);
        }
    }

    #[test]
    fn gray_iterator_handles_conflict_free_nets() {
        let net = gallery::figure2();
        let items: Vec<(u128, TAllocation)> =
            allocation_iter_gray(&net, AllocationOptions::default())
                .unwrap()
                .collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, 0);
        assert!(items[0].1.choices().is_empty());
        assert!(items[0].1.excluded_transitions().is_empty());
    }

    #[test]
    fn gray_iterator_matches_counting_on_mixed_radix_nets() {
        // figure3a's tree has one 2-way choice; build a mixed-radix case by combining
        // nets is overkill — marked gallery nets with 3-way branches exercise it.
        let mut b = fcpn_petri::NetBuilder::new("mixed-radix");
        let src = b.transition("src");
        let p1 = b.place("p1", 0);
        let p2 = b.place("p2", 0);
        b.arc_t_p(src, p1, 1).unwrap();
        b.arc_t_p(src, p2, 1).unwrap();
        for i in 0..3 {
            let t = b.transition(format!("a{i}"));
            b.arc_p_t(p1, t, 1).unwrap();
        }
        for i in 0..2 {
            let t = b.transition(format!("b{i}"));
            b.arc_p_t(p2, t, 1).unwrap();
        }
        let net = b.build().unwrap();
        let counting = enumerate_allocations(&net, AllocationOptions::default()).unwrap();
        let gray: Vec<(u128, TAllocation)> =
            allocation_iter_gray(&net, AllocationOptions::default())
                .unwrap()
                .collect();
        assert_eq!(gray.len(), 6);
        for pair in gray.windows(2) {
            assert_eq!(choice_distance(&pair[0].1, &pair[1].1), 1);
        }
        let mut sorted = gray.clone();
        sorted.sort_by_key(|&(rank, _)| rank);
        for (i, (rank, allocation)) in sorted.iter().enumerate() {
            assert_eq!(*rank, i as u128);
            assert_eq!(allocation, &counting[i]);
        }
    }

    #[test]
    fn allocation_limit_is_enforced() {
        let net = gallery::choice_chain(5);
        let err = enumerate_allocations(
            &net,
            AllocationOptions {
                max_allocations: 16,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            QssError::TooManyAllocations {
                required: 32,
                limit: 16
            }
        ));
    }

    #[test]
    fn non_free_choice_nets_are_rejected() {
        let net = gallery::figure1b();
        let err = enumerate_allocations(&net, AllocationOptions::default()).unwrap_err();
        assert!(matches!(err, QssError::NotFreeChoice { .. }));
    }

    #[test]
    fn empty_net_is_rejected() {
        let net = fcpn_petri::NetBuilder::new("empty").build().unwrap();
        assert!(matches!(
            enumerate_allocations(&net, AllocationOptions::default()),
            Err(QssError::Empty)
        ));
    }
}
