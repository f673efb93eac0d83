//! T-invariants and P-invariants via the Farkas algorithm, and consistency.
//!
//! A *T-invariant* (T-semiflow) is a non-negative, non-zero integer vector `f` indexed by
//! transitions with `fᵀ · D = 0`: firing every transition `f[t]` times returns the net to
//! the marking it started from, *if* the firings can be ordered without deadlock. The
//! existence of such vectors is the algebraic half of schedulability (Definition 2.1 of the
//! paper); the other half — deadlock-free realisability — is checked by simulation in
//! [`crate::analysis`]'s callers.
//!
//! The production elimination ([`InvariantAnalysis::of_matrix`]) works on **sparse,
//! fraction-free integer rows**: incidence matrices of real nets are overwhelmingly
//! sparse, every row combination stays in (gcd-normalised) integers, identical rows are
//! deduplicated through a hash table, and the minimal-support pruning runs on bitsets.
//! The seed's dense elimination it replaced is the test and bench oracle
//! `fcpn_bench::oracle::invariants_of_matrix_naive`; `tests/scheduler_equivalence.rs`
//! pins the two to identical semiflow bases.

use super::incidence::IncidenceMatrix;
use super::rational::Rational;
use crate::{PetriNet, TransitionId};
use std::collections::HashMap;

/// Maximum number of intermediate rows the Farkas elimination may generate before the
/// computation is considered intractable for the calling analysis.
const FARKAS_ROW_LIMIT: usize = 200_000;

/// A minimal semi-positive invariant with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Semiflow {
    /// The invariant vector (indexed by transition for T-semiflows, by place for
    /// P-semiflows).
    pub vector: Vec<u64>,
}

impl Semiflow {
    /// Indices with a non-zero entry.
    ///
    /// Allocates a fresh `Vec` per call; hot loops (the per-component covering checks of
    /// the scheduler) should use the allocation-free [`Semiflow::support_iter`] instead.
    pub fn support(&self) -> Vec<usize> {
        self.support_iter().collect()
    }

    /// Iterates over the indices with a non-zero entry without allocating.
    pub fn support_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.vector
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(i, _)| i)
    }

    /// Number of non-zero entries (the support cardinality), without allocating.
    pub fn support_len(&self) -> usize {
        self.vector.iter().filter(|&&v| v > 0).count()
    }

    /// Returns `true` if the entry at `index` is non-zero.
    pub fn contains(&self, index: usize) -> bool {
        self.vector.get(index).copied().unwrap_or(0) > 0
    }
}

/// Result of the invariant analysis of a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantAnalysis {
    /// Minimal T-semiflows (minimal-support non-negative solutions of `fᵀD = 0`).
    pub t_semiflows: Vec<Semiflow>,
    /// Minimal P-semiflows (minimal-support non-negative solutions of `D·y = 0`).
    pub p_semiflows: Vec<Semiflow>,
    /// Whether the Farkas eliminations stayed within the row budget.
    pub complete: bool,
}

impl InvariantAnalysis {
    /// Runs the full invariant analysis on `net` (the sparse fraction-free elimination).
    pub fn of(net: &PetriNet) -> Self {
        let d = IncidenceMatrix::from_net(net);
        InvariantAnalysis::of_matrix(&d)
    }

    /// Computes only the T-semiflow side of the analysis, building the sparse rows
    /// straight from the net's precomputed delta rows — no dense incidence matrix is
    /// ever materialised. Returns the minimal T-semiflows and the completeness flag.
    ///
    /// This is the scheduler's per-component entry: Definition 3.5 never consults
    /// P-semiflows, so the transpose elimination (roughly half of
    /// [`InvariantAnalysis::of`]'s work) is skipped entirely on that path.
    pub fn t_semiflows_of(net: &PetriNet) -> (Vec<Semiflow>, bool) {
        let rows: Vec<Vec<(u32, i128)>> = net
            .transitions()
            .map(|t| {
                let mut row: Vec<(u32, i128)> = net
                    .delta_row(t)
                    .iter()
                    .map(|&(p, d)| (p.index() as u32, d as i128))
                    .collect();
                row.sort_by_key(|&(c, _)| c);
                row
            })
            .collect();
        farkas_sparse(&rows, net.transition_count())
    }

    /// Runs the analysis on a pre-computed incidence matrix using the sparse
    /// fraction-free Farkas elimination: rows are sorted `(index, value)` lists, row
    /// combinations are integer (Bareiss-style cross-multiplication followed by gcd
    /// normalisation, so no rationals ever appear), exact duplicate rows are dropped
    /// through a hash table as they are generated, and minimal-support pruning runs on
    /// per-row support bitsets. The semiflow basis is identical to the seed's dense
    /// elimination's.
    pub fn of_matrix(d: &IncidenceMatrix) -> Self {
        let nt = d.transition_count();
        let np = d.place_count();
        // Row i is transition i's row of D, in sparse form.
        let t_rows: Vec<Vec<(u32, i128)>> = (0..nt)
            .map(|t| {
                (0..np)
                    .filter_map(|p| {
                        let v = d.entry(TransitionId::new(t), crate::PlaceId::new(p));
                        (v != 0).then_some((p as u32, v as i128))
                    })
                    .collect()
            })
            .collect();
        let (t_semiflows, t_complete) = farkas_sparse(&t_rows, nt);
        // For P-semiflows solve D · y = 0, i.e. run Farkas on the transpose.
        let p_rows: Vec<Vec<(u32, i128)>> = (0..np)
            .map(|p| {
                (0..nt)
                    .filter_map(|t| {
                        let v = d.entry(TransitionId::new(t), crate::PlaceId::new(p));
                        (v != 0).then_some((t as u32, v as i128))
                    })
                    .collect()
            })
            .collect();
        let (p_semiflows, p_complete) = farkas_sparse(&p_rows, np);
        InvariantAnalysis {
            t_semiflows,
            p_semiflows,
            complete: t_complete && p_complete,
        }
    }

    /// Returns `true` if the union of the supports of the minimal T-semiflows covers every
    /// transition — equivalently (Definition 2.1) there exists `f > 0` with `fᵀD = 0` and
    /// the net is *consistent*.
    pub fn is_consistent(&self, transition_count: usize) -> bool {
        let mut covered = vec![false; transition_count];
        for s in &self.t_semiflows {
            for i in s.support_iter() {
                covered[i] = true;
            }
        }
        transition_count > 0 && covered.into_iter().all(|c| c)
    }

    /// Returns `true` if the union of the supports of the minimal P-semiflows covers every
    /// place (the net is *conservative*).
    pub fn is_conservative(&self, place_count: usize) -> bool {
        let mut covered = vec![false; place_count];
        for s in &self.p_semiflows {
            for i in s.support_iter() {
                covered[i] = true;
            }
        }
        place_count > 0 && covered.into_iter().all(|c| c)
    }

    /// A strictly positive T-invariant (every transition fires at least once), if one
    /// exists: the sum of all minimal T-semiflows when their supports cover `T`.
    pub fn positive_t_invariant(&self, transition_count: usize) -> Option<Vec<u64>> {
        if !self.is_consistent(transition_count) {
            return None;
        }
        let mut sum = vec![0u64; transition_count];
        for s in &self.t_semiflows {
            for (i, &v) in s.vector.iter().enumerate() {
                sum[i] += v;
            }
        }
        Some(sum)
    }

    /// The minimal T-semiflows whose support contains `transition`.
    pub fn t_semiflows_containing(&self, transition: TransitionId) -> Vec<&Semiflow> {
        self.t_semiflows
            .iter()
            .filter(|s| s.contains(transition.index()))
            .collect()
    }

    /// Sums one minimal T-semiflow per requested transition (the smallest-support one),
    /// producing a T-invariant whose support contains every requested transition.
    ///
    /// Returns `None` if some requested transition appears in no semiflow.
    pub fn covering_t_invariant(&self, transitions: &[TransitionId]) -> Option<Vec<u64>> {
        if self.t_semiflows.is_empty() {
            return None;
        }
        let len = self.t_semiflows[0].vector.len();
        let mut sum = vec![0u64; len];
        let mut any = false;
        for &t in transitions {
            let best = self
                .t_semiflows_containing(t)
                .into_iter()
                .min_by_key(|s| s.support_len())?;
            for (i, &v) in best.vector.iter().enumerate() {
                sum[i] += v;
            }
            any = true;
        }
        if any {
            Some(sum)
        } else {
            None
        }
    }
}

/// One working row of the sparse elimination: the remaining matrix part and the
/// identity (solution) part, both as `(index, value)` lists sorted by index with no
/// zero values, plus the id-part support as a bitset for O(words) minimality checks.
#[derive(Debug, Clone)]
struct SparseRow {
    d: Vec<(u32, i128)>,
    id: Vec<(u32, i128)>,
    /// Bitset over the `n` unknowns: bit set ⇔ the id part has a non-zero entry there.
    support: Vec<u64>,
    /// Popcount of `support`, cached for the strict-subset pruning.
    support_len: u32,
}

impl SparseRow {
    /// The value at column `col` of the d part (0 if absent).
    fn d_at(&self, col: u32) -> i128 {
        match self.d.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(i) => self.d[i].1,
            Err(_) => 0,
        }
    }
}

/// `out = a·x + b·y` over sorted sparse vectors, dropping cancelled entries.
fn sparse_axpby(
    a: i128,
    x: &[(u32, i128)],
    b: i128,
    y: &[(u32, i128)],
    out: &mut Vec<(u32, i128)>,
) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < x.len() || j < y.len() {
        match (x.get(i), y.get(j)) {
            (Some(&(cx, vx)), Some(&(cy, vy))) if cx == cy => {
                let v = a * vx + b * vy;
                if v != 0 {
                    out.push((cx, v));
                }
                i += 1;
                j += 1;
            }
            (Some(&(cx, vx)), Some(&(cy, _))) if cx < cy => {
                out.push((cx, a * vx));
                i += 1;
            }
            (Some(_), Some(&(cy, vy))) => {
                out.push((cy, b * vy));
                j += 1;
            }
            (Some(&(cx, vx)), None) => {
                out.push((cx, a * vx));
                i += 1;
            }
            (None, Some(&(cy, vy))) => {
                out.push((cy, b * vy));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Divides every value of a combined row by the gcd of all its values (fraction-free
/// normalisation: the row stays integer and as small as possible).
fn normalise_sparse(d: &mut [(u32, i128)], id: &mut [(u32, i128)]) {
    let mut g: i128 = 0;
    for &(_, v) in d.iter().chain(id.iter()) {
        g = gcd(g, v.abs());
    }
    if g > 1 {
        for (_, v) in d.iter_mut() {
            *v /= g;
        }
        for (_, v) in id.iter_mut() {
            *v /= g;
        }
    }
}

/// The SplitMix64 finalizer: a cheap, well-dispersed `u64 → u64` mixer. Used here to
/// hash elimination rows for duplicate removal, and by downstream crates (the scheduler's
/// structural fingerprints) so the workspace keeps a single copy of the constants.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Content hash of a normalised row, used to drop exact duplicates as they are
/// generated (duplicate rows breed duplicate offspring, so early removal can shrink the
/// elimination exponentially without changing the final basis).
fn hash_sparse_row(d: &[(u32, i128)], id: &[(u32, i128)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        h = (h ^ splitmix64(x)).wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &(c, v) in d {
        fold(c as u64);
        fold(v as u64);
        fold((v >> 64) as u64);
    }
    fold(u64::MAX); // separator between the two parts
    for &(c, v) in id {
        fold(c as u64);
        fold(v as u64);
        fold((v >> 64) as u64);
    }
    h
}

/// `true` if `small`'s bits are a strict subset of `big`'s (callers pre-compare the
/// cached popcounts, so equality never reaches here with `small_len < big_len`).
fn bitset_strict_subset(small: &[u64], big: &[u64]) -> bool {
    small.iter().zip(big).all(|(&s, &b)| s & !b == 0)
}

/// Sparse fraction-free Farkas: computes the minimal semi-positive solutions of
/// `x · rows = 0` (one unknown per row, columns indexed up to the largest index present).
/// Returns the semiflows and whether the computation stayed within the row budget.
pub(crate) fn farkas_sparse(rows: &[Vec<(u32, i128)>], n: usize) -> (Vec<Semiflow>, bool) {
    if n == 0 {
        return (Vec::new(), true);
    }
    let m = rows
        .iter()
        .flat_map(|r| r.iter().map(|&(c, _)| c as usize + 1))
        .max()
        .unwrap_or(0);
    let words = n.div_ceil(64);
    let mut work: Vec<SparseRow> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut support = vec![0u64; words];
            support[i / 64] |= 1u64 << (i % 64);
            SparseRow {
                d: r.clone(),
                id: vec![(i as u32, 1)],
                support,
                support_len: 1,
            }
        })
        .collect();
    let mut complete = true;
    let mut d_buf: Vec<(u32, i128)> = Vec::new();
    let mut id_buf: Vec<(u32, i128)> = Vec::new();

    for col in 0..m as u32 {
        // Partition preserving order: zero rows survive, signed rows combine pairwise.
        let mut next: Vec<SparseRow> = Vec::with_capacity(work.len());
        let mut positives: Vec<SparseRow> = Vec::new();
        let mut negatives: Vec<SparseRow> = Vec::new();
        for row in work {
            match row.d_at(col).signum() {
                0 => next.push(row),
                1 => positives.push(row),
                _ => negatives.push(row),
            }
        }
        // Hash-dedup table over the rows combined at *this* column (surviving zero rows
        // are already mutually distinct — their content never changes — so only the new
        // rows need hashing): content hash → indices into `next` to compare.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut combined_any = false;
        'combine: for pos in &positives {
            for neg in &negatives {
                let a = pos.d_at(col);
                let b = -neg.d_at(col);
                // d/id = b·pos + a·neg: the entries at `col` cancel exactly.
                sparse_axpby(b, &pos.d, a, &neg.d, &mut d_buf);
                sparse_axpby(b, &pos.id, a, &neg.id, &mut id_buf);
                normalise_sparse(&mut d_buf, &mut id_buf);
                let h = hash_sparse_row(&d_buf, &id_buf);
                let slot = seen.entry(h).or_default();
                if slot
                    .iter()
                    .any(|&i| next[i].d == d_buf && next[i].id == id_buf)
                {
                    continue; // exact duplicate: identical offspring, drop it now
                }
                let mut support = vec![0u64; words];
                for &(c, _) in &id_buf {
                    support[c as usize / 64] |= 1u64 << (c as usize % 64);
                }
                let support_len = id_buf.len() as u32;
                slot.push(next.len());
                combined_any = true;
                next.push(SparseRow {
                    d: d_buf.clone(),
                    id: id_buf.clone(),
                    support,
                    support_len,
                });
                if next.len() > FARKAS_ROW_LIMIT {
                    complete = false;
                    break 'combine;
                }
            }
        }
        // Prune rows whose id-part support strictly contains another row's support;
        // only minimal-support rows can yield minimal semiflows. When the column
        // combined nothing, the surviving rows were already mutually minimal after the
        // previous prune (dropping unpaired rows cannot create new subset relations),
        // so the quadratic pass is skipped.
        if combined_any {
            let mut keep = vec![true; next.len()];
            for i in 0..next.len() {
                if !keep[i] {
                    continue;
                }
                for j in 0..next.len() {
                    if i == j || !keep[j] {
                        continue;
                    }
                    if next[j].support_len < next[i].support_len
                        && bitset_strict_subset(&next[j].support, &next[i].support)
                    {
                        keep[i] = false;
                        break;
                    }
                }
            }
            let mut kept = Vec::with_capacity(next.len());
            for (row, k) in next.into_iter().zip(keep) {
                if k {
                    kept.push(row);
                }
            }
            work = kept;
        } else {
            work = next;
        }
        if !complete {
            break;
        }
    }

    let mut flows: Vec<Semiflow> = work
        .into_iter()
        .filter(|row| row.d.is_empty() && row.id.iter().any(|&(_, v)| v > 0))
        .map(|row| {
            let mut vector = vec![0u64; n];
            for &(c, v) in &row.id {
                vector[c as usize] = v as u64;
            }
            Semiflow { vector }
        })
        .collect();
    flows.sort_by(|a, b| a.vector.cmp(&b.vector));
    flows.dedup();
    (prune_non_minimal_flows(flows), complete)
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

fn prune_non_minimal_flows(flows: Vec<Semiflow>) -> Vec<Semiflow> {
    let supports: Vec<Vec<usize>> = flows.iter().map(Semiflow::support).collect();
    let mut keep = vec![true; flows.len()];
    for i in 0..flows.len() {
        for j in 0..flows.len() {
            if i == j || !keep[j] {
                continue;
            }
            if supports[j].len() < supports[i].len()
                && supports[j].iter().all(|x| supports[i].contains(x))
            {
                keep[i] = false;
                break;
            }
        }
    }
    flows
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(f, _)| f)
        .collect()
}

/// Rank of the incidence matrix over the rationals; the dimension of the T-invariant
/// solution space is `|T| − rank(D)`.
pub fn incidence_rank(d: &IncidenceMatrix) -> usize {
    let nt = d.transition_count();
    let np = d.place_count();
    let mut rows: Vec<Vec<Rational>> = (0..nt)
        .map(|t| {
            (0..np)
                .map(|p| {
                    Rational::from_integer(
                        d.entry(TransitionId::new(t), crate::PlaceId::new(p)) as i128
                    )
                })
                .collect()
        })
        .collect();
    let mut rank = 0;
    let mut row = 0;
    for col in 0..np {
        if row >= nt {
            break;
        }
        let pivot = (row..nt).find(|&r| !rows[r][col].is_zero());
        let Some(pivot) = pivot else { continue };
        rows.swap(row, pivot);
        let pv = rows[row][col];
        let pivot_row = rows[row].clone();
        for (r, other) in rows.iter_mut().enumerate() {
            if r != row && !other[col].is_zero() {
                let factor = other[col] / pv;
                for (c, value) in other.iter_mut().enumerate().skip(col) {
                    *value = *value - pivot_row[c] * factor;
                }
            }
        }
        row += 1;
        rank += 1;
    }
    rank
}

/// Dimension of the T-invariant space of `net` (`|T| − rank(D)`).
pub fn t_invariant_space_dimension(net: &PetriNet) -> usize {
    let d = IncidenceMatrix::from_net(net);
    net.transition_count() - incidence_rank(&d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn figure2() -> PetriNet {
        let mut b = NetBuilder::new("figure2");
        let t1 = b.transition("t1");
        let p1 = b.place("p1", 0);
        let t2 = b.transition("t2");
        let p2 = b.place("p2", 0);
        let t3 = b.transition("t3");
        b.arc_t_p(t1, p1, 1).unwrap();
        b.arc_p_t(p1, t2, 2).unwrap();
        b.arc_t_p(t2, p2, 1).unwrap();
        b.arc_p_t(p2, t3, 2).unwrap();
        b.build().unwrap()
    }

    /// Figure 3a: choice place p1 feeding t2/t3, each branch rejoining through t4/t5.
    fn figure3a() -> PetriNet {
        let mut b = NetBuilder::new("figure3a");
        let t1 = b.transition("t1");
        let p1 = b.place("p1", 0);
        let t2 = b.transition("t2");
        let t3 = b.transition("t3");
        let p2 = b.place("p2", 0);
        let p3 = b.place("p3", 0);
        let t4 = b.transition("t4");
        let t5 = b.transition("t5");
        b.arc_t_p(t1, p1, 1).unwrap();
        b.arc_p_t(p1, t2, 1).unwrap();
        b.arc_p_t(p1, t3, 1).unwrap();
        b.arc_t_p(t2, p2, 1).unwrap();
        b.arc_t_p(t3, p3, 1).unwrap();
        b.arc_p_t(p2, t4, 1).unwrap();
        b.arc_p_t(p3, t5, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure2_minimal_t_semiflow() {
        let net = figure2();
        let inv = InvariantAnalysis::of(&net);
        assert!(inv.complete);
        assert_eq!(inv.t_semiflows.len(), 1);
        assert_eq!(inv.t_semiflows[0].vector, vec![4, 2, 1]);
        assert!(inv.is_consistent(net.transition_count()));
        assert_eq!(inv.positive_t_invariant(3), Some(vec![4, 2, 1]));
    }

    #[test]
    fn figure3a_has_one_semiflow_per_choice_branch() {
        // f(s) = a(1,1,0,1,0) + b(1,0,1,0,1) per the paper.
        let net = figure3a();
        let inv = InvariantAnalysis::of(&net);
        assert_eq!(inv.t_semiflows.len(), 2);
        let mut vectors: Vec<Vec<u64>> = inv.t_semiflows.iter().map(|s| s.vector.clone()).collect();
        vectors.sort();
        assert_eq!(vectors, vec![vec![1, 0, 1, 0, 1], vec![1, 1, 0, 1, 0]]);
        assert!(inv.is_consistent(net.transition_count()));
    }

    #[test]
    fn inconsistent_net_detected() {
        // t1 -> p1 -> t2, but t2 produces 2 tokens back into p1: no non-trivial invariant
        // can balance the net unless weights cancel; make them unbalanced.
        let mut b = NetBuilder::new("inconsistent");
        let t1 = b.transition("t1");
        let p1 = b.place("p1", 0);
        let t2 = b.transition("t2");
        let p2 = b.place("p2", 0);
        b.arc_t_p(t1, p1, 1).unwrap();
        b.arc_p_t(p1, t2, 1).unwrap();
        b.arc_t_p(t2, p2, 1).unwrap();
        // p2 is a sink place that accumulates forever -> t2 cannot be in any semiflow.
        let net = b.build().unwrap();
        let inv = InvariantAnalysis::of(&net);
        assert!(!inv.is_consistent(net.transition_count()));
        assert!(inv.positive_t_invariant(net.transition_count()).is_none());
    }

    #[test]
    fn semiflow_support_queries() {
        let net = figure3a();
        let inv = InvariantAnalysis::of(&net);
        let t2 = net.transition_by_name("t2").unwrap();
        let t3 = net.transition_by_name("t3").unwrap();
        let with_t2 = inv.t_semiflows_containing(t2);
        assert_eq!(with_t2.len(), 1);
        assert!(with_t2[0].contains(t2.index()));
        assert!(!with_t2[0].contains(t3.index()));
    }

    #[test]
    fn covering_invariant_spans_requested_transitions() {
        let net = figure3a();
        let inv = InvariantAnalysis::of(&net);
        let t2 = net.transition_by_name("t2").unwrap();
        let t3 = net.transition_by_name("t3").unwrap();
        let cover = inv.covering_t_invariant(&[t2, t3]).unwrap();
        assert!(cover[t2.index()] > 0 && cover[t3.index()] > 0);
        let d = IncidenceMatrix::from_net(&net);
        assert!(d.is_t_invariant(&cover));
    }

    #[test]
    fn p_semiflows_of_a_cycle() {
        // A simple token-conserving cycle: p1 -> t1 -> p2 -> t2 -> p1.
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
        let inv = InvariantAnalysis::of(&net);
        assert!(inv.is_conservative(net.place_count()));
        assert_eq!(inv.p_semiflows.len(), 1);
        assert_eq!(inv.p_semiflows[0].vector, vec![1, 1]);
    }

    #[test]
    fn invariant_space_dimension() {
        let net = figure2();
        assert_eq!(t_invariant_space_dimension(&net), 1);
        let net = figure3a();
        // Five transitions, rank 3 (three places with independent rows) -> dimension 2.
        assert_eq!(t_invariant_space_dimension(&net), 2);
    }

    #[test]
    fn empty_net_has_no_semiflows() {
        let net = NetBuilder::new("empty").build().unwrap();
        let inv = InvariantAnalysis::of(&net);
        assert!(inv.t_semiflows.is_empty());
        assert!(!inv.is_consistent(net.transition_count()));
    }
}
