//! The region engine behind [`synthesize`](super::synthesize).
//!
//! The implementation follows the classic region construction, phrased so that every
//! separation problem reduces to the sparse fraction-free Farkas elimination the
//! invariant analysis already ships (`crate::analysis::farkas_sparse`):
//!
//! 1. **Potentials.** A BFS spanning tree from the initial state assigns each state its
//!    tree-path Parikh vector `ψ(s) ∈ ℤ^labels`. Every region's token count is then an
//!    affine function `σ(s) = σ₀ + Δ·ψ(s)` of a per-label gradient `Δ`.
//! 2. **Cycle equations.** Each non-tree edge closes a cycle whose Parikh vector must
//!    have zero gradient weight: `Δ·(ψ(s) + 1ₑ − ψ(s')) = 0`. Splitting
//!    `Δₑ = prodₑ − consₑ` into non-negative produce/consume halves turns the cycle
//!    system into a homogeneous system over non-negative integers — exactly the
//!    semiflow problem, so its minimal solutions (the extremal region gradients) come
//!    from one Farkas run.
//! 3. **Separation.** States are split by *state separation* (two states must get
//!    different token counts in some region) and non-edges by *event/state separation*
//!    (some region must under-mark a state below a label's consume weight). Single
//!    extremal gradients solve almost every instance; the rare remainder is solved by
//!    searching a non-negative combination `λ` of extremal gradients — again a Farkas
//!    run, on the system `Bλ − μ − t·1 = 0` whose solutions with `t > 0` are exactly
//!    the separating combinations. An instance no combination solves is returned as
//!    the typed witness: no place/transition net realises the input.
//! 4. **Emission.** Every selected region becomes a place (`σ₀` tokens initially,
//!    `consₑ`/`prodₑ` arc weights); every label becomes a transition. The reachable
//!    graph of the result is re-explored and pinned isomorphic to the input unless
//!    [`SynthesisOptions::verify`](super::SynthesisOptions) is disabled.

use std::collections::{HashMap, VecDeque};

use super::lts::Lts;
use super::{SynthesisError, SynthesisOptions, SynthesisStats, SynthesizedNet};
use crate::analysis::{farkas_sparse, ReachabilityOptions};
use crate::cancel::CancelGate;
use crate::statespace::{ExploreOptions, StateSpace, TokenWidth};
use crate::NetBuilder;

/// Stage label for charges issued while building potentials and cycle equations.
pub const STAGE_LTS: &str = "synthesis-lts";
/// Stage label for charges issued while materialising candidate regions.
pub const STAGE_REGIONS: &str = "synthesis-regions";
/// Stage label for charges issued while solving separation problems.
pub const STAGE_SEPARATION: &str = "synthesis-separation";

/// Poll the cancellation token every this many loop iterations (matches the
/// state-space engine's stride).
const CANCEL_STRIDE: u64 = 256;

/// An extremal region gradient: produce/consume weights per label plus the derived
/// per-state potential and per-label source minimum.
struct Candidate {
    prod: Vec<u64>,
    cons: Vec<u64>,
    /// `Δ·ψ(s)` per state.
    d: Vec<i64>,
    /// `min { d[q] | q has an outgoing e-edge }` per label (`None` for dead labels).
    min_src: Vec<Option<i64>>,
}

/// A region selected for emission. `σ(s) = sigma0 + d[s]` is the place's token count
/// in state `s`; `cons`/`prod` may be boosted in lockstep (side conditions) while
/// solving event/state separation.
struct PlaceSpec {
    prod: Vec<u64>,
    cons: Vec<u64>,
    d: Vec<i64>,
    sigma0: u64,
}

impl PlaceSpec {
    fn sigma(&self, s: usize) -> i128 {
        self.sigma0 as i128 + self.d[s] as i128
    }
}

/// Shared read-only context for the run.
struct Ctx<'a> {
    lts: &'a Lts,
    n: usize,
    m: usize,
    /// All `(source, label)` pairs, in (state, label) order.
    edge_list: Vec<(u32, u32)>,
    /// States with an outgoing `e`-edge, per label, ascending.
    sources_by_label: Vec<Vec<u32>>,
}

pub(super) fn run(lts: &Lts, opts: &SynthesisOptions) -> Result<SynthesizedNet, SynthesisError> {
    let n = lts.state_count();
    let m = lts.label_count();
    if n == 0 {
        return Err(SynthesisError::EmptyInput);
    }
    let cancel = &opts.cancel;
    let mut meter = opts.memory.meter();
    let mut gate = CancelGate::new(CANCEL_STRIDE);

    // ---- synthesis-lts: BFS spanning tree, Parikh potentials, cycle equations ----
    meter.charge(
        (n as u64).saturating_mul(m as u64).saturating_mul(8),
        STAGE_LTS,
    )?;
    let mut psi: Vec<Vec<i64>> = vec![Vec::new(); n];
    let mut visited = vec![false; n];
    let root = lts.initial() as usize;
    psi[root] = vec![0i64; m];
    visited[root] = true;
    let mut queue = VecDeque::from([lts.initial()]);
    let mut chords: Vec<(u32, u32, u32)> = Vec::new();
    let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(lts.edge_count());
    let mut sources_by_label: Vec<Vec<u32>> = vec![Vec::new(); m];
    while let Some(s) = queue.pop_front() {
        for (l, t) in lts.successors(s) {
            gate.check(cancel)?;
            if visited[t as usize] {
                chords.push((s, l, t));
            } else {
                let mut p = psi[s as usize].clone();
                p[l as usize] += 1;
                psi[t as usize] = p;
                visited[t as usize] = true;
                queue.push_back(t);
            }
        }
    }
    if let Some(unreached) = visited.iter().position(|&v| !v) {
        return Err(SynthesisError::Unreachable {
            state: lts.state_name(unreached as u32).to_string(),
        });
    }
    for s in 0..n as u32 {
        for (l, _) in lts.successors(s) {
            edge_list.push((s, l));
            sources_by_label[l as usize].push(s);
        }
    }

    // Cycle equations, transposed for the Farkas solver: one sparse row per variable
    // (prod then cons per label), columns indexed by equation.
    let mut var_rows: Vec<Vec<(u32, i128)>> = vec![Vec::new(); 2 * m];
    let mut equations = 0u32;
    let mut coeffs = vec![0i64; m];
    for &(s, l, t) in &chords {
        gate.check(cancel)?;
        let mut nonzero = 0u64;
        for f in 0..m {
            let mut c = psi[s as usize][f] - psi[t as usize][f];
            if f == l as usize {
                c += 1;
            }
            coeffs[f] = c;
            if c != 0 {
                nonzero += 1;
            }
        }
        if nonzero == 0 {
            continue;
        }
        meter.charge(nonzero * 2 * 24, STAGE_LTS)?;
        for (f, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                var_rows[f].push((equations, c as i128));
                var_rows[m + f].push((equations, -(c as i128)));
            }
        }
        equations += 1;
    }

    // ---- synthesis-regions: extremal gradients via the semiflow solver ----
    let (semis, complete) = farkas_sparse(&var_rows, 2 * m);
    if !complete || semis.len() > opts.max_regions {
        return Err(SynthesisError::RegionOverflow);
    }
    let ctx = Ctx {
        lts,
        n,
        m,
        edge_list,
        sources_by_label,
    };
    let mut cands: Vec<Candidate> = Vec::with_capacity(semis.len());
    for sf in &semis {
        gate.check(cancel)?;
        meter.charge(
            (2 * m as u64 + n as u64 + m as u64).saturating_mul(16),
            STAGE_REGIONS,
        )?;
        let prod: Vec<u64> = sf.vector[..m].to_vec();
        let cons: Vec<u64> = sf.vector[m..].to_vec();
        let d = potentials(&psi, &prod, &cons)?;
        let min_src = ctx
            .sources_by_label
            .iter()
            .map(|srcs| srcs.iter().map(|&q| d[q as usize]).min())
            .collect();
        cands.push(Candidate {
            prod,
            cons,
            d,
            min_src,
        });
    }

    // ---- synthesis-separation: state separation by partition refinement ----
    let mut selected: Vec<PlaceSpec> = Vec::new();
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut ssp_splits = 0usize;
    loop {
        gate.check(cancel)?;
        let mut pair: Option<(u32, u32)> = None;
        {
            let mut seen: HashMap<&[u64], u32> = HashMap::with_capacity(n);
            for s in 0..n as u32 {
                match seen.entry(keys[s as usize].as_slice()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        pair = Some((*e.get(), s));
                        break;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(s);
                    }
                }
            }
        }
        let Some((a, b)) = pair else { break };
        let Some(ci) = cands
            .iter()
            .position(|c| c.d[a as usize] != c.d[b as usize])
        else {
            return Err(SynthesisError::StateSeparation {
                left: lts.state_name(a).to_string(),
                right: lts.state_name(b).to_string(),
            });
        };
        meter.charge((n as u64).saturating_mul(8), STAGE_SEPARATION)?;
        let place = make_place(
            &ctx,
            cands[ci].prod.clone(),
            cands[ci].cons.clone(),
            cands[ci].d.clone(),
        )?;
        for (s, key) in keys.iter_mut().enumerate() {
            key.push(sigma_u64(&place, s));
        }
        selected.push(place);
        ssp_splits += 1;
    }

    // Dead labels: an empty self-loop place pins each never-observed label disabled.
    for e in 0..m {
        if ctx.sources_by_label[e].is_empty() {
            let mut unit = vec![0u64; m];
            unit[e] = 1;
            selected.push(PlaceSpec {
                prod: unit.clone(),
                cons: unit,
                d: vec![0i64; n],
                sigma0: 0,
            });
        }
    }

    // ---- synthesis-separation: event/state separation ----
    let mut essp_instances = 0usize;
    let mut essp_composed = 0usize;
    for s in 0..n {
        for e in 0..m {
            if ctx.sources_by_label[e].is_empty() || lts.enables(s as u32, e as u32) {
                continue;
            }
            essp_instances += 1;
            gate.check(cancel)?;
            if selected.iter().any(|p| p.sigma(s) < p.cons[e] as i128) {
                continue; // already disabled here
            }
            // Boost an already-selected place when its potential permits: raising
            // cons[e] and prod[e] in lockstep keeps the gradient, and staying at or
            // under the minimum over e's source states keeps every observed edge
            // enabled.
            if let Some(pi) = selected.iter().position(|p| {
                let min_src = ctx.sources_by_label[e]
                    .iter()
                    .map(|&q| p.sigma(q as usize))
                    .min()
                    .expect("label has sources");
                p.sigma(s) < min_src
            }) {
                boost(&mut selected[pi], e, s)?;
                continue;
            }
            // Select a fresh extremal candidate that under-marks `s`.
            if let Some(ci) = cands.iter().position(|c| match c.min_src[e] {
                Some(min_src) => c.d[s] < min_src,
                None => false,
            }) {
                let mut place = make_place(
                    &ctx,
                    cands[ci].prod.clone(),
                    cands[ci].cons.clone(),
                    cands[ci].d.clone(),
                )?;
                if place.sigma(s) >= place.cons[e] as i128 {
                    boost(&mut place, e, s)?;
                }
                selected.push(place);
                continue;
            }
            // Compose a separating region from a non-negative combination of
            // candidates, or prove none exists.
            essp_composed += 1;
            let place = compose(&ctx, &cands, s, e, &mut meter)?;
            selected.push(place);
        }
    }

    // ---- emission ----
    let mut prefix = String::from("r");
    while (0..selected.len()).any(|i| {
        let name = format!("{prefix}{i}");
        lts.label_by_name(&name).is_some()
    }) {
        prefix.insert(0, '_');
    }
    let mut b = NetBuilder::new(lts.name());
    let tids: Vec<_> = (0..m)
        .map(|l| b.transition(lts.label_name(l as u32)))
        .collect();
    for (i, p) in selected.iter().enumerate() {
        let pid = b.place(format!("{prefix}{i}"), p.sigma0);
        for (l, &tid) in tids.iter().enumerate() {
            if p.cons[l] > 0 {
                b.arc_p_t(pid, tid, p.cons[l])
                    .expect("region arcs are unique and positively weighted");
            }
            if p.prod[l] > 0 {
                b.arc_t_p(tid, pid, p.prod[l])
                    .expect("region arcs are unique and positively weighted");
            }
        }
    }
    let net = b
        .build()
        .expect("region places and labels have distinct names");

    if opts.require_free_choice {
        if let Some((place, transition)) = free_choice_violation(&net) {
            return Err(SynthesisError::NotFreeChoice { place, transition });
        }
    }

    // ---- verification: re-explore and pin isomorphism ----
    if opts.verify {
        let max_tok = selected
            .iter()
            .map(|p| (0..n).map(|s| sigma_u64(p, s)).max().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let explore = ExploreOptions {
            reach: ReachabilityOptions {
                max_markings: n + 1,
                max_tokens_per_place: max_tok.max(1),
            },
            width: TokenWidth::U64,
            cancel: cancel.clone(),
            memory: opts.memory.clone(),
            ..ExploreOptions::default()
        };
        let space =
            StateSpace::try_explore_with(&net, &explore).map_err(SynthesisError::Interrupted)?;
        let realized = match Lts::from_statespace(&net, &space) {
            Ok(realized) => realized,
            Err(_) => return Err(SynthesisError::RealizationMismatch),
        };
        if !Lts::isomorphic(lts, &realized) {
            return Err(SynthesisError::RealizationMismatch);
        }
    }

    Ok(SynthesizedNet {
        net,
        stats: SynthesisStats {
            states: n,
            labels: m,
            cycle_equations: equations as usize,
            candidate_regions: cands.len(),
            places: selected.len(),
            ssp_splits,
            essp_instances,
            essp_composed,
            verified: opts.verify,
        },
    })
}

/// `Δ·ψ(s)` for every state, with overflow mapped to the typed error.
fn potentials(psi: &[Vec<i64>], prod: &[u64], cons: &[u64]) -> Result<Vec<i64>, SynthesisError> {
    let m = prod.len();
    let delta: Vec<(usize, i128)> = (0..m)
        .filter_map(|f| {
            let d = prod[f] as i128 - cons[f] as i128;
            (d != 0).then_some((f, d))
        })
        .collect();
    psi.iter()
        .map(|row| {
            let mut acc: i128 = 0;
            for &(f, d) in &delta {
                acc += d * row[f] as i128;
            }
            i64::try_from(acc).map_err(|_| SynthesisError::RegionOverflow)
        })
        .collect()
}

/// Completes a gradient into a region by choosing the smallest admissible `σ₀`: large
/// enough that every state's count is non-negative and every observed edge is enabled.
fn make_place(
    ctx: &Ctx<'_>,
    prod: Vec<u64>,
    cons: Vec<u64>,
    d: Vec<i64>,
) -> Result<PlaceSpec, SynthesisError> {
    let mut sigma0: i128 = 0;
    for &v in &d {
        sigma0 = sigma0.max(-(v as i128));
    }
    for &(q, l) in &ctx.edge_list {
        sigma0 = sigma0.max(cons[l as usize] as i128 - d[q as usize] as i128);
    }
    let sigma0 = u64::try_from(sigma0).map_err(|_| SynthesisError::RegionOverflow)?;
    let place = PlaceSpec {
        prod,
        cons,
        d,
        sigma0,
    };
    // The whole reachable range must fit the token game's u64 counts.
    for s in 0..ctx.n {
        if u64::try_from(place.sigma(s)).is_err() {
            return Err(SynthesisError::RegionOverflow);
        }
    }
    Ok(place)
}

fn sigma_u64(p: &PlaceSpec, s: usize) -> u64 {
    u64::try_from(p.sigma(s)).expect("make_place checked the reachable range")
}

/// Raises `cons[e]` (and `prod[e]`, preserving the gradient) just past `σ(s)`, so the
/// place disables `e` in state `s`. The caller guarantees `σ(s)` is strictly below the
/// minimum over `e`'s source states, so every observed `e`-edge stays enabled.
fn boost(p: &mut PlaceSpec, e: usize, s: usize) -> Result<(), SynthesisError> {
    let new_cons = u64::try_from(p.sigma(s) + 1).map_err(|_| SynthesisError::RegionOverflow)?;
    debug_assert!(new_cons > p.cons[e]);
    let raise = new_cons - p.cons[e];
    p.cons[e] = new_cons;
    p.prod[e] = p.prod[e]
        .checked_add(raise)
        .ok_or(SynthesisError::RegionOverflow)?;
    Ok(())
}

/// Solves one event/state separation instance by non-negative combination: find
/// `λ ≥ 0` with `Σλᵢ·(dᵢ(q) − dᵢ(s)) ≥ 1` for every source state `q` of `e`. Phrased
/// homogeneously (`Bλ − μ − t·1 = 0`, slack `μ ≥ 0`, scale `t ≥ 0`) it is a semiflow
/// problem; a minimal solution with `t > 0` exists iff the instance is solvable.
fn compose(
    ctx: &Ctx<'_>,
    cands: &[Candidate],
    s: usize,
    e: usize,
    meter: &mut crate::budget::BudgetMeter,
) -> Result<PlaceSpec, SynthesisError> {
    let k = cands.len();
    // Distinct inequality rows: one per distinct coefficient vector over candidates.
    let mut row_index: HashMap<Vec<i128>, u32> = HashMap::new();
    for &q in &ctx.sources_by_label[e] {
        let w: Vec<i128> = cands
            .iter()
            .map(|c| c.d[q as usize] as i128 - c.d[s] as i128)
            .collect();
        let next = row_index.len() as u32;
        row_index.entry(w).or_insert(next);
    }
    let rows = row_index.len();
    meter.charge(
        ((rows as u64) * (k as u64 + 2)).saturating_mul(24),
        STAGE_SEPARATION,
    )?;
    // Transposed variable rows: λ₁..λₖ, then one slack per inequality, then t.
    let mut var_rows: Vec<Vec<(u32, i128)>> = vec![Vec::new(); k + rows + 1];
    let mut ordered: Vec<(&Vec<i128>, u32)> = row_index.iter().map(|(w, &r)| (w, r)).collect();
    ordered.sort_by_key(|&(_, r)| r);
    for (w, r) in ordered {
        for (i, &coeff) in w.iter().enumerate() {
            if coeff != 0 {
                var_rows[i].push((r, coeff));
            }
        }
        var_rows[k + r as usize].push((r, -1));
        var_rows[k + rows].push((r, -1));
    }
    let (semis, complete) = farkas_sparse(&var_rows, k + rows + 1);
    if !complete {
        return Err(SynthesisError::RegionOverflow);
    }
    let Some(sf) = semis.iter().find(|sf| sf.vector[k + rows] > 0) else {
        return Err(SynthesisError::EventStateSeparation {
            state: ctx.lts.state_name(s as u32).to_string(),
            label: ctx.lts.label_name(e as u32).to_string(),
        });
    };
    let lambda = &sf.vector[..k];
    let mut prod = vec![0u64; ctx.m];
    let mut cons = vec![0u64; ctx.m];
    let mut d128 = vec![0i128; ctx.n];
    for (i, &li) in lambda.iter().enumerate() {
        if li == 0 {
            continue;
        }
        for f in 0..ctx.m {
            prod[f] = prod[f]
                .checked_add(
                    cands[i].prod[f]
                        .checked_mul(li)
                        .ok_or(SynthesisError::RegionOverflow)?,
                )
                .ok_or(SynthesisError::RegionOverflow)?;
            cons[f] = cons[f]
                .checked_add(
                    cands[i].cons[f]
                        .checked_mul(li)
                        .ok_or(SynthesisError::RegionOverflow)?,
                )
                .ok_or(SynthesisError::RegionOverflow)?;
        }
        for (q, dq) in d128.iter_mut().enumerate().take(ctx.n) {
            *dq += li as i128 * cands[i].d[q] as i128;
        }
    }
    let d: Vec<i64> = d128
        .into_iter()
        .map(|v| i64::try_from(v).map_err(|_| SynthesisError::RegionOverflow))
        .collect::<Result<_, _>>()?;
    let mut place = make_place(ctx, prod, cons, d)?;
    if place.sigma(s) >= place.cons[e] as i128 {
        boost(&mut place, e, s)?;
    }
    Ok(place)
}

/// First `(place, transition)` pair violating the free-choice condition, by name:
/// a choice place whose successor transition has other inputs as well.
fn free_choice_violation(net: &crate::PetriNet) -> Option<(String, String)> {
    for p in net.places() {
        let consumers = net.consumers(p);
        if consumers.len() <= 1 {
            continue;
        }
        for &(t, _) in consumers {
            if net.inputs(t).len() != 1 {
                return Some((
                    net.place_name(p).to_string(),
                    net.transition_name(t).to_string(),
                ));
            }
        }
    }
    None
}
