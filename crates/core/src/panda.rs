//! PANDA-C: compiling a proof sequence into a relational circuit
//! (Sec. 4.4, Alg. 1).
//!
//! PANDA-C is a *query compiler*: it consumes only the query, the degree
//! constraints, and a proof sequence — never the data — and emits a
//! relational circuit of `Õ(1)` gates whose cost is `Õ(N + DAPB(Q))`
//! (Theorem 3). The run mirrors Alg. 1:
//!
//! * submodularity steps re-associate which constraint *supports* which
//!   in-flight conditional term (no gates);
//! * monotonicity steps project a guard relation (one projection gate);
//! * decomposition steps split a guard by degree (Alg. 2) and branch the
//!   compilation into one sub-state per part;
//! * composition steps join two guards with a degree-bounded join —
//!   unless the product bound exceeds `DAPB`, in which case the
//!   Shannon-flow inequality is re-proved under the current (augmented)
//!   constraints and compilation continues with the fresh sequence
//!   (Alg. 1 lines 28–31);
//! * a branch terminates as soon as some available relation covers the
//!   target (Alg. 1 lines 1–2).
//!
//! Branch outputs may contain false positives (Example 2); they are
//! removed by semijoining the union against every input relation inside
//! the target.

use std::collections::BTreeMap;

use qec_bignum::Rat;
use qec_entropy::{
    polymatroid_bound, prove_bound_opts, Bound, ChainProofError, ProofStep, ProveOpts,
    ShannonFlowProof, Term, WeightedStep,
};
use qec_query::Cq;
use qec_relation::{DcSet, DegreeConstraint, VarSet};

use crate::rc::{NodeId, RelationalCircuit};

/// Compilation failures.
#[derive(Debug)]
pub enum CompileError {
    /// No proof sequence could be constructed.
    Chain(ChainProofError),
    /// An atom has no cardinality constraint, so its wire cannot be
    /// bounded.
    UnguardedAtom(String),
    /// A degree constraint has no relation (atom or projection of one)
    /// that can guard it.
    NoGuard {
        /// Conditioning set of the orphaned constraint.
        on: VarSet,
        /// Constrained set of the orphaned constraint.
        of: VarSet,
    },
    /// The truncation re-proof recursion exceeded its depth cap.
    TruncationDepth,
    /// Internal invariant violation (a bug, surfaced instead of emitting
    /// an unsound circuit).
    Internal(&'static str),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Chain(e) => write!(f, "proof construction failed: {e}"),
            CompileError::UnguardedAtom(a) => {
                write!(f, "atom {a} has no cardinality constraint")
            }
            CompileError::NoGuard { on, of } => {
                write!(f, "degree constraint ({of}|{on}) has no guard relation")
            }
            CompileError::TruncationDepth => write!(f, "truncation re-proof recursion too deep"),
            CompileError::Internal(m) => write!(f, "internal compiler invariant violated: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled PANDA-C circuit.
pub struct PandaCircuit {
    /// The relational circuit; its single output is the target relation
    /// after false-positive filtering.
    pub rc: RelationalCircuit,
    /// Output node.
    pub output: NodeId,
    /// The polymatroid bound the circuit was sized for.
    pub bound: Bound,
    /// The proof sequence that drove compilation.
    pub proof: ShannonFlowProof,
    /// Number of leaf branches the compilation produced (the polylog
    /// factor of Theorem 3's circuit size).
    pub branches: usize,
}

/// One guarded constraint of the evolving `DC'` set.
#[derive(Clone, Debug)]
struct CEntry {
    on: VarSet,
    of: VarSet,
    bound: u64,
    guard: NodeId,
}

/// A compilation state: available relations, guarded constraints, and the
/// support map from in-flight proof terms to constraint entries.
#[derive(Clone)]
struct State {
    rels: Vec<(VarSet, NodeId)>,
    dc: Vec<CEntry>,
    supports: BTreeMap<Term, Vec<(usize, Rat)>>,
}

impl State {
    fn take_support(&mut self, term: Term, weight: &Rat) -> Result<usize, CompileError> {
        let entries = self
            .supports
            .get_mut(&term)
            .ok_or(CompileError::Internal("support missing for term"))?;
        // consume `weight` across entries; report the entry holding the
        // largest share as the representative guard
        let mut remaining = weight.clone();
        let mut best: Option<(usize, Rat)> = None;
        for (idx, w) in entries.iter_mut() {
            if remaining.is_zero() {
                break;
            }
            if !w.is_positive() {
                continue;
            }
            let used = if *w < remaining {
                w.clone()
            } else {
                remaining.clone()
            };
            if best.as_ref().is_none_or(|(_, bw)| used > *bw) {
                best = Some((*idx, used.clone()));
            }
            *w = &*w - &used;
            remaining = &remaining - &used;
        }
        if !remaining.is_zero() {
            return Err(CompileError::Internal("support exhausted"));
        }
        Ok(best.expect("positive weight consumed").0)
    }

    fn add_support(&mut self, term: Term, entry: usize, weight: Rat) {
        self.supports.entry(term).or_default().push((entry, weight));
    }

    fn find_cardinality(&self, of: VarSet) -> Option<usize> {
        // tightest cardinality entry with the exact schema
        self.dc
            .iter()
            .enumerate()
            .filter(|(_, e)| e.on.is_empty() && e.of == of)
            .min_by_key(|(_, e)| e.bound)
            .map(|(i, _)| i)
    }

    fn covering_relation(&self, target: VarSet) -> Option<(VarSet, NodeId)> {
        self.rels
            .iter()
            .copied()
            .find(|(s, _)| target.is_subset(*s))
    }

    /// Adds implied degree entries `(X, F, N_F)` for every cardinality
    /// entry, so a fresh proof's terms always find a guarded constraint.
    fn add_implied(&mut self) {
        let cards: Vec<CEntry> = self
            .dc
            .iter()
            .filter(|e| e.on.is_empty() && e.of.len() >= 2)
            .cloned()
            .collect();
        for e in cards {
            for x in e.of.subsets() {
                if x.is_empty() || x == e.of {
                    continue;
                }
                let exists = self
                    .dc
                    .iter()
                    .any(|d| d.on == x && d.of == e.of && d.bound <= e.bound);
                if !exists {
                    self.dc.push(CEntry {
                        on: x,
                        of: e.of,
                        bound: e.bound,
                        guard: e.guard,
                    });
                }
            }
        }
    }

    fn to_dcset(&self) -> DcSet {
        DcSet::from_vec(
            self.dc
                .iter()
                .map(|e| DegreeConstraint {
                    on: e.on,
                    of: e.of,
                    bound: e.bound,
                })
                .collect(),
        )
    }
}

/// Compiles PANDA-C for an arbitrary target (a full query's variable set
/// or a GHD bag), given input atoms and degree constraints. Returns the
/// circuit fragment's output node appended to `rc`.
pub(crate) fn compile_target(
    rc: &mut RelationalCircuit,
    inputs: &[(String, VarSet, NodeId)],
    dc: &DcSet,
    target: VarSet,
    num_vars: u32,
) -> Result<(NodeId, Bound, ShannonFlowProof, usize), CompileError> {
    let bound = polymatroid_bound(num_vars, dc, target)
        .map_err(|e| CompileError::Chain(ChainProofError::Bound(e)))?;
    let proof = prove_bound_opts(
        num_vars,
        dc,
        target,
        ProveOpts {
            known_bound: Some(bound.log_value.clone()),
            ..ProveOpts::default()
        },
    )
    .map_err(CompileError::Chain)?;

    // Initial state: atoms as relations; every constraint guarded either
    // by an atom with the exact schema or by a fresh projection of a
    // covering atom (Sec. 3.1's pre-computation).
    let mut state = State {
        rels: Vec::new(),
        dc: Vec::new(),
        supports: BTreeMap::new(),
    };
    for (_, schema, node) in inputs {
        state.rels.push((*schema, *node));
    }
    // Guard every constraint, including the implied degree constraints the
    // proof may reference (same augmentation as `prove_bound`). Guards for
    // constraints without an exact-schema atom are projections of a
    // covering atom (Sec. 3.1's pre-computation), shared per schema.
    let augmented = qec_entropy::with_implied_degrees(dc);
    let mut guard_cache: BTreeMap<VarSet, NodeId> = BTreeMap::new();
    for c in augmented.iter() {
        let guard = match guard_cache.get(&c.of) {
            Some(&g) => g,
            None => {
                let g = match inputs.iter().find(|(_, s, _)| *s == c.of) {
                    Some((_, _, node)) => *node,
                    None => match inputs.iter().find(|(_, s, _)| c.of.is_subset(*s)) {
                        Some((_, _, node)) => {
                            let p = rc.project(*node, c.of);
                            state.rels.push((c.of, p));
                            p
                        }
                        None => return Err(CompileError::NoGuard { on: c.on, of: c.of }),
                    },
                };
                guard_cache.insert(c.of, g);
                g
            }
        };
        state.dc.push(CEntry {
            on: c.on,
            of: c.of,
            bound: c.bound,
            guard,
        });
    }
    // Supports from the proof's δ.
    init_supports(&mut state, &proof)?;

    // DAPB in tuple units, inflated to the chain certificate if the chain
    // was not tight (keeps the line-23 check consistent with the wires we
    // can actually afford).
    let log_budget = bound.log_value.clone().max(proof.log_cost.clone());
    let dapb: u128 = {
        let e = log_budget.ceil().to_i64().unwrap_or(127).clamp(0, 127) as u32;
        1u128 << e
    };

    let mut branches = 0usize;
    let ctx = Ctx {
        target,
        num_vars,
        dapb,
        log_budget,
    };
    let outputs = compile_rec(rc, state, &proof.steps, &ctx, 0, &mut branches)?;
    if outputs.is_empty() {
        return Err(CompileError::Internal("no branch produced the target"));
    }
    // Union all branch outputs, then filter false positives against every
    // input relation inside the target.
    let mut acc = outputs[0];
    for &o in &outputs[1..] {
        acc = rc.union(acc, o);
    }
    for (_, schema, node) in inputs {
        if schema.is_subset(target) {
            acc = rc.semijoin(acc, *node);
        }
    }
    Ok((acc, bound, proof, branches))
}

fn init_supports(state: &mut State, proof: &ShannonFlowProof) -> Result<(), CompileError> {
    state.supports.clear();
    for (term, w) in &proof.delta {
        let entry = state
            .dc
            .iter()
            .enumerate()
            .filter(|(_, e)| e.on == term.on && e.of == term.of)
            .min_by_key(|(_, e)| e.bound)
            .map(|(i, _)| i)
            .ok_or(CompileError::Internal("δ term without matching constraint"))?;
        state.add_support(*term, entry, w.clone());
    }
    Ok(())
}

/// Immutable compilation context threaded through the recursion.
struct Ctx {
    target: VarSet,
    num_vars: u32,
    /// `DAPB` in tuples (the Alg. 1 line-23 budget).
    dapb: u128,
    /// `log₂ DAPB` — the acceptance threshold for truncation re-proofs.
    log_budget: Rat,
}

fn compile_rec(
    rc: &mut RelationalCircuit,
    mut state: State,
    steps: &[WeightedStep],
    ctx: &Ctx,
    depth: usize,
    branches: &mut usize,
) -> Result<Vec<NodeId>, CompileError> {
    let target = ctx.target;
    let dapb = ctx.dapb;
    // Alg. 1 lines 1–2: a covering relation terminates the branch.
    if let Some((schema, node)) = state.covering_relation(target) {
        *branches += 1;
        let out = if schema == target {
            node
        } else {
            rc.project(node, target)
        };
        return Ok(vec![out]);
    }
    let Some((ws, rest)) = steps.split_first() else {
        return Err(CompileError::Internal(
            "proof exhausted before covering the target",
        ));
    };
    match ws.step {
        ProofStep::Sub { i, j } => {
            // Re-associate support from (I∩J, I) to (J, I∪J); no gates.
            let from = Term {
                on: i.intersect(j),
                of: i,
            };
            let to = Term {
                on: j,
                of: i.union(j),
            };
            let entry = state.take_support(from, &ws.weight)?;
            state.add_support(to, entry, ws.weight.clone());
            compile_rec(rc, state, rest, ctx, depth, branches)
        }
        ProofStep::Mono { x, y } => {
            // Lines 7–11 (modified): project the guard, N_X := N_Y.
            let entry = state.take_support(Term::plain(y), &ws.weight)?;
            let e = state.dc[entry].clone();
            let p = rc.project(e.guard, x);
            state.rels.push((x, p));
            state.dc.push(CEntry {
                on: VarSet::EMPTY,
                of: x,
                bound: e.bound,
                guard: p,
            });
            let new_entry = state.dc.len() - 1;
            state.add_support(Term::plain(x), new_entry, ws.weight.clone());
            compile_rec(rc, state, rest, ctx, depth, branches)
        }
        ProofStep::Decomp { y, x } => {
            // Lines 12–19: decompose the guard, branch per part.
            let entry = state.take_support(Term::plain(y), &ws.weight)?;
            let guard = state.dc[entry].guard;
            let parts = rc.decompose(guard, x);
            let mut outputs = Vec::new();
            for (part, card, deg) in parts {
                let mut child = state.clone();
                let mut proj = rc.project(part, x);
                // condition (4c): |Π_X(R^{(j)})| ≤ N_X^{(j)} — shrink the
                // wire so downstream joins are sized by the certified
                // bound, not the part's slot count
                if card < rc.nodes[proj].capacity {
                    proj = rc.truncate(proj, card);
                }
                child.rels.push((x, proj));
                child.rels.push((y, part));
                child.dc.push(CEntry {
                    on: VarSet::EMPTY,
                    of: x,
                    bound: card,
                    guard: proj,
                });
                let card_entry = child.dc.len() - 1;
                child.dc.push(CEntry {
                    on: x,
                    of: y,
                    bound: deg,
                    guard: part,
                });
                let deg_entry = child.dc.len() - 1;
                child.add_support(Term::plain(x), card_entry, ws.weight.clone());
                child.add_support(Term::cond(x, y), deg_entry, ws.weight.clone());
                outputs.extend(compile_rec(rc, child, rest, ctx, depth, branches)?);
            }
            Ok(outputs)
        }
        ProofStep::Comp { x, y } => {
            // Lines 20–31.
            let x_entry = state.find_cardinality(x).ok_or(CompileError::Internal(
                "composition without cardinality guard",
            ))?;
            let sup_entry = state.take_support(Term::cond(x, y), &ws.weight)?;
            // also consume the (∅, X) weight to keep books balanced
            let _ = state.take_support(Term::plain(x), &ws.weight)?;
            let xe = state.dc[x_entry].clone();
            let we = state.dc[sup_entry].clone();
            debug_assert!(we.on.is_subset(x) && x.union(we.of) == y, "support shape");
            let product = u128::from(xe.bound) * u128::from(we.bound);
            if product <= dapb {
                // Line 24: T_Y ← R_X ⋈ R_W with deg bound N_{W|Z}.
                let t = rc.join_degree(xe.guard, we.guard, we.bound);
                state.rels.push((y, t));
                state.dc.push(CEntry {
                    on: VarSet::EMPTY,
                    of: y,
                    bound: xe.bound.saturating_mul(we.bound),
                    guard: t,
                });
                let new_entry = state.dc.len() - 1;
                state.add_support(Term::plain(y), new_entry, ws.weight.clone());
                compile_rec(rc, state, rest, ctx, depth, branches)
            } else {
                // Lines 28–31: re-prove under the current constraints and
                // continue with the fresh sequence.
                if depth >= 24 {
                    return Err(CompileError::TruncationDepth);
                }
                let dc_now = state.to_dcset();
                let fresh = prove_bound_opts(
                    ctx.num_vars,
                    &dc_now,
                    target,
                    ProveOpts {
                        accept_at: Some(ctx.log_budget.clone()),
                        ..ProveOpts::default()
                    },
                )
                .map_err(CompileError::Chain)?;
                state.add_implied();
                init_supports(&mut state, &fresh)?;
                compile_rec(rc, state, &fresh.steps, ctx, depth + 1, branches)
            }
        }
    }
}

/// Compiles a full conjunctive query (every variable free) into a
/// relational circuit computing `Q(D)` exactly, sized by the degree
/// constraints (Theorem 3). Every atom must carry a cardinality
/// constraint in `dc`.
///
/// ```
/// use qec_core::compile_fcq;
/// use qec_query::parse_cq;
/// use qec_relation::{DcSet, DegreeConstraint};
///
/// let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").unwrap();
/// let dc = DcSet::from_vec(
///     q.atoms.iter().map(|a| DegreeConstraint::cardinality(a.vars, 64)).collect(),
/// );
/// let compiled = compile_fcq(&q, &dc).unwrap();
/// // AGM bound: output ≤ N^{3/2} = 2^9
/// assert_eq!(compiled.bound.log_value, qec_bignum::rat(9, 1));
/// // Õ(1) relational gates, 2(1+log₂ 64) parallel branches
/// assert!(compiled.rc.nodes.len() < 200);
/// assert_eq!(compiled.branches, 14);
/// ```
pub fn compile_fcq(cq: &Cq, dc: &DcSet) -> Result<PandaCircuit, CompileError> {
    assert!(
        cq.is_full(),
        "compile_fcq expects a full CQ; use OutputSensitive otherwise"
    );
    let mut compiled = compile_body(cq, dc)?;
    compiled.rc.mark_output(compiled.output);
    Ok(compiled)
}

/// PANDA-C over the query's full body (every variable, whatever the
/// head), with no output marked: the planner's candidate, which it
/// projects onto the head itself.
pub(crate) fn compile_body(cq: &Cq, dc: &DcSet) -> Result<PandaCircuit, CompileError> {
    let mut rc = RelationalCircuit::new();
    let mut inputs = Vec::new();
    for atom in &cq.atoms {
        let cap = dc
            .cardinality_of(atom.vars)
            .ok_or_else(|| CompileError::UnguardedAtom(atom.name.clone()))?;
        let node = rc.input(atom.name.clone(), atom.vars, cap);
        inputs.push((atom.name.clone(), atom.vars, node));
    }
    let (output, bound, proof, branches) =
        compile_target(&mut rc, &inputs, dc, cq.all_vars(), cq.num_vars())?;
    Ok(PandaCircuit {
        rc,
        output,
        bound,
        proof,
        branches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::{baseline::evaluate_pairwise, k_cycle, parse_cq, triangle};
    use qec_relation::{
        agm_worst_case_triangle, random_relation, Database, DegreeConstraint, Relation, Var,
    };

    fn vs(bits: &[u32]) -> VarSet {
        bits.iter().map(|&i| Var(i)).collect()
    }

    fn triangle_dc(n: u64) -> DcSet {
        DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), n),
            DegreeConstraint::cardinality(vs(&[1, 2]), n),
            DegreeConstraint::cardinality(vs(&[0, 2]), n),
        ])
    }

    fn triangle_db(n: usize, seed: u64) -> Database {
        let mut db = Database::new();
        db.insert("R", random_relation(vec![Var(0), Var(1)], n, seed));
        db.insert("S", random_relation(vec![Var(1), Var(2)], n, seed + 1));
        db.insert("T", random_relation(vec![Var(0), Var(2)], n, seed + 2));
        db
    }

    #[test]
    fn triangle_compiles_and_matches_baseline_ram() {
        let q = triangle();
        let p = compile_fcq(&q, &triangle_dc(32)).unwrap();
        // Õ(1) relational gates: a couple hundred at N = 32, not Ω(N)
        assert!(p.rc.nodes.len() < 600, "gates: {}", p.rc.nodes.len());
        // branch count = 2·(1 + log N) — one decomposition, like Example 2
        assert_eq!(p.branches, 2 * (1 + 32u64.ilog2()) as usize);
        for seed in 0..4 {
            let db = triangle_db(30, seed);
            let got = p.rc.evaluate_ram(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn triangle_lowered_circuit_matches_baseline() {
        let q = triangle();
        let p = compile_fcq(&q, &triangle_dc(16)).unwrap();
        let lowered = p.rc.lower();
        for seed in 0..3 {
            let db = triangle_db(14, seed * 7);
            let got = lowered.run(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn triangle_agm_worst_case() {
        let q = triangle();
        let p = compile_fcq(&q, &triangle_dc(16)).unwrap();
        let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), 16);
        let mut db = Database::new();
        db.insert("R", r);
        db.insert("S", s);
        db.insert("T", t);
        let got = p.rc.evaluate_ram(&db).unwrap();
        assert_eq!(got[0].len(), 64); // 16^{1.5}
        let expect = evaluate_pairwise(&q, &db).unwrap();
        assert_eq!(got[0], expect);
    }

    #[test]
    fn triangle_with_degree_constraint() {
        let q = triangle();
        let mut dc = triangle_dc(32);
        dc.add(DegreeConstraint::degree(vs(&[1]), vs(&[1, 2]), 4));
        let p = compile_fcq(&q, &dc).unwrap();
        for seed in 0..3 {
            let mut db = triangle_db(30, seed);
            // enforce the degree constraint on S
            let s = qec_relation::random_degree_bounded(Var(1), Var(2), 30, 4, seed + 40);
            db.insert("S", s);
            // R and T keys must overlap S's group space for joins to fire
            let r = Relation::from_rows(
                vec![Var(0), Var(1)],
                (0..20u64).map(|i| vec![i % 6, i % 8]).collect(),
            );
            db.insert("R", r);
            let got = p.rc.evaluate_ram(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn functional_dependency_query() {
        // Q(a,b,c) :- R(a,b), S(b,c) with FD b→c: output ≤ N.
        let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)").unwrap();
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), 32),
            DegreeConstraint::cardinality(vs(&[1, 2]), 32),
            DegreeConstraint::fd(vs(&[1]), vs(&[1, 2])),
        ]);
        let p = compile_fcq(&q, &dc).unwrap();
        assert_eq!(p.bound.log_value, qec_bignum::rat(5, 1));
        for seed in 0..3 {
            let mut db = Database::new();
            db.insert("R", random_relation(vec![Var(0), Var(1)], 30, seed));
            db.insert(
                "S",
                qec_relation::random_degree_bounded(Var(1), Var(2), 30, 1, seed + 3),
            );
            let got = p.rc.evaluate_ram(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn four_cycle_compiles() {
        let q = k_cycle(4);
        let mut cs = Vec::new();
        for a in &q.atoms {
            cs.push(DegreeConstraint::cardinality(a.vars, 24));
        }
        let p = compile_fcq(&q, &DcSet::from_vec(cs)).unwrap();
        for seed in 0..3 {
            let mut db = Database::new();
            for a in &q.atoms {
                db.insert(
                    a.name.clone(),
                    random_relation(a.vars.to_vec(), 20, seed * 11 + a.vars.0),
                );
            }
            let got = p.rc.evaluate_ram(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn two_path_join_compiles() {
        // the plain binary join Q(a,b,c) :- R(a,b), S(b,c)
        let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)").unwrap();
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), 16),
            DegreeConstraint::cardinality(vs(&[1, 2]), 16),
        ]);
        let p = compile_fcq(&q, &dc).unwrap();
        for seed in 0..3 {
            let mut db = Database::new();
            db.insert("R", random_relation(vec![Var(0), Var(1)], 14, seed));
            db.insert("S", random_relation(vec![Var(1), Var(2)], 14, seed + 5));
            let got = p.rc.evaluate_ram(&db).unwrap();
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn a_query_too_wide_for_the_bound_lp_is_an_error() {
        // A 17-variable path: one variable past what the LP accepts.
        let head: Vec<String> = (0..17).map(|i| format!("x{i}")).collect();
        let body: Vec<String> = (0..16).map(|i| format!("R{i}(x{i}, x{})", i + 1)).collect();
        let q = parse_cq(&format!("Q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        assert_eq!(q.num_vars(), 17);
        let dc = DcSet::from_vec(
            q.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, 8))
                .collect(),
        );
        assert!(matches!(
            compile_fcq(&q, &dc),
            Err(CompileError::Chain(ChainProofError::Bound(
                qec_entropy::BoundError::TooManyVariables {
                    num_vars: 17,
                    max: 16
                }
            )))
        ));
    }

    #[test]
    fn missing_cardinality_is_an_error() {
        let q = triangle();
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), 16),
            DegreeConstraint::cardinality(vs(&[1, 2]), 16),
        ]);
        assert!(matches!(
            compile_fcq(&q, &dc),
            Err(CompileError::UnguardedAtom(_))
        ));
    }
}
