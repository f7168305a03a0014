//! Join-aggregate (FAQ/AJAR) queries over semirings by circuits (Sec. 7).
//!
//! Each input tuple carries an annotation from a commutative semiring;
//! the query computes, for every output tuple, the `⊕`-aggregate over all
//! of its derivations of the `⊗`-product of the contributing annotations.
//! Following the paper, this is Yannakakis-C with every projection
//! replaced by an `⊕`-aggregation and every join followed by a `⊗`-map —
//! neither changes the asymptotic depth or size, so Theorem 5 carries
//! over (with `da-fhtw`, not `da-subw`; see Sec. 7).

use qec_bignum::Rat;
use qec_query::{Cq, Ghd};
use qec_relation::{AggKind, Database, DcSet, Relation, Var, VarSet};

use crate::panda::{compile_target, CompileError};
use crate::rc::{MapBinOp, RelationalCircuit};
use crate::yannakakis::{da_fhtw, YannakakisError};

/// The annotation column in circuit outputs.
pub const ANNOT: Var = Var(62);
/// Scratch column.
const TMP: Var = Var(61);

/// Commutative semirings with a word-level implementation.
///
/// Elements are `u64` words. `MinTropical`'s `∞` is [`Semiring::INF`]
/// (`u64::MAX`): it is the additive identity (`min(∞, x) = x`) and `⊗`
/// saturates so that `∞ ⊗ x = ∞`. `Natural` arithmetic saturates at
/// `u64::MAX` instead of wrapping — the axioms survive saturation
/// because `sat(x) = min(x, MAX)` commutes with `+`/`×`/`min`/`max`
/// chains, so results are exact whenever the true value fits in a word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semiring {
    /// `(ℕ, +, ×)` — counting; all-one annotations count derivations.
    Natural,
    /// `(𝔹, ∨, ∧)` — Boolean provenance.
    Boolean,
    /// `(ℕ ∪ {∞}, min, +)` — shortest derivations.
    MinTropical,
    /// `(ℕ, max, +)` — heaviest derivations.
    MaxTropical,
}

impl Semiring {
    /// The `∞` element of [`Semiring::MinTropical`]. Reference-semantics
    /// only: stored relations never materialize `∞` (it coincides with
    /// the circuit layer's dummy-slot sentinel), they encode it as tuple
    /// absence.
    pub const INF: u64 = u64::MAX;

    /// Multiplicative identity.
    pub fn one(self) -> u64 {
        match self {
            Semiring::Natural | Semiring::Boolean => 1,
            Semiring::MinTropical | Semiring::MaxTropical => 0,
        }
    }

    /// Additive identity: the annotation of an absent tuple. For
    /// `MinTropical` this is `∞` ([`Semiring::INF`]); for the others, 0.
    pub fn zero(self) -> u64 {
        match self {
            Semiring::Natural | Semiring::Boolean | Semiring::MaxTropical => 0,
            Semiring::MinTropical => Self::INF,
        }
    }

    /// Whether `zero() ⊗ x = zero()` holds (true semiring annihilation).
    /// `MaxTropical` over `ℕ` lacks a `-∞`, so its `zero()` is only the
    /// `⊕`-identity, not absorbing for `⊗`.
    pub fn has_absorbing_zero(self) -> bool {
        !matches!(self, Semiring::MaxTropical)
    }

    /// The `⊕`-fold as a grouped aggregation over column `v`.
    pub fn plus_agg(self, v: Var) -> AggKind {
        match self {
            Semiring::Natural => AggKind::Sum(v),
            Semiring::Boolean | Semiring::MaxTropical => AggKind::Max(v),
            Semiring::MinTropical => AggKind::Min(v),
        }
    }

    /// The word-level `⊗` gate. Tropical `⊗` lowers to a *saturating*
    /// add so `∞ ⊗ x = ∞` holds bit-for-bit with the reference
    /// semantics.
    pub fn times_op(self) -> MapBinOp {
        match self {
            Semiring::Natural | Semiring::Boolean => MapBinOp::Mul,
            Semiring::MinTropical | Semiring::MaxTropical => MapBinOp::SatAdd,
        }
    }

    /// `a ⊕ b` (reference semantics). Saturating: never wraps, and
    /// `MinTropical`'s `∞` behaves as the identity.
    pub fn plus(self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Natural => a.saturating_add(b),
            Semiring::Boolean | Semiring::MaxTropical => a.max(b),
            Semiring::MinTropical => a.min(b),
        }
    }

    /// `a ⊗ b` (reference semantics). Saturating: never wraps, and
    /// `MinTropical`'s `∞` is absorbing (`∞ ⊗ x = ∞`).
    pub fn times(self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Natural | Semiring::Boolean => a.saturating_mul(b),
            Semiring::MinTropical | Semiring::MaxTropical => a.saturating_add(b),
        }
    }
}

/// A join-aggregate query: a CQ, a semiring, and (optionally) one
/// annotation attribute per atom. The stored relation for an annotated
/// atom has schema `atom.vars ∪ {annotation}` with the atom's variables a
/// key; unannotated atoms contribute `1̄`.
pub struct AggregateQuery {
    cq: Cq,
    dc: DcSet,
    semiring: Semiring,
    annotations: Vec<Option<Var>>,
    ghd: Ghd,
    /// `da-fhtw(Q)` in log₂ units.
    pub width: Rat,
}

impl AggregateQuery {
    /// Prepares the query. `annotations[i]` names atom `i`'s annotation
    /// column (must be outside the query's variables).
    pub fn new(
        cq: &Cq,
        dc: &DcSet,
        semiring: Semiring,
        annotations: Vec<Option<Var>>,
        ghd_limit: usize,
    ) -> Result<Self, YannakakisError> {
        assert_eq!(
            annotations.len(),
            cq.atoms.len(),
            "one annotation slot per atom"
        );
        // The circuit hardcodes TMP = Var(61) / ANNOT = Var(62) as scratch
        // columns; a query (or annotation) actually using them would
        // silently collide — reject with a typed error instead. `all_vars`
        // only covers named variables, so also scan the atoms themselves
        // (a programmatic Cq can use sparse indices without names).
        let used: VarSet = cq.atoms.iter().fold(cq.free, |acc, a| acc.union(a.vars));
        for v in [TMP, ANNOT] {
            if used.contains(v) {
                return Err(YannakakisError::ReservedVariable(v));
            }
        }
        for a in annotations.iter().flatten() {
            if used.contains(*a) || cq.all_vars().contains(*a) || a.0 >= TMP.0 {
                return Err(YannakakisError::BadAnnotation(*a));
            }
        }
        let (ghd, width) = da_fhtw(cq, dc, ghd_limit)?;
        Ok(AggregateQuery {
            cq: cq.clone(),
            dc: dc.clone(),
            semiring,
            annotations,
            ghd,
            width,
        })
    }

    #[allow(clippy::needless_range_loop)] // re-parenting mutates `nodes` while indexing
    /// Builds the aggregate circuit, parameterized by the free-join output
    /// bound (from the counting family, Sec. 6.4). Output schema:
    /// `free ∪ {ANNOT}`.
    pub fn circuit(&self, out_bound: u64) -> Result<RelationalCircuit, YannakakisError> {
        let out_bound = out_bound.max(1);
        let sr = self.semiring;
        let mut rc = RelationalCircuit::new();

        // Inputs carry annotations; PANDA sees their projections.
        let mut inputs = Vec::new();
        let mut annotated_nodes = Vec::new();
        for (atom, annot) in self.cq.atoms.iter().zip(self.annotations.iter()) {
            let cap = self.dc.cardinality_of(atom.vars).ok_or_else(|| {
                YannakakisError::Compile(CompileError::UnguardedAtom(atom.name.clone()))
            })?;
            let schema = match annot {
                Some(a) => atom.vars.with(*a),
                None => atom.vars,
            };
            let node = rc.input(atom.name.clone(), schema, cap);
            let plain = if annot.is_some() {
                rc.project(node, atom.vars)
            } else {
                node
            };
            inputs.push((atom.name.clone(), atom.vars, plain));
            annotated_nodes.push((atom.vars, *annot, node));
        }

        // Bags: PANDA-C, then attach the ⊗-product of the annotations of
        // the atoms assigned to this bag (each atom to exactly one bag).
        let mut assigned = vec![false; self.cq.atoms.len()];
        struct Node {
            bag: VarSet,
            t: crate::rc::NodeId,
            parent: Option<usize>,
            alive: bool,
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(self.ghd.nodes.len());
        for gn in &self.ghd.nodes {
            let (mut t, _, _, _) =
                compile_target(&mut rc, &inputs, &self.dc, gn.bag, self.cq.num_vars())
                    .map_err(YannakakisError::Compile)?;
            t = rc.attach_const(t, ANNOT, sr.one());
            for (i, (vars, annot, node)) in annotated_nodes.iter().enumerate() {
                if assigned[i] || !vars.is_subset(gn.bag) {
                    continue;
                }
                assigned[i] = true;
                if let Some(a) = annot {
                    // the atom's variables are a key ⇒ primary-key join
                    let joined = rc.join_pk(t, *node);
                    t = rc.map_bin(joined, ANNOT, *a, ANNOT, sr.times_op());
                }
            }
            nodes.push(Node {
                bag: gn.bag,
                t,
                parent: gn.parent,
                alive: true,
            });
        }

        // Reduce with ⊕-aggregation messages (Alg. 8 + Sec. 7): children
        // aggregate over the shared key and multiply into the parent.
        let bottom_up = self.ghd.bottom_up();
        let root = self.ghd.root;
        for &v in &bottom_up {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("non-root parent");
            let free_part = nodes[v].bag.intersect(self.cq.free);
            if free_part.is_subset(nodes[p].bag) {
                let shared = nodes[v].bag.intersect(nodes[p].bag);
                let w = rc.aggregate(nodes[v].t, shared, sr.plus_agg(ANNOT), TMP);
                let joined = rc.join_pk(nodes[p].t, w);
                nodes[p].t = rc.map_bin(joined, ANNOT, TMP, ANNOT, sr.times_op());
                nodes[v].alive = false;
                for i in 0..nodes.len() {
                    if nodes[i].alive && nodes[i].parent == Some(v) {
                        nodes[i].parent = Some(p);
                    }
                }
            } else if free_part != nodes[v].bag {
                let agg = rc.aggregate(nodes[v].t, free_part, sr.plus_agg(ANNOT), TMP);
                // rename TMP back to ANNOT via a ⊗ with 1̄
                let one = rc.attach_const(agg, ANNOT, sr.one());
                nodes[v].t = rc.map_bin(one, ANNOT, TMP, ANNOT, sr.times_op());
                nodes[v].bag = free_part;
            }
        }
        {
            let root_free = nodes[root].bag.intersect(self.cq.free);
            if root_free != nodes[root].bag {
                let agg = rc.aggregate(nodes[root].t, root_free, sr.plus_agg(ANNOT), TMP);
                let one = rc.attach_const(agg, ANNOT, sr.one());
                nodes[root].t = rc.map_bin(one, ANNOT, TMP, ANNOT, sr.times_op());
                nodes[root].bag = root_free;
            }
        }

        // Semijoin passes on the free tree (annotation-free projections).
        let alive: Vec<usize> = bottom_up
            .iter()
            .copied()
            .filter(|&i| nodes[i].alive)
            .collect();
        for &v in &alive {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive parent");
            let keys = rc.project(nodes[v].t, nodes[v].bag);
            nodes[p].t = rc.semijoin(nodes[p].t, keys);
        }
        for &v in alive.iter().rev() {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive parent");
            let keys = rc.project(nodes[p].t, nodes[p].bag);
            nodes[v].t = rc.semijoin(nodes[v].t, keys);
        }

        // Bottom-up output-bounded joins with ⊗-maps.
        for &v in &alive {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive parent");
            // move the child's annotation out of the way of the join
            let renamed = rc.aggregate(nodes[v].t, nodes[v].bag, sr.plus_agg(ANNOT), TMP);
            let cap_product = rc.nodes[nodes[p].t]
                .capacity
                .saturating_mul(rc.nodes[renamed].capacity);
            let out_t = out_bound.min(cap_product);
            let shared = nodes[p].bag.intersect(nodes[v].bag);
            let joined = if shared.is_empty() {
                let j = rc.join_degree(nodes[p].t, renamed, rc.nodes[renamed].capacity);
                rc.truncate(j, out_t)
            } else {
                rc.join_output(nodes[p].t, renamed, out_t)
            };
            nodes[p].t = rc.map_bin(joined, ANNOT, TMP, ANNOT, sr.times_op());
            nodes[p].bag = nodes[p].bag.union(nodes[v].bag);
        }
        rc.mark_output(nodes[root].t);
        Ok(rc)
    }

    /// Computes the output bound `OUT` for [`AggregateQuery::circuit`]
    /// the proper way (Sec. 6.4): strip the annotation columns and run the
    /// counting family over the plain relations.
    pub fn output_bound_ram(&self, db: &Database) -> Result<u64, YannakakisError> {
        let mut plain = Database::new();
        for (atom, annot) in self.cq.atoms.iter().zip(self.annotations.iter()) {
            let rel = db.get(&atom.name).ok_or_else(|| {
                YannakakisError::Eval(crate::rc::RcError::MissingInput(atom.name.clone()))
            })?;
            let rel = if annot.is_some() {
                rel.project(atom.vars)
            } else {
                rel.clone()
            };
            plain.insert(atom.name.clone(), rel);
        }
        let os = crate::yannakakis::OutputSensitive::build(&self.cq, &self.dc, 4_000)?;
        os.count_ram(&plain)
    }

    /// Brute-force reference semantics (for validation): enumerate the
    /// full join and fold annotations.
    pub fn reference(&self, db: &Database) -> Result<Relation, YannakakisError> {
        let sr = self.semiring;
        // join all annotated relations
        let mut acc = Relation::boolean(true);
        for (atom, annot) in self.cq.atoms.iter().zip(self.annotations.iter()) {
            let rel = db
                .get(&atom.name)
                .ok_or_else(|| {
                    YannakakisError::Eval(crate::rc::RcError::MissingInput(atom.name.clone()))
                })?
                .clone();
            let _ = annot;
            acc = acc.natural_join(&rel);
        }
        let annot_cols: Vec<Var> = self.annotations.iter().flatten().copied().collect();
        let free_vars: Vec<Var> = self.cq.free.to_vec();
        let mut groups: std::collections::BTreeMap<Vec<u64>, u64> =
            std::collections::BTreeMap::new();
        for row in acc.iter() {
            let key: Vec<u64> = free_vars
                .iter()
                .map(|v| row[acc.col(*v).expect("free var")])
                .collect();
            let mut prod = sr.one();
            for a in &annot_cols {
                prod = sr.times(prod, row[acc.col(*a).expect("annotation")]);
            }
            groups
                .entry(key)
                .and_modify(|acc_v| *acc_v = sr.plus(*acc_v, prod))
                .or_insert(prod);
        }
        let schema: Vec<Var> = {
            let mut s = free_vars.clone();
            s.push(ANNOT);
            s
        };
        let rows = groups
            .into_iter()
            .map(|(k, v)| {
                let mut r = k;
                r.push(v);
                r
            })
            .collect();
        Ok(Relation::from_rows(schema, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::{parse_cq, triangle};
    use qec_relation::{random_relation, DegreeConstraint};
    use rand::{Rng, SeedableRng};

    fn vs(bits: &[u32]) -> VarSet {
        bits.iter().map(|&i| Var(i)).collect()
    }

    fn dc_for(cq: &Cq, n: u64) -> DcSet {
        DcSet::from_vec(
            cq.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, n))
                .collect(),
        )
    }

    /// Attaches random annotations in [1, 4] to a relation.
    fn annotate(rel: &Relation, var: Var, seed: u64) -> Relation {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut schema = rel.schema().to_vec();
        schema.push(var);
        let rows = rel
            .iter()
            .map(|r| {
                let mut t = r.clone();
                t.push(rng.gen_range(1..=4));
                t
            })
            .collect();
        Relation::from_rows(schema, rows)
    }

    #[test]
    fn min_tropical_has_a_real_infinity() {
        let sr = Semiring::MinTropical;
        let inf = Semiring::INF;
        assert_eq!(sr.zero(), inf);
        // ∞ is the ⊕-identity ...
        assert_eq!(sr.plus(inf, 17), 17);
        assert_eq!(sr.plus(17, inf), 17);
        assert_eq!(sr.plus(inf, inf), inf);
        // ... and absorbing for ⊗ (no wrap-around back into ℕ)
        assert_eq!(sr.times(inf, 17), inf);
        assert_eq!(sr.times(17, inf), inf);
        assert_eq!(sr.times(inf, inf), inf);
        assert_eq!(sr.times(inf, sr.one()), inf);
        // near-boundary sums saturate instead of wrapping
        assert_eq!(sr.times(inf - 1, 2), inf);
        assert_eq!(sr.times(inf - 1, 1), inf);
    }

    #[test]
    fn natural_saturates_instead_of_wrapping() {
        let sr = Semiring::Natural;
        let max = u64::MAX;
        // release-mode wrapping would give 0 / small values here
        assert_eq!(sr.plus(max, 1), max);
        assert_eq!(sr.plus(max, max), max);
        assert_eq!(sr.times(max, 2), max);
        assert_eq!(sr.times(1 << 32, 1 << 32), max);
        // exact below the boundary
        assert_eq!(sr.plus(max - 1, 1), max);
        assert_eq!(sr.times(1 << 31, 1 << 31), 1 << 62);
        assert_eq!(sr.times(sr.zero(), max), 0);
    }

    #[test]
    fn max_tropical_saturates() {
        let sr = Semiring::MaxTropical;
        assert_eq!(sr.times(u64::MAX - 1, 5), u64::MAX);
        assert_eq!(sr.plus(sr.zero(), 9), 9);
        assert!(!sr.has_absorbing_zero());
    }

    #[test]
    fn reserved_variable_collision_is_a_typed_error() {
        // A CQ that actually uses Var(61)/Var(62) must be rejected, not
        // silently collide with the TMP/ANNOT scratch columns.
        for reserved in [61, 62] {
            let cq = Cq {
                var_names: Vec::new(),
                free: vs(&[reserved]),
                atoms: vec![qec_query::Atom {
                    name: "R".into(),
                    vars: vs(&[reserved, 1]),
                }],
            };
            let dc = dc_for(&cq, 8);
            let err = AggregateQuery::new(&cq, &dc, Semiring::Natural, vec![None], 400)
                .err()
                .expect("reserved variable must be rejected");
            assert!(
                matches!(err, YannakakisError::ReservedVariable(v) if v.0 == reserved),
                "{err}"
            );
        }
        // ... and an annotation column inside the query's variables (or in
        // the reserved range) is equally typed, not an assert.
        let cq = parse_cq("Q(a) :- R(a, b)").unwrap();
        let dc = dc_for(&cq, 8);
        for bad in [Var(1), Var(61), Var(62)] {
            let err = AggregateQuery::new(&cq, &dc, Semiring::Natural, vec![Some(bad)], 400)
                .err()
                .expect("bad annotation must be rejected");
            assert!(
                matches!(err, YannakakisError::BadAnnotation(v) if v == bad),
                "{err}"
            );
        }
    }

    #[test]
    fn counting_per_free_tuple() {
        // #paths from x0 through x1 to x2, grouped by x0 (Natural, 1̄)
        let q0 = parse_cq("Q(a) :- R(a, b), S(b, c)").unwrap();
        let dc = dc_for(&q0, 24);
        let aq = AggregateQuery::new(&q0, &dc, Semiring::Natural, vec![None, None], 4000).unwrap();
        for seed in 0..3 {
            let mut db = Database::new();
            // parser: a=0 (free), b=1... check indices: head Q(a): a=0; R(a,b): b=1; S(b,c): c=2
            db.insert("R", random_relation(vec![Var(0), Var(1)], 20, seed));
            db.insert("S", random_relation(vec![Var(1), Var(2)], 20, seed + 9));
            let expect = aq.reference(&db).unwrap();
            let out_bound = expect.len().max(1) as u64;
            let rc = aq.circuit(out_bound).unwrap();
            let got = rc.evaluate_ram(&db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn annotated_sum_over_join() {
        let q0 = parse_cq("Q(a, c) :- R(a, b), S(b, c)").unwrap();
        // parser indices: a=0, c=1 free; b=2
        let dc = dc_for(&q0, 24);
        let aq = AggregateQuery::new(
            &q0,
            &dc,
            Semiring::Natural,
            vec![Some(Var(40)), Some(Var(41))],
            4000,
        )
        .unwrap();
        for seed in 0..3 {
            let mut db = Database::new();
            let r = random_relation(vec![Var(0), Var(2)], 18, seed);
            let s = random_relation(vec![Var(2), Var(1)], 18, seed + 4);
            db.insert("R", annotate(&r, Var(40), seed + 100));
            db.insert("S", annotate(&s, Var(41), seed + 200));
            let expect = aq.reference(&db).unwrap();
            let rc = aq.circuit(expect.len().max(1) as u64).unwrap();
            let got = rc.evaluate_ram(&db).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn tropical_shortest_two_hop() {
        // min-cost 2-hop path per (a, c)
        let q0 = parse_cq("Q(a, c) :- R(a, b), S(b, c)").unwrap();
        let dc = dc_for(&q0, 24);
        let aq = AggregateQuery::new(
            &q0,
            &dc,
            Semiring::MinTropical,
            vec![Some(Var(40)), Some(Var(41))],
            4000,
        )
        .unwrap();
        let mut db = Database::new();
        let r = random_relation(vec![Var(0), Var(2)], 16, 2);
        let s = random_relation(vec![Var(2), Var(1)], 16, 3);
        db.insert("R", annotate(&r, Var(40), 10));
        db.insert("S", annotate(&s, Var(41), 11));
        let expect = aq.reference(&db).unwrap();
        let rc = aq.circuit(expect.len().max(1) as u64).unwrap();
        assert_eq!(rc.evaluate_ram(&db).unwrap()[0], expect);
    }

    #[test]
    fn boolean_provenance_triangle_count() {
        // Boolean semiring over a cyclic query: does each a participate in
        // a triangle?
        let q0 = triangle();
        let q = Cq {
            free: vs(&[0]),
            ..q0
        };
        let dc = dc_for(&q, 20);
        let aq =
            AggregateQuery::new(&q, &dc, Semiring::Boolean, vec![None, None, None], 4000).unwrap();
        let mut db = Database::new();
        db.insert("R", random_relation(vec![Var(0), Var(1)], 18, 1));
        db.insert("S", random_relation(vec![Var(1), Var(2)], 18, 2));
        db.insert("T", random_relation(vec![Var(0), Var(2)], 18, 3));
        let expect = aq.reference(&db).unwrap();
        let rc = aq.circuit(expect.len().max(1) as u64).unwrap();
        assert_eq!(rc.evaluate_ram(&db).unwrap()[0], expect);
    }

    #[test]
    fn output_bound_matches_reference_size() {
        let q0 = parse_cq("Q(a, c) :- R(a, b), S(b, c)").unwrap();
        let dc = dc_for(&q0, 24);
        let aq = AggregateQuery::new(
            &q0,
            &dc,
            Semiring::Natural,
            vec![Some(Var(40)), Some(Var(41))],
            4000,
        )
        .unwrap();
        let mut db = Database::new();
        let r = random_relation(vec![Var(0), Var(2)], 18, 7);
        let s = random_relation(vec![Var(2), Var(1)], 18, 8);
        db.insert("R", annotate(&r, Var(40), 1));
        db.insert("S", annotate(&s, Var(41), 2));
        let expect = aq.reference(&db).unwrap();
        let out = aq.output_bound_ram(&db).unwrap();
        assert_eq!(out as usize, expect.len());
        // and the circuit parameterized by that OUT evaluates correctly
        let rc = aq.circuit(out.max(1)).unwrap();
        assert_eq!(rc.evaluate_ram(&db).unwrap()[0], expect);
    }

    #[test]
    fn lowered_semiring_circuit_matches_reference() {
        let q0 = parse_cq("Q(a) :- R(a, b), S(b, c)").unwrap();
        let dc = dc_for(&q0, 12);
        let aq = AggregateQuery::new(&q0, &dc, Semiring::Natural, vec![Some(Var(40)), None], 4000)
            .unwrap();
        let mut db = Database::new();
        let r = random_relation(vec![Var(0), Var(1)], 10, 3);
        db.insert("R", annotate(&r, Var(40), 77));
        db.insert("S", random_relation(vec![Var(1), Var(2)], 10, 4));
        let expect = aq.reference(&db).unwrap();
        let rc = aq.circuit(expect.len().max(1) as u64).unwrap();
        let lowered = rc.lower();
        let got = lowered.run(&db).unwrap();
        assert_eq!(got[0], expect);
    }

    #[test]
    fn triangle_counting_per_vertex() {
        // Natural semiring: number of triangles through each a — the
        // motivating workload for Sec. 7.
        let q0 = triangle();
        let q = Cq {
            free: vs(&[0]),
            ..q0
        };
        let dc = dc_for(&q, 20);
        let aq =
            AggregateQuery::new(&q, &dc, Semiring::Natural, vec![None, None, None], 4000).unwrap();
        for seed in 0..2 {
            let mut db = Database::new();
            db.insert("R", random_relation(vec![Var(0), Var(1)], 16, seed));
            db.insert("S", random_relation(vec![Var(1), Var(2)], 16, seed + 5));
            db.insert("T", random_relation(vec![Var(0), Var(2)], 16, seed + 6));
            let expect = aq.reference(&db).unwrap();
            let rc = aq.circuit(expect.len().max(1) as u64).unwrap();
            assert_eq!(rc.evaluate_ram(&db).unwrap()[0], expect, "seed {seed}");
        }
    }
}
