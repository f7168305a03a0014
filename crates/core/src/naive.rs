//! Baseline relational circuits: the classical `O(N^m)` construction and
//! the hand-built heavy/light triangle circuit of Figure 1.
//!
//! Both build cross products as degree-bounded joins whose bound is the
//! right side's whole capacity. Such a join lowers as the key-filtered
//! cross product, one slot per pair and no sort
//! ([`join_degree_bounded`](qec_circuit::join_degree_bounded)), so the
//! classical circuit costs a few word gates per slot of its `N^m`
//! capacity, plus the sort of a projection onto the head.

use qec_query::Cq;
use qec_relation::{DcSet, Var, VarSet};

use crate::panda::CompileError;
use crate::rc::{NodeId, RcPred, RelationalCircuit};

/// The classical circuit (Abiteboul–Hull–Vianu, Sec. 1): join the atoms
/// left to right with no degree information, i.e. every join is the
/// key-filtered cross product. Cost `O(N^m)` — the baseline every
/// experiment compares PANDA-C against.
pub fn naive_circuit(cq: &Cq, dc: &DcSet) -> Result<(RelationalCircuit, NodeId), CompileError> {
    let (mut rc, mut out) = classical_join(cq, dc)?;
    if !cq.is_full() {
        out = rc.project(out, cq.free);
    }
    rc.mark_output(out);
    Ok((rc, out))
}

/// The classical circuit's join of every atom, before any projection
/// and with no output marked.
pub(crate) fn classical_join(
    cq: &Cq,
    dc: &DcSet,
) -> Result<(RelationalCircuit, NodeId), CompileError> {
    let mut rc = RelationalCircuit::new();
    let mut acc: Option<NodeId> = None;
    for atom in &cq.atoms {
        let cap = dc
            .cardinality_of(atom.vars)
            .ok_or_else(|| CompileError::UnguardedAtom(atom.name.clone()))?;
        let node = rc.input(atom.name.clone(), atom.vars, cap);
        acc = Some(match acc {
            None => node,
            // degree bound = the full cardinality: always valid, never
            // informative — exactly the naive sizing
            Some(prev) => rc.join_degree(prev, node, cap),
        });
    }
    Ok((rc, acc.expect("query has at least one atom")))
}

/// The hand-built triangle circuit of Figure 1 (Example 1): split the
/// `C` values of `S(B,C)` into heavy (degree `> √N`) and light, join the
/// light side with `T(A,C)` under the degree bound and the heavy side's
/// (few) `C` values with `R(A,B)` as a bounded cross product, filter false
/// positives, and union. All wires are bounded by `O(N^{3/2})`.
///
/// Inputs are named `R(A,B)`, `S(B,C)`, `T(A,C)`, each with cardinality
/// bound `n`.
pub fn triangle_heavy_light(n: u64) -> (RelationalCircuit, NodeId) {
    assert!(n >= 4, "threshold needs n ≥ 4");
    let (a, b_, c) = (Var(0), Var(1), Var(2));
    let ab: VarSet = [a, b_].into_iter().collect();
    let bc: VarSet = [b_, c].into_iter().collect();
    let ac: VarSet = [a, c].into_iter().collect();
    let cnt = Var(60);
    let t = (n as f64).sqrt().floor() as u64; // heavy threshold √N

    let mut rc = RelationalCircuit::new();
    let r = rc.input("R", ab, n);
    let s = rc.input("S", bc, n);
    let tt = rc.input("T", ac, n);

    // degree of each C value in S
    let counts = rc.aggregate(s, VarSet::singleton(c), qec_relation::AggKind::Count, cnt);
    let s_annot = rc.join_pk(s, counts);

    // light: degree ≤ t
    let light = rc.select(
        s_annot,
        RcPred::FieldRange {
            var: cnt,
            lo: 1,
            hi: t + 1,
        },
    );
    let light = rc.project(light, bc);
    // J_light = T(A,C) ⋈ S_light(B,C): deg_C(S_light) ≤ t ⇒ capacity n·t
    let j_light = rc.join_degree(tt, light, t);
    let j_light = rc.semijoin(j_light, r);

    // heavy: degree > t ⇒ at most n/(t+1) distinct C values
    let heavy = rc.select(
        s_annot,
        RcPred::FieldRange {
            var: cnt,
            lo: t + 1,
            hi: n + 1,
        },
    );
    let heavy_c = rc.project(heavy, VarSet::singleton(c));
    let heavy_c = rc.truncate(heavy_c, n / (t + 1) + 1);
    // J_heavy = R(A,B) × heavy C values: capacity n·(n/(t+1)+1) ≈ n^{3/2}
    let cross = rc.join_degree(r, heavy_c, n / (t + 1) + 1);
    let cross = rc.semijoin(cross, s);
    let j_heavy = rc.semijoin(cross, tt);

    let out = rc.union(j_light, j_heavy);
    rc.mark_output(out);
    (rc, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_cost;
    use qec_bignum::Int;
    use qec_query::{baseline::evaluate_pairwise, triangle};
    use qec_relation::{
        agm_worst_case_triangle, random_relation, zipf_relation, Database, DegreeConstraint,
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
    fn naive_circuit_is_correct_but_cubic() {
        let q = triangle();
        let (rc, _) = naive_circuit(&q, &triangle_dc(16)).unwrap();
        for seed in 0..3 {
            let db = triangle_db(14, seed);
            assert_eq!(
                rc.evaluate_ram(&db).unwrap()[0],
                evaluate_pairwise(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
        // cost Ω(N³)
        assert!(paper_cost(&rc) >= Int::from(16u64 * 16 * 16));
    }

    #[test]
    fn heavy_light_matches_baseline() {
        let q = triangle();
        let (rc, _) = triangle_heavy_light(32);
        for seed in 0..4 {
            let db = triangle_db(28, seed);
            assert_eq!(
                rc.evaluate_ram(&db).unwrap()[0],
                evaluate_pairwise(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn heavy_light_handles_skew() {
        let q = triangle();
        let (rc, _) = triangle_heavy_light(64);
        let mut db = Database::new();
        db.insert("S", zipf_relation(Var(1), Var(2), 60, 1.3, 5));
        db.insert("R", random_relation(vec![Var(0), Var(1)], 60, 1));
        db.insert("T", random_relation(vec![Var(0), Var(2)], 60, 2));
        assert_eq!(
            rc.evaluate_ram(&db).unwrap()[0],
            evaluate_pairwise(&q, &db).unwrap()
        );
    }

    #[test]
    fn heavy_light_agm_worst_case_and_cost() {
        let (rc, _) = triangle_heavy_light(16);
        let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), 16);
        let mut db = Database::new();
        db.insert("R", r);
        db.insert("S", s);
        db.insert("T", t);
        let out = rc.evaluate_ram(&db).unwrap();
        assert_eq!(out[0].len(), 64);
        // cost O(N^{1.5}) up to constants: far below the naive N³
        let hl = paper_cost(&rc).to_f64();
        assert!(hl < 16f64.powi(3), "heavy/light cost {hl}");
    }

    #[test]
    fn heavy_light_lowered_matches() {
        let (rc, _) = triangle_heavy_light(8);
        let lowered = rc.lower();
        let db = triangle_db(7, 3);
        assert_eq!(
            lowered.run(&db).unwrap()[0],
            rc.evaluate_ram(&db).unwrap()[0]
        );
    }
}
