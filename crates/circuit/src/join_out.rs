//! The output-bounded join circuit (Alg. 10, Sec. 6.3).

use crate::decompose::decompose;
use crate::join::{join_degree_bounded, semijoin};
use crate::ops::{truncate, union};
use crate::rel::RelWires;
use crate::Builder;

/// Output-bounded join `R ⋈ S` under the promise `|R ⋈ S| ≤ out_bound`
/// (Alg. 10): decompose `S` by degree on the shared variables, semijoin
/// and cap each `R_i` at `⌊OUT/min-group⌋` (no real tuple is lost because
/// every `R_i` tuple contributes at least `min-group` join results), run a
/// degree-bounded join per part, union, and truncate to `OUT`.
///
/// Size `Õ(M + N + OUT)`, depth `Õ(1)`. A violated promise fires the
/// truncation assertions at evaluation time instead of silently dropping
/// results.
pub fn join_output_bounded(
    b: &mut Builder,
    r: &RelWires,
    s: &RelWires,
    out_bound: usize,
) -> RelWires {
    let common = r.vars().intersect(s.vars());
    assert!(
        !common.is_empty() && common != s.vars(),
        "output-bounded join expects proper shared variables on S"
    );
    let m = r.capacity();
    let parts = decompose(b, s, common);

    let out_vars = r.vars().union(s.vars());
    let out_schema: Vec<_> = out_vars.to_vec();
    let mut acc: Option<RelWires> = None;
    for part in parts {
        // Line 3–5: R_i = R ⋉ S_i, truncated to ⌊OUT / min-group⌋.
        let r_i = semijoin(b, r, &part.rel);
        let cap_i = (out_bound as u64 / part.min_group).min(m as u64) as usize;
        let r_i = truncate(b, &r_i, cap_i);
        // Line 6: J_i = R_i ⋈ S_i under deg ≤ N_{Y|X}^{(i)}.
        let j_i = join_degree_bounded(b, &r_i, &part.rel, part.deg_bound as usize);
        debug_assert_eq!(j_i.schema, out_schema);
        // Line 7: union (deduplicating); keep the running union truncated
        // to OUT so capacities stay Õ(OUT) instead of Õ(OUT·log N).
        acc = Some(match acc {
            None => truncate(b, &j_i, out_bound.min(j_i.capacity())),
            Some(prev) => {
                let u = union(b, &prev, &j_i);
                truncate(b, &u, out_bound.min(u.capacity()))
            }
        });
    }
    match acc {
        Some(rel) => rel,
        None => RelWires::dummies(b, out_schema, out_bound.min(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{decode_relation, encode_relation, relation_to_values};
    use crate::WireId;
    use qec_relation::{zipf_relation, Relation, Var, VarSet};

    fn run(r: &Relation, s: &Relation, caps: (usize, usize), out_bound: usize) -> Relation {
        let mut b = Builder::new();
        let rw = encode_relation(&mut b, r.schema().to_vec(), caps.0);
        let sw = encode_relation(&mut b, s.schema().to_vec(), caps.1);
        let j = join_output_bounded(&mut b, &rw, &sw, out_bound);
        let schema = j.schema.clone();
        let c = b.finish(j.flatten());
        let mut vals = relation_to_values(r, caps.0).unwrap();
        vals.extend(relation_to_values(s, caps.1).unwrap());
        decode_relation(&schema, &c.evaluate(&vals).unwrap())
    }

    #[test]
    fn matches_ram_join_on_skewed_data() {
        let s = zipf_relation(Var(1), Var(2), 40, 1.2, 3);
        let r = Relation::from_rows(
            vec![Var(0), Var(1)],
            (0..10).map(|i| vec![i, i % 5]).collect(),
        );
        let expect = r.natural_join(&s);
        let got = run(&r, &s, (10, 40), expect.len().max(1));
        assert_eq!(got, expect);
    }

    #[test]
    fn generous_out_bound_also_correct() {
        let s = zipf_relation(Var(1), Var(2), 30, 1.0, 7);
        let r = Relation::from_rows(
            vec![Var(0), Var(1)],
            (0..8).map(|i| vec![100 + i, i % 4]).collect(),
        );
        let expect = r.natural_join(&s);
        let got = run(&r, &s, (8, 30), 4 * expect.len().max(1));
        assert_eq!(got, expect);
    }

    #[test]
    fn violated_out_bound_fires_assertion() {
        // true join size is 4, promise 2 → assertion must fire
        let r = Relation::from_rows(vec![Var(0), Var(1)], vec![vec![1, 1], vec![2, 1]]);
        let s = Relation::from_rows(vec![Var(1), Var(2)], vec![vec![1, 5], vec![1, 6]]);
        let mut b = Builder::new();
        let rw = encode_relation(&mut b, r.schema().to_vec(), 2);
        let sw = encode_relation(&mut b, s.schema().to_vec(), 2);
        let j = join_output_bounded(&mut b, &rw, &sw, 2);
        let c = b.finish(j.flatten());
        let mut vals = relation_to_values(&r, 2).unwrap();
        vals.extend(relation_to_values(&s, 2).unwrap());
        assert!(matches!(
            c.evaluate(&vals),
            Err(crate::EvalError::AssertionFailed { .. })
        ));
    }

    #[test]
    fn size_scales_with_out_not_capacity_product() {
        fn cost(m: usize, out: usize) -> u64 {
            let mut b = Builder::new();
            let rw = encode_relation(&mut b, vec![Var(0), Var(1)], m);
            let sw = encode_relation(&mut b, vec![Var(1), Var(2)], m);
            let j = join_output_bounded(&mut b, &rw, &sw, out);
            let outs: Vec<WireId> = j.flatten();
            b.finish(outs).size()
        }
        let base = cost(32, 32) as f64;
        // fixed OUT, growing M: size should grow ~linearly in M (not M²)
        let ratio = cost(128, 32) as f64 / base;
        assert!(ratio < 10.0, "ratio {ratio}");
        // fixed M, growing OUT: grows, but sublinearly in the naive M·N'
        let grow = cost(32, 256) as f64 / base;
        assert!(grow < 8.0, "grow {grow}");
    }

    #[test]
    fn empty_sides() {
        let r = Relation::empty(VarSet::from(vec![Var(0), Var(1)]));
        let s = Relation::from_rows(vec![Var(1), Var(2)], vec![vec![1, 5]]);
        let got = run(&r, &s, (2, 2), 4);
        assert_eq!(got.len(), 0);
    }
}
