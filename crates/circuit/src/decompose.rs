//! The decomposition circuit (Alg. 2): splits a relation into
//! `O(log N)` degree-bucketed sub-relations satisfying conditions (4).

use qec_relation::{Var, VarSet};

use crate::ops::{aggregate, select, AggOp};
use crate::rel::RelWires;
use crate::sort::{sort_slots, SortKey};
use crate::{join::join_pk, Builder};

/// A scratch variable reserved for internal count/order columns. Queries
/// are limited to variables `< 62`.
pub(crate) const COUNT_VAR: Var = Var(63);

/// One sub-relation `R_Y^{(j)}` of a decomposition, with its certified
/// parameters from conditions (4) of the paper.
#[derive(Clone, Debug)]
pub struct DecomposedPart {
    /// The sub-relation (schema of the input).
    pub rel: RelWires,
    /// `N_X^{(j)}`: bound on `|Π_X(R_Y^{(j)})|`.
    pub card_bound: u64,
    /// `N_{Y|X}^{(j)}`: bound on `deg_{R^{(j)}}(X)`.
    pub deg_bound: u64,
    /// Minimum `X`-group size of any tuple present in this part (used by
    /// the output-bounded join to cap its semijoin sizes, Alg. 10 line 4).
    pub min_group: u64,
}

/// Decomposition circuit (Alg. 2): `R_Y → R_Y^{(1)} ∪ … ∪ R_Y^{(2k)}`,
/// `k = 1 + ⌊log₂ N⌋`, such that the parts partition `R_Y`, part `2i-1`
/// and `2i` have degree (on `X`) at most `2^{i-1}`, and
/// `N_X^{(j)} · N_{Y|X}^{(j)} ≤ N`. Size `Õ(N)`, depth `Õ(1)`.
pub fn decompose(b: &mut Builder, rel: &RelWires, on: VarSet) -> Vec<DecomposedPart> {
    assert!(
        on.is_subset(rel.vars()) && on != rel.vars(),
        "decomposition needs X ⊂ Y"
    );
    assert!(!rel.vars().contains(COUNT_VAR), "variable 63 is reserved");
    let n = rel.capacity() as u64;
    if n == 0 {
        return Vec::new();
    }
    // Line 1: associate each tuple with its X-degree.
    let counts = aggregate(b, rel, on, AggOp::Count, COUNT_VAR);
    let with_count = join_pk(b, rel, &counts);
    let ccol = with_count.col(COUNT_VAR).expect("count column");

    let k = 1 + n.ilog2();
    let mut parts = Vec::with_capacity(2 * k as usize);
    for i in 1..=k {
        let lo = 1u64 << (i - 1);
        let hi = 1u64 << i;
        // Line 4: T^(i) = tuples with degree in [2^{i-1}, 2^i).
        let t = select(b, &with_count, |b, s| {
            let lo_w = b.constant(lo);
            let hi_w = b.constant(hi);
            let ge = {
                let lt = b.lt(s.fields[ccol], lo_w);
                b.not(lt)
            };
            let lt_hi = b.lt(s.fields[ccol], hi_w);
            b.and(ge, lt_hi)
        });
        // Lines 5–6: sort by X; after the sort, the slot index is the
        // order number (non-dummies first), so the odd/even split of
        // τ_X(T) is a free rewiring.
        let sorted = sort_slots(b, &t, &SortKey::Columns(on.to_vec()));
        // drop the count column (tuples stay unique: count is functionally
        // determined by X)
        let keep_cols: Vec<usize> = rel
            .schema
            .iter()
            .map(|v| sorted.col(*v).expect("original column"))
            .collect();
        let strip = |slots: Vec<crate::SlotWires>| -> RelWires {
            RelWires {
                schema: rel.schema.clone(),
                slots: slots
                    .into_iter()
                    .map(|s| crate::SlotWires {
                        fields: keep_cols.iter().map(|&c| s.fields[c]).collect(),
                        valid: s.valid,
                    })
                    .collect(),
            }
        };
        let odd: Vec<crate::SlotWires> = sorted.slots.iter().step_by(2).cloned().collect();
        let even: Vec<crate::SlotWires> = sorted.slots.iter().skip(1).step_by(2).cloned().collect();
        let card = (n / lo).max(1);
        for slots in [odd, even] {
            parts.push(DecomposedPart {
                rel: strip(slots),
                card_bound: card,
                deg_bound: lo,
                min_group: (lo / 2).max(1),
            });
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{decode_relation, encode_relation, relation_to_values};
    use qec_relation::{zipf_relation, Relation};

    fn decompose_eval(r: &Relation, capacity: usize) -> Vec<(Relation, u64, u64)> {
        let mut b = Builder::new();
        let w = encode_relation(&mut b, r.schema().to_vec(), capacity);
        let parts = decompose(&mut b, &w, VarSet::singleton(Var(0)));
        let metas: Vec<(usize, u64, u64, Vec<Var>)> = parts
            .iter()
            .map(|p| {
                (
                    p.rel.capacity(),
                    p.card_bound,
                    p.deg_bound,
                    p.rel.schema.clone(),
                )
            })
            .collect();
        let mut outs = Vec::new();
        for p in &parts {
            outs.extend(p.rel.flatten());
        }
        let c = b.finish(outs);
        let res = c
            .evaluate(&relation_to_values(r, capacity).unwrap())
            .unwrap();
        let mut off = 0;
        metas
            .into_iter()
            .map(|(cap, card, deg, schema)| {
                let len = cap * (schema.len() + 1);
                let rel = decode_relation(&schema, &res[off..off + len]);
                off += len;
                (rel, card, deg)
            })
            .collect()
    }

    #[test]
    fn parts_partition_and_respect_condition_4() {
        let r = zipf_relation(Var(0), Var(1), 60, 1.1, 5);
        let n = 64usize;
        let parts = decompose_eval(&r, n);
        // (a) union = R, and parts are disjoint
        let mut total = 0usize;
        let mut acc = Relation::empty(r.vars());
        for (p, card, deg) in &parts {
            total += p.len();
            acc = acc.union(p);
            // (b) degree bound
            assert!(p.degree(VarSet::singleton(Var(0))) as u64 <= *deg);
            // (c) projection cardinality bound
            assert!(p.project(VarSet::singleton(Var(0))).len() as u64 <= *card);
            // (d) N_X · N_{Y|X} ≤ N... up to the ceil on card
            assert!(card * deg <= 2 * n as u64, "card {card} deg {deg}");
        }
        assert_eq!(acc, r);
        assert_eq!(total, r.len(), "parts must be disjoint");
    }

    #[test]
    fn part_count_is_logarithmic() {
        let r = zipf_relation(Var(0), Var(1), 30, 1.0, 9);
        let parts = decompose_eval(&r, 32);
        assert_eq!(parts.len(), 2 * (1 + 32u64.ilog2()) as usize); // 2k = 12
    }

    #[test]
    fn uniform_degree_lands_in_one_bucket() {
        // every A-value has degree exactly 4 ⇒ only bucket i=3 ([4,8)) is
        // populated
        let rows: Vec<Vec<u64>> = (0..8)
            .flat_map(|a| (0..4).map(move |b| vec![a, 100 + a * 4 + b]))
            .collect();
        let r = Relation::from_rows(vec![Var(0), Var(1)], rows);
        let parts = decompose_eval(&r, 32);
        for (p, _, deg) in &parts {
            if *deg != 4 {
                assert_eq!(p.len(), 0, "unexpected tuples in degree-{deg} bucket");
            }
        }
        let in_bucket: usize = parts
            .iter()
            .filter(|(_, _, d)| *d == 4)
            .map(|(p, _, _)| p.len())
            .sum();
        assert_eq!(in_bucket, 32);
    }

    #[test]
    fn odd_even_split_balances_groups() {
        // a single A-value of degree 5 splits 3 + 2
        let r = Relation::from_rows(vec![Var(0), Var(1)], (0..5).map(|i| vec![7, i]).collect());
        let parts = decompose_eval(&r, 8);
        let sizes: Vec<usize> = parts
            .iter()
            .filter(|(p, _, _)| !p.is_empty())
            .map(|(p, _, _)| p.len())
            .collect();
        assert_eq!(sizes, vec![3, 2]);
    }

    #[test]
    fn empty_relation_decomposes_to_empty_parts() {
        let r = Relation::empty(VarSet::from(vec![Var(0), Var(1)]));
        let parts = decompose_eval(&r, 8);
        assert!(parts.iter().all(|(p, _, _)| p.is_empty()));
    }
}
