//! Selection, projection (Alg. 3), aggregation (Alg. 5), union, and
//! truncation circuits.

use qec_relation::{Var, VarSet};

use crate::rel::{RelWires, SlotWires};
use crate::sort::{sort_slots, SortKey};
use crate::{scan::segmented_scan, Builder, WireId};

/// Selection `σ_φ(R)` (Sec. 5): every slot flows through; slots failing
/// the predicate are set to dummy. `Õ(K)` size, `Õ(1)` depth.
pub fn select(
    b: &mut Builder,
    rel: &RelWires,
    mut pred: impl FnMut(&mut Builder, &SlotWires) -> WireId,
) -> RelWires {
    let slots = rel
        .slots
        .iter()
        .map(|s| {
            let p = pred(b, s);
            let valid = b.and(s.valid, p);
            SlotWires {
                fields: s.fields.clone(),
                valid,
            }
        })
        .collect();
    RelWires {
        schema: rel.schema.clone(),
        slots,
    }
}

/// Truncation (Sec. 5.3): sorts non-dummy tuples to the front and drops
/// the tail slots. The caller must guarantee at most `new_capacity`
/// non-dummy tuples; an [`crate::Gate::AssertZero`] per dropped slot turns a violated
/// guarantee into an evaluation error instead of silent data loss.
pub fn truncate(b: &mut Builder, rel: &RelWires, new_capacity: usize) -> RelWires {
    if new_capacity >= rel.capacity() {
        return rel.clone();
    }
    let sorted = sort_slots(b, rel, &SortKey::ValidFirst);
    for s in &sorted.slots[new_capacity..] {
        b.assert_zero(s.valid);
    }
    RelWires {
        schema: sorted.schema,
        slots: sorted.slots[..new_capacity].to_vec(),
    }
}

/// Projection `Π_F(R)` with duplicate elimination (Alg. 3): drop columns,
/// sort by the remaining ones, mark each tuple equal to its predecessor
/// dummy. `Õ(K)` size (dominated by the sort), `Õ(1)` depth.
///
/// The projection onto `∅` needs no sort: its one possible tuple `()` is
/// real iff some slot is, so it is a balanced OR tree over the `valid`
/// wires (`K - 1` gates, depth `⌈log₂ K⌉`) in slot 0, and the other
/// slots are constant dummies.
pub fn project(b: &mut Builder, rel: &RelWires, onto: VarSet) -> RelWires {
    assert!(onto.is_subset(rel.vars()), "projection onto non-attributes");
    if onto.is_empty() {
        return project_onto_nothing(b, rel);
    }
    let cols: Vec<usize> = onto.iter().map(|v| rel.col(v).expect("subset")).collect();
    let schema: Vec<Var> = onto.to_vec();
    let slots: Vec<SlotWires> = rel
        .slots
        .iter()
        .map(|s| SlotWires {
            fields: cols.iter().map(|&c| s.fields[c]).collect(),
            valid: s.valid,
        })
        .collect();
    let narrowed = RelWires {
        schema: schema.clone(),
        slots,
    };
    let sorted = sort_slots(b, &narrowed, &SortKey::Columns(schema.clone()));
    dedup_sorted(b, &sorted)
}

/// `Π_∅(R)` as an OR tree (see [`project`]); same capacity as `rel`.
fn project_onto_nothing(b: &mut Builder, rel: &RelWires) -> RelWires {
    let zero = b.constant(0);
    let mut level: Vec<WireId> = rel.slots.iter().map(|s| s.valid).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match *pair {
                [x, y] => b.or(x, y),
                [x] => x,
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    // a lone slot's `valid` may be any truthy word: make it 0/1
    let any = match level.first() {
        Some(&v) => b.and(v, v),
        None => zero,
    };
    RelWires {
        schema: Vec::new(),
        slots: (0..rel.capacity())
            .map(|i| SlotWires {
                fields: Vec::new(),
                valid: if i == 0 { any } else { zero },
            })
            .collect(),
    }
}

/// Marks tuples equal to their (valid) predecessor dummy; input must be
/// sorted by all columns.
fn dedup_sorted(b: &mut Builder, rel: &RelWires) -> RelWires {
    let mut slots = Vec::with_capacity(rel.capacity());
    for (i, s) in rel.slots.iter().enumerate() {
        if i == 0 {
            slots.push(s.clone());
            continue;
        }
        let prev = &rel.slots[i - 1];
        let eq = b.vec_eq(&s.fields, &prev.fields);
        let both = b.and(s.valid, prev.valid);
        let dup = b.and(eq, both);
        let keep = b.not(dup);
        let valid = b.and(s.valid, keep);
        slots.push(SlotWires {
            fields: s.fields.clone(),
            valid,
        });
    }
    RelWires {
        schema: rel.schema.clone(),
        slots,
    }
}

/// Union `R ∪ S` (Sec. 5): concatenates the slot arrays and deduplicates
/// via the projection circuit onto all attributes. Output capacity
/// `K + L`.
///
/// # Panics
/// Panics if the schemas differ.
pub fn union(b: &mut Builder, r: &RelWires, s: &RelWires) -> RelWires {
    assert_eq!(r.schema, s.schema, "union schema mismatch");
    let mut slots = r.slots.clone();
    slots.extend(s.slots.iter().cloned());
    let cat = RelWires {
        schema: r.schema.clone(),
        slots,
    };
    project(b, &cat, cat.vars())
}

/// Aggregate operators for [`aggregate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Tuples per group.
    Count,
    /// Sum of an attribute per group.
    Sum(Var),
    /// Minimum of an attribute per group.
    Min(Var),
    /// Maximum of an attribute per group.
    Max(Var),
}

/// Group-by aggregation `Π_{G, agg}(R)` (Alg. 5): sort by the group key,
/// run an `agg`-segmented-scan, keep the last tuple of each group (which
/// holds the inclusive total). Output schema `G ∪ {out}`, same capacity.
///
/// # Panics
/// Panics if `out` collides with the schema or the aggregated attribute is
/// missing.
pub fn aggregate(b: &mut Builder, rel: &RelWires, group: VarSet, op: AggOp, out: Var) -> RelWires {
    assert!(group.is_subset(rel.vars()), "group-by on non-attributes");
    assert!(
        !rel.vars().contains(out),
        "aggregate output column collides"
    );
    let gcols: Vec<Var> = group.to_vec();
    let sorted = sort_slots(b, rel, &SortKey::Columns(gcols.clone()));

    // scan values
    let zero = b.constant(0);
    let vals: Vec<Vec<WireId>> = sorted
        .slots
        .iter()
        .map(|s| {
            let v = match op {
                AggOp::Count => s.valid, // contributes 1 when real
                AggOp::Sum(a) | AggOp::Min(a) | AggOp::Max(a) => {
                    s.fields[sorted.col(a).expect("aggregated attribute present")]
                }
            };
            vec![v]
        })
        .collect();
    // segment keys: the group fields, which the sort left at QMARK in
    // dummy slots, so dummies form a trailing segment of their own
    let qm = b.constant(crate::rel::QMARK);
    let keys: Vec<Vec<WireId>> = sorted
        .slots
        .iter()
        .map(|s| {
            if gcols.is_empty() {
                // global aggregate: one segment for real tuples, one for
                // dummies
                return vec![b.mux(s.valid, zero, qm)];
            }
            gcols
                .iter()
                .map(|v| s.fields[sorted.col(*v).expect("subset")])
                .collect()
        })
        .collect();

    let scanned = segmented_scan(b, &keys, &vals, &mut |b, a, x| match op {
        AggOp::Count | AggOp::Sum(_) => vec![b.add(a[0], x[0])],
        AggOp::Min(_) => {
            let lt = b.lt(a[0], x[0]);
            vec![b.mux(lt, a[0], x[0])]
        }
        AggOp::Max(_) => {
            let gt = b.lt(x[0], a[0]);
            vec![b.mux(gt, a[0], x[0])]
        }
    });

    // keep only the last slot of each segment (Alg. 5 lines 4–6)
    let out_vars = group.with(out);
    let out_schema: Vec<Var> = out_vars.to_vec();
    let out_pos = out_schema.iter().position(|&v| v == out).expect("out var");
    let n = sorted.capacity();
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        let s = &sorted.slots[i];
        let is_last = if i + 1 < n {
            let next = &sorted.slots[i + 1];
            let same = b.vec_eq(&keys[i], &keys[i + 1]);
            let next_real = b.and(next.valid, same);
            b.not(next_real)
        } else {
            b.constant(1)
        };
        let valid = b.and(s.valid, is_last);
        let mut fields = Vec::with_capacity(out_schema.len());
        for (pos, v) in out_schema.iter().enumerate() {
            if pos == out_pos {
                fields.push(scanned[i][0]);
            } else {
                fields.push(s.fields[sorted.col(*v).expect("group var")]);
            }
        }
        slots.push(SlotWires { fields, valid });
    }
    RelWires {
        schema: out_schema,
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{decode_relation, encode_relation, relation_to_values};
    use qec_relation::{AggKind, Relation};

    fn rel2(rows: &[&[u64]]) -> Relation {
        Relation::from_rows(
            vec![Var(0), Var(1)],
            rows.iter().map(|r| r.to_vec()).collect(),
        )
    }

    fn run_unary<F>(r: &Relation, capacity: usize, f: F) -> Relation
    where
        F: FnOnce(&mut Builder, &RelWires) -> RelWires,
    {
        let mut b = Builder::new();
        let w = encode_relation(&mut b, r.schema().to_vec(), capacity);
        let out = f(&mut b, &w);
        let schema = out.schema.clone();
        let c = b.finish(out.flatten());
        let res = c
            .evaluate(&relation_to_values(r, capacity).unwrap())
            .unwrap();
        decode_relation(&schema, &res)
    }

    #[test]
    fn select_filters() {
        let r = rel2(&[&[1, 10], &[2, 20], &[3, 10]]);
        let got = run_unary(&r, 5, |b, w| {
            select(b, w, |b, s| {
                let ten = b.constant(10);
                b.eq(s.fields[1], ten)
            })
        });
        assert_eq!(got, r.select(|row| row[1] == 10));
    }

    #[test]
    fn project_dedups() {
        let r = rel2(&[&[1, 10], &[2, 10], &[3, 20]]);
        let got = run_unary(&r, 6, |b, w| project(b, w, VarSet::singleton(Var(1))));
        assert_eq!(got, r.project(VarSet::singleton(Var(1))));
    }

    #[test]
    fn project_to_empty_schema_is_boolean() {
        // capacities 2, 3, 4, 5: the OR tree's even and odd levels
        for capacity in 2..=5 {
            let r = rel2(&[&[1, 10], &[2, 20]]);
            let got = run_unary(&r, capacity, |b, w| project(b, w, VarSet::EMPTY));
            assert_eq!(got.len(), 1); // the unit tuple: "non-empty"
            let empty = rel2(&[]);
            let got = run_unary(&empty, capacity, |b, w| project(b, w, VarSet::EMPTY));
            assert_eq!(got.len(), 0);
        }
    }

    #[test]
    fn truncate_keeps_valid_tuples() {
        let r = rel2(&[&[5, 5], &[1, 1]]);
        let got = run_unary(&r, 8, |b, w| truncate(b, w, 3));
        assert_eq!(got, r);
    }

    #[test]
    fn truncate_assertion_fires_on_overflow() {
        let r = rel2(&[&[1, 1], &[2, 2], &[3, 3]]);
        let mut b = Builder::new();
        let w = encode_relation(&mut b, r.schema().to_vec(), 4);
        let t = truncate(&mut b, &w, 2);
        let c = b.finish(t.flatten());
        let err = c.evaluate(&relation_to_values(&r, 4).unwrap()).unwrap_err();
        assert!(matches!(err, crate::EvalError::AssertionFailed { .. }));
    }

    #[test]
    fn union_dedups_across_sides() {
        let r = rel2(&[&[1, 1], &[2, 2]]);
        let s = rel2(&[&[2, 2], &[3, 3]]);
        let mut b = Builder::new();
        let rw = encode_relation(&mut b, r.schema().to_vec(), 3);
        let sw = encode_relation(&mut b, s.schema().to_vec(), 3);
        let u = union(&mut b, &rw, &sw);
        assert_eq!(u.capacity(), 6);
        let c = b.finish(u.flatten());
        let mut vals = relation_to_values(&r, 3).unwrap();
        vals.extend(relation_to_values(&s, 3).unwrap());
        let got = decode_relation(r.schema(), &c.evaluate(&vals).unwrap());
        assert_eq!(got, r.union(&s));
    }

    #[test]
    fn aggregate_count_sum_min_max() {
        let r = rel2(&[&[1, 10], &[1, 20], &[2, 5], &[2, 7], &[3, 1]]);
        for (op, kind) in [
            (AggOp::Count, AggKind::Count),
            (AggOp::Sum(Var(1)), AggKind::Sum(Var(1))),
            (AggOp::Min(Var(1)), AggKind::Min(Var(1))),
            (AggOp::Max(Var(1)), AggKind::Max(Var(1))),
        ] {
            let got = run_unary(&r, 8, |b, w| {
                aggregate(b, w, VarSet::singleton(Var(0)), op, Var(5))
            });
            let expect = r.aggregate(VarSet::singleton(Var(0)), kind, Var(5));
            assert_eq!(got, expect, "{op:?}");
        }
    }

    #[test]
    fn global_aggregate() {
        let r = rel2(&[&[1, 10], &[2, 20], &[3, 30]]);
        let got = run_unary(&r, 5, |b, w| {
            aggregate(b, w, VarSet::EMPTY, AggOp::Count, Var(5))
        });
        assert_eq!(got, r.aggregate(VarSet::EMPTY, AggKind::Count, Var(5)));
    }

    #[test]
    fn aggregate_on_empty_relation() {
        let r = rel2(&[]);
        let got = run_unary(&r, 4, |b, w| {
            aggregate(b, w, VarSet::singleton(Var(0)), AggOp::Count, Var(5))
        });
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn project_cost_linear_up_to_polylog() {
        fn cost(n: usize) -> u64 {
            let mut b = Builder::new();
            let w = encode_relation(&mut b, vec![Var(0), Var(1)], n);
            let p = project(&mut b, &w, VarSet::singleton(Var(0)));
            b.finish(p.flatten()).size()
        }
        let ratio = cost(1024) as f64 / cost(128) as f64;
        // 8× data; N log²N ⇒ ≈ 8 · (10/7)² ≈ 16×; accept < 24×
        assert!(ratio < 24.0, "ratio {ratio}");
    }
}
