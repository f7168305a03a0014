//! The relational-gate cost model of Sec. 4.3, and the word-gate
//! prediction the planner ranks candidates by.

use qec_bignum::Int;

use crate::{RcOp, RelationalCircuit};

/// Total cost of a relational circuit under the paper's model:
///
/// * selection / projection / aggregation / sorting / truncation / map
///   gates cost their input capacity `N`;
/// * a union gate costs `M + N`;
/// * a primary-key join or semijoin costs `M + N'`;
/// * a degree-bounded join costs `M·N + N'`;
/// * an output-bounded join costs `M + N + OUT`;
/// * each decomposition part costs its input capacity (the whole
///   decomposition is `Õ(N)` — Alg. 2).
///
/// The lowered word circuit's gate count is this cost times a polylog
/// factor; experiment X4 measures the ratio.
pub fn paper_cost(rc: &RelationalCircuit) -> Int {
    let mut total = Int::zero();
    let cap = |id: usize| Int::from(rc.nodes[id].capacity);
    for n in &rc.nodes {
        let c = match &n.op {
            RcOp::Input { .. } => Int::zero(),
            RcOp::Select { input, .. }
            | RcOp::Project { input, .. }
            | RcOp::Aggregate { input, .. }
            | RcOp::Order { input, .. }
            | RcOp::Decompose { input, .. }
            | RcOp::Truncate { input, .. }
            | RcOp::Rename { input, .. }
            | RcOp::AttachConst { input, .. }
            | RcOp::MapMul { input, .. } => cap(*input),
            RcOp::Union { a, b } | RcOp::JoinPk { a, b } | RcOp::Semijoin { a, b } => {
                &cap(*a) + &cap(*b)
            }
            RcOp::JoinDegree { a, b, deg } => &(&cap(*a) * &Int::from(*deg)) + &cap(*b),
            RcOp::JoinOutput { a, b, out_bound } => &(&cap(*a) + &cap(*b)) + &Int::from(*out_bound),
        };
        total = &total + &c;
    }
    total
}

/// Word gates the lowering of `rc` ([`RelationalCircuit::lower`]) is
/// predicted to emit, read only off node capacities and schemas: no
/// gate is built. The planner ranks its candidates by it.
///
/// Each node is costed as its operator circuit is built:
///
/// * a sort of `K` slots costs the pruned odd–even network's exact
///   comparator count ([`qec_circuit::sort_comparators`],
///   `≈ K/4 · ⌈log₂ K⌉²`) times one comparator: a lexicographic compare
///   of the key and two muxes per carried wire;
/// * projection, union, aggregation, ordering, truncation, the
///   primary-key join, the semijoin and the decomposition cost the sorts
///   they run, plus their linear passes (deduplication, scans);
/// * a degree-bounded join whose bound is at least its right side's
///   capacity is a cross product: an AND per slot and shared variable,
///   and an equality per distinct pair of field wires; any other costs
///   Alg. 7's sorts;
/// * a projection onto `∅` is an OR over its input's slots;
/// * renaming and constant columns cost nothing.
///
/// The builder's folding and hash-consing are modelled only where
/// noted (the primary-key join's constant columns, the cross product's
/// shared equalities), so the figure is an estimate; `plan`'s tests pin
/// that it ranks the planner's candidates as their lowered sizes do.
pub fn predicted_gates(rc: &RelationalCircuit) -> u64 {
    let mut decomposed: Vec<(usize, qec_relation::VarSet)> = Vec::new();
    let mut total = 0f64;
    for n in &rc.nodes {
        let cap = |id: usize| rc.nodes[id].capacity as f64;
        let arity = |id: usize| rc.nodes[id].schema.len() as f64;
        let shared =
            |a: usize, b: usize| rc.nodes[a].schema.intersect(rc.nodes[b].schema).len() as f64;
        total += match &n.op {
            RcOp::Input { .. } | RcOp::Rename { .. } | RcOp::AttachConst { .. } => 0.0,
            RcOp::Select { input, .. } => 4.0 * cap(*input),
            RcOp::MapMul { input, .. } => 3.0 * cap(*input),
            RcOp::Project { input, onto } => model::project(cap(*input), onto.len() as f64),
            RcOp::Union { a, b } => model::project(cap(*a) + cap(*b), arity(*a)),
            RcOp::Aggregate { input, group, .. } => {
                model::aggregate(cap(*input), group.len() as f64, arity(*input))
            }
            RcOp::Order { input, .. } => model::sort(cap(*input), arity(*input), arity(*input)),
            RcOp::Truncate { input, capacity } => {
                model::truncate(cap(*input), *capacity as f64, arity(*input))
            }
            RcOp::JoinPk { a, b } => {
                let key = shared(*a, *b);
                model::join_pk(cap(*a), cap(*b), key, arity(*a), arity(*b) - key)
            }
            RcOp::Semijoin { a, b } => model::semijoin(cap(*a), cap(*b), shared(*a, *b), arity(*a)),
            RcOp::JoinDegree { a, b, deg } => {
                let key = shared(*a, *b);
                if *deg >= rc.nodes[*b].capacity {
                    // per slot an AND of the two valids and one per
                    // shared variable; an equality per distinct pair of
                    // field wires, which the builder hash-conses
                    let eqs: f64 = rc.nodes[*a]
                        .schema
                        .intersect(rc.nodes[*b].schema)
                        .iter()
                        .map(|v| field_wires(rc, *a, v) * field_wires(rc, *b, v))
                        .sum();
                    n.capacity as f64 * (1.0 + key) + eqs
                } else {
                    model::join_degree(cap(*a), cap(*b), *deg as f64, key, arity(*a), arity(*b))
                }
            }
            RcOp::JoinOutput { a, b, out_bound } => {
                let key = shared(*a, *b);
                model::join_output(
                    cap(*a),
                    cap(*b),
                    *out_bound as f64,
                    key,
                    arity(*a),
                    arity(*b),
                )
            }
            RcOp::Decompose { input, on, .. } => {
                // the decomposition circuit is built once per (input, on)
                if decomposed.contains(&(*input, *on)) {
                    0.0
                } else {
                    decomposed.push((*input, *on));
                    model::decompose(cap(*input), on.len() as f64, arity(*input))
                }
            }
        };
    }
    total.min(u64::MAX as f64) as u64
}

/// How many distinct wires carry column `v` across the slots of node
/// `id`: a cross product copies each side's fields into many slots, so
/// its columns have only as many wires as the side they come from.
fn field_wires(rc: &RelationalCircuit, id: usize, v: qec_relation::Var) -> f64 {
    let n = &rc.nodes[id];
    match n.op {
        RcOp::JoinDegree { a, b, deg } if deg >= rc.nodes[b].capacity => {
            let side = if rc.nodes[a].schema.contains(v) { a } else { b };
            field_wires(rc, side, v)
        }
        _ => n.capacity as f64,
    }
}

/// Word-gate models of the operator circuits in `qec-circuit`, in the
/// order those circuits build their parts. Sizes are slot counts, `key`
/// and widths are column counts.
mod model {
    /// Comparators the sorting network emits on `n` slots.
    fn comparators(n: f64) -> f64 {
        qec_circuit::sort_comparators(n as u64) as f64
    }

    /// One comparator on `key` columns (besides `valid`) carrying
    /// `width` wires (besides `valid`): a lexicographic compare, four
    /// gates a word but two for the first, and two muxes a wire.
    fn comparator(key: f64, width: f64) -> f64 {
        4.0 * (key + 1.0) - 2.0 + 2.0 * (width + 1.0)
    }

    /// A sort of `n` slots on `key` columns carrying `width` wires.
    pub fn sort(n: f64, key: f64, width: f64) -> f64 {
        comparators(n) * comparator(key, width)
    }

    /// A segmented scan of `n` slots: rounds at offsets `1, 2, 4, …`,
    /// each slot past the offset paying a key equality, the operator
    /// and a mux per value.
    fn scan(n: f64, key: f64, vals: f64, op: f64) -> f64 {
        let mut steps = 0.0;
        let mut offset = 1.0;
        while offset < n {
            steps += n - offset;
            offset *= 2.0;
        }
        steps * (2.0 * key + op + vals)
    }

    /// Projection onto `k` columns: a sort and an adjacent-duplicate
    /// pass; onto `∅`, an OR tree.
    pub fn project(n: f64, k: f64) -> f64 {
        if k == 0.0 {
            n
        } else {
            sort(n, k, k) + n * (2.0 * k + 3.0)
        }
    }

    /// Truncation to `to` slots: a valid-first sort when it shrinks.
    pub fn truncate(n: f64, to: f64, width: f64) -> f64 {
        if to >= n {
            0.0
        } else {
            sort(n, 0.0, width)
        }
    }

    pub fn aggregate(n: f64, group: f64, width: f64) -> f64 {
        sort(n, group, width) + scan(n, group, 1.0, 2.0) + n * (2.0 * group + 3.0)
    }

    /// Alg. 6's core on `m` probe slots and `s` keyed rows: one sort of
    /// both sides by key and origin, the key-uniqueness check, and the
    /// scan that copies each keyed row's payload down its group. The
    /// sort's first rounds compare rows of one side, whose origin
    /// markers and other side's columns are equal constants that fold,
    /// so they are costed apart from the rounds that merge the sides.
    fn pk_payload(m: f64, s: f64, key: f64, arity: f64, payload: f64) -> f64 {
        let n = m + s;
        let merge = (comparators(n) - comparators(m) - comparators(s)).max(0.0);
        comparators(m) * comparator(key, key + arity)
            + comparators(s) * comparator(key, key + payload)
            + merge * comparator(key + 1.0, key + arity + payload + 2.0)
            + n * (2.0 * key + 6.0)
            + scan(n, key, payload + 1.0, 0.0)
    }

    pub fn join_pk(m: f64, s: f64, key: f64, arity: f64, payload: f64) -> f64 {
        pk_payload(m, s, key, arity, payload) + truncate(m + s, m, arity + payload)
    }

    pub fn semijoin(m: f64, s: f64, key: f64, arity: f64) -> f64 {
        project(s, key) + join_pk(m, s, key, arity, 0.0)
    }

    /// Alg. 7 with `deg < s`: the semijoin, a sort per halving round,
    /// the adjacent merge, the primary-key join carrying the value
    /// sequences, and the expansion of all its `m + len` rows, which is
    /// deduplicated and truncated.
    pub fn join_degree(m: f64, s: f64, deg: f64, key: f64, arity_r: f64, arity_s: f64) -> f64 {
        let group = arity_s - key;
        let out = arity_r + group;
        if deg <= 1.0 {
            return join_pk(m, s, key, arity_r, group);
        }
        let rounds = (deg - 1.0).log2().ceil().max(1.0);
        let mut total = semijoin(s, m, key, arity_s) + sort(s, key, key + group);
        let mut len = s.min(m * (rounds.exp2() + 1.0));
        let mut reps = 1.0;
        for i in 1..=rounds as u32 {
            total += len / 2.0 * (2.0 * key + 4.0 + 2.0 * reps * group);
            reps *= 2.0;
            total += sort(len, key, key + reps * group);
            len = len.min(m * ((rounds - f64::from(i)).exp2() + 1.0));
        }
        total += len * (2.0 * key + 3.0 + 2.0 * reps * group);
        reps *= 2.0;
        total += sort(len, key, key + reps * group);
        let len = m.min(len);
        total += pk_payload(m, len, key, arity_r, reps * group);
        let expanded = (m + len) * reps;
        total + project(expanded, out) + truncate(expanded, m * deg, out)
    }

    /// Alg. 10: the decomposition of `s`, and per part a semijoin, a
    /// truncation, a degree-bounded join and a running union.
    pub fn join_output(m: f64, s: f64, out: f64, key: f64, arity_r: f64, arity_s: f64) -> f64 {
        let width = arity_r + arity_s - key;
        let mut total = decompose(s, key, arity_s);
        let part = (s / 2.0).ceil();
        let buckets = 1.0 + s.max(1.0).log2().floor();
        for i in 0..buckets as u32 {
            let deg = f64::from(i).exp2();
            for _ in 0..2 {
                total += semijoin(m, part, key, arity_r);
                let joined = if deg >= part {
                    m * part * (1.0 + 2.0 * key)
                } else {
                    join_degree(m, part, deg, key, arity_r, arity_s)
                };
                total += joined + project(out + m * deg.min(part), width);
                total += truncate(out + m * deg.min(part), out, width);
            }
        }
        total
    }

    /// Alg. 2: the degree count, its primary-key join back, and per
    /// bucket a selection and a sort by the conditioning columns.
    pub fn decompose(n: f64, on: f64, arity: f64) -> f64 {
        let buckets = 1.0 + n.max(1.0).log2().floor();
        aggregate(n, on, arity)
            + join_pk(n, n, on, arity, 1.0)
            + buckets * (4.0 * n + sort(n, on, arity + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_relation::{Var, VarSet};

    #[test]
    fn cost_matches_hand_count() {
        let mut rc = RelationalCircuit::new();
        let vs = |bits: &[u32]| -> VarSet { bits.iter().map(|&i| Var(i)).collect() };
        let r = rc.input("R", vs(&[0, 1]), 10); // 0
        let s = rc.input("S", vs(&[1, 2]), 20); // 0
        let p = rc.project(r, vs(&[1])); // 10
        let j = rc.join_degree(p, s, 3); // 10·3 + 20 = 50
        let u = rc.union(j, j); // 30 + 30 = 60
        let t = rc.truncate(u, 5); // 60
        rc.mark_output(t);
        assert_eq!(paper_cost(&rc), qec_bignum::Int::from(180u64));
    }
}
