//! Sorting networks over relation slots.
//!
//! The paper allows any `Õ(N)`-size, `Õ(1)`-depth sorting network
//! (Sec. 5, "Ordering"); we provide Batcher's two networks — odd–even
//! mergesort (default; fewer comparators) and the bitonic sorter — both
//! `O(K log² K)` compare-exchange units and `O(log² K)` depth. The
//! `O(N log N)` AKS network has galactic constants (see `DESIGN.md`).
//! Non-power-of-two capacities are padded with dummy slots that sort to
//! the end and are discarded afterwards, so the visible capacity is
//! unchanged.

use qec_relation::Var;

use crate::rel::{RelWires, SlotWires, QMARK};
use crate::{Builder, WireId};

/// How to order slots. All orderings place dummy slots last, which
/// implements the paper's convention that "all non-dummy tuples are placed
/// before the dummy tuples" so rank numbers are correct (Sec. 5).
#[derive(Clone, Debug)]
pub enum SortKey {
    /// Order by the given columns lexicographically (dummies last).
    Columns(Vec<Var>),
    /// Order by columns, with an extra tie-break wire *after* the columns
    /// (smaller tie-break value first). Used by the primary-key join
    /// (Alg. 6 line 4: tuples with `C ≠ ?` first within a `B` group).
    ColumnsThen(Vec<Var>, usize),
    /// Only move dummies last, otherwise preserve nothing in particular
    /// (used by truncation).
    ValidFirst,
}

fn key_wires(
    b: &mut Builder,
    rel: &RelWires,
    slot: usize,
    key: &SortKey,
    extra: &[Vec<WireId>],
) -> Vec<WireId> {
    let s = &rel.slots[slot];
    // leading component: !valid, so dummies (0-valid ⇒ 1) sort last
    let invalid = b.not(s.valid);
    let mut k = vec![invalid];
    match key {
        SortKey::ValidFirst => {}
        SortKey::Columns(cols) => {
            for &v in cols {
                let c = rel.col(v).expect("sort column in schema");
                // dummies carry arbitrary fields; force them to QMARK so
                // equal keys cannot straddle the valid/dummy boundary
                let qm = b.constant(QMARK);
                let f = b.mux(s.valid, s.fields[c], qm);
                k.push(f);
            }
        }
        SortKey::ColumnsThen(cols, tie_idx) => {
            for &v in cols {
                let c = rel.col(v).expect("sort column in schema");
                let qm = b.constant(QMARK);
                let f = b.mux(s.valid, s.fields[c], qm);
                k.push(f);
            }
            k.push(extra[*tie_idx][slot]);
        }
    }
    k
}

/// Which comparator network to instantiate. Both are Batcher networks
/// with `Θ(K log² K)` comparators and `Θ(log² K)` depth; odd–even
/// mergesort uses roughly half the comparators (`~K/4·log²K` vs
/// `~K/2·log²K`) at identical depth, so it is the default. The choice is
/// an ablation knob for experiment X12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SortNetwork {
    /// Batcher odd–even mergesort (fewer comparators).
    #[default]
    OddEvenMerge,
    /// Batcher bitonic sorter (the textbook two-loop network).
    Bitonic,
}

/// Comparator schedule `(i, j, ascending)` for a power-of-two size.
fn comparators(network: SortNetwork, m: usize) -> Vec<(usize, usize, bool)> {
    let mut out = Vec::new();
    match network {
        SortNetwork::Bitonic => {
            let mut stage = 2usize;
            while stage <= m {
                let mut step = stage / 2;
                while step >= 1 {
                    for i in 0..m {
                        let j = i ^ step;
                        if j > i {
                            out.push((i, j, (i & stage) == 0));
                        }
                    }
                    step /= 2;
                }
                stage *= 2;
            }
        }
        SortNetwork::OddEvenMerge => {
            // Batcher odd–even mergesort, iterative form.
            let mut p = 1usize;
            while p < m {
                let mut k = p;
                while k >= 1 {
                    for j in (k % p..m - k).step_by(2 * k) {
                        for i in 0..k.min(m - j - k) {
                            if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                                out.push((i + j, i + j + k, true));
                            }
                        }
                    }
                    k /= 2;
                }
                p *= 2;
            }
        }
    }
    out
}

/// Sorts the slots of `rel` with a Batcher comparator network (see
/// [`SortNetwork`]), returning a new relation wire bundle of the same
/// capacity. `extra` supplies auxiliary per-slot wire columns referenced
/// by [`SortKey::ColumnsThen`]; they are permuted alongside the slots and
/// returned.
pub fn sort_slots_with(
    b: &mut Builder,
    rel: &RelWires,
    key: &SortKey,
    extra: &[Vec<WireId>],
) -> (RelWires, Vec<Vec<WireId>>) {
    sort_slots_network(b, rel, key, extra, SortNetwork::default())
}

/// Sorts the slots of `rel` by `key` with an explicit network choice,
/// permuting the auxiliary per-slot `extra` columns (referenced by
/// [`SortKey::ColumnsThen`]) alongside and returning them.
pub fn sort_slots_network(
    b: &mut Builder,
    rel: &RelWires,
    key: &SortKey,
    extra: &[Vec<WireId>],
    network: SortNetwork,
) -> (RelWires, Vec<Vec<WireId>>) {
    let n = rel.capacity();
    for col in extra {
        assert_eq!(col.len(), n, "extra column capacity mismatch");
    }
    if n <= 1 {
        return (rel.clone(), extra.to_vec());
    }
    let padded = n.next_power_of_two();

    // Element = (slot wires, extra wires, key wires). Padding elements are
    // dummy slots whose key (leading !valid = 1, fields = QMARK) sorts
    // after every real slot's key.
    struct Elem {
        fields: Vec<WireId>,
        valid: WireId,
        extra: Vec<WireId>,
        key: Vec<WireId>,
    }
    let mut elems: Vec<Elem> = (0..n)
        .map(|i| Elem {
            fields: rel.slots[i].fields.clone(),
            valid: rel.slots[i].valid,
            extra: extra.iter().map(|col| col[i]).collect(),
            key: key_wires(b, rel, i, key, extra),
        })
        .collect();
    let key_len = elems[0].key.len();
    let zero = b.constant(0);
    let qm = b.constant(QMARK);
    let one = b.constant(1);
    for _ in n..padded {
        let mut k = vec![one];
        k.extend(std::iter::repeat_n(qm, key_len - 1));
        elems.push(Elem {
            fields: vec![zero; rel.arity()],
            valid: zero,
            extra: vec![zero; extra.len()],
            key: k,
        });
    }

    // Instantiate the comparator schedule; each comparator is a
    // lexicographic compare plus a mux per carried wire. A comparator
    // depends only on the latest earlier comparator touching either of
    // its lanes, so a greedy pass groups the schedule into conflict-free
    // layers: the data-flow DAG is unchanged, and `fork_join` can emit
    // each layer's comparators from multiple workers (on a sequential
    // builder the layers simply run in order).
    let schedule = comparators(network, padded);
    let mut layer_of = vec![0usize; schedule.len()];
    let mut last_on_lane = vec![usize::MAX; padded];
    let mut num_layers = 0usize;
    for (k, &(i, j, _)) in schedule.iter().enumerate() {
        let after = |lane: usize| match last_on_lane[lane] {
            usize::MAX => 0,
            prev => layer_of[prev] + 1,
        };
        let l = after(i).max(after(j));
        layer_of[k] = l;
        last_on_lane[i] = k;
        last_on_lane[j] = k;
        num_layers = num_layers.max(l + 1);
    }
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); num_layers];
    for (k, &l) in layer_of.iter().enumerate() {
        layers[l].push(k);
    }

    for layer in &layers {
        let swapped = b.fork_join(layer.len(), |t, bb| {
            let (i, j, ascending) = schedule[layer[t]];
            let (ei, ej) = (&elems[i], &elems[j]);
            let swap_raw = bb.lex_lt(&ej.key, &ei.key);
            let swap = if ascending {
                swap_raw
            } else {
                bb.not(swap_raw)
            };
            let new_i = Elem {
                fields: bb.vec_mux(swap, &ej.fields, &ei.fields),
                valid: bb.mux(swap, ej.valid, ei.valid),
                extra: bb.vec_mux(swap, &ej.extra, &ei.extra),
                key: bb.vec_mux(swap, &ej.key, &ei.key),
            };
            let new_j = Elem {
                fields: bb.vec_mux(swap, &ei.fields, &ej.fields),
                valid: bb.mux(swap, ei.valid, ej.valid),
                extra: bb.vec_mux(swap, &ei.extra, &ej.extra),
                key: bb.vec_mux(swap, &ei.key, &ej.key),
            };
            (new_i, new_j)
        });
        for (t, (new_i, new_j)) in swapped.into_iter().enumerate() {
            let (i, j, _) = schedule[layer[t]];
            elems[i] = new_i;
            elems[j] = new_j;
        }
    }

    // Real slots all sort before padding (padding keys are maximal), so
    // truncating back to n keeps every real tuple.
    let slots: Vec<SlotWires> = elems[..n]
        .iter()
        .map(|e| SlotWires {
            fields: e.fields.clone(),
            valid: e.valid,
        })
        .collect();
    let out_extra: Vec<Vec<WireId>> = (0..extra.len())
        .map(|c| elems[..n].iter().map(|e| e.extra[c]).collect())
        .collect();
    (
        RelWires {
            schema: rel.schema.clone(),
            slots,
        },
        out_extra,
    )
}

/// Sorts the slots of `rel` by `key` with the default network and no
/// auxiliary columns.
pub fn sort_slots(b: &mut Builder, rel: &RelWires, key: &SortKey) -> RelWires {
    sort_slots_with(b, rel, key, &[]).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{decode_relation, encode_relation, relation_to_values};
    use crate::Mode;
    use qec_relation::Relation;

    fn run_sort(rows: &[&[u64]], capacity: usize, cols: &[u32]) -> Vec<Vec<u64>> {
        let schema = vec![Var(0), Var(1)];
        let r = Relation::from_rows(schema.clone(), rows.iter().map(|r| r.to_vec()).collect());
        let mut b = Builder::new(Mode::Build);
        let w = encode_relation(&mut b, schema.clone(), capacity);
        let key = SortKey::Columns(cols.iter().map(|&i| Var(i)).collect());
        let sorted = sort_slots(&mut b, &w, &key);
        let c = b.finish(sorted.flatten());
        let out = c
            .evaluate(&relation_to_values(&r, capacity).unwrap())
            .unwrap();
        // return raw slots (value rows with valid flag) to check placement
        out.chunks(3).map(|ch| ch.to_vec()).collect()
    }

    #[test]
    fn sorts_by_column_with_dummies_last() {
        let slots = run_sort(&[&[3, 1], &[1, 2], &[2, 3]], 5, &[0]);
        let valid: Vec<u64> = slots.iter().map(|s| s[2]).collect();
        assert_eq!(valid, vec![1, 1, 1, 0, 0]);
        let a: Vec<u64> = slots[..3].iter().map(|s| s[0]).collect();
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn sort_by_second_column() {
        let slots = run_sort(&[&[1, 9], &[2, 4], &[3, 7]], 4, &[1]);
        let bcol: Vec<u64> = slots[..3].iter().map(|s| s[1]).collect();
        assert_eq!(bcol, vec![4, 7, 9]);
    }

    #[test]
    fn non_power_of_two_capacity() {
        for cap in [3usize, 5, 6, 7, 9] {
            let slots = run_sort(&[&[9, 0], &[4, 0], &[7, 0]], cap, &[0]);
            let reals: Vec<u64> = slots.iter().filter(|s| s[2] == 1).map(|s| s[0]).collect();
            assert_eq!(reals, vec![4, 7, 9], "capacity {cap}");
            assert_eq!(slots.len(), cap);
        }
    }

    #[test]
    fn sort_preserves_multiset() {
        let schema = vec![Var(0), Var(1)];
        let r = Relation::from_rows(
            schema.clone(),
            vec![vec![5, 5], vec![1, 1], vec![3, 3], vec![2, 2]],
        );
        let mut b = Builder::new(Mode::Build);
        let w = encode_relation(&mut b, schema.clone(), 6);
        let sorted = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
        let c = b.finish(sorted.flatten());
        let out = c.evaluate(&relation_to_values(&r, 6).unwrap()).unwrap();
        assert_eq!(decode_relation(&schema, &out), r);
    }

    #[test]
    fn tie_break_extra_column_orders_within_group() {
        // two tuples with equal sort column; tie wire orders them
        let schema = vec![Var(0)];
        let mut b = Builder::new(Mode::Build);
        let w = encode_relation(&mut b, schema.clone(), 2);
        let tie0 = b.input();
        let tie1 = b.input();
        let key = SortKey::ColumnsThen(vec![Var(0)], 0);
        let (sorted, extras) = sort_slots_with(&mut b, &w, &key, &[vec![tie0, tie1]]);
        let mut outs = sorted.flatten();
        outs.extend(extras[0].clone());
        let c = b.finish(outs);
        // rows: (7) tie=1, (7) tie=0 → after sort the tie=0 row first
        let out = c.evaluate(&[7, 1, 7, 1, 1, 0]).unwrap();
        assert_eq!(out[4..6], [0, 1]); // permuted tie column
    }

    #[test]
    fn odd_even_network_sorts() {
        // exhaustive 0/1 check (Knuth's 0-1 principle) on 8 elements
        for mask in 0u32..256 {
            let vals: Vec<u64> = (0..8).map(|i| u64::from((mask >> i) & 1)).collect();
            let schema = vec![Var(0)];
            let r = Relation::from_rows(
                schema.clone(),
                vals.iter()
                    .enumerate()
                    .map(|(i, &v)| vec![v * 100 + i as u64])
                    .collect(),
            );
            let mut b = Builder::new(Mode::Build);
            let w = encode_relation(&mut b, schema.clone(), 8);
            let (sorted, _) = sort_slots_network(
                &mut b,
                &w,
                &SortKey::Columns(vec![Var(0)]),
                &[],
                SortNetwork::OddEvenMerge,
            );
            let c = b.finish(sorted.flatten());
            let out = c.evaluate(&relation_to_values(&r, 8).unwrap()).unwrap();
            let got: Vec<u64> = out.chunks(2).map(|ch| ch[0] / 100).collect();
            let mut expect: Vec<u64> = vals.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "mask {mask:#b}");
        }
    }

    #[test]
    fn odd_even_uses_fewer_comparators_than_bitonic() {
        for e in [4u32, 6, 8] {
            let m = 1usize << e;
            let oe = comparators(SortNetwork::OddEvenMerge, m).len();
            let bi = comparators(SortNetwork::Bitonic, m).len();
            assert!(oe < bi, "m={m}: odd-even {oe} vs bitonic {bi}");
            // both are Θ(m log² m)
            let bound = m * (e as usize) * (e as usize);
            assert!(oe <= bound && bi <= bound, "m={m}");
        }
    }

    #[test]
    fn size_scales_as_n_log2_n() {
        fn cost(n: usize) -> u64 {
            let mut b = Builder::new(Mode::Count);
            let w = encode_relation(&mut b, vec![Var(0)], n);
            let s = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
            let c = b.finish(s.flatten());
            c.size()
        }
        let (c64, c256) = (cost(64), cost(256));
        // N log²N: 256·64 / (64·36) ≈ 7.1× — allow generous band 4×..12×
        let ratio = c256 as f64 / c64 as f64;
        assert!((4.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn depth_scales_as_log2_n() {
        fn depth(n: usize) -> u32 {
            let mut b = Builder::new(Mode::Count);
            let w = encode_relation(&mut b, vec![Var(0)], n);
            let s = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
            b.finish(s.flatten()).depth()
        }
        // log²: stages·steps comparisons; each comparator is O(1) depth
        let (d16, d256) = (depth(16), depth(256));
        assert!(
            d256 < d16 * 8,
            "depth should grow polylogarithmically: {d16} → {d256}"
        );
    }
}
