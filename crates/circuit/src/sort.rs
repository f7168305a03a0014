//! Sorting networks over relation slots.
//!
//! The paper allows any `Õ(N)`-size, `Õ(1)`-depth sorting network
//! (Sec. 5, "Ordering"); we provide Batcher's two networks — odd–even
//! mergesort (default; fewer comparators) and the bitonic sorter — both
//! `O(K log² K)` compare-exchange units and `O(log² K)` depth. The
//! `O(N log N)` AKS network has galactic constants (see `DESIGN.md`).
//!
//! A non-power-of-two capacity `n` runs the network of the next power
//! of two `m`, with lanes `n..m` holding padding that sorts last. Every
//! odd–even comparator is ascending, so a padding element never leaves
//! its lane and each comparator that touches one is a no-op: the
//! odd–even schedule drops them and builds only the `n` real lanes.
//! The bitonic sorter has descending comparators, so it keeps its
//! padding slots and discards them afterwards. Either way the visible
//! capacity is unchanged.
//!
//! The sort key is read from the wires every slot carries anyway. When
//! the sort starts, each key column's field of a dummy slot is set to
//! `QMARK` and `valid` is made `0`/`1`; a comparator then compares
//! `(valid, fields…, tie)` straight off the two elements, so a sorted
//! dummy slot leaves with `?` in every key column.

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

/// The wires one slot carries through the network. The sort key is read
/// from them: `(!valid, key fields…, tie)`, smallest first, so dummies
/// sort last. With `valid` 0/1 and a dummy's key fields at `QMARK`,
/// equal keys cannot straddle the valid/dummy boundary.
struct Elem {
    fields: Vec<WireId>,
    valid: WireId,
    extra: Vec<WireId>,
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
/// [`SortKey::ColumnsThen`]) alongside and returning them. A dummy slot
/// leaves with `QMARK` in every key column and a real one with its
/// fields unchanged; `valid` leaves as `0`/`1`.
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
    let (cols, tie): (&[Var], Option<usize>) = match key {
        SortKey::ValidFirst => (&[], None),
        SortKey::Columns(cols) => (cols, None),
        SortKey::ColumnsThen(cols, tie) => (cols, Some(*tie)),
    };
    let key_cols: Vec<usize> = cols
        .iter()
        .map(|&v| rel.col(v).expect("sort column in schema"))
        .collect();
    let mut is_key = vec![false; rel.arity()];
    for &c in &key_cols {
        is_key[c] = true;
    }

    let qm = b.constant(QMARK);
    let mut elems: Vec<Elem> = (0..n)
        .map(|i| {
            let s = &rel.slots[i];
            // `valid` as 0/1: the key compares it as a word. A wire the
            // builder already knows to be 0/1 is kept as it is.
            let valid = b.and(s.valid, s.valid);
            let fields = s
                .fields
                .iter()
                .zip(&is_key)
                .map(|(&f, &k)| if k { b.mux(valid, f, qm) } else { f })
                .collect();
            Elem {
                fields,
                valid,
                extra: extra.iter().map(|col| col[i]).collect(),
            }
        })
        .collect();

    let (lanes, schedule) = emitted_schedule(network, n);
    // Padding elements (bitonic only) are dummies, so their key sorts
    // after every real slot's key.
    let zero = b.constant(0);
    for _ in n..lanes {
        elems.push(Elem {
            fields: is_key.iter().map(|&k| if k { qm } else { zero }).collect(),
            valid: zero,
            extra: vec![zero; extra.len()],
        });
    }

    // Instantiate the comparator schedule; each comparator is a
    // lexicographic compare plus a mux per carried wire. A comparator
    // depends only on the latest earlier comparator touching either of
    // its lanes, so a greedy pass groups the schedule into conflict-free
    // layers, and the comparators are emitted layer by layer. The
    // data-flow DAG is the schedule's; the layer order fixes the gate
    // (and so wire) numbering.
    let mut layer_of = vec![0usize; schedule.len()];
    let mut last_on_lane = vec![usize::MAX; lanes];
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

    // The key of `x` against that of `y`, laid out so that `lex_lt` is
    // `key(y) < key(x)`: the valid wires go in swapped, since for 0/1
    // wires `Lt(!a, !b) = Lt(b, a)` and `Eq(!a, !b) = Eq(a, b)`.
    let key_pair = |x: &Elem, y: &Elem| -> (Vec<WireId>, Vec<WireId>) {
        let side = |valid: WireId, other: &Elem| {
            std::iter::once(valid)
                .chain(key_cols.iter().map(|&c| other.fields[c]))
                .chain(tie.map(|t| other.extra[t]))
                .collect()
        };
        (side(x.valid, y), side(y.valid, x))
    };
    for &k in layers.iter().flatten() {
        let (i, j, ascending) = schedule[k];
        let (ei, ej) = (&elems[i], &elems[j]);
        let (lhs, rhs) = key_pair(ei, ej);
        let swap_raw = b.lex_lt(&lhs, &rhs);
        let swap = if ascending { swap_raw } else { b.not(swap_raw) };
        let new_i = Elem {
            fields: b.vec_mux(swap, &ej.fields, &ei.fields),
            valid: b.mux(swap, ej.valid, ei.valid),
            extra: b.vec_mux(swap, &ej.extra, &ei.extra),
        };
        let new_j = Elem {
            fields: b.vec_mux(swap, &ei.fields, &ej.fields),
            valid: b.mux(swap, ei.valid, ej.valid),
            extra: b.vec_mux(swap, &ei.extra, &ej.extra),
        };
        elems[i] = new_i;
        elems[j] = new_j;
    }

    // Real slots all sort before padding (padding keys are maximal), so
    // truncating back to n keeps every real tuple.
    elems.truncate(n);
    let out_extra = (0..extra.len())
        .map(|c| elems.iter().map(|e| e.extra[c]).collect())
        .collect();
    let slots = elems
        .into_iter()
        .map(|e| SlotWires {
            fields: e.fields,
            valid: e.valid,
        })
        .collect();
    (
        RelWires {
            schema: rel.schema.clone(),
            slots,
        },
        out_extra,
    )
}

/// The comparators [`sort_slots_network`] emits for `n` slots, in
/// schedule order, and the number of lanes they span: the network for
/// the next power of two, less every odd–even comparator that touches
/// a padding lane (see the module doc). Bitonic keeps them all.
fn emitted_schedule(network: SortNetwork, n: usize) -> (usize, Vec<(usize, usize, bool)>) {
    let m = n.next_power_of_two();
    let mut schedule = comparators(network, m);
    match network {
        SortNetwork::OddEvenMerge => {
            schedule.retain(|&(_, j, _)| j < n);
            (n, schedule)
        }
        SortNetwork::Bitonic => (m, schedule),
    }
}

/// The number of comparators [`sort_slots`] emits for `n` slots (the
/// pruned odd–even network), counted without building the schedule:
/// the network on `2^k` lanes sorts both halves and merges them, a half
/// wholly inside the `n` real lanes has the closed-form count
/// `(k² − k + 4)·2^{k−2} − 1`, and only the half that straddles `n` is
/// counted recursively. `O(log³ n)` time.
pub fn sort_comparators(n: u64) -> u64 {
    /// Comparators of the merge of a `2p`-lane block whose upper lane
    /// lies below `n`.
    fn merge(n: u64, m: u64) -> u64 {
        let p = m / 2;
        // k = p: lanes (i, i + p)
        let mut total = n.saturating_sub(p).min(p);
        // k < p: lanes (j + i, j + i + k) for j = k, 3k, … < m − k and
        // i < k, that is Σ_t clamp(n − 2k(t+1), 0, k) over t < m/2k − 1
        let mut k = p / 2;
        while k >= 1 {
            let rounds = m / (2 * k) - 1;
            if n > 2 * k {
                let full = rounds.min((n - k) / (2 * k));
                total += full * k;
                if full < rounds {
                    total += n.saturating_sub(2 * k * (full + 1)).min(k);
                }
            }
            k /= 2;
        }
        total
    }
    fn count(n: u64, m: u64) -> u64 {
        if m < 2 || n < 2 {
            return 0;
        }
        if n >= m {
            let k = u64::from(m.trailing_zeros());
            return ((k * k - k + 4) << k) / 4 - 1;
        }
        let half = m / 2;
        count(n.min(half), half) + count(n.saturating_sub(half), half) + merge(n, m)
    }
    count(n, n.max(1).next_power_of_two())
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
    use crate::Gate;
    use qec_relation::Relation;

    fn run_sort(rows: &[&[u64]], capacity: usize, cols: &[u32]) -> Vec<Vec<u64>> {
        let schema = vec![Var(0), Var(1)];
        let r = Relation::from_rows(schema.clone(), rows.iter().map(|r| r.to_vec()).collect());
        let mut b = Builder::new();
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
        let mut b = Builder::new();
        let w = encode_relation(&mut b, schema.clone(), 6);
        let sorted = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
        let c = b.finish(sorted.flatten());
        let out = c.evaluate(&relation_to_values(&r, 6).unwrap()).unwrap();
        assert_eq!(decode_relation(&schema, &out), r);
    }

    /// The aggregate and the primary-key join read segment keys straight
    /// off a sort: a dummy must leave with `?` in each key column, with
    /// any `valid ≠ 0` counting as real and leaving as `1`.
    #[test]
    fn dummies_leave_with_qmark_keys_and_valid_leaves_as_zero_one() {
        for network in [SortNetwork::OddEvenMerge, SortNetwork::Bitonic] {
            for n in 1..=3usize {
                let schema = vec![Var(0), Var(1)];
                let mut b = Builder::new();
                let w = encode_relation(&mut b, schema, n);
                let key = SortKey::Columns(vec![Var(1)]);
                let (s, _) = sort_slots_network(&mut b, &w, &key, &[], network);
                let c = b.finish(s.flatten());
                // slot i: fields (10 + i, 20 + i), valid 2 on slot 0, else 0
                let inputs: Vec<u64> = (0..n as u64)
                    .flat_map(|i| [10 + i, 20 + i, if i == 0 { 2 } else { 0 }])
                    .collect();
                let out = c.evaluate(&inputs).unwrap();
                let slots: Vec<&[u64]> = out.chunks(3).collect();
                assert_eq!(slots[0], [10, 20, 1], "{network:?} n={n}");
                for s in &slots[1..] {
                    assert_eq!((s[1], s[2]), (QMARK, 0), "{network:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn tie_break_extra_column_orders_within_group() {
        // two tuples with equal sort column; tie wire orders them
        let schema = vec![Var(0)];
        let mut b = Builder::new();
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
            let mut b = Builder::new();
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

    /// Knuth's 0-1 principle: a comparator network sorts every input iff
    /// it sorts every 0/1 input. Bit-sliced, so one pass covers all 2^n
    /// inputs: lane `x` of wire `i` is bit `i` of `x`, and a comparator
    /// is `(a & b, a | b)`. The schedule is the one
    /// [`sort_slots_network`] emits, pruned as it is, and padding wires
    /// hold 1s, as its padding slots sort last.
    #[test]
    fn both_networks_sort_every_zero_one_input_up_to_twenty_wires() {
        // Lane pattern of wire i < 6 inside one 64-lane word.
        let low = |i: usize| {
            (0..64)
                .filter(|l| l >> i & 1 == 1)
                .fold(0u64, |m, l| m | 1 << l)
        };
        for network in [SortNetwork::OddEvenMerge, SortNetwork::Bitonic] {
            for n in 2..=20usize {
                let words = (1usize << n).div_ceil(64);
                let (lanes, schedule) = emitted_schedule(network, n);
                let mut wires: Vec<Vec<u64>> = (0..lanes)
                    .map(|i| match i {
                        _ if i >= n => vec![!0; words],
                        0..=5 => vec![low(i); words],
                        // All ones in the words whose index has bit i - 6.
                        _ => (0..words)
                            .map(|w| 0u64.wrapping_sub((w >> (i - 6) & 1) as u64))
                            .collect(),
                    })
                    .collect();
                for (i, j, ascending) in schedule {
                    let (head, tail) = wires.split_at_mut(j); // i < j
                    let (min, max) = if ascending {
                        (&mut head[i], &mut tail[0])
                    } else {
                        (&mut tail[0], &mut head[i])
                    };
                    for (a, b) in min.iter_mut().zip(max.iter_mut()) {
                        (*a, *b) = (*a & *b, *a | *b);
                    }
                }
                for p in 0..lanes - 1 {
                    let above = wires[p]
                        .iter()
                        .zip(&wires[p + 1])
                        .any(|(&a, &b)| a & !b != 0);
                    assert!(!above, "{network:?} n={n}: a 1 above a 0 at output {p}");
                }
            }
        }
    }

    /// Pins what one sort costs: the pruned odd–even schedule against
    /// the power-of-two network it comes from, and exactly one `Mux` per
    /// carried wire per comparator plus one per key field to mask a
    /// dummy's, with no separate key to carry.
    #[test]
    fn sort_emits_the_pruned_schedule_and_one_mux_per_carried_wire() {
        for (n, pruned, full) in [(5usize, 9usize, 19usize), (12, 42, 63), (24, 132, 191)] {
            let (lanes, schedule) = emitted_schedule(SortNetwork::OddEvenMerge, n);
            let unpruned = comparators(SortNetwork::OddEvenMerge, n.next_power_of_two());
            assert_eq!(
                (lanes, schedule.len(), unpruned.len()),
                (n, pruned, full),
                "n={n}"
            );

            let schema = vec![Var(0), Var(1)];
            let mut b = Builder::new();
            let w = encode_relation(&mut b, schema.clone(), n);
            let s = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(1)]));
            let c = b.finish(s.flatten());
            let muxes = c.gates().filter(|g| matches!(g, Gate::Mux(..))).count();
            let carried = schema.len() + 1;
            assert_eq!(muxes, n + pruned * 2 * carried, "n={n}");
        }
    }

    #[test]
    fn the_comparator_count_matches_the_emitted_schedule() {
        for n in 0..=600usize {
            let (_, schedule) = emitted_schedule(SortNetwork::OddEvenMerge, n);
            assert_eq!(sort_comparators(n as u64), schedule.len() as u64, "n = {n}");
        }
        // a power of two: 2^20 lanes, k = 20
        assert_eq!(sort_comparators(1 << 20), (384 << 20) / 4 - 1);
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
            let mut b = Builder::new();
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
            let mut b = Builder::new();
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
