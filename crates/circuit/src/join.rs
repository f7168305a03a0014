//! Primary-key join (Alg. 6), semijoin, and degree-bounded join (Alg. 7).
//!
//! A degree bound of at least the right side's capacity carries no
//! degree information: `deg_B(S) ≤ |S|` holds on every instance. Such a
//! join is lowered as the key-filtered cross product, one slot per pair
//! of slots and no sort, instead of Alg. 7. The classical circuit's
//! joins, the heavy/light triangle's heavy product, the disconnected
//! products of Yannakakis-C and the semiring circuit, and the Datalog
//! unrolling's joins all pass such a bound.

use qec_relation::{Var, VarSet};

use crate::ops::project;
use crate::rel::{RelWires, SlotWires, QMARK};
use crate::scan::segmented_scan;
use crate::sort::{sort_slots_with, SortKey};
use crate::{Builder, WireId};

/// One row of the internal key/payload representation used by the join
/// circuits: `r_fields` in the probe relation's schema order, an opaque
/// payload, and a validity flag.
struct PayloadSlot {
    r_fields: Vec<WireId>,
    payload: Vec<WireId>,
    valid: WireId,
}

/// Core of Alg. 6, generalized: joins every slot of `r` with the unique
/// `s`-slot sharing its key (the common variables), where the `s` side is
/// given as `(key fields, payload)` rows with the key a primary key.
///
/// Returns `r.capacity()` result slots: the `r` fields plus the matched
/// payload; unmatched `r` slots come back invalid. Size
/// `Õ(M + N')·(arity+payload)`, depth `Õ(1)`.
fn join_pk_payload(
    b: &mut Builder,
    r: &RelWires,
    common: VarSet,
    s_rows: &[(Vec<WireId>, Vec<WireId>, WireId)], // (key, payload, valid)
    payload_len: usize,
) -> Vec<PayloadSlot> {
    let key_cols: Vec<usize> = common
        .iter()
        .map(|v| r.col(v).expect("common in r"))
        .collect();
    let key_len = key_cols.len();
    let arity = r.arity();
    let qm = b.constant(QMARK);
    let zero = b.constant(0);
    let one = b.constant(1);

    // Combined rows J = R(A,B,?) ∪ S(?,B,C) (Alg. 6 lines 1–3). Each row:
    // key, r-fields (QMARK on S rows), payload (QMARK on R rows), origin
    // tie (S = 0 sorts first within a key group, line 4), is_s marker.
    struct Row {
        key: Vec<WireId>,
        r_fields: Vec<WireId>,
        payload: Vec<WireId>,
        origin: WireId,
        is_s: WireId,
        valid: WireId,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(r.capacity() + s_rows.len());
    for s in &r.slots {
        rows.push(Row {
            key: key_cols.iter().map(|&c| s.fields[c]).collect(),
            r_fields: s.fields.clone(),
            payload: vec![qm; payload_len],
            origin: one,
            is_s: zero,
            valid: s.valid,
        });
    }
    for (key, payload, valid) in s_rows {
        assert_eq!(key.len(), key_len, "s-side key arity mismatch");
        assert_eq!(payload.len(), payload_len, "s-side payload arity mismatch");
        rows.push(Row {
            key: key.clone(),
            r_fields: vec![qm; arity],
            payload: payload.clone(),
            origin: zero,
            is_s: one,
            valid: *valid,
        });
    }

    // Sort by (valid desc, key, origin) — dummies last, S before R within
    // each key group. We reuse the slot sorter by packing everything into
    // fields + extra columns.
    let sort_schema: Vec<Var> = common.to_vec();
    let sort_rel = RelWires {
        schema: sort_schema.clone(),
        slots: rows
            .iter()
            .map(|row| SlotWires {
                fields: row.key.clone(),
                valid: row.valid,
            })
            .collect(),
    };
    let mut extra: Vec<Vec<WireId>> = Vec::new();
    extra.push(rows.iter().map(|row| row.origin).collect());
    for i in 0..arity {
        extra.push(rows.iter().map(|row| row.r_fields[i]).collect());
    }
    for i in 0..payload_len {
        extra.push(rows.iter().map(|row| row.payload[i]).collect());
    }
    extra.push(rows.iter().map(|row| row.is_s).collect());
    let key = SortKey::ColumnsThen(sort_schema, 0);
    let (sorted, extras) = sort_slots_with(b, &sort_rel, &key, &extra);
    let n = sorted.capacity();

    // Segmented "repetition" scan (Alg. 6 line 5): within each key group
    // the S row (if any) is first; copy its payload and marker down the
    // group. Dummy rows leave the sort with a QMARK key, so they form
    // their own segment.
    let keys: Vec<Vec<WireId>> = sorted.slots.iter().map(|s| s.fields.clone()).collect();

    // Key-uniqueness check: Alg. 6 requires the shared attributes to be a
    // primary key of S. Two valid S rows with equal keys are adjacent
    // after the sort; assert that never happens, so violated promises
    // surface as evaluation errors instead of silently dropped matches.
    let s_col = &extras[1 + arity + payload_len];
    for i in 0..n.saturating_sub(1) {
        let same = b.vec_eq(&keys[i], &keys[i + 1]);
        let both_valid = b.and(sorted.slots[i].valid, sorted.slots[i + 1].valid);
        let both_s = b.and(s_col[i], s_col[i + 1]);
        let bad0 = b.and(same, both_valid);
        let bad = b.and(bad0, both_s);
        b.assert_zero(bad);
    }
    let vals: Vec<Vec<WireId>> = (0..n)
        .map(|i| {
            let mut v = vec![extras[1 + arity + payload_len][i]]; // is_s
            for p in 0..payload_len {
                v.push(extras[1 + arity + p][i]);
            }
            v
        })
        .collect();
    let scanned = segmented_scan(b, &keys, &vals, &mut |_b, a, _x| a.to_vec());

    // Keep R-originated rows that found an S row (line 6–8); reconstruct
    // r fields from the carried extras.
    (0..n)
        .map(|i| {
            let origin_r = extras[0][i]; // 1 for R rows
            let matched = scanned[i][0];
            let valid0 = b.and(sorted.slots[i].valid, origin_r);
            let valid = b.and(valid0, matched);
            PayloadSlot {
                r_fields: (0..arity).map(|c| extras[1 + c][i]).collect(),
                payload: scanned[i][1..].to_vec(),
                valid,
            }
        })
        .collect()
}

/// Packs payload slots into a relation over `r.vars ∪ payload_vars` and
/// truncates to `capacity` (asserting no real tuple is dropped).
fn payload_to_rel(
    b: &mut Builder,
    r_schema: &[Var],
    payload_vars: &[Var],
    slots: Vec<PayloadSlot>,
    capacity: usize,
) -> RelWires {
    let out_vars: VarSet = r_schema
        .iter()
        .copied()
        .chain(payload_vars.iter().copied())
        .collect();
    let out_schema: Vec<Var> = out_vars.to_vec();
    let rel = RelWires {
        schema: out_schema.clone(),
        slots: slots
            .into_iter()
            .map(|ps| {
                let fields = out_schema
                    .iter()
                    .map(|v| {
                        if let Some(c) = r_schema.iter().position(|rv| rv == v) {
                            ps.r_fields[c]
                        } else {
                            let c = payload_vars
                                .iter()
                                .position(|pv| pv == v)
                                .expect("payload var");
                            ps.payload[c]
                        }
                    })
                    .collect();
                SlotWires {
                    fields,
                    valid: ps.valid,
                }
            })
            .collect(),
    };
    crate::ops::truncate(b, &rel, capacity)
}

/// Primary-key join `R ⋈ S` (Alg. 6, Fig. 3): the common variables form a
/// primary key of `S` (at most one `S` tuple per key value — the `N = 1`
/// case of the degree-bounded join). Output capacity `M = |R|`'s capacity;
/// size `Õ(M + N')`, depth `Õ(1)`.
pub fn join_pk(b: &mut Builder, r: &RelWires, s: &RelWires) -> RelWires {
    let common = r.vars().intersect(s.vars());
    let s_only: Vec<Var> = s.vars().minus(common).to_vec();
    let key_cols: Vec<usize> = common
        .iter()
        .map(|v| s.col(v).expect("common in s"))
        .collect();
    let payload_cols: Vec<usize> = s_only
        .iter()
        .map(|&v| s.col(v).expect("s-only in s"))
        .collect();
    let s_rows: Vec<(Vec<WireId>, Vec<WireId>, WireId)> = s
        .slots
        .iter()
        .map(|slot| {
            (
                key_cols.iter().map(|&c| slot.fields[c]).collect(),
                payload_cols.iter().map(|&c| slot.fields[c]).collect(),
                slot.valid,
            )
        })
        .collect();
    let m = r.capacity();
    let joined = join_pk_payload(b, r, common, &s_rows, s_only.len());
    payload_to_rel(b, &r.schema.clone(), &s_only, joined, m)
}

/// Semijoin `R ⋉ S` (Sec. 6.2): implemented as
/// `R ⋈ Π_{R∩S}(S)` — after the projection the join is a primary-key
/// join. Output schema and capacity match `R`.
pub fn semijoin(b: &mut Builder, r: &RelWires, s: &RelWires) -> RelWires {
    let common = r.vars().intersect(s.vars());
    let keys = project(b, s, common);
    join_pk(b, r, &keys)
}

/// Degree-bounded join `R ⋈ S` (Alg. 7, Fig. 4) under
/// `deg_{common}(S) ≤ deg_bound`. Output capacity
/// `M · min(deg_bound, N')`; size `Õ(M·deg + N')`, depth `Õ(1)`.
///
/// When `deg_bound ≥ N'` (the capacity of `S`) the bound says nothing,
/// and the join is the key-filtered cross product:
/// `M·N'` slots, `O(M·N'·|key|)` gates, no sort. Otherwise the
/// construction follows the paper exactly: semijoin `S` with
/// `Π_B(R)`, then `n = ⌈log₂ deg⌉` halving rounds that pair up adjacent
/// same-key tuples — concatenating their (replicated) value sequences and
/// truncating freed capacity — a final adjacent merge that makes the key a
/// primary key, one primary-key join, and an expansion + deduplication of
/// the value sequences.
pub fn join_degree_bounded(
    b: &mut Builder,
    r: &RelWires,
    s: &RelWires,
    deg_bound: usize,
) -> RelWires {
    assert!(deg_bound >= 1, "degree bound must be positive");
    if deg_bound >= s.capacity() {
        return join_cross(b, r, s);
    }
    if deg_bound == 1 {
        return join_pk(b, r, s);
    }
    let common = r.vars().intersect(s.vars());
    let s_only: Vec<Var> = s.vars().minus(common).to_vec();
    let m = r.capacity();
    // relax the bound to 2^n + 1 ≥ deg_bound (Sec. 5.4)
    let n_exp = qec_ceil_log2(deg_bound as u64 - 1).max(1);
    let group = s_only.len(); // wires per value group (may be 0)

    // Line 1: S ← S ⋉ Π_B(R).
    let s1 = semijoin(b, s, r);
    // Line 2: sort by B, truncate to M·(2^n+1) — every surviving tuple
    // joins, and each R key matches ≤ 2^n+1 of them.
    let cap1 = s1.capacity().min(m.saturating_mul((1 << n_exp) + 1));
    let s_key_cols: Vec<usize> = common.iter().map(|v| s1.col(v).expect("common")).collect();
    let s_val_cols: Vec<usize> = s_only.iter().map(|&v| s1.col(v).expect("s-only")).collect();

    // Internal representation: key fields + value sequence (list of
    // groups) + valid, sorted/truncated via the slot sorter with extras.
    struct Seq {
        key: Vec<WireId>,
        groups: Vec<WireId>, // len = reps * group
        valid: WireId,
    }
    let mut seqs: Vec<Seq> = s1
        .slots
        .iter()
        .map(|slot| Seq {
            key: s_key_cols.iter().map(|&c| slot.fields[c]).collect(),
            groups: s_val_cols.iter().map(|&c| slot.fields[c]).collect(),
            valid: slot.valid,
        })
        .collect();
    let key_schema: Vec<Var> = common.to_vec();
    let mut reps = 1usize;

    let sort_and_truncate =
        |b: &mut Builder, seqs: Vec<Seq>, cap: usize, reps: usize| -> Vec<Seq> {
            let rel = RelWires {
                schema: key_schema.clone(),
                slots: seqs
                    .iter()
                    .map(|q| SlotWires {
                        fields: q.key.clone(),
                        valid: q.valid,
                    })
                    .collect(),
            };
            let width = reps * group;
            let extra: Vec<Vec<WireId>> = (0..width)
                .map(|i| seqs.iter().map(|q| q.groups[i]).collect())
                .collect();
            let (sorted, extras) =
                sort_slots_with(b, &rel, &SortKey::Columns(key_schema.clone()), &extra);
            for slot in &sorted.slots[cap.min(sorted.capacity())..] {
                b.assert_zero(slot.valid);
            }
            (0..cap.min(sorted.capacity()))
                .map(|i| Seq {
                    key: sorted.slots[i].fields.clone(),
                    groups: (0..width).map(|c| extras[c][i]).collect(),
                    valid: sorted.slots[i].valid,
                })
                .collect()
        };

    seqs = sort_and_truncate(b, seqs, cap1, reps);

    // Lines 3–15: n halving rounds.
    for i in 1..=n_exp {
        let len = seqs.len();
        let mut next: Vec<Seq> = Vec::with_capacity(len);
        // Each (2t, 2t+1) pair touches only its own two slots.
        for t in 0..len / 2 {
            let (a_idx, b_idx) = (2 * t, 2 * t + 1);
            let same = {
                let eq = b.vec_eq(&seqs[a_idx].key, &seqs[b_idx].key);
                let both = b.and(seqs[a_idx].valid, seqs[b_idx].valid);
                b.and(eq, both)
            };
            // combined: (C_a, C_b); duplicated: (C_b, C_b)
            let mut combined = seqs[a_idx].groups.clone();
            combined.extend(seqs[b_idx].groups.iter().copied());
            let mut dup_b = seqs[b_idx].groups.clone();
            dup_b.extend(seqs[b_idx].groups.iter().copied());
            let new_groups = b.vec_mux(same, &combined, &dup_b);
            let not_same = b.not(same);
            let a_valid = b.and(seqs[a_idx].valid, not_same);
            let mut dup_a = seqs[a_idx].groups.clone();
            dup_a.extend(seqs[a_idx].groups.iter().copied());
            next.push(Seq {
                key: seqs[a_idx].key.clone(),
                groups: dup_a,
                valid: a_valid,
            });
            next.push(Seq {
                key: seqs[b_idx].key.clone(),
                groups: new_groups,
                valid: seqs[b_idx].valid,
            });
        }
        if len % 2 == 1 {
            // unpaired trailing slot: duplicate (line 12–13)
            let last = &seqs[len - 1];
            let mut dup = last.groups.clone();
            dup.extend(last.groups.iter().copied());
            next.push(Seq {
                key: last.key.clone(),
                groups: dup,
                valid: last.valid,
            });
        }
        seqs = next;
        reps *= 2;
        // Line 14–15: capacity shrinks as degrees halve.
        let cap = seqs.len().min(m.saturating_mul((1 << (n_exp - i)) + 1));
        seqs = sort_and_truncate(b, seqs, cap, reps);
    }

    // Lines 16–24: adjacent merge reduces the residual degree (≤ 2) to 1.
    {
        let len = seqs.len();
        let zero = b.constant(0);
        let mut merged_into_prev: Vec<WireId> = vec![zero];
        for j in 1..len {
            let eq = b.vec_eq(&seqs[j - 1].key, &seqs[j].key);
            let both = b.and(seqs[j - 1].valid, seqs[j].valid);
            merged_into_prev.push(b.and(eq, both));
        }
        let next: Vec<Seq> = (0..len)
            .map(|j| {
                let merge_next = if j + 1 < len {
                    merged_into_prev[j + 1]
                } else {
                    zero
                };
                let mut combined = seqs[j].groups.clone();
                if j + 1 < len {
                    combined.extend(seqs[j + 1].groups.iter().copied());
                } else {
                    combined.extend(seqs[j].groups.iter().copied());
                }
                let mut dup = seqs[j].groups.clone();
                dup.extend(seqs[j].groups.iter().copied());
                let groups = b.vec_mux(merge_next, &combined, &dup);
                let not_merged = b.not(merged_into_prev[j]);
                let valid = b.and(seqs[j].valid, not_merged);
                Seq {
                    key: seqs[j].key.clone(),
                    groups,
                    valid,
                }
            })
            .collect();
        seqs = next;
        reps *= 2;
    }
    // Line 25: truncate to M (keys are now unique, and only keys matching
    // R survive).
    let final_cap = m.min(seqs.len());
    seqs = sort_and_truncate(b, seqs, final_cap, reps);

    // Line 26: primary-key join with the sequences as payload.
    let s_rows: Vec<(Vec<WireId>, Vec<WireId>, WireId)> = seqs
        .iter()
        .map(|q| (q.key.clone(), q.groups.clone(), q.valid))
        .collect();
    let joined = join_pk_payload(b, r, common, &s_rows, reps * group);

    // Lines 27–33: expand each sequence entry into its own tuple, dedup,
    // truncate to M·deg_bound.
    let out_vars: VarSet = r.vars().union(s.vars());
    let out_schema: Vec<Var> = out_vars.to_vec();
    let mut slots: Vec<SlotWires> = Vec::with_capacity(joined.len() * reps);
    for ps in &joined {
        for rep in 0..reps {
            let fields = out_schema
                .iter()
                .map(|v| {
                    if let Some(c) = r.schema.iter().position(|rv| rv == v) {
                        ps.r_fields[c]
                    } else {
                        let c = s_only.iter().position(|sv| sv == v).expect("s-only var");
                        ps.payload[rep * group + c]
                    }
                })
                .collect();
            slots.push(SlotWires {
                fields,
                valid: ps.valid,
            });
        }
    }
    let expanded = RelWires {
        schema: out_schema.clone(),
        slots,
    };
    let deduped = project(b, &expanded, out_vars);
    let cap = m.checked_mul(deg_bound).unwrap_or_else(|| {
        panic!(
            "join_degree_bounded: output capacity m * deg_bound overflows \
             usize (m = {m}, deg_bound = {deg_bound})"
        )
    });
    crate::ops::truncate(b, &deduped, cap)
}

/// The key-filtered cross product `R ⋈ S`: slot `(i, j)` (row-major,
/// `i` over `R`) carries `R`'s fields and `S`'s fields outside the
/// shared variables, and is valid iff both slots are and they agree on
/// every shared variable. Output capacity `M·N'`, `O(M·N'·|key|)` gates,
/// depth `O(|key|)`.
///
/// No deduplication is needed: relations on wires are sets (see
/// [`RelWires`]), and two valid output slots with equal fields would
/// come from equal `R` tuples and equal `S` tuples. Dummy slots may
/// carry any fields, real-looking ones included; their `valid` is `0`.
fn join_cross(b: &mut Builder, r: &RelWires, s: &RelWires) -> RelWires {
    let common = r.vars().intersect(s.vars());
    let keys: Vec<(usize, usize)> = common
        .iter()
        .map(|v| {
            (
                r.col(v).expect("common in r"),
                s.col(v).expect("common in s"),
            )
        })
        .collect();
    let schema: Vec<Var> = r.vars().union(s.vars()).to_vec();
    // Each output column reads `R`'s field where `R` has the variable.
    let from: Vec<Result<usize, usize>> = schema
        .iter()
        .map(|&v| match r.col(v) {
            Some(c) => Ok(c),
            None => Err(s.col(v).expect("output var in r or s")),
        })
        .collect();
    let cap = r.capacity().checked_mul(s.capacity()).unwrap_or_else(|| {
        panic!(
            "join_cross: output capacity overflows usize ({} × {})",
            r.capacity(),
            s.capacity()
        )
    });
    let mut slots = Vec::with_capacity(cap);
    for rs in &r.slots {
        for ss in &s.slots {
            let mut valid = b.and(rs.valid, ss.valid);
            for &(cr, cs) in &keys {
                let eq = b.eq(rs.fields[cr], ss.fields[cs]);
                valid = b.and(valid, eq);
            }
            let fields = from
                .iter()
                .map(|c| match *c {
                    Ok(c) => rs.fields[c],
                    Err(c) => ss.fields[c],
                })
                .collect();
            slots.push(SlotWires { fields, valid });
        }
    }
    RelWires { schema, slots }
}

/// `⌈log₂ n⌉` for `n ≥ 1` (local copy to avoid a dependency edge).
fn qec_ceil_log2(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{decode_relation, encode_relation, relation_to_values};
    use qec_relation::{random_degree_bounded, random_relation, Relation};

    fn rel(schema: &[u32], rows: &[&[u64]]) -> Relation {
        Relation::from_rows(
            schema.iter().map(|&i| Var(i)).collect(),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
    }

    fn run_binary<F>(r: &Relation, s: &Relation, caps: (usize, usize), f: F) -> Relation
    where
        F: FnOnce(&mut Builder, &RelWires, &RelWires) -> RelWires,
    {
        let mut b = Builder::new();
        let rw = encode_relation(&mut b, r.schema().to_vec(), caps.0);
        let sw = encode_relation(&mut b, s.schema().to_vec(), caps.1);
        let out = f(&mut b, &rw, &sw);
        let schema = out.schema.clone();
        let c = b.finish(out.flatten());
        let mut vals = relation_to_values(r, caps.0).unwrap();
        vals.extend(relation_to_values(s, caps.1).unwrap());
        decode_relation(&schema, &c.evaluate(&vals).unwrap())
    }

    #[test]
    fn pk_join_paper_example() {
        // Figure 3: R = {(a1,b1),(a1,b2),(a2,b1)}, S = {(b1,c1),(b3,c1)}.
        // Values: a1=1, a2=2, b1=11, b2=12, b3=13, c1=21.
        let r = rel(&[0, 1], &[&[1, 11], &[1, 12], &[2, 11]]);
        let s = rel(&[1, 2], &[&[11, 21], &[13, 21]]);
        let got = run_binary(&r, &s, (3, 2), join_pk);
        assert_eq!(got, r.natural_join(&s));
        assert_eq!(got.len(), 2); // (a1,b1,c1), (a2,b1,c1)
    }

    #[test]
    fn pk_join_random_instances() {
        for seed in 0..6 {
            let s = random_degree_bounded(Var(1), Var(2), 20, 1, seed + 50);
            let r = random_relation(vec![Var(0), Var(1)], 30, seed);
            // restrict r's B values into s's key range for some matches
            let got = run_binary(&r, &s, (30, 20), join_pk);
            assert_eq!(got, r.natural_join(&s), "seed {seed}");
        }
    }

    #[test]
    fn pk_join_no_matches() {
        let r = rel(&[0, 1], &[&[1, 5]]);
        let s = rel(&[1, 2], &[&[7, 9]]);
        let got = run_binary(&r, &s, (2, 2), join_pk);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn pk_join_empty_sides() {
        let r = rel(&[0, 1], &[]);
        let s = rel(&[1, 2], &[&[7, 9]]);
        let got = run_binary(&r, &s, (2, 2), join_pk);
        assert_eq!(got.len(), 0);
        let r2 = rel(&[0, 1], &[&[1, 5]]);
        let s2 = rel(&[1, 2], &[]);
        let got = run_binary(&r2, &s2, (2, 2), join_pk);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn semijoin_matches_ram() {
        for seed in 0..4 {
            let r = random_relation(vec![Var(0), Var(1)], 24, seed);
            let s = random_relation(vec![Var(1), Var(2)], 24, seed + 9);
            let got = run_binary(&r, &s, (24, 24), semijoin);
            assert_eq!(got, r.semijoin(&s), "seed {seed}");
        }
    }

    #[test]
    fn degree_bounded_join_paper_example() {
        // Figure 4: M = 3, N = 5,
        // R = {(a1,b1),(a2,b2),(a1,b3)}, S has deg(B) ≤ 5.
        let r = rel(&[0, 1], &[&[1, 11], &[2, 12], &[1, 13]]);
        let s = rel(
            &[1, 2],
            &[
                &[11, 1],
                &[11, 2],
                &[11, 3],
                &[12, 4],
                &[12, 5],
                &[13, 6],
                &[11, 7],
                &[11, 8],
            ],
        );
        assert_eq!(s.degree(VarSet::singleton(Var(1))), 5);
        let got = run_binary(&r, &s, (3, 8), |b, rw, sw| {
            join_degree_bounded(b, rw, sw, 5)
        });
        assert_eq!(got, r.natural_join(&s));
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn degree_bounded_join_random() {
        for (seed, deg) in [(1u64, 2usize), (2, 3), (3, 4), (4, 8)] {
            let s = random_degree_bounded(Var(1), Var(2), 32, deg, seed);
            // R keys drawn from the same group space as the generator
            let r = random_relation_with_domain_keys(16, 32 / deg + 2, seed + 7);
            let got = run_binary(&r, &s, (16, 32), |b, rw, sw| {
                join_degree_bounded(b, rw, sw, deg)
            });
            assert_eq!(got, r.natural_join(&s), "seed {seed} deg {deg}");
        }
    }

    /// R(A,B) with B in [0, key_space): guarantees overlap with the
    /// degree-bounded generator's group ids.
    fn random_relation_with_domain_keys(n: usize, key_space: usize, seed: u64) -> Relation {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows = std::collections::HashSet::new();
        while rows.len() < n {
            rows.insert(vec![
                rng.gen_range(0..1000u64),
                rng.gen_range(0..key_space as u64),
            ]);
        }
        Relation::from_rows(vec![Var(0), Var(1)], rows.into_iter().collect())
    }

    #[test]
    fn degree_one_delegates_to_pk() {
        let s = random_degree_bounded(Var(1), Var(2), 12, 1, 3);
        let r = random_relation_with_domain_keys(10, 14, 4);
        let got = run_binary(&r, &s, (10, 12), |b, rw, sw| {
            join_degree_bounded(b, rw, sw, 1)
        });
        assert_eq!(got, r.natural_join(&s));
    }

    #[test]
    fn degree_join_size_scales_with_mn_not_mnprime() {
        // size Õ(MN + N') vs naive O(M·N'): with N' = M and N = 4 the
        // degree-bounded circuit should grow ~linearly in M.
        fn cost(m: usize) -> u64 {
            let mut b = Builder::new();
            let rw = encode_relation(&mut b, vec![Var(0), Var(1)], m);
            let sw = encode_relation(&mut b, vec![Var(1), Var(2)], m);
            let j = join_degree_bounded(&mut b, &rw, &sw, 4);
            b.finish(j.flatten()).size()
        }
        let ratio = cost(256) as f64 / cost(64) as f64;
        // linear-up-to-polylog: 4× data → well under 16×; naive would be 16×+
        assert!(ratio < 10.0, "ratio {ratio}");
    }

    /// Every subset of at most 3 tuples of `vars`' arity over the domain
    /// `{0, 1, 2}`.
    fn small_relations(vars: &[Var]) -> Vec<Relation> {
        let tuples: Vec<Vec<u64>> = (0..3u64.pow(vars.len() as u32))
            .map(|t| {
                (0..vars.len() as u32)
                    .map(|c| t / 3u64.pow(c) % 3)
                    .collect()
            })
            .collect();
        let mut out = vec![Vec::new()];
        for t in &tuples {
            let grown: Vec<Vec<Vec<u64>>> = out
                .iter()
                .filter(|rows| rows.len() < 3)
                .map(|rows| {
                    let mut rows = rows.clone();
                    rows.push(t.clone());
                    rows
                })
                .collect();
            out.extend(grown);
        }
        out.into_iter()
            .map(|rows| Relation::from_rows(vars.to_vec(), rows))
            .collect()
    }

    /// `rel` in `capacity` slots, with each dummy slot's fields copied
    /// from tuple `salt + slot` of `pool`: dummies that look like real
    /// tuples, of this relation or not.
    fn slots_with_lookalike_dummies(
        rel: &Relation,
        capacity: usize,
        pool: &[Vec<u64>],
        salt: usize,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for row in rel.iter() {
            out.extend_from_slice(row);
            out.push(1);
        }
        for slot in rel.len()..capacity {
            out.extend_from_slice(&pool[(salt + slot) % pool.len()]);
            out.push(0);
        }
        out
    }

    #[test]
    fn cross_product_join_matches_ram_on_every_small_pair() {
        let (a, b_, c, d) = (Var(0), Var(1), Var(2), Var(3));
        // (R's schema, S's schema): arities 1–2, sharing 0, 1 or 2
        // variables
        let shapes: [(&[Var], &[Var]); 9] = [
            (&[a], &[c]),
            (&[a], &[a]),
            (&[a], &[c, d]),
            (&[a], &[a, c]),
            (&[a, b_], &[c]),
            (&[a, b_], &[b_]),
            (&[a, b_], &[c, d]),
            (&[a, b_], &[b_, c]),
            (&[a, b_], &[a, b_]),
        ];
        const CAP: usize = 4; // at least one dummy slot on each side
        let mut pairs = 0usize;
        for (rs, ss) in shapes {
            let (r_rels, s_rels) = (small_relations(rs), small_relations(ss));
            let pool: Vec<Vec<u64>> = r_rels
                .iter()
                .chain(&s_rels)
                .flat_map(|rel| rel.iter().cloned())
                .collect();
            let (r_pool, s_pool): (Vec<_>, Vec<_>) = (
                pool.iter()
                    .filter(|t| t.len() == rs.len())
                    .cloned()
                    .collect(),
                pool.iter()
                    .filter(|t| t.len() == ss.len())
                    .cloned()
                    .collect(),
            );
            for deg in [CAP, CAP + 3] {
                let mut bld = Builder::new();
                let rw = encode_relation(&mut bld, rs.to_vec(), CAP);
                let sw = encode_relation(&mut bld, ss.to_vec(), CAP);
                let out = join_degree_bounded(&mut bld, &rw, &sw, deg);
                assert_eq!(out.capacity(), CAP * CAP, "one slot per pair");
                let schema = out.schema.clone();
                let circuit = bld.finish(out.flatten());
                let engine = crate::CompiledCircuit::compile_with(
                    &circuit,
                    &crate::CompileOptions::sequential(),
                )
                .unwrap();
                let mut inputs = Vec::new();
                let mut want = Vec::new();
                for (i, r) in r_rels.iter().enumerate() {
                    for (j, s) in s_rels.iter().enumerate() {
                        let mut vals = slots_with_lookalike_dummies(r, CAP, &r_pool, i + j);
                        vals.extend(slots_with_lookalike_dummies(s, CAP, &s_pool, i * 7 + j));
                        inputs.push(vals);
                        want.push(r.natural_join(s));
                    }
                }
                for (k, (got, want)) in engine
                    .evaluate_batch(&inputs)
                    .into_iter()
                    .zip(want)
                    .enumerate()
                {
                    let got = got.unwrap();
                    let valid = got
                        .chunks(schema.len() + 1)
                        .filter(|slot| slot[schema.len()] != 0)
                        .count();
                    let (i, j) = (k / s_rels.len(), k % s_rels.len());
                    let ctx = format!("{:?} ⋈ {:?} (deg {deg})", r_rels[i], s_rels[j]);
                    assert_eq!(valid, want.len(), "{ctx}: a duplicate or missing slot");
                    assert_eq!(decode_relation(&schema, &got), want, "{ctx}");
                }
                pairs += inputs.len();
            }
        }
        // 8 unary and 130 binary relations per side
        assert_eq!(pairs, 2 * (2 * 64 + 4 * 8 * 130 + 3 * 130 * 130));
    }

    #[test]
    fn violated_degree_bound_fires_assertion() {
        // declare deg ≤ 2 but feed degree-3 data: the truncation
        // assertions must catch it rather than silently dropping tuples
        let r = rel(&[0, 1], &[&[1, 11]]);
        let s = rel(&[1, 2], &[&[11, 1], &[11, 2], &[11, 3]]);
        let mut b = Builder::new();
        let rw = encode_relation(&mut b, r.schema().to_vec(), 1);
        let sw = encode_relation(&mut b, s.schema().to_vec(), 3);
        let j = join_degree_bounded(&mut b, &rw, &sw, 2);
        let c = b.finish(j.flatten());
        let mut vals = relation_to_values(&r, 1).unwrap();
        vals.extend(relation_to_values(&s, 3).unwrap());
        assert!(matches!(
            c.evaluate(&vals),
            Err(crate::EvalError::AssertionFailed { .. })
        ));
    }
}
