//! Property tests: every operator circuit must agree with the RAM
//! reference operator on random instances, and the builder's running
//! size and depth must match a recount from the gate list.

use proptest::prelude::*;
use qec_circuit::{
    aggregate, decode_relation, join_degree_bounded, join_pk, project, select, semijoin,
    sort_slots, truncate, union, AggOp, Builder, Circuit, CompileOptions, CompiledCircuit, Gate,
    SortKey, WordTape,
};
use qec_relation::{AggKind, Relation, Var, VarSet};

fn rel_strategy(vars: &'static [u32], max_rows: usize) -> impl Strategy<Value = Relation> {
    let arity = vars.len();
    prop::collection::vec(prop::collection::vec(0u64..6, arity..=arity), 0..max_rows)
        .prop_map(move |rows| Relation::from_rows(vars.iter().map(|&i| Var(i)).collect(), rows))
}

fn vs(bits: &[u32]) -> VarSet {
    bits.iter().map(|&i| Var(i)).collect()
}

fn eval_unary(
    r: &Relation,
    capacity: usize,
    f: impl FnOnce(&mut Builder, &qec_circuit::RelWires) -> qec_circuit::RelWires,
) -> Relation {
    let mut b = Builder::new();
    let w = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), capacity);
    let out = f(&mut b, &w);
    let schema = out.schema.clone();
    let c = b.finish(out.flatten());
    let vals = relation_values(r, capacity);
    decode_relation(&schema, &c.evaluate(&vals).unwrap())
}

fn eval_binary(
    r: &Relation,
    s: &Relation,
    caps: (usize, usize),
    f: impl FnOnce(
        &mut Builder,
        &qec_circuit::RelWires,
        &qec_circuit::RelWires,
    ) -> qec_circuit::RelWires,
) -> Relation {
    let mut b = Builder::new();
    let rw = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), caps.0);
    let sw = qec_circuit::encode_relation(&mut b, s.schema().to_vec(), caps.1);
    let out = f(&mut b, &rw, &sw);
    let schema = out.schema.clone();
    let c = b.finish(out.flatten());
    let mut vals = relation_values(r, caps.0);
    vals.extend(relation_values(s, caps.1));
    decode_relation(&schema, &c.evaluate(&vals).unwrap())
}

fn relation_values(r: &Relation, capacity: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for row in r.iter() {
        out.extend_from_slice(row);
        out.push(1);
    }
    for _ in r.len()..capacity {
        out.extend(std::iter::repeat_n(0, r.arity()));
        out.push(0);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn select_matches_ram(r in rel_strategy(&[0, 1], 16)) {
        let got = eval_unary(&r, 16, |b, w| {
            select(b, w, |b, s| {
                let three = b.constant(3);
                b.lt(s.fields[0], three)
            })
        });
        prop_assert_eq!(got, r.select(|row| row[0] < 3));
    }

    #[test]
    fn project_matches_ram(r in rel_strategy(&[0, 1, 2], 16)) {
        for cols in [vs(&[0]), vs(&[1, 2]), vs(&[0, 2])] {
            let got = eval_unary(&r, 16, |b, w| project(b, w, cols));
            prop_assert_eq!(got, r.project(cols));
        }
    }

    #[test]
    fn union_matches_ram(r in rel_strategy(&[0, 1], 12), s in rel_strategy(&[0, 1], 12)) {
        let got = eval_binary(&r, &s, (12, 12), union);
        prop_assert_eq!(got, r.union(&s));
    }

    #[test]
    fn aggregate_matches_ram(r in rel_strategy(&[0, 1], 16)) {
        for (op, kind) in [
            (AggOp::Count, AggKind::Count),
            (AggOp::Sum(Var(1)), AggKind::Sum(Var(1))),
            (AggOp::Min(Var(1)), AggKind::Min(Var(1))),
            (AggOp::Max(Var(1)), AggKind::Max(Var(1))),
        ] {
            let got = eval_unary(&r, 16, |b, w| aggregate(b, w, vs(&[0]), op, Var(9)));
            prop_assert_eq!(got, r.aggregate(vs(&[0]), kind, Var(9)));
        }
    }

    #[test]
    fn sort_is_lossless(r in rel_strategy(&[0, 1], 16)) {
        let got = eval_unary(&r, 16, |b, w| sort_slots(b, w, &SortKey::Columns(vec![Var(1)])));
        prop_assert_eq!(got, r);
    }

    #[test]
    fn truncate_to_exact_size_is_lossless(r in rel_strategy(&[0, 1], 16)) {
        let n = r.len();
        let got = eval_unary(&r, 16, |b, w| truncate(b, w, n.max(1)));
        prop_assert_eq!(got, r);
    }

    #[test]
    fn semijoin_matches_ram(r in rel_strategy(&[0, 1], 12), s in rel_strategy(&[1, 2], 12)) {
        let got = eval_binary(&r, &s, (12, 12), semijoin);
        prop_assert_eq!(got, r.semijoin(&s));
    }

    #[test]
    fn pk_join_matches_ram_on_keyed_data(
        r in rel_strategy(&[0, 1], 12),
        s_keys in prop::collection::btree_set(0u64..6, 0..6),
    ) {
        // build S with unique B keys
        let s = Relation::from_rows(
            vec![Var(1), Var(2)],
            s_keys.iter().map(|&k| vec![k, 10 + k]).collect(),
        );
        let got = eval_binary(&r, &s, (12, 6), join_pk);
        prop_assert_eq!(got, r.natural_join(&s));
    }

    #[test]
    fn degree_bounded_join_matches_ram(
        r in rel_strategy(&[0, 1], 10),
        s in rel_strategy(&[1, 2], 14),
    ) {
        let deg = s.degree(vs(&[1])).max(1);
        let got = eval_binary(&r, &s, (10, 14), |b, rw, sw| {
            join_degree_bounded(b, rw, sw, deg)
        });
        prop_assert_eq!(got, r.natural_join(&s));
    }

    #[test]
    fn builder_size_and_depth_match_a_recount(cap_r in 1usize..12, cap_s in 1usize..12, deg in 1usize..4) {
        let mut b = Builder::new();
        let rw = qec_circuit::encode_relation(&mut b, vec![Var(0), Var(1)], cap_r);
        let sw = qec_circuit::encode_relation(&mut b, vec![Var(1), Var(2)], cap_s);
        let j = join_degree_bounded(&mut b, &rw, &sw, deg);
        let c = b.finish(j.flatten());
        let recount =
            Circuit::from_raw(c.gates().collect(), c.outputs().to_vec(), c.num_inputs()).unwrap();
        prop_assert_eq!((c.size(), c.depth()), (recount.size(), recount.depth()));
        prop_assert_eq!(c.wire_depths(), recount.wire_depths());
        prop_assert!(c.size() > 0 && c.depth() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn word_tape_roundtrips_random_operator_circuits(
        r in rel_strategy(&[0, 1], 8),
        s in rel_strategy(&[1, 2], 8),
        which in 0usize..3,
    ) {
        let mut b = Builder::new();
        let rw = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), 8);
        let sw = qec_circuit::encode_relation(&mut b, s.schema().to_vec(), 8);
        let out = match which {
            // pk join needs unique keys: join against the projected key set
            0 => {
                let keys = project(&mut b, &sw, vs(&[1]));
                join_pk(&mut b, &rw, &keys)
            }
            1 => semijoin(&mut b, &rw, &sw),
            _ => union(&mut b, &rw, &rw.clone()),
        };
        let c = b.finish(out.flatten());
        let bytes = WordTape::encode(&c).to_bytes();
        let back = WordTape::from_bytes(&bytes).unwrap().decode().unwrap();
        prop_assert!(back.gates().eq(c.gates()));
        prop_assert_eq!(back.outputs(), c.outputs());
        prop_assert_eq!(back.num_inputs(), c.num_inputs());
        let mut vals = relation_values(&r, 8);
        vals.extend(relation_values(&s, 8));
        prop_assert_eq!(c.evaluate(&vals).unwrap(), back.evaluate(&vals).unwrap());
        // determinism: re-encoding the decoded circuit reproduces the bytes
        prop_assert_eq!(WordTape::encode(&back).to_bytes(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bit_lowering_agrees_with_word_circuits(
        r in rel_strategy(&[0, 1], 6),
        s in rel_strategy(&[1, 2], 6),
    ) {
        use qec_circuit::{lower_with, CompileOptions};
        let mut b = Builder::new();
        let rw = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), 6);
        let sw = qec_circuit::encode_relation(&mut b, s.schema().to_vec(), 6);
        let j = semijoin(&mut b, &rw, &sw);
        let c = b.finish(j.flatten());
        let mut vals = relation_values(&r, 6);
        vals.extend(relation_values(&s, 6));
        // compare *decoded relations*: dummy-slot garbage fields may hold
        // QMARK (u64::MAX), which legitimately truncates under a 16-bit
        // lowering — only valid slots carry meaning
        let schema = r.schema().to_vec();
        let word = decode_relation(&schema, &c.evaluate(&vals).unwrap());
        let bc = lower_with(&c, 16, &CompileOptions::sequential());
        let bits = bc.pack_inputs(&vals);
        let bit_words = bc.unpack_outputs(&bc.evaluate(&bits).unwrap());
        prop_assert_eq!(decode_relation(&schema, &bit_words), word);
    }
}

/// The constant a round-trip step packs: zero, the `?` sentinel
/// `u64::MAX`, a few small values that repeat, values that need the
/// high operand word, or any word.
fn constant(sel: u8, v: u64) -> u64 {
    match sel % 5 {
        0 => 0,
        1 => u64::MAX,
        2 => v % 4,
        3 => (v % 4) << 32 | 1,
        _ => v,
    }
}

/// A valid gate list from random steps: `inputs` inputs, then one gate of
/// every kind in turn (the kind is `step % 13`), operands drawn from the
/// wires so far. An assert checks a fresh constant 0, so evaluation gets
/// past it.
fn gate_list(inputs: usize, steps: &[(u8, u64, u32, u32, u32)]) -> Vec<Gate> {
    let mut gates: Vec<Gate> = (0..inputs).map(Gate::Input).collect();
    for (k, &(sel, v, x, y, z)) in steps.iter().enumerate() {
        let n = gates.len() as u32;
        let (a, b, c) = (x % n, y % n, z % n);
        let g = match k % 13 {
            0 => Gate::Const(constant(sel, v)),
            1 => Gate::Add(a, b),
            2 => Gate::Sub(a, b),
            3 => Gate::Mul(a, b),
            4 => Gate::Eq(a, b),
            5 => Gate::Lt(a, b),
            6 => Gate::And(a, b),
            7 => Gate::Or(a, b),
            8 => Gate::Xor(a, b),
            9 => Gate::Not(a),
            10 => Gate::Mux(a, b, c),
            11 => {
                gates.push(Gate::Const(0));
                Gate::AssertZero(n)
            }
            _ => Gate::Const(constant(sel.wrapping_add(1), v)),
        };
        gates.push(g);
    }
    gates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every gate comes back out of the packed arena as it went in, and
    /// the engine's tape, which copies constants out of the records,
    /// computes what the interpreter computes on every wire.
    #[test]
    fn every_gate_round_trips_through_the_arena(
        inputs in 1usize..4,
        steps in prop::collection::vec(any::<(u8, u64, u32, u32, u32)>(), 13..60),
        seed in any::<u64>(),
    ) {
        let gates = gate_list(inputs, &steps);
        let outputs: Vec<u32> = (0..gates.len() as u32).collect();
        let c = Circuit::from_raw(gates.clone(), outputs, inputs).unwrap();
        prop_assert_eq!(c.num_wires(), gates.len());
        prop_assert_eq!(c.gates().collect::<Vec<_>>(), gates.clone());
        for (i, &g) in gates.iter().enumerate() {
            prop_assert_eq!(c.gate(i), g);
        }
        let back = WordTape::from_bytes(&WordTape::encode(&c).to_bytes())
            .unwrap()
            .decode()
            .unwrap();
        prop_assert!(back.gates().eq(gates.iter().copied()));
        let vals: Vec<u64> = (0..inputs as u64)
            .map(|i| constant(i as u8, seed.rotate_left(i as u32 * 17)))
            .collect();
        let raw = CompileOptions::sequential().with_optimize(false);
        let eng = CompiledCircuit::compile_with(&c, &raw).unwrap();
        let want = c.evaluate(&vals);
        prop_assert!(want.is_ok());
        prop_assert_eq!(eng.evaluate(&vals), want);
    }
}
