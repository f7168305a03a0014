//! Property tests: every operator circuit must agree with the RAM
//! reference operator on random instances, and count-mode totals must
//! match build-mode totals.

use proptest::prelude::*;
use qec_circuit::{
    aggregate, decode_relation, join_degree_bounded, join_pk, project, select, semijoin,
    sort_slots, truncate, union, AggOp, Builder, Mode, SortKey,
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
    let mut b = Builder::new(Mode::Build);
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
    let mut b = Builder::new(Mode::Build);
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
    fn count_mode_always_matches_build_mode(r in rel_strategy(&[0, 1], 10), s in rel_strategy(&[1, 2], 10)) {
        fn metrics(mode: Mode, r: &Relation, s: &Relation) -> (u64, u32) {
            let mut b = Builder::new(mode);
            let rw = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), 10);
            let sw = qec_circuit::encode_relation(&mut b, s.schema().to_vec(), 10);
            let j = join_degree_bounded(&mut b, &rw, &sw, 3);
            let c = b.finish(j.flatten());
            (c.size(), c.depth())
        }
        prop_assert_eq!(metrics(Mode::Build, &r, &s), metrics(Mode::Count, &r, &s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn levelized_evaluator_matches_sequential(r in rel_strategy(&[0, 1], 12), s in rel_strategy(&[1, 2], 12), threads in 1usize..5) {
        let mut b = Builder::new(Mode::Build);
        let rw = qec_circuit::encode_relation(&mut b, r.schema().to_vec(), 12);
        let sw = qec_circuit::encode_relation(&mut b, s.schema().to_vec(), 12);
        let j = semijoin(&mut b, &rw, &sw);
        let c = b.finish(j.flatten());
        let mut vals = relation_values(&r, 12);
        vals.extend(relation_values(&s, 12));
        let seq = c.evaluate(&vals).unwrap();
        let (eng, _) = qec_circuit::CompiledCircuit::compile_with(&c, &qec_circuit::CompileOptions::sequential()).unwrap();
        let par = eng.evaluate_batch_threaded(&[&vals], threads).remove(0).unwrap();
        prop_assert_eq!(seq, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn netlist_roundtrips_random_operator_circuits(
        r in rel_strategy(&[0, 1], 8),
        s in rel_strategy(&[1, 2], 8),
        which in 0usize..3,
    ) {
        let mut b = Builder::new(Mode::Build);
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
        let text = qec_circuit::write_netlist(&c);
        let back = qec_circuit::read_netlist(&text).unwrap();
        let mut vals = relation_values(&r, 8);
        vals.extend(relation_values(&s, 8));
        prop_assert_eq!(c.evaluate(&vals).unwrap(), back.evaluate(&vals).unwrap());
        // determinism: serializing the parsed circuit reproduces the text
        prop_assert_eq!(qec_circuit::write_netlist(&back), text);
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
        let mut b = Builder::new(Mode::Build);
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
