//! Integration tests spanning the whole stack: parser → bounds → proof
//! sequences → PANDA-C → word-circuit lowering → evaluation → MPC, all
//! cross-checked against the RAM baselines.

use query_circuits::circuit::{lower_with, CompileOptions};
use query_circuits::core::{compile_fcq, paper_cost, OutputSensitive};
use query_circuits::entropy::{polymatroid_bound, prove_bound, validate};
use query_circuits::query::baseline::{evaluate_pairwise, generic_join, yannakakis};
use query_circuits::query::{k_cycle, k_path, parse_cq, snowflake, triangle, Cq};
use query_circuits::relation::{
    agm_worst_case_triangle, random_relation, zipf_relation, Database, DcSet, DegreeConstraint,
    Relation, Var, VarSet,
};

fn uniform_dc(cq: &Cq, n: u64) -> DcSet {
    DcSet::from_vec(
        cq.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    )
}

fn uniform_db(cq: &Cq, n: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for (i, a) in cq.atoms.iter().enumerate() {
        db.insert(
            a.name.clone(),
            random_relation(a.vars.to_vec(), n, seed * 101 + i as u64),
        );
    }
    db
}

#[test]
fn full_pipeline_triangle_word_circuit() {
    // parse → compile → lower → evaluate, vs two independent baselines
    let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").unwrap();
    let dc = uniform_dc(&q, 24);
    let compiled = compile_fcq(&q, &dc).unwrap();
    let lowered = compiled.rc.lower();
    for seed in 0..3 {
        let db = uniform_db(&q, 20, seed);
        let circuit = &lowered.run(&db).unwrap()[0];
        assert_eq!(*circuit, evaluate_pairwise(&q, &db).unwrap(), "seed {seed}");
        assert_eq!(*circuit, generic_join(&q, &db).unwrap(), "seed {seed}");
    }
}

#[test]
fn oblivious_topology_is_data_independent() {
    // the same circuit evaluates different instances — obliviousness is
    // the whole point (Sec. 1, outsourced processing)
    let q = triangle();
    let dc = uniform_dc(&q, 16);
    let compiled = compile_fcq(&q, &dc).unwrap();
    let lowered = compiled.rc.lower();
    let empty = {
        let mut db = Database::new();
        for a in &q.atoms {
            db.insert(a.name.clone(), Relation::empty(a.vars));
        }
        db
    };
    let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), 16);
    let mut worst = Database::new();
    worst.insert("R", r);
    worst.insert("S", s);
    worst.insert("T", t);
    assert_eq!(lowered.run(&empty).unwrap()[0].len(), 0);
    assert_eq!(lowered.run(&worst).unwrap()[0].len(), 64); // 16^1.5
}

#[test]
fn skewed_data_through_decompositions() {
    // Zipf-skewed relations exercise every decomposition bucket
    let q = triangle();
    let dc = uniform_dc(&q, 48);
    let compiled = compile_fcq(&q, &dc).unwrap();
    let mut db = Database::new();
    db.insert("R", zipf_relation(Var(0), Var(1), 40, 1.2, 1));
    db.insert("S", zipf_relation(Var(1), Var(2), 40, 1.2, 2));
    db.insert("T", random_relation(vec![Var(0), Var(2)], 40, 3));
    let got = compiled.rc.evaluate_ram(&db).unwrap();
    assert_eq!(got[0], evaluate_pairwise(&q, &db).unwrap());
}

#[test]
fn output_sensitive_pipeline_matches_yannakakis_baseline() {
    let q0 = snowflake(2);
    let q = Cq {
        free: [Var(0), Var(1)].into_iter().collect::<VarSet>(),
        ..q0
    };
    let dc = uniform_dc(&q, 24);
    let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
    for seed in 0..3 {
        let db = uniform_db(&q, 20, seed + 50);
        let expect = evaluate_pairwise(&q, &db).unwrap();
        let ram_yk = yannakakis(&q, &db).unwrap().expect("acyclic");
        assert_eq!(ram_yk, expect);
        assert_eq!(os.evaluate_ram(&db).unwrap(), expect, "seed {seed}");
        assert_eq!(
            os.count_ram(&db).unwrap(),
            expect.len() as u64,
            "seed {seed}"
        );
    }
}

#[test]
fn proof_sequences_validate_across_corpus_and_match_bounds() {
    for q in [triangle(), k_cycle(4), k_path(3), snowflake(2)] {
        let dc = uniform_dc(&q, 1 << 6);
        let bound = polymatroid_bound(q.num_vars(), &dc, q.all_vars()).unwrap();
        let proof = prove_bound(q.num_vars(), &dc, q.all_vars(), None).unwrap();
        validate(&proof).unwrap();
        assert_eq!(proof.log_cost, bound.log_value, "{q}");
    }
}

#[test]
fn panda_cost_beats_naive_asymptotically() {
    let q = triangle();
    let ratio_at = |e: u32| -> f64 {
        let dc = uniform_dc(&q, 1 << e);
        let p = compile_fcq(&q, &dc).unwrap();
        let (naive, _) = query_circuits::core::naive_circuit(&q, &dc).unwrap();
        paper_cost(&naive).to_f64() / paper_cost(&p.rc).to_f64()
    };
    let (r6, r10) = (ratio_at(6), ratio_at(10));
    assert!(
        r10 > 4.0 * r6,
        "speedup must grow ~N^1.5/polylog: {r6} → {r10}"
    );
}

#[test]
fn secure_two_party_join_end_to_end() {
    use query_circuits::circuit::{encode_relation, join_pk, relation_to_values, Builder};
    let m = 6usize;
    let mut b = Builder::new();
    let rw = encode_relation(&mut b, vec![Var(0), Var(1)], m);
    let sw = encode_relation(&mut b, vec![Var(1), Var(2)], m);
    let j = join_pk(&mut b, &rw, &sw);
    let schema = j.schema.clone();
    let c = b.finish(j.flatten());
    let bc = lower_with(&c, 16, &CompileOptions::from_env());

    let r = Relation::from_rows(
        vec![Var(0), Var(1)],
        vec![vec![1, 5], vec![2, 6], vec![3, 5]],
    );
    let s = Relation::from_rows(vec![Var(1), Var(2)], vec![vec![5, 100], vec![7, 200]]);
    let mut inputs = relation_to_values(&r, m).unwrap();
    inputs.extend(relation_to_values(&s, m).unwrap());
    let bits = bc.pack_inputs(&inputs);
    let eng = query_circuits::circuit::CompiledBitCircuit::compile_gmw(&bc);
    let (mut results, stats) = query_circuits::mpc::run_two_party(&eng, &[bits], 64, 5).unwrap();
    let out_bits = results.remove(0).unwrap();
    let out = query_circuits::circuit::decode_relation(&schema, &bc.unpack_outputs(&out_bits));
    assert_eq!(out, r.natural_join(&s));
    // the networked session consumes one packed triple (64 scalar
    // triples in word form) per circuit AND, in AND-depth many rounds
    assert_eq!(stats.and_gates, bc.and_count() * 64);
    assert_eq!(stats.rounds, bc.and_depth() as u64);
    assert!(stats.bytes_sent > 0 && stats.bytes_sent == stats.bytes_recv);
}

#[test]
fn degree_constraints_shrink_circuits() {
    // an FD on S collapses the triangle's bound from N^1.5 to N
    let q = triangle();
    let mut dc = uniform_dc(&q, 1 << 8);
    let free = compile_fcq(&q, &dc).unwrap();
    dc.add(DegreeConstraint::fd(
        VarSet::singleton(Var(1)),
        [Var(1), Var(2)].into_iter().collect(),
    ));
    let fd = compile_fcq(&q, &dc).unwrap();
    assert!(fd.bound.log_value < free.bound.log_value);
    assert!(paper_cost(&fd.rc) < paper_cost(&free.rc));
}

#[test]
fn nonconforming_instances_are_rejected_not_miscomputed() {
    // feed more tuples than declared: the layout refuses
    let q = triangle();
    let dc = uniform_dc(&q, 8);
    let compiled = compile_fcq(&q, &dc).unwrap();
    let lowered = compiled.rc.lower();
    let db = uniform_db(&q, 20, 1); // 20 > 8
    assert!(lowered.run(&db).is_err());
    assert!(compiled.rc.evaluate_ram(&db).is_err());
}

#[test]
fn boolean_query_two_family() {
    let q = parse_cq("Q() :- R(x, y), S(y, z), T(z, w)").unwrap();
    let dc = uniform_dc(&q, 16);
    let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
    for seed in 0..3 {
        let db = uniform_db(&q, 12, seed + 9);
        let expect = !evaluate_pairwise(&q, &db).unwrap().is_empty();
        let got = !os.evaluate_ram(&db).unwrap().is_empty();
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn single_bit_secure_triangle_existence() {
    // The minimal-leakage MPC artifact: a Boolean-query circuit whose
    // word-level output is ONE wire; two parties learn only whether a
    // triangle exists across their joint data.
    use query_circuits::relation::agm_worst_case_triangle;
    let q = parse_cq("Q() :- R(a, b), S(b, c), T(a, c)").unwrap();
    let dc = uniform_dc(&q, 9);
    let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
    let rc = os.boolean_circuit().unwrap();
    let lowered = rc.lower();
    // the circuit's entire output is one word: arity-0 slot = validity bit
    assert_eq!(lowered.circuit.outputs().len(), 1);
    let bc = lower_with(&lowered.circuit, 16, &CompileOptions::from_env());
    let eng = query_circuits::circuit::CompiledBitCircuit::compile_gmw(&bc);

    let run = |db: &Database| -> bool {
        let words = lowered.layout.values(db).unwrap();
        let bits = bc.pack_inputs(&words);
        let (mut results, _) = query_circuits::mpc::run_two_party(&eng, &[bits], 64, 11).unwrap();
        let out = results.remove(0).unwrap();
        let words = bc.unpack_outputs(&out);
        words[0] != 0
    };

    // a database with triangles
    let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), 9);
    let mut db_yes = Database::new();
    db_yes.insert("R", r);
    db_yes.insert("S", s);
    db_yes.insert("T", t);
    assert!(run(&db_yes));
    assert!(!evaluate_pairwise(&q, &db_yes).unwrap().is_empty());

    // a triangle-free database (bipartite-style shift)
    let mut db_no = Database::new();
    db_no.insert(
        "R",
        Relation::from_rows(vec![Var(0), Var(1)], vec![vec![1, 2], vec![3, 4]]),
    );
    db_no.insert(
        "S",
        Relation::from_rows(vec![Var(1), Var(2)], vec![vec![2, 5], vec![4, 6]]),
    );
    db_no.insert(
        "T",
        Relation::from_rows(vec![Var(0), Var(2)], vec![vec![1, 6], vec![3, 5]]),
    );
    assert!(!run(&db_no));
    assert!(evaluate_pairwise(&q, &db_no).unwrap().is_empty());
}

#[test]
fn degree_constraint_on_projection_gets_a_guard() {
    // Sec. 3.1: a degree constraint on Y ⊂ F is guarded by precomputing
    // Π_Y(R_F); here a cardinality constraint on the single column B.
    let q = triangle();
    let mut dc = uniform_dc(&q, 1 << 8);
    // few distinct B values: h(ABC) ≤ h(B) + h(AB|B) + h(BC|B)-ish —
    // the planner may or may not use it, but it must be guarded, compile,
    // and stay correct
    dc.add(DegreeConstraint::cardinality(VarSet::singleton(Var(1)), 4));
    let compiled = compile_fcq(&q, &dc).unwrap();
    let mut db = uniform_db(&q, 40, 5);
    // make the instance conform: B values in [0, 4)
    let squash = |r: &Relation, col: usize| -> Relation {
        Relation::from_rows(
            r.schema().to_vec(),
            r.iter()
                .map(|row| {
                    let mut t = row.clone();
                    t[col] %= 4;
                    t
                })
                .collect(),
        )
    };
    let r = squash(db.get("R").unwrap(), 1);
    let s = squash(db.get("S").unwrap(), 0);
    db.insert("R", r);
    db.insert("S", s);
    let got = compiled.rc.evaluate_ram(&db).unwrap();
    assert_eq!(got[0], evaluate_pairwise(&q, &db).unwrap());
}

#[test]
fn disconnected_query_cross_product() {
    // a query whose hypergraph is disconnected: the result is a cross
    // product of the components — phase 3 must handle the empty shared
    // set (Alg. 9's join over no common attributes)
    let q = parse_cq("Q(a, b, x, y) :- R(a, b), S(x, y)").unwrap();
    let dc = uniform_dc(&q, 8);
    let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
    for seed in 0..2 {
        let db = uniform_db(&q, 6, seed + 31);
        let expect = evaluate_pairwise(&q, &db).unwrap();
        assert_eq!(
            os.count_ram(&db).unwrap(),
            expect.len() as u64,
            "seed {seed}"
        );
        assert_eq!(os.evaluate_ram(&db).unwrap(), expect, "seed {seed}");
    }
    // PANDA handles the same query directly (its c-steps cross-product)
    let compiled = compile_fcq(&q, &dc).unwrap();
    let db = uniform_db(&q, 6, 77);
    assert_eq!(
        compiled.rc.evaluate_ram(&db).unwrap()[0],
        evaluate_pairwise(&q, &db).unwrap()
    );
}
