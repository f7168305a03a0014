//! End-to-end benchmarks: evaluating compiled circuits on instances and
//! the secure two-party protocol, against the RAM baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use qec_circuit::{encode_relation, join_pk, lower_with, Builder, CompileOptions};
use qec_core::compile_fcq;
use qec_query::baseline::{evaluate_pairwise, generic_join};
use qec_query::triangle;
use qec_relation::{random_relation, Database, DcSet, DegreeConstraint, Var};

fn triangle_setup(n: usize) -> (qec_query::Cq, DcSet, Database) {
    let q = triangle();
    let dc = DcSet::from_vec(
        q.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n as u64))
            .collect(),
    );
    let mut db = Database::new();
    db.insert("R", random_relation(vec![Var(0), Var(1)], n - 2, 1));
    db.insert("S", random_relation(vec![Var(1), Var(2)], n - 2, 2));
    db.insert("T", random_relation(vec![Var(0), Var(2)], n - 2, 3));
    (q, dc, db)
}

fn bench_triangle_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("triangle_eval");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let (q, dc, db) = triangle_setup(32);
    let p = compile_fcq(&q, &dc).unwrap();
    g.bench_function("ram_interpreter/N=32", |b| {
        b.iter(|| p.rc.evaluate_ram(&db).unwrap())
    });
    let lowered = p.rc.lower();
    let inputs = lowered.layout.values(&db).unwrap();
    g.bench_function("word_circuit/N=32", |b| {
        b.iter(|| lowered.circuit.evaluate(&inputs).unwrap())
    });
    g.bench_function("baseline_pairwise/N=32", |b| {
        b.iter(|| evaluate_pairwise(&q, &db).unwrap())
    });
    g.bench_function("baseline_generic_join/N=32", |b| {
        b.iter(|| generic_join(&q, &db).unwrap())
    });
    g.finish();
}

fn bench_mpc(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpc_protocol");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let m = 8usize;
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], m);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], m);
    let j = join_pk(&mut b, &r, &s);
    let circ = b.finish(j.flatten());
    let bc = lower_with(&circ, 16, &CompileOptions::from_env());
    let rr = random_relation(vec![Var(0), Var(1)], m, 7);
    let ss = qec_relation::random_degree_bounded(Var(1), Var(2), m, 1, 8);
    let mut inputs = qec_circuit::relation_to_values(&rr, m).unwrap();
    inputs.extend(qec_circuit::relation_to_values(&ss, m).unwrap());
    let bits = bc.pack_inputs(&inputs);
    let eng = qec_circuit::CompiledBitCircuit::compile_gmw(&bc);
    let instances = [bits.clone()];
    g.bench_function("two_party_pk_join/M=8", |bch| {
        bch.iter(|| qec_mpc::run_two_party(&eng, &instances, 64, 42).unwrap())
    });
    g.bench_function("plaintext_bits/M=8", |bch| b_iter_plain(bch, &bc, &bits));
    g.finish();
}

fn b_iter_plain(bch: &mut criterion::Bencher, bc: &qec_circuit::lower::BitCircuit, bits: &[bool]) {
    bch.iter(|| bc.evaluate(bits).unwrap());
}

criterion_group!(benches, bench_triangle_eval, bench_mpc);
criterion_main!(benches);
