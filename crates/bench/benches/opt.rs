//! Optimizer benchmarks on the ≥ 10⁵-gate degree-bounded join circuit:
//! the cost of building it raw (`Builder::without_cse`) and with the
//! builder's rewrite rules and hash-consing (`Builder::new`), the cost of
//! the optimizing compile of the rule-built circuit (the liveness mark and
//! the tape of its live gates), and the evaluation payoff — the batched
//! engine over the raw tape against the rule-built, marked tape. The headline comparison is `eval_batch/raw` vs
//! `eval_batch/optimized`; the acceptance bar for the optimizer is a
//! ≥ 15% throughput gain there.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qec_circuit::{
    encode_relation, join_degree_bounded, Builder, Circuit, CompileOptions, CompiledCircuit,
};
use qec_relation::Var;

const CAP: usize = 16;
const BATCH: usize = 64;

/// R(a,b) ⋈ S(b,c), degree bound 4, built by `b`.
fn join_circuit(mut b: Builder) -> Circuit {
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], CAP);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], CAP);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    b.finish(j.flatten())
}

fn instances(c: &Circuit, batch: usize) -> Vec<Vec<u64>> {
    (0..batch)
        .map(|lane| {
            let mut inp = Vec::with_capacity(c.num_inputs());
            for rel in 0..2 {
                for slot in 0..CAP {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1]
                    } else {
                        [key, slot as u64, 1]
                    });
                }
            }
            inp
        })
        .collect()
}

fn bench_opt(c: &mut Criterion) {
    let raw = join_circuit(Builder::without_cse());
    let ruled = join_circuit(Builder::new());
    assert!(raw.size() >= 100_000, "bench circuit must stay ≥ 1e5 gates");
    let eng_opt = CompiledCircuit::compile_with(&ruled, &CompileOptions::from_env())
        .expect("circuit compiles");
    assert!(
        eng_opt.stats().optimized_size as f64 <= 0.75 * raw.size() as f64,
        "the rules and the mark must keep cutting ≥ 25% of the join circuit's gates"
    );

    let mut g = c.benchmark_group("optimize");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    // one iteration = one build of the join, or one optimizing compile
    // of the rule-built circuit; all per raw-circuit gate
    g.throughput(Throughput::Elements(raw.size()));
    g.bench_function("build_raw", |b| {
        b.iter(|| join_circuit(Builder::without_cse()).size())
    });
    g.bench_function("build_rules", |b| {
        b.iter(|| join_circuit(Builder::new()).size())
    });
    g.bench_function("compile", |b| {
        b.iter(|| {
            CompiledCircuit::compile_with(&ruled, &CompileOptions::from_env())
                .map(|e| e.stats().tape_len)
        })
    });
    g.finish();

    let eng_raw =
        CompiledCircuit::compile_with(&raw, &CompileOptions::from_env().with_optimize(false))
            .expect("circuit compiles");
    let batch = instances(&raw, BATCH);
    assert_eq!(
        eng_raw.evaluate_batch(&batch),
        eng_opt.evaluate_batch(&batch),
        "both tapes must agree before being timed"
    );

    let mut g = c.benchmark_group("eval_batch");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    // normalize both evaluators to the same unit of work: one batch of
    // raw-circuit gate evaluations (the optimized tape does fewer actual
    // instructions for the same semantic work — that is the payoff)
    g.throughput(Throughput::Elements(raw.size() * BATCH as u64));
    g.bench_function(BenchmarkId::new("raw", BATCH), |b| {
        b.iter(|| eng_raw.evaluate_batch(&batch))
    });
    g.bench_function(BenchmarkId::new("optimized", BATCH), |b| {
        b.iter(|| eng_opt.evaluate_batch(&batch))
    });
    g.finish();
}

criterion_group!(benches, bench_opt);
criterion_main!(benches);
