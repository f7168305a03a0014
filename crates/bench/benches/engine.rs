//! Evaluation-engine benchmarks: per-instance interpretation
//! ([`Circuit::evaluate`]) against the compiled engine
//! ([`CompiledCircuit`]) on a ≥ 10⁵-gate degree-bounded join circuit.
//! The headline comparison is `interpreter` vs `engine_batch/64` — the
//! acceptance bar for the engine is ≥ 4× there. Throughput is annotated
//! in gate-evaluations per iteration so the JSON output
//! (`CRITERION_JSON=...`) carries absolute rates, not just times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qec_circuit::{
    encode_relation, join_degree_bounded, Builder, Circuit, CompileOptions, CompiledCircuit,
};
use qec_relation::Var;

const CAP: usize = 16;
const BATCH: usize = 64;

/// R(a,b) ⋈ S(b,c), degree bound 4 — ~2·10⁵ word gates.
fn join_circuit() -> Circuit {
    let mut b = Builder::new();
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

fn bench_engine(c: &mut Criterion) {
    let circuit = join_circuit();
    assert!(
        circuit.size() >= 100_000,
        "bench circuit must stay ≥ 1e5 gates"
    );
    let engine = CompiledCircuit::compile_with(&circuit, &CompileOptions::from_env())
        .expect("circuit compiles");
    assert!(
        engine.stats().peak_registers < circuit.num_wires(),
        "register allocation must beat the O(size) value buffer"
    );
    let batch = instances(&circuit, BATCH);

    let mut g = c.benchmark_group("engine_eval");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    // one iteration = the whole 64-instance batch, whichever evaluator runs
    g.throughput(Throughput::Elements(
        engine.stats().tape_len as u64 * BATCH as u64,
    ));

    g.bench_function("interpreter", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|i| circuit.evaluate(i).expect("evaluates"))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function(BenchmarkId::new("engine_batch", 1), |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|i| engine.evaluate(i).expect("evaluates"))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function(BenchmarkId::new("engine_batch", BATCH), |b| {
        b.iter(|| engine.evaluate_batch(&batch))
    });
    g.finish();

    let mut g = c.benchmark_group("engine_compile");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("compile", |b| {
        b.iter(|| {
            CompiledCircuit::compile_with(&circuit, &CompileOptions::from_env())
                .expect("circuit compiles")
                .stats()
                .tape_len
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
