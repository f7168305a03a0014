//! BitEngine benchmarks: per-instance bit-circuit interpretation
//! ([`BitCircuit::evaluate`]) against the bitsliced transposed engine
//! ([`CompiledBitCircuit`]) on the lowered X15 join circuit (~4·10⁶
//! AND/XOR/NOT gates). The headline comparison is `bit_interpreter` vs
//! `bitengine/scalar-64` — the acceptance bar is ≥ 8× there; wide
//! kernels run at their full lane count. Throughput is annotated in
//! bit-gate evaluations per iteration so the JSON output
//! (`CRITERION_JSON=...`) carries absolute rates, not just times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qec_circuit::lower::BitCircuit;
use qec_circuit::{
    encode_relation, join_degree_bounded, lower_with, BitEvalScratch, BitKernel, Builder,
    CompileOptions, CompiledBitCircuit,
};
use qec_relation::Var;

const CAP: usize = 16;
const BATCH: usize = 64;

/// R(a,b) ⋈ S(b,c), degree bound 4, lowered at width 16.
fn join_bits() -> BitCircuit {
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], CAP);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], CAP);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    let c = b.finish(j.flatten());
    lower_with(&c, 16, &CompileOptions::from_env())
}

fn instances(bits: &BitCircuit, batch: usize) -> Vec<Vec<bool>> {
    (0..batch)
        .map(|lane| {
            let mut inp = Vec::with_capacity(2 * CAP * 3);
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
            bits.pack_inputs(&inp)
        })
        .collect()
}

fn bench_bitengine(c: &mut Criterion) {
    let bits = join_bits();
    assert!(
        bits.gates().len() >= 1_000_000,
        "bench bit circuit must stay ≥ 1e6 gates"
    );
    let eng = CompiledBitCircuit::compile_gmw(&bits);
    assert!(
        eng.stats().peak_registers < bits.gates().len(),
        "register allocation must beat the O(gates) value buffer"
    );
    let widest = BitKernel::available()
        .iter()
        .map(|k| k.lanes())
        .max()
        .unwrap_or(BATCH);
    let batch = instances(&bits, BATCH.max(widest));

    let mut g = c.benchmark_group("bitengine_eval");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    // one iteration = a 64-instance batch for the narrow rows; wide
    // kernels re-declare throughput at their full lane count below
    g.throughput(Throughput::Elements(
        eng.stats().tape_len as u64 * BATCH as u64,
    ));

    g.bench_function("bit_interpreter", |b| {
        let mut sc = BitEvalScratch::default();
        b.iter(|| {
            batch[..BATCH]
                .iter()
                .map(|i| bits.evaluate_with(i, &mut sc).expect("evaluates").to_vec())
                .collect::<Vec<_>>()
        })
    });
    let scalar = eng.clone().with_kernel(BitKernel::Scalar);
    g.bench_function(BenchmarkId::new("bitengine", "scalar-1"), |b| {
        b.iter(|| {
            batch[..BATCH]
                .iter()
                .map(|i| scalar.evaluate_batch(std::slice::from_ref(i)))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function(
        BenchmarkId::new("bitengine", format!("scalar-{BATCH}")),
        |b| b.iter(|| scalar.evaluate_batch(&batch[..BATCH])),
    );
    for kernel in BitKernel::available() {
        if kernel == BitKernel::Scalar {
            continue;
        }
        // full lane count so no lanes idle
        let lanes = kernel.lanes();
        let eng = eng.clone().with_kernel(kernel);
        g.throughput(Throughput::Elements(
            eng.stats().tape_len as u64 * lanes as u64,
        ));
        g.bench_function(
            BenchmarkId::new("bitengine", format!("{}-{lanes}", kernel.name())),
            |b| b.iter(|| eng.evaluate_batch(&batch[..lanes])),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("bitengine_compile");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("compile", |b| {
        b.iter(|| CompiledBitCircuit::compile_gmw(&bits).stats().tape_len)
    });
    g.finish();
}

criterion_group!(benches, bench_bitengine);
criterion_main!(benches);
