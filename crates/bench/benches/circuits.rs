//! Circuit-construction benchmarks: building the operator circuits of
//! Sec. 5 and 6.3 — the regime the scaling experiments X5–X8 and X12
//! sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qec_circuit::{
    aggregate, encode_relation, join_degree_bounded, join_output_bounded, join_pk, project,
    sort_slots, AggOp, Builder, SortKey,
};
use qec_relation::{Var, VarSet};

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort_network");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for e in [8u32, 10] {
        let k = 1usize << e;
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut bld = Builder::new();
                let w = encode_relation(&mut bld, vec![Var(0), Var(1)], k);
                let s = sort_slots(&mut bld, &w, &SortKey::Columns(vec![Var(0)]));
                bld.finish(s.flatten()).size()
            })
        });
    }
    g.finish();
}

fn bench_unary_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("unary_ops");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let k = 1usize << 10;
    g.bench_function("project/K=1024", |b| {
        b.iter(|| {
            let mut bld = Builder::new();
            let w = encode_relation(&mut bld, vec![Var(0), Var(1)], k);
            let p = project(&mut bld, &w, VarSet::singleton(Var(0)));
            bld.finish(p.flatten()).size()
        })
    });
    g.bench_function("aggregate/K=1024", |b| {
        b.iter(|| {
            let mut bld = Builder::new();
            let w = encode_relation(&mut bld, vec![Var(0), Var(1)], k);
            let a = aggregate(
                &mut bld,
                &w,
                VarSet::singleton(Var(0)),
                AggOp::Sum(Var(1)),
                Var(5),
            );
            bld.finish(a.flatten()).size()
        })
    });
    g.finish();
}

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_circuits");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let m = 1usize << 8;
    g.bench_function("pk_join/M=256", |b| {
        b.iter(|| {
            let mut bld = Builder::new();
            let r = encode_relation(&mut bld, vec![Var(0), Var(1)], m);
            let s = encode_relation(&mut bld, vec![Var(1), Var(2)], 2 * m);
            let j = join_pk(&mut bld, &r, &s);
            bld.finish(j.flatten()).size()
        })
    });
    g.bench_function("degree_join/M=256,deg=8", |b| {
        b.iter(|| {
            let mut bld = Builder::new();
            let r = encode_relation(&mut bld, vec![Var(0), Var(1)], m);
            let s = encode_relation(&mut bld, vec![Var(1), Var(2)], 2 * m);
            let j = join_degree_bounded(&mut bld, &r, &s, 8);
            bld.finish(j.flatten()).size()
        })
    });
    g.bench_function("output_join/M=256,OUT=64", |b| {
        b.iter(|| {
            let mut bld = Builder::new();
            let r = encode_relation(&mut bld, vec![Var(0), Var(1)], m);
            let s = encode_relation(&mut bld, vec![Var(1), Var(2)], m);
            let j = join_output_bounded(&mut bld, &r, &s, 64);
            bld.finish(j.flatten()).size()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sort, bench_unary_ops, bench_joins);
criterion_main!(benches);
