//! Concurrency stress tests for the plan cache: single-flight compile
//! deduplication, lost-insert freedom, and byte-budget LRU eviction
//! under thread contention.
//!
//! The plans here are synthetic (a trivial two-input circuit wrapped in
//! a `CompiledPlan`) because these tests exercise the cache's
//! concurrency contract, not the compiler; the serve-vs-direct differ
//! stage and the server's own tests cover real plans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use qec_circuit::{Builder, CompileOptions, CompiledCircuit, InputLayout};
use qec_obs::Recorder;
use qec_serve::{CompiledPlan, PlanCache, PlanKey, ServeError};

fn key(i: usize) -> PlanKey {
    PlanKey {
        query: format!("Q(v0) :- R{i}(v0, v1)"),
        dc_sig: format!("|0.1|{i}"),
        n_bucket: 8,
        fixpoint_depth: 0,
    }
}

fn dummy_plan(k: &PlanKey, bytes: usize) -> CompiledPlan {
    let mut b = Builder::without_cse();
    let x = b.input();
    let y = b.input();
    let s = b.add(x, y);
    let c = b.finish(vec![s]);
    let engine = CompiledCircuit::compile_with(&c, &CompileOptions::sequential()).unwrap();
    CompiledPlan {
        key: k.clone(),
        engine,
        layout: InputLayout::new(),
        outputs: Vec::new(),
        plan_bytes: bytes,
        compile_ns: 1,
    }
}

/// N threads × M keys, every thread requesting every key: each key must
/// compile exactly once (single-flight), and every caller must receive
/// a working plan (no lost inserts).
#[test]
fn single_flight_compiles_each_key_exactly_once() {
    const THREADS: usize = 8;
    const KEYS: usize = 5;
    let cache = Arc::new(PlanCache::new(0, None, Recorder::disabled()));
    let compiles: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = cache.clone();
            let compiles = compiles.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..KEYS {
                    // Stagger the key order per thread so every key sees
                    // genuinely concurrent first arrivals.
                    let i = (i + t) % KEYS;
                    let k = key(i);
                    let (plan, _hit) = cache
                        .get_or_compile(&k, || {
                            compiles[i].fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // other threads to pile up on it.
                            std::thread::sleep(Duration::from_millis(20));
                            Ok(dummy_plan(&k, 100))
                        })
                        .unwrap();
                    assert_eq!(plan.key, k, "caller received the right plan");
                    assert_eq!(plan.engine.evaluate(&[2, 3]).unwrap(), vec![5]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for (i, c) in compiles.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "key {i} compiled once");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, KEYS as u64);
    assert_eq!(
        stats.hits + stats.waits + stats.misses,
        (THREADS * KEYS) as u64,
        "every lookup accounted for"
    );
    assert!(stats.waits > 0, "the sleeps force flight rendezvous");
    assert_eq!(stats.entries, KEYS as u64, "no lost inserts");
}

/// A failed compile is broadcast to all concurrent waiters, the entry
/// is removed, and the next request retries (and can succeed).
#[test]
fn failed_compiles_broadcast_and_allow_retry() {
    const THREADS: usize = 6;
    let cache = Arc::new(PlanCache::new(0, None, Recorder::disabled()));
    let attempts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let k = key(0);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let attempts = attempts.clone();
            let barrier = barrier.clone();
            let k = k.clone();
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_compile(&k, || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    Err(ServeError::Compile("injected".into()))
                })
            })
        })
        .collect();
    let mut errors = 0;
    for h in handles {
        match h.join().unwrap() {
            Err(ServeError::Compile(msg)) => {
                assert_eq!(msg, "injected");
                errors += 1;
            }
            other => panic!("expected broadcast compile error, got {other:?}"),
        }
    }
    // Everyone who rendezvoused on a flight got its error; threads that
    // arrived after a removal started a fresh flight (also failing).
    assert!(errors == THREADS);
    assert!(attempts.load(Ordering::SeqCst) >= 1);
    // The key is retryable and a successful compile now sticks.
    let (plan, hit) = cache.get_or_compile(&k, || Ok(dummy_plan(&k, 50))).unwrap();
    assert!(!hit);
    assert_eq!(plan.plan_bytes, 50);
    assert_eq!(cache.stats().entries, 1);
}

/// LRU eviction respects the byte budget: inserting past the budget
/// evicts the least-recently-used entries, never the newest insert,
/// and the resident-byte accounting stays exact.
#[test]
fn lru_eviction_respects_byte_budget() {
    // Budget fits exactly two 100-byte plans.
    let cache = PlanCache::new(200, None, Recorder::disabled());
    for i in 0..3 {
        let k = key(i);
        cache
            .get_or_compile(&k, || Ok(dummy_plan(&k, 100)))
            .unwrap();
    }
    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.used_bytes, 200);
    // Key 0 was the oldest: it recompiles; key 2 (newest) is resident.
    let (_, hit2) = cache
        .get_or_compile(&key(2), || panic!("key 2 must be resident"))
        .unwrap();
    assert!(hit2);
    let recompiled = AtomicU64::new(0);
    let k0 = key(0);
    cache
        .get_or_compile(&k0, || {
            recompiled.fetch_add(1, Ordering::SeqCst);
            Ok(dummy_plan(&k0, 100))
        })
        .unwrap();
    assert_eq!(recompiled.load(Ordering::SeqCst), 1, "key 0 was evicted");

    // Touch order decides the victim: after touching key 2, inserting a
    // new plan evicts key 0 (stale) rather than key 2.
    cache
        .get_or_compile(&key(2), || panic!("key 2 still resident"))
        .unwrap();
    let k3 = key(3);
    cache
        .get_or_compile(&k3, || Ok(dummy_plan(&k3, 100)))
        .unwrap();
    let (_, hit2) = cache
        .get_or_compile(&key(2), || panic!("recently-touched key survives"))
        .unwrap();
    assert!(hit2);
    assert!(cache.stats().used_bytes <= 200, "budget holds");
}

/// An oversized plan (bigger than the whole budget) is admitted —
/// the just-inserted key is protected — but evicts everything else.
#[test]
fn oversized_plan_does_not_thrash_itself() {
    let cache = PlanCache::new(150, None, Recorder::disabled());
    let k0 = key(0);
    cache
        .get_or_compile(&k0, || Ok(dummy_plan(&k0, 100)))
        .unwrap();
    let big = key(1);
    let (plan, _) = cache
        .get_or_compile(&big, || Ok(dummy_plan(&big, 400)))
        .unwrap();
    assert_eq!(plan.plan_bytes, 400);
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "only the oversized plan remains");
    assert_eq!(stats.used_bytes, 400);
    // And it is servable.
    let (_, hit) = cache
        .get_or_compile(&big, || panic!("oversized plan resident"))
        .unwrap();
    assert!(hit);
}

/// Concurrent inserts under a tight budget: accounting never leaks
/// (used_bytes equals the sum of resident plans when the dust settles).
#[test]
fn concurrent_eviction_keeps_accounting_exact() {
    const THREADS: usize = 4;
    const KEYS: usize = 12;
    let cache = Arc::new(PlanCache::new(300, None, Recorder::disabled()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..KEYS {
                    let i = (i * (t + 1)) % KEYS;
                    let k = key(i);
                    let _ = cache.get_or_compile(&k, || Ok(dummy_plan(&k, 100)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cache.stats();
    assert!(stats.used_bytes <= 300, "budget respected: {stats:?}");
    assert_eq!(
        stats.used_bytes,
        stats.entries * 100,
        "resident bytes match resident entries: {stats:?}"
    );
    assert!(stats.evictions > 0);
}
