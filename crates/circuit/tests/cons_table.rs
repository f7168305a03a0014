//! The word builder's hash-cons, seen from outside: the sequential and
//! the parallel builders intern through the same index-only cons table,
//! so the same program reports the same cons counters in either, and the
//! table's footprint stays within its 5-bytes-per-slot budget.
//!
//! One test per file: it installs the process-global recorder, which the
//! builders flush their counters to.

use qec_circuit::{Builder, Mode, Pool, WireId};
use qec_obs::Recorder;

/// Eight independent tasks over shared inputs. Commutative duplicates
/// (`x_i + x_j` against `x_j + x_i`), repeated constants and gates every
/// task rebuilds all hit the table; each task's mux chain is its own.
fn program(b: &mut Builder) -> Vec<WireId> {
    let xs: Vec<WireId> = (0..32).map(|_| b.input()).collect();
    b.fork_join(8, |t, b| {
        let mut acc = b.constant(t as u64);
        for i in 0..32 {
            for j in 0..32 {
                let s = b.add(xs[i], xs[j]);
                let k = b.constant((i * j) as u64);
                let e = b.lt(s, k);
                acc = b.mux(e, acc, s);
            }
        }
        acc
    })
}

/// Builds `program` with `b` under a fresh global recorder.
fn run(mut b: Builder) -> (qec_circuit::Circuit, Recorder) {
    let rec = Recorder::new(true);
    let old = qec_obs::install(rec.clone());
    let outs = program(&mut b);
    let c = b.finish(outs);
    qec_obs::install(old);
    (c, rec)
}

#[test]
fn builders_share_cons_counters_and_stay_within_the_slot_budget() {
    const COUNTERS: [&str; 4] = [
        "build.gates",
        "build.wires",
        "build.cons_hits",
        "build.cons_misses",
    ];
    let (seq_c, seq) = run(Builder::new(Mode::Build));
    let (count_c, count) = run(Builder::new(Mode::Count));
    assert_eq!(
        (count_c.size(), count_c.depth()),
        (seq_c.size(), seq_c.depth())
    );
    for name in COUNTERS {
        assert_eq!(
            count.counter(name),
            seq.counter(name),
            "{name} in count mode"
        );
    }
    for threads in [2, 4] {
        let (par_c, par) = run(Builder::with_pool(Mode::Build, Pool::new(threads)));
        assert_eq!(par_c.gates(), seq_c.gates(), "{threads} threads");
        for name in COUNTERS {
            assert_eq!(
                par.counter(name),
                seq.counter(name),
                "{name} at {threads} threads"
            );
        }
        // 256 shards of at least 16 five-byte slots, then the same
        // per-entry budget as the sequential table.
        let entries = par.counter("build.cons_misses");
        assert!(par.counter("build.cons_bytes") <= 14 * entries + 256 * 16 * 5);
    }

    let entries = seq.counter("build.cons_misses");
    assert!(entries > 8_000, "{entries} interned gates");
    assert!(
        seq.counter("build.cons_hits") > entries,
        "the program repeats itself"
    );
    // A slot is a tag byte and a 4-byte id, and the table stays above 3/8
    // load (it doubles at 3/4): at most 5 × 8/3 ≈ 13.4 bytes per entry. A
    // table that stored the key would need at least twice that.
    assert!(
        seq.counter("build.cons_bytes") <= 14 * entries,
        "{} bytes for {entries} entries",
        seq.counter("build.cons_bytes")
    );
}
