//! The word builder's hash-cons, seen from outside: the counters it
//! flushes match the circuit it built, and the cons index's footprint
//! stays within its budget of 8 bytes of links per wire.
//!
//! One test per file: it installs the process-global recorder, which the
//! builder flushes its counters to.

use qec_circuit::{Builder, WireId};
use qec_obs::Recorder;

/// Eight mux chains over shared inputs. Commutative duplicates
/// (`x_i + x_j` against `x_j + x_i`), repeated constants and gates every
/// chain rebuilds all hit the table; each chain's muxes are its own. The
/// bounds are offset by `t + 1`, so no compare is against 0 (which the
/// builder folds) and every chain depends on its `t`.
fn program(b: &mut Builder) -> Vec<WireId> {
    let xs: Vec<WireId> = (0..32).map(|_| b.input()).collect();
    (0..8)
        .map(|t| {
            let mut acc = b.constant(t as u64);
            for i in 0..32 {
                for j in 0..32 {
                    let s = b.add(xs[i], xs[j]);
                    let k = b.constant((i * j + t + 1) as u64);
                    let e = b.lt(s, k);
                    acc = b.mux(e, acc, s);
                }
            }
            acc
        })
        .collect()
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
fn cons_counters_match_the_circuit_and_stay_within_the_slot_budget() {
    let (c, seq) = run(Builder::new());
    assert_eq!(seq.counter("build.gates"), c.size());
    assert_eq!(seq.counter("build.wires"), c.num_wires() as u64);
    let entries = seq.counter("build.cons_misses");
    assert!(entries > 8_000, "{entries} interned gates");
    assert!(
        seq.counter("build.cons_hits") > entries,
        "the program repeats itself"
    );
    // Each wire holds two 4-byte links (its use list's head and its own
    // next), allocated 4096 wires at a time, and the constants sit in a
    // small rest table of 5-byte slots: about 8 bytes per entry here,
    // plus under one chunk of slack. A table that stored the key would
    // need at least twice that.
    assert!(
        seq.counter("build.cons_bytes") <= 14 * entries,
        "{} bytes for {entries} entries",
        seq.counter("build.cons_bytes")
    );
}
