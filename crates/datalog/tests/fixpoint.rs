//! End-to-end: Datalog text → bounded-fixpoint relational circuit →
//! word-level oblivious circuit, bit-compared against the RAM
//! semi-naive reference (and the provenance evaluation) on seeded
//! random graphs.

use qec_datalog::workloads;
use qec_datalog::{
    compile, database, eval_provenance, provenance, result_relation, seminaive, DatalogProgram,
    FixpointBounds,
};

#[test]
fn lowered_transitive_closure_is_bit_identical_to_the_reference() {
    let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
    for seed in [1u64, 2, 3] {
        let edges = workloads::random_edges(4, 6, seed);
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let bounds = FixpointBounds::for_domain(4, 8);
        let fx = compile(&dp, &bounds).unwrap();
        let want = result_relation(&dp, &seminaive(&dp, &db, bounds.rounds).unwrap());
        let ram = fx.rc.evaluate_ram(&db).unwrap().pop().unwrap();
        assert_eq!(ram, want, "RAM interpretation of the circuit (seed {seed})");
        let lowered = fx.rc.lower();
        let got = lowered.run(&db).unwrap().pop().unwrap();
        assert_eq!(got, want, "word-level circuit (seed {seed})");
    }
}

#[test]
fn lowered_shortest_path_is_bit_identical_to_the_reference() {
    let dp = DatalogProgram::parse(workloads::SHORTEST_PATH).unwrap();
    let edges = workloads::random_weighted_edges(4, 6, 5, 0xbead);
    let db = database(&dp, &[("edge", edges)]).unwrap();
    let bounds = FixpointBounds::for_domain(4, 8);
    let fx = compile(&dp, &bounds).unwrap();
    let reference = seminaive(&dp, &db, bounds.rounds).unwrap();
    let want = result_relation(&dp, &reference);
    let got = fx.rc.lower().run(&db).unwrap().pop().unwrap();
    assert_eq!(got, want);
    // and the provenance DAG evaluates back to the same annotations
    let pr = provenance(&dp, &db, bounds.rounds).unwrap();
    assert_eq!(eval_provenance(&dp, &pr), reference.tuples);
}

#[test]
fn reachability_works_with_a_second_edb() {
    let dp = DatalogProgram::parse(workloads::REACHABILITY).unwrap();
    let edges = workloads::random_edges(5, 8, 77);
    let db = database(&dp, &[("edge", edges), ("start", workloads::start_rows(1))]).unwrap();
    let bounds = FixpointBounds::for_domain(5, 8);
    let fx = compile(&dp, &bounds).unwrap();
    let want = result_relation(&dp, &seminaive(&dp, &db, bounds.rounds).unwrap());
    let got = fx.rc.evaluate_ram(&db).unwrap().pop().unwrap();
    assert_eq!(got, want);
}

#[test]
fn cross_iteration_consing_collapses_gates() {
    // The same circuit, lowered with and without online hash-consing:
    // the unrolled rounds must share structure (measured, not assumed),
    // and both lowerings must still compute the fixpoint.
    let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
    let bounds = FixpointBounds::for_domain(4, 8);
    let fx = compile(&dp, &bounds).unwrap();
    let consed = fx.rc.lower();
    let naive = fx.rc.lower_without_cse();
    assert!(
        consed.circuit.size() < naive.circuit.size(),
        "consing must collapse cross-iteration redundancy ({} vs {})",
        consed.circuit.size(),
        naive.circuit.size()
    );
    let db = database(&dp, &[("edge", workloads::random_edges(4, 6, 0x24))]).unwrap();
    let want = result_relation(&dp, &seminaive(&dp, &db, bounds.rounds).unwrap());
    assert!(!want.is_empty(), "the seeded graph has reachable pairs");
    for (label, lowered) in [("hash-consed", &consed), ("no-CSE", &naive)] {
        let got = lowered.run(&db).unwrap().pop().unwrap();
        assert_eq!(got, want, "{label} lowering against seminaive");
    }
}
