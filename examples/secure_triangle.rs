//! Secure two-party query evaluation (Sec. 1 of the paper): two parties
//! hold private relations; they count triangles across their joint data
//! without revealing the relations to each other.
//!
//! Party 0 owns the follower graph `R(a,b)`; party 1 owns `S(b,c)` and
//! `T(a,c)`. The query circuit is public (it depends only on the query
//! and the agreed degree constraints), and it is evaluated under XOR
//! secret sharing — GMW-style, with a trusted dealer for the
//! multiplication triples — by two protocol sessions that exchange one
//! message per AND level. Communication ∝ AND gates, rounds ∝ AND depth:
//! exactly the quantities the paper's circuit sizes control.
//!
//! ```text
//! cargo run --release --example secure_triangle
//! ```

use query_circuits::circuit::Mode;
use query_circuits::circuit::{lower_with, CompileOptions, CompiledBitCircuit};
use query_circuits::core::compile_fcq;
use query_circuits::mpc::run_two_party;
use query_circuits::query::{baseline::evaluate_pairwise, parse_cq};
use query_circuits::relation::{
    random_relation_with_domain, Database, DcSet, DegreeConstraint, Var,
};

fn main() {
    let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").expect("well-formed");
    let n = 10u64;
    let dc = DcSet::from_vec(
        q.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    );

    // The public circuit: PANDA-C, lowered all the way to AND/XOR/NOT.
    let compiled = compile_fcq(&q, &dc).expect("compiles");
    let lowered = compiled.rc.lower(Mode::Build);
    let boolean = lower_with(&lowered.circuit, 16, &CompileOptions::from_env());
    println!(
        "public circuit: {} word gates → {} boolean gates ({} AND, AND-depth {})",
        lowered.circuit.size(),
        boolean.gate_count(),
        boolean.and_count(),
        boolean.and_depth()
    );

    // Private inputs (simulated): each party fills its relations' slots;
    // `run_two_party` secret-shares the joint input vector bit by bit.
    let mut db = Database::new();
    db.insert(
        "R",
        random_relation_with_domain(vec![Var(0), Var(1)], 9, 5, 7),
    ); // party 0
    db.insert(
        "S",
        random_relation_with_domain(vec![Var(1), Var(2)], 9, 5, 8),
    ); // party 1
    db.insert(
        "T",
        random_relation_with_domain(vec![Var(0), Var(2)], 9, 5, 9),
    ); // party 1
    let words = lowered.layout.values(&db).expect("conforming");
    let bits = boolean.pack_inputs(&words);

    // Offline phase: the dealer hands out packed Beaver triples; online
    // phase: the two parties evaluate on the round-optimal schedule,
    // exchanging one message of masked bits per AND level.
    let eng = CompiledBitCircuit::compile_gmw(&boolean);
    let (mut results, stats) = run_two_party(&eng, &[bits], 64, 0xDEA1).expect("protocol");
    let output_bits = results.remove(0).expect("declared constraints hold");
    println!(
        "protocol: {} triples consumed, {} bits exchanged in {} rounds, {} free (XOR/NOT) gates",
        stats.and_gates, stats.messages_bits, stats.rounds, stats.free_gates
    );

    // Reconstruct and verify against a plaintext RAM evaluation.
    let out_words = boolean.unpack_outputs(&output_bits);
    let (schema, start, len) = &lowered.outputs[0];
    let result = query_circuits::circuit::decode_relation(schema, &out_words[*start..start + len]);
    let expected = evaluate_pairwise(&q, &db).expect("baseline");
    assert_eq!(result, expected);
    println!(
        "secure result: {} triangles — matches the plaintext evaluation",
        result.len()
    );
}
