//! Quickstart: parse a conjunctive query, state degree constraints,
//! compile it with PANDA-C into an oblivious circuit, and evaluate it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use query_circuits::core::{compile_fcq, paper_cost};
use query_circuits::query::{baseline::evaluate_pairwise, parse_cq};
use query_circuits::relation::{
    random_relation_with_domain, Database, DcSet, DegreeConstraint, Var,
};

fn main() {
    // 1. A query: the triangle, the paper's running example.
    let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").expect("well-formed query");
    println!("query     : {q}");

    // 2. Degree constraints — the only thing circuits may depend on
    //    besides the query itself (Sec. 4.3: bounded wires).
    let n = 64u64;
    let dc = DcSet::from_vec(
        q.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    );

    // 3. Compile: polymatroid bound → proof sequence → PANDA-C.
    let compiled = compile_fcq(&q, &dc).expect("compiles");
    println!(
        "LOGDAPB   : {} (output ≤ 2^{} = N^1.5)",
        compiled.bound.log_value, compiled.bound.log_value
    );
    println!(
        "proof     : {} steps over order {:?}",
        compiled.proof.steps.len(),
        compiled
            .proof
            .order
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );
    println!(
        "rel. circ : {} gates, {} parallel branches, paper cost {}",
        compiled.rc.nodes.len(),
        compiled.branches,
        paper_cost(&compiled.rc)
    );

    // 4. Lower to a word-level oblivious circuit. Its topology depends
    //    only on `dc` — the same circuit evaluates *any* conforming
    //    database.
    let lowered = compiled.rc.lower();
    println!(
        "word circ : {} gates, depth {}",
        lowered.circuit.size(),
        lowered.circuit.depth()
    );

    // 5. Evaluate on a random instance and check against a RAM join.
    let mut db = Database::new();
    // a dense-ish domain so some triangles actually close
    db.insert(
        "R",
        random_relation_with_domain(vec![Var(0), Var(1)], 60, 12, 1),
    );
    db.insert(
        "S",
        random_relation_with_domain(vec![Var(1), Var(2)], 60, 12, 2),
    );
    db.insert(
        "T",
        random_relation_with_domain(vec![Var(0), Var(2)], 60, 12, 3),
    );

    let from_circuit = &lowered.run(&db).expect("conforming instance")[0];
    let from_ram = evaluate_pairwise(&q, &db).expect("baseline");
    assert_eq!(*from_circuit, from_ram);
    println!(
        "result    : {} triangles — circuit and RAM baseline agree",
        from_circuit.len()
    );
}
