//! Outsourced query processing (Sec. 1, Sec. 6 of the paper): a client
//! uploads encrypted data; the server evaluates circuits obliviously —
//! its access pattern cannot depend on the plaintext. Output-sensitive
//! circuits make this practical: first a small circuit computes
//! `OUT = |Q(D)|` (revealing only the result size, which is part of the
//! answer anyway); then a second circuit sized `Õ(N + 2^{da-fhtw} + OUT)`
//! computes the result — instead of paying the worst case every time.
//!
//! The demo runs a projective path query (find user→region pairs through
//! a bound intermediary) and a semiring aggregate (cheapest 3-hop route).
//!
//! ```text
//! cargo run --release --example outsourced_analytics
//! ```

use query_circuits::core::{naive_circuit, paper_cost, AggregateQuery, OutputSensitive, Semiring};
use query_circuits::query::{baseline::evaluate_pairwise, parse_cq};
use query_circuits::relation::{random_relation, Database, DcSet, DegreeConstraint, Relation, Var};

fn main() {
    // Q(user, region) :- Visits(user, page), Links(page, site), Hosted(site, region)
    // parser indices: user=0, region=1 (free), page=2, site=3 (bound)
    let q =
        parse_cq("Q(user, region) :- Visits(user, page), Links(page, site), Hosted(site, region)")
            .expect("well-formed");
    let n = 64u64;
    let dc = DcSet::from_vec(
        q.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    );

    let mut db = Database::new();
    db.insert("Visits", random_relation(vec![Var(0), Var(2)], 60, 4));
    db.insert("Links", random_relation(vec![Var(2), Var(3)], 60, 6));
    db.insert("Hosted", random_relation(vec![Var(3), Var(1)], 60, 5));

    // Family 1: compute OUT (this is the only thing revealed beyond the
    // encrypted result).
    let os = OutputSensitive::build(&q, &dc, 5_000).expect("free-connex GHD exists");
    println!("da-fhtw  : {} (log₂ units)", os.width);
    let count_rc = os.count_circuit().expect("count circuit");
    let out = os.count_ram(&db).expect("count");
    println!(
        "family 1 : cost {} — computes OUT = {out}",
        paper_cost(&count_rc)
    );

    // Family 2: parameterized by OUT; far below the worst-case circuit.
    let query_rc = os.query_circuit(out).expect("query circuit");
    let (worst, _) = naive_circuit(&q, &dc).expect("naive");
    println!(
        "family 2 : cost {} at OUT={out} — worst-case circuit would cost {}",
        paper_cost(&query_rc),
        paper_cost(&worst)
    );

    // The server would evaluate the lowered oblivious circuit; we do both
    // and check.
    let lowered = query_rc.lower();
    let result = &lowered.run(&db).expect("conforming")[0];
    let expected = evaluate_pairwise(&q, &db).expect("baseline");
    assert_eq!(*result, expected);
    println!(
        "result   : {} (user, region) pairs — oblivious circuit agrees with RAM",
        result.len()
    );

    // Bonus: a semiring aggregate on the same data — cheapest 3-hop route
    // where each edge carries a cost annotation (MinTropical: ⊕ = min,
    // ⊗ = +). Annotations live in an extra column of the stored relations.
    let annotate = |rel: &Relation, var: Var, salt: u64| -> Relation {
        let mut schema = rel.schema().to_vec();
        schema.push(var);
        let rows = rel
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut t = r.clone();
                t.push(1 + ((i as u64 * 7 + salt) % 9));
                t
            })
            .collect();
        Relation::from_rows(schema, rows)
    };
    let mut adb = Database::new();
    adb.insert("Visits", annotate(db.get("Visits").unwrap(), Var(40), 1));
    adb.insert("Links", annotate(db.get("Links").unwrap(), Var(41), 3));
    adb.insert("Hosted", annotate(db.get("Hosted").unwrap(), Var(42), 2));

    let aq = AggregateQuery::new(
        &q,
        &dc,
        Semiring::MinTropical,
        vec![Some(Var(40)), Some(Var(41)), Some(Var(42))],
        5_000,
    )
    .expect("builds");
    // OUT for the aggregate comes from the counting family over the plain
    // relations (Sec. 6.4), not from peeking at the answer
    let out_bound = aq.output_bound_ram(&adb).expect("count");
    let rc = aq.circuit(out_bound.max(1)).expect("circuit");
    let got = rc.evaluate_ram(&adb).expect("evaluates");
    let reference = aq.reference(&adb).expect("reference");
    assert_eq!(got[0], reference);
    println!(
        "aggregate: cheapest-route costs computed for {} pairs over the MinTropical semiring",
        got[0].len()
    );
}
