//! The server compiles each conjunctive query through the planner and
//! records its choice: a `plan` span inside `serve.compile`, one
//! `plan.<construction>` counter per compile and the kept candidate's
//! `plan.predicted_gates`.
//!
//! This file holds one test, so it owns its process: the builder flushes
//! `build.gates` to the process-global recorder, which the test installs.

use std::time::Duration;

use qec_circuit::{CompileOptions, Mode};
use qec_core::naive_circuit;
use qec_obs::Recorder;
use qec_query::{baseline::evaluate_pairwise, parse_cq};
use qec_relation::{Database, DcSet, DegreeConstraint, Relation};
use qec_serve::{Request, Server, ServerConfig};

/// A request for `query` with `n` rows per atom. Row `i` gives variable
/// `v` the value `(i·(v+1) + v) mod n` in every atom, so each `i` is an
/// answer, and the repeated values of the wider strides join into more.
fn request(query: &str, n: u64) -> Request {
    let cq = parse_cq(query).unwrap();
    let rels = cq
        .atoms
        .iter()
        .map(|atom| {
            let rows = (0..n)
                .map(|i| {
                    atom.vars
                        .iter()
                        .map(|v| {
                            let v = v.index() as u64;
                            (i * (v + 1) + v) % n
                        })
                        .collect()
                })
                .collect();
            (atom.name.clone(), rows)
        })
        .collect();
    Request {
        tenant: "plan".into(),
        query: query.into(),
        n,
        rels,
    }
}

fn expected(req: &Request) -> Relation {
    let cq = parse_cq(&req.query).unwrap();
    let mut db = Database::new();
    for (name, rows) in &req.rels {
        let atom = cq.atoms.iter().find(|a| a.name == *name).unwrap();
        db.insert(
            name.clone(),
            Relation::from_rows(atom.vars.to_vec(), rows.clone()),
        );
    }
    evaluate_pairwise(&cq, &db).unwrap()
}

/// Word gates of the classical circuit, the planner's other candidate
/// for the queries this file plans through PANDA-C, built with the
/// server's builder.
fn classical_gates(query: &str, n: u64) -> u64 {
    let cq = parse_cq(query).unwrap();
    let dc = DcSet::from_vec(
        cq.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    );
    let (rc, _) = naive_circuit(&cq, &dc).unwrap();
    rc.lower_with(Mode::Build, &CompileOptions::sequential())
        .circuit
        .size()
}

#[test]
fn serve_compiles_the_three_path_ends_through_panda_c_and_the_triangle_and_a_wide_query_classically(
) {
    let path_ends = "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
    let triangle = "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)";
    let wide = "Q(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q) \
                :- R(a, b, c, d, e, f, g, h, i), S(i, j, k, l, m, n, o, p, q)";
    // Measured before the recorder is installed, so these builds stay
    // out of its counters.
    let path_ends_classical = classical_gates(path_ends, 8);

    let rec = Recorder::new(true);
    let previous = qec_obs::install(rec.clone());
    let mut server = Server::start(ServerConfig {
        workers: 1,
        compile: CompileOptions::sequential().with_recorder(rec.clone()),
        recorder: rec.clone(),
        ..ServerConfig::default()
    });
    let timeout = Duration::from_secs(120);

    // The classical circuit sorts the N^3 slots of the path's cross
    // product to project them; PANDA-C sorts N^2.
    let req = request(path_ends, 8);
    let want = expected(&req);
    assert!(!want.is_empty(), "the 3-path request has answers");
    let resp = server.query_timeout(req, timeout).unwrap();
    assert_eq!(resp.relations, vec![want]);
    assert_eq!(rec.counter("plan.panda_c"), 1);
    assert_eq!(rec.counter("plan.classical"), 0);
    let path_ends_gates = rec.counter("build.gates");
    assert!(
        path_ends_gates <= path_ends_classical,
        "planned 3-path: {path_ends_gates} word gates, classical {path_ends_classical}"
    );
    assert!(rec.counter("plan.predicted_gates") > 0);

    // At N = 8 the triangle's cross product (512 slots, no sort) is far
    // smaller than PANDA-C's sorted wires.
    let req = request(triangle, 8);
    let want = expected(&req);
    assert!(!want.is_empty(), "the triangle request has answers");
    let resp = server.query_timeout(req, timeout).unwrap();
    assert_eq!(resp.relations, vec![want]);
    assert_eq!(rec.counter("plan.panda_c"), 1);
    assert_eq!(rec.counter("plan.classical"), 1);

    // Seventeen variables: past PANDA-C's variable cap, so the planner
    // keeps the classical circuit without building PANDA-C.
    let req = request(wide, 2);
    let want = expected(&req);
    assert!(!want.is_empty(), "the 17-variable request has answers");
    let resp = server.query_timeout(req, timeout).unwrap();
    assert_eq!(resp.relations, vec![want]);
    assert_eq!(rec.counter("plan.panda_c"), 1);
    assert_eq!(rec.counter("plan.classical"), 2);

    server.shutdown();
    qec_obs::install(previous);
    // One `plan` span per compile, each inside its `serve.compile`.
    let snap = rec.snapshot();
    let named = |name: &str| -> Vec<_> { snap.spans.iter().filter(|s| s.name == name).collect() };
    let (plans, compiles) = (named("plan"), named("serve.compile"));
    assert_eq!((plans.len(), compiles.len()), (3, 3));
    for plan in plans {
        assert!(
            compiles.iter().any(|c| c.start_ns <= plan.start_ns
                && plan.start_ns + plan.dur_ns <= c.start_ns + c.dur_ns),
            "a plan span outside every serve.compile span"
        );
    }
}
