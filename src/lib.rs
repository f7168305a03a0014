//! Facade crate re-exporting the `query-circuits` workspace — a
//! from-scratch implementation of *Query Evaluation by Circuits*
//! (Wang & Yi, PODS 2022).
//!
//! The heart of the library is [`core`]: the PANDA-C compiler
//! ([`core::compile_fcq`]) and the output-sensitive Yannakakis-C families
//! ([`core::OutputSensitive`]), built on the oblivious circuit substrate
//! in [`circuit`] and the polymatroid/proof-sequence machinery in
//! [`entropy`].
//!
//! ```
//! use query_circuits::core::compile_fcq;
//! use query_circuits::query::parse_cq;
//! use query_circuits::relation::{random_relation, Database, DcSet, DegreeConstraint, Var};
//!
//! // 1. a query and its declared degree constraints
//! let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").unwrap();
//! let dc = DcSet::from_vec(
//!     q.atoms.iter().map(|a| DegreeConstraint::cardinality(a.vars, 16)).collect(),
//! );
//!
//! // 2. compile once: bound → proof sequence → relational circuit
//! let compiled = compile_fcq(&q, &dc).unwrap();
//!
//! // 3. lower to an oblivious word-level circuit and evaluate any
//! //    conforming database with it
//! let lowered = compiled.rc.lower();
//! let mut db = Database::new();
//! db.insert("R", random_relation(vec![Var(0), Var(1)], 14, 1));
//! db.insert("S", random_relation(vec![Var(1), Var(2)], 14, 2));
//! db.insert("T", random_relation(vec![Var(0), Var(2)], 14, 3));
//! let triangles = &lowered.run(&db).unwrap()[0];
//!
//! // the circuit computes exactly the join
//! let expected = query_circuits::query::baseline::evaluate_pairwise(&q, &db).unwrap();
//! assert_eq!(*triangles, expected);
//! ```

pub use qec_bignum as bignum;
pub use qec_circuit as circuit;
pub use qec_core as core;
pub use qec_datalog as datalog;
pub use qec_entropy as entropy;
pub use qec_lp as lp;
pub use qec_mpc as mpc;
pub use qec_query as query;
pub use qec_relation as relation;
