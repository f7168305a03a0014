//! The experiment harness: one function per experiment of
//! `EXPERIMENTS.md` (X1–X24), each regenerating the table that checks a
//! figure/theorem of the paper against measured circuit sizes.
//!
//! Every experiment returns a [`Table`]; the `report` binary prints them,
//! the Criterion benches time the underlying constructions, and the
//! integration tests assert the headline shape of each table (who wins,
//! by roughly what factor, where crossovers fall).

mod experiments;
mod table;

pub use experiments::{
    all_experiments, x10_semiring, x11_mpc, x12_primitive_scaling, x13_brent, x14_bound_tightness,
    x15_engine_throughput, x16_optimizer, x18_obs_overhead, x19_differential, x1_heavy_light,
    x20_tape_persistence, x21_bitengine, x22_serve, x23_networked_gmw, x24_datalog_fixpoint,
    x2_panda_triangle, x3_proof_sequences, x4_panda_cost, x5_project_aggregate, x6_pk_join,
    x7_degree_join, x8_output_join, x9_output_sensitive,
};
pub use table::Table;

/// Schema version stamped into every `BENCH_*.json` artifact written by
/// `report --json`. The artifact is a single JSON object whose keys are
/// emitted in a fixed order (`schema_version`, `experiment`,
/// `elapsed_ms`, `table`, `pipeline`), so trajectory diffs across PRs
/// compare content, not serializer whims. Bump on any key change.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

use qec_relation::{random_relation, Database, DcSet, DegreeConstraint, Var, VarSet};

/// Cardinality-`n` constraints for every atom of a query.
pub fn uniform_dc(cq: &qec_query::Cq, n: u64) -> DcSet {
    DcSet::from_vec(
        cq.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    )
}

/// Random database with `n` tuples per atom.
pub fn uniform_db(cq: &qec_query::Cq, n: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for (i, a) in cq.atoms.iter().enumerate() {
        let schema: Vec<Var> = a.vars.to_vec();
        db.insert(
            a.name.clone(),
            random_relation(schema, n, seed * 101 + i as u64),
        );
    }
    db
}

/// `VarSet` shorthand used across experiments.
pub fn vs(bits: &[u32]) -> VarSet {
    bits.iter().map(|&i| Var(i)).collect()
}
