//! Replayable differential-test cases.
//!
//! A [`Case`] is the unit the whole subsystem revolves around: the
//! generator produces them, the differ runs them, the shrinker minimizes
//! them, and the corpus serializes them (see [`crate::corpus`]). A case
//! is fully self-contained — query text, instance rows, capacity bound,
//! and the engine configuration that exposed the failure — so a bug
//! report is a single small text file.

use qec_circuit::CompileOptions;
use qec_obs::Recorder;
use qec_query::{parse_cq, Cq};
use qec_relation::{Database, DcSet, DegreeConstraint, Relation, VarSet};

/// One point in the engine-configuration matrix the differ sweeps:
/// optimizer on/off × tracing on/off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Run the word/bit optimizer pipeline.
    pub optimize: bool,
    /// Attach an enabled [`Recorder`] and collect evaluation metrics.
    pub traced: bool,
}

impl EngineOptions {
    /// The simplest configuration: unoptimized, untraced.
    pub fn baseline() -> EngineOptions {
        EngineOptions {
            optimize: false,
            traced: false,
        }
    }

    /// Translates to driver [`CompileOptions`].
    pub fn compile_options(&self) -> CompileOptions {
        let mut opts = CompileOptions::sequential().with_optimize(self.optimize);
        if self.traced {
            opts = opts.with_recorder(Recorder::new(true));
        }
        opts
    }
}

/// A self-contained differential test case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Generator seed (provenance only; replay never re-derives from it).
    pub seed: u64,
    /// Uniform cardinality bound: every atom gets `|R| ≤ n`.
    pub n: u64,
    /// Conjunctive query in `parse_cq` syntax.
    pub query: String,
    /// Rows per relation, keyed by atom name, columns in the sorted
    /// variable order of that atom in the parsed `query`.
    pub rels: Vec<(String, Vec<Vec<u64>>)>,
    /// The engine configuration that exposed (or should replay) the
    /// failure; the fuzz loop sweeps a whole matrix around it.
    pub options: EngineOptions,
}

impl Case {
    /// Builds the concrete query, instance, and degree constraints.
    ///
    /// # Errors
    /// Returns a description when the case is internally inconsistent
    /// (unparseable query, missing/mis-shaped relation rows, rows over
    /// the declared bound, reserved values). Corpus files come from
    /// disk, so every malformed input must surface as an error, never a
    /// panic.
    pub fn materialize(&self) -> Result<(Cq, Database, DcSet), String> {
        let cq = parse_cq(&self.query).map_err(|e| format!("query does not parse: {e}"))?;
        let mut db = Database::new();
        let mut seen: Vec<VarSet> = Vec::new();
        let mut cards: Vec<DegreeConstraint> = Vec::new();
        for atom in &cq.atoms {
            let rows = self
                .rels
                .iter()
                .find(|(name, _)| *name == atom.name)
                .map(|(_, rows)| rows.clone())
                .ok_or_else(|| format!("no rows given for atom {}", atom.name))?;
            if rows.len() as u64 > self.n {
                return Err(format!(
                    "relation {} has {} rows, over the declared bound n={}",
                    atom.name,
                    rows.len(),
                    self.n
                ));
            }
            let schema = atom.vars.to_vec();
            for (i, row) in rows.iter().enumerate() {
                if row.len() != schema.len() {
                    return Err(format!(
                        "relation {} row {} has {} columns, atom arity is {}",
                        atom.name,
                        i + 1,
                        row.len(),
                        schema.len()
                    ));
                }
                if row.contains(&u64::MAX) {
                    return Err(format!(
                        "relation {} row {} uses u64::MAX (reserved dummy sentinel)",
                        atom.name,
                        i + 1
                    ));
                }
            }
            db.insert(atom.name.clone(), Relation::from_rows(schema, rows));
            if !seen.contains(&atom.vars) {
                seen.push(atom.vars);
                cards.push(DegreeConstraint::cardinality(atom.vars, self.n));
            }
        }
        Ok((cq, db, DcSet::from_vec(cards)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_case() -> Case {
        Case {
            seed: 1,
            n: 4,
            query: "Q(a, c) :- R0(a, b), R1(b, c)".to_string(),
            rels: vec![
                ("R0".to_string(), vec![vec![0, 1], vec![2, 1]]),
                ("R1".to_string(), vec![vec![1, 5]]),
            ],
            options: EngineOptions::baseline(),
        }
    }

    #[test]
    fn materialize_builds_query_instance_and_constraints() {
        let (cq, db, dc) = triangle_case().materialize().unwrap();
        assert_eq!(cq.atoms.len(), 2);
        assert_eq!(db.get("R0").unwrap().len(), 2);
        assert_eq!(db.get("R1").unwrap().len(), 1);
        for atom in &cq.atoms {
            assert_eq!(dc.cardinality_of(atom.vars), Some(4));
        }
    }

    #[test]
    fn malformed_cases_error_instead_of_panicking() {
        let mut missing = triangle_case();
        missing.rels.pop();
        assert!(missing.materialize().unwrap_err().contains("no rows"));

        let mut over = triangle_case();
        over.n = 1;
        assert!(over
            .materialize()
            .unwrap_err()
            .contains("over the declared bound"));

        let mut arity = triangle_case();
        arity.rels[0].1[0].push(9);
        assert!(arity.materialize().unwrap_err().contains("columns"));

        let mut reserved = triangle_case();
        reserved.rels[1].1[0][0] = u64::MAX;
        assert!(reserved.materialize().unwrap_err().contains("reserved"));

        let mut bad_query = triangle_case();
        bad_query.query = "Q(a :-".to_string();
        assert!(bad_query
            .materialize()
            .unwrap_err()
            .contains("does not parse"));
    }
}
