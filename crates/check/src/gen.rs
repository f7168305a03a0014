//! Seeded random workload generator.
//!
//! Emits small conjunctive queries with matching random instances. The
//! sampling ranges are deliberately tiny: the naive plan's intermediate
//! capacities grow like `n^{atoms}` and every case is compiled through
//! a 4-point engine-option matrix, so holding `n ≤ 3` and `atoms ≤ 3`
//! keeps a 2000-case CI sweep in the low minutes while still covering
//! cyclic/acyclic shapes, projections, Boolean queries, empty
//! relations, and dangling tuples.

use crate::case::{Case, EngineOptions};
use crate::rng::Rng;

const VAR_NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Generates the differential case for `seed`. Deterministic: the same
/// seed always yields byte-identical query text and rows.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    let num_vars = 2 + rng.below(3) as usize; // 2..=4 variables
    let num_atoms = if rng.chance(1, 4) { 3 } else { 2 }; // mostly 2 atoms

    // Every variable must occur in some atom (else the query is
    // malformed); start from a round-robin coverage assignment and pad
    // with random extras up to arity 3.
    let mut atoms: Vec<Vec<usize>> = vec![Vec::new(); num_atoms];
    for v in 0..num_vars {
        atoms[v % num_atoms].push(v);
    }
    for atom in &mut atoms {
        let target = 1 + rng.below(2) as usize; // aim for arity 1..=2
        while atom.len() < target {
            let v = rng.below(num_vars as u64) as usize;
            if !atom.contains(&v) {
                atom.push(v);
            } else if atom.len() >= num_vars {
                break;
            }
        }
        atom.sort_unstable();
    }

    // Free variables: each covered variable with probability 1/2. An
    // empty head is a Boolean query — a corner worth fuzzing — but keep
    // it rare so most cases exercise real output decoding.
    let mut free: Vec<usize> = (0..num_vars).filter(|_| rng.chance(1, 2)).collect();
    if free.is_empty() && rng.chance(3, 4) {
        free.push(rng.below(num_vars as u64) as usize);
    }

    let head = free
        .iter()
        .map(|&v| VAR_NAMES[v])
        .collect::<Vec<_>>()
        .join(", ");
    let body = atoms
        .iter()
        .enumerate()
        .map(|(i, vars)| {
            let args = vars
                .iter()
                .map(|&v| VAR_NAMES[v])
                .collect::<Vec<_>>()
                .join(", ");
            format!("R{i}({args})")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let query = format!("Q({head}) :- {body}");

    // The parser renumbers variables (head first, then body order of
    // first occurrence), so sample rows *after* fixing the text; column
    // semantics are uniform-random either way.
    let n = 2 + rng.below(2); // capacity bound 2..=3
    let rels = atoms
        .iter()
        .enumerate()
        .map(|(i, vars)| {
            let arity = vars.len();
            let domain = 2 + rng.below(4); // value domain 2..=5
            let row_count = rng.below(n + 1);
            let rows = (0..row_count)
                .map(|_| (0..arity).map(|_| rng.below(domain)).collect())
                .collect();
            (format!("R{i}"), rows)
        })
        .collect();

    let options = EngineOptions {
        optimize: rng.chance(1, 2),
        traced: rng.chance(1, 4),
    };

    Case {
        seed,
        n,
        query,
        rels,
        options,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_deterministic_and_materializable() {
        for seed in 0..200 {
            let a = gen_case(seed);
            let b = gen_case(seed);
            assert_eq!(a.query, b.query, "seed {seed}");
            assert_eq!(a.rels, b.rels, "seed {seed}");
            let (cq, db, dc) = a
                .materialize()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!cq.atoms.is_empty());
            for atom in &cq.atoms {
                assert!(db.get(&atom.name).is_some(), "seed {seed}");
                assert_eq!(dc.cardinality_of(atom.vars), Some(a.n), "seed {seed}");
            }
        }
    }

    #[test]
    fn generator_covers_the_interesting_corners() {
        let mut boolean = 0;
        let mut empty_rel = 0;
        let mut cyclic = 0;
        for seed in 0..500 {
            let c = gen_case(seed);
            let (cq, _, _) = c.materialize().unwrap();
            if cq.free.is_empty() {
                boolean += 1;
            }
            if c.rels.iter().any(|(_, rows)| rows.is_empty()) {
                empty_rel += 1;
            }
            if !cq.hypergraph().is_acyclic() {
                cyclic += 1;
            }
        }
        assert!(boolean > 0, "no Boolean queries sampled");
        assert!(empty_rel > 0, "no empty relations sampled");
        assert!(cyclic > 0, "no cyclic queries sampled");
    }
}
