//! The planner: one entry point that chooses the construction a
//! conjunctive query is compiled with.
//!
//! Two candidates are built for every query, both over the query's full
//! body and then projected onto its head:
//!
//! * the classical circuit ([`naive_circuit`](crate::naive_circuit)),
//!   the atoms' key-filtered cross product, `O(N^m)` slots and no sort;
//! * PANDA-C ([`compile_fcq`](crate::compile_fcq)), sized for the
//!   polymatroid bound (Thm 3). With cardinality constraints only that
//!   is the AGM bound.
//!
//! Building either is cheap: a few relational nodes and no gates. The
//! planner keeps the candidate with the smaller
//! [`predicted_gates`](crate::predicted_gates), the word-gate count its
//! lowering is predicted to emit, read off node capacities without
//! lowering anything; a tie keeps the classical circuit. Output
//! capacity does not rank the two: the classical circuit's wide join
//! costs a few gates a slot, while PANDA-C's narrower wires are sorted,
//! at `≈ log² K` comparators a slot. The paper's asymptotic cost
//! ([`paper_cost`](crate::paper_cost)) misranks them at small `N` too.
//!
//! PANDA-C is a candidate only for queries of at most
//! [`MAX_PANDA_C_VARS`] variables; wider queries keep the classical
//! circuit without building PANDA-C.

use qec_query::Cq;
use qec_relation::DcSet;

use crate::naive::classical_join;
use crate::panda::{compile_body, CompileError};
use crate::predicted_gates;
use crate::rc::{NodeId, RelationalCircuit};

/// The most variables a query may have for PANDA-C to be a candidate.
///
/// PANDA-C's bound is an exact-rational LP over all `2^n - 1` variable
/// subsets. On the path, cycle and star at `N = 8` it solves in
/// 3–4 ms at 5 variables and 21–91 ms at 6, and had not finished after
/// 200 s at 7 (2-vCPU host). Past
/// [`MAX_BOUND_VARS`](qec_entropy::MAX_BOUND_VARS) variables the LP does
/// not run at all and returns a typed error. A wider query is planned
/// classically from its variable count.
pub const MAX_PANDA_C_VARS: u32 = 6;

/// The construction a [`Plan`]'s circuit comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Construction {
    /// The classical circuit: the atoms' key-filtered cross product.
    Classical,
    /// PANDA-C over the query's full body.
    PandaC,
}

impl Construction {
    /// A short stable name (`classical`, `panda_c`), used in counter
    /// names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Construction::Classical => "classical",
            Construction::PandaC => "panda_c",
        }
    }
}

/// A planned query: the chosen relational circuit, its one marked
/// output, the construction it came from and the word gates its
/// lowering is predicted to emit.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The relational circuit; `rc.outputs == [output]`.
    pub rc: RelationalCircuit,
    /// The output node: the query's answer, projected onto its head.
    pub output: NodeId,
    /// Which candidate was kept.
    pub construction: Construction,
    /// [`predicted_gates`](crate::predicted_gates) of `rc`.
    pub predicted_gates: u64,
}

/// Plans `cq` under `dc`: builds both candidates and keeps the one with
/// fewer predicted word gates, the classical circuit on a tie (see the
/// module docs). A query over more than [`MAX_PANDA_C_VARS`] variables
/// has the classical circuit as its one candidate. Every atom must carry
/// a cardinality constraint in `dc`. A PANDA-C failure is returned as it
/// is, never replaced by the classical circuit.
///
/// ```
/// use qec_core::{plan, Construction};
/// use qec_query::parse_cq;
/// use qec_relation::{DcSet, DegreeConstraint};
///
/// let dc = |q: &qec_query::Cq, n| {
///     DcSet::from_vec(q.atoms.iter().map(|a| DegreeConstraint::cardinality(a.vars, n)).collect())
/// };
/// // At N = 8 the triangle's cross product (512 slots, no sort) is
/// // smaller than PANDA-C's sorted N^{3/2} wires.
/// let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").unwrap();
/// assert_eq!(plan(&q, &dc(&q, 8)).unwrap().construction, Construction::Classical);
/// // The 3-path projected onto its ends: PANDA-C sorts N^2 slots where
/// // the classical circuit sorts N^3.
/// let q = parse_cq("Q(a, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
/// assert_eq!(plan(&q, &dc(&q, 8)).unwrap().construction, Construction::PandaC);
/// ```
pub fn plan(cq: &Cq, dc: &DcSet) -> Result<Plan, CompileError> {
    // `min_by_key` keeps the first of equal minima: the classical circuit
    Ok(candidates(cq, dc)?
        .into_iter()
        .min_by_key(|p| p.predicted_gates)
        .expect("the classical circuit is always a candidate"))
}

/// The planner's candidates for `cq`, classical first, each projected
/// onto the head with its output marked and its prediction filled in.
fn candidates(cq: &Cq, dc: &DcSet) -> Result<Vec<Plan>, CompileError> {
    let mut out = vec![finish(classical_join(cq, dc)?, cq, Construction::Classical)];
    if cq.num_vars() <= MAX_PANDA_C_VARS {
        let p = compile_body(cq, dc)?;
        out.push(finish((p.rc, p.output), cq, Construction::PandaC));
    }
    Ok(out)
}

/// Projects a candidate's body onto the head and marks the output.
fn finish(
    (mut rc, body): (RelationalCircuit, NodeId),
    cq: &Cq,
    construction: Construction,
) -> Plan {
    let output = if cq.is_full() {
        body
    } else {
        rc.project(body, cq.free)
    };
    rc.mark_output(output);
    Plan {
        predicted_gates: predicted_gates(&rc),
        rc,
        output,
        construction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::{baseline::evaluate_pairwise, parse_cq};
    use qec_relation::{random_relation, random_relation_with_domain, Database, DegreeConstraint};

    /// The corpus the rule is pinned on: cyclic, acyclic, full and
    /// projected, a Cartesian product, atoms that nest, and a Boolean
    /// query.
    const CORPUS: [&str; 11] = [
        "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
        "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(a, d)",
        "Q(a, b, c) :- R(a, b), S(b, c)",
        "Q(a, c) :- R(a, b), S(b, c)",
        "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
        "Q(a, d) :- R(a, b), S(b, c), T(c, d)",
        "Q(a, b, c, d) :- R(a, b), S(a, c), T(a, d)",
        "Q(a, b) :- R(a), S(b)",
        "Q(a, b, c) :- R(a, b, c), S(b, c)",
        "Q(a, b) :- R(a, b), S(a, b)",
        "Q() :- R(a, b), S(b, c), T(a, c)",
    ];

    fn cardinalities(q: &Cq, n: u64) -> DcSet {
        DcSet::from_vec(
            q.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, n))
                .collect(),
        )
    }

    /// Boolean and projected paths and stars, which pay for a join they
    /// never output: the 2-path, the 3-path and the star.
    const PROBES: [&str; 5] = [
        "Q() :- R(a, b), S(b, c)",
        "Q(a) :- R(a, b), S(b, c)",
        "Q() :- R(a, b), S(b, c), T(c, d)",
        "Q() :- R(a, b), S(a, c), T(a, d)",
        "Q(a) :- R(a, b), S(a, c), T(a, d)",
    ];

    #[test]
    fn the_planner_keeps_the_candidate_that_lowers_to_fewer_word_gates() {
        let mut kept = [0usize; 2];
        let mut report = String::new();
        let mut wrong = Vec::new();
        for text in CORPUS.iter().chain(&PROBES) {
            let q = parse_cq(text).unwrap();
            for n in [2u64, 3, 4, 8] {
                let dc = cardinalities(&q, n);
                let planned = plan(&q, &dc).unwrap();
                assert_eq!(planned.rc.outputs, vec![planned.output]);
                assert_eq!(planned.rc.nodes[planned.output].schema, q.free);
                kept[(planned.construction == Construction::PandaC) as usize] += 1;
                let [classical, panda] = &candidates(&q, &dc).unwrap()[..] else {
                    panic!("{text}: two candidates");
                };
                let gates = |p: &Plan| p.rc.lower().circuit.size();
                let (gc, gp) = (gates(classical), gates(panda));
                let (kept_gates, other) = match planned.construction {
                    Construction::Classical => (gc, gp),
                    Construction::PandaC => (gp, gc),
                };
                report += &format!(
                    "{text} N={n}: classical {gc} (predicted {}), PANDA-C {gp} \
                     (predicted {}), kept {}\n",
                    classical.predicted_gates,
                    panda.predicted_gates,
                    planned.construction.name()
                );
                if kept_gates > other {
                    wrong.push(format!("{text} at N={n}"));
                }
            }
        }
        eprint!("{report}");
        assert!(wrong.is_empty(), "kept the larger circuit: {wrong:?}");
        assert!(
            kept[0] > 0 && kept[1] > 0,
            "both constructions chosen: {kept:?}"
        );
    }

    #[test]
    fn planned_circuits_answer_the_query() {
        for text in CORPUS {
            let q = parse_cq(text).unwrap();
            let planned = plan(&q, &cardinalities(&q, 8)).unwrap();
            for seed in 0..3 {
                let mut db = Database::new();
                for (i, a) in q.atoms.iter().enumerate() {
                    let rows = random_relation(a.vars.to_vec(), 6, seed * 17 + i as u64);
                    db.insert(a.name.clone(), rows);
                }
                let want = evaluate_pairwise(&q, &db).unwrap();
                assert_eq!(
                    planned.rc.evaluate_ram(&db).unwrap(),
                    vec![want.clone()],
                    "{text}, seed {seed}"
                );
                assert_eq!(
                    planned.rc.lower().run(&db).unwrap(),
                    vec![want],
                    "{text}, seed {seed} (lowered)"
                );
            }
        }
    }

    #[test]
    fn queries_past_the_variable_cap_are_planned_classically_and_answer() {
        // Seven variables (one past the cap) and seventeen (past what the
        // bound's LP accepts), at N = 2 so the classical joins stay small.
        let seven =
            "Q(a, b, c, d, e, f, g) :- R(a, b), S(b, c), T(c, d), U(d, e), V(e, f), W(f, g)";
        let seventeen = "Q(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q) \
                         :- R(a, b, c, d, e, f, g, h, i), S(i, j, k, l, m, n, o, p, q)";
        for text in [seven, seventeen] {
            let q = parse_cq(text).unwrap();
            assert!(q.num_vars() > MAX_PANDA_C_VARS);
            let planned = plan(&q, &cardinalities(&q, 2)).unwrap();
            assert_eq!(planned.construction, Construction::Classical, "{text}");
            let lowered = planned.rc.lower();
            let mut answered = 0;
            for seed in 0..8 {
                let mut db = Database::new();
                for (i, a) in q.atoms.iter().enumerate() {
                    let rows =
                        random_relation_with_domain(a.vars.to_vec(), 2, 2, seed * 17 + i as u64);
                    db.insert(a.name.clone(), rows);
                }
                let want = evaluate_pairwise(&q, &db).unwrap();
                answered += !want.is_empty() as usize;
                assert_eq!(lowered.run(&db).unwrap(), vec![want], "{text}, seed {seed}");
            }
            assert!(answered > 0, "{text}: every seed's answer is empty");
        }
    }
}
