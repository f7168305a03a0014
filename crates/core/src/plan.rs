//! The planner: one entry point that chooses the construction a
//! conjunctive query is compiled with.
//!
//! Two candidates are built for every query, both over the query's full
//! body:
//!
//! * the classical circuit ([`naive_circuit`](crate::naive_circuit)),
//!   whose join is sized for the cross product, `O(N^m)`;
//! * PANDA-C ([`compile_fcq`](crate::compile_fcq)), sized for the
//!   polymatroid bound (Thm 3). With cardinality constraints only that
//!   is the AGM bound.
//!
//! Building either is cheap: a few relational nodes and no gates. The
//! planner keeps PANDA-C only when its output node's capacity is
//! strictly below the classical join's, and keeps the classical circuit
//! on a tie. The output capacity is what the lowered circuit's sorts and
//! joins are sized by, so it ranks the two by the gates they lower to.
//! The paper's asymptotic cost ([`paper_cost`](crate::paper_cost)) does
//! not: its log factors misrank the two at small `N`. A non-full query
//! is then projected onto its head, as the classical circuit does.
//!
//! PANDA-C is a candidate only for queries of at most
//! [`MAX_PANDA_C_VARS`] variables; wider queries keep the classical
//! circuit without building PANDA-C.

use qec_query::Cq;
use qec_relation::DcSet;

use crate::naive::classical_join;
use crate::panda::{compile_body, CompileError};
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
    /// The classical circuit: the atoms joined left to right, sized for
    /// the cross product.
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
/// output, and the construction it came from.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The relational circuit; `rc.outputs == [output]`.
    pub rc: RelationalCircuit,
    /// The output node: the query's answer, projected onto its head.
    pub output: NodeId,
    /// Which candidate was kept.
    pub construction: Construction,
}

/// Plans `cq` under `dc`: builds both candidates and keeps PANDA-C only
/// when its output capacity is strictly below the classical join's (see
/// the module docs). A query over more than [`MAX_PANDA_C_VARS`]
/// variables has the classical circuit as its one candidate. Every atom
/// must carry a cardinality constraint in `dc`. A PANDA-C failure is
/// returned as it is, never replaced by the classical circuit.
///
/// ```
/// use qec_core::{plan, Construction};
/// use qec_query::parse_cq;
/// use qec_relation::{DcSet, DegreeConstraint};
///
/// let dc = |q: &qec_query::Cq| {
///     DcSet::from_vec(q.atoms.iter().map(|a| DegreeConstraint::cardinality(a.vars, 8)).collect())
/// };
/// // The triangle's AGM bound N^{3/2} beats the cross product N^3.
/// let q = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").unwrap();
/// assert_eq!(plan(&q, &dc(&q)).unwrap().construction, Construction::PandaC);
/// // The 2-path's bound is N^2 either way: a tie keeps the classical circuit.
/// let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)").unwrap();
/// assert_eq!(plan(&q, &dc(&q)).unwrap().construction, Construction::Classical);
/// ```
pub fn plan(cq: &Cq, dc: &DcSet) -> Result<Plan, CompileError> {
    let (classical, join) = classical_join(cq, dc)?;
    let panda = if cq.num_vars() <= MAX_PANDA_C_VARS {
        Some(compile_body(cq, dc)?)
    } else {
        None
    };
    let (mut rc, body, construction) = match panda {
        Some(p) if p.rc.nodes[p.output].capacity < classical.nodes[join].capacity => {
            (p.rc, p.output, Construction::PandaC)
        }
        _ => (classical, join, Construction::Classical),
    };
    let output = if cq.is_full() {
        body
    } else {
        rc.project(body, cq.free)
    };
    rc.mark_output(output);
    Ok(Plan {
        rc,
        output,
        construction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_fcq, naive_circuit};
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

    #[test]
    fn panda_c_is_kept_exactly_where_its_output_capacity_is_smaller_and_never_costs_gates() {
        let mut kept = [0usize; 2];
        for text in CORPUS {
            let q = parse_cq(text).unwrap();
            for n in [2u64, 3, 4, 8] {
                let dc = cardinalities(&q, n);
                let planned = plan(&q, &dc).unwrap();
                // Both capacities, read off the two candidates as their
                // own entry points build them.
                let full = q.to_full();
                let panda = compile_fcq(&full, &dc).unwrap();
                let (classical_full, join) = naive_circuit(&full, &dc).unwrap();
                let smaller =
                    panda.rc.nodes[panda.output].capacity < classical_full.nodes[join].capacity;
                let want = if smaller {
                    Construction::PandaC
                } else {
                    Construction::Classical
                };
                assert_eq!(planned.construction, want, "{text} at N={n}");
                assert_eq!(planned.rc.outputs, vec![planned.output]);
                assert_eq!(planned.rc.nodes[planned.output].schema, q.free);
                kept[(planned.construction == Construction::PandaC) as usize] += 1;

                let (classical, _) = naive_circuit(&q, &dc).unwrap();
                let classical_gates = classical.lower().circuit.size();
                let planned_gates = match planned.construction {
                    Construction::Classical => classical_gates,
                    Construction::PandaC => planned.rc.lower().circuit.size(),
                };
                assert!(
                    planned_gates <= classical_gates,
                    "{text} at N={n}: planned {planned_gates} word gates, \
                     classical {classical_gates}"
                );
            }
        }
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
