//! The RAM reference: semi-naive fixpoint evaluation over an abstract
//! semiring algebra, instantiated twice — with `u64` semiring values
//! (the differ's ground truth) and with [`ProvCircuit`] node ids (the
//! provenance output mode).
//!
//! The iteration scheme here is *the same scheme* [`crate::compile`]
//! unrolls into circuit gates: round 0 fires the non-recursive rules;
//! round `r ≥ 1` fires one delta instance per (recursive rule, IDB body
//! position), reading the previous round's delta at that position and
//! the accumulated relations elsewhere; contributions are `⊕`-merged
//! per head. Keeping the schemes identical is what makes the circuit
//! bit-comparable to this reference.

use std::collections::BTreeMap;

use crate::program::DatalogProgram;
use crate::DatalogError;
use qec_circuit::{ProvCircuit, ProvId};
use qec_query::{ProgramAtom, ProgramRule};
use qec_relation::{Database, Relation};

type Key = Vec<u64>;
type Rel<V> = BTreeMap<Key, V>;

/// A semiring-like algebra the evaluator folds derivations through.
/// `⊕` has no explicit zero — an absent tuple is the zero.
pub(crate) trait Algebra {
    /// Tuple annotation values.
    type V: Clone + Eq;
    /// The value of one stored tuple (`weight` for annotated EDBs).
    fn leaf(&mut self, rel: &str, key: &[u64], weight: Option<u64>) -> Self::V;
    /// The `⊗`-identity (value of an unannotated body atom).
    fn one(&mut self) -> Self::V;
    /// `a ⊕ b`.
    fn plus(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// `a ⊗ b`.
    fn times(&mut self, a: Self::V, b: Self::V) -> Self::V;
}

struct U64Algebra(qec_core::Semiring);

impl Algebra for U64Algebra {
    type V = u64;
    fn leaf(&mut self, _rel: &str, _key: &[u64], weight: Option<u64>) -> u64 {
        weight.unwrap_or_else(|| self.0.one())
    }
    fn one(&mut self) -> u64 {
        self.0.one()
    }
    fn plus(&mut self, a: u64, b: u64) -> u64 {
        self.0.plus(a, b)
    }
    fn times(&mut self, a: u64, b: u64) -> u64 {
        self.0.times(a, b)
    }
}

struct ProvAlgebra {
    pc: ProvCircuit,
    /// Leaf id → (predicate, key tuple, stored weight).
    leaves: Vec<(String, Key, Option<u64>)>,
}

impl Algebra for ProvAlgebra {
    type V = ProvId;
    fn leaf(&mut self, rel: &str, key: &[u64], weight: Option<u64>) -> ProvId {
        let id = self.leaves.len() as u32;
        self.leaves.push((rel.to_string(), key.to_vec(), weight));
        self.pc.leaf(id)
    }
    fn one(&mut self) -> ProvId {
        self.pc.one()
    }
    fn plus(&mut self, a: ProvId, b: ProvId) -> ProvId {
        self.pc.plus([a, b])
    }
    fn times(&mut self, a: ProvId, b: ProvId) -> ProvId {
        self.pc.times([a, b])
    }
}

/// Builds a [`Database`] over the program's canonical EDB schemas (keys
/// `Var(0..arity)`, plus [`ANNOT`](crate::ANNOT) for annotated predicates) from plain
/// row lists. Rows for predicates the program never reads are ignored.
pub fn database(
    dp: &DatalogProgram,
    rels: &[(&str, Vec<Vec<u64>>)],
) -> Result<Database, DatalogError> {
    let mut db = Database::new();
    for p in dp.edbs() {
        let rows = rels
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, r)| r.clone())
            .ok_or_else(|| DatalogError::MissingRelation(p.name.clone()))?;
        let width = p.arity + usize::from(p.annotated);
        for row in &rows {
            if row.len() != width {
                return Err(DatalogError::SchemaMismatch {
                    name: p.name.clone(),
                    expected: p.schema().to_vec(),
                });
            }
            // ∞ (u64::MAX) is the circuit layer's dummy-slot sentinel;
            // a stored weight of ∞ means "absent" and must be expressed
            // by leaving the tuple out.
            if p.annotated && row[p.arity] == u64::MAX {
                return Err(DatalogError::BadValue {
                    name: p.name.clone(),
                    value: u64::MAX,
                });
            }
        }
        db.insert(
            p.name.clone(),
            Relation::from_rows(p.schema().to_vec(), rows),
        );
    }
    Ok(db)
}

/// Loads the EDB maps (key → leaf value), `⊕`-merging duplicate keys of
/// annotated relations.
fn load_edbs<A: Algebra>(
    dp: &DatalogProgram,
    db: &Database,
    alg: &mut A,
) -> Result<BTreeMap<String, Rel<A::V>>, DatalogError> {
    let mut out = BTreeMap::new();
    for p in dp.edbs() {
        let r = db
            .get(&p.name)
            .ok_or_else(|| DatalogError::MissingRelation(p.name.clone()))?;
        if r.vars() != p.schema() {
            return Err(DatalogError::SchemaMismatch {
                name: p.name.clone(),
                expected: p.schema().to_vec(),
            });
        }
        let mut m: Rel<A::V> = BTreeMap::new();
        for row in r.iter() {
            let key: Key = row[..p.arity].to_vec();
            let v = alg.leaf(&p.name, &key, p.annotated.then(|| row[p.arity]));
            match m.remove(&key) {
                None => {
                    m.insert(key, v);
                }
                Some(prev) => {
                    let merged = alg.plus(prev, v);
                    m.insert(key, merged);
                }
            }
        }
        out.insert(p.name.clone(), m);
    }
    Ok(out)
}

/// One rule instance: a backtracking join over the body atoms (each
/// bound to `sources[j]`), `⊗`-folding tuple values left to right and
/// `⊕`-merging per head key into `out`.
fn eval_rule<A: Algebra>(
    rule: &ProgramRule,
    sources: &[&Rel<A::V>],
    alg: &mut A,
    out: &mut Rel<A::V>,
) {
    #[allow(clippy::too_many_arguments)] // the full join state: body cursor + env + fold acc + sink
    fn rec<A: Algebra>(
        body: &[ProgramAtom],
        sources: &[&Rel<A::V>],
        j: usize,
        env: &mut Vec<(String, u64)>,
        acc: A::V,
        alg: &mut A,
        head: &ProgramAtom,
        out: &mut Rel<A::V>,
    ) {
        if j == body.len() {
            let key: Key = head
                .vars
                .iter()
                .map(|v| {
                    env.iter()
                        .find(|(n, _)| n == v)
                        .expect("range-restricted head var")
                        .1
                })
                .collect();
            let v = match out.remove(&key) {
                None => acc,
                Some(prev) => alg.plus(prev, acc),
            };
            out.insert(key, v);
            return;
        }
        let atom = &body[j];
        for (key, tv) in sources[j] {
            let mark = env.len();
            let mut ok = true;
            for (name, &val) in atom.vars.iter().zip(key.iter()) {
                match env.iter().find(|(n, _)| n == name) {
                    Some((_, bound)) if *bound != val => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => env.push((name.clone(), val)),
                }
            }
            if ok {
                let acc2 = alg.times(acc.clone(), tv.clone());
                rec(body, sources, j + 1, env, acc2, alg, head, out);
            }
            env.truncate(mark);
        }
    }
    let one = alg.one();
    let mut env = Vec::new();
    rec(&rule.body, sources, 0, &mut env, one, alg, &rule.head, out);
}

struct Fixpoint<V> {
    cur: BTreeMap<String, Rel<V>>,
    converged_at: Option<usize>,
}

/// Runs round 0 plus `rounds` delta rounds; see the module docs for the
/// scheme.
fn run<A: Algebra>(
    dp: &DatalogProgram,
    edb: &BTreeMap<String, Rel<A::V>>,
    rounds: usize,
    alg: &mut A,
) -> Fixpoint<A::V> {
    let is_rec = |r: &ProgramRule| r.body.iter().any(|a| dp.is_idb(&a.name));
    let empty: Rel<A::V> = BTreeMap::new();

    // Round 0: non-recursive rules only.
    let mut cur: BTreeMap<String, Rel<A::V>> = dp
        .preds
        .iter()
        .filter(|p| p.is_idb)
        .map(|p| (p.name.clone(), BTreeMap::new()))
        .collect();
    for rule in dp.program.rules.iter().filter(|r| !is_rec(r)) {
        let sources: Vec<&Rel<A::V>> = rule
            .body
            .iter()
            .map(|a| edb.get(&a.name).expect("edb loaded"))
            .collect();
        let out = cur.get_mut(&rule.head.name).expect("idb head");
        eval_rule(rule, &sources, alg, out);
    }
    let mut delta: BTreeMap<String, Rel<A::V>> = cur.clone();
    let mut converged_at = None;

    for round in 1..=rounds {
        // Contributions of this round, ⊕-merged per head predicate.
        let mut contrib: BTreeMap<String, Rel<A::V>> = BTreeMap::new();
        for rule in dp.program.rules.iter().filter(|r| is_rec(r)) {
            let idb_positions: Vec<usize> = (0..rule.body.len())
                .filter(|&j| dp.is_idb(&rule.body[j].name))
                .collect();
            for &jd in &idb_positions {
                if delta.get(&rule.body[jd].name).is_none_or(Rel::is_empty) {
                    continue;
                }
                let sources: Vec<&Rel<A::V>> = rule
                    .body
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if j == jd {
                            &delta[&a.name]
                        } else if dp.is_idb(&a.name) {
                            &cur[&a.name]
                        } else {
                            &edb[&a.name]
                        }
                    })
                    .collect();
                let out = contrib.entry(rule.head.name.clone()).or_default();
                eval_rule(rule, &sources, alg, out);
            }
        }
        // Merge into cur; the merged contributions become the new delta.
        let mut changed = false;
        for (pred, rel) in cur.iter_mut() {
            let c = contrib.get(pred).unwrap_or(&empty);
            for (key, v) in c {
                let merged = match rel.remove(key) {
                    None => {
                        changed = true;
                        v.clone()
                    }
                    Some(prev) => {
                        let m = alg.plus(prev.clone(), v.clone());
                        changed |= m != prev;
                        m
                    }
                };
                rel.insert(key.clone(), merged);
            }
        }
        delta = contrib;
        if !changed && converged_at.is_none() {
            converged_at = Some(round);
        }
    }
    Fixpoint { cur, converged_at }
}

/// A fixpoint computed on RAM relations with concrete semiring values.
#[derive(Clone, Debug)]
pub struct FixpointResult {
    /// Output-predicate tuples (key → annotation; annotation is
    /// `one()` for Boolean programs).
    pub tuples: BTreeMap<Vec<u64>, u64>,
    /// Every IDB's fixpoint relation.
    pub all: BTreeMap<String, BTreeMap<Vec<u64>, u64>>,
    /// First delta round after which nothing changed, if any round
    /// stabilized within the bound.
    pub converged_at: Option<usize>,
}

/// Reference semi-naive evaluation: round 0 plus `rounds` delta rounds
/// over `dp.semiring` — the scheme [`crate::compile`] unrolls, so the
/// two agree tuple-for-tuple at equal `rounds`.
pub fn seminaive(
    dp: &DatalogProgram,
    db: &Database,
    rounds: usize,
) -> Result<FixpointResult, DatalogError> {
    let mut alg = U64Algebra(dp.semiring);
    let edb = load_edbs(dp, db, &mut alg)?;
    let fx = run(dp, &edb, rounds, &mut alg);
    Ok(FixpointResult {
        tuples: fx.cur[&dp.output].clone(),
        all: fx.cur,
        converged_at: fx.converged_at,
    })
}

/// Renders the output predicate of a [`FixpointResult`] as a
/// canonical-schema [`Relation`] (the exact shape the compiled
/// circuit's output decodes to).
pub fn result_relation(dp: &DatalogProgram, fr: &FixpointResult) -> Relation {
    let p = dp.pred(&dp.output).expect("output is a predicate");
    let rows: Vec<Vec<u64>> = fr
        .tuples
        .iter()
        .map(|(k, &v)| {
            let mut row = k.clone();
            if p.annotated {
                row.push(v);
            }
            row
        })
        .collect();
    Relation::from_rows(p.schema().to_vec(), rows)
}

/// A fixpoint computed in the free semiring: every output tuple's
/// derivation polynomial as a node of a hash-consed DAG.
#[derive(Clone, Debug)]
pub struct ProvResult {
    /// The provenance DAG.
    pub circuit: ProvCircuit,
    /// Output-predicate tuples and their polynomial roots.
    pub outputs: BTreeMap<Vec<u64>, ProvId>,
    /// Leaf id → (predicate, key, stored weight).
    pub leaves: Vec<(String, Vec<u64>, Option<u64>)>,
}

/// Provenance extraction: the same bounded fixpoint, evaluated in the
/// free semiring over tuple leaves. Hash-consing collapses
/// re-derivations, so converged iterations add no nodes; `⊕`-dedup is
/// sound because the supported semirings are idempotent.
pub fn provenance(
    dp: &DatalogProgram,
    db: &Database,
    rounds: usize,
) -> Result<ProvResult, DatalogError> {
    let mut alg = ProvAlgebra {
        pc: ProvCircuit::new(),
        leaves: Vec::new(),
    };
    let edb = load_edbs(dp, db, &mut alg)?;
    let fx = run(dp, &edb, rounds, &mut alg);
    Ok(ProvResult {
        outputs: fx.cur[&dp.output].clone(),
        circuit: alg.pc,
        leaves: alg.leaves,
    })
}

/// Evaluates a [`ProvResult`] under the program's concrete semiring
/// (leaves take their stored weights). Must reproduce
/// [`seminaive`]'s annotations — the validation hook the tests and the
/// differ use.
pub fn eval_provenance(dp: &DatalogProgram, pr: &ProvResult) -> BTreeMap<Vec<u64>, u64> {
    let sr = dp.semiring;
    let vals = pr.circuit.eval(
        sr.zero(),
        sr.one(),
        |a, b| sr.plus(a, b),
        |a, b| sr.times(a, b),
        |leaf| pr.leaves[leaf as usize].2.unwrap_or_else(|| sr.one()),
    );
    pr.outputs
        .iter()
        .map(|(k, &id)| (k.clone(), vals[id as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn diamond() -> Vec<Vec<u64>> {
        // 0→1→3, 0→2→3, 3→0 (a cycle through a diamond)
        vec![vec![0, 1], vec![1, 3], vec![0, 2], vec![2, 3], vec![3, 0]]
    }

    #[test]
    fn boolean_tc_reaches_everything_on_a_cycle() {
        let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
        let db = database(&dp, &[("edge", diamond())]).unwrap();
        let fr = seminaive(&dp, &db, 6).unwrap();
        // every node on the 0→{1,2}→3→0 cycle reaches every node
        for a in [0u64, 1, 2, 3] {
            for b in [0u64, 1, 2, 3] {
                assert!(fr.tuples.contains_key(&vec![a, b]), "path({a},{b}) missing");
            }
        }
        assert!(fr.converged_at.is_some());
    }

    #[test]
    fn tropical_shortest_paths_match_by_hand() {
        let dp = DatalogProgram::parse(workloads::SHORTEST_PATH).unwrap();
        // 0→1 (1), 1→2 (1), 0→2 (5): the two-hop route wins
        let edges = vec![vec![0, 1, 1], vec![1, 2, 1], vec![0, 2, 5]];
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let fr = seminaive(&dp, &db, 4).unwrap();
        assert_eq!(fr.tuples[&vec![0, 2]], 2, "min(5, 1+1)");
        assert_eq!(fr.tuples[&vec![0, 1]], 1);
        assert_eq!(fr.tuples[&vec![1, 2]], 1);
    }

    #[test]
    fn provenance_evaluates_back_to_the_reference() {
        let dp = DatalogProgram::parse(workloads::SHORTEST_PATH).unwrap();
        let edges = workloads::random_weighted_edges(6, 12, 7, 0xfeed);
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let fr = seminaive(&dp, &db, 6).unwrap();
        let pr = provenance(&dp, &db, 6).unwrap();
        assert_eq!(eval_provenance(&dp, &pr), fr.tuples);
        let roots: Vec<ProvId> = pr.outputs.values().copied().collect();
        assert!(pr.circuit.dag_size(&roots) >= roots.len());
    }

    #[test]
    fn bounded_rounds_cut_the_fixpoint_short() {
        let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
        // a 5-chain needs 4 hops; 1 delta round only finds 2-hop paths
        let chain = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]];
        let db = database(&dp, &[("edge", chain)]).unwrap();
        let short = seminaive(&dp, &db, 1).unwrap();
        assert!(!short.tuples.contains_key(&vec![0u64, 4]));
        assert!(short.converged_at.is_none());
        let full = seminaive(&dp, &db, 4).unwrap();
        assert!(full.tuples.contains_key(&vec![0u64, 4]));
    }
}
