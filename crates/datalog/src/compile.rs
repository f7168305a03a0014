//! Bounded-fixpoint compilation: unrolls the semi-naive scheme of
//! [`crate::seminaive`] into a [`RelationalCircuit`], one operator-gate
//! subgraph per (round, rule, delta position) instance.
//!
//! Everything is expressed with the existing relational gates, so the
//! word-level lowering — and crucially its online hash-consing — sees
//! the unrolled rounds as ordinary circuitry and collapses the
//! cross-iteration redundancy (converged rounds re-derive identical
//! subcircuits). X24 measures that collapse by lowering the same
//! circuit with and without consing.
//!
//! Capacity discipline: over a domain of size `d`, an IDB of arity `k`
//! is capped at `d^k` slots (the trivial output bound), and every join
//! is a [`RelationalCircuit::join_degree`] with
//! `deg = d^{#fresh key vars}`, capped at the joined atom's capacity,
//! where the join lowers as the key-filtered cross product — sound
//! because stored relations are
//! key-distinct (annotations are functionally determined by keys; the
//! compiler normalizes annotated EDB inputs with a `⊕`-aggregation on
//! entry to make that hold for arbitrary inputs).

use std::collections::BTreeMap;

use crate::program::{scratch, DatalogProgram};
use crate::DatalogError;
use qec_core::{NodeId, RelationalCircuit, Semiring};
use qec_query::ProgramRule;
use qec_relation::{Var, VarSet};

/// The canonical annotation column, shared with `qec-core`'s
/// annotated-query pipeline (`Var(62)`).
pub const ANNOT: Var = Var(62);

/// `qec-core`'s reserved aggregation scratch column (`Var(61)`).
const TMP: Var = Var(61);

/// Hard ceiling on any wire's slot capacity; circuits past this are
/// rejected with [`DatalogError::TooLarge`] before lowering.
pub const MAX_SLOTS: u64 = 1 << 13;

/// Sizing parameters for the bounded fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointBounds {
    /// Key values range over `0..domain`.
    pub domain: u64,
    /// Slot capacity of each EDB input relation.
    pub edb_rows: u64,
    /// Number of delta rounds unrolled after round 0. With
    /// `rounds = domain`, Boolean and min-tropical fixpoints are exact
    /// (every simple path fits in `domain` hops).
    pub rounds: usize,
}

impl FixpointBounds {
    /// `rounds = domain`: exact for Boolean / min-tropical programs.
    pub fn for_domain(domain: u64, edb_rows: u64) -> FixpointBounds {
        FixpointBounds {
            domain,
            edb_rows,
            rounds: domain as usize,
        }
    }
}

/// A compiled bounded fixpoint: the relational circuit plus the output
/// predicate's canonical schema.
#[derive(Clone, Debug)]
pub struct FixpointCircuit {
    /// The circuit; its single output is the output predicate after the
    /// last round.
    pub rc: RelationalCircuit,
    /// Canonical output schema (keys `Var(0..arity)`, plus [`ANNOT`]
    /// for annotated programs).
    pub schema: Vec<Var>,
    /// Delta rounds unrolled.
    pub rounds: usize,
}

fn pow_capped(d: u64, k: u32) -> u64 {
    d.checked_pow(k).unwrap_or(u64::MAX)
}

struct Compiler<'a> {
    dp: &'a DatalogProgram,
    rc: RelationalCircuit,
    sr: Semiring,
    d: u64,
}

impl Compiler<'_> {
    /// `⊕`-merges same-schema contribution nodes and caps the result at
    /// the predicate's trivial bound `d^arity`.
    fn combine(&mut self, nodes: &[NodeId], keys: VarSet, annotated: bool, cap: u64) -> NodeId {
        let mut u = nodes[0];
        for &n in &nodes[1..] {
            u = self.rc.union(u, n);
        }
        if annotated && nodes.len() > 1 {
            let agg = self.rc.aggregate(u, keys, self.sr.plus_agg(ANNOT), TMP);
            u = self.rc.rename(agg, &[(TMP, ANNOT)]);
        }
        if self.rc.nodes[u].capacity > cap {
            u = self.rc.truncate(u, cap);
        }
        u
    }

    /// Compiles one rule instance: body atoms renamed into rule-variable
    /// space, joined left to right under degree bounds, annotations
    /// `⊗`-folded, and the head `⊕`-aggregated back into canonical
    /// schema.
    fn rule_instance(&mut self, rule: &ProgramRule, sources: &[NodeId]) -> NodeId {
        // Rule variables → column indices, in order of first occurrence
        // (head variables occur in the body by range restriction).
        let mut order: Vec<&str> = Vec::new();
        for a in &rule.body {
            for v in &a.vars {
                if !order.iter().any(|x| x == v) {
                    order.push(v);
                }
            }
        }
        let idx =
            |n: &str| -> u32 { order.iter().position(|x| *x == n).expect("body-bound var") as u32 };

        // Rename each source into rule space; annotations go to
        // per-atom scratch columns.
        let mut ann_cols: Vec<Var> = Vec::new();
        let mut acc: Option<(NodeId, VarSet)> = None;
        for (j, atom) in rule.body.iter().enumerate() {
            let mut map: Vec<(Var, Var)> = atom
                .vars
                .iter()
                .enumerate()
                .map(|(c, v)| (Var(c as u32), Var(idx(v))))
                .collect();
            if self.dp.atom_annotated(atom) {
                map.push((ANNOT, scratch(j)));
                ann_cols.push(scratch(j));
            }
            let node = self.rc.rename(sources[j], &map);
            let keys: VarSet = atom.vars.iter().map(|v| Var(idx(v))).collect();
            acc = Some(match acc {
                None => (node, keys),
                Some((prev, prev_keys)) => {
                    let fresh = keys.minus(prev_keys).len();
                    let deg = pow_capped(self.d, fresh)
                        .min(self.rc.nodes[node].capacity)
                        .max(1);
                    let mut joined = self.rc.join_degree(prev, node, deg);
                    let all_keys = prev_keys.union(keys);
                    let bound = pow_capped(self.d, all_keys.len());
                    if self.rc.nodes[joined].capacity > bound {
                        joined = self.rc.truncate(joined, bound);
                    }
                    (joined, all_keys)
                }
            });
        }
        let (mut node, _) = acc.expect("non-empty body");

        // Head: canonical key columns, plus the ⊕-aggregated annotation.
        let head_map: Vec<(Var, Var)> = rule
            .head
            .vars
            .iter()
            .enumerate()
            .map(|(c, v)| (Var(idx(v)), Var(c as u32)))
            .collect();
        let head_keys: VarSet = head_map.iter().map(|&(from, _)| from).collect();
        let out = self.dp.pred(&rule.head.name).expect("idb head");
        if self.sr == Semiring::Boolean {
            node = self.rc.project(node, head_keys);
            node = self.rc.rename(node, &head_map);
        } else {
            if ann_cols.is_empty() {
                node = self.rc.attach_const(node, scratch(0), self.sr.one());
                ann_cols.push(scratch(0));
            }
            let ann = ann_cols[0];
            for &c in &ann_cols[1..] {
                node = self.rc.map_bin(node, ann, c, ann, self.sr.times_op());
            }
            node = self
                .rc
                .aggregate(node, head_keys, self.sr.plus_agg(ann), TMP);
            let mut map = head_map;
            map.push((TMP, ANNOT));
            node = self.rc.rename(node, &map);
        }
        let cap = pow_capped(self.d, out.arity as u32);
        if self.rc.nodes[node].capacity > cap {
            node = self.rc.truncate(node, cap);
        }
        node
    }
}

/// Compiles `dp` to a bounded-fixpoint circuit under `bounds`. The
/// circuit's one output is the output predicate's relation after the
/// last round, in canonical schema; evaluate it with
/// [`RelationalCircuit::evaluate_ram`] or lower it to a word circuit.
pub fn compile(
    dp: &DatalogProgram,
    bounds: &FixpointBounds,
) -> Result<FixpointCircuit, DatalogError> {
    assert!(bounds.domain >= 1 && bounds.edb_rows >= 1);
    let mut c = Compiler {
        dp,
        rc: RelationalCircuit::new(),
        sr: dp.semiring,
        d: bounds.domain,
    };
    let is_rec = |r: &ProgramRule| r.body.iter().any(|a| dp.is_idb(&a.name));

    // EDB inputs, ⊕-normalized to key-distinct form on entry.
    let mut edb: BTreeMap<&str, NodeId> = BTreeMap::new();
    for p in dp.edbs() {
        let mut n = c.rc.input(p.name.clone(), p.schema(), bounds.edb_rows);
        if p.annotated {
            let agg = c.rc.aggregate(n, p.keys(), c.sr.plus_agg(ANNOT), TMP);
            n = c.rc.rename(agg, &[(TMP, ANNOT)]);
        }
        edb.insert(&p.name, n);
    }

    // Round 0: non-recursive rules.
    let mut cur: BTreeMap<&str, NodeId> = BTreeMap::new();
    for p in dp.preds.iter().filter(|p| p.is_idb) {
        let contribs: Vec<NodeId> = dp
            .program
            .rules
            .iter()
            .filter(|r| r.head.name == p.name && !is_rec(r))
            .map(|r| {
                let sources: Vec<NodeId> = r.body.iter().map(|a| edb[a.name.as_str()]).collect();
                c.rule_instance(r, &sources)
            })
            .collect();
        debug_assert!(!contribs.is_empty(), "analyze enforces a base case");
        let cap = pow_capped(bounds.domain, p.arity as u32);
        let node = c.combine(&contribs, p.keys(), p.annotated, cap);
        cur.insert(&p.name, node);
    }
    let mut delta: BTreeMap<&str, Option<NodeId>> =
        cur.iter().map(|(&n, &id)| (n, Some(id))).collect();

    // Delta rounds.
    for _ in 0..bounds.rounds {
        let mut contrib: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for rule in dp.program.rules.iter().filter(|r| is_rec(r)) {
            for jd in (0..rule.body.len()).filter(|&j| dp.is_idb(&rule.body[j].name)) {
                let Some(dnode) = delta[rule.body[jd].name.as_str()] else {
                    continue;
                };
                let sources: Vec<NodeId> = rule
                    .body
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if j == jd {
                            dnode
                        } else if dp.is_idb(&a.name) {
                            cur[a.name.as_str()]
                        } else {
                            edb[a.name.as_str()]
                        }
                    })
                    .collect();
                let node = c.rule_instance(rule, &sources);
                contrib.entry(&rule.head.name).or_default().push(node);
            }
        }
        for p in dp.preds.iter().filter(|p| p.is_idb) {
            let cap = pow_capped(bounds.domain, p.arity as u32);
            match contrib.get(p.name.as_str()) {
                Some(nodes) => {
                    let dnode = c.combine(nodes, p.keys(), p.annotated, cap);
                    let merged =
                        c.combine(&[cur[p.name.as_str()], dnode], p.keys(), p.annotated, cap);
                    delta.insert(&p.name, Some(dnode));
                    cur.insert(&p.name, merged);
                }
                None => {
                    delta.insert(&p.name, None);
                }
            }
        }
    }

    let out = cur[dp.output.as_str()];
    c.rc.mark_output(out);

    if let Some(n) = c.rc.nodes.iter().find(|n| n.capacity > MAX_SLOTS) {
        return Err(DatalogError::TooLarge {
            capacity: n.capacity,
            limit: MAX_SLOTS,
        });
    }
    let schema = dp.pred(&dp.output).expect("output predicate").schema();
    Ok(FixpointCircuit {
        rc: c.rc,
        schema: schema.to_vec(),
        rounds: bounds.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::{database, result_relation, seminaive};
    use crate::workloads;

    #[test]
    fn compiled_tc_matches_the_reference_on_ram() {
        let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
        let edges = workloads::random_edges(6, 10, 0xabcd);
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let bounds = FixpointBounds::for_domain(6, 16);
        let fx = compile(&dp, &bounds).unwrap();
        let got = fx.rc.evaluate_ram(&db).unwrap().pop().unwrap();
        let want = result_relation(&dp, &seminaive(&dp, &db, bounds.rounds).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn compiled_shortest_path_matches_the_reference_on_ram() {
        let dp = DatalogProgram::parse(workloads::SHORTEST_PATH).unwrap();
        let edges = workloads::random_weighted_edges(5, 9, 6, 0x5eed);
        let db = database(&dp, &[("edge", edges)]).unwrap();
        let bounds = FixpointBounds::for_domain(5, 16);
        let fx = compile(&dp, &bounds).unwrap();
        let got = fx.rc.evaluate_ram(&db).unwrap().pop().unwrap();
        let want = result_relation(&dp, &seminaive(&dp, &db, bounds.rounds).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn oversized_fixpoints_are_rejected() {
        let dp = DatalogProgram::parse(workloads::TRANSITIVE_CLOSURE).unwrap();
        let bounds = FixpointBounds::for_domain(1 << 20, 4);
        let e = compile(&dp, &bounds).expect_err("too large");
        assert!(matches!(e, DatalogError::TooLarge { .. }));
    }
}
