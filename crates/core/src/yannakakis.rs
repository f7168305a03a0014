//! Output-sensitive circuits (Sec. 6): Reduce-C (Alg. 8), Yannakakis-C
//! (Alg. 9), and the OUT-computation circuit (Alg. 11).
//!
//! An *output-sensitive circuit* is two uniform circuit families: one,
//! parameterized by the degree constraints alone, computes
//! `OUT = |Q(D)|`; the second, parameterized additionally by `OUT`,
//! computes `Q(D)` with size `Õ(N + 2^{da-fhtw} + OUT)` (Theorem 5). The
//! applications in Sec. 1 (MPC, outsourced querying) evaluate the first
//! circuit, read off `OUT`, and then build and evaluate the second.

use std::collections::HashMap;

use qec_bignum::Rat;
use qec_entropy::{polymatroid_bound, BoundError};
use qec_query::{enumerate_ghds, Cq, Ghd};
use qec_relation::{AggKind, Database, DcSet, Relation, Var, VarSet};

use crate::panda::{compile_target, CompileError};
use crate::rc::{MapBinOp, NodeId, RcError, RelationalCircuit};

/// The per-tuple annotation column used by the counting circuit
/// (queries must keep their variables below 60).
const CNT: Var = Var(62);
/// Scratch column for child-count sums.
const TMP: Var = Var(61);

/// Construction failures.
#[derive(Debug)]
pub enum YannakakisError {
    /// No free-connex GHD with a finite width exists under the
    /// constraints.
    NoGhd,
    /// Bag compilation failed.
    Compile(CompileError),
    /// A bag's polymatroid bound is infinite.
    Bound(BoundError),
    /// RAM evaluation failed.
    Eval(RcError),
    /// The query (or an annotation column) uses a variable that collides
    /// with the reserved internal scratch columns `Var(61)`/`Var(62)`.
    ReservedVariable(Var),
    /// An annotation column is not a fresh variable (it appears among the
    /// query's variables or is not below the reserved range).
    BadAnnotation(Var),
}

impl std::fmt::Display for YannakakisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            YannakakisError::NoGhd => write!(f, "no finite-width free-connex GHD"),
            YannakakisError::Compile(e) => write!(f, "bag compilation failed: {e}"),
            YannakakisError::Bound(e) => write!(f, "bag bound failed: {e}"),
            YannakakisError::Eval(e) => write!(f, "evaluation failed: {e}"),
            YannakakisError::ReservedVariable(v) => write!(
                f,
                "query variable {v} collides with the reserved internal scratch columns (variables 61/62)"
            ),
            YannakakisError::BadAnnotation(v) => write!(
                f,
                "annotation column {v} must be a fresh variable below 61"
            ),
        }
    }
}

impl std::error::Error for YannakakisError {}

/// Finds a free-connex GHD minimizing the maximum bag polymatroid bound —
/// the degree-aware fractional hypertree width functional of Eq. (6).
/// Returns the decomposition and `da-fhtw` in log₂ units.
pub fn da_fhtw(cq: &Cq, dc: &DcSet, ghd_limit: usize) -> Result<(Ghd, Rat), YannakakisError> {
    let h = cq.hypergraph();
    let ghds = enumerate_ghds(&h, cq.free, ghd_limit);
    let mut cache: HashMap<VarSet, Option<Rat>> = HashMap::new();
    let mut best: Option<(Ghd, Rat)> = None;
    for g in ghds {
        let mut width = Rat::zero();
        let mut finite = true;
        for node in &g.nodes {
            let entry = cache.entry(node.bag).or_insert_with(|| {
                match polymatroid_bound(cq.num_vars(), dc, node.bag) {
                    Ok(b) => Some(b.log_value),
                    Err(_) => None,
                }
            });
            match entry {
                Some(v) => width = width.max(v.clone()),
                None => {
                    finite = false;
                    break;
                }
            }
        }
        if !finite {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bg, bw)) => width < *bw || (width == *bw && g.nodes.len() < bg.nodes.len()),
        };
        if better {
            best = Some((g, width));
        }
    }
    best.ok_or(YannakakisError::NoGhd)
}

/// A working tree node during/after the reduce phase.
struct RNode {
    bag: VarSet,
    t: NodeId,
    parent: Option<usize>,
    alive: bool,
}

/// The reduce phase output: a circuit under construction plus the alive
/// free-variable tree.
struct Reduced {
    rc: RelationalCircuit,
    nodes: Vec<RNode>,
    bottom_up: Vec<usize>,
    root: usize,
}

/// An output-sensitive circuit family for a conjunctive query.
pub struct OutputSensitive {
    cq: Cq,
    dc: DcSet,
    ghd: Ghd,
    /// `da-fhtw(Q)` in log₂ units — the intrinsic width the circuit sizes
    /// its bags by.
    pub width: Rat,
}

impl OutputSensitive {
    /// Chooses a GHD and prepares the family. `ghd_limit` caps the GHD
    /// search (elimination orders tried).
    pub fn build(cq: &Cq, dc: &DcSet, ghd_limit: usize) -> Result<Self, YannakakisError> {
        let (ghd, width) = da_fhtw(cq, dc, ghd_limit)?;
        Ok(OutputSensitive {
            cq: cq.clone(),
            dc: dc.clone(),
            ghd,
            width,
        })
    }

    #[allow(clippy::needless_range_loop)] // re-parenting mutates `nodes` while indexing
    /// Runs Reduce-C (Alg. 8): per-bag PANDA-C (with false-positive
    /// filtering), then the bottom-up pass that removes bound variables by
    /// semijoins and projections.
    fn reduce(&self) -> Result<Reduced, YannakakisError> {
        let mut rc = RelationalCircuit::new();
        let mut inputs = Vec::new();
        for atom in &self.cq.atoms {
            let cap = self.dc.cardinality_of(atom.vars).ok_or_else(|| {
                YannakakisError::Compile(CompileError::UnguardedAtom(atom.name.clone()))
            })?;
            let node = rc.input(atom.name.clone(), atom.vars, cap);
            inputs.push((atom.name.clone(), atom.vars, node));
        }
        // Alg. 8 lines 2–6: a PANDA-C circuit per bag.
        let mut nodes: Vec<RNode> = Vec::with_capacity(self.ghd.nodes.len());
        for gn in &self.ghd.nodes {
            let (t, _, _, _) =
                compile_target(&mut rc, &inputs, &self.dc, gn.bag, self.cq.num_vars())
                    .map_err(YannakakisError::Compile)?;
            nodes.push(RNode {
                bag: gn.bag,
                t,
                parent: gn.parent,
                alive: true,
            });
        }
        // Alg. 8 lines 7–16: bottom-up reduction.
        let bottom_up = self.ghd.bottom_up();
        let root = self.ghd.root;
        for &v in &bottom_up {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("non-root has a parent");
            let free_part = nodes[v].bag.intersect(self.cq.free);
            if free_part.is_subset(nodes[p].bag) {
                let merged = rc.semijoin(nodes[p].t, nodes[v].t);
                nodes[p].t = merged;
                nodes[v].alive = false;
                // re-parent any alive children of v onto p
                for i in 0..nodes.len() {
                    if nodes[i].alive && nodes[i].parent == Some(v) {
                        nodes[i].parent = Some(p);
                    }
                }
            } else if free_part != nodes[v].bag {
                nodes[v].t = rc.project(nodes[v].t, free_part);
                nodes[v].bag = free_part;
            }
        }
        // the root keeps only its free part
        let root_free = nodes[root].bag.intersect(self.cq.free);
        if root_free != nodes[root].bag {
            nodes[root].t = rc.project(nodes[root].t, root_free);
            nodes[root].bag = root_free;
        }
        let bottom_up = bottom_up.into_iter().filter(|&i| nodes[i].alive).collect();
        Ok(Reduced {
            rc,
            nodes,
            bottom_up,
            root,
        })
    }

    /// The first circuit family (Alg. 11): computes `OUT = |Q(D)|` as a
    /// single-tuple relation over the column `Var(61)` (empty relation ⇔
    /// `OUT = 0`). Size `Õ(N + 2^{da-fhtw})`.
    #[allow(clippy::needless_range_loop)] // attaches columns in place
    pub fn count_circuit(&self) -> Result<RelationalCircuit, YannakakisError> {
        let Reduced {
            mut rc,
            mut nodes,
            bottom_up,
            root,
        } = self.reduce()?;
        // attach the unit annotation (line 2)
        for i in 0..nodes.len() {
            if nodes[i].alive {
                nodes[i].t = rc.attach_const(nodes[i].t, CNT, 1);
            }
        }
        // bottom-up: sum child counts per shared key, multiply into the
        // parent (lines 3–8)
        for &v in &bottom_up {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive non-root has parent");
            let shared = nodes[v].bag.intersect(nodes[p].bag);
            let w = rc.aggregate(nodes[v].t, shared, AggKind::Sum(CNT), TMP);
            let joined = rc.join_pk(nodes[p].t, w);
            nodes[p].t = rc.map_bin(joined, CNT, TMP, CNT, MapBinOp::Mul);
        }
        // global sum at the root (line 9)
        let total = rc.aggregate(nodes[root].t, VarSet::EMPTY, AggKind::Sum(CNT), TMP);
        rc.mark_output(total);
        Ok(rc)
    }

    /// The second circuit family (Algs. 8–9), parameterized by
    /// `out_bound = OUT`: computes `Q(D)` with size
    /// `Õ(N + 2^{da-fhtw} + OUT)`.
    pub fn query_circuit(&self, out_bound: u64) -> Result<RelationalCircuit, YannakakisError> {
        let out_bound = out_bound.max(1);
        let Reduced {
            mut rc,
            mut nodes,
            bottom_up,
            root,
        } = self.reduce()?;
        // Alg. 9 lines 2–5: bottom-up semijoins.
        for &v in &bottom_up {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive non-root has parent");
            nodes[p].t = rc.semijoin(nodes[p].t, nodes[v].t);
        }
        // Alg. 9 lines 6–9: top-down semijoins — no dangling tuples remain.
        for &v in bottom_up.iter().rev() {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive non-root has parent");
            nodes[v].t = rc.semijoin(nodes[v].t, nodes[p].t);
        }
        // Alg. 9 lines 10–16: bottom-up output-bounded joins.
        for &v in &bottom_up {
            if v == root {
                continue;
            }
            let p = nodes[v].parent.expect("alive non-root has parent");
            if nodes[v].bag.is_subset(nodes[p].bag) {
                // the child carries no new columns; the semijoins already
                // applied its filter
                continue;
            }
            let cap_product = rc.nodes[nodes[p].t]
                .capacity
                .saturating_mul(rc.nodes[nodes[v].t].capacity);
            let out_t = out_bound.min(cap_product);
            let shared = nodes[p].bag.intersect(nodes[v].bag);
            let joined = if shared.is_empty() {
                // disconnected components: a plain cross product, sized by
                // the child's capacity as its trivial degree bound
                let j = rc.join_degree(nodes[p].t, nodes[v].t, rc.nodes[nodes[v].t].capacity);
                rc.truncate(j, out_t)
            } else {
                rc.join_output(nodes[p].t, nodes[v].t, out_t)
            };
            nodes[p].t = joined;
            nodes[p].bag = nodes[p].bag.union(nodes[v].bag);
        }
        rc.mark_output(nodes[root].t);
        Ok(rc)
    }

    /// For a Boolean query: a circuit whose output is the unit relation
    /// `{()}` iff `Q(D)` is non-empty. At the word level the output is a
    /// **single wire** — the minimal-leakage artifact for secure
    /// evaluation (Sec. 1): two parties can learn "is there a triangle
    /// across our joint data?" and nothing else.
    ///
    /// Size `Õ(N + 2^{da-fhtw})` — a BCQ needs no output-size parameter
    /// (Sec. 6.1: every GHD is free-connex and `|Q(D)| = 1`).
    ///
    /// # Panics
    /// Panics if the query has free variables.
    pub fn boolean_circuit(&self) -> Result<RelationalCircuit, YannakakisError> {
        assert!(self.cq.is_boolean(), "boolean_circuit expects a BCQ");
        let Reduced {
            mut rc,
            nodes,
            bottom_up,
            root,
        } = self.reduce()?;
        // For a BCQ every bag's free part is ∅ ⊆ parent, so the reduce
        // phase semijoins everything into the root and projects it to the
        // empty schema; a unit-capacity truncation leaves one wire.
        debug_assert_eq!(bottom_up, vec![root], "BCQ reduce leaves only the root");
        debug_assert!(nodes[root].bag.is_empty());
        let out = rc.truncate(nodes[root].t, 1);
        rc.mark_output(out);
        Ok(rc)
    }

    /// Convenience: runs both families on a database via the RAM
    /// interpreter (count, then evaluate with `OUT` as the parameter).
    pub fn evaluate_ram(&self, db: &Database) -> Result<Relation, YannakakisError> {
        let out = self.count_ram(db)?;
        let rc = self.query_circuit(out)?;
        let res = rc.evaluate_ram(db).map_err(YannakakisError::Eval)?;
        Ok(res.into_iter().next().expect("one output"))
    }

    /// Runs the counting family on a database via the RAM interpreter.
    pub fn count_ram(&self, db: &Database) -> Result<u64, YannakakisError> {
        let rc = self.count_circuit()?;
        let res = rc.evaluate_ram(db).map_err(YannakakisError::Eval)?;
        let out = res[0].iter().next().map(|row| row[0]);
        Ok(out.unwrap_or(0))
    }

    /// The chosen GHD (for reporting).
    pub fn ghd(&self) -> &Ghd {
        &self.ghd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::baseline::evaluate_pairwise;
    use qec_query::{k_path, parse_cq, snowflake, triangle};
    use qec_relation::{random_relation, DegreeConstraint};

    fn vs(bits: &[u32]) -> VarSet {
        bits.iter().map(|&i| Var(i)).collect()
    }

    fn dc_for(cq: &Cq, n: u64) -> DcSet {
        DcSet::from_vec(
            cq.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, n))
                .collect(),
        )
    }

    fn db_for(cq: &Cq, n: usize, seed: u64) -> Database {
        let mut db = Database::new();
        for (i, a) in cq.atoms.iter().enumerate() {
            db.insert(
                a.name.clone(),
                random_relation(a.vars.to_vec(), n, seed * 31 + i as u64),
            );
        }
        db
    }

    #[test]
    fn dafhtw_path_is_log_n() {
        // acyclic full query: width = log N (one relation per bag)
        let q = k_path(3);
        let (_, w) = da_fhtw(&q, &dc_for(&q, 1 << 8), 10_000).unwrap();
        assert_eq!(w, qec_bignum::rat(8, 1));
    }

    #[test]
    fn dafhtw_triangle_is_1_5_log_n() {
        let q = triangle();
        let (_, w) = da_fhtw(&q, &dc_for(&q, 1 << 8), 10_000).unwrap();
        assert_eq!(w, qec_bignum::rat(12, 1));
    }

    #[test]
    fn full_acyclic_query_end_to_end() {
        let q = k_path(3);
        let dc = dc_for(&q, 32);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        for seed in 0..3 {
            let db = db_for(&q, 28, seed);
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(
                os.count_ram(&db).unwrap(),
                expect.len() as u64,
                "seed {seed}"
            );
            assert_eq!(os.evaluate_ram(&db).unwrap(), expect, "seed {seed}");
        }
    }

    #[test]
    fn projection_query_end_to_end() {
        // Q(x0, x1) over a snowflake: bound petals must not multiply the
        // count
        let q0 = snowflake(2);
        let q = Cq {
            free: vs(&[0, 1]),
            ..q0
        };
        let dc = dc_for(&q, 32);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        for seed in 0..3 {
            let db = db_for(&q, 24, seed + 7);
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(
                os.count_ram(&db).unwrap(),
                expect.len() as u64,
                "seed {seed}"
            );
            assert_eq!(os.evaluate_ram(&db).unwrap(), expect, "seed {seed}");
        }
    }

    #[test]
    fn boolean_query_end_to_end() {
        let q = parse_cq("Q() :- R(x, y), S(y, z)").unwrap();
        let dc = dc_for(&q, 16);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        for seed in 0..3 {
            let db = db_for(&q, 12, seed);
            let expect = evaluate_pairwise(&q, &db).unwrap();
            let got = os.evaluate_ram(&db).unwrap();
            assert_eq!(got.len(), expect.len(), "seed {seed}");
            assert_eq!(os.count_ram(&db).unwrap(), expect.len() as u64);
        }
    }

    #[test]
    fn cyclic_query_with_projection() {
        // Q(a) over a triangle: bag = triangle (PANDA inside), then project
        let q0 = triangle();
        let q = Cq {
            free: vs(&[0]),
            ..q0
        };
        let dc = dc_for(&q, 24);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        for seed in 0..3 {
            let db = db_for(&q, 20, seed + 3);
            let expect = evaluate_pairwise(&q, &db).unwrap();
            assert_eq!(os.evaluate_ram(&db).unwrap(), expect, "seed {seed}");
            assert_eq!(
                os.count_ram(&db).unwrap(),
                expect.len() as u64,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn lowered_output_sensitive_matches() {
        let q0 = k_path(2); // R(x0,x1), S(x1,x2)
        let q = Cq {
            free: vs(&[0, 2]),
            ..q0
        };
        let dc = dc_for(&q, 12);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        let db = db_for(&q, 10, 5);
        let expect = evaluate_pairwise(&q, &db).unwrap();
        // family 1 lowered
        let count_rc = os.count_circuit().unwrap();
        let lowered = count_rc.lower();
        let out_rel = &lowered.run(&db).unwrap()[0];
        let out = out_rel.iter().next().map_or(0, |r| r[0]);
        assert_eq!(out, expect.len() as u64);
        // family 2 lowered with OUT as parameter
        let query_rc = os.query_circuit(out).unwrap();
        let lowered2 = query_rc.lower();
        assert_eq!(lowered2.run(&db).unwrap()[0], expect);
    }

    #[test]
    fn wrong_out_bound_fires_capacity_check() {
        let q = k_path(2);
        let dc = dc_for(&q, 12);
        let os = OutputSensitive::build(&q, &dc, 5_000).unwrap();
        let db = db_for(&q, 10, 1);
        let expect = evaluate_pairwise(&q, &db).unwrap();
        if expect.len() > 2 {
            let rc = os.query_circuit(1).unwrap();
            assert!(matches!(
                rc.evaluate_ram(&db),
                Err(RcError::CapacityExceeded { .. })
            ));
        }
    }
}
