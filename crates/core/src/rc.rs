//! Relational circuits with bounded wires (Sec. 4.3).
//!
//! A [`RelationalCircuit`] is a DAG of relational gates. Every wire
//! (node output) carries a relation bounded by a *capacity* that depends
//! only on the declared degree constraints — never on data — which is
//! what makes the later word-level lowering possible. The relation on a
//! wire is a set: inputs come from [`Relation`], and every gate keeps
//! it one (projection and union deduplicate, and a join of two sets is
//! a set). The cross-product lowering of a degree-bounded join relies
//! on that and does not deduplicate.
//!
//! Each circuit has four consumers:
//! * [`RelationalCircuit::evaluate_ram`] — a direct RAM interpretation
//!   (the reference semantics, with capacity checking);
//! * [`RelationalCircuit::lower`] — instantiation as an oblivious
//!   word-level circuit via `qec-circuit`, whose measured gate count the
//!   experiments compare against the paper's cost model;
//! * [`crate::paper_cost`] — the abstract cost of Sec. 4.3;
//! * [`crate::predicted_gates`] — the word-gate count the lowering is
//!   predicted to emit, read off node capacities, which the planner
//!   ranks its candidates by.

use std::collections::HashMap;

use qec_circuit::{
    aggregate as c_aggregate, decompose as c_decompose, join_degree_bounded, join_output_bounded,
    join_pk, project as c_project, select as c_select, semijoin as c_semijoin,
    truncate as c_truncate, union as c_union, AggOp, Builder, Circuit, CompileOptions, InputLayout,
    Mode, RelWires, SlotWires,
};
use qec_relation::{AggKind, Database, Relation, Var, VarSet};

/// Index of a node in a [`RelationalCircuit`].
pub type NodeId = usize;

/// Selection predicates expressible at the relational-gate level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RcPred {
    /// `lo ≤ field(var) < hi`.
    FieldRange {
        /// The tested attribute.
        var: Var,
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
    },
    /// `field(var) = value`.
    FieldEq {
        /// The tested attribute.
        var: Var,
        /// The constant compared against.
        value: u64,
    },
    /// `field(a) = field(b)` (an equality selection between columns).
    ColEq {
        /// First attribute.
        a: Var,
        /// Second attribute.
        b: Var,
    },
}

impl RcPred {
    fn vars(&self) -> Vec<Var> {
        match self {
            RcPred::FieldRange { var, .. } | RcPred::FieldEq { var, .. } => vec![*var],
            RcPred::ColEq { a, b } => vec![*a, *b],
        }
    }
}

/// A relational gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RcOp {
    /// An input relation, bound by name at evaluation time.
    Input {
        /// Lookup name in the database.
        name: String,
    },
    /// Selection `σ_pred`.
    Select {
        /// Upstream node.
        input: NodeId,
        /// The predicate.
        pred: RcPred,
    },
    /// Projection with duplicate elimination.
    Project {
        /// Upstream node.
        input: NodeId,
        /// Attributes kept.
        onto: VarSet,
    },
    /// Group-by aggregation (Sec. 4.3's extension operator).
    Aggregate {
        /// Upstream node.
        input: NodeId,
        /// Group-by attributes.
        group: VarSet,
        /// Aggregate computed per group.
        agg: AggKind,
        /// Fresh output attribute.
        out: Var,
    },
    /// Union of two same-schema relations.
    Union {
        /// Left input.
        a: NodeId,
        /// Right input.
        b: NodeId,
    },
    /// Primary-key join (`b` keyed by the shared attributes).
    JoinPk {
        /// Probe side.
        a: NodeId,
        /// Keyed side.
        b: NodeId,
    },
    /// Degree-bounded join (Alg. 7): `deg_shared(b) ≤ deg`. With
    /// `deg ≥ cap(b)` it is the key-filtered cross product, lowered
    /// without a sort.
    JoinDegree {
        /// Probe side (`M` capacity).
        a: NodeId,
        /// Degree-bounded side.
        b: NodeId,
        /// The degree bound `N`.
        deg: u64,
    },
    /// Output-bounded join (Alg. 10): `|a ⋈ b| ≤ out_bound`.
    JoinOutput {
        /// Left input.
        a: NodeId,
        /// Right input (decomposed by the circuit).
        b: NodeId,
        /// The promised output bound.
        out_bound: u64,
    },
    /// Semijoin `a ⋉ b`.
    Semijoin {
        /// Filtered side.
        a: NodeId,
        /// Filter side.
        b: NodeId,
    },
    /// One part of a degree decomposition (Alg. 2) of `input` on `on`;
    /// parts `2i` and `2i+1` (0-based) hold tuples whose `on`-degree lies
    /// in `[2^i, 2^{i+1})`, split half-and-half.
    Decompose {
        /// Decomposed node.
        input: NodeId,
        /// The conditioning attributes `X`.
        on: VarSet,
        /// Part index `0 .. 2·(1+⌊log₂ cap⌋)`.
        part: usize,
    },
    /// The ordering operator `τ_F(R)` (Sec. 4.3): adds a rank column
    /// holding each tuple's 1-based position when sorted by `by` (ties
    /// broken by the remaining attributes, deterministically).
    Order {
        /// Upstream node.
        input: NodeId,
        /// Sort attributes.
        by: VarSet,
        /// Fresh rank column.
        out: Var,
    },
    /// Capacity truncation (asserts no real tuple is dropped).
    Truncate {
        /// Upstream node.
        input: NodeId,
        /// New capacity.
        capacity: u64,
    },
    /// Adds a constant-valued column (annotation bootstrap, Sec. 7).
    AttachConst {
        /// Upstream node.
        input: NodeId,
        /// New attribute.
        var: Var,
        /// Its value on every tuple.
        value: u64,
    },
    /// Attribute renaming `ρ` (a bijective relabeling). Pure re-wiring
    /// in the lowering — zero gates — because slot order is free: every
    /// downstream operator re-sorts internally and the RAM reference
    /// normalizes through `Relation::from_rows`.
    Rename {
        /// Upstream node.
        input: NodeId,
        /// `(old, new)` pairs, applied simultaneously; unlisted
        /// attributes keep their names.
        map: Vec<(Var, Var)>,
    },
    /// Combines two columns into a fresh one with a semiring `⊗`,
    /// dropping the sources (the map operator of Sec. 7 / Alg. 11).
    MapMul {
        /// Upstream node.
        input: NodeId,
        /// First operand column (dropped).
        a: Var,
        /// Second operand column (dropped).
        b: Var,
        /// Result column (added).
        out: Var,
        /// The combining operation.
        op: MapBinOp,
    },
}

/// Column-combining operations for [`RcOp::MapMul`] — the semiring
/// multiplications supported by the word-level lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapBinOp {
    /// Numeric product (the natural semiring's `⊗`).
    Mul,
    /// Numeric sum.
    Add,
    /// Saturating sum (the tropical semirings' `⊗`): clamps at
    /// `u64::MAX`, making `∞` absorbing instead of wrapping back into ℕ.
    SatAdd,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl MapBinOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MapBinOp::Mul => a.wrapping_mul(b),
            MapBinOp::Add => a.wrapping_add(b),
            MapBinOp::SatAdd => a.saturating_add(b),
            MapBinOp::Min => a.min(b),
            MapBinOp::Max => a.max(b),
        }
    }
}

/// A node: its gate plus the derived wire bound.
#[derive(Clone, Debug)]
pub struct RcNode {
    /// The gate.
    pub op: RcOp,
    /// Output schema.
    pub schema: VarSet,
    /// Output capacity (the bounded-wire parameter).
    pub capacity: u64,
}

/// Evaluation failures (the RAM interpreter mirrors the word circuit's
/// assertion gates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RcError {
    /// A node produced more tuples than its declared capacity.
    CapacityExceeded {
        /// Offending node.
        node: NodeId,
        /// Tuples produced.
        len: usize,
        /// Declared capacity.
        capacity: u64,
    },
    /// The database lacks an input relation.
    MissingInput(String),
    /// An input relation's schema differs from the node's.
    InputSchemaMismatch(String),
}

impl std::fmt::Display for RcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RcError::CapacityExceeded {
                node,
                len,
                capacity,
            } => {
                write!(f, "node {node} produced {len} tuples, capacity {capacity}")
            }
            RcError::MissingInput(n) => write!(f, "missing input relation {n}"),
            RcError::InputSchemaMismatch(n) => write!(f, "input {n} schema mismatch"),
        }
    }
}

impl std::error::Error for RcError {}

/// A relational circuit: nodes in topological (construction) order plus
/// designated outputs.
#[derive(Clone, Debug, Default)]
pub struct RelationalCircuit {
    /// The gates.
    pub nodes: Vec<RcNode>,
    /// Output nodes.
    pub outputs: Vec<NodeId>,
}

impl RelationalCircuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: RcOp, schema: VarSet, capacity: u64) -> NodeId {
        self.nodes.push(RcNode {
            op,
            schema,
            capacity,
        });
        self.nodes.len() - 1
    }

    fn node(&self, id: NodeId) -> &RcNode {
        &self.nodes[id]
    }

    /// Declares an input relation.
    pub fn input(&mut self, name: impl Into<String>, schema: VarSet, capacity: u64) -> NodeId {
        self.push(RcOp::Input { name: name.into() }, schema, capacity)
    }

    /// Adds a selection gate.
    pub fn select(&mut self, input: NodeId, pred: RcPred) -> NodeId {
        let (s, c) = (self.node(input).schema, self.node(input).capacity);
        for v in pred.vars() {
            assert!(s.contains(v), "selection on missing attribute {v}");
        }
        self.push(RcOp::Select { input, pred }, s, c)
    }

    /// Adds a projection gate.
    pub fn project(&mut self, input: NodeId, onto: VarSet) -> NodeId {
        let n = self.node(input);
        assert!(onto.is_subset(n.schema), "projection onto non-attributes");
        let c = n.capacity;
        self.push(RcOp::Project { input, onto }, onto, c)
    }

    /// Adds an aggregation gate.
    pub fn aggregate(&mut self, input: NodeId, group: VarSet, agg: AggKind, out: Var) -> NodeId {
        let n = self.node(input);
        assert!(group.is_subset(n.schema), "group-by on non-attributes");
        assert!(!n.schema.contains(out), "aggregate output collides");
        let c = n.capacity;
        self.push(
            RcOp::Aggregate {
                input,
                group,
                agg,
                out,
            },
            group.with(out),
            c,
        )
    }

    /// Adds a union gate.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.node(a).schema, self.node(b).schema);
        assert_eq!(sa, sb, "union schema mismatch");
        let c = self.node(a).capacity + self.node(b).capacity;
        self.push(RcOp::Union { a, b }, sa, c)
    }

    /// Adds a primary-key join gate.
    pub fn join_pk(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let s = self.node(a).schema.union(self.node(b).schema);
        let c = self.node(a).capacity;
        self.push(RcOp::JoinPk { a, b }, s, c)
    }

    /// Adds a degree-bounded join gate. Its capacity is
    /// `cap(a) · min(deg, cap(b))`: a bound of at least `cap(b)` says
    /// nothing (`deg_shared(b) ≤ |b|` always holds), and such a join
    /// lowers as the key-filtered cross product of `a` and `b`.
    pub fn join_degree(&mut self, a: NodeId, b: NodeId, deg: u64) -> NodeId {
        assert!(deg >= 1);
        let s = self.node(a).schema.union(self.node(b).schema);
        let c = self
            .node(a)
            .capacity
            .saturating_mul(deg.min(self.node(b).capacity));
        self.push(RcOp::JoinDegree { a, b, deg }, s, c)
    }

    /// Adds an output-bounded join gate.
    pub fn join_output(&mut self, a: NodeId, b: NodeId, out_bound: u64) -> NodeId {
        let s = self.node(a).schema.union(self.node(b).schema);
        self.push(RcOp::JoinOutput { a, b, out_bound }, s, out_bound)
    }

    /// Adds a semijoin gate.
    pub fn semijoin(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (s, c) = (self.node(a).schema, self.node(a).capacity);
        self.push(RcOp::Semijoin { a, b }, s, c)
    }

    /// Adds all `2·(1+⌊log₂ cap⌋)` parts of a decomposition of `input` on
    /// `on` (Alg. 2). Returns `(node, card_bound, deg_bound)` per part.
    pub fn decompose(&mut self, input: NodeId, on: VarSet) -> Vec<(NodeId, u64, u64)> {
        let n = self.node(input);
        assert!(
            on.is_subset(n.schema) && on != n.schema,
            "decomposition needs X ⊂ Y"
        );
        let cap = n.capacity.max(1);
        let schema = n.schema;
        let k = 1 + cap.ilog2();
        let part_cap = cap.div_ceil(2);
        let mut out = Vec::with_capacity(2 * k as usize);
        for i in 1..=k {
            let deg = 1u64 << (i - 1);
            let card = (cap / deg).max(1);
            for half in 0..2 {
                let part = ((i - 1) * 2 + half) as usize;
                let id = self.push(RcOp::Decompose { input, on, part }, schema, part_cap);
                out.push((id, card, deg));
            }
        }
        out
    }

    /// Adds an ordering (rank-assignment) gate.
    pub fn order_by(&mut self, input: NodeId, by: VarSet, out: Var) -> NodeId {
        let n = self.node(input);
        assert!(by.is_subset(n.schema), "order-by on non-attributes");
        assert!(!n.schema.contains(out), "rank column collides");
        let (s, c) = (n.schema.with(out), n.capacity);
        self.push(RcOp::Order { input, by, out }, s, c)
    }

    /// Adds a truncation gate.
    pub fn truncate(&mut self, input: NodeId, capacity: u64) -> NodeId {
        let s = self.node(input).schema;
        self.push(RcOp::Truncate { input, capacity }, s, capacity)
    }

    /// Adds a renaming gate (`ρ`): relabels attributes per `map`
    /// (simultaneously, so swaps are fine), keeping unlisted ones.
    /// Returns `input` unchanged for an identity map.
    pub fn rename(&mut self, input: NodeId, map: &[(Var, Var)]) -> NodeId {
        let n = self.node(input);
        let map: Vec<(Var, Var)> = map.iter().copied().filter(|(a, b)| a != b).collect();
        if map.is_empty() {
            return input;
        }
        let mut sources = VarSet::EMPTY;
        for &(from, _) in &map {
            assert!(n.schema.contains(from), "renaming missing attribute {from}");
            assert!(!sources.contains(from), "duplicate rename source {from}");
            sources = sources.with(from);
        }
        let mut schema = VarSet::EMPTY;
        for v in n.schema.iter() {
            let new = map
                .iter()
                .find(|(from, _)| *from == v)
                .map(|(_, to)| *to)
                .unwrap_or(v);
            assert!(!schema.contains(new), "rename target {new} collides");
            schema = schema.with(new);
        }
        let c = n.capacity;
        self.push(RcOp::Rename { input, map }, schema, c)
    }

    /// Adds a constant-column gate.
    pub fn attach_const(&mut self, input: NodeId, var: Var, value: u64) -> NodeId {
        let n = self.node(input);
        assert!(!n.schema.contains(var), "attached column collides");
        let (s, c) = (n.schema.with(var), n.capacity);
        self.push(RcOp::AttachConst { input, var, value }, s, c)
    }

    /// Adds a column-combining gate (`⊗`-map); see [`MapBinOp`].
    pub fn map_mul(&mut self, input: NodeId, a: Var, b: Var, out: Var) -> NodeId {
        self.map_bin(input, a, b, out, MapBinOp::Mul)
    }

    /// Adds a column-combining gate with an explicit operation.
    pub fn map_bin(&mut self, input: NodeId, a: Var, b: Var, out: Var, op: MapBinOp) -> NodeId {
        let n = self.node(input);
        assert!(
            n.schema.contains(a) && n.schema.contains(b) && a != b,
            "factors missing"
        );
        let s = n
            .schema
            .minus(VarSet::singleton(a))
            .minus(VarSet::singleton(b));
        assert!(!s.contains(out), "product column collides");
        let (s, c) = (s.with(out), n.capacity);
        self.push(
            RcOp::MapMul {
                input,
                a,
                b,
                out,
                op,
            },
            s,
            c,
        )
    }

    /// Marks a node as a circuit output.
    pub fn mark_output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }

    /// RAM reference evaluation: interprets every gate with the
    /// `qec-relation` operators, enforcing each wire's capacity bound
    /// (the RAM analogue of the lowered circuit's assertion gates).
    /// Returns the relations at the output nodes.
    pub fn evaluate_ram(&self, db: &Database) -> Result<Vec<Relation>, RcError> {
        let mut vals: Vec<Relation> = Vec::with_capacity(self.nodes.len());
        for (id, n) in self.nodes.iter().enumerate() {
            let rel = match &n.op {
                RcOp::Input { name } => {
                    let r = db
                        .get(name)
                        .ok_or_else(|| RcError::MissingInput(name.clone()))?;
                    if r.vars() != n.schema {
                        return Err(RcError::InputSchemaMismatch(name.clone()));
                    }
                    r.clone()
                }
                RcOp::Select { input, pred } => {
                    let r = &vals[*input];
                    match pred {
                        RcPred::FieldRange { var, lo, hi } => {
                            let col = r.col(*var).expect("validated");
                            r.select(|row| (*lo..*hi).contains(&row[col]))
                        }
                        RcPred::FieldEq { var, value } => {
                            let col = r.col(*var).expect("validated");
                            r.select(|row| row[col] == *value)
                        }
                        RcPred::ColEq { a, b } => {
                            let (ca, cb) =
                                (r.col(*a).expect("validated"), r.col(*b).expect("validated"));
                            r.select(|row| row[ca] == row[cb])
                        }
                    }
                }
                RcOp::Project { input, onto } => vals[*input].project(*onto),
                RcOp::Aggregate {
                    input,
                    group,
                    agg,
                    out,
                } => vals[*input].aggregate(*group, *agg, *out),
                RcOp::Union { a, b } => vals[*a].union(&vals[*b]),
                RcOp::JoinPk { a, b }
                | RcOp::JoinDegree { a, b, .. }
                | RcOp::JoinOutput { a, b, .. } => vals[*a].natural_join(&vals[*b]),
                RcOp::Semijoin { a, b } => vals[*a].semijoin(&vals[*b]),
                RcOp::Decompose { input, on, part } => {
                    ram_decompose_part(&vals[*input], *on, *part)
                }
                RcOp::Order { input, by, out } => vals[*input].order_by(*by, *out),
                RcOp::Truncate { input, .. } => vals[*input].clone(),
                RcOp::Rename { input, map } => {
                    let r = &vals[*input];
                    let schema: Vec<Var> = r
                        .schema()
                        .iter()
                        .map(|v| {
                            map.iter()
                                .find(|(from, _)| from == v)
                                .map(|(_, to)| *to)
                                .unwrap_or(*v)
                        })
                        .collect();
                    Relation::from_rows(schema, r.iter().cloned().collect())
                }
                RcOp::AttachConst { input, var, value } => {
                    let r = &vals[*input];
                    let mut schema = r.schema().to_vec();
                    schema.push(*var);
                    let rows = r
                        .iter()
                        .map(|row| {
                            let mut t = row.clone();
                            t.push(*value);
                            t
                        })
                        .collect();
                    Relation::from_rows(schema, rows)
                }
                RcOp::MapMul {
                    input,
                    a,
                    b,
                    out,
                    op,
                } => {
                    let r = &vals[*input];
                    let (ca, cb) = (r.col(*a).expect("factor"), r.col(*b).expect("factor"));
                    let out_schema: Vec<Var> = n.schema.to_vec();
                    let rows = r
                        .iter()
                        .map(|row| {
                            out_schema
                                .iter()
                                .map(|v| {
                                    if v == out {
                                        op.apply(row[ca], row[cb])
                                    } else {
                                        row[r.col(*v).expect("kept column")]
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    Relation::from_rows(out_schema, rows)
                }
            };
            if rel.len() as u64 > n.capacity {
                return Err(RcError::CapacityExceeded {
                    node: id,
                    len: rel.len(),
                    capacity: n.capacity,
                });
            }
            debug_assert_eq!(rel.vars(), n.schema, "node {id} schema drift");
            vals.push(rel);
        }
        Ok(self.outputs.iter().map(|&o| vals[o].clone()).collect())
    }

    /// Lowers the relational circuit to a word-level oblivious circuit
    /// (Sec. 5) under environment defaults (`QEC_TRACE`):
    /// each gate becomes the corresponding `qec-circuit` construction
    /// sized by this circuit's wire bounds.
    pub fn lower(&self) -> LoweredCircuit {
        self.lower_with(Mode::Build, &CompileOptions::from_env())
    }

    /// [`RelationalCircuit::lower`] under explicit [`CompileOptions`].
    /// The builder applies its rewrite rules and hash-consing to each
    /// gate (see [`Builder`]). When `opts.recorder` is enabled the whole
    /// word-circuit construction is recorded as a `build` span. [`Mode`]
    /// has the one variant `Mode::Build`; the parameter stays so
    /// existing callers keep compiling.
    pub fn lower_with(&self, _mode: Mode, opts: &CompileOptions) -> LoweredCircuit {
        let _span = opts.recorder.span("build");
        self.lower_into(Builder::new())
    }

    /// The oracle build: the same lowering through
    /// [`Builder::without_cse`], with neither the builder's rewrite rules
    /// nor its hash-consing, so every gate is emitted as the operator
    /// circuits wrote it. The differential checker evaluates it against
    /// the rule-built circuit, and X24 uses it to measure how much
    /// cross-iteration redundancy the builder collapses in unrolled
    /// fixpoint circuits. Do not serve production circuits through it.
    pub fn lower_without_cse(&self) -> LoweredCircuit {
        self.lower_into(Builder::without_cse())
    }

    fn lower_into(&self, mut b: Builder) -> LoweredCircuit {
        let mut layout = InputLayout::new();
        // Declare inputs first (layout order = node order of Input gates).
        let mut wires: Vec<Option<RelWires>> = vec![None; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            if let RcOp::Input { name } = &n.op {
                layout.add(name.clone(), n.schema.to_vec(), n.capacity as usize);
                wires[id] = Some(qec_circuit::encode_relation(
                    &mut b,
                    n.schema.to_vec(),
                    n.capacity as usize,
                ));
            }
        }
        // Shared decompositions: one circuit per (input, on) pair.
        let mut decomps: HashMap<(NodeId, VarSet), Vec<qec_circuit::DecomposedPart>> =
            HashMap::new();
        for (id, n) in self.nodes.iter().enumerate() {
            let w = match &n.op {
                RcOp::Input { .. } => continue,
                RcOp::Select { input, pred } => {
                    let r = wires[*input].clone().expect("topological");
                    match pred {
                        RcPred::FieldRange { var, lo, hi } => {
                            let col = r.col(*var).expect("validated");
                            let (lo, hi) = (*lo, *hi);
                            c_select(&mut b, &r, |b, s: &SlotWires| {
                                let low = b.constant(lo);
                                let high = b.constant(hi);
                                let ge = {
                                    let lt = b.lt(s.fields[col], low);
                                    b.not(lt)
                                };
                                let lt_hi = b.lt(s.fields[col], high);
                                b.and(ge, lt_hi)
                            })
                        }
                        RcPred::FieldEq { var, value } => {
                            let col = r.col(*var).expect("validated");
                            let value = *value;
                            c_select(&mut b, &r, |b, s: &SlotWires| {
                                let v = b.constant(value);
                                b.eq(s.fields[col], v)
                            })
                        }
                        RcPred::ColEq { a, b: vb } => {
                            let (ca, cb) = (
                                r.col(*a).expect("validated"),
                                r.col(*vb).expect("validated"),
                            );
                            c_select(&mut b, &r, |b, s: &SlotWires| {
                                b.eq(s.fields[ca], s.fields[cb])
                            })
                        }
                    }
                }
                RcOp::Project { input, onto } => {
                    let r = wires[*input].clone().expect("topological");
                    c_project(&mut b, &r, *onto)
                }
                RcOp::Aggregate {
                    input,
                    group,
                    agg,
                    out,
                } => {
                    let r = wires[*input].clone().expect("topological");
                    let op = match agg {
                        AggKind::Count => AggOp::Count,
                        AggKind::Sum(v) => AggOp::Sum(*v),
                        AggKind::Min(v) => AggOp::Min(*v),
                        AggKind::Max(v) => AggOp::Max(*v),
                    };
                    c_aggregate(&mut b, &r, *group, op, *out)
                }
                RcOp::Union { a, b: rb } => {
                    let (ra, rbw) = (
                        wires[*a].clone().expect("topo"),
                        wires[*rb].clone().expect("topo"),
                    );
                    c_union(&mut b, &ra, &rbw)
                }
                RcOp::JoinPk { a, b: rb } => {
                    let (ra, rbw) = (
                        wires[*a].clone().expect("topo"),
                        wires[*rb].clone().expect("topo"),
                    );
                    join_pk(&mut b, &ra, &rbw)
                }
                RcOp::JoinDegree { a, b: rb, deg } => {
                    let (ra, rbw) = (
                        wires[*a].clone().expect("topo"),
                        wires[*rb].clone().expect("topo"),
                    );
                    join_degree_bounded(&mut b, &ra, &rbw, *deg as usize)
                }
                RcOp::JoinOutput {
                    a,
                    b: rb,
                    out_bound,
                } => {
                    let (ra, rbw) = (
                        wires[*a].clone().expect("topo"),
                        wires[*rb].clone().expect("topo"),
                    );
                    join_output_bounded(&mut b, &ra, &rbw, *out_bound as usize)
                }
                RcOp::Semijoin { a, b: rb } => {
                    let (ra, rbw) = (
                        wires[*a].clone().expect("topo"),
                        wires[*rb].clone().expect("topo"),
                    );
                    c_semijoin(&mut b, &ra, &rbw)
                }
                RcOp::Decompose { input, on, part } => {
                    let parts = decomps.entry((*input, *on)).or_insert_with(|| {
                        let r = wires[*input].clone().expect("topological");
                        c_decompose(&mut b, &r, *on)
                    });
                    // circuit part capacities are ceil(cap/2) slots taken
                    // by parity; match the RcNode capacity by truncation
                    let w = parts[*part].rel.clone();
                    c_truncate(&mut b, &w, self.nodes[id].capacity as usize)
                }
                RcOp::Order { input, by, out } => {
                    let r = wires[*input].clone().expect("topological");
                    // deterministic total order: `by`, then the remaining
                    // attributes — matches the RAM operator's tie-breaking
                    let mut cols: Vec<Var> = by.to_vec();
                    cols.extend(r.schema.iter().copied().filter(|v| !by.contains(*v)));
                    let sorted =
                        qec_circuit::sort_slots(&mut b, &r, &qec_circuit::SortKey::Columns(cols));
                    // non-dummies sort first, so slot index + 1 is the rank
                    let schema = self.nodes[id].schema.to_vec();
                    RelWires {
                        schema: schema.clone(),
                        slots: sorted
                            .slots
                            .iter()
                            .enumerate()
                            .map(|(rank, s)| {
                                let rank_w = b.constant(rank as u64 + 1);
                                SlotWires {
                                    fields: schema
                                        .iter()
                                        .map(|v| {
                                            if v == out {
                                                rank_w
                                            } else {
                                                s.fields[sorted.col(*v).expect("kept")]
                                            }
                                        })
                                        .collect(),
                                    valid: s.valid,
                                }
                            })
                            .collect(),
                    }
                }
                RcOp::Truncate { input, capacity } => {
                    let r = wires[*input].clone().expect("topological");
                    c_truncate(&mut b, &r, *capacity as usize)
                }
                RcOp::Rename { input, map } => {
                    let r = wires[*input].clone().expect("topological");
                    let schema = self.nodes[id].schema.to_vec();
                    // pure per-slot wire permutation: new sorted column v
                    // reads the old column it was renamed from
                    let old_of = |v: Var| {
                        map.iter()
                            .find(|(_, to)| *to == v)
                            .map(|(from, _)| *from)
                            .unwrap_or(v)
                    };
                    RelWires {
                        schema: schema.clone(),
                        slots: r
                            .slots
                            .iter()
                            .map(|s| SlotWires {
                                fields: schema
                                    .iter()
                                    .map(|v| s.fields[r.col(old_of(*v)).expect("renamed")])
                                    .collect(),
                                valid: s.valid,
                            })
                            .collect(),
                    }
                }
                RcOp::AttachConst { input, var, value } => {
                    let r = wires[*input].clone().expect("topological");
                    let schema = self.nodes[id].schema.to_vec();
                    let cw = b.constant(*value);
                    RelWires {
                        schema: schema.clone(),
                        slots: r
                            .slots
                            .iter()
                            .map(|s| SlotWires {
                                fields: schema
                                    .iter()
                                    .map(|v| {
                                        if v == var {
                                            cw
                                        } else {
                                            s.fields[r.col(*v).expect("kept")]
                                        }
                                    })
                                    .collect(),
                                valid: s.valid,
                            })
                            .collect(),
                    }
                }
                RcOp::MapMul {
                    input,
                    a,
                    b: fb,
                    out,
                    op,
                } => {
                    let r = wires[*input].clone().expect("topological");
                    let (ca, cb) = (r.col(*a).expect("factor"), r.col(*fb).expect("factor"));
                    let schema = self.nodes[id].schema.to_vec();
                    RelWires {
                        schema: schema.clone(),
                        slots: r
                            .slots
                            .iter()
                            .map(|s| {
                                let (fa, fbw) = (s.fields[ca], s.fields[cb]);
                                let prod = match op {
                                    MapBinOp::Mul => b.mul(fa, fbw),
                                    MapBinOp::Add => b.add(fa, fbw),
                                    MapBinOp::SatAdd => {
                                        // unsigned wrap-add overflows iff
                                        // the sum is below either operand
                                        let s = b.add(fa, fbw);
                                        let ovf = b.lt(s, fa);
                                        let maxw = b.constant(u64::MAX);
                                        b.mux(ovf, maxw, s)
                                    }
                                    MapBinOp::Min => {
                                        let lt = b.lt(fa, fbw);
                                        b.mux(lt, fa, fbw)
                                    }
                                    MapBinOp::Max => {
                                        let gt = b.lt(fbw, fa);
                                        b.mux(gt, fa, fbw)
                                    }
                                };
                                SlotWires {
                                    fields: schema
                                        .iter()
                                        .map(|v| {
                                            if v == out {
                                                prod
                                            } else {
                                                s.fields[r.col(*v).expect("kept")]
                                            }
                                        })
                                        .collect(),
                                    valid: s.valid,
                                }
                            })
                            .collect(),
                    }
                }
            };
            wires[id] = Some(w);
        }

        let mut out_wires = Vec::new();
        let mut out_meta = Vec::new();
        for &o in &self.outputs {
            let w = wires[o].as_ref().expect("output wired");
            let start = out_wires.len();
            out_wires.extend(w.flatten());
            out_meta.push((w.schema.clone(), start, out_wires.len() - start));
        }
        LoweredCircuit {
            circuit: b.finish(out_wires),
            layout,
            outputs: out_meta,
        }
    }
}

/// RAM mirror of one decomposition part (Alg. 2 semantics; tie-breaking
/// may differ from the sorting network's, which is fine — all certified
/// bounds and the part union are identical).
fn ram_decompose_part(rel: &Relation, on: VarSet, part: usize) -> Relation {
    let bucket = part / 2;
    let half = part % 2;
    let lo = 1u64 << bucket;
    let hi = 1u64 << (bucket + 1);
    let cols: Vec<usize> = on.iter().map(|v| rel.col(v).expect("subset")).collect();
    let mut counts: HashMap<Vec<u64>, u64> = HashMap::new();
    for row in rel.iter() {
        let key: Vec<u64> = cols.iter().map(|&c| row[c]).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let in_bucket: Vec<&Vec<u64>> = rel
        .iter()
        .filter(|row| {
            let key: Vec<u64> = cols.iter().map(|&c| row[c]).collect();
            (lo..hi).contains(&counts[&key])
        })
        .collect();
    // rows are already lexicographically sorted (schema-first); sorting by
    // `on` then the rest matches τ_X with deterministic ties
    let mut sorted: Vec<&Vec<u64>> = in_bucket;
    sorted.sort_by(|x, y| {
        let kx: Vec<u64> = cols.iter().map(|&c| x[c]).collect();
        let ky: Vec<u64> = cols.iter().map(|&c| y[c]).collect();
        kx.cmp(&ky).then_with(|| x.cmp(y))
    });
    let rows = sorted
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == half)
        .map(|(_, r)| r.clone())
        .collect();
    Relation::from_rows(rel.schema().to_vec(), rows)
}

impl RelationalCircuit {
    /// Graphviz (DOT) rendering of the circuit DAG — the same picture the
    /// paper draws in Figures 1 and 2. Inputs are boxes, joins are
    /// ellipses, outputs are double-circled; edges follow dataflow.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph rc {\n  rankdir=BT;\n  node [fontsize=10];\n");
        let esc = |s: String| s.replace('"', "'");
        for (i, n) in self.nodes.iter().enumerate() {
            let (label, shape) = match &n.op {
                RcOp::Input { name } => (format!("{name}\\n{} ≤ {}", n.schema, n.capacity), "box"),
                RcOp::Select { .. } => (format!("σ\\n{}", n.schema), "ellipse"),
                RcOp::Project { onto, .. } => (format!("Π {onto}"), "ellipse"),
                RcOp::Aggregate { agg, .. } => (format!("Π agg {agg:?}"), "ellipse"),
                RcOp::Union { .. } => ("∪".to_string(), "ellipse"),
                RcOp::JoinPk { .. } => (format!("⋈ pk\\n{}", n.schema), "ellipse"),
                RcOp::JoinDegree { deg, .. } => (format!("⋈ deg≤{deg}\\n{}", n.schema), "ellipse"),
                RcOp::JoinOutput { out_bound, .. } => {
                    (format!("⋈ out≤{out_bound}\\n{}", n.schema), "ellipse")
                }
                RcOp::Semijoin { .. } => (format!("⋉\\n{}", n.schema), "ellipse"),
                RcOp::Decompose { part, .. } => (format!("decomp #{part}"), "hexagon"),
                RcOp::Order { by, .. } => (format!("τ {by}"), "ellipse"),
                RcOp::Truncate { capacity, .. } => (format!("trunc {capacity}"), "ellipse"),
                RcOp::Rename { .. } => (format!("ρ\\n{}", n.schema), "ellipse"),
                RcOp::AttachConst { var, value, .. } => (format!("{var} := {value}"), "ellipse"),
                RcOp::MapMul { out, op, .. } => (format!("map {op:?} → {out}"), "ellipse"),
            };
            let peripheries = if self.outputs.contains(&i) { 2 } else { 1 };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\", shape={shape}, peripheries={peripheries}];",
                esc(label)
            );
            for dep in node_inputs(&n.op) {
                let _ = writeln!(out, "  n{dep} -> n{i};");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Upstream node ids of a gate.
fn node_inputs(op: &RcOp) -> Vec<NodeId> {
    match op {
        RcOp::Input { .. } => vec![],
        RcOp::Select { input, .. }
        | RcOp::Project { input, .. }
        | RcOp::Aggregate { input, .. }
        | RcOp::Decompose { input, .. }
        | RcOp::Order { input, .. }
        | RcOp::Truncate { input, .. }
        | RcOp::Rename { input, .. }
        | RcOp::AttachConst { input, .. }
        | RcOp::MapMul { input, .. } => vec![*input],
        RcOp::Union { a, b }
        | RcOp::JoinPk { a, b }
        | RcOp::JoinDegree { a, b, .. }
        | RcOp::JoinOutput { a, b, .. }
        | RcOp::Semijoin { a, b } => vec![*a, *b],
    }
}

impl std::fmt::Display for RelationalCircuit {
    /// EXPLAIN-style plan listing: one line per gate with schema and
    /// capacity (wire bound).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            let op = match &n.op {
                RcOp::Input { name } => format!("Input \"{name}\""),
                RcOp::Select { input, pred } => match pred {
                    RcPred::FieldRange { var, lo, hi } => {
                        format!("Select(n{input}, {lo} ≤ {var} < {hi})")
                    }
                    RcPred::FieldEq { var, value } => format!("Select(n{input}, {var} = {value})"),
                    RcPred::ColEq { a, b } => format!("Select(n{input}, {a} = {b})"),
                },
                RcOp::Project { input, onto } => format!("Project(n{input} → {onto})"),
                RcOp::Aggregate {
                    input,
                    group,
                    agg,
                    out,
                } => {
                    format!("Aggregate(n{input} by {group}, {agg:?} → {out})")
                }
                RcOp::Union { a, b } => format!("Union(n{a}, n{b})"),
                RcOp::JoinPk { a, b } => format!("JoinPk(n{a}, n{b})"),
                RcOp::JoinDegree { a, b, deg } => format!("JoinDeg(n{a}, n{b}, deg ≤ {deg})"),
                RcOp::JoinOutput { a, b, out_bound } => {
                    format!("JoinOut(n{a}, n{b}, OUT ≤ {out_bound})")
                }
                RcOp::Semijoin { a, b } => format!("Semijoin(n{a} ⋉ n{b})"),
                RcOp::Decompose { input, on, part } => {
                    format!("Decompose(n{input} on {on}, part {part})")
                }
                RcOp::Order { input, by, out } => format!("Order(n{input} by {by} → {out})"),
                RcOp::Truncate { input, capacity } => format!("Truncate(n{input} → {capacity})"),
                RcOp::Rename { input, map } => {
                    let pairs: Vec<String> = map.iter().map(|(a, b)| format!("{a}→{b}")).collect();
                    format!("Rename(n{input}, {})", pairs.join(", "))
                }
                RcOp::AttachConst { input, var, value } => {
                    format!("Attach(n{input}, {var} := {value})")
                }
                RcOp::MapMul {
                    input,
                    a,
                    b,
                    out,
                    op,
                } => {
                    format!("Map(n{input}, {a} {op:?} {b} → {out})")
                }
            };
            let marker = if self.outputs.contains(&i) {
                " *out*"
            } else {
                ""
            };
            writeln!(
                f,
                "n{i:<4} [{} | cap {:>8}] {op}{marker}",
                n.schema, n.capacity
            )?;
        }
        Ok(())
    }
}

/// A lowered relational circuit.
pub struct LoweredCircuit {
    /// The word-level circuit.
    pub circuit: Circuit,
    /// Input layout for binding databases.
    pub layout: InputLayout,
    /// Output metadata: `(schema, start, len)` into the circuit outputs.
    pub outputs: Vec<(Vec<Var>, usize, usize)>,
}

impl LoweredCircuit {
    /// Evaluates on a database and decodes the output relations.
    pub fn run(&self, db: &Database) -> Result<Vec<Relation>, Box<dyn std::error::Error>> {
        let inputs = self.layout.values(db)?;
        let raw = self.circuit.evaluate(&inputs)?;
        Ok(self.decode(&raw))
    }

    fn decode(&self, raw: &[u64]) -> Vec<Relation> {
        self.outputs
            .iter()
            .map(|(schema, start, len)| {
                qec_circuit::decode_relation(schema, &raw[*start..*start + *len])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_relation::random_relation;

    fn vs(bits: &[u32]) -> VarSet {
        bits.iter().map(|&i| Var(i)).collect()
    }

    /// A small plan: σ(R) ⋈deg S ∪ T, exercised through both evaluators.
    fn sample_circuit() -> RelationalCircuit {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 16);
        let s = rc.input("S", vs(&[1, 2]), 16);
        let sel = rc.select(
            r,
            RcPred::FieldRange {
                var: Var(0),
                lo: 0,
                hi: 20,
            },
        );
        let j = rc.join_degree(sel, s, 16);
        let p = rc.project(j, vs(&[0, 2]));
        rc.mark_output(p);
        rc
    }

    #[test]
    fn ram_and_lowered_agree() {
        let rc = sample_circuit();
        let lowered = rc.lower();
        for seed in 0..4 {
            let mut db = Database::new();
            db.insert("R", random_relation(vec![Var(0), Var(1)], 14, seed));
            db.insert("S", random_relation(vec![Var(1), Var(2)], 14, seed + 5));
            let ram = rc.evaluate_ram(&db).unwrap();
            let circ = lowered.run(&db).unwrap();
            assert_eq!(ram, circ, "seed {seed}");
        }
    }

    #[test]
    fn capacity_violation_detected_in_ram() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 1);
        let s = rc.input("S", vs(&[1, 2]), 4);
        // declared degree 1, but data will have degree 2 — the join's
        // capacity (1·1) cannot hold the 2 result tuples
        let j = rc.join_degree(r, s, 1);
        rc.mark_output(j);
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![Var(0), Var(1)], vec![vec![1, 1]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![Var(1), Var(2)], vec![vec![1, 5], vec![1, 6]]),
        );
        let err = rc.evaluate_ram(&db).unwrap_err();
        assert!(matches!(err, RcError::CapacityExceeded { .. }), "{err:?}");
        // and the lowered circuit fires an assertion on the same input
        let lowered = rc.lower();
        assert!(lowered.run(&db).is_err());
    }

    #[test]
    fn decompose_parts_shared_in_lowering() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 16);
        let parts = rc.decompose(r, vs(&[0]));
        assert_eq!(parts.len(), 2 * (1 + 16u64.ilog2()) as usize);
        for &(id, _, _) in &parts {
            rc.mark_output(id);
        }
        let lowered = rc.lower();
        let mut db = Database::new();
        let rel = qec_relation::zipf_relation(Var(0), Var(1), 14, 1.1, 2);
        db.insert("R", rel.clone());
        let outs = lowered.run(&db).unwrap();
        let mut acc = Relation::empty(vs(&[0, 1]));
        for o in &outs {
            acc = acc.union(o);
        }
        assert_eq!(acc, rel);
        // RAM decomposition also partitions
        let ram = rc.evaluate_ram(&db).unwrap();
        let mut acc2 = Relation::empty(vs(&[0, 1]));
        let mut total = 0;
        for o in &ram {
            total += o.len();
            acc2 = acc2.union(o);
        }
        assert_eq!(acc2, rel);
        assert_eq!(total, rel.len());
    }

    #[test]
    fn annotation_ops() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0]), 4);
        let a = rc.attach_const(r, Var(5), 3);
        let a2 = rc.attach_const(a, Var(6), 7);
        let m = rc.map_mul(a2, Var(5), Var(6), Var(7));
        rc.mark_output(m);
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![Var(0)], vec![vec![1], vec![2]]),
        );
        let ram = rc.evaluate_ram(&db).unwrap();
        let expect = Relation::from_rows(vec![Var(0), Var(7)], vec![vec![1, 21], vec![2, 21]]);
        assert_eq!(ram[0], expect);
        let lowered = rc.lower();
        assert_eq!(lowered.run(&db).unwrap()[0], expect);
    }

    #[test]
    fn rename_is_pure_rewiring() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 6);
        // swap the two columns, then rename one out of the way
        let swapped = rc.rename(r, &[(Var(0), Var(1)), (Var(1), Var(0))]);
        let m = rc.rename(swapped, &[(Var(1), Var(7))]);
        rc.mark_output(swapped);
        rc.mark_output(m);
        let mut db = Database::new();
        let rel = Relation::from_rows(vec![Var(0), Var(1)], vec![vec![1, 2], vec![3, 4]]);
        db.insert("R", rel.clone());
        let ram = rc.evaluate_ram(&db).unwrap();
        assert_eq!(
            ram[0],
            rel.rename(Var(0), Var(9))
                .rename(Var(1), Var(0))
                .rename(Var(9), Var(1))
        );
        let lowered = rc.lower();
        let circ = lowered.run(&db).unwrap();
        assert_eq!(circ, ram);
        // an identity rename adds no node
        let mut rc2 = RelationalCircuit::new();
        let r2 = rc2.input("R", vs(&[0, 1]), 6);
        assert_eq!(rc2.rename(r2, &[(Var(0), Var(0))]), r2);
        assert_eq!(rc2.nodes.len(), 1);
    }

    #[test]
    fn sat_add_map_saturates_in_both_evaluators() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 4);
        let m = rc.map_bin(r, Var(0), Var(1), Var(2), MapBinOp::SatAdd);
        rc.mark_output(m);
        let mut db = Database::new();
        // u64::MAX is the circuit dummy sentinel, so drive the boundary
        // from just below it: (MAX-1) + 5 must clamp, not wrap.
        db.insert(
            "R",
            Relation::from_rows(
                vec![Var(0), Var(1)],
                vec![vec![u64::MAX - 1, 5], vec![3, 4]],
            ),
        );
        let ram = rc.evaluate_ram(&db).unwrap();
        let expect = Relation::from_rows(vec![Var(2)], vec![vec![u64::MAX], vec![7]]);
        assert_eq!(ram[0], expect);
        let lowered = rc.lower();
        assert_eq!(lowered.run(&db).unwrap()[0], expect);
    }

    #[test]
    fn equality_predicates() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 8);
        let eq = rc.select(
            r,
            RcPred::FieldEq {
                var: Var(1),
                value: 7,
            },
        );
        let diag = rc.select(
            r,
            RcPred::ColEq {
                a: Var(0),
                b: Var(1),
            },
        );
        rc.mark_output(eq);
        rc.mark_output(diag);
        let mut db = Database::new();
        let rel = Relation::from_rows(
            vec![Var(0), Var(1)],
            vec![vec![7, 7], vec![1, 7], vec![2, 3]],
        );
        db.insert("R", rel.clone());
        let ram = rc.evaluate_ram(&db).unwrap();
        assert_eq!(ram[0], rel.select(|row| row[1] == 7));
        assert_eq!(ram[1], rel.select(|row| row[0] == row[1]));
        let lowered = rc.lower();
        let circ = lowered.run(&db).unwrap();
        assert_eq!(circ, ram);
    }

    #[test]
    fn order_gate_ranks_consistently() {
        let mut rc = RelationalCircuit::new();
        let r = rc.input("R", vs(&[0, 1]), 6);
        let o = rc.order_by(r, vs(&[1]), Var(9));
        rc.mark_output(o);
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(
                vec![Var(0), Var(1)],
                vec![vec![5, 3], vec![1, 9], vec![2, 3]],
            ),
        );
        let ram = rc.evaluate_ram(&db).unwrap();
        let lowered = rc.lower();
        let circ = lowered.run(&db).unwrap();
        assert_eq!(ram[0], circ[0]);
        // ranks follow B order with A tie-break: (2,3)→1? no: (2,3) vs (5,3)
        // tie on B=3 broken by A: (2,3)→1, (5,3)→2, (1,9)→3
        let rank_col = ram[0].col(Var(9)).unwrap();
        let rows: Vec<(u64, u64)> = ram[0].iter().map(|row| (row[0], row[rank_col])).collect();
        assert!(rows.contains(&(2, 1)) && rows.contains(&(5, 2)) && rows.contains(&(1, 3)));
    }

    #[test]
    fn missing_input_errors() {
        let rc = sample_circuit();
        let db = Database::new();
        assert!(matches!(
            rc.evaluate_ram(&db),
            Err(RcError::MissingInput(_))
        ));
    }
}
